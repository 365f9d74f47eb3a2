//! Per-layer probes of the traced run.
//!
//! Each probe times calls into one layer's public functions on the
//! workload's own operands, after the end-to-end window, and records one
//! span per call under the layer's span. The SSA stage probes use the
//! allocating `he_ssa::decompose`/`recompose` (the zero-alloc `_into`
//! forms the multiplier runs are not exported), so they include one
//! 512 KiB allocation per call that the served path does not pay.

use std::time::Instant;

use he_accel::{
    ClientSession, CompletionQueue, EvalEngine, ProductJob, ProductRequest, ServeConfig,
    ServedMultiplier, ServerPool, SsaSoftware, Submitter,
};
use he_bigint::{BarrettReducer, UBig};
use he_dghv::{CircuitEvaluator, DghvParams, KeyPair};
use he_field::Fp;
use he_hwsim::perf::PerfModel;
use he_hwsim::AcceleratorConfig;
use he_net::{Frame, NetSession, WireOperand, DEFAULT_MAX_FRAME_BYTES};
use he_ntt::convolution::pointwise_assign;
use he_ntt::radix2k::bit_reverse_permute;
use he_ntt::{Ntt64k, NttScratch, Radix2Plan, Radix2kPlan, N64K};
use he_ssa::{decompose, recompose, SsaMultiplier, SsaParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::{product_matches, Residues};
use crate::report::{median, ratio, Metrics};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Fleet, Recorder, Workload, WINDOW};

/// Timed calls per probe (the median is reported).
const REPS: usize = 7;
/// Requests per serving replay.
const REPLAY: usize = 64;
/// Batch of the engine probe.
const ENGINE_BATCH: usize = 16;
/// DGHV trees the he-dghv probe evaluates.
const PROBE_TREES: usize = 3;

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

/// What one serving replay measured.
#[derive(Debug, Default)]
struct Replay {
    pps: f64,
    latencies_ms: Vec<f64>,
    /// Refused submissions plus failed or mismatched products.
    failures: u64,
}

/// A closed window-32 replay of `requests` through `front`.
fn replay<S: Submitter>(
    front: &S,
    requests: Vec<(ProductRequest, Residues, Residues)>,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Replay {
    let mut out = Replay::default();
    let mut queue: CompletionQueue<S, (usize, Instant)> = CompletionQueue::new(front);
    let checks: Vec<(Residues, Residues)> = requests.iter().map(|(_, a, b)| (*a, *b)).collect();
    let mut pending = requests.into_iter().enumerate();
    let start = Instant::now();
    loop {
        while queue.in_flight() < WINDOW {
            let Some((k, (request, _, _))) = pending.next() else {
                break;
            };
            if queue.submit_tagged(request, (k, Instant::now())).is_err() {
                out.failures += 1;
            }
        }
        let Some(done) = queue.recv() else { break };
        let now = Instant::now();
        let (k, submitted) = done.tag;
        tracer.record("replay_request", submitted, now, parent, Some(k as u64));
        out.latencies_ms.push((now - submitted).as_secs_f64() * 1e3);
        let (a, b) = checks[k];
        if !done.result.is_ok_and(|p| product_matches(a, b, &p)) {
            out.failures += 1;
        }
    }
    out.pps = checks.len() as f64 / start.elapsed().as_secs_f64();
    out
}

/// Operand pairs of the workload's request shape with their residues.
fn replay_pairs(workload: &Workload) -> Vec<(UBig, UBig, Residues, Residues)> {
    workload
        .pairs(REPLAY)
        .into_iter()
        .map(|(a, b)| {
            let (ra, rb) = (Residues::of(&a), Residues::of(&b));
            (a, b, ra, rb)
        })
        .collect()
}

/// Serving probes: a replay over the workload's connection, then the
/// same replay against an in-process fleet without the socket. Consumes
/// the fleet (it is shut down before the in-process fleet starts).
pub fn serving(
    tracer: &mut Tracer,
    parent: SpanId,
    workload: &Workload,
    fleet: Fleet,
    cards: usize,
    metrics: &mut Metrics,
) -> u64 {
    let pairs = replay_pairs(workload);
    let pinned = workload.pinned();
    let span = tracer.open("layer.he-net.remote_replay", parent);
    let session: &NetSession = &fleet.session;
    if pinned {
        session
            .register("replay", pairs[0].0.clone())
            .expect("pin over the wire");
    }
    let requests = pairs
        .iter()
        .map(|(a, b, ra, rb)| {
            let request = if pinned {
                session.request_with("replay", b.clone())
            } else {
                ProductRequest::new(a.clone(), b.clone())
            };
            (request, *ra, *rb)
        })
        .collect();
    let remote = replay(session, requests, tracer, span);
    tracer.close(span);
    fleet.shutdown();

    let span = tracer.open("layer.he-accel.serve.in_process_replay", parent);
    let engines = (0..cards)
        .map(|_| EvalEngine::new(SsaSoftware::paper()))
        .collect();
    let pool = ServerPool::spawn(engines, ServeConfig::default());
    let mut client: ClientSession = pool.session();
    if pinned {
        client.register("replay", pairs[0].0.clone());
    }
    let requests = pairs
        .iter()
        .map(|(a, b, ra, rb)| {
            let request = if pinned {
                client.request_with("replay", b.clone())
            } else {
                ProductRequest::new(a.clone(), b.clone())
            };
            (request, *ra, *rb)
        })
        .collect();
    let local = replay(&client, requests, tracer, span);
    drop(client);
    pool.shutdown();
    tracer.close(span);

    metrics.put("serve.in_process_pps", local.pps, "1/s");
    metrics.put(
        "serve.in_process_latency_p50_ms",
        median(&local.latencies_ms),
        "ms",
    );
    metrics.put(
        "net.remote_vs_in_process",
        ratio(remote.pps, local.pps),
        "ratio",
    );
    remote.failures + local.failures
}

/// he-bigint and he-dghv probes: key generation, encryption, `UBig`
/// multiplication, Barrett reduction mod x0, and whole trees split into
/// their served products and client-side reductions. Uses the workload's
/// keys when it has them; otherwise makes a seeded key.
pub fn dghv(
    tracer: &mut Tracer,
    parent: SpanId,
    workload: &Workload,
    session: &NetSession,
    seed: u64,
    metrics: &mut Metrics,
) -> u64 {
    let span = tracer.open("layer.he-dghv", parent);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD6);
    let start = Instant::now();
    let fresh = KeyPair::generate(DghvParams::small_paper(), &mut rng).expect("valid parameters");
    let stop = Instant::now();
    tracer.record("keygen", start, stop, span, None);
    let keygen_s = (stop - start).as_secs_f64();
    let keys = workload.keys().unwrap_or(&fresh);
    let mut leaves = Vec::new();
    let encrypt_s = tracer.time_reps("encrypt", span, 16, || {
        leaves.push(keys.public().encrypt(true, &mut rng));
    });

    let reducer = BarrettReducer::new(keys.public().modulus().clone()).expect("x0 is nonzero");
    let (a, b) = (leaves[0].value(), leaves[1].value());
    let mul_s = tracer.time_reps("ubig_mul", span, 5, || a * b);
    let product = a * b;
    let reduce_s = tracer.time_reps("barrett_reduce", span, 5, || reducer.reduce(&product));

    let served = ServedMultiplier::new(session);
    let recorder = Recorder::new(&served);
    let evaluator = CircuitEvaluator::new(keys.public(), &recorder);
    let (mut tree_s, mut products_s, mut reduce_total_s) = (0.0, 0.0, 0.0);
    let mut mismatches = 0;
    for _ in 0..PROBE_TREES {
        let start = Instant::now();
        let root = evaluator.and_tree(&leaves);
        let stop = Instant::now();
        tracer.record("tree", start, stop, span, None);
        let recorded = recorder.take();
        tree_s += (stop - start)
            .saturating_sub(recorded.excluded)
            .as_secs_f64();
        products_s += recorded
            .levels
            .iter()
            .map(|(from, to)| (*to - *from).as_secs_f64())
            .sum::<f64>();
        if !root.is_ok_and(|root| keys.secret().decrypt(&root)) {
            mismatches += 1;
        }
        // The reductions `PublicKey::mul_pairs` ran inside the tree,
        // timed again on the same products.
        for (_, _, product) in &recorded.kept {
            let start = Instant::now();
            std::hint::black_box(reducer.reduce(product));
            let stop = Instant::now();
            tracer.record("tree_reduce", start, stop, span, None);
            reduce_total_s += (stop - start).as_secs_f64();
        }
    }
    tracer.close(span);
    let trees = PROBE_TREES as f64;
    metrics.put("bigint.mul_786k_ms", mul_s * 1e3, "ms");
    metrics.put("bigint.barrett_reduce_ms", reduce_s * 1e3, "ms");
    metrics.put("dghv.keygen_s", keygen_s, "s");
    metrics.put("dghv.encrypt_ms", encrypt_s * 1e3, "ms");
    metrics.put("dghv.products_ms_per_tree", products_s / trees * 1e3, "ms");
    metrics.put(
        "dghv.reduce_ms_per_tree",
        reduce_total_s / trees * 1e3,
        "ms",
    );
    metrics.put("dghv.reduce_share", ratio(reduce_total_s, tree_s), "ratio");
    mismatches
}

/// he-accel::engine probe: `EvalEngine::run` at batch 16 on one card,
/// uncached, one-cached and both-cached, interleaved.
pub fn engine(tracer: &mut Tracer, parent: SpanId, workload: &Workload, metrics: &mut Metrics) {
    let span = tracer.open("layer.he-accel.engine", parent);
    let engine = EvalEngine::new(SsaSoftware::paper());
    let pairs = workload.pairs(ENGINE_BATCH);
    let handle = |x: &UBig| engine.prepare(x).expect("operand fits");
    let fixed = handle(&pairs[0].0);
    let handles: Vec<_> = pairs.iter().map(|(a, b)| (handle(a), handle(b))).collect();
    let raw: Vec<ProductJob> = pairs.iter().map(|(a, b)| ProductJob::Raw(a, b)).collect();
    let one: Vec<ProductJob> = pairs
        .iter()
        .map(|(_, b)| ProductJob::OnePrepared(&fixed, b))
        .collect();
    let both: Vec<ProductJob> = handles
        .iter()
        .map(|(a, b)| ProductJob::Prepared(a, b))
        .collect();
    let mut times = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..3 {
        for (rung, jobs) in [&raw, &one, &both].into_iter().enumerate() {
            let start = Instant::now();
            std::hint::black_box(engine.run(jobs).expect("batch runs"));
            let stop = Instant::now();
            tracer.record(
                ["engine_uncached", "engine_one_cached", "engine_both_cached"][rung],
                start,
                stop,
                span,
                None,
            );
            times[rung].push((stop - start).as_secs_f64());
        }
    }
    tracer.close(span);
    let pps = |t: &[f64]| ENGINE_BATCH as f64 / median(t);
    metrics.put("engine.uncached_pps", pps(&times[0]), "1/s");
    metrics.put("engine.one_cached_pps", pps(&times[1]), "1/s");
    metrics.put("engine.both_cached_pps", pps(&times[2]), "1/s");
}

/// he-field, he-ntt, he-ssa and he-hwsim probes, with the paper-gap
/// table printed.
pub fn arithmetic(tracer: &mut Tracer, parent: SpanId, workload: &Workload, metrics: &mut Metrics) {
    let (a, b) = workload.pairs(1).remove(0);
    let params = SsaParams::paper();
    let bits = params.coeff_bits();
    let plan = Ntt64k::new();
    let mut scratch = NttScratch::new();

    // he-ssa stages, on the workload's operands.
    let span = tracer.open("layer.he-ssa", parent);
    let decompose_s = tracer.time_reps("decompose", span, REPS, || decompose(&a, bits, N64K));
    let mut fa = decompose(&a, bits, N64K);
    let mut fb = decompose(&b, bits, N64K);
    plan.forward_into(&mut fa, &mut scratch);
    plan.forward_into(&mut fb, &mut scratch);
    // Repeated in place: the cost of a field product does not depend on
    // the values, so each rep works on the previous rep's output.
    let mut spectrum = fa.clone();
    let pointwise_s = tracer.time_reps("pointwise_assign", span, REPS, || {
        pointwise_assign(&mut spectrum, &fb)
    });
    spectrum.copy_from_slice(&fa);
    pointwise_assign(&mut spectrum, &fb);
    plan.inverse_into(&mut spectrum, &mut scratch);
    let recompose_s = tracer.time_reps("recompose", span, REPS, || recompose(&spectrum, bits));
    let ssa = SsaMultiplier::paper();
    let multiply_s = tracer.time_reps("multiply", span, REPS, || {
        ssa.multiply(&a, &b).expect("fits")
    });
    let ta = ssa.transform(&a).expect("fits");
    let tb = ssa.transform(&b).expect("fits");
    let _ = tracer.time_reps("transform", span, REPS, || ssa.transform(&a).expect("fits"));
    let one_s = tracer.time_reps("multiply_one_cached", span, REPS, || {
        ssa.multiply_one_cached(&ta, &b).expect("fits")
    });
    let both_s = tracer.time_reps("multiply_transformed", span, REPS, || {
        ssa.multiply_transformed(&ta, &tb).expect("fits")
    });
    tracer.close(span);

    // he-ntt passes as shipped, then the radix-2^k vs radix-2 rung on one
    // thread each (Radix2Plan does not fan out), interleaved.
    let span = tracer.open("layer.he-ntt", parent);
    let mut data = fa.clone();
    let forward_s = tracer.time_reps("forward_into", span, REPS, || {
        plan.forward_into(&mut data, &mut scratch)
    });
    let radix2 = Radix2Plan::with_omega(N64K, he_field::roots::omega_64k()).expect("64K plans");
    let (mut r2, mut ratios) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t2k = he_ntt::par::with_thread_budget(1, || {
            tracer.time_reps("forward_into_one_thread", span, 1, || {
                plan.forward_into(&mut data, &mut scratch)
            })
        });
        let t2 = tracer.time_reps("radix2_forward_in_place", span, 1, || {
            radix2.forward_in_place(&mut data)
        });
        r2.push(t2);
        ratios.push(t2 / t2k);
    }
    let inverse_s = tracer.time_reps("inverse_into", span, REPS, || {
        plan.inverse_into(&mut data, &mut scratch)
    });
    let bitrev_s = tracer.time_reps("bit_reverse_permute", span, REPS, || {
        bit_reverse_permute(&mut data)
    });
    let passes = Radix2kPlan::with_omega(N64K, he_field::roots::omega_64k())
        .expect("64K plans")
        .memory_passes();
    tracer.close(span);

    // he-field element operations over the spectra.
    let span = tracer.open("layer.he-field", parent);
    let mut out = vec![Fp::ZERO; N64K];
    let mul_s = tracer.time_reps("mul", span, REPS, || {
        for ((o, x), y) in out.iter_mut().zip(&fa).zip(&fb) {
            *o = *x * *y;
        }
    });
    let pow2_s = tracer.time_reps("mul_by_pow2", span, REPS, || {
        for (i, (o, x)) in out.iter_mut().zip(&fa).enumerate() {
            *o = x.mul_by_pow2((i % 192) as u32);
        }
    });
    tracer.close(span);

    let model = PerfModel::new(AcceleratorConfig::paper());
    let hw_fft = model.fft_us();
    let hw_dot = model.dot_product_us();
    let hw_carry = model.cycles_to_us(model.carry_recovery_cycles());
    let hw_product = model.multiplication_us();

    metrics.put("field.mul_ns", mul_s * 1e9 / N64K as f64, "ns");
    metrics.put("field.mul_by_pow2_ns", pow2_s * 1e9 / N64K as f64, "ns");
    metrics.put("ntt.forward_us", us(forward_s), "us");
    metrics.put("ntt.inverse_us", us(inverse_s), "us");
    metrics.put("ntt.bitrev_us", us(bitrev_s), "us");
    metrics.put("ntt.memory_passes", passes as f64, "count");
    metrics.put("ntt.radix2_forward_us", us(median(&r2)), "us");
    metrics.put("ntt.radix2k_vs_radix2", median(&ratios), "ratio");
    metrics.put("ssa.decompose_us", us(decompose_s), "us");
    metrics.put("ssa.pointwise_us", us(pointwise_s), "us");
    metrics.put("ssa.recompose_us", us(recompose_s), "us");
    metrics.put("ssa.multiply_us", us(multiply_s), "us");
    metrics.put("ssa.one_cached_us", us(one_s), "us");
    metrics.put("ssa.both_cached_us", us(both_s), "us");
    metrics.put(
        "ssa.transform_share",
        ratio(2.0 * forward_s + inverse_s, multiply_s),
        "ratio",
    );
    metrics.put("hwsim.fft_us", hw_fft, "model_us");
    metrics.put("hwsim.dot_product_us", hw_dot, "model_us");
    metrics.put("hwsim.carry_recovery_us", hw_carry, "model_us");
    metrics.put("hwsim.product_us", hw_product, "model_us");
    metrics.put(
        "ssa.forward_vs_hwsim",
        ratio(us(forward_s), hw_fft),
        "ratio",
    );
    metrics.put(
        "ssa.pointwise_vs_hwsim",
        ratio(us(pointwise_s), hw_dot),
        "ratio",
    );
    metrics.put(
        "ssa.recompose_vs_hwsim",
        ratio(us(recompose_s), hw_carry),
        "ratio",
    );
    metrics.put(
        "ssa.multiply_vs_hwsim",
        ratio(us(multiply_s), hw_product),
        "ratio",
    );

    println!("paper-gap table (software on this host vs the he_hwsim Section V model):");
    println!(
        "  {:<22} {:>12} {:>12} {:>10}",
        "stage", "software_us", "model_us", "ratio"
    );
    for (stage, sw, hw) in [
        ("forward transform", us(forward_s), hw_fft),
        ("inverse transform", us(inverse_s), hw_fft),
        ("pointwise (dot)", us(pointwise_s), hw_dot),
        ("recompose (carry)", us(recompose_s), hw_carry),
        ("multiply (raw)", us(multiply_s), hw_product),
    ] {
        println!(
            "  {stage:<22} {sw:>12.1} {hw:>12.2} {:>10.1}",
            ratio(sw, hw)
        );
    }
}

/// he-net codec probe: Submit (two inline operands) and Product frames;
/// bytes per product for the workload's own request shape.
pub fn codec(tracer: &mut Tracer, parent: SpanId, workload: &Workload, metrics: &mut Metrics) {
    let span = tracer.open("layer.he-net.codec", parent);
    let (a, b) = workload.pairs(1).remove(0);
    let product = &a * &b;
    let submit = Frame::Submit {
        req_id: 1,
        a: WireOperand::Inline(a.clone()),
        b: WireOperand::Inline(b.clone()),
        deadline_nanos: None,
    };
    let answer = Frame::Product {
        req_id: 1,
        value: product,
    };
    let submit_bytes = submit.encode();
    let answer_bytes = answer.encode();
    let decode = |bytes: &[u8]| Frame::decode(bytes, DEFAULT_MAX_FRAME_BYTES).expect("round trip");
    let encode_submit = tracer.time_reps("encode_submit", span, 3 * REPS, || submit.encode());
    let decode_submit = tracer.time_reps("decode_submit", span, 3 * REPS, || decode(&submit_bytes));
    let encode_product = tracer.time_reps("encode_product", span, 3 * REPS, || answer.encode());
    let decode_product =
        tracer.time_reps("decode_product", span, 3 * REPS, || decode(&answer_bytes));
    // The workload's own request frame: pinned_open ships its recurring
    // operand as an 8-byte pin id.
    let request_bytes = if workload.pinned() {
        Frame::Submit {
            req_id: 1,
            a: WireOperand::Pinned(0),
            b: WireOperand::Inline(b),
            deadline_nanos: Some(0),
        }
        .encode()
        .len()
    } else {
        submit_bytes.len()
    };
    tracer.close(span);
    metrics.put("net.encode_submit_us", us(encode_submit), "us");
    metrics.put("net.decode_submit_us", us(decode_submit), "us");
    metrics.put("net.encode_product_us", us(encode_product), "us");
    metrics.put("net.decode_product_us", us(decode_product), "us");
    metrics.put(
        "net.bytes_per_product",
        (request_bytes + answer_bytes.len()) as f64,
        "bytes",
    );
}
