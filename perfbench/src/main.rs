//! The repository's benchmark: served 786,432-bit products, end to end.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wire_fresh|pinned_open|dghv_and_tree> \
//!     [--seed <n>|held-out] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! Run from the repository root. Each run spawns the shipped stack in
//! this process — `nproc` cards of `SsaSoftware::paper()` in a
//! `ServerPool` with `ServeConfig::default()`, behind a `NetServer` on
//! loopback TCP — and drives it from one client thread over one
//! `NetSession`. Every product is checked; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.
//!
//! With `--trace 0` the metrics are the end-to-end ones. With
//! `--trace 1` the window alternates untraced and traced quarters (their
//! difference is `trace.overhead_ratio`), then per-layer probes time
//! each layer's public functions on the workload's operands; spans are
//! written to `perfbench/out/`.

#![forbid(unsafe_code)]

mod check;
mod layers;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

use he_accel::ServeStats;

use crate::report::{
    beyond, median, peak_rss_mb, percentile, print_result, ratio, Metrics, Provenance,
};
use crate::trace::Tracer;
use crate::workloads::{Window, Workload, LAG_BOUND_MS};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Seed kept out of development, for checking later claims
/// (`--seed held-out`).
const HELD_OUT_SEED: u64 = 20_161;
/// Full set-ups per untraced run (`setup_s` is their median): five of
/// the sub-second fleet set-ups, three of the DGHV one, which makes keys.
const SETUP_REPS: [usize; 2] = [5, 3];
/// Untimed traffic between set-up and the timed window, so the window
/// starts in steady state: the cards' scratch has grown to the window's
/// batch sizes and the allocator is warm.
const SETTLE: Duration = Duration::from_secs(3);
/// A run that has not finished by now exits with an error.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 40,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" if value == "held-out" => args.seed = HELD_OUT_SEED,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn fail(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    exit(1);
}

fn main() {
    let origin = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!("usage: perfbench --workload <wire_fresh|pinned_open|dghv_and_tree> [--seed <n>|held-out] [--seconds <n>] [--trace <0|1>]");
        exit(2);
    });
    // Detached on purpose: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}");
        exit(3);
    });
    let mut workload = Workload::new(&args.workload, args.seed)
        .unwrap_or_else(|| fail(&format!("unknown workload {:?}", args.workload)));
    let cards = std::thread::available_parallelism().map_or(1, |n| n.get());
    let provenance = Provenance::collect(args.seed, cards);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("provenance: {}", provenance.json());

    let reps = match (&workload, args.trace) {
        (_, true) => 1,
        (Workload::DghvAndTree(_), false) => SETUP_REPS[1],
        _ => SETUP_REPS[0],
    };
    let mut setups = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        let start = Instant::now();
        let fleet = workload.set_up(cards).unwrap_or_else(|e| fail(&e));
        setups.push(start.elapsed().as_secs_f64());
        if rep + 1 == reps {
            kept = Some(fleet);
        } else {
            fleet.shutdown();
        }
    }
    let fleet = kept.expect("at least one set-up");
    println!(
        "set-up: {setups:.3?} s; process start to end of set-up {:.3} s",
        origin.elapsed().as_secs_f64()
    );
    let mut settle = workload.run(&fleet.session, SETTLE, None);
    workload.verify_samples(&mut settle);
    if settle.failed() > 0 {
        fail(&format!(
            "settling traffic failed its checks: {} of {} products",
            settle.failed(),
            settle.attempted
        ));
    }
    let length = Duration::from_secs(args.seconds);

    if !args.trace {
        let mut window = workload.run(&fleet.session, length, None);
        fleet.shutdown();
        let sampled = workload.verify_samples(&mut window);
        let valid = describe(&args.workload, &window, sampled);
        let mut metrics = Metrics::default();
        metrics.put("setup_s", median(&setups), "s");
        metrics.put("products_per_s", window.products_per_s(), "1/s");
        metrics.put(
            "latency_p50_ms",
            percentile(&window.latencies_ms, 50.0),
            "ms",
        );
        metrics.put(
            "latency_p90_ms",
            percentile(&window.latencies_ms, 90.0),
            "ms",
        );
        metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
        metrics.put("success_ratio", 1.0 - error_ratio(&window), "ratio");
        metrics.print();
        print_result(
            valid && window.mismatches == 0,
            window.attempted,
            window.failed(),
            &metrics,
        );
        return;
    }

    let mut tracer = Tracer::new(origin);
    let before = fleet
        .session
        .stats()
        .unwrap_or_else(|e| fail(&format!("stats: {e}")));
    let (mut plain, mut traced) = (Window::default(), Window::default());
    for quarter in 0..4 {
        if quarter % 2 == 0 {
            plain.absorb(workload.run(&fleet.session, length / 4, None));
        } else {
            traced.absorb(workload.run(&fleet.session, length / 4, Some(&mut tracer)));
        }
    }
    let after = fleet
        .session
        .stats()
        .unwrap_or_else(|e| fail(&format!("stats: {e}")));
    // Cost per unit of the workload's headline: latency on the open
    // loop, time per product on the closed ones.
    let cost = |w: &Window| match workload {
        Workload::PinnedOpen(_) => median(&w.latencies_ms),
        _ => 1.0 / w.products_per_s(),
    };
    let overhead = cost(&traced) / cost(&plain);
    println!(
        "traced quarters: {:.3} products/s vs untraced {:.3} ({} spans)",
        traced.products_per_s(),
        plain.products_per_s(),
        tracer.len()
    );
    let mut window = plain;
    window.absorb(traced);
    let sampled = workload.verify_samples(&mut window);
    let valid = describe(&args.workload, &window, sampled);

    let mut metrics = Metrics::default();
    let root = tracer.open("probes", 0);
    let mut mismatches = layers::dghv(
        &mut tracer,
        root,
        &workload,
        &fleet.session,
        args.seed,
        &mut metrics,
    );
    mismatches += layers::serving(&mut tracer, root, &workload, fleet, cards, &mut metrics);
    layers::engine(&mut tracer, root, &workload, &mut metrics);
    layers::arithmetic(&mut tracer, root, &workload, &mut metrics);
    layers::codec(&mut tracer, root, &workload, &mut metrics);
    tracer.close(root);
    serve_deltas(&before, &after, &mut metrics);
    metrics.put("gen.lag_p99_ms", percentile(&window.lag_ms, 99.0), "ms");
    metrics.put("trace.overhead_ratio", overhead, "ratio");
    metrics.print();

    let path =
        PathBuf::from("perfbench/out").join(format!("trace_{}_{}.json", args.workload, args.seed));
    match tracer.write(&path) {
        Ok(()) => println!("spans: {} written to {}", tracer.len(), path.display()),
        Err(e) => fail(&format!("writing {}: {e}", path.display())),
    }
    window.mismatches += mismatches;
    print_result(
        valid && window.mismatches == 0,
        window.attempted,
        window.failed(),
        &metrics,
    );
}

/// (failed + expired + refused + mismatched) ÷ attempted.
fn error_ratio(window: &Window) -> f64 {
    ratio(window.failed() as f64, window.attempted as f64)
}

/// Prints the window's human-readable summary; returns whether the run
/// is valid (the open-loop generator kept its schedule).
fn describe(name: &str, window: &Window, karatsuba: usize) -> bool {
    let lat = &window.latencies_ms;
    println!(
        "window: {:.1} s, {} attempted, {} verified ({} Karatsuba bit-exact), {} mismatched, \
         {} expired, {} refused, {} lost; error_ratio {:.6}",
        window.seconds,
        window.attempted,
        window.verified,
        karatsuba,
        window.mismatches,
        window.expired,
        window.refused,
        window.lost,
        error_ratio(window)
    );
    println!(
        "latency: {} samples, p50 {:.3} ms, p90 {:.3} ms ({} beyond), p99 {:.3} ms ({} beyond)",
        lat.len(),
        percentile(lat, 50.0),
        percentile(lat, 90.0),
        beyond(lat, 90.0),
        percentile(lat, 99.0),
        beyond(lat, 99.0)
    );
    if name == "dghv_and_tree" {
        println!(
            "  (one sample per AND tree; {:.3} AND gates/s)",
            window.products_per_s()
        );
    }
    let lag = percentile(&window.lag_ms, 99.0);
    println!(
        "generator lag p99 {lag:.3} ms over {} submissions",
        window.lag_ms.len()
    );
    if name == "pinned_open" && lag > LAG_BOUND_MS {
        println!(
            "INVALID: the open-loop generator fell {lag:.3} ms behind (bound {LAG_BOUND_MS} ms)"
        );
        return false;
    }
    true
}

/// Serving counters over the timed window, read through the wire.
fn serve_deltas(before: &ServeStats, after: &ServeStats, metrics: &mut Metrics) {
    let d = |f: fn(&ServeStats) -> u64| f(after).saturating_sub(f(before)) as f64;
    let flushes = d(|s| s.flushes);
    let completed = d(|s| s.completed);
    let hits = d(|s| s.cache_hits);
    let lookups = hits + d(|s| s.cache_misses);
    metrics.put("serve.flushes", flushes, "count");
    metrics.put("serve.mean_flush_size", ratio(completed, flushes), "count");
    metrics.put("serve.largest_flush", after.largest_flush as f64, "count");
    metrics.put("serve.cache_hit_ratio", ratio(hits, lookups), "ratio");
    metrics.put(
        "serve.pinned_hit_ratio",
        ratio(d(|s| s.pinned_hits), completed),
        "ratio",
    );
    metrics.put("serve.expired", d(ServeStats::expired), "count");
    metrics.put("serve.retried", d(|s| s.retried), "count");
}
