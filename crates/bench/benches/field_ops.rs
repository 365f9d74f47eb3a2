//! Field-arithmetic microbenchmarks: the cost of the Eq. 4 reduction path
//! and the shift-based twiddles the hardware exploits.
//!
//! The single-constant cases time one operation on the same `black_box`ed
//! operands every iteration, so a data-dependent branch is perfectly
//! predicted there. The `64K` cases stream one spectrum's worth of random
//! operands (and random shifts) through each operation — the access
//! pattern of the transform and pointwise loops — and report the time per
//! 65,536 operations.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use he_field::mont::MontFp;
use he_field::{reduce, Fp, U192};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Points in one 64K-point spectrum.
const N64K: usize = 1 << 16;

fn random_fps(rng: &mut StdRng) -> Vec<Fp> {
    (0..N64K).map(|_| Fp::new(rng.gen())).collect()
}

fn bench_field_64k(c: &mut Criterion) {
    let mut group = c.benchmark_group("field_64k");
    let mut rng = StdRng::seed_from_u64(64);
    let xs = random_fps(&mut rng);
    let ys = random_fps(&mut rng);
    let shifts: Vec<u32> = (0..N64K).map(|_| rng.gen_range(0..192)).collect();
    let wides: Vec<u128> = (0..N64K).map(|_| rng.gen()).collect();
    let mut out = vec![Fp::ZERO; N64K];

    group.bench_function("mul 64K random operands", |bench| {
        bench.iter(|| {
            for ((o, &x), &y) in out.iter_mut().zip(&xs).zip(&ys) {
                *o = x * y;
            }
            black_box(&out);
        })
    });
    group.bench_function("mul_by_pow2 64K random shifts", |bench| {
        bench.iter(|| {
            for ((o, &x), &s) in out.iter_mut().zip(&xs).zip(&shifts) {
                *o = x.mul_by_pow2(s);
            }
            black_box(&out);
        })
    });
    group.bench_function("add 64K random operands", |bench| {
        bench.iter(|| {
            for ((o, &x), &y) in out.iter_mut().zip(&xs).zip(&ys) {
                *o = x + y;
            }
            black_box(&out);
        })
    });
    group.bench_function("sub 64K random operands", |bench| {
        bench.iter(|| {
            for ((o, &x), &y) in out.iter_mut().zip(&xs).zip(&ys) {
                *o = x - y;
            }
            black_box(&out);
        })
    });
    group.bench_function("reduce128 64K random words", |bench| {
        bench.iter(|| {
            for (o, &w) in out.iter_mut().zip(&wides) {
                *o = Fp::from_u128(w);
            }
            black_box(&out);
        })
    });
    group.finish();
}

fn bench_field(c: &mut Criterion) {
    let mut group = c.benchmark_group("field");
    let a = Fp::new(0x1234_5678_9abc_def0);
    let b = Fp::new(0x0fed_cba9_8765_4321);

    group.bench_function("mul (Eq.4 reduction)", |bench| {
        bench.iter(|| black_box(a) * black_box(b))
    });
    group.bench_function("add", |bench| bench.iter(|| black_box(a) + black_box(b)));
    group.bench_function("mul_by_pow2 (shift twiddle)", |bench| {
        bench.iter(|| black_box(a).mul_by_pow2(black_box(99)))
    });
    group.bench_function("reduce128", |bench| {
        bench.iter(|| reduce::reduce128(black_box(0xdead_beef_dead_beef_dead_beef_dead_beefu128)))
    });
    group.bench_function("u192 rotl + to_fp (hardware path)", |bench| {
        let v = U192::from(a);
        bench.iter(|| black_box(v).rotl(black_box(100)).to_fp())
    });
    group.bench_function("inverse", |bench| bench.iter(|| black_box(a).inverse()));

    // Ablation (DESIGN.md §8): Eq. 4 Solinas reduction vs generic
    // Montgomery on the same operands.
    let ma = MontFp::from_fp(a);
    let mb = MontFp::from_fp(b);
    group.bench_function("mul (Montgomery ablation)", |bench| {
        bench.iter(|| black_box(ma) * black_box(mb))
    });
    group.finish();
}

criterion_group!(benches, bench_field, bench_field_64k);
criterion_main!(benches);
