//! Cost of the discrete convolutions at the heart of the response-time
//! model (paper §5.2): `S (*) W` for immediate reads, `S (*) W (*) U` for
//! deferred reads, across sliding-window sizes, and the deferred stage
//! bounded at the deadline as the monitor runs it.

use aqf_sim::DelayModel;
use aqf_stats::Pmf;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn window_pmf(model: &DelayModel, window: usize, seed: u64) -> Pmf {
    let mut rng = SmallRng::seed_from_u64(seed);
    Pmf::from_samples((0..window).map(|_| model.sample(&mut rng).as_micros()))
}

/// The pre-merge convolution: materialize every pairwise term, stable-sort
/// by sum, accumulate adjacent runs. Kept here (not in `aqf-stats`) purely
/// as the same-binary A/B baseline for the k-way merge that replaced it —
/// cross-run wall-clock comparisons on shared hardware are noise-dominated,
/// so the before/after is measured inside one process.
fn convolve_materialized(a: &Pmf, b: &Pmf) -> Vec<(u64, f64)> {
    let mut pairs: Vec<(u64, f64)> = Vec::with_capacity(a.support_len() * b.support_len());
    for (v1, p1) in a.iter() {
        for (v2, p2) in b.iter() {
            pairs.push((v1.saturating_add(v2), p1 * p2));
        }
    }
    pairs.sort_by_key(|&(v, _)| v);
    let mut points: Vec<(u64, f64)> = Vec::new();
    for (v, p) in pairs {
        match points.last_mut() {
            Some(last) if last.0 == v => last.1 += p,
            _ => points.push((v, p)),
        }
    }
    points
}

fn bench_convolution(c: &mut Criterion) {
    let service = DelayModel::normal_ms(100.0, 50.0);
    let queue = DelayModel::Exponential {
        mean_us: 10_000.0,
        min: aqf_sim::SimDuration::ZERO,
    };
    let deferred = DelayModel::Uniform {
        lo: aqf_sim::SimDuration::ZERO,
        hi: aqf_sim::SimDuration::from_secs(4),
    };

    let mut group = c.benchmark_group("convolution");
    for window in [10usize, 20, 40] {
        let s = window_pmf(&service, window, 1);
        let w = window_pmf(&queue, window, 2);
        let u = window_pmf(&deferred, window, 3);
        group.bench_with_input(
            BenchmarkId::new("immediate_s_w_g", window),
            &window,
            |b, _| {
                b.iter(|| {
                    let pmf = s.convolve(&w).shift(1_000);
                    std::hint::black_box(pmf.cdf(150_000))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("deferred_s_w_g_u", window),
            &window,
            |b, _| {
                b.iter(|| {
                    let pmf = s.convolve(&w).shift(1_000).convolve(&u);
                    std::hint::black_box(pmf.cdf(150_000))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("binned_deferred_1ms", window),
            &window,
            |b, _| {
                b.iter(|| {
                    let pmf = s.convolve(&w).binned(1_000).shift(1_000).convolve(&u);
                    std::hint::black_box(pmf.cdf(150_000))
                })
            },
        );
    }
    group.finish();

    // Same-binary before/after of the convolution engine itself: the old
    // materialize-all-pairs sort versus the shipping k-way merge, at the
    // window sizes above and at the wide-support shape (a second-stage
    // convolution, where the left side is already a product of two windows)
    // where the l^2 pair table was largest.
    let mut ab = c.benchmark_group("convolve_kway_vs_sort");
    for window in [10usize, 20, 40] {
        let s = window_pmf(&service, window, 1);
        let w = window_pmf(&queue, window, 2);
        let u = window_pmf(&deferred, window, 3);
        let sw = s.convolve(&w).shift(1_000); // wide left side: ~window^2 points
        ab.bench_with_input(BenchmarkId::new("sort_s_w", window), &window, |b, _| {
            b.iter(|| std::hint::black_box(convolve_materialized(&s, &w)))
        });
        ab.bench_with_input(BenchmarkId::new("kway_s_w", window), &window, |b, _| {
            b.iter(|| std::hint::black_box(s.convolve(&w)))
        });
        ab.bench_with_input(BenchmarkId::new("sort_sw_u", window), &window, |b, _| {
            b.iter(|| std::hint::black_box(convolve_materialized(&sw, &u)))
        });
        ab.bench_with_input(BenchmarkId::new("kway_sw_u", window), &window, |b, _| {
            b.iter(|| std::hint::black_box(sw.convolve(&u)))
        });
    }
    ab.finish();

    // Algorithm 1 reads the deferred CDF only at the deadline, so the
    // monitor merges `(S⊛W)⊛U` only that far: the paper's d = 160 ms
    // against a deferred wait spread over 4 s, beside the full convolution.
    // At these seeds no sum lies below 160 ms (the merge stops at its first
    // pop); 800 ms keeps 720 of the 7,991 points, the ~1/10 share the
    // `paper-read` deployment keeps at 160 ms.
    let mut bounded = c.benchmark_group("deferred_deadline_bounded");
    let window = 20usize;
    let s = window_pmf(&service, window, 1);
    let w = window_pmf(&queue, window, 2);
    let u = window_pmf(&deferred, window, 3);
    let sw = s.convolve(&w).shift(1_000);
    bounded.bench_with_input(BenchmarkId::new("full_sw_u", window), &window, |b, _| {
        b.iter(|| std::hint::black_box(sw.convolve(&u)))
    });
    bounded.bench_with_input(
        BenchmarkId::new("upto_160ms_sw_u", window),
        &window,
        |b, _| b.iter(|| std::hint::black_box(sw.convolve_upto(&u, 160_000))),
    );
    bounded.bench_with_input(
        BenchmarkId::new("upto_800ms_sw_u", window),
        &window,
        |b, _| b.iter(|| std::hint::black_box(sw.convolve_upto(&u, 800_000))),
    );
    bounded.finish();
}

criterion_group!(benches, bench_convolution);
criterion_main!(benches);
