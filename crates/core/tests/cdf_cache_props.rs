//! Properties of the memoized response-time CDF engine: the cached
//! evaluators must be *bit-identical* to the from-scratch computation under
//! arbitrary interleavings of measurements, replies, quarantines, and
//! queries, and the `S⊛W` base convolution must run at most once per window
//! generation.

use aqf_core::monitor::{InfoRepository, MonitorConfig};
use aqf_core::wire::{PerfBroadcast, ReadMeasurement};
use aqf_sim::{ActorId, SimDuration, SimTime};
use proptest::prelude::*;

fn r(i: usize) -> ActorId {
    ActorId::from_index(i)
}

fn perf(ts_us: u64, tq_us: u64, tb_us: u64) -> PerfBroadcast {
    PerfBroadcast {
        read: Some(ReadMeasurement {
            ts_us,
            tq_us,
            tb_us,
        }),
        publisher: None,
    }
}

fn repo_with(bin: Option<u64>, window: usize) -> InfoRepository {
    InfoRepository::new(MonitorConfig {
        window_size: window,
        cdf_bin_us: bin,
        ..MonitorConfig::default()
    })
}

/// One scripted repository operation, decoded from a `(kind, replica, a, b)`
/// tuple drawn by the property below.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push an `(S, W, U)` measurement (U omitted when zero).
    Push { ts: u64, tq: u64, tb: u64 },
    /// Record a reply, refreshing the gateway-delay point mass.
    Reply { t1: u64, rtt: u64 },
    /// Charge a timeout (threshold 1: quarantines immediately).
    Timeout,
    /// Evaluate both CDFs at a deadline and compare against the reference.
    Query { deadline_us: u64 },
}

fn decode(kind: u8, a: u64, b: u64) -> Op {
    match kind % 4 {
        0 => Op::Push {
            ts: a % 400_000 + 1,
            tq: b % 150_000,
            // Roughly half the pushes contribute deferred-wait history.
            tb: if a.is_multiple_of(2) { b % 250_000 } else { 0 },
        },
        1 => Op::Reply {
            t1: a % 80_000,
            rtt: b % 120_000,
        },
        2 => Op::Timeout,
        _ => Op::Query {
            deadline_us: a % 1_500_000,
        },
    }
}

/// Applies `ops` to a repository, asserting after every query that the
/// cached CDFs match the uncached reference bit for bit.
fn run_script(ops: &[(u8, usize, u64, u64)], bin: Option<u64>, window: usize) {
    let repo = &mut repo_with(bin, window);
    let mut now_us = 1_000u64;
    for &(kind, replica, a, b) in ops {
        now_us += 1_000;
        let now = SimTime::from_micros(now_us);
        let id = r(replica % 3);
        match decode(kind, a, b) {
            Op::Push { ts, tq, tb } => repo.record_perf(id, &perf(ts, tq, tb), now),
            Op::Reply { t1, rtt } => {
                let tm = SimTime::from_micros(now_us.saturating_sub(rtt));
                repo.record_reply(id, t1, tm, now);
            }
            Op::Timeout => {
                repo.record_timeout(
                    id,
                    now,
                    1,
                    SimDuration::from_secs(5),
                    SimDuration::from_secs(60),
                );
            }
            Op::Query { deadline_us } => {
                let d = SimDuration::from_micros(deadline_us);
                // Exact equality on purpose: the cached pipeline performs
                // the same floating-point operations in the same order.
                assert_eq!(
                    repo.immediate_cdf(id, d).to_bits(),
                    repo.immediate_cdf_uncached(id, d).to_bits(),
                    "immediate_cdf diverged at deadline {deadline_us}µs"
                );
                assert_eq!(
                    repo.deferred_cdf(id, d).to_bits(),
                    repo.deferred_cdf_uncached(id, d).to_bits(),
                    "deferred_cdf diverged at deadline {deadline_us}µs"
                );
            }
        }
    }
    // Sweep every replica at a spread of deadlines once more, now that the
    // caches are warm from the scripted queries.
    for i in 0..3 {
        for deadline_us in [0u64, 50_000, 200_000, 700_000, 2_000_000] {
            let d = SimDuration::from_micros(deadline_us);
            assert_eq!(
                repo.immediate_cdf(r(i), d).to_bits(),
                repo.immediate_cdf_uncached(r(i), d).to_bits()
            );
            assert_eq!(
                repo.deferred_cdf(r(i), d).to_bits(),
                repo.deferred_cdf_uncached(r(i), d).to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_cdf_bit_identical_to_uncached(
        ops in proptest::collection::vec(
            (0u8..8, 0usize..3, 0u64..1_000_000, 0u64..1_000_000),
            1..80,
        ),
        window in [4usize, 10, 20],
    ) {
        run_script(&ops, None, window);
    }

    #[test]
    fn cached_cdf_bit_identical_to_uncached_with_binning(
        ops in proptest::collection::vec(
            (0u8..8, 0usize..3, 0u64..1_000_000, 0u64..1_000_000),
            1..80,
        ),
        bin in [1u64, 500, 10_000],
    ) {
        run_script(&ops, Some(bin), 10);
    }
}

/// Satellite regression: the `S⊛W` base convolution — ~90% of the paper's
/// Figure 3 selection overhead — runs exactly once per window generation no
/// matter how many CDFs are evaluated against the unchanged window.
#[test]
fn one_base_convolution_per_window_generation() {
    let mut repo = repo_with(None, 20);
    let now = SimTime::from_secs(1);
    repo.record_perf(r(1), &perf(100_000, 10_000, 50_000), now);

    for deadline_ms in 1..200u64 {
        let d = SimDuration::from_millis(deadline_ms);
        repo.immediate_cdf(r(1), d);
        repo.deferred_cdf(r(1), d);
    }
    let stats = repo.cache_stats();
    assert_eq!(stats.base_rebuilds, 1, "one S⊛W per window generation");
    assert_eq!(stats.immediate_rebuilds, 1);
    // The deferred layer is built up to the queried deadline: at 1 ms it
    // holds nothing and is exact up to 159.999 ms; the 160 ms query, where
    // its only point lies, extends it once.
    assert_eq!(stats.deferred_rebuilds, 2);
    // 199 immediate + 199 deferred queries; 3 were rebuild misses.
    assert_eq!(stats.lookups(), 398);
    assert_eq!(stats.hits, 395);

    // A new measurement starts a new generation: exactly one more base
    // convolution, however many queries follow.
    repo.record_perf(r(1), &perf(120_000, 5_000, 40_000), now);
    for deadline_ms in 1..100u64 {
        let d = SimDuration::from_millis(deadline_ms);
        repo.immediate_cdf(r(1), d);
        repo.deferred_cdf(r(1), d);
    }
    assert_eq!(repo.cache_stats().base_rebuilds, 2);
}

/// The deferred path must reuse the cached shifted base: evaluating
/// `deferred_cdf` first (cold) still performs a single `S⊛W`, and a
/// subsequent `immediate_cdf` finds the base already cached.
#[test]
fn deferred_path_shares_base_with_immediate() {
    let mut repo = repo_with(None, 20);
    let now = SimTime::from_secs(1);
    for i in 0..10u64 {
        repo.record_perf(r(1), &perf(90_000 + i * 1_000, 5_000, 30_000), now);
    }
    repo.deferred_cdf(r(1), SimDuration::from_millis(500));
    let stats = repo.cache_stats();
    assert_eq!(stats.base_rebuilds, 1);
    assert_eq!(stats.deferred_rebuilds, 1);
    // The immediate layer was materialized on the way to the deferred pmf.
    repo.immediate_cdf(r(1), SimDuration::from_millis(500));
    let stats = repo.cache_stats();
    assert_eq!(stats.base_rebuilds, 1, "no second convolution");
    assert_eq!(stats.immediate_rebuilds, 1);
    assert_eq!(stats.hits, 1);
    // The cold deferred query rebuilt two layers but is one miss.
    assert_eq!(stats.lookups(), 2);
}

/// A new gateway delay (recorded by `record_reply`) must invalidate the
/// shifted layers — the point mass moved — without re-running the `S⊛W`
/// convolution, and the refreshed values must match the reference.
#[test]
fn gateway_shift_invalidates_derived_layers_only() {
    let mut repo = repo_with(None, 20);
    let now = SimTime::from_secs(1);
    repo.record_perf(r(1), &perf(100_000, 0, 20_000), now);

    // G = 0 initially: all mass at 100ms.
    assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(100)), 1.0);
    let stats = repo.cache_stats();
    assert_eq!((stats.base_rebuilds, stats.immediate_rebuilds), (1, 1));

    // A reply with a 5ms gateway delay shifts the distribution to 105ms.
    let tm = SimTime::from_millis(2_000);
    let tp = SimTime::from_millis(2_030);
    repo.record_reply(r(1), 25_000, tm, tp);
    assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(104)), 0.0);
    assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(105)), 1.0);
    assert_eq!(
        repo.immediate_cdf(r(1), SimDuration::from_millis(105)),
        repo.immediate_cdf_uncached(r(1), SimDuration::from_millis(105))
    );
    let stats = repo.cache_stats();
    assert_eq!(stats.base_rebuilds, 1, "shift must not re-convolve");
    assert_eq!(stats.immediate_rebuilds, 2);

    // Deferred layer saw the same invalidation.
    assert_eq!(
        repo.deferred_cdf(r(1), SimDuration::from_millis(125))
            .to_bits(),
        repo.deferred_cdf_uncached(r(1), SimDuration::from_millis(125))
            .to_bits()
    );
    assert_eq!(repo.cache_stats().base_rebuilds, 1);
}
