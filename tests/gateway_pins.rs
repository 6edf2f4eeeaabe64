//! Behaviour pins for the three gateway handlers (sequential, FIFO,
//! causal) across the shared service pipeline: crash/restart with state
//! transfer, the same churn with durable storage (WAL replay), and
//! overload with deadline-aware read shedding. Each test replays a
//! scenario and asserts [`ScenarioMetrics::digest`] against the value
//! recorded before the handlers were folded onto one gateway core.
//!
//! If one of these digests moves, a gateway changed observable behaviour
//! — action order, event order, RNG draws, or a counter. Re-baseline only
//! for a deliberate protocol change, using the ignored printer test at
//! the bottom.

use aqf::core::{OrderingGuarantee, OverloadConfig, QosSpec, RecoveryPolicy, SelectionPolicy};
use aqf::sim::{SimDuration, SimTime};
use aqf::workload::{
    run_scenario, ClientSpec, FaultEvent, FaultKind, FaultTarget, ObjectKind, OpPattern,
    ScenarioConfig, ScenarioMetrics,
};

const SEED: u64 = 7;

/// Builds one pinned scenario for an ordering guarantee.
type Scenario = fn(OrderingGuarantee) -> ScenarioConfig;

const ORDERINGS: [OrderingGuarantee; 3] = [
    OrderingGuarantee::Sequential,
    OrderingGuarantee::Fifo,
    OrderingGuarantee::Causal,
];

/// The paper deployment with fast failure detection, hosting the object
/// each ordering is exercised with: the default object for sequential,
/// the bank for FIFO and the shared document for causal.
fn base(ordering: OrderingGuarantee) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(200, 0.9, 2, SEED).with_fast_detection();
    config.ordering = ordering;
    match ordering {
        OrderingGuarantee::Fifo => config.object = ObjectKind::Bank,
        OrderingGuarantee::Causal => config.object = ObjectKind::Document,
        OrderingGuarantee::Sequential => {}
    }
    config
}

fn crash_restart(target: FaultTarget, at: u64, back: u64) -> [FaultEvent; 2] {
    [
        FaultEvent {
            at: SimTime::from_secs(at),
            target,
            kind: FaultKind::Crash,
        },
        FaultEvent {
            at: SimTime::from_secs(back),
            target,
            kind: FaultKind::Restart,
        },
    ]
}

/// A primary and a secondary each crash and restart under 2% loss, so
/// donor rotation, state transfer and the transfer re-request all run.
fn crash_scenario(ordering: OrderingGuarantee) -> ScenarioConfig {
    let mut config = base(ordering);
    config.loss_probability = 0.02;
    for c in &mut config.clients {
        c.total_requests = 80;
    }
    config.faults = crash_restart(FaultTarget::Primary(1), 20, 30)
        .into_iter()
        .chain(crash_restart(FaultTarget::Secondary(0), 40, 50))
        .collect();
    config
}

/// The crash scenario with sync-before-ack storage: the restarted
/// replicas take the WAL replay ladder instead of a cold transfer.
fn durable_scenario(ordering: OrderingGuarantee) -> ScenarioConfig {
    crash_scenario(ordering).with_durability()
}

/// The EXT-OVL shape at 4× load: eight 80%-read closed-loop clients with
/// a 250 ms think time and the protective overload preset, hedging off.
fn overload_scenario(ordering: OrderingGuarantee) -> ScenarioConfig {
    let mut config = base(ordering);
    config.overload = OverloadConfig::protective();
    config.recovery = RecoveryPolicy {
        hedge_fraction: None,
        ..RecoveryPolicy::default()
    };
    config.clients = (0..8)
        .map(|i| ClientSpec {
            qos: QosSpec::new(2, SimDuration::from_millis(200), 0.9).expect("valid qos"),
            request_delay: SimDuration::from_millis(250),
            total_requests: 120,
            pattern: OpPattern::ReadFraction(0.8),
            policy: SelectionPolicy::Probabilistic,
            start_offset: SimDuration::from_millis(50 * i as u64),
        })
        .collect();
    config
}

fn check(
    label: &str,
    scenario: Scenario,
    expected: [u64; 3],
    exercised: fn(&ScenarioMetrics) -> bool,
) {
    for (ordering, want) in ORDERINGS.into_iter().zip(expected) {
        let m = run_scenario(&scenario(ordering));
        assert!(
            exercised(&m),
            "{label}/{ordering:?}: scenario no longer exercises the path it pins"
        );
        assert_eq!(
            m.digest(),
            want,
            "{label}/{ordering:?} diverged from the recorded gateway trace"
        );
    }
}

fn total(m: &ScenarioMetrics, f: fn(&aqf::core::server::ServerStats) -> u64) -> u64 {
    m.servers.iter().map(|s| f(&s.stats)).sum()
}

#[test]
fn crash_restart_digests_unchanged() {
    check("crash", crash_scenario, CRASH_DIGESTS, |m| {
        total(m, |s| s.state_transfers) > 0
    });
}

#[test]
fn durable_restart_digests_unchanged() {
    check("durable", durable_scenario, DURABLE_DIGESTS, |m| {
        total(m, |s| s.replayed_records) > 0 && total(m, |s| s.wal_appends) > 0
    });
}

#[test]
fn overload_digests_unchanged() {
    check("overload", overload_scenario, OVERLOAD_DIGESTS, |m| {
        total(m, |s| s.shed_reads) > 0
    });
}

// --- Recorded digests (per-handler gateways, seed 7), in ORDERINGS order ---

const CRASH_DIGESTS: [u64; 3] = [
    0xdf3f_abbd_552d_1685,
    0x1b71_c551_62c6_55b9,
    0x894d_a35c_b199_9e5c,
];

const DURABLE_DIGESTS: [u64; 3] = [
    0x967f_0fab_e2a5_1010,
    0x2f08_d68d_e5ce_7c51,
    0x4260_388a_39f2_3829,
];

const OVERLOAD_DIGESTS: [u64; 3] = [
    0x95a2_8b16_9d22_d005,
    0x3b1f_edea_a94a_9962,
    0x953f_e857_2f60_b067,
];

/// Re-baselining tool: prints the digests the constants above pin, with
/// the counters that show which gateway paths each run exercised.
/// `cargo test --release -p aqf --test gateway_pins -- --ignored --nocapture`
#[test]
#[ignore = "prints baseline digests for re-pinning after a deliberate protocol change"]
fn print_gateway_digests() {
    let scenarios: [(&str, Scenario); 3] = [
        ("CRASH", crash_scenario),
        ("DURABLE", durable_scenario),
        ("OVERLOAD", overload_scenario),
    ];
    for (label, scenario) in scenarios {
        for ordering in ORDERINGS {
            let m = run_scenario(&scenario(ordering));
            println!(
                "{label} {ordering:?}: {:#018x} (transfers {}, replayed {}, wal {}, shed {}, deferred {})",
                m.digest(),
                total(&m, |s| s.state_transfers),
                total(&m, |s| s.replayed_records),
                total(&m, |s| s.wal_appends),
                total(&m, |s| s.shed_reads),
                total(&m, |s| s.reads_deferred),
            );
        }
    }
}
