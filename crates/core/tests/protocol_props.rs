//! Property-based tests over the protocol state machines: random event
//! interleavings must never violate the sequential-consistency and
//! selection-model invariants.

use aqf_core::model::{pk_probability, select_replicas, Candidate};
use aqf_core::monitor::MonitorConfig;
use aqf_core::object::VersionedRegister;
use aqf_core::server::{ServerAction, ServerConfig, ServerGateway};
use aqf_core::wire::{
    Operation, Payload, PerfBroadcast, ReadMeasurement, RequestId, UpdateRequest, PRIMARY_GROUP,
    SECONDARY_GROUP,
};
use aqf_core::{CausalServerGateway, FifoServerGateway, InfoRepository, ServerProtocol};
use aqf_group::{View, ViewId};
use aqf_sim::{ActorId, SimDuration, SimTime};
use proptest::prelude::*;

fn a(i: usize) -> ActorId {
    ActorId::from_index(i)
}

fn views() -> (View, View) {
    (
        View::new(PRIMARY_GROUP, ViewId(0), vec![a(0), a(1), a(2)]),
        View::new(SECONDARY_GROUP, ViewId(0), vec![a(10), a(11)]),
    )
}

fn primary() -> ServerGateway {
    let (p, s) = views();
    ServerGateway::new(
        a(1),
        p,
        s,
        Box::new(VersionedRegister::new()),
        ServerConfig {
            clients: vec![a(20)],
            ..ServerConfig::default()
        },
    )
}

/// Drains StartService actions synchronously with a fixed 1 ms service
/// time, returning all follow-up actions.
fn drain(gw: &mut impl ServerProtocol, actions: &mut Vec<ServerAction>, now: SimTime) {
    while let Some(pos) = actions
        .iter()
        .position(|x| matches!(x, ServerAction::StartService { .. }))
    {
        let ServerAction::StartService { token } = actions.remove(pos) else {
            unreachable!()
        };
        gw.on_service_start(token, now);
        actions.extend(gw.on_service_done(token, now + SimDuration::from_millis(1)));
    }
}

fn update_payload(i: u64, attempt: u32) -> Payload {
    Payload::Update(UpdateRequest {
        id: RequestId {
            client: a(20),
            seq: i,
        },
        op: Operation::new("set", format!("v{i}").into_bytes()),
        attempt,
    })
}

proptest! {
    /// Feed a primary replica a random interleaving of update bodies and
    /// GSN assignments (each body and each assignment exactly once, in any
    /// relative order): the replica must end fully committed, having
    /// applied every update exactly once, in GSN order.
    #[test]
    fn commits_in_gsn_order_under_any_interleaving(
        n in 1usize..12,
        seed in 0u64..500,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        // Event stream: (is_assignment, index).
        let mut events: Vec<(bool, u64)> = (0..n as u64)
            .flat_map(|i| [(false, i), (true, i)])
            .collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        events.shuffle(&mut rng);

        let mut gw = primary();
        let mut actions = Vec::new();
        let mut csn_trace = Vec::new();
        for (step, (is_assign, i)) in events.into_iter().enumerate() {
            let now = SimTime::from_millis(step as u64);
            let payload = if is_assign {
                Payload::GsnAssign {
                    req: RequestId { client: a(20), seq: i },
                    gsn: i + 1,
                }
            } else {
                Payload::Update(UpdateRequest {
                    id: RequestId { client: a(20), seq: i },
                    op: Operation::new("set", format!("v{i}").into_bytes()),
                    attempt: 1,
                })
            };
            actions.extend(gw.on_payload(a(0), payload, now));
            csn_trace.push(gw.csn());
        }
        drain(&mut gw, &mut actions, SimTime::from_secs(1));

        // CSN is monotone and ends at n.
        prop_assert!(csn_trace.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(gw.csn(), n as u64);
        prop_assert_eq!(gw.applied_csn(), n as u64);
        prop_assert_eq!(gw.stats().updates_committed, n as u64);
        prop_assert_eq!(gw.stats().gsn_conflicts, 0);
    }

    /// Two primaries fed the same updates/assignments in *different* orders
    /// converge to identical object state.
    #[test]
    fn replicas_converge_regardless_of_delivery_order(
        n in 1usize..10,
        seed_a in 0u64..200,
        seed_b in 200u64..400,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let run = |seed: u64| {
            let mut events: Vec<(bool, u64)> = (0..n as u64)
                .flat_map(|i| [(false, i), (true, i)])
                .collect();
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            events.shuffle(&mut rng);
            let mut gw = primary();
            let mut actions = Vec::new();
            for (step, (is_assign, i)) in events.into_iter().enumerate() {
                let now = SimTime::from_millis(step as u64);
                let payload = if is_assign {
                    Payload::GsnAssign { req: RequestId { client: a(20), seq: i }, gsn: i + 1 }
                } else {
                    Payload::Update(UpdateRequest {
                        id: RequestId { client: a(20), seq: i },
                        op: Operation::new("set", format!("v{i}").into_bytes()),
                        attempt: 1,
                    })
                };
                actions.extend(gw.on_payload(a(0), payload, now));
            }
            drain(&mut gw, &mut actions, SimTime::from_secs(1));
            gw.object().snapshot()
        };
        prop_assert_eq!(run(seed_a), run(seed_b));
    }

    /// The single-failure proposal (paper §5.3): whenever Algorithm 1
    /// reports a satisfied selection, removing the selected member with the
    /// highest immediate CDF still leaves P_K(d) >= Pc(d).
    #[test]
    fn satisfied_selection_tolerates_best_member_crash(
        cdfs in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, any::<bool>(), 0u64..1000), 1..12),
        sf in 0.0f64..=1.0,
        pc in 0.05f64..0.95,
    ) {
        let candidates: Vec<Candidate> = cdfs
            .iter()
            .enumerate()
            .map(|(i, &(fi, fd, is_primary, ert))| Candidate {
                id: a(i + 1),
                is_primary,
                immediate_cdf: fi,
                deferred_cdf: if is_primary { 0.0 } else { fd },
                ert_us: ert,
            })
            .collect();
        let sel = select_replicas(&candidates, sf, pc, Some(a(0)));
        if sel.satisfied {
            let selected: Vec<&Candidate> = candidates
                .iter()
                .filter(|c| sel.replicas.contains(&c.id))
                .collect();
            let best = selected
                .iter()
                .max_by(|x, y| x.immediate_cdf.total_cmp(&y.immediate_cdf))
                .map(|c| c.id);
            let prims: Vec<f64> = selected
                .iter()
                .filter(|c| c.is_primary && Some(c.id) != best)
                .map(|c| c.immediate_cdf)
                .collect();
            let secs: Vec<(f64, f64)> = selected
                .iter()
                .filter(|c| !c.is_primary && Some(c.id) != best)
                .map(|c| (c.immediate_cdf, c.deferred_cdf))
                .collect();
            let survivors = pk_probability(&prims, &secs, sf);
            prop_assert!(
                survivors >= pc - 1e-9,
                "selection satisfied at {} but survivors only reach {survivors}",
                sel.predicted
            );
        }
    }

    /// Selection never returns duplicates and always includes the
    /// sequencer when one is supplied.
    #[test]
    fn selection_set_is_well_formed(
        cdfs in proptest::collection::vec((0.0f64..1.0, any::<bool>(), 0u64..1000), 0..12),
        sf in 0.0f64..=1.0,
        pc in 0.0f64..1.0,
    ) {
        let candidates: Vec<Candidate> = cdfs
            .iter()
            .enumerate()
            .map(|(i, &(fi, is_primary, ert))| Candidate {
                id: a(i + 1),
                is_primary,
                immediate_cdf: fi,
                deferred_cdf: 0.0,
                ert_us: ert,
            })
            .collect();
        let sel = select_replicas(&candidates, sf, pc, Some(a(0)));
        prop_assert!(sel.replicas.contains(&a(0)));
        let mut sorted = sel.replicas.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), sel.replicas.len(), "no duplicates");
        prop_assert!(sel.replicas.len() <= candidates.len() + 1);
    }

    /// F^D(d) <= F^I(d): a deferred read can never be predicted *more*
    /// likely to make a deadline than an immediate one, for any measurement
    /// history (U is non-negative).
    #[test]
    fn deferred_cdf_never_exceeds_immediate(
        samples in proptest::collection::vec((1_000u64..300_000, 0u64..50_000, 0u64..4_000_000), 1..24),
        d_ms in 1u64..5_000,
    ) {
        let mut repo = InfoRepository::new(MonitorConfig::default());
        let now = SimTime::from_secs(1);
        for &(ts, tq, tb) in &samples {
            repo.record_perf(
                a(1),
                &PerfBroadcast {
                    read: Some(ReadMeasurement { ts_us: ts, tq_us: tq, tb_us: tb }),
                    publisher: None,
                },
                now,
            );
        }
        let d = SimDuration::from_millis(d_ms);
        prop_assert!(repo.deferred_cdf(a(1), d) <= repo.immediate_cdf(a(1), d) + 1e-9);
    }

    /// At-least-once delivery is harmless for the sequential gateway:
    /// delivering every update payload a second time (the retransmitted
    /// copy lands at a random later point, while the replica may be in any
    /// pipeline phase for it) leaves the committed log, the applied CSN and
    /// the object state identical to exactly-once delivery, and every
    /// duplicate is answered from the reply cache.
    #[test]
    fn sequential_duplicate_deliveries_are_idempotent(
        n in 1usize..8,
        seed in 0u64..300,
    ) {
        use rand::Rng;
        use rand::SeedableRng;

        let run = |dup: bool| {
            // First copies and GSN assignments interleave in seed order;
            // each duplicate (attempt 2) is inserted after its first copy.
            let mut events: Vec<(u8, u64)> = (0..n as u64)
                .flat_map(|i| [(0u8, i), (1, i)])
                .collect();
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            if dup {
                for i in 0..n as u64 {
                    let first = events.iter().position(|&(k, j)| k == 0 && j == i).unwrap();
                    let at = rng.gen_range(first as u64 + 1..events.len() as u64 + 1) as usize;
                    events.insert(at, (2, i));
                }
            }
            let mut gw = primary();
            let mut actions = Vec::new();
            for (step, (kind, i)) in events.into_iter().enumerate() {
                let now = SimTime::from_millis(step as u64);
                let payload = match kind {
                    1 => Payload::GsnAssign { req: RequestId { client: a(20), seq: i }, gsn: i + 1 },
                    k => update_payload(i, if k == 2 { 2 } else { 1 }),
                };
                actions.extend(gw.on_payload(a(0), payload, now));
            }
            drain(&mut gw, &mut actions, SimTime::from_secs(1));
            let log: Vec<(u64, RequestId)> = gw.committed_log().collect();
            (gw.object().snapshot(), gw.applied_csn(), gw.stats().updates_committed, log,
             gw.stats().dedup_hits)
        };

        let once = run(false);
        let twice = run(true);
        prop_assert_eq!(once.0, twice.0, "object state identical");
        prop_assert_eq!(once.1, twice.1);
        prop_assert_eq!(once.2, twice.2, "no double-apply");
        prop_assert_eq!(once.3, twice.3, "committed log identical");
        prop_assert_eq!(once.4, 0);
        prop_assert_eq!(twice.4, n as u64, "every duplicate deduplicated");
    }

    /// Same property for the FIFO gateway: duplicates inserted after their
    /// first copy never re-enter the service queue, so the version counter
    /// and final state match exactly-once delivery.
    #[test]
    fn fifo_duplicate_deliveries_are_idempotent(
        n in 1usize..8,
        seed in 0u64..300,
    ) {
        use rand::Rng;
        use rand::SeedableRng;

        let run = |dup: bool| {
            let mut events: Vec<(u64, u32)> = (0..n as u64).map(|i| (i, 1)).collect();
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            if dup {
                for i in 0..n as u64 {
                    let first = events.iter().position(|&(j, at)| j == i && at == 1).unwrap();
                    let at = rng.gen_range(first as u64 + 1..events.len() as u64 + 1) as usize;
                    events.insert(at, (i, 2));
                }
            }
            let (p, s) = views();
            let mut gw = FifoServerGateway::new(
                a(1),
                p,
                s,
                Box::new(VersionedRegister::new()),
                ServerConfig { clients: vec![a(20)], ..ServerConfig::default() },
            );
            let mut actions = Vec::new();
            for (step, (i, attempt)) in events.into_iter().enumerate() {
                let now = SimTime::from_millis(step as u64);
                actions.extend(gw.on_payload(a(20), update_payload(i, attempt), now));
                drain(&mut gw, &mut actions, now);
            }
            drain(&mut gw, &mut actions, SimTime::from_secs(1));
            let log: Vec<RequestId> = gw.applied_log().collect();
            (gw.object().snapshot(), gw.version(), log, gw.stats().dedup_hits)
        };

        let once = run(false);
        let twice = run(true);
        prop_assert_eq!(once.0, twice.0, "object state identical");
        prop_assert_eq!(once.1, twice.1, "no double-apply");
        prop_assert_eq!(once.2, twice.2, "applied log identical");
        prop_assert_eq!(once.3, 0);
        prop_assert_eq!(twice.3, n as u64, "every duplicate deduplicated");
    }

    /// Same property for the causal gateway: a retransmitted causal update
    /// reuses its original `update_seq`/deps, so whether the duplicate
    /// lands while the original is waiting, in service, or applied, the
    /// version vector and object state match exactly-once delivery.
    #[test]
    fn causal_duplicate_deliveries_are_idempotent(
        n in 1usize..8,
        seed in 0u64..300,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let run = |dup: bool, shuffle_seed: u64| {
            // One client issuing update_seq 0..n; deliveries arrive in any
            // order (the gateway buffers out-of-order arrivals), duplicates
            // anywhere in the stream.
            let mut events: Vec<(u64, u32)> = (0..n as u64).map(|i| (i, 1)).collect();
            if dup {
                events.extend((0..n as u64).map(|i| (i, 2)));
            }
            let mut rng = rand::rngs::SmallRng::seed_from_u64(shuffle_seed);
            events.shuffle(&mut rng);
            let (p, s) = views();
            let mut gw = CausalServerGateway::new(
                a(1),
                p,
                s,
                Box::new(VersionedRegister::new()),
                ServerConfig { clients: vec![a(20)], ..ServerConfig::default() },
            );
            let mut actions = Vec::new();
            for (step, (i, attempt)) in events.into_iter().enumerate() {
                let now = SimTime::from_millis(step as u64);
                let payload = Payload::CausalUpdate {
                    update: UpdateRequest {
                        id: RequestId { client: a(20), seq: i },
                        op: Operation::new("set", format!("v{i}").into_bytes()),
                        attempt,
                    },
                    update_seq: i,
                    deps: Vec::new(),
                };
                actions.extend(gw.on_payload(a(20), payload, now));
                drain(&mut gw, &mut actions, now);
            }
            drain(&mut gw, &mut actions, SimTime::from_secs(1));
            (gw.object().snapshot(), gw.version(), gw.vector_snapshot(), gw.stats().dedup_hits)
        };

        let once = run(false, seed);
        let twice = run(true, seed.wrapping_add(1));
        prop_assert_eq!(once.0, twice.0, "object state identical");
        prop_assert_eq!(once.1, twice.1, "no double-apply");
        prop_assert_eq!(once.2, twice.2, "version vector identical");
        prop_assert_eq!(once.3, 0);
        prop_assert_eq!(twice.3, n as u64, "every duplicate deduplicated");
    }

    /// Both repository CDFs are monotone in the deadline.
    #[test]
    fn repository_cdfs_monotone_in_deadline(
        samples in proptest::collection::vec((1_000u64..300_000, 0u64..50_000, 1u64..4_000_000), 1..16),
    ) {
        let mut repo = InfoRepository::new(MonitorConfig::default());
        let now = SimTime::from_secs(1);
        for &(ts, tq, tb) in &samples {
            repo.record_perf(
                a(1),
                &PerfBroadcast {
                    read: Some(ReadMeasurement { ts_us: ts, tq_us: tq, tb_us: tb }),
                    publisher: None,
                },
                now,
            );
        }
        let mut prev_i = 0.0f64;
        let mut prev_d = 0.0f64;
        for ms in (0..6000).step_by(137) {
            let d = SimDuration::from_millis(ms);
            let ci = repo.immediate_cdf(a(1), d);
            let cd = repo.deferred_cdf(a(1), d);
            prop_assert!(ci + 1e-12 >= prev_i);
            prop_assert!(cd + 1e-12 >= prev_d);
            prev_i = ci;
            prev_d = cd;
        }
    }
}
