//! Server-gateway pipeline cost: the protocol bookkeeping (not the
//! simulated service time) of committing updates in GSN order and of
//! admitting + servicing staleness-checked reads.

use aqf_bench::primary_gateway;
use aqf_core::server::ServerAction;
use aqf_core::wire::{Operation, Payload, ReadRequest, RequestId, UpdateRequest};
use aqf_core::ServerProtocol;
use aqf_sim::{ActorId, SimDuration, SimTime};
use criterion::{criterion_group, Criterion};

fn client(seq: u64) -> RequestId {
    RequestId {
        client: ActorId::from_index(999),
        seq,
    }
}

fn drive_service(gw: &mut aqf_core::ServerGateway, actions: Vec<ServerAction>, now: SimTime) {
    let mut pending = actions;
    while let Some(pos) = pending
        .iter()
        .position(|a| matches!(a, ServerAction::StartService { .. }))
    {
        let ServerAction::StartService { token } = pending.remove(pos) else {
            unreachable!()
        };
        gw.on_service_start(token, now);
        pending.extend(gw.on_service_done(token, now + SimDuration::from_micros(10)));
    }
}

fn bench_gateway(c: &mut Criterion) {
    c.bench_function("gateway/update_commit_apply", |b| {
        let mut seq = 0u64;
        let mut gw = primary_gateway(1, 3, 4);
        let sequencer = ActorId::from_index(0);
        b.iter(|| {
            seq += 1;
            let now = SimTime::from_micros(seq * 1000);
            let u = UpdateRequest {
                id: client(seq),
                op: Operation::new("set", b"value".to_vec()),
                attempt: 1,
            };
            let a1 = gw.on_payload(sequencer, Payload::Update(u), now);
            let a2 = gw.on_payload(
                sequencer,
                Payload::GsnAssign {
                    req: client(seq),
                    gsn: seq,
                },
                now,
            );
            drive_service(&mut gw, a1, now);
            drive_service(&mut gw, a2, now);
            std::hint::black_box(gw.csn())
        })
    });

    c.bench_function("gateway/read_admit_service", |b| {
        let mut seq = 0u64;
        let mut gw = primary_gateway(1, 3, 4);
        let sequencer = ActorId::from_index(0);
        b.iter(|| {
            seq += 1;
            let now = SimTime::from_micros(seq * 1000);
            let r = ReadRequest {
                id: client(seq),
                op: Operation::new("get", Vec::new()),
                staleness_threshold: 2,
                deadline_us: 0,
                attempt: 1,
            };
            let a1 = gw.on_payload(ActorId::from_index(999), Payload::Read(r), now);
            let a2 = gw.on_payload(
                sequencer,
                Payload::GsnSnapshot {
                    req: client(seq),
                    gsn: gw.gsn(),
                },
                now,
            );
            drive_service(&mut gw, a1, now);
            drive_service(&mut gw, a2, now);
            std::hint::black_box(gw.stats().reads_served)
        })
    });
}

/// Asserts allocations-per-operation ceilings on the gateway hot path
/// (`--features alloc-counter`). The ceilings are ~2x the counts measured
/// with the retained reply-scratch buffer, so reverting the reply path to
/// per-request buffer growth fails this gate.
#[cfg(feature = "alloc-counter")]
fn alloc_gates() {
    const OPS: u64 = 10_000;
    /// Update pipeline: request + reply-cache entry + reply action per op
    /// (measured: ~7.2 per op with the retained reply scratch).
    const UPDATE_CEILING: f64 = 15.0;
    /// Read pipeline: admission bookkeeping + reply + perf broadcast
    /// (measured: ~6.0 per op with the retained reply scratch).
    const READ_CEILING: f64 = 12.0;

    let mut failures = Vec::new();
    let mut gate = |name: &str, allocs: u64, ceiling: f64| {
        let per_op = allocs as f64 / OPS as f64;
        let verdict = if per_op <= ceiling { "ok" } else { "FAIL" };
        println!(
            "gateway/allocs/{name}: {allocs} allocs / {OPS} ops = {per_op:.2} \
             per op (ceiling {ceiling}) {verdict}"
        );
        if per_op > ceiling {
            failures.push(format!("{name}: {per_op:.2} > {ceiling}"));
        }
    };

    let sequencer = ActorId::from_index(0);

    let mut gw = primary_gateway(1, 3, 4);
    let run_update = |gw: &mut aqf_core::ServerGateway, seq: u64| {
        let now = SimTime::from_micros(seq * 1000);
        let u = UpdateRequest {
            id: client(seq),
            op: Operation::new("set", b"value".to_vec()),
            attempt: 1,
        };
        let a1 = gw.on_payload(sequencer, Payload::Update(u), now);
        let a2 = gw.on_payload(
            sequencer,
            Payload::GsnAssign {
                req: client(seq),
                gsn: seq,
            },
            now,
        );
        drive_service(gw, a1, now);
        drive_service(gw, a2, now);
    };
    for seq in 1..=OPS {
        run_update(&mut gw, seq); // warm-up: caches, scratch, queues
    }
    let (allocs, ()) = aqf_bench::alloc_count::measure(|| {
        for seq in OPS + 1..=2 * OPS {
            run_update(&mut gw, seq);
        }
    });
    gate("update_commit_apply", allocs, UPDATE_CEILING);

    let mut gw = primary_gateway(1, 3, 4);
    let run_read = |gw: &mut aqf_core::ServerGateway, seq: u64| {
        let now = SimTime::from_micros(seq * 1000);
        let r = ReadRequest {
            id: client(seq),
            op: Operation::new("get", Vec::new()),
            staleness_threshold: 2,
            deadline_us: 0,
            attempt: 1,
        };
        let a1 = gw.on_payload(ActorId::from_index(999), Payload::Read(r), now);
        let a2 = gw.on_payload(
            sequencer,
            Payload::GsnSnapshot {
                req: client(seq),
                gsn: gw.gsn(),
            },
            now,
        );
        drive_service(gw, a1, now);
        drive_service(gw, a2, now);
    };
    for seq in 1..=OPS {
        run_read(&mut gw, seq);
    }
    let (allocs, ()) = aqf_bench::alloc_count::measure(|| {
        for seq in OPS + 1..=2 * OPS {
            run_read(&mut gw, seq);
        }
    });
    gate("read_admit_service", allocs, READ_CEILING);

    assert!(
        failures.is_empty(),
        "allocation ceilings exceeded: {failures:?}"
    );
}

criterion_group!(benches, bench_gateway);

fn main() {
    benches();
    #[cfg(feature = "alloc-counter")]
    alloc_gates();
}
