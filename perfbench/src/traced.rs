//! The traced run: per-layer self-time and counters of one workload.
//!
//! Kept apart from the timed run so tracing overhead never enters the
//! end-to-end numbers. Each repetition runs the library's hosts (untraced)
//! and the [`mirror`](crate::mirror) hosts (traced) in lockstep, chunk by
//! chunk, and fails unless the traced run reproduces the untraced one. Then
//! the opt-in sidecars (obs, history) get an on/off A/B, also in lockstep:
//! on this benchmark's shared host, speed drifts by tens of percent within
//! a minute, so only sides measured moments apart compare.
//!
//! Self-time of a layer is the time spent inside its calls: `group` is
//! inside `GroupEndpoint`, `core.server` inside the server gateway,
//! `core.client.*` inside the client gateway, `workload` is the rest of the
//! host callbacks, and `sim` is the traced wall time outside every
//! callback (event queue, timers, dispatch, network routing). Together they
//! add up to the traced wall time.

use crate::drive::{drive_paired, gate, Drive, DRAIN};
use crate::mirror::{self, Fingerprint, LayerClock, MirrorWorld};
use crate::report::Report;
use crate::stats::{frac, percentile};
use crate::workloads::Workload;
use aqf_sim::SimTime;
use aqf_workload::{build_scenario, BuiltScenario, HistoryHandle, ObsHandle, ScenarioConfig};
use std::time::{Duration, Instant};

/// Runs the traced measurement of `workload` at `seed` with `requests`
/// requests per client for about `budget` of wall time. `allocations`
/// reads the process's allocation counter.
///
/// # Errors
///
/// Fails, instead of reporting numbers, if a repetition breaks the
/// correctness gate, the mirror does not reproduce the library run event
/// for event, or a sidecar changes the run's digest.
pub fn run(
    workload: Workload,
    seed: u64,
    requests: u64,
    budget: Duration,
    allocations: fn() -> u64,
) -> Result<Report, String> {
    let config = workload.config(seed, requests);
    let start = Instant::now();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut reps = 0;
    let mut clock = LayerClock::default();
    let mut allocs_per_event = None;
    let mut attempted = 0;
    let mut failed = 0;
    let mirrored = loop {
        reps += 1;
        let mut built = build_scenario(&config);
        let mut untraced = Counted {
            built: &mut built,
            allocations,
            allocs: 0,
        };
        let mut mirrored = mirror::build(&config)?;
        let laps = drive_paired(
            &mut [&mut untraced, &mut mirrored],
            config.run_limit,
            DRAIN,
            &mut || {},
        );
        let allocs = untraced.allocs;
        untraced_s += laps[0].iter().sum::<f64>();
        traced_s += laps[1].iter().sum::<f64>();
        let events = built.world.stats().events;
        allocs_per_event.get_or_insert(allocs as f64 / events as f64);
        gate(&config, &built.metrics())?;
        let expected = Fingerprint::of_library(&built);
        drop(built);
        if let Some(diff) = expected.first_difference(&mirrored.fingerprint()) {
            return Err(format!("traced run diverged from the untraced run: {diff}"));
        }
        clock.merge(&mirrored.clock());
        let clients = mirrored.client_stats();
        attempted += sum(&clients, |c| c.reads + c.updates);
        failed += sum(&clients, |c| c.give_ups + c.local_sheds);
        if start.elapsed() >= budget / 2 {
            break mirrored;
        }
    };
    let (obs_frac, history_frac) = sidecar_ab(&config, budget / 2)?;

    let mut report = Report {
        correct: true,
        attempted,
        failed,
        ..Report::default()
    };
    let traced_ns = (traced_s * 1e9).round() as u64;
    layer_metrics(&mut report, &mirrored, &clock, reps, traced_ns)?;
    report.push("obs.overhead_frac", "fraction", "", Some(obs_frac));
    report.push("history.overhead_frac", "fraction", "", Some(history_frac));
    report.push("alloc.per_event", "allocs/event", "", allocs_per_event);
    report.push(
        "trace.overhead_frac",
        "fraction",
        "",
        Some(traced_s / untraced_s - 1.0),
    );
    report.notes.insert(
        0,
        format!(
            "workload {} seed {seed}: {reps} traced and untraced repetitions, each traced one \
             identical to its untraced one",
            workload.name(),
        ),
    );
    Ok(report)
}

/// Fills in every per-layer metric of the traced repetitions. `clock` and
/// `traced_ns` (wall time of the traced run loops) are summed over `reps`
/// repetitions; counters come from the last one (every repetition is
/// identical).
///
/// # Errors
///
/// Fails if the spans do not nest: callbacks longer than the run, or calls
/// longer than their callbacks.
fn layer_metrics(
    report: &mut Report,
    mirrored: &MirrorWorld,
    clock: &LayerClock,
    reps: usize,
    traced_ns: u64,
) -> Result<(), String> {
    let secs = |ns: u64| ns as f64 / reps as f64 / 1e9;
    let per_rep = |calls: u64| calls / reps as u64;
    let world = mirrored.world.stats();
    let inner = clock.group.ns
        + clock.server.ns
        + clock.select.ns
        + clock.submit_update.ns
        + clock.reply.ns;
    let sim_ns = traced_ns
        .checked_sub(clock.callbacks.ns)
        .ok_or("actor callbacks outlast the traced run")?;
    let workload_ns = clock
        .callbacks
        .ns
        .checked_sub(inner)
        .ok_or("layer calls outlast their callbacks")?;
    let traced_wall = secs(traced_ns);
    let sim_s = secs(sim_ns);
    let workload_s = secs(workload_ns);
    let group_s = secs(clock.group.ns);
    let server_s = secs(clock.server.ns);
    let client_s = secs(clock.select.ns + clock.submit_update.ns + clock.reply.ns);
    let layers = [
        ("sim", sim_s),
        ("workload", workload_s),
        ("group", group_s),
        ("core.server", server_s),
        ("core.client", client_s),
    ];
    let total: f64 = layers.iter().map(|(_, s)| s).sum();
    report.notes.push(format!(
        "traced wall {traced_wall:.4} s per repetition; layer self-times sum to {total:.4} s"
    ));
    report.notes.push(format!(
        "layer shares: {}",
        layers
            .iter()
            .map(|(name, s)| format!("{name} {:.1}%", 100.0 * s / traced_wall))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    report.push("trace.wall_s", "s", "", Some(traced_wall));
    report.push("sim.self_s", "s", "", Some(sim_s));
    report.push(
        "sim.ns_per_event",
        "ns",
        "",
        (world.events > 0).then(|| sim_s * 1e9 / world.events as f64),
    );
    report.count("sim.events", world.events);
    report.count("sim.timers_fired", world.timers);
    report.count("sim.net.delivered", world.delivered);
    report.count("sim.net.dropped", world.dropped);
    report.count("sim.net.duplicated", world.duplicated);

    report.push("workload.self_s", "s", "", Some(workload_s));

    let g = mirrored.group_stats();
    let multicasts = sum(&g, |s| s.multicasts_sent);
    let retransmissions = sum(&g, |s| s.retransmissions);
    report.push("group.self_s", "s", "", Some(group_s));
    report.count("group.calls", per_rep(clock.group.calls));
    report.count("group.multicasts_sent", multicasts);
    report.count("group.retransmissions", retransmissions);
    report.push(
        "group.retransmits_per_multicast",
        "ratio",
        "",
        frac(retransmissions, multicasts),
    );
    report.count(
        "group.duplicates_dropped",
        sum(&g, |s| s.duplicates_dropped),
    );
    report.count("group.views_installed", sum(&g, |s| s.views_installed));

    let s = mirrored.server_stats();
    let commits = sum(&s, |s| s.updates_committed);
    report.push("core.server.self_s", "s", "", Some(server_s));
    report.count("core.server.calls", per_rep(clock.server.calls));
    report.push(
        "core.server.us_per_commit",
        "us",
        "",
        (commits > 0).then(|| server_s * 1e6 / commits as f64),
    );
    report.count("core.server.updates_committed", commits);
    report.count("core.server.reads_served", sum(&s, |s| s.reads_served));
    report.count("core.server.reads_deferred", sum(&s, |s| s.reads_deferred));
    report.count(
        "core.server.lazy_updates_sent",
        sum(&s, |s| s.lazy_updates_sent),
    );
    report.count("core.server.dedup_hits", sum(&s, |s| s.dedup_hits));

    let c = mirrored.client_stats();
    let select_us: Vec<f64> = clock.select_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let hits = sum(&c, |s| s.cdf_cache_hits);
    let reads = sum(&c, |s| s.reads);
    report.push("core.client.select_s", "s", "", Some(secs(clock.select.ns)));
    report.count("core.client.select_calls", per_rep(clock.select.calls));
    report.push(
        "core.client.select_us_p50",
        "us",
        "",
        percentile(&select_us, 50.0),
    );
    report.push(
        "core.client.select_us_p99",
        "us",
        "",
        percentile(&select_us, 99.0),
    );
    report.push(
        "core.client.submit_update_s",
        "s",
        "",
        Some(secs(clock.submit_update.ns)),
    );
    report.push("core.client.reply_s", "s", "", Some(secs(clock.reply.ns)));
    report.push(
        "core.client.cdf_cache_hit_frac",
        "fraction",
        "",
        frac(hits, hits + sum(&c, |s| s.cdf_cache_misses)),
    );
    report.count(
        "core.client.cdf_base_rebuilds",
        sum(&c, |s| s.cdf_base_rebuilds),
    );
    report.push(
        "core.client.replicas_per_read",
        "replicas",
        "",
        frac(sum(&c, |s| s.selected_sum), reads),
    );
    report.count("core.client.retries", sum(&c, |s| s.retries));
    report.count("core.client.hedges", sum(&c, |s| s.hedges));
    report.count("core.client.give_ups", sum(&c, |s| s.give_ups));

    report.count("store.wal_appends", sum(&s, |s| s.wal_appends));
    report.count("store.snapshots", sum(&s, |s| s.snapshots_taken));
    Ok(())
}

/// Sidecar A/B: the run with nothing attached, with an enabled obs handle
/// and with history recording (installed as `run_scenario_observed` and
/// `run_scenario_recorded` install them), driven in lockstep and repeated
/// for about `budget`. Returns each sidecar's total wall time over the bare
/// run's, minus one.
///
/// # Errors
///
/// Fails if a sidecar changes the digest: observation must never steer.
fn sidecar_ab(config: &ScenarioConfig, budget: Duration) -> Result<(f64, f64), String> {
    let start = Instant::now();
    let mut totals = [0.0; 3];
    loop {
        let mut off = build_scenario(config);
        let mut observed = build_scenario(config);
        observed.install_obs(&ObsHandle::enabled());
        let mut recorded = build_scenario(config);
        recorded.install_history(&HistoryHandle::collecting());
        let laps = drive_paired(
            &mut [&mut off, &mut observed, &mut recorded],
            config.run_limit,
            DRAIN,
            &mut || {},
        );
        for (total, laps) in totals.iter_mut().zip(&laps) {
            *total += laps.iter().sum::<f64>();
        }
        let [off, obs, history] = [off, observed, recorded].map(|b| b.metrics().digest());
        if obs != off || history != off {
            return Err(format!(
                "sidecar changed the digest: off {off:016x}, obs {obs:016x}, \
                 history {history:016x}"
            ));
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    Ok((totals[1] / totals[0] - 1.0, totals[2] / totals[0] - 1.0))
}

/// The library's world, counting the allocations made while it runs.
struct Counted<'a> {
    built: &'a mut BuiltScenario,
    allocations: fn() -> u64,
    allocs: u64,
}

impl Drive for Counted<'_> {
    fn now(&self) -> SimTime {
        self.built.world.now()
    }

    fn run_until(&mut self, until: SimTime) {
        let before = (self.allocations)();
        self.built.run_until_with_faults(until);
        self.allocs += (self.allocations)() - before;
    }

    fn all_clients_done(&self) -> bool {
        self.built.all_clients_done()
    }
}

fn sum<T>(items: &[T], f: impl Fn(&T) -> u64) -> u64 {
    items.iter().map(f).sum()
}
