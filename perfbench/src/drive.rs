//! The run loop and the correctness gate every repetition must pass.

use aqf_sim::{SimDuration, SimTime};
use aqf_workload::{BuiltScenario, ScenarioConfig, ScenarioMetrics};
use std::time::Instant;

/// Virtual time advanced between "all clients done?" checks; the same
/// chunking as `aqf_workload::run_scenario`, so a run stops at the same
/// instant.
pub const CHUNK: SimDuration = SimDuration::from_secs(10);

/// Virtual time run after the last client finished. `run_scenario` drains
/// 5 s; under `wide-write`'s 2% loss a few primaries are then still
/// recovering lost multicasts through NACKs (seen: up to 20 commits behind
/// on some seeds), so the convergence check would test the drain length
/// instead of convergence. After 30 s every replica has caught up.
pub const DRAIN: SimDuration = SimDuration::from_secs(30);

/// A world the benchmark can drive: the library's [`BuiltScenario`] or the
/// traced run's mirror.
pub trait Drive {
    /// Current virtual time.
    fn now(&self) -> SimTime;
    /// Runs virtual time forward to `until`.
    fn run_until(&mut self, until: SimTime);
    /// Whether every client has issued and resolved its workload.
    fn all_clients_done(&self) -> bool;
}

impl Drive for BuiltScenario {
    fn now(&self) -> SimTime {
        self.world.now()
    }

    fn run_until(&mut self, until: SimTime) {
        self.run_until_with_faults(until);
    }

    fn all_clients_done(&self) -> bool {
        BuiltScenario::all_clients_done(self)
    }
}

/// Runs until every client is done (or virtual time passes `limit`), then
/// drains for `drain`. Returns the wall time (s) of each chunk, the drain
/// last; a deterministic run has the same chunks every time.
pub fn drive(sim: &mut dyn Drive, limit: SimDuration, drain: SimDuration) -> Vec<f64> {
    drive_paired(&mut [sim], limit, drain, &mut || {})
        .pop()
        .expect("one run")
}

/// [`drive`] for copies of one deterministic run, advanced in lockstep:
/// every copy runs chunk `i` before any runs chunk `i + 1`, so the copies'
/// chunk times are taken moments apart and compare pairwise while the
/// host's speed drifts. The first copy decides when the run is over.
/// `between` runs after every chunk, outside the chunk times. Returns each
/// copy's chunk times.
pub fn drive_paired(
    sims: &mut [&mut dyn Drive],
    limit: SimDuration,
    drain: SimDuration,
    between: &mut dyn FnMut(),
) -> Vec<Vec<f64>> {
    let mut laps = vec![Vec::new(); sims.len()];
    loop {
        step(sims, &mut laps, CHUNK);
        between();
        let lead = &sims[0];
        if lead.all_clients_done() || lead.now().as_secs_f64() > limit.as_secs_f64() {
            break;
        }
    }
    step(sims, &mut laps, drain);
    laps
}

/// Runs every copy for `step` of virtual time, recording each one's wall
/// time (s).
fn step(sims: &mut [&mut dyn Drive], laps: &mut [Vec<f64>], step: SimDuration) {
    for (sim, laps) in sims.iter_mut().zip(laps) {
        let t = Instant::now();
        let until = sim.now() + step;
        sim.run_until(until);
        laps.push(t.elapsed().as_secs_f64());
    }
}

/// Fails unless every client finished its workload, no timely read broke
/// its staleness bound, no GSN was assigned twice, and every live replica
/// applied the same number of updates.
pub fn gate(config: &ScenarioConfig, m: &ScenarioMetrics) -> Result<(), String> {
    for (c, spec) in m.clients.iter().zip(&config.clients) {
        if c.record.completed != spec.total_requests {
            return Err(format!(
                "client {} completed {} of {} requests",
                c.id, c.record.completed, spec.total_requests
            ));
        }
    }
    let stale: u64 = m
        .clients
        .iter()
        .map(|c| c.record.staleness_violations)
        .sum();
    if stale != 0 {
        return Err(format!("{stale} staleness violations"));
    }
    let conflicts: u64 = m.servers.iter().map(|s| s.stats.gsn_conflicts).sum();
    if conflicts != 0 {
        return Err(format!("{conflicts} GSN conflicts"));
    }
    let divergence = m.max_applied_divergence();
    if divergence != 0 {
        return Err(format!("replicas diverge by {divergence} updates"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use aqf_workload::{build_scenario, run_scenario};

    #[test]
    fn drive_with_the_library_drain_replays_run_scenario() {
        for w in Workload::ALL {
            let config = w.config(3, 12);
            let mut built = build_scenario(&config);
            drive(&mut built, config.run_limit, SimDuration::from_secs(5));
            assert_eq!(
                built.metrics().digest(),
                run_scenario(&config).digest(),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn gate_passes_a_clean_run_and_catches_an_unfinished_one() {
        let config = Workload::CausalWrite.config(1, 10);
        let mut built = build_scenario(&config);
        drive(&mut built, config.run_limit, DRAIN);
        let mut m = built.metrics();
        assert_eq!(gate(&config, &m), Ok(()));
        m.clients[0].record.completed -= 1;
        assert!(gate(&config, &m).unwrap_err().contains("completed 9 of 10"));
    }
}
