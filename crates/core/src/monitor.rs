//! The client-side information repository (paper §5.2 and §5.4).
//!
//! Client gateways record, per replica, sliding windows of the most recent
//! `l` measurements of service time `S`, queueing delay `W`, and
//! deferred-wait `U` (from server performance broadcasts), the most recent
//! two-way gateway delay `G` (from the client's own replies), and the
//! elapsed response time `ert`. The repository also tracks the lazy
//! publisher's `<n_u, t_u>` / `<n_L, t_L>` broadcasts to estimate the update
//! arrival rate and the time since the last lazy update.
//!
//! From this history the repository evaluates the conditional response-time
//! distribution functions `F^I_Ri(d)` and `F^D_Ri(d)` by discrete
//! convolution (Eqs. 5 and 6) and the staleness factor `P(A_s(t) <= a)`
//! (Eq. 4).

use crate::obs::{ObsEvent, ObsHandle};
use crate::wire::{PerfBroadcast, PublisherInfo};
use aqf_sim::{ActorId, SimDuration, SimTime};
use aqf_stats::{poisson_cdf, Pmf, RateEstimator, SlidingWindow};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// How the staleness factor `P(A_s(t) <= a)` is estimated from the
/// publisher's `<n_u, t_u>` history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum StalenessModel {
    /// The paper's Eq. 4: Poisson arrivals at the pooled windowed rate.
    #[default]
    Poisson,
    /// The paper's §5.1.3 remark that non-Poisson arrivals are also
    /// evaluable: a rate-mixture estimator. Each windowed observation
    /// contributes its own rate `r_i = n_i / t_i`, and the factor is the
    /// average of the per-rate Poisson CDFs — a doubly stochastic (Cox)
    /// estimate that stays calibrated under bursty, overdispersed update
    /// arrivals where the single-rate Poisson model is too optimistic.
    EmpiricalRateMixture,
}

/// Sizing knobs for the repository.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorConfig {
    /// Sliding-window size `l` for S, W, and U measurements (the paper's
    /// experiments use 10 and 20).
    pub window_size: usize,
    /// Window size for `<n_u, t_u>` rate observations.
    pub rate_window: usize,
    /// The staleness-factor estimator.
    pub staleness_model: StalenessModel,
    /// Optional bin width (µs) applied to cached response-time pmfs.
    ///
    /// An `S⊛W` convolution of two windows of size `l` has up to `l²`
    /// support points. The deferred path convolves once more, but builds
    /// only the points up to the queried deadline; binning onto multiples
    /// of this width caps the support growth of both for large windows.
    /// Rounding up makes every binned CDF a lower bound of the exact one,
    /// so selection stays conservative. `None` (the default) keeps the
    /// exact distributions.
    pub cdf_bin_us: Option<u64>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            window_size: 20,
            rate_window: 16,
            staleness_model: StalenessModel::Poisson,
            cdf_bin_us: None,
        }
    }
}

/// Counters of the memoized CDF engine, exposed through client stats and
/// scenario metrics so the cache's effectiveness on the selection hot path
/// is observable end to end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CdfCacheStats {
    /// CDF evaluations answered entirely from a cached pmf (a binary-search
    /// prefix-sum lookup, no convolution).
    pub hits: u64,
    /// CDF evaluations that had to rebuild at least one cached layer (one
    /// per query, however many layers it rebuilt).
    pub misses: u64,
    /// `S⊛W` base convolutions performed (at most one per window
    /// generation — the paper's "computation of the response time
    /// distribution function", ~90% of Figure 3's overhead).
    pub base_rebuilds: u64,
    /// Immediate evaluator refreshes (`base` shifted by the latest gateway
    /// delay point mass; cheap, no convolution).
    pub immediate_rebuilds: u64,
    /// Deferred evaluator refreshes (one `⊛U` convolution reusing the
    /// cached shifted base — never re-running the `S⊛W` convolution).
    pub deferred_rebuilds: u64,
}

impl CdfCacheStats {
    /// Total CDF evaluations served (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Memoized response-time distributions for one replica, keyed by the
/// sliding-window generations (and gateway delay) they were computed from.
///
/// Layout mirrors the two-stage computation: `base = S⊛W` is shared by the
/// immediate and deferred paths, `immediate = base.shift(G)` adds the
/// gateway point mass, and `deferred = immediate ⊛ U` adds the
/// deferred-wait window, built only up to the deadline that was queried.
/// Each layer is invalidated independently, so e.g. a new gateway delay
/// re-shifts the cached base without re-convolving.
#[derive(Debug, Clone, Default)]
struct CdfCache {
    /// `(s.generation, w.generation)` the base was computed at.
    base_key: Option<(u64, u64)>,
    /// Cached `S⊛W` (binned when configured).
    base: Option<Pmf>,
    /// `(s.generation, w.generation, gateway_us)` of the immediate pmf.
    immediate_key: Option<(u64, u64, u64)>,
    /// Cached `S⊛W` shifted by the most recent gateway delay.
    immediate: Option<Pmf>,
    /// `(s, w, gateway_us, u.generation)` of the deferred pmf.
    deferred_key: Option<(u64, u64, u64, u64)>,
    /// Cached `immediate ⊛ U` up to `deferred_complete` (binned when
    /// configured).
    deferred: Option<Pmf>,
    /// The frontier of `deferred`: its CDF is exact at every deadline at
    /// or below this one (see [`Pmf::convolve_upto`]).
    deferred_complete: u64,
}

/// Per-replica performance history.
#[derive(Debug, Clone)]
pub struct ReplicaRecord {
    /// Service-time window (µs).
    s: SlidingWindow,
    /// Queueing-delay window (µs).
    w: SlidingWindow,
    /// Deferred-wait window (µs); only deferred reads contribute.
    u: SlidingWindow,
    /// Most recent two-way gateway delay (µs), specific to this
    /// client-replica pair.
    last_gateway_us: Option<u64>,
    /// When this client last received any reply from the replica.
    last_reply_at: Option<SimTime>,
    /// Consecutive request timeouts charged against this replica since its
    /// last reply. Retained across quarantine expiry so a replica on
    /// probation that times out once more is re-quarantined immediately.
    consecutive_timeouts: u32,
    /// While set and in the future, the replica is suspected gray-failed
    /// and excluded from read selection.
    quarantined_until: Option<SimTime>,
    /// How many times the replica has been quarantined without an
    /// intervening reply; each level doubles the quarantine duration.
    quarantine_level: u32,
    /// Memoized response-time distributions (interior-mutable: CDF queries
    /// take `&self` throughout the selection path, and a warm cache must
    /// be able to refresh itself during them).
    cache: RefCell<CdfCache>,
}

impl ReplicaRecord {
    fn new(window: usize) -> Self {
        Self {
            s: SlidingWindow::new(window),
            w: SlidingWindow::new(window),
            u: SlidingWindow::new(window),
            last_gateway_us: None,
            last_reply_at: None,
            consecutive_timeouts: 0,
            quarantined_until: None,
            quarantine_level: 0,
            cache: RefCell::new(CdfCache::default()),
        }
    }
}

/// The most recent lazy-publisher observation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PublisherObservation {
    received_at: SimTime,
    n_l: u64,
    t_l: SimDuration,
    period: SimDuration,
}

/// Client-side repository of replica performance history.
#[derive(Debug, Clone)]
pub struct InfoRepository {
    config: MonitorConfig,
    replicas: BTreeMap<ActorId, ReplicaRecord>,
    rate: RateEstimator,
    publisher: Option<PublisherObservation>,
    cache_stats: Cell<CdfCacheStats>,
    obs: ObsHandle,
    obs_owner: ActorId,
}

impl InfoRepository {
    /// Creates an empty repository.
    pub fn new(config: MonitorConfig) -> Self {
        Self {
            config,
            replicas: BTreeMap::new(),
            rate: RateEstimator::new(config.rate_window),
            publisher: None,
            cache_stats: Cell::new(CdfCacheStats::default()),
            obs: ObsHandle::disabled(),
            obs_owner: ActorId::from_index(0),
        }
    }

    /// Installs an observability handle; quarantine transitions are traced
    /// as `owner` (the client gateway holding this repository). A disabled
    /// handle (the default) leaves every code path bit-identical.
    pub fn set_obs(&mut self, owner: ActorId, obs: ObsHandle) {
        self.obs_owner = owner;
        self.obs = obs;
    }

    /// The configured sliding-window size `l`.
    pub fn window_size(&self) -> usize {
        self.config.window_size
    }

    fn record(&mut self, replica: ActorId) -> &mut ReplicaRecord {
        let window = self.config.window_size;
        self.replicas
            .entry(replica)
            .or_insert_with(|| ReplicaRecord::new(window))
    }

    /// Ingests a performance broadcast from `replica` received at `now`.
    pub fn record_perf(&mut self, replica: ActorId, perf: &PerfBroadcast, now: SimTime) {
        if let Some(m) = perf.read {
            let rec = self.record(replica);
            rec.s.push(m.ts_us);
            rec.w.push(m.tq_us);
            if m.tb_us > 0 {
                rec.u.push(m.tb_us);
            }
        }
        if let Some(p) = perf.publisher {
            self.record_publisher(&p, now);
        }
    }

    fn record_publisher(&mut self, p: &PublisherInfo, now: SimTime) {
        if !p.t_u.is_zero() || p.n_u > 0 {
            self.rate.record(p.n_u, p.t_u.as_micros());
        }
        self.publisher = Some(PublisherObservation {
            received_at: now,
            n_l: p.n_l,
            t_l: p.t_l,
            period: p.period,
        });
    }

    /// Records a reply this client received from `replica`: `t1` is the
    /// piggybacked server-side time, `tm` the transmit time of the request,
    /// and `tp` (= now) the reception time. Derives the two-way gateway
    /// delay `tg = tp - tm - t1` (clamped at zero) and refreshes `ert`.
    pub fn record_reply(&mut self, replica: ActorId, t1_us: u64, tm: SimTime, tp: SimTime) {
        let rec = self.record(replica);
        let round_trip = tp.saturating_since(tm).as_micros();
        rec.last_gateway_us = Some(round_trip.saturating_sub(t1_us));
        rec.last_reply_at = Some(tp);
    }

    /// Records a successful probe of `replica`: a *timely* reply clears
    /// accumulated suspicion and lifts any active quarantine. Late replies
    /// deliberately do not count — they prove liveness, not timeliness, and
    /// a gray-degraded replica keeps answering late forever.
    pub fn record_probe_success(&mut self, replica: ActorId, now: SimTime) {
        let rec = self.record(replica);
        rec.consecutive_timeouts = 0;
        let was_quarantined = rec.quarantined_until.take().is_some();
        rec.quarantine_level = 0;
        if was_quarantined {
            self.obs
                .emit(now, self.obs_owner, || ObsEvent::QuarantineCleared {
                    replica,
                });
        }
    }

    /// Charges a request timeout against `replica`. Once
    /// `threshold` consecutive timeouts accumulate the replica is
    /// quarantined for `base << level` (capped at `max`), doubling each
    /// time it re-offends without an intervening reply. Returns `true`
    /// when this call started a new quarantine window.
    pub fn record_timeout(
        &mut self,
        replica: ActorId,
        now: SimTime,
        threshold: u32,
        base: SimDuration,
        max: SimDuration,
    ) -> bool {
        let rec = self.record(replica);
        rec.consecutive_timeouts = rec.consecutive_timeouts.saturating_add(1);
        let already = rec.quarantined_until.is_some_and(|t| t > now);
        if rec.consecutive_timeouts >= threshold.max(1) && !already {
            let factor = 1u64 << rec.quarantine_level.min(16);
            let dur = SimDuration::from_micros(base.as_micros().saturating_mul(factor))
                .min(max)
                .max(base);
            let until = now + dur;
            rec.quarantined_until = Some(until);
            rec.quarantine_level = rec.quarantine_level.saturating_add(1);
            self.obs.emit(now, self.obs_owner, || ObsEvent::Quarantine {
                replica,
                until_us: until.as_micros(),
            });
            return true;
        }
        false
    }

    /// Whether `replica` is currently quarantined. Expiry is probation:
    /// the replica becomes selectable again (a lightweight probe), but a
    /// single further timeout re-quarantines it with a doubled window.
    pub fn is_quarantined(&self, replica: ActorId, now: SimTime) -> bool {
        self.replicas
            .get(&replica)
            .and_then(|r| r.quarantined_until)
            .is_some_and(|t| t > now)
    }

    /// Elapsed response time for `replica` in µs: time since this client
    /// last received a reply from it, or `u64::MAX` if it never has.
    /// Least-recently-used replicas sort first in the selection algorithm,
    /// which is how hot-spots are avoided (paper §5.3).
    pub fn ert_us(&self, replica: ActorId, now: SimTime) -> u64 {
        self.replicas
            .get(&replica)
            .and_then(|r| r.last_reply_at)
            .map(|t| now.saturating_since(t).as_micros())
            .unwrap_or(u64::MAX)
    }

    /// The immediate-read response-time distribution `F^I_Ri` evaluated at
    /// the deadline `d`: `P(S + W + G <= d)` with the pmfs of `S` and `W`
    /// taken from the sliding windows and `G` as a point mass at its most
    /// recent value (Eq. 5 / §5.2.1).
    ///
    /// Returns 0 when no history has been recorded (a replica we know
    /// nothing about cannot be predicted to meet any deadline, so the
    /// algorithm conservatively keeps adding replicas during warm-up).
    pub fn immediate_cdf(&self, replica: ActorId, d: SimDuration) -> f64 {
        let Some(rec) = self.replicas.get(&replica) else {
            return 0.0;
        };
        let d = d.as_micros();
        self.with_response_pmf(rec, false, d, |pmf| pmf.cdf(d))
            .unwrap_or(0.0)
    }

    /// The deferred-read response-time distribution `F^D_Ri` evaluated at
    /// `d`: `P(S + W + G + U <= d)` (Eq. 6 / §5.2.2). Returns 0 when no
    /// deferred-read history exists.
    pub fn deferred_cdf(&self, replica: ActorId, d: SimDuration) -> f64 {
        let Some(rec) = self.replicas.get(&replica) else {
            return 0.0;
        };
        let d = d.as_micros();
        self.with_response_pmf(rec, true, d, |pmf| pmf.cdf(d))
            .unwrap_or(0.0)
    }

    /// Evaluates `f` against the (cached) response-time pmf of `rec` — the
    /// core of the memoized CDF engine.
    ///
    /// The cache is a three-layer pipeline keyed by window generations:
    ///
    /// 1. `base = S⊛W`, keyed by `(s.generation, w.generation)` — the only
    ///    `O(l²)` convolution on the immediate path, performed at most once
    ///    per window change and shared with the deferred path;
    /// 2. `immediate = base.shift(G)`, additionally keyed by the most
    ///    recent gateway delay (a point-mass convolution = cheap shift);
    /// 3. `deferred = immediate ⊛ U`, additionally keyed by
    ///    `u.generation` — it reuses the cached shifted base instead of
    ///    re-running the `S⊛W` convolution `immediate_cdf` just performed.
    ///    It is built only up to `limit` (the deadline `f` reads at), and a
    ///    later query rebuilds it only when its deadline lies past the
    ///    frontier the last build reached.
    ///
    /// A query against unchanged windows therefore costs one key compare
    /// plus whatever `f` does (for the CDF evaluators: a binary-searched
    /// prefix-sum lookup). Results are bit-identical to the from-scratch
    /// computation (see [`Self::response_pmf_uncached`]) because the cached
    /// pipeline performs exactly the same floating-point operations in the
    /// same order, just not repeatedly, and `f` reads the deferred pmf at
    /// or below its frontier only. The immediate path ignores `limit`.
    fn with_response_pmf<T>(
        &self,
        rec: &ReplicaRecord,
        deferred: bool,
        limit: u64,
        f: impl FnOnce(&Pmf) -> T,
    ) -> Option<T> {
        if rec.s.is_empty() || rec.w.is_empty() || (deferred && rec.u.is_empty()) {
            return None;
        }
        let mut cache = rec.cache.borrow_mut();
        let mut stats = self.cache_stats.get();
        let base_key = (rec.s.generation(), rec.w.generation());
        if cache.base_key != Some(base_key) {
            let s = Pmf::from_samples(rec.s.iter());
            let w = Pmf::from_samples(rec.w.iter());
            let mut base = s.convolve(&w);
            if let Some(bin) = self.config.cdf_bin_us {
                base = base.binned(bin);
            }
            cache.base = Some(base);
            cache.base_key = Some(base_key);
            // Derived layers are now stale whatever their keys say.
            cache.immediate_key = None;
            cache.deferred_key = None;
            stats.base_rebuilds += 1;
        }
        let gateway = rec.last_gateway_us.unwrap_or(0);
        let immediate_key = (base_key.0, base_key.1, gateway);
        let deferred_key = (base_key.0, base_key.1, gateway, rec.u.generation());
        let hit = if deferred {
            cache.deferred_key == Some(deferred_key) && limit <= cache.deferred_complete
        } else {
            cache.immediate_key == Some(immediate_key)
        };
        if !hit && cache.immediate_key != Some(immediate_key) {
            let base = cache.base.as_ref().expect("base ensured above");
            cache.immediate = Some(base.shift(gateway));
            cache.immediate_key = Some(immediate_key);
            stats.immediate_rebuilds += 1;
        }
        if !hit && deferred {
            let u = Pmf::from_samples(rec.u.iter());
            let immediate = cache.immediate.as_ref().expect("immediate ensured above");
            // Binning after truncating is exact below the frontier: bins
            // round up, so a bin at or below `x` holds only points `<= x`.
            let (mut pmf, complete) = immediate.convolve_upto(&u, limit);
            if let Some(bin) = self.config.cdf_bin_us {
                pmf = pmf.binned(bin);
            }
            cache.deferred = Some(pmf);
            cache.deferred_key = Some(deferred_key);
            cache.deferred_complete = complete;
            stats.deferred_rebuilds += 1;
        }
        if hit {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        self.cache_stats.set(stats);
        let pmf = if deferred {
            cache.deferred.as_ref().expect("deferred ensured above")
        } else {
            cache.immediate.as_ref().expect("immediate ensured above")
        };
        Some(f(pmf))
    }

    /// The full response-time pmf for a replica (used by benchmarks and
    /// diagnostics). `deferred` selects Eq. 6 over Eq. 5. Served from the
    /// cache (cloning the cached pmf), refreshing stale layers on the way.
    pub fn response_pmf(&self, rec: &ReplicaRecord, deferred: bool) -> Option<Pmf> {
        self.with_response_pmf(rec, deferred, u64::MAX, Pmf::clone)
    }

    /// From-scratch recomputation of the response-time pmf, bypassing (and
    /// never touching) the cache: fresh empirical pmfs from the windows,
    /// one `S⊛W` convolution, the gateway shift, and — for the deferred
    /// path — the `⊛U` convolution.
    ///
    /// This is the seed's original evaluation path, kept as the reference
    /// the cache is property-tested against (bit-identical results) and as
    /// the "before" measurement in the Figure 3 overhead study.
    pub fn response_pmf_uncached(&self, rec: &ReplicaRecord, deferred: bool) -> Option<Pmf> {
        let s = Pmf::from_samples(rec.s.iter());
        let w = Pmf::from_samples(rec.w.iter());
        if s.is_empty() || w.is_empty() {
            return None;
        }
        let mut pmf = s.convolve(&w);
        if let Some(bin) = self.config.cdf_bin_us {
            pmf = pmf.binned(bin);
        }
        pmf = pmf.shift(rec.last_gateway_us.unwrap_or(0));
        if deferred {
            let u = Pmf::from_samples(rec.u.iter());
            if u.is_empty() {
                return None;
            }
            pmf = pmf.convolve(&u);
            if let Some(bin) = self.config.cdf_bin_us {
                pmf = pmf.binned(bin);
            }
        }
        Some(pmf)
    }

    /// `F^I_Ri(d)` recomputed from scratch (no cache) — reference path for
    /// property tests and before/after benchmarks.
    pub fn immediate_cdf_uncached(&self, replica: ActorId, d: SimDuration) -> f64 {
        self.replicas
            .get(&replica)
            .and_then(|rec| self.response_pmf_uncached(rec, false))
            .map(|pmf| pmf.cdf(d.as_micros()))
            .unwrap_or(0.0)
    }

    /// `F^D_Ri(d)` recomputed from scratch (no cache) — reference path for
    /// property tests and before/after benchmarks.
    pub fn deferred_cdf_uncached(&self, replica: ActorId, d: SimDuration) -> f64 {
        let Some(rec) = self.replicas.get(&replica) else {
            return 0.0;
        };
        if rec.u.is_empty() {
            return 0.0;
        }
        self.response_pmf_uncached(rec, true)
            .map(|pmf| pmf.cdf(d.as_micros()))
            .unwrap_or(0.0)
    }

    /// Counters of the memoized CDF engine.
    pub fn cache_stats(&self) -> CdfCacheStats {
        self.cache_stats.get()
    }

    /// Direct access to a replica's record (diagnostics, benchmarks).
    pub fn replica_record(&self, replica: ActorId) -> Option<&ReplicaRecord> {
        self.replicas.get(&replica)
    }

    /// The estimated update arrival rate `lambda_u` in arrivals/µs, or
    /// `None` before any publisher broadcast.
    pub fn update_rate_per_us(&self) -> Option<f64> {
        self.rate.rate_per_us()
    }

    /// Estimated time since the last lazy update at instant `now`:
    /// `t_l = (t_L + t_z) mod T_L` (paper §5.4.1).
    pub fn time_since_lazy(&self, now: SimTime) -> Option<SimDuration> {
        let obs = self.publisher?;
        let tz = now.saturating_since(obs.received_at);
        if obs.period.is_zero() {
            return Some(SimDuration::ZERO);
        }
        Some((obs.t_l + tz).modulo(obs.period))
    }

    /// The staleness factor `P(A_s(t) <= a)` of the secondary group: the
    /// probability that at most `a` updates arrived since the last lazy
    /// propagation, estimated by the configured [`StalenessModel`]
    /// (Eq. 4's Poisson form by default).
    ///
    /// Before any publisher broadcast has been received the factor is 1
    /// (secondaries start synchronized with an empty update history).
    pub fn staleness_factor(&self, staleness_threshold: u32, now: SimTime) -> f64 {
        let Some(tl) = self.time_since_lazy(now) else {
            return 1.0;
        };
        match self.config.staleness_model {
            StalenessModel::Poisson => {
                let Some(rate) = self.update_rate_per_us() else {
                    return 1.0;
                };
                let mu = rate * tl.as_micros() as f64;
                poisson_cdf(mu, staleness_threshold as u64)
            }
            StalenessModel::EmpiricalRateMixture => {
                let mut total = 0.0;
                let mut n = 0usize;
                for (count, duration_us) in self.rate.observations() {
                    if duration_us == 0 {
                        continue;
                    }
                    let rate = count as f64 / duration_us as f64;
                    total += poisson_cdf(rate * tl.as_micros() as f64, staleness_threshold as u64);
                    n += 1;
                }
                if n == 0 {
                    1.0
                } else {
                    total / n as f64
                }
            }
        }
    }

    /// Number of replicas with any recorded history.
    pub fn tracked_replicas(&self) -> usize {
        self.replicas.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ReadMeasurement;

    fn perf(ts: u64, tq: u64, tb: u64) -> PerfBroadcast {
        PerfBroadcast {
            read: Some(ReadMeasurement {
                ts_us: ts,
                tq_us: tq,
                tb_us: tb,
            }),
            publisher: None,
        }
    }

    fn repo() -> InfoRepository {
        InfoRepository::new(MonitorConfig::default())
    }

    fn r(i: usize) -> ActorId {
        ActorId::from_index(i)
    }

    #[test]
    fn unknown_replica_is_unpredictable() {
        let repo = repo();
        assert_eq!(repo.immediate_cdf(r(0), SimDuration::from_secs(100)), 0.0);
        assert_eq!(repo.deferred_cdf(r(0), SimDuration::from_secs(100)), 0.0);
        assert_eq!(repo.ert_us(r(0), SimTime::from_secs(1)), u64::MAX);
    }

    #[test]
    fn immediate_cdf_from_windows() {
        let mut repo = repo();
        let now = SimTime::from_secs(1);
        // S always 100ms, W always 10ms, no gateway delay recorded -> G = 0.
        for _ in 0..5 {
            repo.record_perf(r(1), &perf(100_000, 10_000, 0), now);
        }
        assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(109)), 0.0);
        assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(110)), 1.0);
    }

    #[test]
    fn gateway_delay_shifts_cdf() {
        let mut repo = repo();
        let tm = SimTime::from_millis(0);
        let tp = SimTime::from_millis(30); // round trip 30ms
        repo.record_perf(r(1), &perf(100_000, 0, 0), tp);
        // t1 = 25ms of the 30ms round trip -> G = 5ms.
        repo.record_reply(r(1), 25_000, tm, tp);
        assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(104)), 0.0);
        assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(105)), 1.0);
    }

    #[test]
    fn gateway_delay_clamps_at_zero() {
        let mut repo = repo();
        let tm = SimTime::from_millis(10);
        let tp = SimTime::from_millis(15);
        // t1 claims more time than the round trip: clamp G to 0.
        repo.record_reply(r(1), 99_000, tm, tp);
        repo.record_perf(r(1), &perf(50_000, 0, 0), tp);
        assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(50)), 1.0);
    }

    #[test]
    fn deferred_requires_u_history() {
        let mut repo = repo();
        let now = SimTime::from_secs(1);
        repo.record_perf(r(1), &perf(100_000, 0, 0), now);
        assert_eq!(repo.deferred_cdf(r(1), SimDuration::from_secs(10)), 0.0);
        // A deferred read contributes U.
        repo.record_perf(r(1), &perf(100_000, 0, 500_000), now);
        assert!(repo.deferred_cdf(r(1), SimDuration::from_secs(10)) > 0.99);
        assert_eq!(repo.deferred_cdf(r(1), SimDuration::from_millis(599)), 0.0);
        // 100 (S) + 0 (W) + 500 (U) = 600ms: all deferred mass is there.
        assert_eq!(repo.deferred_cdf(r(1), SimDuration::from_millis(600)), 1.0);
    }

    #[test]
    fn deferred_layer_rebuilds_only_past_its_frontier() {
        let now = SimTime::from_secs(1);
        let rebuilds = |repo: &InfoRepository| repo.cache_stats().deferred_rebuilds;
        // S = 100 ms, W = 10 ms, U = 50 ms: the deferred pmf's only point
        // lies at 160 ms.
        let mut sweep = repo();
        sweep.record_perf(r(1), &perf(100_000, 10_000, 50_000), now);
        // A descending sweep builds the whole layer at its first query.
        for deadline_ms in (1..200u64).rev() {
            sweep.deferred_cdf(r(1), SimDuration::from_millis(deadline_ms));
        }
        assert_eq!(rebuilds(&sweep), 1);

        // A query at 1 ms builds nothing and leaves the layer exact up to
        // 159.999 ms, so a query there hits; 160 ms lies past it.
        let mut probe = repo();
        probe.record_perf(r(1), &perf(100_000, 10_000, 50_000), now);
        assert_eq!(probe.deferred_cdf(r(1), SimDuration::from_millis(1)), 0.0);
        assert_eq!(
            probe.deferred_cdf(r(1), SimDuration::from_micros(159_999)),
            0.0
        );
        assert_eq!((rebuilds(&probe), probe.cache_stats().hits), (1, 1));
        assert_eq!(probe.deferred_cdf(r(1), SimDuration::from_millis(160)), 1.0);
        assert_eq!(rebuilds(&probe), 2);

        // Shaped like paper-read: U (up to 2 s) far past the deadline.
        let mut wide = repo();
        for i in 0..20u64 {
            wide.record_perf(
                r(1),
                &perf(40_000 + 3_000 * i, 1_000 * i, 100_000 * (i + 1)),
                now,
            );
        }
        let d = 160_000u64;
        wide.deferred_cdf(r(1), SimDuration::from_micros(d));
        let rec = wide.replica_record(r(1)).unwrap();
        let full = wide.response_pmf_uncached(rec, true).unwrap();
        let cached_support = rec.cache.borrow().deferred.as_ref().unwrap().support_len();
        let below = full.iter().filter(|&(v, _)| v <= d).count();
        assert!(cached_support <= below, "{cached_support} > {below}");
        assert!(below < full.support_len());
        // Asking for the whole pmf rebuilds it past the truncation.
        assert_eq!(wide.response_pmf(rec, true), Some(full));
        assert_eq!(rebuilds(&wide), 2);
    }

    #[test]
    fn ert_tracks_last_reply() {
        let mut repo = repo();
        repo.record_reply(r(1), 0, SimTime::from_millis(0), SimTime::from_millis(40));
        assert_eq!(repo.ert_us(r(1), SimTime::from_millis(100)), 60_000);
        repo.record_reply(r(1), 0, SimTime::from_millis(80), SimTime::from_millis(90));
        assert_eq!(repo.ert_us(r(1), SimTime::from_millis(100)), 10_000);
    }

    #[test]
    fn staleness_factor_defaults_to_one() {
        let repo = repo();
        assert_eq!(repo.staleness_factor(0, SimTime::from_secs(5)), 1.0);
    }

    #[test]
    fn staleness_factor_uses_publisher_info() {
        let mut repo = repo();
        let now = SimTime::from_secs(10);
        let p = PublisherInfo {
            n_u: 4,
            t_u: SimDuration::from_secs(2), // rate = 2/s
            n_l: 1,
            t_l: SimDuration::from_millis(500),
            period: SimDuration::from_secs(2),
        };
        repo.record_perf(
            r(9),
            &PerfBroadcast {
                read: None,
                publisher: Some(p),
            },
            now,
        );
        // At reception time: tl = 500ms, mu = 2/s * 0.5s = 1.
        let sf = repo.staleness_factor(0, now);
        assert!((sf - (-1.0f64).exp()).abs() < 1e-9, "sf = {sf}");
        // 1.5s later: tl = (0.5 + 1.5) mod 2 = 0 -> mu = 0 -> factor 1.
        let sf = repo.staleness_factor(0, now + SimDuration::from_millis(1500));
        assert_eq!(sf, 1.0);
        // Monotone in a.
        let lo = repo.staleness_factor(0, now);
        let hi = repo.staleness_factor(3, now);
        assert!(hi > lo);
    }

    #[test]
    fn rate_pools_across_broadcasts() {
        let mut repo = repo();
        let mk = |n_u, secs| PerfBroadcast {
            read: None,
            publisher: Some(PublisherInfo {
                n_u,
                t_u: SimDuration::from_secs(secs),
                n_l: 0,
                t_l: SimDuration::ZERO,
                period: SimDuration::from_secs(4),
            }),
        };
        repo.record_perf(r(9), &mk(2, 1), SimTime::from_secs(1));
        repo.record_perf(r(9), &mk(4, 2), SimTime::from_secs(3));
        // 6 updates over 3s = 2/s = 2e-6/µs.
        assert!((repo.update_rate_per_us().unwrap() - 2e-6).abs() < 1e-12);
    }

    #[test]
    fn empirical_mixture_matches_poisson_under_constant_rate() {
        let mk = |model| {
            let mut repo = InfoRepository::new(MonitorConfig {
                staleness_model: model,
                ..MonitorConfig::default()
            });
            // Constant 2/s rate across observations.
            for i in 0..6u64 {
                repo.record_perf(
                    r(9),
                    &PerfBroadcast {
                        read: None,
                        publisher: Some(PublisherInfo {
                            n_u: 2,
                            t_u: SimDuration::from_secs(1),
                            n_l: 0,
                            t_l: SimDuration::from_millis(500),
                            period: SimDuration::from_secs(2),
                        }),
                    },
                    SimTime::from_secs(i),
                );
            }
            repo.staleness_factor(2, SimTime::from_secs(5))
        };
        let poisson = mk(StalenessModel::Poisson);
        let mixture = mk(StalenessModel::EmpiricalRateMixture);
        assert!((poisson - mixture).abs() < 1e-9, "{poisson} vs {mixture}");
    }

    #[test]
    fn empirical_mixture_reflects_rate_dispersion() {
        // Same mean rate (2/s) but bursty: half the observations at 4/s,
        // half at 0/s. The mixture evaluates each observed rate separately
        // (here: (CDF(6,1) + CDF(0,1)) / 2) instead of collapsing the
        // dispersion into one pooled rate like Eq. 4's Poisson model.
        let mk = |model, bursty: bool| {
            let mut repo = InfoRepository::new(MonitorConfig {
                staleness_model: model,
                ..MonitorConfig::default()
            });
            for i in 0..8u64 {
                let n_u = if bursty {
                    if i % 2 == 0 {
                        4
                    } else {
                        0
                    }
                } else {
                    2
                };
                repo.record_perf(
                    r(9),
                    &PerfBroadcast {
                        read: None,
                        publisher: Some(PublisherInfo {
                            n_u,
                            t_u: SimDuration::from_secs(1),
                            n_l: 0,
                            t_l: SimDuration::from_millis(1500),
                            period: SimDuration::from_secs(2),
                        }),
                    },
                    SimTime::from_secs(i),
                );
            }
            repo.staleness_factor(1, SimTime::from_secs(7))
        };
        let poisson_bursty = mk(StalenessModel::Poisson, true);
        let mixture_bursty = mk(StalenessModel::EmpiricalRateMixture, true);
        // tl = 1.5 s. Pooled Poisson: mu = 2/s * 1.5 s = 3 -> CDF(3, 1).
        let expected_poisson = aqf_stats::poisson_cdf(3.0, 1);
        // Mixture: half mu = 6, half mu = 0.
        let expected_mixture = (aqf_stats::poisson_cdf(6.0, 1) + 1.0) / 2.0;
        assert!((poisson_bursty - expected_poisson).abs() < 1e-9);
        assert!((mixture_bursty - expected_mixture).abs() < 1e-9);
        assert!(
            (mixture_bursty - poisson_bursty).abs() > 0.05,
            "dispersion must be visible in the estimate"
        );
    }

    #[test]
    fn empirical_mixture_without_observations_is_one() {
        let repo = InfoRepository::new(MonitorConfig {
            staleness_model: StalenessModel::EmpiricalRateMixture,
            ..MonitorConfig::default()
        });
        assert_eq!(repo.staleness_factor(0, SimTime::from_secs(1)), 1.0);
    }

    #[test]
    fn window_eviction_bounds_history() {
        let mut repo = InfoRepository::new(MonitorConfig {
            window_size: 2,
            rate_window: 2,
            ..MonitorConfig::default()
        });
        let now = SimTime::from_secs(1);
        repo.record_perf(r(1), &perf(1_000_000, 0, 0), now); // slow, will be evicted
        repo.record_perf(r(1), &perf(10_000, 0, 0), now);
        repo.record_perf(r(1), &perf(10_000, 0, 0), now);
        assert_eq!(repo.immediate_cdf(r(1), SimDuration::from_millis(20)), 1.0);
    }

    #[test]
    fn quarantine_opens_at_threshold_and_expires() {
        let mut repo = InfoRepository::new(MonitorConfig::default());
        let base = SimDuration::from_secs(5);
        let max = SimDuration::from_secs(60);
        let now = SimTime::from_secs(1);
        assert!(!repo.record_timeout(r(1), now, 3, base, max));
        assert!(!repo.record_timeout(r(1), now, 3, base, max));
        assert!(!repo.is_quarantined(r(1), now));
        assert!(repo.record_timeout(r(1), now, 3, base, max), "third strike");
        assert!(repo.is_quarantined(r(1), now));
        assert!(repo.is_quarantined(r(1), now + SimDuration::from_secs(4)));
        assert!(!repo.is_quarantined(r(1), now + SimDuration::from_secs(6)));
        // Further strikes inside the window do not restart it.
        assert!(!repo.record_timeout(r(1), now, 3, base, max));
    }

    #[test]
    fn requarantine_backs_off_exponentially() {
        let mut repo = InfoRepository::new(MonitorConfig::default());
        let base = SimDuration::from_secs(5);
        let max = SimDuration::from_secs(60);
        let t0 = SimTime::from_secs(1);
        for _ in 0..3 {
            repo.record_timeout(r(1), t0, 3, base, max);
        }
        // Probation: one more timeout after expiry re-quarantines at once,
        // with a doubled window.
        let t1 = t0 + SimDuration::from_secs(10);
        assert!(!repo.is_quarantined(r(1), t1));
        assert!(repo.record_timeout(r(1), t1, 3, base, max));
        assert!(repo.is_quarantined(r(1), t1 + SimDuration::from_secs(9)));
        assert!(!repo.is_quarantined(r(1), t1 + SimDuration::from_secs(11)));
    }

    #[test]
    fn timely_probe_clears_quarantine_but_plain_replies_do_not() {
        let mut repo = InfoRepository::new(MonitorConfig::default());
        let base = SimDuration::from_secs(5);
        let max = SimDuration::from_secs(60);
        let t0 = SimTime::from_secs(1);
        for _ in 0..3 {
            repo.record_timeout(r(1), t0, 3, base, max);
        }
        assert!(repo.is_quarantined(r(1), t0));
        // A late reply updates the performance record without lifting the
        // quarantine: a gray-slow replica answers late forever.
        repo.record_reply(r(1), 0, t0, t0 + SimDuration::from_millis(900));
        assert!(repo.is_quarantined(r(1), t0 + SimDuration::from_secs(1)));
        // A timely probe success clears everything, including the backoff
        // level.
        repo.record_probe_success(r(1), t0 + SimDuration::from_secs(1));
        assert!(!repo.is_quarantined(r(1), t0 + SimDuration::from_secs(1)));
        for _ in 0..2 {
            repo.record_timeout(r(1), t0, 3, base, max);
        }
        assert!(
            !repo.is_quarantined(r(1), t0),
            "strike count restarted after probe success"
        );
    }
}
