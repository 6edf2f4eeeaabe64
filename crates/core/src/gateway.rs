//! The service pipeline shared by the three timed-consistency handlers.
//!
//! The paper hosts its ordering guarantees as interchangeable handlers
//! inside one AQuA gateway (§4, Figure 2). [`crate::server::ServerGateway`]
//! (sequential), [`crate::fifo::FifoServerGateway`] and
//! [`crate::causal::CausalServerGateway`] each own a [`GatewayCore`] and
//! keep only their ordering policy: how an update is committed and when a
//! read is fresh enough to serve. Everything else lives here, once:
//!
//! * the replica's identity, role, views, hosted object, counters and
//!   observability handle;
//! * the single-threaded service queue (`StartService` tokens, the
//!   first-sample-seeded service-time EWMA, `t_q`/`t_s` measurement);
//! * read serving with its performance broadcast (§5.4), update replies
//!   and the reply cache that answers retransmissions;
//! * deadline-aware read shedding (overload protection);
//! * the lazy publisher's timer and `<n_u, t_u, n_L, t_L>` bookkeeping;
//! * restart recovery: the state wipe that keeps stable storage, the
//!   durable-log replay ladder, and state-transfer donor rotation.
//!
//! [`RateStaleness`] is the part the two sequencer-free handlers (FIFO and
//! causal) share on top of the core: staleness estimated from the
//! publisher's advertised update rate instead of a global sequence.

use crate::dedup::ReplyCache;
use crate::durability::{Durability, ReplaySummary};
use crate::object::ReplicatedObject;
use crate::obs::{req_ref, ObsEvent, ObsHandle};
use crate::server::{ReplicaRole, ServerAction, ServerConfig, ServerStats};
use crate::wire::{
    Operation, Payload, PerfBroadcast, PublisherInfo, ReadMeasurement, ReadRequest, Reply,
    RequestId, UpdateRequest, VersionVector, PRIMARY_GROUP, SECONDARY_GROUP,
};
use aqf_group::View;
use aqf_sim::{ActorId, SimDuration, SimTime};
use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::Arc;

/// Read-GSN snapshot associations the sequential handler retains for reads
/// that have not arrived yet.
pub(crate) const SNAPSHOT_CACHE: usize = 1024;
/// Applied or committed request ids retained for duplicate detection and
/// sequencer reconciliation.
pub(crate) const COMMITTED_LOG: usize = 1024;
/// Update replies retained for answering retransmitted requests without
/// re-applying them.
pub(crate) const REPLY_CACHE: usize = 1024;
/// How long a replica lets a stalled commit sequence, an unanswered state
/// transfer or an open reconciliation round sit before it asks again.
pub(crate) const COMMIT_STALL_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// Appends to a bounded log, dropping the oldest entries past
/// [`COMMITTED_LOG`].
pub(crate) fn push_bounded<T>(log: &mut VecDeque<T>, item: T) {
    log.push_back(item);
    while log.len() > COMMITTED_LOG {
        log.pop_front();
    }
}

/// A read that reached this replica, with the causal dependencies it must
/// be served above (empty for the sequential and FIFO handlers).
#[derive(Debug, Clone)]
pub(crate) struct PendingRead {
    pub req: ReadRequest,
    pub client: ActorId,
    pub deps: VersionVector,
    pub arrived_at: SimTime,
}

#[derive(Debug, Clone)]
enum WorkKind {
    Update {
        update: UpdateRequest,
        /// The update's GSN, or 0 for handlers without a global sequence.
        gsn: u64,
    },
    Read {
        read: PendingRead,
        staleness: u64,
        deferred: bool,
        tb: SimDuration,
        /// The replica vector handed back to the client (causal only).
        vector: VersionVector,
    },
}

#[derive(Debug, Clone)]
struct Work {
    kind: WorkKind,
    enqueued_at: SimTime,
}

/// An update the service queue just applied to the object, handed back to
/// the ordering policy to finish (commit bookkeeping, reply).
pub(crate) struct AppliedUpdate {
    pub update: UpdateRequest,
    pub gsn: u64,
    /// The object's encoded result.
    pub result: Bytes,
    /// Queueing plus service time, the reply's `t1`.
    pub t1: SimDuration,
}

/// The state and pipeline every handler shares. See the [module docs](self).
pub(crate) struct GatewayCore {
    pub me: ActorId,
    pub role: ReplicaRole,
    pub config: ServerConfig,
    pub object: Box<dyn ReplicatedObject>,
    pub primary_view: Arc<View>,
    pub secondary_view: Arc<View>,
    /// Replies sent for recent updates, for answering retransmissions.
    reply_cache: ReplyCache,
    /// Reads waiting for a fresh enough state, with when they were parked.
    deferred: Vec<(PendingRead, SimTime)>,

    // Service machinery (single-threaded server application).
    service_queue: VecDeque<Work>,
    in_service: Option<(u64, Work, SimTime)>,
    next_token: u64,
    /// EWMA of observed service times in µs (`(7·old + new) / 8`); 0 until
    /// the first sample. Drives deadline-aware shedding.
    avg_service_us: u64,

    // Publisher bookkeeping.
    updates_since_broadcast: u64,
    last_broadcast_at: SimTime,
    updates_since_lazy: u64,
    last_lazy_at: SimTime,
    /// Whether a lazy timer is currently armed (prevents duplicate timers
    /// when restart and view-change handling both want one).
    lazy_timer_pending: bool,

    /// When a state transfer was last requested.
    pub last_transfer_request: SimTime,
    donor_rr: usize,

    /// Whether the replica has a synchronized state (false between a
    /// restart and the completing state transfer or replay).
    pub synced: bool,
    /// When the last restart happened, until the replica re-synced
    /// (drives the `recovery_us` stat).
    restarted_at: Option<SimTime>,
    pub stats: ServerStats,
    pub obs: ObsHandle,
    /// Retained staging buffer for reply encoding: every serviced request
    /// reuses this allocation via [`ReplicatedObject::apply_update_into`] /
    /// [`ReplicatedObject::read_into`] instead of growing a fresh buffer.
    reply_scratch: bytes::BytesMut,
    /// Stable storage, present only when [`ServerConfig::storage`] is
    /// enabled. Survives crash/restart cycles: the host applies crash
    /// damage via `crash_storage` and [`GatewayCore::restarted`] carries the
    /// sidecar across the state wipe.
    pub durability: Option<Durability>,
}

impl GatewayCore {
    /// Creates the core for replica `me`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is a member of neither (or both) initial views.
    pub fn new(
        me: ActorId,
        primary_view: Arc<View>,
        secondary_view: Arc<View>,
        object: Box<dyn ReplicatedObject>,
        config: ServerConfig,
    ) -> Self {
        let in_p = primary_view.contains(me);
        let in_s = secondary_view.contains(me);
        assert!(
            in_p ^ in_s,
            "replica must belong to exactly one replication group"
        );
        let role = if in_p {
            ReplicaRole::Primary
        } else {
            ReplicaRole::Secondary
        };
        // Each replica gets its own deterministic fault/latency stream:
        // the shared scenario seed mixed with the replica identity.
        let durability = config.storage.enabled.then(|| {
            let seed = config
                .storage
                .seed
                .wrapping_add((me.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Durability::new(config.storage.clone(), seed)
        });
        Self {
            me,
            role,
            config,
            object,
            primary_view,
            secondary_view,
            reply_cache: ReplyCache::new(REPLY_CACHE),
            deferred: Vec::new(),
            service_queue: VecDeque::new(),
            in_service: None,
            next_token: 0,
            avg_service_us: 0,
            updates_since_broadcast: 0,
            last_broadcast_at: SimTime::ZERO,
            updates_since_lazy: 0,
            last_lazy_at: SimTime::ZERO,
            lazy_timer_pending: false,
            last_transfer_request: SimTime::ZERO,
            donor_rr: 0,
            synced: true,
            restarted_at: None,
            stats: ServerStats::default(),
            obs: ObsHandle::disabled(),
            reply_scratch: bytes::BytesMut::new(),
            durability,
        }
    }

    /// Whether this replica publishes under primary `view`: the lazy
    /// publisher is the view's highest-ranked member, computed locally by
    /// every replica so no designation protocol is needed. Views are sorted
    /// and deduplicated with the leader first, so in a multi-member group
    /// this is never the sequencer, and in a single-member group it is the
    /// lone leader.
    pub fn publishes_in(&self, view: &View) -> bool {
        self.role == ReplicaRole::Primary
            && *view.members().last().expect("views are never empty") == self.me
    }

    /// Whether this replica currently acts as the lazy publisher.
    pub fn is_publisher(&self) -> bool {
        self.publishes_in(&self.primary_view)
    }

    /// Number of queued + in-flight service units.
    pub fn queue_depth(&self) -> usize {
        self.service_queue.len() + usize::from(self.in_service.is_some())
    }

    /// Whether an update waits in the service queue (not counting the one
    /// in service).
    pub fn update_queued(&self) -> bool {
        self.service_queue
            .iter()
            .any(|w| matches!(w.kind, WorkKind::Update { .. }))
    }

    /// Whether update `id` is queued for service or in service right now.
    pub fn update_in_pipeline(&self, id: RequestId) -> bool {
        let queued =
            |w: &Work| matches!(&w.kind, WorkKind::Update { update, .. } if update.id == id);
        self.service_queue.iter().any(queued)
            || self.in_service.as_ref().is_some_and(|(_, w, _)| queued(w))
    }

    /// Host start: opens the first publisher period and arms the lazy
    /// timer if this replica is the publisher.
    pub fn start(&mut self, now: SimTime) -> Vec<ServerAction> {
        self.last_broadcast_at = now;
        self.last_lazy_at = now;
        let mut actions = Vec::new();
        if self.is_publisher() {
            self.arm_lazy(&mut actions);
        }
        actions
    }

    /// Arms the lazy timer unless one is already pending.
    pub fn arm_lazy(&mut self, actions: &mut Vec<ServerAction>) {
        if !self.lazy_timer_pending {
            self.lazy_timer_pending = true;
            actions.push(ServerAction::ArmLazyTimer {
                after: self.config.lazy_interval,
            });
        }
    }

    /// Counts an arriving update for the publisher's `n_u` and `n_L`.
    pub fn count_update(&mut self) {
        self.updates_since_broadcast += 1;
        self.updates_since_lazy += 1;
    }

    fn publisher_info(&mut self, now: SimTime) -> PublisherInfo {
        let info = PublisherInfo {
            n_u: self.updates_since_broadcast,
            t_u: now.saturating_since(self.last_broadcast_at),
            n_l: self.updates_since_lazy,
            t_l: now.saturating_since(self.last_lazy_at),
            period: self.config.lazy_interval,
        };
        self.updates_since_broadcast = 0;
        self.last_broadcast_at = now;
        info
    }

    /// Sends `perf` to every client of the QoS group.
    fn broadcast_perf(&self, perf: Payload, actions: &mut Vec<ServerAction>) {
        for &c in &self.config.clients {
            actions.push(ServerAction::SendDirect {
                to: c,
                payload: perf.clone(),
            });
        }
    }

    /// The lazy propagation timer fired: multicast the state `payload`
    /// builds to the secondary group, start a new lazy period, announce the
    /// publisher bookkeeping to the clients (so they keep fresh inputs even
    /// when the publisher serves no reads), and re-arm. A replica demoted
    /// while the timer was in flight does nothing.
    pub fn lazy_tick(
        &mut self,
        now: SimTime,
        payload: impl FnOnce(&Self) -> Payload,
    ) -> Vec<ServerAction> {
        self.lazy_timer_pending = false;
        if !self.is_publisher() {
            return Vec::new();
        }
        self.stats.lazy_updates_sent += 1;
        let mut actions = Vec::new();
        actions.push(ServerAction::MulticastSecondary(payload(self)));
        self.updates_since_lazy = 0;
        self.last_lazy_at = now;
        let perf = Payload::Perf(PerfBroadcast {
            read: None,
            publisher: Some(self.publisher_info(now)),
        });
        self.broadcast_perf(perf, &mut actions);
        self.arm_lazy(&mut actions);
        actions
    }

    /// Records a view change and installs `view` into its group. Returns
    /// the replaced primary view when `view` is a primary view.
    pub fn install_view(&mut self, view: Arc<View>, now: SimTime) -> Option<Arc<View>> {
        let (view_id, members) = (view.id.0, view.members().len() as u64);
        self.obs
            .emit(now, self.me, || ObsEvent::ViewChange { view_id, members });
        if view.group == PRIMARY_GROUP {
            Some(std::mem::replace(&mut self.primary_view, view))
        } else {
            if view.group == SECONDARY_GROUP {
                self.secondary_view = view;
            }
            None
        }
    }

    /// After a primary view change: a freshly designated publisher (not
    /// one under `old`) starts a new lazy period and arms its timer.
    /// Returns whether it did.
    pub fn take_over_publishing(
        &mut self,
        old: &View,
        now: SimTime,
        actions: &mut Vec<ServerAction>,
    ) -> bool {
        if !self.is_publisher() || self.publishes_in(old) {
            return false;
        }
        self.updates_since_lazy = 0;
        self.last_lazy_at = now;
        self.arm_lazy(actions);
        true
    }

    /// Queues `work` and starts it if the server is idle.
    fn enqueue(&mut self, work: Work, actions: &mut Vec<ServerAction>) {
        self.service_queue.push_back(work);
        self.maybe_start_service(actions);
    }

    /// Queues a committed update for application.
    pub fn enqueue_update(
        &mut self,
        update: UpdateRequest,
        gsn: u64,
        now: SimTime,
        actions: &mut Vec<ServerAction>,
    ) {
        self.enqueue(
            Work {
                kind: WorkKind::Update { update, gsn },
                enqueued_at: now,
            },
            actions,
        );
    }

    /// Starts the next queued unit of work if nothing is in service. The
    /// host answers [`ServerAction::StartService`] with
    /// [`GatewayCore::on_service_start`], which stamps the start time.
    pub fn maybe_start_service(&mut self, actions: &mut Vec<ServerAction>) {
        if self.in_service.is_some() {
            return;
        }
        let Some(work) = self.service_queue.pop_front() else {
            return;
        };
        let token = self.next_token;
        self.next_token += 1;
        self.in_service = Some((token, work, SimTime::ZERO));
        actions.push(ServerAction::StartService { token });
    }

    /// The host began servicing `token` at `now`; records the service start
    /// for `t_q`/`t_s` measurement.
    pub fn on_service_start(&mut self, token: u64, now: SimTime) {
        if let Some((t, _, start)) = self.in_service.as_mut() {
            if *t == token {
                *start = now;
            }
        }
    }

    /// The service delay for `token` elapsed. A read is served here: the
    /// reply carries `csn` and `t1 = t_s + t_q + t_b`, and every client
    /// gets the new measurements (§5.4). An update is applied to the object
    /// and handed back for the policy to finish. The caller then starts the
    /// next unit of work with [`GatewayCore::maybe_start_service`].
    ///
    /// # Panics
    ///
    /// Panics if `token` is not the unit of work in service.
    pub fn finish_service(
        &mut self,
        token: u64,
        now: SimTime,
        csn: u64,
        actions: &mut Vec<ServerAction>,
    ) -> Option<AppliedUpdate> {
        let (t, work, started_at) = self.in_service.take().expect("no work in service");
        assert_eq!(t, token, "service completion for unexpected token");
        let ts = now.saturating_since(started_at);
        if self.config.overload.enabled {
            let sample = ts.as_micros().max(1);
            self.avg_service_us = if self.avg_service_us == 0 {
                sample
            } else {
                (self.avg_service_us * 7 + sample) / 8
            };
        }
        if self.obs.is_enabled() {
            let req_id = match &work.kind {
                WorkKind::Update { update, .. } => update.id,
                WorkKind::Read { read, .. } => read.req.id,
            };
            self.obs.emit(now, self.me, || ObsEvent::ServiceDone {
                req: req_ref(req_id),
                service_us: ts.as_micros(),
            });
            self.obs.observe(
                "server.service_us",
                aqf_obs::LATENCY_BOUNDS_US,
                ts.as_micros(),
            );
        }
        match work.kind {
            WorkKind::Update { update, gsn } => {
                let result = self.apply(&update.op);
                let tq = started_at.saturating_since(work.enqueued_at);
                Some(AppliedUpdate {
                    update,
                    gsn,
                    result,
                    t1: ts + tq,
                })
            }
            WorkKind::Read {
                read,
                staleness,
                deferred,
                tb,
                vector,
            } => {
                let result = self.object.read_into(&read.req.op, &mut self.reply_scratch);
                self.stats.reads_served += 1;
                // t_q is all waiting except the deferral buffering:
                // arrival -> service start, minus tb (§5.4).
                let total_wait = started_at.saturating_since(read.arrived_at);
                let tq = total_wait.saturating_sub(tb);
                let t1 = ts + tq + tb;
                actions.push(ServerAction::SendDirect {
                    to: read.client,
                    payload: Payload::Reply(Reply {
                        id: read.req.id,
                        result,
                        t1_us: t1.as_micros(),
                        staleness,
                        deferred,
                        csn,
                        vector,
                    }),
                });
                let perf = Payload::Perf(PerfBroadcast {
                    read: Some(ReadMeasurement {
                        ts_us: ts.as_micros(),
                        tq_us: tq.as_micros(),
                        tb_us: tb.as_micros(),
                    }),
                    publisher: self.is_publisher().then(|| self.publisher_info(now)),
                });
                self.broadcast_perf(perf, actions);
                None
            }
        }
    }

    /// Applies `op` to the hosted object, returning its encoded result.
    pub fn apply(&mut self, op: &Operation) -> Bytes {
        self.object.apply_update_into(op, &mut self.reply_scratch)
    }

    /// Replies to the client of an applied update and retains the reply so
    /// a retransmission can be answered without re-applying it.
    pub fn reply_update(
        &mut self,
        done: AppliedUpdate,
        csn: u64,
        vector: VersionVector,
        actions: &mut Vec<ServerAction>,
    ) {
        let reply = Reply {
            id: done.update.id,
            result: done.result,
            t1_us: done.t1.as_micros(),
            staleness: 0,
            deferred: false,
            csn,
            vector,
        };
        self.reply_cache.insert(reply.clone());
        actions.push(ServerAction::SendDirect {
            to: done.update.id.client,
            payload: Payload::Reply(reply),
        });
    }

    /// A duplicate update (client retransmission or at-least-once
    /// delivery) is never applied twice. If this replica already answered
    /// it, answer again from the reply cache — the original reply may have
    /// been the message that was lost.
    pub fn answer_duplicate(&mut self, id: RequestId) -> Vec<ServerAction> {
        self.stats.dedup_hits += 1;
        match self.reply_cache.get(&id) {
            Some(r) => vec![ServerAction::SendDirect {
                to: id.client,
                payload: Payload::Reply(r.clone()),
            }],
            None => Vec::new(),
        }
    }

    /// Whether overload protection sheds an arriving read: the bounded
    /// admission queue is full, or the backlog estimate
    /// `(queue_depth + 1) × avg_service_time` already exceeds the
    /// request's remaining deadline budget — the reply could only be late.
    /// A zero deadline means none was advertised and never sheds.
    fn should_shed_read(&self, req: &ReadRequest) -> bool {
        let ovl = &self.config.overload;
        if !ovl.enabled {
            return false;
        }
        if self.queue_depth() >= ovl.queue_bound {
            return true;
        }
        ovl.deadline_shedding
            && req.deadline_us > 0
            && self.avg_service_us > 0
            && (self.queue_depth() as u64 + 1).saturating_mul(self.avg_service_us) > req.deadline_us
    }

    /// Sheds `req` with a `Busy` reply to `client` if
    /// [`GatewayCore::should_shed_read`] says so. Only reads are shed here:
    /// an update applies wherever it arrives in the sequencer-free
    /// handlers, so shedding it at one primary would diverge the group.
    pub fn shed_read(
        &mut self,
        req: &ReadRequest,
        client: ActorId,
        now: SimTime,
    ) -> Option<Vec<ServerAction>> {
        if !self.should_shed_read(req) {
            return None;
        }
        self.stats.shed_reads += 1;
        let queue_depth = self.queue_depth() as u64;
        self.obs.emit(now, self.me, || ObsEvent::ShedRead {
            req: req_ref(req.id),
            queue_depth,
        });
        Some(vec![ServerAction::SendDirect {
            to: client,
            payload: Payload::Busy { req: req.id },
        }])
    }

    /// Serves `read` now with `vector` when the policy found it fresh
    /// enough (`Some`), or parks it until the policy releases it (`None`).
    pub fn admit_read(
        &mut self,
        read: PendingRead,
        staleness: u64,
        vector: Option<VersionVector>,
        now: SimTime,
        actions: &mut Vec<ServerAction>,
    ) {
        match vector {
            Some(vector) => self.enqueue(
                Work {
                    kind: WorkKind::Read {
                        read,
                        staleness,
                        deferred: false,
                        tb: SimDuration::ZERO,
                        vector,
                    },
                    enqueued_at: now,
                },
                actions,
            ),
            None => {
                self.stats.reads_deferred += 1;
                self.deferred.push((read, now));
            }
        }
    }

    /// Re-examines parked reads in arrival order. `release` returns the
    /// vector to answer with for each read that may now be served (as a
    /// deferred reply, buffered for `t_b`), or `None` to keep it parked.
    pub fn release_deferred(
        &mut self,
        now: SimTime,
        staleness: u64,
        mut release: impl FnMut(&PendingRead) -> Option<VersionVector>,
        actions: &mut Vec<ServerAction>,
    ) {
        for (read, deferred_at) in std::mem::take(&mut self.deferred) {
            match release(&read) {
                Some(vector) => {
                    let tb = now.saturating_since(deferred_at);
                    self.enqueue(
                        Work {
                            kind: WorkKind::Read {
                                read,
                                staleness,
                                deferred: true,
                                tb,
                                vector,
                            },
                            enqueued_at: now,
                        },
                        actions,
                    );
                }
                None => self.deferred.push((read, deferred_at)),
            }
        }
    }

    /// Write-ahead discipline: logs `update` under `gsn` before the reply
    /// that acknowledges it can be produced (with sync-before-ack, the
    /// record reaches the durable platter first).
    pub fn log_commit(&mut self, now: SimTime, gsn: u64, update: &UpdateRequest) {
        if let Some(d) = self.durability.as_mut() {
            let (bytes, _) = d.log_commit(gsn, update);
            self.stats.wal_appends += 1;
            self.obs
                .emit(now, self.me, || ObsEvent::WalAppend { gsn, bytes });
        }
    }

    /// Durable compaction: once enough commits accumulated, stage the
    /// snapshot `data` builds at `(csn, gsn)`; the WAL prefix it covers is
    /// truncated at the next fsync (atomic rename).
    pub fn maybe_snapshot(
        &mut self,
        now: SimTime,
        csn: u64,
        gsn: u64,
        data: impl FnOnce(&Self) -> Vec<u8>,
    ) {
        if !self.durability.as_ref().is_some_and(|d| d.wants_snapshot()) {
            return;
        }
        let data = data(self);
        let d = self.durability.as_mut().expect("checked above");
        let wal_bytes = d.stage_snapshot(csn, gsn, data);
        self.stats.snapshots_taken += 1;
        self.obs
            .emit(now, self.me, || ObsEvent::Snapshot { csn, wal_bytes });
    }

    /// Makes an installed state (a transfer, or a secondary's lazy update)
    /// the durable baseline immediately, so a crash right after the install
    /// cannot resurrect the state it replaced.
    pub fn persist_install(&mut self, csn: u64, gsn: u64, data: impl FnOnce(&Self) -> Vec<u8>) {
        if self.durability.is_none() {
            return;
        }
        let data = data(self);
        let d = self.durability.as_mut().expect("checked above");
        d.persist_install(csn, gsn, data);
        self.stats.snapshots_taken += 1;
    }

    /// Applies crash semantics to the stable storage: unsynced appends are
    /// lost (possibly leaving a torn tail or a flipped bit, per the fault
    /// configuration) and any staged-but-unrenamed snapshot is discarded.
    pub fn crash_storage(&mut self) {
        if let Some(d) = self.durability.as_mut() {
            d.crash();
        }
    }

    /// Flips `synced` on (if off) and closes the open recovery window.
    pub fn mark_synced(&mut self, now: SimTime) {
        if !self.synced {
            self.synced = true;
            if let Some(at) = self.restarted_at.take() {
                let healed = now.saturating_since(at).as_micros();
                self.stats.recovery_us = self.stats.recovery_us.max(healed);
            }
        }
    }

    /// The core a replica restarts with: every volatile field wiped, the
    /// role re-derived from the current views, `fresh_object` as the empty
    /// application state. The durability sidecar is the one piece that
    /// survives — it *is* the stable storage (the host already applied
    /// crash damage via `crash_storage`). The obs handle rides along with
    /// it so recovery shows up in the trace; without storage a restarted
    /// replica stays un-instrumented.
    pub fn restarted(&mut self, fresh_object: Box<dyn ReplicatedObject>, now: SimTime) -> Self {
        let mut core = Self::new(
            self.me,
            self.primary_view.clone(),
            self.secondary_view.clone(),
            fresh_object,
            self.config.clone(),
        );
        if let Some(d) = self.durability.take() {
            core.durability = Some(d);
            core.obs = self.obs.clone();
        }
        core.synced = false;
        core.restarted_at = Some(now);
        core.last_broadcast_at = now;
        core.last_lazy_at = now;
        core.last_transfer_request = now;
        core
    }

    /// The first rungs of the restart replay ladder: no storage, replay
    /// disabled, an interior-corrupt log or an empty one all return `None`
    /// (the last three recorded as a `RecoveryFallback`), and the replica
    /// rebuilds over the network. Otherwise returns what survived, for the
    /// policy to install before closing with [`GatewayCore::replayed`].
    pub fn replay_log(&mut self, now: SimTime) -> Option<ReplaySummary> {
        let d = self.durability.as_mut()?;
        if !d.config().replay {
            self.obs.emit(now, self.me, || ObsEvent::RecoveryFallback {
                reason: "replay-disabled",
            });
            return None;
        }
        let summary = d.replay();
        self.stats.torn_tails_dropped += summary.torn_records;
        if summary.corrupt {
            self.stats.corrupt_logs += 1;
            self.obs.emit(now, self.me, || ObsEvent::RecoveryFallback {
                reason: "corrupt-log",
            });
            return None;
        }
        if summary.snapshot.is_none() && summary.commits.is_empty() {
            // Nothing durable yet: behave exactly like a plain restart
            // rather than claim an empty state is synchronized.
            self.obs.emit(now, self.me, || ObsEvent::RecoveryFallback {
                reason: "empty-log",
            });
            return None;
        }
        Some(summary)
    }

    /// Closes a successful replay of `records` WAL records that restored
    /// the replica to `csn`: it is synchronized again.
    pub fn replayed(&mut self, now: SimTime, records: u64, csn: u64) {
        self.stats.replayed_records += records;
        self.mark_synced(now);
        self.obs
            .emit(now, self.me, || ObsEvent::RecoveryReplay { records, csn });
    }

    /// Picks the next state-transfer donor, cycling through the primary
    /// members so a lost request or an unhelpful donor cannot wedge
    /// recovery.
    pub fn next_donor(&mut self) -> Option<ActorId> {
        let candidates: Vec<ActorId> = self
            .primary_view
            .members()
            .iter()
            .copied()
            .filter(|m| *m != self.me)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let donor = candidates[self.donor_rr % candidates.len()];
        self.donor_rr += 1;
        Some(donor)
    }

    /// Re-requests a state transfer from the next donor once the previous
    /// request has gone unanswered for [`COMMIT_STALL_TIMEOUT`].
    pub fn request_transfer_if_due(&mut self, now: SimTime) -> Option<ServerAction> {
        if now.saturating_since(self.last_transfer_request) <= COMMIT_STALL_TIMEOUT {
            return None;
        }
        let donor = self.next_donor()?;
        self.last_transfer_request = now;
        Some(ServerAction::SendDirect {
            to: donor,
            payload: Payload::StateRequest,
        })
    }

    /// While unsynchronized, re-requests the state transfer (the initial
    /// request or its response may have been lost). The sequencer-free
    /// handlers append this after the actions of the payload that
    /// triggered the check.
    pub fn retry_transfer(&mut self, now: SimTime) -> Option<ServerAction> {
        if self.synced {
            return None;
        }
        self.request_transfer_if_due(now)
    }

    /// Finishes a restart: sends `request` to `donor` (if there is one),
    /// then re-arms the lazy timer when this replica publishes.
    pub fn rejoin(&mut self, donor: Option<ActorId>, request: Payload) -> Vec<ServerAction> {
        let mut actions = Vec::new();
        if let Some(donor) = donor {
            actions.push(ServerAction::SendDirect {
                to: donor,
                payload: request,
            });
        }
        if self.is_publisher() {
            self.arm_lazy(&mut actions);
        }
        actions
    }

    /// Answers a state-transfer request with the `snapshot` at `(csn, gsn)`
    /// — only a synchronized primary donates.
    pub fn serve_state(
        &mut self,
        from: ActorId,
        csn: u64,
        gsn: u64,
        snapshot: impl FnOnce(&Self) -> Bytes,
    ) -> Vec<ServerAction> {
        if self.role != ReplicaRole::Primary || !self.synced {
            return Vec::new();
        }
        self.stats.state_transfers += 1;
        let snapshot = snapshot(self);
        self.stats.transfer_bytes_sent += snapshot.len() as u64;
        vec![ServerAction::SendDirect {
            to: from,
            payload: Payload::StateResponse { csn, gsn, snapshot },
        }]
    }
}

/// Staleness for the handlers without a global sequence (FIFO, causal).
///
/// With no sequencer there is no exact global version, so a secondary
/// bounds the number of updates it is missing by
/// `rate × (now − last lazy update)`, using the update-arrival rate the lazy
/// publisher ships inside each lazy update. Unsynchronized replicas
/// periodically re-request their state transfer, since the first request
/// or its response may have been lost.
#[derive(Debug, Clone, Default)]
pub(crate) struct RateStaleness {
    /// When the last lazy update (or transfer) landed at a secondary;
    /// `None` until then after a restart.
    received_at: Option<SimTime>,
    /// The publisher's advertised update-arrival rate, per µs.
    rate_per_us: f64,
    /// Publisher side: arrivals counted since `acc_since`.
    acc_updates: u64,
    acc_since: SimTime,
}

impl RateStaleness {
    /// The estimator of a replica restarting at `now`: never synchronized.
    pub fn restarted(now: SimTime) -> Self {
        Self {
            acc_since: now,
            ..Self::default()
        }
    }

    /// Host start. Until the first lazy update arrives a secondary treats
    /// itself as synchronized from genesis (version 0 is the true initial
    /// state).
    pub fn start(&mut self, core: &mut GatewayCore, now: SimTime) -> Vec<ServerAction> {
        self.acc_since = now;
        if core.role == ReplicaRole::Secondary {
            self.received_at = Some(now);
        }
        core.start(now)
    }

    /// Counts an arriving update for the publisher and the shipped rate.
    pub fn count_update(&mut self, core: &mut GatewayCore) {
        core.count_update();
        self.acc_updates += 1;
    }

    /// Estimated staleness in versions: zero for primaries; for
    /// secondaries, the expected number of updates that arrived at the
    /// primary group since the last lazy update, `ceil(rate × elapsed)`.
    pub fn estimate(&self, role: ReplicaRole, now: SimTime) -> u64 {
        match role {
            ReplicaRole::Primary => 0,
            ReplicaRole::Secondary => match self.received_at {
                Some(at) => {
                    let elapsed = now.saturating_since(at).as_micros() as f64;
                    (self.rate_per_us * elapsed).ceil() as u64
                }
                // Never synchronized: unbounded staleness.
                None => u64::MAX,
            },
        }
    }

    /// A lazy update advertising `rate_per_us` landed at `now`.
    pub fn received(&mut self, now: SimTime, rate_per_us: f64) {
        self.received_at = Some(now);
        self.rate_per_us = rate_per_us.max(0.0);
    }

    /// A state transfer landed at `now`: a secondary's estimate restarts.
    pub fn transferred(&mut self, role: ReplicaRole, now: SimTime) {
        if role == ReplicaRole::Secondary {
            self.received_at = Some(now);
        }
    }

    /// The lazy timer fired: ships `payload(core, rate)`, where `rate` is
    /// the arrivals observed since the estimator was last reset. The
    /// estimator stays fresh by restarting its window every 8 lazy
    /// intervals.
    pub fn lazy_tick(
        &mut self,
        core: &mut GatewayCore,
        now: SimTime,
        payload: impl FnOnce(&GatewayCore, f64) -> Payload,
    ) -> Vec<ServerAction> {
        core.lazy_tick(now, |core| {
            let elapsed = now.saturating_since(self.acc_since).as_micros();
            let rate = if elapsed > 0 {
                self.acc_updates as f64 / elapsed as f64
            } else {
                0.0
            };
            if now.saturating_since(self.acc_since) > core.config.lazy_interval * 8 {
                self.acc_updates = 0;
                self.acc_since = now;
            }
            payload(core, rate)
        })
    }

    /// A view change: a freshly designated publisher also restarts the
    /// rate window it ships.
    pub fn on_view(
        &mut self,
        core: &mut GatewayCore,
        view: Arc<View>,
        now: SimTime,
    ) -> Vec<ServerAction> {
        let mut actions = Vec::new();
        if let Some(old) = core.install_view(view, now) {
            if core.take_over_publishing(&old, now, &mut actions) {
                self.acc_since = now;
                self.acc_updates = 0;
            }
        }
        actions
    }
}

/// Fixtures shared by the handlers' unit tests.
#[cfg(test)]
pub(crate) mod testkit {
    use crate::protocol::ServerProtocol;
    use crate::server::ServerAction;
    use crate::wire::{Payload, Reply, PRIMARY_GROUP, SECONDARY_GROUP};
    use aqf_group::{View, ViewId};
    use aqf_sim::{ActorId, SimDuration, SimTime};

    pub fn a(i: usize) -> ActorId {
        ActorId::from_index(i)
    }

    // Roster: 0 = leader (the sequential handler's sequencer), 1, 2 =
    // primaries (2 publishes), 10, 11 = secondaries, 20, 21 = clients.
    pub fn pview() -> View {
        View::new(PRIMARY_GROUP, ViewId(0), vec![a(0), a(1), a(2)])
    }

    pub fn sview() -> View {
        View::new(SECONDARY_GROUP, ViewId(0), vec![a(10), a(11)])
    }

    pub fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// The client replies among `actions`.
    pub fn replies(actions: &[ServerAction]) -> impl Iterator<Item = &Reply> {
        actions.iter().filter_map(|x| match x {
            ServerAction::SendDirect {
                payload: Payload::Reply(r),
                ..
            } => Some(r),
            _ => None,
        })
    }

    /// Drives the service loop synchronously with a fixed 10 ms service
    /// time, appending every action it produces; returns the clock after
    /// the last completion.
    pub fn drain(
        gw: &mut (impl ServerProtocol + ?Sized),
        actions: &mut Vec<ServerAction>,
        mut now: SimTime,
    ) -> SimTime {
        while let Some(pos) = actions
            .iter()
            .position(|x| matches!(x, ServerAction::StartService { .. }))
        {
            let ServerAction::StartService { token } = actions.remove(pos) else {
                unreachable!()
            };
            gw.on_service_start(token, now);
            now += SimDuration::from_millis(10);
            actions.extend(gw.on_service_done(token, now));
        }
        now
    }
}

/// Behaviour the core gives all three handlers, checked through each one.
#[cfg(test)]
mod tests {
    use super::testkit::{a, pview, sview, t};
    use crate::causal::CausalServerGateway;
    use crate::fifo::FifoServerGateway;
    use crate::object::VersionedRegister;
    use crate::overload::OverloadConfig;
    use crate::protocol::ServerProtocol;
    use crate::qos::OrderingGuarantee;
    use crate::server::{ServerAction, ServerConfig, ServerGateway};
    use crate::wire::{Operation, Payload, ReadRequest, RequestId, UpdateRequest};
    use aqf_sim::{SimDuration, SimTime};

    const ORDERINGS: [OrderingGuarantee; 3] = [
        OrderingGuarantee::Sequential,
        OrderingGuarantee::Fifo,
        OrderingGuarantee::Causal,
    ];

    /// Replica `me` of `ordering`'s handler hosting a register.
    fn handler(
        ordering: OrderingGuarantee,
        me: usize,
        overload: OverloadConfig,
    ) -> Box<dyn ServerProtocol> {
        let config = ServerConfig {
            clients: vec![a(20)],
            overload,
            ..ServerConfig::default()
        };
        let (me, object) = (a(me), Box::new(VersionedRegister::new()));
        match ordering {
            OrderingGuarantee::Sequential => {
                Box::new(ServerGateway::new(me, pview(), sview(), object, config))
            }
            OrderingGuarantee::Fifo => {
                Box::new(FifoServerGateway::new(me, pview(), sview(), object, config))
            }
            OrderingGuarantee::Causal => Box::new(CausalServerGateway::new(
                me,
                pview(),
                sview(),
                object,
                config,
            )),
        }
    }

    /// Non-sequencer primary replica 1, with overload protection on.
    fn primary(ordering: OrderingGuarantee) -> Box<dyn ServerProtocol> {
        handler(ordering, 1, OverloadConfig::protective())
    }

    fn id(seq: u64) -> RequestId {
        RequestId { client: a(20), seq }
    }

    /// Delivers update `seq` of client 20, plus the sequencer's assignment
    /// for the sequential handler.
    fn submit_update(
        gw: &mut dyn ServerProtocol,
        ordering: OrderingGuarantee,
        seq: u64,
        now: SimTime,
    ) -> Vec<ServerAction> {
        let update = UpdateRequest {
            id: id(seq),
            op: Operation::new("set", b"x".to_vec()),
            attempt: 1,
        };
        match ordering {
            OrderingGuarantee::Sequential => {
                let mut actions = gw.on_payload(a(20), Payload::Update(update), now);
                let assign = Payload::GsnAssign {
                    req: id(seq),
                    gsn: seq + 1,
                };
                actions.extend(gw.on_payload(a(0), assign, now));
                actions
            }
            OrderingGuarantee::Fifo => gw.on_payload(a(20), Payload::Update(update), now),
            OrderingGuarantee::Causal => {
                let update = Payload::CausalUpdate {
                    update,
                    update_seq: seq,
                    deps: Vec::new(),
                };
                gw.on_payload(a(20), update, now)
            }
        }
    }

    /// Delivers read `seq` advertising `deadline_us`, plus the sequencer's
    /// GSN snapshot for the sequential handler.
    fn submit_read(
        gw: &mut dyn ServerProtocol,
        ordering: OrderingGuarantee,
        seq: u64,
        deadline_us: u64,
        now: SimTime,
    ) -> Vec<ServerAction> {
        let read = ReadRequest {
            id: id(seq),
            op: Operation::new("get", Vec::new()),
            staleness_threshold: 1000,
            deadline_us,
            attempt: 1,
        };
        match ordering {
            OrderingGuarantee::Sequential => {
                let mut actions = gw.on_payload(a(20), Payload::Read(read), now);
                let snapshot = Payload::GsnSnapshot {
                    req: id(seq),
                    gsn: gw.gsn(),
                };
                actions.extend(gw.on_payload(a(0), snapshot, now));
                actions
            }
            OrderingGuarantee::Fifo => gw.on_payload(a(20), Payload::Read(read), now),
            OrderingGuarantee::Causal => {
                let read = Payload::CausalRead {
                    read,
                    deps: Vec::new(),
                };
                gw.on_payload(a(20), read, now)
            }
        }
    }

    /// Services the unit of work `actions` started, taking `ms`.
    fn service(gw: &mut dyn ServerProtocol, actions: &[ServerAction], now: SimTime, ms: u64) {
        let token = actions
            .iter()
            .find_map(|x| match x {
                ServerAction::StartService { token } => Some(*token),
                _ => None,
            })
            .expect("work started");
        gw.on_service_start(token, now);
        let _ = gw.on_service_done(token, now + SimDuration::from_millis(ms));
    }

    /// Whether read `seq` with `deadline_us` was shed with `Busy`.
    fn shed(
        gw: &mut dyn ServerProtocol,
        ordering: OrderingGuarantee,
        seq: u64,
        deadline_us: u64,
        now: SimTime,
    ) -> (bool, Vec<ServerAction>) {
        let before = gw.stats().shed_reads;
        let actions = submit_read(gw, ordering, seq, deadline_us, now);
        let busy = actions.iter().any(|x| {
            matches!(x, ServerAction::SendDirect { payload: Payload::Busy { req }, .. } if *req == id(seq))
        });
        assert_eq!(busy, gw.stats().shed_reads > before, "{ordering:?}");
        (busy, actions)
    }

    /// Regression: the first service-time sample must seed the EWMA
    /// directly. Folding it into the zero initial average would start the
    /// estimate at `sample/8` and take many requests to warm up, blinding
    /// deadline-aware shedding exactly when a burst arrives on a cold
    /// server. The average is read back through the shedding predicate:
    /// on an idle server a read sheds exactly when its deadline is below it.
    #[test]
    fn ewma_seeds_with_first_sample() {
        for ordering in ORDERINGS {
            let gw = &mut *primary(ordering);
            let actions = submit_update(gw, ordering, 0, t(0));
            service(gw, &actions, t(0), 10);
            // Seeded: 10 ms, not 10/8 ms.
            assert!(shed(gw, ordering, 100, 9_999, t(20)).0, "{ordering:?}");
            let (busy, actions) = shed(gw, ordering, 101, 10_000, t(20));
            assert!(!busy, "{ordering:?}: first sample seeds the average");
            // Later samples blend 7:1 into the seeded average.
            service(gw, &actions, t(20), 2);
            let blended = (10_000 * 7 + 2_000) / 8;
            assert!(
                shed(gw, ordering, 102, blended - 1, t(30)).0,
                "{ordering:?}"
            );
            assert!(!shed(gw, ordering, 103, blended, t(30)).0, "{ordering:?}");
        }
    }

    /// Regression: `deadline_us == 0` is the wire sentinel for "no deadline
    /// advertised" and must never be treated as an already-expired deadline
    /// by the shedding predicate, however hot the average.
    #[test]
    fn zero_deadline_never_sheds_on_deadline_grounds() {
        for ordering in ORDERINGS {
            let gw = &mut *primary(ordering);
            let actions = submit_update(gw, ordering, 0, t(0));
            service(gw, &actions, t(0), 50);
            let (busy, _) = shed(gw, ordering, 100, 0, t(100));
            assert!(
                !busy,
                "{ordering:?}: 0 means no deadline, not an expired one"
            );
            assert!(
                shed(gw, ordering, 101, 1, t(100)).0,
                "{ordering:?}: a positive deadline below the backlog estimate must shed"
            );
        }
    }

    #[test]
    fn publisher_and_sequencer_designations() {
        for ordering in ORDERINGS {
            let gw = |me| handler(ordering, me, OverloadConfig::disabled());
            assert_eq!(gw(0).ordering(), ordering);
            // The publisher is the highest-ranked primary, never the leader.
            assert!(gw(2).is_publisher(), "{ordering:?}");
            assert!(
                !gw(1).is_publisher() && !gw(0).is_publisher(),
                "{ordering:?}"
            );
            assert!(
                !gw(10).is_publisher(),
                "{ordering:?}: secondaries never publish"
            );
            // Only the sequential handler has a sequencer: the leader.
            let sequential = ordering == OrderingGuarantee::Sequential;
            assert_eq!(gw(0).is_sequencer(), sequential, "{ordering:?}");
            assert!(!gw(1).is_sequencer(), "{ordering:?}");
        }
    }

    #[test]
    fn non_publisher_lazy_timer_is_noop() {
        for ordering in ORDERINGS {
            let mut gw = handler(ordering, 1, OverloadConfig::disabled());
            assert!(gw.on_lazy_timer(t(100)).is_empty(), "{ordering:?}");
        }
    }

    #[test]
    fn new_publisher_takes_over_after_publisher_crash() {
        for ordering in ORDERINGS {
            let mut gw = handler(ordering, 1, OverloadConfig::disabled());
            assert!(!gw.is_publisher());
            // Publisher (replica 2) crashes: view becomes {0, 1}; 1 is now
            // the highest-ranked non-leader member.
            let view = pview().successor(&[a(2)], &[]).unwrap();
            let actions = gw.on_view(std::sync::Arc::new(view), t(1000));
            assert!(gw.is_publisher(), "{ordering:?}");
            assert!(
                actions
                    .iter()
                    .any(|x| matches!(x, ServerAction::ArmLazyTimer { .. })),
                "{ordering:?}: the new publisher arms its lazy timer"
            );
        }
    }

    /// Without storage there is no disk at all: nothing is logged, the
    /// crash hook is a no-op, and a restart is the plain transfer-only one.
    #[test]
    fn storage_off_restart_is_a_plain_restart() {
        for ordering in ORDERINGS {
            let gw = &mut *handler(ordering, 1, OverloadConfig::disabled());
            let mut actions = submit_update(gw, ordering, 0, t(0));
            let _ = super::testkit::drain(gw, &mut actions, t(0));
            assert_eq!(gw.stats().wal_appends, 0, "{ordering:?}");
            gw.crash_storage();
            let actions = gw.on_restart(Box::new(VersionedRegister::new()), t(50));
            assert!(!gw.is_synced(), "{ordering:?}");
            assert!(
                actions.iter().any(|x| matches!(
                    x,
                    ServerAction::SendDirect {
                        payload: Payload::StateRequest,
                        ..
                    }
                )),
                "{ordering:?}: rebuilds through a full state transfer"
            );
            assert_eq!(gw.stats().replayed_records, 0, "{ordering:?}");
        }
    }
}
