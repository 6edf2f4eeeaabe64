//! The server-side gateway handler: sequential consistency over the
//! two-level replica organization (paper §4).
//!
//! Each replica's gateway maintains `my_GSN` (its view of the global
//! sequence number) and `my_CSN` (its commit sequence number). Update
//! requests are multicast by clients to the primary group; the *sequencer*
//! (the leader of the primary group) assigns each update a GSN and
//! broadcasts the assignment; primary replicas commit updates in GSN order.
//! Read-only requests reach the sequencer and a selected subset of
//! replicas; the sequencer broadcasts the current GSN (without advancing
//! it), each addressed replica measures its staleness `my_GSN - my_CSN`
//! against the client's threshold, and either services the read immediately
//! or defers it until the next lazy update. One primary replica — the *lazy
//! publisher* — propagates its state to the secondary group every `T_L`.
//!
//! The gateway also implements the failure handling the paper relies on but
//! omits for space (§4.1): sequencer recovery through an assignment
//! reconciliation round (`GsnQuery` / `GsnReport`), deterministic lazy
//! publisher re-designation, and state transfer for restarted replicas.
//!
//! The gateway is a sans-IO state machine: hosts feed it payloads, timers,
//! and view changes, and execute the returned [`ServerAction`]s.

use crate::durability::{Durability, StorageConfig, WalRecord};
use crate::gateway::{
    push_bounded, GatewayCore, PendingRead, COMMIT_STALL_TIMEOUT, SNAPSHOT_CACHE,
};
use crate::object::ReplicatedObject;
use crate::obs::{req_ref, ObsEvent, ObsHandle};
use crate::overload::OverloadConfig;
use crate::protocol::ServerProtocol;
use crate::qos::OrderingGuarantee;
use crate::wire::{Payload, ReadRequest, RequestId, UpdateRequest, PRIMARY_GROUP, SECONDARY_GROUP};
use aqf_group::{GroupId, View};
use aqf_sim::{ActorId, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Whether a replica belongs to the primary or the secondary group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Member of the primary replication group: receives every update
    /// immediately and commits in GSN order.
    Primary,
    /// Member of the secondary replication group: state advances only
    /// through lazy updates.
    Secondary,
}

/// Tuning knobs for a server gateway.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The lazy update interval `T_L`.
    pub lazy_interval: SimDuration,
    /// The QoS-group client roster: recipients of performance broadcasts.
    pub clients: Vec<ActorId>,
    /// Primary-group replenishment threshold (0 disables, the default):
    /// when the sequencer's primary view shrinks below this size, it
    /// promotes the freshest secondary (lowest `my_GSN − my_CSN`) into the
    /// primary group through the existing state-transfer path.
    pub min_primary_size: usize,
    /// Overload protection: bounded admission queue, deadline-aware read
    /// shedding, and the sequencer commit-backlog watermark. Disabled by
    /// default (bit-identical to a gateway without the subsystem).
    pub overload: OverloadConfig,
    /// Simulated stable storage: per-replica write-ahead log + snapshots
    /// for crash recovery. Disabled by default (no disk exists at all; the
    /// gateway behaves bit-identically to one without the subsystem).
    pub storage: StorageConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            lazy_interval: SimDuration::from_secs(2),
            clients: Vec::new(),
            min_primary_size: 0,
            overload: OverloadConfig::disabled(),
            storage: StorageConfig::disabled(),
        }
    }
}

/// Instructions returned by the gateway for its host to execute.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerAction {
    /// Reliably FIFO-multicast into the primary group.
    MulticastPrimary(Payload),
    /// Reliably FIFO-multicast into the secondary group.
    MulticastSecondary(Payload),
    /// Send an unordered point-to-point payload.
    SendDirect {
        /// Recipient gateway.
        to: ActorId,
        /// Payload to deliver.
        payload: Payload,
    },
    /// Begin servicing the unit of work identified by `token`: the host
    /// models the service time (the paper's simulated background load) and
    /// calls [`ServerProtocol::on_service_done`] when it elapses.
    StartService {
        /// Opaque work token.
        token: u64,
    },
    /// (Re-)arm the lazy propagation timer.
    ArmLazyTimer {
        /// Delay until the next lazy propagation.
        after: SimDuration,
    },
    /// Join `group`: the host's endpoint converts its observed view of the
    /// group into a (not yet admitted) membership and knocks. Emitted by a
    /// secondary promoted into the primary group.
    JoinGroup {
        /// The group to join.
        group: GroupId,
    },
    /// Voluntarily leave `group`. Emitted by a promoted secondary
    /// departing the secondary group.
    LeaveGroup {
        /// The group to leave.
        group: GroupId,
    },
}

/// Counters exposed for tests and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Updates committed (CSN advances).
    pub updates_committed: u64,
    /// Reads serviced (immediate + deferred).
    pub reads_served: u64,
    /// Reads that had to wait for a state update.
    pub reads_deferred: u64,
    /// GSN assignment conflicts ignored (should stay 0 under crash faults).
    pub gsn_conflicts: u64,
    /// Assignments rejected because they came from a stale sequencer.
    pub stale_assigns: u64,
    /// Lazy updates propagated (publisher only).
    pub lazy_updates_sent: u64,
    /// Lazy updates applied (secondaries only).
    pub lazy_updates_applied: u64,
    /// Sequencer recoveries completed.
    pub recoveries: u64,
    /// State transfers served to rejoining replicas.
    pub state_transfers: u64,
    /// Duplicate updates absorbed (retransmissions and at-least-once
    /// deliveries answered from the reply cache or dropped).
    pub dedup_hits: u64,
    /// Replenishment promotions issued while acting as sequencer.
    pub promotions: u64,
    /// Times this replica was promoted from secondary to primary.
    pub promoted: u64,
    /// Longest observed sequencer-unavailability window in µs: from the
    /// last sequencing activity this replica observed to the completion of
    /// its own takeover reconciliation (new sequencer only).
    pub seq_unavail_us: u64,
    /// Longest update-commit stall healed by a recovery or catch-up state
    /// transfer, in µs.
    pub commit_stall_us: u64,
    /// Reads shed with `Busy` by the bounded admission queue or the
    /// deadline-aware shedding predicate (overload protection only).
    pub shed_reads: u64,
    /// Updates shed with `Busy` by the sequencer's commit-backlog
    /// watermark (overload protection only).
    pub shed_updates: u64,
    /// Write-ahead log records appended (durability only).
    pub wal_appends: u64,
    /// Durable snapshots staged (durability only).
    pub snapshots_taken: u64,
    /// Valid WAL records replayed on restart (durability only).
    pub replayed_records: u64,
    /// Torn tail records dropped by the CRC check on replay.
    pub torn_tails_dropped: u64,
    /// Durable logs quarantined for interior corruption on replay.
    pub corrupt_logs: u64,
    /// Bytes shipped answering state and delta transfers.
    pub transfer_bytes_sent: u64,
    /// Bytes a delta transfer avoided shipping versus the full snapshot
    /// it replaced.
    pub transfer_bytes_saved: u64,
    /// Longest restart-to-synced window in µs (durability only; the
    /// transfer-only path heals through the network instead).
    pub recovery_us: u64,
}

/// The server-side gateway state machine. See the [module docs](self).
pub struct ServerGateway {
    core: GatewayCore,

    my_gsn: u64,
    my_csn: u64,
    applied_csn: u64,

    // Sequencer state (leader of the primary group).
    seq_gsn: u64,
    recovering: bool,
    awaiting_reports: BTreeSet<ActorId>,
    reported_csns: Vec<u64>,
    /// Assignments learned from `GsnReport`s during the open round:
    /// interim history this replica may have missed while partitioned,
    /// keyed by GSN. Folded into `finish_recovery`'s reconciliation so a
    /// stale re-leading sequencer re-broadcasts the real assignments
    /// instead of re-sequencing committed updates as orphans.
    reported_assignments: BTreeMap<u64, RequestId>,
    /// When the open reconciliation round last multicast a `GsnQuery`;
    /// the recovery watchdog re-queries past this plus the stall timeout.
    last_gsn_query_at: SimTime,
    queued_snapshot_reqs: Vec<RequestId>,

    // Primary commit machinery.
    unassigned_updates: BTreeMap<RequestId, UpdateRequest>,
    gsn_assignments: BTreeMap<RequestId, u64>,
    commit_ready: BTreeMap<u64, UpdateRequest>,
    committed_log: VecDeque<(u64, RequestId)>,

    // Read machinery.
    read_snapshot_gsn: BTreeMap<RequestId, u64>,
    snapshot_order: VecDeque<RequestId>,
    pending_reads: BTreeMap<RequestId, PendingRead>,

    // Commit-stall detection (catch-up after unrecoverable gaps).
    last_progress: SimTime,
    /// Set on restart: the next time this node leads the primary view it
    /// must run the reconciliation round, whatever view-observation order
    /// the rejoin happened in (a restarted ex-leader may never see the
    /// interim leader's view and would otherwise resume sequencing from a
    /// wiped counter).
    recover_when_leading: bool,

    // Primary-group replenishment (sequencer only).
    /// When the current freshness-probe round opened, if one is running.
    promote_round: Option<SimTime>,
    /// Freshness reports collected this round: candidate -> (staleness, csn).
    promote_reports: BTreeMap<ActorId, (u64, u64)>,
    /// An issued promotion we are waiting to see join the primary view.
    promotion_inflight: Option<(ActorId, SimTime)>,
    /// Last time this replica observed the sequencer function working (an
    /// accepted assignment/snapshot, or its own sequencing).
    last_seq_activity: SimTime,
}

impl std::fmt::Debug for ServerGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerGateway")
            .field("me", &self.core.me)
            .field("role", &self.core.role)
            .field("gsn", &self.my_gsn)
            .field("csn", &self.my_csn)
            .field("applied", &self.applied_csn)
            .field("queue", &self.core.queue_depth())
            .finish()
    }
}

impl ServerGateway {
    /// Creates a gateway for replica `me`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is a member of neither (or both) initial views.
    pub fn new(
        me: ActorId,
        primary_view: impl Into<Arc<View>>,
        secondary_view: impl Into<Arc<View>>,
        object: Box<dyn ReplicatedObject>,
        config: ServerConfig,
    ) -> Self {
        Self::with_core(GatewayCore::new(
            me,
            primary_view.into(),
            secondary_view.into(),
            object,
            config,
        ))
    }

    fn with_core(core: GatewayCore) -> Self {
        Self {
            core,
            my_gsn: 0,
            my_csn: 0,
            applied_csn: 0,
            seq_gsn: 0,
            recovering: false,
            awaiting_reports: BTreeSet::new(),
            reported_csns: Vec::new(),
            reported_assignments: BTreeMap::new(),
            last_gsn_query_at: SimTime::ZERO,
            queued_snapshot_reqs: Vec::new(),
            unassigned_updates: BTreeMap::new(),
            gsn_assignments: BTreeMap::new(),
            commit_ready: BTreeMap::new(),
            committed_log: VecDeque::new(),
            read_snapshot_gsn: BTreeMap::new(),
            snapshot_order: VecDeque::new(),
            pending_reads: BTreeMap::new(),
            last_progress: SimTime::ZERO,
            recover_when_leading: false,
            promote_round: None,
            promote_reports: BTreeMap::new(),
            promotion_inflight: None,
            last_seq_activity: SimTime::ZERO,
        }
    }

    /// This replica's role.
    pub fn role(&self) -> ReplicaRole {
        self.core.role
    }

    /// Current staleness of this replica: `my_GSN - my_CSN` (paper §4.1.2).
    pub fn staleness(&self) -> u64 {
        self.my_gsn.saturating_sub(self.my_csn)
    }

    /// The retained committed log as `(GSN, request)` pairs, oldest first
    /// (bounded).
    pub fn committed_log(&self) -> impl Iterator<Item = (u64, RequestId)> + '_ {
        self.committed_log.iter().copied()
    }

    /// The durability sidecar, if storage is enabled (post-run inspection).
    pub fn durability(&self) -> Option<&Durability> {
        self.core.durability.as_ref()
    }

    /// Read access to the hosted object (for assertions in tests).
    pub fn object(&self) -> &dyn ReplicatedObject {
        &*self.core.object
    }

    /// Number of queued + in-flight service units.
    pub fn queue_depth(&self) -> usize {
        self.core.queue_depth()
    }

    /// Commit-stall watchdog: a primary whose staleness stays positive with
    /// no CSN progress for longer than the stall timeout has missed
    /// assignments it can never recover (e.g. broadcast during its rejoin
    /// window); it requests a catch-up state transfer.
    fn check_commit_stall(&mut self, now: SimTime, actions: &mut Vec<ServerAction>) {
        if self.core.role != ReplicaRole::Primary {
            return;
        }
        self.check_recovery_stall(now, actions);
        if self.staleness() == 0 && self.core.synced {
            return;
        }
        if now.saturating_since(self.last_progress) <= COMMIT_STALL_TIMEOUT {
            return;
        }
        actions.extend(self.core.request_transfer_if_due(now));
    }

    /// Reconciliation-round watchdog: a leader stuck awaiting `GsnReport`s
    /// past the stall timeout prunes departed members from the waiting set
    /// and re-queries the stragglers. Reports lost to a lossy network (the
    /// round's only unreliable leg — replies travel point-to-point, outside
    /// the NACK-recovered multicast) would otherwise leave the round open,
    /// and sequencing suspended, forever.
    fn check_recovery_stall(&mut self, now: SimTime, actions: &mut Vec<ServerAction>) {
        if !self.recovering || self.core.primary_view.leader() != self.core.me {
            return;
        }
        if now.saturating_since(self.last_gsn_query_at) <= COMMIT_STALL_TIMEOUT {
            return;
        }
        self.last_gsn_query_at = now;
        let members: BTreeSet<ActorId> = self.core.primary_view.members().iter().copied().collect();
        self.awaiting_reports.retain(|m| members.contains(m));
        if self.awaiting_reports.is_empty() {
            actions.extend(self.finish_recovery(now));
        } else {
            actions.push(ServerAction::MulticastPrimary(Payload::GsnQuery {
                csn: self.my_csn,
            }));
        }
    }

    /// Replays the durable log after a crash. Returns whether the replay
    /// restored local state (snapshot installed, committed tail re-applied,
    /// replica synced); `false` falls back to the full-transfer path.
    fn replay_storage(&mut self, now: SimTime) -> bool {
        let Some(summary) = self.core.replay_log(now) else {
            return false;
        };
        if let Some(snap) = &summary.snapshot {
            self.core
                .object
                .install_snapshot(&bytes::Bytes::from(snap.data.clone()));
            self.my_csn = snap.csn;
            self.applied_csn = snap.csn;
            self.my_gsn = self.my_gsn.max(snap.gsn);
        }
        for (gsn, update) in &summary.commits {
            let _ = self.core.apply(&update.op);
            self.my_csn = *gsn;
            self.applied_csn = *gsn;
            self.my_gsn = self.my_gsn.max(*gsn);
            push_bounded(&mut self.committed_log, (*gsn, update.id));
        }
        self.last_progress = now;
        self.core
            .replayed(now, summary.replayed_records, self.my_csn);
        true
    }

    fn on_update(&mut self, u: UpdateRequest, now: SimTime) -> Vec<ServerAction> {
        if self.core.role != ReplicaRole::Primary {
            return Vec::new(); // secondaries never receive updates directly
        }
        if self.committed_log.iter().any(|&(_, r)| r == u.id)
            || self.commit_ready.values().any(|c| c.id == u.id)
            || self.unassigned_updates.contains_key(&u.id)
        {
            return self.core.answer_duplicate(u.id);
        }
        // Sequencer commit-backlog watermark: shed *new* updates before the
        // GSN pipeline wedges. Only the sequencer sheds — it alone gates
        // GSN assignment, so a shed update never gets a number and the
        // copies other primaries buffer stay harmless until a client
        // retransmission is sequenced fresh. Duplicates were answered from
        // the reply cache above.
        let overload = &self.core.config.overload;
        if overload.enabled
            && self.is_sequencer()
            && !self.recovering
            && self.commit_ready.len() + self.unassigned_updates.len()
                >= overload.sequencer_watermark
        {
            self.core.stats.shed_updates += 1;
            let backlog = (self.commit_ready.len() + self.unassigned_updates.len()) as u64;
            self.core
                .obs
                .emit(now, self.core.me, || ObsEvent::ShedUpdate {
                    req: req_ref(u.id),
                    backlog,
                });
            return vec![ServerAction::SendDirect {
                to: u.id.client,
                payload: Payload::Busy { req: u.id },
            }];
        }
        self.core.count_update();
        let mut actions = Vec::new();
        if self.is_sequencer() && !self.recovering {
            // Assign the next GSN and broadcast the assignment (§4.1.1).
            if !self.gsn_assignments.contains_key(&u.id)
                && !self.commit_ready.values().any(|c| c.id == u.id)
            {
                self.seq_gsn += 1;
                let gsn = self.seq_gsn;
                actions.push(ServerAction::MulticastPrimary(Payload::GsnAssign {
                    req: u.id,
                    gsn,
                }));
                self.note_assignment(u.id, gsn);
                self.last_seq_activity = now;
            }
        }
        match self.gsn_assignments.remove(&u.id) {
            Some(gsn) => {
                self.stage_commit(gsn, u);
            }
            None => {
                self.unassigned_updates.insert(u.id, u);
            }
        }
        actions.extend(self.try_commit(now));
        self.check_commit_stall(now, &mut actions);
        actions
    }

    fn note_assignment(&mut self, req: RequestId, gsn: u64) {
        self.my_gsn = self.my_gsn.max(gsn);
        match self.unassigned_updates.remove(&req) {
            Some(u) => self.stage_commit(gsn, u),
            None => {
                self.gsn_assignments.insert(req, gsn);
            }
        }
    }

    fn stage_commit(&mut self, gsn: u64, u: UpdateRequest) {
        if gsn <= self.my_csn {
            return; // already committed (duplicate assignment replay)
        }
        match self.commit_ready.get(&gsn) {
            Some(existing) if existing.id != u.id => {
                self.core.stats.gsn_conflicts += 1;
            }
            Some(_) => {}
            None => {
                self.commit_ready.insert(gsn, u);
            }
        }
    }

    fn on_gsn_assign(
        &mut self,
        from: ActorId,
        req: RequestId,
        gsn: u64,
        now: SimTime,
    ) -> Vec<ServerAction> {
        if self.core.role != ReplicaRole::Primary {
            return Vec::new();
        }
        // Accept assignments only from the current sequencer; an in-flight
        // assignment from a deposed leader must not collide with the new
        // sequencer's numbering.
        if from != self.core.primary_view.leader() {
            self.core.stats.stale_assigns += 1;
            return Vec::new();
        }
        self.note_assignment(req, gsn);
        self.last_seq_activity = now;
        let mut actions = self.try_commit(now);
        self.check_commit_stall(now, &mut actions);
        actions
    }

    /// Commits every update that is next in the global order (§4.1.1),
    /// delivering it to the service queue, and re-checks deferred reads
    /// whose staleness may now be satisfied.
    fn try_commit(&mut self, now: SimTime) -> Vec<ServerAction> {
        let mut actions = Vec::new();
        while let Some(entry) = self.commit_ready.first_entry() {
            if *entry.key() != self.my_csn + 1 {
                break;
            }
            let (gsn, update) = entry.remove_entry();
            self.my_csn = gsn;
            self.last_progress = now;
            self.core.stats.updates_committed += 1;
            push_bounded(&mut self.committed_log, (gsn, update.id));
            self.core.log_commit(now, gsn, &update);
            self.core.enqueue_update(update, gsn, now, &mut actions);
        }
        // A CSN advance may satisfy deferred reads at a primary.
        self.release_satisfied_deferred(now, &mut actions);
        actions
    }

    fn release_satisfied_deferred(&mut self, now: SimTime, actions: &mut Vec<ServerAction>) {
        if self.core.role != ReplicaRole::Primary {
            return;
        }
        let (staleness, synced) = (self.staleness(), self.core.synced);
        self.core.release_deferred(
            now,
            staleness,
            |read| (synced && staleness <= read.req.staleness_threshold as u64).then(Vec::new),
            actions,
        );
    }

    fn on_read(&mut self, from: ActorId, r: ReadRequest, now: SimTime) -> Vec<ServerAction> {
        if self.is_sequencer() {
            let mut stall_actions = Vec::new();
            self.check_commit_stall(now, &mut stall_actions);
            if !stall_actions.is_empty() {
                let mut actions = self.sequencer_read(from, r, now);
                actions.extend(stall_actions);
                return actions;
            }
            return self.sequencer_read(from, r, now);
        }
        let pending = PendingRead {
            req: r,
            client: from,
            deps: Vec::new(),
            arrived_at: now,
        };
        match self.read_snapshot_gsn.remove(&pending.req.id) {
            Some(gsn) => self.admit_read(pending, gsn, now),
            None => {
                self.pending_reads.insert(pending.req.id, pending);
                Vec::new()
            }
        }
    }

    /// The sequencer's read handling: broadcast the current GSN without
    /// advancing it (§4.1.2) and do not service the request, unless it is
    /// the only primary replica.
    fn sequencer_read(&mut self, from: ActorId, r: ReadRequest, now: SimTime) -> Vec<ServerAction> {
        if self.recovering {
            self.queued_snapshot_reqs.push(r.id);
            return Vec::new();
        }
        self.last_seq_activity = now;
        let mut actions = Vec::from(self.gsn_snapshot(r.id));
        if self.core.primary_view.len() == 1 {
            let gsn = self.seq_gsn;
            actions.extend(self.admit_read(
                PendingRead {
                    req: r,
                    client: from,
                    deps: Vec::new(),
                    arrived_at: now,
                },
                gsn,
                now,
            ));
        }
        actions
    }

    fn on_gsn_snapshot(
        &mut self,
        from: ActorId,
        req: RequestId,
        gsn: u64,
        now: SimTime,
    ) -> Vec<ServerAction> {
        if from != self.core.primary_view.leader() {
            self.core.stats.stale_assigns += 1;
            return Vec::new();
        }
        self.my_gsn = self.my_gsn.max(gsn);
        self.last_seq_activity = now;
        let mut actions = match self.pending_reads.remove(&req) {
            Some(pending) => self.admit_read(pending, gsn, now),
            None => {
                self.read_snapshot_gsn.insert(req, gsn);
                self.snapshot_order.push_back(req);
                while self.snapshot_order.len() > SNAPSHOT_CACHE {
                    if let Some(old) = self.snapshot_order.pop_front() {
                        self.read_snapshot_gsn.remove(&old);
                    }
                }
                Vec::new()
            }
        };
        self.check_commit_stall(now, &mut actions);
        actions
    }

    /// Staleness check of §4.1.2: serve immediately if fresh enough,
    /// otherwise defer until the next state update.
    fn admit_read(&mut self, pending: PendingRead, gsn: u64, now: SimTime) -> Vec<ServerAction> {
        self.my_gsn = self.my_gsn.max(gsn);
        if let Some(busy) = self.core.shed_read(&pending.req, pending.client, now) {
            return busy;
        }
        let staleness = self.staleness();
        let ready = self.core.synced && staleness <= pending.req.staleness_threshold as u64;
        let mut actions = Vec::new();
        self.core
            .admit_read(pending, staleness, ready.then(Vec::new), now, &mut actions);
        actions
    }

    fn on_gsn_request(&mut self, req: RequestId) -> Vec<ServerAction> {
        if !self.is_sequencer() {
            return Vec::new();
        }
        if self.recovering {
            self.queued_snapshot_reqs.push(req);
            return Vec::new();
        }
        self.gsn_snapshot(req).into()
    }

    /// The current GSN for read `req`, announced to both groups without
    /// advancing it (§4.1.2).
    fn gsn_snapshot(&self, req: RequestId) -> [ServerAction; 2] {
        let snapshot = Payload::GsnSnapshot {
            req,
            gsn: self.seq_gsn,
        };
        [
            ServerAction::MulticastPrimary(snapshot.clone()),
            ServerAction::MulticastSecondary(snapshot),
        ]
    }

    fn on_lazy_update(
        &mut self,
        csn: u64,
        snapshot: &bytes::Bytes,
        now: SimTime,
    ) -> Vec<ServerAction> {
        if self.core.role != ReplicaRole::Secondary {
            return Vec::new();
        }
        if csn > self.my_csn {
            self.core.object.install_snapshot(snapshot);
            self.my_csn = csn;
            self.applied_csn = csn;
            self.core.mark_synced(now);
            self.core.stats.lazy_updates_applied += 1;
            // A secondary's state *is* the last lazy snapshot: persist it
            // so a crashed secondary restarts from here instead of empty.
            self.core
                .persist_install(csn, self.my_gsn.max(csn), |_| snapshot.to_vec());
        }
        // "Responding to the client immediately after receiving the next
        // state update from the lazy publisher" (§4.1.2) — release all
        // deferred reads regardless of the new staleness.
        let mut actions = Vec::new();
        let staleness = self.staleness();
        self.core
            .release_deferred(now, staleness, |_| Some(Vec::new()), &mut actions);
        actions
    }

    fn on_gsn_query(&mut self, from: ActorId, querier_csn: u64) -> Vec<ServerAction> {
        if self.core.role != ReplicaRole::Primary {
            return Vec::new();
        }
        // Report every assignment known locally above the querier's CSN.
        // The querier may be an ex-sequencer re-merged after a partition:
        // it never saw the interim sequencer's assignments, and counters
        // alone would let it re-sequence those committed updates as
        // orphans under fresh GSNs.
        let mut assignments: BTreeMap<u64, RequestId> = BTreeMap::new();
        for (req, &gsn) in &self.gsn_assignments {
            if gsn > querier_csn {
                assignments.insert(gsn, *req);
            }
        }
        for (&gsn, u) in &self.commit_ready {
            if gsn > querier_csn {
                assignments.insert(gsn, u.id);
            }
        }
        for &(gsn, req) in &self.committed_log {
            if gsn > querier_csn {
                assignments.insert(gsn, req);
            }
        }
        vec![ServerAction::SendDirect {
            to: from,
            payload: Payload::GsnReport {
                max_gsn: self.my_gsn,
                csn: self.my_csn,
                assignments: assignments.into_iter().collect(),
            },
        }]
    }

    fn on_gsn_report(
        &mut self,
        from: ActorId,
        max_gsn: u64,
        csn: u64,
        assignments: Vec<(u64, RequestId)>,
        now: SimTime,
    ) -> Vec<ServerAction> {
        if !self.recovering {
            return Vec::new();
        }
        self.seq_gsn = self.seq_gsn.max(max_gsn);
        self.reported_csns.push(csn);
        self.reported_assignments.extend(assignments);
        self.awaiting_reports.remove(&from);
        if self.awaiting_reports.is_empty() {
            self.finish_recovery(now)
        } else {
            Vec::new()
        }
    }

    /// Completes a sequencer takeover: reconciles assignment knowledge,
    /// re-broadcasts assignments other primaries may have missed, assigns
    /// fresh GSNs to still-unassigned updates, and answers queued reads.
    fn finish_recovery(&mut self, now: SimTime) -> Vec<ServerAction> {
        self.recovering = false;
        self.core.stats.recoveries += 1;
        // SLO: the sequencer function was unavailable from the last
        // sequencing activity this replica observed until now, when its
        // own takeover completes; commits were stalled since the last CSN
        // progress.
        let unavail = now.saturating_since(self.last_seq_activity).as_micros();
        self.core.stats.seq_unavail_us = self.core.stats.seq_unavail_us.max(unavail);
        if self.staleness() > 0 {
            let stall = now.saturating_since(self.last_progress).as_micros();
            self.core.stats.commit_stall_us = self.core.stats.commit_stall_us.max(stall);
        }
        self.last_seq_activity = now;
        let mut actions = Vec::new();
        // Re-broadcast every assignment this replica knows about above the
        // lowest reported CSN, so primaries that missed an assignment from
        // the failed sequencer can fill their gaps.
        let floor = self
            .reported_csns
            .iter()
            .copied()
            .chain(std::iter::once(self.my_csn))
            .min()
            .unwrap_or(0);
        // Weakest to strongest: a later insert wins a GSN conflict. Peer
        // reports beat local speculative assignments (a re-merged leader's
        // pre-partition table may disagree with the interim history), but
        // nothing overrides what is locally commit-ready or committed.
        let mut known: BTreeMap<u64, RequestId> = BTreeMap::new();
        for (req, gsn) in &self.gsn_assignments {
            known.insert(*gsn, *req);
        }
        for (&gsn, &req) in &self.reported_assignments {
            known.insert(gsn, req);
        }
        for (gsn, u) in &self.commit_ready {
            known.insert(*gsn, u.id);
        }
        for &(gsn, req) in &self.committed_log {
            known.insert(gsn, req);
        }
        // Adopt reconciled assignments this replica was missing: pairs
        // buffered update bodies (NACK-recovered while re-merging) with
        // their real GSNs so the local commit path can replay the interim
        // history instead of stalling behind it.
        let learned: Vec<(u64, RequestId)> = known
            .range(self.my_csn + 1..)
            .filter(|&(_, req)| !self.gsn_assignments.contains_key(req))
            .filter(|&(&gsn, _)| !self.commit_ready.contains_key(&gsn))
            .map(|(&gsn, &req)| (gsn, req))
            .collect();
        for (gsn, req) in learned {
            self.note_assignment(req, gsn);
        }
        for (&gsn, &req) in known.range(floor + 1..) {
            self.seq_gsn = self.seq_gsn.max(gsn);
            actions.push(ServerAction::MulticastPrimary(Payload::GsnAssign {
                req,
                gsn,
            }));
        }
        // Updates with no assignment anywhere get fresh GSNs, in a
        // deterministic order.
        let mut orphans: Vec<RequestId> = self
            .unassigned_updates
            .keys()
            .copied()
            .filter(|r| !known.values().any(|kr| kr == r))
            .collect();
        orphans.sort_unstable();
        self.reported_assignments.clear();
        for req in orphans {
            self.seq_gsn += 1;
            let gsn = self.seq_gsn;
            actions.push(ServerAction::MulticastPrimary(Payload::GsnAssign {
                req,
                gsn,
            }));
            self.note_assignment(req, gsn);
        }
        actions.extend(self.try_commit(now));
        // Queued read-snapshot requests get the recovered GSN.
        for req in std::mem::take(&mut self.queued_snapshot_reqs) {
            actions.extend(self.gsn_snapshot(req));
        }
        self.maybe_replenish(now, &mut actions);
        actions
    }

    /// The replenishment round timeout: how long the sequencer waits for
    /// freshness reports, and for an issued promotion to show up in the
    /// primary view, before starting over.
    fn promote_timeout(&self) -> SimDuration {
        self.core
            .config
            .lazy_interval
            .max(SimDuration::from_secs(2))
    }

    /// Sequencer-side primary-group replenishment (§4.1 extension): when
    /// the primary view has shrunk below `min_primary_size`, probe the
    /// secondaries for freshness, promote the freshest one (lowest
    /// `my_GSN − my_CSN`, then highest CSN, then lowest id), and wait for
    /// it to join the primary group via the restart state-transfer path.
    fn maybe_replenish(&mut self, now: SimTime, actions: &mut Vec<ServerAction>) {
        if self.core.config.min_primary_size == 0 {
            return;
        }
        if self.core.primary_view.len() >= self.core.config.min_primary_size {
            self.promote_round = None;
            self.promote_reports.clear();
            self.promotion_inflight = None;
            return;
        }
        if !self.is_sequencer() || self.recovering {
            return;
        }
        if let Some((cand, at)) = self.promotion_inflight {
            if self.core.primary_view.contains(cand) {
                self.promotion_inflight = None;
            } else if now.saturating_since(at) <= self.promote_timeout() {
                return; // give the promotee time to join
            } else {
                self.promotion_inflight = None; // candidate failed; retry
            }
        }
        let candidates: Vec<ActorId> = self
            .core
            .secondary_view
            .members()
            .iter()
            .copied()
            .filter(|m| !self.core.primary_view.contains(*m) && *m != self.core.me)
            .collect();
        if candidates.is_empty() {
            return;
        }
        match self.promote_round {
            None => {
                self.promote_reports.clear();
                self.promote_round = Some(now);
                for c in &candidates {
                    actions.push(ServerAction::SendDirect {
                        to: *c,
                        payload: Payload::PromoteQuery,
                    });
                }
            }
            Some(opened) => {
                let all_in = candidates
                    .iter()
                    .all(|c| self.promote_reports.contains_key(c));
                let expired = now.saturating_since(opened) > self.promote_timeout();
                if all_in || (expired && !self.promote_reports.is_empty()) {
                    let best = self
                        .promote_reports
                        .iter()
                        .filter(|(c, _)| candidates.contains(c))
                        .min_by_key(|(c, &(stale, csn))| (stale, u64::MAX - csn, **c))
                        .map(|(c, _)| *c);
                    self.promote_round = None;
                    self.promote_reports.clear();
                    if let Some(best) = best {
                        self.core.stats.promotions += 1;
                        self.promotion_inflight = Some((best, now));
                        actions.push(ServerAction::SendDirect {
                            to: best,
                            payload: Payload::Promote,
                        });
                    }
                } else if expired {
                    self.promote_round = None; // nobody answered; reopen later
                }
            }
        }
    }

    /// A secondary answers the sequencer's freshness probe.
    fn on_promote_query(&mut self, from: ActorId) -> Vec<ServerAction> {
        if self.core.role != ReplicaRole::Secondary {
            return Vec::new();
        }
        vec![ServerAction::SendDirect {
            to: from,
            payload: Payload::PromoteReport {
                csn: self.my_csn,
                gsn: self.my_gsn,
            },
        }]
    }

    /// The sequencer collects freshness reports and closes the round once
    /// every candidate has answered (or the round times out).
    fn on_promote_report(
        &mut self,
        from: ActorId,
        csn: u64,
        gsn: u64,
        now: SimTime,
    ) -> Vec<ServerAction> {
        if self.promote_round.is_none() {
            return Vec::new();
        }
        self.promote_reports
            .insert(from, (gsn.saturating_sub(csn), csn));
        let mut actions = Vec::new();
        self.maybe_replenish(now, &mut actions);
        actions
    }

    /// A secondary accepts a promotion from the current sequencer: it
    /// flips to the primary role, joins the primary group, leaves the
    /// secondary group, and state-transfers from a current primary (the
    /// same catch-up path a restarted replica uses).
    fn on_promote(&mut self, from: ActorId, now: SimTime) -> Vec<ServerAction> {
        if self.core.role != ReplicaRole::Secondary || from != self.core.primary_view.leader() {
            return Vec::new();
        }
        self.core.role = ReplicaRole::Primary;
        self.core.stats.promoted += 1;
        self.core.synced = false;
        self.last_progress = now;
        self.core.last_transfer_request = now;
        let mut actions = vec![
            ServerAction::JoinGroup {
                group: PRIMARY_GROUP,
            },
            ServerAction::LeaveGroup {
                group: SECONDARY_GROUP,
            },
        ];
        if let Some(donor) = self.core.next_donor() {
            actions.push(ServerAction::SendDirect {
                to: donor,
                payload: Payload::StateRequest,
            });
        }
        actions
    }

    /// Durable compaction of the applied state.
    fn maybe_snapshot(&mut self, now: SimTime) {
        let (csn, gsn) = (self.applied_csn, self.my_gsn);
        self.core
            .maybe_snapshot(now, csn, gsn, |core| core.object.snapshot().to_vec());
    }

    fn on_state_request(&mut self, from: ActorId) -> Vec<ServerAction> {
        let (csn, gsn) = (self.applied_csn, self.my_gsn);
        self.core
            .serve_state(from, csn, gsn, |core| core.object.snapshot())
    }

    /// Serves a rejoining replica that replayed its own log and only needs
    /// the committed tail above `have_csn`. Falls back to a full state
    /// transfer when this replica has no durable mirror or already
    /// compacted past the requested range.
    fn on_delta_request(&mut self, from: ActorId, have_csn: u64) -> Vec<ServerAction> {
        if self.core.role != ReplicaRole::Primary || !self.core.synced {
            return Vec::new();
        }
        let delta = self
            .core
            .durability
            .as_ref()
            .and_then(|d| d.serve_delta(have_csn, self.applied_csn));
        let Some(ops) = delta else {
            return self.on_state_request(from);
        };
        self.core.stats.state_transfers += 1;
        let delta_bytes: u64 = ops
            .iter()
            .map(|(gsn, u)| {
                WalRecord::Commit {
                    gsn: *gsn,
                    update: u.clone(),
                }
                .encode()
                .len() as u64
            })
            .sum();
        let full_bytes = self.core.object.snapshot().len() as u64;
        self.core.stats.transfer_bytes_sent += delta_bytes;
        self.core.stats.transfer_bytes_saved += full_bytes.saturating_sub(delta_bytes);
        vec![ServerAction::SendDirect {
            to: from,
            payload: Payload::DeltaResponse {
                from_csn: have_csn,
                ops,
            },
        }]
    }

    /// Applies a delta transfer: the missing committed updates, applied
    /// densely on top of the replayed state (and logged locally, so the
    /// repaired tail is itself durable).
    fn on_delta_response(
        &mut self,
        from_csn: u64,
        ops: Vec<(u64, UpdateRequest)>,
        now: SimTime,
    ) -> Vec<ServerAction> {
        // Only meaningful on the durable recovery path, and only when it
        // answers our current position with no committed-but-unapplied
        // work racing the install (mirrors the state-transfer guard).
        if self.core.durability.is_none()
            || from_csn != self.my_csn
            || self.applied_csn != self.my_csn
        {
            return Vec::new();
        }
        for (gsn, update) in ops {
            if gsn != self.my_csn + 1 {
                break;
            }
            let _ = self.core.apply(&update.op);
            self.my_csn = gsn;
            self.applied_csn = gsn;
            self.my_gsn = self.my_gsn.max(gsn);
            self.core.stats.updates_committed += 1;
            push_bounded(&mut self.committed_log, (gsn, update.id));
            self.core.log_commit(now, gsn, &update);
        }
        // Bookkeeping superseded by the repaired tail must not wedge the
        // commit loop (stale low GSNs would block `first_entry` forever).
        let csn = self.my_csn;
        self.commit_ready.retain(|&g, _| g > csn);
        self.gsn_assignments.retain(|_, &mut g| g > csn);
        self.last_progress = now;
        self.core.mark_synced(now);
        self.try_commit(now)
    }

    fn on_state_response(
        &mut self,
        csn: u64,
        gsn: u64,
        snapshot: &bytes::Bytes,
        now: SimTime,
    ) -> Vec<ServerAction> {
        // Acceptable transfers: the initial post-restart sync (anything at
        // or above our CSN) or a catch-up past a commit stall (strictly
        // ahead). Catch-up installs must not race committed-but-unapplied
        // work, or queued updates would apply twice on top of the snapshot;
        // if the service queue is still draining we skip — the stall
        // watchdog will request another transfer.
        let acceptable = if self.core.synced {
            csn > self.my_csn
        } else {
            csn >= self.my_csn
        };
        if !acceptable || self.applied_csn != self.my_csn {
            return Vec::new();
        }
        if csn > self.my_csn {
            // SLO: a catch-up transfer heals however long commits stalled.
            let stall = now.saturating_since(self.last_progress).as_micros();
            self.core.stats.commit_stall_us = self.core.stats.commit_stall_us.max(stall);
        }
        self.core.object.install_snapshot(snapshot);
        self.my_csn = csn;
        self.applied_csn = csn;
        self.my_gsn = self.my_gsn.max(gsn);
        self.core.mark_synced(now);
        self.last_progress = now;
        // A full transfer supersedes whatever the local log held: make the
        // installed snapshot the new durable baseline immediately, so a
        // crash right after the install cannot resurrect pre-transfer state.
        self.core
            .persist_install(csn, self.my_gsn, |_| snapshot.to_vec());
        // Drop commit bookkeeping now superseded by the snapshot.
        self.commit_ready.retain(|&g, _| g > csn);
        self.gsn_assignments.retain(|_, &mut g| g > csn);
        self.try_commit(now)
    }
}

impl ServerProtocol for ServerGateway {
    fn ordering(&self) -> OrderingGuarantee {
        OrderingGuarantee::Sequential
    }

    /// Initializes publisher bookkeeping and arms the lazy timer if this
    /// replica is the publisher.
    fn on_start(&mut self, now: SimTime) -> Vec<ServerAction> {
        self.last_progress = now;
        self.last_seq_activity = now;
        self.core.start(now)
    }

    /// Wipes volatile state, installs `fresh_object` as the empty
    /// application state, and requests a state transfer from a peer.
    fn on_restart(
        &mut self,
        fresh_object: Box<dyn ReplicatedObject>,
        now: SimTime,
    ) -> Vec<ServerAction> {
        *self = Self::with_core(self.core.restarted(fresh_object, now));
        self.recover_when_leading = true;
        self.last_progress = now;
        self.last_seq_activity = now;
        let replayed = self.replay_storage(now);
        // Never ask ourselves (a restarted ex-leader's stale view says the
        // leader is itself); rotate through peers instead. After a
        // successful replay the replica is already synced from local state
        // and only reconciles the unacked tail with a delta request; the
        // fallback ladder (no storage, replay disabled, empty or corrupt
        // log) rebuilds over the network with a full state transfer.
        let donor = self.core.next_donor();
        let request = if replayed {
            Payload::DeltaRequest {
                have_csn: self.my_csn,
            }
        } else {
            Payload::StateRequest
        };
        self.core.rejoin(donor, request)
    }

    /// Handles a protocol payload from `from` (a client or peer gateway).
    fn on_payload(&mut self, from: ActorId, payload: Payload, now: SimTime) -> Vec<ServerAction> {
        match payload {
            Payload::Update(u) => self.on_update(u, now),
            Payload::Read(r) => self.on_read(from, r, now),
            Payload::GsnAssign { req, gsn } => self.on_gsn_assign(from, req, gsn, now),
            Payload::GsnSnapshot { req, gsn } => self.on_gsn_snapshot(from, req, gsn, now),
            Payload::GsnRequest { req } => self.on_gsn_request(req),
            Payload::LazyUpdate { csn, snapshot } => self.on_lazy_update(csn, &snapshot, now),
            Payload::GsnQuery { csn } => self.on_gsn_query(from, csn),
            Payload::GsnReport {
                max_gsn,
                csn,
                assignments,
            } => self.on_gsn_report(from, max_gsn, csn, assignments, now),
            Payload::StateRequest => self.on_state_request(from),
            Payload::StateResponse { csn, gsn, snapshot } => {
                self.on_state_response(csn, gsn, &snapshot, now)
            }
            Payload::DeltaRequest { have_csn } => self.on_delta_request(from, have_csn),
            Payload::DeltaResponse { from_csn, ops } => self.on_delta_response(from_csn, ops, now),
            Payload::PromoteQuery => self.on_promote_query(from),
            Payload::PromoteReport { csn, gsn } => self.on_promote_report(from, csn, gsn, now),
            Payload::Promote => self.on_promote(from, now),
            // Replies and perf broadcasts are client-bound, and FIFO/causal
            // handler traffic has no meaning here; ignore them.
            Payload::Reply(_)
            | Payload::Busy { .. }
            | Payload::Perf(_)
            | Payload::FifoLazyUpdate { .. }
            | Payload::CausalUpdate { .. }
            | Payload::CausalRead { .. }
            | Payload::CausalLazyUpdate { .. } => Vec::new(),
        }
    }

    fn on_service_start(&mut self, token: u64, now: SimTime) {
        self.core.on_service_start(token, now);
    }

    /// The service delay for `token` elapsed: apply the operation to the
    /// object, reply to the client, publish measurements, and start the
    /// next unit of work.
    fn on_service_done(&mut self, token: u64, now: SimTime) -> Vec<ServerAction> {
        let mut actions = Vec::new();
        if let Some(done) = self
            .core
            .finish_service(token, now, self.applied_csn, &mut actions)
        {
            self.applied_csn += 1;
            debug_assert_eq!(
                self.applied_csn, done.gsn,
                "updates must apply in GSN order"
            );
            self.maybe_snapshot(now);
            // The sequencer does not service client requests (§4.1): it
            // applies updates to keep its state current but leaves replying
            // to the other primaries, unless it is alone.
            if !self.is_sequencer() || self.core.primary_view.len() == 1 {
                self.core
                    .reply_update(done, self.applied_csn, Vec::new(), &mut actions);
            }
        }
        self.core.maybe_start_service(&mut actions);
        actions
    }

    /// The lazy propagation timer fired: snapshot the state, multicast it to
    /// the secondary group, announce fresh staleness bookkeeping to the
    /// clients, and re-arm.
    fn on_lazy_timer(&mut self, now: SimTime) -> Vec<ServerAction> {
        let csn = self.applied_csn;
        self.core.lazy_tick(now, |core| Payload::LazyUpdate {
            csn,
            snapshot: core.object.snapshot(),
        })
    }

    /// Handles a view change of either replication group.
    fn on_view(&mut self, view: Arc<View>, now: SimTime) -> Vec<ServerAction> {
        let mut actions = Vec::new();
        if let Some(old) = self.core.install_view(view, now) {
            let old_leader = old.leader();
            let new_leader = self.core.primary_view.leader();
            let me = self.core.me;
            // Log the membership a primary's subsequent commits belong to,
            // so a recovering replica can place its tail in view history.
            if self.core.role == ReplicaRole::Primary {
                let view = &self.core.primary_view;
                if let Some(d) = self.core.durability.as_mut() {
                    d.log_view(self.my_csn, view.id.0, view.members());
                }
            }
            let membership_changed = old.members() != self.core.primary_view.members();
            if self.core.role == ReplicaRole::Primary {
                // Run the reconciliation round on any view change this
                // replica ends up leading: a fresh takeover obviously, but
                // also a membership change under a standing leader (a
                // re-merged partition may carry assignments from an interim
                // sequencer, and rejoined members may have gaps only a
                // re-broadcast can fill). A round already in flight is
                // restarted against the new membership — reports from a
                // departed member never arrive, and a re-merged member was
                // never queried; either would wedge the round open (and
                // sequencing with it) for good.
                if new_leader == me
                    && (old_leader != me || membership_changed || self.recover_when_leading)
                {
                    self.recover_when_leading = false;
                    // Sequencer takeover (§4.1 failure handling).
                    self.recovering = true;
                    self.seq_gsn = self.seq_gsn.max(self.my_gsn);
                    self.reported_csns.clear();
                    self.reported_assignments.clear();
                    self.awaiting_reports = self
                        .core
                        .primary_view
                        .members()
                        .iter()
                        .copied()
                        .filter(|m| *m != me)
                        .collect();
                    self.last_gsn_query_at = now;
                    if self.awaiting_reports.is_empty() {
                        actions.extend(self.finish_recovery(now));
                    } else {
                        actions.push(ServerAction::MulticastPrimary(Payload::GsnQuery {
                            csn: self.my_csn,
                        }));
                    }
                } else if self.recovering && new_leader != me {
                    // Lost leadership mid-round: abandon it. The new leader
                    // runs its own round, and any reads queued here will be
                    // re-requested from it by their serving primaries.
                    self.recovering = false;
                    self.awaiting_reports.clear();
                    self.reported_csns.clear();
                    self.reported_assignments.clear();
                    self.queued_snapshot_reqs.clear();
                }
                // A freshly designated publisher starts a new lazy period.
                self.core.take_over_publishing(&old, now, &mut actions);
            }
            if new_leader != old_leader {
                // Reads orphaned by the sequencer failure: ask the new
                // sequencer for their GSN snapshots.
                for req in self.pending_reads.keys() {
                    actions.push(ServerAction::SendDirect {
                        to: new_leader,
                        payload: Payload::GsnRequest { req: *req },
                    });
                }
            }
        }
        // Either view changing may open (or close) a replenishment round:
        // the primary view defines the deficit, the secondary view the
        // candidates.
        self.maybe_replenish(now, &mut actions);
        actions
    }

    /// Whether this replica currently acts as the sequencer (leader of the
    /// primary group).
    fn is_sequencer(&self) -> bool {
        self.core.role == ReplicaRole::Primary && self.core.primary_view.leader() == self.core.me
    }

    fn is_publisher(&self) -> bool {
        self.core.is_publisher()
    }

    /// `my_CSN`: the commit sequence number.
    fn csn(&self) -> u64 {
        self.my_csn
    }

    /// Number of updates actually applied to the hosted object (lags
    /// `my_CSN` while committed work waits in the service queue).
    fn applied_csn(&self) -> u64 {
        self.applied_csn
    }

    /// `my_GSN`: the latest global sequence number this replica has seen.
    fn gsn(&self) -> u64 {
        self.my_gsn
    }

    fn is_synced(&self) -> bool {
        self.core.synced
    }

    fn stats(&self) -> ServerStats {
        self.core.stats
    }

    fn set_obs(&mut self, obs: ObsHandle) {
        self.core.obs = obs;
    }

    fn crash_storage(&mut self) {
        self.core.crash_storage();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::testkit::{a, drain, pview, replies, sview, t};
    use crate::object::VersionedRegister;
    use crate::wire::Operation;

    fn gw(i: usize) -> ServerGateway {
        let config = ServerConfig {
            clients: vec![a(20)],
            ..ServerConfig::default()
        };
        ServerGateway::new(
            a(i),
            pview(),
            sview(),
            Box::new(VersionedRegister::new()),
            config,
        )
    }

    fn upd(seq: u64) -> UpdateRequest {
        UpdateRequest {
            id: RequestId { client: a(20), seq },
            op: Operation::new("set", format!("v{seq}").into_bytes()),
            attempt: 1,
        }
    }

    fn read(seq: u64, staleness: u32) -> ReadRequest {
        ReadRequest {
            id: RequestId { client: a(20), seq },
            op: Operation::new("get", vec![]),
            staleness_threshold: staleness,
            deadline_us: 0,
            attempt: 1,
        }
    }

    #[test]
    fn roles_follow_group_membership() {
        assert_eq!(gw(0).role(), ReplicaRole::Primary);
        assert_eq!(gw(10).role(), ReplicaRole::Secondary);
    }

    #[test]
    #[should_panic(expected = "exactly one replication group")]
    fn outsider_rejected() {
        let _ = ServerGateway::new(
            a(30),
            pview(),
            sview(),
            Box::new(VersionedRegister::new()),
            ServerConfig::default(),
        );
    }

    #[test]
    fn sequencer_assigns_gsn_on_update() {
        let mut s = gw(0);
        let actions = s.on_payload(a(20), Payload::Update(upd(0)), t(0));
        assert!(actions.iter().any(|x| matches!(
            x,
            ServerAction::MulticastPrimary(Payload::GsnAssign { gsn: 1, .. })
        )));
        // Sequencer also commits and enqueues its own copy.
        assert_eq!(s.csn(), 1);
        assert_eq!(s.gsn(), 1);
        assert_eq!(s.queue_depth(), 1);
    }

    #[test]
    fn duplicate_update_not_reassigned() {
        let mut s = gw(0);
        let _ = s.on_payload(a(20), Payload::Update(upd(0)), t(0));
        let actions = s.on_payload(a(20), Payload::Update(upd(0)), t(1));
        assert!(
            !actions
                .iter()
                .any(|x| matches!(x, ServerAction::MulticastPrimary(Payload::GsnAssign { .. }))),
            "duplicate must not get a second GSN"
        );
    }

    #[test]
    fn primary_commits_in_gsn_order() {
        let mut p = gw(1);
        // Updates arrive before assignments, out of order.
        let _ = p.on_payload(a(20), Payload::Update(upd(0)), t(0));
        let _ = p.on_payload(a(20), Payload::Update(upd(1)), t(0));
        assert_eq!(p.csn(), 0);
        // Assignment for the *second* request arrives first: must buffer.
        let _ = p.on_payload(
            a(0),
            Payload::GsnAssign {
                req: upd(1).id,
                gsn: 2,
            },
            t(1),
        );
        assert_eq!(p.csn(), 0);
        let _ = p.on_payload(
            a(0),
            Payload::GsnAssign {
                req: upd(0).id,
                gsn: 1,
            },
            t(2),
        );
        assert_eq!(p.csn(), 2, "both commit once the gap fills");
        assert_eq!(p.stats().updates_committed, 2);
    }

    #[test]
    fn assignment_before_update_buffers() {
        let mut p = gw(1);
        let _ = p.on_payload(
            a(0),
            Payload::GsnAssign {
                req: upd(0).id,
                gsn: 1,
            },
            t(0),
        );
        assert_eq!(p.csn(), 0);
        let _ = p.on_payload(a(20), Payload::Update(upd(0)), t(1));
        assert_eq!(p.csn(), 1);
    }

    #[test]
    fn stale_sequencer_assignment_rejected() {
        let mut p = gw(1);
        let _ = p.on_payload(
            a(2),
            Payload::GsnAssign {
                req: upd(0).id,
                gsn: 1,
            },
            t(0),
        );
        assert_eq!(p.csn(), 0);
        assert_eq!(p.stats().stale_assigns, 1);
    }

    #[test]
    fn update_applies_and_replies() {
        let mut p = gw(1);
        let mut actions = p.on_payload(a(20), Payload::Update(upd(0)), t(0));
        actions.extend(p.on_payload(
            a(0),
            Payload::GsnAssign {
                req: upd(0).id,
                gsn: 1,
            },
            t(1),
        ));
        let _ = drain(&mut p, &mut actions, t(1));
        let reply = actions.iter().find_map(|x| match x {
            ServerAction::SendDirect {
                to,
                payload: Payload::Reply(r),
            } => Some((*to, r.clone())),
            _ => None,
        });
        let (to, reply) = reply.expect("primary replies to update");
        assert_eq!(to, a(20));
        assert_eq!(reply.csn, 1);
        assert_eq!(p.applied_csn(), 1);
    }

    #[test]
    fn sequencer_does_not_reply_to_updates() {
        let mut s = gw(0);
        let mut actions = s.on_payload(a(20), Payload::Update(upd(0)), t(0));
        let _ = drain(&mut s, &mut actions, t(0));
        assert!(
            !actions.iter().any(|x| matches!(
                x,
                ServerAction::SendDirect {
                    payload: Payload::Reply(_),
                    ..
                }
            )),
            "sequencer must not service client requests"
        );
        assert_eq!(s.applied_csn(), 1, "but it keeps its state current");
    }

    #[test]
    fn sequencer_broadcasts_snapshot_without_advancing() {
        let mut s = gw(0);
        let _ = s.on_payload(a(20), Payload::Update(upd(0)), t(0));
        let actions = s.on_payload(a(20), Payload::Read(read(1, 0)), t(1));
        let snaps: Vec<_> = actions
            .iter()
            .filter(|x| {
                matches!(
                    x,
                    ServerAction::MulticastPrimary(Payload::GsnSnapshot { gsn: 1, .. })
                        | ServerAction::MulticastSecondary(Payload::GsnSnapshot { gsn: 1, .. })
                )
            })
            .collect();
        assert_eq!(snaps.len(), 2, "snapshot goes to both groups");
        assert_eq!(s.gsn(), 1, "GSN not advanced by reads");
    }

    #[test]
    fn fresh_primary_serves_read_immediately() {
        let mut p = gw(1);
        let mut actions = p.on_payload(a(20), Payload::Read(read(0, 0)), t(0));
        assert!(actions.is_empty(), "no snapshot yet: read waits");
        actions.extend(p.on_payload(
            a(0),
            Payload::GsnSnapshot {
                req: read(0, 0).id,
                gsn: 0,
            },
            t(1),
        ));
        let _ = drain(&mut p, &mut actions, t(1));
        let reply = replies(&actions).next().cloned().expect("read served");
        assert!(!reply.deferred);
        assert_eq!(reply.staleness, 0);
        assert_eq!(p.stats().reads_served, 1);
        // Perf broadcast accompanied the read completion.
        assert!(actions
            .iter()
            .any(|x| matches!(x, ServerAction::SendDirect { to, payload: Payload::Perf(_) } if *to == a(20))));
    }

    #[test]
    fn snapshot_before_read_is_cached() {
        let mut p = gw(1);
        let _ = p.on_payload(
            a(0),
            Payload::GsnSnapshot {
                req: read(0, 0).id,
                gsn: 0,
            },
            t(0),
        );
        let mut actions = p.on_payload(a(20), Payload::Read(read(0, 0)), t(1));
        let _ = drain(&mut p, &mut actions, t(1));
        assert_eq!(p.stats().reads_served, 1);
    }

    #[test]
    fn stale_secondary_defers_until_lazy_update() {
        let mut s = gw(10);
        // Sequencer says the world is at GSN 3; the secondary is at CSN 0.
        let actions = s.on_payload(
            a(0),
            Payload::GsnSnapshot {
                req: read(0, 1).id,
                gsn: 3,
            },
            t(0),
        );
        assert!(actions.is_empty());
        let actions = s.on_payload(a(20), Payload::Read(read(0, 1)), t(1));
        assert!(actions.is_empty(), "staleness 3 > threshold 1: defer");
        assert_eq!(s.stats().reads_deferred, 1);

        // The lazy update arrives at t=500 with a state snapshot at CSN 3.
        let mut obj = VersionedRegister::new();
        let op = Operation::new("set", b"x".to_vec());
        obj.apply_update(&op);
        obj.apply_update(&op);
        obj.apply_update(&op);
        let mut actions = s.on_payload(
            a(2),
            Payload::LazyUpdate {
                csn: 3,
                snapshot: obj.snapshot(),
            },
            t(500),
        );
        assert_eq!(s.csn(), 3);
        let now = drain(&mut s, &mut actions, t(500));
        let reply = replies(&actions)
            .next()
            .cloned()
            .expect("deferred read served after lazy update");
        assert!(reply.deferred);
        // tb = 500 - 1 = 499ms; ts = 10ms (drain_service).
        assert_eq!(reply.t1_us, SimDuration::from_millis(509).as_micros());
        assert_eq!(s.stats().lazy_updates_applied, 1);
        let _ = now;
    }

    #[test]
    fn fresh_secondary_serves_immediately() {
        let mut s = gw(10);
        let mut actions = s.on_payload(
            a(0),
            Payload::GsnSnapshot {
                req: read(0, 2).id,
                gsn: 2,
            },
            t(0),
        );
        actions.extend(s.on_payload(a(20), Payload::Read(read(0, 2)), t(1)));
        let _ = drain(&mut s, &mut actions, t(1));
        assert_eq!(s.stats().reads_served, 1);
        assert_eq!(s.stats().reads_deferred, 0);
    }

    #[test]
    fn stale_lazy_update_ignored_but_releases() {
        let mut s = gw(10);
        let mut obj = VersionedRegister::new();
        obj.apply_update(&Operation::new("set", b"x".to_vec()));
        let snap = obj.snapshot();
        let _ = s.on_payload(
            a(2),
            Payload::LazyUpdate {
                csn: 1,
                snapshot: snap.clone(),
            },
            t(0),
        );
        assert_eq!(s.csn(), 1);
        let before = s.stats().lazy_updates_applied;
        let _ = s.on_payload(
            a(2),
            Payload::LazyUpdate {
                csn: 1,
                snapshot: snap,
            },
            t(10),
        );
        assert_eq!(s.stats().lazy_updates_applied, before, "duplicate ignored");
    }

    #[test]
    fn publisher_lazy_tick_broadcasts_state_and_info() {
        let mut p = gw(2);
        assert!(p.is_publisher());
        let _ = p.on_start(t(0));
        // Two updates arrive (as counted by a primary).
        let _ = p.on_payload(a(20), Payload::Update(upd(0)), t(100));
        let _ = p.on_payload(a(20), Payload::Update(upd(1)), t(200));
        let actions = p.on_lazy_timer(t(2000));
        assert!(actions.iter().any(|x| matches!(
            x,
            ServerAction::MulticastSecondary(Payload::LazyUpdate { .. })
        )));
        assert!(actions
            .iter()
            .any(|x| matches!(x, ServerAction::ArmLazyTimer { .. })));
        let info = actions
            .iter()
            .find_map(|x| match x {
                ServerAction::SendDirect {
                    payload: Payload::Perf(pb),
                    ..
                } => pb.publisher,
                _ => None,
            })
            .expect("publisher info broadcast");
        assert_eq!(info.n_u, 2);
        assert_eq!(info.t_u, SimDuration::from_secs(2));
        assert_eq!(info.n_l, 0, "n_L resets at propagation");
        assert_eq!(info.t_l, SimDuration::ZERO);
        assert_eq!(info.period, SimDuration::from_secs(2));
    }

    #[test]
    fn sequencer_failover_recovers_gsn() {
        // Primary 1 becomes leader after 0 crashes; it saw GSN up to 2.
        let mut p = gw(1);
        let _ = p.on_payload(a(20), Payload::Update(upd(0)), t(0));
        let _ = p.on_payload(a(20), Payload::Update(upd(1)), t(0));
        let _ = p.on_payload(
            a(0),
            Payload::GsnAssign {
                req: upd(0).id,
                gsn: 1,
            },
            t(1),
        );
        let _ = p.on_payload(
            a(0),
            Payload::GsnAssign {
                req: upd(1).id,
                gsn: 2,
            },
            t(1),
        );
        let new_view = pview().successor(&[a(0)], &[]).unwrap();
        let actions = p.on_view(Arc::new(new_view), t(1000));
        assert!(actions
            .iter()
            .any(|x| matches!(x, ServerAction::MulticastPrimary(Payload::GsnQuery { .. }))));
        // Peer 2 reports max_gsn 2.
        let actions = p.on_payload(
            a(2),
            Payload::GsnReport {
                max_gsn: 2,
                csn: 2,
                assignments: Vec::new(),
            },
            t(1001),
        );
        assert!(!actions.is_empty() || p.stats().recoveries == 1);
        assert_eq!(p.stats().recoveries, 1);
        // New update gets GSN 3, not a duplicate.
        let actions = p.on_payload(a(20), Payload::Update(upd(2)), t(1002));
        assert!(actions.iter().any(|x| matches!(
            x,
            ServerAction::MulticastPrimary(Payload::GsnAssign { gsn: 3, .. })
        )));
    }

    #[test]
    fn recovery_rebroadcasts_missed_assignments() {
        // Primary 1 saw assignment (req0 -> gsn1) and committed it; primary 2
        // never saw it. After failover, 1 must re-broadcast it because 2's
        // reported CSN is 0.
        let mut p = gw(1);
        let _ = p.on_payload(a(20), Payload::Update(upd(0)), t(0));
        let _ = p.on_payload(
            a(0),
            Payload::GsnAssign {
                req: upd(0).id,
                gsn: 1,
            },
            t(1),
        );
        assert_eq!(p.csn(), 1);
        let new_view = pview().successor(&[a(0)], &[]).unwrap();
        let _ = p.on_view(Arc::new(new_view), t(1000));
        let actions = p.on_payload(
            a(2),
            Payload::GsnReport {
                max_gsn: 0,
                csn: 0,
                assignments: Vec::new(),
            },
            t(1001),
        );
        assert!(
            actions.iter().any(|x| matches!(
                x,
                ServerAction::MulticastPrimary(Payload::GsnAssign { gsn: 1, .. })
            )),
            "missed assignment re-broadcast"
        );
    }

    #[test]
    fn recovery_assigns_orphaned_updates() {
        // An update was never assigned by the failed sequencer.
        let mut p = gw(1);
        let _ = p.on_payload(a(20), Payload::Update(upd(0)), t(0));
        assert_eq!(p.csn(), 0);
        let new_view = pview().successor(&[a(0)], &[]).unwrap();
        let _ = p.on_view(Arc::new(new_view), t(1000));
        let actions = p.on_payload(
            a(2),
            Payload::GsnReport {
                max_gsn: 0,
                csn: 0,
                assignments: Vec::new(),
            },
            t(1001),
        );
        assert!(actions.iter().any(|x| matches!(
            x,
            ServerAction::MulticastPrimary(Payload::GsnAssign { gsn: 1, .. })
        )));
        assert_eq!(p.csn(), 1, "orphan committed under the fresh GSN");
    }

    #[test]
    fn pending_reads_rerequested_after_failover() {
        let mut p = gw(2); // stays non-leader after 0 crashes (1 leads)
        let _ = p.on_payload(a(20), Payload::Read(read(0, 0)), t(0));
        let new_view = pview().successor(&[a(0)], &[]).unwrap();
        let actions = p.on_view(Arc::new(new_view), t(1000));
        assert!(actions.iter().any(|x| matches!(
            x,
            ServerAction::SendDirect { to, payload: Payload::GsnRequest { .. } } if *to == a(1)
        )));
    }

    #[test]
    fn state_transfer_round_trip() {
        let mut donor = gw(1);
        let _ = donor.on_payload(a(20), Payload::Update(upd(0)), t(0));
        let mut actions = donor.on_payload(
            a(0),
            Payload::GsnAssign {
                req: upd(0).id,
                gsn: 1,
            },
            t(1),
        );
        let _ = drain(&mut donor, &mut actions, t(1));
        let transfer = donor.on_state_request(a(2));
        let (csn, gsn, snapshot) = transfer
            .iter()
            .find_map(|x| match x {
                ServerAction::SendDirect {
                    payload: Payload::StateResponse { csn, gsn, snapshot },
                    ..
                } => Some((*csn, *gsn, snapshot.clone())),
                _ => None,
            })
            .expect("state served");
        assert_eq!(csn, 1);

        // A restarted replica installs it and becomes synced.
        let mut joiner = gw(2);
        let actions = joiner.on_restart(Box::new(VersionedRegister::new()), t(100));
        assert!(actions.iter().any(|x| matches!(
            x,
            ServerAction::SendDirect { to, payload: Payload::StateRequest } if *to == a(0)
        )));
        assert!(!joiner.is_synced());
        let _ = joiner.on_payload(a(1), Payload::StateResponse { csn, gsn, snapshot }, t(200));
        assert!(joiner.is_synced());
        assert_eq!(joiner.csn(), 1);
        assert_eq!(joiner.stats().state_transfers, 0);
        assert_eq!(donor.stats().state_transfers, 1);
    }

    #[test]
    fn unsynced_replica_defers_reads() {
        let mut joiner = gw(10);
        let _ = joiner.on_restart(Box::new(VersionedRegister::new()), t(0));
        let _ = joiner.on_payload(
            a(0),
            Payload::GsnSnapshot {
                req: read(0, 100).id,
                gsn: 0,
            },
            t(1),
        );
        let actions = joiner.on_payload(a(20), Payload::Read(read(0, 100)), t(2));
        assert!(actions.is_empty(), "read deferred until synced");
        assert_eq!(joiner.stats().reads_deferred, 1);
    }

    #[test]
    fn service_queue_is_sequential() {
        let mut p = gw(1);
        let mut actions = Vec::new();
        for i in 0..3 {
            actions.extend(p.on_payload(a(20), Payload::Update(upd(i)), t(0)));
            actions.extend(p.on_payload(
                a(0),
                Payload::GsnAssign {
                    req: upd(i).id,
                    gsn: i + 1,
                },
                t(0),
            ));
        }
        // Only one StartService outstanding at a time.
        let starts = actions
            .iter()
            .filter(|x| matches!(x, ServerAction::StartService { .. }))
            .count();
        assert_eq!(starts, 1);
        let _ = drain(&mut p, &mut actions, t(0));
        assert_eq!(p.applied_csn(), 3);
    }

    #[test]
    fn snapshot_cache_evicts() {
        let mut p = gw(1);
        let n = SNAPSHOT_CACHE as u64 + 5;
        for i in 0..n {
            let _ = p.on_payload(
                a(0),
                Payload::GsnSnapshot {
                    req: read(i, 0).id,
                    gsn: 0,
                },
                t(0),
            );
        }
        assert_eq!(p.read_snapshot_gsn.len(), SNAPSHOT_CACHE);
        assert!(
            !p.read_snapshot_gsn.contains_key(&read(0, 0).id),
            "oldest association evicted"
        );
        assert!(p.read_snapshot_gsn.contains_key(&read(n - 1, 0).id));
    }

    /// A gateway with durable storage enabled.
    fn durable_gw(i: usize) -> ServerGateway {
        let config = ServerConfig {
            clients: vec![a(20)],
            storage: StorageConfig {
                seed: 7,
                ..StorageConfig::durable()
            },
            ..ServerConfig::default()
        };
        ServerGateway::new(
            a(i),
            pview(),
            sview(),
            Box::new(VersionedRegister::new()),
            config,
        )
    }

    /// Commits `n` updates synchronously on `s` (assign + service). A
    /// non-sequencer primary additionally receives the sequencer's GSN
    /// assignments.
    fn commit_n(s: &mut ServerGateway, n: u64, from_ms: u64) -> SimTime {
        let mut now = t(from_ms);
        for seq in 0..n {
            let mut actions = s.on_payload(a(20), Payload::Update(upd(seq)), now);
            if !s.is_sequencer() {
                actions.extend(s.on_payload(
                    a(0),
                    Payload::GsnAssign {
                        req: upd(seq).id,
                        gsn: seq + 1,
                    },
                    now,
                ));
            }
            now = drain(s, &mut actions, now);
        }
        now
    }

    #[test]
    fn commits_are_write_ahead_logged() {
        let mut s = durable_gw(0);
        let _ = commit_n(&mut s, 3, 0);
        assert_eq!(s.stats().wal_appends, 3);
        let d = s.durability().expect("storage enabled");
        assert_eq!(d.disk_stats().appends, 3);
        assert!(d.disk_stats().accounted_us > 0, "latency must be accounted");
    }

    #[test]
    fn crash_replay_restores_committed_state_without_transfer() {
        let mut s = durable_gw(0);
        let now = commit_n(&mut s, 5, 0);
        let committed: Vec<(u64, RequestId)> = s.committed_log().collect();
        s.crash_storage();
        let actions = s.on_restart(Box::new(VersionedRegister::new()), now);
        assert_eq!(s.csn(), 5, "all fsynced commits replayed");
        assert_eq!(s.applied_csn(), 5);
        assert!(s.is_synced(), "replay syncs locally");
        assert_eq!(
            s.committed_log().collect::<Vec<_>>(),
            committed,
            "reconciliation history survives the crash"
        );
        assert!(s.stats().replayed_records >= 5);
        assert!(
            actions.iter().any(|x| matches!(
                x,
                ServerAction::SendDirect {
                    payload: Payload::DeltaRequest { have_csn: 5 },
                    ..
                }
            )),
            "replayed replica asks for a delta, not a full transfer: {actions:?}"
        );
    }

    #[test]
    fn snapshot_compacts_and_replay_resumes_from_it() {
        let mut s = durable_gw(0);
        s.core.config.storage.snapshot_every = 4;
        // Rebuild the sidecar with the tighter compaction interval.
        s.core.durability = Some(Durability::new(s.core.config.storage.clone(), 7));
        let now = commit_n(&mut s, 10, 0);
        assert!(s.stats().snapshots_taken >= 1);
        s.crash_storage();
        let _ = s.on_restart(Box::new(VersionedRegister::new()), now);
        assert_eq!(s.csn(), 10, "snapshot + tail replay reach the full state");
        assert!(s.is_synced());
    }

    #[test]
    fn empty_log_restart_falls_back_to_state_transfer() {
        let mut s = durable_gw(1);
        s.crash_storage();
        let actions = s.on_restart(Box::new(VersionedRegister::new()), t(1));
        assert!(!s.is_synced(), "nothing durable: plain restart semantics");
        assert!(actions.iter().any(|x| matches!(
            x,
            ServerAction::SendDirect {
                payload: Payload::StateRequest,
                ..
            }
        )));
    }

    #[test]
    fn delta_request_served_from_mirror() {
        let mut donor = durable_gw(1);
        let _ = commit_n(&mut donor, 6, 0);
        let actions = donor.on_delta_request(a(2), 4);
        let Some(ServerAction::SendDirect {
            to,
            payload: Payload::DeltaResponse { from_csn, ops },
        }) = actions.first()
        else {
            panic!("expected a delta response, got {actions:?}");
        };
        assert_eq!(*to, a(2));
        assert_eq!(*from_csn, 4);
        assert_eq!(
            ops.iter().map(|(g, _)| *g).collect::<Vec<_>>(),
            vec![5, 6],
            "exactly the missing tail"
        );
        // A register snapshot is smaller than two framed WAL records, so
        // `saved` saturates to zero here; savings for state-heavy objects
        // are exercised by the EXT-DUR experiments. The sent side must
        // still account the delta bytes.
        assert!(donor.stats().transfer_bytes_sent > 0);
    }

    #[test]
    fn delta_response_repairs_tail_and_logs_it() {
        let mut donor = durable_gw(1);
        let now = commit_n(&mut donor, 6, 0);
        let reply = donor.on_delta_request(a(2), 4);
        let mut rec = durable_gw(2);
        let _ = commit_n(&mut rec, 4, 0);
        rec.crash_storage();
        let _ = rec.on_restart(Box::new(VersionedRegister::new()), now);
        assert_eq!(rec.csn(), 4);
        let Some(ServerAction::SendDirect { payload, .. }) = reply.first() else {
            panic!("no delta reply");
        };
        let _ = rec.on_payload(a(1), payload.clone(), now);
        assert_eq!(rec.csn(), 6, "delta repairs the unseen tail");
        assert_eq!(rec.applied_csn(), 6);
        assert_eq!(
            rec.object().snapshot(),
            donor.object().snapshot(),
            "recovered state must equal the donor's"
        );
        // The repaired tail is itself durable: crash again and replay.
        rec.crash_storage();
        let _ = rec.on_restart(Box::new(VersionedRegister::new()), now);
        assert_eq!(rec.csn(), 6, "repaired commits survive a second crash");
    }

    #[test]
    fn group_commit_crash_loses_unsynced_tail_only() {
        let mut s = durable_gw(0);
        s.core.config.storage.fsync_every = 100;
        s.core.durability = Some(Durability::new(s.core.config.storage.clone(), 7));
        let now = commit_n(&mut s, 5, 0);
        // fsync_every = 100 means none of the five appends ever synced:
        // the crash wipes them and the replica must not claim durability.
        s.crash_storage();
        let _ = s.on_restart(Box::new(VersionedRegister::new()), now);
        assert!(
            s.csn() < 5 || !s.is_synced(),
            "unsynced commits must not replay as if durable (csn={})",
            s.csn()
        );
    }

    #[test]
    fn full_transfer_becomes_durable_baseline() {
        let mut donor = durable_gw(1);
        let now = commit_n(&mut donor, 3, 0);
        let mut rec = durable_gw(2);
        rec.crash_storage();
        let _ = rec.on_restart(Box::new(VersionedRegister::new()), now);
        assert!(!rec.is_synced(), "empty log: transfer-only path");
        let transfer = donor.on_state_request(a(2));
        let Some(ServerAction::SendDirect { payload, .. }) = transfer.first() else {
            panic!("no transfer");
        };
        let _ = rec.on_payload(a(1), payload.clone(), now);
        assert!(rec.is_synced());
        assert_eq!(rec.csn(), 3);
        assert!(rec.stats().recovery_us < u64::MAX);
        // The installed snapshot is immediately durable.
        rec.crash_storage();
        let _ = rec.on_restart(Box::new(VersionedRegister::new()), now);
        assert_eq!(rec.csn(), 3, "installed baseline survives a crash");
        assert!(rec.is_synced());
    }

    #[test]
    fn corrupt_log_quarantines_and_falls_back() {
        let mut s = durable_gw(0);
        s.core.config.storage.bit_flip_probability = 1.0;
        s.core.durability = Some(Durability::new(s.core.config.storage.clone(), 11));
        let now = commit_n(&mut s, 8, 0);
        s.crash_storage();
        let actions = s.on_restart(Box::new(VersionedRegister::new()), now);
        let st = s.stats();
        if st.corrupt_logs > 0 {
            assert!(!s.is_synced(), "quarantined log must not claim sync");
            assert!(actions.iter().any(|x| matches!(
                x,
                ServerAction::SendDirect {
                    payload: Payload::StateRequest,
                    ..
                }
            )));
        } else {
            // The flip landed in the tail frame: dropped, prefix replayed.
            assert!(st.torn_tails_dropped > 0 || s.csn() == 8);
        }
    }
}
