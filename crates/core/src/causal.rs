//! The causal timed-consistency handler — the third ordering guarantee of
//! the paper's QoS model (§2 lists sequential, causal, and FIFO as the
//! well-known orderings a service can offer; §4's framework hosts them as
//! interchangeable gateway handlers).
//!
//! Causality here is the classic *reads-from + program order* relation:
//!
//! * every client numbers its updates (`update_seq`), and a replica applies
//!   a client's updates in that order (program order, enforced on top of
//!   the group layer's FIFO delivery);
//! * every read reply carries the serving replica's *version vector*
//!   (per-client applied-update counts); the client merges it into its
//!   observed vector;
//! * every update carries the client's observed vector as its dependency
//!   set: no replica applies the update before having applied everything
//!   the issuing client had seen (so a reply to a message can never be
//!   applied before the message itself);
//! * every read carries the observed vector too and is served only from a
//!   state that dominates it — giving read-your-writes and monotonic
//!   reads. A replica that is behind defers the read exactly like the
//!   sequential handler's staleness-based deferred reads; the next lazy
//!   update (or local commit) releases it.
//!
//! Like the FIFO handler there is no sequencer; concurrent (causally
//! unrelated) updates may interleave differently across replicas, so the
//! workload's concurrent operations must commute for byte-identical
//! convergence.

use crate::durability::Durability;
use crate::gateway::{GatewayCore, PendingRead, RateStaleness};
use crate::object::ReplicatedObject;
use crate::obs::ObsHandle;
use crate::protocol::ServerProtocol;
use crate::qos::OrderingGuarantee;
use crate::server::{ReplicaRole, ServerAction, ServerConfig, ServerStats};
use crate::wire::{Payload, ReadRequest, UpdateRequest, VersionVector};
use aqf_group::View;
use aqf_sim::{ActorId, SimTime};
use bytes::{Buf, BufMut, Bytes};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Pointwise comparison: does `vector` dominate (cover) every entry of
/// `deps`?
pub fn dominates(vector: &BTreeMap<ActorId, u64>, deps: &VersionVector) -> bool {
    deps.iter()
        .all(|(client, need)| vector.get(client).copied().unwrap_or(0) >= *need)
}

/// Read-path dominance check with the mutation-canary hook.
///
/// Under the test-only `mutation` feature the check is deliberately
/// skipped — every read is treated as causally ready, re-introducing the
/// causality-inversion bug the chaos oracles exist to catch. The feature
/// must never be enabled in a real build; update admission still uses
/// [`dominates`] directly, so only the read path is mutated.
fn read_deps_satisfied(vector: &BTreeMap<ActorId, u64>, deps: &VersionVector) -> bool {
    if cfg!(feature = "mutation") {
        return true;
    }
    dominates(vector, deps)
}

/// Pointwise maximum merge of `incoming` into `vector`.
pub fn merge_into(vector: &mut BTreeMap<ActorId, u64>, incoming: &VersionVector) {
    for (client, count) in incoming {
        let entry = vector.entry(*client).or_insert(0);
        *entry = (*entry).max(*count);
    }
}

/// The wire form of a version vector: `(client, count)` in client order.
fn vector_of(vector: &BTreeMap<ActorId, u64>) -> VersionVector {
    vector.iter().map(|(c, n)| (*c, *n)).collect()
}

/// Serializes `vector || object snapshot`: the causal state-transfer and
/// durable-snapshot format, so a joiner recovers both.
fn vector_blob(object: &dyn ReplicatedObject, vector: &BTreeMap<ActorId, u64>) -> Bytes {
    let object = object.snapshot();
    let mut out = bytes::BytesMut::new();
    out.put_u64(vector.len() as u64);
    for (client, count) in vector {
        out.put_u32(client.index() as u32);
        out.put_u64(*count);
    }
    out.put_slice(&object);
    out.freeze()
}

/// Splits a `vector || object snapshot` blob.
fn decode_vector_blob(blob: &Bytes) -> (BTreeMap<ActorId, u64>, Bytes) {
    let mut buf = blob.clone();
    assert!(buf.remaining() >= 8, "causal state transfer too short");
    let n = buf.get_u64() as usize;
    let mut vector = BTreeMap::new();
    for _ in 0..n {
        let client = ActorId::from_index(buf.get_u32() as usize);
        let count = buf.get_u64();
        vector.insert(client, count);
    }
    let object = buf.copy_to_bytes(buf.remaining());
    (vector, object)
}

#[derive(Debug, Clone)]
struct WaitingUpdate {
    update: UpdateRequest,
    update_seq: u64,
    deps: VersionVector,
}

/// The causal-ordering server gateway. See the [module docs](self).
pub struct CausalServerGateway {
    core: GatewayCore,
    rate: RateStaleness,
    /// Per-client committed (enqueued-for-apply) update counts: the
    /// replica's version vector.
    vector: BTreeMap<ActorId, u64>,
    /// Total updates committed (sum of the vector).
    version: u64,
    /// Updates whose program-order predecessor or dependencies are not yet
    /// committed.
    waiting: Vec<WaitingUpdate>,
    /// Updates that had to wait for causal dependencies at least once.
    causal_holds: u64,
    /// Reads deferred because the replica did not dominate the client's
    /// observed vector.
    causal_read_waits: u64,
}

impl std::fmt::Debug for CausalServerGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CausalServerGateway")
            .field("me", &self.core.me)
            .field("role", &self.core.role)
            .field("version", &self.version)
            .field("waiting", &self.waiting.len())
            .finish()
    }
}

impl CausalServerGateway {
    /// Creates a causal gateway for replica `me`.
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
            rate: RateStaleness::default(),
            vector: BTreeMap::new(),
            version: 0,
            waiting: Vec::new(),
            causal_holds: 0,
            causal_read_waits: 0,
        }
    }

    /// This replica's role.
    pub fn role(&self) -> ReplicaRole {
        self.core.role
    }

    /// Total updates committed by this replica.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Snapshot of the replica's version vector as a wire-format list.
    pub fn vector_snapshot(&self) -> VersionVector {
        vector_of(&self.vector)
    }

    /// Updates that had to wait for causal dependencies at least once.
    pub fn causal_holds(&self) -> u64 {
        self.causal_holds
    }

    /// Reads deferred for causal dominance.
    pub fn causal_read_waits(&self) -> u64 {
        self.causal_read_waits
    }

    /// Estimated staleness in versions (same rate-based scheme as the FIFO
    /// handler; primaries are always 0).
    pub fn estimated_staleness(&self, now: SimTime) -> u64 {
        self.rate.estimate(self.core.role, now)
    }

    /// The durability sidecar, if storage is enabled (post-run inspection).
    pub fn durability(&self) -> Option<&Durability> {
        self.core.durability.as_ref()
    }

    /// Read access to the hosted object.
    pub fn object(&self) -> &dyn ReplicatedObject {
        &*self.core.object
    }

    /// Replays the durable log after a crash: the vector-carrying snapshot
    /// is installed and the admitted tail re-applied.
    fn replay_storage(&mut self, now: SimTime) {
        let Some(summary) = self.core.replay_log(now) else {
            return;
        };
        if let Some(snap) = &summary.snapshot {
            self.install_with_vector(&Bytes::from(snap.data.clone()));
            self.version = snap.csn;
        }
        // Each logged commit admitted exactly one update of its client, so
        // the vector is rebuilt by counting the replayed tail.
        for (version, update) in &summary.commits {
            let _ = self.core.apply(&update.op);
            *self.vector.entry(update.id.client).or_insert(0) += 1;
            self.version = *version;
        }
        self.core
            .replayed(now, summary.replayed_records, self.version);
    }

    fn on_update(
        &mut self,
        update: UpdateRequest,
        update_seq: u64,
        deps: VersionVector,
        now: SimTime,
    ) -> Vec<ServerAction> {
        if self.core.role != ReplicaRole::Primary {
            return Vec::new();
        }
        // Duplicate detection: an already-applied update from this client
        // has `update_seq` below the replica's applied count (admission
        // bumps the vector immediately), and a copy may also still sit in
        // the causal waiting room. Either way, never admit it twice.
        let applied_of_client = self.vector.get(&update.id.client).copied().unwrap_or(0);
        if update_seq < applied_of_client || self.waiting.iter().any(|w| w.update.id == update.id) {
            return self.core.answer_duplicate(update.id);
        }
        self.rate.count_update(&mut self.core);
        let mut actions = Vec::new();
        if !self.try_admit_update(&update, update_seq, &deps, now, &mut actions) {
            self.causal_holds += 1;
            self.waiting.push(WaitingUpdate {
                update,
                update_seq,
                deps,
            });
        } else {
            self.drain_waiting(now, &mut actions);
        }
        actions
    }

    /// Commits `update` if its program-order predecessor count and causal
    /// dependencies are satisfied.
    fn try_admit_update(
        &mut self,
        update: &UpdateRequest,
        update_seq: u64,
        deps: &VersionVector,
        now: SimTime,
        actions: &mut Vec<ServerAction>,
    ) -> bool {
        let client = update.id.client;
        let applied_of_client = self.vector.get(&client).copied().unwrap_or(0);
        if applied_of_client != update_seq || !dominates(&self.vector, deps) {
            return false;
        }
        *self.vector.entry(client).or_insert(0) += 1;
        self.version += 1;
        self.core.stats.updates_committed += 1;
        // Admission is the causal commit point (it bumps the vector), so
        // the record hits the log before the reply the service queue will
        // produce for it.
        self.core.log_commit(now, self.version, update);
        self.core.enqueue_update(update.clone(), 0, now, actions);
        true
    }

    /// Re-examines held-back updates and causally blocked reads until a
    /// fixpoint.
    fn drain_waiting(&mut self, now: SimTime, actions: &mut Vec<ServerAction>) {
        loop {
            let mut progressed = false;
            let mut still_waiting = Vec::with_capacity(self.waiting.len());
            for w in std::mem::take(&mut self.waiting) {
                if self.try_admit_update(&w.update, w.update_seq, &w.deps, now, actions) {
                    progressed = true;
                } else {
                    still_waiting.push(w);
                }
            }
            self.waiting = still_waiting;
            if !progressed {
                break;
            }
        }
        self.release_ready_reads(now, actions);
    }

    /// Serves the deferred reads whose dependencies the replica now
    /// dominates and whose staleness bound now holds.
    fn release_ready_reads(&mut self, now: SimTime, actions: &mut Vec<ServerAction>) {
        let staleness = self.estimated_staleness(now);
        let (synced, vector) = (self.core.synced, &self.vector);
        self.core.release_deferred(
            now,
            staleness,
            |read| {
                (synced
                    && read_deps_satisfied(vector, &read.deps)
                    && staleness <= read.req.staleness_threshold as u64)
                    .then(|| vector_of(vector))
            },
            actions,
        );
    }

    fn on_read(
        &mut self,
        from: ActorId,
        req: ReadRequest,
        deps: VersionVector,
        now: SimTime,
    ) -> Vec<ServerAction> {
        if let Some(busy) = self.core.shed_read(&req, from, now) {
            return busy;
        }
        let staleness = self.estimated_staleness(now);
        let causally_ready = read_deps_satisfied(&self.vector, &deps);
        let ready =
            self.core.synced && causally_ready && staleness <= req.staleness_threshold as u64;
        if !causally_ready {
            self.causal_read_waits += 1;
        }
        let pending = PendingRead {
            req,
            client: from,
            deps,
            arrived_at: now,
        };
        let vector = ready.then(|| vector_of(&self.vector));
        let mut actions = Vec::new();
        self.core
            .admit_read(pending, staleness, vector, now, &mut actions);
        actions
    }

    fn on_lazy_update(
        &mut self,
        version: u64,
        vector: VersionVector,
        snapshot: &Bytes,
        rate_per_us: f64,
        now: SimTime,
    ) -> Vec<ServerAction> {
        if self.core.role != ReplicaRole::Secondary {
            return Vec::new();
        }
        if version > self.version {
            self.core.object.install_snapshot(snapshot);
            self.version = version;
            self.vector = vector.into_iter().collect();
            self.core.stats.lazy_updates_applied += 1;
            // A secondary's state *is* the last lazy snapshot: persist it
            // (with its vector) so a crashed secondary restarts from here
            // instead of empty.
            let vector = &self.vector;
            self.core.persist_install(version, version, |core| {
                vector_blob(&*core.object, vector).to_vec()
            });
        }
        self.core.mark_synced(now);
        self.rate.received(now, rate_per_us);
        let mut actions = Vec::new();
        self.release_ready_reads(now, &mut actions);
        actions
    }

    /// Durable compaction, only when every admitted update has been
    /// applied: the causal vector counts admissions, and a snapshot staged
    /// mid-queue would pair its version with an older object state.
    fn maybe_snapshot(&mut self, now: SimTime) {
        if self.core.update_queued() {
            return;
        }
        let (version, vector) = (self.version, &self.vector);
        self.core.maybe_snapshot(now, version, version, |core| {
            vector_blob(&*core.object, vector).to_vec()
        });
    }

    fn install_with_vector(&mut self, blob: &Bytes) {
        let (vector, object) = decode_vector_blob(blob);
        self.core.object.install_snapshot(&object);
        self.vector = vector;
    }

    fn on_state_response(&mut self, version: u64, blob: &Bytes, now: SimTime) -> Vec<ServerAction> {
        // With durable storage a replayed replica is already synced but
        // still reconciles via this transfer (see `on_restart`). Without
        // storage, keep the seed's guard bit-identical.
        if (self.core.synced && self.core.durability.is_none()) || version < self.version {
            return Vec::new();
        }
        if self.core.synced {
            // Reconciling a replayed replica: adopt only a state that
            // dominates every commit we hold durably, otherwise acked
            // local updates would vanish from the installed snapshot.
            // A non-dominating donor is simply ignored — lazy updates or
            // a later transfer reconcile once the peer catches up.
            let (incoming, _) = decode_vector_blob(blob);
            if !dominates(&incoming, &self.vector_snapshot()) {
                return Vec::new();
            }
        }
        self.install_with_vector(blob);
        self.version = version;
        self.core.mark_synced(now);
        self.core
            .persist_install(version, version, |_| blob.to_vec());
        self.rate.transferred(self.core.role, now);
        let mut actions = Vec::new();
        self.drain_waiting(now, &mut actions);
        actions
    }
}

impl ServerProtocol for CausalServerGateway {
    fn ordering(&self) -> OrderingGuarantee {
        OrderingGuarantee::Causal
    }

    fn on_start(&mut self, now: SimTime) -> Vec<ServerAction> {
        self.rate.start(&mut self.core, now)
    }

    fn on_restart(
        &mut self,
        fresh_object: Box<dyn ReplicatedObject>,
        now: SimTime,
    ) -> Vec<ServerAction> {
        *self = Self::with_core(self.core.restarted(fresh_object, now));
        self.rate = RateStaleness::restarted(now);
        // A successful replay restores this replica's own durable state
        // (object, version, and vector), but without a global sequence it
        // cannot bound what other clients' updates it missed while down:
        // a full state transfer still reconciles with a live peer. The
        // dominance-checked `on_state_response` guard accepts it without
        // ever moving the replica's causal knowledge backwards.
        self.replay_storage(now);
        let donor = self.core.primary_view.leader();
        self.core.rejoin(Some(donor), Payload::StateRequest)
    }

    fn on_payload(&mut self, from: ActorId, payload: Payload, now: SimTime) -> Vec<ServerAction> {
        let retry = self.core.retry_transfer(now);
        let mut actions = match payload {
            Payload::CausalUpdate {
                update,
                update_seq,
                deps,
            } => self.on_update(update, update_seq, deps, now),
            Payload::CausalRead { read, deps } => self.on_read(from, read, deps, now),
            Payload::CausalLazyUpdate {
                version,
                vector,
                snapshot,
                rate_per_us,
            } => self.on_lazy_update(version, vector, &snapshot, rate_per_us, now),
            Payload::StateRequest => {
                let (version, vector) = (self.version, &self.vector);
                self.core.serve_state(from, version, version, |core| {
                    vector_blob(&*core.object, vector)
                })
            }
            // The vector rides in the snapshot's causal wrapper.
            Payload::StateResponse { csn, snapshot, .. } => {
                self.on_state_response(csn, &snapshot, now)
            }
            _ => Vec::new(),
        };
        actions.extend(retry);
        actions
    }

    fn on_service_start(&mut self, token: u64, now: SimTime) {
        self.core.on_service_start(token, now);
    }

    fn on_service_done(&mut self, token: u64, now: SimTime) -> Vec<ServerAction> {
        let mut actions = Vec::new();
        if let Some(done) = self
            .core
            .finish_service(token, now, self.version, &mut actions)
        {
            let vector = self.vector_snapshot();
            self.core
                .reply_update(done, self.version, vector, &mut actions);
            self.maybe_snapshot(now);
        }
        self.core.maybe_start_service(&mut actions);
        actions
    }

    fn on_lazy_timer(&mut self, now: SimTime) -> Vec<ServerAction> {
        let (version, vector) = (self.version, &self.vector);
        self.rate
            .lazy_tick(&mut self.core, now, |core, rate_per_us| {
                Payload::CausalLazyUpdate {
                    version,
                    vector: vector_of(vector),
                    snapshot: core.object.snapshot(),
                    rate_per_us,
                }
            })
    }

    fn on_view(&mut self, view: Arc<View>, now: SimTime) -> Vec<ServerAction> {
        self.rate.on_view(&mut self.core, view, now)
    }

    fn is_sequencer(&self) -> bool {
        false
    }

    fn is_publisher(&self) -> bool {
        self.core.is_publisher()
    }

    fn csn(&self) -> u64 {
        self.version
    }

    fn applied_csn(&self) -> u64 {
        self.version
    }

    fn gsn(&self) -> u64 {
        self.version
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
    use crate::object::SharedDocument;
    use crate::wire::{Operation, RequestId};

    fn gw(i: usize) -> CausalServerGateway {
        CausalServerGateway::new(
            a(i),
            pview(),
            sview(),
            Box::new(SharedDocument::new()),
            ServerConfig {
                clients: vec![a(20), a(21)],
                ..ServerConfig::default()
            },
        )
    }

    fn update(client: usize, update_seq: u64, text: &str, deps: VersionVector) -> Payload {
        Payload::CausalUpdate {
            update: UpdateRequest {
                id: RequestId {
                    client: a(client),
                    seq: update_seq * 2,
                },
                op: Operation::new("append", text.as_bytes().to_vec()),
                attempt: 1,
            },
            update_seq,
            deps,
        }
    }

    fn read(client: usize, seq: u64, deps: VersionVector) -> Payload {
        Payload::CausalRead {
            read: ReadRequest {
                id: RequestId {
                    client: a(client),
                    seq,
                },
                op: Operation::new("fetch", vec![]),
                staleness_threshold: 1000,
                deadline_us: 0,
                attempt: 1,
            },
            deps,
        }
    }

    #[test]
    fn dominates_and_merge() {
        let mut v = BTreeMap::new();
        v.insert(a(1), 3u64);
        assert!(dominates(&v, &vec![(a(1), 3)]));
        assert!(dominates(&v, &vec![(a(1), 2)]));
        assert!(!dominates(&v, &vec![(a(1), 4)]));
        assert!(!dominates(&v, &vec![(a(2), 1)]));
        assert!(dominates(&v, &vec![]));
        merge_into(&mut v, &vec![(a(1), 2), (a(2), 5)]);
        assert_eq!(v[&a(1)], 3);
        assert_eq!(v[&a(2)], 5);
    }

    #[test]
    fn program_order_enforced_per_client() {
        let mut p = gw(1);
        // Second update of client 20 arrives first: must wait.
        let actions = p.on_payload(a(20), update(20, 1, "second", vec![]), t(0));
        assert!(actions.is_empty());
        assert_eq!(p.version(), 0);
        assert_eq!(p.causal_holds(), 1);
        // First update unblocks both.
        let mut actions = p.on_payload(a(20), update(20, 0, "first", vec![]), t(1));
        assert_eq!(p.version(), 2);
        let _ = drain(&mut p, &mut actions, t(1));
        assert_eq!(
            p.object().read(&Operation::new("fetch", vec![]))[8..].to_vec(),
            b"first\nsecond".to_vec()
        );
    }

    #[test]
    fn cross_client_dependency_orders_reply_after_message() {
        let mut p = gw(1);
        // Client 21's "reply" depends on having seen client 20's "message"
        // (it read a state where vector[20] = 1). Deliver the reply first.
        let actions = p.on_payload(a(21), update(21, 0, "reply", vec![(a(20), 1)]), t(0));
        assert!(actions.is_empty(), "reply must wait for the message");
        assert_eq!(p.causal_holds(), 1);
        let mut actions = p.on_payload(a(20), update(20, 0, "message", vec![]), t(1));
        assert_eq!(p.version(), 2, "message admitted, reply released");
        let _ = drain(&mut p, &mut actions, t(1));
        let text = p.object().read(&Operation::new("fetch", vec![]))[8..].to_vec();
        assert_eq!(text, b"message\nreply".to_vec());
    }

    #[test]
    fn read_waits_for_dominating_state() {
        let mut p = gw(1);
        // Client has observed one update of client 20; this replica has
        // not applied it yet.
        let actions = p.on_payload(a(21), read(21, 0, vec![(a(20), 1)]), t(0));
        assert!(actions.is_empty());
        assert_eq!(p.causal_read_waits(), 1);
        assert_eq!(p.stats().reads_deferred, 1);
        // The missing update arrives: the read is released and served.
        let mut actions = p.on_payload(a(20), update(20, 0, "x", vec![]), t(10));
        let _ = drain(&mut p, &mut actions, t(10));
        assert_eq!(p.stats().reads_served, 1);
        let reply = replies(&actions)
            .find(|r| r.id.client == a(21))
            .cloned()
            .expect("read served");
        assert!(reply.deferred);
        assert_eq!(reply.vector, vec![(a(20), 1)]);
    }

    #[test]
    fn read_with_satisfied_deps_served_immediately() {
        let mut p = gw(1);
        let mut actions = p.on_payload(a(20), update(20, 0, "x", vec![]), t(0));
        let _ = drain(&mut p, &mut actions, t(0));
        let mut actions = p.on_payload(a(21), read(21, 0, vec![(a(20), 1)]), t(1));
        let _ = drain(&mut p, &mut actions, t(1));
        assert_eq!(p.stats().reads_served, 1);
        assert_eq!(p.causal_read_waits(), 0);
    }

    #[test]
    fn lazy_update_carries_vector_and_releases_reads() {
        let mut publisher = gw(2);
        assert!(publisher.is_publisher());
        let _ = publisher.on_start(t(0));
        let mut actions = publisher.on_payload(a(20), update(20, 0, "m", vec![]), t(10));
        let _ = drain(&mut publisher, &mut actions, t(10));
        let lazy = publisher.on_lazy_timer(t(2000));
        let (version, vector, snapshot, rate) = lazy
            .iter()
            .find_map(|x| match x {
                ServerAction::MulticastSecondary(Payload::CausalLazyUpdate {
                    version,
                    vector,
                    snapshot,
                    rate_per_us,
                }) => Some((*version, vector.clone(), snapshot.clone(), *rate_per_us)),
                _ => None,
            })
            .expect("causal lazy update");
        assert_eq!(version, 1);
        assert_eq!(vector, vec![(a(20), 1)]);
        assert!(rate > 0.0);

        // A secondary with a blocked read applies it and serves.
        let mut s = gw(10);
        let _ = s.on_start(t(0));
        let held = s.on_payload(a(21), read(21, 0, vec![(a(20), 1)]), t(100));
        assert!(held.is_empty());
        let mut actions = s.on_payload(
            a(2),
            Payload::CausalLazyUpdate {
                version,
                vector,
                snapshot,
                rate_per_us: rate,
            },
            t(2001),
        );
        let _ = drain(&mut s, &mut actions, t(2001));
        assert_eq!(s.stats().reads_served, 1);
        assert_eq!(s.version(), 1);
    }

    #[test]
    fn concurrent_updates_may_interleave_but_both_apply() {
        // Two causally unrelated updates arrive in different orders at two
        // replicas: both replicas apply both (versions agree), though the
        // document order may differ — causal consistency permits it.
        let mut p1 = gw(1);
        let mut a1 = p1.on_payload(a(20), update(20, 0, "a", vec![]), t(0));
        a1.extend(p1.on_payload(a(21), update(21, 0, "b", vec![]), t(1)));
        let _ = drain(&mut p1, &mut a1, t(1));

        let mut p2 = gw(2);
        let mut a2 = p2.on_payload(a(21), update(21, 0, "b", vec![]), t(0));
        a2.extend(p2.on_payload(a(20), update(20, 0, "a", vec![]), t(1)));
        let _ = drain(&mut p2, &mut a2, t(1));

        assert_eq!(p1.version(), 2);
        assert_eq!(p2.version(), 2);
        assert_eq!(p1.vector_snapshot(), p2.vector_snapshot());
    }

    #[test]
    fn state_transfer_round_trip_preserves_vector() {
        let mut donor = gw(1);
        let mut actions = donor.on_payload(a(20), update(20, 0, "x", vec![]), t(0));
        let _ = drain(&mut donor, &mut actions, t(0));
        let transfer = donor.on_payload(a(2), Payload::StateRequest, t(0));
        let (csn, snapshot) = transfer
            .iter()
            .find_map(|x| match x {
                ServerAction::SendDirect {
                    payload: Payload::StateResponse { csn, snapshot, .. },
                    ..
                } => Some((*csn, snapshot.clone())),
                _ => None,
            })
            .expect("state served");
        let mut joiner = gw(2);
        let _ = joiner.on_restart(Box::new(SharedDocument::new()), t(100));
        assert!(!joiner.is_synced());
        let _ = joiner.on_payload(
            a(1),
            Payload::StateResponse {
                csn,
                gsn: csn,
                snapshot,
            },
            t(200),
        );
        assert!(joiner.is_synced());
        assert_eq!(joiner.version(), 1);
        assert_eq!(joiner.vector_snapshot(), vec![(a(20), 1)]);
    }

    #[test]
    fn sequential_payloads_ignored() {
        let mut p = gw(1);
        let req = RequestId {
            client: a(20),
            seq: 0,
        };
        assert!(p
            .on_payload(a(0), Payload::GsnAssign { req, gsn: 1 }, t(0))
            .is_empty());
        assert!(p
            .on_payload(
                a(20),
                Payload::Update(UpdateRequest {
                    id: req,
                    op: Operation::new("append", b"x".to_vec()),
                    attempt: 1,
                }),
                t(0)
            )
            .is_empty());
        assert_eq!(p.version(), 0);
    }

    fn durable_gw(i: usize) -> CausalServerGateway {
        let mut config = ServerConfig {
            clients: vec![a(20), a(21)],
            ..ServerConfig::default()
        };
        config.storage = crate::durability::StorageConfig::durable();
        config.storage.seed = 99;
        CausalServerGateway::new(
            a(i),
            pview(),
            sview(),
            Box::new(SharedDocument::new()),
            config,
        )
    }

    #[test]
    fn durable_replay_restores_vector_and_document() {
        let mut p = durable_gw(1);
        let mut actions = p.on_payload(a(20), update(20, 0, "message", vec![]), t(0));
        actions.extend(p.on_payload(a(21), update(21, 0, "reply", vec![(a(20), 1)]), t(1)));
        let now = drain(&mut p, &mut actions, t(1));
        assert_eq!(p.version(), 2);
        assert_eq!(p.stats().wal_appends, 2);
        let doc_before = p.object().snapshot();
        p.crash_storage();
        let _ = p.on_restart(Box::new(SharedDocument::new()), now);
        assert_eq!(p.version(), 2, "replay restores the version");
        assert_eq!(
            p.vector_snapshot(),
            vec![(a(20), 1), (a(21), 1)],
            "replay rebuilds the causal vector from the commit tail"
        );
        assert_eq!(p.object().snapshot(), doc_before);
        assert!(p.is_synced());
        assert!(p.stats().replayed_records > 0);
    }

    #[test]
    fn non_dominating_transfer_rejected_after_replay() {
        let mut p = durable_gw(1);
        let mut actions = p.on_payload(a(20), update(20, 0, "x", vec![]), t(0));
        let now = drain(&mut p, &mut actions, t(0));
        p.crash_storage();
        let _ = p.on_restart(Box::new(SharedDocument::new()), now);
        assert!(p.is_synced());
        // A donor that never saw client 20's update answers the post-replay
        // reconciliation request: its vector does not dominate ours, so
        // installing it would lose an acked commit. It must be ignored.
        let mut behind = gw(2);
        let mut actions = behind.on_payload(a(21), update(21, 0, "y", vec![]), t(0));
        let _ = drain(&mut behind, &mut actions, t(0));
        let reply = behind.on_payload(a(1), Payload::StateRequest, t(0));
        let Some(ServerAction::SendDirect {
            payload: Payload::StateResponse { csn, snapshot, .. },
            ..
        }) = reply.first()
        else {
            panic!("donor must answer, got {reply:?}");
        };
        let _ = p.on_payload(
            a(2),
            Payload::StateResponse {
                csn: *csn,
                gsn: *csn,
                snapshot: snapshot.clone(),
            },
            now,
        );
        assert_eq!(p.vector_snapshot(), vec![(a(20), 1)], "commit kept");
        // A dominating donor (saw both updates) is adopted.
        let mut ahead = gw(2);
        let mut actions = ahead.on_payload(a(20), update(20, 0, "x", vec![]), t(0));
        actions.extend(ahead.on_payload(a(21), update(21, 0, "y", vec![]), t(1)));
        let _ = drain(&mut ahead, &mut actions, t(1));
        let reply = ahead.on_payload(a(1), Payload::StateRequest, t(1));
        let Some(ServerAction::SendDirect {
            payload: Payload::StateResponse { csn, snapshot, .. },
            ..
        }) = reply.first()
        else {
            panic!("donor must answer, got {reply:?}");
        };
        let _ = p.on_payload(
            a(2),
            Payload::StateResponse {
                csn: *csn,
                gsn: *csn,
                snapshot: snapshot.clone(),
            },
            now,
        );
        assert_eq!(p.version(), 2);
        assert_eq!(p.vector_snapshot(), vec![(a(20), 1), (a(21), 1)]);
    }

    #[test]
    fn durable_secondary_persists_lazy_installs() {
        let mut publisher = durable_gw(2);
        let _ = publisher.on_start(t(0));
        let mut actions = publisher.on_payload(a(20), update(20, 0, "m", vec![]), t(10));
        let _ = drain(&mut publisher, &mut actions, t(10));
        let lazy = publisher.on_lazy_timer(t(2000));
        let payload = lazy
            .iter()
            .find_map(|x| match x {
                ServerAction::MulticastSecondary(p @ Payload::CausalLazyUpdate { .. }) => {
                    Some(p.clone())
                }
                _ => None,
            })
            .expect("causal lazy update");
        let mut s = durable_gw(10);
        let _ = s.on_start(t(0));
        let _ = s.on_payload(a(2), payload, t(2001));
        assert_eq!(s.stats().snapshots_taken, 1);
        s.crash_storage();
        let _ = s.on_restart(Box::new(SharedDocument::new()), t(3000));
        assert_eq!(s.version(), 1, "secondary restarts from its last install");
        assert_eq!(s.vector_snapshot(), vec![(a(20), 1)]);
    }

    #[test]
    fn compaction_stages_vector_carrying_snapshots() {
        let mut p = durable_gw(1);
        p.core.config.storage.snapshot_every = 4;
        p.core.durability = Some(Durability::new(p.core.config.storage.clone(), 99));
        let mut actions = Vec::new();
        for i in 0..10 {
            actions.extend(p.on_payload(a(20), update(20, i, "x", vec![]), t(i)));
        }
        let now = drain(&mut p, &mut actions, t(20));
        assert!(p.stats().snapshots_taken >= 1);
        p.crash_storage();
        let _ = p.on_restart(Box::new(SharedDocument::new()), now);
        assert_eq!(p.version(), 10, "snapshot + tail replay reach full state");
        assert_eq!(p.vector_snapshot(), vec![(a(20), 10)]);
    }
}
