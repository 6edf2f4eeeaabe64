//! The FIFO timed-consistency handler (paper §4, Figure 2, "Service B").
//!
//! The paper implements its sequential handler in detail; this module
//! instantiates the framework's second handler: a service whose ordering
//! guarantee is *per-sender FIFO*. There is no sequencer and no global
//! sequence number:
//!
//! * **Updates** are multicast by clients to the primary group; the group
//!   layer's per-sender FIFO delivery is the ordering guarantee, and every
//!   primary replica applies each client's updates in that client's send
//!   order. Updates of *different* clients may interleave differently at
//!   different replicas, which is sound exactly for the workload class the
//!   paper cites (banking transactions on disjoint accounts — per-account
//!   operations commute).
//! * **Reads** are sent directly to the selected replicas — no GSN
//!   broadcast round. Primary replicas always serve immediately (their
//!   state contains everything they have received). Secondary replicas
//!   *estimate* their staleness: with no sequencer there is no exact global
//!   version, so a secondary bounds the number of updates it is missing by
//!   `rate * (now - last lazy update)`, using the update-arrival rate the
//!   lazy publisher ships inside each [`Payload::FifoLazyUpdate`]. If the
//!   estimate exceeds the client's threshold the read is deferred until the
//!   next lazy update, exactly like the sequential handler's deferred
//!   reads.
//! * **Lazy propagation, monitoring, and failure handling** reuse the same
//!   machinery: the highest-ranked primary is the publisher, performance
//!   broadcasts feed the client repositories, and restarted replicas
//!   recover via state transfer. Leader failure needs no recovery round at
//!   all — there is no sequencer state to rebuild.

use crate::durability::Durability;
use crate::gateway::{push_bounded, GatewayCore, PendingRead, RateStaleness};
use crate::object::ReplicatedObject;
use crate::obs::ObsHandle;
use crate::protocol::ServerProtocol;
use crate::qos::OrderingGuarantee;
use crate::server::{ReplicaRole, ServerAction, ServerConfig, ServerStats};
use crate::wire::{Payload, ReadRequest, RequestId, UpdateRequest};
use aqf_group::View;
use aqf_sim::{ActorId, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// The FIFO-ordering server gateway. See the [module docs](self).
pub struct FifoServerGateway {
    core: GatewayCore,
    rate: RateStaleness,
    /// Updates applied to the hosted object (the replica's version).
    version: u64,
    /// Per-client applied-update log retained for order audits (bounded).
    applied_log: VecDeque<RequestId>,
}

impl std::fmt::Debug for FifoServerGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FifoServerGateway")
            .field("me", &self.core.me)
            .field("role", &self.core.role)
            .field("version", &self.version)
            .field("queue", &self.core.queue_depth())
            .finish()
    }
}

impl FifoServerGateway {
    /// Creates a FIFO gateway for replica `me`.
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
            version: 0,
            applied_log: VecDeque::new(),
        }
    }

    /// This replica's role.
    pub fn role(&self) -> ReplicaRole {
        self.core.role
    }

    /// The replica's version: updates applied so far.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The applied-update log (most recent entries, bounded), for
    /// per-client FIFO order audits.
    pub fn applied_log(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.applied_log.iter().copied()
    }

    /// Estimated staleness of this replica in versions: zero for primaries;
    /// for secondaries, the expected number of updates that arrived at the
    /// primary group since the last lazy update, `ceil(rate * elapsed)`.
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

    /// Replays the durable log after a crash: the snapshot is installed
    /// and the applied tail re-applied.
    fn replay_storage(&mut self, now: SimTime) {
        let Some(summary) = self.core.replay_log(now) else {
            return;
        };
        if let Some(snap) = &summary.snapshot {
            self.core
                .object
                .install_snapshot(&bytes::Bytes::from(snap.data.clone()));
            self.version = snap.csn;
        }
        for (version, update) in &summary.commits {
            let _ = self.core.apply(&update.op);
            self.version = *version;
            push_bounded(&mut self.applied_log, update.id);
        }
        self.core
            .replayed(now, summary.replayed_records, self.version);
    }

    fn on_update(&mut self, u: UpdateRequest, now: SimTime) -> Vec<ServerAction> {
        if self.core.role != ReplicaRole::Primary {
            return Vec::new();
        }
        // FIFO updates apply as they arrive, so a second copy that was
        // already applied, is queued, or is in service would double-apply.
        if self.applied_log.contains(&u.id) || self.core.update_in_pipeline(u.id) {
            return self.core.answer_duplicate(u.id);
        }
        self.rate.count_update(&mut self.core);
        self.core.stats.updates_committed += 1;
        let mut actions = Vec::new();
        self.core.enqueue_update(u, 0, now, &mut actions);
        actions
    }

    fn on_read(&mut self, from: ActorId, r: ReadRequest, now: SimTime) -> Vec<ServerAction> {
        if let Some(busy) = self.core.shed_read(&r, from, now) {
            return busy;
        }
        let staleness = self.estimated_staleness(now);
        let ready = self.core.synced && staleness <= r.staleness_threshold as u64;
        let pending = PendingRead {
            req: r,
            client: from,
            deps: Vec::new(),
            arrived_at: now,
        };
        let mut actions = Vec::new();
        self.core
            .admit_read(pending, staleness, ready.then(Vec::new), now, &mut actions);
        actions
    }

    /// Deferred reads are answered on the next state update (§4.1.2).
    fn release_deferred(&mut self, now: SimTime) -> Vec<ServerAction> {
        let staleness = self.estimated_staleness(now);
        let mut actions = Vec::new();
        self.core
            .release_deferred(now, staleness, |_| Some(Vec::new()), &mut actions);
        actions
    }

    fn on_lazy_update(
        &mut self,
        version: u64,
        snapshot: &bytes::Bytes,
        rate_per_us: f64,
        now: SimTime,
    ) -> Vec<ServerAction> {
        if self.core.role != ReplicaRole::Secondary {
            return Vec::new();
        }
        if version > self.version {
            self.core.object.install_snapshot(snapshot);
            self.version = version;
            self.core.stats.lazy_updates_applied += 1;
            // A secondary's state *is* the last lazy snapshot: persist it
            // so a crashed secondary restarts from here instead of empty.
            self.core
                .persist_install(version, version, |_| snapshot.to_vec());
        }
        self.core.mark_synced(now);
        self.rate.received(now, rate_per_us);
        self.release_deferred(now)
    }

    fn on_state_response(
        &mut self,
        version: u64,
        snapshot: &bytes::Bytes,
        now: SimTime,
    ) -> Vec<ServerAction> {
        // With durable storage a replayed replica is already synced but
        // still reconciles via this transfer (see `on_restart`): accept
        // any response that does not move the version backwards. Without
        // storage, keep the seed's guard bit-identical.
        if (self.core.synced && self.core.durability.is_none()) || version < self.version {
            return Vec::new();
        }
        self.core.object.install_snapshot(snapshot);
        self.version = version;
        self.core.mark_synced(now);
        self.core
            .persist_install(version, version, |_| snapshot.to_vec());
        self.rate.transferred(self.core.role, now);
        // Release reads that were waiting for a synchronized state.
        self.release_deferred(now)
    }
}

impl ServerProtocol for FifoServerGateway {
    fn ordering(&self) -> OrderingGuarantee {
        OrderingGuarantee::Fifo
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
        // (and marks it synced so reads resume), but without a global
        // sequence it cannot bound what *other* clients' updates it missed
        // while down: a full state transfer still reconciles with a live
        // peer. The relaxed `on_state_response` guard accepts that
        // transfer even though the replica already reports synced.
        self.replay_storage(now);
        let donor = self.core.primary_view.leader();
        self.core.rejoin(Some(donor), Payload::StateRequest)
    }

    fn on_payload(&mut self, from: ActorId, payload: Payload, now: SimTime) -> Vec<ServerAction> {
        let retry = self.core.retry_transfer(now);
        let mut actions = match payload {
            Payload::Update(u) => self.on_update(u, now),
            Payload::Read(r) => self.on_read(from, r, now),
            Payload::FifoLazyUpdate {
                version,
                snapshot,
                rate_per_us,
            } => self.on_lazy_update(version, &snapshot, rate_per_us, now),
            Payload::StateRequest => {
                let version = self.version;
                self.core
                    .serve_state(from, version, version, |core| core.object.snapshot())
            }
            Payload::StateResponse { csn, snapshot, .. } => {
                self.on_state_response(csn, &snapshot, now)
            }
            // Sequencer-protocol traffic has no meaning here.
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
            self.version += 1;
            let version = self.version;
            push_bounded(&mut self.applied_log, done.update.id);
            // Write-ahead discipline: in FIFO mode "commit" is the apply
            // itself, so the record hits the log before the reply below
            // acknowledges the update.
            self.core.log_commit(now, version, &done.update);
            self.core.maybe_snapshot(now, version, version, |core| {
                core.object.snapshot().to_vec()
            });
            self.core
                .reply_update(done, version, Vec::new(), &mut actions);
        }
        self.core.maybe_start_service(&mut actions);
        actions
    }

    fn on_lazy_timer(&mut self, now: SimTime) -> Vec<ServerAction> {
        let version = self.version;
        self.rate
            .lazy_tick(&mut self.core, now, |core, rate_per_us| {
                Payload::FifoLazyUpdate {
                    version,
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
    use crate::object::{AccountBook, VersionedRegister};
    use crate::wire::{Operation, ReadRequest};
    use aqf_sim::SimDuration;

    fn gw(i: usize) -> FifoServerGateway {
        let config = ServerConfig {
            clients: vec![a(20)],
            ..ServerConfig::default()
        };
        FifoServerGateway::new(a(i), pview(), sview(), Box::new(AccountBook::new()), config)
    }

    fn upd(client: usize, seq: u64) -> UpdateRequest {
        UpdateRequest {
            id: RequestId {
                client: a(client),
                seq,
            },
            op: Operation::new("deposit", AccountBook::encode_tx("acct", 100)),
            attempt: 1,
        }
    }

    fn read(seq: u64, staleness: u32) -> ReadRequest {
        ReadRequest {
            id: RequestId { client: a(20), seq },
            op: Operation::new("balance", b"acct".to_vec()),
            staleness_threshold: staleness,
            deadline_us: 0,
            attempt: 1,
        }
    }

    #[test]
    fn primary_applies_updates_without_sequencing_round() {
        let mut p = gw(1);
        let mut actions = p.on_payload(a(20), Payload::Update(upd(20, 0)), t(0));
        assert!(
            !actions
                .iter()
                .any(|x| matches!(x, ServerAction::MulticastPrimary(_))),
            "no GSN round in FIFO mode"
        );
        let _ = drain(&mut p, &mut actions, t(0));
        assert_eq!(p.version(), 1);
        // Client got a reply directly from this primary.
        assert!(actions.iter().any(|x| matches!(
            x,
            ServerAction::SendDirect {
                payload: Payload::Reply(_),
                ..
            }
        )));
    }

    #[test]
    fn primary_reads_always_immediate() {
        let mut p = gw(1);
        assert_eq!(p.estimated_staleness(t(0)), 0);
        let mut actions = p.on_payload(a(20), Payload::Read(read(0, 0)), t(0));
        let _ = drain(&mut p, &mut actions, t(0));
        assert_eq!(p.stats().reads_served, 1);
        assert_eq!(p.stats().reads_deferred, 0);
    }

    #[test]
    fn secondary_staleness_estimate_grows_with_time() {
        let mut s = gw(10);
        let _ = s.on_start(t(0));
        // 1 update/s advertised by the publisher.
        let _ = s.on_payload(
            a(2),
            Payload::FifoLazyUpdate {
                version: 5,
                snapshot: AccountBook::new().snapshot(),
                rate_per_us: 1e-6,
            },
            t(1000),
        );
        assert_eq!(s.estimated_staleness(t(1000)), 0);
        assert_eq!(s.estimated_staleness(t(1500)), 1); // ceil(0.5)
        assert_eq!(s.estimated_staleness(t(3000)), 2);
        assert_eq!(s.version(), 5);
    }

    #[test]
    fn stale_secondary_defers_until_lazy_update() {
        let mut s = gw(10);
        let _ = s.on_start(t(0));
        let _ = s.on_payload(
            a(2),
            Payload::FifoLazyUpdate {
                version: 1,
                snapshot: AccountBook::new().snapshot(),
                rate_per_us: 1e-5, // 10 updates/s
            },
            t(0),
        );
        // 2 s later the estimate is ~20 versions; threshold 3 defers.
        let actions = s.on_payload(a(20), Payload::Read(read(0, 3)), t(2000));
        assert!(actions.is_empty());
        assert_eq!(s.stats().reads_deferred, 1);
        // The next lazy update releases it.
        let mut actions = s.on_payload(
            a(2),
            Payload::FifoLazyUpdate {
                version: 20,
                snapshot: AccountBook::new().snapshot(),
                rate_per_us: 1e-5,
            },
            t(2500),
        );
        let _ = drain(&mut s, &mut actions, t(2500));
        let reply = replies(&actions)
            .next()
            .cloned()
            .expect("deferred read served");
        assert!(reply.deferred);
        assert_eq!(reply.t1_us, SimDuration::from_millis(510).as_micros());
    }

    #[test]
    fn fresh_secondary_serves_immediately() {
        let mut s = gw(10);
        let _ = s.on_start(t(0));
        let _ = s.on_payload(
            a(2),
            Payload::FifoLazyUpdate {
                version: 3,
                snapshot: AccountBook::new().snapshot(),
                rate_per_us: 1e-6,
            },
            t(100),
        );
        let mut actions = s.on_payload(a(20), Payload::Read(read(0, 2)), t(200));
        let _ = drain(&mut s, &mut actions, t(200));
        assert_eq!(s.stats().reads_served, 1);
    }

    #[test]
    fn publisher_ships_rate_with_snapshot() {
        let mut p = gw(2);
        let _ = p.on_start(t(0));
        let mut actions = Vec::new();
        for i in 0..4 {
            actions.extend(p.on_payload(a(20), Payload::Update(upd(20, i)), t(i * 100)));
        }
        let _ = drain(&mut p, &mut actions, t(400));
        let actions = p.on_lazy_timer(t(2000));
        let (version, rate) = actions
            .iter()
            .find_map(|x| match x {
                ServerAction::MulticastSecondary(Payload::FifoLazyUpdate {
                    version,
                    rate_per_us,
                    ..
                }) => Some((*version, *rate_per_us)),
                _ => None,
            })
            .expect("lazy update sent");
        assert_eq!(version, 4);
        // 4 updates over 2 s = 2e-6 per µs.
        assert!((rate - 2e-6).abs() < 1e-9, "rate = {rate}");
        assert!(actions
            .iter()
            .any(|x| matches!(x, ServerAction::ArmLazyTimer { .. })));
    }

    #[test]
    fn per_client_fifo_order_is_preserved() {
        // Interleave two clients' updates; each client's own order must be
        // preserved in the applied log (delivery order is apply order).
        let mut p = gw(1);
        let mut actions = Vec::new();
        for i in 0..5 {
            actions.extend(p.on_payload(a(20), Payload::Update(upd(20, i)), t(i)));
            actions.extend(p.on_payload(a(21), Payload::Update(upd(21, i)), t(i)));
        }
        let _ = drain(&mut p, &mut actions, t(10));
        for client in [a(20), a(21)] {
            let seqs: Vec<u64> = p
                .applied_log()
                .filter(|r| r.client == client)
                .map(|r| r.seq)
                .collect();
            assert_eq!(seqs, vec![0, 1, 2, 3, 4], "client {client} order");
        }
        assert_eq!(p.version(), 10);
    }

    #[test]
    fn restart_requests_state_transfer() {
        let mut p = gw(1);
        let actions = p.on_restart(Box::new(AccountBook::new()), t(100));
        assert!(actions.iter().any(|x| matches!(
            x,
            ServerAction::SendDirect { to, payload: Payload::StateRequest } if *to == a(0)
        )));
        assert!(!p.is_synced());
        // Reads defer until the transfer lands.
        let pending = p.on_payload(a(20), Payload::Read(read(0, 1000)), t(101));
        assert!(pending.is_empty());
        let donor_snapshot = {
            let mut donor = AccountBook::new();
            donor.apply_update(&Operation::new(
                "deposit",
                AccountBook::encode_tx("acct", 700),
            ));
            donor.snapshot()
        };
        let mut actions = p.on_payload(
            a(0),
            Payload::StateResponse {
                csn: 1,
                gsn: 1,
                snapshot: donor_snapshot,
            },
            t(300),
        );
        assert!(p.is_synced());
        assert_eq!(p.version(), 1);
        let _ = drain(&mut p, &mut actions, t(300));
        assert_eq!(p.stats().reads_served, 1);
    }

    #[test]
    fn sequencer_payloads_ignored() {
        let mut p = gw(1);
        let req = RequestId {
            client: a(20),
            seq: 0,
        };
        assert!(p
            .on_payload(a(0), Payload::GsnAssign { req, gsn: 1 }, t(0))
            .is_empty());
        assert!(p
            .on_payload(a(0), Payload::GsnSnapshot { req, gsn: 1 }, t(0))
            .is_empty());
        assert!(p
            .on_payload(a(0), Payload::GsnQuery { csn: 0 }, t(0))
            .is_empty());
        assert_eq!(p.version(), 0);
    }

    #[test]
    fn register_object_also_works() {
        let config = ServerConfig {
            clients: vec![a(20)],
            ..ServerConfig::default()
        };
        let mut p = FifoServerGateway::new(
            a(1),
            pview(),
            sview(),
            Box::new(VersionedRegister::new()),
            config,
        );
        let mut actions = p.on_payload(
            a(20),
            Payload::Update(UpdateRequest {
                id: RequestId {
                    client: a(20),
                    seq: 0,
                },
                op: Operation::new("set", b"x".to_vec()),
                attempt: 1,
            }),
            t(0),
        );
        let _ = drain(&mut p, &mut actions, t(0));
        assert_eq!(p.version(), 1);
    }

    fn durable_gw(i: usize) -> FifoServerGateway {
        let mut config = ServerConfig {
            clients: vec![a(20)],
            ..ServerConfig::default()
        };
        config.storage = crate::durability::StorageConfig::durable();
        config.storage.seed = 99;
        FifoServerGateway::new(a(i), pview(), sview(), Box::new(AccountBook::new()), config)
    }

    #[test]
    fn durable_replay_restores_applied_state() {
        let mut p = durable_gw(1);
        let mut actions = Vec::new();
        for i in 0..5 {
            actions.extend(p.on_payload(a(20), Payload::Update(upd(20, i)), t(i)));
        }
        let now = drain(&mut p, &mut actions, t(10));
        assert_eq!(p.version(), 5);
        assert_eq!(p.stats().wal_appends, 5);
        let state_before = p.object().snapshot();
        p.crash_storage();
        let actions = p.on_restart(Box::new(AccountBook::new()), now);
        assert_eq!(p.version(), 5, "durable replay restores the version");
        assert!(p.is_synced(), "replayed replica serves again immediately");
        assert_eq!(p.object().snapshot(), state_before);
        assert!(p.stats().replayed_records > 0);
        // Without a global sequence the replica cannot bound what it
        // missed: reconciliation still runs a full state transfer.
        assert!(actions.iter().any(|x| matches!(
            x,
            ServerAction::SendDirect {
                payload: Payload::StateRequest,
                ..
            }
        )));
    }

    #[test]
    fn reconciling_transfer_lands_on_replayed_replica() {
        let mut p = durable_gw(1);
        let mut actions = Vec::new();
        for i in 0..3 {
            actions.extend(p.on_payload(a(20), Payload::Update(upd(20, i)), t(i)));
        }
        let now = drain(&mut p, &mut actions, t(10));
        p.crash_storage();
        let _ = p.on_restart(Box::new(AccountBook::new()), now);
        assert!(p.is_synced());
        assert_eq!(p.version(), 3);
        // A peer that saw two further updates answers the transfer; the
        // relaxed guard accepts it even though the replica reports synced.
        let mut donor = gw(0);
        let mut actions = Vec::new();
        for i in 0..5 {
            actions.extend(donor.on_payload(a(20), Payload::Update(upd(20, i)), t(i)));
        }
        let now = drain(&mut donor, &mut actions, now);
        let reply = donor.on_payload(a(1), Payload::StateRequest, now);
        let Some(ServerAction::SendDirect { payload, .. }) = reply.first() else {
            panic!("donor must answer the state request, got {reply:?}");
        };
        let snapshots_before = p.stats().snapshots_taken;
        let _ = p.on_payload(a(0), payload.clone(), now);
        assert_eq!(p.version(), 5, "transfer reconciles the missed tail");
        assert_eq!(p.object().snapshot(), donor.object().snapshot());
        assert!(
            p.stats().snapshots_taken > snapshots_before,
            "the installed transfer becomes the durable baseline"
        );
    }

    #[test]
    fn durable_secondary_persists_lazy_installs() {
        let mut s = durable_gw(10);
        let _ = s.on_start(t(0));
        let snapshot = {
            let mut book = AccountBook::new();
            book.apply_update(&Operation::new(
                "deposit",
                AccountBook::encode_tx("acct", 500),
            ));
            book.snapshot()
        };
        let _ = s.on_payload(
            a(2),
            Payload::FifoLazyUpdate {
                version: 7,
                snapshot: snapshot.clone(),
                rate_per_us: 1e-6,
            },
            t(100),
        );
        assert_eq!(s.stats().snapshots_taken, 1);
        s.crash_storage();
        let _ = s.on_restart(Box::new(AccountBook::new()), t(200));
        assert_eq!(s.version(), 7, "secondary restarts from its last install");
        assert_eq!(s.object().snapshot(), snapshot);
    }

    #[test]
    fn compaction_stages_snapshots_under_load() {
        let mut p = durable_gw(1);
        p.core.config.storage.snapshot_every = 4;
        p.core.durability = Some(Durability::new(p.core.config.storage.clone(), 99));
        let mut actions = Vec::new();
        for i in 0..10 {
            actions.extend(p.on_payload(a(20), Payload::Update(upd(20, i)), t(i)));
        }
        let now = drain(&mut p, &mut actions, t(20));
        assert!(p.stats().snapshots_taken >= 1);
        p.crash_storage();
        let _ = p.on_restart(Box::new(AccountBook::new()), now);
        assert_eq!(p.version(), 10, "snapshot + tail replay reach full state");
    }
}
