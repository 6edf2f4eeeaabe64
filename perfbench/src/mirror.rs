//! The traced run's host actors: a copy of `aqf_workload`'s
//! `ReplicaActor`/`ClientActor` that times every call it makes into the
//! group endpoint, the server gateway and the client gateway.
//!
//! The world is built from the same public constructors as
//! `aqf_workload::build_scenario`, in the same order, and the actors make
//! the same RNG draws, so a mirrored run replays the library's run event
//! for event. [`Fingerprint`] is how the traced run checks that; a mirror
//! that drifts from the library fails the traced run instead of reporting
//! numbers. The copy exists only until the program carries its own spans.

use crate::drive::Drive;
use aqf_core::client::{ClientAction, ClientConfig, ClientStats, TimerPurpose};
use aqf_core::protocol::ServerProtocol;
use aqf_core::server::{ServerAction, ServerConfig, ServerStats};
use aqf_core::wire::RequestId;
use aqf_core::{
    CausalServerGateway, ClientGateway, FifoServerGateway, OrderingGuarantee, Payload, QosSpec,
    ResponseInfo, ServerGateway, PRIMARY_GROUP, SECONDARY_GROUP,
};
use aqf_group::endpoint::{GroupMembership, GroupStats};
use aqf_group::{EndpointConfig, GroupEndpoint, GroupEvent, GroupId, View, ViewId};
use aqf_sim::{
    Actor, ActorId, Context, DelayModel, NetworkModel, SimDuration, SimTime, Timer, TimerId, World,
    WorldStats,
};
use aqf_workload::{
    BuiltScenario, ClientActor, ClientRecord, FaultKind, FaultTarget, NetMsg, ObjectKind,
    OpPattern, ReplicaActor, ScenarioConfig,
};
use rand::Rng;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

// The library hosts' timer kinds, kept equal so timers match one to one.
const SERVICE_TIMER: u32 = 1;
const LAZY_TIMER: u32 = 2;
const GATEWAY_TIMER: u32 = 3;
const REQUEST_TIMER: u32 = 4;

/// Accumulated wall time and call count of one kind of call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Total wall time (ns).
    pub ns: u64,
    /// Calls timed.
    pub calls: u64,
}

impl Span {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.close(start);
        out
    }

    fn close(&mut self, start: Instant) -> u64 {
        let ns = start.elapsed().as_nanos() as u64;
        self.ns += ns;
        self.calls += 1;
        ns
    }

    fn merge(&mut self, other: Span) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

/// Per-layer time measured by one host actor (or summed over a world).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerClock {
    /// Whole actor callbacks (`on_start`, `on_message`, `on_timer`,
    /// `on_restart`); everything else in them is the host's own work.
    pub callbacks: Span,
    /// Calls into `GroupEndpoint`.
    pub group: Span,
    /// Calls into the server gateway (`ServerProtocol`).
    pub server: Span,
    /// `ClientGateway::submit_read` (Algorithm 1's selection).
    pub select: Span,
    /// Each `submit_read` call's time (ns), for the percentiles.
    pub select_ns: Vec<u64>,
    /// `ClientGateway::submit_update`.
    pub submit_update: Span,
    /// `ClientGateway::on_payload`, `on_timer` and `on_view`.
    pub reply: Span,
}

impl LayerClock {
    /// Adds `other`'s spans and samples to this clock.
    pub fn merge(&mut self, other: &LayerClock) {
        self.callbacks.merge(other.callbacks);
        self.group.merge(other.group);
        self.server.merge(other.server);
        self.select.merge(other.select);
        self.select_ns.extend_from_slice(&other.select_ns);
        self.submit_update.merge(other.submit_update);
        self.reply.merge(other.reply);
    }
}

/// `ReplicaActor` with timed calls.
struct MirrorReplica {
    ep: GroupEndpoint<Payload>,
    gw: Box<dyn ServerProtocol>,
    service_delay: DelayModel,
    object_kind: ObjectKind,
    service_timers: HashMap<TimerId, u64>,
    group_observers: BTreeMap<GroupId, Vec<ActorId>>,
    clock: LayerClock,
}

impl MirrorReplica {
    fn apply(&mut self, actions: Vec<ServerAction>, ctx: &mut Context<'_, NetMsg>) {
        let clock = &mut self.clock;
        for action in actions {
            match action {
                ServerAction::MulticastPrimary(p) => clock
                    .group
                    .time(|| self.ep.multicast(PRIMARY_GROUP, p, ctx)),
                ServerAction::MulticastSecondary(p) => clock
                    .group
                    .time(|| self.ep.multicast(SECONDARY_GROUP, p, ctx)),
                ServerAction::SendDirect { to, payload } => {
                    clock.group.time(|| self.ep.send_direct(to, payload, ctx))
                }
                ServerAction::StartService { token } => {
                    let now = ctx.now();
                    clock.server.time(|| self.gw.on_service_start(token, now));
                    let factor = ctx.degrade_factor();
                    let mut delay = self.service_delay.sample(ctx.rng());
                    if factor > 1.0 {
                        delay = SimDuration::from_secs_f64(delay.as_secs_f64() * factor);
                    }
                    let id = ctx.set_timer(SERVICE_TIMER, delay);
                    self.service_timers.insert(id, token);
                }
                ServerAction::ArmLazyTimer { after } => {
                    ctx.set_timer(LAZY_TIMER, after);
                }
                ServerAction::JoinGroup { group } => {
                    let observers = self
                        .group_observers
                        .get(&group)
                        .cloned()
                        .unwrap_or_default();
                    clock
                        .group
                        .time(|| self.ep.begin_join(group, observers, ctx));
                }
                ServerAction::LeaveGroup { group } => {
                    clock.group.time(|| self.ep.leave(group, ctx));
                }
            }
        }
    }

    fn absorb(&mut self, events: Vec<GroupEvent<Payload>>, ctx: &mut Context<'_, NetMsg>) {
        for ev in events {
            let now = ctx.now();
            let actions = match ev {
                GroupEvent::Delivered {
                    sender, payload, ..
                }
                | GroupEvent::Direct { sender, payload } => self
                    .clock
                    .server
                    .time(|| self.gw.on_payload(sender, payload, now)),
                GroupEvent::ViewChanged { view, .. } => {
                    self.clock.server.time(|| self.gw.on_view(view, now))
                }
            };
            self.apply(actions, ctx);
        }
    }
}

impl Actor<NetMsg> for MirrorReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let start = Instant::now();
        self.clock.group.time(|| self.ep.on_start(ctx));
        let now = ctx.now();
        let actions = self.clock.server.time(|| self.gw.on_start(now));
        self.apply(actions, ctx);
        self.clock.callbacks.close(start);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let start = Instant::now();
        self.clock.group.time(|| self.ep.on_restart(ctx));
        self.service_timers.clear();
        self.clock.server.time(|| self.gw.crash_storage());
        let fresh = self.object_kind.make();
        let now = ctx.now();
        let actions = self.clock.server.time(|| self.gw.on_restart(fresh, now));
        self.apply(actions, ctx);
        self.clock.callbacks.close(start);
    }

    fn on_message(&mut self, from: ActorId, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        let start = Instant::now();
        let events = self
            .clock
            .group
            .time(|| self.ep.handle_message(from, msg, ctx));
        self.absorb(events, ctx);
        self.clock.callbacks.close(start);
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, NetMsg>) {
        let start = Instant::now();
        if let Some(events) = self.clock.group.time(|| self.ep.handle_timer(timer, ctx)) {
            self.absorb(events, ctx);
        } else {
            let now = ctx.now();
            match timer.kind {
                SERVICE_TIMER => {
                    if let Some(token) = self.service_timers.remove(&timer.id) {
                        let actions = self
                            .clock
                            .server
                            .time(|| self.gw.on_service_done(token, now));
                        self.apply(actions, ctx);
                    }
                }
                LAZY_TIMER => {
                    let actions = self.clock.server.time(|| self.gw.on_lazy_timer(now));
                    self.apply(actions, ctx);
                }
                _ => {}
            }
        }
        self.clock.callbacks.close(start);
    }
}

/// `ClientActor` (without the history hook) with timed calls.
struct MirrorClient {
    ep: GroupEndpoint<Payload>,
    gw: ClientGateway,
    qos: QosSpec,
    pattern: OpPattern,
    request_delay: SimDuration,
    start_offset: SimDuration,
    total_requests: u64,
    object_kind: ObjectKind,
    issued: u64,
    writes_issued: u64,
    timers: HashMap<TimerId, (RequestId, TimerPurpose)>,
    record: ClientRecord,
    done: bool,
    clock: LayerClock,
}

impl MirrorClient {
    fn next_is_read(&mut self, ctx: &mut Context<'_, NetMsg>) -> bool {
        match self.pattern {
            OpPattern::AlternatingWriteRead => self.issued % 2 == 1,
            OpPattern::ReadOnly => true,
            OpPattern::WriteOnly | OpPattern::WriteBurst(_) => false,
            OpPattern::ReadFraction(f) => ctx.rng().gen_bool(f.clamp(0.0, 1.0)),
        }
    }

    fn next_request_delay(&self) -> SimDuration {
        match self.pattern {
            OpPattern::WriteBurst(n) if !self.issued.is_multiple_of(u64::from(n)) => {
                SimDuration::from_millis(20)
            }
            _ => self.request_delay,
        }
    }

    fn issue_next(&mut self, ctx: &mut Context<'_, NetMsg>) {
        if self.issued >= self.total_requests {
            self.done = true;
            return;
        }
        let is_read = self.next_is_read(ctx);
        self.issued += 1;
        let now = ctx.now();
        let me = self.gw.me().index() as u64;
        let actions = if is_read {
            let op = self.object_kind.read_op(me);
            let start = Instant::now();
            let (_, actions) = self.gw.submit_read(op, self.qos, now);
            let ns = self.clock.select.close(start);
            self.clock.select_ns.push(ns);
            actions
        } else {
            let op = self.object_kind.write_op(me, self.writes_issued);
            self.writes_issued += 1;
            let (_, actions) = self
                .clock
                .submit_update
                .time(|| self.gw.submit_update(op, now));
            actions
        };
        self.apply(actions, ctx);
    }

    fn on_completed(&mut self, info: ResponseInfo, ctx: &mut Context<'_, NetMsg>) {
        let record = &mut self.record;
        record.completed += 1;
        if info.shed {
            record.local_sheds += 1;
            ctx.set_timer(REQUEST_TIMER, self.next_request_delay());
            return;
        }
        let ms = info.response_time.as_micros() as f64 / 1e3;
        match info.kind {
            aqf_core::OperationKind::ReadOnly => {
                record.reads_completed += 1;
                record.read_response_ms.record(ms);
                record.response_staleness.record(info.staleness as f64);
                if info.deferred {
                    record.deferred_reads += 1;
                } else if info.timely
                    && !info.degraded
                    && info.staleness > self.qos.staleness_threshold as u64
                {
                    record.staleness_violations += 1;
                }
            }
            aqf_core::OperationKind::Update => record.update_response_ms.record(ms),
        }
        if info.timed_out {
            record.timeouts += 1;
        }
        ctx.set_timer(REQUEST_TIMER, self.next_request_delay());
    }

    fn apply(&mut self, actions: Vec<ClientAction>, ctx: &mut Context<'_, NetMsg>) {
        for action in actions {
            match action {
                ClientAction::MulticastPrimary(p) => self
                    .clock
                    .group
                    .time(|| self.ep.multicast(PRIMARY_GROUP, p, ctx)),
                ClientAction::SendDirect { to, payload } => self
                    .clock
                    .group
                    .time(|| self.ep.send_direct(to, payload, ctx)),
                ClientAction::ArmTimer {
                    req,
                    purpose,
                    after,
                } => {
                    let id = ctx.set_timer(GATEWAY_TIMER, after);
                    self.timers.insert(id, (req, purpose));
                }
                ClientAction::Completed(info) => self.on_completed(info, ctx),
                ClientAction::QosAlert { .. } => self.record.alerts += 1,
                ClientAction::Degrade { .. } => self.record.overload_transitions += 1,
            }
        }
    }

    fn absorb(&mut self, events: Vec<GroupEvent<Payload>>, ctx: &mut Context<'_, NetMsg>) {
        for ev in events {
            let now = ctx.now();
            let actions = match ev {
                GroupEvent::Delivered {
                    sender, payload, ..
                }
                | GroupEvent::Direct { sender, payload } => self
                    .clock
                    .reply
                    .time(|| self.gw.on_payload(sender, payload, now)),
                GroupEvent::ViewChanged { view, .. } => {
                    self.clock.reply.time(|| self.gw.on_view(view, now))
                }
            };
            self.apply(actions, ctx);
        }
    }
}

impl Actor<NetMsg> for MirrorClient {
    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let start = Instant::now();
        self.clock.group.time(|| self.ep.on_start(ctx));
        ctx.set_timer(REQUEST_TIMER, self.start_offset);
        self.clock.callbacks.close(start);
    }

    fn on_message(&mut self, from: ActorId, msg: NetMsg, ctx: &mut Context<'_, NetMsg>) {
        let start = Instant::now();
        let events = self
            .clock
            .group
            .time(|| self.ep.handle_message(from, msg, ctx));
        self.absorb(events, ctx);
        self.clock.callbacks.close(start);
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, NetMsg>) {
        let start = Instant::now();
        if let Some(events) = self.clock.group.time(|| self.ep.handle_timer(timer, ctx)) {
            self.absorb(events, ctx);
        } else {
            match timer.kind {
                GATEWAY_TIMER => {
                    if let Some((req, purpose)) = self.timers.remove(&timer.id) {
                        let now = ctx.now();
                        let actions = self
                            .clock
                            .reply
                            .time(|| self.gw.on_timer(req, purpose, now));
                        self.apply(actions, ctx);
                    }
                }
                REQUEST_TIMER => self.issue_next(ctx),
                _ => {}
            }
        }
        self.clock.callbacks.close(start);
    }
}

/// A scenario hosted by mirror actors.
pub struct MirrorWorld {
    /// The simulation world.
    pub world: World<NetMsg>,
    replica_ids: Vec<ActorId>,
    client_ids: Vec<ActorId>,
}

/// Builds `config` the way `aqf_workload::build_scenario` does, with mirror
/// actors.
///
/// # Errors
///
/// Fails if the configuration does not validate, or has a fault whose
/// target is a role (sequencer, publisher), a correlated group or a link:
/// only static single-process targets can be scheduled at build time.
pub fn build(config: &ScenarioConfig) -> Result<MirrorWorld, String> {
    config.validate()?;
    let mut world: World<NetMsg> = World::new(config.seed);
    let mut net = NetworkModel::new(config.link_delay.clone());
    net.set_loss_probability(config.loss_probability);
    net.set_duplicate_probability(config.duplicate_probability);
    *world.net_mut() = net;

    let np = config.num_primaries;
    let ns = config.num_secondaries;
    let primary_ids: Vec<ActorId> = (0..=np).map(ActorId::from_index).collect();
    let secondary_ids: Vec<ActorId> = (np + 1..=np + ns).map(ActorId::from_index).collect();
    let client_ids: Vec<ActorId> = (np + ns + 1..np + ns + 1 + config.clients.len())
        .map(ActorId::from_index)
        .collect();
    let primary_view = View::new(PRIMARY_GROUP, ViewId(0), primary_ids.clone());
    let secondary_view = if ns > 0 {
        View::new(SECONDARY_GROUP, ViewId(0), secondary_ids.clone())
    } else {
        View::new(SECONDARY_GROUP, ViewId(0), vec![ActorId::from_index(0)])
    };
    let ep_config = EndpointConfig {
        tick_interval: config.group_tick,
        failure_timeout: config.failure_timeout,
        sent_buffer_capacity: 4096,
        detector: config.detector,
        damping: config.damping,
    };
    let mut primary_observers = client_ids.clone();
    primary_observers.extend(secondary_ids.iter().copied());
    let mut secondary_observers = client_ids.clone();
    secondary_observers.extend(primary_ids.iter().copied());
    let group_observers: BTreeMap<GroupId, Vec<ActorId>> = [
        (PRIMARY_GROUP, primary_observers.clone()),
        (SECONDARY_GROUP, secondary_observers.clone()),
    ]
    .into_iter()
    .collect();

    let replicas = primary_ids
        .iter()
        .map(|&id| (id, &primary_view, &primary_observers, &secondary_view))
        .chain(
            secondary_ids
                .iter()
                .map(|&id| (id, &secondary_view, &secondary_observers, &primary_view)),
        );
    for (id, own_view, observers, other_view) in replicas {
        let ep = GroupEndpoint::new(
            id,
            ep_config.clone(),
            vec![GroupMembership {
                view: own_view.clone(),
                observers: observers.clone(),
            }],
            vec![other_view.clone()],
        );
        let actor = MirrorReplica {
            ep,
            gw: make_gateway(config, id, &primary_view, &secondary_view, &client_ids),
            service_delay: config.service_delay.clone(),
            object_kind: config.object,
            service_timers: HashMap::new(),
            group_observers: group_observers.clone(),
            clock: LayerClock::default(),
        };
        assert_eq!(world.add_actor(Box::new(actor)), id);
    }

    for (i, spec) in config.clients.iter().enumerate() {
        let id = client_ids[i];
        let ep = GroupEndpoint::new(
            id,
            ep_config.clone(),
            vec![],
            vec![primary_view.clone(), secondary_view.clone()],
        );
        let gw = ClientGateway::new(
            id,
            primary_view.clone(),
            secondary_view.clone(),
            ClientConfig {
                window_size: config.window_size,
                cdf_bin_us: config.cdf_bin_us,
                rate_window: 16,
                selection_overhead: config.selection_overhead,
                policy: spec.policy,
                give_up: SimDuration::from_secs(10),
                seed: config.seed ^ (i as u64 + 1),
                staleness_model: config.staleness_model,
                ordering: config.ordering,
                recovery: config.recovery,
                overload: config.overload.clone(),
            },
        );
        let actor = MirrorClient {
            ep,
            gw,
            qos: spec.qos,
            pattern: spec.pattern,
            request_delay: spec.request_delay,
            start_offset: spec.start_offset,
            total_requests: spec.total_requests,
            object_kind: config.object,
            issued: 0,
            writes_issued: 0,
            timers: HashMap::new(),
            record: ClientRecord::default(),
            done: false,
            clock: LayerClock::default(),
        };
        assert_eq!(world.add_actor(Box::new(actor)), id);
    }

    for fault in &config.faults {
        let target = match fault.target {
            FaultTarget::Primary(i) => primary_ids[i + 1],
            FaultTarget::Secondary(i) => secondary_ids[i],
            other => return Err(format!("fault target {other:?} is not static")),
        };
        match fault.kind {
            FaultKind::Crash => world.schedule_crash(target, fault.at),
            FaultKind::Restart => world.schedule_restart(target, fault.at),
            FaultKind::Isolate => world.schedule_isolation(target, fault.at),
            FaultKind::Reconnect => world.schedule_reconnection(target, fault.at),
            FaultKind::Degrade { factor } => world.schedule_degrade(target, factor, fault.at),
            FaultKind::Lossy { p } => world.schedule_lossy(target, p, fault.at),
            FaultKind::RestoreGray => world.schedule_restore(target, fault.at),
            FaultKind::CutLink { .. } | FaultKind::HealLink { .. } => {
                return Err("link faults are not mirrored".to_owned())
            }
        }
    }

    let replica_ids = primary_ids.into_iter().chain(secondary_ids).collect();
    Ok(MirrorWorld {
        world,
        replica_ids,
        client_ids,
    })
}

/// The library's gateway choice for one replica, with the same storage
/// seeding.
fn make_gateway(
    config: &ScenarioConfig,
    id: ActorId,
    primary_view: &View,
    secondary_view: &View,
    client_ids: &[ActorId],
) -> Box<dyn ServerProtocol> {
    let mut storage = config.storage.clone();
    storage.seed = config.seed;
    let server_config = ServerConfig {
        lazy_interval: config.lazy_interval,
        clients: client_ids.to_vec(),
        min_primary_size: config.min_primary_size,
        overload: config.overload.clone(),
        storage,
        ..ServerConfig::default()
    };
    let (pv, sv, object) = (
        primary_view.clone(),
        secondary_view.clone(),
        config.object.make(),
    );
    match config.ordering {
        OrderingGuarantee::Fifo => {
            Box::new(FifoServerGateway::new(id, pv, sv, object, server_config))
        }
        OrderingGuarantee::Causal => {
            Box::new(CausalServerGateway::new(id, pv, sv, object, server_config))
        }
        OrderingGuarantee::Sequential => {
            Box::new(ServerGateway::new(id, pv, sv, object, server_config))
        }
    }
}

impl MirrorWorld {
    fn replica(&self, id: ActorId) -> &MirrorReplica {
        self.world.actor(id).expect("mirror replica")
    }

    fn client(&self, id: ActorId) -> &MirrorClient {
        self.world.actor(id).expect("mirror client")
    }

    /// Every actor's clock, summed.
    pub fn clock(&self) -> LayerClock {
        let mut total = LayerClock::default();
        for &id in &self.replica_ids {
            total.merge(&self.replica(id).clock);
        }
        for &id in &self.client_ids {
            total.merge(&self.client(id).clock);
        }
        total
    }

    /// Every group endpoint's counters, clients' endpoints included.
    pub fn group_stats(&self) -> Vec<GroupStats> {
        let replicas = self
            .replica_ids
            .iter()
            .map(|&id| self.replica(id).ep.stats());
        let clients = self.client_ids.iter().map(|&id| self.client(id).ep.stats());
        replicas.chain(clients).collect()
    }

    /// Every replica's server-gateway counters.
    pub fn server_stats(&self) -> Vec<ServerStats> {
        self.replica_ids
            .iter()
            .map(|&id| self.replica(id).gw.stats())
            .collect()
    }

    /// Every client's gateway counters.
    pub fn client_stats(&self) -> Vec<ClientStats> {
        self.client_ids
            .iter()
            .map(|&id| self.client(id).gw.stats())
            .collect()
    }

    /// The run's observable outcome, for comparison with the library run.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            world: self.world.stats(),
            clients: self
                .client_ids
                .iter()
                .map(|&id| {
                    let c = self.client(id);
                    ClientPrint::new(c.gw.stats(), &c.record)
                })
                .collect(),
            servers: self
                .replica_ids
                .iter()
                .map(|&id| {
                    let r = self.replica(id);
                    ServerPrint::new(&*r.gw, r.ep.stats(), self.world.is_alive(id))
                })
                .collect(),
        }
    }
}

impl Drive for MirrorWorld {
    fn now(&self) -> SimTime {
        self.world.now()
    }

    fn run_until(&mut self, until: SimTime) {
        self.world.run_until(until);
    }

    fn all_clients_done(&self) -> bool {
        self.client_ids.iter().all(|&id| self.client(id).done)
    }
}

/// One client's counters and record totals.
#[derive(Debug, Clone, PartialEq)]
struct ClientPrint {
    stats: ClientStats,
    record: [u64; 8],
    read_ms: (usize, Option<f64>),
    update_ms: (usize, Option<f64>),
}

impl ClientPrint {
    fn new(stats: ClientStats, r: &ClientRecord) -> ClientPrint {
        ClientPrint {
            stats,
            record: [
                r.completed,
                r.reads_completed,
                r.deferred_reads,
                r.timeouts,
                r.alerts,
                r.staleness_violations,
                r.local_sheds,
                r.overload_transitions,
            ],
            read_ms: (r.read_response_ms.count(), r.read_response_ms.mean()),
            update_ms: (r.update_response_ms.count(), r.update_response_ms.mean()),
        }
    }
}

/// One replica's sequence numbers and counters.
#[derive(Debug, Clone, PartialEq)]
struct ServerPrint {
    seq: [u64; 3],
    alive: bool,
    stats: ServerStats,
    group: GroupStats,
}

impl ServerPrint {
    fn new(gw: &dyn ServerProtocol, group: GroupStats, alive: bool) -> ServerPrint {
        ServerPrint {
            seq: [gw.csn(), gw.applied_csn(), gw.gsn()],
            alive,
            stats: gw.stats(),
            group,
        }
    }
}

/// What must match between a library run and its mirror: world counters,
/// every client's gateway counters and record (completed, reads, timing
/// failures among them), and every replica's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// World counters.
    pub world: WorldStats,
    clients: Vec<ClientPrint>,
    servers: Vec<ServerPrint>,
}

impl Fingerprint {
    /// The fingerprint of a library-hosted run.
    pub fn of_library(built: &BuiltScenario) -> Fingerprint {
        let world = &built.world;
        Fingerprint {
            world: world.stats(),
            clients: built
                .client_ids
                .iter()
                .map(|&id| {
                    let c: &ClientActor = world.actor(id).expect("client actor");
                    ClientPrint::new(c.gateway().stats(), c.record())
                })
                .collect(),
            servers: built
                .primary_ids
                .iter()
                .chain(&built.secondary_ids)
                .map(|&id| {
                    let r: &ReplicaActor = world.actor(id).expect("replica actor");
                    ServerPrint::new(r.gateway(), r.endpoint().stats(), world.is_alive(id))
                })
                .collect(),
        }
    }

    /// The first difference from `other`, described for a failure message.
    pub fn first_difference(&self, other: &Fingerprint) -> Option<String> {
        if self.world != other.world {
            return Some(format!("world {:?} vs {:?}", self.world, other.world));
        }
        let clients = self.clients.iter().zip(&other.clients).enumerate();
        if let Some((i, (a, b))) = clients.clone().find(|(_, (a, b))| a != b) {
            return Some(format!("client {i}: {a:?} vs {b:?}"));
        }
        let servers = self.servers.iter().zip(&other.servers).enumerate();
        if let Some((i, (a, b))) = servers.clone().find(|(_, (a, b))| a != b) {
            return Some(format!("server {i}: {a:?} vs {b:?}"));
        }
        (self != other).then(|| "actor counts differ".to_owned())
    }
}
