//! The simulation driver: a deterministic discrete-event loop hosting
//! message-passing actors on a modeled cluster network.
//!
//! One [`Actor`] runs per [`NodeId`]. Actors communicate exclusively by
//! sending [`Message`]s through [`Ctx::send`]; delivery times come from the
//! [`Network`] bandwidth model. Everything — RNG, event ordering, timer
//! firing — is deterministic given the seed, so experiments are exactly
//! reproducible.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use sads_telemetry::{FastMap, NodeLabel, Registry};
use sads_trace::{FlightEvent, FlightRecorder, SpanKind, SpanRecord, SpanSink, TraceCtx};

use crate::message::Message;
use crate::metrics::{Metrics, Sample};
use crate::net::{NetConfig, Network, NodeConfig, NodeId};
use crate::time::{SimDuration, SimTime};

/// A simulated process. Implementations are state machines driven by
/// message deliveries and timer firings.
pub trait Actor: Send {
    /// Called once when the node is added to the world.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A message from `from` has been fully received.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Box<dyn Message>);

    /// A timer armed with [`Ctx::set_timer`] has fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Optional post-run inspection hook: return `Some(self)` to let
    /// harnesses downcast and examine actor state after the simulation
    /// (used by the visualization tooling and tests).
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

enum EventKind {
    Start { node: NodeId },
    Deliver { from: NodeId, to: NodeId, msg: Box<dyn Message>, trace: Option<TraceCtx> },
    Timer { node: NodeId, token: u64 },
}

impl EventKind {
    /// The node whose liveness gates this event's delivery.
    fn target(&self) -> NodeId {
        match self {
            EventKind::Start { node } | EventKind::Timer { node, .. } => *node,
            EventKind::Deliver { to, .. } => *to,
        }
    }

    /// Small discriminant folded into the event digest.
    fn tag(&self) -> u64 {
        match self {
            EventKind::Start { .. } => 1,
            EventKind::Deliver { .. } => 2,
            EventKind::Timer { .. } => 3,
        }
    }
}

struct Event {
    at: SimTime,
    seq: u64,
    /// Incarnation of the target node when the event was scheduled. A
    /// crash bumps the node's epoch, so events addressed to a previous
    /// incarnation (stale timers, in-flight messages) are discarded at
    /// dispatch instead of leaking into the restarted actor.
    epoch: u32,
    kind: EventKind,
}

// Events order by `(at, seq)`: time, then push order among equal times.
impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Why a `run_*` call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Quiescent,
    /// The requested deadline was reached with events still pending.
    DeadlineReached,
    /// The safety event limit was hit (probable livelock in actor logic).
    EventLimit,
}

/// The simulation world: clock, event queue, actors, network, RNG, the
/// telemetry registry its nodes record into, and the log of their
/// recorded samples.
pub struct World {
    now: SimTime,
    seq: u64,
    /// Pending events, earliest `(at, seq)` first: equal times pop in
    /// push order.
    queue: BinaryHeap<Reverse<Event>>,
    actors: Vec<Option<Box<dyn Actor>>>,
    /// Per-node incarnation counter, bumped by [`World::crash`]; see
    /// [`Event::epoch`].
    epochs: Vec<u32>,
    net: Network,
    rng: SmallRng,
    events_processed: u64,
    /// Probability that a [`Ctx::send`]/[`Ctx::send_after`] message is
    /// silently lost, with a dedicated RNG so enabling loss never
    /// perturbs the actors' own random draws. `None` = lossless (the
    /// default); no RNG is consulted at all in that case, keeping
    /// fault-free traces byte-identical to builds without this knob.
    loss: Option<(f64, SmallRng)>,
    /// Span collector, when tracing is enabled. Tracing is purely
    /// observational: it never schedules events, draws RNG, or alters
    /// transfer arithmetic, so the event schedule is identical with the
    /// sink present or absent (verified by [`World::event_digest`]).
    span_sink: Option<Arc<SpanSink>>,
    /// The live metrics registry every counter and gauge of the world
    /// lands in. Like tracing it is purely observational — it never
    /// schedules events or draws RNG.
    telemetry: Arc<Registry>,
    /// What [`Ctx::record`] logged, per name, in call order.
    samples: FastMap<String, Vec<Sample>>,
    /// Flight recorder, when attached: every dispatched event is mirrored
    /// into the recorder's `"sim"` ring (a cached `Arc` so the per-event
    /// cost is one short mutex hold). Purely observational like the span
    /// sink — the event schedule is byte-identical with it on or off.
    flight: Option<(Arc<FlightRecorder>, Arc<sads_trace::Ring>)>,
    /// Running FNV-style fold over every dispatched event's
    /// `(time, seq, target, kind)`. Always on (a few integer ops per
    /// event); lets tests assert two runs executed byte-identical event
    /// schedules without retaining the schedules.
    digest: u64,
}

impl World {
    /// Create a world with the given RNG seed and network parameters.
    pub fn new(seed: u64, net_cfg: NetConfig) -> Self {
        World {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            actors: Vec::new(),
            epochs: Vec::new(),
            net: Network::new(net_cfg),
            rng: SmallRng::seed_from_u64(seed),
            events_processed: 0,
            loss: None,
            span_sink: None,
            telemetry: Arc::new(Registry::new()),
            samples: FastMap::default(),
            flight: None,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Create a world with default LAN parameters (1 Gb/s NICs, 100 µs).
    pub fn with_seed(seed: u64) -> Self {
        Self::new(seed, NetConfig::default())
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Order-sensitive digest of every event dispatched so far. Two runs
    /// that executed byte-identical event schedules have equal digests;
    /// any divergence in timing, ordering, or targeting changes it.
    pub fn event_digest(&self) -> u64 {
        self.digest
    }

    /// Install a span sink: every traced message transfer records a
    /// `Net` span, and actors can observe the sink through
    /// [`Ctx::span_sink`]. Tracing never perturbs the event schedule —
    /// see [`World::event_digest`].
    pub fn set_span_sink(&mut self, sink: Arc<SpanSink>) {
        self.span_sink = Some(sink);
    }

    /// The installed span sink, if tracing is enabled.
    pub fn span_sink(&self) -> Option<&Arc<SpanSink>> {
        self.span_sink.as_ref()
    }

    /// The world's live telemetry registry: actors reach it through
    /// [`Ctx::telemetry`], and [`World::metrics`] reads it.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// Attach a flight recorder: every dispatched event is mirrored into
    /// its `"sim"` ring as a [`FlightEvent`] (`a` = event seq, `b` = event
    /// kind tag). Recording never perturbs the event schedule — see
    /// [`World::event_digest`].
    pub fn set_flight_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        let ring = recorder.ring("sim");
        self.flight = Some((recorder, ring));
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref().map(|(r, _)| r)
    }

    /// Add a node running `actor` with NIC config `cfg`. Its
    /// [`Actor::on_start`] runs at the current simulation time.
    pub fn add_node(&mut self, actor: Box<dyn Actor>, cfg: NodeConfig) -> NodeId {
        let id = self.net.add_node(cfg);
        debug_assert_eq!(id.index(), self.actors.len());
        self.actors.push(Some(actor));
        self.epochs.push(0);
        self.push(self.now, EventKind::Start { node: id });
        id
    }

    /// Inject a message from outside the simulation (bootstrap traffic).
    /// Delivered almost immediately, bypassing the network model.
    pub fn send_external(&mut self, to: NodeId, msg: Box<dyn Message>) {
        if let Some(at) = self.net.schedule_transfer(self.now, NodeId::EXTERNAL, to, 0) {
            self.push(at, EventKind::Deliver { from: NodeId::EXTERNAL, to, msg, trace: None });
        }
    }

    /// Crash a node: its NIC goes down, undelivered messages to it are
    /// dropped, its timers stop firing, and its actor is discarded.
    ///
    /// The node's incarnation epoch is bumped, so any event already in
    /// the queue for the old incarnation (an armed timer, a message in
    /// flight) is dead on arrival even if the node is later
    /// [restarted](World::restart) — a restarted node begins from a
    /// clean slate, exactly like a freshly added one.
    pub fn crash(&mut self, node: NodeId) {
        self.net.set_down(node);
        if let Some(slot) = self.actors.get_mut(node.index()) {
            *slot = None;
        }
        if let Some(e) = self.epochs.get_mut(node.index()) {
            *e += 1;
        }
    }

    /// Restart a previously [crashed](World::crash) node at the same
    /// [`NodeId`] with a fresh actor. The NIC comes back up with empty
    /// pipes, the actor's [`Actor::on_start`] runs at the current time,
    /// and nothing from the previous incarnation (state, timers,
    /// in-flight messages) survives. No-op if the node id was never
    /// added; replaces the live actor if the node was not actually down.
    pub fn restart(&mut self, node: NodeId, actor: Box<dyn Actor>) {
        let Some(slot) = self.actors.get_mut(node.index()) else {
            return;
        };
        *slot = Some(actor);
        self.net.set_up(node, self.now);
        self.push(self.now, EventKind::Start { node });
    }

    /// Make every [`Ctx::send`]/[`Ctx::send_after`] message be lost with
    /// probability `prob` (clamped to `[0, 1]`), using a dedicated RNG
    /// seeded with `seed` so the loss pattern is deterministic and
    /// independent of the actors' own random draws. Expedited sends
    /// (transport-level control traffic) are never dropped. A `prob` of
    /// zero turns loss off entirely; lost messages count under the
    /// `net.msg_lost` metric.
    pub fn set_message_loss(&mut self, prob: f64, seed: u64) {
        self.loss = if prob > 0.0 {
            Some((prob.min(1.0), SmallRng::seed_from_u64(seed)))
        } else {
            None
        };
    }

    /// Should the message currently being sent be dropped? Draws from
    /// the loss RNG only when loss injection is active.
    fn lose_message(&mut self) -> bool {
        let Some((prob, rng)) = &mut self.loss else {
            return false;
        };
        if rand::Rng::random_bool(rng, *prob) {
            self.telemetry.inc("net.msg_lost", &[], 1);
            true
        } else {
            false
        }
    }

    /// Is the node alive?
    pub fn is_up(&self, node: NodeId) -> bool {
        self.net.is_up(node) && self.actors.get(node.index()).is_some_and(Option::is_some)
    }

    /// Network state (NIC counters etc.).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Downcast a live actor for post-run inspection (requires the actor
    /// to opt in via [`Actor::as_any`]).
    pub fn actor_as<T: 'static>(&self, node: NodeId) -> Option<&T> {
        self.actors
            .get(node.index())?
            .as_deref()?
            .as_any()?
            .downcast_ref::<T>()
    }

    /// A reader over the counters and time series recorded so far.
    pub fn metrics(&self) -> Metrics<'_> {
        Metrics { registry: &self.telemetry, samples: &self.samples }
    }

    fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        let epoch = self.epoch_of(kind.target());
        self.queue.push(Reverse(Event { at, seq, epoch, kind }));
    }

    /// Current incarnation of `node` (0 for ids outside the actor table,
    /// e.g. [`NodeId::EXTERNAL`]).
    fn epoch_of(&self, node: NodeId) -> u32 {
        self.epochs.get(node.index()).copied().unwrap_or(0)
    }

    /// Run until the queue drains or `deadline` passes, with a safety cap
    /// of `max_events`.
    pub fn run_until(&mut self, deadline: SimTime, max_events: u64) -> RunOutcome {
        let mut budget = max_events;
        loop {
            let Some(Reverse(head)) = self.queue.peek() else {
                return RunOutcome::Quiescent;
            };
            if head.at > deadline {
                self.now = deadline;
                return RunOutcome::DeadlineReached;
            }
            if budget == 0 {
                return RunOutcome::EventLimit;
            }
            budget -= 1;
            let Reverse(ev) = self.queue.pop().expect("peeked");
            debug_assert!(ev.at >= self.now, "time must not go backwards");
            self.now = ev.at;
            self.events_processed += 1;
            for v in [ev.at.as_nanos(), ev.seq, ev.kind.target().0 as u64, ev.kind.tag()] {
                self.digest = (self.digest ^ v).wrapping_mul(0x1000_0000_01b3);
            }
            if let Some((_, ring)) = &self.flight {
                ring.record(FlightEvent {
                    at_ns: ev.at.as_nanos(),
                    dur_ns: 0,
                    label: match ev.kind.tag() {
                        1 => "start",
                        2 => "deliver",
                        _ => "timer",
                    },
                    node: ev.kind.target().0 as u64,
                    a: ev.seq,
                    b: ev.kind.tag(),
                });
            }
            if ev.epoch != self.epoch_of(ev.kind.target()) {
                // Addressed to a crashed incarnation: dead on arrival.
                self.telemetry.inc("sim.stale_events", &[], 1);
                continue;
            }
            self.dispatch(ev.kind);
        }
    }

    /// Run for a span of simulated time from now.
    pub fn run_for(&mut self, span: SimDuration, max_events: u64) -> RunOutcome {
        self.run_until(self.now + span, max_events)
    }

    /// Run until the queue drains (bounded by `max_events`).
    pub fn run_to_quiescence(&mut self, max_events: u64) -> RunOutcome {
        self.run_until(SimTime::MAX, max_events)
    }

    /// Advance the clock to `t` if it is in the future (no-op otherwise,
    /// and `SimTime::MAX` is not a reachable instant). Used by harnesses
    /// that act on the world at scheduled points — fault injection,
    /// periodic snapshots — even when the event queue is momentarily
    /// empty, in which case [`World::run_until`] returns with the clock
    /// still at the last processed event.
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now && t < SimTime::MAX {
            self.now = t;
        }
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Start { node } => self.with_actor(node, None, |a, ctx| a.on_start(ctx)),
            EventKind::Timer { node, token } => {
                self.with_actor(node, None, |a, ctx| a.on_timer(ctx, token))
            }
            EventKind::Deliver { from, to, msg, trace } => {
                self.with_actor(to, trace, |a, ctx| a.on_message(ctx, from, msg))
            }
        }
    }

    fn with_actor(
        &mut self,
        node: NodeId,
        trace: Option<TraceCtx>,
        f: impl FnOnce(&mut dyn Actor, &mut Ctx<'_>),
    ) {
        if !self.net.is_up(node) {
            return;
        }
        let Some(slot) = self.actors.get_mut(node.index()) else {
            return;
        };
        let Some(mut actor) = slot.take() else {
            return;
        };
        let mut ctx = Ctx { world: self, id: node, trace };
        f(actor.as_mut(), &mut ctx);
        // A handler may crash its own node; only restore if still up.
        if self.net.is_up(node) {
            self.actors[node.index()] = Some(actor);
        }
    }
}

/// Handler-side view of the world: everything an actor may do while
/// processing an event.
pub struct Ctx<'a> {
    world: &'a mut World,
    id: NodeId,
    /// Causal context the current event was delivered with; outgoing
    /// sends inherit it, so replies propagate the trace with zero
    /// per-actor code.
    trace: Option<TraceCtx>,
}

impl Ctx<'_> {
    /// This actor's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// The causal context the event being handled arrived with (set by
    /// the sender, or overridden via [`Ctx::set_trace_ctx`]).
    pub fn trace_ctx(&self) -> Option<TraceCtx> {
        self.trace
    }

    /// Override the ambient causal context for the rest of this handler
    /// invocation (used by protocol roots — e.g. a client starting an
    /// operation — and by state machines resuming a session from a
    /// timer, where no delivery carried the context).
    pub fn set_trace_ctx(&mut self, trace: Option<TraceCtx>) {
        self.trace = trace;
    }

    /// The world's span sink, if tracing is enabled.
    pub fn span_sink(&self) -> Option<Arc<SpanSink>> {
        self.world.span_sink.clone()
    }

    /// The world's live telemetry registry.
    pub fn telemetry(&self) -> &Registry {
        &self.world.telemetry
    }

    /// Record a `Net` span for a transfer of `msg` departing `start` and
    /// delivered at `at`, as a child of the ambient trace context.
    fn trace_transfer(
        &mut self,
        msg: &dyn Message,
        start: SimTime,
        at: SimTime,
        timing: crate::net::TransferTiming,
    ) {
        let (Some(sink), Some(tc)) = (&self.world.span_sink, self.trace) else {
            return;
        };
        sink.record(SpanRecord {
            trace: tc.trace_id,
            span: sink.next_id(),
            parent: tc.span_id,
            service: "net",
            op: msg.op_name(),
            node: self.id.0 as u64,
            start_ns: start.as_nanos(),
            end_ns: at.as_nanos(),
            kind: SpanKind::Net,
            class: msg.span_class(),
            queue_ns: timing.queue_ns,
            xfer_ns: timing.xfer_ns,
            wire_ns: timing.wire_ns,
        });
    }

    /// Send `msg` to `to` through the modeled network. Silently dropped if
    /// either endpoint is down (like a real datagram), or — under
    /// [`World::set_message_loss`] — with the configured probability.
    pub fn send(&mut self, to: NodeId, msg: Box<dyn Message>) {
        if self.world.lose_message() {
            return;
        }
        let size = msg.wire_size();
        let now = self.world.now;
        if let Some((at, timing)) = self.world.net.schedule_transfer_timed(now, self.id, to, size)
        {
            self.trace_transfer(msg.as_ref(), now, at, timing);
            let trace = self.trace;
            self.world.push(at, EventKind::Deliver { from: self.id, to, msg, trace });
        }
    }

    /// Send bypassing this node's egress queue (transport-level control
    /// traffic: refusals, resets). Use sparingly — only for messages a
    /// real kernel would emit without waiting behind application data.
    pub fn send_expedited(&mut self, to: NodeId, msg: Box<dyn Message>) {
        let size = msg.wire_size();
        let now = self.world.now;
        if let Some(at) = self.world.net.schedule_transfer_expedited(now, self.id, to, size) {
            let timing = crate::net::TransferTiming {
                wire_ns: at.since(now).as_nanos(),
                ..Default::default()
            };
            self.trace_transfer(msg.as_ref(), now, at, timing);
            let trace = self.trace;
            self.world.push(at, EventKind::Deliver { from: self.id, to, msg, trace });
        }
    }

    /// Send after first spending `delay` of local processing time (models
    /// CPU cost before the reply hits the NIC).
    pub fn send_after(&mut self, delay: SimDuration, to: NodeId, msg: Box<dyn Message>) {
        if self.world.lose_message() {
            return;
        }
        // Model: occupy nothing locally, just delay the network entry.
        let size = msg.wire_size();
        let start = self.world.now + delay;
        if let Some((at, timing)) =
            self.world.net.schedule_transfer_timed(start, self.id, to, size)
        {
            self.trace_transfer(msg.as_ref(), start, at, timing);
            let trace = self.trace;
            self.world.push(at, EventKind::Deliver { from: self.id, to, msg, trace });
        }
    }

    /// Arm a one-shot timer firing after `delay` with the given token.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.world.now + delay;
        let node = self.id;
        self.world.push(at, EventKind::Timer { node, token });
    }

    /// Deterministic RNG shared by the whole world.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.world.rng
    }

    /// Record a time-series observation: this node's `name` gauge, and one
    /// more sample in the world's log for `name`.
    pub fn record(&mut self, name: &str, value: f64) {
        let node = NodeLabel::new(self.id.0);
        self.world.telemetry.set(name, &[("node", node.as_str())], value);
        let sample = Sample { at: self.world.now, value };
        match self.world.samples.get_mut(name) {
            Some(log) => log.push(sample),
            None => {
                self.world.samples.insert(name.to_string(), vec![sample]);
            }
        }
    }

    /// Increment this node's `name` counter.
    pub fn incr(&mut self, name: &str, delta: u64) {
        let node = NodeLabel::new(self.id.0);
        self.world.telemetry.inc(name, &[("node", node.as_str())], delta);
    }

    /// Spawn a new node at runtime (used by the elasticity controller to
    /// expand the provider pool). Its `on_start` runs after this event.
    pub fn spawn(&mut self, actor: Box<dyn Actor>, cfg: NodeConfig) -> NodeId {
        self.world.add_node(actor, cfg)
    }

    /// Crash a node (possibly this one).
    pub fn crash(&mut self, node: NodeId) {
        self.world.crash(node);
    }

    /// Is a node currently up?
    pub fn is_up(&self, node: NodeId) -> bool {
        self.world.net.is_up(node)
    }

    /// Outstanding ingress backlog of a node, as seen by an oracle. Used
    /// by load-probe actors that model SNMP-style NIC inspection.
    pub fn ingress_backlog(&self, node: NodeId) -> SimDuration {
        self.world.net.nic(node).ingress_backlog(self.world.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_message;

    #[derive(Debug)]
    struct Tick;
    impl_message!(Tick);

    #[derive(Debug)]
    struct Blob(u64);
    impl_message!(Blob, |m: &Blob| m.0);

    /// Echoes every message back to the sender, counting them.
    struct Echo {
        seen: u64,
    }
    impl Actor for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, _msg: Box<dyn Message>) {
            self.seen += 1;
            ctx.incr("echo.seen", 1);
            if from != NodeId::EXTERNAL {
                ctx.send(from, Box::new(Tick));
            }
        }
    }

    /// Sends one message to a peer on start, records when the echo returns.
    struct Pinger {
        peer: NodeId,
        bytes: u64,
    }
    impl Actor for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.peer, Box::new(Blob(self.bytes)));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, _msg: Box<dyn Message>) {
            ctx.record("rtt_done", ctx.now().as_secs_f64());
        }
    }

    #[test]
    fn ping_pong_round_trip_time_matches_model() {
        let mut w = World::new(1, NetConfig { latency: SimDuration::from_millis(1), header_bytes: 0 });
        let echo = w.add_node(Box::new(Echo { seen: 0 }), NodeConfig::with_bandwidth(1_000_000));
        let _p = w.add_node(
            Box::new(Pinger { peer: echo, bytes: 1_000_000 }),
            NodeConfig::with_bandwidth(1_000_000),
        );
        assert_eq!(w.run_to_quiescence(1000), RunOutcome::Quiescent);
        // Outbound: 1s egress + 1ms + 1s ingress; echo reply is size 0:
        // + 1ms. Total ≈ 2.002 s.
        let done = w.metrics().series("rtt_done")[0].value;
        assert!((done - 2.002).abs() < 1e-6, "got {done}");
        assert_eq!(w.metrics().counter("echo.seen"), 1);
    }

    #[test]
    fn timers_fire_in_order_and_once() {
        struct T {
            fired: Vec<u64>,
        }
        impl Actor for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(2), 2);
                ctx.set_timer(SimDuration::from_secs(1), 1);
                ctx.set_timer(SimDuration::from_secs(3), 3);
                // Same instant: they fire in the order they were armed.
                ctx.set_timer(SimDuration::from_secs(4), 5);
                ctx.set_timer(SimDuration::from_secs(4), 4);
            }
            fn on_message(&mut self, _c: &mut Ctx<'_>, _f: NodeId, _m: Box<dyn Message>) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                self.fired.push(token);
                ctx.record("fired", token as f64);
            }
        }
        let mut w = World::with_seed(7);
        w.add_node(Box::new(T { fired: vec![] }), NodeConfig::default());
        w.run_to_quiescence(100);
        let fired: Vec<f64> = w.metrics().series("fired").iter().map(|s| s.value).collect();
        assert_eq!(fired, vec![1.0, 2.0, 3.0, 5.0, 4.0]);
        assert_eq!(w.now().as_secs_f64(), 4.0);
    }

    #[test]
    fn crashed_nodes_receive_nothing() {
        let mut w = World::with_seed(3);
        let echo = w.add_node(Box::new(Echo { seen: 0 }), NodeConfig::default());
        w.run_to_quiescence(10);
        w.crash(echo);
        assert!(!w.is_up(echo));
        w.send_external(echo, Box::new(Tick));
        w.run_to_quiescence(10);
        assert_eq!(w.metrics().counter("echo.seen"), 0);
    }

    /// A reply to a message from outside the simulation leaves it: every
    /// send path drops it before touching a NIC.
    #[test]
    fn a_reply_to_external_leaves_the_simulation() {
        struct Answer;
        impl Actor for Answer {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, _msg: Box<dyn Message>) {
                ctx.incr("answer.seen", 1);
                ctx.send(from, Box::new(Tick));
                ctx.send_after(SimDuration::from_millis(1), from, Box::new(Tick));
                ctx.send_expedited(from, Box::new(Tick));
            }
        }
        let mut w = World::with_seed(3);
        let a = w.add_node(Box::new(Answer), NodeConfig::default());
        w.send_external(a, Box::new(Tick));
        assert_eq!(w.run_to_quiescence(10), RunOutcome::Quiescent);
        assert_eq!(w.metrics().counter("answer.seen"), 1);
    }

    #[test]
    fn deadline_stops_before_future_events() {
        let mut w = World::with_seed(3);
        struct Sleeper;
        impl Actor for Sleeper {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(100), 0);
            }
            fn on_message(&mut self, _c: &mut Ctx<'_>, _f: NodeId, _m: Box<dyn Message>) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                ctx.incr("fired", 1);
            }
        }
        w.add_node(Box::new(Sleeper), NodeConfig::default());
        let out = w.run_for(SimDuration::from_secs(10), 1000);
        assert_eq!(out, RunOutcome::DeadlineReached);
        assert_eq!(w.metrics().counter("fired"), 0);
        assert_eq!(w.now().as_secs_f64(), 10.0);
        let out = w.run_to_quiescence(1000);
        assert_eq!(out, RunOutcome::Quiescent);
        assert_eq!(w.metrics().counter("fired"), 1);
    }

    #[test]
    fn event_limit_detects_livelock() {
        struct Loop {
            me: Option<NodeId>,
        }
        impl Actor for Loop {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.me = Some(ctx.id());
                ctx.set_timer(SimDuration::from_nanos(1), 0);
            }
            fn on_message(&mut self, _c: &mut Ctx<'_>, _f: NodeId, _m: Box<dyn Message>) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                ctx.set_timer(SimDuration::from_nanos(1), 0);
            }
        }
        let mut w = World::with_seed(0);
        w.add_node(Box::new(Loop { me: None }), NodeConfig::default());
        assert_eq!(w.run_to_quiescence(100), RunOutcome::EventLimit);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64, sink: Option<Arc<SpanSink>>) -> (u64, f64, u64) {
            let mut w = World::with_seed(seed);
            if let Some(sink) = sink {
                w.set_span_sink(sink);
            }
            let echo = w.add_node(Box::new(Echo { seen: 0 }), NodeConfig::default());
            for _ in 0..10 {
                let _ = w.add_node(
                    Box::new(Pinger { peer: echo, bytes: 8 << 20 }),
                    NodeConfig::default(),
                );
            }
            w.run_to_quiescence(10_000);
            (w.events_processed(), w.now().as_secs_f64(), w.event_digest())
        }
        assert_eq!(run(42, None), run(42, None));
        // Installing a span sink must not perturb the event schedule:
        // tracing observes, never schedules.
        assert_eq!(run(42, None), run(42, Some(Arc::new(SpanSink::new()))));
    }

    #[test]
    fn traced_sends_record_net_spans_and_propagate_context() {
        /// Starts a trace, sends to the peer; the peer's reply (sent with
        /// no tracing code of its own) must carry the same trace.
        struct Tracer {
            peer: NodeId,
        }
        impl Actor for Tracer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let sink = ctx.span_sink().expect("sink installed");
                let trace_id = sink.next_id();
                let root = sink.next_id();
                ctx.set_trace_ctx(Some(TraceCtx { trace_id, span_id: root, parent: 0 }));
                ctx.send(self.peer, Box::new(Blob(1 << 20)));
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _f: NodeId, _m: Box<dyn Message>) {
                assert!(ctx.trace_ctx().is_some(), "reply must carry the trace");
                ctx.incr("tracer.reply_traced", 1);
            }
        }
        let mut w = World::with_seed(4);
        let sink = Arc::new(SpanSink::new());
        w.set_span_sink(Arc::clone(&sink));
        let echo = w.add_node(Box::new(Echo { seen: 0 }), NodeConfig::default());
        w.add_node(Box::new(Tracer { peer: echo }), NodeConfig::default());
        w.run_to_quiescence(1_000);
        assert_eq!(w.metrics().counter("tracer.reply_traced"), 1);
        let spans = sink.spans();
        // Outbound data message + echoed reply, both in the same trace.
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].trace, spans[1].trace);
        assert!(spans.iter().all(|s| s.kind == SpanKind::Net));
        let data = &spans[0];
        assert!(data.xfer_ns > 0, "1 MiB at 1 Gb/s serializes for >0 ns");
        assert_eq!(
            data.duration_ns(),
            data.queue_ns + data.xfer_ns + data.wire_ns,
            "breakdown must sum to the delivery delay"
        );
    }

    #[test]
    fn restart_discards_stale_timers_and_messages() {
        /// Arms a 5 s timer on start; counts starts and timer firings.
        struct Beeper;
        impl Actor for Beeper {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.incr("beeper.starts", 1);
                ctx.set_timer(SimDuration::from_secs(5), 0);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _f: NodeId, _m: Box<dyn Message>) {
                ctx.incr("beeper.msgs", 1);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                ctx.incr("beeper.beeps", 1);
            }
        }
        let mut w = World::with_seed(11);
        let b = w.add_node(Box::new(Beeper), NodeConfig::default());
        w.run_for(SimDuration::from_secs(1), 100); // started, timer armed at t=5
        w.send_external(b, Box::new(Tick)); // in flight when the crash hits
        w.crash(b);
        assert!(!w.is_up(b));
        w.run_for(SimDuration::from_secs(1), 100);
        w.restart(b, Box::new(Beeper));
        assert_eq!(w.run_to_quiescence(100), RunOutcome::Quiescent);
        assert!(w.is_up(b));
        // Two incarnations started; only the second one's timer fired; the
        // message addressed to the first incarnation died with it.
        assert_eq!(w.metrics().counter("beeper.starts"), 2);
        assert_eq!(w.metrics().counter("beeper.beeps"), 1);
        assert_eq!(w.metrics().counter("beeper.msgs"), 0);
        assert!(w.metrics().counter("sim.stale_events") >= 1);
    }

    #[test]
    fn message_loss_drops_sends_but_not_expedited() {
        struct Chatty {
            peer: NodeId,
        }
        impl Actor for Chatty {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for _ in 0..20 {
                    ctx.send(self.peer, Box::new(Tick));
                }
                ctx.send_expedited(self.peer, Box::new(Tick));
            }
            fn on_message(&mut self, _c: &mut Ctx<'_>, _f: NodeId, _m: Box<dyn Message>) {}
        }
        struct Sink;
        impl Actor for Sink {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _f: NodeId, _m: Box<dyn Message>) {
                ctx.incr("sink.got", 1);
            }
        }
        let mut w = World::with_seed(9);
        w.set_message_loss(1.0, 77);
        let sink = w.add_node(Box::new(Sink), NodeConfig::default());
        w.add_node(Box::new(Chatty { peer: sink }), NodeConfig::default());
        w.run_to_quiescence(1000);
        // All 20 regular sends lost; the expedited control packet arrives.
        assert_eq!(w.metrics().counter("sink.got"), 1);
        assert_eq!(w.metrics().counter("net.msg_lost"), 20);
    }

    #[test]
    fn spawn_at_runtime_starts_new_actor() {
        struct Spawner;
        impl Actor for Spawner {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_message(&mut self, _c: &mut Ctx<'_>, _f: NodeId, _m: Box<dyn Message>) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
                struct Child;
                impl Actor for Child {
                    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                        ctx.incr("child.started", 1);
                    }
                    fn on_message(&mut self, _c: &mut Ctx<'_>, _f: NodeId, _m: Box<dyn Message>) {}
                }
                ctx.spawn(Box::new(Child), NodeConfig::default());
            }
        }
        let mut w = World::with_seed(5);
        w.add_node(Box::new(Spawner), NodeConfig::default());
        w.run_to_quiescence(100);
        assert_eq!(w.metrics().counter("child.started"), 1);
    }
}
