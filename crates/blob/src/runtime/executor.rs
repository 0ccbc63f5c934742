//! Sharded work-stealing service executor.
//!
//! The threaded runtime used to give every actor its own OS thread; past a
//! few dozen clients the deployment became a few hundred threads fighting
//! over the scheduler and throughput collapsed (see BENCH_perf.json history:
//! 49 GB/s at 4 clients down to 13.5 GB/s at 64). This module replaces that
//! with a **bounded pool of event-loop workers**:
//!
//! * every node — service or client core — is a [`Cell`]: a multiplexed
//!   state machine with its own mailbox, timer heap and RNG,
//! * cells are owned by `N ≈ cores` **shards**, each with a run queue and
//!   one worker thread; a cell's home shard is its address modulo `N`,
//!   fixed when the cell is made,
//! * a sender marks the target cell *scheduled* (one atomic CAS) and pushes
//!   it onto its home shard's run queue; an idle worker **steals** one
//!   turn of a ready cell from the back of another shard's queue, and the
//!   cell's home, queue and timers stay where they were,
//! * a worker drains a cell's mailbox in **batches** (up to
//!   [`DRAIN_BATCH`] envelopes per mailbox lock, at most [`MAX_PER_RUN`]
//!   per scheduling turn) so one hot service cannot starve its shard — the
//!   cell is simply re-queued at the back and the worker moves on,
//! * a caller blocked on a client call runs its shard's cells itself while
//!   the worker sleeps (one helper per shard); only its own sends skip the wake.
//!
//! Lifecycle guarantees the rest of the repo relies on:
//!
//! * **Panic isolation** — a handler panic poisons only its own cell: the
//!   cell is marked dead, its mailbox dropped, its routing slot cleared and
//!   `runtime.service_panics` incremented; the worker (and every other cell
//!   on the shard) keeps running.
//! * **Observability survives multiplexing** — envelopes still carry
//!   `sent_ns`, so `Net` spans keep attributing mailbox wait as `queue_ns`,
//!   and [`Env::queue_depth_seconds`] reports the age of the oldest queued
//!   envelope of *this* cell (not of the whole shard).

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sads_sim::{
    Counter, FlightEvent, FlightRecorder, FlightRing, Gauge, Histogram, NodeId, NodeLabel,
    Registry as TelemetryRegistry, SimDuration, SimTime, SpanKind, SpanRecord, SpanSink, TraceCtx,
};

use crate::client::{ClientConfig, ClientCore, ClientOp, Completion};
use crate::model::ClientId;
use crate::rpc::Msg;
use crate::services::{Env, Service};

/// Envelopes drained per mailbox lock acquisition.
const DRAIN_BATCH: usize = 64;
/// Envelopes handled per scheduling turn before the cell yields its worker.
const MAX_PER_RUN: usize = 256;
/// Idle park cap so workers notice `running == false` and freshly
/// registered cross-shard work even without a notification.
const PARK_CAP: Duration = Duration::from_millis(100);

/// Which cells the current thread runs.
#[derive(Clone, Copy, PartialEq)]
enum Runs {
    /// None: it may help when it blocks on a client call.
    Nothing,
    /// Any shard's, for its whole life; a worker never helps.
    Worker,
    /// Those of this shard, as its one helper, until the helper leaves.
    Helper(usize),
}

thread_local! {
    static RUNS: std::cell::Cell<Runs> = const { std::cell::Cell::new(Runs::Nothing) };
    /// The batch a turn drains its cell's mailbox into, reused by every
    /// turn the thread runs (turns never nest on one thread).
    static BATCH: std::cell::RefCell<Vec<Envelope>> = const { std::cell::RefCell::new(Vec::new()) };
}

// Clock readings made on this thread, so tests can count what a turn pays.
#[cfg(test)]
thread_local! {
    static CLOCK_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// What travels between cells.
pub(crate) enum Envelope {
    Msg {
        from: NodeId,
        msg: Msg,
        /// Causal context of the sender's operation, if tracing is on.
        trace: Option<TraceCtx>,
        /// Wall-clock send time (ns since cluster start), so the receiver
        /// can attribute mailbox queueing delay to the trace: the start of
        /// the sender's turn, or the exact time when the cluster traces.
        sent_ns: u64,
    },
    Op {
        op: ClientOp,
        reply: Sender<Completion>,
        /// Ambient context the operation should nest under (e.g. the S3
        /// gateway's per-request span), if tracing is on.
        trace: Option<TraceCtx>,
    },
}

/// What a cell multiplexes: a service, or a client core with its
/// outstanding-op reply routes.
pub(crate) enum NodeKind {
    Service(Box<dyn Service>),
    Client {
        core: Box<ClientCore>,
        pending: HashMap<u64, Sender<Completion>>,
        next_tag: u64,
    },
}

impl NodeKind {
    pub(crate) fn client(
        client_id: ClientId,
        vman: NodeId,
        pman: NodeId,
        meta: Vec<NodeId>,
        cfg: ClientConfig,
    ) -> Self {
        NodeKind::Client {
            core: Box::new(ClientCore::new(client_id, vman, pman, meta, cfg)),
            pending: HashMap::new(),
            next_tag: 1,
        }
    }
}

/// Per-cell mutable state, touched only by the thread currently running
/// the cell (guarded by the `scheduled` flag plus this mutex).
struct NodeState {
    kind: NodeKind,
    timers: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    rng: SmallRng,
    /// The time this cell's callbacks see: the latest clock reading of its
    /// turns, raised to the send time of any envelope it handles, so it
    /// never runs backwards and never precedes a message's send.
    clock: u64,
}

/// One multiplexed node: mailbox + state machine + scheduling flag.
pub(crate) struct Cell {
    id: NodeId,
    /// True while the cell sits in a run queue or is being run. The
    /// transition false→true is the only way into a run queue, so a cell
    /// is never queued twice.
    scheduled: AtomicBool,
    /// Dead cells (killed or panicked) drop their mail and never run again.
    dead: AtomicBool,
    /// Earliest deadline currently registered in a shard timer heap
    /// (`u64::MAX` = none): hot cells run thousands of turns between timer
    /// fires, and without this watermark each turn would push a duplicate
    /// heap entry.
    timer_registered: std::sync::atomic::AtomicU64,
    /// Deepest mailbox ever observed on this cell. The paired gauge
    /// (`runtime.mailbox_hwm{node=…}`) is only written when the watermark
    /// actually rises, so the steady-state send cost is one `fetch_max`.
    mail_hwm: std::sync::atomic::AtomicU64,
    hwm_gauge: Gauge,
    /// Flight-recorder ring for this cell's service family, resolved once
    /// at creation so a recorded turn is a single `Ring::record`.
    ring: Option<Arc<FlightRing>>,
    mailbox: Mutex<VecDeque<Envelope>>,
    node: Mutex<NodeState>,
}

/// Timer registration on a shard: wake at `deadline` and reschedule the
/// cell (stale entries — cell already ran, or died — are skipped).
struct ShardTimer {
    deadline: u64,
    seq: u64,
    cell: Weak<Cell>,
}

impl PartialEq for ShardTimer {
    fn eq(&self, other: &Self) -> bool {
        (self.deadline, self.seq) == (other.deadline, other.seq)
    }
}
impl Eq for ShardTimer {}
impl PartialOrd for ShardTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ShardTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// One executor shard: a run queue, its worker's parking lot, the timers
/// its cells registered, and its one helper slot.
struct Shard {
    runq: StdMutex<RunQueue>,
    cv: Condvar,
    timers: Mutex<BinaryHeap<std::cmp::Reverse<ShardTimer>>>,
    timer_seq: AtomicUsize,
    /// Held by the one caller thread running this shard's cells while it
    /// waits for a reply (see [`ExecShared::wait_reply`]).
    helper: AtomicBool,
}

/// A shard's queued cells and its worker's sleep, under one lock, so a
/// sender sees whether the worker sleeps exactly when it enqueues.
struct RunQueue {
    cells: VecDeque<Arc<Cell>>,
    /// The worker waits on the condvar and no one has notified it since.
    parked: bool,
    /// When the parked worker wakes by itself (executor ns): its earliest
    /// shard timer, or the park cap.
    park_until: u64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            runq: StdMutex::new(RunQueue { cells: VecDeque::new(), parked: false, park_until: 0 }),
            cv: Condvar::new(),
            timers: Mutex::new(BinaryHeap::new()),
            timer_seq: AtomicUsize::new(0),
            helper: AtomicBool::new(false),
        }
    }

    /// Earliest registered timer deadline, if any.
    fn next_timer(&self) -> Option<u64> {
        self.timers.lock().peek().map(|std::cmp::Reverse(t)| t.deadline)
    }
}

/// Pre-interned per-shard `runtime.*` handles, so the scheduler hot paths
/// pay one atomic op per update instead of a registry lookup.
struct ShardStats {
    /// `runtime.runq_depth{shard}` — cells queued on the shard right now.
    runq_depth: Gauge,
    /// `runtime.steals{shard}` — turns this shard's worker ran of other
    /// shards' cells.
    steals: Counter,
    /// `runtime.parks{shard}` / `runtime.unparks{shard}` — idle waits.
    parks: Counter,
    unparks: Counter,
    /// `runtime.dispatch_batch{shard}` — envelopes handled per turn.
    dispatch_batch: Histogram,
    /// `runtime.timer_lag_seconds{shard}` — how late shard timers fire.
    timer_lag: Histogram,
}

impl ShardStats {
    fn new(telem: &TelemetryRegistry, shard: usize) -> Self {
        let s = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", s.as_str())];
        ShardStats {
            runq_depth: telem.gauge("runtime.runq_depth", labels),
            steals: telem.counter("runtime.steals", labels),
            parks: telem.counter("runtime.parks", labels),
            unparks: telem.counter("runtime.unparks", labels),
            dispatch_batch: telem.histogram("runtime.dispatch_batch", labels),
            timer_lag: telem.histogram("runtime.timer_lag_seconds", labels),
        }
    }
}

/// State shared by workers, senders and the cluster handle.
pub(crate) struct ExecShared {
    /// Grow-only routing table: `NodeId` → live cell.
    slots: RwLock<Vec<Option<Arc<Cell>>>>,
    shards: Vec<Shard>,
    /// Per-shard telemetry handles, parallel to `shards`.
    stats: Vec<ShardStats>,
    running: AtomicBool,
    start: Instant,
    telem: Arc<TelemetryRegistry>,
    sink: Option<Arc<SpanSink>>,
    recorder: Option<Arc<FlightRecorder>>,
    /// RNG seed of the next node added, counting from 1 in add order.
    next_seed: AtomicU64,
}

impl ExecShared {
    /// `n` shards with no worker yet: [`Executor::start`] spawns them.
    fn new(
        n: usize,
        start: Instant,
        telem: Arc<TelemetryRegistry>,
        sink: Option<Arc<SpanSink>>,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> Self {
        ExecShared {
            slots: RwLock::new(Vec::new()),
            shards: (0..n).map(|_| Shard::new()).collect(),
            stats: (0..n).map(|w| ShardStats::new(&telem, w)).collect(),
            running: AtomicBool::new(true),
            start,
            telem,
            sink,
            recorder,
            next_seed: AtomicU64::new(1),
        }
    }

    /// Wall-clock nanoseconds since the cluster started: the clock every
    /// span and timer of the cluster is stamped with.
    pub(crate) fn now_ns(&self) -> u64 {
        #[cfg(test)]
        CLOCK_READS.with(|n| n.set(n.get() + 1));
        self.start.elapsed().as_nanos() as u64
    }

    pub(crate) fn telemetry(&self) -> &Arc<TelemetryRegistry> {
        &self.telem
    }

    pub(crate) fn span_sink(&self) -> Option<&Arc<SpanSink>> {
        self.sink.as_ref()
    }

    pub(crate) fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// Route an envelope; it is dropped if the slot is dead or unknown.
    pub(crate) fn send_to(&self, to: NodeId, env: Envelope) {
        if let Some(cell) = self.route(to) {
            self.deliver(&cell, env);
        }
    }

    /// The shard that queues `cell` and holds its timers: its address
    /// modulo the shard count, for its whole life.
    fn home(&self, cell: &Cell) -> usize {
        cell.id.index() % self.shards.len()
    }

    fn route(&self, to: NodeId) -> Option<Arc<Cell>> {
        self.slots.read().get(to.index()).cloned().flatten()
    }

    fn deliver(&self, cell: &Arc<Cell>, env: Envelope) {
        let depth = {
            let mut mb = cell.mailbox.lock();
            mb.push_back(env);
            mb.len() as u64
        };
        if depth > cell.mail_hwm.fetch_max(depth, Ordering::Relaxed) {
            cell.hwm_gauge.set(depth as f64);
        }
        self.schedule(cell);
    }

    /// Mark `cell` runnable and hand it to its home shard, waking the
    /// shard's worker if it sleeps, unless the sender is the shard's helper,
    /// which will run the cell itself. No-op
    /// if the cell is already queued or running (the final mailbox
    /// re-check in [`Executor::run_cell`] covers that race).
    fn schedule(&self, cell: &Arc<Cell>) {
        if cell.dead.load(Ordering::Acquire) {
            return;
        }
        if cell.scheduled.swap(true, Ordering::AcqRel) {
            return;
        }
        let home = self.home(cell);
        let shard = &self.shards[home];
        let (depth, wake) = {
            let mut q = shard.runq.lock().expect("runq");
            q.cells.push_back(Arc::clone(cell));
            // What the shard's helper schedules, it runs itself or hands
            // back when it leaves; anyone else's send wakes the worker, so
            // other threads' work never waits on a helper that lost its
            // core to them.
            let wake = q.parked && RUNS.get() != Runs::Helper(home);
            if wake {
                q.parked = false;
            }
            (q.cells.len(), wake)
        };
        self.stats[home].runq_depth.set(depth as f64);
        if wake {
            shard.cv.notify_one();
        }
    }

    /// Wait up to `timeout` for the reply to an op addressed to client
    /// cell `node`, sending `op` first when it is given (a ticket's op was
    /// sent at submission). This is the one wait of every blocking client
    /// call: if the cell's home shard's worker is parked, the caller claims
    /// the shard's helper slot, sends without waking the worker and runs
    /// the shard's cells itself until the reply is in (see [`Helper`]).
    /// If the worker is awake, the slot is taken, or the caller is itself
    /// running cells — and whenever the helper stops short of the reply —
    /// it blocks on `rx`.
    pub(crate) fn wait_reply(
        &self,
        node: NodeId,
        op: Option<Envelope>,
        rx: &Receiver<Completion>,
        timeout: Duration,
    ) -> Result<Completion, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        // The cell is not held past the send: its pending replies must
        // drop with it when it is killed or the executor shuts down.
        let helper = self.route(node).and_then(|cell| {
            let helper = self.claim_helper(&cell);
            if let Some(op) = op {
                self.deliver(&cell, op);
            }
            helper
        });
        // An op to a dead address was dropped, and with it the reply
        // sender: `rx` reports the disconnect.
        if let Some(reply) = helper.and_then(|h| h.run_until(rx, deadline)) {
            return Ok(reply);
        }
        rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
    }

    fn claim_helper(&self, cell: &Cell) -> Option<Helper<'_>> {
        if RUNS.get() != Runs::Nothing || !self.running.load(Ordering::Acquire) {
            return None;
        }
        let shard = self.home(cell);
        // An awake worker has a core already: a caller running cells beside
        // it competes with the shards' workers for the host's cores (on two
        // cores, 4 MiB reads at 32–256 clients ran at half their rate).
        if !self.shards[shard].runq.lock().expect("runq").parked {
            return None;
        }
        self.shards[shard]
            .helper
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::Relaxed)
            .ok()?;
        RUNS.set(Runs::Helper(shard));
        Some(Helper { shared: self, shard })
    }

    /// Register a new node; its `on_start` has run when this returns.
    pub(crate) fn add_node(&self, kind: NodeKind) -> NodeId {
        let id = {
            let mut slots = self.slots.write();
            slots.push(None);
            NodeId(slots.len() as u32 - 1)
        };
        let installed = self.reinstall(id, kind);
        debug_assert!(installed, "a freshly pushed slot is empty");
        id
    }

    /// Occupy an empty slot — freshly pushed, or previously killed — with
    /// a new node at that [`NodeId`]. Fails if the slot is live or never
    /// existed.
    ///
    /// The node's `on_start` runs on the calling thread before this
    /// returns, so whatever it sends (a provider's `Register`) sits in
    /// its peer's mailbox ahead of anything the caller sends afterwards.
    /// The node lock is taken before the slot becomes routable: a worker
    /// that picks the cell up for early mail waits for `on_start` to
    /// finish. The closing `schedule` is the turn that registers the
    /// timers `on_start` set.
    pub(crate) fn reinstall(&self, node: NodeId, kind: NodeKind) -> bool {
        let cell = self.new_cell(node, kind);
        let mut state = cell.node.lock();
        match self.slots.write().get_mut(node.index()) {
            Some(slot @ None) => *slot = Some(Arc::clone(&cell)),
            _ => return false,
        }
        let started = catch_unwind(AssertUnwindSafe(|| {
            let NodeState { kind, timers, rng, clock } = &mut *state;
            if let NodeKind::Service(service) = kind {
                *clock = self.now_ns();
                let mut env = ExecEnv {
                    id: cell.id,
                    shared: self,
                    timers,
                    rng,
                    mailbox: &cell.mailbox,
                    current: None,
                    now_ns: *clock,
                };
                service.on_start(&mut env);
            }
        }));
        drop(state);
        match started {
            Ok(()) => self.schedule(&cell),
            Err(_) => self.poison(&cell),
        }
        true
    }

    fn new_cell(&self, id: NodeId, kind: NodeKind) -> Arc<Cell> {
        let seed = self.next_seed.fetch_add(1, Ordering::Relaxed);
        let family = match &kind {
            NodeKind::Service(s) => s.name(),
            NodeKind::Client { .. } => "client",
        };
        let node_label = NodeLabel::new(id.0);
        Arc::new(Cell {
            id,
            scheduled: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            timer_registered: std::sync::atomic::AtomicU64::new(u64::MAX),
            mail_hwm: std::sync::atomic::AtomicU64::new(0),
            hwm_gauge: self
                .telem
                .gauge("runtime.mailbox_hwm", &[("node", node_label.as_str())]),
            ring: self.recorder.as_ref().map(|r| r.ring(family)),
            mailbox: Mutex::new(VecDeque::new()),
            node: Mutex::new(NodeState {
                kind,
                timers: BinaryHeap::new(),
                rng: SmallRng::seed_from_u64(seed),
                clock: 0,
            }),
        })
    }

    /// Every live node's address, in address order.
    pub(crate) fn live_nodes(&self) -> Vec<NodeId> {
        self.slots.read().iter().flatten().map(|cell| cell.id).collect()
    }

    /// Stop routing to `node`, drop its queued mail, and make sure it
    /// never runs again. Its `NodeId` slot can later be re-occupied by
    /// [`ExecShared::reinstall`].
    pub(crate) fn kill(&self, node: NodeId) {
        let cell = {
            let mut slots = self.slots.write();
            match slots.get_mut(node.index()) {
                Some(slot) => slot.take(),
                None => None,
            }
        };
        if let Some(cell) = cell {
            cell.dead.store(true, Ordering::Release);
            cell.mailbox.lock().clear();
        }
    }

    /// A callback of `cell` panicked. Poison only this cell: unroute it,
    /// drop its mail, count it. The workers and every other cell keep
    /// going.
    fn poison(&self, cell: &Cell) {
        self.kill(cell.id);
        let node = NodeLabel::new(cell.id.0);
        self.telem.inc("runtime.service_panics", &[("node", node.as_str())], 1);
    }
}

/// A caller thread holding a shard's helper slot: while the shard's worker
/// sleeps, it runs the shard's cells the way the worker would — due shard
/// timers, then the next queued cell. Dropping it hands the shard back to
/// the worker.
struct Helper<'a> {
    shared: &'a ExecShared,
    shard: usize,
}

impl Helper<'_> {
    /// Run turns until `rx` holds the reply, then at most [`MAX_PER_RUN`]
    /// trailing turns, so what the op left queued is not handed to a
    /// worker woken for it. `None` when the queue runs dry first (the rest
    /// of the op is on another thread or behind a timer), another thread's
    /// send wakes the worker, the executor stops, the reply can no longer
    /// come, or `deadline` passes.
    fn run_until(self, rx: &Receiver<Completion>, deadline: Instant) -> Option<Completion> {
        let mut turns = 0usize;
        loop {
            match rx.try_recv() {
                Ok(reply) => {
                    for _ in 0..MAX_PER_RUN {
                        if !self.turn() {
                            break;
                        }
                    }
                    return Some(reply);
                }
                Err(TryRecvError::Disconnected) => return None,
                Err(TryRecvError::Empty) => {}
            }
            // The deadline only bounds a helper kept busy by other cells'
            // work; checking it every DRAIN_BATCH turns keeps the clock
            // off the common path.
            turns += 1;
            if !self.turn() || (turns.is_multiple_of(DRAIN_BATCH) && Instant::now() >= deadline) {
                return None;
            }
        }
    }

    /// Run one turn of the shard as its helper; `false` when nothing ran
    /// (the executor stopped, the queue is empty or the worker is awake).
    fn turn(&self) -> bool {
        self.shared.running.load(Ordering::Acquire) && turn(self.shared, self.shard, true)
    }
}

impl Drop for Helper<'_> {
    /// Free the slot, then wake the parked worker if cells are queued or
    /// a timer registered while helping falls before it would wake.
    fn drop(&mut self) {
        RUNS.set(Runs::Nothing);
        let shard = &self.shared.shards[self.shard];
        shard.helper.store(false, Ordering::SeqCst);
        let mut q = shard.runq.lock().unwrap_or_else(PoisonError::into_inner);
        let wake = q.parked
            && (!q.cells.is_empty() || shard.next_timer().is_some_and(|t| t < q.park_until));
        if wake {
            q.parked = false;
            drop(q);
            shard.cv.notify_one();
        }
    }
}

/// The executor: shared state plus the worker pool.
pub(crate) struct Executor {
    shared: Arc<ExecShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Spawn `shards` workers (0 = one per available core).
    pub(crate) fn start(
        shards: usize,
        start: Instant,
        telem: Arc<TelemetryRegistry>,
        sink: Option<Arc<SpanSink>>,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> Executor {
        let n = if shards == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).clamp(1, 16)
        } else {
            shards.min(64)
        };
        let shared = Arc::new(ExecShared::new(n, start, telem, sink, recorder));
        let workers = (0..n)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sads-exec-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { shared, workers }
    }

    pub(crate) fn shared(&self) -> &Arc<ExecShared> {
        &self.shared
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Stop the workers and join them. Queued envelopes are dropped —
    /// blocked [`ClientHandle`](super::threaded::ClientHandle) callers see
    /// their reply channel disconnect.
    pub(crate) fn shutdown(&mut self) {
        self.shared.running.store(false, Ordering::Release);
        for shard in &self.shared.shards {
            shard.runq.lock().expect("runq").parked = false;
            shard.cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // A helper stops at its next turn once `running` is false. Hold
        // every helper slot while the tables are cleared, so no helper is
        // mid-turn then.
        for shard in &self.shared.shards {
            while shard
                .helper
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                std::thread::yield_now();
            }
        }
        // Unroute every cell and drop its mailbox: queued `Op` envelopes
        // hold the caller's reply `Sender`, so dropping them here is what
        // turns a blocked `run()` into an immediate disconnect instead of
        // a full op-timeout wait. Run queues pin cells with strong `Arc`s
        // (a scheduled-but-never-run cell would otherwise outlive the
        // routing table), so both must be cleared. Must happen only after
        // the join above — workers may still be mid-turn until then.
        self.shared.slots.write().clear();
        for shard in &self.shared.shards {
            shard.runq.lock().expect("runq").cells.clear();
            shard.helper.store(false, Ordering::SeqCst);
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The [`Env`] a multiplexed node sees during one callback.
struct ExecEnv<'a> {
    id: NodeId,
    shared: &'a ExecShared,
    timers: &'a mut BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    rng: &'a mut SmallRng,
    /// This cell's own mailbox, for per-node backlog depth.
    mailbox: &'a Mutex<VecDeque<Envelope>>,
    /// Causal context of the callback being handled; outgoing messages
    /// carry it so replies land in the same trace.
    current: Option<TraceCtx>,
    /// The cell's clock for this callback (its turn's reading).
    now_ns: u64,
}

impl ExecEnv<'_> {
    /// The callback's time: the turn's clock reading, or a fresh one when
    /// the cluster has a span sink, so span stamps and the stages they
    /// attribute stay exact.
    fn clock(&self) -> u64 {
        if self.shared.sink.is_some() {
            self.shared.now_ns()
        } else {
            self.now_ns
        }
    }
}

impl Env for ExecEnv<'_> {
    fn id(&self) -> NodeId {
        self.id
    }
    fn now(&self) -> SimTime {
        SimTime(self.clock())
    }
    fn send(&mut self, to: NodeId, msg: Msg) {
        let sent_ns = self.clock();
        self.shared.send_to(
            to,
            Envelope::Msg { from: self.id, msg, trace: self.current, sent_ns },
        );
    }
    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let deadline = self.clock() + delay.as_nanos();
        self.timers.push(std::cmp::Reverse((deadline, token)));
    }
    fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }
    fn span_sink(&self) -> Option<Arc<SpanSink>> {
        self.shared.sink.clone()
    }
    fn telemetry(&self) -> &TelemetryRegistry {
        &self.shared.telem
    }
    fn trace_ctx(&self) -> Option<TraceCtx> {
        self.current
    }
    fn set_trace_ctx(&mut self, trace: Option<TraceCtx>) {
        self.current = trace;
    }
    fn queue_depth_seconds(&self) -> f64 {
        // Age of the oldest envelope still queued for *this* cell: the
        // multiplexed equivalent of "how far behind is my inbox".
        let mb = self.mailbox.lock();
        match mb.front() {
            Some(Envelope::Msg { sent_ns, .. }) => {
                self.shared.now_ns().saturating_sub(*sent_ns) as f64 / 1e9
            }
            _ => 0.0,
        }
    }
    fn spawn(&mut self, service: Box<dyn Service>) -> NodeId {
        self.shared.add_node(NodeKind::Service(service))
    }
    fn power_off(&mut self, node: NodeId) {
        self.shared.kill(node);
    }
}

/// Record the mailbox-queueing delay of a traced envelope as a `Net`
/// span: in the threaded runtime there is no modeled wire, so the whole
/// delivery delay is queueing (send → drain on the target cell).
fn record_net_span(
    sink: &SpanSink,
    tc: TraceCtx,
    msg: &Msg,
    node: NodeId,
    sent_ns: u64,
    recv_ns: u64,
) {
    sink.record(SpanRecord {
        trace: tc.trace_id,
        span: sink.next_id(),
        parent: tc.span_id,
        service: "net",
        op: sads_sim::Message::op_name(msg),
        node: node.0 as u64,
        start_ns: sent_ns,
        end_ns: recv_ns,
        kind: SpanKind::Net,
        class: sads_sim::Message::span_class(msg),
        queue_ns: recv_ns.saturating_sub(sent_ns),
        xfer_ns: 0,
        wire_ns: 0,
    });
}

/// Schedule every cell whose shard timer is due at `now_ns`.
fn fire_shard_timers(shared: &ExecShared, w: usize, now_ns: u64) {
    loop {
        let mut th = shared.shards[w].timers.lock();
        let Some(std::cmp::Reverse(first)) = th.peek() else { return };
        if first.deadline > now_ns {
            return;
        }
        let std::cmp::Reverse(t) = th.pop().expect("peeked");
        drop(th);
        // How far past its deadline the heap let this timer drift —
        // queueing lag of the timer plane itself.
        shared.stats[w].timer_lag.observe(now_ns.saturating_sub(t.deadline) as f64 / 1e9);
        if let Some(cell) = t.cell.upgrade() {
            cell.timer_registered.store(u64::MAX, Ordering::Release);
            shared.schedule(&cell);
        }
    }
}

fn worker_loop(shared: &ExecShared, w: usize) {
    RUNS.set(Runs::Worker);
    let shard = &shared.shards[w];
    while shared.running.load(Ordering::Acquire) {
        if turn(shared, w, false) {
            continue;
        }

        // Park until the next registered timer, a notification, or the
        // cap. The deadline is taken under the run-queue lock, which a
        // leaving helper holds to compare it with the timers it added.
        let mut q = shard.runq.lock().expect("runq");
        if q.cells.is_empty() && shared.running.load(Ordering::Acquire) {
            let now = shared.now_ns();
            let cap = now + PARK_CAP.as_nanos() as u64;
            q.park_until = shard.next_timer().map_or(cap, |t| t.min(cap));
            q.parked = true;
            shared.stats[w].parks.inc(1);
            let wait = Duration::from_nanos(q.park_until.saturating_sub(now));
            let (mut q, _) = shard.cv.wait_timeout(q, wait).expect("runq");
            q.parked = false;
            shared.stats[w].unparks.inc(1);
        }
    }
}

/// One turn on shard `w`: read the clock once, fire the shard's due
/// timers, then run the front of its run queue — or, for a worker whose
/// queue is empty, the back of another shard's — with that reading.
/// `false` when no cell ran.
fn turn(shared: &ExecShared, w: usize, helper: bool) -> bool {
    let now = shared.now_ns();
    fire_shard_timers(shared, w, now);
    match pop_front(shared, w, helper).or_else(|| if helper { None } else { steal(shared, w) }) {
        Some(cell) => {
            run_cell(shared, w, &cell, now);
            true
        }
        None => false,
    }
}

/// The front of shard `w`'s run queue. A helper gets nothing once the
/// worker is awake: the worker has a core and runs the rest, so a helper
/// never starts a turn beside it.
fn pop_front(shared: &ExecShared, w: usize, helper: bool) -> Option<Arc<Cell>> {
    let (cell, depth) = {
        let mut q = shared.shards[w].runq.lock().expect("runq");
        if helper && !q.parked {
            return None;
        }
        let cell = q.cells.pop_front();
        (cell, q.cells.len())
    };
    if cell.is_some() {
        shared.stats[w].runq_depth.set(depth as f64);
    }
    cell
}

/// Take one turn of another shard's cell, leaving the cell's home as it
/// is: the thief runs this turn only.
fn steal(shared: &ExecShared, w: usize) -> Option<Arc<Cell>> {
    let n = shared.shards.len();
    for i in 1..n {
        let v = (w + i) % n;
        let (cell, depth) = {
            let mut q = shared.shards[v].runq.lock().expect("runq");
            let cell = q.cells.pop_back();
            (cell, q.cells.len())
        };
        if cell.is_some() {
            shared.stats[v].runq_depth.set(depth as f64);
            shared.stats[w].steals.inc(1);
            return cell;
        }
    }
    None
}

/// Run one scheduling turn of `cell` on shard `w` (its home shard's worker
/// or helper, or a thief), starting at clock reading `now`: due timers,
/// then batched mailbox drain up to the fairness cap. Its timers register
/// on its home shard.
fn run_cell(shared: &ExecShared, w: usize, cell: &Arc<Cell>, now: u64) {
    if cell.dead.load(Ordering::Acquire) {
        cell.scheduled.store(false, Ordering::Release);
        return;
    }

    let mut node = cell.node.lock();
    let outcome = catch_unwind(AssertUnwindSafe(|| drive(shared, cell, &mut node, now)));
    let next_deadline = node.timers.peek().map(|std::cmp::Reverse((d, _))| *d);
    drop(node);
    let panicked = outcome.is_err();
    let (handled, end) = outcome.unwrap_or((0, now));
    shared.stats[w].dispatch_batch.observe(handled as f64);
    if handled > 0 {
        if let Some(ring) = &cell.ring {
            ring.record(FlightEvent {
                at_ns: now,
                dur_ns: end.saturating_sub(now),
                label: "turn",
                node: cell.id.0 as u64,
                a: handled as u64,
                b: cell.mail_hwm.load(Ordering::Relaxed),
            });
        }
    }

    if panicked {
        shared.poison(cell);
        cell.scheduled.store(false, Ordering::Release);
        return;
    }

    if let Some(deadline) = next_deadline {
        if deadline < cell.timer_registered.load(Ordering::Acquire) {
            cell.timer_registered.store(deadline, Ordering::Release);
            let home = shared.home(cell);
            let shard = &shared.shards[home];
            let seq = shard.timer_seq.fetch_add(1, Ordering::Relaxed) as u64;
            shard.timers.lock().push(std::cmp::Reverse(ShardTimer {
                deadline,
                seq,
                cell: Arc::downgrade(cell),
            }));
            // A thief's timer must wake the home worker if it sleeps past it.
            if home != w {
                let mut q = shard.runq.lock().expect("runq");
                if q.parked && deadline < q.park_until {
                    q.parked = false;
                    drop(q);
                    shard.cv.notify_one();
                }
            }
        }
    }

    cell.scheduled.store(false, Ordering::SeqCst);
    // Re-check after clearing the flag: a sender that pushed while we were
    // draining (and saw `scheduled == true`) relies on this to not lose
    // its wakeup.
    if !cell.mailbox.lock().is_empty() {
        shared.schedule(cell);
    }
}

/// Returns the number of envelopes handled this turn and the turn's last
/// clock reading. The clock is read once after each batch, never per
/// envelope: a batch's callbacks see the reading taken before it (or the
/// send time of an envelope sent after that reading).
fn drive(shared: &ExecShared, cell: &Arc<Cell>, node: &mut NodeState, now: u64) -> (usize, u64) {
    let NodeState { kind, timers, rng, clock } = node;
    *clock = (*clock).max(now);
    fire_due_timers(shared, cell, kind, timers, rng, *clock);

    let mut handled = 0usize;
    BATCH.with_borrow_mut(|batch| loop {
        {
            let mut mb = cell.mailbox.lock();
            let n = mb.len().min(DRAIN_BATCH);
            batch.extend(mb.drain(..n));
        }
        if batch.is_empty() {
            break;
        }
        handled += batch.len();
        // A panicking handler drops the rest of the batch with the drain.
        for env in batch.drain(..) {
            handle_envelope(shared, cell, kind, timers, rng, clock, env);
        }
        // Time advanced while handling; fire anything that came due.
        *clock = shared.now_ns();
        fire_due_timers(shared, cell, kind, timers, rng, *clock);
        if handled >= MAX_PER_RUN {
            break; // Yield the worker; run_cell re-queues us at the back.
        }
    });
    (handled, *clock)
}

fn fire_due_timers(
    shared: &ExecShared,
    cell: &Arc<Cell>,
    kind: &mut NodeKind,
    timers: &mut BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    rng: &mut SmallRng,
    now_ns: u64,
) {
    loop {
        let token = match timers.peek() {
            Some(std::cmp::Reverse((deadline, token))) if *deadline <= now_ns => *token,
            _ => break,
        };
        timers.pop();
        let mut env = ExecEnv {
            id: cell.id,
            shared,
            timers,
            rng,
            mailbox: &cell.mailbox,
            current: None,
            now_ns,
        };
        match kind {
            NodeKind::Service(service) => service.on_timer(&mut env, token),
            NodeKind::Client { core, pending, .. } => {
                if ClientCore::owns_timer(token) {
                    let completions = core.handle_timer(&mut env, token);
                    deliver(pending, completions);
                }
            }
        }
    }
}

fn deliver(pending: &mut HashMap<u64, Sender<Completion>>, completions: Vec<Completion>) {
    for c in completions {
        if let Some(tx) = pending.remove(&c.tag) {
            let _ = tx.send(c);
        }
    }
}

fn handle_envelope(
    shared: &ExecShared,
    cell: &Arc<Cell>,
    kind: &mut NodeKind,
    timers: &mut BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    rng: &mut SmallRng,
    clock: &mut u64,
    envelope: Envelope,
) {
    match envelope {
        Envelope::Msg { from, msg, trace, sent_ns } => {
            *clock = (*clock).max(sent_ns);
            let traced = match (&shared.sink, trace) {
                (Some(s), Some(tc)) => {
                    let recv_ns = shared.now_ns();
                    record_net_span(s, tc, &msg, cell.id, sent_ns, recv_ns);
                    Some((Arc::clone(s), tc, sads_sim::Message::op_name(&msg), recv_ns))
                }
                _ => None,
            };
            let mut env = ExecEnv {
                id: cell.id,
                shared,
                timers,
                rng,
                mailbox: &cell.mailbox,
                current: trace,
                now_ns: *clock,
            };
            match kind {
                NodeKind::Service(service) => {
                    service.on_msg(&mut env, from, msg);
                    if let Some((s, tc, op, recv_ns)) = traced {
                        let end_ns = shared.now_ns();
                        s.record(SpanRecord {
                            trace: tc.trace_id,
                            span: s.next_id(),
                            parent: tc.span_id,
                            service: service.name(),
                            op,
                            node: cell.id.0 as u64,
                            start_ns: recv_ns,
                            end_ns,
                            kind: SpanKind::Handle,
                            class: sads_sim::SpanClass::Control,
                            queue_ns: 0,
                            xfer_ns: 0,
                            wire_ns: 0,
                        });
                    }
                }
                NodeKind::Client { core, pending, .. } => {
                    let completions = core.handle_msg(&mut env, from, msg);
                    deliver(pending, completions);
                }
            }
        }
        Envelope::Op { op, reply, trace } => {
            if let NodeKind::Client { core, pending, next_tag } = kind {
                let tag = *next_tag;
                *next_tag += 1;
                pending.insert(tag, reply);
                let mut env = ExecEnv {
                    id: cell.id,
                    shared,
                    timers,
                    rng,
                    mailbox: &cell.mailbox,
                    current: trace,
                    now_ns: *clock,
                };
                // Stream sub-operations (a feed with headroom, a close)
                // can complete synchronously.
                let completions = core.start_op(&mut env, op, tag);
                deliver(pending, completions);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `on_start` does, if anything.
    enum OnStart {
        Nothing,
        Announce(NodeId),
        Panic,
    }
    impl Service for OnStart {
        fn on_start(&mut self, env: &mut dyn Env) {
            match self {
                OnStart::Nothing => {}
                OnStart::Announce(peer) => {
                    env.incr("test.started", 1);
                    env.send(*peer, Msg::ListBlobs { req: 0 });
                }
                OnStart::Panic => panic!("boom"),
            }
        }
        fn on_msg(&mut self, _env: &mut dyn Env, _from: NodeId, _msg: Msg) {}
    }

    /// `add_node` returns only once `on_start` has run: its effects, and
    /// the mail it sends, are in place with no wait. (Were the start
    /// merely scheduled, a cluster's first write could reach the provider
    /// manager ahead of the providers' `Register`.)
    #[test]
    fn on_start_has_run_when_add_node_returns() {
        let telem = Arc::new(TelemetryRegistry::new());
        let exec = Executor::start(1, Instant::now(), Arc::clone(&telem), None, None);
        let add = |s: OnStart| exec.shared.add_node(NodeKind::Service(Box::new(s)));
        // Hold the peer's node lock so the worker cannot drain its mail.
        let peer = add(OnStart::Nothing);
        let peer_cell = exec.shared.slots.read()[peer.index()].clone().expect("live");
        let hold = peer_cell.node.lock();
        add(OnStart::Announce(peer));
        assert_eq!(telem.counter_total("test.started"), 1);
        assert_eq!(peer_cell.mailbox.lock().len(), 1, "the announcement is queued");
        drop(hold);

        // A panicking `on_start` poisons its own cell and nothing else.
        let bad = add(OnStart::Panic);
        assert!(exec.shared.slots.read()[bad.index()].is_none(), "unrouted");
        assert_eq!(telem.counter_total("runtime.service_panics"), 1);
        assert!(exec.shared.slots.read()[peer.index()].is_some());
    }

    /// What a [`Probe`] saw: the request, and `now()` before and after a
    /// 50 µs sleep in the same callback.
    type Seen = Arc<parking_lot::Mutex<Vec<(u64, u64, u64)>>>;

    /// Logs each `ListBlobs`, arms a timer, forwards the request to `peer`
    /// and sends itself `req + 1000` for every request below 1000 that is
    /// a multiple of `echo_every` (none if it is 0).
    struct Probe {
        seen: Seen,
        peer: Option<NodeId>,
        echo_every: u64,
    }
    impl Service for Probe {
        fn on_msg(&mut self, env: &mut dyn Env, _from: NodeId, msg: Msg) {
            let Msg::ListBlobs { req } = msg else { return };
            let before = env.now().0;
            std::thread::sleep(Duration::from_micros(50));
            self.seen.lock().push((req, before, env.now().0));
            env.set_timer(SimDuration::from_secs(10), req);
            if let Some(peer) = self.peer {
                env.send(peer, Msg::ListBlobs { req });
            }
            if self.echo_every > 0 && req < 1000 && req.is_multiple_of(self.echo_every) {
                env.send(env.id(), Msg::ListBlobs { req: req + 1000 });
            }
        }
    }

    /// One shard and no worker, so the test thread runs every turn; every
    /// cell has a flight ring. Returns `n` probe cells, each forwarding to
    /// the next, with their logs.
    fn probes(traced: bool, echo_every: u64, n: usize) -> (ExecShared, Vec<(NodeId, Seen)>) {
        let sink = traced.then(|| Arc::new(SpanSink::new()));
        let recorder = Some(Arc::new(FlightRecorder::new()));
        let telem = Arc::new(TelemetryRegistry::new());
        let shared = ExecShared::new(1, Instant::now(), telem, sink, recorder);
        let mut cells: Vec<(NodeId, Seen)> = Vec::new();
        for _ in 0..n {
            let (seen, peer) = (Seen::default(), cells.last().map(|c| c.0));
            let probe = Probe { seen: Arc::clone(&seen), peer, echo_every };
            cells.push((shared.add_node(NodeKind::Service(Box::new(probe))), seen));
        }
        cells.reverse();
        while turn(&shared, 0, false) {}
        (shared, cells)
    }

    fn post(shared: &ExecShared, to: NodeId, reqs: std::ops::Range<u64>) {
        for req in reqs {
            let msg = Msg::ListBlobs { req };
            shared.send_to(to, Envelope::Msg { from: to, msg, trace: None, sent_ns: 0 });
        }
    }

    fn clock_reads() -> u64 {
        CLOCK_READS.with(|n| n.get())
    }

    /// Untraced, a turn's callbacks see one time — the same before and
    /// after a sleep, across messages — and it moves forward from turn to
    /// turn and from a sender's turn to its receiver's.
    #[test]
    fn an_untraced_turn_shows_its_callbacks_one_time() {
        let (shared, cells) = probes(false, 0, 2);
        let [(a, a_seen), (_, b_seen)] = &cells[..] else { unreachable!() };
        post(&shared, *a, 0..10);
        assert!(turn(&shared, 0, false), "a's turn");
        let t = a_seen.lock()[0].1;
        assert!(a_seen.lock().iter().all(|&(_, before, after)| (before, after) == (t, t)));
        assert!(turn(&shared, 0, false), "b's turn: the forwards");
        let u = b_seen.lock()[0].1;
        assert!(u >= t, "a receiver's time never precedes its sender's");
        assert!(b_seen.lock().iter().all(|&(_, before, after)| (before, after) == (u, u)));
        post(&shared, *a, 10..11);
        assert!(turn(&shared, 0, false));
        assert!(a_seen.lock()[10].1 > u, "the next turn reads the clock again");
    }

    /// With a span sink every `now()` reads the clock: spans and the
    /// stages they attribute keep exact stamps.
    #[test]
    fn a_traced_callback_sees_the_clock_move() {
        let (shared, cells) = probes(true, 0, 1);
        post(&shared, cells[0].0, 0..3);
        assert!(turn(&shared, 0, false));
        let seen = cells[0].1.lock();
        assert!(seen.iter().all(|&(_, before, after)| after >= before + 50_000));
        assert!(seen.windows(2).all(|w| w[1].1 >= w[0].2));
    }

    /// An untraced turn reads the clock twice, whatever its handlers call:
    /// once as it starts (shard timers, the cell's timers, the flight
    /// event's start) and once after its one batch (timers that came due,
    /// the flight event's end). It read five times, plus once per `now`,
    /// `send` and `set_timer`, when every step read its own.
    #[test]
    fn an_untraced_turn_reads_the_clock_twice() {
        let (shared, cells) = probes(false, 0, 2);
        let (a, b) = (cells[0].0, cells[1].0);
        post(&shared, a, 0..5);
        assert!(turn(&shared, 0, false));
        assert!(shared.shards[0].next_timer().is_some(), "a shard timer is registered");
        post(&shared, a, 5..10);
        for cell in [b, a] {
            let before = clock_reads();
            assert!(turn(&shared, 0, false));
            assert_eq!(clock_reads() - before, 2, "one turn of {cell:?}");
        }
        let ring = shared.recorder.as_ref().expect("recorder").ring("service");
        assert_eq!(ring.snapshot().0.len(), 3, "each turn is recorded");
    }

    /// More than a batch of queued envelopes, plus self-sends made while
    /// draining, are handled in arrival order; a turn stops at
    /// `MAX_PER_RUN` and the cell runs again later.
    #[test]
    fn the_drain_is_fifo_and_yields_at_max_per_run() {
        let (shared, cells) = probes(false, 50, 1);
        let (c, seen) = &cells[0];
        let total = MAX_PER_RUN as u64 + DRAIN_BATCH as u64;
        post(&shared, *c, 0..total);
        assert!(turn(&shared, 0, false));
        assert_eq!(seen.lock().len(), MAX_PER_RUN, "the first turn yields");
        while turn(&shared, 0, false) {}
        let mut queue: VecDeque<u64> = (0..total).collect();
        let mut expected = Vec::new();
        while let Some(req) = queue.pop_front() {
            expected.push(req);
            if req < 1000 && req.is_multiple_of(50) {
                queue.push_back(req + 1000);
            }
        }
        assert_eq!(seen.lock().iter().map(|s| s.0).collect::<Vec<_>>(), expected);
    }

    /// Two shards and no worker: a cell's home is its address modulo the
    /// shard count. The other shard's worker may take its turns, but the
    /// cell is queued at home each time and its timers register there.
    #[test]
    fn a_stolen_turn_leaves_the_cell_at_home() {
        let telem = Arc::new(TelemetryRegistry::new());
        let shared = ExecShared::new(2, Instant::now(), Arc::clone(&telem), None, None);
        let add = |seen: &Seen| {
            let probe = Probe { seen: Arc::clone(seen), peer: None, echo_every: 0 };
            shared.add_node(NodeKind::Service(Box::new(probe)))
        };
        let seen = Seen::default();
        let (zero, one) = (add(&Seen::default()), add(&seen));
        assert_eq!((zero.index(), one.index()), (0, 1));
        while turn(&shared, 0, false) || turn(&shared, 1, false) {}
        let steals = telem.counter_total("runtime.steals");
        for req in 0..3 {
            post(&shared, one, req..req + 1);
            let queued = shared.shards[1].runq.lock().expect("runq").cells.len();
            assert_eq!(queued, 1, "queued at home");
            assert!(turn(&shared, 0, false), "shard 0 steals the turn");
            assert_eq!(seen.lock().len(), req as usize + 1);
        }
        assert_eq!(telem.counter_total("runtime.steals") - steals, 3);
        assert!(shared.shards[0].next_timer().is_none());
        assert!(shared.shards[1].next_timer().is_some(), "the cell's timer is at home");
    }
}
