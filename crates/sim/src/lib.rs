//! # sads-sim — deterministic cluster simulation substrate
//!
//! The paper's experiments ran on Grid'5000, a physical testbed with
//! hundreds of nodes. This crate is the substitute substrate: a
//! single-threaded, deterministic discrete-event simulator with
//!
//! * a virtual nanosecond clock ([`SimTime`], [`SimDuration`]),
//! * message-passing [`Actor`]s (one per simulated node),
//! * a store-and-forward NIC bandwidth model ([`Network`]) that produces
//!   realistic contention (throughput plateaus, DoS ingress saturation),
//! * timers, runtime node spawning (elasticity) and crash injection,
//! * a [`Metrics`] reader over the telemetry registry every node's
//!   counters are recorded into and the world's log of its nodes' time
//!   series.
//!
//! Determinism: given the same seed and the same actor set, every run
//! produces the identical event trace, which makes the paper-shaped
//! experiments exactly reproducible.
//!
//! ```
//! use sads_sim::*;
//!
//! #[derive(Debug)]
//! struct Hello;
//! impl_message!(Hello);
//!
//! struct Greeter;
//! impl Actor for Greeter {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, _msg: Box<dyn Message>) {
//!         ctx.incr("greetings", 1);
//!     }
//! }
//!
//! let mut world = World::with_seed(42);
//! let g = world.add_node(Box::new(Greeter), NodeConfig::default());
//! world.send_external(g, Box::new(Hello));
//! world.run_to_quiescence(1_000);
//! assert_eq!(world.metrics().counter("greetings"), 1);
//! ```

#![warn(missing_docs)]

pub mod fault;
pub mod message;
pub mod metrics;
pub mod net;
pub mod time;
pub mod world;

pub use fault::{run_with_faults, FaultEvent, FaultKind, FaultPlan};
pub use message::{Message, MessageExt};
pub use metrics::{percentile, Metrics, Sample};
pub use net::{NetConfig, Network, NicState, NodeConfig, NodeId, TransferTiming};
pub use time::{transfer_time, SimDuration, SimTime};
pub use world::{Actor, Ctx, RunOutcome, World};

// Re-exported so runtimes built on the simulator can speak tracing
// vocabulary without a separate dependency declaration.
pub use sads_trace::{
    FlightDump, FlightEvent, FlightRecorder, Ring as FlightRing, SpanClass, SpanKind, SpanRecord,
    SpanSink, TraceCtx,
};

/// Re-exported so runtimes and services name telemetry types through the
/// sim crate they already depend on, mirroring the tracing re-exports.
pub use sads_telemetry::{
    derive_health, Counter, FastMap, FastSet, Gauge, HealthPolicy, HealthState, Histogram,
    NodeHealth, NodeLabel, ProcSample, ProcSampler, Registry, Sample as TelemetrySample,
    SampleValue, Snapshot, HEARTBEAT_GAUGE,
};
