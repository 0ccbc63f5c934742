//! Storage lifecycle for the self-adaptive data store: retention-driven
//! garbage collection over the version DAG, O(1) metadata-only
//! snapshots, and a background integrity scrub feeding the replication
//! repair pipeline.
//!
//! The paper's self-optimization axis names *data removal* alongside
//! replication; this crate is the removal half grown into a full
//! lifecycle layer:
//!
//! * [`plan`] — the pure planner: a single liveness rule (shared by
//!   chunks and tree nodes) derives what each sweep may reclaim from the
//!   version catalog and its GC roots alone.
//! * [`gc`] — [`gc::LifecycleGcService`], the paced background sweeper
//!   executing those plans: replica discovery, chunk/node deletion with
//!   cross-sweep dedup, and version-record retirement.
//! * [`scrub`] — [`scrub::ScrubberService`], the paced checksum walk
//!   over every provider's chunks; confirmed corruption is quarantined
//!   at the provider and routed to the replication manager for repair.
//!
//! Snapshots and the GC root rule live in the version manager
//! (`sads_blob::vmanager`): [`RetentionPolicy`] is fixed per install and
//! handed to it, pinning is a set insertion granted only on a root, so
//! snapshot and clone cost O(1) regardless of BLOB size — the segment
//! tree is shared, never copied. This crate plans against the roots the
//! version manager reports.
//!
//! All services speak the runtime-agnostic `sads_blob::services`
//! interfaces, so they run identically in the simulated and threaded
//! runtimes.

pub mod gc;
pub mod plan;
pub mod scrub;

pub use gc::{LifecycleConfig, LifecycleGcService, TOKEN_LIFECYCLE_SWEEP};
pub use plan::{mark_live_chunks, plan_blob, BlobPlan, CatalogView};
pub use sads_blob::vmanager::RetentionPolicy;
pub use scrub::{ScrubConfig, ScrubberService, TOKEN_SCRUB_TICK};

#[cfg(test)]
mod testenv {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sads_blob::rpc::Msg;
    use sads_blob::services::Env;
    use sads_sim::{NodeId, SimDuration, SimTime};

    /// Capture-everything environment for driving services directly.
    pub struct TestEnv {
        pub now: SimTime,
        pub sent: Vec<(NodeId, Msg)>,
        rng: SmallRng,
        reg: sads_sim::Registry,
    }

    impl TestEnv {
        pub fn new() -> Self {
            TestEnv {
                now: SimTime(1_000_000_000_000),
                sent: vec![],
                rng: SmallRng::seed_from_u64(0),
                reg: sads_sim::Registry::new(),
            }
        }
    }

    impl Env for TestEnv {
        fn telemetry(&self) -> &sads_sim::Registry {
            &self.reg
        }
        fn id(&self) -> NodeId {
            NodeId(0)
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn send(&mut self, to: NodeId, msg: Msg) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, _d: SimDuration, _t: u64) {}
        fn rng(&mut self) -> &mut SmallRng {
            &mut self.rng
        }
        fn spawn(&mut self, _: Box<dyn sads_blob::services::Service>) -> NodeId {
            unreachable!("no node starts nodes in this test")
        }
        fn power_off(&mut self, _: NodeId) {
            unreachable!("no node powers nodes off in this test")
        }
    }
}
