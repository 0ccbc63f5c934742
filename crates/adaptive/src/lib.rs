//! # sads-adaptive — the self-configuration and self-optimization layers
//!
//! The paper's §V development directions, implemented:
//!
//! * **Self-configuration** — [`ElasticityControllerService`] contracts
//!   and expands the data-provider pool from the introspected load
//!   (watermarks + hysteresis + cooldown); actuation is delegated to a
//!   deployment agent via [`AdaptMsg`].
//! * **Self-optimization / replication** —
//!   [`ReplicationManagerService`] maintains the replication degree of
//!   every chunk (repair on provider loss) and adjusts it to access heat.
//!
//! The data-removal half of self-optimization is `sads-lifecycle`.

#![warn(missing_docs)]

pub mod elastic;
pub mod recovery;
pub mod replication;

pub use elastic::{
    adapt_msg, into_adapt, AdaptMsg, ElasticityControllerService, ElasticityPolicy, ScaleAction,
    ScaleDecision, TOKEN_ELASTIC_TICK,
};
pub use recovery::{RecoveryAgentService, TOKEN_RECOVERY_POLL};
pub use replication::{ReplicationConfig, ReplicationManagerService, TOKEN_REPL_SWEEP};
