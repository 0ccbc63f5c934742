//! # sads-core — the self-adaptive data management system
//!
//! The paper's contribution, assembled: BlobSeer ([`sads_blob`]) enhanced
//! with the three-layer introspection architecture ([`sads_monitor`],
//! [`sads_introspect`]), the generic security-policy framework
//! ([`sads_security`]) and the self-configuration / self-optimization
//! controllers ([`sads_adaptive`]), wired into one deployable system by
//! [`install`] on either [`Host`]:
//!
//! * the deterministic cluster simulator (the Grid'5000 stand-in every
//!   experiment uses; [`Deployment`] wraps the world and the nodes),
//! * real threads with real bytes (what a downstream user runs; the S3
//!   gateway sits on top).
//!
//! ```no_run
//! use sads_core::{install, DeploymentConfig};
//! use sads_blob::runtime::threaded::ClusterBuilder;
//! use sads_blob::{BlobSpec, ClientId};
//! use bytes::Bytes;
//!
//! let mut cluster = ClusterBuilder::new().host();
//! install(&DeploymentConfig { data_providers: 4, ..DeploymentConfig::default() }, &mut cluster);
//! let client = cluster.client(ClientId(1));
//! let blob = client.create(BlobSpec { page_size: 64 * 1024, replication: 2 }).unwrap();
//! client.write(blob, 0, Bytes::from(vec![7u8; 64 * 1024])).unwrap();
//! let back = client.read(blob, None, 0, 64 * 1024).unwrap();
//! assert_eq!(back[0], 7);
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]

pub mod agent;
pub mod deployment;

pub use agent::{DeployAgent, DRAIN_GRACE};
pub use deployment::{default_alert_rules, install, Deployment, DeploymentConfig, Nodes};
pub use sads_blob::runtime::Host;

// Re-export the subsystem crates under one roof for downstream users.
pub use sads_adaptive as adaptive;
pub use sads_blob as blob;
pub use sads_introspect as introspect;
pub use sads_lifecycle as lifecycle;
pub use sads_monitor as monitor;
pub use sads_security as security;
pub use sads_sim as sim;
