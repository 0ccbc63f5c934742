//! # sads-monitor — the monitoring layer
//!
//! The paper's three-layer introspection architecture (§III-B) rests on a
//! monitoring layer (MonALISA in the original system) that "gathers data
//! coming from all the instrumented BlobSeer nodes and makes them
//! available to the upper layer". This crate is that layer:
//!
//! * [`MonitoringService`] — agent nodes collecting [`Msg::Probe`]
//!   batches from instrumented BlobSeer actors and running a pluggable
//!   [`DataFilter`] stack over them,
//! * [`StorageServerService`] — distributed parameter/activity storage
//!   behind a write-behind [`BurstCache`] (the paper's burst-absorbing
//!   cache),
//! * [`MonStore`] — the storage schema: parameter time series plus the
//!   User Activity History consumed by the security framework.
//!
//! [`Msg::Probe`]: sads_blob::rpc::Msg::Probe

#![warn(missing_docs)]

pub mod cache;
pub mod filter;
pub mod record;
pub mod service;
pub mod storage;

pub use cache::BurstCache;
pub use filter::{
    default_filters, ActivityFilter, BlobAccessFilter, DataFilter, FilterOutput, LoadFilter,
    RateFilter,
};
pub use record::{
    as_mon, into_mon, mon_msg, ActivityKind, ActivityRecord, MetricId, MonMsg, MonRecord,
    ParamKey,
};
pub use service::{MonitoringService, TOKEN_MON_FLUSH};
pub use storage::{MonStore, StorageConfig, StorageServerService, StoreItem, TOKEN_CACHE_DRAIN};
