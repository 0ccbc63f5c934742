//! # sads-introspect — the introspection layer
//!
//! The top of the paper's three-layer architecture (§III-B): "processes
//! the data received from the monitoring layer … designed to identify and
//! generate relevant information related to the state and the behavior of
//! the system, which can be fed as input to various higher-level self-*
//! components".
//!
//! * [`IntrospectionService`] — polls the monitoring storage servers and
//!   maintains a live [`SystemSnapshot`] that the elasticity controller,
//!   replication manager and operators query,
//! * [`SloAlertService`] — multi-window burn-rate rules over live
//!   telemetry registry snapshots, pushing [`Alert`]s to the self-*
//!   components and freezing a flight-recorder dump on each firing,
//! * [`statusz()`] — the plain-text status page of any host, simulated or
//!   threaded: health against the host's clock, the alert engine's
//!   active and fired rules, the flight recorder and the busiest counters,
//! * [`EwmaAnomalyDetector`] — learns a workload's own throughput
//!   baseline and trips on relative drops an absolute SLO threshold
//!   would miss (the bistable-round detector behind `exp_e16_introspect`),
//! * [`TimeSeries`] — downsampling/smoothing utilities,
//! * [`viz`] — the §IV-A visualization tool (ASCII charts + CSV of the
//!   physical parameters, storage distribution, BLOB access patterns and
//!   BLOB placement).

#![warn(missing_docs)]

pub mod alerts;
pub mod anomaly;
pub mod service;
pub mod snapshot;
pub mod statusz;
pub mod timeseries;
pub mod viz;

pub use alerts::{
    alert_msg, into_alert, Alert, AlertMsg, BurnRateRule, RuleSource, SloAlertService,
    TOKEN_ALERT_TICK,
};
pub use anomaly::{Anomaly, EwmaAnomalyDetector};
pub use service::{IntrospectionService, TOKEN_INTRO_POLL};
pub use snapshot::{intro_msg, into_intro, BlobView, IntroMsg, ProviderView, SystemSnapshot};
pub use statusz::statusz;
pub use timeseries::TimeSeries;
