//! Tracing-layer guarantees the rest of the repo relies on:
//!
//! * **Zero interference**: the deployment's event schedule is
//!   byte-identical whether tracing is off, on, or toggled between
//!   builds — spans are a pure side channel (the crate-level contract
//!   in `sads-trace`).
//! * **Causality**: with tracing on, one client write produces a span
//!   tree that crosses nodes — an `Op` root, `Stage` children on the
//!   client, `Handle` spans on the services it touched, and `Net` spans
//!   for the hops — all sharing the root's trace id.
//! * **Exportability**: the chrome://tracing JSON rendering of a real
//!   run is structurally valid and names the spans it should.

use sads::blob::model::{BlobSpec, ClientId};
use sads::blob::runtime::sim::{BlobRef, ScriptStep};
use sads::blob::WriteKind;
use sads::{Deployment, DeploymentConfig};
use sads_sim::{SimDuration, SpanKind, SpanSink, World};
use std::sync::Arc;
use sads_trace::{chrome_trace_json, critical_paths};

const MB: u64 = 1_000_000;

/// One small write workload; returns the finished deployment.
fn run(tracing: bool) -> Deployment {
    let cfg = DeploymentConfig {
        data_providers: 4,
        meta_providers: 2,
        ..DeploymentConfig::default()
    };
    let mut world = World::with_seed(42);
    if tracing {
        world.set_span_sink(Arc::new(SpanSink::new()));
    }
    let mut d = Deployment::build(world, cfg);
    let spec = BlobSpec { page_size: 4 * MB, replication: 1 };
    d.add_client(
        ClientId(1),
        vec![
            ScriptStep::Create(spec),
            ScriptStep::Write {
                blob: BlobRef::Created(0),
                kind: WriteKind::Append,
                bytes: 16 * MB,
            },
            ScriptStep::Read { blob: BlobRef::Created(0), version: None, offset: 0, len: 8 * MB },
        ],
        "client",
    );
    d.world.run_for(SimDuration::from_secs(60), 10_000_000);
    assert_eq!(d.world.metrics().counter("client.ops_err"), 0, "workload must succeed");
    d
}

#[test]
fn tracing_toggle_never_changes_the_event_schedule() {
    let off_a = run(false);
    let off_b = run(false);
    let on = run(true);
    assert_eq!(
        off_a.world.event_digest(),
        off_b.world.event_digest(),
        "same seed, same schedule"
    );
    assert_eq!(
        off_a.world.event_digest(),
        on.world.event_digest(),
        "tracing must be observational only"
    );
    assert_eq!(off_a.world.now(), on.world.now());
    assert!(off_a.span_sink().is_none(), "tracing off constructs no sink");
}

#[test]
fn tracing_on_builds_a_cross_node_span_tree() {
    let d = run(true);
    let sink = d.span_sink().expect("tracing on installs a sink");
    let spans = sink.spans();
    assert!(!spans.is_empty());

    let roots: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Op).collect();
    assert_eq!(roots.len(), 3, "create + write + read roots");
    let write = roots.iter().find(|r| r.op == "write").expect("write root");

    let in_trace: Vec<_> = spans.iter().filter(|s| s.trace == write.trace).collect();
    assert!(
        in_trace
            .iter()
            .any(|s| s.kind == SpanKind::Stage && s.parent == write.span && s.op == "chunks"),
        "write trace has a chunks stage under the root"
    );
    assert!(
        in_trace.iter().any(|s| s.kind == SpanKind::Handle && s.service == "provider"),
        "write trace reaches a data provider"
    );
    assert!(
        in_trace.iter().any(|s| s.kind == SpanKind::Handle && s.service == "vmanager"),
        "write trace reaches the version manager"
    );
    assert!(in_trace.iter().any(|s| s.kind == SpanKind::Net), "write trace has network hops");

    // The analyzer sees every root and attributes non-zero time.
    let cps = critical_paths(&spans);
    assert_eq!(cps.len(), 3);
    let wcp = cps.iter().find(|c| c.op == "write").expect("write critical path");
    assert!(wcp.total_ns > 0);
    assert!(wcp.queueing_ns + wcp.wire_ns + wcp.store_ns + wcp.meta_ns > 0);
}

#[test]
fn chrome_trace_export_is_structurally_valid() {
    let d = run(true);
    let json = chrome_trace_json(&d.span_sink().expect("sink").spans());
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    assert_eq!(json.matches('{').count(), json.matches('}').count(), "balanced braces");
    assert!(json.contains("\"name\":\"client.write\""));
    assert!(json.contains("\"ph\":\"X\""));
}
