//! E9 — fault tolerance: availability and tail latency under injected
//! provider crashes. Paper §IV: the system must "transparently tolerate
//! storage node failures" — replication plus self-repair keep data
//! available while providers crash and restart underneath running
//! clients.
//!
//! A replicated dataset is written once, then readers and a background
//! writer run for a fixed horizon while a seeded [`FaultPlan`] crashes
//! data providers and restarts them (with an **empty** store — a restart
//! is a clean respawn, so survival depends on replication and repair,
//! not on luck). Clients run with the retry policy on: RPC deadlines,
//! bounded exponential backoff, degraded reads through surviving
//! replicas, and write-path re-allocation.
//!
//! The sweep varies the mean time between crashes and reports
//! availability (fraction of client ops that succeeded) and p99 op
//! latency per crash rate, written to `results/e9_fault_sweep.csv`.

use sads_adaptive::ReplicationConfig;
use sads_blob::client::{ClientConfig, RetryPolicy};
use sads_blob::model::{BlobId, BlobSpec, ClientId};
use sads_blob::runtime::sim::{BlobRef, ScriptStep};
use sads_blob::WriteKind;
use sads_core::{Deployment, DeploymentConfig};
use sads_introspect::viz::table;
use sads_sim::{FaultPlan, SimDuration, SimTime, World};

use crate::{row, BenchArgs, Claim, Report};

const MB: u64 = 1_000_000;
const PAGE: u64 = MB;
const DATASET: u64 = 64 * MB;
/// Loading phase: write the dataset before faults begin.
const LOAD_S: u64 = 20;
/// Measurement horizon (faults + client traffic).
const HORIZON_S: u64 = 320;
/// Providers stay down this long before respawning empty.
const DOWNTIME_S: u64 = 12;
const MAX_EVENTS: u64 = 50_000_000;

struct Outcome {
    mean_between_s: u64,
    crashes: u64,
    restarts: u64,
    repairs: u64,
    ops_ok: u64,
    ops_err: u64,
    availability: f64,
    p99_ms: f64,
    recovered: u64,
    abandoned: u64,
    rpc_retries: u64,
    reallocs: u64,
    replica_walks: u64,
}

fn run_once(args: &BenchArgs, mean_between_s: u64) -> Outcome {
    let cfg = DeploymentConfig {
        data_providers: args.scaled(10),
        meta_providers: 2,
        replication: Some(ReplicationConfig {
            base_degree: 2,
            sweep_every: SimDuration::from_secs(2),
            ..ReplicationConfig::default()
        }),
        recovery: Some(SimDuration::from_secs(5)),
        client_cfg: ClientConfig { retry: RetryPolicy::standard(), ..ClientConfig::default() },
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(args.seed_or(119)), cfg);

    // Load the replicated dataset while everything is healthy.
    let spec = BlobSpec { page_size: PAGE, replication: 2 };
    d.add_client(
        ClientId(1),
        vec![
            ScriptStep::Create(spec),
            ScriptStep::Write {
                blob: BlobRef::Created(0),
                kind: WriteKind::Append,
                bytes: DATASET,
            },
        ],
        "loader",
    );
    d.world.run_for(SimDuration::from_secs(LOAD_S), MAX_EVENTS);

    // Two readers sweep the dataset in 8 MB strides; a background writer
    // keeps publishing fresh versions so the write path (allocation,
    // chunk puts, re-allocation on dead targets) is exercised too.
    let blob = BlobRef::Id(BlobId(1));
    for c in 0..2u64 {
        let mut script = Vec::new();
        for i in 0..(HORIZON_S - LOAD_S) / 2 {
            let offset = ((i * 8 + c * 32) % (DATASET / MB)) * MB;
            script.push(ScriptStep::Read { blob, version: None, offset, len: 8 * MB });
            script.push(ScriptStep::Pause(SimDuration::from_secs(2)));
        }
        d.add_client(ClientId(10 + c), script, "client");
    }
    let mut wscript = Vec::new();
    for _ in 0..(HORIZON_S - LOAD_S) / 10 {
        wscript.push(ScriptStep::Write { blob, kind: WriteKind::At(0), bytes: 8 * MB });
        wscript.push(ScriptStep::Pause(SimDuration::from_secs(10)));
    }
    d.add_client(ClientId(20), wscript, "client");

    // The seeded crash/restart schedule over the data providers.
    // `mean_between_s == 0` yields an empty plan — the fault-free
    // baseline goes through the identical code path.
    let mut plan = FaultPlan::crash_restart(
        900 + mean_between_s,
        &d.nodes.data.clone(),
        SimTime::from_secs(HORIZON_S),
        SimDuration::from_secs(mean_between_s),
        SimDuration::from_secs(DOWNTIME_S),
    );
    d.run_with_faults(&mut plan, SimTime::from_secs(HORIZON_S), MAX_EVENTS);
    // Drain: let in-flight retries, repairs, and recovery finish.
    d.world.run_for(SimDuration::from_secs(30), MAX_EVENTS);

    let m = d.world.metrics();
    let ops_ok = m.counter("client.ops_ok");
    let ops_err = m.counter("client.ops_err");
    let total = (ops_ok + ops_err).max(1);
    Outcome {
        mean_between_s,
        crashes: m.counter("fault.crashes"),
        restarts: m.counter("fault.restarts"),
        repairs: m.counter("repl.repairs"),
        ops_ok,
        ops_err,
        availability: ops_ok as f64 / total as f64,
        p99_ms: m.percentile("op_seconds", 99.0).unwrap_or(0.0) * 1e3,
        recovered: d.recovery_agent().map(|r| r.recovered()).unwrap_or(0),
        abandoned: d.recovery_agent().map(|r| r.abandoned()).unwrap_or(0),
        rpc_retries: m.counter("client.rpc_retries"),
        reallocs: m.counter("client.reallocs"),
        replica_walks: m.counter("client.replica_walks"),
    }
}

/// Run the sweep over mean times between crashes: none, 120, 60, 30, 15 s.
pub fn run(args: &BenchArgs) -> Report {
    let mut rows = vec![row![
        "mtbc_s",
        "crashes",
        "restarts",
        "repairs",
        "ops_ok",
        "ops_err",
        "availability",
        "p99_ms",
        "retries",
        "reallocs",
        "walks"
    ]];
    let mut csv = String::from(
        "mean_between_crashes_s,crashes,restarts,repairs,ops_ok,ops_err,availability,p99_ms,recovered,abandoned,rpc_retries,reallocs,replica_walks\n",
    );
    let (mut masked, mut none_abandoned) = (true, true);
    for mean_between_s in [0u64, 120, 60, 30, 15] {
        let o = run_once(args, mean_between_s);
        rows.push(row![
            if o.mean_between_s == 0 { "none".to_owned() } else { o.mean_between_s.to_string() },
            o.crashes,
            o.restarts,
            o.repairs,
            o.ops_ok,
            o.ops_err,
            format!("{:.4}", o.availability),
            format!("{:.1}", o.p99_ms),
            o.rpc_retries,
            o.reallocs,
            o.replica_walks
        ]);
        csv.push_str(&format!(
            "{},{},{},{},{},{},{:.4},{:.1},{},{},{},{},{}\n",
            o.mean_between_s,
            o.crashes,
            o.restarts,
            o.repairs,
            o.ops_ok,
            o.ops_err,
            o.availability,
            o.p99_ms,
            o.recovered,
            o.abandoned,
            o.rpc_retries,
            o.reallocs,
            o.replica_walks
        ));
        // At 15 s crashes outrun the 12 s downtime plus repair, so both
        // replicas of some chunks die: that collapse is reported, not claimed.
        masked &= (1..30).contains(&mean_between_s) || o.availability == 1.0;
        none_abandoned &= o.abandoned == 0;
    }
    Report {
        text: format!(
            "E9: availability & p99 latency vs provider crash rate\n\
             ({} providers, replication 2, {DOWNTIME_S} s downtime, retry+degraded reads on)\n\n{}",
            args.scaled(10),
            table(&rows)
        ),
        artifacts: vec![("e9_fault_sweep.csv", csv)],
        claims: vec![
            Claim {
                holds: masked,
                what: "availability 1.0 with no crashes and at every interval >= 30 s".into(),
            },
            Claim {
                holds: none_abandoned,
                what: "recovery abandons no repair mid-flight at any rate".into(),
            },
        ],
    }
}
