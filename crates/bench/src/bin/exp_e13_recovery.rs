//! E13 — crash recovery with durable chunk backends. Paper §IV frames
//! fault tolerance entirely as replication + self-repair: E9 shows that
//! working, but every restart there respawns an **empty** provider, so
//! the whole dataset a crashed node held must be re-replicated over the
//! network. This experiment measures what a durable, log-structured
//! local store buys: a crashed-and-restarted provider re-opens its
//! on-disk log, verifies checksums, announces the recovered chunks
//! ([`ChunkRecovered`]) — and the replication manager re-learns the
//! placement instead of scheduling repair traffic.
//!
//! One replicated dataset is loaded, one provider is crashed at a fixed
//! instant and restarted after a fixed downtime, and the run is repeated
//! with the in-memory backend (the E9 baseline) and the disk backend.
//! Reported per backend: chunks the victim held before the crash, chunks
//! and bytes recovered from the local log at restart, replication
//! repairs dispatched and repair bytes pushed over the network, and the
//! time from the crash until the replica deficit is healed.
//!
//! Output: `results/e13_recovery.csv`. `--smoke` runs the same timeline
//! on a smaller dataset and gates CI on the headline result: the
//! restarted disk-backend provider must report **zero** repair bytes
//! while the memory baseline repairs over the network.
//!
//! [`ChunkRecovered`]: sads_blob::probe::ProbeEvent::ChunkRecovered

use sads_adaptive::ReplicationConfig;
use sads_bench::{print_table, row, write_artifact, BenchArgs};
use sads_blob::model::{BlobSpec, ClientId};
use sads_blob::runtime::sim::{BlobRef, ScriptStep};
use sads_blob::services::DataProviderService;
use sads_blob::{BackendSpec, WriteKind};
use sads_core::{Deployment, DeploymentConfig};
use sads_sim::{SimDuration, SimTime, World};
use std::path::PathBuf;

const MB: u64 = 1_000_000;
const PAGE: u64 = MB;
/// Loading phase: write the replicated dataset while healthy.
const LOAD_S: u64 = 20;
/// The victim provider crashes here.
const CRASH_S: u64 = 25;
/// Downtime before the victim restarts at its old address. Long enough
/// that the provider manager expires the victim (5 s heartbeat expiry)
/// and one replication sweep sees it missing — the deficit debounce is
/// armed — but short enough that a durable restart's recovery
/// announcements reach the manager before the confirming sweep.
const DOWNTIME_S: u64 = 12;
/// Run this long after the restart, then drain.
const SETTLE_S: u64 = 23;
/// Replication reconcile period. 6 s puts exactly one sweep inside the
/// victim's dead window (expelled ~t=32, back ~t=37, sweep at t=36) and
/// the confirming sweep (t=42) after the restarted provider's recovery
/// announcements have flushed through monitoring.
const SWEEP_S: u64 = 6;
const MAX_EVENTS: u64 = 50_000_000;

struct Outcome {
    backend: &'static str,
    chunks_before: u64,
    recovered_chunks: u64,
    recovered_bytes: u64,
    intact_pct: f64,
    repairs: u64,
    repair_bytes: u64,
    lost_chunks: u64,
    recovery_s: f64,
    quarantined: u64,
}

fn run_once(args: &BenchArgs, backend: BackendSpec, label: &'static str, dataset: u64) -> Outcome {
    let cfg = DeploymentConfig {
        data_providers: args.scaled(10),
        meta_providers: 2,
        replication: Some(ReplicationConfig {
            base_degree: 2,
            sweep_every: SimDuration::from_secs(SWEEP_S),
            ..ReplicationConfig::default()
        }),
        backend,
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(args.seed_or(131)), cfg);

    // Load the replicated dataset while everything is healthy.
    let spec = BlobSpec { page_size: PAGE, replication: 2 };
    d.add_client(
        ClientId(1),
        vec![
            ScriptStep::Create(spec),
            ScriptStep::Write { blob: BlobRef::Created(0), kind: WriteKind::Append, bytes: dataset },
        ],
        "loader",
    );
    let _ = LOAD_S; // the load finishes well before CRASH_S
    d.world.run_until(SimTime::from_secs(CRASH_S), MAX_EVENTS);

    let victim = d.nodes.data[0];
    let chunks_before = d
        .world
        .actor_as::<DataProviderService>(victim)
        .map(|p| p.store().len() as u64)
        .unwrap_or(0);
    assert!(chunks_before > 0, "victim provider holds no chunks after the load phase");

    d.crash(victim);
    d.world.run_for(SimDuration::from_secs(DOWNTIME_S), MAX_EVENTS);
    d.restart_data_provider(victim);
    d.world.run_for(SimDuration::from_secs(SETTLE_S), MAX_EVENTS);
    // Drain: let in-flight repairs and placement patches finish.
    d.world.run_for(SimDuration::from_secs(20), MAX_EVENTS);

    let m = d.world.metrics();
    let recovered_chunks = m.counter("provider.recovered_chunks");
    let recovered_bytes = m.counter("provider.recovered_bytes");

    // Recovery time: from the crash until the replica-deficit gauge
    // (recorded every reconcile sweep) returns to zero and stays there.
    let crash = SimTime::from_secs(CRASH_S);
    let mut deficit_seen = false;
    let mut healed_at: Option<SimTime> = None;
    for s in m.series("repl.deficit") {
        if s.at < crash {
            continue;
        }
        if s.value > 0.0 {
            deficit_seen = true;
            healed_at = None;
        } else if deficit_seen && healed_at.is_none() {
            healed_at = Some(s.at);
        }
    }
    let recovery_s = match (deficit_seen, healed_at) {
        // The deficit never opened: recovery was complete the moment the
        // provider rejoined.
        (false, _) => DOWNTIME_S as f64,
        (true, Some(t)) => t.0 as f64 / 1e9 - CRASH_S as f64,
        (true, None) => f64::NAN,
    };

    Outcome {
        backend: label,
        chunks_before,
        recovered_chunks,
        recovered_bytes,
        intact_pct: 100.0 * recovered_chunks as f64 / chunks_before as f64,
        repairs: m.counter("repl.repairs"),
        repair_bytes: m.counter("provider.repair_bytes"),
        lost_chunks: m.counter("repl.lost_chunks"),
        recovery_s,
        quarantined: m.counter("provider.quarantined_chunks"),
    }
}

fn main() {
    let args = BenchArgs::parse();
    let dataset = if args.smoke { 16 * MB } else { 64 * MB };
    println!("E13: crash recovery — durable disk backend vs in-memory baseline");
    println!(
        "({} providers, replication 2, {} MB dataset, crash t={CRASH_S}s, downtime {DOWNTIME_S}s)\n",
        args.scaled(10),
        dataset / MB
    );

    let root = std::env::temp_dir().join(format!("sads-e13-{}", std::process::id()));
    let mem = run_once(&args, BackendSpec::Memory, "memory", dataset);
    let disk = run_once(&args, BackendSpec::disk(PathBuf::from(&root)), "disk", dataset);
    let _ = std::fs::remove_dir_all(&root);

    let mut rows = vec![row![
        "backend",
        "chunks_before",
        "recovered",
        "recovered_mb",
        "intact_pct",
        "repairs",
        "repair_mb",
        "lost",
        "recovery_s"
    ]];
    let mut csv = String::from(
        "backend,chunks_before,recovered_chunks,recovered_bytes,intact_pct,repairs,repair_bytes,lost_chunks,recovery_s,quarantined\n",
    );
    for o in [&mem, &disk] {
        rows.push(row![
            o.backend,
            o.chunks_before,
            o.recovered_chunks,
            format!("{:.1}", o.recovered_bytes as f64 / MB as f64),
            format!("{:.1}", o.intact_pct),
            o.repairs,
            format!("{:.1}", o.repair_bytes as f64 / MB as f64),
            o.lost_chunks,
            format!("{:.1}", o.recovery_s)
        ]);
        csv.push_str(&format!(
            "{},{},{},{},{:.2},{},{},{},{:.2},{}\n",
            o.backend,
            o.chunks_before,
            o.recovered_chunks,
            o.recovered_bytes,
            o.intact_pct,
            o.repairs,
            o.repair_bytes,
            o.lost_chunks,
            o.recovery_s,
            o.quarantined
        ));
    }
    print_table(&rows);
    write_artifact("e13_recovery.csv", &csv);

    println!(
        "\npaper check: the restarted disk-backend provider recovered {}/{} chunks\n\
         ({:.1}% intact) from its local log and triggered {} bytes of repair\n\
         traffic; the memory baseline re-replicated {:.1} MB over the network.",
        disk.recovered_chunks,
        disk.chunks_before,
        disk.intact_pct,
        disk.repair_bytes,
        mem.repair_bytes as f64 / MB as f64
    );

    // The headline gates. Memory restarts lose everything, so the
    // replication manager must push repair traffic; the durable restart
    // must rejoin without any.
    assert!(mem.repair_bytes > 0, "memory baseline saw no repair traffic — timeline broken");
    assert_eq!(disk.repair_bytes, 0, "disk-backend restart triggered repair traffic");
    assert!(
        disk.intact_pct >= 99.0,
        "disk backend recovered only {:.1}% of the victim's chunks",
        disk.intact_pct
    );
    let ratio = mem.repair_bytes as f64 / (disk.repair_bytes.max(1)) as f64;
    assert!(ratio >= 10.0, "repair-traffic ratio {ratio:.1}x below 10x");
    assert_eq!(mem.recovered_chunks, 0, "memory backend claims recovered chunks");
    assert_eq!(disk.quarantined, 0, "clean shutdown quarantined chunks");
    println!("gates OK: disk repair bytes = 0, intact {:.1}%, ratio >= 10x", disk.intact_pct);
}
