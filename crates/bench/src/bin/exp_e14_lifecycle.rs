//! E14 — the storage lifecycle layer: retention-driven GC, snapshot
//! pinning, and the background integrity scrub. The paper's
//! self-optimization axis names replication *and* removal; E8 covered
//! replication, this experiment measures the removal half plus the
//! scrub→repair loop that keeps aged data honest.
//!
//! Three phases:
//!
//! 1. **Reclamation under churn** (sim, disk backend): one BLOB is
//!    overwritten `W` times under `KeepAll` and again under
//!    `KeepLastN(2)`. Reported per policy: versions retired, chunks and
//!    bytes reclaimed by the lifecycle sweeper, and bytes the disk
//!    backend's compactor physically recovered (GC deletions count as
//!    dead bytes — the satellite bugfix this experiment exercises
//!    end to end).
//! 2. **Snapshot pinning** (threaded runtime, real bytes): a version is
//!    pinned, the BLOB is overwritten repeatedly, GC sweeps run at a
//!    fast pace, and the pinned version must read back byte-for-byte
//!    while unpinned churn is reclaimed around it.
//! 3. **Scrub → quarantine → repair** (sim, disk backend, replication
//!    2): corruption is injected into one provider's stored replicas;
//!    the scrubber must detect 100% of it, the provider quarantines,
//!    and the replication manager repairs every damaged chunk back to
//!    full replication with zero lost chunks.
//!
//! Output: `results/e14_lifecycle.csv` (long format: `phase,label,
//! metric,value`). `--smoke` runs smaller datasets and gates CI on the
//! headline results: reclaimed bytes > 0 under `KeepLastN` churn,
//! `KeepAll` reclaims nothing, the snapshot survives byte-for-byte, and
//! the scrub detects and repairs all injected corruptions.

use bytes::Bytes;
use sads_adaptive::ReplicationConfig;
use sads_bench::{print_table, row, write_artifact, BenchArgs};
use sads_blob::model::{BlobSpec, ClientId};
use sads_blob::rpc::Msg;
use sads_blob::runtime::sim::{BlobRef, ScriptStep};
use sads_blob::services::DataProviderService;
use sads_blob::{BackendSpec, WriteKind};
use sads_blob::runtime::threaded::ClusterBuilder;
use sads_core::{install, Deployment, DeploymentConfig};
use sads_lifecycle::{LifecycleConfig, RetentionPolicy, ScrubConfig};
use sads_sim::{SimDuration, SimTime, World};

const MIB: u64 = 1 << 20;
const MAX_EVENTS: u64 = 50_000_000;

// ---------------------------------------------------------------- phase 1

struct ChurnOutcome {
    label: &'static str,
    versions_retired: u64,
    chunks_reclaimed: u64,
    reclaimed_bytes: u64,
    dead_bytes: u64,
    compacted_bytes: u64,
}

/// Overwrite one BLOB `writes` times (same range, so every superseded
/// version is fully dead) under `policy`, with the lifecycle sweeper
/// running every 2 s, and report what it reclaimed.
fn churn(args: &BenchArgs, label: &'static str, policy: RetentionPolicy) -> ChurnOutcome {
    let page = 256 * 1024;
    let (writes, write_bytes, run_s) =
        if args.smoke { (8u64, 2 * MIB, 30u64) } else { (20u64, 8 * MIB, 60u64) };
    let root = std::env::temp_dir().join(format!("sads-e14-churn-{label}-{}", std::process::id()));
    let cfg = DeploymentConfig {
        data_providers: args.scaled(6),
        meta_providers: 2,
        lifecycle: Some(LifecycleConfig {
            policy,
            sweep_every: SimDuration::from_secs(2),
            max_chunks_per_sweep: 10_000,
        }),
        // Sim payloads are size-only stand-ins (~42-byte log frames), so
        // size segments at frame scale: the churn must seal segments for
        // the compactor to rewrite — it never touches the active one.
        backend: BackendSpec::Disk {
            root: root.clone(),
            segment_bytes: if args.smoke { 256 } else { 1024 },
            compact_min_dead_ratio: 0.5,
        },
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(args.seed_or(141)), cfg);

    let spec = BlobSpec { page_size: page, replication: 1 };
    let mut steps = vec![ScriptStep::Create(spec)];
    for _ in 0..writes {
        steps.push(ScriptStep::Write {
            blob: BlobRef::Created(0),
            kind: WriteKind::At(0),
            bytes: write_bytes,
        });
        steps.push(ScriptStep::Pause(SimDuration::from_secs(1)));
    }
    d.add_client(ClientId(1), steps, "churner");
    d.world.run_until(SimTime::from_secs(run_s), MAX_EVENTS);

    let m = d.world.metrics();
    let _ = std::fs::remove_dir_all(&root);
    ChurnOutcome {
        label,
        versions_retired: m.counter("lifecycle.versions_retired"),
        chunks_reclaimed: m.counter("lifecycle.chunks_reclaimed"),
        reclaimed_bytes: m.counter("lifecycle.reclaimed_bytes"),
        // Every overwritten version except the two the policy keeps is
        // fully dead: that is the reclaimable ceiling.
        dead_bytes: (writes - 2) * write_bytes,
        compacted_bytes: m.counter("provider.compacted_bytes"),
    }
}

// ---------------------------------------------------------------- phase 2

struct SnapshotOutcome {
    pinned_intact: bool,
    latest_intact: bool,
    chunks_reclaimed: u64,
    versions_retired: u64,
}

fn pattern(len: usize, seed: u8) -> Bytes {
    Bytes::from(
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect::<Vec<u8>>(),
    )
}

/// Threaded runtime, real bytes: pin a version, churn past it under
/// `KeepLastN(2)` with fast sweeps, and read the pin back.
fn snapshot_pin() -> SnapshotOutcome {
    let page = 64 * 1024u64;
    let len = 8 * page as usize;
    let mut cluster = ClusterBuilder::new().host();
    let spec = DeploymentConfig {
        data_providers: 4,
        meta_providers: 2,
        monitors: 1,
        storage_servers: 1,
        lifecycle: Some(LifecycleConfig {
            policy: RetentionPolicy::KeepLastN(2),
            sweep_every: SimDuration::from_millis(150),
            max_chunks_per_sweep: 10_000,
        }),
        ..DeploymentConfig::default()
    };
    install(&spec, &mut cluster);
    let client = cluster.client(ClientId(7));
    let blob = client.create(BlobSpec { page_size: page, replication: 1 }).expect("create");
    let first = pattern(len, 1);
    client.write(blob, 0, first.clone()).expect("write v1");
    let pin = client.snapshot(blob, None).expect("pin v1");
    let mut last = first.clone();
    for seed in 2..=7u8 {
        last = pattern(len, seed);
        client.write(blob, 0, last.clone()).expect("overwrite");
    }
    // ~13 sweep periods: the churned versions between the pin and the
    // retained tail are retired while we wait.
    std::thread::sleep(std::time::Duration::from_millis(2000));
    let pinned = client.read(blob, Some(pin), 0, len as u64).expect("read pin");
    let latest = client.read(blob, None, 0, len as u64).expect("read latest");
    let m = cluster.telemetry();
    let out = SnapshotOutcome {
        pinned_intact: pinned == first,
        latest_intact: latest == last,
        chunks_reclaimed: m.counter_total("lifecycle.chunks_reclaimed"),
        versions_retired: m.counter_total("lifecycle.versions_retired"),
    };
    cluster.shutdown();
    out
}

// ---------------------------------------------------------------- phase 3

struct ScrubOutcome {
    injected: u64,
    detected: u64,
    quarantined: u64,
    reports: u64,
    repairs: u64,
    lost: u64,
    final_deficit: f64,
    scanned: u64,
    scan_rate: f64,
    paced_rate: f64,
}

/// Sim, replication 2, disk backend: flip bytes in one provider's
/// stored replicas and let the scrub→quarantine→repair loop run.
fn scrub_repair(args: &BenchArgs) -> ScrubOutcome {
    let page = MIB;
    let (dataset, inject, run_s) =
        if args.smoke { (24 * MIB, 6usize, 70u64) } else { (96 * MIB, 16usize, 110u64) };
    let scrub_every = SimDuration::from_millis(400);
    let scrub_batch = 64u32;
    let root = std::env::temp_dir().join(format!("sads-e14-scrub-{}", std::process::id()));
    let cfg = DeploymentConfig {
        data_providers: args.scaled(6),
        meta_providers: 2,
        replication: Some(ReplicationConfig {
            base_degree: 2,
            sweep_every: SimDuration::from_secs(5),
            ..ReplicationConfig::default()
        }),
        scrub: Some(ScrubConfig { every: scrub_every, batch: scrub_batch }),
        backend: BackendSpec::disk(root.clone()),
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(args.seed_or(151)), cfg);

    let spec = BlobSpec { page_size: page, replication: 2 };
    d.add_client(
        ClientId(1),
        vec![
            ScriptStep::Create(spec),
            ScriptStep::Write { blob: BlobRef::Created(0), kind: WriteKind::Append, bytes: dataset },
        ],
        "loader",
    );
    // Load, then idle long enough for the replication manager to learn
    // the placement from monitoring write records.
    d.world.run_until(SimTime::from_secs(25), MAX_EVENTS);

    // Damage `inject` replicas on one provider, spread across its store.
    let victim = d.nodes.data[0];
    let keys = d
        .world
        .actor_as::<DataProviderService>(victim)
        .map(|p| p.store().keys_after(None, usize::MAX))
        .unwrap_or_default();
    assert!(keys.len() >= inject, "victim holds {} chunks, need {inject}", keys.len());
    let step = keys.len() / inject;
    let picks: Vec<_> = keys.iter().step_by(step.max(1)).take(inject).copied().collect();
    for key in &picks {
        d.world.send_external(victim, Box::new(Msg::CorruptChunk { key: *key }));
    }
    d.world.run_until(SimTime::from_secs(run_s), MAX_EVENTS);

    let m = d.world.metrics();
    let _ = std::fs::remove_dir_all(&root);
    let scanned = m.counter("lifecycle.scrub_scanned");
    ScrubOutcome {
        injected: picks.len() as u64,
        detected: m.counter("lifecycle.scrub_corrupt"),
        quarantined: m.counter("provider.quarantined_chunks"),
        reports: m.counter("repl.corrupt_reports"),
        repairs: m.counter("repl.repairs"),
        lost: m.counter("repl.lost_chunks"),
        final_deficit: m.series("repl.deficit").last().map(|s| s.value).unwrap_or(f64::NAN),
        scanned,
        scan_rate: scanned as f64 / run_s as f64,
        paced_rate: scrub_batch as f64 / scrub_every.as_secs_f64(),
    }
}

// ------------------------------------------------------------------- main

fn main() {
    let args = BenchArgs::parse();
    println!("E14: storage lifecycle — retention GC, snapshot pinning, scrub→repair\n");

    let keepall = churn(&args, "keepall", RetentionPolicy::KeepAll);
    let keeplast = churn(&args, "keeplast2", RetentionPolicy::KeepLastN(2));
    let snap = snapshot_pin();
    let scrub = scrub_repair(&args);

    let mut rows = vec![row![
        "policy",
        "versions_retired",
        "chunks_reclaimed",
        "reclaimed_mib",
        "dead_mib",
        "reclaimed_pct",
        "compacted_mib"
    ]];
    for o in [&keepall, &keeplast] {
        rows.push(row![
            o.label,
            o.versions_retired,
            o.chunks_reclaimed,
            format!("{:.1}", o.reclaimed_bytes as f64 / MIB as f64),
            format!("{:.1}", o.dead_bytes as f64 / MIB as f64),
            format!("{:.1}", 100.0 * o.reclaimed_bytes as f64 / o.dead_bytes as f64),
            format!("{:.1}", o.compacted_bytes as f64 / MIB as f64)
        ]);
    }
    print_table(&rows);

    println!();
    print_table(&[
        row!["snapshot", "pinned_intact", "latest_intact", "chunks_reclaimed", "versions_retired"],
        row![
            "keeplast2+pin",
            snap.pinned_intact,
            snap.latest_intact,
            snap.chunks_reclaimed,
            snap.versions_retired
        ],
    ]);

    println!();
    print_table(&[
        row![
            "scrub", "injected", "detected", "quarantined", "repairs", "lost", "final_deficit",
            "scan_rate", "paced_rate"
        ],
        row![
            "disk",
            scrub.injected,
            scrub.detected,
            scrub.quarantined,
            scrub.repairs,
            scrub.lost,
            format!("{:.0}", scrub.final_deficit),
            format!("{:.1}", scrub.scan_rate),
            format!("{:.1}", scrub.paced_rate)
        ],
    ]);

    let mut csv = String::from("phase,label,metric,value\n");
    for o in [&keepall, &keeplast] {
        for (k, v) in [
            ("versions_retired", o.versions_retired),
            ("chunks_reclaimed", o.chunks_reclaimed),
            ("reclaimed_bytes", o.reclaimed_bytes),
            ("dead_bytes", o.dead_bytes),
            ("compacted_bytes", o.compacted_bytes),
        ] {
            csv.push_str(&format!("reclaim,{},{k},{v}\n", o.label));
        }
    }
    csv.push_str(&format!("snapshot,keeplast2,pinned_intact,{}\n", snap.pinned_intact as u64));
    csv.push_str(&format!("snapshot,keeplast2,latest_intact,{}\n", snap.latest_intact as u64));
    csv.push_str(&format!("snapshot,keeplast2,chunks_reclaimed,{}\n", snap.chunks_reclaimed));
    csv.push_str(&format!("snapshot,keeplast2,versions_retired,{}\n", snap.versions_retired));
    for (k, v) in [
        ("injected", scrub.injected),
        ("detected", scrub.detected),
        ("quarantined", scrub.quarantined),
        ("corrupt_reports", scrub.reports),
        ("repairs", scrub.repairs),
        ("lost_chunks", scrub.lost),
        ("scrub_scanned", scrub.scanned),
    ] {
        csv.push_str(&format!("scrub,disk,{k},{v}\n"));
    }
    csv.push_str(&format!("scrub,disk,final_deficit,{:.0}\n", scrub.final_deficit));
    write_artifact("e14_lifecycle.csv", &csv);

    println!(
        "\npaper check: KeepLastN(2) reclaimed {:.1} MiB of {:.1} MiB dead ({:.0}%),\n\
         KeepAll reclaimed {:.1} MiB; the pinned snapshot read back byte-for-byte\n\
         across {} retired versions; the scrub caught {}/{} injected corruptions\n\
         and the repair loop restored full replication (final deficit {:.0}).",
        keeplast.reclaimed_bytes as f64 / MIB as f64,
        keeplast.dead_bytes as f64 / MIB as f64,
        100.0 * keeplast.reclaimed_bytes as f64 / keeplast.dead_bytes as f64,
        keepall.reclaimed_bytes as f64 / MIB as f64,
        snap.versions_retired,
        scrub.detected,
        scrub.injected,
        scrub.final_deficit
    );

    // The headline gates.
    assert_eq!(keepall.reclaimed_bytes, 0, "KeepAll must reclaim nothing");
    assert!(keeplast.reclaimed_bytes > 0, "KeepLastN churn reclaimed no bytes");
    assert!(
        keeplast.reclaimed_bytes * 2 >= keeplast.dead_bytes,
        "KeepLastN reclaimed {} of {} dead bytes (< 50%)",
        keeplast.reclaimed_bytes,
        keeplast.dead_bytes
    );
    assert!(keeplast.compacted_bytes > 0, "GC churn never triggered disk compaction");
    assert!(snap.pinned_intact, "pinned snapshot bytes changed across GC sweeps");
    assert!(snap.latest_intact, "latest version bytes wrong after churn");
    assert!(snap.chunks_reclaimed > 0, "snapshot run reclaimed nothing around the pin");
    assert_eq!(scrub.detected, scrub.injected, "scrub missed injected corruptions");
    assert_eq!(scrub.quarantined, scrub.injected, "quarantine count mismatch");
    assert!(scrub.repairs >= scrub.injected, "repair loop did not cover every corruption");
    assert_eq!(scrub.lost, 0, "corruption lost chunks despite a surviving replica");
    assert_eq!(scrub.final_deficit, 0.0, "replica deficit still open at the end");
    assert!(
        scrub.scan_rate <= scrub.paced_rate * 1.2,
        "scrub scan rate {:.1}/s exceeds the configured pace {:.1}/s",
        scrub.scan_rate,
        scrub.paced_rate
    );
    println!(
        "gates OK: reclaim {:.0}% (KeepAll 0), snapshot byte-for-byte, scrub {}/{} repaired",
        100.0 * keeplast.reclaimed_bytes as f64 / keeplast.dead_bytes as f64,
        scrub.repairs.min(scrub.injected),
        scrub.injected
    );
}
