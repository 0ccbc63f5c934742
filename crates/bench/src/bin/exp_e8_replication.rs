//! E8 — paper §V, self-optimization: "automatically maintain the
//! replication degree of data chunks and … support a dynamic adjustment
//! of the replication degree, according to the load of the storage nodes
//! and the applications access patterns", plus the configurable data
//! removal strategies (the lifecycle sweeper's retention policies).
//!
//! Part A kills providers under a replicated dataset and measures repair.
//! Part B overwrites a BLOB repeatedly under a keep-last-k policy and
//! measures reclamation.

use sads_bench::{print_table, row, write_artifact, BenchArgs};
use sads_blob::model::{BlobId, BlobSpec, ClientId};
use sads_blob::runtime::sim::{BlobRef, ScriptStep};
use sads_blob::services::{DataProviderService, VersionManagerService};
use sads_blob::WriteKind;
use sads_core::{Deployment, DeploymentConfig};
use sads_adaptive::ReplicationConfig;
use sads_lifecycle::{LifecycleConfig, RetentionPolicy};
use sads_sim::{SimDuration, World};

const MB: u64 = 1_000_000;

fn chunks_held(d: &Deployment) -> usize {
    d.nodes.data
        .iter()
        .filter(|p| d.world.is_up(**p))
        .filter_map(|p| d.world.actor_as::<DataProviderService>(*p))
        .map(|p| p.store().len())
        .sum()
}

fn part_a(args: &BenchArgs) {
    println!("E8a: replication repair under provider failures\n");
    let cfg = DeploymentConfig {
        data_providers: args.scaled(10),
        meta_providers: 2,
        replication: Some(ReplicationConfig {
            base_degree: 3,
            sweep_every: SimDuration::from_secs(2),
            ..ReplicationConfig::default()
        }),
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(args.seed_or(88)), cfg);
    let spec = BlobSpec { page_size: 2 * MB, replication: 3 };
    d.add_client(
        ClientId(1),
        vec![
            ScriptStep::Create(spec),
            ScriptStep::Write { blob: BlobRef::Created(0), kind: WriteKind::Append, bytes: 96 * MB },
        ],
        "writer",
    );
    d.world.run_for(SimDuration::from_secs(20), 50_000_000);

    let mut rows = vec![row!["event", "time_s", "replicas_total", "repairs_done", "reads_ok"]];
    let mut reads = 0u64;
    let mut read_round = 0u64;
    let mut snapshot = |d: &mut Deployment, label: &str, reads: &mut u64, round: &mut u64| {
        // A fresh reader verifies availability after each phase.
        *round += 1;
        d.add_client(
            ClientId(100 + *round),
            vec![ScriptStep::Read {
                blob: BlobRef::Id(BlobId(1)),
                version: None,
                offset: 0,
                len: 96 * MB,
            }],
            "reader",
        );
        d.world.run_for(SimDuration::from_secs(40), 50_000_000);
        *reads = d.world.metrics().counter("reader.ops_ok");
        let repairs = d.replication().map(|r| r.repairs_done()).unwrap_or(0);
        rows.push(row![
            label,
            format!("{:.0}", d.world.now().as_secs_f64()),
            chunks_held(d),
            repairs,
            *reads
        ]);
    };

    snapshot(&mut d, "baseline", &mut reads, &mut read_round);
    let victim1 = d.nodes.data[2];
    d.crash(victim1);
    snapshot(&mut d, "kill provider #1", &mut reads, &mut read_round);
    let victim2 = d.nodes.data[5];
    d.crash(victim2);
    snapshot(&mut d, "kill provider #2", &mut reads, &mut read_round);

    print_table(&rows);
    let lost = d.world.metrics().counter("repl.lost_chunks");
    println!(
        "\n48 chunks x 3 replicas = 144 expected; chunks permanently lost: {lost}; \
         every read succeeded: {}",
        reads == read_round
    );

    let mut csv = String::from("event,time_s,replicas_total,repairs,reads_ok\n");
    for r in rows.iter().skip(1) {
        csv.push_str(&format!("{}\n", r.join(",")));
    }
    write_artifact("e8a_replication.csv", &csv);
}

fn part_b(args: &BenchArgs) {
    println!("\nE8b: data-removal strategies (keep-last-2 of repeated overwrites)\n");
    let cfg = DeploymentConfig {
        data_providers: args.scaled(6),
        meta_providers: 2,
        lifecycle: Some(LifecycleConfig {
            policy: RetentionPolicy::KeepLastN(2),
            sweep_every: SimDuration::from_secs(10),
            ..LifecycleConfig::default()
        }),
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(args.seed_or(88) + 1), cfg);
    let spec = BlobSpec { page_size: 2 * MB, replication: 1 };
    let mut script = vec![ScriptStep::Create(spec)];
    for _ in 0..8 {
        script.push(ScriptStep::Write {
            blob: BlobRef::Created(0),
            kind: WriteKind::At(0),
            bytes: 32 * MB,
        });
        script.push(ScriptStep::Pause(SimDuration::from_secs(5)));
    }
    d.add_client(ClientId(1), script, "client");
    d.world.run_for(SimDuration::from_secs(120), 50_000_000);

    let vman = d.world.actor_as::<VersionManagerService>(d.nodes.vman).expect("vman");
    let versions: Vec<u64> = vman
        .state()
        .blob(BlobId(1))
        .expect("blob")
        .versions()
        .map(|v| v.version.0)
        .collect();
    let mut rows = vec![row!["metric", "value"]];
    rows.push(row!["versions written", 8]);
    rows.push(row!["versions surviving", format!("{versions:?}")]);
    rows.push(row!["versions retired", d.world.metrics().counter("lifecycle.versions_retired")]);
    rows.push(row!["chunks deleted", d.world.metrics().counter("lifecycle.chunks_reclaimed")]);
    rows.push(row!["meta nodes deleted", d.world.metrics().counter("lifecycle.nodes_reclaimed")]);
    rows.push(row!["chunks still held", chunks_held(&d)]);
    rows.push(row!["client failures", d.world.metrics().counter("client.ops_err")]);
    print_table(&rows);
    let mut csv = String::new();
    for r in &rows {
        // The surviving-versions list holds commas: quote it.
        let value = if r[1].contains(',') { format!("\"{}\"", r[1]) } else { r[1].clone() };
        csv.push_str(&format!("{},{value}\n", r[0]));
    }
    write_artifact("e8b_removal.csv", &csv);
    println!("\npaper check: seldom-accessed/temporary versions are reclaimed");
    println!("automatically while the surviving snapshots stay readable.");
}

fn main() {
    let args = BenchArgs::parse();
    part_a(&args);
    part_b(&args);
}
