//! E8 — paper §V, self-optimization: "automatically maintain the
//! replication degree of data chunks and … support a dynamic adjustment
//! of the replication degree, according to the load of the storage nodes
//! and the applications access patterns", plus the configurable data
//! removal strategies (the lifecycle sweeper's retention policies).
//!
//! Part A kills providers under a replicated dataset and measures repair.
//! Part B overwrites a BLOB repeatedly under a keep-last-k policy and
//! measures reclamation.

use sads_adaptive::ReplicationConfig;
use sads_blob::model::{BlobId, BlobSpec, ClientId};
use sads_blob::runtime::sim::{BlobRef, ScriptStep};
use sads_blob::services::{DataProviderService, VersionManagerService};
use sads_blob::WriteKind;
use sads_core::{Deployment, DeploymentConfig};
use sads_introspect::viz::table;
use sads_lifecycle::{LifecycleConfig, RetentionPolicy};
use sads_sim::{NodeId, SimDuration, World};

use crate::{row, BenchArgs, Claim, Report};

const MB: u64 = 1_000_000;
/// Part A's dataset: 48 chunks of 2 MB at degree 3.
const DEGREE: u32 = 3;
const REPLICAS: usize = 48 * DEGREE as usize;

fn held_by(d: &Deployment, provider: NodeId) -> usize {
    d.world.actor_as::<DataProviderService>(provider).map_or(0, |p| p.store().len())
}

fn chunks_held(d: &Deployment) -> usize {
    d.nodes.data.iter().filter(|p| d.world.is_up(**p)).map(|p| held_by(d, *p)).sum()
}

fn part_a(args: &BenchArgs) -> Report {
    let cfg = DeploymentConfig {
        data_providers: args.scaled(10),
        meta_providers: 2,
        replication: Some(ReplicationConfig {
            base_degree: DEGREE,
            sweep_every: SimDuration::from_secs(2),
            ..ReplicationConfig::default()
        }),
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(args.seed_or(88)), cfg);
    let spec = BlobSpec { page_size: 2 * MB, replication: DEGREE };
    d.add_client(
        ClientId(1),
        vec![
            ScriptStep::Create(spec),
            ScriptStep::Write {
                blob: BlobRef::Created(0),
                kind: WriteKind::Append,
                bytes: 96 * MB,
            },
        ],
        "writer",
    );
    d.world.run_for(SimDuration::from_secs(20), 50_000_000);

    let mut rows = vec![row!["event", "time_s", "replicas_total", "repairs_done", "reads_ok"]];
    let (mut restored, mut at_degree, mut repaired_exactly) = (true, true, true);
    let (mut reads, mut repairs) = (0, 0);
    let phases = [("baseline", None), ("kill provider #1", Some(2)), ("kill provider #2", Some(5))];
    for (round, (label, victim)) in phases.into_iter().enumerate() {
        let mut lost_replicas = 0;
        if let Some(i) = victim {
            let victim = d.nodes.data[i];
            lost_replicas = held_by(&d, victim);
            d.crash(victim);
        }
        // A fresh reader verifies availability after each phase.
        let blob = BlobRef::Id(BlobId(1));
        let read = ScriptStep::Read { blob, version: None, offset: 0, len: 96 * MB };
        d.add_client(ClientId(101 + round as u64), vec![read], "reader");
        d.world.run_for(SimDuration::from_secs(40), 50_000_000);
        reads = d.world.metrics().counter("reader.ops_ok");
        let repl = d.replication().expect("replication manager");
        repaired_exactly &= repl.repairs_done() - repairs == lost_replicas as u64;
        repairs = repl.repairs_done();
        at_degree &= repl.placement().values().all(|holders| {
            holders.len() == DEGREE as usize && holders.iter().all(|h| d.world.is_up(*h))
        });
        let held = chunks_held(&d);
        restored &= held == REPLICAS;
        rows.push(row![label, format!("{:.0}", d.world.now().as_secs_f64()), held, repairs, reads]);
    }
    let lost = d.world.metrics().counter("repl.lost_chunks");
    let text = format!(
        "E8a: replication repair under provider failures\n\n{}\n\
         48 chunks x 3 replicas = {REPLICAS} expected; chunks permanently lost: {lost}\n",
        table(&rows)
    );
    let mut csv = String::from("event,time_s,replicas_total,repairs,reads_ok\n");
    for r in rows.iter().skip(1) {
        csv.push_str(&format!("{}\n", r.join(",")));
    }
    let claims = vec![
        Claim {
            holds: restored,
            what: format!("replicas_total back at {REPLICAS} after each kill"),
        },
        Claim {
            holds: at_degree,
            what: format!("every chunk at degree {DEGREE} on live providers after a kill"),
        },
        Claim {
            holds: repaired_exactly,
            what: "each kill costs as many repairs as the victim held".into(),
        },
        Claim { holds: reads == 3, what: format!("every full read succeeds: {reads} of 3") },
    ];
    Report { text, artifacts: vec![("e8a_replication.csv", csv)], claims }
}

fn part_b(args: &BenchArgs) -> Report {
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
    let versions: Vec<u64> =
        vman.state().blob(BlobId(1)).expect("blob").versions().map(|v| v.version.0).collect();
    let failures = d.world.metrics().counter("client.ops_err");
    let held = chunks_held(&d);
    let mut rows = vec![row!["metric", "value"]];
    rows.push(row!["versions written", 8]);
    rows.push(row!["versions surviving", format!("{versions:?}")]);
    rows.push(row!["versions retired", d.world.metrics().counter("lifecycle.versions_retired")]);
    rows.push(row!["chunks deleted", d.world.metrics().counter("lifecycle.chunks_reclaimed")]);
    rows.push(row!["meta nodes deleted", d.world.metrics().counter("lifecycle.nodes_reclaimed")]);
    rows.push(row!["chunks still held", held]);
    rows.push(row!["client failures", failures]);
    let mut csv = String::new();
    for r in &rows {
        // The surviving-versions list holds commas: quote it.
        let value = if r[1].contains(',') { format!("\"{}\"", r[1]) } else { r[1].clone() };
        csv.push_str(&format!("{},{value}\n", r[0]));
    }
    let text = format!(
        "\nE8b: data-removal strategies (keep-last-2 of repeated overwrites)\n\n{}",
        table(&rows)
    );
    let kept = Claim {
        holds: versions == [0, 7, 8] && held == 2 * 16 && failures == 0,
        what: format!(
            "keep-last-2 of 8 keeps versions {versions:?}, {held} chunks, {failures} failed"
        ),
    };
    Report { text, artifacts: vec![("e8b_removal.csv", csv)], claims: vec![kept] }
}

/// Run both parts.
pub fn run(args: &BenchArgs) -> Report {
    let (a, b) = (part_a(args), part_b(args));
    Report {
        text: a.text + &b.text,
        artifacts: [a.artifacts, b.artifacts].concat(),
        claims: a.claims.into_iter().chain(b.claims).collect(),
    }
}
