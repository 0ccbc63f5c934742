//! E7 — paper §V, self-configuration: "a component that adapts the
//! storage system to the environment by contracting and expanding the
//! pool of data providers based on the system's load."
//!
//! A 12-writer burst hits a 3-provider pool; the controller must grow the
//! pool while utilization exceeds the high watermark and retire providers
//! after the burst drains.

use sads_bench::{print_table, row, write_artifact, BenchArgs};
use sads_blob::model::{BlobSpec, ClientId};
use sads_core::{Deployment, DeploymentConfig};
use sads_adaptive::{ElasticityPolicy, ScaleDecision};
use sads_sim::{SimDuration, SimTime, World};
use sads_workloads::writer_script;

const MB: u64 = 1_000_000;

fn main() {
    let args = BenchArgs::parse();
    println!("E7: elastic data-provider pool under a load burst\n");
    let writers = args.scaled(12) as u64;
    let cfg = DeploymentConfig {
        data_providers: args.scaled(3),
        meta_providers: 2,
        elasticity: Some(ElasticityPolicy::with(0.6, 0.15, 2, 20, 2, SimDuration::from_secs(12))),
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(args.seed_or(11)), cfg);
    let spec = BlobSpec { page_size: 8 * MB, replication: 1 };
    for i in 0..writers {
        d.add_client(
            ClientId(10 + i),
            writer_script(spec, 6_000 * MB, 64 * MB, SimTime(5_000_000_000)),
            "writer",
        );
    }
    d.world.run_for(SimDuration::from_secs(300), 100_000_000);

    let m = d.world.metrics();
    let mut rows = vec![row!["time_s", "pool", "utilization", "agg_write_MBps"]];
    let mut csv = String::from("time_s,pool,utilization,agg_write_mbps\n");
    let pool = m.binned_mean("elastic.pool", 10.0);
    let util = m.binned_mean("elastic.utilization", 10.0);
    let tp = m.binned_mean("writer.write_mbps", 10.0);
    for (t, p) in &pool {
        let u = util.iter().find(|(tu, _)| tu == t).map(|(_, v)| *v).unwrap_or(0.0);
        let th =
            tp.iter().find(|(tt, _)| tt == t).map(|(_, v)| v * writers as f64).unwrap_or(0.0);
        rows.push(row![
            format!("{t:.0}"),
            format!("{p:.0}"),
            format!("{u:.2}"),
            format!("{th:.0}")
        ]);
        csv.push_str(&format!("{t:.0},{p:.1},{u:.3},{th:.1}\n"));
    }
    print_table(&rows);
    write_artifact("e7_elasticity.csv", &csv);

    println!("\ncontroller decisions:");
    for (at, dec) in d.elasticity().expect("controller").decisions() {
        match dec {
            ScaleDecision::Expand { count } => {
                println!("  t={:>6.1}s expand +{count}", at.as_secs_f64())
            }
            ScaleDecision::Retire { providers } => {
                println!("  t={:>6.1}s retire -{}", at.as_secs_f64(), providers.len())
            }
        }
    }
    println!(
        "\nspawned {} / retired {}; writer failures: {}",
        m.counter("agent.spawned"),
        m.counter("agent.retired"),
        m.counter("writer.ops_err")
    );
    println!("paper check: the pool expands under load and contracts afterwards.");
}
