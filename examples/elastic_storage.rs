//! Self-configuration demo (paper §V): the elasticity controller expands
//! the data-provider pool while a burst of writers saturates the system,
//! then contracts it after the burst drains.
//!
//! ```sh
//! cargo run --release --example elastic_storage
//! ```

use sads::blob::model::{BlobSpec, ClientId};
use sads::{Deployment, DeploymentConfig};
use sads_adaptive::{ElasticityPolicy, ScaleDecision};
use sads_introspect::{viz, TimeSeries};
use sads_sim::{SimDuration, SimTime, World};
use sads_workloads::writer_script;

const MB: u64 = 1_000_000;

fn main() {
    let cfg = DeploymentConfig {
        data_providers: 3,
        meta_providers: 2,
        elasticity: Some(ElasticityPolicy::with(
            0.6,                         // expand above 60% utilization
            0.15,                        // contract below 15%
            2,                           // pool floor
            20,                          // pool ceiling
            2,                           // providers per action
            SimDuration::from_secs(12),  // cooldown
        )),
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(11), cfg);

    // Twelve writers demanding ~1.3 GB/s hit an initial pool that can
    // absorb ~375 MB/s.
    let spec = BlobSpec { page_size: 8 * MB, replication: 1 };
    for i in 0..12u64 {
        d.add_client(
            ClientId(10 + i),
            writer_script(spec, 6_000 * MB, 64 * MB, SimTime(5_000_000_000)),
            "writer",
        );
    }

    println!("running 300 simulated seconds of a 12-writer burst on a 3-provider pool…\n");
    d.world.run_for(SimDuration::from_secs(300), 100_000_000);

    let pool = TimeSeries::from_points(
        d.world.metrics().series("elastic.pool").iter().map(|s| (s.at, s.value)).collect(),
    );
    println!("{}", viz::line_chart("data-provider pool size", &pool, 70, 10));

    let util = TimeSeries::from_points(
        d.world
            .metrics()
            .series("elastic.utilization")
            .iter()
            .map(|s| (s.at, s.value))
            .collect(),
    );
    println!("{}", viz::line_chart("mean provider utilization (introspected)", &util, 70, 8));

    println!("controller decisions:");
    for (at, decision) in d.elasticity().expect("controller").decisions() {
        match decision {
            ScaleDecision::Expand { count } => {
                println!("  t={:>6.1}s  expand by {count}", at.as_secs_f64())
            }
            ScaleDecision::Retire { providers } => {
                println!("  t={:>6.1}s  retire {} providers", at.as_secs_f64(), providers.len())
            }
        }
    }
    println!(
        "\nspawned {} providers, retired {}; {} writer ops, {} failures",
        d.world.metrics().counter("agent.spawned"),
        d.world.metrics().counter("agent.retired"),
        d.world.metrics().counter("writer.ops_ok"),
        d.world.metrics().counter("writer.ops_err"),
    );
}
