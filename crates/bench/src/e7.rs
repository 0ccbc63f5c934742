//! E7 — paper §V, self-configuration: "a component that adapts the
//! storage system to the environment by contracting and expanding the
//! pool of data providers based on the system's load."
//!
//! A 12-writer burst hits a 3-provider pool; the controller must grow the
//! pool while utilization exceeds the high watermark and retire providers
//! after the burst drains.

use sads_adaptive::{ElasticityPolicy, ScaleDecision};
use sads_blob::model::{BlobSpec, ClientId};
use sads_core::{Deployment, DeploymentConfig};
use sads_introspect::viz::table;
use sads_sim::{SimDuration, SimTime, World};
use sads_workloads::writer_script;

use crate::{row, BenchArgs, Claim, Report};

const MB: u64 = 1_000_000;
/// The pool never shrinks below this many providers.
const FLOOR: usize = 2;

/// The burst, run for 300 s: 12 writers of 6 GB each from t = 5 s on 3
/// elastic providers (watermarks 0.60 / 0.15, floor 2, step 2, cooldown
/// 12 s).
pub fn burst(args: &BenchArgs) -> Deployment {
    let cfg = DeploymentConfig {
        data_providers: args.scaled(3),
        meta_providers: 2,
        elasticity: Some(ElasticityPolicy::with(
            0.6,
            0.15,
            FLOOR,
            20,
            2,
            SimDuration::from_secs(12),
        )),
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(args.seed_or(11)), cfg);
    let spec = BlobSpec { page_size: 8 * MB, replication: 1 };
    for i in 0..args.scaled(12) as u64 {
        d.add_client(
            ClientId(10 + i),
            writer_script(spec, 6_000 * MB, 64 * MB, SimTime(5_000_000_000)),
            "writer",
        );
    }
    d.world.run_for(SimDuration::from_secs(300), 100_000_000);
    d
}

/// Run the burst and report the pool over time.
pub fn run(args: &BenchArgs) -> Report {
    let d = burst(args);
    let writers = args.scaled(12) as f64;
    let m = d.world.metrics();
    let mut rows = vec![row!["time_s", "pool", "utilization", "agg_write_MBps"]];
    let mut csv = String::from("time_s,pool,utilization,agg_write_mbps\n");
    let util = m.binned_mean("elastic.utilization", 10.0);
    let tp = m.binned_mean("writer.write_mbps", 10.0);
    for (t, p) in m.binned_mean("elastic.pool", 10.0) {
        let u = util.iter().find(|(tu, _)| *tu == t).map(|(_, v)| *v).unwrap_or(0.0);
        let th = tp.iter().find(|(tt, _)| *tt == t).map(|(_, v)| v * writers).unwrap_or(0.0);
        rows.push(row![
            format!("{t:.0}"),
            format!("{p:.0}"),
            format!("{u:.2}"),
            format!("{th:.0}")
        ]);
        csv.push_str(&format!("{t:.0},{p:.1},{u:.3},{th:.1}\n"));
    }
    let mut text = format!(
        "E7: elastic data-provider pool under a load burst\n\n{}\ncontroller decisions:\n",
        table(&rows)
    );
    for (at, dec) in d.elasticity().expect("controller").decisions() {
        let at = at.as_secs_f64();
        text += &match dec {
            ScaleDecision::Expand { count } => format!("  t={at:>6.1}s expand +{count}\n"),
            ScaleDecision::Retire { providers } => {
                format!("  t={at:>6.1}s retire -{}\n", providers.len())
            }
        };
    }
    text += &format!(
        "\nspawned {} / retired {}; writer failures: {}\n",
        m.counter("agent.spawned"),
        m.counter("agent.retired"),
        m.counter("writer.ops_err")
    );
    let pool: Vec<f64> = m.series("elastic.pool").iter().map(|s| s.value).collect();
    let peak = pool.iter().copied().fold(0.0, f64::max);
    let last = pool.last().copied().unwrap_or(0.0);
    let initial = args.scaled(3);
    Report {
        text,
        artifacts: vec![("e7_elasticity.csv", csv)],
        claims: vec![
            Claim {
                holds: peak >= 2.0 * initial as f64,
                what: format!("the pool peaks at {peak} >= 2 x its initial {initial}"),
            },
            Claim {
                holds: last == FLOOR as f64,
                what: format!("the pool ends at {last}, its floor of {FLOOR}"),
            },
        ],
    }
}
