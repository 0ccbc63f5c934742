//! The paper's headline demo (§IV-C): a simulated deployment under a
//! Denial-of-Service attack. Watch the average client throughput
//! collapse when the attack starts and recover once the Policy
//! Management framework detects and blocks the malicious clients.
//!
//! ```sh
//! cargo run --release --example dos_defense
//! ```

use sads::blob::model::{BlobId, BlobSpec, ChunkKey, ClientId, VersionId};
use sads::blob::runtime::sim::{BlobRef, ScriptStep};
use sads::blob::WriteKind;
use sads::{Deployment, DeploymentConfig};
use sads_introspect::{viz, TimeSeries};
use sads_security::{PolicySet, SecurityConfig};
use sads_sim::{NodeConfig, SimDuration, SimTime, World};
use sads_workloads::{writer_script, AttackConfig, AttackMode, DosAttacker};

const MB: u64 = 1_000_000;
const PAGE: u64 = 8 * MB;

fn main() {
    // The administrator's policy, written in the framework's policy
    // description language.
    let policy_src = "policy dos_read_flood {\n  when rate(reads, window = 10s) > 30\n  then block for 300s severity high\n}";
    println!("security policy:\n{policy_src}\n");

    let cfg = DeploymentConfig {
        data_providers: 16,
        meta_providers: 4,
        monitors: 2,
        storage_servers: 2,
        security: Some((
            PolicySet::parse(policy_src).unwrap(),
            SecurityConfig { scan_every: SimDuration::from_secs(5), ..Default::default() },
        )),
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(7), cfg);

    // A seeder publishes a public 256 MB dataset.
    let spec = BlobSpec { page_size: PAGE, replication: 1 };
    d.add_client(
        ClientId(1),
        vec![
            ScriptStep::Create(spec),
            ScriptStep::Write {
                blob: BlobRef::Created(0),
                kind: WriteKind::Append,
                bytes: 32 * PAGE,
            },
        ],
        "seeder",
    );

    // Eight correct clients stream 8 GB each from t = 10 s.
    for i in 0..8u64 {
        d.add_client(
            ClientId(10 + i),
            writer_script(spec, 8_000 * MB, 64 * MB, SimTime(10_000_000_000)),
            "writer",
        );
    }

    // Six attackers mount an amplified-read flood from t = 30 s.
    let targets: Vec<(sads_sim::NodeId, ChunkKey)> = (0..32u64)
        .map(|p| {
            (
                d.nodes.data[(p as usize) % d.nodes.data.len()],
                ChunkKey { blob: BlobId(1), version: VersionId(1), page: p },
            )
        })
        .collect();
    for i in 0..6u64 {
        d.world.add_node(
            Box::new(DosAttacker::new(
                ClientId(100 + i),
                d.nodes.data.clone(),
                AttackConfig {
                    start_at: SimTime(30_000_000_000),
                    stop_at: SimTime(600_000_000_000),
                    mode: AttackMode::AmplifiedReads { targets: targets.clone() },
                    rate_per_sec: 60.0,
                },
            )),
            NodeConfig::default(),
        );
    }

    println!("running 180 simulated seconds (attack starts at t = 30 s)…\n");
    d.world.run_for(SimDuration::from_secs(180), 100_000_000);

    // Timeline of average per-client write throughput.
    let series = TimeSeries::from_points(
        d.world
            .metrics()
            .series("writer.write_mbps")
            .iter()
            .map(|s| (s.at, s.value))
            .collect(),
    );
    let binned = series.binned(5.0);
    let smooth = TimeSeries::from_points(
        binned
            .iter()
            .map(|(t, v)| (SimTime((t * 1e9) as u64), *v))
            .collect(),
    );
    println!(
        "{}",
        viz::line_chart("avg client write throughput (MB/s) — attack at t=30s", &smooth, 70, 12)
    );

    // The engine's story.
    let engine = d.security_engine().expect("engine");
    println!("detections:");
    for det in engine.detections() {
        println!(
            "  t={:>6.1}s  client {}  violated '{}'",
            det.at.as_secs_f64(),
            det.client,
            det.policy
        );
    }
    for c in (0..6).map(|i| ClientId(100 + i)) {
        println!(
            "  trust({c}) = {:.2}   sanctioned: {}",
            engine.trust().get(c, d.world.now()),
            engine.enforcer().is_sanctioned(c)
        );
    }
    println!(
        "\nattackers silenced: {}/6; correct ops failed: {}",
        d.world.metrics().counter("attacker.silenced"),
        d.world.metrics().counter("writer.ops_err"),
    );
}
