//! End-to-end self-protection loop (paper §IV-C): correct writers and DoS
//! attackers share a simulated deployment; the monitoring → introspection
//! → detection → enforcement pipeline must find the attackers, block
//! them, and let throughput recover.

use sads::blob::model::{BlobId, BlobSpec, ChunkKey, ClientId, VersionId};
use sads::blob::runtime::sim::{BlobRef, ScriptStep};
use sads::{Deployment, DeploymentConfig};
use sads_security::{PolicySet, SecurityConfig};
use sads_sim::{NodeConfig, RunOutcome, SimDuration, SimTime, World};
use sads_workloads::{writer_script, AttackConfig, AttackMode, DosAttacker};

const MB: u64 = 1_000_000;
const PAGE: u64 = 8 * MB;

fn dos_policies() -> PolicySet {
    PolicySet::parse(
        "policy dos_read_flood {\n\
           when rate(reads, window = 10s) > 30\n\
           then block for 300s severity high\n\
         }",
    )
    .unwrap()
}

/// Build the shared scenario: a seeder publishes a public BLOB, 8 correct
/// writers stream appends, `attackers` mount an amplified-read flood from
/// t = 30 s.
fn scenario(security: bool, attackers: usize, seed: u64) -> Deployment {
    let mut cfg = DeploymentConfig {
        data_providers: 16,
        meta_providers: 4,
        monitors: 2,
        storage_servers: 2,
        ..DeploymentConfig::default()
    };
    if security {
        cfg.security = Some((
            dos_policies(),
            SecurityConfig { scan_every: SimDuration::from_secs(5), ..Default::default() },
        ));
    }
    let mut d = Deployment::build(World::with_seed(seed), cfg);

    // Seeder: 256 MB public BLOB, written immediately (one op).
    let spec = BlobSpec { page_size: PAGE, replication: 1 };
    d.add_client(
        ClientId(1),
        vec![
            ScriptStep::Create(spec),
            ScriptStep::Write {
                blob: BlobRef::Created(0),
                kind: sads::blob::WriteKind::Append,
                bytes: 32 * PAGE,
            },
        ],
        "seeder",
    );

    // Correct writers: 8 GB each in 64 MB ops, starting at t = 10 s.
    for i in 0..8u64 {
        let script = writer_script(spec, 8_000 * MB, 64 * MB, SimTime(10_000_000_000));
        d.add_client(ClientId(10 + i), script, "writer");
    }

    // Attackers: amplified reads of the seeded BLOB. The seeder's 32
    // chunks are the deployment's first allocation, so the round-robin
    // strategy placed page p on the p-th provider (mod pool size) — the
    // placement any reader learns from the public metadata.
    let targets: Vec<(sads_sim::NodeId, ChunkKey)> = (0..32u64)
        .map(|p| {
            (
                d.nodes.data[(p as usize) % d.nodes.data.len()],
                ChunkKey { blob: BlobId(1), version: VersionId(1), page: p },
            )
        })
        .collect();
    for i in 0..attackers as u64 {
        let atk = DosAttacker::new(
            ClientId(100 + i),
            d.nodes.data.clone(),
            AttackConfig {
                start_at: SimTime(30_000_000_000),
                stop_at: SimTime(600_000_000_000),
                mode: AttackMode::AmplifiedReads { targets: targets.clone() },
                rate_per_sec: 60.0,
            },
        );
        d.world.add_node(Box::new(atk), NodeConfig::default());
    }
    d
}

/// Mean per-op write throughput of completions landing in `[from, to)`
/// seconds.
fn window_mean(d: &Deployment, name: &str, from: f64, to: f64) -> Option<f64> {
    let s = d.world.metrics().series(name);
    let vals: Vec<f64> = s
        .iter()
        .filter(|x| x.at.as_secs_f64() >= from && x.at.as_secs_f64() < to)
        .map(|x| x.value)
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

#[test]
fn dos_attack_is_detected_blocked_and_throughput_recovers() {
    let mut d = scenario(true, 6, 7);
    let out = d.world.run_for(SimDuration::from_secs(180), 50_000_000);
    assert_ne!(out, RunOutcome::EventLimit, "simulation livelocked");

    // 1. Baseline before the attack is healthy (~110 MB/s per client).
    let baseline = window_mean(&d, "writer.write_mbps", 12.0, 30.0).expect("baseline ops");
    assert!(baseline > 80.0, "baseline {baseline} MB/s");

    // 2. The attack degrades throughput substantially (paper: up to 70%).
    let under_attack = window_mean(&d, "writer.write_mbps", 32.0, 45.0).unwrap_or(0.0);
    assert!(
        under_attack < baseline * 0.6,
        "attack had little effect: {under_attack} vs baseline {baseline}"
    );

    // 3. Every attacker is detected and blocked.
    let engine = d.security_engine().expect("engine deployed");
    let detections = engine.detections();
    assert_eq!(detections.len(), 6, "all attackers detected: {detections:?}");
    for det in detections {
        assert!(det.client.0 >= 100, "only attackers sanctioned: {det:?}");
        let t = det.at.as_secs_f64();
        assert!(t > 30.0 && t < 75.0, "detection at {t}s");
    }
    // No correct client was ever sanctioned.
    assert!(engine.enforcer().violation_log().iter().all(|v| v.client.0 >= 100));

    // 4. Attackers fall silent after blocking.
    assert_eq!(d.world.metrics().counter("attacker.silenced"), 6);

    // 5. Throughput recovers towards the initial value (paper §IV-C-1).
    let recovered = window_mean(&d, "writer.write_mbps", 80.0, 150.0).expect("late ops");
    assert!(
        recovered > baseline * 0.7,
        "throughput did not recover: {recovered} vs baseline {baseline}"
    );
}

#[test]
fn without_security_the_attack_persists() {
    let mut d = scenario(false, 6, 7);
    d.world.run_for(SimDuration::from_secs(150), 50_000_000);
    let baseline = window_mean(&d, "writer.write_mbps", 12.0, 30.0).expect("baseline ops");
    let late = window_mean(&d, "writer.write_mbps", 60.0, 150.0).unwrap_or(0.0);
    assert!(
        late < baseline * 0.6,
        "unprotected system should stay degraded: late {late} vs baseline {baseline}"
    );
    assert_eq!(d.world.metrics().counter("attacker.silenced"), 0);
}

#[test]
fn all_correct_clients_run_at_full_speed_without_attackers() {
    let mut d = scenario(true, 0, 7);
    d.world.run_for(SimDuration::from_secs(120), 50_000_000);
    let tp = window_mean(&d, "writer.write_mbps", 12.0, 90.0).expect("ops");
    assert!(tp > 90.0, "clean-system throughput {tp} MB/s");
    // And the engine saw plenty of activity yet sanctioned nobody.
    let engine = d.security_engine().expect("engine deployed");
    assert!(engine.history().total_ingested() > 0, "activity flowed");
    assert!(engine.detections().is_empty());
}
