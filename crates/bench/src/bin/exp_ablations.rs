//! Ablations over the design choices DESIGN.md calls out:
//!
//! * **A1 — allocation strategy**: write throughput and provider-load
//!   balance for round-robin / random / least-loaded / two-choices.
//! * **A2 — monitoring burst cache**: record loss with the storage
//!   servers' write-behind cache on vs off under an event burst.
//! * **A3 — detection scan period**: how the engine's scan interval
//!   trades CPU for detection latency.

use sads_bench::dos::{build, DosScenario, ATTACK_START_S, MB};
use sads_bench::{print_table, row, write_artifact, BenchArgs};
use sads_blob::model::{BlobSpec, ClientId};
use sads_blob::services::DataProviderService;
use sads_core::{Deployment, DeploymentConfig};
use sads_monitor::{StorageConfig, StorageServerService};
use sads_security::{PolicySet, SecurityConfig};
use sads_sim::{SimDuration, SimTime, World};
use sads_workloads::writer_script;

fn a1_allocation(args: &BenchArgs) {
    println!("A1: allocation strategy vs balance and throughput\n");
    let mut rows = vec![row!["strategy", "client_MBps", "max/min provider bytes", "stddev_MB"]];
    let mut csv = String::from("strategy,client_mbps,imbalance,stddev_mb\n");
    for strategy in ["round_robin", "random", "least_loaded", "two_choices"] {
        let cfg = DeploymentConfig {
            data_providers: args.scaled(16),
            meta_providers: 2,
            strategy,
            ..DeploymentConfig::default()
        };
        let mut d = Deployment::build(World::with_seed(args.seed_or(3)), cfg);
        let spec = BlobSpec { page_size: 8 * MB, replication: 2 };
        for i in 0..8u64 {
            d.add_client(
                ClientId(10 + i),
                writer_script(spec, 2_000 * MB, 128 * MB, SimTime(2_000_000_000)),
                "writer",
            );
        }
        d.world.run_for(SimDuration::from_secs(90), 100_000_000);
        let tp = d.world.metrics().mean("writer.write_mbps").unwrap_or(0.0);
        let used: Vec<f64> = d
            .nodes
            .data
            .iter()
            .filter_map(|p| d.world.actor_as::<DataProviderService>(*p))
            .map(|p| p.store().used() as f64 / 1e6)
            .collect();
        let (lo, hi) =
            used.iter().fold((f64::INFINITY, 0.0f64), |(l, h), v| (l.min(*v), h.max(*v)));
        let mean = used.iter().sum::<f64>() / used.len() as f64;
        let std =
            (used.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / used.len() as f64).sqrt();
        rows.push(row![
            strategy,
            format!("{tp:.1}"),
            format!("{:.2}", hi / lo.max(1e-9)),
            format!("{std:.0}")
        ]);
        csv.push_str(&format!("{strategy},{tp:.2},{:.3},{std:.1}\n", hi / lo.max(1e-9)));
    }
    print_table(&rows);
    write_artifact("ablation_alloc.csv", &csv);
}

fn a2_burst_cache(args: &BenchArgs) {
    println!("\nA2: monitoring burst cache on/off under an event burst\n");
    let mut rows = vec![row!["cache", "records_stored", "records_dropped", "drop_%"]];
    let mut csv = String::from("cache,stored,dropped,drop_pct\n");
    for (label, capacity) in [("off", 0usize), ("on (100k)", 100_000)] {
        let cfg = DeploymentConfig {
            data_providers: args.scaled(24),
            meta_providers: 2,
            storage_servers: 1,
            storage_cfg: StorageConfig {
                cache_capacity: capacity,
                // A deliberately slow store: 2k records/s, the regime the
                // paper built the cache for ("bursts of monitoring data
                // generated when the system is under heavy load").
                drain_rate: 2_000.0,
                drain_every: SimDuration::from_millis(200),
            },
            ..DeploymentConfig::default()
        };
        let mut d = Deployment::build(World::with_seed(args.seed_or(5)), cfg);
        // A burst: 24 writers of small pages → a dense stream of chunk
        // events hitting one storage server.
        let spec = BlobSpec { page_size: MB, replication: 1 };
        for i in 0..24u64 {
            d.add_client(
                ClientId(10 + i),
                writer_script(spec, 1_000 * MB, 100 * MB, SimTime(2_000_000_000)),
                "writer",
            );
        }
        d.world.run_for(SimDuration::from_secs(120), 200_000_000);
        let server = d.nodes.storage[0];
        let (accepted, dropped, _) = d
            .world
            .actor_as::<StorageServerService>(server)
            .expect("storage server")
            .cache_stats();
        let pct = dropped as f64 / (accepted + dropped).max(1) as f64 * 100.0;
        rows.push(row![label, accepted, dropped, format!("{pct:.1}")]);
        csv.push_str(&format!("{label},{accepted},{dropped},{pct:.2}\n"));
    }
    print_table(&rows);
    write_artifact("ablation_burst_cache.csv", &csv);
}

fn a3_scan_period(args: &BenchArgs) {
    println!("\nA3: detection scan period vs detection delay (30% malicious)\n");
    let mut rows = vec![row!["scan_period_s", "first_detect_s", "last_detect_s"]];
    let mut csv = String::from("scan_period_s,first_detect_s,last_detect_s\n");
    for period in [2u64, 5, 10, 20] {
        let mut s = DosScenario {
            seed: args.seed_or(200) + period,
            data_providers: args.scaled(48),
            writers: args.scaled(35),
            attackers: args.scaled(15),
            security: true,
            stagger: SimDuration::from_secs(30),
            writer_bytes: 8_000 * MB,
            ..DosScenario::default()
        };
        // Rebuild with a custom scan period by post-editing the config:
        // the scenario builder uses 5 s, so construct manually here.
        s.security = false;
        let mut d = {
            let mut d = build(&s);
            // Replace: add a security engine with the desired period.
            let mut block_targets = vec![d.nodes.vman];
            block_targets.extend(&d.nodes.data);
            let engine = sads_blob::runtime::sim::add_service(
                &mut d.world,
                Box::new(sads_security::SecurityEngineService::new(
                    d.nodes.storage.clone(),
                    block_targets,
                    d.nodes.data.clone(),
                    PolicySet::parse(sads_bench::dos::policy_source()).unwrap(),
                    SecurityConfig {
                        scan_every: SimDuration::from_secs(period),
                        ..Default::default()
                    },
                )),
                sads_sim::NodeConfig::default(),
            );
            d.nodes.security = Some(engine);
            d
        };
        d.world.run_for(SimDuration::from_secs(220), 400_000_000);
        let times: Vec<f64> = d
            .security_engine()
            .expect("engine")
            .detections()
            .iter()
            .map(|det| det.at.as_secs_f64() - ATTACK_START_S as f64)
            .collect();
        let first = times.iter().copied().fold(f64::INFINITY, f64::min);
        let last = times.iter().copied().fold(0.0, f64::max);
        rows.push(row![period, format!("{first:.1}"), format!("{last:.1}")]);
        csv.push_str(&format!("{period},{first:.2},{last:.2}\n"));
    }
    print_table(&rows);
    write_artifact("ablation_scan_period.csv", &csv);
}

fn a4_attack_modes(args: &BenchArgs) {
    use sads_blob::model::{BlobId, ChunkKey, VersionId};
    use sads_blob::runtime::sim::{BlobRef, ScriptStep};
    use sads_blob::WriteKind;
    use sads_core::Deployment;
    use sads_sim::NodeConfig;
    use sads_workloads::{AttackConfig, AttackMode, DosAttacker};

    println!("\nA4: attack modes — write flood vs amplified read flood\n");
    let mut rows =
        vec![row!["mode", "baseline_MBps", "under_attack_MBps", "drop_%", "detected"]];
    let mut csv = String::from("mode,baseline_mbps,under_attack_mbps,drop_pct,detected\n");
    for mode_name in ["bogus_writes", "amplified_reads"] {
        let cfg = DeploymentConfig {
            data_providers: args.scaled(16),
            meta_providers: 4,
            monitors: 2,
            storage_servers: 2,
            security: Some((
                sads_security::default_dos_policies(),
                SecurityConfig { scan_every: SimDuration::from_secs(5), ..Default::default() },
            )),
            ..DeploymentConfig::default()
        };
        let mut d = Deployment::build(World::with_seed(args.seed_or(300)), cfg);
        let spec = BlobSpec { page_size: 8 * MB, replication: 1 };
        d.add_client(
            ClientId(1),
            vec![
                ScriptStep::Create(spec),
                ScriptStep::Write {
                    blob: BlobRef::Created(0),
                    kind: WriteKind::Append,
                    bytes: 32 * 8 * MB,
                },
            ],
            "seeder",
        );
        for i in 0..8u64 {
            d.add_client(
                ClientId(10 + i),
                writer_script(spec, 8_000 * MB, 64 * MB, SimTime(10_000_000_000)),
                "writer",
            );
        }
        let mode = if mode_name == "bogus_writes" {
            AttackMode::BogusWrites { chunk_bytes: 4 * MB }
        } else {
            let targets: Vec<(sads_sim::NodeId, ChunkKey)> = (0..32u64)
                .map(|p| {
                    (
                        d.nodes.data[(p as usize) % d.nodes.data.len()],
                        ChunkKey { blob: BlobId(1), version: VersionId(1), page: p },
                    )
                })
                .collect();
            AttackMode::AmplifiedReads { targets }
        };
        for i in 0..6u64 {
            d.world.add_node(
                Box::new(DosAttacker::new(
                    ClientId(100 + i),
                    d.nodes.data.clone(),
                    AttackConfig {
                        start_at: SimTime(30_000_000_000),
                        stop_at: SimTime(600_000_000_000),
                        mode: mode.clone(),
                        rate_per_sec: 60.0,
                    },
                )),
                NodeConfig::default(),
            );
        }
        d.world.run_for(SimDuration::from_secs(150), 200_000_000);
        let baseline =
            sads_bench::window_mean(&d.world.metrics(), "writer.write_mbps", 12.0, 30.0)
                .unwrap_or(0.0);
        let attacked =
            sads_bench::window_mean(&d.world.metrics(), "writer.write_mbps", 32.0, 55.0)
                .unwrap_or(baseline);
        let detected = d.security_engine().map(|e| e.detections().len()).unwrap_or(0);
        let drop = (1.0 - attacked / baseline) * 100.0;
        rows.push(row![
            mode_name,
            format!("{baseline:.1}"),
            format!("{attacked:.1}"),
            format!("{drop:.0}"),
            format!("{detected}/6")
        ]);
        csv.push_str(&format!("{mode_name},{baseline:.2},{attacked:.2},{drop:.1},{detected}\n"));
    }
    print_table(&rows);
    write_artifact("ablation_attack_modes.csv", &csv);
}

fn main() {
    let args = BenchArgs::parse();
    a1_allocation(&args);
    a2_burst_cache(&args);
    a3_scan_period(&args);
    a4_attack_modes(&args);
}
