//! Introspection-stack integration (paper §IV-A, §IV-B): the monitoring
//! pipeline must observe the system without perturbing it, and the
//! introspection layer must produce the aggregates the visualization tool
//! renders. The monitoring checks run E1's scenario at one client count;
//! `tests/paper.rs` asserts E1's claims over the whole sweep.

use sads::blob::model::{BlobId, BlobSpec, ClientId};
use sads::{Deployment, DeploymentConfig};
use sads_bench::{e1, BenchArgs};
use sads_introspect::{viz, TimeSeries};
use sads_monitor::MetricId;
use sads_sim::{SimDuration, SimTime, World};
use sads_workloads::{mixed_script, writer_script};

const MB: u64 = 1_000_000;

#[test]
fn monitoring_is_non_intrusive() {
    // Paper §IV-B: "the performance of the BlobSeer operations is not
    // influenced by the introspection architecture".
    let (with_mon, events, _) = e1::run_one(&BenchArgs::default(), 12, true);
    let (without_mon, _, _) = e1::run_one(&BenchArgs::default(), 12, false);
    let overhead = (without_mon - with_mon) / without_mon;
    assert!(
        overhead.abs() < 0.03,
        "monitoring overhead {:.2}% (with {with_mon}, without {without_mon})",
        overhead * 100.0
    );
    // And the monitored run really did generate a stream of parameters.
    assert!(events > 1_000, "monitoring events: {events}");
}

#[test]
fn e1_chunk_event_volume_matches_paper_scale() {
    // The paper reports >10,000 monitored parameters at 80 clients × 1 GB
    // with 8 MB chunks. Check the proportional rule at a smaller scale:
    // 12 clients × 1 GB / 8 MB = 1500 chunk writes.
    let (_, _, chunk_writes) = e1::run_one(&BenchArgs::default(), 12, true);
    assert_eq!(chunk_writes, 12 * 1_000 / 8, "one monitored event per written chunk");
}

#[test]
fn introspection_snapshot_reflects_the_system() {
    // Six writers of 2 GB each on 12 providers, monitored.
    let cfg = DeploymentConfig {
        data_providers: 12,
        meta_providers: 2,
        monitors: 2,
        storage_servers: 2,
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(33), cfg);
    let spec = BlobSpec { page_size: 8 * MB, replication: 1 };
    for i in 0..6u64 {
        let script = writer_script(spec, 2_000 * MB, 128 * MB, SimTime(2_000_000_000));
        d.add_client(ClientId(10 + i), script, "writer");
    }
    d.world.run_for(SimDuration::from_secs(120), 20_000_000);
    assert_eq!(d.world.metrics().counter("writer.ops_err"), 0);

    let intro = d.introspection().expect("introspection deployed");
    let snap = intro.snapshot();
    // All 12 data providers were observed.
    let observed_providers = snap
        .providers
        .iter()
        .filter(|(id, _)| d.nodes.data.contains(id))
        .count();
    assert_eq!(observed_providers, 12);
    // Storage accounting matches the written volume (6 × 2000 MB).
    let used = snap.system_used() as f64 / 1e6;
    assert!(
        (used - 12_000.0).abs() < 600.0,
        "introspected system storage {used} MB vs 12000 MB written"
    );
    // Every written BLOB is tracked with its size.
    assert_eq!(snap.blobs.len(), 6);
    for view in snap.blobs.values() {
        assert!((view.size_mb - 2_000.0).abs() < 110.0, "blob size {} MB", view.size_mb);
        assert!(view.total_write_mb > 1_800.0);
    }
    // Provider usage ranking is populated and sorted.
    let ranked = snap.providers_by_usage();
    assert!(ranked.windows(2).all(|w| w[0].1.used >= w[1].1.used));
}

#[test]
fn visualization_tool_renders_all_four_panels() {
    // Paper §IV-A: physical parameters, per-provider storage, BLOB access
    // patterns, BLOB distribution across providers.
    let cfg = DeploymentConfig {
        data_providers: 6,
        meta_providers: 2,
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(35), cfg);
    let spec = BlobSpec { page_size: 4 * MB, replication: 1 };
    d.add_client(
        ClientId(1),
        mixed_script(spec, 64 * MB, 4, SimTime(2_000_000_000), SimDuration::from_secs(3)),
        "client",
    );
    d.world.run_for(SimDuration::from_secs(60), 10_000_000);

    let store = d.mon_store(0).expect("storage server");
    let keys = store.param_keys();
    assert!(!keys.is_empty(), "parameters stored");

    // Panel 1: CPU evolution of one provider.
    let cpu_key = keys
        .iter()
        .find(|k| k.metric == MetricId::Cpu)
        .expect("cpu parameter monitored");
    let series = TimeSeries::from_points(store.series(cpu_key));
    assert!(series.len() > 10, "cpu series has {} points", series.len());
    let chart = viz::line_chart("provider cpu", &series, 60, 10);
    assert!(chart.contains('*'));

    // Panel 2: storage per provider (bar chart).
    let mut rows = Vec::new();
    for k in &keys {
        if k.metric == MetricId::UsedBytes {
            if let Some((_, v)) = store.series(k).last() {
                rows.push((format!("{}", k.origin), v / 1e6));
            }
        }
    }
    assert!(!rows.is_empty());
    let chart = viz::bar_chart("storage (MB)", &rows, 30);
    assert!(chart.contains('█'));

    // Panel 3: BLOB access pattern (write volume series exists).
    // BLOB-scoped parameters may hash to either storage server.
    let blob_param_anywhere = (0..2).any(|i| {
        d.mon_store(i)
            .map(|s| s.param_keys().iter().any(|k| k.blob == Some(BlobId(1))))
            .unwrap_or(false)
    });
    assert!(blob_param_anywhere, "per-BLOB parameters monitored");

    // Panel 4: the activity history records the client's accesses.
    let acts: usize = (0..2).map(|i| d.mon_store(i).map(|s| s.activity().count()).unwrap_or(0)).sum();
    assert!(acts > 20, "activity history has {acts} records");

    // CSV export shape.
    let csv = viz::series_csv(&series);
    assert!(csv.starts_with("time_s,value\n"));
    assert!(csv.lines().count() > 10);
}
