//! E5 — paper §IV-A: the visualization tool for BlobSeer-specific data.
//!
//! "The visualization tool provides synthetic images of the most relevant
//! events in BlobSeer, such as the evolution of the physical parameters
//! (e.g., CPU load, memory), the storage space on each provider and at
//! the system level, the BLOB access patterns or the distribution of the
//! BLOBs across providers."
//!
//! Runs a mixed workload and renders all four panels from the
//! introspection layer's output, plus CSV exports under `results/`.

use sads_bench::{write_artifact, BenchArgs};
use sads_blob::model::{BlobSpec, ClientId};
use sads_core::{Deployment, DeploymentConfig};
use sads_introspect::{viz, TimeSeries};
use sads_monitor::MetricId;
use sads_sim::{SimDuration, SimTime, World};
use sads_workloads::mixed_script;

const MB: u64 = 1_000_000;

fn main() {
    let args = BenchArgs::parse();
    println!("E5: the introspection visualization tool\n");
    let cfg = DeploymentConfig {
        data_providers: args.scaled(8),
        meta_providers: 2,
        ..DeploymentConfig::default()
    };
    let clients = args.scaled(3) as u64;
    let mut d = Deployment::build(World::with_seed(args.seed_or(55)), cfg);
    let spec = BlobSpec { page_size: 4 * MB, replication: 1 };
    for i in 0..clients {
        d.add_client(
            ClientId(1 + i),
            mixed_script(
                spec,
                (64 + 32 * i) * MB,
                6,
                SimTime(2_000_000_000 + i * 3_000_000_000),
                SimDuration::from_secs(4),
            ),
            "client",
        );
    }
    d.world.run_for(SimDuration::from_secs(120), 50_000_000);

    // Collect the parameter log from every storage server.
    let mut all: Vec<sads_monitor::MonRecord> = Vec::new();
    for i in 0..d.nodes.storage.len() {
        if let Some(store) = d.mon_store(i) {
            all.extend(store.params().copied());
        }
    }

    // Panel 1: physical parameters (CPU of the busiest provider + system
    // mean memory).
    let busiest = d.nodes.data[0];
    let cpu = TimeSeries::from_points(
        all.iter()
            .filter(|r| r.key.origin == busiest && r.key.metric == MetricId::Cpu)
            .map(|r| (r.at, r.value))
            .collect(),
    );
    println!("{}", viz::line_chart(&format!("panel 1a: CPU load of provider {busiest}"), &cpu, 64, 8));
    write_artifact("e5_cpu.csv", &viz::series_csv(&cpu));

    // Panel 2: storage space per provider + system level.
    let mut per_provider: Vec<(String, f64)> = Vec::new();
    let mut system_series: Vec<(sads_sim::SimTime, f64)> = Vec::new();
    for p in &d.nodes.data {
        let series: Vec<(sads_sim::SimTime, f64)> = all
            .iter()
            .filter(|r| r.key.origin == *p && r.key.metric == MetricId::UsedBytes)
            .map(|r| (r.at, r.value / 1e6))
            .collect();
        if let Some((_, last)) = series.last() {
            per_provider.push((format!("{p}"), *last));
        }
        system_series.extend(series);
    }
    println!("{}", viz::bar_chart("panel 2a: storage per provider (MB)", &per_provider, 36));
    let system = TimeSeries::from_points(system_series);
    let sys_binned = TimeSeries::from_points(
        system
            .binned(5.0)
            .into_iter()
            .map(|(t, v)| (sads_sim::SimTime((t * 1e9) as u64), v * d.nodes.data.len() as f64))
            .collect(),
    );
    println!("{}", viz::line_chart("panel 2b: system-level storage (MB, est.)", &sys_binned, 64, 8));

    // Panel 3: BLOB access patterns (windowed write volume per BLOB).
    for blob_id in 1..=clients {
        let series = TimeSeries::from_points(
            all.iter()
                .filter(|r| {
                    r.key.blob == Some(sads_blob::model::BlobId(blob_id))
                        && r.key.metric == MetricId::BlobWriteMB
                })
                .map(|r| (r.at, r.value))
                .collect(),
        );
        if !series.is_empty() {
            println!(
                "{}",
                viz::line_chart(
                    &format!("panel 3: write volume of BLOB {blob_id} (MB per window)"),
                    &series,
                    64,
                    6
                )
            );
        }
    }

    // Panel 4: distribution of BLOB data across providers.
    let snap = d.introspection().expect("introspection").snapshot();
    let rows: Vec<(String, f64)> = snap
        .providers_by_usage()
        .into_iter()
        .filter(|(id, _)| d.nodes.data.contains(id))
        .map(|(id, v)| (format!("{id}"), v.items as f64))
        .collect();
    println!("{}", viz::bar_chart("panel 4: chunks per provider (BLOB distribution)", &rows, 36));

    // Activity history sample.
    let store = d.mon_store(0).expect("store");
    println!("user activity history: {} records (first 5):", store.activity().count());
    for a in store.activity().take(5) {
        println!("  t={:>6.1}s {} {:?} bytes={}", a.at.as_secs_f64(), a.client, a.kind, a.bytes);
    }
}
