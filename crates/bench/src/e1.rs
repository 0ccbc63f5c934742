//! E1 — paper §IV-B: impact of the introspection architecture on BlobSeer
//! data-access performance.
//!
//! "We deployed 150 data providers and a number of clients ranging from 5
//! to 80, each of them writing 1 GB of data to BlobSeer. The obtained
//! results show that the performance of the BlobSeer operations is not
//! influenced by the introspection architecture, the intrusiveness of the
//! instrumentation layer being minimal even when the number of generated
//! monitoring parameters reaches 10,000."
//!
//! We replay exactly that sweep on the simulated testbed, with the full
//! monitoring pipeline on vs off, and report per-client write throughput
//! plus the number of monitored chunk events.

use sads_blob::model::{BlobSpec, ClientId};
use sads_core::{Deployment, DeploymentConfig};
use sads_introspect::viz::table;
use sads_monitor::ActivityKind;
use sads_sim::{SimDuration, SimTime, World};
use sads_workloads::writer_script;

use crate::{row, BenchArgs, Claim, Report};

const MB: u64 = 1_000_000;
const GB: u64 = 1_000 * MB;
const PAGE: u64 = 8 * MB;
const STORAGE_SERVERS: usize = 4;

/// E1's deployment, not yet run: `clients` streaming writers of 1 GB
/// each on `providers` data providers, the monitoring pipeline on or off.
pub fn deploy(providers: usize, seed: u64, clients: usize, monitoring: bool) -> Deployment {
    let cfg = DeploymentConfig {
        data_providers: providers,
        meta_providers: 8,
        monitors: if monitoring { 4 } else { 0 },
        storage_servers: STORAGE_SERVERS,
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(seed), cfg);
    let spec = BlobSpec { page_size: PAGE, replication: 1 };
    for i in 0..clients as u64 {
        // Each client writes 1 GB in 128 MB appends, like the paper's
        // streaming writers.
        let script = writer_script(spec, GB, 128 * MB, SimTime(2_000_000_000));
        d.add_client(ClientId(10 + i), script, "client");
    }
    d
}

/// Per-client throughput, monitoring events and stored chunk-write
/// records of one deployment.
pub fn run_one(args: &BenchArgs, clients: usize, monitoring: bool) -> (f64, u64, u64) {
    let seed = args.seed_or(1000) + clients as u64;
    let mut d = deploy(args.scaled(150), seed, clients, monitoring);
    d.world.run_for(SimDuration::from_secs(120), 200_000_000);
    let errs = d.world.metrics().counter("client.ops_err");
    if errs > 0 {
        eprintln!("{}", d.world.telemetry().render());
        panic!("{errs} client ops failed");
    }
    let tp = d.world.metrics().mean("client.write_mbps").expect("throughput recorded");
    let chunk_writes = (0..STORAGE_SERVERS)
        .filter_map(|i| d.mon_store(i))
        .map(|s| s.activity().filter(|a| a.kind == ActivityKind::ChunkWrite).count() as u64)
        .sum();
    (tp, d.monitoring_events(), chunk_writes)
}

/// Run the sweep: 5–80 clients, each writing 1 GB, monitoring off then on.
pub fn run(args: &BenchArgs) -> Report {
    let mut rows = vec![row![
        "clients",
        "no_monitor_MBps",
        "with_monitor_MBps",
        "overhead_%",
        "monitored_events"
    ]];
    let mut csv =
        String::from("clients,no_monitor_mbps,with_monitor_mbps,overhead_pct,monitored_events\n");
    let (mut unchanged, mut one_per_chunk, mut last) = (true, true, (0, 0, 0));
    for clients in [5usize, 10, 20, 40, 60, 80].map(|c| args.scaled(c)) {
        let (base, _, _) = run_one(args, clients, false);
        let (mon, events, chunk_writes) = run_one(args, clients, true);
        let overhead = (base - mon) / base * 100.0;
        rows.push(row![
            clients,
            format!("{base:.1}"),
            format!("{mon:.1}"),
            format!("{overhead:.2}"),
            events
        ]);
        csv.push_str(&format!("{clients},{base:.2},{mon:.2},{overhead:.3},{events}\n"));
        unchanged &= mon == base;
        one_per_chunk &= chunk_writes == clients as u64 * GB.div_ceil(PAGE);
        last = (clients, events, chunk_writes);
    }
    let (clients, events, chunk_writes) = last;
    Report {
        text: format!(
            "E1: introspection intrusiveness ({} data providers, 1 GB per client)\n\n{}",
            args.scaled(150),
            table(&rows)
        ),
        artifacts: vec![("e1_intrusiveness.csv", csv)],
        claims: vec![
            Claim {
                holds: unchanged,
                what: "monitored throughput equals unmonitored at every count".into(),
            },
            Claim {
                holds: events >= 10_000,
                what: format!("{events} monitored events at {clients} clients"),
            },
            Claim {
                holds: one_per_chunk,
                what: format!(
                    "a chunk-write record per 8 MB chunk: {chunk_writes} at {clients} clients"
                ),
            },
        ],
    }
}
