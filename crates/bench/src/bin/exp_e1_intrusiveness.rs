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

use sads_bench::{print_table, row, write_artifact, BenchArgs};
use sads_core::{Deployment, DeploymentConfig};
use sads_blob::model::{BlobSpec, ClientId};
use sads_sim::{SimDuration, SimTime, World};
use sads_workloads::writer_script;

const MB: u64 = 1_000_000;
const GB: u64 = 1_000 * MB;

fn run(args: &BenchArgs, clients: usize, monitoring: bool) -> (f64, u64) {
    let cfg = DeploymentConfig {
        data_providers: args.scaled(150),
        meta_providers: 8,
        monitors: if monitoring { 4 } else { 0 },
        storage_servers: 4,
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(args.seed_or(1000) + clients as u64), cfg);
    let spec = BlobSpec { page_size: 8 * MB, replication: 1 };
    for i in 0..clients as u64 {
        // Each client writes 1 GB in 128 MB appends, like the paper's
        // streaming writers.
        let script = writer_script(spec, GB, 128 * MB, SimTime(2_000_000_000));
        d.add_client(ClientId(10 + i), script, "client");
    }
    d.world.run_for(SimDuration::from_secs(120), 200_000_000);
    let errs = d.world.metrics().counter("client.ops_err");
    if errs > 0 {
        eprintln!("{}", d.world.telemetry().render());
        panic!("{errs} client ops failed");
    }
    let tp = d.world.metrics().mean("client.write_mbps").expect("throughput recorded");
    (tp, d.monitoring_events())
}

fn main() {
    let args = BenchArgs::parse();
    println!(
        "E1: introspection intrusiveness ({} data providers, 1 GB per client)\n",
        args.scaled(150)
    );
    let mut rows = vec![row![
        "clients",
        "no_monitor_MBps",
        "with_monitor_MBps",
        "overhead_%",
        "monitored_events"
    ]];
    let mut csv = String::from("clients,no_monitor_mbps,with_monitor_mbps,overhead_pct,monitored_events\n");
    for clients in [5usize, 10, 20, 40, 60, 80].map(|c| args.scaled(c)) {
        let (base, _) = run(&args, clients, false);
        let (mon, events) = run(&args, clients, true);
        let overhead = (base - mon) / base * 100.0;
        rows.push(row![
            clients,
            format!("{base:.1}"),
            format!("{mon:.1}"),
            format!("{overhead:.2}"),
            events
        ]);
        csv.push_str(&format!("{clients},{base:.2},{mon:.2},{overhead:.3},{events}\n"));
    }
    print_table(&rows);
    write_artifact("e1_intrusiveness.csv", &csv);
    println!(
        "\npaper check: throughput unchanged by monitoring; events reach the\n\
         paper's >10,000 monitored parameters at 80 clients (80 GB / 8 MiB)."
    );
}
