//! E3 — paper §IV-C bullet 2: "When all the concurrent writers act as
//! correct clients, the system is able to maintain a constant average
//! throughput for each client, around 110 MB/s. However, when no security
//! mechanism is employed, the performance is drastically lowered while
//! several clients attempt an attack, decreasing under 50 MB/s when more
//! than 30 clients are deployed, out of which 50% are malicious. Further,
//! the throughput increases again, once the attackers are blocked by the
//! security framework."

use sads_bench::dos::{build, DosScenario, MB};
use sads_bench::{print_table, row, window_mean, write_artifact, BenchArgs};
use sads_sim::SimDuration;

/// Steady-state per-client write throughput for one configuration.
fn run(args: &BenchArgs, total_clients: usize, malicious: usize, security: bool, seed: u64) -> f64 {
    let s = DosScenario {
        seed,
        data_providers: args.scaled(48), // the paper's 70-node deployment, data plane
        writers: total_clients - malicious,
        attackers: malicious,
        security,
        writer_bytes: 16_000 * MB,
        ..DosScenario::default()
    };
    let mut d = build(&s);
    d.world.run_for(SimDuration::from_secs(160), 400_000_000);
    // Steady state: measure after the protected system has recovered
    // (the unprotected one stays degraded, which is the point).
    window_mean(&d.world.metrics(), "writer.write_mbps", 80.0, 160.0)
        .or_else(|| window_mean(&d.world.metrics(), "writer.write_mbps", 30.0, 160.0))
        .unwrap_or(0.0)
}

fn main() {
    let args = BenchArgs::parse();
    println!("E3: per-client write throughput vs number of clients (50% malicious)\n");
    let mut rows = vec![row![
        "clients",
        "all_correct_MBps",
        "attack_no_security_MBps",
        "attack_with_security_MBps"
    ]];
    let mut csv =
        String::from("clients,all_correct_mbps,no_security_mbps,with_security_mbps\n");
    for total in [10usize, 20, 30, 40, 50].map(|t| args.scaled(t)) {
        let seed = args.seed_or(40) + total as u64;
        let correct = run(&args, total, 0, false, seed);
        let unprotected = run(&args, total, total / 2, false, seed);
        let protected_ = run(&args, total, total / 2, true, seed);
        rows.push(row![
            total,
            format!("{correct:.1}"),
            format!("{unprotected:.1}"),
            format!("{protected_:.1}")
        ]);
        csv.push_str(&format!("{total},{correct:.2},{unprotected:.2},{protected_:.2}\n"));
    }
    print_table(&rows);
    write_artifact("e3_dos_scaling.csv", &csv);
    println!(
        "\npaper check: all-correct stays ~110 MB/s; without security the\n\
         throughput collapses as the malicious share grows (<50 MB/s past 30\n\
         clients); with security it recovers towards the baseline."
    );
}
