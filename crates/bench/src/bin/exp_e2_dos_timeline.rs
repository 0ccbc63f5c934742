//! E2 — paper §IV-C bullet 1: "the evolution in time of the average
//! throughput of concurrent clients that write to BlobSeer when the
//! system is subject to DoS attacks. The results show that the initial
//! average throughput has a sudden decrease (up to 70%) when the
//! malicious clients start attacking the system. As the Policy Management
//! module detects the policy violations, it feeds back this information
//! to BlobSeer, enabling it to block the malicious clients, so that the
//! throughput of the remaining clients increases back towards its initial
//! value."

use sads_bench::dos::{build, DosScenario, ATTACK_START_S};
use sads_bench::{print_table, row, window_mean, write_artifact, BenchArgs};
use sads_sim::SimDuration;

fn main() {
    let args = BenchArgs::parse();
    println!("E2: average client write throughput over time under a DoS attack\n");
    let base = DosScenario::default();
    let mut d = build(&DosScenario {
        seed: args.seed_or(base.seed),
        data_providers: args.scaled(base.data_providers),
        writers: args.scaled(base.writers),
        attackers: args.scaled(base.attackers),
        ..base
    });
    d.world.run_for(SimDuration::from_secs(180), 200_000_000);

    let m = d.world.metrics();
    let mut rows = vec![row!["time_s", "avg_write_MBps", "phase"]];
    let mut csv = String::from("time_s,avg_write_mbps\n");
    let bins = m.binned_mean("writer.write_mbps", 5.0);
    for (t, v) in &bins {
        let phase = if *t < ATTACK_START_S as f64 {
            "baseline"
        } else if *t < 55.0 {
            "under attack"
        } else {
            "recovered"
        };
        rows.push(row![format!("{t:.0}"), format!("{v:.1}"), phase]);
        csv.push_str(&format!("{t:.1},{v:.3}\n"));
    }
    print_table(&rows);
    write_artifact("e2_dos_timeline.csv", &csv);

    let baseline = window_mean(&m, "writer.write_mbps", 12.0, 30.0).unwrap_or(0.0);
    let trough = window_mean(&m, "writer.write_mbps", 32.0, 50.0).unwrap_or(0.0);
    let recovered = window_mean(&m, "writer.write_mbps", 80.0, 160.0).unwrap_or(0.0);
    let detections = d.security_engine().map(|e| e.detections().len()).unwrap_or(0);
    println!(
        "\nbaseline {baseline:.1} MB/s -> trough {trough:.1} MB/s ({:.0}% drop) -> recovered {recovered:.1} MB/s",
        (1.0 - trough / baseline) * 100.0
    );
    println!(
        "detections: {detections}; attackers silenced: {}",
        d.world.metrics().counter("attacker.silenced")
    );
    println!("paper check: sudden drop up to ~70% at attack start, recovery after blocking.");
}
