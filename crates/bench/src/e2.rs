//! E2 — paper §IV-C bullet 1: "the evolution in time of the average
//! throughput of concurrent clients that write to BlobSeer when the
//! system is subject to DoS attacks. The results show that the initial
//! average throughput has a sudden decrease (up to 70%) when the
//! malicious clients start attacking the system. As the Policy Management
//! module detects the policy violations, it feeds back this information
//! to BlobSeer, enabling it to block the malicious clients, so that the
//! throughput of the remaining clients increases back towards its initial
//! value."

use sads_introspect::viz::table;
use sads_sim::SimDuration;

use crate::dos::{build, DosScenario, ATTACK_START_S};
use crate::{row, window_mean, BenchArgs, Claim, Report};

/// Run [`DosScenario::default`], scaled, for 180 s.
pub fn run(args: &BenchArgs) -> Report {
    let base = DosScenario::default();
    let attackers = args.scaled(base.attackers);
    let mut d = build(&DosScenario {
        seed: args.seed_or(base.seed),
        data_providers: args.scaled(base.data_providers),
        writers: args.scaled(base.writers),
        attackers,
        ..base
    });
    d.world.run_for(SimDuration::from_secs(180), 200_000_000);

    let m = d.world.metrics();
    let mut rows = vec![row!["time_s", "avg_write_MBps", "phase"]];
    let mut csv = String::from("time_s,avg_write_mbps\n");
    for (t, v) in m.binned_mean("writer.write_mbps", 5.0) {
        let phase = if t < ATTACK_START_S as f64 {
            "baseline"
        } else if t < 55.0 {
            "under attack"
        } else {
            "recovered"
        };
        rows.push(row![format!("{t:.0}"), format!("{v:.1}"), phase]);
        csv.push_str(&format!("{t:.1},{v:.3}\n"));
    }
    let window = |from, to| window_mean(&m, "writer.write_mbps", from, to).unwrap_or(0.0);
    let (baseline, trough) = (window(12.0, 30.0), window(32.0, 50.0));
    let recovered = window(80.0, 160.0);
    let detections = d.security_engine().map(|e| e.detections().len()).unwrap_or(0);
    let silenced = m.counter("attacker.silenced");
    Report {
        text: format!(
            "E2: average client write throughput over time under a DoS attack\n\n{}\n\
             baseline {baseline:.1} MB/s -> trough {trough:.1} MB/s ({:.0}% drop) -> \
             recovered {recovered:.1} MB/s\n\
             detections: {detections}; attackers silenced: {silenced}\n",
            table(&rows),
            (1.0 - trough / baseline) * 100.0
        ),
        artifacts: vec![("e2_dos_timeline.csv", csv)],
        claims: vec![
            Claim {
                holds: trough < 0.5 * baseline,
                what: format!("trough {trough:.1} MB/s (32-50 s) < 0.5 x baseline {baseline:.1}"),
            },
            Claim {
                holds: recovered >= 0.9 * baseline,
                what: format!(
                    "recovered {recovered:.1} MB/s (80-160 s) >= 0.9 x baseline {baseline:.1}"
                ),
            },
            Claim {
                holds: detections == attackers && silenced == attackers as u64,
                what: format!(
                    "{detections} detected and {silenced} silenced of {attackers} attackers"
                ),
            },
        ],
    }
}
