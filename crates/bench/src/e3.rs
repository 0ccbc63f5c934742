//! E3 — paper §IV-C bullet 2: "When all the concurrent writers act as
//! correct clients, the system is able to maintain a constant average
//! throughput for each client, around 110 MB/s. However, when no security
//! mechanism is employed, the performance is drastically lowered while
//! several clients attempt an attack, decreasing under 50 MB/s when more
//! than 30 clients are deployed, out of which 50% are malicious. Further,
//! the throughput increases again, once the attackers are blocked by the
//! security framework."

use sads_introspect::viz::table;
use sads_sim::SimDuration;

use crate::dos::{build, DosScenario, MB};
use crate::{row, window_mean, BenchArgs, Claim, Report};

/// Steady-state per-client write throughput for one configuration.
fn run_one(args: &BenchArgs, total: usize, malicious: usize, security: bool, seed: u64) -> f64 {
    let s = DosScenario {
        seed,
        data_providers: args.scaled(48), // the paper's 70-node deployment, data plane
        writers: total - malicious,
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

/// Run the sweep: 10–50 clients, all correct, then half malicious without
/// and with the security framework.
pub fn run(args: &BenchArgs) -> Report {
    let mut rows = vec![row![
        "clients",
        "all_correct_MBps",
        "attack_no_security_MBps",
        "attack_with_security_MBps"
    ]];
    let mut csv = String::from("clients,all_correct_mbps,no_security_mbps,with_security_mbps\n");
    let (mut flat, mut collapsed, mut recovered) = (true, true, true);
    for total in [10usize, 20, 30, 40, 50].map(|t| args.scaled(t)) {
        let seed = args.seed_or(40) + total as u64;
        let correct = run_one(args, total, 0, false, seed);
        let unprotected = run_one(args, total, total / 2, false, seed);
        let protected_ = run_one(args, total, total / 2, true, seed);
        rows.push(row![
            total,
            format!("{correct:.1}"),
            format!("{unprotected:.1}"),
            format!("{protected_:.1}")
        ]);
        csv.push_str(&format!("{total},{correct:.2},{unprotected:.2},{protected_:.2}\n"));
        flat &= (correct - 110.0).abs() <= 0.05 * 110.0;
        collapsed &= total < 30 || unprotected < 50.0;
        recovered &= protected_ >= 0.9 * correct;
    }
    Report {
        text: format!(
            "E3: per-client write throughput vs number of clients (50% malicious)\n\n{}",
            table(&rows)
        ),
        artifacts: vec![("e3_dos_scaling.csv", csv)],
        claims: vec![
            Claim { holds: flat, what: "all-correct within 5 % of 110 MB/s at every count".into() },
            Claim { holds: collapsed, what: "no security: < 50 MB/s from 30 clients on".into() },
            Claim {
                holds: recovered,
                what: "with security: >= 0.9 x all-correct at every count".into(),
            },
        ],
    }
}
