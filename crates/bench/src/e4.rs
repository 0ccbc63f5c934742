//! E4 — paper §IV-C bullet 3: "We measured the detection delay when the
//! percentage of malicious clients increases from 10% to 70% out of a
//! total of 50 concurrent clients … The first malicious client is
//! detected in 20 seconds and the last one is detected in about 55
//! seconds, while the duration of the write operation increases towards
//! 40 seconds when 70% of clients perform a DoS attack."

use sads_introspect::viz::table;
use sads_sim::SimDuration;

use crate::dos::{build, DosScenario, ATTACK_START_S, MB};
use crate::{row, BenchArgs, Claim, Report};

/// Run the sweep: 10 %–70 % of 50 clients malicious, ramping in over 30 s.
pub fn run(args: &BenchArgs) -> Report {
    let total = args.scaled(50);
    let mut rows =
        vec![row!["malicious_%", "detected", "first_detect_s", "last_detect_s", "mean_write_op_s"]];
    let mut csv =
        String::from("malicious_pct,detected,first_detect_s,last_detect_s,mean_write_op_s\n");
    let (mut all_detected, mut first_by_25, mut last_grows) = (true, true, true);
    let mut prev_last = 0.0;
    for pct in [10usize, 30, 50, 70] {
        let attackers = total * pct / 100;
        let s = DosScenario {
            seed: args.seed_or(70) + pct as u64,
            data_providers: args.scaled(48),
            writers: total - attackers,
            attackers,
            security: true,
            // Attackers ramp in over 30 s, like a real botnet ramp — this
            // is what separates first from last detection.
            stagger: SimDuration::from_secs(30),
            writer_bytes: 16_000 * MB,
            op_bytes: 1_000 * MB, // 1 GB ops: the paper's "write operation"
            ..DosScenario::default()
        };
        let mut d = build(&s);
        d.world.run_for(SimDuration::from_secs(280), 600_000_000);
        let engine = d.security_engine().expect("engine");
        let times: Vec<f64> = engine
            .detections()
            .iter()
            .map(|det| det.at.as_secs_f64() - ATTACK_START_S as f64)
            .collect();
        let first = times.iter().copied().fold(f64::INFINITY, f64::min);
        let last = times.iter().copied().fold(0.0, f64::max);
        // Mean duration of write ops affected by the attack: completions
        // between the attack start and full recovery (ops slowed by the
        // flood finish late, during the recovery phase).
        let durs: Vec<f64> = d
            .world
            .metrics()
            .series("op_seconds")
            .iter()
            .filter(|x| {
                let t = x.at.as_secs_f64();
                t >= ATTACK_START_S as f64 && t < last + ATTACK_START_S as f64 + 40.0
            })
            .map(|x| x.value)
            .collect();
        let mean_dur = durs.iter().sum::<f64>() / durs.len().max(1) as f64;
        rows.push(row![
            pct,
            format!("{}/{}", times.len(), attackers),
            format!("{first:.1}"),
            format!("{last:.1}"),
            format!("{mean_dur:.1}")
        ]);
        csv.push_str(&format!("{pct},{},{first:.2},{last:.2},{mean_dur:.2}\n", times.len()));
        all_detected &= times.len() == attackers;
        first_by_25 &= first <= 25.0;
        last_grows &= last >= prev_last;
        prev_last = last;
    }
    Report {
        text: format!(
            "E4: detection delay vs fraction of malicious clients ({total} clients total)\n\n{}",
            table(&rows)
        ),
        artifacts: vec![("e4_detection_delay.csv", csv)],
        claims: vec![
            Claim { holds: all_detected, what: "every attacker detected at every share".into() },
            Claim {
                holds: first_by_25,
                what: "first detection <= 25 s after the attack starts".into(),
            },
            Claim {
                holds: last_grows,
                what: "last detection does not decrease as the share grows".into(),
            },
        ],
    }
}
