//! A/A check: two sets of runs of this same build must agree within the
//! bounds `BENCHMARK.json` fixes, and three per-op counts must repeat
//! exactly. Each run is a child process of this executable (one process
//! per workload, so `VmHWM` is the workload's own), and the two sets are
//! interleaved run by run, so a slow host phase lands on both.

use std::process::{Command, ExitCode};

use crate::gen::WORKLOADS;
use crate::stats::quartiles;
use crate::END_TO_END;

/// Counts that, with one client and a fixed seed, depend on the code alone.
const EXACT: [&str; 3] = [
    "runtime.msgs_per_op",
    "provider.chunk_reads_per_op",
    "pmanager.allocs_per_write",
];

/// One child run; `None` (after reporting why) if it failed.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("path of this executable");
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("spawn a benchmark run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    if !out.status.success() || !last.contains("\"correct\": true") {
        eprintln!(
            "{workload} seed {seed} failed:\n{}{last}",
            String::from_utf8_lossy(&out.stderr)
        );
        return None;
    }
    Some(last)
}

/// The value of metric `name` in a result line this program printed.
fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {line}"))
        + key.len()..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .expect("a number")
}

/// The bound of metric `name` in `BENCHMARK.json` (embedded at build).
fn bound(name: &str) -> f64 {
    let json = include_str!("../../BENCHMARK.json");
    let entry = &json[json
        .find(&format!("\"name\": \"{name}\""))
        .expect("metric listed")..];
    let key = "\"bound\": ";
    let rest = &entry[entry.find(key).expect("bound listed") + key.len()..];
    rest[..rest.find('}').expect("entry ends")]
        .trim()
        .parse()
        .expect("a number")
}

pub fn run(n: usize, seconds: u64) -> ExitCode {
    assert!(n >= 2, "--aa needs at least two runs per set");
    let mut ok = true;
    // sets[set][workload] = result lines, one per seed.
    let mut sets = [
        vec![Vec::new(); WORKLOADS.len()],
        vec![Vec::new(); WORKLOADS.len()],
    ];
    for seed in 1..=n as u64 {
        for (set, lines) in sets.iter_mut().enumerate() {
            // The second set visits the workloads in the opposite order.
            let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
            if set == 1 {
                order.reverse();
            }
            for w in order {
                match child(WORKLOADS[w], seed, seconds, false) {
                    Some(line) => lines[w].push(line),
                    None => ok = false,
                }
            }
        }
        eprintln!("aa: seed {seed} of {n} done");
    }
    if !ok {
        return ExitCode::FAILURE;
    }

    println!(
        "A/A: two interleaved sets of {n} runs per workload, seeds 1..={n}, --seconds {seconds}"
    );
    println!("spread = (q3 - q1) / median within a set; ratio = median B / median A (all lower-is-better)\n");
    println!(
        "{:13} {:19} {:>10} {:>8} {:>10} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "median A", "spread", "median B", "spread", "ratio", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (name, _) in END_TO_END {
            let stat = |set: usize| {
                let v: Vec<f64> = sets[set][w].iter().map(|l| value(l, name)).collect();
                let (q1, q2, q3) = quartiles(&v);
                (q2, (q3 - q1) / q2)
            };
            let ((a, spread_a), (b, spread_b), limit) = (stat(0), stat(1), bound(name));
            let worse = (b / a).max(a / b) - 1.0;
            // set-up time is gated on its median only: it runs three
            // times per run, too few for its spread to mean much.
            let wide = name != "setup_s" && spread_a.max(spread_b) > limit;
            let verdict = match (worse > limit, wide) {
                (true, _) => "FAIL: sets disagree",
                (false, true) => "FAIL: spread exceeds bound",
                _ => "ok",
            };
            ok &= verdict == "ok";
            println!(
                "{workload:13} {name:19} {a:>10.4} {:>7.2}% {b:>10.4} {:>7.2}% {:>7.4} {limit:>6.2}  {verdict}",
                spread_a * 100.0,
                spread_b * 100.0,
                b / a
            );
        }
    }

    println!("\ncounts that must repeat exactly (two traced runs, seed 1):");
    for workload in WORKLOADS {
        let (Some(x), Some(y)) = (
            child(workload, 1, seconds, true),
            child(workload, 1, seconds, true),
        ) else {
            return ExitCode::FAILURE;
        };
        for name in EXACT {
            let (vx, vy) = (value(&x, name), value(&y, name));
            let verdict = if vx == vy { "ok" } else { "FAIL: count moved" };
            ok &= vx == vy;
            println!("{workload:13} {name:28} {vx:>12.4} {vy:>12.4}  {verdict}");
        }
    }
    if ok {
        println!("\nA/A passed");
        ExitCode::SUCCESS
    } else {
        println!("\nA/A FAILED");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_and_bounds_are_read_back() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
                    \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
                    \"read_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}";
        assert_eq!(value(line, "setup_s"), 0.8127);
        assert_eq!(value(line, "read_p50_ms"), 1.25);
        for (name, _) in END_TO_END {
            let b = bound(name);
            assert!(b > 0.0 && b <= 0.25, "{name} bound {b}");
        }
    }
}
