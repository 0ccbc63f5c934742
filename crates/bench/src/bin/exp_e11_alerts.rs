//! E11 — the telemetry plane closes the loop: the E2 DoS timeline run
//! twice, without and with the SLO burn-rate alert engine. In the
//! baseline the security framework relies purely on its own polling
//! cadence; with alerts on, burn-rate firings over the live registry
//! push the security engine into an immediate scan and the elasticity
//! controller into a queue-depth scale-out — adaptive actions triggered
//! by an [`sads_introspect::Alert`] message, not by internal polling.
//!
//! Reported per mode: detection delay (first/last, seconds after the
//! attack starts), fired alerts and their burn values, and the
//! alert-triggered action counters (`sec.alert_scans`,
//! `elastic.alert_scaleouts`). Artifact: `results/e11_alerts.csv`.

use sads_bench::dos::{build, DosScenario, ATTACK_START_S};
use sads_bench::{print_table, row, window_mean, write_artifact, BenchArgs};
use sads_sim::SimDuration;

struct ModeResult {
    mode: &'static str,
    detections: usize,
    first_detect_s: f64,
    last_detect_s: f64,
    alerts_fired: usize,
    attack_window_alerts: usize,
    first_alert_s: f64,
    alert_scans: u64,
    alert_scaleouts: u64,
    trough_mbps: f64,
    recovered_mbps: f64,
}

fn run(mode: &'static str, s: &DosScenario, run_s: u64, max_events: u64) -> ModeResult {
    let mut d = build(s);
    d.world.run_for(SimDuration::from_secs(run_s), max_events);

    let times: Vec<f64> = d
        .security_engine()
        .expect("security engine deployed")
        .detections()
        .iter()
        .map(|det| det.at.as_secs_f64() - ATTACK_START_S as f64)
        .collect();
    let alerts: Vec<f64> = d
        .alert_engine()
        .map(|e| e.history().iter().map(|a| a.at.as_secs_f64()).collect())
        .unwrap_or_default();
    if let Some(engine) = d.alert_engine() {
        for a in engine.history() {
            println!(
                "  [{mode}] alert {} on {} at t={:.1}s (short {:.1}, long {:.1}, thr {:.1})",
                a.rule,
                a.metric,
                a.at.as_secs_f64(),
                a.short_burn,
                a.long_burn,
                a.threshold
            );
        }
    }
    let m = d.world.metrics();
    ModeResult {
        mode,
        detections: times.len(),
        first_detect_s: times.iter().copied().fold(f64::INFINITY, f64::min),
        last_detect_s: times.iter().copied().fold(0.0, f64::max),
        alerts_fired: alerts.len(),
        attack_window_alerts: alerts.iter().filter(|t| **t >= ATTACK_START_S as f64).count(),
        first_alert_s: alerts.iter().copied().fold(f64::INFINITY, f64::min),
        alert_scans: m.counter("sec.alert_scans"),
        alert_scaleouts: m.counter("elastic.alert_scaleouts"),
        trough_mbps: window_mean(&m, "writer.write_mbps", 32.0, 50.0).unwrap_or(0.0),
        recovered_mbps: window_mean(&m, "writer.write_mbps", 55.0, run_s as f64).unwrap_or(0.0),
    }
}

/// Sanity checks for `--smoke`: the alert engine must fire during the
/// attack and at least one self-* component must act on the message.
fn check(alerted: &ModeResult) -> bool {
    let mut ok = true;
    if alerted.attack_window_alerts == 0 {
        println!("FAIL: no burn-rate alert fired inside the DoS window (t >= {ATTACK_START_S}s)");
        ok = false;
    }
    if alerted.first_alert_s < ATTACK_START_S as f64 {
        println!(
            "FAIL: first alert at t={:.1}s precedes the attack (t={ATTACK_START_S}s) — rule too noisy",
            alerted.first_alert_s
        );
        ok = false;
    }
    if alerted.alert_scans == 0 && alerted.alert_scaleouts == 0 {
        println!("FAIL: no adaptive action was triggered by an alert message");
        ok = false;
    }
    if alerted.detections == 0 {
        println!("FAIL: security engine detected no attackers");
        ok = false;
    }
    ok
}

fn main() {
    let args = BenchArgs::parse();
    println!("E11: DoS detection with the SLO burn-rate alert engine vs polling only\n");

    let (run_s, max_events, base) = if args.smoke {
        (
            90u64,
            60_000_000u64,
            DosScenario {
                seed: args.seed_or(11),
                data_providers: 6,
                writers: 2,
                attackers: 4,
                ..DosScenario::default()
            },
        )
    } else {
        (
            180,
            300_000_000,
            DosScenario {
                seed: args.seed_or(11),
                data_providers: args.scaled(16),
                writers: args.scaled(8),
                attackers: args.scaled(6),
                ..DosScenario::default()
            },
        )
    };

    let baseline = run(
        "polling",
        &DosScenario { alerts: false, elasticity: false, ..base },
        run_s,
        max_events,
    );
    let alerted =
        run("alerts", &DosScenario { alerts: true, elasticity: true, ..base }, run_s, max_events);

    let mut rows = vec![row![
        "mode",
        "detections",
        "first_detect_s",
        "last_detect_s",
        "alerts",
        "first_alert_s",
        "alert_scans",
        "alert_scaleouts",
        "trough_MBps",
        "recovered_MBps"
    ]];
    let mut csv = String::from(
        "mode,detections,first_detect_s,last_detect_s,alerts_fired,first_alert_s,\
         sec_alert_scans,elastic_alert_scaleouts,trough_mbps,recovered_mbps\n",
    );
    for r in [&baseline, &alerted] {
        let first_alert =
            if r.first_alert_s.is_finite() { format!("{:.1}", r.first_alert_s) } else { "-".into() };
        rows.push(row![
            r.mode,
            r.detections,
            format!("{:.1}", r.first_detect_s),
            format!("{:.1}", r.last_detect_s),
            r.alerts_fired,
            first_alert,
            r.alert_scans,
            r.alert_scaleouts,
            format!("{:.1}", r.trough_mbps),
            format!("{:.1}", r.recovered_mbps)
        ]);
        csv.push_str(&format!(
            "{},{},{:.2},{:.2},{},{:.2},{},{},{:.2},{:.2}\n",
            r.mode,
            r.detections,
            r.first_detect_s,
            r.last_detect_s,
            r.alerts_fired,
            if r.first_alert_s.is_finite() { r.first_alert_s } else { -1.0 },
            r.alert_scans,
            r.alert_scaleouts,
            r.trough_mbps,
            r.recovered_mbps
        ));
    }
    println!();
    print_table(&rows);
    write_artifact("e11_alerts.csv", &csv);

    println!(
        "\nfirst detection: polling {:.1}s vs alerts {:.1}s after attack start; \
         alert-triggered scans {}, scale-outs {}",
        baseline.first_detect_s, alerted.first_detect_s, alerted.alert_scans, alerted.alert_scaleouts
    );
    println!(
        "check: burn-rate alerts fire inside the DoS window and push the security \
         engine and elasticity controller to act on the alert message itself."
    );

    if args.smoke && !check(&alerted) {
        std::process::exit(1);
    }
}
