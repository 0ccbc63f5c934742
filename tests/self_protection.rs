//! End-to-end self-protection loop (paper §IV-C) on E2's scenario,
//! `sads_bench::dos`: correct writers and DoS attackers share a
//! simulated deployment; the monitoring → introspection → detection →
//! enforcement pipeline must find the attackers, block them, and let
//! throughput recover. E2's claims (`tests/paper.rs`) check the drop,
//! the detection count, the silenced attackers and the recovery; these
//! tests check who is sanctioned, when, and the runs without security or
//! without attackers.

use sads_bench::dos::{build, DosScenario};
use sads_bench::window_mean;
use sads_sim::{RunOutcome, SimDuration};

#[test]
fn dos_attack_is_detected_blocked_and_throughput_recovers() {
    let mut d = build(&DosScenario::default());
    let out = d.world.run_for(SimDuration::from_secs(180), 50_000_000);
    assert_ne!(out, RunOutcome::EventLimit, "simulation livelocked");

    // Baseline before the attack is healthy (~110 MB/s per client).
    let m = d.world.metrics();
    let baseline = window_mean(&m, "writer.write_mbps", 12.0, 30.0).expect("baseline ops");
    assert!(baseline > 80.0, "baseline {baseline} MB/s");

    // Only attackers are sanctioned, each within 45 s of the attack start.
    let engine = d.security_engine().expect("engine deployed");
    for det in engine.detections() {
        assert!(det.client.0 >= 100, "only attackers sanctioned: {det:?}");
        let t = det.at.as_secs_f64();
        assert!(t > 30.0 && t < 75.0, "detection at {t}s");
    }
    // No correct client was ever sanctioned.
    assert!(engine.enforcer().violation_log().iter().all(|v| v.client.0 >= 100));
}

#[test]
fn without_security_the_attack_persists() {
    let mut d = build(&DosScenario { security: false, ..DosScenario::default() });
    d.world.run_for(SimDuration::from_secs(150), 50_000_000);
    let m = d.world.metrics();
    let baseline = window_mean(&m, "writer.write_mbps", 12.0, 30.0).expect("baseline ops");
    let late = window_mean(&m, "writer.write_mbps", 60.0, 150.0).unwrap_or(0.0);
    assert!(
        late < baseline * 0.6,
        "unprotected system should stay degraded: late {late} vs baseline {baseline}"
    );
    assert_eq!(d.world.metrics().counter("attacker.silenced"), 0);
}

#[test]
fn all_correct_clients_run_at_full_speed_without_attackers() {
    let mut d = build(&DosScenario { attackers: 0, ..DosScenario::default() });
    d.world.run_for(SimDuration::from_secs(120), 50_000_000);
    let tp = window_mean(&d.world.metrics(), "writer.write_mbps", 12.0, 90.0).expect("ops");
    assert!(tp > 90.0, "clean-system throughput {tp} MB/s");
    // And the engine saw plenty of activity yet sanctioned nobody.
    let engine = d.security_engine().expect("engine deployed");
    assert!(engine.history().total_ingested() > 0, "activity flowed");
    assert!(engine.detections().is_empty());
}
