//! The plain-text `statusz` page: one renderer for every host.
//!
//! A caller passes its host's registry snapshot, clock and flight
//! recorder — `World::now()` on the simulator, `Cluster::now()` on
//! threads, `SimTime(client.now_ns())` behind a gateway — so a simulated
//! deployment, a bare cluster and a gateway's cluster all print the same
//! page. Health is judged against the host's clock, not the freshest
//! heartbeat: nodes that all stop heartbeating at once read Down.

use std::fmt::Write;

use sads_sim::{
    derive_health, FlightRecorder, HealthPolicy, HealthState, SampleValue, SimTime, Snapshot,
    TelemetrySample,
};

/// Render the `/statusz` page: uptime, per-node health verdicts, active
/// and fired alerts, flight-recorder occupancy and the busiest counters.
/// One fact per line — the page an operator reads first when paged,
/// before reaching for the full `/metrics` firehose.
pub fn statusz(snap: &Snapshot, now: SimTime, recorder: Option<&FlightRecorder>) -> String {
    let now_s = now.as_secs_f64();
    let mut out = format!("=== statusz ===\nuptime_s: {now_s:.3}\n");

    let health = derive_health(snap, now_s, &HealthPolicy::default());
    let count = |state| health.iter().filter(|h| h.state == state).count();
    if health.is_empty() {
        out.push_str("health: no heartbeats recorded\n");
    } else {
        let (n, ok) = (health.len(), count(HealthState::Ok));
        let (degraded, down) = (count(HealthState::Degraded), count(HealthState::Down));
        let _ = writeln!(out, "health: {n} nodes ok={ok} degraded={degraded} down={down}");
    }
    for h in health.iter().filter(|h| h.state != HealthState::Ok) {
        let (node, state, last) = (h.node, h.state, h.last_heartbeat_s);
        let _ =
            writeln!(out, "  node {node}: {state:?} (last heartbeat {last:.3}s, now {now_s:.3}s)");
    }

    // Alerts: which burn-rate rules are burning right now, and how often
    // each has fired since startup (the alert engine's `{rule}` series).
    let mut active: Vec<&str> = snap
        .family("alerts.active")
        .filter(|s| matches!(s.value, SampleValue::Gauge(g) if g > 0.0))
        .map(rule)
        .collect();
    active.sort_unstable();
    let fired_total = snap.counter_total("alerts.fired").unwrap_or(0);
    let _ = writeln!(out, "alerts: active=[{}] fired_total={fired_total}", active.join(","));
    for s in snap.family("alerts.fired") {
        if let SampleValue::Counter(c) = s.value {
            let _ = writeln!(out, "  fired {}: {c}", rule(s));
        }
    }

    // Flight recorder: ring occupancy plus the reason and time of the
    // most recent auto-capture, if any fired.
    match recorder {
        Some(rec) => {
            out.push_str(&rec.summary());
            if let Some(d) = rec.last_dump() {
                let _ = writeln!(out, "  last dump #{}: {} at {}ns", d.seq, d.reason, d.at_ns);
            }
        }
        None => out.push_str("flight recorder: detached\n"),
    }

    // The busiest counters — a ten-line traffic sketch of the whole
    // deployment (requests, chunk ops, faults, …).
    let mut counters: Vec<(String, u64)> = snap
        .samples
        .iter()
        .filter_map(|s| match s.value {
            SampleValue::Counter(c) if s.labels.is_empty() => Some((s.name.clone(), c)),
            SampleValue::Counter(c) => {
                let labels: Vec<_> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                Some((format!("{}{{{}}}", s.name, labels.join(",")), c))
            }
            _ => None,
        })
        .collect();
    counters.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out.push_str("top counters:\n");
    for (key, v) in counters.iter().take(10) {
        let _ = writeln!(out, "  {key} {v}");
    }
    out
}

/// The `rule` label of an alert-family sample.
fn rule(s: &TelemetrySample) -> &str {
    s.labels.iter().find(|(k, _)| k == "rule").map_or("?", |(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sads_sim::{Registry, HEARTBEAT_GAUGE};

    #[test]
    fn renders_health_alerts_recorder_and_top_counters() {
        let (reg, rec) = (Registry::new(), FlightRecorder::new());
        reg.inc("gateway.requests", &[("op", "put_object")], 2);
        // One fresh node, one long-silent node, one burning rule.
        reg.set(HEARTBEAT_GAUGE, &[("node", "9001")], 999.5);
        reg.set(HEARTBEAT_GAUGE, &[("node", "9002")], 10.0);
        reg.set("alerts.active", &[("rule", "read_rate_burn")], 1.0);
        reg.inc("alerts.fired", &[("rule", "read_rate_burn")], 3);
        rec.trigger_dump("statusz-test", "synthetic", 123);

        let page = statusz(&reg.snapshot(), SimTime::from_secs(1000), Some(&rec));
        assert!(page.contains("uptime_s: 1000.000"), "{page}");
        assert!(page.contains("health: 2 nodes ok=1 degraded=0 down=1"), "{page}");
        assert!(page.contains("node 9002: Down"), "{page}");
        assert!(page.contains("active=[read_rate_burn] fired_total=3"), "{page}");
        assert!(page.contains("fired read_rate_burn: 3"), "{page}");
        assert!(page.contains("flight recorder:"), "{page}");
        assert!(page.contains("last dump #1: statusz-test"), "{page}");
        assert!(page.contains("top counters:"), "{page}");
        assert!(page.contains("gateway.requests{op=put_object} 2"), "{page}");
        let bare = statusz(&Registry::new().snapshot(), SimTime::ZERO, None);
        assert!(bare.contains("no heartbeats recorded") && bare.contains("detached"), "{bare}");
    }

    /// Every node stopped heartbeating at the same moment, more than the
    /// policy's 5 s ago: the host's clock marks each one Down, where the
    /// freshest heartbeat, taken as "now", would call them all Ok.
    #[test]
    fn a_uniformly_stale_cluster_reads_down() {
        let reg = Registry::new();
        for node in ["1", "2", "3"] {
            reg.set(HEARTBEAT_GAUGE, &[("node", node)], 20.0);
        }
        let page = statusz(&reg.snapshot(), SimTime::from_secs(26), None);
        assert!(page.contains("health: 3 nodes ok=0 degraded=0 down=3"), "{page}");
        for node in 1..=3 {
            assert!(page.contains(&format!("node {node}: Down")), "{page}");
        }
    }
}
