//! SLO burn-rate alerting over live telemetry snapshots.
//!
//! The introspection layer's push channel into the self-* components: an
//! [`SloAlertService`] periodically samples the host's metrics registry
//! (through its [`Env`]), folds each watched metric into a per-rule rate
//! [`TimeSeries`], and evaluates **multi-window burn rates** — a rule
//! fires only when both its short window (fast detection) and its long
//! window (noise suppression) exceed the threshold. Fired [`Alert`]s are
//! delivered to subscribed nodes as [`AlertMsg`] events, so the adaptive
//! layer reacts to a message, not to its own polling cadence.
//!
//! Determinism: the service runs as an ordinary sim node; it reads the
//! registry (written synchronously by earlier events on the same
//! single-threaded schedule) and emits normal messages, so runs are
//! repeatable and telemetry-off schedules are unaffected.

use std::sync::Arc;

use sads_blob::services::{Env, Service};
use sads_blob::{impl_ext_payload, rpc::Msg};
use sads_sim::{FlightRecorder, NodeId, SampleValue, SimDuration, SimTime, Snapshot};

use crate::timeseries::TimeSeries;

/// Timer token: alert evaluation tick.
pub const TOKEN_ALERT_TICK: u64 = u64::MAX - 50;

/// How a rule reads its signal out of a registry [`Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleSource {
    /// Per-second increase of a counter family, summed across label sets
    /// (e.g. aggregate `provider.reads` issue rate).
    CounterRate,
    /// Maximum of a gauge family across label sets (e.g. the deepest
    /// `node.queue_depth_seconds` backlog anywhere in the system).
    GaugeMax,
}

/// One multi-window burn-rate rule.
#[derive(Debug, Clone)]
pub struct BurnRateRule {
    /// Rule name, echoed in fired alerts (e.g. `read_rate_burn`).
    pub name: &'static str,
    /// Watched metric family.
    pub metric: &'static str,
    /// How the signal is derived from a snapshot.
    pub source: RuleSource,
    /// Burn threshold both windows must exceed.
    pub threshold: f64,
    /// Fast-detection window.
    pub short_window: SimDuration,
    /// Noise-suppression window.
    pub long_window: SimDuration,
    /// Minimum gap between consecutive firings of this rule.
    pub cooldown: SimDuration,
}

/// A fired burn-rate alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Name of the rule that fired.
    pub rule: &'static str,
    /// Metric family the rule watches.
    pub metric: &'static str,
    /// When the rule fired.
    pub at: SimTime,
    /// Short-window mean at firing time.
    pub short_burn: f64,
    /// Long-window mean at firing time.
    pub long_burn: f64,
    /// The rule's threshold.
    pub threshold: f64,
}

/// Alert-plane RPC, carried as [`Msg::Ext`].
#[derive(Debug, Clone)]
pub enum AlertMsg {
    /// A burn-rate rule fired; subscribed self-* components should react.
    Fire {
        /// The fired alert.
        alert: Alert,
    },
}

impl_ext_payload!(AlertMsg, |_m: &AlertMsg| 64);

/// Wrap for transport.
pub fn alert_msg(m: AlertMsg) -> Msg {
    Msg::Ext(Box::new(m))
}

/// Take an [`AlertMsg`] out of a transport message.
pub fn into_alert(msg: Msg) -> Option<AlertMsg> {
    match msg {
        Msg::Ext(p) => p.downcast::<AlertMsg>().ok().map(|b| *b),
        _ => None,
    }
}

/// Per-rule evaluation state.
struct RuleState {
    series: TimeSeries,
    last_counter: Option<u64>,
    first_sample: Option<SimTime>,
    last_fired: Option<SimTime>,
}

/// The SLO alert engine: samples the host's registry every `every`,
/// evaluates the burn-rate rules, and pushes [`AlertMsg`]s to subscribers.
pub struct SloAlertService {
    rules: Vec<BurnRateRule>,
    subscribers: Vec<NodeId>,
    every: SimDuration,
    state: Vec<RuleState>,
    history: Vec<Alert>,
    recorder: Option<Arc<FlightRecorder>>,
}

impl SloAlertService {
    /// Evaluate `rules` against the host's registry every `every`,
    /// notifying `subscribers` on each firing. With a flight `recorder`,
    /// every firing also triggers a dump whose reason names the rule,
    /// freezing the last few seconds of runtime events beside the alert.
    pub fn new(
        rules: Vec<BurnRateRule>,
        subscribers: Vec<NodeId>,
        every: SimDuration,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> Self {
        let state = rules
            .iter()
            .map(|_| RuleState {
                series: TimeSeries::new(),
                last_counter: None,
                first_sample: None,
                last_fired: None,
            })
            .collect();
        SloAlertService { rules, subscribers, every, state, history: Vec::new(), recorder }
    }

    /// Every alert fired so far, in firing order.
    pub fn history(&self) -> &[Alert] {
        &self.history
    }

    /// Read one rule's signal out of a snapshot. `None` means the family
    /// has not appeared yet (nothing is pushed into the series).
    fn sample(rule: &BurnRateRule, state: &mut RuleState, snap: &Snapshot, dt_s: f64) -> Option<f64> {
        match rule.source {
            RuleSource::CounterRate => {
                let total = snap.counter_total(rule.metric)?;
                let prev = state.last_counter.replace(total);
                let prev = prev?; // first observation only seeds the baseline
                Some((total.saturating_sub(prev)) as f64 / dt_s.max(1e-9))
            }
            RuleSource::GaugeMax => snap
                .family(rule.metric)
                .filter_map(|s| match s.value {
                    SampleValue::Gauge(g) => Some(g),
                    _ => None,
                })
                .fold(None, |acc: Option<f64>, g| Some(acc.map_or(g, |a| a.max(g)))),
        }
    }

    fn evaluate(&mut self, env: &mut dyn Env) {
        let now = env.now();
        let snap = env.telemetry().snapshot();
        let dt_s = self.every.as_secs_f64();
        let mut fired: Vec<Alert> = Vec::new();
        for (rule, state) in self.rules.iter().zip(self.state.iter_mut()) {
            if let Some(v) = Self::sample(rule, state, &snap, dt_s) {
                state.series.push(now, v);
                state.first_sample.get_or_insert(now);
            }
            // No window reaches further back than the long one.
            state.series.retain_since(now - rule.long_window);
            // Window means: [now - w, now + 1ns) so the sample stamped at
            // `now` is included.
            let upper = now + SimDuration::from_nanos(1);
            let short = state.series.window_mean(now - rule.short_window, upper);
            let long = state.series.window_mean(now - rule.long_window, upper);
            // Warmup gate: until the series spans the long window, the
            // "long" mean is really a short one and provides no noise
            // suppression — a single startup burst would page.
            let warmed =
                state.first_sample.is_some_and(|f| now.since(f) >= rule.long_window);
            let burning = match (short, long) {
                (Some(s), Some(l)) => warmed && s > rule.threshold && l > rule.threshold,
                _ => false,
            };
            env.telemetry().set(
                "alerts.active",
                &[("rule", rule.name)],
                if burning { 1.0 } else { 0.0 },
            );
            if !burning {
                continue;
            }
            let in_cooldown =
                state.last_fired.is_some_and(|t| now - t < rule.cooldown);
            if in_cooldown {
                continue;
            }
            state.last_fired = Some(now);
            fired.push(Alert {
                rule: rule.name,
                metric: rule.metric,
                at: now,
                short_burn: short.unwrap_or(0.0),
                long_burn: long.unwrap_or(0.0),
                threshold: rule.threshold,
            });
        }
        for alert in fired {
            env.telemetry().inc("alerts.fired", &[("rule", alert.rule)], 1);
            if let Some(rec) = &self.recorder {
                rec.trigger_dump(
                    &format!("slo-alert:{}", alert.rule),
                    &format!(
                        "metric={} short_burn={:.3} long_burn={:.3} threshold={:.3}",
                        alert.metric, alert.short_burn, alert.long_burn, alert.threshold
                    ),
                    now.as_nanos(),
                );
            }
            for sub in self.subscribers.clone() {
                env.send(sub, alert_msg(AlertMsg::Fire { alert: alert.clone() }));
            }
            self.history.push(alert);
        }
    }
}

impl Service for SloAlertService {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, env: &mut dyn Env) {
        env.set_timer(self.every, TOKEN_ALERT_TICK);
    }

    fn on_msg(&mut self, _env: &mut dyn Env, _from: NodeId, _msg: Msg) {}

    fn on_timer(&mut self, env: &mut dyn Env, token: u64) {
        if token == TOKEN_ALERT_TICK {
            self.evaluate(env);
            env.set_timer(self.every, TOKEN_ALERT_TICK);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sads_sim::Registry;

    fn rule(threshold: f64) -> BurnRateRule {
        BurnRateRule {
            name: "test_burn",
            metric: "m",
            source: RuleSource::CounterRate,
            threshold,
            short_window: SimDuration::from_secs(2),
            long_window: SimDuration::from_secs(10),
            cooldown: SimDuration::from_secs(30),
        }
    }

    #[test]
    fn counter_rate_needs_a_baseline() {
        let reg = Registry::new();
        reg.inc("m", &[("node", "1")], 100);
        let r = rule(1.0);
        let mut st = RuleState { series: TimeSeries::new(), last_counter: None, first_sample: None, last_fired: None };
        // First look only seeds the baseline…
        assert_eq!(SloAlertService::sample(&r, &mut st, &reg.snapshot(), 1.0), None);
        // …then deltas become rates (summed across label sets).
        reg.inc("m", &[("node", "1")], 4);
        reg.inc("m", &[("node", "2")], 6);
        assert_eq!(SloAlertService::sample(&r, &mut st, &reg.snapshot(), 2.0), Some(5.0));
    }

    #[test]
    fn gauge_max_takes_the_worst_node() {
        let reg = Registry::new();
        reg.set("q", &[("node", "1")], 0.5);
        reg.set("q", &[("node", "2")], 3.0);
        let r = BurnRateRule { metric: "q", source: RuleSource::GaugeMax, ..rule(1.0) };
        let mut st = RuleState { series: TimeSeries::new(), last_counter: None, first_sample: None, last_fired: None };
        assert_eq!(SloAlertService::sample(&r, &mut st, &reg.snapshot(), 1.0), Some(3.0));
        // Missing family: no sample at all.
        let r2 = BurnRateRule { metric: "absent", ..r };
        assert_eq!(SloAlertService::sample(&r2, &mut st, &reg.snapshot(), 1.0), None);
    }

    /// The clock, the registry and the alerts sent: all an alert engine
    /// touches.
    struct TestEnv {
        now: SimTime,
        reg: Registry,
        sent: usize,
        rng: rand::rngs::SmallRng,
    }
    impl Env for TestEnv {
        fn id(&self) -> NodeId {
            NodeId(1)
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn send(&mut self, _to: NodeId, _msg: Msg) {
            self.sent += 1;
        }
        fn set_timer(&mut self, _delay: SimDuration, _token: u64) {}
        fn rng(&mut self) -> &mut rand::rngs::SmallRng {
            &mut self.rng
        }
        fn telemetry(&self) -> &Registry {
            &self.reg
        }
        fn spawn(&mut self, _: Box<dyn Service>) -> NodeId {
            unreachable!("the alert engine starts no node")
        }
        fn power_off(&mut self, _: NodeId) {
            unreachable!("the alert engine powers no node off")
        }
    }

    /// A rule's series keeps only what its long window reads: after ten
    /// long windows of one-second ticks each holds at most
    /// `long_window / every + 1` points, and the alerts (two counter bursts
    /// and one gauge plateau) are the ones fired when it kept every point.
    #[test]
    fn a_rule_keeps_only_its_long_window() {
        use rand::SeedableRng;
        let (name, metric, source) = ("gauge", "q", RuleSource::GaugeMax);
        let gauge = BurnRateRule { name, metric, source, ..rule(1.0) };
        let every = SimDuration::from_secs(1);
        let mut svc = SloAlertService::new(vec![rule(1.0), gauge], vec![NodeId(7)], every, None);
        let rng = rand::rngs::SmallRng::seed_from_u64(0);
        let mut env = TestEnv { now: SimTime::ZERO, reg: Registry::new(), sent: 0, rng };
        svc.on_start(&mut env);
        for tick in 1..=100u64 {
            if (20..40).contains(&tick) || (70..80).contains(&tick) {
                env.reg.inc("m", &[("node", "1")], 5);
            }
            let q = if (50..65).contains(&tick) { 3.0 } else { 0.0 };
            env.reg.set("q", &[("node", "1")], q);
            env.now = SimTime::from_secs(tick);
            svc.on_timer(&mut env, TOKEN_ALERT_TICK);
            for state in &svc.state {
                assert!(state.series.len() <= 11, "tick {tick}: {} points", state.series.len());
            }
        }
        let fired: Vec<_> = svc.history().iter().map(|a| (a.rule, a.at.as_secs_f64())).collect();
        assert_eq!(fired, [("test_burn", 31.0), ("gauge", 53.0), ("test_burn", 72.0)]);
        assert_eq!(env.sent, fired.len());
    }

    #[test]
    fn alert_msg_roundtrip() {
        let a = Alert {
            rule: "r",
            metric: "m",
            at: SimTime(5),
            short_burn: 2.0,
            long_burn: 1.5,
            threshold: 1.0,
        };
        match into_alert(alert_msg(AlertMsg::Fire { alert: a.clone() })) {
            Some(AlertMsg::Fire { alert }) => assert_eq!(alert, a),
            other => panic!("{other:?}"),
        }
    }
}
