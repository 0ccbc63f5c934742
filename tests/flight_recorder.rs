//! Flight-recorder invariants:
//!
//! * the ring never tears an event, never exceeds its byte budget, and
//!   under concurrent writers racing a dump every writer's surviving
//!   events form a contiguous *suffix* of what that writer acked —
//!   eviction eats only from the oldest end, never from the middle;
//! * attaching the recorder to a sim [`World`] leaves the event schedule
//!   byte-identical (`event_digest` is unchanged) — the recorder is pure
//!   observation, safe to leave always-on.

use std::sync::Arc;
use std::thread;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use sads_sim::{
    impl_message, Actor, Ctx, FlightEvent, FlightRecorder, Message, NodeConfig, NodeId,
    SimDuration, World,
};
use sads_trace::EVENT_BYTES;

/// Writer `w`'s event `i`, tagged so tearing is detectable: `b` is a
/// checksum over the other payload fields.
fn tagged(w: u64, i: u64) -> FlightEvent {
    FlightEvent {
        at_ns: i,
        dur_ns: w,
        label: "turn",
        node: w as u32,
        a: i,
        b: w.wrapping_mul(0x9e37_79b9).wrapping_add(i),
        trace: 0,
    }
}

/// Check one snapshot of the ring against `per_writer` acked events per
/// writer: no torn events, per-writer order preserved, and (for
/// post-join snapshots) each writer's events are a contiguous suffix.
fn check_snapshot(
    events: &[FlightEvent],
    writers: u64,
    per_writer: u64,
    require_suffix: bool,
) -> Result<(), TestCaseError> {
    let mut last_seen: Vec<Option<u64>> = vec![None; writers as usize];
    for ev in events {
        // Torn write ⇒ the checksum field disagrees with the payload.
        prop_assert!(u64::from(ev.node) < writers, "unknown writer {}", ev.node);
        prop_assert_eq!(
            ev.b,
            u64::from(ev.node).wrapping_mul(0x9e37_79b9).wrapping_add(ev.a),
            "torn event: {:?}",
            ev
        );
        prop_assert!(ev.a < per_writer, "sequence out of range: {:?}", ev);
        // Arrival order per writer is preserved by the deque.
        let prev = last_seen[ev.node as usize].replace(ev.a);
        if let Some(p) = prev {
            prop_assert!(ev.a > p, "writer {} reordered: {} after {}", ev.node, ev.a, p);
            if require_suffix {
                prop_assert_eq!(
                    ev.a,
                    p + 1,
                    "writer {} has a gap: {} after {} — eviction ate the middle",
                    ev.node,
                    ev.a,
                    p
                );
            }
        }
    }
    if require_suffix {
        // Whatever survived must end at each writer's final acked event
        // (a writer entirely evicted is fine — budget pressure).
        for (w, last) in last_seen.iter().enumerate() {
            if let Some(last) = last {
                prop_assert_eq!(
                    *last,
                    per_writer - 1,
                    "writer {} lost its acked tail (last survivor {})",
                    w,
                    last
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent writers race a dumping reader; afterwards the ring
    /// holds an untorn, budget-respecting suffix of every writer's
    /// acked events.
    #[test]
    fn ring_survives_concurrent_writers_and_racing_dumps(
        writers in 1u64..5,
        per_writer in 1u64..300,
        budget_events in 4usize..64,
    ) {
        let budget = budget_events * EVENT_BYTES;
        let recorder = FlightRecorder::with_ring_bytes(budget);
        let ring = recorder.ring("prop");
        let mut handles = Vec::new();
        for w in 0..writers {
            let r = Arc::clone(&ring);
            handles.push(thread::spawn(move || {
                for i in 0..per_writer {
                    r.record(tagged(w, i));
                }
            }));
        }
        // A racing reader snapshots mid-flight, like a dump triggered by
        // an alert while the executor is hot.
        let racing = {
            let r = Arc::clone(&ring);
            thread::spawn(move || {
                let mut mid = Vec::new();
                for _ in 0..8 {
                    mid.push(r.snapshot());
                }
                mid
            })
        };
        for h in handles {
            h.join().expect("writer");
        }
        let mid_snaps = racing.join().expect("reader");

        // Mid-flight snapshots: untorn and ordered (suffix-ness only
        // holds once writers stop).
        for (events, _, _) in &mid_snaps {
            prop_assert!(events.len() * EVENT_BYTES <= budget, "budget exceeded mid-flight");
            check_snapshot(events, writers, per_writer, false)?;
        }

        // Final state: full accounting and contiguous acked suffixes.
        let (events, dropped, total) = ring.snapshot();
        prop_assert_eq!(total, writers * per_writer, "every ack counted");
        prop_assert_eq!(dropped + events.len() as u64, total, "evictions accounted");
        prop_assert!(events.len() * EVENT_BYTES <= budget, "byte budget respected");
        prop_assert!(!events.is_empty(), "a non-zero budget always retains the newest event");
        check_snapshot(&events, writers, per_writer, true)?;
    }
}

// ---------------------------------------------------------------------
// Determinism: recorder on == recorder off, byte for byte.
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Ping(u64);
impl_message!(Ping, |m: &Ping| m.0);

/// A chatty actor: timers re-arm, messages bounce between peers — enough
/// schedule variety (starts, deliveries, timers) to catch any recorder
/// interference with event ordering.
struct Chatter {
    peer: Option<NodeId>,
    rounds: u64,
}

impl Actor for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(5), 1);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, _msg: Box<dyn Message>) {
        ctx.incr("chat.msgs", 1);
        if self.rounds > 0 {
            self.rounds -= 1;
            ctx.send(from, Box::new(Ping(64 * 1024)));
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if let Some(peer) = self.peer {
            ctx.send(peer, Box::new(Ping(64 * 1024)));
        }
        if self.rounds > 0 {
            ctx.set_timer(SimDuration::from_millis(7), 1);
        }
    }
}

fn run_chatter(recorder: Option<Arc<FlightRecorder>>) -> (u64, u64, Option<Arc<FlightRecorder>>) {
    let mut w = World::with_seed(0xf11e);
    let a = w.add_node(Box::new(Chatter { peer: None, rounds: 40 }), NodeConfig::default());
    let _b = w.add_node(Box::new(Chatter { peer: Some(a), rounds: 40 }), NodeConfig::default());
    if let Some(rec) = &recorder {
        w.set_flight_recorder(Arc::clone(rec));
    }
    w.run_to_quiescence(100_000);
    (w.event_digest(), w.metrics().counter("chat.msgs"), recorder)
}

#[test]
fn recorder_leaves_sim_schedule_byte_identical() {
    let (digest_off, msgs_off, _) = run_chatter(None);
    let rec = Arc::new(FlightRecorder::new());
    let (digest_on, msgs_on, _) = run_chatter(Some(Arc::clone(&rec)));

    assert!(msgs_off > 0, "workload actually ran");
    assert_eq!(msgs_on, msgs_off, "same message count either way");
    assert_eq!(
        digest_on, digest_off,
        "flight recorder perturbed the event schedule"
    );

    // And the recorder did observe the run: the sim ring holds real
    // deliveries/timers, dumpable as chrome://tracing JSON.
    let dump = rec.trigger_dump("determinism-test", "post-run", 0);
    let sim_ring = dump.rings.iter().find(|r| r.service == "sim").expect("sim ring exists");
    assert!(sim_ring.total > 0, "recorder saw events");
    let json = dump.chrome_json();
    assert!(json.contains("\"traceEvents\""), "chrome trace envelope present");
}
