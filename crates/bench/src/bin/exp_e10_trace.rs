//! E10 — tracing the DoS collapse. Re-runs the E2 attack timeline with
//! causal request tracing enabled and shows *where* the latency goes:
//! before the attack a writer's critical path is dominated by chunk
//! serialization (`store`); once the amplified-read flood starts, the
//! p99 write critical path shifts to NIC FIFO `queueing` — the collapse
//! mechanism the aggregate E2 throughput curve can only hint at.
//!
//! Artifacts: a per-`(service, op)` latency table (p50/p90/p99/p999), a
//! critical-path attribution CSV, and a `chrome://tracing` JSON of the
//! slowest pre-attack and in-attack writes (`results/trace_e10.json`).
//!
//! `--smoke` runs a tiny cluster for CI: it checks that the span tree is
//! non-empty and the chrome-trace export is structurally valid.

use sads_bench::dos::{build, DosScenario, ATTACK_START_S, MB};
use sads_bench::{print_table, row, write_artifact, BenchArgs};
use sads_sim::{SimDuration, SpanKind};
use sads_trace::{chrome_trace_json, critical_paths, spans_csv, CriticalPath};

/// End of the "under attack" analysis window (matches E2's phases).
const ATTACK_END_S: u64 = 55;

fn ms(ns: f64) -> String {
    format!("{:.2}", ns / 1e6)
}

/// Aggregate critical paths of one phase: dominant-bucket counts plus
/// mean/max totals.
#[derive(Default)]
struct PhaseStats {
    count: usize,
    queueing: usize,
    wire: usize,
    store: usize,
    meta: usize,
    total_ns_sum: u64,
    queueing_ns_sum: u64,
    store_ns_sum: u64,
    max_total_ns: u64,
}

impl PhaseStats {
    fn add(&mut self, cp: &CriticalPath) {
        self.count += 1;
        match cp.dominant() {
            "queueing" => self.queueing += 1,
            "wire" => self.wire += 1,
            "store" => self.store += 1,
            _ => self.meta += 1,
        }
        self.total_ns_sum += cp.total_ns;
        self.queueing_ns_sum += cp.queueing_ns;
        self.store_ns_sum += cp.store_ns;
        self.max_total_ns = self.max_total_ns.max(cp.total_ns);
    }

    fn mean_of(&self, sum: u64) -> u64 {
        if self.count == 0 {
            0
        } else {
            sum / self.count as u64
        }
    }

    fn mean_ns(&self) -> u64 {
        self.mean_of(self.total_ns_sum)
    }
}

fn main() {
    let args = BenchArgs::parse();
    println!("E10: causal tracing of the DoS timeline (E2 rerun with spans on)\n");

    let mut s = DosScenario { seed: args.seed_or(7), tracing: true, ..DosScenario::default() };
    let (run_s, max_events) = if args.smoke {
        s.data_providers = 6;
        s.writers = 2;
        s.attackers = 2;
        s.writer_bytes = 4_000 * MB;
        (60, 20_000_000)
    } else {
        s.data_providers = args.scaled(s.data_providers);
        s.writers = args.scaled(s.writers);
        s.attackers = args.scaled(s.attackers);
        (180, 200_000_000)
    };

    let mut d = build(&s);
    d.world.run_for(SimDuration::from_secs(run_s), max_events);

    let sink = d.span_sink().expect("tracing enabled").clone();
    let spans = sink.spans();
    println!(
        "spans retained: {} (dropped past cap: {})\n",
        spans.len(),
        sink.dropped()
    );
    assert!(!spans.is_empty(), "tracing on must record spans");
    assert!(
        spans.iter().any(|sp| sp.kind == SpanKind::Op),
        "span tree must contain operation roots"
    );
    assert!(
        spans.iter().any(|sp| sp.kind == SpanKind::Handle),
        "span tree must contain server-side handle spans"
    );

    // Per-(service, op) latency summaries.
    let mut rows = vec![row!["service", "op", "count", "p50_ms", "p90_ms", "p99_ms", "p999_ms"]];
    for ((service, op), h) in sink.histograms() {
        rows.push(row![
            service,
            op,
            h.count,
            ms(h.p50),
            ms(h.p90),
            ms(h.p99),
            ms(h.p999)
        ]);
    }
    print_table(&rows);

    // Critical-path attribution of client writes, split around the
    // attack start.
    let cps = critical_paths(&spans);
    let writes: Vec<&CriticalPath> = cps.iter().filter(|c| c.op == "write").collect();
    let mut pre = PhaseStats::default();
    let mut during = PhaseStats::default();
    let mut slowest_pre: Option<&CriticalPath> = None;
    let mut slowest_during: Option<&CriticalPath> = None;
    let attack_start_ns = ATTACK_START_S * 1_000_000_000;
    let attack_end_ns = ATTACK_END_S * 1_000_000_000;
    for cp in &writes {
        if cp.start_ns < attack_start_ns {
            pre.add(cp);
            if slowest_pre.map(|b| cp.total_ns > b.total_ns).unwrap_or(true) {
                slowest_pre = Some(cp);
            }
        } else if cp.start_ns < attack_end_ns {
            during.add(cp);
            if slowest_during.map(|b| cp.total_ns > b.total_ns).unwrap_or(true) {
                slowest_during = Some(cp);
            }
        }
    }

    println!("\ncritical path of client writes (dominant latency bucket):");
    let mut rows = vec![row![
        "phase", "writes", "queueing", "wire", "store", "metadata", "mean_ms", "mean_queue_ms",
        "mean_store_ms", "max_ms"
    ]];
    let mut csv = String::from(
        "phase,writes,dom_queueing,dom_wire,dom_store,dom_meta,mean_ms,mean_queue_ms,mean_store_ms,max_ms\n",
    );
    for (phase, st) in [("baseline", &pre), ("under attack", &during)] {
        rows.push(row![
            phase,
            st.count,
            st.queueing,
            st.wire,
            st.store,
            st.meta,
            ms(st.mean_ns() as f64),
            ms(st.mean_of(st.queueing_ns_sum) as f64),
            ms(st.mean_of(st.store_ns_sum) as f64),
            ms(st.max_total_ns as f64)
        ]);
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            phase,
            st.count,
            st.queueing,
            st.wire,
            st.store,
            st.meta,
            ms(st.mean_ns() as f64),
            ms(st.mean_of(st.queueing_ns_sum) as f64),
            ms(st.mean_of(st.store_ns_sum) as f64),
            ms(st.max_total_ns as f64)
        ));
    }
    print_table(&rows);
    write_artifact("e10_critical_path.csv", &csv);

    // Export the two most illustrative traces — the slowest write on
    // each side of the attack start — as chrome://tracing JSON + CSV.
    let picked: Vec<u64> = [slowest_pre, slowest_during]
        .into_iter()
        .flatten()
        .map(|cp| cp.trace)
        .collect();
    let exported: Vec<_> =
        spans.iter().filter(|sp| picked.contains(&sp.trace)).copied().collect();
    let json = chrome_trace_json(&exported);
    assert!(json.starts_with("{\"traceEvents\":["), "chrome trace must be well-formed");
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "chrome trace braces must balance"
    );
    write_artifact("trace_e10.json", &json);
    write_artifact("e10_spans.csv", &spans_csv(&exported));

    if args.smoke {
        println!("\nsmoke OK: {} spans, {} exported in chrome trace", spans.len(), exported.len());
        return;
    }

    assert!(
        during.queueing > 0,
        "at least one in-attack write must be queueing-dominated (got {} writes)",
        during.count
    );
    println!(
        "\npaper check: mean write critical path {} ms -> {} ms at attack start; the growth \
         is queueing ({} ms -> {} ms) while store serialization stays flat ({} ms -> {} ms). \
         {}/{} in-attack writes are queueing-dominated — the read flood jams provider NICs \
         and honest traffic waits in line.",
        ms(pre.mean_ns() as f64),
        ms(during.mean_ns() as f64),
        ms(pre.mean_of(pre.queueing_ns_sum) as f64),
        ms(during.mean_of(during.queueing_ns_sum) as f64),
        ms(pre.mean_of(pre.store_ns_sum) as f64),
        ms(during.mean_of(during.store_ns_sum) as f64),
        during.queueing,
        during.count.max(1)
    );
}
