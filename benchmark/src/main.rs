//! The SADS benchmark. One process runs one workload:
//!
//! ```text
//! sads-benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
//! sads-benchmark --aa N [--seconds S]
//! ```
//!
//! Without `--trace` it measures the five end-to-end metrics with all
//! tracing off; with it, the per-layer metrics. Every metric is printed by
//! name with its unit, then one JSON object on the last line. The exit
//! code is non-zero if any op failed or any byte check mismatched.
//! `--aa N` runs two sets of N runs per workload of this same build and
//! fails if they disagree by more than the bounds in `BENCHMARK.json`.

mod aa;
mod driver;
mod gen;
mod layers;
mod procfs;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;

use driver::{run_phase, Class, Env, Phase, Workload};
use sads_sim::SpanSink;

/// End-to-end metrics, the same five on every workload: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("write_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("cpu_user_us_per_op", "us"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`; the layer is the
/// module the name starts with. A layer the workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("storage.crc32c_gbps", "GB/s"),
    ("storage.disk_append_us", "us"),
    ("storage.write_amp", "ratio"),
    ("storage.recover_mbps", "MB/s"),
    ("provider.store_put_us", "us"),
    ("provider.store_get_us", "us"),
    ("provider.chunk_reads_per_op", "count"),
    ("provider.cache_hit_ratio", "ratio"),
    ("meta.range_cover_us", "us"),
    ("meta.tree_read_us", "us"),
    ("meta.tree_build_us", "us"),
    ("meta.handle_us_per_op", "us"),
    ("vmanager.handle_us_per_op", "us"),
    ("pmanager.handle_us_per_op", "us"),
    ("pmanager.allocs_per_write", "count"),
    ("client.write.ticket_us", "us"),
    ("client.write.alloc_us", "us"),
    ("client.write.chunks_us", "us"),
    ("client.write.meta_resolve_us", "us"),
    ("client.write.meta_put_us", "us"),
    ("client.write.commit_us", "us"),
    ("client.read.version_us", "us"),
    ("client.read.meta_us", "us"),
    ("client.read.chunks_us", "us"),
    ("client.unattributed_us", "us"),
    ("stream.open_us", "us"),
    ("stream.feed_us", "us"),
    ("stream.commit_us", "us"),
    ("stream.next_us", "us"),
    ("runtime.ctl_rtt_us", "us"),
    ("runtime.msgs_per_op", "count"),
    ("runtime.mailbox_wait_us_per_op", "us"),
    ("runtime.parks_per_op", "count"),
    ("runtime.steals_per_op", "count"),
    ("gateway.put_overhead_us", "us"),
    ("gateway.range_p50_ms", "ms"),
    ("gateway.head_list_p50_us", "us"),
    ("proc.minflt_per_op", "count"),
    ("driver.cpu_sys_us_per_op", "us"),
    ("driver.write_p99_ms", "ms"),
    ("driver.read_p99_ms", "ms"),
    ("driver.ops_per_s", "1/s"),
    ("driver.calib_spin_ms", "ms"),
    ("driver.trace_overhead_pct", "%"),
];

/// Measured rounds of an end-to-end run, after the warm-up round.
const ROUNDS: usize = 10;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Measured rounds of each of the traced run's two phases.
const TRACED_ROUNDS: usize = 4;

/// Scratch directory for disk backends, next to the executable: inside
/// the build directory, which every checkout already ignores. Removed on
/// drop — on success, on a failed run and on panic alike.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> RunDir {
        let exe = std::env::current_exe().expect("path of this executable");
        let dir = exe.parent().expect("executable directory");
        let path = dir.join(format!("sads-benchmark-run-{}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create run directory");
        RunDir(path)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Free space under `dir`, KiB, by asking `df` (std has no statvfs).
fn free_kib(dir: &Path) -> Option<u64> {
    let out = Command::new("df").arg("-Pk").arg(dir).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().nth(1)?.split_whitespace().nth(3)?.parse().ok()
}

/// A fixed integer loop, ms: the same on every build, so a run whose
/// spin time moved sat on a perturbed host, not on slower code.
fn calib_spin_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

fn run<W: Workload>(env: &mut Env, trace: bool) -> (BTreeMap<&'static str, f64>, Phase) {
    let mut m = BTreeMap::new();
    if !trace {
        let p = run_phase::<W>(env);
        m.insert("setup_s", p.setup_s);
        m.insert("write_p50_ms", p.rec.p50_ms(Class::Write));
        m.insert("read_p50_ms", p.rec.p50_ms(Class::Read));
        m.insert(
            "cpu_user_us_per_op",
            p.cpu.utime_us / p.rec.completed() as f64,
        );
        m.insert("rss_peak_mb", p.rss_peak_mb);
        return (m, p);
    }

    let spin_before = calib_spin_ms();
    // Phase A: no span sink. The benchmark's own spans, the cluster's
    // telemetry counters, /proc and the side loops.
    env.traced = true;
    let mut a = run_phase::<W>(env);
    // Phase B: the same rounds on a cluster recording into a span sink.
    let sink = Arc::new(SpanSink::with_capacity(8 << 20));
    env.sink = Some(Arc::clone(&sink));
    let b = run_phase::<W>(env);
    assert_eq!(
        sink.dropped(),
        0,
        "span sink overflowed; per-op counts would be wrong"
    );
    let disk = (env.workload == "gateway_disk").then_some(env.run_dir.as_path());
    let layers = layers::layer_loops(env.workload, env.seed, disk);
    let spin_after = calib_spin_ms();

    let ops = a.rec.completed() as f64;
    let count = |class| a.rec.samples_per_round(class).iter().sum::<usize>() as f64;
    let writes = count(Class::Write).max(1.0);
    let reads = (count(Class::Read) + count(Class::Range)).max(1.0);
    m.extend(layers);
    m.append(&mut a.extras);
    m.extend(spans::layer_metrics(
        &b.spans,
        b.rec.completed(),
        b.rec.total_ns(),
    ));
    let c = &a.counters;
    m.insert("provider.chunk_reads_per_op", c["provider.reads"] / reads);
    let lookups = c["provider.cache_hits"] + c["provider.cache_misses"];
    m.insert(
        "provider.cache_hit_ratio",
        c["provider.cache_hits"] / lookups.max(1.0),
    );
    m.insert("pmanager.allocs_per_write", c["pman.allocs"] / writes);
    m.insert("runtime.parks_per_op", c["runtime.parks"] / ops);
    m.insert("runtime.steals_per_op", c["runtime.steals"] / ops);
    for (metric, span) in [
        ("stream.open_us", "stream.open"),
        ("stream.feed_us", "stream.feed"),
        ("stream.commit_us", "stream.commit"),
        ("stream.next_us", "stream.next"),
        ("runtime.ctl_rtt_us", "client.snapshot"),
    ] {
        m.insert(metric, a.rec.span_p50_us(span));
    }
    m.insert("gateway.range_p50_ms", a.rec.p50_ms(Class::Range));
    m.insert(
        "gateway.head_list_p50_us",
        a.rec.p50_ms(Class::HeadList) * 1e3,
    );
    m.insert("proc.minflt_per_op", a.cpu.minflt as f64 / ops);
    m.insert("driver.cpu_sys_us_per_op", a.cpu.stime_us / ops);
    m.insert("driver.write_p99_ms", a.rec.p99_ms(Class::Write));
    m.insert("driver.read_p99_ms", a.rec.p99_ms(Class::Read));
    // Over the time the rounds ran, not the schedule they started on.
    m.insert(
        "driver.ops_per_s",
        ops / a.rec.round_wall_s().iter().sum::<f64>(),
    );
    m.insert("driver.calib_spin_ms", (spin_before + spin_after) / 2.0);
    let (untraced, traced) = (
        a.rec.p50_ms(Class::Write) + a.rec.p50_ms(Class::Read),
        b.rec.p50_ms(Class::Write) + b.rec.p50_ms(Class::Read),
    );
    m.insert(
        "driver.trace_overhead_pct",
        (traced / untraced - 1.0) * 100.0,
    );

    // One verdict over both phases.
    a.rec.attempted += b.rec.attempted;
    a.rec.failed += b.rec.failed;
    (m, a)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        aa: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--aa" => {
                args.aa = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--aa: {e}"))?,
                )
            }
            "--trace" => {
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: sads-benchmark --workload <{}> [--seed N] [--seconds S] [--trace [0|1]] | --aa N", gen::WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.aa {
        return aa::run(n, args.seconds);
    }
    let Some(workload) = gen::WORKLOADS
        .iter()
        .copied()
        .find(|w| Some(*w) == args.workload.as_deref())
    else {
        eprintln!("--workload must be one of {}", gen::WORKLOADS.join(", "));
        return ExitCode::from(2);
    };

    // One CPU for the driver thread and the executor's worker alike (see
    // README, "Noise controls"): set before any thread is spawned.
    match procfs::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to cpu {cpu}"),
        None => {
            println!("warning: could not pin to one cpu; latencies will depend on thread placement")
        }
    }
    let run_dir = RunDir::create();
    if workload == "gateway_disk" {
        match free_kib(&run_dir.0) {
            Some(kib) if kib < 4 << 20 => {
                eprintln!(
                    "refusing to start: {} has {} MiB free, 4096 needed",
                    run_dir.0.display(),
                    kib >> 10
                );
                return ExitCode::from(2);
            }
            Some(_) => {}
            None => eprintln!(
                "warning: could not ask df for free space under {}",
                run_dir.0.display()
            ),
        }
        println!(
            "backend root: {} (log written with write_all, never fsynced)",
            run_dir.0.display()
        );
    }
    let mut env = Env {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        rounds: if args.trace { TRACED_ROUNDS } else { ROUNDS },
        setups: if args.trace { 1 } else { SETUPS },
        traced: false,
        sink: None,
        run_dir: run_dir.0.clone(),
    };
    let (metrics, phase) = match workload {
        "seq_large" => run::<workloads::SeqLarge>(&mut env, args.trace),
        "small_meta" => run::<workloads::SmallMeta>(&mut env, args.trace),
        "mixed_rw" => run::<workloads::MixedRw>(&mut env, args.trace),
        _ => run::<workloads::GatewayDisk>(&mut env, args.trace),
    };
    drop(run_dir);

    println!(
        "workload {workload} seed {} seconds {} trace {} rounds {} cores {} inputs {:016x}",
        args.seed,
        args.seconds,
        args.trace as u8,
        env.rounds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        gen::ops_hash(&gen::round_ops(workload, args.seed, 1, args.seconds)),
    );
    println!(
        "measured rounds spanned {:.3} s, each took: {:.3?}",
        phase.wall_s,
        phase.rec.round_wall_s()
    );
    for (class, label) in [(Class::Write, "write"), (Class::Read, "read")] {
        println!(
            "samples per round, {label}: {:?}",
            phase.rec.samples_per_round(class)
        );
        println!(
            "p50 per round, {label} (ms): {:.4?}",
            phase.rec.round_p50s_ms(class)
        );
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    for &(name, unit) in table {
        let v = metrics
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        println!("{name:34} {v:>14.4} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = phase.rec.failed == 0;
    println!(
        "ops_attempted {} ops_failed {}",
        phase.rec.attempted, phase.rec.failed
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        phase.rec.attempted,
        phase.rec.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above must name the same metrics.
    #[test]
    fn benchmark_json_names_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
        for w in gen::WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks workload {w}"
            );
        }
    }
}
