//! E12 — the concurrency wall: throughput/latency-vs-clients scaling
//! curves for both runtimes.
//!
//! 1. **Threaded runtime** — 32–256 concurrent real clients against an
//!    8-provider cluster on the sharded work-stealing executor: aggregate
//!    write/read MB/s plus per-op p50/p99 latency. Before the executor,
//!    thread-per-service collapsed past ~16 clients; the curve here must
//!    stay flat-to-rising through 256.
//! 2. **Simulated runtime** — open-loop cloud populations: `N` simulated
//!    clients (10^3–10^5, ×10 with `--scale 10`) arrive by a Poisson
//!    process and read zipf-popular BLOBs through a monitored deployment.
//!    Reports completed ops, wall time, and the DES event rate — the
//!    CloudSim-class "can the testbed model 10^5–10^6 clients in minutes"
//!    check.
//!
//! Artifacts: `results/e12_scale.csv`, `results/BENCH_scale.json`, and the
//! same summary merged under the `"scale"` key of the repo-root
//! `BENCH_perf.json`.
//!
//! `--smoke` runs tiny sweeps of both runtimes, writes only
//! `results/BENCH_scale_smoke.json` (the full-run artifacts and the
//! checked-in `BENCH_perf.json` are left alone), and fails the process if
//! any client is left incomplete (deadlock/livelock canary) or completion
//! does not grow monotonically with the population.

use std::time::Instant;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sads_bench::{print_table, row, write_artifact, BenchArgs};
use sads_blob::model::{BlobId, BlobSpec};
use sads_blob::runtime::threaded::ClusterBuilder;
use sads_blob::ClientId;
use sads_core::{Deployment, DeploymentConfig};
use sads_sim::{percentile, SimDuration, World};
use sads_workloads::{open_loop_read_script, poisson_arrivals, ZipfSampler};

const MB: u64 = 1_000_000;
const PAGE: u64 = 256 * 1024;
const OP_SIZE: u64 = 4 * 1024 * 1024;

/// Hot-object population the simulated readers sample from.
const HOT_BLOBS: usize = 64;
/// Zipf exponent for object popularity (classic object-store skew).
const ZIPF_S: f64 = 1.0;
/// Minimum open-loop arrival window (simulated seconds).
const ARRIVAL_WINDOW_S: f64 = 20.0;
/// Aggregate arrival-rate ceiling (reads/simulated-second). The zipf head
/// concentrates ~21% of traffic on the hottest BLOB; with 3 replicas this
/// cap keeps its per-replica demand under the 125 MB/s modeled NIC, so
/// the sweep measures engine scale, not a deliberately saturated hotspot.
const MAX_ARRIVAL_RATE: f64 = 2_500.0;
/// Replicas per hot BLOB — the hot set is read-shared, so the replica
/// walk spreads the zipf head across providers.
const HOT_REPLICATION: u32 = 3;

/// One threaded scaling point: `clients` concurrent handles, each
/// appending then reading 4 MiB ops against its own blob. Returns
/// aggregate MB/s and pooled per-op latency percentiles (ms).
struct ThreadedPoint {
    clients: usize,
    write_mbps: f64,
    read_mbps: f64,
    write_p50_ms: f64,
    write_p99_ms: f64,
    read_p50_ms: f64,
    read_p99_ms: f64,
}

/// Write ops per client for one scaling point: hold total bytes constant
/// so the measured window stays in steady state at every client count —
/// writes are fast enough that a fixed per-client count would shrink the
/// high-count windows to the same order as the thundering-herd barrier
/// release (see `exp_perf` for the same reasoning). Reads are ~15× slower
/// per byte, so a fixed count already gives long windows.
fn write_ops_for(clients: usize, floor_total: u64, per_client: u64) -> u64 {
    per_client.max(floor_total / clients as u64)
}

/// Drive one wave of the same op on every client (submit all, then wait
/// all) and record each op's submit-to-known-complete latency (seconds).
/// Waits resolve in submission order, so an op that finished while an
/// earlier one was still running is charged until its wait returns — the
/// closed-loop "time until the client knows" semantic.
fn wave<F: Fn(usize) -> sads_blob::runtime::threaded::OpTicket>(
    clients: usize,
    lat: &mut Vec<f64>,
    submit: F,
) {
    let tickets: Vec<_> = (0..clients).map(submit).collect();
    for t in tickets {
        let (out, elapsed) = t.wait_timed();
        lat.push(elapsed.as_secs_f64());
        out.expect("op");
    }
}

fn threaded_run(clients: usize, write_ops: u64, read_ops: u64) -> ThreadedPoint {
    let mut cluster = ClusterBuilder::new()
        .data_providers(8)
        .meta_providers(2)
        .provider_capacity(64 << 30)
        .start();
    let handles: Vec<_> =
        (0..clients).map(|i| cluster.client(ClientId(100 + i as u64))).collect();
    let write_bytes = (clients as u64 * write_ops * OP_SIZE) as f64;
    let read_bytes = (clients as u64 * read_ops * OP_SIZE) as f64;

    // Each client appends into its own blob, one op in flight per client
    // (closed loop), submitted in waves through the non-blocking client
    // API — the executor multiplexes the protocol work, so the sweep
    // measures the runtime rather than the kernel scheduling one OS
    // thread per client. The payload buffer is shared per client so
    // stored chunks are refcounted views and memory stays bounded at 256
    // clients.
    let blobs: Vec<_> = handles
        .iter()
        .map(|h| h.create(BlobSpec { page_size: PAGE, replication: 1 }).expect("create"))
        .collect();
    let bodies: Vec<_> =
        (0..clients).map(|t| Bytes::from(vec![t as u8; OP_SIZE as usize])).collect();
    let mut w = Vec::with_capacity((write_ops as usize) * clients);
    let mut r = Vec::with_capacity((read_ops as usize) * clients);

    let start = Instant::now();
    for _ in 0..write_ops {
        wave(clients, &mut w, |i| handles[i].submit_append(blobs[i], bodies[i].clone()));
    }
    let write_mbps = write_bytes / 1e6 / start.elapsed().as_secs_f64();

    let start = Instant::now();
    for k in 0..read_ops {
        wave(clients, &mut r, |i| {
            handles[i].submit_read(blobs[i], None, k * OP_SIZE, OP_SIZE)
        });
    }
    let read_mbps = read_bytes / 1e6 / start.elapsed().as_secs_f64();
    cluster.shutdown();

    w.sort_by(f64::total_cmp);
    r.sort_by(f64::total_cmp);
    ThreadedPoint {
        clients,
        write_mbps,
        read_mbps,
        write_p50_ms: percentile(&w, 50.0).unwrap_or(0.0) * 1e3,
        write_p99_ms: percentile(&w, 99.0).unwrap_or(0.0) * 1e3,
        read_p50_ms: percentile(&r, 50.0).unwrap_or(0.0) * 1e3,
        read_p99_ms: percentile(&r, 99.0).unwrap_or(0.0) * 1e3,
    }
}

/// One simulated scaling point: `n` open-loop readers arriving by a
/// Poisson process over [`ARRIVAL_WINDOW_S`], each reading one
/// zipf-sampled hot BLOB.
struct SimPoint {
    clients: usize,
    ops_ok: u64,
    ops_err: u64,
    wall_s: f64,
    events: u64,
    events_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn sim_run(seed: u64, n: usize, providers: usize) -> SimPoint {
    let wall0 = Instant::now();
    let cfg = DeploymentConfig {
        data_providers: providers,
        meta_providers: 4,
        ..DeploymentConfig::default()
    };
    let mut d = Deployment::build(World::with_seed(seed), cfg);

    // Seed the hot set: one writer publishes HOT_BLOBS single-page BLOBs.
    let spec = BlobSpec { page_size: PAGE, replication: HOT_REPLICATION };
    let mut seed_script = Vec::with_capacity(HOT_BLOBS * 2);
    for b in 0..HOT_BLOBS {
        seed_script.push(sads_blob::runtime::sim::ScriptStep::Create(spec));
        seed_script.push(sads_blob::runtime::sim::ScriptStep::Write {
            blob: sads_blob::runtime::sim::BlobRef::Created(b),
            kind: sads_blob::WriteKind::Append,
            bytes: PAGE,
        });
    }
    d.add_client(ClientId(1), seed_script, "seeder");
    d.world.run_for(SimDuration::from_secs(5), 10_000_000);
    assert_eq!(
        d.world.metrics().counter("seeder.ops_err"),
        0,
        "hot-set seeding must succeed"
    );
    let seed_end = d.world.now();

    // Open-loop population: arrivals are drawn up front (generation-time
    // RNG, deterministic per seed) and never wait on each other.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ca1e);
    let zipf = ZipfSampler::new(HOT_BLOBS, ZIPF_S);
    let window_s = ARRIVAL_WINDOW_S.max(n as f64 / MAX_ARRIVAL_RATE);
    let rate = n as f64 / window_s;
    let start_at = d.world.now() + SimDuration::from_secs(1);
    let arrivals = poisson_arrivals(&mut rng, rate, start_at, n);
    for (i, &arrival) in arrivals.iter().enumerate() {
        // Seeder-created BLOBs get ids 1..=HOT_BLOBS in creation order.
        let blob = BlobId(1 + zipf.sample(&mut rng) as u64);
        d.add_client(
            ClientId(1000 + i as u64),
            open_loop_read_script(arrival, blob, PAGE, 1),
            "scale",
        );
    }
    let deadline = *arrivals.last().expect("n > 0") + SimDuration::from_secs(120);
    d.world.run_until(deadline, 4_000_000_000);

    let m = d.world.metrics();
    // `op_seconds` is shared across scripted clients; seeder writes all
    // land before `seed_end`, so time-filtering leaves only reader ops.
    let mut lat: Vec<f64> = m
        .series("op_seconds")
        .iter()
        .filter(|s| s.at > seed_end)
        .map(|s| s.value)
        .collect();
    lat.sort_by(f64::total_cmp);
    let wall_s = wall0.elapsed().as_secs_f64();
    let events = d.world.events_processed();
    SimPoint {
        clients: n,
        ops_ok: m.counter("scale.ops_ok"),
        ops_err: m.counter("scale.ops_err"),
        wall_s,
        events,
        events_per_sec: events as f64 / wall_s,
        p50_ms: percentile(&lat, 50.0).unwrap_or(0.0) * 1e3,
        p99_ms: percentile(&lat, 99.0).unwrap_or(0.0) * 1e3,
    }
}

/// Merge the scale summary into the repo-root `BENCH_perf.json` under a
/// `"scale"` key (replacing any previous one), so the scaling curve and
/// the hot-path numbers live in one artifact.
fn merge_into_perf(scale_json: &str) {
    let Ok(cur) = std::fs::read_to_string("BENCH_perf.json") else {
        println!("no BENCH_perf.json at repo root; skipping merge");
        return;
    };
    let base = match cur.find(",\n  \"scale\":") {
        Some(i) => cur[..i].to_string(),
        None => {
            let t = cur.trim_end();
            let t = t.strip_suffix('}').unwrap_or(t);
            t.trim_end().trim_end_matches(',').to_string()
        }
    };
    let merged = format!("{base},\n  \"scale\": {scale_json}\n}}\n");
    std::fs::write("BENCH_perf.json", merged).expect("write BENCH_perf.json");
    println!("  -> merged scale summary into BENCH_perf.json");
}

fn scale_json(threaded: &[ThreadedPoint], sim: &[SimPoint]) -> String {
    let mut s = String::from("{\n    \"threaded\": [");
    for (i, p) in threaded.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n      {{\"clients\": {}, \"write_mbps\": {:.1}, \"read_mbps\": {:.1}, \
             \"write_p50_ms\": {:.3}, \"write_p99_ms\": {:.3}, \
             \"read_p50_ms\": {:.3}, \"read_p99_ms\": {:.3}}}",
            p.clients, p.write_mbps, p.read_mbps, p.write_p50_ms, p.write_p99_ms,
            p.read_p50_ms, p.read_p99_ms
        ));
    }
    s.push_str("\n    ],\n    \"sim\": [");
    for (i, p) in sim.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n      {{\"clients\": {}, \"ops_ok\": {}, \"wall_s\": {:.2}, \
             \"events\": {}, \"events_per_sec\": {:.0}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}",
            p.clients, p.ops_ok, p.wall_s, p.events, p.events_per_sec, p.p50_ms, p.p99_ms
        ));
    }
    s.push_str("\n    ]\n  }");
    s
}

fn run(
    threaded_points: &[usize],
    write_ops_floor: u64,
    read_ops: u64,
    sim_points: &[usize],
    seed: u64,
    smoke: bool,
) -> bool {
    println!(
        "threaded runtime: {threaded_points:?} clients, {read_ops} x 4 MiB reads each, \
         >= {write_ops_floor} x 4 MiB writes per point\n"
    );
    // Interleaved rounds (same rationale as exp_perf's threaded_sweep):
    // shared-tenant slow phases cost every point one sample instead of
    // all samples of one point, and rounds rotate their starting point so
    // a periodic host phase cannot alias onto one fixed sweep position.
    // Round 0 warms up and is discarded; the reported point is the
    // fieldwise **best** of the remaining rounds (max throughput, min
    // latency) — the hypervisor steals CPU without surfacing guest steal
    // time, longer runs oversample those invisible freezes, and the best
    // round is the least-perturbed observation of each configuration
    // (same policy as `exp_perf` and the checked-in baseline).
    let rounds = if read_ops >= 8 { 5 } else { 1 };
    let warmup = usize::from(rounds > 1);
    let mut samples: Vec<Vec<ThreadedPoint>> =
        (0..threaded_points.len()).map(|_| Vec::new()).collect();
    for round in 0..rounds + warmup {
        for k in 0..threaded_points.len() {
            let i = (k + round) % threaded_points.len();
            let clients = threaded_points[i];
            let p =
                threaded_run(clients, write_ops_for(clients, write_ops_floor, read_ops), read_ops);
            if round >= warmup {
                samples[i].push(p);
            }
        }
    }
    let best_hi =
        |xs: Vec<f64>| -> f64 { xs.into_iter().fold(f64::NEG_INFINITY, f64::max) };
    let best_lo = |xs: Vec<f64>| -> f64 { xs.into_iter().fold(f64::INFINITY, f64::min) };

    let mut threaded = Vec::new();
    let mut rows = vec![row![
        "clients",
        "write_MBps",
        "read_MBps",
        "w_p50_ms",
        "w_p99_ms",
        "r_p50_ms",
        "r_p99_ms"
    ]];
    for (i, &clients) in threaded_points.iter().enumerate() {
        let pts = &samples[i];
        let p = ThreadedPoint {
            clients,
            write_mbps: best_hi(pts.iter().map(|p| p.write_mbps).collect()),
            read_mbps: best_hi(pts.iter().map(|p| p.read_mbps).collect()),
            write_p50_ms: best_lo(pts.iter().map(|p| p.write_p50_ms).collect()),
            write_p99_ms: best_lo(pts.iter().map(|p| p.write_p99_ms).collect()),
            read_p50_ms: best_lo(pts.iter().map(|p| p.read_p50_ms).collect()),
            read_p99_ms: best_lo(pts.iter().map(|p| p.read_p99_ms).collect()),
        };
        rows.push(row![
            p.clients,
            format!("{:.0}", p.write_mbps),
            format!("{:.0}", p.read_mbps),
            format!("{:.2}", p.write_p50_ms),
            format!("{:.2}", p.write_p99_ms),
            format!("{:.2}", p.read_p50_ms),
            format!("{:.2}", p.read_p99_ms)
        ]);
        threaded.push(p);
    }
    print_table(&rows);

    println!("\nsimulated runtime: open-loop zipf readers, {sim_points:?} clients\n");
    let mut sim = Vec::new();
    let mut rows = vec![row![
        "clients",
        "ops_ok",
        "wall_s",
        "events",
        "Mevents_per_s",
        "p50_ms",
        "p99_ms"
    ]];
    for &n in sim_points {
        let providers = if n >= 100_000 { 32 } else { 16 };
        let p = sim_run(seed, n, providers);
        rows.push(row![
            p.clients,
            p.ops_ok,
            format!("{:.2}", p.wall_s),
            p.events,
            format!("{:.2}", p.events_per_sec / 1e6),
            format!("{:.3}", p.p50_ms),
            format!("{:.3}", p.p99_ms)
        ]);
        sim.push(p);
    }
    print_table(&rows);

    // Completion gates: every open-loop client finished (no deadlock /
    // livelock / starvation under load), monotone with population.
    let mut ok = true;
    for p in &sim {
        if p.ops_ok != p.clients as u64 || p.ops_err != 0 {
            eprintln!(
                "FAIL: {} clients -> {} ok / {} err (incomplete population)",
                p.clients, p.ops_ok, p.ops_err
            );
            ok = false;
        }
    }
    for w in sim.windows(2) {
        if w[1].ops_ok < w[0].ops_ok {
            eprintln!(
                "FAIL: completion not monotone ({} -> {})",
                w[0].ops_ok, w[1].ops_ok
            );
            ok = false;
        }
    }

    // Artifacts. A smoke run must not clobber the checked-in full-run
    // curves, so it writes its own JSON and skips the CSV and the
    // BENCH_perf.json merge.
    if smoke {
        let sj = scale_json(&threaded, &sim);
        write_artifact("BENCH_scale_smoke.json", &format!("{sj}\n"));
        return ok;
    }
    let mut csv = String::from(
        "runtime,clients,write_mbps,read_mbps,write_p50_ms,write_p99_ms,read_p50_ms,read_p99_ms,ops_ok,wall_s,events,events_per_sec,p50_ms,p99_ms\n",
    );
    for p in &threaded {
        csv.push_str(&format!(
            "threaded,{},{:.1},{:.1},{:.3},{:.3},{:.3},{:.3},,,,,,\n",
            p.clients, p.write_mbps, p.read_mbps, p.write_p50_ms, p.write_p99_ms,
            p.read_p50_ms, p.read_p99_ms
        ));
    }
    for p in &sim {
        csv.push_str(&format!(
            "sim,{},,,,,,,{},{:.2},{},{:.0},{:.3},{:.3}\n",
            p.clients, p.ops_ok, p.wall_s, p.events, p.events_per_sec, p.p50_ms, p.p99_ms
        ));
    }
    write_artifact("e12_scale.csv", &csv);
    let sj = scale_json(&threaded, &sim);
    write_artifact("BENCH_scale.json", &format!("{sj}\n"));
    merge_into_perf(&sj);
    ok
}

fn main() {
    let args = BenchArgs::parse();
    let seed = args.seed_or(12_012);
    let ok = if args.smoke {
        println!("scale --smoke: tiny sweeps, completion + no-deadlock gates\n");
        run(&[4, 8], 32, 4, &[200, 400], seed, true)
    } else {
        println!("scale: E12 concurrency-wall curves (threaded + simulated)\n");
        let sim_points: Vec<usize> =
            [1_000usize, 10_000, 100_000].iter().map(|&n| args.scaled(n)).collect();
        run(&[32, 64, 128, 256], 8_192, 8, &sim_points, seed, false)
    };
    if !ok {
        std::process::exit(1);
    }
    println!("\nscale gates passed (all populations completed, monotone)");
    let _ = MB; // keep the shared constant convention visible
}
