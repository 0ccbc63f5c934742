//! E15 — the streaming data path: multi-GB objects written and read
//! through [`BlobWriteHandle`]/[`BlobReadHandle`] with bounded
//! per-connection memory.
//!
//! A whole-buffer PUT of a G-byte object necessarily holds G bytes
//! resident in the client; the streaming handles cap residency at
//! `chunk_window × page_size` regardless of object size. This experiment
//! streams an object far larger than that bound through the threaded
//! runtime — real threads, real bytes — and checks both halves of the
//! contract:
//!
//! * **throughput**: streamed write and read MB/s for the full object;
//! * **memory bound**: the `client.stream_buffered_bytes` high-water
//!   gauge (bytes accumulated + pages un-acked on the wire, sampled at
//!   every new peak) must stay ≤ `chunk_window.max(2) × page_size`.
//!
//! The feed buffer is one refcounted `Bytes` block re-sliced per feed
//! call, so the harness itself holds O(block) memory and stored provider
//! chunks are views into it — a multi-GB logical object costs the
//! process far less than its logical size, which is exactly the property
//! the streaming path exists to provide.
//!
//! Output: `results/e15_stream.csv` (one row per configuration).
//! `--smoke` streams a smaller object and gates CI on the memory bound
//! plus a readback spot check.
//!
//! [`BlobWriteHandle`]: sads_blob::BlobWriteHandle
//! [`BlobReadHandle`]: sads_blob::BlobReadHandle

use std::time::Instant;

use bytes::Bytes;
use sads_bench::{print_table, row, write_artifact, BenchArgs};
use sads_blob::model::BlobSpec;
use sads_blob::runtime::threaded::ClusterBuilder;
use sads_blob::{ClientConfig, ClientId, WriteKind};

const MIB: u64 = 1 << 20;
const PAGE: u64 = MIB;
/// One refcounted feed block, re-sliced per feed call.
const BLOCK: u64 = 8 * MIB;

struct Outcome {
    object_gib: f64,
    window: usize,
    write_mbps: f64,
    read_mbps: f64,
    peak_buffered: u64,
    bound: u64,
}

/// Stream one `total`-byte object out and back through a fresh cluster,
/// returning throughput and the observed buffering high-water mark.
fn stream_run(total: u64, window: usize) -> Outcome {
    let mut cluster = ClusterBuilder::new()
        .data_providers(8)
        .meta_providers(2)
        .provider_capacity(64 << 30)
        .client_config(ClientConfig { chunk_window: window, ..ClientConfig::default() })
        .start();
    let client = cluster.client(ClientId(15_000));
    let blob = client.create(BlobSpec { page_size: PAGE, replication: 1 }).unwrap();

    // A deterministic pattern block: byte i of the object is
    // `(i / MIB) as u8 ^ (i as u8)` — cheap to spot-check at any offset.
    let block = Bytes::from(
        (0..BLOCK).map(|i| ((i / MIB) as u8) ^ (i as u8)).collect::<Vec<u8>>(),
    );

    let start = Instant::now();
    let mut h = client.open_write_stream(blob, WriteKind::At(0), total, None).unwrap();
    let mut at = 0u64;
    while at < total {
        let take = BLOCK.min(total - at);
        h.feed(block.slice(0..take as usize)).unwrap();
        at += take;
    }
    let (version, _) = h.commit().unwrap();
    let write_mbps = total as f64 / 1e6 / start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut r = client.open_read_stream(blob, Some(version), 0, total, None).unwrap();
    let mut got = 0u64;
    while let Some(chunk) = r.next().unwrap() {
        // Spot-check the first byte of every delivered batch against the
        // repeating pattern (without touching every byte, which would
        // turn the measurement into a memcmp benchmark).
        let expect = (((got % BLOCK) / MIB) as u8) ^ (got as u8);
        assert_eq!(chunk[0], expect, "corrupt byte at offset {got}");
        got += chunk.len() as u64;
    }
    assert_eq!(got, total, "short streamed read");
    let read_mbps = total as f64 / 1e6 / start.elapsed().as_secs_f64();

    let peak_buffered = cluster
        .metrics()
        .series("client.stream_buffered_bytes")
        .iter()
        .fold(0f64, |acc, s| acc.max(s.value)) as u64;
    cluster.shutdown();
    Outcome {
        object_gib: total as f64 / (1 << 30) as f64,
        window,
        write_mbps,
        read_mbps,
        peak_buffered,
        bound: (window as u64).max(2) * PAGE,
    }
}

fn main() {
    let args = BenchArgs::parse();
    println!("E15: streaming data path (threaded runtime, real bytes)\n");

    // Smoke: one 256 MiB object, still 4× the default 32 MiB bound.
    // Full: a 4 GiB object across a window sweep — the bound must track
    // the knob, and the sweep exposes the glibc mmap-threshold cliff at
    // window × page ≥ 32 MiB (see EXPERIMENTS.md E15).
    let configs: &[(u64, usize)] = if args.smoke {
        &[(256 * MIB, 32)]
    } else {
        &[(4096 * MIB, 32), (4096 * MIB, 16), (4096 * MIB, 8)]
    };

    let mut rows = vec![row![
        "object_GiB",
        "window",
        "write_MBps",
        "read_MBps",
        "peak_buffered_MiB",
        "bound_MiB"
    ]];
    let mut csv = String::from(
        "object_gib,chunk_window,page_bytes,write_mbps,read_mbps,peak_buffered_bytes,bound_bytes\n",
    );
    let mut failed = false;
    for &(total, window) in configs {
        let o = stream_run(total, window);
        rows.push(row![
            format!("{:.2}", o.object_gib),
            o.window,
            format!("{:.0}", o.write_mbps),
            format!("{:.0}", o.read_mbps),
            format!("{:.1}", o.peak_buffered as f64 / MIB as f64),
            format!("{}", o.bound / MIB)
        ]);
        csv.push_str(&format!(
            "{:.3},{},{},{:.1},{:.1},{},{}\n",
            o.object_gib, o.window, PAGE, o.write_mbps, o.read_mbps, o.peak_buffered, o.bound
        ));
        if o.peak_buffered == 0 || o.peak_buffered > o.bound {
            eprintln!(
                "FAIL: peak buffered {} bytes outside (0, {}] at window {}",
                o.peak_buffered, o.bound, o.window
            );
            failed = true;
        }
    }
    print_table(&rows);
    // Smoke runs write a separate artifact so CI can't clobber the
    // checked-in full-sweep curves (same convention as exp_perf).
    write_artifact(if args.smoke { "e15_stream_smoke.csv" } else { "e15_stream.csv" }, &csv);
    if failed {
        std::process::exit(1);
    }
    println!("\nmemory bound held: peak buffered <= chunk_window x page_size in every run");
}
