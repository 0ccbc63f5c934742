//! E9 — fault tolerance: availability and p99 latency vs provider crash rate.
//! The scenario and its claims are `sads_bench::e9`; the bin exits 1 when a claim fails.

fn main() {
    sads_bench::e9::run(&sads_bench::BenchArgs::parse()).finish();
}
