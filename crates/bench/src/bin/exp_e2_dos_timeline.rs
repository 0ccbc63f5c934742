//! E2 — paper §IV-C bullet 1: write throughput over time under a DoS attack.
//! The scenario and its claims are `sads_bench::e2`; the bin exits 1 when a claim fails.

fn main() {
    sads_bench::e2::run(&sads_bench::BenchArgs::parse()).finish();
}
