//! E3 — paper §IV-C bullet 2: throughput vs client count, 50 % malicious.
//! The scenario and its claims are `sads_bench::e3`; the bin exits 1 when a claim fails.

fn main() {
    sads_bench::e3::run(&sads_bench::BenchArgs::parse()).finish();
}
