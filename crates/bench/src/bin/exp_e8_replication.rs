//! E8 — paper §V, self-optimization: replication repair and data removal.
//! The scenario and its claims are `sads_bench::e8`; the bin exits 1 when a claim fails.

fn main() {
    sads_bench::e8::run(&sads_bench::BenchArgs::parse()).finish();
}
