//! E7 — paper §V, self-configuration: the elastic provider pool under a burst.
//! The scenario and its claims are `sads_bench::e7`; the bin exits 1 when a claim fails.

fn main() {
    sads_bench::e7::run(&sads_bench::BenchArgs::parse()).finish();
}
