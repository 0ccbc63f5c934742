//! E1 — paper §IV-B: introspection intrusiveness, monitoring off vs on.
//! The scenario and its claims are `sads_bench::e1`; the bin exits 1 when a claim fails.

fn main() {
    sads_bench::e1::run(&sads_bench::BenchArgs::parse()).finish();
}
