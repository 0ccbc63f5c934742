//! E4 — paper §IV-C bullet 3: detection delay vs malicious fraction.
//! The scenario and its claims are `sads_bench::e4`; the bin exits 1 when a claim fails.

fn main() {
    sads_bench::e4::run(&sads_bench::BenchArgs::parse()).finish();
}
