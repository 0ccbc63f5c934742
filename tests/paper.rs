//! The simulated paper experiments' claims, asserted. Each test runs the
//! same scenario as its `exp_*` bin, at the bin's full size, checks the
//! claims the bin checks, and compares every CSV it renders with the one
//! checked in under `results/`, byte for byte. E3 and E4 (about 35 s and
//! 20 s in a debug build) are checked at full size by their bins, which
//! CI runs.

use sads_bench::{e1, e2, e7, e8, e9, BenchArgs, Report};

fn assert_paper(r: Report) {
    let failed: Vec<&str> = r.claims.iter().filter(|c| !c.holds).map(|c| c.what.as_str()).collect();
    assert!(failed.is_empty(), "paper claims failed:\n{}\n{}", failed.join("\n"), r.text);
    for (name, csv) in r.artifacts {
        let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
        let kept = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(csv == kept, "{name} differs from the checked-in file; rendered:\n{csv}");
    }
}

#[test]
fn e1_monitoring_leaves_throughput_unchanged() {
    assert_paper(e1::run(&BenchArgs::default()));
}

#[test]
fn e2_dos_drops_throughput_and_blocking_restores_it() {
    assert_paper(e2::run(&BenchArgs::default()));
}

#[test]
fn e7_pool_expands_under_load_and_contracts_to_its_floor() {
    assert_paper(e7::run(&BenchArgs::default()));
}

#[test]
fn e8_repair_restores_every_replica_and_removal_keeps_the_last_two() {
    assert_paper(e8::run(&BenchArgs::default()));
}

#[test]
fn e9_crashes_every_30_s_or_rarer_are_masked() {
    assert_paper(e9::run(&BenchArgs::default()));
}
