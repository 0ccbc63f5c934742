//! # sads-bench — experiment harness
//!
//! One binary per paper result (see `src/bin/exp_*.rs` and the experiment
//! index in `DESIGN.md`), plus criterion micro-benchmarks
//! (`benches/micro.rs`). Each experiment prints the same rows/series the
//! paper reports and drops CSVs under `results/`.
//!
//! The simulated paper experiments (E1–E4, E7–E9) live here, one module
//! each: `run` builds the deployment, drives its workload and returns a
//! [`Report`] of its tables, its CSVs and the paper's stated outcome as
//! [`Claim`]s on that run. The bin prints and writes the report and exits
//! non-zero when a claim fails ([`Report::finish`]); the root package's
//! `tests/paper.rs` asserts the same claims.

#![warn(missing_docs)]

use std::io::Write;
use std::path::PathBuf;

pub mod e1;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e7;
pub mod e8;
pub mod e9;

/// Command-line arguments every `exp_*` binary accepts, so whole
/// experiment sweeps can be re-seeded or resized without editing code:
///
/// * `--seed N` (or `--seed=N`) — override the experiment's base RNG
///   seed; derived seeds offset from it as the binary always did.
/// * `--scale X` (or `--scale=X`) — multiply cluster/workload sizes by
///   `X` (e.g. `0.5` for a half-size smoke run, `4` for a bigger sweep).
/// * `--smoke` — request the binary's tiny CI configuration.
///
/// Unknown arguments are ignored so binaries stay forward-compatible
/// with runner scripts that pass extra flags.
#[derive(Debug, Clone, Copy)]
pub struct BenchArgs {
    /// Seed override, if given.
    pub seed: Option<u64>,
    /// Size multiplier (1.0 when absent).
    pub scale: f64,
    /// Tiny-configuration flag for CI smoke runs.
    pub smoke: bool,
}

impl BenchArgs {
    /// Parse from the process arguments.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse from any iterator of argument strings (testable).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if let Some(v) = a.strip_prefix("--seed=") {
                out.seed = v.parse().ok();
            } else if a == "--seed" {
                out.seed = it.next().and_then(|v| v.parse().ok());
            } else if let Some(v) = a.strip_prefix("--scale=") {
                out.scale = v.parse().unwrap_or(1.0);
            } else if a == "--scale" {
                out.scale = it.next().and_then(|v| v.parse().ok()).unwrap_or(1.0);
            } else if a == "--smoke" {
                out.smoke = true;
            }
        }
        out
    }

    /// The seed to use: the override, or the experiment's default.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// Scale a size/count, never below 1.
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(1)
    }
}

impl Default for BenchArgs {
    /// The experiment as the paper runs it: default seed, full size.
    fn default() -> Self {
        BenchArgs { seed: None, scale: 1.0, smoke: false }
    }
}

/// Directory experiment CSVs are written to (`results/`, created on
/// demand).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a CSV artifact and report its path.
pub fn write_artifact(name: &str, content: &str) {
    let path = out_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("create artifact");
    f.write_all(content.as_bytes()).expect("write artifact");
    println!("  -> wrote {}", path.display());
}

/// Render rows as an aligned table (first row = header).
pub fn print_table(rows: &[Vec<String>]) {
    print!("{}", sads_introspect::viz::table(rows));
}

/// Shorthand for building a row of strings.
#[macro_export]
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        vec![$(format!("{}", $cell)),*]
    };
}

/// Mean of the values of a metric series restricted to a time window.
pub fn window_mean(metrics: &sads_sim::Metrics, name: &str, from_s: f64, to_s: f64) -> Option<f64> {
    let vals: Vec<f64> = metrics
        .series(name)
        .iter()
        .filter(|x| x.at.as_secs_f64() >= from_s && x.at.as_secs_f64() < to_s)
        .map(|x| x.value)
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// One stated outcome of a paper experiment, checked on a run.
#[derive(Debug)]
pub struct Claim {
    /// Did the run show it?
    pub holds: bool,
    /// The claim, with the run's numbers.
    pub what: String,
}

/// A finished run of a paper experiment.
pub struct Report {
    /// Its tables and notes, as the bin prints them.
    pub text: String,
    /// Its CSV artifacts, by file name under `results/`.
    pub artifacts: Vec<(&'static str, String)>,
    /// The paper's stated outcome as checks on this run.
    pub claims: Vec<Claim>,
}

impl Report {
    /// A bin's whole output: print the run, write its CSVs, print each
    /// claim and exit with status 1 if one fails.
    pub fn finish(self) {
        print!("{}", self.text);
        for (name, csv) in &self.artifacts {
            write_artifact(name, csv);
        }
        println!();
        for c in &self.claims {
            println!("claim {}: {}", if c.holds { "holds" } else { "FAILS" }, c.what);
        }
        if self.claims.iter().any(|c| !c.holds) {
            std::process::exit(1);
        }
    }
}

/// Shared DoS scenario builder used by experiments E2, E3 and E4
/// (paper §IV-C).
pub mod dos {
    use sads_blob::model::{BlobId, BlobSpec, ChunkKey, ClientId, VersionId};
    use sads_blob::runtime::sim::{BlobRef, ScriptStep};
    use sads_blob::WriteKind;
    use sads_core::{Deployment, DeploymentConfig};
    use sads_security::{PolicySet, SecurityConfig};
    use sads_sim::{NodeConfig, SimDuration, SimTime, SpanSink, World};
    use std::sync::Arc;
    use sads_workloads::{staggered, writer_script, AttackConfig, AttackMode, DosAttacker};

    /// Decimal megabyte.
    pub const MB: u64 = 1_000_000;
    /// BLOB page size used throughout the DoS experiments (8 MB).
    pub const PAGE: u64 = 8 * MB;
    /// When the attack begins.
    pub const ATTACK_START_S: u64 = 30;

    /// The DoS policy the experiments deploy, in the policy language.
    pub fn policy_source() -> &'static str {
        "policy dos_read_flood {\n  when rate(reads, window = 10s) > 30\n  then block for 300s severity high\n}"
    }

    /// Scenario parameters.
    pub struct DosScenario {
        /// RNG seed.
        pub seed: u64,
        /// Data providers (the paper's 70-node deployments).
        pub data_providers: usize,
        /// Correct writers.
        pub writers: usize,
        /// Malicious clients.
        pub attackers: usize,
        /// Deploy the security framework?
        pub security: bool,
        /// Stagger window for attacker start times (0 = simultaneous).
        pub stagger: SimDuration,
        /// Per-attacker request rate.
        pub attack_rate: f64,
        /// Bytes each correct writer streams.
        pub writer_bytes: u64,
        /// Bytes per write operation.
        pub op_bytes: u64,
        /// Enable causal request tracing (a span sink on the world).
        pub tracing: bool,
        /// Deploy the SLO burn-rate alert engine
        /// ([`DeploymentConfig::alerts`] with the default rules).
        pub alerts: bool,
        /// Deploy introspection plus the elasticity controller so
        /// queue-depth burn alerts can trigger scale-out.
        pub elasticity: bool,
    }

    impl Default for DosScenario {
        fn default() -> Self {
            DosScenario {
                seed: 7,
                data_providers: 16,
                writers: 8,
                attackers: 6,
                security: true,
                stagger: SimDuration::ZERO,
                attack_rate: 60.0,
                writer_bytes: 8_000 * MB,
                op_bytes: 64 * MB,
                tracing: false,
                alerts: false,
                elasticity: false,
            }
        }
    }

    /// Build the deployment: a seeder publishes a 256 MB public BLOB,
    /// writers stream appends from t = 10 s, attackers mount an
    /// amplified-read flood from t = 30 s (optionally staggered).
    pub fn build(s: &DosScenario) -> Deployment {
        let mut cfg = DeploymentConfig {
            data_providers: s.data_providers,
            meta_providers: 4,
            monitors: 2,
            storage_servers: 2,
            ..DeploymentConfig::default()
        };
        if s.alerts {
            cfg.alerts = Some(sads_core::default_alert_rules());
        }
        if s.elasticity {
            cfg.introspection = true;
            cfg.elasticity = Some(sads_adaptive::ElasticityPolicy::default());
        }
        if s.security {
            cfg.security = Some((
                PolicySet::parse(policy_source()).unwrap(),
                SecurityConfig { scan_every: SimDuration::from_secs(5), ..Default::default() },
            ));
        }
        let mut world = World::with_seed(s.seed);
        if s.tracing {
            world.set_span_sink(Arc::new(SpanSink::new()));
        }
        let mut d = Deployment::build(world, cfg);
        let spec = BlobSpec { page_size: PAGE, replication: 1 };
        d.add_client(
            ClientId(1),
            vec![
                ScriptStep::Create(spec),
                ScriptStep::Write {
                    blob: BlobRef::Created(0),
                    kind: WriteKind::Append,
                    bytes: 32 * PAGE,
                },
            ],
            "seeder",
        );
        for i in 0..s.writers as u64 {
            d.add_client(
                ClientId(10 + i),
                writer_script(spec, s.writer_bytes, s.op_bytes, SimTime(10_000_000_000)),
                "writer",
            );
        }
        let targets: Vec<(sads_sim::NodeId, ChunkKey)> = (0..32u64)
            .map(|p| {
                (
                    d.nodes.data[(p as usize) % d.nodes.data.len()],
                    ChunkKey { blob: BlobId(1), version: VersionId(1), page: p },
                )
            })
            .collect();
        let base = SimTime(ATTACK_START_S * 1_000_000_000);
        for i in 0..s.attackers {
            let start_at = staggered(base, s.stagger, i, s.attackers);
            d.world.add_node(
                Box::new(DosAttacker::new(
                    ClientId(100 + i as u64),
                    d.nodes.data.clone(),
                    AttackConfig {
                        start_at,
                        stop_at: SimTime(600_000_000_000),
                        mode: AttackMode::AmplifiedReads { targets: targets.clone() },
                        rate_per_sec: s.attack_rate,
                    },
                )),
                NodeConfig::default(),
            );
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::BenchArgs;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn bench_args_parse_both_forms() {
        let a = parse(&["--seed", "9", "--scale", "2"]);
        assert_eq!((a.seed, a.scale, a.smoke), (Some(9), 2.0, false));
        let a = parse(&["--seed=17", "--scale=0.5", "--smoke"]);
        assert_eq!((a.seed, a.scale, a.smoke), (Some(17), 0.5, true));
        let a = parse(&["--unknown", "x"]);
        assert_eq!((a.seed, a.scale, a.smoke), (None, 1.0, false));
    }

    #[test]
    fn bench_args_helpers() {
        let a = parse(&["--scale=0.1"]);
        assert_eq!(a.seed_or(42), 42);
        assert_eq!(a.scaled(4), 1, "scaling never drops below 1");
        assert_eq!(parse(&["--seed", "5"]).seed_or(42), 5);
        assert_eq!(parse(&["--scale", "2"]).scaled(8), 16);
    }
}
