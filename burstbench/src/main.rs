//! Burst-absorption benchmark. One invocation runs one workload for one
//! seed and prints, as its last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
//! See README.md for the workloads, the metrics and how they relate.
//!
//! ```text
//! burstbench --workload absorb-50k --seed 1 --seconds 10 --trace 0 [--quick]
//! ```

mod checks;
mod direct;
mod inputs;
mod mirror;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use checks::Checks;

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("absorb_p50_ms", "ms"),
    ("absorb_tail_ms", "ms"),
    ("deltas_per_s", "1/s"),
    ("objective", "1"),
    ("mttc_ticks", "ticks"),
    ("peak_rss_mb", "MiB"),
    ("recover_s", "s"),
    ("journal_bytes_per_delta", "B"),
];

/// Per-layer metrics of the traced run: name and unit. A layer that is not
/// on a workload's path reports 0 there (README: layer table).
const PER_LAYER: [(&str, &str); 32] = [
    ("netmodel.clone_ms", "ms"),
    ("netmodel.apply_ms", "ms"),
    ("netmodel.touched_hosts", "count"),
    ("cache.edit_ms", "ms"),
    ("cache.reassembled", "count"),
    ("cache.cold_build_s", "s"),
    ("mrf.solve_span_ms", "ms"),
    ("mrf.refine_ms", "ms"),
    ("mrf.swept_vars", "count"),
    ("mrf.frontier_hosts", "count"),
    ("mrf.localized_share", "1"),
    ("mrf.cold_solve_s", "s"),
    ("engine.project_ms", "ms"),
    ("engine.energy_ms", "ms"),
    ("engine.decode_ms", "ms"),
    ("engine.validate_ms", "ms"),
    ("engine.outside_solve_ms", "ms"),
    ("shard.solve_ms", "ms"),
    ("shard.route_ms", "ms"),
    ("shard.coord_ms", "ms"),
    ("shard.rounds", "count"),
    ("shard.flips_per_round", "1"),
    ("shard.gap_pct", "%"),
    ("shard.cold_coord_s", "s"),
    ("journal.append_ms", "ms"),
    ("journal.snapshot_ms", "ms"),
    ("journal.bytes_per_batch", "B"),
    ("journal.replayed_batches", "count"),
    ("serve.absorb_ms", "ms"),
    ("serve.handoff_ms", "ms"),
    ("read.ns", "ns"),
    ("trace.absorb_p50_ms", "ms"),
];

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Run parameters shared by every workload.
pub struct Params {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Reduced sizes, every check still on: for the benchmark's own tests.
    pub quick: bool,
}

impl Params {
    /// Whole rounds of a workload: `per_second` rounds per second of
    /// `--seconds` (at least one), or `quick` rounds in quick mode.
    pub fn rounds(&self, per_second: f64, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            ((self.seconds as f64 * per_second).round() as usize).max(1)
        }
    }

    /// Set-ups per run: `full`, or one in quick mode.
    pub fn setups(&self, full: usize) -> usize {
        if self.quick {
            1
        } else {
            full
        }
    }
}

/// Scratch files of one run, under the working directory; removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".burstbench-work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".burstbench-work");
    }
}

const WORKLOADS: [&str; 3] = ["absorb-50k", "sharded-10k", "serve-journal-10k"];

fn usage() -> String {
    format!(
        "usage: burstbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> [--quick]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> std::result::Result<(String, Params), String> {
    let mut workload = None;
    let mut params = Params {
        seed: 1,
        seconds: 10,
        trace: false,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            params.quick = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => params.seed = number()?,
            "--seconds" => params.seconds = number()?,
            "--trace" => {
                params.trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, params))
}

fn main() -> ExitCode {
    let (workload, params) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "absorb-50k" => direct::absorb(&params),
        "sharded-10k" => direct::sharded(&params),
        _ => serve::serve_journal(&params),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let selected: &[(&str, &str)] = if params.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let metrics: Vec<String> = selected
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.passed(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if outcome.checks.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (non-finite values, which no metric should produce, become 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".into()
    }
}
