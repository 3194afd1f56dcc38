//! Output checks, computed apart from the program: the objective and the
//! candidate check are the benchmark's own loops over the network, not
//! calls into the engine.

use std::path::Path;
use std::time::Instant;

use ics_diversity::energy::EnergyParams;
use ics_diversity::{recover_with, DiversityEngine, RecoveryReport};
use mrf::trws::{Trws, TrwsOptions};
use netmodel::assignment::Assignment;
use netmodel::catalog::{Catalog, ProductSimilarity};
use netmodel::journal::{parse_record_line, Record};
use netmodel::network::Network;
use netmodel::strategies::{mono_assignment, random_assignment};
use netmodel::HostId;
use sim::mttc::{estimate_mttc, MttcOptions};
use sim::scenario::Scenario;

/// Relative tolerance between a reported and a recomputed objective.
const OBJECTIVE_TOLERANCE: f64 = 1e-6;

/// Collects failed checks; a run with any failure prints `correct: false`.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let message = what();
            eprintln!("check failed: {message}");
            self.failures.push(message);
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The reported objective equals the recomputed one.
    pub fn objective_matches(&mut self, what: &str, reported: f64, recomputed: f64) {
        let scale = recomputed.abs().max(1.0);
        self.require(
            (reported - recomputed).abs() <= OBJECTIVE_TOLERANCE * scale,
            || format!("{what}: reported objective {reported} != recomputed {recomputed}"),
        );
    }
}

/// Paper Eq. 1 energy of `assignment`, recomputed from scratch: the
/// similarity of the products each link's endpoints run for every service
/// they share, plus the preference cost of every slot with more than one
/// candidate. Also checks that every slot runs one of its candidates.
pub fn objective(
    checks: &mut Checks,
    network: &Network,
    similarity: &ProductSimilarity,
    assignment: &Assignment,
) -> f64 {
    let preference = EnergyParams::default().preference_cost;
    let mut total = 0.0;
    for (id, host) in network.iter_hosts() {
        let row = assignment.products_at(id);
        checks.require(row.len() == host.services().len(), || {
            format!(
                "host {id:?}: {} products for {} slots",
                row.len(),
                host.services().len()
            )
        });
        for (slot, inst) in host.services().iter().enumerate() {
            let Some(product) = row.get(slot) else {
                continue;
            };
            checks.require(inst.candidates().contains(product), || {
                format!("host {id:?} slot {slot}: {product:?} is not a candidate")
            });
            if inst.candidates().len() > 1 {
                total += preference;
            }
        }
    }
    for &(a, b) in network.links() {
        let (ha, hb) = (
            network.host(a).expect("linked host exists"),
            network.host(b).expect("linked host exists"),
        );
        for (slot_a, inst) in ha.services().iter().enumerate() {
            let Some(slot_b) = hb.service_slot(inst.service()) else {
                continue;
            };
            let (Some(&pa), Some(&pb)) = (
                assignment.products_at(a).get(slot_a),
                assignment.products_at(b).get(slot_b),
            ) else {
                continue;
            };
            total += similarity.get(pa, pb);
        }
    }
    total
}

/// The fixed MTTC scenarios: one per entry/target pair, the simulator's
/// default attacker, a fixed master seed.
pub struct MttcProbe {
    scenarios: Vec<Scenario>,
    options: MttcOptions,
}

impl MttcProbe {
    pub fn new(pairs: &[(HostId, HostId)], runs_per_pair: usize) -> MttcProbe {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        MttcProbe {
            scenarios: pairs.iter().map(|&(a, b)| Scenario::new(a, b)).collect(),
            options: MttcOptions {
                runs: runs_per_pair,
                threads: cores.min(2),
                ..MttcOptions::default()
            },
        }
    }

    /// Mean ticks to compromise over every run of every pair whose target
    /// the attacker can reach at all in `network` (see [`reachable`]; which
    /// pairs those are depends on the topology only, so two assignments of
    /// one network are compared over the same pairs). A run whose target
    /// was not reached counts at its scenario's tick budget (`max_ticks`,
    /// where the simulator stops it). `None` when no pair is reachable.
    /// `what` names the assignment in the notes on standard error.
    pub fn ticks(
        &self,
        what: &str,
        network: &Network,
        similarity: &ProductSimilarity,
        assignment: &Assignment,
    ) -> Option<f64> {
        let (mut total, mut runs, mut censored, mut cut) = (0.0, 0, 0, 0);
        for scenario in &self.scenarios {
            if !reachable(network, scenario.entry, scenario.target) {
                cut += 1;
                continue;
            }
            let estimate = estimate_mttc(network, assignment, similarity, scenario, &self.options);
            let missed = estimate.runs() - estimate.successes();
            total += estimate.mean_ticks().unwrap_or(0.0) * estimate.successes() as f64
                + f64::from(scenario.max_ticks) * missed as f64;
            runs += estimate.runs();
            censored += missed;
        }
        if cut + censored > 0 {
            eprintln!(
                "MTTC of the {what} assignment: {cut} of {} pairs cut off, \
                 {censored} of {runs} runs never reached their target",
                self.scenarios.len()
            );
        }
        (runs > 0).then(|| total / runs as f64)
    }
}

/// Whether a worm entering at `entry` can reach `target` at all: over a
/// path of links whose two ends share a service, the only links the
/// simulator lets it cross.
fn reachable(network: &Network, entry: HostId, target: HostId) -> bool {
    let mut seen = vec![false; network.host_count()];
    let mut stack = vec![entry];
    seen[entry.index()] = true;
    while let Some(u) = stack.pop() {
        if u == target {
            return true;
        }
        let Ok(from) = network.host(u) else {
            continue;
        };
        for &v in network.neighbors(u) {
            let Ok(to) = network.host(v) else {
                continue;
            };
            let shares = from
                .services()
                .iter()
                .any(|inst| to.service_slot(inst.service()).is_some());
            if shares && !seen[v.index()] {
                seen[v.index()] = true;
                stack.push(v);
            }
        }
    }
    false
}

/// A workload's final state, as its closing checks see it.
pub struct FinalState<'a> {
    pub network: &'a Network,
    pub catalog: &'a Catalog,
    pub similarity: &'a ProductSimilarity,
    pub assignment: &'a Assignment,
    pub reported_objective: f64,
}

impl FinalState<'_> {
    /// The checks every workload runs on its final state: objective and
    /// candidates (recomputed), better than a random assignment, within 5%
    /// of a fresh cold solve, and MTTC at least the monoculture's. Returns
    /// the final assignment's MTTC.
    pub fn check(&self, checks: &mut Checks, mttc: &MttcProbe) -> f64 {
        let recomputed = objective(checks, self.network, self.similarity, self.assignment);
        checks.objective_matches("final state", self.reported_objective, recomputed);

        let random = random_assignment(self.network, RANDOM_BASELINE_SEED);
        let random_objective = objective(
            &mut Checks::default(),
            self.network,
            self.similarity,
            &random,
        );
        checks.require(recomputed < random_objective, || {
            format!("final objective {recomputed} is not below a random assignment's {random_objective}")
        });

        let cold = DiversityEngine::new(
            self.network.clone(),
            self.catalog.clone(),
            self.similarity.clone(),
        )
        .with_map_solver(Box::new(Trws::new(TrwsOptions {
            max_iterations: COLD_CHECK_ITERATIONS,
            ..TrwsOptions::default()
        })))
        .solve();
        match cold {
            Ok(report) => checks.require(recomputed <= 1.05 * report.objective_after, || {
                format!(
                    "final objective {recomputed} is more than 5% above a fresh cold solve's {}",
                    report.objective_after
                )
            }),
            Err(e) => checks.require(false, || format!("cold solve of the final network: {e}")),
        }

        let ticks = mttc.ticks("final", self.network, self.similarity, self.assignment);
        let mono = mttc.ticks(
            "monoculture",
            self.network,
            self.similarity,
            &mono_assignment(self.network),
        );
        match (ticks, mono) {
            (Some(t), Some(m)) => {
                checks.require(t >= m, || {
                    format!("MTTC {t} is below the monoculture's {m} ticks")
                });
                t
            }
            _ => {
                checks.require(false, || {
                    "MTTC undefined: no pair's target is reachable".into()
                });
                0.0
            }
        }
    }
}

/// Iteration cap of the fresh cold solve the final objective is checked
/// against: the engine's cold solver (TRW-S) with its iterations capped.
/// On seed 1's final networks the capped solve's objective equals the
/// uncapped default's, which keeps iterating on the dual bound (34
/// iterations, 17 s, on `absorb-50k`; all 100, 5 s, on
/// `serve-journal-10k`) after its objective stopped moving.
const COLD_CHECK_ITERATIONS: usize = 10;

/// Seed of the random baseline assignment (the repository's
/// `RANDOM_BASELINE_SEED`).
const RANDOM_BASELINE_SEED: u64 = 24;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One timed `recover`, checked against the live state it must equal.
pub fn timed_recover(
    checks: &mut Checks,
    path: &Path,
    live_network: &Network,
    live_assignment: &Assignment,
) -> (f64, Option<RecoveryReport>) {
    let start = Instant::now();
    let recovered = recover_with(path, |engine| engine);
    let seconds = start.elapsed().as_secs_f64();
    match recovered {
        Ok(r) => {
            checks.require(r.engine.revision() == live_network.revision(), || {
                format!(
                    "recovered revision {} != live {}",
                    r.engine.revision(),
                    live_network.revision()
                )
            });
            checks.require(r.engine.network() == live_network, || {
                "recovered network differs from the live one".into()
            });
            checks.require(r.engine.assignment() == Some(live_assignment), || {
                "recovered assignment differs from the live one".into()
            });
            (seconds, Some(r.report))
        }
        Err(e) => {
            checks.require(false, || format!("recover failed: {e}"));
            (seconds, None)
        }
    }
}

/// Writes a copy of the journal at `from` to `to` in which the last batch
/// record's assignment gives host 0 a product that is not a candidate for
/// its first slot, with the record's checksum recomputed to match.
pub fn tamper_last_batch(from: &Path, to: &Path, catalog: &Catalog) -> std::io::Result<()> {
    let data = std::fs::read(from)?;
    let mut lines: Vec<Vec<u8>> = data
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(<[u8]>::to_vec)
        .collect();
    let last_batch = lines
        .iter()
        .rposition(|l| matches!(parse_record_line(l), Ok(Record::Batch(_))))
        .ok_or_else(|| std::io::Error::other("journal holds no batch record"))?;
    let Ok(Record::Batch(mut batch)) = parse_record_line(&lines[last_batch]) else {
        unreachable!("rposition matched a batch record");
    };
    let assignment = batch
        .assignment
        .take()
        .ok_or_else(|| std::io::Error::other("batch record carries no assignment"))?;
    let mut rows = assignment.into_slots();
    let current = rows[0][0];
    let service = catalog
        .product(current)
        .expect("assigned product exists")
        .service();
    // A product of another service is never a candidate of this slot.
    let (foreign, _) = catalog
        .iter_products()
        .find(|(_, product)| product.service() != service)
        .expect("the catalog has more than one service");
    rows[0][0] = foreign;
    batch.assignment = Some(Assignment::from_slots(rows));
    let line = Record::Batch(batch).to_line();
    lines[last_batch] = line.trim_end_matches('\n').as_bytes().to_vec();
    let mut out = lines.join(&b'\n');
    out.push(b'\n');
    std::fs::write(to, out)
}

/// Recovers the tampered journal. `true` when recovery *accepted* it and
/// installed an assignment that fails `Assignment::validate` — the fault
/// this operation counts as failed while it lasts.
pub fn tampered_recovery_accepted(checks: &mut Checks, path: &Path) -> bool {
    match recover_with(path, |engine| engine) {
        Ok(r) => {
            let invalid = r
                .engine
                .assignment()
                .is_some_and(|a| a.validate(r.engine.network()).is_err());
            checks.require(invalid, || {
                "tampered journal recovered with a valid assignment: the tamper did not take".into()
            });
            invalid
        }
        Err(_) => false,
    }
}
