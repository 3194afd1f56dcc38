//! The two direct-engine workloads: `absorb-50k` (one `DiversityEngine`)
//! and `sharded-10k` (a two-zone `ShardedEngine`). A single client hands
//! each pre-generated burst to `apply_batch` and waits for it to return.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ics_diversity::{DiversityEngine, ShardReport, ShardedEngine};
use netmodel::assignment::Assignment;
use netmodel::network::Network;
use netmodel::topology::GeneratedNetwork;
use netmodel::HostId;

use crate::checks::{self, FinalState, MttcProbe};
use crate::inputs::{self, stream_seed};
use crate::mirror::{Mirror, MirrorSamples};
use crate::stats::{median, tail, tail_percentile};
use crate::{Outcome, Params, Result, WorkDir};

/// Bursts absorbed untimed after the cold solve, while scratch arenas and
/// caches grow.
const WARMUP: usize = 8;
/// Set-ups per run; `setup_s` is their median. Fewer for the 50k-host
/// engine, whose cold solve takes seconds.
const ABSORB_SETUPS: usize = 3;
const SHARDED_SETUPS: usize = 5;
/// Reads per timed batch (one batch after every timed burst).
pub const READS_PER_BATCH: usize = 2_000;
/// Bursts that close every stream, absorbed after the timed loop with a
/// journal attached to the engine: the journal `recover_s` replays holds a
/// snapshot of the state they meet and their batch records.
const JOURNAL_TAIL: usize = 8;
/// Recoveries of that journal per run; `recover_s` is their median. The
/// first warms the allocator and page cache and is checked but not timed.
/// One takes about 0.6 s on absorb-50k and 0.12 s on sharded-10k.
const ABSORB_RECOVERIES: usize = 5;
const SHARDED_RECOVERIES: usize = 12;
/// Monte-Carlo runs of each entry/target pair's MTTC estimate.
const MTTC_RUNS_PER_PAIR: usize = 8;

const ABSORB_HOSTS: usize = 50_000;
const ABSORB_BURST: usize = 16;
/// Timed bursts per second of `--seconds` (absorb-50k).
const ABSORB_BURSTS_PER_S: f64 = 13.0;

const SHARDED_HOSTS_PER_ZONE: usize = 5_000;
const SHARDED_BURST: usize = 4;
/// One burst in every `BOUNDARY_EVERY` rewires a cross-zone link; a round
/// is `BOUNDARY_EVERY` bursts ending in that boundary burst.
const BOUNDARY_EVERY: usize = 6;
/// Timed rounds per second of `--seconds` (sharded-10k).
const SHARDED_ROUNDS_PER_S: f64 = 1.6;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-burst samples of the per-layer metrics, reduced to medians (counts
/// summed, shares averaged) when the run ends.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn extend_mirror(&mut self, s: MirrorSamples) {
        for (name, values) in [
            ("netmodel.clone_ms", s.clone_ms),
            ("netmodel.apply_ms", s.apply_ms),
            ("netmodel.touched_hosts", s.touched_hosts),
            ("engine.project_ms", s.project_ms),
            ("engine.energy_ms", s.energy_ms),
            ("mrf.refine_ms", s.refine_ms),
            ("engine.decode_ms", s.decode_ms),
            ("engine.validate_ms", s.validate_ms),
            ("journal.append_ms", s.journal_append_ms),
            ("journal.snapshot_ms", s.journal_snapshot_ms),
            ("journal.bytes_per_batch", s.journal_batch_bytes),
        ] {
            self.0.entry(name).or_default().extend(values);
        }
    }

    pub fn finish(self, out: &mut Outcome) {
        for (name, values) in self.0 {
            let value = match name {
                "cache.reassembled" => values.iter().sum(),
                "mrf.localized_share" => values.iter().sum::<f64>() / values.len().max(1) as f64,
                _ => median(&values),
            };
            out.metrics.insert(name, value);
        }
    }
}

/// The timed loop's end-to-end samples.
#[derive(Default)]
pub struct Timed {
    pub latencies_ms: Vec<f64>,
    pub deltas: usize,
    pub read_ns: Vec<f64>,
}

impl Timed {
    pub fn record(&mut self, wall: Duration, deltas: usize) {
        self.latencies_ms.push(ms(wall));
        self.deltas += deltas;
    }

    /// One timed batch of reads: `read(h)` answers "which products run on
    /// host h" the way the workload serves it.
    pub fn read_batch(
        &mut self,
        out: &mut Outcome,
        targets: &[HostId],
        read: impl Fn(HostId) -> usize,
    ) {
        let start = Instant::now();
        let mut products = 0;
        for &h in targets {
            products += read(std::hint::black_box(h));
        }
        std::hint::black_box(products);
        self.read_ns
            .push(start.elapsed().as_nanos() as f64 / targets.len() as f64);
        out.attempted += targets.len() as u64;
    }

    /// Fills the latency, throughput and read metrics.
    pub fn finish(&self, out: &mut Outcome, setups_s: &[f64]) {
        let p50 = median(&self.latencies_ms);
        out.metrics.insert("setup_s", median(setups_s));
        out.metrics.insert("absorb_p50_ms", p50);
        out.metrics.insert("trace.absorb_p50_ms", p50);
        out.metrics
            .insert("absorb_tail_ms", tail(&self.latencies_ms));
        let busy_s = self.latencies_ms.iter().sum::<f64>() / 1e3;
        out.metrics
            .insert("deltas_per_s", self.deltas as f64 / busy_s);
        out.metrics.insert("read.ns", median(&self.read_ns));
        eprintln!(
            "{} timed bursts; tail = p{:.1} ({} samples beyond)",
            self.latencies_ms.len(),
            tail_percentile(self.latencies_ms.len()),
            crate::stats::TAIL_BEYOND
        );
    }
}

pub fn mttc_probe(g: &GeneratedNetwork, quick: bool) -> MttcProbe {
    MttcProbe::new(
        &inputs::mttc_pairs(g),
        if quick { 4 } else { MTTC_RUNS_PER_PAIR },
    )
}

/// What a direct-engine run carries from its set-up to its closing checks.
struct DirectRun {
    out: Outcome,
    layers: Layers,
    timed: Timed,
    mirror: Option<Mirror>,
    setup_s: Vec<f64>,
    /// Whether [`DirectRun::end_timing`] has run.
    timing_ended: bool,
    /// Holds the run's scratch journals; removed when the run ends.
    work: WorkDir,
}

impl DirectRun {
    /// Set-up is done and timed. With `mirror` (traced single-engine runs)
    /// the mirror starts from the solved engine's network and assignment.
    fn new(
        mirror: bool,
        work: WorkDir,
        setup_s: Vec<f64>,
        g: &GeneratedNetwork,
        network: &Network,
        assignment: Option<&Assignment>,
    ) -> Result<DirectRun> {
        let mirror = match mirror {
            true => Some(Mirror::new(
                network,
                &g.catalog,
                &g.similarity,
                assignment.ok_or("cold solve left no assignment")?,
                &work.file("mirror.journal"),
            )?),
            false => None,
        };
        Ok(DirectRun {
            out: Outcome::default(),
            layers: Layers::default(),
            timed: Timed::default(),
            mirror,
            setup_s,
            timing_ended: false,
            work,
        })
    }

    /// Ends the timed loop: peak RSS is read before the journal tail runs
    /// and before any check allocates.
    fn end_timing(&mut self) {
        if self.timing_ended {
            return;
        }
        self.timing_ended = true;
        self.out
            .metrics
            .insert("peak_rss_mb", checks::peak_rss_mib());
        self.timed.finish(&mut self.out, &self.setup_s);
        if let Some(mirror) = self.mirror.take() {
            self.layers.extend_mirror(mirror.samples);
        }
    }

    /// Where the engine's journal goes when the journal tail starts.
    fn tail_journal(&self) -> PathBuf {
        self.work.file("tail.journal")
    }

    /// `recover_s` and `journal_bytes_per_delta` from the journal the
    /// engine wrote over the journal tail: `head` is its length before the
    /// first tail batch, `deltas` the tail's deltas. Each recovery is
    /// checked against the live state.
    fn recover_tail(
        &mut self,
        head: u64,
        deltas: usize,
        recoveries: usize,
        network: &Network,
        assignment: &Assignment,
    ) -> Result<()> {
        let path = self.tail_journal();
        let bytes = std::fs::metadata(&path)?.len() - head;
        self.out
            .metrics
            .insert("journal_bytes_per_delta", bytes as f64 / deltas as f64);
        let mut walls = Vec::new();
        for r in 0..recoveries {
            let (seconds, report) =
                checks::timed_recover(&mut self.out.checks, &path, network, assignment);
            if r > 0 {
                walls.push(seconds);
            }
            self.out.attempted += 1;
            if let Some(report) = report {
                self.layers
                    .add("journal.replayed_batches", report.batches_replayed as f64);
            }
        }
        self.out.metrics.insert("recover_s", median(&walls));
        Ok(())
    }

    /// The closing checks on the final state and the MTTC.
    fn close(
        mut self,
        g: &GeneratedNetwork,
        quick: bool,
        network: &Network,
        assignment: &Assignment,
        objective: f64,
    ) -> Result<Outcome> {
        let final_state = FinalState {
            network,
            catalog: &g.catalog,
            similarity: &g.similarity,
            assignment,
            reported_objective: objective,
        };
        let mttc = final_state.check(&mut self.out.checks, &mttc_probe(g, quick));
        self.out.metrics.insert("objective", objective);
        self.out.metrics.insert("mttc_ticks", mttc);
        self.layers.finish(&mut self.out);
        Ok(self.out)
    }

    /// A rejected burst fails the run; warm-up bursts count as operations
    /// only if they fail.
    fn rejected(&mut self, i: usize, warmup: usize, e: &ics_diversity::Error) {
        self.out.attempted += u64::from(i < warmup);
        self.out.failed += 1;
        self.out
            .checks
            .require(false, || format!("burst {i} rejected: {e}"));
    }
}

/// absorb-50k: one `DiversityEngine` on a 50k-host random topology,
/// absorbing 16-delta `random_delta` bursts through `apply_batch`.
pub fn absorb(p: &Params) -> Result<Outcome> {
    let hosts = if p.quick { 2_000 } else { ABSORB_HOSTS };
    let tail_start = WARMUP + p.rounds(ABSORB_BURSTS_PER_S, 24);
    let total = tail_start + JOURNAL_TAIL;
    let g = inputs::random_network(hosts, stream_seed(p.seed, 1));
    let bursts = inputs::random_bursts(&g, total, ABSORB_BURST, stream_seed(p.seed, 2));
    let targets = inputs::read_targets(hosts, READS_PER_BATCH, stream_seed(p.seed, 3));
    let work = WorkDir::new("absorb-50k")?;

    let mut setup_s = Vec::new();
    let mut solved = None;
    for _ in 0..p.setups(ABSORB_SETUPS) {
        drop(solved.take());
        let (network, catalog, similarity) =
            (g.network.clone(), g.catalog.clone(), g.similarity.clone());
        let start = Instant::now();
        let mut engine = DiversityEngine::new(network, catalog, similarity);
        let cold = engine.solve()?;
        setup_s.push(start.elapsed().as_secs_f64());
        solved = Some((engine, cold));
    }
    eprintln!("set-ups, s: {setup_s:.3?}");
    let (mut engine, cold) = solved.ok_or("no set-up ran")?;
    let mut run = DirectRun::new(
        p.trace,
        work,
        setup_s,
        &g,
        engine.network(),
        engine.assignment(),
    )?;
    run.layers
        .add("cache.cold_build_s", cold.rebuild_wall.as_secs_f64());
    run.layers
        .add("mrf.cold_solve_s", cold.solve_wall.as_secs_f64());

    let mut objective = cold.objective_after;
    let mut head = 0;
    let mut completed = true;
    for (i, burst) in bursts.iter().enumerate() {
        if i == tail_start {
            run.end_timing();
            engine = engine.with_journal_cadence(run.tail_journal(), None)?;
            head = std::fs::metadata(run.tail_journal())?.len();
        }
        let timed = (WARMUP..tail_start).contains(&i);
        run.out.attempted += u64::from(i >= WARMUP);
        let start = Instant::now();
        let report = engine.apply_batch(burst);
        let wall = start.elapsed();
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                run.rejected(i, WARMUP, &e);
                completed = false;
                break;
            }
        };
        objective = report.objective_after;
        let carried = report.objective_before.unwrap_or(f64::INFINITY);
        run.out
            .checks
            .require(report.objective_after <= carried + 1e-9, || {
                format!(
                    "burst {i}: objective {} above carried {carried}",
                    report.objective_after
                )
            });
        if timed {
            run.timed.record(wall, burst.len());
            run.timed.read_batch(&mut run.out, &targets, |h| {
                engine.assignment().map_or(0, |a| a.products_at(h).len())
            });
            let layers = &mut run.layers;
            layers.add("cache.edit_ms", ms(report.rebuild_wall));
            layers.add(
                "cache.reassembled",
                f64::from(u8::from(report.rebuild.rebuilt && !report.rebuild.edited)),
            );
            layers.add("mrf.solve_span_ms", ms(report.solve_wall));
            layers.add("mrf.swept_vars", report.swept_vars as f64);
            layers.add("mrf.frontier_hosts", report.frontier_hosts as f64);
            layers.add("mrf.localized_share", f64::from(u8::from(report.localized)));
            layers.add(
                "engine.outside_solve_ms",
                ms(wall.saturating_sub(report.rebuild_wall + report.solve_wall)),
            );
        }
        if let Some(mirror) = run.mirror.as_mut() {
            let mirrored = mirror.step(burst, timed)?;
            run.out
                .checks
                .require(Some(mirrored) == engine.assignment(), || {
                    format!("burst {i}: the mirror's assignment left the engine's")
                });
        }
    }
    run.end_timing();

    let assignment = engine.assignment().ok_or("run left no assignment")?.clone();
    if completed {
        let deltas = bursts[tail_start..].iter().map(Vec::len).sum();
        let recoveries = p.setups(ABSORB_RECOVERIES).max(2);
        run.recover_tail(head, deltas, recoveries, engine.network(), &assignment)?;
    }
    run.close(&g, p.quick, engine.network(), &assignment, objective)
}

/// Adds the per-shard telemetry of one sharded step to `layers`.
fn shard_layers(layers: &mut Layers, report: &ShardReport, wall: Duration, boundary: bool) {
    let locals: Vec<_> = report.shard_reports.iter().flatten().collect();
    let rebuild: Duration = locals.iter().map(|r| r.rebuild_wall).sum();
    let solve: Duration = locals.iter().map(|r| r.solve_wall).sum();
    let slowest = report
        .per_shard_solve
        .iter()
        .max()
        .copied()
        .unwrap_or_default();
    layers.add(
        "netmodel.touched_hosts",
        locals.iter().map(|r| r.touched.len()).sum::<usize>() as f64,
    );
    layers.add("cache.edit_ms", ms(rebuild));
    layers.add(
        "cache.reassembled",
        f64::from(u8::from(
            locals
                .iter()
                .any(|r| r.rebuild.rebuilt && !r.rebuild.edited),
        )),
    );
    layers.add("mrf.solve_span_ms", ms(solve));
    layers.add(
        "mrf.swept_vars",
        locals.iter().map(|r| r.swept_vars).sum::<usize>() as f64,
    );
    layers.add(
        "mrf.frontier_hosts",
        locals.iter().map(|r| r.frontier_hosts).sum::<usize>() as f64,
    );
    layers.add(
        "mrf.localized_share",
        f64::from(u8::from(locals.iter().all(|r| r.localized))),
    );
    layers.add(
        "engine.outside_solve_ms",
        ms(wall.saturating_sub(rebuild + solve + report.coordination_wall)),
    );
    layers.add("shard.solve_ms", ms(slowest));
    layers.add(
        "shard.route_ms",
        ms(report
            .total_wall
            .saturating_sub(slowest + report.coordination_wall)),
    );
    if boundary {
        layers.add("shard.coord_ms", ms(report.coordination_wall));
        layers.add("shard.rounds", report.rounds as f64);
        layers.add(
            "shard.flips_per_round",
            report.boundary_flips as f64 / report.rounds.max(1) as f64,
        );
        if let Some(gap) = report.certified_gap() {
            layers.add("shard.gap_pct", 100.0 * gap);
        }
    }
}

/// sharded-10k: a `ShardedEngine` over a two-zone `generate_zoned`
/// topology, absorbing 4-delta bursts; one burst per round rewires a
/// cross-zone link, the others stay inside one zone.
pub fn sharded(p: &Params) -> Result<Outcome> {
    let per_zone = if p.quick {
        1_500
    } else {
        SHARDED_HOSTS_PER_ZONE
    };
    let warmup = BOUNDARY_EVERY;
    let tail_start = warmup + BOUNDARY_EVERY * p.rounds(SHARDED_ROUNDS_PER_S, 3);
    let total = tail_start + JOURNAL_TAIL;
    let g = inputs::zoned_network(per_zone, stream_seed(p.seed, 1));
    let bursts = inputs::zoned_bursts(
        &g,
        total,
        SHARDED_BURST,
        BOUNDARY_EVERY,
        stream_seed(p.seed, 2),
    );
    let hosts = g.network.host_count();
    let targets = inputs::read_targets(hosts, READS_PER_BATCH, stream_seed(p.seed, 3));
    let work = WorkDir::new("sharded-10k")?;

    let mut setup_s = Vec::new();
    let mut solved = None;
    for _ in 0..p.setups(SHARDED_SETUPS) {
        drop(solved.take());
        let (network, catalog, similarity) =
            (g.network.clone(), g.catalog.clone(), g.similarity.clone());
        let start = Instant::now();
        let mut engine = ShardedEngine::new(network, catalog, similarity);
        let cold = engine.solve()?;
        setup_s.push(start.elapsed().as_secs_f64());
        solved = Some((engine, cold));
    }
    eprintln!("set-ups, s: {setup_s:.3?}");
    let (mut engine, cold) = solved.ok_or("no set-up ran")?;
    // No mirror: it would replay each burst as one whole-network engine,
    // which is not the path the sharded engine runs.
    let mut run = DirectRun::new(
        false,
        work,
        setup_s,
        &g,
        engine.network(),
        engine.assignment(),
    )?;
    let cold_locals = cold.shard_reports.iter().flatten();
    run.layers.add(
        "cache.cold_build_s",
        cold_locals
            .clone()
            .map(|r| r.rebuild_wall)
            .sum::<Duration>()
            .as_secs_f64(),
    );
    run.layers.add(
        "mrf.cold_solve_s",
        cold_locals
            .map(|r| r.solve_wall)
            .sum::<Duration>()
            .as_secs_f64(),
    );
    run.layers
        .add("shard.cold_coord_s", cold.coordination_wall.as_secs_f64());

    let mut objective = cold.objective;
    let mut head = 0;
    let mut completed = true;
    let (mut confined_max, mut boundary_min) = (0.0f64, f64::INFINITY);
    for (i, burst) in bursts.iter().enumerate() {
        if i == tail_start {
            run.end_timing();
            engine = engine.with_journal_cadence(run.tail_journal(), None)?;
            head = std::fs::metadata(run.tail_journal())?.len();
        }
        let timed = (warmup..tail_start).contains(&i);
        run.out.attempted += u64::from(i >= warmup);
        let start = Instant::now();
        let report = engine.apply_batch(burst);
        let wall = start.elapsed();
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                run.rejected(i, warmup, &e);
                completed = false;
                break;
            }
        };
        objective = report.objective;
        let carried = report.objective_before.unwrap_or(f64::INFINITY);
        run.out
            .checks
            .require(report.objective <= carried + 1e-9, || {
                format!(
                    "burst {i}: objective {} above carried {carried}",
                    report.objective
                )
            });
        if let Some(gap) = report.certified_gap() {
            run.out
                .checks
                .require(gap >= 0.0, || format!("burst {i}: certified gap {gap} < 0"));
        }
        if timed {
            let boundary = i % BOUNDARY_EVERY == BOUNDARY_EVERY - 1;
            if boundary {
                boundary_min = boundary_min.min(ms(wall));
            } else {
                confined_max = confined_max.max(ms(wall));
            }
            run.timed.record(wall, burst.len());
            run.timed.read_batch(&mut run.out, &targets, |h| {
                engine.assignment().map_or(0, |a| a.products_at(h).len())
            });
            shard_layers(&mut run.layers, &report, wall, boundary);
        }
    }
    run.end_timing();
    eprintln!(
        "slowest confined burst {confined_max:.2} ms, fastest boundary burst {boundary_min:.2} ms"
    );

    let assignment = engine.assignment().ok_or("run left no assignment")?.clone();
    if completed {
        let deltas = bursts[tail_start..].iter().map(Vec::len).sum();
        let recoveries = p.setups(SHARDED_RECOVERIES).max(2);
        run.recover_tail(head, deltas, recoveries, engine.network(), &assignment)?;
    }
    let recomputed = checks::objective(
        &mut run.out.checks,
        engine.network(),
        &g.similarity,
        &assignment,
    );
    run.out.checks.objective_matches(
        "global_objective",
        engine.global_objective(&assignment),
        recomputed,
    );
    run.close(&g, p.quick, engine.network(), &assignment, objective)
}
