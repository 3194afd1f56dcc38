//! serve-journal-10k: a `DiversityEngine` with a write-ahead journal behind
//! `ServingEngine`. One closed-loop client submits each burst and polls its
//! own `SnapshotReader` until the burst's revision is visible; one sampling
//! reader runs a timed batch of reads beside every absorb. A round is
//! [`ROUND`] bursts followed by a timed `recover` of the live journal and
//! one recovery of a tampered copy of it.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use ics_diversity::journal::DEFAULT_SNAPSHOT_EVERY;
use ics_diversity::serve::{Enqueue, ServingConfig, WriterCore};
use ics_diversity::{DiversityEngine, ServingEngine, SnapshotReader};
use netmodel::HostId;

use crate::checks::{self, FinalState};
use crate::direct::{ms, mttc_probe, Layers, Timed, READS_PER_BATCH};
use crate::inputs::{self, stream_seed};
use crate::mirror::Mirror;
use crate::stats::median;
use crate::{Outcome, Params, Result, WorkDir};

const HOSTS: usize = 10_000;
const BURST: usize = 16;
/// Untimed bursts after start-up. Eight, so that every round ends eight
/// batches past the journal's last compaction and each recovery replays
/// the same tail.
const WARMUP: usize = 8;
/// Bursts per round: one journal compaction cycle.
const ROUND: usize = DEFAULT_SNAPSHOT_EVERY;
/// Timed rounds per second of `--seconds`.
const ROUNDS_PER_S: f64 = 1.2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// How long the client waits for a burst to become visible before it
/// counts the burst as failed.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Pause between the client's visibility polls.
const POLL: Duration = Duration::from_micros(20);

/// The sampling reader: one timed batch of reads per signal, each read one
/// `SnapshotReader::current` plus one `products_at`. Returns the per-batch
/// ns/read samples and whether the revisions it saw never decreased.
fn sample_reads(
    mut reader: SnapshotReader,
    targets: &[HostId],
    go: &mpsc::Receiver<()>,
) -> (Vec<f64>, bool) {
    let mut samples = Vec::new();
    let mut last_revision = 0;
    let mut monotone = true;
    while go.recv().is_ok() {
        let start = Instant::now();
        let mut products = 0;
        for &h in targets {
            let snapshot = reader.current();
            monotone &= snapshot.revision() >= last_revision;
            last_revision = snapshot.revision();
            products += snapshot.products_at(std::hint::black_box(h)).len();
        }
        std::hint::black_box(products);
        samples.push(start.elapsed().as_nanos() as f64 / targets.len() as f64);
    }
    (samples, monotone)
}

pub fn serve_journal(p: &Params) -> Result<Outcome> {
    let hosts = if p.quick { 1_500 } else { HOSTS };
    let rounds = p.rounds(ROUNDS_PER_S, 2);
    let total = WARMUP + rounds * ROUND;
    let round_end = |i: usize| i >= WARMUP && (i + 1 - WARMUP).is_multiple_of(ROUND);
    let g = inputs::random_network(hosts, stream_seed(p.seed, 1));
    let bursts = inputs::random_bursts(&g, total, BURST, stream_seed(p.seed, 2));
    let targets = inputs::read_targets(hosts, READS_PER_BATCH, stream_seed(p.seed, 3));
    let work = WorkDir::new("serve-journal-10k")?;
    let journal = work.file("live.journal");
    let tampered = work.file("tampered.journal");
    let mut out = Outcome::default();
    let mut layers = Layers::default();

    let mut setup_s = Vec::new();
    let mut serving = None;
    for _ in 0..p.setups(SETUPS) {
        if let Some(previous) = serving.take() {
            ServingEngine::shutdown(previous);
        }
        let (network, catalog, similarity) =
            (g.network.clone(), g.catalog.clone(), g.similarity.clone());
        let start = Instant::now();
        let engine = DiversityEngine::new(network, catalog, similarity).with_journal(&journal)?;
        let started = ServingEngine::start_with(engine, ServingConfig::default())?;
        std::hint::black_box(started.reader().current().products_at(HostId(0)).len());
        setup_s.push(start.elapsed().as_secs_f64());
        serving = Some(started);
    }
    let serving = serving.ok_or("no set-up ran")?;

    // The traced run keeps an unjournaled engine in step with the served
    // one: it yields the ReassignmentReport telemetry serving does not
    // expose, and the function-level mirror starts from its cold solve.
    let mut shadow_engine = None;
    let mut mirror = None;
    if p.trace {
        let mut engine =
            DiversityEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
        let cold = engine.solve()?;
        layers.add("cache.cold_build_s", cold.rebuild_wall.as_secs_f64());
        layers.add("mrf.cold_solve_s", cold.solve_wall.as_secs_f64());
        mirror = Some(Mirror::new(
            engine.network(),
            &g.catalog,
            &g.similarity,
            engine.assignment().ok_or("cold solve left no assignment")?,
            &work.file("mirror.journal"),
        )?);
        shadow_engine = Some(engine);
    }

    let mut timed = Timed::default();
    let mut client = serving.reader();
    let mut last = client.current();
    let (mut growth_bytes, mut growth_deltas) = (0u64, 0usize);
    let mut journal_len = std::fs::metadata(&journal)?.len();
    let mut recover_s = Vec::new();
    // The network the served engine must hold, advanced after each burst
    // is visible (untimed): what recoveries are checked against.
    let mut live_network = g.network.clone();
    let (mut plain_max, mut compacting_min) = (0.0f64, f64::INFINITY);
    let (go, go_rx) = mpsc::channel();
    let (read_ns, reads_monotone) = thread::scope(|scope| -> Result<(Vec<f64>, bool)> {
        let reader = serving.reader();
        let targets = &targets;
        let sampler = scope.spawn(move || sample_reads(reader, targets, &go_rx));
        for (i, burst) in bursts.iter().enumerate() {
            let expected = last.revision() + burst.len() as u64;
            let deltas = burst.clone();
            // Warm-up bursts count as operations only if they fail.
            out.attempted += u64::from(i >= WARMUP);
            let start = Instant::now();
            if let Enqueue::Rejected { depth, cap } = serving.submit(deltas) {
                out.attempted += u64::from(i < WARMUP);
                out.failed += 1;
                out.checks.require(false, || {
                    format!("burst {i} rejected at depth {depth}/{cap}")
                });
                break;
            }
            if i >= WARMUP {
                go.send(())?;
                out.attempted += targets.len() as u64;
            }
            let visible = loop {
                let snapshot = client.current();
                if snapshot.revision() >= expected {
                    break Some(snapshot);
                }
                if start.elapsed() > VISIBLE_TIMEOUT {
                    break None;
                }
                thread::sleep(POLL);
            };
            let wall = start.elapsed();
            let Some(snapshot) = visible else {
                out.attempted += u64::from(i < WARMUP);
                out.failed += 1;
                out.checks.require(false, || {
                    format!("burst {i} not visible within {VISIBLE_TIMEOUT:?}")
                });
                break;
            };
            out.checks.require(snapshot.revision() == expected, || {
                format!(
                    "burst {i}: revision {} visible, {expected} expected",
                    snapshot.revision()
                )
            });
            out.checks
                .require(snapshot.deltas_in_batch() == burst.len(), || {
                    format!(
                        "burst {i}: {} deltas absorbed in its batch, {} submitted",
                        snapshot.deltas_in_batch(),
                        burst.len()
                    )
                });
            last = snapshot;
            live_network.apply_all(burst, &g.catalog)?;
            let len = std::fs::metadata(&journal)?.len();
            if i >= WARMUP {
                timed.record(wall, burst.len());
                layers.add("serve.absorb_ms", ms(last.absorb_wall()));
                layers.add(
                    "serve.handoff_ms",
                    ms(wall.saturating_sub(last.absorb_wall())),
                );
                // A shrinking file was compacted: its growth is not a batch.
                if len >= journal_len {
                    growth_bytes += len - journal_len;
                    growth_deltas += burst.len();
                    plain_max = plain_max.max(ms(wall));
                } else {
                    compacting_min = compacting_min.min(ms(wall));
                }
            }
            journal_len = len;
            if let (Some(engine), Some(mirror)) = (shadow_engine.as_mut(), mirror.as_mut()) {
                let start = Instant::now();
                let report = engine.apply_batch(burst)?;
                let engine_wall = start.elapsed();
                let carried = report.objective_before.unwrap_or(f64::INFINITY);
                out.checks
                    .require(report.objective_after <= carried + 1e-9, || {
                        format!("burst {i}: objective above carried {carried}")
                    });
                out.checks
                    .require(engine.assignment() == Some(last.assignment()), || {
                        format!("burst {i}: the in-step engine left the served assignment")
                    });
                mirror.step(burst, i >= WARMUP)?;
                if i >= WARMUP {
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
                        ms(engine_wall.saturating_sub(report.rebuild_wall + report.solve_wall)),
                    );
                }
            }
            if round_end(i) {
                let (seconds, report) = checks::timed_recover(
                    &mut out.checks,
                    &journal,
                    &live_network,
                    last.assignment(),
                );
                // The first round's recovery runs cold; it is checked but
                // not timed.
                if i + 1 > WARMUP + ROUND || rounds == 1 {
                    recover_s.push(seconds);
                }
                if let Some(report) = report {
                    layers.add("journal.replayed_batches", report.batches_replayed as f64);
                }
                checks::tamper_last_batch(&journal, &tampered, &g.catalog)?;
                if checks::tampered_recovery_accepted(&mut out.checks, &tampered) {
                    out.failed += 1;
                }
                out.attempted += 2;
            }
        }
        drop(go);
        let reads = sampler.join().map_err(|_| "the sampling reader panicked")?;
        Ok(reads)
    })?;
    out.checks.require(reads_monotone, || {
        "a reader saw the revision decrease".into()
    });
    timed.read_ns = read_ns;

    let (core, drain) = serving.shutdown();
    let WriterCore::Single(engine) = core else {
        return Err("serving handed back a sharded core".into());
    };
    out.metrics.insert("peak_rss_mb", checks::peak_rss_mib());
    timed.finish(&mut out, &setup_s);
    eprintln!(
        "slowest plain burst {plain_max:.2} ms, fastest compacting burst {compacting_min:.2} ms"
    );
    if let Some(mirror) = mirror {
        layers.extend_mirror(mirror.samples);
    }
    out.checks
        .require(drain.last_revision == last.revision(), || {
            format!(
                "shutdown at revision {}, last visible {}",
                drain.last_revision,
                last.revision()
            )
        });
    out.checks
        .require(engine.assignment() == Some(last.assignment()), || {
            "the engine's assignment after shutdown differs from the last published one".into()
        });
    out.checks.require(engine.network() == &live_network, || {
        "the served network differs from the stream's final state".into()
    });
    let final_state = FinalState {
        network: engine.network(),
        catalog: &g.catalog,
        similarity: &g.similarity,
        assignment: last.assignment(),
        reported_objective: last.objective(),
    };
    let mttc = final_state.check(&mut out.checks, &mttc_probe(&g, p.quick));
    out.metrics.insert("objective", last.objective());
    out.metrics.insert("mttc_ticks", mttc);
    out.metrics.insert("recover_s", median(&recover_s));
    out.metrics.insert(
        "journal_bytes_per_delta",
        growth_bytes as f64 / growth_deltas.max(1) as f64,
    );
    layers.finish(&mut out);
    Ok(out)
}
