//! The traced run's mirror: the steps a `DiversityEngine` absorb composes
//! internally, replayed one public layer function at a time on the same
//! burst, over a network copy and `EnergyCache` the benchmark keeps in step.
//! Each step is timed on its own; the mirror runs after the engine's absorb
//! has been timed, so it never sits inside an end-to-end measurement.

use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

use ics_diversity::cache::EnergyCache;
use ics_diversity::energy::{EnergyParams, SlotBinding};
use ics_diversity::journal::DEFAULT_SNAPSHOT_EVERY;
use ics_diversity::{Journal, Result};
use mrf::icm::Icm;
use mrf::model::VarId;
use mrf::projection::project_labels;
use mrf::solver::{MapSolver, SolveControl};
use mrf::SolveScratch;
use netmodel::assignment::Assignment;
use netmodel::catalog::{Catalog, ProductSimilarity};
use netmodel::constraints::ConstraintSet;
use netmodel::delta::NetworkDelta;
use netmodel::journal::{Preamble, SnapshotRecord, FORMAT_VERSION};
use netmodel::network::Network;
use netmodel::HostId;

/// k-hop radius of the frontier ball (the engine's default locality).
const FRONTIER_HOPS: usize = 1;

/// Per-burst samples of every mirrored step, in ms unless noted.
#[derive(Default)]
pub struct MirrorSamples {
    pub clone_ms: Vec<f64>,
    pub apply_ms: Vec<f64>,
    pub touched_hosts: Vec<f64>,
    pub project_ms: Vec<f64>,
    pub energy_ms: Vec<f64>,
    pub refine_ms: Vec<f64>,
    pub decode_ms: Vec<f64>,
    pub validate_ms: Vec<f64>,
    pub journal_append_ms: Vec<f64>,
    pub journal_snapshot_ms: Vec<f64>,
    /// Journal file growth per appended batch, in bytes.
    pub journal_batch_bytes: Vec<f64>,
}

pub struct Mirror {
    network: Network,
    catalog: Catalog,
    similarity: ProductSimilarity,
    cache: EnergyCache,
    assignment: Assignment,
    refiner: Icm,
    scratch: SolveScratch,
    journal: Journal,
    pub samples: MirrorSamples,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

impl Mirror {
    /// A mirror of a solved engine: its network, and the assignment its
    /// solve committed. The mirror's journal lives at `journal_path`, with
    /// the engine's default snapshot cadence.
    pub fn new(
        network: &Network,
        catalog: &Catalog,
        similarity: &ProductSimilarity,
        assignment: &Assignment,
        journal_path: &Path,
    ) -> Result<Mirror> {
        let cache = EnergyCache::new(
            network,
            similarity,
            &ConstraintSet::new(),
            EnergyParams::default(),
        )?;
        let preamble = Preamble {
            format: FORMAT_VERSION,
            catalog: catalog.clone(),
            similarity: similarity.clone(),
            constraints: ConstraintSet::new(),
        };
        let snapshot = SnapshotRecord {
            revision: network.revision(),
            network: network.clone(),
            assignment: Some(assignment.clone()),
        };
        let journal = Journal::create(
            journal_path,
            &preamble,
            snapshot,
            Some(DEFAULT_SNAPSHOT_EVERY),
        )
        .map_err(ics_diversity::Error::Model)?;
        Ok(Mirror {
            network: network.clone(),
            catalog: catalog.clone(),
            similarity: similarity.clone(),
            cache,
            assignment: assignment.clone(),
            refiner: Icm::default(),
            scratch: SolveScratch::new(),
            journal,
            samples: MirrorSamples::default(),
        })
    }

    /// Absorbs `burst` step by step and returns the mirror's new assignment.
    /// Warm-up bursts (`timed == false`) keep the mirror in step without
    /// adding samples.
    pub fn step(&mut self, burst: &[NetworkDelta], timed: bool) -> Result<&Assignment> {
        let mut discard = MirrorSamples::default();
        let s = if timed {
            &mut self.samples
        } else {
            &mut discard
        };
        let t = Instant::now();
        let mut staged = self.network.clone();
        s.clone_ms.push(ms(t));

        let t = Instant::now();
        let effect = staged
            .apply_all(burst, &self.catalog)
            .map_err(ics_diversity::Error::Model)?;
        s.apply_ms.push(ms(t));
        s.touched_hosts.push(effect.touched.len() as f64);

        self.cache
            .refresh_hinted(&staged, &self.similarity, Some(&effect.touched))?;
        self.network = staged;
        let energy = self.cache.model();

        let t = Instant::now();
        let seeds = seed_labels(energy.slots(), energy.model().var_count(), &self.assignment);
        let start = project_labels(energy.model(), &seeds);
        s.project_ms.push(ms(t));

        let t = Instant::now();
        let carried = energy.model().energy(&start) + energy.base_energy();
        s.energy_ms.push(ms(t));
        std::hint::black_box(carried);

        let ball = frontier_ball(&self.network, &effect.touched, FRONTIER_HOPS);
        let frontier = frontier_vars(energy.slots(), &ball);
        let t = Instant::now();
        let local = self.refiner.refine_local_with(
            energy.model(),
            start,
            &frontier,
            &SolveControl::new(),
            &mut self.scratch,
        );
        s.refine_ms.push(ms(t));

        let t = Instant::now();
        let assignment = energy.decode(local.solution.labels());
        s.decode_ms.push(ms(t));

        let t = Instant::now();
        let violations = ConstraintSet::new().violations(&self.network, &assignment);
        let valid = assignment.validate(&self.network).is_ok();
        s.validate_ms.push(ms(t));
        std::hint::black_box((violations, valid));

        let before = journal_len(&self.journal);
        let t = Instant::now();
        self.journal
            .append_batch(burst, self.network.revision(), Some(&assignment))
            .map_err(ics_diversity::Error::Model)?;
        s.journal_append_ms.push(ms(t));
        s.journal_batch_bytes
            .push(journal_len(&self.journal).saturating_sub(before) as f64);
        if self.journal.snapshot_due() {
            let snapshot = SnapshotRecord {
                revision: self.network.revision(),
                network: self.network.clone(),
                assignment: Some(assignment.clone()),
            };
            let t = Instant::now();
            self.journal
                .append_snapshot(snapshot)
                .map_err(ics_diversity::Error::Model)?;
            s.journal_snapshot_ms.push(ms(t));
        }

        self.assignment = assignment;
        Ok(&self.assignment)
    }
}

fn journal_len(journal: &Journal) -> u64 {
    std::fs::metadata(journal.path()).map_or(0, |m| m.len())
}

/// Per-variable seeds: the label of the product each slot ran before.
fn seed_labels(
    slots: &[Vec<SlotBinding>],
    var_count: usize,
    previous: &Assignment,
) -> Vec<Option<usize>> {
    let mut seeds = vec![None; var_count];
    for (host, host_slots) in slots.iter().enumerate() {
        let old_row = previous.products_at(HostId(host as u32));
        for (slot, binding) in host_slots.iter().enumerate() {
            if let SlotBinding::Variable { var, candidates } = binding {
                seeds[var.0] = old_row
                    .get(slot)
                    .and_then(|old| candidates.iter().position(|p| p == old));
            }
        }
    }
    seeds
}

/// Live hosts within `k` hops of the touched hosts.
fn frontier_ball(network: &Network, touched: &[HostId], k: usize) -> Vec<HostId> {
    let mut depth = vec![usize::MAX; network.host_count()];
    let mut queue = VecDeque::new();
    let mut ball = Vec::new();
    for &h in touched {
        if h.index() < depth.len() && depth[h.index()] == usize::MAX {
            depth[h.index()] = 0;
            if network.host(h).is_ok_and(|host| !host.is_removed()) {
                ball.push(h);
            }
            queue.push_back(h);
        }
    }
    while let Some(h) = queue.pop_front() {
        let d = depth[h.index()];
        if d == k {
            continue;
        }
        for &n in network.neighbors(h) {
            if depth[n.index()] == usize::MAX {
                depth[n.index()] = d + 1;
                ball.push(n);
                queue.push_back(n);
            }
        }
    }
    ball
}

/// The free variables of every slot on `hosts`.
fn frontier_vars(slots: &[Vec<SlotBinding>], hosts: &[HostId]) -> Vec<VarId> {
    hosts
        .iter()
        .filter_map(|h| slots.get(h.index()))
        .flatten()
        .filter_map(|binding| match binding {
            SlotBinding::Variable { var, .. } => Some(*var),
            SlotBinding::Fixed(_) => None,
        })
        .collect()
}
