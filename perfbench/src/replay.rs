//! Serial replay of one engine sweep through the public layer functions,
//! with a span around every layer call.
//!
//! The replay mirrors `SynthesisEngine::run` step for step — the Phase-1
//! seed chain and the placement-LP seed bank, then per frequency the
//! Phase-1 candidates (base attempt plus θ escalation) and, when they yield
//! nothing, the Phase-2 fallback — so it must reproduce the engine's
//! outcome exactly. Routing goes through `PathAllocator::compute_paths`,
//! which the engine's class-threaded routing matches bit for bit.

use crate::trace::Tracer;
use std::sync::Arc;
use sunfloor_core::eval::{evaluate, DesignMetrics};
use sunfloor_core::graph::{CommGraph, PartitionCache, PartitionStats};
use sunfloor_core::layout::{layout_design, layout_design_tempered, AnnealStats, Layout};
use sunfloor_core::paths::{PathAllocator, PathConfig, PathError, RoutingStats};
use sunfloor_core::phase1::{self, Connectivity};
use sunfloor_core::phase2;
use sunfloor_core::place::{LpStats, PlacementSeeds, PlacementSolver};
use sunfloor_core::spec::SocSpec;
use sunfloor_core::synthesis::{SynthesisConfig, SynthesisMode};
use sunfloor_core::topology::Topology;
use sunfloor_floorplan::{AnnealConfig, TemperConfig};

/// Per-replica iteration budget the engine gives the tempered layout
/// annealer (a private constant of the engine; the replay check fails if
/// the two drift apart).
const TEMPERED_LAYOUT_ITERATIONS: u32 = 8_000;

/// Deadlock retries the engine allows each routing call.
const DEADLOCK_RETRIES: u32 = 24;

/// Work counted at the layer boundaries during a replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Candidates evaluated.
    pub candidates: u64,
    /// Routed-and-checked attempts, feasible or not.
    pub attempts: u64,
    /// Rejected attempts (the engine's `SynthesisOutcome::rejected`).
    pub rejected: u64,
    /// θ-escalation steps started.
    pub theta_steps: u64,
    /// `phase1::connectivity_cached` calls.
    pub phase1_calls: u64,
    /// Partition-cache counters of those calls.
    pub partition: PartitionStats,
    /// `phase2::connectivity` calls.
    pub phase2_calls: u64,
    /// `compute_paths` calls.
    pub paths_calls: u64,
    /// `compute_paths` calls that returned an error.
    pub paths_failed: u64,
    /// Indirect-switch rounds added after a routing failure.
    pub indirect_rounds: u64,
    /// Router counters.
    pub routing: RoutingStats,
    /// `PlacementSolver::place` calls.
    pub place_calls: u64,
    /// Placement-LP counters.
    pub lp: LpStats,
    /// Layout calls (shove insertion or tempering).
    pub layout_calls: u64,
    /// Tempering counters.
    pub anneal: AnnealStats,
    /// `eval::evaluate` calls.
    pub eval_calls: u64,
    /// Evaluated attempts the final constraint screen rejected.
    pub eval_rejects: u64,
}

/// One feasible point of the replay.
pub struct Point {
    /// The routed, placed topology.
    pub topology: Topology,
    /// Its metrics.
    pub metrics: DesignMetrics,
    /// Its floorplan, when layout ran.
    pub layout: Option<Layout>,
}

/// The lowest-power point (first of equals, as the engine picks).
pub fn best_power(points: &[Point]) -> Option<&Point> {
    points.iter().min_by(|a, b| {
        a.metrics
            .power
            .total_mw()
            .total_cmp(&b.metrics.power.total_mw())
    })
}

struct Seed {
    conn: Connectivity,
    assignment: Vec<u32>,
}

/// The engine's one-time warm-up state: the Phase-1 seed chain and the
/// placement-LP seed bank.
pub struct Warm {
    seeds: Vec<(usize, Option<Seed>)>,
    bank: Arc<PlacementSeeds>,
}

#[derive(Clone, Copy)]
enum Sweep {
    SwitchCount(usize),
    Increment(usize),
}

/// Replays the sweep of one configuration.
pub struct Replay<'a> {
    soc: &'a SocSpec,
    graph: &'a CommGraph,
    cfg: &'a SynthesisConfig,
    frequencies: Vec<f64>,
    core_layers: Vec<u32>,
}

impl<'a> Replay<'a> {
    /// A replay of `cfg`; only [`SynthesisMode::Auto`] is supported.
    pub fn new(
        soc: &'a SocSpec,
        graph: &'a CommGraph,
        cfg: &'a SynthesisConfig,
    ) -> Result<Self, String> {
        if cfg.mode != SynthesisMode::Auto {
            return Err("the replay covers SynthesisMode::Auto only".into());
        }
        let frequencies = cfg
            .frequencies_mhz
            .iter()
            .copied()
            .filter(|&f| cfg.library.switch.max_size_for_frequency(f) >= 2)
            .collect();
        let core_layers = soc.cores.iter().map(|c| c.layer).collect();
        Ok(Self {
            soc,
            graph,
            cfg,
            frequencies,
            core_layers,
        })
    }

    fn path_cfg(&self, freq: f64, adjacent_layers_only: bool) -> PathConfig {
        PathConfig {
            max_ill: self.cfg.max_ill,
            soft_ill_margin: self.cfg.soft_ill_margin,
            max_switch_size: self.cfg.library.switch.max_size_for_frequency(freq),
            soft_switch_margin: self.cfg.soft_switch_margin,
            adjacent_layers_only,
            frequency_mhz: freq,
            deadlock_retries: DEADLOCK_RETRIES,
        }
    }

    fn phase1_sweep(&self) -> Vec<Sweep> {
        self.switch_counts()
            .into_iter()
            .map(Sweep::SwitchCount)
            .collect()
    }

    /// The swept Phase-1 switch counts (frequency-independent).
    fn switch_counts(&self) -> Vec<usize> {
        let n = self.soc.core_count();
        let (lo, hi) = self
            .cfg
            .switch_count_range
            .map_or((1, n), |(lo, hi)| (lo.max(1), hi.min(n)));
        (lo..=hi)
            .step_by(self.cfg.switch_count_step.max(1))
            .collect()
    }

    fn phase2_sweep(&self, freq: f64) -> Vec<Sweep> {
        let max_sw = self.cfg.library.switch.max_size_for_frequency(freq);
        let max_inc = phase2::max_increment(self.soc, max_sw);
        let (lo, hi) = self
            .cfg
            .switch_count_range
            .map_or((0, max_inc), |(lo, hi)| (lo, max_inc.min(hi)));
        if lo > hi {
            return Vec::new();
        }
        (lo..=hi)
            .step_by(self.cfg.switch_count_step.max(1))
            .map(Sweep::Increment)
            .collect()
    }

    /// Builds the Phase-1 seed chain and the placement-LP seed bank inside
    /// a `warmup` span.
    pub fn warm_up(&self, tr: &mut Tracer, c: &mut Counters) -> Warm {
        let span = tr.enter("warmup");
        let cfg = self.cfg;
        let mut cache = PartitionCache::new();
        let mut seeds = Vec::new();
        let mut prev: Option<Vec<u32>> = None;
        for count in self.switch_counts() {
            c.phase1_calls += 1;
            let result = tr.span("phase1", || {
                phase1::connectivity_cached(
                    self.graph,
                    self.soc,
                    count,
                    cfg.alpha,
                    None,
                    cfg.theta_max,
                    cfg.rng_seed,
                    prev.as_deref(),
                    &mut cache,
                )
            });
            let seed = result.ok().map(|conn| {
                let assignment: Vec<u32> = conn.core_attach.iter().map(|&a| a as u32).collect();
                prev = Some(assignment.clone());
                Seed { conn, assignment }
            });
            seeds.push((count, seed));
        }
        c.partition += cache.stats;

        let mut bank = PlacementSeeds::new();
        if let Some(&freq) = self.frequencies.first() {
            let mut alloc = PathAllocator::new();
            let mut placement = PlacementSolver::new();
            let path_cfg = self.path_cfg(freq, false);
            for (count, seed) in &seeds {
                let Some(seed) = seed else { continue };
                c.paths_calls += 1;
                let routed = tr.span("paths", || {
                    alloc.compute_paths(
                        self.graph,
                        &seed.conn.core_attach,
                        &seed.conn.switch_layer,
                        &seed.conn.est_positions,
                        &self.core_layers,
                        self.soc.layers,
                        &cfg.library,
                        &path_cfg,
                        cfg.alpha,
                    )
                });
                let Ok(mut topo) = routed else {
                    c.paths_failed += 1;
                    continue;
                };
                c.place_calls += 1;
                if tr
                    .span("place", || placement.place(&mut topo, self.soc, self.graph))
                    .is_ok()
                {
                    if let Some(s) = placement.export_seed(topo.switch_count()) {
                        bank.insert(*count, s);
                    }
                }
            }
            c.routing += alloc.stats();
            c.lp += placement.stats();
        }
        tr.exit(span);
        Warm {
            seeds,
            bank: Arc::new(bank),
        }
    }

    /// Replays the sweep proper: every frequency's Phase-1 candidates and,
    /// where they found nothing, the Phase-2 fallback. Returns the feasible
    /// points in candidate order.
    pub fn sweep(
        &self,
        warm: &Warm,
        tr: &mut Tracer,
        c: &mut Counters,
    ) -> Result<Vec<Point>, String> {
        let mut points = Vec::new();
        for &freq in &self.frequencies {
            let before = points.len();
            self.sweep_batch(freq, &self.phase1_sweep(), warm, tr, c, &mut points)?;
            if points.len() == before {
                self.sweep_batch(freq, &self.phase2_sweep(freq), warm, tr, c, &mut points)?;
            }
        }
        Ok(points)
    }

    /// One candidate batch with fresh per-batch scratch, as the engine's
    /// serial sweep keeps it.
    fn sweep_batch(
        &self,
        freq: f64,
        batch: &[Sweep],
        warm: &Warm,
        tr: &mut Tracer,
        c: &mut Counters,
        points: &mut Vec<Point>,
    ) -> Result<(), String> {
        let mut s = Scratch {
            alloc: PathAllocator::new(),
            cache: PartitionCache::new(),
            placement: PlacementSolver::new(),
        };
        s.placement.install_seeds(Arc::clone(&warm.bank));
        for &sweep in batch {
            let span = tr.enter("candidate");
            c.candidates += 1;
            s.placement.begin_candidate();
            let point = match sweep {
                Sweep::SwitchCount(k) => self.phase1_candidate(freq, k, warm, &mut s, tr, c)?,
                Sweep::Increment(inc) => self.phase2_candidate(freq, inc, &mut s, tr, c),
            };
            points.extend(point);
            tr.exit(span);
        }
        c.partition += s.cache.stats;
        c.routing += s.alloc.stats();
        c.lp += s.placement.stats();
        Ok(())
    }

    /// Algorithm 1 for one candidate: the base attempt from the warm-up's
    /// seed partition, then the θ escalation loop.
    fn phase1_candidate(
        &self,
        freq: f64,
        count: usize,
        warm: &Warm,
        s: &mut Scratch,
        tr: &mut Tracer,
        c: &mut Counters,
    ) -> Result<Option<Point>, String> {
        let cfg = self.cfg;
        let seed = match warm.seeds.iter().find(|(k, _)| *k == count) {
            Some((_, Some(seed))) => seed,
            Some((_, None)) => {
                c.rejected += 1;
                return Ok(None);
            }
            None => return Err(format!("no Phase-1 seed for {count} switches")),
        };
        s.cache.stats.base_cache_hits += 1;
        if let Some(p) = self.attempt(freq, &seed.conn, false, s, tr, c) {
            return Ok(Some(p));
        }
        let mut warm_assignment = seed.assignment.clone();
        let mut theta = cfg.theta_min;
        while theta <= cfg.theta_max + 1e-9 {
            c.theta_steps += 1;
            c.phase1_calls += 1;
            let result = tr.span("phase1", || {
                phase1::connectivity_cached(
                    self.graph,
                    self.soc,
                    count,
                    cfg.alpha,
                    Some(theta),
                    cfg.theta_max,
                    cfg.rng_seed,
                    Some(&warm_assignment),
                    &mut s.cache,
                )
            });
            if let Ok(conn) = result {
                warm_assignment.clear();
                warm_assignment.extend(conn.core_attach.iter().map(|&a| a as u32));
                if let Some(p) = self.attempt(freq, &conn, false, s, tr, c) {
                    return Ok(Some(p));
                }
            }
            theta += cfg.theta_step;
        }
        Ok(None)
    }

    /// Algorithm 2 for one candidate: one layer-by-layer attempt.
    fn phase2_candidate(
        &self,
        freq: f64,
        increment: usize,
        s: &mut Scratch,
        tr: &mut Tracer,
        c: &mut Counters,
    ) -> Option<Point> {
        let cfg = self.cfg;
        let max_sw = cfg.library.switch.max_size_for_frequency(freq);
        c.phase2_calls += 1;
        let result = tr.span("phase2", || {
            phase2::connectivity(
                self.graph,
                self.soc,
                increment,
                max_sw,
                cfg.alpha,
                cfg.rng_seed,
            )
        });
        match result {
            Ok(conn) => self.attempt(freq, &conn, true, s, tr, c),
            Err(_) => {
                c.rejected += 1;
                None
            }
        }
    }

    /// One attempt: route (with indirect-switch rounds), place, lay out,
    /// evaluate and screen. A failed attempt counts as rejected.
    fn attempt(
        &self,
        freq: f64,
        conn: &Connectivity,
        adjacent_only: bool,
        s: &mut Scratch,
        tr: &mut Tracer,
        c: &mut Counters,
    ) -> Option<Point> {
        c.attempts += 1;
        let point = self.try_attempt(freq, conn, adjacent_only, s, tr, c);
        if point.is_none() {
            c.rejected += 1;
        }
        point
    }

    fn try_attempt(
        &self,
        freq: f64,
        conn: &Connectivity,
        adjacent_only: bool,
        s: &mut Scratch,
        tr: &mut Tracer,
        c: &mut Counters,
    ) -> Option<Point> {
        let cfg = self.cfg;
        let soc = self.soc;
        let path_cfg = self.path_cfg(freq, adjacent_only);
        let mut switch_layer = conn.switch_layer.clone();
        let mut est_pos = conn.est_positions.clone();
        let mut indirect: Vec<usize> = Vec::new();
        let mut topo = None;
        for round in 0..=cfg.indirect_switch_rounds {
            c.paths_calls += 1;
            let routed = tr.span("paths", || {
                s.alloc.compute_paths(
                    self.graph,
                    &conn.core_attach,
                    &switch_layer,
                    &est_pos,
                    &self.core_layers,
                    soc.layers,
                    &cfg.library,
                    &path_cfg,
                    cfg.alpha,
                )
            });
            match routed {
                Ok(mut t) => {
                    t.indirect_switches = indirect.clone();
                    topo = Some(t);
                    break;
                }
                Err(PathError::NoRoute { .. } | PathError::DeadlockUnavoidable { .. })
                    if round < cfg.indirect_switch_rounds =>
                {
                    c.paths_failed += 1;
                    c.indirect_rounds += 1;
                    for layer in 0..soc.layers {
                        let members = soc.cores_in_layer(layer);
                        if members.is_empty() {
                            continue;
                        }
                        let (mut cx, mut cy) = (0.0, 0.0);
                        for &m in &members {
                            let (x, y) = soc.cores[m].center();
                            cx += x;
                            cy += y;
                        }
                        indirect.push(switch_layer.len());
                        switch_layer.push(layer);
                        est_pos.push((cx / members.len() as f64, cy / members.len() as f64));
                    }
                }
                Err(_) => {
                    c.paths_failed += 1;
                    return None;
                }
            }
        }
        let mut topo = topo?;

        c.place_calls += 1;
        tr.span("place", || s.placement.place(&mut topo, soc, self.graph))
            .ok()?;

        let layout = if cfg.run_layout {
            c.layout_calls += 1;
            Some(if cfg.anneal_replicas >= 1 {
                let temper = TemperConfig {
                    base: AnnealConfig::default()
                        .with_iterations(TEMPERED_LAYOUT_ITERATIONS)
                        .with_seed(cfg.rng_seed),
                    replicas: cfg.anneal_replicas,
                    threads: if cfg.parallelism.effective_jobs() > 1 {
                        1
                    } else {
                        0
                    },
                    ..TemperConfig::default()
                };
                let (l, stats) = tr.span("layout", || {
                    layout_design_tempered(&mut topo, soc, &cfg.library, &temper)
                });
                c.anneal += stats;
                l
            } else {
                tr.span("layout", || {
                    layout_design(&mut topo, soc, &cfg.library, cfg.layout_search_radius_mm)
                })
            })
        } else {
            None
        };

        c.eval_calls += 1;
        let metrics = tr.span("eval", || {
            evaluate(&topo, soc, self.graph, &cfg.library, freq)
        });
        let max_sw = cfg.library.switch.max_size_for_frequency(freq);
        let feasible = metrics.is_finite()
            && metrics.max_inter_layer_links() <= cfg.max_ill
            && (0..topo.switch_count()).all(|s| topo.switch_size(s) <= max_sw)
            && metrics.meets_latency();
        if !feasible {
            c.eval_rejects += 1;
            return None;
        }
        Some(Point {
            topology: topo,
            metrics,
            layout,
        })
    }
}

/// The routing workspace, partition cache and placement solver one sweep
/// batch reuses.
struct Scratch {
    alloc: PathAllocator,
    cache: PartitionCache,
    placement: PlacementSolver,
}
