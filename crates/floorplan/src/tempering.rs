//! Deterministic parallel tempering (replica exchange) over the
//! sequence-pair annealer.
//!
//! N replicas run the same annealing schedule at staggered temperatures:
//! replica `i` starts on ladder rung `i`, an effective temperature of
//! `base_temp · stagger^i`. Every `swap_interval` iterations all replicas
//! meet at a barrier and adjacent rungs attempt to exchange temperatures
//! with the standard replica-exchange acceptance probability
//! `min(1, exp((E_cold − E_hot)·(1/T_cold − 1/T_hot)))` — hot replicas
//! explore, cold replicas refine, and good configurations migrate down
//! the ladder.
//!
//! # Determinism contract
//!
//! The final floorplan is a *pure function of the configuration*
//! (`TemperConfig`, which includes the replica count) — bit-for-bit
//! independent of the thread count and OS scheduling:
//!
//! * Replica `i` owns its own `StdRng`, seeded `rng_seed + i`, and its own
//!   incremental pack/net-cache state. No replica ever reads another
//!   replica's RNG or placement.
//! * Replicas are stepped on lanes: lane 0 is the calling thread, the
//!   others are scoped threads. Each swap round costs one barrier. Every
//!   replica publishes its energy before the barrier; after it, *every*
//!   lane replays the same round from the published energies with its own
//!   copy of the swap RNG (seeded from `rng_seed` alone) and of the rung
//!   holders, and moves its own replicas to their new rungs. The replays
//!   see the same inputs and make the same decisions, which never depend
//!   on which lane stepped which replica or in what order lanes reached
//!   the barrier.
//! * The winner is the lowest best-seen cost, ties broken by the lowest
//!   replica index — a strict-less scan in index order.
//!
//! `threads` therefore only chooses how replicas are multiplexed onto
//! lanes. With one replica there is no exchange partner, so
//! `TemperConfig::with_replicas(1)` is exactly the serial
//! [`anneal`](crate::anneal) result for the same `AnnealConfig`: chunked
//! stepping equals one long run.

use crate::annealer::{AnnealConfig, ConstrainedInput, IdealTarget, ReplicaState};
use crate::geometry::{Block, Floorplan, Net};
use crate::seqpair::SequencePair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// Configuration of a parallel-tempering run.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperConfig {
    /// The per-replica annealing configuration (iterations are *per
    /// replica*; the aggregate move budget is `iterations · replicas`).
    pub base: AnnealConfig,
    /// Number of replicas (ladder rungs). `1` degenerates to the serial
    /// annealer; values are clamped to at least 1.
    pub replicas: usize,
    /// Iterations each replica runs between swap rounds (clamped to at
    /// least 1).
    pub swap_interval: u32,
    /// Temperature ratio between adjacent ladder rungs (> 1); rung `i`
    /// anneals at `stagger^i` times the base schedule.
    pub stagger: f64,
    /// Lanes to multiplex replicas onto: `0` means one lane per replica.
    /// Lane 0 runs on the calling thread, so a run spawns `lanes − 1`
    /// threads. Scheduling only — never affects the result.
    pub threads: usize,
}

impl Default for TemperConfig {
    fn default() -> Self {
        Self {
            base: AnnealConfig::default(),
            replicas: 4,
            swap_interval: 500,
            stagger: 1.6,
            threads: 0,
        }
    }
}

impl TemperConfig {
    /// Overrides the replica count (builder style).
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(1);
        self
    }

    /// Overrides the lane budget (builder style). `0` restores one lane
    /// per replica.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the RNG seed of the base schedule (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base.rng_seed = seed;
        self
    }

    /// Overrides the per-replica iteration budget (builder style).
    #[must_use]
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        self.base = self.base.with_iterations(iterations);
        self
    }
}

/// Counters from a tempered run — scheduling-independent, like the result.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TemperStats {
    /// Replicas that ran.
    pub replicas: usize,
    /// Adjacent-rung exchanges attempted across all swap rounds.
    pub swap_attempts: u64,
    /// Exchanges accepted.
    pub swap_accepts: u64,
    /// Index of the replica that produced the returned floorplan.
    pub best_replica: usize,
    /// Its best (internal annealing) cost.
    pub best_cost: f64,
    /// Aggregate move budget spent: `iterations · replicas`.
    pub iterations_total: u64,
}

impl TemperStats {
    /// Fraction of attempted exchanges that were accepted.
    #[must_use]
    pub fn swap_acceptance(&self) -> f64 {
        if self.swap_attempts == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.swap_accepts as f64 / self.swap_attempts as f64
            }
        }
    }
}

/// Tempered counterpart of [`anneal`](crate::anneal): floorplans `blocks`
/// minimizing `area + λ·HPWL(nets)` with `cfg.replicas` exchange-coupled
/// chains. The crate-level docs spell out the determinism contract.
///
/// # Panics
///
/// Panics if any net references a block index out of range.
#[must_use]
pub fn anneal_tempered(blocks: &[Block], nets: &[Net], cfg: &TemperConfig) -> Floorplan {
    anneal_tempered_with_stats(blocks, nets, cfg).0
}

/// Like [`anneal_tempered`], additionally returning the run's
/// [`TemperStats`].
///
/// # Panics
///
/// Panics if any net references a block index out of range.
#[must_use]
pub fn anneal_tempered_with_stats(
    blocks: &[Block],
    nets: &[Net],
    cfg: &TemperConfig,
) -> (Floorplan, TemperStats) {
    if blocks.is_empty() {
        return (Floorplan::default(), TemperStats::default());
    }
    for net in nets {
        for &p in &net.pins {
            assert!(p < blocks.len(), "net references block {p} out of range");
        }
    }
    let movable: Vec<bool> = vec![true; blocks.len()];
    run_tempered(blocks, nets, &movable, None, SequencePair::identity(blocks.len()), cfg)
}

/// Tempered counterpart of [`anneal_constrained`](crate::anneal_constrained):
/// keeps the cores' relative order intact while inserting NoC components,
/// with `cfg.replicas` exchange-coupled chains.
///
/// # Panics
///
/// Panics if the seed sequence pair length disagrees with `blocks`.
#[must_use]
pub fn anneal_tempered_constrained(
    input: &ConstrainedInput,
    nets: &[Net],
    cfg: &TemperConfig,
) -> Floorplan {
    anneal_tempered_constrained_with_stats(input, nets, cfg).0
}

/// Like [`anneal_tempered_constrained`], additionally returning the run's
/// [`TemperStats`].
///
/// # Panics
///
/// Panics if the seed sequence pair length disagrees with `blocks`.
#[must_use]
pub fn anneal_tempered_constrained_with_stats(
    input: &ConstrainedInput,
    nets: &[Net],
    cfg: &TemperConfig,
) -> (Floorplan, TemperStats) {
    assert_eq!(input.seed.len(), input.blocks.len(), "seed/blocks length mismatch");
    if input.blocks.is_empty() {
        return (Floorplan::default(), TemperStats::default());
    }
    let movable: Vec<bool> =
        (0..input.blocks.len()).map(|i| i >= input.fixed_order_count).collect();
    run_tempered(&input.blocks, nets, &movable, Some(&input.ideal), input.seed.clone(), cfg)
}

/// Ladder multiplier of rung `k`.
fn rung(stagger: f64, k: usize) -> f64 {
    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
    stagger.powi(k as i32)
}

/// Splits the per-replica budget into swap-round chunks: full
/// `swap_interval` chunks plus a final remainder.
fn round_schedule(iterations: u32, swap_interval: u32) -> Vec<u32> {
    let mut schedule = Vec::new();
    let mut left = iterations;
    while left > swap_interval {
        schedule.push(swap_interval);
        left -= swap_interval;
    }
    schedule.push(left);
    schedule
}

fn run_tempered(
    blocks: &[Block],
    nets: &[Net],
    movable: &[bool],
    ideal: Option<&[IdealTarget]>,
    seed_sp: SequencePair,
    cfg: &TemperConfig,
) -> (Floorplan, TemperStats) {
    let r = cfg.replicas.max(1);
    let stagger = if cfg.stagger > 1.0 { cfg.stagger } else { TemperConfig::default().stagger };
    let mut replicas: Vec<ReplicaState<'_>> = (0..r)
        .map(|i| {
            ReplicaState::new(
                blocks,
                nets,
                movable,
                ideal,
                seed_sp.clone(),
                &cfg.base,
                cfg.base.rng_seed.wrapping_add(i as u64),
                rung(stagger, i),
            )
        })
        .collect();

    let threads = if cfg.threads == 0 { r } else { cfg.threads.clamp(1, r) };
    let schedule = round_schedule(cfg.base.iterations, cfg.swap_interval.max(1));
    // Published per-replica energies (f64 bits), double-buffered by round
    // parity: a lane writes round k+2's values only after every lane has
    // passed barrier k+1, so no lane is still reading them. `Relaxed`
    // suffices: `Barrier::wait` synchronizes through its mutex, so every
    // store before it happens-before every load after it.
    let energies: [Vec<AtomicU64>; 2] =
        [0, 1].map(|_| (0..r).map(|_| AtomicU64::new(0)).collect());
    let barrier = Barrier::new(threads);
    // Decorrelate the swap stream from the replicas' move streams
    // (splitmix of the base seed with an odd constant).
    let swap_seed = cfg.base.rng_seed ^ 0x9E37_79B9_7F4A_7C15;

    // One lane's whole run. After each round's barrier the lane replays
    // the swap round with its own copies of the swap RNG and the rung
    // holders, then moves its own replicas to their new rungs. Every lane
    // makes the same decisions, so the swap counters are the same on all.
    let run_lane = |mut lane: Vec<(usize, &mut ReplicaState<'_>)>| {
        let mut rng = StdRng::seed_from_u64(swap_seed);
        let mut holders: Vec<usize> = (0..r).collect();
        let (mut attempts, mut accepts) = (0u64, 0u64);
        for (round, &chunk) in schedule.iter().enumerate() {
            let published = &energies[round % 2];
            for (i, rep) in &mut lane {
                rep.step(chunk);
                published[*i].store(rep.cur_cost().to_bits(), Ordering::Relaxed);
            }
            barrier.wait();
            // Every replica shares the base temperature; lanes are never
            // empty (`threads <= r`).
            let base_temp = lane.first().map_or(0.0, |(_, rep)| rep.base_temp());
            swap_round(
                round, &mut rng, &mut holders, published, base_temp, stagger, &mut attempts,
                &mut accepts,
            );
            for (k, &holder) in holders.iter().enumerate() {
                if let Some((_, rep)) = lane.iter_mut().find(|(i, _)| *i == holder) {
                    rep.set_ladder(rung(stagger, k));
                }
            }
        }
        (attempts, accepts)
    };

    // Static round-robin assignment of replicas to lanes; lane 0 runs on
    // the calling thread. Any static assignment would do: results never
    // depend on which lane steps which replica, only the wall-clock does.
    let mut lanes: Vec<Vec<(usize, &mut ReplicaState<'_>)>> =
        (0..threads).map(|_| Vec::new()).collect();
    for (i, rep) in replicas.iter_mut().enumerate() {
        lanes[i % threads].push((i, rep));
    }
    let mut lanes = lanes.into_iter();
    let first = lanes.next().unwrap_or_default();
    let (swap_attempts, swap_accepts) = std::thread::scope(|s| {
        let run_lane = &run_lane;
        for lane in lanes {
            s.spawn(move || run_lane(lane));
        }
        run_lane(first)
    });

    // Deterministic reduction: lowest best cost wins, ties to the lowest
    // replica index (strict-less scan in index order).
    let mut best = 0usize;
    for i in 1..r {
        if replicas[i].best_cost() < replicas[best].best_cost() {
            best = i;
        }
    }
    let stats = TemperStats {
        replicas: r,
        swap_attempts,
        swap_accepts,
        best_replica: best,
        best_cost: replicas[best].best_cost(),
        iterations_total: u64::from(cfg.base.iterations) * r as u64,
    };
    (replicas[best].build_best(), stats)
}

/// One replica-exchange round, replayed identically by every lane after
/// the round's barrier. Rung pairs `(k, k+1)` are visited in ladder
/// order — even-based pairs on even rounds, odd-based on odd rounds — and
/// each exchange is accepted with `min(1, exp((E_cold − E_hot)·(1/T_cold −
/// 1/T_hot)))`. `holders[k]` tracks which replica currently anneals on
/// rung `k`, so pairing stays adjacent-in-temperature as assignments
/// migrate.
// sf: hot-path
#[allow(clippy::too_many_arguments)]
fn swap_round(
    round: usize,
    rng: &mut StdRng,
    holders: &mut [usize],
    energies: &[AtomicU64],
    base_temp: f64,
    stagger: f64,
    attempts: &mut u64,
    accepts: &mut u64,
) {
    let r = holders.len();
    let mut k = round % 2;
    while k + 1 < r {
        let a = holders[k]; // colder rung
        let b = holders[k + 1]; // hotter rung
        let e_a = f64::from_bits(energies[a].load(Ordering::Relaxed));
        let e_b = f64::from_bits(energies[b].load(Ordering::Relaxed));
        let t_a = base_temp * rung(stagger, k);
        let t_b = base_temp * rung(stagger, k + 1);
        let d = (e_a - e_b) * (1.0 / t_a - 1.0 / t_b);
        *attempts += 1;
        if d >= 0.0 || rng.gen_bool(d.exp().clamp(0.0, 1.0)) {
            holders.swap(k, k + 1);
            *accepts += 1;
        }
        k += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anneal;
    use crate::geometry::PlacedBlock;

    fn blocks(n: usize) -> Vec<Block> {
        (0..n)
            .map(|i| {
                let w = 1.0 + f64::from(u32::try_from(i % 5).unwrap()) * 0.5;
                let h = 1.0 + f64::from(u32::try_from(i % 3).unwrap()) * 0.7;
                Block::new(format!("b{i}"), w, h)
            })
            .collect()
    }

    fn ring_nets(n: usize) -> Vec<Net> {
        (0..n).map(|i| Net::two_pin(i, (i + 7) % n, 1.0)).collect()
    }

    #[test]
    fn single_replica_matches_serial_annealer_bit_for_bit() {
        let blocks = blocks(12);
        let nets = ring_nets(12);
        let base = AnnealConfig::default().with_iterations(4000).with_seed(42);
        let serial = anneal(&blocks, &nets, &base);
        let tempered = anneal_tempered(
            &blocks,
            &nets,
            &TemperConfig { base, ..TemperConfig::default() }.with_replicas(1),
        );
        assert_eq!(serial, tempered);
    }

    #[test]
    fn result_is_invariant_under_thread_count() {
        let blocks = blocks(14);
        let nets = ring_nets(14);
        let cfg = TemperConfig::default().with_iterations(3000).with_seed(7).with_replicas(4);
        let reference = anneal_tempered(&blocks, &nets, &cfg);
        for threads in [1, 2, 3, 4] {
            let plan = anneal_tempered(&blocks, &nets, &cfg.clone().with_threads(threads));
            assert_eq!(reference, plan, "thread count {threads} changed the floorplan");
        }
    }

    #[test]
    fn stats_are_deterministic_and_swaps_happen() {
        let blocks = blocks(14);
        let nets = ring_nets(14);
        let cfg = TemperConfig::default().with_iterations(4000).with_seed(11).with_replicas(4);
        let (_, a) = anneal_tempered_with_stats(&blocks, &nets, &cfg);
        let (_, b) = anneal_tempered_with_stats(&blocks, &nets, &cfg.clone().with_threads(2));
        assert_eq!(a, b, "stats must be scheduling-independent");
        assert!(a.swap_attempts > 0, "no exchanges attempted");
        assert!(a.swap_accepts <= a.swap_attempts);
        assert_eq!(a.iterations_total, 4 * 4000);
        assert!((0.0..=1.0).contains(&a.swap_acceptance()));
    }

    #[test]
    fn tempered_result_is_legal() {
        let blocks = blocks(10);
        let nets = ring_nets(10);
        let cfg = TemperConfig::default().with_iterations(3000).with_replicas(3);
        let plan = anneal_tempered(&blocks, &nets, &cfg);
        assert!(plan.overlapping_pair().is_none());
        assert_eq!(plan.blocks.len(), 10);
    }

    #[test]
    fn empty_input_and_degenerate_configs() {
        assert_eq!(anneal_tempered(&[], &[], &TemperConfig::default()).blocks.len(), 0);
        // replicas = 0 clamps to 1.
        let one = anneal_tempered(
            &[Block::new("solo", 2.0, 2.0)],
            &[],
            &TemperConfig { replicas: 0, ..TemperConfig::default() },
        );
        assert_eq!(one.blocks.len(), 1);
    }

    #[test]
    fn constrained_tempering_preserves_core_relative_order() {
        let cores = vec![
            PlacedBlock::new(Block::new("c0", 2.0, 2.0), 0.0, 0.0),
            PlacedBlock::new(Block::new("c1", 2.0, 2.0), 2.5, 0.0),
            PlacedBlock::new(Block::new("c2", 2.0, 2.0), 5.0, 0.0),
        ];
        let mut all: Vec<Block> = cores.iter().map(|p| p.block.clone()).collect();
        all.push(Block::new("sw0", 0.5, 0.5));
        all.push(Block::new("sw1", 0.5, 0.5));
        let mut placed = cores.clone();
        placed.push(PlacedBlock::new(all[3].clone(), 1.0, 2.5));
        placed.push(PlacedBlock::new(all[4].clone(), 4.0, 2.5));
        let input = ConstrainedInput {
            seed: SequencePair::from_placement(&placed),
            blocks: all,
            ideal: vec![None, None, None, Some((1.2, 2.2, 2.0)), Some((4.2, 2.2, 2.0))],
            fixed_order_count: 3,
        };
        let cfg = TemperConfig::default().with_iterations(3000).with_replicas(3);
        let (plan, stats) = anneal_tempered_constrained_with_stats(&input, &[], &cfg);
        assert!(plan.overlapping_pair().is_none());
        let x0 = plan.blocks[0].center().0;
        let x1 = plan.blocks[1].center().0;
        let x2 = plan.blocks[2].center().0;
        assert!(x0 < x1 && x1 < x2, "core order broken: {x0} {x1} {x2}");
        assert_eq!(stats.replicas, 3);
        // Thread-count invariance holds for the constrained variant too.
        let serial_sched = anneal_tempered_constrained(&input, &[], &cfg.clone().with_threads(1));
        assert_eq!(plan, serial_sched);
    }

    #[test]
    fn round_schedule_covers_the_budget_exactly() {
        for (iters, interval) in [(3000u32, 500u32), (999, 1000), (1, 1), (1000, 333)] {
            let s = round_schedule(iters, interval);
            assert_eq!(s.iter().sum::<u32>(), iters, "{iters}/{interval}");
            assert!(s.iter().all(|&c| c >= 1 && c <= interval), "{s:?}");
        }
    }
}
