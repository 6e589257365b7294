//! Simulated-annealing floorplanner over sequence pairs.

use crate::geometry::{Block, Floorplan, Net};
use crate::seqpair::{PackScratch, SequencePair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-block attraction target: `(x, y, weight)` — the block's ideal center
/// and the cost per mm of Manhattan deviation from it — or `None` for
/// blocks that are free to land anywhere.
pub type IdealTarget = Option<(f64, f64, f64)>;

/// Configuration of a simulated-annealing floorplanning run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealConfig {
    /// Total accepted/rejected move attempts.
    pub iterations: u32,
    /// Weight of wirelength relative to area in the cost function.
    pub lambda_wirelength: f64,
    /// Weight of the aspect-ratio penalty `area·(max(w,h)/min(w,h) − 1)`.
    /// Many block sets pack into minimal area as a degenerate strip; dies
    /// must stay near-square, so this defaults on.
    pub lambda_aspect: f64,
    /// RNG seed — identical seeds give identical floorplans.
    pub rng_seed: u64,
    /// Optional fixed outline `(width, height)`; exceeding it is penalized
    /// heavily (fixed-outline mode of Parquet-class tools).
    pub outline: Option<(f64, f64)>,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        Self {
            iterations: 30_000,
            lambda_wirelength: 0.35,
            lambda_aspect: 0.3,
            rng_seed: 0x5EED,
            outline: None,
        }
    }
}

impl AnnealConfig {
    /// Overrides the RNG seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Overrides the iteration budget (builder style).
    #[must_use]
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations.max(1);
        self
    }
}

/// Floorplans `blocks` minimizing `area + λ·HPWL(nets)`.
///
/// This is the "standard floorplanner" role of the flow: generating the
/// initial core placement per layer (paper §VIII-A obtains them "using
/// existing tools", i.e. Parquet, with "the same objectives of minimizing
/// area and wire-length").
///
/// # Panics
///
/// Panics if any net references a block index out of range.
#[must_use]
pub fn anneal(blocks: &[Block], nets: &[Net], cfg: &AnnealConfig) -> Floorplan {
    if blocks.is_empty() {
        return Floorplan::default();
    }
    for net in nets {
        for &p in &net.pins {
            assert!(p < blocks.len(), "net references block {p} out of range");
        }
    }
    let movable: Vec<bool> = vec![true; blocks.len()];
    run_sa(blocks, nets, &movable, None, cfg)
}

/// Like [`anneal`], but additionally pulls selected blocks towards target
/// positions: `targets[i] = Some((x, y, weight))` charges `weight` per
/// millimetre of Manhattan deviation of block `i`'s center from `(x, y)`.
///
/// Used to align a layer's floorplan under the cores it communicates with
/// in already-placed layers — the paper's "highly communicating cores are
/// placed one above the other" policy.
///
/// # Panics
///
/// Panics if `targets.len() != blocks.len()` or a net references a block
/// out of range.
#[must_use]
pub fn anneal_toward(
    blocks: &[Block],
    nets: &[Net],
    targets: &[IdealTarget],
    cfg: &AnnealConfig,
) -> Floorplan {
    assert_eq!(targets.len(), blocks.len(), "one target slot per block");
    if blocks.is_empty() {
        return Floorplan::default();
    }
    for net in nets {
        for &p in &net.pins {
            assert!(p < blocks.len(), "net references block {p} out of range");
        }
    }
    let movable: Vec<bool> = vec![true; blocks.len()];
    run_sa(blocks, nets, &movable, Some(targets), cfg)
}

/// Input to [`anneal_constrained`]: an existing placement plus component
/// ideal positions.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstrainedInput {
    /// All blocks; indices `0..fixed_order_count` are cores whose relative
    /// order must be preserved, the rest are NoC components free to move.
    pub blocks: Vec<Block>,
    /// Seed sequence pair (typically [`SequencePair::from_placement`] of the
    /// input floorplan with components appended).
    pub seed: SequencePair,
    /// `ideal[i]` is the LP-computed target center for block `i` with a
    /// penalty weight (cost per mm of Manhattan deviation), if any.
    pub ideal: Vec<IdealTarget>,
    /// Number of leading blocks that are order-frozen cores.
    pub fixed_order_count: usize,
}

/// The §VIII-D baseline: a standard annealer constrained to keep the cores'
/// relative order intact while inserting NoC components, minimizing area and
/// the components' displacement from their ideal positions.
///
/// # Panics
///
/// Panics if the seed sequence pair length disagrees with `blocks`.
#[must_use]
pub fn anneal_constrained(input: &ConstrainedInput, nets: &[Net], cfg: &AnnealConfig) -> Floorplan {
    assert_eq!(input.seed.len(), input.blocks.len(), "seed/blocks length mismatch");
    let movable: Vec<bool> =
        (0..input.blocks.len()).map(|i| i >= input.fixed_order_count).collect();
    run_sa_seeded(
        &input.blocks,
        nets,
        &movable,
        Some(&input.ideal),
        input.seed.clone(),
        cfg,
    )
}

fn run_sa(
    blocks: &[Block],
    nets: &[Net],
    movable: &[bool],
    ideal: Option<&[IdealTarget]>,
    cfg: &AnnealConfig,
) -> Floorplan {
    run_sa_seeded(blocks, nets, movable, ideal, SequencePair::identity(blocks.len()), cfg)
}

/// Cached per-net weighted-HPWL contributions with delta updates.
///
/// The packed placement changes for many blocks on some moves and for few
/// on others; only nets incident to a block whose position or effective
/// size changed are re-measured. The *total* is always re-summed over the
/// cached per-net values in net order, so it is bit-identical to a
/// from-scratch [`Floorplan::hpwl`] evaluation — the accept/reject
/// decisions (and thus the final floorplan for a given seed) cannot drift.
struct NetCache {
    /// `weight · HPWL` per net at the currently accepted placement.
    cost: Vec<f64>,
    /// Nets incident to each block.
    nets_of: Vec<Vec<usize>>,
    /// Per-net dirty stamp for the current candidate (generation-tagged).
    stamp: Vec<u32>,
    gen: u32,
    /// Undo log of `(net, previous value)` for the current candidate.
    undo: Vec<(usize, f64)>,
}

impl NetCache {
    fn new(n_blocks: usize, nets: &[Net]) -> Self {
        let mut nets_of = vec![Vec::new(); n_blocks];
        for (k, net) in nets.iter().enumerate() {
            for &p in &net.pins {
                if !nets_of[p].contains(&k) {
                    nets_of[p].push(k);
                }
            }
        }
        Self { cost: vec![0.0; nets.len()], nets_of, stamp: vec![0; nets.len()], gen: 0, undo: Vec::new() }
    }

    /// Net `k`'s weighted HPWL over block centers — the exact per-net term
    /// of [`Floorplan::hpwl`].
    // sf: hot-path
    fn measure(net: &Net, x: &[f64], y: &[f64], w: &[f64], h: &[f64]) -> f64 {
        if net.pins.len() < 2 {
            return 0.0;
        }
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for &p in &net.pins {
            let cx = x[p] + w[p] / 2.0;
            let cy = y[p] + h[p] / 2.0;
            min_x = min_x.min(cx);
            max_x = max_x.max(cx);
            min_y = min_y.min(cy);
            max_y = max_y.max(cy);
        }
        net.weight * ((max_x - min_x) + (max_y - min_y))
    }

    fn rebuild_all(&mut self, nets: &[Net], x: &[f64], y: &[f64], w: &[f64], h: &[f64]) {
        for (k, net) in nets.iter().enumerate() {
            self.cost[k] = Self::measure(net, x, y, w, h);
        }
    }

    /// Re-measures every net incident to a moved block against the
    /// candidate placement, logging old values for [`Self::revert`].
    // sf: hot-path
    #[allow(clippy::too_many_arguments)]
    fn update_for_move(
        &mut self,
        moved: impl Iterator<Item = usize>,
        nets: &[Net],
        x: &[f64],
        y: &[f64],
        w: &[f64],
        h: &[f64],
    ) {
        self.gen += 1;
        self.undo.clear();
        for b in moved {
            for i in 0..self.nets_of[b].len() {
                let k = self.nets_of[b][i];
                if self.stamp[k] == self.gen {
                    continue;
                }
                self.stamp[k] = self.gen;
                self.undo.push((k, self.cost[k]));
                self.cost[k] = Self::measure(&nets[k], x, y, w, h);
            }
        }
    }

    /// Sum of the cached per-net values, in net order — bit-identical to a
    /// fresh `hpwl` accumulation.
    // sf: hot-path
    fn total(&self) -> f64 {
        let mut total = 0.0;
        for &c in &self.cost {
            total += c;
        }
        total
    }

    /// Rolls the last [`Self::update_for_move`] back (candidate rejected).
    // sf: hot-path
    fn revert(&mut self) {
        for &(k, old) in self.undo.iter().rev() {
            self.cost[k] = old;
        }
        self.undo.clear();
    }
}

/// One annealing move, recorded so a rejected candidate can be undone
/// in place instead of cloning the whole state up front.
enum Move {
    /// Reinsert in one permutation: `(pos-perm?, from, to)`.
    Perm(bool, usize, usize),
    /// Reinserts in both permutations, in application order.
    Both((usize, usize), (usize, usize)),
    /// Rotation flip of a block.
    Rot(usize),
}

fn run_sa_seeded(
    blocks: &[Block],
    nets: &[Net],
    movable: &[bool],
    ideal: Option<&[IdealTarget]>,
    seed_sp: SequencePair,
    cfg: &AnnealConfig,
) -> Floorplan {
    let mut replica = ReplicaState::new(blocks, nets, movable, ideal, seed_sp, cfg, cfg.rng_seed, 1.0);
    replica.step(cfg.iterations);
    replica.build_best()
}

/// One complete annealing chain: the sequence pair, its incremental
/// rank/pack/net-cache machinery, the accepted and best states, the RNG
/// and the temperature schedule.
///
/// The serial annealer builds exactly one of these and steps it for the
/// whole budget; [`crate::tempering`] builds N (one per replica, with a
/// per-replica RNG seed and a ladder temperature multiplier) and steps
/// them in barrier-synchronized chunks. Chunked stepping is bit-identical
/// to one big `step` call — the state carries everything across calls —
/// which is what makes single-replica tempering equal the serial annealer.
pub(crate) struct ReplicaState<'a> {
    blocks: &'a [Block],
    nets: &'a [Net],
    ideal: Option<&'a [IdealTarget]>,
    cfg: &'a AnnealConfig,
    /// Indices of blocks the moves may touch.
    movable_idx: Vec<usize>,
    sp: SequencePair,
    rotated: Vec<bool>,
    /// Sequence ranks (inverse permutations), maintained incrementally by
    /// `reinsert`/`undo_reinsert` instead of rebuilt per pack; they also
    /// replace the O(n) position scan when removing a block.
    pp: Vec<usize>,
    nn: Vec<usize>,
    /// Reusable packing scratch (candidate coordinates), the accepted
    /// state's coordinate arrays, and the rotation-effective dimensions —
    /// maintained incrementally (a rotation move swaps one block's pair,
    /// and a rejected move swaps it back) instead of being rebuilt from
    /// the block list on every pack. `step` never clones a `Floorplan`
    /// and never allocates after `new`.
    scratch: PackScratch,
    cache: NetCache,
    w: Vec<f64>,
    h: Vec<f64>,
    cur_x: Vec<f64>,
    cur_y: Vec<f64>,
    cur_cost: f64,
    best_cost: f64,
    best_sp: SequencePair,
    best_rot: Vec<bool>,
    rng: StdRng,
    /// Base temperature, decayed once per iteration. Identical across all
    /// replicas of a tempered run because every replica starts from the
    /// same seed placement and steps the same number of iterations.
    temp: f64,
    alpha: f64,
    /// Temperature-ladder multiplier: moves are accepted against
    /// `temp * ladder`. The serial annealer uses `1.0` (multiplying by
    /// `1.0` is exact in IEEE arithmetic, so the serial path is untouched);
    /// tempering swap rounds exchange these values between replicas.
    ladder: f64,
}

impl<'a> ReplicaState<'a> {
    /// Sets up a chain at `seed_sp` with its own RNG stream and ladder
    /// slot. The temperature schedule starts where ~an average move is
    /// accepted with p≈0.8 and decays geometrically to near-greedy over
    /// `cfg.iterations` steps.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        blocks: &'a [Block],
        nets: &'a [Net],
        movable: &[bool],
        ideal: Option<&'a [IdealTarget]>,
        seed_sp: SequencePair,
        cfg: &'a AnnealConfig,
        rng_seed: u64,
        ladder: f64,
    ) -> Self {
        let n = blocks.len();
        let rng = StdRng::seed_from_u64(rng_seed);
        let sp = seed_sp;
        let rotated = vec![false; n];
        let mut pp = vec![0usize; n];
        let mut nn = vec![0usize; n];
        for (i, &b) in sp.pos.iter().enumerate() {
            pp[b] = i;
        }
        for (i, &b) in sp.neg.iter().enumerate() {
            nn[b] = i;
        }

        let mut scratch = PackScratch::default();
        let mut cache = NetCache::new(n, nets);
        let mut w = vec![0.0f64; n];
        let mut h = vec![0.0f64; n];
        for b in 0..n {
            w[b] = blocks[b].width;
            h[b] = blocks[b].height;
        }
        let bb = sp.pack_coords_ranked(&pp, &nn, &w, &h, &mut scratch);
        cache.rebuild_all(nets, &scratch.x, &scratch.y, &w, &h);
        let cur_cost = cost_of(&scratch.x, &scratch.y, &w, &h, bb, cache.total(), ideal, cfg);
        let cur_x = scratch.x.clone();
        let cur_y = scratch.y.clone();

        let movable_idx: Vec<usize> = (0..n).filter(|&i| movable[i]).collect();
        let temp = (cur_cost * 0.1).max(1e-6);
        let t_final = temp * 1e-4;
        let alpha = (t_final / temp).powf(1.0 / f64::from(cfg.iterations.max(2)));

        Self {
            blocks,
            nets,
            ideal,
            cfg,
            movable_idx,
            best_cost: cur_cost,
            best_sp: sp.clone(),
            best_rot: rotated.clone(),
            sp,
            rotated,
            pp,
            nn,
            scratch,
            cache,
            w,
            h,
            cur_x,
            cur_y,
            cur_cost,
            rng,
            temp,
            alpha,
            ladder,
        }
    }

    /// Whether moves exist at all: degenerate inputs (fewer than two
    /// blocks, or nothing movable) stay at the seed placement.
    fn steppable(&self) -> bool {
        self.blocks.len() >= 2 && !self.movable_idx.is_empty()
    }

    /// Runs `iters` annealing iterations, advancing the RNG, the accepted
    /// state and the base temperature. Acceptance tests use the effective
    /// temperature `temp * ladder`. A run without nets skips the
    /// moved-block scan and the net cache: its wirelength term is `0.0`
    /// either way.
    // sf: hot-path
    pub(crate) fn step(&mut self, iters: u32) {
        if !self.steppable() {
            return;
        }
        let n = self.blocks.len();
        for _ in 0..iters {
            let m = self.movable_idx[self.rng.gen_range(0..self.movable_idx.len())];
            // Mutate in place, remembering how to undo.
            let mv = match self.rng.gen_range(0..4u8) {
                0 => {
                    let (f, t) = reinsert(&mut self.sp.pos, &mut self.pp, m, &mut self.rng);
                    Move::Perm(true, f, t)
                }
                1 => {
                    let (f, t) = reinsert(&mut self.sp.neg, &mut self.nn, m, &mut self.rng);
                    Move::Perm(false, f, t)
                }
                2 => {
                    let p = reinsert(&mut self.sp.pos, &mut self.pp, m, &mut self.rng);
                    let q = reinsert(&mut self.sp.neg, &mut self.nn, m, &mut self.rng);
                    Move::Both(p, q)
                }
                _ => {
                    if self.blocks[m].rotatable {
                        self.rotated[m] = !self.rotated[m];
                        std::mem::swap(&mut self.w[m], &mut self.h[m]);
                        Move::Rot(m)
                    } else {
                        let (f, t) = reinsert(&mut self.sp.pos, &mut self.pp, m, &mut self.rng);
                        Move::Perm(true, f, t)
                    }
                }
            };
            let bb =
                self.sp.pack_coords_ranked(&self.pp, &self.nn, &self.w, &self.h, &mut self.scratch);
            if !self.nets.is_empty() {
                // Only nets touching a block whose position or footprint
                // changed need re-measuring. The only block whose footprint
                // can differ from the accepted state is the one a rotation
                // move just flipped.
                let rotated_block = match mv {
                    Move::Rot(b) if self.w[b] != self.h[b] => Some(b),
                    _ => None,
                };
                let (scratch, cur_x, cur_y) = (&self.scratch, &self.cur_x, &self.cur_y);
                let moved = (0..n).filter(|&b| {
                    scratch.x[b] != cur_x[b]
                        || scratch.y[b] != cur_y[b]
                        || rotated_block == Some(b)
                });
                self.cache.update_for_move(
                    moved,
                    self.nets,
                    &scratch.x,
                    &scratch.y,
                    &self.w,
                    &self.h,
                );
            }
            let cand_cost = cost_of(
                &self.scratch.x,
                &self.scratch.y,
                &self.w,
                &self.h,
                bb,
                self.cache.total(),
                self.ideal,
                self.cfg,
            );

            let delta = cand_cost - self.cur_cost;
            let t_eff = self.temp * self.ladder;
            if delta <= 0.0 || self.rng.gen_bool((-delta / t_eff).exp().clamp(0.0, 1.0)) {
                // Accept: the candidate arrays become the current state.
                std::mem::swap(&mut self.cur_x, &mut self.scratch.x);
                std::mem::swap(&mut self.cur_y, &mut self.scratch.y);
                self.cur_cost = cand_cost;
                self.cache.undo.clear();
                if self.cur_cost < self.best_cost {
                    self.best_cost = self.cur_cost;
                    self.best_sp.pos.clone_from(&self.sp.pos);
                    self.best_sp.neg.clone_from(&self.sp.neg);
                    self.best_rot.clone_from(&self.rotated);
                }
            } else {
                // Reject: undo the move and the net-cache deltas.
                self.cache.revert();
                match mv {
                    Move::Perm(true, f, t) => undo_reinsert(&mut self.sp.pos, &mut self.pp, f, t),
                    Move::Perm(false, f, t) => undo_reinsert(&mut self.sp.neg, &mut self.nn, f, t),
                    Move::Both((pf, pt), (nf, nt)) => {
                        undo_reinsert(&mut self.sp.neg, &mut self.nn, nf, nt);
                        undo_reinsert(&mut self.sp.pos, &mut self.pp, pf, pt);
                    }
                    Move::Rot(b) => {
                        self.rotated[b] = !self.rotated[b];
                        std::mem::swap(&mut self.w[b], &mut self.h[b]);
                    }
                }
            }
            self.temp *= self.alpha;
        }
    }

    /// Cost of the currently *accepted* state (the replica's energy).
    pub(crate) fn cur_cost(&self) -> f64 {
        self.cur_cost
    }

    /// Cost of the best state seen so far.
    pub(crate) fn best_cost(&self) -> f64 {
        self.best_cost
    }

    /// The shared base temperature (before the ladder multiplier).
    pub(crate) fn base_temp(&self) -> f64 {
        self.temp
    }

    /// Reassigns the ladder multiplier (a tempering swap).
    pub(crate) fn set_ladder(&mut self, ladder: f64) {
        self.ladder = ladder;
    }

    /// Packs the best state seen into a finished floorplan.
    pub(crate) fn build_best(&self) -> Floorplan {
        self.best_sp.pack(self.blocks, &self.best_rot)
    }
}

/// The annealing cost of a packed placement — the same terms as the
/// original clone-per-iteration implementation: bounding-box area,
/// weighted wirelength, aspect penalty, fixed-outline penalty and
/// ideal-position deviation. The bounding box comes straight from the
/// packer (a packed placement is flush against both axes, so the box
/// equals the extent maxima the original min/max fold produced).
// sf: hot-path
#[allow(clippy::too_many_arguments)]
fn cost_of(
    x: &[f64],
    y: &[f64],
    w: &[f64],
    h: &[f64],
    (bw, bh): (f64, f64),
    hpwl_total: f64,
    ideal: Option<&[IdealTarget]>,
    cfg: &AnnealConfig,
) -> f64 {
    let area = bw * bh;

    let mut c = area + cfg.lambda_wirelength * hpwl_total;
    if bw > 0.0 && bh > 0.0 {
        let aspect = if bw > bh { bw / bh } else { bh / bw };
        c += cfg.lambda_aspect * area * (aspect - 1.0);
    }
    if let Some((ow, oh)) = cfg.outline {
        let over = (bw - ow).max(0.0) + (bh - oh).max(0.0);
        c += 50.0 * over * over + 100.0 * over;
    }
    if let Some(targets) = ideal {
        for (b, t) in targets.iter().enumerate() {
            if let Some((tx, ty, weight)) = t {
                let cx = x[b] + w[b] / 2.0;
                let cy = y[b] + h[b] / 2.0;
                c += weight * ((cx - tx).abs() + (cy - ty).abs());
            }
        }
    }
    c
}

/// Removes block `b` from the permutation and reinserts it at a random
/// position — a move that preserves the relative order of all other blocks,
/// which is what keeps the cores' arrangement intact in constrained mode.
/// Returns `(from, to)` so the move can be undone without cloning. `ranks`
/// is the permutation's inverse: it locates `b` without a scan and is
/// patched up for the shifted range afterwards.
// sf: hot-path
fn reinsert(
    perm: &mut Vec<usize>,
    ranks: &mut [usize],
    b: usize,
    rng: &mut StdRng,
) -> (usize, usize) {
    let from = ranks[b];
    debug_assert_eq!(perm[from], b, "stale rank for block {b}");
    perm.remove(from);
    let to = rng.gen_range(0..=perm.len());
    perm.insert(to, b);
    for i in from.min(to)..=from.max(to) {
        ranks[perm[i]] = i;
    }
    (from, to)
}

/// Inverse of [`reinsert`]: the block sits at `to`; put it back at `from`.
// sf: hot-path
fn undo_reinsert(perm: &mut Vec<usize>, ranks: &mut [usize], from: usize, to: usize) {
    let b = perm.remove(to);
    perm.insert(from, b);
    for i in from.min(to)..=from.max(to) {
        ranks[perm[i]] = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::PlacedBlock;

    fn blocks_mixed() -> Vec<Block> {
        vec![
            Block::new("a", 2.0, 3.0),
            Block::new("b", 3.0, 2.0),
            Block::new("c", 1.0, 1.0),
            Block::new("d", 2.0, 2.0),
            Block::new("e", 1.0, 2.0),
            Block::new("f", 2.0, 1.0),
        ]
    }

    #[test]
    fn result_is_legal_and_reasonably_tight() {
        let blocks = blocks_mixed();
        let plan = anneal(&blocks, &[], &AnnealConfig::default().with_iterations(8000));
        assert!(plan.overlapping_pair().is_none());
        let cell: f64 = plan.cell_area();
        assert!(plan.area() <= 2.0 * cell, "area {} vs cells {}", plan.area(), cell);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let blocks = blocks_mixed();
        let cfg = AnnealConfig::default().with_iterations(2000).with_seed(42);
        let a = anneal(&blocks, &[], &cfg);
        let b = anneal(&blocks, &[], &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn wirelength_objective_pulls_connected_blocks_together() {
        // Many blocks, one heavily connected pair: with a strong lambda the
        // pair should end close.
        let blocks: Vec<Block> =
            (0..8).map(|i| Block::new(format!("b{i}"), 2.0, 2.0)).collect();
        let nets = vec![Net::two_pin(0, 7, 50.0)];
        let cfg = AnnealConfig {
            iterations: 15_000,
            lambda_wirelength: 2.0,
            ..AnnealConfig::default()
        };
        let plan = anneal(&blocks, &nets, &cfg);
        let (ax, ay) = plan.blocks[0].center();
        let (bx, by) = plan.blocks[7].center();
        let dist = (ax - bx).abs() + (ay - by).abs();
        assert!(dist <= 6.0, "connected blocks ended {dist} apart");
    }

    #[test]
    fn rotatable_blocks_can_rotate() {
        let blocks = vec![
            Block::new("tall", 1.0, 6.0).rotatable(),
            Block::new("flat", 6.0, 1.0),
        ];
        let plan = anneal(&blocks, &[], &AnnealConfig::default().with_iterations(4000));
        assert!(plan.overlapping_pair().is_none());
        // Best packing rotates the tall block to stack two 6x1 rows.
        assert!(plan.area() <= 14.0, "area {}", plan.area());
    }

    #[test]
    fn empty_and_single_block_inputs() {
        assert_eq!(anneal(&[], &[], &AnnealConfig::default()).blocks.len(), 0);
        let one = anneal(&[Block::new("solo", 2.0, 2.0)], &[], &AnnealConfig::default());
        assert_eq!(one.blocks.len(), 1);
        assert_eq!(one.area(), 4.0);
    }

    #[test]
    fn constrained_mode_preserves_core_relative_order() {
        // Cores in a fixed row; two components to insert.
        let cores = vec![
            PlacedBlock::new(Block::new("c0", 2.0, 2.0), 0.0, 0.0),
            PlacedBlock::new(Block::new("c1", 2.0, 2.0), 2.5, 0.0),
            PlacedBlock::new(Block::new("c2", 2.0, 2.0), 5.0, 0.0),
        ];
        let mut blocks: Vec<Block> = cores.iter().map(|p| p.block.clone()).collect();
        blocks.push(Block::new("sw0", 0.5, 0.5));
        blocks.push(Block::new("sw1", 0.5, 0.5));
        let mut placed = cores.clone();
        placed.push(PlacedBlock::new(blocks[3].clone(), 1.0, 2.5));
        placed.push(PlacedBlock::new(blocks[4].clone(), 4.0, 2.5));
        let input = ConstrainedInput {
            seed: SequencePair::from_placement(&placed),
            blocks,
            ideal: vec![None, None, None, Some((1.2, 2.2, 2.0)), Some((4.2, 2.2, 2.0))],
            fixed_order_count: 3,
        };
        let plan =
            anneal_constrained(&input, &[], &AnnealConfig::default().with_iterations(5000));
        assert!(plan.overlapping_pair().is_none());
        // Core x-order must be preserved: c0 left of c1 left of c2.
        let x0 = plan.blocks[0].center().0;
        let x1 = plan.blocks[1].center().0;
        let x2 = plan.blocks[2].center().0;
        assert!(x0 < x1 && x1 < x2, "core order broken: {x0} {x1} {x2}");
    }

    #[test]
    fn fixed_outline_is_respected_when_feasible() {
        let blocks: Vec<Block> =
            (0..6).map(|i| Block::new(format!("b{i}"), 2.0, 2.0)).collect();
        let cfg = AnnealConfig {
            iterations: 20_000,
            lambda_wirelength: 0.0,
            rng_seed: 3,
            outline: Some((6.5, 6.5)),
            ..AnnealConfig::default()
        };
        let plan = anneal(&blocks, &[], &cfg);
        let (w, h) = plan.bounding_box();
        assert!(w <= 6.5 + 1e-9 && h <= 6.5 + 1e-9, "outline exceeded: {w}x{h}");
    }
}
