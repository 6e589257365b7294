//! Property tests for the floorplanning substrate: sequence-pair packing is
//! always legal, insertion never leaves overlap, the annealer is
//! deterministic and never produces an illegal plan, and the annealer's
//! net-free fast path equals the full net-cache path.

use proptest::prelude::*;
use sunfloor_floorplan::{
    anneal, anneal_constrained, anneal_tempered_constrained_with_stats, insert_components,
    AnnealConfig, Block, ConstrainedInput, IdealTarget, InsertRequest, Net, PackScratch,
    PlacedBlock, SequencePair, TemperConfig,
};

fn arb_blocks(max: usize) -> impl Strategy<Value = Vec<Block>> {
    proptest::collection::vec((0.5f64..4.0, 0.5f64..4.0), 2..max).prop_map(|dims| {
        dims.into_iter()
            .enumerate()
            .map(|(i, (w, h))| Block::new(format!("b{i}"), w, h))
            .collect()
    })
}

/// Blocks together with two random permutations of their indices.
fn arb_packing_input() -> impl Strategy<Value = (Vec<Block>, Vec<usize>, Vec<usize>)> {
    arb_blocks(10).prop_flat_map(|blocks| {
        let n = blocks.len();
        let perm = || Just((0..n).collect::<Vec<usize>>()).prop_shuffle();
        (Just(blocks), perm(), perm())
    })
}

/// A layer-shaped constrained input: `cores` order-frozen cores on a
/// grid plus one small component per `(side, x, y)` entry, seeded on its
/// ideal center and pulled there with weight 2 per mm.
fn layer_input(cores: &[(f64, f64)], components: &[(f64, f64, f64)]) -> ConstrainedInput {
    let mut placed: Vec<PlacedBlock> = cores
        .iter()
        .enumerate()
        .map(|(i, &(w, h))| {
            PlacedBlock::new(
                Block::new(format!("c{i}"), w, h),
                (i % 4) as f64 * 4.5,
                (i / 4) as f64 * 4.5,
            )
        })
        .collect();
    let mut ideal: Vec<IdealTarget> = vec![None; cores.len()];
    for (k, &(side, x, y)) in components.iter().enumerate() {
        let b = Block::new(format!("sw{k}"), side, side);
        placed.push(PlacedBlock::new(b, x - side / 2.0, y - side / 2.0));
        ideal.push(Some((x, y, 2.0)));
    }
    ConstrainedInput {
        seed: SequencePair::from_placement(&placed),
        blocks: placed.into_iter().map(|p| p.block).collect(),
        ideal,
        fixed_order_count: cores.len(),
    }
}

fn arb_layer_input() -> impl Strategy<Value = ConstrainedInput> {
    (
        proptest::collection::vec((0.8f64..3.0, 0.8f64..3.0), 2..10),
        proptest::collection::vec((0.3f64..1.0, 0.0f64..14.0, 0.0f64..10.0), 1..6),
    )
        .prop_map(|(cores, components)| layer_input(&cores, &components))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The annealer skips the moved-block scan and the net cache when a
    /// run has no nets. Zero-weight two-pin nets touching every block
    /// contribute exactly `0.0` to the cost but drive the full net-cache
    /// path, so both runs must agree bit for bit: serial and tempered
    /// floorplans, and the tempered run's stats.
    #[test]
    fn net_free_anneal_matches_zero_weight_nets(
        input in arb_layer_input(),
        seed in 0u64..1_000,
        replicas in 1usize..4,
        threads in 0usize..3,
    ) {
        let n = input.blocks.len();
        let zero_nets: Vec<Net> = (0..n).map(|i| Net::two_pin(i, (i + 1) % n, 0.0)).collect();
        let base = AnnealConfig::default().with_iterations(600).with_seed(seed);
        prop_assert_eq!(
            anneal_constrained(&input, &[], &base),
            anneal_constrained(&input, &zero_nets, &base)
        );
        let cfg = TemperConfig { base, swap_interval: 100, ..TemperConfig::default() }
            .with_replicas(replicas)
            .with_threads(threads);
        let fast = anneal_tempered_constrained_with_stats(&input, &[], &cfg);
        let full = anneal_tempered_constrained_with_stats(&input, &zero_nets, &cfg);
        prop_assert_eq!(fast.0, full.0);
        prop_assert_eq!(fast.1.best_cost.to_bits(), full.1.best_cost.to_bits());
        prop_assert_eq!(fast.1, full.1);
    }

    /// Any sequence pair packs to an overlap-free placement whose bounding
    /// box can hold every block.
    #[test]
    fn packing_is_always_legal((blocks, pos, neg) in arb_packing_input()) {
        let n = blocks.len();
        let sp = SequencePair { pos, neg };
        let plan = sp.pack(&blocks, &vec![false; n]);
        prop_assert!(plan.overlapping_pair().is_none());
        let (w, h) = plan.bounding_box();
        for b in &blocks {
            prop_assert!(w + 1e-9 >= b.width && h + 1e-9 >= b.height);
        }
        // Area is at least the sum of cells.
        prop_assert!(plan.area() + 1e-9 >= plan.cell_area());
    }

    /// The O(n log n) LCS packing must produce the *bit-identical*
    /// `(x, y, width, height)` results of the retained O(n²) longest-path
    /// reference oracle, on arbitrary sequence pairs, block sets and
    /// per-block rotation flags.
    #[test]
    fn lcs_packing_matches_longest_path_oracle(
        (blocks, pos, neg) in arb_packing_input(),
        rot_bits in proptest::collection::vec(proptest::bool::ANY, 10..11),
    ) {
        let n = blocks.len();
        let rotated: Vec<bool> = (0..n).map(|i| rot_bits[i % rot_bits.len()]).collect();
        let sp = SequencePair { pos, neg };
        let mut lcs = PackScratch::default();
        let mut reference = PackScratch::default();
        sp.pack_into(&blocks, &rotated, &mut lcs);
        sp.pack_into_longest_path(&blocks, &rotated, &mut reference);
        for b in 0..n {
            prop_assert_eq!(lcs.x[b].to_bits(), reference.x[b].to_bits(), "x of block {}", b);
            prop_assert_eq!(lcs.y[b].to_bits(), reference.y[b].to_bits(), "y of block {}", b);
            prop_assert_eq!(lcs.w[b].to_bits(), reference.w[b].to_bits(), "w of block {}", b);
            prop_assert_eq!(lcs.h[b].to_bits(), reference.h[b].to_bits(), "h of block {}", b);
        }
    }

    /// The annealer always returns a legal plan at least as large as its
    /// cells, and is deterministic in its seed.
    #[test]
    fn annealer_legal_and_deterministic(blocks in arb_blocks(8), seed in 0u64..50) {
        let cfg = AnnealConfig::default().with_iterations(1_500).with_seed(seed);
        let a = anneal(&blocks, &[], &cfg);
        let b = anneal(&blocks, &[], &cfg);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.overlapping_pair().is_none());
        prop_assert!(a.area() + 1e-9 >= a.cell_area());
    }

    /// Component insertion never leaves overlap, regardless of how crowded
    /// the die is, and never loses a block.
    #[test]
    fn insertion_always_legal(
        grid in 2usize..5,
        gap in 0.0f64..1.0,
        requests in proptest::collection::vec(
            ((0.2f64..1.5), (0.2f64..1.5), (0.0f64..8.0), (0.0f64..8.0)), 1..6),
    ) {
        let cores: Vec<PlacedBlock> = (0..grid * grid)
            .map(|i| {
                PlacedBlock::new(
                    Block::new(format!("c{i}"), 2.0, 2.0),
                    (i % grid) as f64 * (2.0 + gap),
                    (i / grid) as f64 * (2.0 + gap),
                )
            })
            .collect();
        let reqs: Vec<InsertRequest> = requests
            .iter()
            .enumerate()
            .map(|(k, &(w, h, x, y))| {
                InsertRequest::new(Block::new(format!("sw{k}"), w, h), (x, y))
            })
            .collect();
        let res = insert_components(&cores, &reqs, 2.5);
        prop_assert!(res.plan.overlapping_pair().is_none());
        prop_assert_eq!(res.plan.blocks.len(), cores.len() + reqs.len());
        prop_assert_eq!(res.component_centers.len(), reqs.len());
        // All coordinates stay in the first quadrant.
        for b in &res.plan.blocks {
            prop_assert!(b.x >= -1e-9 && b.y >= -1e-9);
        }
    }

    /// With ample free space the cores never move and the components land
    /// exactly at their ideal positions.
    #[test]
    fn insertion_in_empty_space_is_exact(
        x in 10.0f64..30.0,
        y in 10.0f64..30.0,
        w in 0.3f64..2.0,
    ) {
        let cores = vec![PlacedBlock::new(Block::new("c", 2.0, 2.0), 0.0, 0.0)];
        let reqs = vec![InsertRequest::new(Block::new("s", w, w), (x, y))];
        let res = insert_components(&cores, &reqs, 2.0);
        prop_assert_eq!(res.core_displacement, 0.0);
        prop_assert!(res.component_deviation < 1e-9);
        let (cx, cy) = res.component_centers[0];
        prop_assert!((cx - x).abs() < 1e-9 && (cy - y).abs() < 1e-9);
    }
}
