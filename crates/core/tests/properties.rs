//! Property tests on the synthesis core: randomized SoCs and flow sets must
//! always produce structurally consistent graphs, routes and metrics.

use proptest::prelude::*;
use proptest::test_runner::{self, ProptestConfig, TestCaseError};
use sunfloor_core::eval::evaluate;
use sunfloor_core::graph::CommGraph;
use sunfloor_core::paths::{compute_paths, PathAllocator, PathConfig};
use sunfloor_core::spec::{CommSpec, Core, Flow, MessageType, SocSpec};
use sunfloor_core::synthesis::{SynthesisConfig, SynthesisEngine};
use sunfloor_models::NocLibrary;

/// A random small SoC: `n` cores spread over `layers` layers on a loose
/// grid, plus a random set of flows.
fn arb_design() -> impl Strategy<Value = (SocSpec, CommSpec)> {
    (4usize..10, 1u32..4).prop_flat_map(|(n, layers)| {
        let flows = proptest::collection::vec(
            (0..n, 0..n, 20.0f64..400.0, prop::bool::ANY),
            1..(2 * n),
        );
        flows.prop_filter_map("self flows removed", move |raw| {
            let cores: Vec<Core> = (0..n)
                .map(|i| Core {
                    name: format!("c{i}"),
                    width: 1.0 + (i % 3) as f64 * 0.5,
                    height: 1.0 + (i % 2) as f64 * 0.5,
                    x: (i % 4) as f64 * 2.0,
                    y: (i / 4) as f64 * 2.0,
                    layer: (i as u32) % layers,
                })
                .collect();
            let soc = SocSpec::new(cores, layers).ok()?;
            let flows: Vec<Flow> = raw
                .into_iter()
                .filter(|&(s, d, _, _)| s != d)
                .map(|(src, dst, bw, resp)| Flow {
                    src,
                    dst,
                    bandwidth_mbs: bw,
                    max_latency_cycles: 20.0,
                    message_type: if resp { MessageType::Response } else { MessageType::Request },
                })
                .collect();
            if flows.is_empty() {
                return None;
            }
            let comm = CommSpec::new(flows, &soc).ok()?;
            Some((soc, comm))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Definition-3 weights are within [0, 1] for any α in [0, 1], and the
    /// heaviest edge gets weight 1 at α = 1.
    #[test]
    fn pg_weights_are_normalized((soc, comm) in arb_design(), alpha in 0.0f64..1.0) {
        let g = CommGraph::new(&soc, &comm);
        for e in g.edge_list() {
            let w = g.edge_weight(e.bandwidth_mbs, e.latency_cycles, alpha);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&w));
        }
        prop_assert!((g.max_weight(1.0) - 1.0).abs() < 1e-9);
    }

    /// SPG extra edges never exceed one tenth of the maximum PG weight
    /// (eq. 1's stated bound).
    #[test]
    fn spg_extra_edges_bounded((soc, comm) in arb_design(), theta in 1.0f64..15.0) {
        let g = CommGraph::new(&soc, &comm);
        let max_wt = g.max_weight(1.0);
        let spg = g.scaled_partitioning_graph(&soc, 1.0, theta, 15.0);
        let pg = g.partitioning_graph(1.0);
        let n = soc.core_count();
        for a in 0..n {
            for b in (a + 1)..n {
                if pg.edge_weight(a, b) == 0.0 && spg.edge_weight(a, b) > 0.0 {
                    prop_assert!(soc.cores[a].layer == soc.cores[b].layer);
                    prop_assert!(spg.edge_weight(a, b) <= max_wt / 10.0 + 1e-12);
                }
            }
        }
    }

    /// Routing a trivially-valid connectivity (one switch per layer) always
    /// yields structurally consistent topologies.
    #[test]
    fn routing_invariants_hold((soc, comm) in arb_design()) {
        let g = CommGraph::new(&soc, &comm);
        let layers = soc.layers;
        // One switch per populated layer, each core to its layer's switch.
        let mut switch_of_layer = vec![usize::MAX; layers as usize];
        let mut switch_layer = Vec::new();
        for l in 0..layers {
            if !soc.cores_in_layer(l).is_empty() {
                switch_of_layer[l as usize] = switch_layer.len();
                switch_layer.push(l);
            }
        }
        let core_attach: Vec<usize> =
            soc.cores.iter().map(|c| switch_of_layer[c.layer as usize]).collect();
        let est: Vec<(f64, f64)> = switch_layer.iter().map(|_| (2.0, 2.0)).collect();
        let core_layers: Vec<u32> = soc.cores.iter().map(|c| c.layer).collect();
        let cfg = PathConfig::new(200, 64, 400.0);
        let topo = compute_paths(
            &g, &core_attach, &switch_layer, &est, &core_layers, layers,
            &NocLibrary::lp65(), &cfg, 1.0,
        ).unwrap();

        for (fi, e) in g.edge_list().iter().enumerate() {
            let path = &topo.flow_paths[fi].switches;
            prop_assert!(!path.is_empty());
            prop_assert_eq!(path[0], core_attach[e.src]);
            prop_assert_eq!(*path.last().unwrap(), core_attach[e.dst]);
            // Paths are simple (no switch repeated).
            let mut seen = std::collections::BTreeSet::new();
            for &s in path {
                prop_assert!(seen.insert(s), "cycle in path {path:?}");
            }
        }
        for l in &topo.links {
            let sum: f64 = l.flows.iter().map(|&fi| g.edge_list()[fi].bandwidth_mbs * 8.0 / 1000.0).sum();
            prop_assert!((l.bandwidth_gbps - sum).abs() < 1e-9);
            for &fi in &l.flows {
                prop_assert_eq!(g.edge_list()[fi].class, l.class);
            }
        }
    }

    /// Full synthesis (thin sweep) on random designs: every reported point
    /// satisfies its own metrics invariants.
    #[test]
    fn synthesis_points_are_self_consistent((soc, comm) in arb_design()) {
        let cfg = SynthesisConfig::builder()
            .run_layout(false)
            .switch_count_range(1, soc.core_count().min(4))
            .build()
            .unwrap();
        let max_ill = cfg.max_ill;
        let outcome = SynthesisEngine::new(&soc, &comm, cfg).unwrap().run();
        for p in &outcome.points {
            prop_assert!(p.metrics.power.total_mw() > 0.0);
            prop_assert!(p.metrics.avg_latency_cycles >= 1.0);
            prop_assert!(p.metrics.meets_latency());
            prop_assert!(p.metrics.max_inter_layer_links() <= max_ill);
            let layers: Vec<u32> = soc.cores.iter().map(|c| c.layer).collect();
            prop_assert_eq!(
                &p.metrics.inter_layer_links,
                &p.topology.inter_layer_link_census(&layers, soc.layers)
            );
        }
    }
}

/// A connectivity for `soc` with up to `per_layer` switches per populated
/// layer: core `i` attaches to slot `i % per_layer` of its layer, and each
/// switch sits at the centroid of its cores. Returns
/// `(core_attach, switch_layer, est_positions)`.
fn slotted_connectivity(
    soc: &SocSpec,
    per_layer: usize,
) -> (Vec<usize>, Vec<u32>, Vec<(f64, f64)>) {
    let mut switch_of = std::collections::BTreeMap::new();
    let mut switch_layer = Vec::new();
    let mut sums: Vec<(f64, f64, f64)> = Vec::new();
    let mut core_attach = Vec::with_capacity(soc.core_count());
    for (i, c) in soc.cores.iter().enumerate() {
        let sw = *switch_of.entry((c.layer, i % per_layer)).or_insert_with(|| {
            switch_layer.push(c.layer);
            sums.push((0.0, 0.0, 0.0));
            switch_layer.len() - 1
        });
        let (x, y) = c.center();
        sums[sw].0 += x;
        sums[sw].1 += y;
        sums[sw].2 += 1.0;
        core_attach.push(sw);
    }
    let est = sums.iter().map(|&(x, y, n)| (x / n, y / n)).collect();
    (core_attach, switch_layer, est)
}

/// One reused [`PathAllocator`] routing a sequence of designs gives, for
/// every design, exactly what a fresh allocator gives: the same result or
/// error, the same per-link flow order, the same routed power bits and the
/// same counter delta. Budgets are drawn tight (`max_ill` 2–9, switch size
/// 3–10), where the soft `ill`/port penalties steer the router; the run
/// checks that they really do change routes on some of the cases. A serial
/// sweep routes every candidate through one allocator while a parallel
/// sweep spreads the candidates over several, so serial == parallel rests
/// on this property.
#[test]
fn reused_allocator_matches_fresh_at_soft_thresholds() {
    let designs = proptest::collection::vec((arb_design(), 2u32..10, 3u32..11, 1usize..4), 1..6);
    let lib = NocLibrary::lp65();
    let mut routed = 0u32;
    let mut soft_steered = 0u32;
    test_runner::run(
        &ProptestConfig::with_cases(48),
        "reused_allocator_matches_fresh_at_soft_thresholds",
        |rng| {
            let mut reused = PathAllocator::new();
            for ((soc, comm), max_ill, max_switch, per_layer) in designs.generate(rng) {
                let g = CommGraph::new(&soc, &comm);
                let (attach, switch_layer, est) = slotted_connectivity(&soc, per_layer);
                let core_layers: Vec<u32> = soc.cores.iter().map(|c| c.layer).collect();
                let cfg = PathConfig::new(max_ill, max_switch, 400.0);
                let route = |alloc: &mut PathAllocator, cfg: &PathConfig| {
                    alloc.compute_paths(
                        &g, &attach, &switch_layer, &est, &core_layers, soc.layers, &lib, cfg,
                        1.0,
                    )
                };

                let before = reused.stats();
                let again = route(&mut reused, &cfg);
                let mut fresh_alloc = PathAllocator::new();
                let fresh = route(&mut fresh_alloc, &cfg);
                prop_assert_eq!(&again, &fresh, "allocator history changed the routing");
                prop_assert_eq!(
                    reused.stats() - before,
                    fresh_alloc.stats(),
                    "allocator history changed the routing counters"
                );
                let Ok(topo) = fresh else { continue };
                let Ok(again) = again else { continue };
                routed += 1;
                for (a, b) in topo.links.iter().zip(&again.links) {
                    prop_assert_eq!(a.class, b.class);
                    prop_assert_eq!(&a.flows, &b.flows);
                }
                let (pf, pr) = (
                    evaluate(&topo, &soc, &g, &lib, 400.0),
                    evaluate(&again, &soc, &g, &lib, 400.0),
                );
                prop_assert_eq!(
                    pf.power.total_mw().to_bits(),
                    pr.power.total_mw().to_bits(),
                    "routed power must agree bit for bit"
                );

                // Regime check: with both soft margins at zero the soft
                // penalties never apply (the hard limit is hit first).
                let hard_only =
                    PathConfig { soft_ill_margin: 0, soft_switch_margin: 0, ..cfg.clone() };
                if route(&mut PathAllocator::new(), &hard_only).as_ref() != Ok(&topo) {
                    soft_steered += 1;
                }
            }
            Ok::<(), TestCaseError>(())
        },
    );
    assert!(routed >= 24, "only {routed} designs routed: the budgets are too tight to test");
    assert!(soft_steered > 0, "the soft penalties never changed a route in {routed} designs");
}
