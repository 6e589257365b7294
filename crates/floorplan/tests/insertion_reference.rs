//! The shove insertion of §VII against a reference oracle: a verbatim copy
//! of the routine as it stood before its free-space search was optimized
//! (each ring sorted by distance and scanned for the first free probe,
//! `cos`/`sin` per probe). `insert_components` must return the oracle's
//! result bit for bit — every coordinate, center, displacement and
//! deviation — on seeded cases built where the search's shortcuts could go
//! wrong: gapped and zero-gap grids (found spots, exhausted searches and
//! shoves), rotated blocks, components at the 0.05 mm step floor, ideal
//! points at and below the origin (clamping), radii from 0.5 to 6 mm, and
//! rings whose nearest free probes tie exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sunfloor_floorplan::{
    insert_components, Block, InsertRequest, InsertionResult, PlacedBlock, Rect,
};

/// The routine before the optimization, unchanged except that
/// `find_free_spot` is `pub` so the test can count exhausted searches.
mod reference {
    use sunfloor_floorplan::{Floorplan, InsertRequest, InsertionResult, PlacedBlock, Rect};

    /// Inserts `requests` one at a time into the placement `cores`, returning a
    /// legal (overlap-free) floorplan that disturbs the cores as little as
    /// possible.
    ///
    /// `search_radius` bounds the free-space search around each ideal location —
    /// "the area in which we look for free space is the same for all of the
    /// switches, as it is given as a constant" (§VII).
    #[must_use]
    pub fn insert_components(
        cores: &[PlacedBlock],
        requests: &[InsertRequest],
        search_radius: f64,
    ) -> InsertionResult {
        let mut placed: Vec<PlacedBlock> = cores.to_vec();
        let n_cores = cores.len();
        let mut centers = Vec::with_capacity(requests.len());
        let mut deviation = 0.0;

        for req in requests {
            let w = req.block.width;
            let h = req.block.height;
            let ideal_ll = (req.ideal.0 - w / 2.0, req.ideal.1 - h / 2.0);

            let spot = find_free_spot(&placed, w, h, ideal_ll, search_radius)
                .unwrap_or_else(|| {
                    shove_open(&mut placed, w, h, ideal_ll);
                    ideal_ll
                });

            let pb = PlacedBlock::new(req.block.clone(), spot.0.max(0.0), spot.1.max(0.0));
            let c = pb.center();
            deviation += (c.0 - req.ideal.0).abs() + (c.1 - req.ideal.1).abs();
            centers.push(c);
            placed.push(pb);
        }

        let core_displacement = cores
            .iter()
            .zip(&placed[..n_cores])
            .map(|(a, b)| (a.x - b.x).abs() + (a.y - b.y).abs())
            .sum();

        InsertionResult {
            plan: Floorplan { blocks: placed },
            component_centers: centers,
            core_displacement,
            component_deviation: deviation,
        }
    }

    /// Searches expanding rings around `ideal_ll` for a position where a `w`×`h`
    /// rectangle overlaps nothing. Candidates on each ring are visited nearest
    /// first; coordinates are clamped to the first quadrant.
    pub fn find_free_spot(
        placed: &[PlacedBlock],
        w: f64,
        h: f64,
        ideal_ll: (f64, f64),
        search_radius: f64,
    ) -> Option<(f64, f64)> {
        let step = (w.min(h) / 2.0).max(0.05);
        let rings = (search_radius / step).ceil() as i32;

        let free = |x: f64, y: f64| -> bool {
            let r = Rect::new(x, y, w, h);
            placed.iter().all(|p| !p.rect().overlaps(&r))
        };

        let clamp = |v: f64| v.max(0.0);

        // Ring 0: the ideal spot itself.
        let (ix, iy) = (clamp(ideal_ll.0), clamp(ideal_ll.1));
        if free(ix, iy) {
            return Some((ix, iy));
        }
        for ring in 1..=rings {
            let r = f64::from(ring) * step;
            let mut candidates: Vec<(f64, f64)> = Vec::new();
            let k = 4 * ring; // denser sampling on larger rings
            for i in 0..k {
                let t = f64::from(i) / f64::from(k) * std::f64::consts::TAU;
                candidates.push((clamp(ideal_ll.0 + r * t.cos()), clamp(ideal_ll.1 + r * t.sin())));
            }
            candidates.sort_by(|a, b| {
                let da = (a.0 - ideal_ll.0).abs() + (a.1 - ideal_ll.1).abs();
                let db = (b.0 - ideal_ll.0).abs() + (b.1 - ideal_ll.1).abs();
                da.total_cmp(&db)
            });
            for (x, y) in candidates {
                if free(x, y) {
                    return Some((x, y));
                }
            }
        }
        None
    }

    /// Clears a `w`×`h` hole at `ll` by displacing every overlapping block along
    /// one axis (the one minimizing total displaced area), then iteratively
    /// pushing followers in the same direction until no overlap remains — the
    /// paper's shove strategy.
    ///
    /// Blocks are only ever pushed in the +x or +y direction: movement is then
    /// strictly monotone, so the cascade always terminates (pushing towards the
    /// axes could pin a block at 0 and loop forever).
    fn shove_open(placed: &mut [PlacedBlock], w: f64, h: f64, ll: (f64, f64)) {
        let hole = Rect::new(ll.0.max(0.0), ll.1.max(0.0), w, h);

        // Pick the axis requiring the smaller total displacement.
        let spread_x: f64 = placed
            .iter()
            .filter(|p| p.rect().overlaps(&hole))
            .map(|p| (hole.x + hole.w - p.x).max(0.0))
            .sum();
        let spread_y: f64 = placed
            .iter()
            .filter(|p| p.rect().overlaps(&hole))
            .map(|p| (hole.y + hole.h - p.y).max(0.0))
            .sum();
        let push_x = spread_x <= spread_y;

        // Plow sweep: process blocks in ascending order along the push axis and
        // clear each against the hole plus every already-processed block. Each
        // clearing step moves a block strictly forward past a finite obstacle
        // set, so the sweep terminates and leaves no overlap.
        const GAP: f64 = 1e-6;
        let mut order: Vec<usize> = (0..placed.len()).collect();
        order.sort_by(|&a, &b| {
            if push_x {
                placed[a].x.total_cmp(&placed[b].x)
            } else {
                placed[a].y.total_cmp(&placed[b].y)
            }
        });
        let mut settled: Vec<Rect> = vec![hole];
        for &i in &order {
            loop {
                let rect = placed[i].rect();
                let Some(ob) = settled.iter().find(|o| o.overlaps(&rect)).copied() else {
                    break;
                };
                if push_x {
                    placed[i].x = ob.x + ob.w + GAP;
                } else {
                    placed[i].y = ob.y + ob.h + GAP;
                }
            }
            settled.push(placed[i].rect());
        }
    }
}

/// Every float of a result as bits (plus the rotation flags), so `-0.0`
/// and `0.0` differ and a NaN equals itself.
fn bits(res: &InsertionResult) -> Vec<u64> {
    let mut v = Vec::new();
    for b in &res.plan.blocks {
        v.extend([b.x, b.y, b.block.width, b.block.height].map(f64::to_bits));
        v.push(u64::from(b.rotated));
    }
    for &(x, y) in &res.component_centers {
        v.extend([x.to_bits(), y.to_bits()]);
    }
    v.extend([res.core_displacement.to_bits(), res.component_deviation.to_bits()]);
    v
}

/// One insertion problem.
#[derive(Debug)]
struct Case {
    cores: Vec<PlacedBlock>,
    requests: Vec<InsertRequest>,
    radius: f64,
}

/// How often the cases reached the situations the shortcuts must get
/// right, counted on the oracle one request at a time.
#[derive(Debug, Default)]
struct Coverage {
    requests: usize,
    exhausted: usize,
    exhausted_at_step_floor: usize,
    clamped: usize,
    ties: usize,
}

/// Whether the search for a `w`×`h` spot near `ideal_ll` ends on a ring
/// where two or more distinct free probes share the smallest distance —
/// a case the generation-order tie break decides.
fn nearest_free_probe_is_tied(
    placed: &[PlacedBlock],
    w: f64,
    h: f64,
    ideal_ll: (f64, f64),
    radius: f64,
) -> bool {
    let step = (w.min(h) / 2.0).max(0.05);
    let rings = (radius / step).ceil() as i32;
    let clamp = |v: f64| v.max(0.0);
    let free = |&(x, y): &(f64, f64)| {
        let r = Rect::new(x, y, w, h);
        placed.iter().all(|p| !p.rect().overlaps(&r))
    };
    if free(&(clamp(ideal_ll.0), clamp(ideal_ll.1))) {
        return false;
    }
    for ring in 1..=rings {
        let r = f64::from(ring) * step;
        let k = 4 * ring;
        let keyed: Vec<(f64, (f64, f64))> = (0..k)
            .map(|i| {
                let t = f64::from(i) / f64::from(k) * std::f64::consts::TAU;
                (clamp(ideal_ll.0 + r * t.cos()), clamp(ideal_ll.1 + r * t.sin()))
            })
            .filter(free)
            .map(|p| ((p.0 - ideal_ll.0).abs() + (p.1 - ideal_ll.1).abs(), p))
            .collect();
        if let Some(min) = keyed.iter().map(|&(key, _)| key).min_by(f64::total_cmp) {
            let mut tied: Vec<(u64, u64)> = keyed
                .iter()
                .filter(|(key, _)| key.to_bits() == min.to_bits())
                .map(|&(_, (x, y))| (x.to_bits(), y.to_bits()))
                .collect();
            tied.sort_unstable();
            tied.dedup();
            return tied.len() > 1;
        }
    }
    false
}

/// Runs the library and the oracle on `case`, asserts bitwise equality and
/// adds what the oracle's searches ran into to `cov`.
fn check(case: &Case, cov: &mut Coverage) {
    let want = reference::insert_components(&case.cores, &case.requests, case.radius);
    let got = insert_components(&case.cores, &case.requests, case.radius);
    assert!(bits(&got) == bits(&want), "library differs from the oracle on {case:#?}");

    // Step the oracle one request at a time: its loop depends only on the
    // blocks placed so far, so this replays the same searches.
    let mut placed = case.cores.clone();
    for req in &case.requests {
        let (w, h) = (req.block.width, req.block.height);
        let ideal_ll = (req.ideal.0 - w / 2.0, req.ideal.1 - h / 2.0);
        cov.requests += 1;
        if ideal_ll.0 < 0.0 || ideal_ll.1 < 0.0 {
            cov.clamped += 1;
        }
        if reference::find_free_spot(&placed, w, h, ideal_ll, case.radius).is_none() {
            cov.exhausted += 1;
            if w.min(h) / 2.0 < 0.05 {
                cov.exhausted_at_step_floor += 1;
            }
        } else if nearest_free_probe_is_tied(&placed, w, h, ideal_ll, case.radius) {
            cov.ties += 1;
        }
        placed = reference::insert_components(&placed, std::slice::from_ref(req), case.radius)
            .plan
            .blocks;
    }
}

/// An `nx`×`ny` grid of `size`-square cores `gap` apart from the origin.
fn grid(nx: u32, ny: u32, size: f64, gap: f64) -> Vec<PlacedBlock> {
    (0..nx * ny)
        .map(|i| {
            let b = Block::new(format!("c{i}"), size, size);
            let pitch = size + gap;
            PlacedBlock::new(b, f64::from(i % nx) * pitch, f64::from(i / nx) * pitch)
        })
        .collect()
}

/// `n` square requests with sides drawn from `side` and ideal centers
/// from `xs` × `ys`.
fn requests(
    rng: &mut StdRng,
    n: usize,
    side: std::ops::Range<f64>,
    xs: std::ops::Range<f64>,
    ys: std::ops::Range<f64>,
) -> Vec<InsertRequest> {
    (0..n)
        .map(|k| {
            let s = rng.gen_range(side.clone());
            let ideal = (rng.gen_range(xs.clone()), rng.gen_range(ys.clone()));
            InsertRequest::new(Block::new(format!("sw{k}"), s, s), ideal)
        })
        .collect()
}

/// Cores with gaps between them, so most searches find a spot.
fn gapped_grid(rng: &mut StdRng) -> Case {
    let (nx, ny) = (rng.gen_range(2..=5u32), rng.gen_range(2..=4u32));
    let (size, gap) = (rng.gen_range(0.8..2.5), rng.gen_range(0.1..1.2));
    let ext = (f64::from(nx) * (size + gap), f64::from(ny) * (size + gap));
    let n = rng.gen_range(2..=7usize);
    Case {
        cores: grid(nx, ny, size, gap),
        requests: requests(rng, n, 0.15..1.2, -0.5..ext.0 + 0.5, -0.5..ext.1 + 0.5),
        radius: rng.gen_range(0.5..6.0),
    }
}

/// Cores packed edge to edge, with requests aimed inside: searches run
/// out of rings and shove.
fn zero_gap_grid(rng: &mut StdRng) -> Case {
    let (nx, ny) = (rng.gen_range(3..=6u32), rng.gen_range(2..=4u32));
    let size = rng.gen_range(1.0..2.5);
    let ext = (f64::from(nx) * size, f64::from(ny) * size);
    let n = rng.gen_range(2..=6usize);
    Case {
        cores: grid(nx, ny, size, 0.0),
        requests: requests(rng, n, 0.15..1.2, 0.2 * ext.0..0.8 * ext.0, 0.2 * ext.1..0.8 * ext.1),
        radius: rng.gen_range(0.5..6.0),
    }
}

/// Oblong cores, about half of them rotated, one per 3 mm cell.
fn rotated_blocks(rng: &mut StdRng) -> Case {
    let cores = (0..12u32)
        .map(|i| {
            let b = Block::new(format!("c{i}"), rng.gen_range(0.8..2.9), rng.gen_range(0.8..2.9));
            let mut p = PlacedBlock::new(b, f64::from(i % 4) * 3.0, f64::from(i / 4) * 3.0);
            p.rotated = rng.gen_bool(0.5);
            p
        })
        .collect();
    let n = rng.gen_range(2..=7usize);
    Case {
        cores,
        requests: requests(rng, n, 0.2..1.4, -0.5..12.5, -0.5..9.5),
        radius: rng.gen_range(0.5..6.0),
    }
}

/// TSV-macro-sized components, whose search steps at the 0.05 mm floor
/// (up to 120 rings at a 6 mm radius), on tight or packed grids.
fn step_floor(rng: &mut StdRng) -> Case {
    let size = rng.gen_range(1.0..2.2);
    let gap = if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(0.02..0.3) };
    let ext = 4.0 * (size + gap);
    let n = rng.gen_range(2..=6usize);
    Case {
        cores: grid(4, 4, size, gap),
        requests: requests(rng, n, 0.01..0.1, 0.0..ext, 0.0..ext),
        radius: rng.gen_range(0.5..6.0),
    }
}

/// Ideal points at and below the origin: every probe coordinate that
/// would go negative clamps to 0.
fn near_origin(rng: &mut StdRng) -> Case {
    let (size, gap) = (rng.gen_range(0.8..2.0), rng.gen_range(0.0..0.6));
    let n = rng.gen_range(2..=6usize);
    Case {
        cores: grid(3, 3, size, gap),
        requests: requests(rng, n, 0.05..1.5, -2.0..0.6, -2.0..0.6),
        radius: rng.gen_range(0.5..6.0),
    }
}

/// Everything on a quarter-millimetre lattice: ideal corners, core corners
/// and sides, request sides and radii. Axis-aligned probes then land on
/// exact lattice points, so a ring's nearest free probes often tie.
fn lattice_ties(rng: &mut StdRng) -> Case {
    let q = |rng: &mut StdRng, lo: u32, hi: u32| f64::from(rng.gen_range(lo..=hi)) * 0.25;
    let cores = (0..rng.gen_range(4..=12u32))
        .map(|i| {
            let b = Block::new(format!("c{i}"), q(rng, 1, 6), q(rng, 1, 6));
            PlacedBlock::new(b, q(rng, 0, 24), q(rng, 0, 24))
        })
        .collect();
    let requests = (0..rng.gen_range(2..=6usize))
        .map(|k| {
            let s = [0.25, 0.5, 1.0][rng.gen_range(0..3usize)];
            let ll = (q(rng, 2, 20), q(rng, 2, 20));
            InsertRequest::new(Block::new(format!("sw{k}"), s, s), (ll.0 + s / 2.0, ll.1 + s / 2.0))
        })
        .collect();
    Case { cores, requests, radius: q(rng, 2, 24) }
}

/// Checks `cases` cases drawn by `make` from `seed`.
fn run_category(seed: u64, cases: usize, make: fn(&mut StdRng) -> Case) -> Coverage {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cov = Coverage::default();
    for _ in 0..cases {
        check(&make(&mut rng), &mut cov);
    }
    cov
}

#[test]
fn gapped_grids_match_the_oracle() {
    let cov = run_category(0x1A5E_0001, 200, gapped_grid);
    assert!(cov.exhausted >= 50 && cov.ties >= 10 && cov.clamped >= 50, "{cov:?}");
}

#[test]
fn zero_gap_grids_match_the_oracle() {
    let cov = run_category(0x1A5E_0002, 150, zero_gap_grid);
    assert!(cov.exhausted >= 70, "zero-gap grids must exhaust searches and shove: {cov:?}");
}

#[test]
fn rotated_blocks_match_the_oracle() {
    let cov = run_category(0x1A5E_0003, 150, rotated_blocks);
    assert!(cov.exhausted >= 15 && cov.ties >= 10, "{cov:?}");
}

#[test]
fn step_floor_components_match_the_oracle() {
    let cov = run_category(0x1A5E_0004, 120, step_floor);
    assert!(cov.exhausted_at_step_floor >= 30, "macros must exhaust 0.05 mm rings: {cov:?}");
}

#[test]
fn ideal_points_at_and_below_the_origin_match_the_oracle() {
    let cov = run_category(0x1A5E_0005, 150, near_origin);
    assert!(cov.clamped >= 300 && cov.exhausted >= 200, "{cov:?}");
}

#[test]
fn exact_distance_ties_match_the_oracle() {
    let cov = run_category(0x1A5E_0006, 300, lattice_ties);
    assert!(cov.ties >= 60, "lattice cases must produce exact ties: {cov:?}");
}

/// Two free probes of ring 1 tie at 0.25 mm: `(1.0, 1.25)` (generated
/// second, at `t = τ/4`) and `(0.75, 1.0)` (third, at `t = τ/2`). The
/// first probe and the ideal spot are blocked. Generation order must win.
#[test]
fn a_tie_goes_to_the_earlier_probe() {
    let cores = vec![PlacedBlock::new(Block::new("a", 0.1, 0.2), 1.25, 1.0)];
    let requests = vec![InsertRequest::new(Block::new("sw", 0.5, 0.5), (1.25, 1.25))];
    let want = reference::insert_components(&cores, &requests, 1.0);
    let got = insert_components(&cores, &requests, 1.0);
    assert_eq!(want.plan.blocks[1].x, 1.0);
    assert_eq!(want.plan.blocks[1].y, 1.25);
    assert!(bits(&got) == bits(&want));
    assert!(nearest_free_probe_is_tied(&cores, 0.5, 0.5, (1.0, 1.0), 1.0));
}

/// Each thread keeps its own direction table; tables grown on fresh
/// threads, in a different ring order, must give the same results.
#[test]
fn worker_threads_match_the_oracle() {
    std::thread::scope(|s| {
        for seed in [0x1A5E_0007u64, 0x1A5E_0008] {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut cov = Coverage::default();
                for _ in 0..15 {
                    check(&step_floor(&mut rng), &mut cov);
                    check(&zero_gap_grid(&mut rng), &mut cov);
                }
            });
        }
    });
}
