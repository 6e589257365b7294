//! SunFloor's custom NoC-component insertion routine.
//!
//! Paper §VII: "we consider one switch or TSV macro at a time. We try to find
//! a free space near its ideal location to place it. … If no space is
//! available, we displace the already placed blocks from their positions in
//! the x or y direction by the size of the component, creating space. …
//! We iteratively move the necessary blocks in the same direction as the
//! first block, until we remove all overlaps. As more components are placed,
//! they can re-use the gap created by the earlier components."

use crate::geometry::{Block, Floorplan, PlacedBlock, Rect};
use std::cell::Cell;
use std::cmp::Ordering;

/// One NoC component (switch or TSV macro) to insert, with the ideal
/// *center* position computed by the switch-placement LP.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertRequest {
    /// The component block.
    pub block: Block,
    /// Desired center coordinates.
    pub ideal: (f64, f64),
}

impl InsertRequest {
    /// Creates an insertion request for `block` centered at `ideal`.
    #[must_use]
    pub fn new(block: Block, ideal: (f64, f64)) -> Self {
        Self { block, ideal }
    }
}

/// Outcome of inserting components into an existing core placement.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertionResult {
    /// The final legal floorplan: first the (possibly displaced) cores in
    /// their input order, then the components in request order.
    pub plan: Floorplan,
    /// Final center of each inserted component, in request order.
    pub component_centers: Vec<(f64, f64)>,
    /// Total Manhattan displacement the cores suffered.
    pub core_displacement: f64,
    /// Total Manhattan deviation of components from their ideal centers.
    pub component_deviation: f64,
}

/// Inserts `requests` one at a time into the placement `cores`, returning a
/// legal (overlap-free) floorplan that disturbs the cores as little as
/// possible.
///
/// `search_radius` bounds the free-space search around each ideal location —
/// "the area in which we look for free space is the same for all of the
/// switches, as it is given as a constant" (§VII). Each component takes the
/// nearest free probe of the first search ring that has one; if no ring
/// within the radius has one, it shoves the blocks at its ideal spot
/// aside. The result is a pure function of the arguments, whatever thread
/// runs it.
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

thread_local! {
    /// `(cos t, sin t)` of every probe direction, ring after ring: ring
    /// `r ≥ 1` holds its `4r` directions `t = i / 4r · τ` at
    /// `2r(r−1) .. 2r(r+1)`. Grown on first use of a larger ring.
    static DIRECTIONS: Cell<Vec<(f64, f64)>> = const { Cell::new(Vec::new()) };
}

/// Searches expanding rings around `ideal_ll` for a position where a `w`×`h`
/// rectangle overlaps nothing; coordinates are clamped to the first
/// quadrant.
///
/// Ring 0 is `ideal_ll` itself; ring `r` probes `4r` points at distance
/// `r · step` in generation order `i = 0 .. 4r`. The result is the free
/// probe of the first ring that has one with the smallest Manhattan
/// distance from `ideal_ll`, ties broken by generation order — what a
/// stable sort of the ring followed by a first-free scan returns. Four
/// shortcuts reach that probe with less work, each exact:
///
/// * a ring is skipped when one placed block overlaps both extreme
///   corners of the clamped box `[ideal ± r·step]` its probes lie in
///   (`|r·cos t| ≤ r` and rounding is monotone), since that block then
///   overlaps every probe on the ring;
/// * the ring is scanned once, keeping the best free probe so far, and a
///   probe whose key is not below the best is never tested (it could only
///   lose the tie);
/// * the directions come from a per-thread table filled with the same
///   `cos`/`sin` expression, so the probes have the same bits;
/// * each probe tests the block that rejected the previous one first;
///   whether any block overlaps does not depend on the scan order.
fn find_free_spot(
    placed: &[PlacedBlock],
    w: f64,
    h: f64,
    ideal_ll: (f64, f64),
    search_radius: f64,
) -> Option<(f64, f64)> {
    let step = (w.min(h) / 2.0).max(0.05);
    let rings = (search_radius / step).ceil() as i32;

    let mut blocker = 0;
    let mut free = |x: f64, y: f64| -> bool {
        let r = Rect::new(x, y, w, h);
        if placed.get(blocker).is_some_and(|p| p.rect().overlaps(&r)) {
            return false;
        }
        match placed.iter().position(|p| p.rect().overlaps(&r)) {
            Some(i) => {
                blocker = i;
                false
            }
            None => true,
        }
    };

    let clamp = |v: f64| v.max(0.0);

    // Ring 0: the ideal spot itself.
    let (ix, iy) = (clamp(ideal_ll.0), clamp(ideal_ll.1));
    if free(ix, iy) {
        return Some((ix, iy));
    }
    let mut directions = DIRECTIONS.take();
    let mut spot = None;
    for ring in 1..=rings {
        let r = f64::from(ring) * step;
        let near = Rect::new(clamp(ideal_ll.0 - r), clamp(ideal_ll.1 - r), w, h);
        let far = Rect::new(clamp(ideal_ll.0 + r), clamp(ideal_ll.1 + r), w, h);
        if placed.iter().any(|p| p.rect().overlaps(&near) && p.rect().overlaps(&far)) {
            continue;
        }
        let span = ring_span(ring);
        if directions.len() < span.end {
            grow_directions(&mut directions, ring);
        }
        let mut best: Option<(f64, (f64, f64))> = None;
        for &(cos, sin) in &directions[span] {
            let (x, y) = (clamp(ideal_ll.0 + r * cos), clamp(ideal_ll.1 + r * sin));
            let key = (x - ideal_ll.0).abs() + (y - ideal_ll.1).abs();
            if best.is_some_and(|(b, _)| key.total_cmp(&b) != Ordering::Less) {
                continue;
            }
            if free(x, y) {
                best = Some((key, (x, y)));
            }
        }
        if let Some((_, p)) = best {
            spot = Some(p);
            break;
        }
    }
    DIRECTIONS.set(directions);
    spot
}

/// Where ring `ring` sits in the direction table.
fn ring_span(ring: i32) -> std::ops::Range<usize> {
    let ring = ring as usize;
    2 * ring * (ring - 1)..2 * ring * (ring + 1)
}

/// Appends the rings the table lacks, up to and including `ring`.
fn grow_directions(table: &mut Vec<(f64, f64)>, ring: i32) {
    for m in 1..=ring {
        if table.len() < ring_span(m).end {
            let k = 4 * m; // denser sampling on larger rings
            table.extend((0..k).map(|i| {
                let t = f64::from(i) / f64::from(k) * std::f64::consts::TAU;
                (t.cos(), t.sin())
            }));
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_cores(nx: usize, ny: usize, size: f64, gap: f64) -> Vec<PlacedBlock> {
        let mut v = Vec::new();
        for j in 0..ny {
            for i in 0..nx {
                v.push(PlacedBlock::new(
                    Block::new(format!("c{i}_{j}"), size, size),
                    i as f64 * (size + gap),
                    j as f64 * (size + gap),
                ));
            }
        }
        v
    }

    #[test]
    fn component_lands_in_existing_gap() {
        // 2x2 cores with a 1.0 gap: a 0.5 switch fits between them.
        let cores = grid_cores(2, 2, 2.0, 1.0);
        let req = vec![InsertRequest::new(Block::new("sw", 0.5, 0.5), (2.5, 2.5))];
        let res = insert_components(&cores, &req, 5.0);
        assert!(res.plan.overlapping_pair().is_none());
        assert_eq!(res.core_displacement, 0.0, "cores should not move");
        let (cx, cy) = res.component_centers[0];
        assert!((cx - 2.5).abs() < 1e-9 && (cy - 2.5).abs() < 1e-9, "got ({cx},{cy})");
    }

    #[test]
    fn tight_pack_forces_a_shove() {
        // Zero-gap 3x3 grid: no free space anywhere near the middle.
        let cores = grid_cores(3, 3, 2.0, 0.0);
        let req = vec![InsertRequest::new(Block::new("sw", 1.0, 1.0), (3.0, 3.0))];
        let res = insert_components(&cores, &req, 1.4);
        assert!(res.plan.overlapping_pair().is_none(), "overlap left behind");
        assert!(res.core_displacement > 0.0, "a shove must move cores");
    }

    #[test]
    fn later_components_reuse_created_gaps() {
        let cores = grid_cores(3, 3, 2.0, 0.0);
        let reqs = vec![
            InsertRequest::new(Block::new("sw0", 1.0, 1.0), (3.0, 3.0)),
            InsertRequest::new(Block::new("sw1", 0.8, 0.8), (3.2, 3.1)),
        ];
        let res = insert_components(&cores, &reqs, 2.0);
        assert!(res.plan.overlapping_pair().is_none());
        // The second component should sit close to the first (same region),
        // benefiting from the shoved-open space.
        let (ax, ay) = res.component_centers[0];
        let (bx, by) = res.component_centers[1];
        assert!((ax - bx).abs() + (ay - by).abs() < 6.0);
    }

    #[test]
    fn insertion_into_empty_die() {
        let res = insert_components(
            &[],
            &[InsertRequest::new(Block::new("sw", 1.0, 1.0), (4.0, 4.0))],
            2.0,
        );
        assert_eq!(res.component_centers[0], (4.0, 4.0));
        assert_eq!(res.component_deviation, 0.0);
    }

    #[test]
    fn ideal_position_near_origin_is_clamped() {
        let res = insert_components(
            &[],
            &[InsertRequest::new(Block::new("sw", 2.0, 2.0), (0.0, 0.0))],
            2.0,
        );
        let b = &res.plan.blocks[0];
        assert!(b.x >= 0.0 && b.y >= 0.0);
        assert!(res.plan.overlapping_pair().is_none());
    }

    #[test]
    fn many_insertions_stay_legal() {
        let cores = grid_cores(4, 4, 1.5, 0.2);
        let reqs: Vec<InsertRequest> = (0..8)
            .map(|i| {
                InsertRequest::new(
                    Block::new(format!("sw{i}"), 0.4, 0.4),
                    (0.9 * i as f64, 6.0 - 0.7 * i as f64),
                )
            })
            .collect();
        let res = insert_components(&cores, &reqs, 3.0);
        assert!(res.plan.overlapping_pair().is_none());
        assert_eq!(res.plan.blocks.len(), 16 + 8);
    }
}
