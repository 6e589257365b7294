//! The simplex solver against a dense reference tableau.
//!
//! The [`reference`] module below is a test-only oracle: a plain dense
//! two-phase simplex with one artificial column per row and full-row pivot
//! eliminations, with the same pricing rules, warm re-entry (basis replay,
//! primal phase 2 or dual simplex) and cold fallback as the library's
//! solver. The library's tableau stores no artificial for a `≤` row,
//! stops updating artificial columns once they can no longer be read,
//! keeps row and column bitmaps of its live cells and walks only those,
//! never zero-fills its reused buffer, and eliminates only over the pivot
//! row's nonzero entries; the checks here show that none of that moves a
//! single output bit: solution values, objective, error, and every field
//! of the [`SolveReport`], cold and through warm chains and exported basis
//! snapshots. The proptests draw small problems (one bitmap word each
//! way); the seeded design-size tests at the end draw problems as large as
//! a synthesized design's, whose bitmaps span several words, and run
//! large, small and large problems through one state.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sunfloor_lp::{
    ConstraintOp, PlacementProblem, PlacementState, Problem, SolveError, SolveReport, SolverState,
};

/// The dense reference solver.
mod reference {
    use sunfloor_lp::{ConstraintOp, SolveError, SolveReport};

    const EPS: f64 = 1e-9;
    const REPLAY_PIVOT_TOL: f64 = 1e-7;

    /// One constraint: terms (duplicates already merged), operator, rhs.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Row {
        pub terms: Vec<(usize, f64)>,
        pub op: ConstraintOp,
        pub rhs: f64,
    }

    /// `minimize objective · x` subject to `rows`, `x ≥ 0`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Lp {
        pub num_vars: usize,
        pub objective: Vec<f64>,
        pub rows: Vec<Row>,
    }

    /// A finished solve: objective and structural values.
    pub type Outcome = Result<(f64, Vec<f64>), SolveError>;

    #[derive(Debug, Clone, Default)]
    struct Tableau {
        a: Vec<f64>,
        basis: Vec<usize>,
        member: Vec<bool>,
        n_total: usize,
        art_start: usize,
    }

    impl Tableau {
        fn build(p: &Lp) -> Self {
            let m = p.rows.len();
            let n = p.num_vars;
            let n_slack = p
                .rows
                .iter()
                .filter(|r| matches!(r.op, ConstraintOp::Le | ConstraintOp::Ge))
                .count();
            let art_start = n + n_slack;
            let n_total = art_start + m;
            let stride = n_total + 1;
            let mut t = Self {
                a: vec![0.0; m * stride],
                basis: vec![0; m],
                member: vec![false; n_total],
                n_total,
                art_start,
            };
            let mut slack_idx = n;
            for (i, r) in p.rows.iter().enumerate() {
                let row = &mut t.a[i * stride..(i + 1) * stride];
                let mut rhs = r.rhs;
                let mut sign = 1.0;
                if rhs < 0.0 {
                    rhs = -rhs;
                    sign = -1.0;
                }
                for &(v, c) in &r.terms {
                    row[v] += sign * c;
                }
                let op = match (r.op, sign < 0.0) {
                    (ConstraintOp::Le, true) => ConstraintOp::Ge,
                    (ConstraintOp::Ge, true) => ConstraintOp::Le,
                    (op, _) => op,
                };
                let basic = match op {
                    ConstraintOp::Le => {
                        row[slack_idx] = 1.0;
                        slack_idx += 1;
                        slack_idx - 1
                    }
                    ConstraintOp::Ge => {
                        row[slack_idx] = -1.0;
                        slack_idx += 1;
                        row[art_start + i] = 1.0;
                        art_start + i
                    }
                    ConstraintOp::Eq => {
                        row[art_start + i] = 1.0;
                        art_start + i
                    }
                };
                t.basis[i] = basic;
                t.member[basic] = true;
                row[n_total] = rhs;
            }
            t
        }

        fn rows(&self) -> usize {
            self.basis.len()
        }

        fn cell(&self, i: usize, j: usize) -> f64 {
            self.a[i * (self.n_total + 1) + j]
        }

        fn rhs(&self, i: usize) -> f64 {
            self.cell(i, self.n_total)
        }

        fn has_artificial(&self) -> bool {
            self.basis.iter().any(|&b| b >= self.art_start)
        }

        fn pivot(&mut self, row: usize, col: usize) {
            let stride = self.n_total + 1;
            let inv = 1.0 / self.a[row * stride + col];
            for x in &mut self.a[row * stride..(row + 1) * stride] {
                *x *= inv;
            }
            let prow = self.a[row * stride..(row + 1) * stride].to_vec();
            for i in 0..self.rows() {
                if i == row {
                    continue;
                }
                let factor = self.a[i * stride + col];
                if factor.abs() <= 1e-12 {
                    continue;
                }
                for (x, &pv) in self.a[i * stride..(i + 1) * stride].iter_mut().zip(&prow) {
                    *x -= factor * pv;
                }
            }
            self.member[self.basis[row]] = false;
            self.member[col] = true;
            self.basis[row] = col;
        }

        fn values(&self, num_vars: usize) -> Vec<f64> {
            let mut values = vec![0.0; num_vars];
            for (i, &b) in self.basis.iter().enumerate() {
                if b < num_vars {
                    values[b] = self.rhs(i);
                }
            }
            values
        }
    }

    fn max_iterations(tab: &Tableau) -> u32 {
        u32::try_from(200 + 50 * (tab.rows() + tab.n_total)).unwrap_or(u32::MAX)
    }

    fn price(tab: &Tableau, cost: &[f64], col_limit: usize) -> Vec<f64> {
        let mut z = vec![0.0; col_limit];
        for i in 0..tab.rows() {
            let yi = cost[tab.basis[i]];
            if yi == 0.0 {
                continue;
            }
            for (j, zj) in z.iter_mut().enumerate() {
                *zj += yi * tab.cell(i, j);
            }
        }
        z
    }

    fn objective_value(tab: &Tableau, cost: &[f64]) -> f64 {
        let mut obj = 0.0;
        for i in 0..tab.rows() {
            obj += cost[tab.basis[i]] * tab.rhs(i);
        }
        obj
    }

    fn primal(
        tab: &mut Tableau,
        cost: &[f64],
        col_limit: usize,
        iterations: &mut u32,
    ) -> Result<f64, SolveError> {
        let max_iter = max_iterations(tab);
        for iter in 0..max_iter {
            let z = price(tab, cost, col_limit);
            let mut entering = None;
            let mut best = -EPS;
            let use_bland = iter > max_iter / 2;
            for j in 0..col_limit {
                if tab.member[j] {
                    continue;
                }
                let reduced = cost[j] - z[j];
                if use_bland {
                    if reduced < -EPS {
                        entering = Some(j);
                        break;
                    }
                } else if reduced < best {
                    best = reduced;
                    entering = Some(j);
                }
            }
            let Some(j) = entering else {
                return Ok(objective_value(tab, cost));
            };
            let mut leaving = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..tab.rows() {
                let aij = tab.cell(i, j);
                if aij > EPS {
                    let ratio = tab.rhs(i) / aij;
                    if ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leaving.is_some_and(|l: usize| tab.basis[i] < tab.basis[l]))
                    {
                        best_ratio = ratio;
                        leaving = Some(i);
                    }
                }
            }
            let Some(i) = leaving else {
                return Err(SolveError::Unbounded);
            };
            tab.pivot(i, j);
            *iterations += 1;
        }
        Err(SolveError::IterationLimit)
    }

    fn dual(
        tab: &mut Tableau,
        cost: &[f64],
        col_limit: usize,
        iterations: &mut u32,
    ) -> Result<f64, SolveError> {
        let max_iter = max_iterations(tab);
        for iter in 0..max_iter {
            let mut leaving = None;
            let use_bland = iter > max_iter / 2;
            let mut most_negative = -EPS;
            for i in 0..tab.rows() {
                let rhs = tab.rhs(i);
                if rhs < most_negative {
                    leaving = Some(i);
                    if use_bland {
                        break;
                    }
                    most_negative = rhs;
                }
            }
            let Some(r) = leaving else {
                return Ok(objective_value(tab, cost));
            };
            let z = price(tab, cost, col_limit);
            let mut entering = None;
            let mut best_ratio = f64::INFINITY;
            for j in 0..col_limit {
                if tab.member[j] {
                    continue;
                }
                let arj = tab.cell(r, j);
                if arj < -EPS {
                    let ratio = (cost[j] - z[j]) / -arj;
                    if ratio < best_ratio - EPS {
                        best_ratio = ratio;
                        entering = Some(j);
                    }
                }
            }
            let Some(j) = entering else {
                return Err(SolveError::Infeasible);
            };
            tab.pivot(r, j);
            *iterations += 1;
        }
        Err(SolveError::IterationLimit)
    }

    /// A saved optimal basis and the shape it belongs to.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct Saved {
        num_vars: usize,
        ops: Vec<ConstraintOp>,
        rows: Vec<usize>,
        pub cold_iterations: u32,
    }

    /// The reference counterpart of `SolverState`.
    #[derive(Debug, Clone, Default)]
    pub struct State {
        pub saved: Option<Saved>,
        pub report: SolveReport,
        last_cold_iterations: u32,
    }

    impl State {
        /// The saved basis with its cold-pivot baseline (an exported
        /// snapshot), if any.
        pub fn export(&self) -> Option<Saved> {
            self.saved.clone().map(|s| Saved { cold_iterations: self.last_cold_iterations, ..s })
        }

        /// Installs an exported snapshot (also serves as basis adoption).
        pub fn import(&mut self, snapshot: &Saved) {
            self.saved = Some(snapshot.clone());
            self.last_cold_iterations = snapshot.cold_iterations;
        }

        pub fn has_basis_for(&self, p: &Lp) -> bool {
            self.saved.as_ref().is_some_and(|s| {
                s.num_vars == p.num_vars
                    && s.ops.len() == p.rows.len()
                    && p.rows.iter().zip(&s.ops).all(|(r, &op)| r.op == op)
            })
        }

        fn capture(&mut self, p: &Lp, basis: &[usize]) {
            self.saved = Some(Saved {
                num_vars: p.num_vars,
                ops: p.rows.iter().map(|r| r.op).collect(),
                rows: basis.to_vec(),
                cold_iterations: 0,
            });
        }

        pub fn solve(&mut self, p: &Lp) -> Outcome {
            if self.has_basis_for(p) {
                if let Some(sol) = self.try_warm(p) {
                    return Ok(sol);
                }
            }
            self.solve_cold(p)
        }

        fn try_warm(&mut self, p: &Lp) -> Option<(f64, Vec<f64>)> {
            let saved = self.saved.clone()?;
            let mut tab = Tableau::build(p);
            let m = tab.rows();
            let mut claimed = vec![false; m];
            let mut replayed = 0;
            for &col in &saved.rows {
                let mut best_row = None;
                let mut best_mag = REPLAY_PIVOT_TOL;
                for (i, &taken) in claimed.iter().enumerate() {
                    if taken {
                        continue;
                    }
                    let mag = tab.cell(i, col).abs();
                    if mag > best_mag {
                        best_mag = mag;
                        best_row = Some(i);
                    }
                }
                let i = best_row?;
                claimed[i] = true;
                tab.pivot(i, col);
                replayed += 1;
            }
            let mut cost = vec![0.0; tab.n_total];
            cost[..p.num_vars].copy_from_slice(&p.objective);
            let art_start = tab.art_start;
            let mut iterations = 0u32;
            let feasible = (0..m).all(|i| tab.rhs(i) >= 0.0);
            let objective = if feasible {
                primal(&mut tab, &cost, art_start, &mut iterations).ok()?
            } else {
                let z = price(&tab, &cost, art_start);
                if !(0..art_start).all(|j| tab.member[j] || cost[j] - z[j] >= -EPS) {
                    return None;
                }
                dual(&mut tab, &cost, art_start, &mut iterations).ok()?
            };
            self.capture(p, &tab.basis);
            self.report = SolveReport {
                warm: true,
                iterations,
                replayed_pivots: replayed,
                iterations_saved: self.last_cold_iterations.saturating_sub(iterations),
            };
            Some((objective, tab.values(p.num_vars)))
        }

        pub fn solve_cold(&mut self, p: &Lp) -> Outcome {
            let mut tab = Tableau::build(p);
            let m = tab.rows();
            let n_total = tab.n_total;
            let art_start = tab.art_start;
            let mut iterations = 0u32;
            let mut cost = vec![0.0; n_total];
            if tab.has_artificial() {
                for c in cost.iter_mut().skip(art_start) {
                    *c = 1.0;
                }
                let obj = match primal(&mut tab, &cost, n_total, &mut iterations) {
                    Ok(obj) => obj,
                    Err(e) => return Err(self.fail(iterations, e)),
                };
                if obj > 1e-7 {
                    return Err(self.fail(iterations, SolveError::Infeasible));
                }
                for i in 0..m {
                    if tab.basis[i] >= art_start {
                        if let Some(j) = (0..art_start).find(|&j| tab.cell(i, j).abs() > 1e-7) {
                            tab.pivot(i, j);
                        }
                    }
                }
            }
            cost.fill(0.0);
            cost[..p.num_vars].copy_from_slice(&p.objective);
            let objective = match primal(&mut tab, &cost, art_start, &mut iterations) {
                Ok(obj) => obj,
                Err(e) => return Err(self.fail(iterations, e)),
            };
            self.last_cold_iterations = iterations;
            self.report =
                SolveReport { warm: false, iterations, replayed_pivots: 0, iterations_saved: 0 };
            if tab.has_artificial() {
                self.saved = None;
            } else {
                self.capture(p, &tab.basis);
            }
            Ok((objective, tab.values(p.num_vars)))
        }

        fn fail(&mut self, iterations: u32, e: SolveError) -> SolveError {
            self.saved = None;
            self.report = SolveReport { iterations, ..SolveReport::default() };
            e
        }
    }
}

use reference::{Lp, Row};

/// A constraint as written: terms (variables may repeat), operator, rhs.
type RawRow = (Vec<(usize, f64)>, ConstraintOp, f64);

/// Builds the library [`Problem`] and the reference [`Lp`] from the same
/// raw rows; duplicate terms merge exactly as `Problem::add_constraint`
/// documents (accumulated in first-occurrence order).
fn both(num_vars: usize, objective: &[f64], raw_rows: &[RawRow]) -> (Problem, Lp) {
    let mut p = Problem::minimize(num_vars);
    let obj_terms: Vec<(usize, f64)> = objective.iter().copied().enumerate().collect();
    p.set_objective(&obj_terms);
    let mut rows = Vec::new();
    for (terms, op, rhs) in raw_rows {
        p.add_constraint(terms, *op, *rhs);
        let mut merged: Vec<(usize, f64)> = Vec::new();
        for &(v, c) in terms {
            if let Some(e) = merged.iter_mut().find(|(mv, _)| *mv == v) {
                e.1 += c;
            } else {
                merged.push((v, c));
            }
        }
        rows.push(Row { terms: merged, op: *op, rhs: *rhs });
    }
    (p, Lp { num_vars, objective: objective.to_vec(), rows })
}

/// Asserts a library solve equals the reference outcome bit for bit.
fn same(
    got: &Result<sunfloor_lp::Solution, SolveError>,
    want: &reference::Outcome,
    got_report: SolveReport,
    want_report: SolveReport,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(s), Ok((obj, values))) => {
            let got_bits: Vec<u64> = s.values().iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
            prop_assert!(
                s.objective().to_bits() == obj.to_bits() && got_bits == want_bits,
                "solution differs: {:?} vs reference ({}, {:?})",
                s,
                obj,
                values
            );
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        _ => prop_assert!(false, "outcome differs: {:?} vs reference {:?}", got, want),
    }
    prop_assert_eq!(got_report, want_report);
    Ok(())
}

/// Coefficient values: mostly small integers and halves (tie-heavy), plus
/// a few that do not round exactly, so eliminations leave tiny residues.
const COEFS: [f64; 11] = [-2.0, -1.0, -0.5, 0.5, 1.0, 1.0, 2.0, 3.0, 0.3, 1.0 / 3.0, -1.7];
/// Right-hand sides: zeros (degenerate vertices) and negatives included.
const RHS: [f64; 9] = [-4.0, -2.0, -1.0, 0.0, 0.0, 1.0, 2.0, 3.0, 6.0];
/// Objective coefficients: many equal values, so pricing ties abound.
const OBJ: [f64; 6] = [-1.0, 0.0, 0.0, 1.0, 1.0, 2.0];

fn op_of(k: usize) -> ConstraintOp {
    [ConstraintOp::Le, ConstraintOp::Le, ConstraintOp::Ge, ConstraintOp::Eq][k % 4]
}

/// Slack between a row's activity at the anchor point and its rhs: zero
/// often, so many rows are tight there (degenerate vertices).
const SLACK: [f64; 4] = [0.0, 0.0, 1.0, 2.0];

/// A random LP: variable count, objective, rows, a second set of
/// right-hand sides and a second objective of the same shape.
type LpCase = (usize, Vec<f64>, Vec<RawRow>, Vec<f64>, Vec<f64>);

/// One drawn row: terms as `(variable, COEFS index)`, then indices into
/// the operator cycle, `RHS`, the row kind (`0..8`) and `SLACK`.
type RowDraw = (Vec<(usize, usize)>, usize, usize, usize, usize);

/// A random LP over `n` variables, with a second set of right-hand sides
/// and a second objective of the same shape. Most rows are built around
/// two anchor points `x0, x1 ≥ 0` (each row holds at `x0` for the first
/// rhs set and at `x1` for the second, often with equality), so most
/// problems are feasible and moving from the first set to the second
/// exercises the dual re-entry; the remaining rows get an arbitrary rhs,
/// negative ones included, which makes some problems infeasible or
/// unbounded. A row may also be an exact duplicate of an earlier row or a
/// doubled copy of one (a redundant constraint), and fresh rows may repeat
/// a variable.
fn arb_lp() -> impl Strategy<Value = LpCase> {
    (1usize..7, 1usize..9).prop_flat_map(|(n, m)| {
        let term = (0..n, 0usize..COEFS.len());
        let row = (
            proptest::collection::vec(term, 1..5),
            0usize..4,
            0usize..RHS.len(),
            0usize..8,
            0usize..SLACK.len(),
        );
        let point = proptest::collection::vec(0u32..4, n..n + 1);
        (
            Just(n),
            proptest::collection::vec(0usize..OBJ.len(), n..n + 1),
            proptest::collection::vec(row, m..m + 1),
            point.clone(),
            point,
            proptest::collection::vec(0usize..OBJ.len(), n..n + 1),
        )
            .prop_map(|(n, obj, rows, x0, x1, obj2)| lp_from_draws(n, &obj, rows, &x0, &x1, &obj2))
    })
}

/// Turns the index draws of [`arb_lp`] (or [`draw_lp`]) into the LP.
fn lp_from_draws(
    n: usize,
    obj: &[usize],
    rows: Vec<RowDraw>,
    x0: &[u32],
    x1: &[u32],
    obj2: &[usize],
) -> LpCase {
    let mut raw: Vec<RawRow> = Vec::new();
    let mut rhs2: Vec<f64> = Vec::new();
    for (i, (terms, op, rhs, kind, slack)) in rows.into_iter().enumerate() {
        if i > 0 && kind >= 6 {
            let j = (kind + i) % i;
            let scale = if kind == 6 { 1.0 } else { 2.0 };
            let (t, o, r) = raw[j].clone();
            raw.push((t.iter().map(|&(v, c)| (v, c * scale)).collect(), o, r * scale));
            rhs2.push(rhs2[j] * scale);
            continue;
        }
        let terms: Vec<(usize, f64)> = terms.into_iter().map(|(v, c)| (v, COEFS[c])).collect();
        let op = op_of(op);
        if kind < 2 {
            raw.push((terms, op, RHS[rhs]));
            rhs2.push(RHS[(rhs + 4) % RHS.len()]);
            continue;
        }
        let at =
            |x: &[u32]| -> f64 { terms.iter().map(|&(v, c)| c * f64::from(x[v])).sum::<f64>() };
        let room = match op {
            ConstraintOp::Le => SLACK[slack],
            ConstraintOp::Ge => -SLACK[slack],
            ConstraintOp::Eq => 0.0,
        };
        let (r0, r1) = (at(x0) + room, at(x1) + room);
        raw.push((terms, op, r0));
        rhs2.push(r1);
    }
    let obj = obj.iter().map(|&k| OBJ[k]).collect();
    let obj2 = obj2.iter().map(|&k| OBJ[k]).collect();
    (n, obj, raw, rhs2, obj2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Cold solves, a warm chain through one state (same problem, then new
    /// rhs, then new objective), and an exported snapshot seeding a fresh
    /// state all match the reference bit for bit, reports included.
    #[test]
    fn random_lps_match_the_dense_reference((n, obj, raw, rhs2, obj2) in arb_lp()) {
        let (p, lp) = both(n, &obj, &raw);
        let mut state = SolverState::new();
        let mut oracle = reference::State::default();

        let got = p.solve_from(&mut state);
        let want = oracle.solve(&lp);
        same(&got, &want, state.last_report(), oracle.report)?;
        prop_assert_eq!(p.solve(), got.clone(), "solve() is the cold path of solve_from");

        // Same shape, new right-hand sides, then a new objective too.
        let moved: Vec<RawRow> =
            raw.iter().zip(&rhs2).map(|((t, o, _), &r)| (t.clone(), *o, r)).collect();
        let steps = [both(n, &obj, &moved), both(n, &obj2, &moved), both(n, &obj2, &raw)];
        for (q, q_lp) in &steps {
            let got = q.solve_from(&mut state);
            let want = oracle.solve(q_lp);
            same(&got, &want, state.last_report(), oracle.report)?;
        }

        // A snapshot exported after the chain seeds a detached state.
        let snapshot = state.export_basis();
        let reference_snapshot = oracle.export();
        prop_assert_eq!(snapshot.is_some(), reference_snapshot.is_some());
        if let (Some(snapshot), Some(reference_snapshot)) = (snapshot, reference_snapshot) {
            let (q, q_lp) = &steps[0];
            let mut seeded = SolverState::new();
            seeded.import_basis(&snapshot);
            let mut seeded_oracle = reference::State::default();
            seeded_oracle.import(&reference_snapshot);
            let got = q.solve_from(&mut seeded);
            let want = seeded_oracle.solve(q_lp);
            same(&got, &want, seeded.last_report(), seeded_oracle.report)?;
        }
    }
}

/// The axis LP `PlacementProblem` builds: `d ≥ |s_i − c|` for every pin
/// and `d ≥ |s_a − s_b|` for every pair, minimizing the weighted `d`s.
fn axis_lp(
    free: usize,
    fixed: &[(usize, f64, f64, f64)],
    pairs: &[(usize, usize, f64)],
    axis: usize,
) -> Lp {
    let n = free + fixed.len() + pairs.len();
    let mut objective = vec![0.0; n];
    let mut rows = Vec::new();
    let mut d = free;
    for &(i, x, y, w) in fixed {
        let c = if axis == 0 { x } else { y };
        rows.push(Row { terms: vec![(i, 1.0), (d, -1.0)], op: ConstraintOp::Le, rhs: c });
        rows.push(Row { terms: vec![(i, -1.0), (d, -1.0)], op: ConstraintOp::Le, rhs: -c });
        objective[d] = w;
        d += 1;
    }
    for &(a, b, w) in pairs {
        rows.push(Row {
            terms: vec![(a, 1.0), (b, -1.0), (d, -1.0)],
            op: ConstraintOp::Le,
            rhs: 0.0,
        });
        rows.push(Row {
            terms: vec![(b, 1.0), (a, -1.0), (d, -1.0)],
            op: ConstraintOp::Le,
            rhs: 0.0,
        });
        objective[d] = w;
        d += 1;
    }
    Lp { num_vars: n, objective, rows }
}

/// The reference placement of one solve through `(x, y)` reference states:
/// x first, then y, adopting the x basis when y has none of its own.
fn reference_place(
    free: usize,
    fixed: &[(usize, f64, f64, f64)],
    pairs: &[(usize, usize, f64)],
    states: &mut (reference::State, reference::State),
) -> Result<Vec<(u64, u64)>, SolveError> {
    let (x_lp, y_lp) = (axis_lp(free, fixed, pairs, 0), axis_lp(free, fixed, pairs, 1));
    let (_, xs) = states.0.solve(&x_lp)?;
    if !states.1.has_basis_for(&y_lp) {
        if let Some(s) = states.0.export() {
            states.1.import(&s);
        }
    }
    let (_, ys) = states.1.solve(&y_lp)?;
    Ok((0..free).map(|i| (xs[i].to_bits(), ys[i].to_bits())).collect())
}

/// Positions of the attracted free points, as bits (unattracted points are
/// settled by a rule outside the LP).
fn attracted_bits(
    pos: &[(f64, f64)],
    fixed: &[(usize, f64, f64, f64)],
    pairs: &[(usize, usize, f64)],
) -> Vec<Option<(u64, u64)>> {
    (0..pos.len())
        .map(|i| {
            let attracted =
                fixed.iter().any(|f| f.0 == i) || pairs.iter().any(|p| p.0 == i || p.1 == i);
            attracted.then(|| (pos[i].0.to_bits(), pos[i].1.to_bits()))
        })
        .collect()
}

/// Asserts a library placement equals the reference one bit for bit on
/// every attracted point, with equal per-axis reports.
fn same_placement(
    got: &Result<Vec<(f64, f64)>, SolveError>,
    want: &Result<Vec<(u64, u64)>, SolveError>,
    fixed: &[(usize, f64, f64, f64)],
    pairs: &[(usize, usize, f64)],
    got_reports: (SolveReport, SolveReport),
    want_reports: (SolveReport, SolveReport),
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(pos), Ok(bits)) => {
            for (i, (g, b)) in attracted_bits(pos, fixed, pairs).iter().zip(bits).enumerate() {
                if let Some(g) = g {
                    prop_assert!(g == b, "point {}: {:?} vs reference bits {:?}", i, pos[i], b);
                }
            }
            prop_assert_eq!(got_reports, want_reports);
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        _ => prop_assert!(false, "outcome differs: {:?} vs reference {:?}", got, want),
    }
    Ok(())
}

type Placement = (usize, Vec<(usize, f64, f64, f64)>, Vec<(usize, usize, f64)>);

/// A random placement: 1–5 free points, pins mostly on a coarse grid (ties
/// and shared medians), small integer weights, and free-free pairs.
fn arb_placement() -> impl Strategy<Value = (Placement, Vec<(f64, f64, f64)>)> {
    (1usize..6, 1usize..9, 0usize..6).prop_flat_map(|(free, n_fixed, n_pairs)| {
        let pin = (0..free, 0u32..7, 0u32..7, 1u32..4);
        let pair = (0..free, 0..free, 1u32..4);
        let moved = (0u32..7, 0u32..7, 1u32..4);
        (
            Just(free),
            proptest::collection::vec(pin, n_fixed..n_fixed + 1),
            proptest::collection::vec(pair, n_pairs..n_pairs + 1),
            proptest::collection::vec(moved, n_fixed..n_fixed + 1),
        )
            .prop_map(|(free, pins, pairs, moved)| {
                // Five grid lines (shared medians) and two off-grid values.
                let grid = |k: u32| match k {
                    5 => 0.1,
                    6 => 7.0 / 3.0,
                    _ => f64::from(k) * 2.5,
                };
                let fixed = pins
                    .into_iter()
                    .map(|(i, x, y, w)| (i, grid(x), grid(y), f64::from(w)))
                    .collect();
                let pairs = pairs
                    .into_iter()
                    .filter(|&(a, b, _)| a != b)
                    .map(|(a, b, w)| (a, b, f64::from(w)))
                    .collect();
                let moved =
                    moved.into_iter().map(|(x, y, w)| (grid(x), grid(y), f64::from(w))).collect();
                ((free, fixed, pairs), moved)
            })
    })
}

fn placement_of(
    free: usize,
    fixed: &[(usize, f64, f64, f64)],
    pairs: &[(usize, usize, f64)],
) -> PlacementProblem {
    let mut p = PlacementProblem::new(free);
    for &(i, x, y, w) in fixed {
        p.attract_to_fixed(i, (x, y), w);
    }
    for &(a, b, w) in pairs {
        p.attract_pair(a, b, w);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Placements — cold, re-solved through the same state with moved pins
    /// and new weights (the in-place refresh), and seeded from an exported
    /// `PlacementSeed` — match the reference bit for bit, per-axis reports
    /// included.
    #[test]
    fn random_placements_match_the_dense_reference(
        ((free, fixed, pairs), moved) in arb_placement()
    ) {
        let p = placement_of(free, &fixed, &pairs);
        let mut state = PlacementState::new();
        let mut oracle = (reference::State::default(), reference::State::default());
        let got = p.solve_with(&mut state);
        let want = reference_place(free, &fixed, &pairs, &mut oracle);
        let want_reports = (oracle.0.report, oracle.1.report);
        same_placement(&got, &want, &fixed, &pairs, state.reports(), want_reports)?;

        // Same structure, moved pins and new weights.
        let fixed2: Vec<(usize, f64, f64, f64)> =
            fixed.iter().zip(&moved).map(|(f, &(x, y, w))| (f.0, x, y, w)).collect();
        let p2 = placement_of(free, &fixed2, &pairs);
        let seed = state.export_seed();
        prop_assert_eq!(seed.is_some(), oracle.0.export().is_some() && oracle.1.export().is_some());
        let mut seeded_state = PlacementState::new();
        let mut seeded_oracle = (reference::State::default(), reference::State::default());
        if let Some(seed) = &seed {
            seeded_state.seed_from(seed);
            if let (Some(x), Some(y)) = (oracle.0.export(), oracle.1.export()) {
                seeded_oracle.0.import(&x);
                seeded_oracle.1.import(&y);
            }
        }
        for (st, or) in [(&mut state, &mut oracle), (&mut seeded_state, &mut seeded_oracle)] {
            let got = p2.solve_with(st);
            let want = reference_place(free, &fixed2, &pairs, or);
            same_placement(&got, &want, &fixed2, &pairs, st.reports(), (or.0.report, or.1.report))?;
        }
    }
}

// ---------------------------------------------------------------------------
// Design-size cases. The properties above stay within one bitmap word in
// each direction (at most 8 rows and a few dozen columns); the cases below
// are as large as a synthesized design's axis LPs, so the tableau's row and
// column bitmaps span several words, and they run large, small and large
// problems through one state, so every rebuild lands on a buffer holding
// stale cells of a different tableau.

/// Panics with the case context when a comparison failed.
fn check(r: Result<(), TestCaseError>, ctx: &str) {
    if let Err(e) = r {
        panic!("{ctx}: {e:?}");
    }
}

/// The library's column count for `lp`: structural, one slack or surplus
/// per inequality, one artificial per row that is not a `≤` row once its
/// rhs is made non-negative.
fn library_columns(lp: &Lp) -> usize {
    let slack = lp.rows.iter().filter(|r| r.op != ConstraintOp::Eq).count();
    let art = lp
        .rows
        .iter()
        .filter(|r| match r.op {
            ConstraintOp::Le => r.rhs < 0.0,
            ConstraintOp::Ge => r.rhs >= 0.0,
            ConstraintOp::Eq => true,
        })
        .count();
    lp.num_vars + slack + art
}

/// Whether `lp`'s tableau needs more than one bitmap word per column (more
/// than 64 rows) and more than two per row (more than 128 columns).
fn spans_words(lp: &Lp) -> bool {
    lp.rows.len() > 64 && library_columns(lp) > 128
}

/// A pin coordinate on a 20 mm die: mostly a quarter-millimetre lattice
/// (shared medians, exact ties), some zeros (`rhs = 0` rows) and some
/// thirds, which do not round exactly.
fn design_coord(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..10u32) {
        0 => 0.0,
        1 | 2 => f64::from(rng.gen_range(1..60u32)) / 3.0,
        _ => f64::from(rng.gen_range(0..80u32)) * 0.25,
    }
}

/// A design-size placement: 6–12 free points, 20–40 pins (the first one
/// on each free point, so every point is attracted) and 6–12 pairs, with
/// small integer weights; plus, per pin, a moved location and a new
/// weight for the in-place refresh.
fn design_placement(rng: &mut StdRng) -> (Placement, Vec<(f64, f64, f64)>) {
    let free = rng.gen_range(6..=12usize);
    let n_pins = rng.gen_range(20..=40usize);
    let n_pairs = rng.gen_range(6..=12usize);
    let mut fixed = Vec::new();
    for k in 0..n_pins {
        let i = if k < free { k } else { rng.gen_range(0..free) };
        let (x, y) = (design_coord(rng), design_coord(rng));
        fixed.push((i, x, y, f64::from(rng.gen_range(1..=4u32))));
    }
    let mut pairs = Vec::new();
    for _ in 0..n_pairs {
        let a = rng.gen_range(0..free);
        let b = (a + rng.gen_range(1..free)) % free;
        pairs.push((a, b, f64::from(rng.gen_range(1..=4u32))));
    }
    let moved = (0..n_pins)
        .map(|_| (design_coord(rng), design_coord(rng), f64::from(rng.gen_range(1..=4u32))))
        .collect();
    ((free, fixed, pairs), moved)
}

/// A small placement of the size [`arb_placement`] draws.
fn small_placement(rng: &mut StdRng) -> Placement {
    let free = rng.gen_range(1..=4usize);
    let fixed = (0..rng.gen_range(1..=6usize))
        .map(|_| {
            let i = rng.gen_range(0..free);
            (i, design_coord(rng), design_coord(rng), f64::from(rng.gen_range(1..=3u32)))
        })
        .collect();
    let pairs = (0..rng.gen_range(0..=3usize))
        .map(|_| (rng.gen_range(0..free), rng.gen_range(0..free)))
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (a, b, 2.0))
        .collect();
    (free, fixed, pairs)
}

/// Solves one placement through `state` and the reference states and
/// compares them bit for bit, per-axis reports included.
fn place_both(
    (free, fixed, pairs): &Placement,
    state: &mut PlacementState,
    oracle: &mut (reference::State, reference::State),
    ctx: &str,
) {
    let got = placement_of(*free, fixed, pairs).solve_with(state);
    let want = reference_place(*free, fixed, pairs, oracle);
    let want_reports = (oracle.0.report, oracle.1.report);
    check(same_placement(&got, &want, fixed, pairs, state.reports(), want_reports), ctx);
}

/// Design-size placements through one `PlacementState` — a large
/// placement cold, re-solved with moved pins and new weights (warm), a
/// small one, a second large one, and a fresh state seeded from the
/// second's exported `PlacementSeed` — all match the reference bit for
/// bit, per-axis reports included.
#[test]
fn design_size_placements_match_the_dense_reference() {
    let mut rng = StdRng::seed_from_u64(0x5EED_B175);
    let cases = 24;
    let (mut spanning, mut warm) = (0, 0);
    for case in 0..cases {
        let (big, moved) = design_placement(&mut rng);
        let (big2, moved2) = design_placement(&mut rng);
        let small = small_placement(&mut rng);
        let refresh = |(free, fixed, pairs): &Placement, moved: &[(f64, f64, f64)]| -> Placement {
            let fixed = fixed.iter().zip(moved).map(|(f, &(x, y, w))| (f.0, x, y, w)).collect();
            (*free, fixed, pairs.clone())
        };
        let (free, fixed, pairs) = &big;
        if spans_words(&axis_lp(*free, fixed, pairs, 0)) {
            spanning += 1;
        }

        let mut state = PlacementState::new();
        let mut oracle = (reference::State::default(), reference::State::default());
        let steps = [&big, &refresh(&big, &moved), &small, &big2];
        for (k, p) in steps.into_iter().enumerate() {
            place_both(p, &mut state, &mut oracle, &format!("case {case}, step {k}"));
            warm += u32::from(state.reports().0.warm) + u32::from(state.reports().1.warm);
        }

        let seed = state.export_seed();
        assert_eq!(
            seed.is_some(),
            oracle.0.export().is_some() && oracle.1.export().is_some(),
            "case {case}: seed export"
        );
        if let (Some(seed), Some(x), Some(y)) = (seed, oracle.0.export(), oracle.1.export()) {
            let mut seeded = PlacementState::new();
            seeded.seed_from(&seed);
            let mut seeded_oracle = (reference::State::default(), reference::State::default());
            seeded_oracle.0.import(&x);
            seeded_oracle.1.import(&y);
            let p = refresh(&big2, &moved2);
            place_both(&p, &mut seeded, &mut seeded_oracle, &format!("case {case}, seeded"));
            warm += u32::from(seeded.reports().0.warm);
        }
    }
    assert!(spanning >= cases * 2 / 3, "only {spanning} of {cases} cases span two words");
    assert!(warm >= cases * 2, "only {warm} warm axis solves in {cases} cases");
}

/// A random LP of design size (60–80 variables, 66–90 rows) drawn like
/// [`arb_lp`]'s, through [`lp_from_draws`], with non-negative costs and
/// fewer arbitrary and duplicated rows.
fn draw_lp(rng: &mut StdRng) -> LpCase {
    let n = rng.gen_range(60..=80usize);
    let m = rng.gen_range(66..=90usize);
    // Non-negative costs (OBJ[1..]): with dozens of variables, a single
    // negative cost nearly always finds an unbounded ray.
    let mut pick = || -> Vec<usize> { (0..n).map(|_| rng.gen_range(1..OBJ.len())).collect() };
    let (obj, obj2) = (pick(), pick());
    let rows = (0..m)
        .map(|_| {
            let terms = (0..rng.gen_range(1..5usize))
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..COEFS.len())))
                .collect();
            (
                terms,
                rng.gen_range(0..4usize),
                rng.gen_range(0..RHS.len()),
                // Mostly anchored rows: at this size the small draws' share
                // of arbitrary (kind < 2) and duplicated (kind ≥ 6) rows
                // would leave nearly every LP infeasible or redundant.
                match rng.gen_range(0..40u32) {
                    0 => 0,
                    1 | 2 => rng.gen_range(6..8usize),
                    _ => rng.gen_range(2..6usize),
                },
                rng.gen_range(0..SLACK.len()),
            )
        })
        .collect();
    let mut point = || -> Vec<u32> { (0..n).map(|_| rng.gen_range(0..4u32)).collect() };
    let (x0, x1) = (point(), point());
    lp_from_draws(n, &obj, rows, &x0, &x1, &obj2)
}

/// Large, small and large LPs through one `SolverState`: a design-size
/// random LP, the same with new right-hand sides (the dual re-entry) and a
/// new objective, a small LP, a design-size placement's x-axis LP and its
/// refresh, and a second design-size random LP — each step matches the
/// reference bit for bit, reports included.
#[test]
fn large_small_large_lps_through_one_state_match_the_dense_reference() {
    let mut rng = StdRng::seed_from_u64(0x1A26_E5A1);
    let cases = 16;
    let (mut spanning, mut solved, mut warm) = (0, 0, 0);
    for case in 0..cases {
        let (n, obj, raw, rhs2, obj2) = draw_lp(&mut rng);
        let moved: Vec<RawRow> =
            raw.iter().zip(&rhs2).map(|((t, o, _), &r)| (t.clone(), *o, r)).collect();
        let small = {
            let (free, fixed, pairs) = small_placement(&mut rng);
            axis_lp(free, &fixed, &pairs, 1)
        };
        let ((free, fixed, pairs), pins) = design_placement(&mut rng);
        let placed = axis_lp(free, &fixed, &pairs, 0);
        // Moved pins, same weights: the dual re-entry of a placement chain.
        let fixed2: Vec<_> =
            fixed.iter().zip(&pins).map(|(&(i, .., w), &(x, y, _))| (i, x, y, w)).collect();
        let replaced = axis_lp(free, &fixed2, &pairs, 0);
        let (n2, obj_b, raw_b, ..) = draw_lp(&mut rng);

        let mut steps: Vec<Lp> =
            vec![both(n, &obj, &raw).1, both(n, &obj, &moved).1, both(n, &obj2, &moved).1, small];
        steps.extend([placed, replaced, both(n2, &obj_b, &raw_b).1]);
        let mut state = SolverState::new();
        let mut oracle = reference::State::default();
        for (k, lp) in steps.iter().enumerate() {
            let p = problem_of(lp);
            let got = p.solve_from(&mut state);
            let want = oracle.solve(lp);
            check(
                same(&got, &want, state.last_report(), oracle.report),
                &format!("case {case}, step {k}"),
            );
            spanning += u32::from(spans_words(lp));
            solved += u32::from(got.is_ok());
            warm += u32::from(state.last_report().warm);
        }
    }
    assert!(spanning >= cases * 4, "only {spanning} design-size steps span two words");
    assert!(solved >= cases * 4, "only {solved} of {} steps solved", cases * 7);
    assert!(warm >= cases, "only {warm} warm re-entries");
}

/// The library [`Problem`] of a reference [`Lp`] (terms already merged).
fn problem_of(lp: &Lp) -> Problem {
    let mut p = Problem::minimize(lp.num_vars);
    let obj: Vec<(usize, f64)> = lp.objective.iter().copied().enumerate().collect();
    p.set_objective(&obj);
    for r in &lp.rows {
        p.add_constraint(&r.terms, r.op, r.rhs);
    }
    p
}
