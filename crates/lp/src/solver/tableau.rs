//! Simplex tableau in standard form.
//!
//! The tableau is stored as one flat row-major array and the inner loops —
//! pricing, the ratio test and the pivot elimination — run over contiguous
//! slices. Columns are laid out as structural variables, then one slack or
//! surplus per inequality row, then one artificial per row that *starts* on
//! an artificial (a `≥` or `=` row after its rhs is made non-negative),
//! then the rhs. A `≤` row starts on its slack and gets no artificial: its
//! artificial column would be all zero, with a phase-1 reduced cost of
//! exactly 1, so it could never enter the basis.
//!
//! Two further cuts keep each pivot cheap:
//!
//! * Once phase 1 ends — and on the whole warm path, which replays a basis
//!   of structural and slack columns and then prices only those — no
//!   artificial column is read again, so pivots stop updating them
//!   ([`Tableau::retire_artificials`]).
//! * The elimination runs only over the nonzero entries of the scaled pivot
//!   row; the rhs column is always updated.
//!
//! # Bit-identity with the dense tableau
//!
//! The solver returns exactly the bits a dense tableau with one artificial
//! per row and full-row eliminations would return, with the same pivot
//! sequence (and so the same vertex on degenerate problems and the same
//! iteration counts). Dropping the never-entering artificials keeps the
//! relative order of every remaining column, so Dantzig's first-minimum
//! rule, Bland's smallest-index rule and the ratio test's smallest-basis-
//! index tie-break choose the same columns and rows. With finite entries,
//! skipping an update `x -= factor · pv` where `pv` is `±0` can change
//! nothing but the sign of a zero entry `x`, and that sign never reaches an
//! output:
//!
//! * pivot choice ignores it — it compares entries against `±EPS`, takes
//!   magnitudes, and divides `rhs / a` only for `a > EPS`;
//! * the `z_j` sums of [`super::pricing::price`] start at `+0` and only
//!   ever add products, so they cannot reach `−0` and a `±0` term leaves
//!   them unchanged;
//! * the rhs column — the only source of the solution values and the
//!   objective — is still updated densely, with the same operands.
//!
//! The iteration cap (and with it the point where pricing switches to
//! Bland's rule) is still computed from the *logical* column count, one
//! artificial per row, so it does not move either.
//!
//! A [`Tableau`] is a reusable buffer: [`Tableau::rebuild`] refills it for
//! a new [`Problem`] without reallocating, which is what lets a
//! [`super::SolverState`] survive across solves.

use super::basis::Basis;
use super::{ConstraintOp, Problem};

#[derive(Debug, Clone, Default)]
pub(crate) struct Tableau {
    /// Flat `m × (n_total + 1)` row-major matrix; last column is the rhs.
    a: Vec<f64>,
    /// Current basis (per-row basic variable + membership bitmap).
    pub(crate) basis: Basis,
    /// Total column count excluding rhs: structural + slack + artificial.
    pub(crate) n_total: usize,
    /// First artificial column index.
    pub(crate) art_start: usize,
    /// Column count of the dense layout with one artificial per row: the
    /// iteration cap is sized from it.
    pub(crate) logical_cols: usize,
    /// Pivots update columns `0..live` (and the rhs): `n_total` while the
    /// artificials are in play, `art_start` after.
    live: usize,
    /// Pivot scratch: the nonzero entries of the scaled pivot row.
    prow: Vec<(usize, f64)>,
}

impl Tableau {
    /// Rebuilds the tableau for `p`, reusing every buffer. Rows are
    /// normalized to a non-negative rhs; `≤` rows start on their slack,
    /// all other rows on their own artificial.
    pub(crate) fn rebuild(&mut self, p: &Problem) {
        let rows = p.constraint_rows();
        let m = rows.len();
        let n = p.num_vars();

        // The operator each row has once its rhs is made non-negative.
        let normalized = |op: ConstraintOp, rhs: f64| match (op, rhs < 0.0) {
            (ConstraintOp::Le, true) => ConstraintOp::Ge,
            (ConstraintOp::Ge, true) => ConstraintOp::Le,
            (op, _) => op,
        };
        let mut n_slack = 0;
        let mut n_art = 0;
        for r in rows {
            if matches!(r.op, ConstraintOp::Le | ConstraintOp::Ge) {
                n_slack += 1;
            }
            if normalized(r.op, r.rhs) != ConstraintOp::Le {
                n_art += 1;
            }
        }
        let art_start = n + n_slack;
        let n_total = art_start + n_art;
        let stride = n_total + 1;

        self.a.clear();
        self.a.resize(m * stride, 0.0);
        self.n_total = n_total;
        self.art_start = art_start;
        self.logical_cols = art_start + m;
        self.live = n_total;
        self.basis.reset(m, n_total);

        let mut slack_idx = n;
        let mut art_idx = art_start;
        for (i, r) in rows.iter().enumerate() {
            let row = &mut self.a[i * stride..(i + 1) * stride];
            let mut rhs = r.rhs;
            let mut sign = 1.0;
            // Normalize to rhs >= 0.
            if rhs < 0.0 {
                rhs = -rhs;
                sign = -1.0;
            }
            for &(v, c) in &r.terms {
                row[v] += sign * c;
            }
            match normalized(r.op, r.rhs) {
                ConstraintOp::Le => {
                    row[slack_idx] = 1.0;
                    // Slack can serve as the initial basis directly.
                    self.basis.install(i, slack_idx);
                    slack_idx += 1;
                }
                ConstraintOp::Ge => {
                    row[slack_idx] = -1.0; // surplus
                    slack_idx += 1;
                    self.basis.install(i, art_idx);
                    row[art_idx] = 1.0;
                    art_idx += 1;
                }
                ConstraintOp::Eq => {
                    self.basis.install(i, art_idx);
                    row[art_idx] = 1.0;
                    art_idx += 1;
                }
            }
            row[n_total] = rhs;
        }
    }

    /// Stops maintaining the artificial columns: later pivots update only
    /// the structural and slack columns and the rhs. Called once nothing
    /// will read an artificial column again (after phase 1, or before a
    /// warm re-entry).
    pub(crate) fn retire_artificials(&mut self) {
        self.live = self.art_start;
    }

    pub(crate) fn rows(&self) -> usize {
        self.basis.rows.len()
    }

    pub(crate) fn stride(&self) -> usize {
        self.n_total + 1
    }

    /// The matrix prefix of row `i` up to `col_limit` (excludes the rhs
    /// unless `col_limit == n_total + 1`).
    pub(crate) fn row_prefix(&self, i: usize, col_limit: usize) -> &[f64] {
        let stride = self.stride();
        &self.a[i * stride..i * stride + col_limit]
    }

    pub(crate) fn cell(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.stride() + j]
    }

    pub(crate) fn rhs(&self, i: usize) -> f64 {
        self.cell(i, self.n_total)
    }

    /// Pivots on `(row, col)`: scales the pivot row so the pivot element
    /// becomes 1 and eliminates `col` from every other row, then updates
    /// the basis bookkeeping. Only the live columns and the rhs are
    /// updated, and the elimination skips the pivot row's zero entries
    /// (see the [module docs](self) for why the result is unchanged).
    pub(crate) fn pivot(&mut self, row: usize, col: usize) {
        let m = self.rows();
        let stride = self.stride();
        let rhs_col = self.n_total;
        let piv = self.a[row * stride + col];
        debug_assert!(piv.abs() > 1e-12, "pivot on (near-)zero element");
        let inv = 1.0 / piv;
        let pivot_row = &mut self.a[row * stride..(row + 1) * stride];
        self.prow.clear();
        for (j, x) in pivot_row[..self.live].iter_mut().enumerate() {
            if *x != 0.0 {
                *x *= inv;
                self.prow.push((j, *x));
            }
        }
        pivot_row[rhs_col] *= inv;
        let rhs_pv = pivot_row[rhs_col];
        for i in 0..m {
            if i == row {
                continue;
            }
            let target = &mut self.a[i * stride..(i + 1) * stride];
            let factor = target[col];
            if factor.abs() <= 1e-12 {
                continue;
            }
            for &(j, pv) in &self.prow {
                target[j] -= factor * pv;
            }
            target[rhs_col] -= factor * rhs_pv;
        }
        self.basis.replace(row, col);
    }

    /// Extracts the solution values of the structural variables.
    pub(crate) fn extract_values(&self, num_vars: usize, values: &mut Vec<f64>) {
        values.clear();
        values.resize(num_vars, 0.0);
        for (i, &b) in self.basis.rows.iter().enumerate() {
            if b < num_vars {
                values[b] = self.rhs(i);
            }
        }
    }
}
