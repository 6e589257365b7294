//! Simplex tableau in standard form.
//!
//! The tableau is stored as one flat row-major array plus two bitmaps over
//! its matrix cells: a row bitmap (bit `j` of row `i`) and a column bitmap
//! (bit `i` of column `j`), both in `u64` words. Columns are laid out as
//! structural variables, then one slack or surplus per inequality row, then
//! one artificial per row that *starts* on an artificial (a `≥` or `=` row
//! after its rhs is made non-negative), then the rhs. A `≤` row starts on
//! its slack and gets no artificial: its artificial column would be all
//! zero, with a phase-1 reduced cost of exactly 1, so it could never enter
//! the basis.
//!
//! **A matrix cell whose bit is clear reads as `+0.0` and is never
//! loaded.** A set bit may still hold a zero (an update can cancel or
//! underflow to zero without clearing it, and a scaled pivot row keeps its
//! bits); every consumer compares the value, exactly as it would on a
//! dense tableau. The rhs column has no bits: it is dense and always
//! updated. Every scan walks set bits in ascending order:
//!
//! * pricing sums each priced row over its row bits;
//! * the pivot scales the pivot row over its row bits, and eliminates only
//!   the rows set in the pivot column's bits (a copy of the column's words,
//!   since the elimination clears them);
//! * the primal ratio test and the basis replay's pivot-row search walk the
//!   entering column's bits, the dual entering scan and the phase-1
//!   artificial clean-up walk the leaving row's bits.
//!
//! The elimination runs only over the nonzero entries of the scaled pivot
//! row; each update reads its cell only when the bit is set (`0.0` when
//! not), writes the result, and sets or clears the bit from it. So a pivot
//! costs time in the nonzeros it touches, and [`Tableau::rebuild`] costs
//! time in the problem's nonzeros plus the bitmaps: it writes each row's
//! merged terms, its slack and artificial entries and its rhs, clears the
//! two bitmaps, and leaves every other cell of the reused buffer as it was.
//!
//! Once phase 1 ends — and on the whole warm path, which replays a basis of
//! structural and slack columns and then prices only those — no artificial
//! column is read again, so pivots stop updating them
//! ([`Tableau::retire_artificials`]); their cells and bits go stale and
//! every later scan stops below the first artificial column.
//!
//! # Bit-identity with the dense tableau
//!
//! The solver returns exactly the bits a dense tableau with one artificial
//! per row and full-row eliminations would return, with the same pivot
//! sequence (and so the same vertex on degenerate problems and the same
//! iteration counts). Dropping the never-entering artificials keeps the
//! relative order of every remaining column, and every scan visits its
//! candidates in ascending index order, so Dantzig's first-minimum rule,
//! Bland's smallest-index rule, the ratio test's smallest-basis-index
//! tie-break and the replay's smallest-row tie-break choose the same
//! columns and rows.
//!
//! Every nonzero cell of the dense tableau has its bit set and holds the
//! same value here: [`Tableau::rebuild`] writes `sign · c`, the value `+=`
//! leaves on a zeroed cell whenever it is nonzero (a zero term stays a
//! clear cell), and an update of a clear cell computes `0.0 − factor · pv`
//! where the dense tableau computes `±0 − factor · pv`, equal unless the
//! product is itself zero.
//! The two tableaus therefore differ only in the sign of zero entries
//! (a clear cell reads `+0.0`, the dense cell may hold `−0.0`), and with
//! finite entries that sign never reaches an output:
//!
//! * pivot choice ignores it — it compares entries against `±EPS` or the
//!   replay tolerance, takes magnitudes, skips factors with
//!   `|factor| ≤ 1e-12`, and divides `rhs / a` only for `a > EPS`; so a
//!   zero cell, bit set or clear, is never a candidate, and skipping clear
//!   cells skips no candidate;
//! * the `z_j` sums of [`super::pricing::price`] start at `+0` and only
//!   ever add products, so they cannot reach `−0` and a `±0` term — from a
//!   zero cell or a skipped clear one — leaves them unchanged;
//! * skipping an update `x -= factor · pv` where `pv` is `±0` (the scaled
//!   pivot row lists only its nonzero entries) can change nothing but the
//!   sign of a zero entry `x`;
//! * the rhs column — the only source of the solution values and the
//!   objective — is updated densely, with the same operands.
//!
//! The iteration cap (and with it the point where pricing switches to
//! Bland's rule) is still computed from the *logical* column count, one
//! artificial per row, so it does not move either.
//!
//! A [`Tableau`] is a reusable buffer: [`Tableau::rebuild`] refills it for
//! a new [`Problem`] without reallocating once it has grown to the largest
//! problem seen, which is what lets a [`super::SolverState`] survive across
//! solves.

use super::basis::Basis;
use super::{ConstraintOp, Problem};

#[derive(Debug, Clone, Default)]
pub(crate) struct Tableau {
    /// Flat `m × (n_total + 1)` row-major matrix; last column is the rhs.
    /// A matrix cell is meaningful only while its bit is set. The buffer
    /// keeps the length of the largest problem seen.
    a: Vec<f64>,
    /// Row bitmap: `row_words` words per row, bit `j` set for the live
    /// cells `(i, j)` of row `i`.
    row_bits: Vec<u64>,
    /// Column bitmap: `col_words` words per column, bit `i` set for the
    /// live cells `(i, j)` of column `j`.
    col_bits: Vec<u64>,
    row_words: usize,
    col_words: usize,
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
    /// Pivot scratch: the pivot column's bitmap words.
    pcol: Vec<u64>,
}

/// Ascending iterator over the set bits of a bitmap slice below a limit.
struct Ones<'a> {
    rest: &'a [u64],
    word: u64,
    /// Bit index of `word`'s lowest bit.
    base: usize,
    /// Mask applied to the final word (clears the bits at or past the
    /// limit).
    tail: u64,
}

impl<'a> Ones<'a> {
    fn new(words: &'a [u64], limit: usize) -> Self {
        let tail = match limit % 64 {
            0 => u64::MAX,
            r => (1u64 << r) - 1,
        };
        Self { rest: &words[..limit.div_ceil(64)], word: 0, base: 0usize.wrapping_sub(64), tail }
    }
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (&w, rest) = self.rest.split_first()?;
            self.rest = rest;
            self.base = self.base.wrapping_add(64);
            self.word = if rest.is_empty() { w & self.tail } else { w };
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

impl Tableau {
    /// Rebuilds the tableau for `p`, reusing every buffer. Rows are
    /// normalized to a non-negative rhs; `≤` rows start on their slack,
    /// all other rows on their own artificial. Only the written cells get
    /// a bit; the rest of the matrix buffer is left stale.
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

        // Grows (zero-filled) only past the largest problem seen; smaller
        // problems reuse the buffer without touching it.
        let cells = m * (n_total + 1);
        if self.a.len() < cells {
            self.a.resize(cells, 0.0);
        }
        self.row_words = n_total.div_ceil(64);
        self.col_words = m.div_ceil(64);
        self.row_bits.clear();
        self.row_bits.resize(m * self.row_words, 0);
        self.col_bits.clear();
        self.col_bits.resize(n_total * self.col_words, 0);
        self.n_total = n_total;
        self.art_start = art_start;
        self.logical_cols = art_start + m;
        self.live = n_total;
        self.basis.reset(m, n_total);

        let mut slack_idx = n;
        let mut art_idx = art_start;
        for (i, r) in rows.iter().enumerate() {
            let mut rhs = r.rhs;
            let mut sign = 1.0;
            // Normalize to rhs >= 0.
            if rhs < 0.0 {
                rhs = -rhs;
                sign = -1.0;
            }
            // Terms are merged per variable, so each cell is written once.
            for &(v, c) in &r.terms {
                self.write(i, v, sign * c);
            }
            match normalized(r.op, r.rhs) {
                ConstraintOp::Le => {
                    self.write(i, slack_idx, 1.0);
                    // Slack can serve as the initial basis directly.
                    self.basis.install(i, slack_idx);
                    slack_idx += 1;
                }
                ConstraintOp::Ge => {
                    self.write(i, slack_idx, -1.0); // surplus
                    slack_idx += 1;
                    self.basis.install(i, art_idx);
                    self.write(i, art_idx, 1.0);
                    art_idx += 1;
                }
                ConstraintOp::Eq => {
                    self.basis.install(i, art_idx);
                    self.write(i, art_idx, 1.0);
                    art_idx += 1;
                }
            }
            self.a[i * (n_total + 1) + n_total] = rhs;
        }
    }

    /// Writes `x` into the clear cell `(i, j)` during a rebuild and sets
    /// its bits; a zero stays a clear cell.
    fn write(&mut self, i: usize, j: usize, x: f64) {
        if x != 0.0 {
            let stride = self.stride();
            self.a[i * stride + j] = x;
            self.row_bits[i * self.row_words + j / 64] |= 1 << (j % 64);
            self.col_bits[j * self.col_words + i / 64] |= 1 << (i % 64);
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

    fn stride(&self) -> usize {
        self.n_total + 1
    }

    pub(crate) fn rhs(&self, i: usize) -> f64 {
        self.a[i * self.stride() + self.n_total]
    }

    /// The live cells of row `i` in columns `0..limit`, as
    /// `(column, value)` in ascending column order.
    pub(crate) fn row_cells(
        &self,
        i: usize,
        limit: usize,
    ) -> impl Iterator<Item = (usize, f64)> + '_ {
        let row = &self.a[i * self.stride()..];
        Ones::new(&self.row_bits[i * self.row_words..], limit).map(move |j| (j, row[j]))
    }

    /// The live cells of column `j`, as `(row, value)` in ascending row
    /// order. `j` must be a maintained column (below the artificials once
    /// they are retired).
    pub(crate) fn col_cells(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let stride = self.stride();
        Ones::new(&self.col_bits[j * self.col_words..], self.rows())
            .map(move |i| (i, self.a[i * stride + j]))
    }

    /// Pivots on `(row, col)`: scales the pivot row so the pivot element
    /// becomes 1 and eliminates `col` from every other row, then updates
    /// the basis bookkeeping. Only the live columns and the rhs are
    /// updated, only the rows set in `col`'s bitmap are visited, and the
    /// elimination skips the pivot row's zero entries (see the
    /// [module docs](self) for why the result is unchanged).
    // sf: hot-path
    pub(crate) fn pivot(&mut self, row: usize, col: usize) {
        let m = self.rows();
        let stride = self.stride();
        let rhs_col = self.n_total;
        let (rw, cw) = (self.row_words, self.col_words);
        debug_assert!(col < self.live, "pivot on an unmaintained column");
        let base = row * stride;
        let piv = self.a[base + col];
        debug_assert!(
            self.row_bits[row * rw + col / 64] & (1 << (col % 64)) != 0 && piv.abs() > 1e-12,
            "pivot on (near-)zero element"
        );
        let inv = 1.0 / piv;
        self.prow.clear();
        for j in Ones::new(&self.row_bits[row * rw..], self.live) {
            let x = &mut self.a[base + j];
            if *x != 0.0 {
                *x *= inv;
                self.prow.push((j, *x));
            }
        }
        self.a[base + rhs_col] *= inv;
        let rhs_pv = self.a[base + rhs_col];

        // The elimination clears the column's bits as it goes: walk a copy.
        self.pcol.clear();
        self.pcol.extend_from_slice(&self.col_bits[col * cw..(col + 1) * cw]);
        for i in Ones::new(&self.pcol, m) {
            if i == row {
                continue;
            }
            let t = i * stride;
            let factor = self.a[t + col];
            if factor.abs() <= 1e-12 {
                continue;
            }
            let bits = &mut self.row_bits[i * rw..(i + 1) * rw];
            let (iw, ib) = (i / 64, 1u64 << (i % 64));
            for &(j, pv) in &self.prow {
                let (jw, jb) = (j / 64, 1u64 << (j % 64));
                let x = &mut self.a[t + j];
                if bits[jw] & jb != 0 {
                    *x -= factor * pv;
                    if *x == 0.0 {
                        bits[jw] &= !jb;
                        self.col_bits[j * cw + iw] &= !ib;
                    }
                } else {
                    *x = 0.0 - factor * pv;
                    if *x != 0.0 {
                        bits[jw] |= jb;
                        self.col_bits[j * cw + iw] |= ib;
                    }
                }
            }
            self.a[t + rhs_col] -= factor * rhs_pv;
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
