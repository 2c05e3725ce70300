//! Linear algebra behind every Newton iteration.
//!
//! [`DenseMatrix::solve_in_place`] is textbook partial-pivot Gaussian
//! elimination on a row-major matrix, and the oracle every other solver
//! here is held to. An MNA Jacobian is mostly zeros, though: the
//! transistor-level 3×3 adder has 36 unknowns and 155 structural entries
//! of 1 296. So the compiled plans factor through `SparseReplayLu`, which
//! records one dense elimination's pivot sequence and fill-in structure
//! and replays them on later matrices touching only structural entries,
//! bit for bit the same as the dense elimination in exact mode.

use crate::error::Error;

/// A dense square matrix in row-major storage.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Resets all entries to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.n && col < self.n, "matrix index out of bounds");
        self.data[row * self.n + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "matrix index out of bounds");
        self.data[row * self.n + col] = value;
    }

    /// Adds `value` to the entry at `(row, col)` — the MNA stamping
    /// primitive.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.n && col < self.n, "matrix index out of bounds");
        self.data[row * self.n + col] += value;
    }

    /// The raw row-major entries.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The raw row-major entries, mutably.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Computes `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.n..(r + 1) * self.n];
            *yr = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Solves `self * x = rhs` in place by Gaussian elimination with
    /// partial pivoting, destroying the matrix and replacing `rhs` with the
    /// solution.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] if a pivot smaller than `1e-14`
    /// times the largest initial entry is encountered.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != n`.
    // Index loops mirror the textbook elimination; iterator forms obscure
    // the pivot structure.
    #[allow(clippy::needless_range_loop)]
    pub fn solve_in_place(&mut self, rhs: &mut [f64]) -> Result<(), Error> {
        let n = self.n;
        assert_eq!(rhs.len(), n, "rhs length must equal matrix dimension");
        if n == 0 {
            return Ok(());
        }
        let tol = pivot_tolerance(self.data.iter().copied());

        for k in 0..n {
            // Partial pivot: largest |entry| in column k at/below row k.
            let mut pivot_row = k;
            let mut pivot_mag = self.data[k * n + k].abs();
            for r in (k + 1)..n {
                let mag = self.data[r * n + k].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            if pivot_mag < tol {
                return Err(Error::SingularMatrix { row: k });
            }
            if pivot_row != k {
                for c in 0..n {
                    self.data.swap(k * n + c, pivot_row * n + c);
                }
                rhs.swap(k, pivot_row);
            }
            let pivot = self.data[k * n + k];
            for r in (k + 1)..n {
                let factor = self.data[r * n + k] / pivot;
                if factor == 0.0 {
                    continue;
                }
                self.data[r * n + k] = 0.0;
                for c in (k + 1)..n {
                    self.data[r * n + c] -= factor * self.data[k * n + c];
                }
                rhs[r] -= factor * rhs[k];
            }
        }
        // Back substitution.
        for k in (0..n).rev() {
            let mut sum = rhs[k];
            for c in (k + 1)..n {
                sum -= self.data[k * n + c] * rhs[c];
            }
            rhs[k] = sum / self.data[k * n + k];
        }
        Ok(())
    }
}

/// The singular-pivot threshold shared by every elimination here: `1e-14`
/// times the largest magnitude among `entries` (at least `1e-30`).
///
/// The maximum is folded in four independent lanes, so each `max` need
/// not wait for the previous one (the verified replay gathers its
/// entries, which a serial fold cannot vectorize). The result is bitwise
/// the serial fold's: `f64::max` ignores a NaN operand and no `|v|` is
/// `−0`, so the maximum does not depend on the order.
fn pivot_tolerance(mut entries: impl Iterator<Item = f64>) -> f64 {
    let mut lanes = [0.0f64; 4];
    'fold: loop {
        for lane in &mut lanes {
            let Some(v) = entries.next() else {
                break 'fold;
            };
            *lane = lane.max(v.abs());
        }
    }
    let [a, b, c, d] = lanes;
    a.max(b).max(c.max(d)).max(1e-30) * 1e-14
}

/// A reusable LU factorization (partial pivoting) of a [`DenseMatrix`].
///
/// [`LuFactors::factor_from`] performs exactly the elimination of
/// [`DenseMatrix::solve_in_place`], but keeps the elimination multipliers
/// and the row-exchange sequence, so any number of right-hand sides can
/// later be solved in O(n²) by [`LuFactors::solve`] — with results
/// **bitwise identical** to a fresh `solve_in_place` on the same matrix.
/// It is also the dense pass of [`SparseReplayLu`].
#[derive(Debug, Clone)]
pub(crate) struct LuFactors {
    n: usize,
    /// Row-major storage: the upper triangle (diagonal included) holds
    /// `U`; column `k` below it holds the stage-`k` multipliers in their
    /// stage-`k` row positions (an exchange at stage `k` moves columns
    /// `k..n` only, so earlier multipliers stay where they were written).
    lu: Vec<f64>,
    /// `swaps[k]` is the row exchanged with row `k` at elimination stage
    /// `k` (`k` itself when no exchange happened).
    swaps: Vec<usize>,
}

impl LuFactors {
    /// An empty factorization holder for `n × n` systems.
    pub fn new(n: usize) -> Self {
        LuFactors {
            n,
            lu: vec![0.0; n * n],
            swaps: vec![0; n],
        }
    }

    /// Factors `mat` (which is left untouched), replacing any previously
    /// stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] under exactly the same condition
    /// (and at the same row) as [`DenseMatrix::solve_in_place`].
    pub fn factor_from(&mut self, mat: &DenseMatrix) -> Result<(), Error> {
        self.n = mat.n;
        self.lu.clear();
        self.lu.extend_from_slice(&mat.data);
        self.swaps.resize(mat.n, 0);
        self.eliminate(0, pivot_tolerance(mat.data.iter().copied()))
    }

    /// Stages `from..n` of the partial-pivot elimination, in place — the
    /// arithmetic of [`DenseMatrix::solve_in_place`], storing multipliers
    /// instead of applying them to a right-hand side.
    // Index loops mirror solve_in_place; iterator forms obscure the pivot
    // structure.
    #[allow(clippy::needless_range_loop)]
    fn eliminate(&mut self, from: usize, tol: f64) -> Result<(), Error> {
        let n = self.n;
        for k in from..n {
            let mut pivot_row = k;
            let mut pivot_mag = self.lu[k * n + k].abs();
            for r in (k + 1)..n {
                let mag = self.lu[r * n + k].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            if pivot_mag < tol {
                return Err(Error::SingularMatrix { row: k });
            }
            self.swaps[k] = pivot_row;
            if pivot_row != k {
                for c in k..n {
                    self.lu.swap(k * n + c, pivot_row * n + c);
                }
            }
            let pivot = self.lu[k * n + k];
            for r in (k + 1)..n {
                let factor = self.lu[r * n + k] / pivot;
                if factor == 0.0 {
                    // A multiplier that underflows to zero must replay as a
                    // skip, exactly like solve_in_place's `continue`.
                    self.lu[r * n + k] = 0.0;
                    continue;
                }
                self.lu[r * n + k] = factor;
                for c in (k + 1)..n {
                    self.lu[r * n + c] -= factor * self.lu[k * n + c];
                }
            }
        }
        Ok(())
    }

    /// Solves `A·x = rhs` in place for the matrix `A` last factored,
    /// interleaving each stage's row exchange with its multipliers as
    /// `solve_in_place` does. Bitwise identical to `A.solve_in_place(rhs)`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len()` does not match the factored dimension.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, rhs: &mut [f64]) {
        let n = self.n;
        assert_eq!(rhs.len(), n, "rhs length must equal matrix dimension");
        for k in 0..n {
            rhs.swap(k, self.swaps[k]);
            for r in (k + 1)..n {
                let factor = self.lu[r * n + k];
                if factor != 0.0 {
                    rhs[r] -= factor * rhs[k];
                }
            }
        }
        for k in (0..n).rev() {
            let mut sum = rhs[k];
            for c in (k + 1)..n {
                sum -= self.lu[k * n + c] * rhs[c];
            }
            rhs[k] = sum / self.lu[k * n + k];
        }
    }
}

/// Why a replay handed the factorization back to the dense pass.
enum Halt {
    /// The pivot of this stage could not be used: it was not the one
    /// partial pivoting picks (verified) or fell under the threshold.
    Pivot(usize),
    /// The replay met a non-finite pivot or multiplier.
    NonFinite,
}

/// LU factorization that replays a recorded pivot sequence and fill-in
/// structure.
///
/// The first factorization after [`SparseReplayLu::set_pattern`], and any
/// the replay cannot vouch for, runs the dense elimination of
/// [`LuFactors`], then records its pivot sequence and — from the
/// structural pattern — the fill-in structure of the factors. Later
/// factorizations replay that elimination touching only structural
/// positions, which on a sparse MNA system cuts the O(n³) sweep to about
/// the factors' nonzero count; the solves walk the same structure.
///
/// The replay does the dense code's arithmetic on the structural entries,
/// dividing each multiplier by the pivot. Skipping non-structural entries
/// is exact because they hold `+0.0` and the matrix and right-hand side
/// never hold `−0.0` (assembly sums every entry from `+0.0`), so a
/// skipped update would only subtract `±0` from an entry. A pivot under
/// the singular-pivot threshold hands the factorization to the dense
/// pass, and so does a non-finite pivot, multiplier or solution entry,
/// after refilling the matrix (the dense sweep turns a skipped `0 · ∞` or
/// `0 / NaN` into NaN). Two contracts, chosen at construction:
///
/// * **Verified**: bitwise identical to [`DenseMatrix::solve_in_place`].
///   Each replay recomputes the threshold over the structural entries,
///   and at each stage confirms, over the recorded pre-exchange candidate
///   rows, that the recorded pivot is the first maximum partial pivoting
///   would pick. A pivot that fails at stage `k` continues the dense
///   sweep from `k`, since the buffer holds exactly its state there.
/// * **Frozen**: trusts the recorded pivot order and the threshold of the
///   last dense pass, so its results are bitwise identical to the dense
///   solve's while partial pivoting would pick and accept the recorded
///   pivots, and agree with them to rounding otherwise. A failed pivot
///   refills the matrix for the dense pass.
#[derive(Debug, Clone)]
pub(crate) struct SparseReplayLu {
    /// Working buffer, pivot sequence and the dense pass. After a replay
    /// only structural positions are meaningful.
    dense: LuFactors,
    verify: bool,
    /// Structural pattern of the assembled matrices: row-major, in
    /// `ceil(n/64)` `u64` words per row, and the flat index of every set
    /// bit (the threshold scan of the verified replay).
    pattern: Vec<u64>,
    entries: Vec<u32>,
    /// Stage-`k` pivot candidates: rows `r > k` with structural `(r, k)`
    /// before the stage's exchange, ascending.
    cands: Vec<u32>,
    cand_ptr: Vec<usize>,
    /// Stage-`k` multiplier rows: rows `r > k` with structural `(r, k)`
    /// after the stage's exchange.
    mrows: Vec<u32>,
    mrow_ptr: Vec<usize>,
    /// Stage-`k` update columns: `c > k` with structural `(k, c)`,
    /// ascending.
    ucols: Vec<u32>,
    ucol_ptr: Vec<usize>,
    /// Singular-pivot threshold of the current factorization (frozen: of
    /// the last dense pass).
    tol: f64,
    structured: bool,
    /// Whether the current factors came from a replay, so the solve walks
    /// the structure, rather than from the dense pass.
    replayed: bool,
    /// Right-hand side of the current replayed solve, kept to redo it
    /// densely.
    rhs_copy: Vec<f64>,
}

impl SparseReplayLu {
    /// An empty holder for `n × n` systems; `verify` picks the bitwise
    /// contract over the frozen one.
    pub fn new(n: usize, verify: bool) -> Self {
        SparseReplayLu {
            dense: LuFactors::new(n),
            verify,
            pattern: Vec::new(),
            entries: Vec::new(),
            cands: Vec::new(),
            cand_ptr: Vec::new(),
            mrows: Vec::new(),
            mrow_ptr: Vec::new(),
            ucols: Vec::new(),
            ucol_ptr: Vec::new(),
            tol: 0.0,
            structured: false,
            replayed: false,
            rhs_copy: vec![0.0; n],
        }
    }

    /// Sets the structural nonzero pattern of the matrices the next
    /// factorizations assemble, row-major in `ceil(n/64)` `u64` words per
    /// row, and drops the recorded structure. Every position a `fill` can
    /// make nonzero must be set; a superset is fine.
    pub fn set_pattern(&mut self, pattern: &[u64]) {
        let n = self.dense.n;
        let words = n.div_ceil(64);
        debug_assert_eq!(pattern.len(), n * words);
        self.pattern.clear();
        self.pattern.extend_from_slice(pattern);
        self.entries.clear();
        for r in 0..n {
            for c in 0..n {
                if pattern[r * words + c / 64] >> (c % 64) & 1 == 1 {
                    self.entries.push((r * n + c) as u32);
                }
            }
        }
        self.structured = false;
    }

    /// Factors the `n × n` matrix that `fill` assembles into the internal
    /// buffer (overwriting all `n²` entries). Returns whether the factors
    /// came from the dense pass (the first factorization after
    /// [`SparseReplayLu::set_pattern`], or a failed replay) rather than
    /// from a replay.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SingularMatrix`] when the dense pass finds no
    /// acceptable pivot, at the row [`DenseMatrix::solve_in_place`]
    /// reports.
    ///
    /// # Panics
    ///
    /// Debug builds (and the `verify-release` feature) panic when `fill`
    /// writes outside the pattern or writes a `−0.0`, the assembly
    /// invariant that keeps the replay exact.
    pub fn factor(&mut self, fill: impl Fn(&mut [f64])) -> Result<bool, Error> {
        fill(&mut self.dense.lu);
        #[cfg(any(debug_assertions, feature = "verify-release"))]
        self.assert_fill_in_pattern();
        if !self.structured {
            self.dense_pass(0)?;
            return Ok(true);
        }
        match self.replay() {
            Ok(()) => {
                self.replayed = true;
                return Ok(false);
            }
            Err(Halt::Pivot(k)) if self.verify => self.dense_pass(k)?,
            Err(_) => {
                fill(&mut self.dense.lu);
                self.dense_pass(0)?;
            }
        }
        Ok(true)
    }

    /// Solves `A·x = rhs` in place against the last factorization, where
    /// `fill` assembles `A` as it did for [`SparseReplayLu::factor`]. A
    /// replayed solve that yields a non-finite entry is redone densely (the
    /// dense sweep turns a skipped `0 · ∞` into NaN), and then returns
    /// `true`: the factors now come from the dense pass.
    ///
    /// # Errors
    ///
    /// As for [`SparseReplayLu::factor`], from that dense redo.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len()` does not match the factored dimension.
    pub fn solve(&mut self, rhs: &mut [f64], fill: impl Fn(&mut [f64])) -> Result<bool, Error> {
        if !self.replayed {
            self.dense.solve(rhs);
            return Ok(false);
        }
        self.rhs_copy.copy_from_slice(rhs);
        self.replay_solve(rhs);
        if rhs.iter().all(|v| v.is_finite()) {
            return Ok(false);
        }
        fill(&mut self.dense.lu);
        self.dense_pass(0)?;
        rhs.copy_from_slice(&self.rhs_copy);
        self.dense.solve(rhs);
        Ok(true)
    }

    /// Checks the assembly invariant the skipped updates rely on: every
    /// entry outside the pattern is `+0.0`, and no entry is `−0.0`.
    #[cfg(any(debug_assertions, feature = "verify-release"))]
    fn assert_fill_in_pattern(&self) {
        let n = self.dense.n;
        let words = n.div_ceil(64);
        for (i, v) in self.dense.lu.iter().enumerate() {
            let (r, c) = (i / n, i % n);
            let structural = self.pattern[r * words + c / 64] >> (c % 64) & 1 == 1;
            assert!(
                v.to_bits() != (-0.0f64).to_bits() && (structural || v.to_bits() == 0),
                "assembled entry ({r}, {c}) = {v:e} is -0 or outside the structural pattern"
            );
        }
    }

    /// Runs the dense elimination from stage `from` and records the
    /// structure of its pivot sequence.
    fn dense_pass(&mut self, from: usize) -> Result<(), Error> {
        self.replayed = false;
        self.structured = false;
        if from == 0 {
            self.tol = pivot_tolerance(self.dense.lu.iter().copied());
        }
        self.dense.eliminate(from, self.tol)?;
        self.record_structure();
        Ok(())
    }

    /// Replays the recorded elimination on the freshly filled buffer.
    fn replay(&mut self) -> Result<(), Halt> {
        let n = self.dense.n;
        let lu = &mut self.dense.lu;
        // Rescanning the structural entries on every frozen replay took
        // about 9 % of the limited-mode fault campaign's time (perfbench
        // campaigns, one CPU of a 2-vCPU VM).
        if self.verify {
            self.tol = pivot_tolerance(self.entries.iter().map(|&e| lu[e as usize]));
        }
        for k in 0..n {
            let p = self.dense.swaps[k];
            if self.verify {
                let (mut best, mut mag) = (k, lu[k * n + k].abs());
                for &r in &self.cands[self.cand_ptr[k]..self.cand_ptr[k + 1]] {
                    let m = lu[r as usize * n + k].abs();
                    if m > mag {
                        best = r as usize;
                        mag = m;
                    }
                }
                if best != p {
                    return Err(Halt::Pivot(k));
                }
            }
            let pivot = lu[p * n + k];
            if pivot.abs() < self.tol {
                return Err(Halt::Pivot(k));
            }
            if !pivot.is_finite() {
                // The dense sweep divides every row below by this pivot,
                // structural or not, and 0 / NaN is NaN.
                return Err(Halt::NonFinite);
            }
            if p != k {
                for c in k..n {
                    lu.swap(k * n + c, p * n + c);
                }
            }
            let ucols = &self.ucols[self.ucol_ptr[k]..self.ucol_ptr[k + 1]];
            for &r in &self.mrows[self.mrow_ptr[k]..self.mrow_ptr[k + 1]] {
                let r = r as usize;
                let factor = lu[r * n + k] / pivot;
                if factor == 0.0 {
                    lu[r * n + k] = 0.0;
                    continue;
                }
                if !factor.is_finite() {
                    return Err(Halt::NonFinite);
                }
                lu[r * n + k] = factor;
                for &c in ucols {
                    let c = c as usize;
                    lu[r * n + c] -= factor * lu[k * n + c];
                }
            }
        }
        Ok(())
    }

    /// Symbolically eliminates the pattern under the recorded pivot
    /// sequence, storing each stage's candidate rows, multiplier rows and
    /// update columns (fill-in included).
    fn record_structure(&mut self) {
        let n = self.dense.n;
        let words = n.div_ceil(64);
        let mut pat = self.pattern.clone();
        for list in [&mut self.cands, &mut self.mrows, &mut self.ucols] {
            list.clear();
        }
        for ptr in [&mut self.cand_ptr, &mut self.mrow_ptr, &mut self.ucol_ptr] {
            ptr.clear();
            ptr.push(0);
        }
        let bit = |pat: &[u64], r: usize, c: usize| pat[r * words + c / 64] >> (c % 64) & 1 == 1;
        for k in 0..n {
            self.cands
                .extend(((k + 1)..n).filter(|&r| bit(&pat, r, k)).map(|r| r as u32));
            let p = self.dense.swaps[k];
            if p != k {
                for w in 0..words {
                    pat.swap(k * words + w, p * words + w);
                }
            }
            self.ucols
                .extend(((k + 1)..n).filter(|&c| bit(&pat, k, c)).map(|c| c as u32));
            for r in (k + 1)..n {
                if bit(&pat, r, k) {
                    self.mrows.push(r as u32);
                    // Fill-in: row r picks up row k's structure. Columns
                    // up to k come along too, but no later stage reads them.
                    for w in 0..words {
                        pat[r * words + w] |= pat[k * words + w];
                    }
                }
            }
            self.cand_ptr.push(self.cands.len());
            self.mrow_ptr.push(self.mrows.len());
            self.ucol_ptr.push(self.ucols.len());
        }
        self.structured = true;
    }

    /// Forward and back substitution over the replayed factors, each
    /// stage's exchange interleaved with its multipliers.
    fn replay_solve(&self, rhs: &mut [f64]) {
        let n = self.dense.n;
        let lu = &self.dense.lu;
        assert_eq!(rhs.len(), n, "rhs length must equal matrix dimension");
        for k in 0..n {
            rhs.swap(k, self.dense.swaps[k]);
            let xk = rhs[k];
            for &r in &self.mrows[self.mrow_ptr[k]..self.mrow_ptr[k + 1]] {
                let factor = lu[r as usize * n + k];
                if factor != 0.0 {
                    rhs[r as usize] -= factor * xk;
                }
            }
        }
        for k in (0..n).rev() {
            let mut sum = rhs[k];
            for &c in &self.ucols[self.ucol_ptr[k]..self.ucol_ptr[k + 1]] {
                sum -= lu[k * n + c as usize] * rhs[c as usize];
            }
            rhs[k] = sum / lu[k * n + k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pivot_tolerance_equals_a_serial_fold_bitwise() {
        let serial = |v: &[f64]| v.iter().fold(0.0f64, |m, x| m.max(x.abs())).max(1e-30) * 1e-14;
        let palette = [
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 8.0,
            1e-20,
            -2.5,
            1.5,
            -f64::NAN,
        ];
        let mut slices: Vec<Vec<f64>> = Vec::new();
        for len in 0..=9 {
            for start in 0..palette.len() {
                for stride in 1..palette.len() {
                    slices.push(
                        (0..len)
                            .map(|i| palette[(start + i * stride) % palette.len()])
                            .collect(),
                    );
                }
            }
            for fill in [f64::NAN, -0.0, f64::MIN_POSITIVE / 4.0, f64::NEG_INFINITY] {
                slices.push(vec![fill; len]);
            }
        }
        for v in &slices {
            assert_eq!(
                pivot_tolerance(v.iter().copied()).to_bits(),
                serial(v).to_bits(),
                "{v:?}"
            );
        }
    }

    #[test]
    fn solves_identity() {
        let mut m = DenseMatrix::zeros(3);
        for i in 0..3 {
            m.set(i, i, 1.0);
        }
        let mut rhs = vec![1.0, 2.0, 3.0];
        m.solve_in_place(&mut rhs).unwrap();
        assert_eq!(rhs, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_small_system() {
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 2.0);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        m.set(1, 1, 3.0);
        let mut rhs = vec![5.0, 10.0];
        m.solve_in_place(&mut rhs).unwrap();
        assert!((rhs[0] - 1.0).abs() < 1e-12);
        assert!((rhs[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // First diagonal entry zero requires a row swap.
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 0.0);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        m.set(1, 1, 0.0);
        let mut rhs = vec![2.0, 3.0];
        m.solve_in_place(&mut rhs).unwrap();
        assert!((rhs[0] - 3.0).abs() < 1e-12);
        assert!((rhs[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 4.0); // rank 1
        let mut rhs = vec![1.0, 2.0];
        assert!(matches!(
            m.solve_in_place(&mut rhs),
            Err(Error::SingularMatrix { .. })
        ));
    }

    #[test]
    fn residual_is_small_for_random_system() {
        // Deterministic pseudo-random fill (LCG) to avoid rand dependency
        // in the hot path tests.
        let n = 12;
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut m = DenseMatrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                m.set(r, c, next());
            }
            m.add(r, r, 4.0); // diagonal dominance ⇒ nonsingular
        }
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let mut rhs = m.mul_vec(&x_true);
        let mut lu = m.clone();
        lu.solve_in_place(&mut rhs).unwrap();
        for (xs, xt) in rhs.iter().zip(&x_true) {
            assert!((xs - xt).abs() < 1e-10, "{xs} vs {xt}");
        }
    }

    #[test]
    fn clear_keeps_dimension() {
        let mut m = DenseMatrix::zeros(4);
        m.set(2, 3, 5.0);
        m.clear();
        assert_eq!(m.dim(), 4);
        assert_eq!(m.get(2, 3), 0.0);
    }

    #[test]
    fn empty_system_is_ok() {
        let mut m = DenseMatrix::zeros(0);
        let mut rhs: Vec<f64> = vec![];
        m.solve_in_place(&mut rhs).unwrap();
    }

    /// Deterministic pseudo-random stream shared by the parity tests.
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }
    }

    #[test]
    fn factored_solve_is_bitwise_identical_to_solve_in_place() {
        for (n, seed) in [(1usize, 7u64), (2, 11), (5, 13), (12, 17), (23, 19)] {
            let mut next = lcg(seed);
            let mut m = DenseMatrix::zeros(n);
            for r in 0..n {
                for c in 0..n {
                    m.set(r, c, next());
                }
            }
            // No diagonal boost: exercise real pivoting paths.
            let rhs0: Vec<f64> = (0..n).map(|_| next()).collect();

            let mut direct = rhs0.clone();
            m.clone().solve_in_place(&mut direct).unwrap();

            let mut lu = LuFactors::new(n);
            lu.factor_from(&m).unwrap();
            let mut replayed = rhs0.clone();
            lu.solve(&mut replayed);

            for (a, b) in direct.iter().zip(&replayed) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n} seed={seed}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn factorization_reuse_across_many_rhs() {
        let n = 9;
        let mut next = lcg(29);
        let mut m = DenseMatrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                m.set(r, c, next());
            }
            m.add(r, r, 3.0);
        }
        let mut lu = LuFactors::new(n);
        lu.factor_from(&m).unwrap();
        for _ in 0..4 {
            let rhs0: Vec<f64> = (0..n).map(|_| next()).collect();
            let mut direct = rhs0.clone();
            m.clone().solve_in_place(&mut direct).unwrap();
            let mut replayed = rhs0;
            lu.solve(&mut replayed);
            for (a, b) in direct.iter().zip(&replayed) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn factor_from_reports_singular_at_same_row() {
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 4.0); // rank 1
        let mut lu = LuFactors::new(2);
        let got = lu.factor_from(&m);
        let mut rhs = vec![1.0, 2.0];
        let want = m.solve_in_place(&mut rhs);
        match (got, want) {
            (Err(Error::SingularMatrix { row: a }), Err(Error::SingularMatrix { row: b })) => {
                assert_eq!(a, b)
            }
            other => panic!("expected matching singular reports, got {other:?}"),
        }
    }

    #[test]
    fn factor_empty_system_is_ok() {
        let mut lu = LuFactors::new(0);
        lu.factor_from(&DenseMatrix::zeros(0)).unwrap();
        let mut rhs: Vec<f64> = vec![];
        lu.solve(&mut rhs);
    }

    // ------------------------------------------- SparseReplayLu

    /// Row-major bitmask pattern of `m`'s nonzeros, `ceil(n/64)` words
    /// per row (the format `SparseReplayLu::set_pattern` expects).
    fn pattern_of(m: &DenseMatrix) -> Vec<u64> {
        let n = m.dim();
        let words = n.div_ceil(64);
        let mut pat = vec![0u64; n * words];
        for r in 0..n {
            for c in 0..n {
                if m.get(r, c) != 0.0 {
                    pat[r * words + c / 64] |= 1u64 << (c % 64);
                }
            }
        }
        pat
    }

    /// Factors `m` and solves `rhs` the way a plan drives the engine;
    /// `true` when either step ran the dense pass.
    fn replay_solve(
        lu: &mut SparseReplayLu,
        m: &DenseMatrix,
        rhs: &mut [f64],
    ) -> Result<bool, Error> {
        let fill = |buf: &mut [f64]| buf.copy_from_slice(m.as_slice());
        let dense = lu.factor(fill)?;
        Ok(lu.solve(rhs, fill)? || dense)
    }

    fn assert_bitwise(want: &[f64], got: &[f64], what: &str) {
        for (i, (a, b)) in want.iter().zip(got).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what} x[{i}]: dense {a} vs replay {b}"
            );
        }
    }

    fn assert_close(want: &[f64], got: &[f64], rel: f64, what: &str) {
        for (i, (a, b)) in want.iter().zip(got).enumerate() {
            assert!(
                (a - b).abs() <= rel * a.abs().max(1.0),
                "{what} x[{i}]: dense {a} vs replay {b}"
            );
        }
    }

    /// A sparse diagonally-loaded test matrix shaped like a small MNA
    /// system: diagonal plus a few off-diagonal couplings.
    fn sparse_system(n: usize, seed: u64) -> DenseMatrix {
        let mut next = lcg(seed);
        let mut m = DenseMatrix::zeros(n);
        for r in 0..n {
            m.set(r, r, 2.0 + next().abs());
            let c1 = (r + 1) % n;
            let c2 = (r * 3 + 1) % n;
            m.add(r, c1, next());
            m.add(r, c2, next());
        }
        m
    }

    #[test]
    fn sparse_replay_matches_dense_solution() {
        for (n, seed) in [(1usize, 31u64), (4, 37), (9, 41), (17, 43), (30, 47)] {
            let m = sparse_system(n, seed);
            // Same pivot order, different values: the second factorization
            // replays the structure the first recorded. The order is the
            // one partial pivoting picks, so even the frozen replay is
            // bitwise.
            let mut m2 = m.clone();
            for r in 0..n {
                m2.add(r, r, 0.25);
            }
            let mut next = lcg(seed ^ 0xABCD);
            let rhs0: Vec<f64> = (0..n).map(|_| next()).collect();
            for verify in [true, false] {
                let mut lu = SparseReplayLu::new(n, verify);
                lu.set_pattern(&pattern_of(&m));
                let mut dense = Vec::new();
                for (step, mat) in [&m, &m2].into_iter().enumerate() {
                    let mut direct = rhs0.clone();
                    mat.clone().solve_in_place(&mut direct).unwrap();
                    let mut replayed = rhs0.clone();
                    dense.push(replay_solve(&mut lu, mat, &mut replayed).unwrap());
                    let what = format!("n={n} seed={seed} verify={verify} step={step}");
                    assert_bitwise(&direct, &replayed, &what);
                }
                assert_eq!(dense, [true, false], "n={n} verify={verify}");
            }
        }
    }

    /// V1 = 2 V at node a, R1 = 1 kΩ from a to b, L1 from b to ground as a
    /// DC short. Unknowns (va, vb, i(V1), i(L1)). Both branch rows have a
    /// zero diagonal, so partial pivoting exchanges rows, and a later
    /// exchange moves a row that already holds an earlier stage's
    /// multiplier.
    #[test]
    fn multipliers_follow_their_rows_through_later_exchanges() {
        let g = 1e-3;
        let mut m = DenseMatrix::zeros(4);
        m.add(0, 0, g);
        m.add(0, 1, -g);
        m.add(1, 0, -g);
        m.add(1, 1, g);
        m.add(0, 2, 1.0);
        m.add(2, 0, 1.0);
        m.add(1, 3, 1.0);
        m.add(3, 1, 1.0);
        let rhs0 = [0.0, 0.0, 2.0, 0.0];
        let mut direct = rhs0;
        m.clone().solve_in_place(&mut direct).unwrap();
        assert_close(&[2.0, 0.0, -2e-3, 2e-3], &direct, 1e-12, "dense");
        for verify in [true, false] {
            let mut lu = SparseReplayLu::new(4, verify);
            lu.set_pattern(&pattern_of(&m));
            // The first factorization is the dense pass, the second a replay.
            let mut dense = Vec::new();
            for step in 0..2 {
                let mut x = rhs0;
                dense.push(replay_solve(&mut lu, &m, &mut x).unwrap());
                assert_bitwise(&direct, &x, &format!("verify={verify} step={step}"));
            }
            assert_eq!(dense, [true, false], "verify={verify}");
        }
    }

    #[test]
    fn sparse_replay_refactorization_is_deterministic_and_tracks_values() {
        let n = 12;
        let m = sparse_system(n, 53);
        // Perturbed values inside the same pattern, under the same pivot
        // order.
        let mut m2 = m.clone();
        for r in 0..n {
            m2.add(r, r, 0.25);
        }
        let mut direct = vec![1.0; n];
        m2.clone().solve_in_place(&mut direct).unwrap();
        for verify in [true, false] {
            let mut lu = SparseReplayLu::new(n, verify);
            lu.set_pattern(&pattern_of(&m));
            let mut first = vec![1.0; n];
            let mut dense = vec![replay_solve(&mut lu, &m, &mut first).unwrap()];

            // A replay of the same values does the dense pass's arithmetic
            // on the structural entries: the same bits.
            let mut again = vec![1.0; n];
            dense.push(replay_solve(&mut lu, &m, &mut again).unwrap());
            assert_bitwise(&first, &again, &format!("verify={verify} repeat"));

            // The replay tracks new values.
            let mut replayed = vec![1.0; n];
            dense.push(replay_solve(&mut lu, &m2, &mut replayed).unwrap());
            assert_bitwise(&direct, &replayed, &format!("verify={verify} perturbed"));
            assert_eq!(dense, [true, false, false], "verify={verify}");
        }
    }

    #[test]
    fn sparse_replay_falls_back_when_the_frozen_pivot_degrades() {
        // First factorization records a pivot order for this matrix…
        let n = 6;
        let mut m = DenseMatrix::zeros(n);
        for r in 0..n {
            m.set(r, r, 4.0);
            m.set(r, (r + 1) % n, 1.0);
        }
        // …then the values shift so that order's first pivot collapses.
        // The replay must hand over to a dense pass with fresh pivoting
        // instead of surfacing an error. The pattern covers both value
        // sets (dense here, which is an allowed superset).
        let mut shifted = m.clone();
        shifted.set(0, 0, 1e-18);
        shifted.set(0, 1, 3.0);
        shifted.set(1, 0, 2.0);
        let mut direct = vec![1.0; n];
        shifted.clone().solve_in_place(&mut direct).unwrap();
        for verify in [true, false] {
            let mut lu = SparseReplayLu::new(n, verify);
            lu.set_pattern(&vec![u64::MAX; n]);
            let mut x = vec![1.0; n];
            let mut dense = vec![replay_solve(&mut lu, &m, &mut x).unwrap()];
            let mut replayed = vec![1.0; n];
            dense.push(replay_solve(&mut lu, &shifted, &mut replayed).unwrap());
            assert_bitwise(&direct, &replayed, &format!("verify={verify}"));
            assert_eq!(dense, [true, true], "verify={verify}");
        }
    }

    #[test]
    fn sparse_replay_invalidate_structure_forces_rerecord() {
        let n = 8;
        let m = sparse_system(n, 59);
        // A matrix with a *different* sparsity pattern is only legal after
        // the pattern is replaced (the caller's contract when the base
        // plan rebuilds).
        let m2 = sparse_system(n, 61);
        let mut direct = vec![1.0; n];
        m2.clone().solve_in_place(&mut direct).unwrap();
        for verify in [true, false] {
            let mut lu = SparseReplayLu::new(n, verify);
            lu.set_pattern(&pattern_of(&m));
            let mut x = vec![1.0; n];
            let mut dense = vec![replay_solve(&mut lu, &m, &mut x).unwrap()];
            lu.set_pattern(&pattern_of(&m2));
            let mut replayed = vec![1.0; n];
            dense.push(replay_solve(&mut lu, &m2, &mut replayed).unwrap());
            assert_bitwise(&direct, &replayed, &format!("verify={verify} new pattern"));
            assert_eq!(dense, [true, true], "verify={verify}");
        }
    }

    #[test]
    fn sparse_replay_reports_singular_systems() {
        let n = 3;
        let mut m = DenseMatrix::zeros(n);
        // Row 2 is a copy of row 1: rank 2.
        m.set(0, 0, 1.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 1.0);
        m.set(2, 0, 2.0);
        m.set(2, 1, 1.0);
        let want = m.clone().solve_in_place(&mut [1.0; 3]);
        let Err(Error::SingularMatrix { row }) = want else {
            panic!("dense solve accepted a rank-2 matrix: {want:?}");
        };
        for verify in [true, false] {
            let mut lu = SparseReplayLu::new(n, verify);
            lu.set_pattern(&vec![u64::MAX; n]);
            let got = replay_solve(&mut lu, &m, &mut [1.0; 3]);
            assert_eq!(got, Err(Error::SingularMatrix { row }), "verify={verify}");
        }
    }

    /// A random family of MNA-like systems sharing one pattern: `nodes`
    /// node rows joined by conductances, then one zero-diagonal branch row
    /// per voltage source. Each draw sums every entry from `+0.0`, as
    /// assembly does, with values from a palette that makes exact
    /// magnitude ties, pivot flips between draws, floating (singular)
    /// nodes and, rarely, non-finite conductances or source values.
    struct MnaFamily {
        nodes: usize,
        edges: Vec<(usize, Option<usize>)>,
        sources: Vec<(usize, Option<usize>)>,
    }

    impl MnaFamily {
        fn new(next: &mut impl FnMut() -> u64) -> Self {
            let mut pick = |k: usize| (next() % k as u64) as usize;
            let nodes = 2 + pick(7);
            // Two terminals; an out-of-range or repeated second one is
            // ground.
            let mut branch = || {
                let (a, b) = (pick(nodes), pick(nodes + 1));
                (a, (b < nodes && b != a).then_some(b))
            };
            let edges = (0..nodes + 3).map(|_| branch()).collect();
            let sources = (0..nodes % 3).map(|_| branch()).collect();
            MnaFamily {
                nodes,
                edges,
                sources,
            }
        }

        fn dim(&self) -> usize {
            self.nodes + self.sources.len()
        }

        /// One system `(A, b)` of the family.
        fn draw(&self, next: &mut impl FnMut() -> u64) -> (DenseMatrix, Vec<f64>) {
            let mut value = || match next() % 256 {
                0..=7 => 0.0,
                8..=71 => 1.0,
                72..=87 => 0.5,
                88..=103 => 2.0,
                104..=111 => 1e-12,
                112..=127 => 1e3,
                128 => f64::NAN,
                129 => f64::INFINITY,
                k => 10f64.powf((k - 130) as f64 / 10.5 - 6.0),
            };
            let mut m = DenseMatrix::zeros(self.dim());
            let mut rhs = vec![0.0; self.dim()];
            for &(a, b) in &self.edges {
                let g = value();
                m.add(a, a, g);
                if let Some(b) = b {
                    m.add(a, b, -g);
                    m.add(b, b, g);
                    m.add(b, a, -g);
                }
            }
            for (j, &(a, b)) in self.sources.iter().enumerate() {
                let row = self.nodes + j;
                m.add(a, row, 1.0);
                m.add(row, a, 1.0);
                if let Some(b) = b {
                    m.add(b, row, -1.0);
                    m.add(row, b, -1.0);
                }
                rhs[row] += value();
            }
            for r in rhs.iter_mut().take(self.nodes) {
                // Injected currents; a palette zero leaves the row at +0.
                *r -= value();
            }
            (m, rhs)
        }

        /// Every position a draw can write, plus the diagonal.
        fn pattern(&self) -> Vec<u64> {
            let mut m = DenseMatrix::zeros(self.dim());
            for r in 0..self.dim() {
                m.set(r, r, 1.0);
            }
            for &(a, b) in self.edges.iter().chain(&self.sources) {
                m.set(a, a, 1.0);
                if let Some(b) = b {
                    m.set(a, b, 1.0);
                    m.set(b, a, 1.0);
                }
            }
            for (j, &(a, b)) in self.sources.iter().enumerate() {
                let row = self.nodes + j;
                for t in [Some(a), b].into_iter().flatten() {
                    m.set(t, row, 1.0);
                    m.set(row, t, 1.0);
                }
            }
            pattern_of(&m)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(400))]

        /// Over random sequences of MNA-like systems, the verified replay
        /// gives the same `Ok` bits or the same `SingularMatrix` row as a
        /// fresh `solve_in_place`, on factor misses and on factorization
        /// reuse with a new right-hand side.
        #[test]
        fn verified_replay_is_bitwise_identical_to_solve_in_place(seed in proptest::any::<u64>()) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let family = MnaFamily::new(&mut next);
            let mut lu = SparseReplayLu::new(family.dim(), true);
            lu.set_pattern(&family.pattern());
            for step in 0..12 {
                let (m, rhs) = family.draw(&mut next);
                let (_, rhs2) = family.draw(&mut next);
                let fill = |buf: &mut [f64]| buf.copy_from_slice(m.as_slice());
                let mut want = rhs.clone();
                let want_result = m.clone().solve_in_place(&mut want);
                let mut got = rhs.clone();
                let got_result = lu
                    .factor(fill)
                    .and_then(|_| lu.solve(&mut got, fill))
                    .map(|_| ());
                proptest::prop_assert_eq!(&got_result, &want_result, "step {}", step);
                if want_result.is_ok() {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    proptest::prop_assert_eq!(bits(&got), bits(&want), "step {}", step);
                    // Factorization reuse, as a plan's factorization cache does.
                    let mut want2 = rhs2.clone();
                    m.clone().solve_in_place(&mut want2).unwrap();
                    let mut got2 = rhs2;
                    lu.solve(&mut got2, fill).unwrap();
                    proptest::prop_assert_eq!(bits(&got2), bits(&want2), "step {} reuse", step);
                }
            }
        }
    }

    #[test]
    fn verified_replay_replays_until_the_pivot_order_flips() {
        // Node 0 to ground through g, a 1 Ω resistor from node 0 to node
        // 1 and a source row on node 0. Once stage 0 eliminates node 0,
        // column 1 holds g / (1 + g) on node 1's row and 1 / (1 + g) on
        // the source row, so stage 1 pivots on the source row while g < 1
        // and on node 1's row once g > 1.
        let system = |g: f64| {
            let mut m = DenseMatrix::zeros(3);
            m.add(0, 0, g);
            m.add(0, 0, 1.0);
            m.add(0, 1, -1.0);
            m.add(1, 1, 1.0);
            m.add(1, 0, -1.0);
            m.add(0, 2, 1.0);
            m.add(2, 0, 1.0);
            m
        };
        let mut lu = SparseReplayLu::new(3, true);
        lu.set_pattern(&pattern_of(&system(1.0)));
        let mut dense = Vec::new();
        for g in [1e-3, 1e-2, 1e-1, 0.5, 2.0, 4.0, 8.0] {
            let m = system(g);
            let mut want = vec![0.0, 1e-3, 1.5];
            m.clone().solve_in_place(&mut want).unwrap();
            let mut got = vec![0.0, 1e-3, 1.5];
            dense.push(replay_solve(&mut lu, &m, &mut got).unwrap());
            assert_bitwise(&want, &got, &format!("g={g}"));
        }
        // One cold start, replays, one fallback at the flip, replays.
        assert_eq!(dense, [true, false, false, false, true, false, false]);
    }
}
