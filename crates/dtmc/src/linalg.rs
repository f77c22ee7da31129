//! Small dense linear algebra used by the absorbing and steady-state solvers.
//!
//! The chains produced by the WirelessHART path model are small (hundreds of
//! states) and their fundamental-matrix systems are smaller still, so a dense
//! Gaussian elimination with partial pivoting is both simple and fast enough.
//! Implemented here rather than pulled from `nalgebra` to keep the substrate
//! dependency-free and the numerics auditable.

use crate::error::{DtmcError, Result};

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix shape overflows usize");
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates an identity matrix of order `n`.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Solves `A x = b` for each right-hand side column in `rhs`, in place,
    /// via Gaussian elimination with partial pivoting. `rhs` is a list of
    /// column vectors; each is replaced by the corresponding solution.
    ///
    /// # Errors
    ///
    /// Returns [`DtmcError::SingularSystem`] if a pivot underflows, and
    /// [`DtmcError::LengthMismatch`] if shapes disagree.
    pub(crate) fn solve_many(mut self, rhs: &mut [Vec<f64>]) -> Result<()> {
        if self.rows != self.cols {
            return Err(DtmcError::LengthMismatch {
                expected: self.rows,
                actual: self.cols,
            });
        }
        let n = self.rows;
        for b in rhs.iter() {
            if b.len() != n {
                return Err(DtmcError::LengthMismatch {
                    expected: n,
                    actual: b.len(),
                });
            }
        }
        for col in 0..n {
            // Partial pivoting: pick the largest magnitude pivot below the diagonal.
            let pivot_row = (col..n)
                .max_by(|&a, &b| {
                    self[(a, col)]
                        .abs()
                        .partial_cmp(&self[(b, col)].abs())
                        .expect("pivot comparison on NaN")
                })
                .expect("non-empty pivot range");
            let pivot = self[(pivot_row, col)];
            if pivot.abs() < 1e-300 {
                return Err(DtmcError::SingularSystem);
            }
            if pivot_row != col {
                self.swap_rows(pivot_row, col);
                for b in rhs.iter_mut() {
                    b.swap(pivot_row, col);
                }
            }
            for row in col + 1..n {
                let factor = self[(row, col)] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    let v = self[(col, k)];
                    self[(row, k)] -= factor * v;
                }
                for b in rhs.iter_mut() {
                    let v = b[col];
                    b[row] -= factor * v;
                }
            }
        }
        // Back substitution.
        for b in rhs.iter_mut() {
            for row in (0..n).rev() {
                let mut acc = b[row];
                for k in row + 1..n {
                    acc -= self[(row, k)] * b[k];
                }
                b[row] = acc / self[(row, row)];
            }
        }
        Ok(())
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_rows(n: usize, data: &[f64]) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(n, n);
        a.data.copy_from_slice(data);
        a
    }

    fn solve(a: DenseMatrix, b: Vec<f64>) -> Result<Vec<f64>> {
        let mut rhs = [b];
        a.solve_many(&mut rhs)?;
        let [x] = rhs;
        Ok(x)
    }

    fn mul_vec(a: &DenseMatrix, v: &[f64]) -> Vec<f64> {
        (0..a.rows)
            .map(|i| (0..a.cols).map(|j| a[(i, j)] * v[j]).sum())
            .collect()
    }

    #[test]
    fn identity_solves_to_rhs() {
        let a = DenseMatrix::identity(4);
        let x = solve(a, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn solves_known_system() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
        let a = from_rows(2, &[2.0, 1.0, 1.0, 3.0]);
        let x = solve(a, vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // First pivot entry is zero; requires a row swap.
        let a = from_rows(2, &[0.0, 1.0, 1.0, 0.0]);
        let x = solve(a, vec![2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_system_is_detected() {
        let a = from_rows(2, &[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(
            solve(a, vec![1.0, 2.0]).unwrap_err(),
            DtmcError::SingularSystem
        );
    }

    #[test]
    fn solve_many_shares_elimination() {
        let a = from_rows(2, &[4.0, 1.0, 1.0, 3.0]);
        let mut rhs = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        a.clone().solve_many(&mut rhs).unwrap();
        // Result columns form the inverse of A; check A * inv = I.
        let c0 = mul_vec(&a, &rhs[0]);
        let c1 = mul_vec(&a, &rhs[1]);
        assert!((c0[0] - 1.0).abs() < 1e-12 && c0[1].abs() < 1e-12);
        assert!((c1[1] - 1.0).abs() < 1e-12 && c1[0].abs() < 1e-12);
    }

    #[test]
    fn larger_random_like_system_round_trips() {
        // Build a diagonally dominant 8x8 system with a known solution.
        let n = 8;
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = if i == j {
                    10.0 + i as f64
                } else {
                    1.0 / (1.0 + (i + 2 * j) as f64)
                };
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 3.5).collect();
        let b = mul_vec(&a, &x_true);
        let x = solve(a, b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10, "{xi} vs {ti}");
        }
    }
}
