//! Points: coordinates in N-dimensional space (paper §III-E).

use rupcxx_net::Pod;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A point in N-dimensional integer space — Titanium's `[1, 2, 3]`,
/// UPC++'s `POINT(1, 2, 3)`, here `pt![1, 2, 3]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point<const N: usize> {
    coords: [i64; N],
}

// SAFETY: `[i64; N]` has no padding and every bit pattern is valid.
unsafe impl<const N: usize> Pod for Point<N> {}

impl<const N: usize> Point<N> {
    /// Construct from coordinates.
    pub const fn new(coords: [i64; N]) -> Self {
        Point { coords }
    }

    /// The point with every coordinate equal to `v`.
    pub const fn splat(v: i64) -> Self {
        Point { coords: [v; N] }
    }

    /// The origin.
    pub const fn zero() -> Self {
        Self::splat(0)
    }

    /// The all-ones point (the default stride).
    pub const fn ones() -> Self {
        Self::splat(1)
    }

    /// Dimensionality.
    pub const fn arity(&self) -> usize {
        N
    }

    /// Raw coordinates.
    pub fn coords(&self) -> [i64; N] {
        self.coords
    }

    /// Unit vector along `dim`.
    pub fn unit(dim: usize) -> Self {
        let mut c = [0i64; N];
        c[dim] = 1;
        Point { coords: c }
    }

    /// Componentwise minimum.
    pub fn min(self, other: Self) -> Self {
        let mut c = self.coords;
        for d in 0..N {
            c[d] = c[d].min(other.coords[d]);
        }
        Point { coords: c }
    }

    /// Componentwise maximum.
    pub fn max(self, other: Self) -> Self {
        let mut c = self.coords;
        for d in 0..N {
            c[d] = c[d].max(other.coords[d]);
        }
        Point { coords: c }
    }

    /// Replace coordinate `dim` with `v`.
    pub fn with(mut self, dim: usize, v: i64) -> Self {
        self.coords[dim] = v;
        self
    }

    /// Remove coordinate `dim`, lowering the arity by one (used by array
    /// slicing). `M` must equal `N - 1`.
    pub fn drop_dim<const M: usize>(self, dim: usize) -> Point<M> {
        assert_eq!(M, N - 1, "drop_dim arity mismatch");
        let mut c = [0i64; M];
        let mut j = 0;
        for d in 0..N {
            if d != dim {
                c[j] = self.coords[d];
                j += 1;
            }
        }
        Point::new(c)
    }

    /// Permute coordinates: `result[d] = self[perm[d]]`.
    pub fn permute(self, perm: [usize; N]) -> Self {
        let mut c = [0i64; N];
        for d in 0..N {
            c[d] = self.coords[perm[d]];
        }
        Point { coords: c }
    }
}

impl<const N: usize> Index<usize> for Point<N> {
    type Output = i64;
    fn index(&self, d: usize) -> &i64 {
        &self.coords[d]
    }
}

impl<const N: usize> IndexMut<usize> for Point<N> {
    fn index_mut(&mut self, d: usize) -> &mut i64 {
        &mut self.coords[d]
    }
}

impl<const N: usize> Add for Point<N> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        let mut c = self.coords;
        for d in 0..N {
            c[d] += rhs.coords[d];
        }
        Point { coords: c }
    }
}

impl<const N: usize> Sub for Point<N> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        let mut c = self.coords;
        for d in 0..N {
            c[d] -= rhs.coords[d];
        }
        Point { coords: c }
    }
}

impl<const N: usize> Mul<i64> for Point<N> {
    type Output = Self;
    fn mul(self, k: i64) -> Self {
        let mut c = self.coords;
        for v in &mut c {
            *v *= k;
        }
        Point { coords: c }
    }
}

impl<const N: usize> Neg for Point<N> {
    type Output = Self;
    fn neg(self) -> Self {
        let mut c = self.coords;
        for v in &mut c {
            *v = -*v;
        }
        Point { coords: c }
    }
}

impl<const N: usize> std::fmt::Display for Point<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (d, c) in self.coords.iter().enumerate() {
            if d > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pt;

    #[test]
    fn constructors_and_macro() {
        let p = pt![1, 2, 3];
        assert_eq!(p.coords(), [1, 2, 3]);
        assert_eq!(Point::<3>::zero().coords(), [0; 3]);
        assert_eq!(Point::<2>::splat(4).coords(), [4, 4]);
        assert_eq!(Point::<3>::unit(1).coords(), [0, 1, 0]);
        assert_eq!(p.arity(), 3);
    }

    #[test]
    fn arithmetic() {
        let a = pt![1, 2];
        let b = pt![10, 20];
        assert_eq!(a + b, pt![11, 22]);
        assert_eq!(b - a, pt![9, 18]);
        assert_eq!(a * 3, pt![3, 6]);
        assert_eq!(-a, pt![-1, -2]);
    }

    #[test]
    fn comparisons_min_max() {
        let a = pt![1, 5];
        let b = pt![2, 3];
        assert_eq!(a.min(b), pt![1, 3]);
        assert_eq!(a.max(b), pt![2, 5]);
    }

    #[test]
    fn indexing_and_with() {
        let mut p = pt![7, 8, 9];
        assert_eq!(p[2], 9);
        p[0] = 1;
        assert_eq!(p, pt![1, 8, 9]);
        assert_eq!(p.with(1, 5), pt![1, 5, 9]);
    }

    #[test]
    fn drop_dim_and_permute() {
        let p = pt![10, 20, 30];
        assert_eq!(p.drop_dim::<2>(1), pt![10, 30]);
        assert_eq!(p.drop_dim::<2>(0), pt![20, 30]);
        assert_eq!(p.permute([2, 0, 1]), pt![30, 10, 20]);
    }

    #[test]
    fn display() {
        assert_eq!(pt![1, -2].to_string(), "[1, -2]");
    }

    #[test]
    fn pod_roundtrip() {
        let p = pt![5, -6, 7];
        let b = p.to_bytes();
        assert_eq!(Point::<3>::read_from(&b), p);
    }
}
