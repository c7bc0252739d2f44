//! Rectangular domains (paper §III-E): lower bound, exclusive upper bound,
//! stride — plus the domain calculus (intersection, translation, border
//! and shrink for ghost zones, unordered iteration).

use crate::point::Point;
use rupcxx_net::Pod;

/// A strided rectangular index domain:
/// `{ lo + k∘stride | 0 ≤ (lo + k∘stride) < hi componentwise }`.
///
/// Upper bounds are **exclusive**, following the paper (footnote 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RectDomain<const N: usize> {
    lo: Point<N>,
    hi: Point<N>,
    stride: Point<N>,
}

// SAFETY: three `Point<N>` (i.e. `[i64; N]`) fields — no padding, all bit
// patterns valid.
unsafe impl<const N: usize> Pod for RectDomain<N> {}

impl<const N: usize> RectDomain<N> {
    /// Unit-stride domain `[lo, hi)`.
    pub fn new(lo: Point<N>, hi: Point<N>) -> Self {
        Self::strided(lo, hi, Point::ones())
    }

    /// Strided domain. All strides must be positive.
    pub fn strided(lo: Point<N>, hi: Point<N>, stride: Point<N>) -> Self {
        for d in 0..N {
            assert!(stride[d] > 0, "stride must be positive in dim {d}");
        }
        RectDomain { lo, hi, stride }
    }

    /// Lower bound (inclusive).
    pub fn lo(&self) -> Point<N> {
        self.lo
    }

    /// Upper bound (exclusive).
    pub fn hi(&self) -> Point<N> {
        self.hi
    }

    /// Per-dimension stride.
    pub fn stride(&self) -> Point<N> {
        self.stride
    }

    /// Number of points along dimension `d`.
    pub fn extent(&self, d: usize) -> usize {
        if self.hi[d] <= self.lo[d] {
            0
        } else {
            ((self.hi[d] - self.lo[d] + self.stride[d] - 1) / self.stride[d]) as usize
        }
    }

    /// Total number of points.
    pub fn size(&self) -> usize {
        (0..N).map(|d| self.extent(d)).product()
    }

    /// True when the domain contains no points.
    pub fn is_empty(&self) -> bool {
        self.size() == 0
    }

    /// Membership test (point must lie on the stride lattice).
    pub fn contains(&self, p: Point<N>) -> bool {
        (0..N).all(|d| {
            p[d] >= self.lo[d] && p[d] < self.hi[d] && (p[d] - self.lo[d]) % self.stride[d] == 0
        })
    }

    /// Intersection (the paper's `rd1 * rd2`). Both domains must have equal
    /// strides and aligned lattices for an exact result; this covers the
    /// ghost-zone uses in the paper. Panics on incompatible lattices.
    pub fn intersect(&self, other: &Self) -> Self {
        for d in 0..N {
            assert_eq!(
                self.stride[d], other.stride[d],
                "intersect: stride mismatch in dim {d}"
            );
            assert_eq!(
                (self.lo[d] - other.lo[d]) % self.stride[d],
                0,
                "intersect: lattice misalignment in dim {d}"
            );
        }
        RectDomain {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
            stride: self.stride,
        }
    }

    /// Smallest domain containing both (bounding box — the paper's
    /// `rd1 + rd2`). Requires equal, aligned strides.
    pub fn bounding_union(&self, other: &Self) -> Self {
        for d in 0..N {
            assert_eq!(self.stride[d], other.stride[d], "union: stride mismatch");
        }
        RectDomain {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            stride: self.stride,
        }
    }

    /// Domain translated by `t`.
    pub fn translate(&self, t: Point<N>) -> Self {
        RectDomain {
            lo: self.lo + t,
            hi: self.hi + t,
            stride: self.stride,
        }
    }

    /// Domain shrunk by `k` points on **both** sides of every dimension —
    /// the interior of a grid with ghost width `k` (Titanium's `shrink`).
    pub fn shrink(&self, k: i64) -> Self {
        let mut lo = self.lo;
        let mut hi = self.hi;
        for d in 0..N {
            lo[d] += k * self.stride[d];
            hi[d] -= k * self.stride[d];
        }
        RectDomain {
            lo,
            hi,
            stride: self.stride,
        }
    }

    /// The slab of thickness `k` on the `side` of dimension `dim`
    /// just **inside** the domain (`side = -1` → low face, `+1` → high
    /// face). Used to select the data to send to a neighbour.
    pub fn interior_face(&self, dim: usize, side: i8, k: i64) -> Self {
        let mut lo = self.lo;
        let mut hi = self.hi;
        let s = self.stride[dim];
        if side < 0 {
            hi[dim] = lo[dim] + k * s;
        } else {
            lo[dim] = hi[dim] - k * s;
        }
        RectDomain {
            lo,
            hi,
            stride: self.stride,
        }
    }

    /// The slab of thickness `k` just **outside** the domain on the `side`
    /// of dimension `dim` (Titanium's `border`) — a ghost region.
    pub fn exterior_face(&self, dim: usize, side: i8, k: i64) -> Self {
        let mut lo = self.lo;
        let mut hi = self.hi;
        let s = self.stride[dim];
        if side < 0 {
            hi[dim] = lo[dim];
            lo[dim] -= k * s;
        } else {
            lo[dim] = hi[dim];
            hi[dim] += k * s;
        }
        RectDomain {
            lo,
            hi,
            stride: self.stride,
        }
    }

    /// Permute the dimensions of the domain.
    pub fn permute(&self, perm: [usize; N]) -> Self {
        RectDomain {
            lo: self.lo.permute(perm),
            hi: self.hi.permute(perm),
            stride: self.stride.permute(perm),
        }
    }

    /// Unordered iteration over every point (the paper's `foreach`):
    /// sequential on the calling rank, lexicographic order.
    pub fn for_each(&self, mut body: impl FnMut(Point<N>)) {
        if self.is_empty() {
            return;
        }
        let mut p = self.lo;
        loop {
            body(p);
            // Lexicographic increment, last dimension fastest.
            let mut d = N;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                p[d] += self.stride[d];
                if p[d] < self.hi[d] {
                    break;
                }
                p[d] = self.lo[d];
                if d == 0 {
                    return;
                }
            }
        }
    }

    /// Iterator over every point (allocating the points lazily).
    pub fn points(&self) -> impl Iterator<Item = Point<N>> + '_ {
        let total = self.size();
        let dom = *self;
        (0..total).map(move |mut idx| {
            let mut p = dom.lo;
            for d in (0..N).rev() {
                let e = dom.extent(d);
                p[d] = dom.lo[d] + (idx % e) as i64 * dom.stride[d];
                idx /= e;
            }
            p
        })
    }
}

impl<const N: usize> std::fmt::Display for RectDomain<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}..{}:{}", self.lo, self.hi, self.stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pt, rd};

    #[test]
    fn size_and_extent() {
        let d = rd!([0, 0]..[4, 6]);
        assert_eq!(d.size(), 24);
        assert_eq!(d.extent(0), 4);
        assert_eq!(d.extent(1), 6);
        // Paper's strided example: [(1,2,3), (5,6,7), stride (1,1,2)].
        let s = rd!([1, 2, 3] .. [5, 6, 7]; [1, 1, 2]);
        assert_eq!(s.extent(2), 2);
        assert_eq!(s.size(), 4 * 4 * 2);
    }

    #[test]
    fn empty_domains() {
        let d = rd!([3, 3]..[3, 5]);
        assert!(d.is_empty());
        assert_eq!(d.size(), 0);
        let mut count = 0;
        d.for_each(|_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn contains_respects_lattice() {
        let d = rd!([0, 0] .. [10, 10]; [2, 3]);
        assert!(d.contains(pt![0, 0]));
        assert!(d.contains(pt![2, 3]));
        assert!(!d.contains(pt![1, 3]));
        assert!(!d.contains(pt![2, 2]));
        assert!(!d.contains(pt![10, 0]));
        assert!(!d.contains(pt![-2, 0]));
    }

    #[test]
    fn intersect_and_union() {
        let a = rd!([0, 0]..[6, 6]);
        let b = rd!([3, 2]..[9, 5]);
        let i = a.intersect(&b);
        assert_eq!(i, rd!([3, 2]..[6, 5]));
        let u = a.bounding_union(&b);
        assert_eq!(u, rd!([0, 0]..[9, 6]));
        // Disjoint intersection is empty.
        let c = rd!([10, 10]..[12, 12]);
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn translate_shrink_faces() {
        let d = rd!([0, 0, 0]..[10, 10, 10]);
        assert_eq!(d.translate(pt![1, -1, 2]), rd!([1, -1, 2]..[11, 9, 12]));
        assert_eq!(d.shrink(1), rd!([1, 1, 1]..[9, 9, 9]));
        // Interior faces: the planes we send to neighbours.
        assert_eq!(
            d.shrink(1).interior_face(0, -1, 1),
            rd!([1, 1, 1]..[2, 9, 9])
        );
        assert_eq!(
            d.shrink(1).interior_face(0, 1, 1),
            rd!([8, 1, 1]..[9, 9, 9])
        );
        // Exterior faces: the ghost slabs we receive into.
        assert_eq!(
            d.shrink(1).exterior_face(2, 1, 1),
            rd!([1, 1, 9]..[9, 9, 10])
        );
        assert_eq!(
            d.shrink(1).exterior_face(2, -1, 1),
            rd!([1, 1, 0]..[9, 9, 1])
        );
    }

    #[test]
    fn for_each_visits_lexicographically() {
        let d = rd!([0, 0]..[2, 3]);
        let mut seen = vec![];
        d.for_each(|p| seen.push((p[0], p[1])));
        assert_eq!(seen, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn points_matches_for_each() {
        let d = rd!([1, 2] .. [9, 9]; [1, 3]);
        let mut via_foreach = vec![];
        d.for_each(|p| via_foreach.push(p));
        let via_points: Vec<_> = d.points().collect();
        assert_eq!(via_foreach, via_points);
        assert_eq!(via_points.len(), d.size());
    }

    #[test]
    fn permute_domain() {
        let d = rd!([0, 1, 2]..[4, 5, 6]);
        let p = d.permute([2, 0, 1]);
        assert_eq!(p, rd!([2, 0, 1]..[6, 4, 5]));
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_panics() {
        let _ = RectDomain::strided(pt![0], pt![4], pt![0]);
    }

    #[test]
    fn one_dimensional_domain() {
        let d = rd!([5]..[9]);
        assert_eq!(d.size(), 4);
        let pts: Vec<i64> = d.points().map(|p| p[0]).collect();
        assert_eq!(pts, vec![5, 6, 7, 8]);
    }
}
