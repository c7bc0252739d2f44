//! `rupcxx-ndarray` — Titanium-style multidimensional domains and arrays
//! (paper §III-E).
//!
//! UPC++ adopts Titanium's domain calculus to fix the two big limitations
//! of UPC shared arrays: single-dimension distribution and compile-time
//! extents. The components, as in the paper:
//!
//! * [`Point<N>`] — a coordinate in N-dimensional space;
//! * [`RectDomain<N>`] — lower bound, **exclusive** upper bound (the
//!   paper's deviation from Titanium, footnote 1) and stride;
//! * [`NdArray<T, N>`] — an array over a rectangular domain, resident on a
//!   single rank but addressable from every rank; supports *views*
//!   (restrict, slice, translate, permute) that reinterpret the same
//!   storage without copying, and a one-sided [`NdArray::copy_from`] that
//!   intersects domains, packs, transfers and unpacks automatically —
//!   the ghost-zone exchange `A.constrict(d).copy(B)` of §III-E becomes
//!   `a.restrict(d).copy_from(ctx, &b)`.
//!
//! Construction macros mirror the paper's `POINT`, `RECTDOMAIN` and
//! `ARRAY` shorthands ([`pt!`], [`rd!`]).

// Dimension-indexed loops touch several per-dimension arrays at once;
// the indexed form is the clearer one throughout this crate.
#![allow(clippy::needless_range_loop)]

pub mod array;
pub mod copy;
pub mod dist;
pub mod domain;
pub mod local;
pub mod point;

pub use array::NdArray;
pub use dist::DistArray;
pub use domain::RectDomain;
pub use local::LocalGrid;
pub use point::Point;

/// Construct a [`Point`]: `pt![1, 2, 3]`.
#[macro_export]
macro_rules! pt {
    ($($c:expr),+ $(,)?) => {
        $crate::Point::new([$($c as i64),+])
    };
}

/// Construct a [`RectDomain`] (paper's `RECTDOMAIN((l…), (u…), (s…))`):
/// `rd!([0,0] .. [8,8])` (unit stride) or
/// `rd!([1,2] .. [9,9]; [1,3])` (strided).
#[macro_export]
macro_rules! rd {
    ([$($l:expr),+] .. [$($u:expr),+]) => {
        $crate::RectDomain::new(
            $crate::Point::new([$($l as i64),+]),
            $crate::Point::new([$($u as i64),+]),
        )
    };
    ([$($l:expr),+] .. [$($u:expr),+]; [$($s:expr),+]) => {
        $crate::RectDomain::strided(
            $crate::Point::new([$($l as i64),+]),
            $crate::Point::new([$($u as i64),+]),
            $crate::Point::new([$($s as i64),+]),
        )
    };
}
