//! Property-based tests of the domain calculus and data-layout math
//! (proptest): the invariants the multidimensional array library and the
//! block-cyclic layout rely on.

use rupcxx_ndarray::{NdArray, Point, RectDomain};
use rupcxx_runtime::{spmd, RuntimeConfig};
use rupcxx_util::prop as proptest;
use rupcxx_util::prop::prelude::*;

fn small_domain() -> impl Strategy<Value = RectDomain<2>> {
    (-20i64..20, -20i64..20, 0i64..15, 0i64..15, 1i64..4, 1i64..4).prop_map(
        |(lx, ly, ex, ey, sx, sy)| {
            RectDomain::strided(
                Point::new([lx, ly]),
                Point::new([lx + ex, ly + ey]),
                Point::new([sx, sy]),
            )
        },
    )
}

/// A distinct value per point.
fn code<const N: usize>(p: Point<N>) -> i64 {
    p.coords().iter().fold(1, |acc, &x| acc * 100 + x + 50)
}

/// `dst.copy_from(src)` against its pointwise model, in `N` dimensions:
/// two boxes (`lo`, `extent` per side, in lattice steps) on a uniform
/// lattice of `stride`, the source translated by `shift` steps, and each
/// side viewed through a rotation of its dimensions by `turn[side]` (a
/// rotated view's last dimension is strided in storage). The copy must
/// leave the destination's whole storage equal to a twin's that got
/// `set(p, src.get(p))` at every point of the intersection.
fn copy_matches_pointwise<const N: usize>(
    lo: [[i64; 3]; 2],
    extent: [[i64; 3]; 2],
    shift: [i64; 3],
    stride: i64,
    turn: [usize; 2],
) -> usize {
    let dom = |k: usize| {
        let lo = Point::<N>::new(std::array::from_fn(|d| lo[k][d] * stride));
        let hi = Point::new(std::array::from_fn(|d| lo[d] + extent[k][d] * stride));
        RectDomain::strided(lo, hi, Point::splat(stride))
    };
    let rot = |k: usize| -> [usize; N] { std::array::from_fn(|d| (d + turn[k]) % N) };
    let shift = Point::<N>::new(std::array::from_fn(|d| shift[d] * stride));
    spmd(RuntimeConfig::new(1).segment_mib(1), |ctx| {
        let dst = NdArray::<i64, N>::new(ctx, dom(0));
        let twin = NdArray::<i64, N>::new(ctx, dom(0));
        let src = NdArray::<i64, N>::new(ctx, dom(1));
        dst.fill_with(ctx, |p| -code(p));
        twin.fill_with(ctx, |p| -code(p));
        src.fill_with(ctx, code);
        let src_view = src.translate(shift).permute(rot(1));
        let (dst_view, twin_view) = (dst.permute(rot(0)), twin.permute(rot(0)));
        dst_view.copy_from(ctx, &src_view);
        let inter = twin_view.domain().intersect(&src_view.domain());
        inter.for_each(|p| twin_view.set(ctx, p, src_view.get(ctx, p)));
        assert_eq!(dst.to_vec(ctx), twin.to_vec(ctx), "{inter}");
        for a in [dst, twin, src] {
            a.destroy(ctx);
        }
        inter.size()
    })[0]
}

#[test]
fn copy_of_empty_and_single_point_intersections() {
    for stride in [1, 2] {
        // Disjoint boxes, then boxes meeting in one point, in 1–3-D.
        let (lo, extent) = ([[0; 3], [0; 3]], [[3; 3], [3; 3]]);
        assert_eq!(
            copy_matches_pointwise::<1>(lo, extent, [3, 0, 0], stride, [0, 0]),
            0
        );
        assert_eq!(
            copy_matches_pointwise::<2>(lo, extent, [2, 2, 0], stride, [1, 0]),
            1
        );
        assert_eq!(
            copy_matches_pointwise::<3>(lo, extent, [0, 3, 0], stride, [0, 2]),
            0
        );
        assert_eq!(
            copy_matches_pointwise::<3>(lo, extent, [-2, 2, 2], stride, [1, 2]),
            1
        );
    }
}

proptest! {
    #[test]
    fn domain_size_equals_point_count(d in small_domain()) {
        let mut n = 0usize;
        d.for_each(|_| n += 1);
        prop_assert_eq!(n, d.size());
    }

    #[test]
    fn every_iterated_point_is_contained(d in small_domain()) {
        d.for_each(|p| assert!(d.contains(p), "{p} not in {d}"));
    }

    #[test]
    fn points_matches_for_each(d in small_domain()) {
        let mut via_fe = Vec::new();
        d.for_each(|p| via_fe.push(p));
        let via_pts: Vec<_> = d.points().collect();
        prop_assert_eq!(via_fe, via_pts);
    }

    #[test]
    fn intersection_is_conjunction_of_membership(
        lx in -10i64..10, ly in -10i64..10, ex in 0i64..12, ey in 0i64..12,
        mx in -10i64..10, my in -10i64..10, fx in 0i64..12, fy in 0i64..12,
    ) {
        // Unit stride so lattices always align.
        let a = RectDomain::new(Point::new([lx, ly]), Point::new([lx + ex, ly + ey]));
        let b = RectDomain::new(Point::new([mx, my]), Point::new([mx + fx, my + fy]));
        let i = a.intersect(&b);
        for x in (lx - 1)..(lx + ex + 1) {
            for y in (ly - 1)..(ly + ey + 1) {
                let p = Point::new([x, y]);
                prop_assert_eq!(i.contains(p), a.contains(p) && b.contains(p));
            }
        }
    }

    #[test]
    fn intersection_commutes_and_is_idempotent(d in small_domain()) {
        let d2 = d;
        let i = d.intersect(&d2);
        prop_assert_eq!(i.size(), d.size());
        // With a translated copy (preserving lattice alignment).
        let t = d.translate(Point::new([d.stride()[0], 0]));
        let ab = d.intersect(&t);
        let ba = t.intersect(&d);
        prop_assert_eq!(ab.size(), ba.size());
        ab.for_each(|p| assert!(ba.contains(p)));
    }

    #[test]
    fn bounding_union_contains_both(
        lx in -10i64..10, ly in -10i64..10, ex in 0i64..10, ey in 0i64..10,
        mx in -10i64..10, my in -10i64..10, fx in 0i64..10, fy in 0i64..10,
    ) {
        let a = RectDomain::new(Point::new([lx, ly]), Point::new([lx + ex, ly + ey]));
        let b = RectDomain::new(Point::new([mx, my]), Point::new([mx + fx, my + fy]));
        let u = a.bounding_union(&b);
        a.for_each(|p| assert!(u.contains(p)));
        b.for_each(|p| assert!(u.contains(p)));
    }

    #[test]
    fn translate_roundtrip(d in small_domain(), tx in -30i64..30, ty in -30i64..30) {
        let t = Point::new([tx, ty]);
        let back = d.translate(t).translate(-t);
        prop_assert_eq!(back, d);
    }

    #[test]
    fn face_constructions_are_consistent(e in 3i64..10) {
        let whole = RectDomain::new(Point::<3>::zero(), Point::splat(e));
        let inner = whole.shrink(1);
        prop_assert_eq!(inner.size() as i64, (e - 2).pow(3));
        for dim in 0..3 {
            for side in [-1i8, 1] {
                // Interior faces are subsets of the domain with the right size.
                let inf = whole.interior_face(dim, side, 1);
                prop_assert_eq!(inf.size() as i64, e * e);
                inf.for_each(|p| assert!(whole.contains(p)));
                // Exterior faces are disjoint from the domain…
                let exf = whole.exterior_face(dim, side, 1);
                exf.for_each(|p| assert!(!whole.contains(p)));
                // …and the exterior faces of the shrunk interior lie
                // inside the original domain (the ghost-shell property).
                let ghost = inner.exterior_face(dim, side, 1);
                ghost.for_each(|p| assert!(whole.contains(p)));
                // Ghost slab = matching interior face of the whole domain,
                // narrowed to the inner cross-section.
                prop_assert_eq!(ghost.size() as i64, (e - 2) * (e - 2));
            }
        }
        // Interior points are in no ghost slab.
        inner.for_each(|p| {
            for dim in 0..3 {
                for side in [-1i8, 1] {
                    assert!(!inner.exterior_face(dim, side, 1).contains(p));
                }
            }
        });
    }

    #[test]
    fn point_algebra_group_laws(
        a in proptest::array::uniform3(-100i64..100),
        b in proptest::array::uniform3(-100i64..100),
    ) {
        let p = Point::new(a);
        let q = Point::new(b);
        prop_assert_eq!(p + q, q + p);
        prop_assert_eq!(p - p, Point::zero());
        prop_assert_eq!((p + q) - q, p);
        prop_assert_eq!(-(-p), p);
        prop_assert_eq!(p * 2, p + p);
    }

    #[test]
    fn permute_inverse_restores(d in small_domain()) {
        // For 2-D, [1,0] is its own inverse.
        prop_assert_eq!(d.permute([1, 0]).permute([1, 0]), d);
    }

    #[test]
    fn copy_from_matches_pointwise_model_1d(
        lo in (proptest::array::uniform3(-3i64..3), proptest::array::uniform3(-3i64..3)),
        extent in (proptest::array::uniform3(1i64..7), proptest::array::uniform3(1i64..7)),
        shift in proptest::array::uniform3(-5i64..5),
        stride in 1i64..3,
    ) {
        copy_matches_pointwise::<1>([lo.0, lo.1], [extent.0, extent.1], shift, stride, [0, 0]);
    }

    #[test]
    fn copy_from_matches_pointwise_model_2d(
        lo in (proptest::array::uniform3(-3i64..3), proptest::array::uniform3(-3i64..3)),
        extent in (proptest::array::uniform3(1i64..6), proptest::array::uniform3(1i64..6)),
        shift in proptest::array::uniform3(-4i64..4),
        stride in 1i64..3,
        turn in (0usize..2, 0usize..2),
    ) {
        copy_matches_pointwise::<2>([lo.0, lo.1], [extent.0, extent.1], shift, stride, [turn.0, turn.1]);
    }

    #[test]
    fn copy_from_matches_pointwise_model_3d(
        lo in (proptest::array::uniform3(-2i64..2), proptest::array::uniform3(-2i64..2)),
        extent in (proptest::array::uniform3(1i64..6), proptest::array::uniform3(1i64..6)),
        shift in proptest::array::uniform3(-2i64..3),
        stride in 1i64..3,
        turn in (0usize..3, 0usize..3),
    ) {
        copy_matches_pointwise::<3>([lo.0, lo.1], [extent.0, extent.1], shift, stride, [turn.0, turn.1]);
    }
}
