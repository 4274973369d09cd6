//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use rfid_geometry::{Disk, GridIndex, HierarchicalGrid, LevelAssignment, Point, Rect, Shifting};

fn arb_point() -> impl Strategy<Value = Point> {
    (-500.0..500.0f64, -500.0..500.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(arb_point(), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- metric space -----------------------------------

    #[test]
    fn distance_symmetry(a in arb_point(), b in arb_point()) {
        prop_assert_eq!(a.dist_sq(b).to_bits(), b.dist_sq(a).to_bits());
    }

    #[test]
    fn triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-9);
    }

    #[test]
    fn dist_sq_consistent_with_dist(a in arb_point(), b in arb_point()) {
        let d = a.dist(b);
        prop_assert!((d * d - a.dist_sq(b)).abs() <= 1e-6 * (1.0 + a.dist_sq(b)));
    }

    // ---------------- disks ------------------------------------------

    #[test]
    fn disk_contains_center_and_boundary(c in arb_point(), r in 0.0..100.0f64) {
        let d = Disk::new(c, r);
        prop_assert!(d.contains(c));
        // Catastrophic cancellation at |c| ≫ r makes the exact boundary
        // fuzzy in f64; test strictly-inside / clearly-outside points.
        prop_assert!(d.contains(Point::new(c.x + r * 0.999999, c.y)));
        prop_assert!(!d.contains(Point::new(c.x + r + 1e-4 * (1.0 + r + c.x.abs()), c.y)));
    }

    #[test]
    fn disk_intersection_symmetric(a in arb_point(), b in arb_point(), r1 in 0.0..50.0f64, r2 in 0.0..50.0f64) {
        let d1 = Disk::new(a, r1);
        let d2 = Disk::new(b, r2);
        prop_assert_eq!(d1.intersects(&d2), d2.intersects(&d1));
        // area symmetric too
        let i12 = d1.intersection_area(&d2);
        let i21 = d2.intersection_area(&d1);
        prop_assert!((i12 - i21).abs() <= 1e-6 * (1.0 + i12.abs()));
        // intersection area bounded by smaller disk's area
        prop_assert!(i12 <= d1.area().min(d2.area()) + 1e-6);
        // positive intersection implies geometric intersection
        if i12 > 1e-9 {
            prop_assert!(d1.intersects(&d2));
        }
    }

    #[test]
    fn containment_implies_intersection(a in arb_point(), b in arb_point(), r1 in 1.0..50.0f64, r2 in 0.0..50.0f64) {
        let d1 = Disk::new(a, r1);
        let d2 = Disk::new(b, r2);
        if d1.contains_disk(&d2) {
            prop_assert!(d1.intersects(&d2));
            prop_assert!(d2.radius <= d1.radius);
            // every sampled boundary point of d2 inside d1
            for i in 0..8 {
                let t = i as f64 * std::f64::consts::TAU / 8.0;
                let p = Point::new(b.x + r2 * t.cos(), b.y + r2 * t.sin());
                prop_assert!(d1.center.within(p, d1.radius + 1e-9));
            }
        }
    }

    #[test]
    fn bounding_box_contains_disk_boundary(c in arb_point(), r in 0.0..50.0f64) {
        let d = Disk::new(c, r);
        let bb = d.bounding_box();
        for i in 0..12 {
            let t = i as f64 * std::f64::consts::TAU / 12.0;
            let p = Point::new(c.x + r * t.cos(), c.y + r * t.sin());
            prop_assert!(bb.contains(p) || bb.inflate(1e-9).contains(p));
        }
    }

    // ---------------- rectangles --------------------------------------

    #[test]
    fn rect_distance_zero_iff_contained(p in arb_point(), q in arb_point(), x in arb_point()) {
        let r = Rect::from_corners(p, q);
        let d = r.dist_sq_to_point(x);
        prop_assert_eq!(d == 0.0, r.contains(x));
    }

    #[test]
    fn rect_disk_intersection_matches_distance(p in arb_point(), q in arb_point(), c in arb_point(), radius in 0.0..100.0f64) {
        let r = Rect::from_corners(p, q);
        prop_assert_eq!(
            r.intersects_disk(c, radius),
            r.dist_sq_to_point(c) <= radius * radius
        );
    }

    // ---------------- spatial indices ---------------------------------

    #[test]
    fn grid_agrees_with_bruteforce(
        points in arb_points(120),
        center in arb_point(),
        radius in 0.0..200.0f64,
        cell in 0.5..40.0f64,
    ) {
        let grid = GridIndex::build(&points, cell);
        let mut brute: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| center.dist_sq(**p) <= radius * radius)
            .map(|(i, _)| i)
            .collect();
        brute.sort_unstable();
        prop_assert_eq!(grid.query_within(center, radius), brute);
    }

    /// Lattice points, lattice centres and integer radii put many points
    /// exactly on the query circle and on cell edges; the cell sides
    /// include 0 (finest grid the bucket bound allows), sub-lattice,
    /// lattice-aligned and one-bucket grids.
    #[test]
    fn grid_agrees_with_bruteforce_on_lattices(
        coords in proptest::collection::vec((-8i32..8, -8i32..8), 0..120),
        centre in (-10i32..10, -10i32..10),
        radius in 0u32..12,
        cell in 0usize..6,
        flat in 0u8..2,
    ) {
        let at = |(x, y): (i32, i32)| Point::new(f64::from(x), f64::from(if flat == 1 { 0 } else { y }));
        let points: Vec<Point> = coords.iter().copied().map(at).collect();
        let centre = at(centre);
        let radius = f64::from(radius);
        let grid = GridIndex::build(&points, [0.0, 0.25, 1.0, 3.0, 7.0, f64::INFINITY][cell]);
        let brute: Vec<usize> = (0..points.len())
            .filter(|&i| centre.dist_sq(points[i]) <= radius * radius)
            .collect();
        prop_assert_eq!(grid.query_within(centre, radius), brute);
    }

    // ---------------- hierarchical shifted grid -----------------------

    #[test]
    fn squares_tile_without_overlap(
        k in 2usize..6,
        r in 0usize..5,
        s in 0usize..5,
        level in 0u32..4,
        p in arb_point(),
    ) {
        let r = r % k;
        let s = s % k;
        let g = HierarchicalGrid::new(k, Shifting { r, s });
        let sq = g.square_of(p, level);
        let b = g.square_bounds(sq);
        prop_assert!(b.contains(p));
        // neighbours don't claim the interior point
        for dx in [-1i64, 1] {
            let other = rfid_geometry::SquareId { level, ix: sq.ix + dx, iy: sq.iy };
            let ob = g.square_bounds(other);
            let interior = b.center();
            prop_assert!(!ob.contains(interior));
        }
    }

    #[test]
    fn parent_chain_reaches_level_zero(
        k in 2usize..5,
        shift in 0usize..16,
        p in arb_point(),
        level in 0u32..6,
    ) {
        let g = HierarchicalGrid::new(k, Shifting { r: shift % k, s: (shift / k) % k });
        let mut sq = g.square_of(p, level);
        let mut steps = 0;
        while let Some(parent) = g.parent(sq) {
            prop_assert_eq!(parent.level, sq.level - 1);
            // fp slack: nesting is exact in ℚ but bounds are computed by
            // floating multiplication at each level independently.
            prop_assert!(g.square_bounds(parent).inflate(1e-9).contains_rect(&g.square_bounds(sq)));
            sq = parent;
            steps += 1;
            prop_assert!(steps <= 10, "runaway parent chain");
        }
        prop_assert_eq!(sq.level, 0);
        prop_assert_eq!(steps, level);
    }

    #[test]
    fn surviving_disks_never_cross_kept_lines(
        k in 2usize..5,
        cx in -3.0..3.0f64,
        cy in -3.0..3.0f64,
        radius_frac in 0.05..0.5f64,
        level in 0u32..3,
    ) {
        let g = HierarchicalGrid::new(k, Shifting { r: 0, s: 0 });
        // a disk sized within its level: diameter ≤ spacing(level)
        let radius = radius_frac * g.spacing(level) / 2.0 * 2.0 / 2.0; // ≤ spacing/2
        let d = Disk::new(Point::new(cx, cy), radius);
        if g.survives(&d, level) {
            let b = g.square_bounds(g.home_square(&d, level));
            prop_assert!(d.center.x - d.radius >= b.min_x - 1e-9);
            prop_assert!(d.center.x + d.radius <= b.max_x + 1e-9);
            prop_assert!(d.center.y - d.radius >= b.min_y - 1e-9);
            prop_assert!(d.center.y + d.radius <= b.max_y + 1e-9);
        }
    }

    #[test]
    fn level_assignment_partitions_by_radius(
        radii in proptest::collection::vec(0.01..100.0f64, 1..40),
        k in 2usize..5,
    ) {
        let la = LevelAssignment::new(&radii, k);
        let base = (k + 1) as f64;
        for (i, &r) in radii.iter().enumerate() {
            let scaled = 2.0 * r * la.scale;
            let j = la.levels[i];
            // 1/(k+1)^{j+1} < 2R ≤ 1/(k+1)^j  (allowing fp slack)
            prop_assert!(scaled <= base.powi(-(j as i32)) * (1.0 + 1e-9), "disk {i}");
            if (j as usize) < rfid_geometry::shifted_grid::MAX_LEVELS - 1 {
                prop_assert!(scaled > base.powi(-(j as i32 + 1)) * (1.0 - 1e-9), "disk {i}");
            }
        }
        // scale sends the max radius to 1/2
        let r_max = radii.iter().copied().fold(0.0f64, f64::max);
        prop_assert!((r_max * la.scale - 0.5).abs() < 1e-12);
    }
}
