//! Uniform-grid spatial index over a borrowed point set.
//!
//! Interference-graph construction and tag-coverage tables need many
//! "all points within distance `d` of `p`" queries. For the paper's
//! deployments (uniform points, bounded radii) a uniform bucket grid gives
//! expected O(1 + output) per query, which keeps deployment preprocessing
//! linear — important when the benchmark harness sweeps hundreds of seeded
//! instances.
//!
//! The build bins each point exactly once. One pass maps every point to
//! its cell by multiplying by the reciprocal of the cell side, and a
//! counting sort scatters point ids (not copies of the points) into
//! row-major buckets, so a query box covers one contiguous id range per
//! grid row. Queries map their box corners through the same cell map,
//! which is monotone in each coordinate: every point inside the box lies
//! in the box's cell range, and the cell side never changes a result.

use crate::point::Point;

/// A bucket-grid index over a borrowed slice of points.
///
/// Indices returned by queries refer to positions in the slice passed to
/// [`GridIndex::build`]. The grid never holds more buckets than points
/// (one for an empty slice).
///
/// ```
/// use rfid_geometry::{GridIndex, Point};
/// let points = vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0), Point::new(9.0, 9.0)];
/// let index = GridIndex::build(&points, 5.0);
/// assert_eq!(index.query_within(Point::new(0.0, 0.0), 5.0), vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex<'a> {
    points: &'a [Point],
    min_x: f64,
    min_y: f64,
    /// Reciprocal of the cell side in use.
    inv_cell: f64,
    nx: usize,
    ny: usize,
    /// Row-major CSR buckets: `starts[c]..starts[c + 1]` indexes `items`.
    starts: Vec<u32>,
    items: Vec<u32>,
}

impl<'a> GridIndex<'a> {
    /// Builds an index with buckets of side `cell_size`, coarsened
    /// (doubled until it fits) wherever that many buckets would outnumber
    /// the points, so memory stays `O(points)` whatever the spread.
    ///
    /// `cell_size` should be on the order of the typical query radius; any
    /// value `≥ 0`, including `0` and `∞`, is correct (only performance
    /// changes). Empty point sets are supported.
    ///
    /// # Panics
    /// On a negative or NaN `cell_size`, a non-finite point, or more than
    /// `u32::MAX` points.
    pub fn build(points: &'a [Point], cell_size: f64) -> Self {
        assert!(
            cell_size >= 0.0,
            "cell_size must be non-negative, got {cell_size}"
        );
        let n = u32::try_from(points.len()).expect("GridIndex holds at most u32::MAX points");
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for p in points {
            assert!(p.is_finite(), "non-finite point in GridIndex::build");
            // Plain comparisons: the points are finite, so `f64::min`'s
            // NaN handling would only lengthen the dependency chain.
            if p.x < min_x {
                min_x = p.x;
            }
            if p.y < min_y {
                min_y = p.y;
            }
            if p.x > max_x {
                max_x = p.x;
            }
            if p.y > max_y {
                max_y = p.y;
            }
        }
        if points.is_empty() {
            (min_x, min_y, max_x, max_y) = (0.0, 0.0, 0.0, 0.0);
        }
        // `1 / cell_size` overflows for a zero or subnormal cell; capping
        // it keeps the halving below finite. Each halving doubles the cell
        // side; once the spread fits in one cell the grid is 1 × 1.
        let mut inv_cell = (1.0 / cell_size).min(f64::MAX);
        let cells_across = |spread: f64, inv: f64| ((spread * inv) as usize).saturating_add(1);
        let (nx, ny) = loop {
            let nx = cells_across(max_x - min_x, inv_cell);
            let ny = cells_across(max_y - min_y, inv_cell);
            if nx.checked_mul(ny).is_some_and(|c| c <= (n as usize).max(1)) {
                break (nx, ny);
            }
            inv_cell *= 0.5;
        };

        // Counting sort: one cell computation per point, then ids only.
        let mut starts = vec![0u32; nx * ny + 1];
        let mut cells = Vec::with_capacity(points.len());
        for p in points {
            let c = bin(p.y, min_y, inv_cell, ny) * nx + bin(p.x, min_x, inv_cell, nx);
            starts[c + 1] += 1;
            cells.push(c as u32);
        }
        for c in 0..nx * ny {
            starts[c + 1] += starts[c];
        }
        // Scatter by bumping each bucket's start; afterwards `starts[c]`
        // is bucket `c`'s end, which one shift turns back into its start.
        let mut items = vec![0u32; points.len()];
        for (i, &c) in cells.iter().enumerate() {
            let slot = &mut starts[c as usize];
            items[*slot as usize] = i as u32;
            *slot += 1;
        }
        starts.copy_within(0..nx * ny, 1);
        starts[0] = 0;
        GridIndex {
            points,
            min_x,
            min_y,
            inv_cell,
            nx,
            ny,
            starts,
            items,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` iff no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Appends to `out` the index `i` of every indexed point
    /// `p = points[i]` with `center.dist_sq(p) ≤ radius²` (closed ball, the
    /// same test as [`Point::within`]). Order is unspecified but
    /// deterministic.
    pub fn extend_within(&self, center: Point, radius: f64, out: &mut Vec<u32>) {
        if self.points.is_empty() || radius < 0.0 {
            return;
        }
        let r_sq = radius * radius;
        // The test accepts fl(dx²) + fl(dy²) ≤ r_sq, so an accepted |dx|
        // can exceed √r_sq by a few roundings, and by more once dx²
        // underflows. Flooring r_sq at the smallest normal and padding
        // the root by 4 ulps bounds every accepted |c.x − p.x| exactly;
        // rounding c.x ∓ reach is monotone, so the box still holds p.x.
        let reach = r_sq.max(f64::MIN_POSITIVE).sqrt() * (1.0 + 4.0 * f64::EPSILON);
        let col = |x: f64| bin(x, self.min_x, self.inv_cell, self.nx);
        let row = |y: f64| bin(y, self.min_y, self.inv_cell, self.ny);
        let (cx0, cx1) = (col(center.x - reach), col(center.x + reach));
        let (cy0, cy1) = (row(center.y - reach), row(center.y + reach));
        for cy in cy0..=cy1 {
            let ids = &self.items[self.starts[cy * self.nx + cx0] as usize
                ..self.starts[cy * self.nx + cx1 + 1] as usize];
            // Write every candidate and advance past the accepted ones:
            // no branch on the test, so loads of far-apart points overlap.
            let mut len = out.len();
            out.resize(len + ids.len(), 0);
            for &i in ids {
                out[len] = i;
                len += usize::from(center.dist_sq(self.points[i as usize]) <= r_sq);
            }
            out.truncate(len);
        }
    }

    /// Indices of all points within the closed ball of `radius` around
    /// `center`, sorted ascending for determinism.
    pub fn query_within(&self, center: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.extend_within(center, radius, &mut out);
        out.sort_unstable();
        out.into_iter().map(|i| i as usize).collect()
    }
}

/// The cell map along one axis: the bin of `v` among `cells` bins of
/// width `1 / inv` starting at `min`. Monotone non-decreasing in `v`
/// (saturating to 0 left of the grid, clamped to the last bin right of
/// it), and the build and every query use it alike, so a query box's bin
/// range holds the bin of every point inside the box.
#[inline]
fn bin(v: f64, min: f64, inv: f64, cells: usize) -> usize {
    (((v - min) * inv) as usize).min(cells - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn brute_force(points: &[Point], c: Point, r: f64) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| c.dist_sq(**p) <= r * r)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn empty_index_answers_nothing() {
        let g = GridIndex::build(&[], 1.0);
        assert!(g.is_empty());
        assert_eq!(
            g.query_within(Point::new(0.0, 0.0), 100.0),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn single_point() {
        let points = [Point::new(3.0, 3.0)];
        let g = GridIndex::build(&points, 1.0);
        assert_eq!(g.query_within(Point::new(0.0, 0.0), 5.0), vec![0]);
        assert_eq!(
            g.query_within(Point::new(0.0, 0.0), 4.0),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn boundary_is_inclusive() {
        let points = [Point::new(2.0, 0.0)];
        let g = GridIndex::build(&points, 1.0);
        assert_eq!(g.query_within(Point::ORIGIN, 2.0), vec![0]);
    }

    #[test]
    fn matches_brute_force_on_random_points() {
        let mut rng = StdRng::seed_from_u64(42);
        let points: Vec<Point> = (0..500)
            .map(|_| Point::new(rng.random::<f64>() * 100.0, rng.random::<f64>() * 100.0))
            .collect();
        for cell in [0.5, 3.0, 17.0] {
            let g = GridIndex::build(&points, cell);
            for _ in 0..50 {
                let c = Point::new(
                    rng.random::<f64>() * 120.0 - 10.0,
                    rng.random::<f64>() * 120.0 - 10.0,
                );
                let r = rng.random::<f64>() * 25.0;
                let mut expect = brute_force(&points, c, r);
                expect.sort_unstable();
                assert_eq!(g.query_within(c, r), expect, "cell={cell} c={c} r={r}");
            }
        }
    }

    #[test]
    fn coincident_points_all_reported() {
        let p = Point::new(1.0, 1.0);
        let points = [p, p, p];
        let g = GridIndex::build(&points, 2.0);
        assert_eq!(g.query_within(p, 0.0), vec![0, 1, 2]);
    }

    #[test]
    fn negative_radius_is_empty() {
        let points = [Point::ORIGIN];
        let g = GridIndex::build(&points, 1.0);
        assert!(g.query_within(Point::ORIGIN, -1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "cell_size")]
    fn negative_cell_size_rejected() {
        let _ = GridIndex::build(&[Point::ORIGIN], -1.0);
    }

    #[test]
    fn buckets_never_outnumber_points() {
        // A cell of 1e-9 over a 1e6 spread would ask for 1e30 buckets.
        let points = [
            Point::new(-5.0e5, 0.0),
            Point::new(5.0e5, 1.0e6),
            Point::new(0.0, 0.0),
        ];
        for cell in [0.0, f64::MIN_POSITIVE, 1e-9, 1.0, f64::INFINITY] {
            let g = GridIndex::build(&points, cell);
            assert!(g.starts.len() - 1 <= points.len(), "cell {cell}");
            assert_eq!(g.query_within(points[2], 0.0), vec![2], "cell {cell}");
            assert_eq!(
                g.query_within(points[0], 1.5e6),
                vec![0, 1, 2],
                "cell {cell}"
            );
        }
    }

    #[test]
    fn box_holds_every_point_the_test_accepts() {
        // c.x − p.x rounds (a tie to even) to exactly −r, so the test
        // accepts p, while c.x + r also rounds down, to 1.0, one cell short
        // of p.x at this cell side.
        let points = [Point::new(1.0, 0.0), Point::new(1.0 + f64::EPSILON, 0.0)];
        let g = GridIndex::build(&points, f64::EPSILON);
        let c = Point::new(f64::EPSILON / 2.0, 0.0);
        assert_eq!(brute_force(&points, c, 1.0), vec![0, 1]);
        assert_eq!(g.query_within(c, 1.0), vec![0, 1]);

        // r² underflows to 0, and so does dx² for every point here: all
        // are accepted although they lie far beyond √(r²) = 0.
        let points: Vec<Point> = (0..100)
            .map(|k| Point::new(k as f64 * 1e-170, 0.0))
            .collect();
        let g = GridIndex::build(&points, 1e-170);
        let all: Vec<usize> = (0..100).collect();
        assert_eq!(brute_force(&points, Point::ORIGIN, 1e-300), all);
        assert_eq!(g.query_within(Point::ORIGIN, 1e-300), all);
    }
}
