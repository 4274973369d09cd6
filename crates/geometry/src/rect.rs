//! Axis-aligned rectangles — deployment regions and grid squares.

use crate::point::Point;
use serde::{Deserialize, Serialize};

/// A closed axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Left edge.
    pub min_x: f64,
    /// Bottom edge.
    pub min_y: f64,
    /// Right edge.
    pub max_x: f64,
    /// Top edge.
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its extremes. Debug-asserts a non-degenerate
    /// ordering (`min ≤ max` on both axes).
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x && min_y <= max_y, "inverted rect");
        Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// The square `[0, side] × [0, side]` — the paper's deployment region
    /// with `side = 100`.
    pub fn square(side: f64) -> Self {
        Rect::new(0.0, 0.0, side, side)
    }

    /// Rectangle spanning two corner points (any orientation).
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect::new(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))
    }

    /// Horizontal extent.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Vertical extent.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area `width × height`.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) * 0.5,
            (self.min_y + self.max_y) * 0.5,
        )
    }

    /// Closed containment of a point.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// `true` iff the closed rectangles overlap (sharing a boundary counts).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// `true` iff `other` lies entirely inside `self` (closed).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.min_x >= self.min_x
            && other.max_x <= self.max_x
            && other.min_y >= self.min_y
            && other.max_y <= self.max_y
    }

    /// Squared distance from `p` to the closest point of the rectangle
    /// (zero when `p` is inside). Used for disk–rect intersection tests.
    pub fn dist_sq_to_point(&self, p: Point) -> f64 {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        dx * dx + dy * dy
    }

    /// `true` iff a closed disk of `radius` around `center` intersects the
    /// rectangle.
    pub fn intersects_disk(&self, center: Point, radius: f64) -> bool {
        self.dist_sq_to_point(center) <= radius * radius
    }

    /// Grows the rectangle by `margin` on every side.
    pub fn inflate(&self, margin: f64) -> Rect {
        Rect::new(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )
    }

    /// Splits into four equal quadrants `[SW, SE, NW, NE]`.
    pub fn quadrants(&self) -> [Rect; 4] {
        let c = self.center();
        [
            Rect::new(self.min_x, self.min_y, c.x, c.y),
            Rect::new(c.x, self.min_y, self.max_x, c.y),
            Rect::new(self.min_x, c.y, c.x, self.max_y),
            Rect::new(c.x, c.y, self.max_x, self.max_y),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_metrics() {
        let r = Rect::new(1.0, 2.0, 4.0, 8.0);
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 6.0);
        assert_eq!(r.area(), 18.0);
        assert_eq!(r.center(), Point::new(2.5, 5.0));
    }

    #[test]
    fn containment_includes_boundary() {
        let r = Rect::square(10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.0 + 1e-9, 5.0)));
    }

    #[test]
    fn rect_rect_intersection() {
        let a = Rect::new(0.0, 0.0, 5.0, 5.0);
        let b = Rect::new(5.0, 5.0, 9.0, 9.0); // corner touch
        assert!(a.intersects(&b));
        let c = Rect::new(5.1, 5.1, 9.0, 9.0);
        assert!(!a.intersects(&c));
        assert!(a.contains_rect(&Rect::new(1.0, 1.0, 4.0, 4.0)));
        assert!(!a.contains_rect(&b));
    }

    #[test]
    fn point_distance() {
        let r = Rect::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(r.dist_sq_to_point(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(r.dist_sq_to_point(Point::new(5.0, 2.0)), 9.0);
        assert_eq!(r.dist_sq_to_point(Point::new(5.0, 6.0)), 25.0);
    }

    #[test]
    fn disk_intersection() {
        let r = Rect::new(0.0, 0.0, 2.0, 2.0);
        assert!(r.intersects_disk(Point::new(3.0, 1.0), 1.0)); // touches edge
        assert!(!r.intersects_disk(Point::new(3.0, 1.0), 0.5));
        assert!(r.intersects_disk(Point::new(1.0, 1.0), 0.1)); // inside
    }

    #[test]
    fn quadrants_tile_the_rect() {
        let r = Rect::new(0.0, 0.0, 4.0, 4.0);
        let qs = r.quadrants();
        let total: f64 = qs.iter().map(|q| q.area()).sum();
        assert_eq!(total, r.area());
        for q in &qs {
            assert!(r.contains_rect(q));
        }
    }

    #[test]
    fn from_corners_any_orientation() {
        let r = Rect::from_corners(Point::new(4.0, 1.0), Point::new(1.0, 5.0));
        assert_eq!(r, Rect::new(1.0, 1.0, 4.0, 5.0));
    }

    #[test]
    fn inflate_grows_all_sides() {
        let r = Rect::square(2.0).inflate(1.0);
        assert_eq!(r, Rect::new(-1.0, -1.0, 3.0, 3.0));
    }
}
