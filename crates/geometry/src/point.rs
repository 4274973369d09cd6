//! Planar points and exact distance predicates.

use crate::vec2::Vec2;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// A point in the two-dimensional deployment plane.
///
/// The paper denotes reader coordinates as `(x_i, y_i)`; tags are points as
/// well. `Point` is `Copy` and 16 bytes, so slices of points are cache-dense
/// — deployments are stored as structure-of-arrays in the upper crates and
/// only materialise `Point`s at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Preferred in all predicates: comparing `dist_sq` against `r²` avoids
    /// the `sqrt` and is exact for the strict/inclusive threshold tests the
    /// model needs (squaring is monotone on non-negative reals).
    #[inline]
    pub fn dist_sq(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance `‖self − other‖`.
    #[inline]
    pub fn dist(&self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// `true` iff `other` lies strictly within distance `r` of `self`.
    #[inline]
    pub fn within_strict(&self, other: Point, r: f64) -> bool {
        self.dist_sq(other) < r * r
    }

    /// `true` iff `other` lies within distance `r` of `self`, boundary
    /// included.
    #[inline]
    pub fn within(&self, other: Point, r: f64) -> bool {
        self.dist_sq(other) <= r * r
    }

    /// `true` iff both coordinates are finite (not NaN/∞).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl Add<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn add(self, v: Vec2) -> Point {
        Point::new(self.x + v.x, self.y + v.y)
    }
}

impl Sub<Point> for Point {
    type Output = Vec2;
    #[inline]
    fn sub(self, other: Point) -> Vec2 {
        Vec2::new(self.x - other.x, self.y - other.y)
    }
}

impl Sub<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, v: Vec2) -> Point {
        Point::new(self.x - v.x, self.y - v.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist_sq(b), 25.0);
        assert_eq!(a.dist(b), 5.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(-1.5, 2.25);
        let b = Point::new(4.0, -7.0);
        assert_eq!(a.dist_sq(b), b.dist_sq(a));
    }

    #[test]
    fn strict_vs_inclusive_threshold() {
        let a = Point::ORIGIN;
        let b = Point::new(5.0, 0.0);
        assert!(a.within(b, 5.0));
        assert!(!a.within_strict(b, 5.0));
        assert!(a.within_strict(b, 5.0 + 1e-9));
    }

    #[test]
    fn point_vector_algebra() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        let v = b - a;
        assert_eq!(v, Vec2::new(3.0, 4.0));
        assert_eq!(a + v, b);
        assert_eq!(b - v, a);
    }

    #[test]
    fn non_finite_detection() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn from_tuple() {
        let p: Point = (2.0, 3.0).into();
        assert_eq!(p, Point::new(2.0, 3.0));
    }
}
