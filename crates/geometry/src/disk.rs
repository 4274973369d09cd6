//! Disks — interference and interrogation regions.
//!
//! The paper associates every reader `v_i` with an interference disk
//! `O(v_i)` of radius `R_i` and an interrogation disk of radius `γ_i ≤ R_i`.
//! This module provides the containment / intersection / line-hit predicates
//! those definitions rest on, including the exact "hit" predicate used by the
//! PTAS survive-disk test (Section IV).

use crate::point::Point;
use crate::rect::Rect;
use serde::{Deserialize, Serialize};

/// A closed disk `{p : ‖p − center‖ ≤ radius}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Disk {
    /// Centre of the disk.
    pub center: Point,
    /// Radius (non-negative).
    pub radius: f64,
}

impl Disk {
    /// Creates a disk. `radius` must be non-negative and finite; this is
    /// enforced with a debug assertion (upper layers validate user input).
    #[inline]
    pub fn new(center: Point, radius: f64) -> Self {
        debug_assert!(
            radius >= 0.0 && radius.is_finite(),
            "invalid radius {radius}"
        );
        Disk { center, radius }
    }

    /// `true` iff `p` lies inside the closed disk.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.center.within(p, self.radius)
    }

    /// `true` iff the two closed disks share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Disk) -> bool {
        let r = self.radius + other.radius;
        self.center.dist_sq(other.center) <= r * r
    }

    /// `true` iff `other` is entirely inside `self` (closed containment).
    pub fn contains_disk(&self, other: &Disk) -> bool {
        if other.radius > self.radius {
            return false;
        }
        let slack = self.radius - other.radius;
        self.center.dist_sq(other.center) <= slack * slack
    }

    /// Paper Section IV: a disk `O(v_i)` *hits* the vertical line `x = a`
    /// iff `a − R_i < x_i ≤ a + R_i`. Note the half-open interval — this
    /// makes "hits" a partition-friendly predicate when lines are iterated
    /// left-to-right (a disk centred exactly `R_i` left of the line does not
    /// hit it, one centred exactly `R_i` right of it does).
    #[inline]
    pub fn hits_vertical(&self, a: f64) -> bool {
        a - self.radius < self.center.x && self.center.x <= a + self.radius
    }

    /// Horizontal counterpart of [`hits_vertical`](Self::hits_vertical):
    /// `b − R_i < y_i ≤ b + R_i`.
    #[inline]
    pub fn hits_horizontal(&self, b: f64) -> bool {
        b - self.radius < self.center.y && self.center.y <= b + self.radius
    }

    /// Tight axis-aligned bounding box.
    pub fn bounding_box(&self) -> Rect {
        Rect::new(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )
    }

    /// Area `πR²`.
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// Area of the intersection of two disks (standard lens formula).
    ///
    /// Used by density heuristics and by tests that check RRc-overlap
    /// reasoning; returns `0.0` for disjoint disks and the smaller disk's
    /// area under containment.
    pub fn intersection_area(&self, other: &Disk) -> f64 {
        let d = self.center.dist(other.center);
        let (r1, r2) = (self.radius, other.radius);
        if d >= r1 + r2 {
            return 0.0;
        }
        if d <= (r1 - r2).abs() {
            let r = r1.min(r2);
            return std::f64::consts::PI * r * r;
        }
        let alpha = ((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1)).clamp(-1.0, 1.0);
        let beta = ((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2)).clamp(-1.0, 1.0);
        let a1 = r1 * r1 * alpha.acos();
        let a2 = r2 * r2 * beta.acos();
        let tri = 0.5
            * ((-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
                .max(0.0)
                .sqrt();
        a1 + a2 - tri
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn disk(x: f64, y: f64, r: f64) -> Disk {
        Disk::new(Point::new(x, y), r)
    }

    #[test]
    fn containment_is_closed() {
        let d = disk(0.0, 0.0, 2.0);
        assert!(d.contains(Point::new(2.0, 0.0)));
        assert!(!d.center.within_strict(Point::new(2.0, 0.0), d.radius));
        assert!(!d.contains(Point::new(2.0 + 1e-9, 0.0)));
    }

    #[test]
    fn intersection_touching_counts() {
        let a = disk(0.0, 0.0, 1.0);
        let b = disk(2.0, 0.0, 1.0);
        assert!(a.intersects(&b));
        let c = disk(2.0 + 1e-9, 0.0, 1.0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn disk_in_disk() {
        let big = disk(0.0, 0.0, 5.0);
        let small = disk(1.0, 1.0, 1.0);
        assert!(big.contains_disk(&small));
        assert!(!small.contains_disk(&big));
        let edge = disk(4.0, 0.0, 1.0);
        assert!(big.contains_disk(&edge)); // touches boundary from inside
        let out = disk(4.0 + 1e-9, 0.0, 1.0);
        assert!(!big.contains_disk(&out));
    }

    #[test]
    fn hit_predicate_is_half_open() {
        // Definition: O(v) hits x = a iff a − R < x_i ≤ a + R.
        let d = disk(0.0, 0.0, 1.0);
        // a = 1 ⇒ a − R = 0, and 0 < x_i = 0 fails: right tangent line not hit.
        assert!(!d.hits_vertical(1.0));
        // a = −1 ⇒ x_i = a + R boundary is included: left tangent line hit.
        assert!(d.hits_vertical(-1.0));
        assert!(d.hits_vertical(0.0));
    }

    #[test]
    fn hit_predicate_matches_definition() {
        let d = disk(5.0, 0.0, 2.0);
        // hits lines a with a−2 < 5 ≤ a+2, i.e. 3 ≤ a < 7
        assert!(d.hits_vertical(3.0));
        assert!(d.hits_vertical(6.999));
        assert!(!d.hits_vertical(7.0));
        assert!(!d.hits_vertical(2.999));
        let e = disk(0.0, 5.0, 2.0);
        assert!(e.hits_horizontal(3.0));
        assert!(!e.hits_horizontal(7.0));
    }

    #[test]
    fn intersection_area_limits() {
        let a = disk(0.0, 0.0, 1.0);
        assert!(approx_eq(a.intersection_area(&disk(3.0, 0.0, 1.0)), 0.0));
        // full containment → area of small disk
        let small = disk(0.1, 0.0, 0.2);
        assert!(approx_eq(
            a.intersection_area(&small),
            std::f64::consts::PI * 0.04
        ));
        // coincident equal disks → own area
        assert!(approx_eq(a.intersection_area(&a), a.area()));
        // symmetric
        let b = disk(1.0, 0.5, 0.8);
        assert!(approx_eq(a.intersection_area(&b), b.intersection_area(&a)));
    }

    #[test]
    fn bounding_box_is_tight() {
        let d = disk(3.0, -1.0, 2.0);
        let bb = d.bounding_box();
        assert_eq!(bb, Rect::new(1.0, -3.0, 5.0, 1.0));
    }
}
