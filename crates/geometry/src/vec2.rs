//! Planar vectors (displacements between [`Point`](crate::Point)s).

use serde::{Deserialize, Serialize};
use std::ops::{Add, Mul, Neg, Sub};

/// A displacement in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Vec2 {
    /// Zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean length.
    #[inline]
    pub fn len(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product). Positive iff
    /// `other` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(&self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Unit vector in the same direction; returns `None` for (near-)zero
    /// vectors where the direction is undefined.
    pub fn normalized(&self) -> Option<Vec2> {
        let l = self.len();
        if l <= crate::EPS {
            None
        } else {
            Some(Vec2::new(self.x / l, self.y / l))
        }
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x + o.x, self.y + o.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x - o.x, self.y - o.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_and_dot() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.dot(v), 25.0);
        assert_eq!(v.len(), 5.0);
        assert_eq!(v.dot(Vec2::new(1.0, 0.0)), 3.0);
    }

    #[test]
    fn cross_sign_encodes_orientation() {
        let east = Vec2::new(1.0, 0.0);
        let north = Vec2::new(0.0, 1.0);
        assert!(east.cross(north) > 0.0);
        assert!(north.cross(east) < 0.0);
        assert_eq!(east.cross(east), 0.0);
    }

    #[test]
    fn normalization() {
        let v = Vec2::new(0.0, 10.0);
        assert_eq!(v.normalized(), Some(Vec2::new(0.0, 1.0)));
        assert_eq!(Vec2::ZERO.normalized(), None);
    }

    #[test]
    fn arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
    }
}
