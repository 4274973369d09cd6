//! Reader identity and per-reader view.

use rfid_geometry::Point;
use serde::{Deserialize, Serialize};

/// Index of a reader within its [`Deployment`](crate::Deployment)
/// (`v_1 … v_n` in the paper, zero-based here).
pub type ReaderId = usize;

/// A by-value view of one reader. The deployment stores readers
/// structure-of-arrays; this struct materialises a row for ergonomic access.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reader {
    /// Index of this reader in its deployment.
    pub id: ReaderId,
    /// Position in the plane.
    pub pos: Point,
    /// Interference radius `R_i`: other readers within this distance are
    /// jammed when this reader transmits (RTc).
    pub interference_radius: f64,
    /// Interrogation radius `γ_i ≤ R_i`: tags within this distance can be
    /// read.
    pub interrogation_radius: f64,
}

impl Reader {
    /// `true` iff the tag position is inside this reader's interrogation
    /// region (closed disk).
    pub fn covers(&self, tag: Point) -> bool {
        self.pos.within(tag, self.interrogation_radius)
    }

    /// Definition 2: two readers are *independent* iff neither sits in the
    /// other's interference disk, i.e. `‖v_i − v_j‖ > max(R_i, R_j)`.
    pub fn independent(&self, other: &Reader) -> bool {
        let r = self.interference_radius.max(other.interference_radius);
        self.pos.dist_sq(other.pos) > r * r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(id: ReaderId, x: f64, r_interf: f64, r_interro: f64) -> Reader {
        Reader {
            id,
            pos: Point::new(x, 0.0),
            interference_radius: r_interf,
            interrogation_radius: r_interro,
        }
    }

    #[test]
    fn coverage_is_closed_disk() {
        let r = reader(0, 0.0, 10.0, 5.0);
        assert!(r.covers(Point::new(5.0, 0.0)));
        assert!(!r.covers(Point::new(5.0 + 1e-9, 0.0)));
    }

    #[test]
    fn independence_uses_max_radius() {
        // Asymmetric radii: B has the big interference disk.
        let a = reader(0, 0.0, 2.0, 1.0);
        let b = reader(1, 5.0, 6.0, 3.0);
        // dist 5 ≤ max(2,6) = 6 → not independent (A sits in B's disk).
        assert!(!a.independent(&b));
        assert!(!b.independent(&a));
        let c = reader(2, 7.0, 2.0, 1.0);
        // dist(a,c) = 7 > max(2,2) → independent.
        assert!(a.independent(&c));
        // dist(b,c) = 2 ≤ 6 → not independent.
        assert!(!b.independent(&c));
    }

    #[test]
    fn boundary_distance_is_not_independent() {
        // Strict inequality: dist == max(R) means still interfering.
        let a = reader(0, 0.0, 4.0, 2.0);
        let b = reader(1, 4.0, 3.0, 2.0);
        assert!(!a.independent(&b));
        let c = reader(2, 4.0 + 1e-9, 3.0, 2.0);
        assert!(a.independent(&c));
    }
}
