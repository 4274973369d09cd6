#![warn(missing_docs)]
//! # rfid-geometry
//!
//! Two-dimensional geometry substrate for the multi-reader RFID scheduling
//! library.
//!
//! The crate provides the planar primitives the paper's model is phrased in
//! (points, disks, axis-aligned rectangles), deterministic random sampling of
//! deployments, a uniform-grid spatial index used to build interference
//! graphs and coverage tables in near-linear time, and the
//! *hierarchical shifted grid* subdivision that Algorithm 1's PTAS dynamic
//! program runs on.
//!
//! Everything here is dependency-light and purely computational; no RFID
//! semantics leak into this crate.
//!
//! ## Conventions
//!
//! * All coordinates are `f64` in an arbitrary planar unit (the paper uses a
//!   `100 × 100` square region).
//! * "Independence" and "coverage" predicates in the upper crates are defined
//!   with *strict* inequalities (`‖v_i − v_j‖ > max(R_i, R_j)`), so the
//!   comparison helpers here expose both strict and inclusive forms.

pub mod disk;
pub mod grid;
pub mod point;
pub mod rect;
pub mod sampling;
pub mod shifted_grid;
pub mod vec2;

pub use disk::Disk;
pub use grid::GridIndex;
pub use point::Point;
pub use rect::Rect;
pub use shifted_grid::{HierarchicalGrid, LevelAssignment, Shifting, SquareId};
pub use vec2::Vec2;

/// Tolerance used by approximate floating-point comparisons in tests and
/// degenerate-case handling. Geometry predicates themselves are exact `f64`
/// comparisons; this epsilon is only for *constructive* routines (e.g. grid
/// cell snapping) where accumulated rounding could flip a classification.
pub const EPS: f64 = 1e-9;

/// Returns `true` if `a` and `b` differ by at most [`EPS`] in absolute value.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0));
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
    }
}
