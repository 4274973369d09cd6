//! The scenario-delta op model: small edits to an existing deployment.
//!
//! A [`ScenarioDelta`] describes one evolution step of a deployment the
//! way the workloads the paper targets actually change: tags arrive and
//! depart, readers move, fail, recover or get retuned. Ops apply
//! *sequentially* — each op's indices refer to the deployment as edited
//! by the ops before it — and [`apply_ops`] folds a whole op list into a
//! [`PatchedScenario`] holding the edited deployment.

use rfid_geometry::Point;
use rfid_model::Deployment;
use serde::{Deserialize, Serialize};

/// One edit to a deployment. Tag and reader indices refer to the
/// deployment *as edited by the preceding ops of the same list*; for the
/// first op that is the base deployment in its canonical order (explicit
/// workloads sort tags by position — see the serve codec — and generated
/// workloads use generation order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioDelta {
    /// A tag arrives at `(x, y)`; it is appended after the existing tags.
    AddTag {
        /// Tag x position.
        x: f64,
        /// Tag y position.
        y: f64,
    },
    /// Tag `tag` departs; later tags shift down by one.
    RemoveTag {
        /// Index of the departing tag.
        tag: u32,
    },
    /// Reader `reader` moves to `(x, y)` (radii unchanged).
    MoveReader {
        /// Index of the moving reader.
        reader: u32,
        /// New x position.
        x: f64,
        /// New y position.
        y: f64,
    },
    /// Marks a reader dead (`alive = false`: both radii become zero — it
    /// covers nothing and jams nobody) or revives it (`alive = true`:
    /// radii return to the base deployment's values, or to the last
    /// [`Retune`](ScenarioDelta::Retune) in this op list).
    SetReaderAlive {
        /// Index of the affected reader.
        reader: u32,
        /// `false` kills the reader, `true` revives it.
        alive: bool,
    },
    /// Reassigns reader `reader`'s interference radius `R` and
    /// interrogation radius `r` (the model requires `0 ≤ r ≤ R`). A
    /// retune of a currently dead reader takes effect on revival.
    Retune {
        /// Index of the retuned reader.
        reader: u32,
        /// New interference radius `R`.
        interference: f64,
        /// New interrogation radius `r`.
        interrogation: f64,
    },
}

/// Why an op list could not be applied.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// A tag index is out of range for the deployment at that point of
    /// the op list.
    TagOutOfRange {
        /// The offending index.
        tag: u32,
        /// Tag count when the op applied.
        len: usize,
    },
    /// A reader index is out of range (reader count never changes).
    ReaderOutOfRange {
        /// The offending index.
        reader: u32,
        /// Reader count.
        len: usize,
    },
    /// A position is non-finite.
    BadPosition {
        /// Offending x.
        x: f64,
        /// Offending y.
        y: f64,
    },
    /// Retuned radii violate `0 ≤ r ≤ R` (finite).
    BadRadii {
        /// The retuned reader.
        reader: u32,
        /// Offending interference radius.
        interference: f64,
        /// Offending interrogation radius.
        interrogation: f64,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::TagOutOfRange { tag, len } => {
                write!(
                    f,
                    "tag index {tag} out of range (deployment has {len} tags)"
                )
            }
            DeltaError::ReaderOutOfRange { reader, len } => {
                write!(
                    f,
                    "reader index {reader} out of range (deployment has {len} readers)"
                )
            }
            DeltaError::BadPosition { x, y } => {
                write!(f, "non-finite position ({x}, {y})")
            }
            DeltaError::BadRadii {
                reader,
                interference,
                interrogation,
            } => write!(
                f,
                "reader {reader} radii out of range: interference {interference}, \
                 interrogation {interrogation} (need finite 0 ≤ r ≤ R)"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// The result of applying an op list.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchedScenario {
    /// The edited deployment: surviving tags keep their relative order
    /// and added tags follow them in op order.
    pub deployment: Deployment,
}

/// Applies `ops` to `base` in order. Fails on the first invalid op; the
/// base deployment is never modified.
pub fn apply_ops(base: &Deployment, ops: &[ScenarioDelta]) -> Result<PatchedScenario, DeltaError> {
    let n = base.n_readers();
    let mut reader_pos = base.reader_positions().to_vec();
    // The radii a reader *wants* (base values, updated by `Retune`);
    // `alive = false` overrides both to zero until revival.
    let mut tuned: Vec<(f64, f64)> = base
        .interference_radii()
        .iter()
        .zip(base.interrogation_radii())
        .map(|(&big, &small)| (big, small))
        .collect();
    let mut alive = vec![true; n];
    let mut tag_pos = base.tag_positions().to_vec();
    // `RemoveTag` addresses the *live* sequence, whose indices shift as
    // earlier removals land. Rather than `Vec::remove` (an O(m)
    // memmove per op), keep every physical slot in place and tombstone:
    // `dead` holds removed physical indices, ascending, and live →
    // physical mapping walks it. Compaction happens once at the end.
    let mut dead: Vec<u32> = Vec::new();
    let mut live_len = base.n_tags();

    let check_reader = |reader: u32| -> Result<usize, DeltaError> {
        if (reader as usize) < n {
            Ok(reader as usize)
        } else {
            Err(DeltaError::ReaderOutOfRange { reader, len: n })
        }
    };
    for op in ops {
        match *op {
            ScenarioDelta::AddTag { x, y } => {
                if !(x.is_finite() && y.is_finite()) {
                    return Err(DeltaError::BadPosition { x, y });
                }
                tag_pos.push(Point::new(x, y));
                live_len += 1;
            }
            ScenarioDelta::RemoveTag { tag } => {
                if tag as usize >= live_len {
                    return Err(DeltaError::TagOutOfRange { tag, len: live_len });
                }
                // Live → physical: every tombstone at or below the
                // cursor pushes it one slot right.
                let mut p = tag;
                for &d0 in &dead {
                    if d0 <= p {
                        p += 1;
                    } else {
                        break;
                    }
                }
                let at = dead.partition_point(|&x| x < p);
                dead.insert(at, p);
                live_len -= 1;
            }
            ScenarioDelta::MoveReader { reader, x, y } => {
                let i = check_reader(reader)?;
                if !(x.is_finite() && y.is_finite()) {
                    return Err(DeltaError::BadPosition { x, y });
                }
                reader_pos[i] = Point::new(x, y);
            }
            ScenarioDelta::SetReaderAlive { reader, alive: up } => {
                let i = check_reader(reader)?;
                alive[i] = up;
            }
            ScenarioDelta::Retune {
                reader,
                interference,
                interrogation,
            } => {
                let i = check_reader(reader)?;
                let ok = interference.is_finite()
                    && interrogation.is_finite()
                    && interrogation >= 0.0
                    && interrogation <= interference;
                if !ok {
                    return Err(DeltaError::BadRadii {
                        reader,
                        interference,
                        interrogation,
                    });
                }
                tuned[i] = (interference, interrogation);
            }
        }
    }

    // Compact the tombstoned array in place: survivors keep their
    // relative order, appended tags trail, exactly as eager removal
    // would leave them.
    let mut next_dead = dead.iter().copied().peekable();
    let mut dst = 0usize;
    for p in 0..tag_pos.len() {
        if next_dead.peek() == Some(&(p as u32)) {
            next_dead.next();
            continue;
        }
        tag_pos[dst] = tag_pos[p];
        dst += 1;
    }
    tag_pos.truncate(dst);

    let interference_r: Vec<f64> = (0..n)
        .map(|i| if alive[i] { tuned[i].0 } else { 0.0 })
        .collect();
    let interrogation_r: Vec<f64> = (0..n)
        .map(|i| if alive[i] { tuned[i].1 } else { 0.0 })
        .collect();
    let deployment = Deployment::new(
        base.region(),
        reader_pos,
        interference_r,
        interrogation_r,
        tag_pos,
    );
    Ok(PatchedScenario { deployment })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geometry::Rect;

    fn base() -> Deployment {
        Deployment::new(
            Rect::square(30.0),
            vec![Point::new(5.0, 5.0), Point::new(20.0, 20.0)],
            vec![6.0, 8.0],
            vec![3.0, 4.0],
            vec![
                Point::new(4.0, 4.0),
                Point::new(6.0, 6.0),
                Point::new(21.0, 19.0),
            ],
        )
    }

    #[test]
    fn empty_ops_are_the_identity() {
        let d = base();
        let p = apply_ops(&d, &[]).unwrap();
        assert_eq!(p.deployment, d);
    }

    #[test]
    fn tag_ops_track_provenance_through_shifts() {
        let d = base();
        let p = apply_ops(
            &d,
            &[
                ScenarioDelta::RemoveTag { tag: 1 },
                ScenarioDelta::AddTag { x: 10.0, y: 10.0 },
                ScenarioDelta::RemoveTag { tag: 0 },
            ],
        )
        .unwrap();
        // Survivors: old tag 2, then the added tag.
        assert_eq!(p.deployment.n_tags(), 2);
        assert_eq!(p.deployment.tag(0), d.tag(2));
        assert_eq!(p.deployment.tag(1), Point::new(10.0, 10.0));
        assert_eq!(p.deployment.reader_positions(), d.reader_positions());

        // Survivors keep their relative order and added tags come last,
        // in op order, even when a removal lands after an add.
        let p = apply_ops(
            &d,
            &[
                ScenarioDelta::AddTag { x: 1.0, y: 1.0 },
                ScenarioDelta::AddTag { x: 2.0, y: 2.0 },
                ScenarioDelta::RemoveTag { tag: 3 },
                ScenarioDelta::RemoveTag { tag: 1 },
            ],
        )
        .unwrap();
        assert_eq!(
            p.deployment.tag_positions(),
            &[d.tag(0), d.tag(2), Point::new(2.0, 2.0)]
        );
    }

    #[test]
    fn kill_revive_and_retune_interact() {
        let d = base();
        // Kill 0, retune it while dead, revive it: the retune applies.
        let p = apply_ops(
            &d,
            &[
                ScenarioDelta::SetReaderAlive {
                    reader: 0,
                    alive: false,
                },
                ScenarioDelta::Retune {
                    reader: 0,
                    interference: 7.0,
                    interrogation: 2.0,
                },
                ScenarioDelta::SetReaderAlive {
                    reader: 0,
                    alive: true,
                },
            ],
        )
        .unwrap();
        assert_eq!(p.deployment.interference_radii()[0], 7.0);
        assert_eq!(p.deployment.interrogation_radii()[0], 2.0);
        assert_eq!(p.deployment.interference_radii()[1], 8.0);
        assert_eq!(p.deployment.interrogation_radii()[1], 4.0);

        // A kill that stays dead zeroes both radii.
        let p = apply_ops(
            &d,
            &[ScenarioDelta::SetReaderAlive {
                reader: 1,
                alive: false,
            }],
        )
        .unwrap();
        assert_eq!(p.deployment.interference_radii()[1], 0.0);
        assert_eq!(p.deployment.interrogation_radii()[1], 0.0);
        assert_eq!(p.deployment.reader_positions(), d.reader_positions());

        // Kill + revive with no retune is the identity (untouched).
        let p = apply_ops(
            &d,
            &[
                ScenarioDelta::SetReaderAlive {
                    reader: 1,
                    alive: false,
                },
                ScenarioDelta::SetReaderAlive {
                    reader: 1,
                    alive: true,
                },
            ],
        )
        .unwrap();
        assert_eq!(p.deployment, d);
    }

    #[test]
    fn invalid_ops_are_structured_errors() {
        let d = base();
        assert_eq!(
            apply_ops(&d, &[ScenarioDelta::RemoveTag { tag: 3 }]).unwrap_err(),
            DeltaError::TagOutOfRange { tag: 3, len: 3 }
        );
        assert_eq!(
            apply_ops(
                &d,
                &[ScenarioDelta::MoveReader {
                    reader: 2,
                    x: 0.0,
                    y: 0.0
                }]
            )
            .unwrap_err(),
            DeltaError::ReaderOutOfRange { reader: 2, len: 2 }
        );
        assert!(matches!(
            apply_ops(
                &d,
                &[ScenarioDelta::AddTag {
                    x: f64::NAN,
                    y: 0.0
                }]
            )
            .unwrap_err(),
            DeltaError::BadPosition { .. }
        ));
        assert!(matches!(
            apply_ops(
                &d,
                &[ScenarioDelta::Retune {
                    reader: 0,
                    interference: 2.0,
                    interrogation: 3.0
                }]
            )
            .unwrap_err(),
            DeltaError::BadRadii { .. }
        ));
    }

    #[test]
    fn ops_round_trip_through_serde() {
        let ops = vec![
            ScenarioDelta::AddTag { x: 1.5, y: 2.5 },
            ScenarioDelta::RemoveTag { tag: 0 },
            ScenarioDelta::MoveReader {
                reader: 1,
                x: 3.0,
                y: 4.0,
            },
            ScenarioDelta::SetReaderAlive {
                reader: 0,
                alive: false,
            },
            ScenarioDelta::Retune {
                reader: 1,
                interference: 9.0,
                interrogation: 3.0,
            },
        ];
        let text = serde_json::to_string(&ops).unwrap();
        let back: Vec<ScenarioDelta> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, ops);
    }
}
