//! Scenario deltas and delta keys.
//!
//! Real multi-reader deployments evolve by small steps — tags arrive
//! and depart, readers move, fail, recover, get retuned — yet a
//! content-addressed cache only helps when a scenario repeats *exactly*.
//! This crate gives those steps a name and a key:
//!
//! * [`ops`] — the [`ScenarioDelta`] op vocabulary and [`apply_ops`],
//!   which folds an op list over a base [`rfid_model::Deployment`] into
//!   a [`PatchedScenario`].
//! * [`codec`] — canonical JSON and the FNV-1a content hash (moved here
//!   from the serve codec), plus [`derived_key`]: the content key of
//!   "base scenario `k`, edited by `ops`", chainable delta over delta.
//!
//! The serve layer speaks the same vocabulary on the wire (protocol v3
//! `Delta` frames) and answers a delta with `apply_ops` followed by an
//! ordinary cold solve of the patched scenario, so a delta reply is
//! byte-identical to a full request for that scenario. `rfid-sim`'s
//! dynamic/mobility generators emit their epoch transitions as
//! `ScenarioDelta` streams.

#![warn(missing_docs)]

pub mod codec;
pub mod ops;

pub use codec::{canonical_json, derived_key, fnv1a64, key_hex, parse_key_hex};
pub use ops::{apply_ops, DeltaError, PatchedScenario, ScenarioDelta};
