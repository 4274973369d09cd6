#![warn(missing_docs)]
//! # rfid-sim
//!
//! System-level simulation and experiment harness.
//!
//! * [`slot_sim`] — runs complete covering schedules with a full
//!   per-slot collision audit (no RTc ever, the served set equals the
//!   Definition-1 well-covered set) and, optionally, a link-layer inventory
//!   simulation per active reader that validates the paper's "a slot is
//!   long enough to read ≥ 1 tag" assumption with real ALOHA / tree-walking
//!   micro-slot counts.
//! * [`metrics`] — per-trial records and mean/σ aggregation for the figure
//!   series.
//! * [`sweep`] — the experiment driver behind every figure: a grid of
//!   (λ value × algorithm × seed) trials split across scoped threads,
//!   fully deterministic per seed regardless of thread count.
//! * [`table`] — Markdown / CSV / JSON emitters used by the `fig*`
//!   binaries so EXPERIMENTS.md can quote results verbatim.

pub mod dynamic;
pub mod metrics;
pub mod mobility;
pub mod placement;
pub mod render;
pub mod slot_sim;
pub mod sweep;
pub mod table;
pub mod timetable;

pub use dynamic::{dynamic_delta_stream, run_dynamic, DynamicConfig, DynamicReport};
pub use metrics::{aggregate_series, SeriesPoint, TrialRecord};
pub use mobility::{MobilityModel, MobilityReport, MobilitySim};
pub use placement::{coverage_fraction, greedy_placement};
pub use render::{render_svg, RenderOptions};
pub use slot_sim::{LinkLayer, SimReport, SlotSimulator};
pub use sweep::{run_sweep, SweepAxis, SweepConfig};
pub use timetable::Timetable;
