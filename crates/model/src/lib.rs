#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # rfid-model
//!
//! Domain model of a multi-reader RFID system, following Sections II–III of
//! the paper.
//!
//! A [`Deployment`] holds `n` readers (position, interference radius `R_i`,
//! interrogation radius `r_i ≤ R_i`) and `m` passive tags (positions) in a
//! planar region. On top of it the crate derives:
//!
//! * the **interference graph** (`interference` module) — edge iff one
//!   reader lies inside the other's interference disk, i.e. the pair is
//!   *not* independent (`‖v_i − v_j‖ > max(R_i, R_j)` fails);
//! * the **coverage tables** (`coverage`) — which readers can interrogate
//!   which tags;
//! * the **weight function** `w(X)` (`weight`) — the number of unread tags
//!   covered by *exactly one* reader of an activation `X`: one
//!   singleton-weight function, one batch evaluator and one incremental
//!   engine;
//! * the **collision audit** (`collisions`) — classifies RTc/RRc/TTc events
//!   of an arbitrary (possibly infeasible) activation, used to verify that
//!   schedulers never violate the model;
//! * **scenario generators** (`scenario`) — the paper's evaluation setup
//!   (50 readers, 1200 tags, 100×100 region, Poisson radii) plus clustered
//!   and lattice variants used by the examples.

pub mod analysis;
pub mod bits;
pub mod collisions;
pub mod coverage;
pub mod deployment;
pub mod interference;
pub mod radii;
pub mod reader;
pub mod scenario;
pub mod survey;
pub mod tag;
pub mod weight;

pub use analysis::{deployment_stats, DeploymentStats};
pub use bits::{CoverageRows, PlaneScratch};
pub use collisions::{audit_activation, ActivationAudit};
pub use coverage::Coverage;
pub use deployment::Deployment;
pub use radii::RadiusModel;
pub use reader::{Reader, ReaderId};
pub use scenario::{Scenario, ScenarioKind};
pub use survey::{survey_impact, surveyed_interference_graph, SurveyError, SurveyImpact};
pub use tag::{TagId, TagSet};
pub use weight::{
    all_singleton_weights, singleton_weight, IncrementalCore, SingletonWeights, WeightEvaluator,
};
