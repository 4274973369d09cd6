#![warn(missing_docs)]
//! # rfid-core
//!
//! The paper's contribution: one-shot reader-activation schedulers and the
//! greedy minimum-covering-schedule driver built on them.
//!
//! ## One-shot schedulers (Maximum Weighted Feasible Scheduling set)
//!
//! | Module | Paper | Assumptions |
//! |---|---|---|
//! | [`ptas`] | Algorithm 1 | central entity, locations known, arbitrary radii |
//! | [`local_greedy`] | Algorithm 2 | central entity, **no** locations (interference graph only) |
//! | [`distributed`] | Algorithm 3 | **no** central entity, no locations |
//! | [`colorwave`] | CA baseline \[21\] | distributed colouring |
//! | [`hill_climbing`] | GHC baseline | centralized greedy |
//! | [`exact`] | — | exponential ground truth for tests/ablations |
//!
//! All implement [`OneShotScheduler`]; every returned set is a *feasible
//! scheduling set* (pairwise independent readers — no RTc), and its quality
//! is the Definition-3 weight `w(X)`: unread tags covered by exactly one
//! activated reader.
//!
//! ## Covering schedules (MCS)
//!
//! [`mcs::covering_schedule_with`] iterates a one-shot scheduler slot by
//! slot, marking well-covered tags as served, until every coverable tag
//! has been read — the paper's `log n`-approximation backbone (Theorem 1).
//! [`McsOptions`] selects the [`mcs::FaultPolicy`], the slot budget and
//! the observation sinks (DESIGN.md §8); it is the only covering-schedule
//! entry point — the pre-0.1 `greedy`/`try_greedy`/
//! `resilient_covering_schedule` shims were removed.
//!
//! ## Observability
//!
//! Every scheduler and the MCS drivers emit spans/counters/histograms
//! through the [`rfid_obs`] facade when a subscriber is attached (via
//! [`OneShotInput::subscriber`] or [`McsOptions::subscriber`]).
//! Subscribers observe only: schedules are bit-identical with metrics on
//! or off.

pub mod arena;
pub mod colorwave;
pub mod distributed;
pub mod exact;
pub mod hill_climbing;
pub mod local_greedy;
pub mod local_search;
pub mod mcs;
pub mod ptas;
pub mod registry;
pub mod scheduler;
pub mod verify;

pub use arena::{AliveSet, BallScratch, SlotArena};
pub use colorwave::Colorwave;
pub use distributed::{DistributedScheduler, RunSummary, TraceEvent};
pub use exact::ExactScheduler;
pub use hill_climbing::HillClimbing;
pub use local_greedy::LocalGreedy;
pub use local_search::{improve_schedule, ImprovementReport};
pub use mcs::{
    covering_schedule_with, CoveringSchedule, FaultPolicy, McsOptions, McsRun, ScheduleError,
    SlotRecord,
};
pub use ptas::PtasScheduler;
pub use registry::{SchedulerEntry, SchedulerRegistry};
pub use scheduler::{make_scheduler, AlgorithmKind, OneShotInput, OneShotScheduler};
pub use verify::{verify_covering_schedule, ScheduleViolation};
