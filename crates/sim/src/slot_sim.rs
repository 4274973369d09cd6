//! Audited slot-level system simulation.
//!
//! [`SlotSimulator`] drives a one-shot scheduler through a full covering
//! schedule, auditing every slot against the collision model
//! ([`rfid_model::audit_activation`]) and optionally running a real
//! link-layer inventory ([`rfid_protocols`]) for each active reader to
//! account micro-slot costs — grounding the paper's slot-sizing assumption
//! in actual arbitration behaviour.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_core::{covering_schedule_with, CoveringSchedule, McsOptions, OneShotScheduler};
use rfid_model::interference::interference_graph;
use rfid_model::{audit_activation, Coverage, Deployment, TagId, TagSet};
use rfid_protocols::{AntiCollisionProtocol, FramedAloha, TreeWalking};
use serde::{Deserialize, Serialize};

/// Which tag anti-collision protocol models the intra-slot arbitration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkLayer {
    /// Skip intra-slot simulation (the paper's abstraction).
    None,
    /// Framed-slotted ALOHA (adaptive).
    Aloha,
    /// Deterministic binary tree-walking.
    TreeWalking,
}

/// Outcome of an audited covering-schedule run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// The schedule itself (slots, served tags, fallbacks).
    pub schedule: CoveringSchedule,
    /// Total micro-slots consumed by the link layer across all slots and
    /// readers (0 when [`LinkLayer::None`]).
    pub total_microslots: u64,
    /// Worst per-(slot, reader) micro-slot count — how long the paper's
    /// "time slot" must really be for its assumption to hold.
    pub max_microslots_per_slot: u64,
    /// Every (slot, reader) inventory identified all its well-covered tags.
    pub link_layer_complete: bool,
    /// Served tags whose active coverer could not be identified during the
    /// link-layer replay; they are skipped (and counted here) instead of
    /// aborting the run. Always 0 for schedules from a sound scheduler.
    pub orphaned_tags: u64,
}

/// Outcome of a fault-tolerant simulation run: the audited report plus the
/// degradations the resilient covering-schedule loop absorbed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResilientSimReport {
    /// The audited report over the repaired schedule.
    pub report: SimReport,
    /// RTc pairs broken up in-slot (lower-weight member dropped).
    pub repaired_pairs: usize,
    /// Activation entries stripped because their reader had crashed.
    pub crashed_dropped: usize,
    /// Coverable tags no surviving activation could serve.
    pub abandoned_tags: Vec<TagId>,
}

/// An audited covering-schedule simulator for one deployment.
pub struct SlotSimulator<'a> {
    deployment: &'a Deployment,
    coverage: Coverage,
    graph: rfid_graph::Csr,
    /// Cap on schedule length before the run is declared divergent.
    pub max_slots: usize,
    /// Intra-slot arbitration model.
    pub link_layer: LinkLayer,
    /// Seed for the link-layer RNG.
    pub seed: u64,
}

impl<'a> SlotSimulator<'a> {
    /// Prepares the derived structures for `deployment`.
    pub fn new(deployment: &'a Deployment) -> Self {
        SlotSimulator {
            deployment,
            coverage: Coverage::build(deployment),
            graph: interference_graph(deployment),
            max_slots: 100_000,
            link_layer: LinkLayer::None,
            seed: 0,
        }
    }

    /// Derived coverage table.
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }

    /// Derived interference graph.
    pub fn graph(&self) -> &rfid_graph::Csr {
        &self.graph
    }

    /// Runs `scheduler` to completion with per-slot audits.
    ///
    /// # Panics
    /// If any slot violates the collision model: an RTc pair inside an
    /// activation, or a served set differing from the audited well-covered
    /// set — both would indicate a scheduler bug, and the simulator's whole
    /// point is to catch them.
    pub fn run(&self, scheduler: &mut dyn OneShotScheduler) -> SimReport {
        let run = covering_schedule_with(
            self.deployment,
            &self.coverage,
            &self.graph,
            scheduler,
            &McsOptions::new().max_slots(self.max_slots),
        )
        .expect("strict covering schedule diverged");
        self.replay(run.schedule, true)
    }

    /// Runs `scheduler` through the crash-tolerant covering-schedule loop
    /// ([`rfid_core::FaultPolicy::Resilient`]): infeasible activations are
    /// repaired, crashed readers stripped (their tags requeued), and tags
    /// out of every survivor's reach abandoned — nothing panics. The
    /// returned schedule is still audited slot by slot.
    pub fn run_resilient(&self, scheduler: &mut dyn OneShotScheduler) -> ResilientSimReport {
        let resilient = covering_schedule_with(
            self.deployment,
            &self.coverage,
            &self.graph,
            scheduler,
            &McsOptions::new().max_slots(self.max_slots).resilient(),
        )
        .expect("resilient runs cannot fail");
        ResilientSimReport {
            report: self.replay(resilient.schedule, false),
            repaired_pairs: resilient.repaired_pairs,
            crashed_dropped: resilient.crashed_dropped,
            abandoned_tags: resilient.abandoned_tags,
        }
    }

    /// Re-plays `schedule` slot by slot, auditing each activation against
    /// the collision model and (optionally) running the link layer.
    /// `strict` controls whether an audit violation panics (the sound
    /// schedulers' contract) or is tolerated (resilient runs, where the
    /// repair upstream already guarantees feasibility).
    fn replay(&self, schedule: CoveringSchedule, strict: bool) -> SimReport {
        let mut unread = TagSet::all_unread(self.deployment.n_tags());
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut total_microslots = 0u64;
        let mut max_microslots = 0u64;
        let mut link_layer_complete = true;
        let mut orphaned_tags = 0u64;
        for (i, slot) in schedule.slots.iter().enumerate() {
            let audit = audit_activation(self.deployment, &self.coverage, &slot.active, &unread);
            if strict {
                assert!(
                    audit.is_feasible(),
                    "slot {i}: RTc pairs {:?} in activation {:?}",
                    audit.rtc_pairs,
                    slot.active
                );
                assert_eq!(
                    audit.well_covered, slot.served,
                    "slot {i}: served set disagrees with the Definition-1 audit"
                );
            } else {
                debug_assert!(audit.is_feasible(), "resilient repair left an RTc pair");
            }
            // Link layer: each active reader arbitrates its own served tags
            // (readers are independent, so inventories run in parallel; the
            // slot's micro-slot length is the per-reader maximum).
            if self.link_layer != LinkLayer::None {
                // Assign each served tag to its unique active coverer.
                let mut per_reader: std::collections::BTreeMap<usize, Vec<u64>> =
                    Default::default();
                for &t in &slot.served {
                    let coverer = self
                        .coverage
                        .readers_of(t)
                        .iter()
                        .map(|&r| r as usize)
                        .find(|r| slot.active.contains(r));
                    match coverer {
                        Some(coverer) => per_reader.entry(coverer).or_default().push(t as u64),
                        // A served tag with no active coverer means the
                        // schedule was externally degraded; skip it rather
                        // than abort the whole replay.
                        None => orphaned_tags += 1,
                    }
                }
                let mut slot_max = 0u64;
                for (_, tags) in per_reader {
                    let outcome = match self.link_layer {
                        LinkLayer::Aloha => FramedAloha::default().inventory(&tags, &mut rng),
                        LinkLayer::TreeWalking => TreeWalking::default().inventory(&tags, &mut rng),
                        LinkLayer::None => unreachable!(),
                    };
                    link_layer_complete &= outcome.unresolved.is_empty();
                    total_microslots += outcome.total_slots;
                    slot_max = slot_max.max(outcome.total_slots);
                }
                max_microslots = max_microslots.max(slot_max);
            }
            unread.mark_all_read(&slot.served);
        }
        SimReport {
            schedule,
            total_microslots,
            max_microslots_per_slot: max_microslots,
            link_layer_complete,
            orphaned_tags,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_core::{ExactScheduler, HillClimbing};
    use rfid_model::scenario::{Scenario, ScenarioKind};
    use rfid_model::RadiusModel;

    fn scenario(seed: u64) -> Deployment {
        Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers: 15,
            n_tags: 150,
            region_side: 70.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: 10.0,
                lambda_interrogation: 5.0,
            },
        }
        .generate(seed)
    }

    #[test]
    fn audited_run_completes() {
        let d = scenario(0);
        let sim = SlotSimulator::new(&d);
        let report = sim.run(&mut HillClimbing::default());
        assert_eq!(
            report.schedule.tags_served(),
            sim.coverage().coverable_count()
        );
        assert_eq!(report.total_microslots, 0);
    }

    #[test]
    fn aloha_link_layer_reads_everything() {
        let d = scenario(1);
        let mut sim = SlotSimulator::new(&d);
        sim.link_layer = LinkLayer::Aloha;
        let report = sim.run(&mut ExactScheduler::default());
        assert!(report.link_layer_complete);
        assert!(report.total_microslots > 0);
        assert!(report.max_microslots_per_slot > 0);
        // The slot-sizing assumption: every slot identified ≥ 1 tag, so the
        // micro-slot budget per slot is finite and was measured.
        assert!(report.max_microslots_per_slot < 100_000);
    }

    #[test]
    fn resilient_run_matches_strict_run_without_faults() {
        let d = scenario(0);
        let mut sim = SlotSimulator::new(&d);
        sim.link_layer = LinkLayer::TreeWalking;
        let strict = sim.run(&mut ExactScheduler::default());
        let resilient = sim.run_resilient(&mut ExactScheduler::default());
        assert_eq!(resilient.report.schedule, strict.schedule);
        assert_eq!(resilient.report.total_microslots, strict.total_microslots);
        assert_eq!(resilient.repaired_pairs, 0);
        assert_eq!(resilient.crashed_dropped, 0);
        assert!(resilient.abandoned_tags.is_empty());
        assert_eq!(strict.orphaned_tags, 0);
    }

    #[test]
    fn resilient_run_survives_a_crashing_distributed_scheduler() {
        let d = scenario(3);
        let mut sim = SlotSimulator::new(&d);
        sim.link_layer = LinkLayer::Aloha;
        let plan = rfid_netsim::FaultPlan::seeded(5)
            .with_loss(0.2)
            .with_crash(0, 4)
            .with_crash(3, 9);
        let mut s = rfid_core::DistributedScheduler::default().with_faults(plan);
        let rep = sim.run_resilient(&mut s);
        for slot in &rep.report.schedule.slots {
            assert!(d.is_feasible(&slot.active), "{slot:?}");
            assert!(!slot.active.contains(&0) && !slot.active.contains(&3));
        }
        // Tags within a survivor's reach are all served; only tags covered
        // exclusively by the crashed pair may be abandoned.
        for &t in &rep.abandoned_tags {
            assert!(
                sim.coverage()
                    .readers_of(t)
                    .iter()
                    .all(|&r| r == 0 || r == 3),
                "abandoned tag {t} had a surviving coverer"
            );
        }
        assert_eq!(
            rep.report.schedule.tags_served() + rep.abandoned_tags.len(),
            sim.coverage().coverable_count()
        );
    }

    #[test]
    fn tree_walking_link_layer_is_deterministic() {
        let d = scenario(2);
        let mut sim = SlotSimulator::new(&d);
        sim.link_layer = LinkLayer::TreeWalking;
        let a = sim.run(&mut ExactScheduler::default());
        let b = sim.run(&mut ExactScheduler::default());
        assert_eq!(a.total_microslots, b.total_microslots);
        assert!(a.link_layer_complete);
    }
}
