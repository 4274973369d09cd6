//! Greedy Hill-Climbing baseline (GHC, paper Section VI).
//!
//! "At each step, we select a reader to add to current active reader set,
//! in order to maximize the incremental weight together with other active
//! readers at this time-slot. Then we keep adding the reader to the active
//! set one by one recursively until the weight starts to decrease (the
//! incremental weight becomes negative) due to various collisions."
//!
//! Feasibility is maintained throughout: only readers independent from the
//! current active set are candidates (an RTc-violating addition would zero
//! out a victim reader, which the incremental weight model cannot express —
//! and the paper's feasible-set definition forbids it anyway).
//!
//! Every candidate's incremental weight is kept exact: it starts at the
//! singleton weight, and each addition adjusts only the readers sharing a
//! tag whose active-cover count it moves
//! ([`rfid_model::IncrementalCore::add_reporting`]). Each pick pops a lazy
//! max-heap of `(gain, Reverse(id))` entries, skipping entries that are
//! stale, blocked or active, so it is exactly the eager argmax with the
//! id tie-break. A call walks the `readers_of` list of each tag its
//! additions cover plus `O(log)` per heap entry, instead of one
//! `delta_if_added` per live candidate per pick, and the heap, gain and
//! dirty buffers persist across covering-schedule slots, so the warm path
//! allocates nothing.

use crate::scheduler::{OneShotInput, OneShotScheduler};
use rfid_model::{IncrementalCore, ReaderId};
use rfid_obs::{counter, histogram, span};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The GHC baseline scheduler (plus its cross-call scratch).
#[derive(Debug, Clone, Default)]
pub struct HillClimbing {
    /// When `true`, stop only when the best incremental weight is strictly
    /// negative (the paper's literal rule, admitting zero-gain additions);
    /// when `false` (default), stop at non-positive increments — a slightly
    /// stronger variant that avoids pointless RRc exposure.
    pub admit_zero_gain: bool,
    inc: IncrementalCore,
    blocked: Vec<bool>,
    /// `gain[v] == inc.delta_if_added(v)` for every reader that can still
    /// be picked in this call.
    gain: Vec<isize>,
    /// Readers whose gain the last addition moved (repeats allowed).
    dirty: Vec<ReaderId>,
    /// `(gain, Reverse(v))` for this call's candidates; an entry whose
    /// gain differs from `gain[v]` is stale and skipped.
    heap: BinaryHeap<(isize, Reverse<u32>)>,
    allocs: u64,
}

impl OneShotScheduler for HillClimbing {
    fn schedule(&mut self, input: &OneShotInput<'_>) -> Vec<ReaderId> {
        let sub = input.subscriber;
        let _span = span!(sub, "ghc.schedule");
        let n = input.deployment.n_readers();
        self.inc.reset(input.coverage, input.unread);
        if self.blocked.len() != n {
            self.blocked = vec![false; n];
            self.gain = vec![0; n];
            self.allocs += 2;
        } else {
            self.blocked.fill(false);
        }
        // Additions below `floor` stop the climb, so such entries never
        // enter the heap and an empty heap is the stop rule. A reader with
        // singleton weight 0 covers no unread tag: its gain is 0 for the
        // whole call and no addition ever moves it.
        let floor = isize::from(!self.admit_zero_gain);
        let singleton = input.singleton_weights();
        let (heap_cap, dirty_cap) = (self.heap.capacity(), self.dirty.capacity());
        self.heap.clear();
        let gain = &mut self.gain;
        let mut seed = |v: usize| {
            gain[v] = singleton[v] as isize;
            (gain[v], Reverse(v as u32))
        };
        if self.admit_zero_gain {
            // Zero-gain readers are candidates too: scan them all.
            self.heap.extend((0..n).map(seed));
        } else {
            self.heap
                .extend(input.positive_readers().iter().map(|&v| seed(v)));
        }
        while let Some((delta, Reverse(v))) = self.heap.pop() {
            let v = v as usize;
            if delta != self.gain[v] || self.blocked[v] || self.inc.is_active(v) {
                continue;
            }
            let (gain, dirty) = (&mut self.gain, &mut self.dirty);
            self.inc.add_reporting(input.coverage, v, |w, change| {
                gain[w] += change;
                dirty.push(w);
            });
            counter!(sub, "ghc.additions");
            histogram!(sub, "ghc.incremental_weight", delta as u64);
            for &t in input.graph.neighbors(v) {
                self.blocked[t as usize] = true;
            }
            for w in self.dirty.drain(..) {
                if self.gain[w] >= floor && !self.blocked[w] && !self.inc.is_active(w) {
                    self.heap.push((self.gain[w], Reverse(w as u32)));
                }
            }
        }
        self.allocs += u64::from(self.heap.capacity() > heap_cap)
            + u64::from(self.dirty.capacity() > dirty_cap);
        let mut out = self.inc.active().to_vec();
        out.sort_unstable();
        out
    }

    fn take_scratch_allocations(&mut self) -> u64 {
        std::mem::take(&mut self.allocs) + self.inc.take_allocs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geometry::{Point, Rect};
    use rfid_model::interference::interference_graph;
    use rfid_model::{Coverage, Deployment, TagSet};

    fn figure2() -> (Deployment, Coverage) {
        let d = Deployment::new(
            Rect::new(-10.0, -10.0, 40.0, 10.0),
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(20.0, 0.0),
            ],
            vec![9.0, 9.0, 9.0],
            vec![6.0, 7.0, 6.0],
            vec![
                Point::new(-3.0, 0.0),
                Point::new(5.0, 0.0),
                Point::new(15.0, 0.0),
                Point::new(23.0, 0.0),
                Point::new(10.0, 0.0),
            ],
        );
        let c = Coverage::build(&d);
        (d, c)
    }

    fn zero_gain() -> HillClimbing {
        HillClimbing {
            admit_zero_gain: true,
            ..HillClimbing::default()
        }
    }

    #[test]
    fn figure2_ghc_gets_stuck_on_the_middle_reader() {
        // GHC picks B first (singleton weight 3 beats A/C's 2). Adding A or
        // C then has increment 0 (one fresh tag, one overlap loss), so the
        // climb stalls at weight 3 either way — strictly worse than the
        // optimum {A, C} with weight 4. This is the local-optimum failure
        // the paper's Figure 2 illustrates.
        let (d, c) = figure2();
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(5);
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let strict = HillClimbing::default().schedule(&input);
        assert_eq!(strict, vec![1]);
        assert_eq!(input.weight_of(&strict), 3);
        let literal = zero_gain().schedule(&input);
        assert_eq!(literal, vec![0, 1, 2]);
        assert_eq!(input.weight_of(&literal), 3);
        assert!(d.is_feasible(&literal));
    }

    #[test]
    fn never_adds_interfering_readers() {
        // Two overlapping readers: only one can be active.
        let d = Deployment::new(
            Rect::square(20.0),
            vec![Point::new(5.0, 5.0), Point::new(8.0, 5.0)],
            vec![6.0, 6.0],
            vec![3.0, 3.0],
            vec![
                Point::new(5.0, 5.0),
                Point::new(8.0, 6.0),
                Point::new(9.0, 5.0),
            ],
        );
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(3);
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let set = HillClimbing::default().schedule(&input);
        assert_eq!(set.len(), 1);
        assert!(d.is_feasible(&set));
    }

    #[test]
    fn empty_when_no_tags() {
        let d = Deployment::new(
            Rect::square(10.0),
            vec![Point::new(5.0, 5.0)],
            vec![2.0],
            vec![1.0],
            vec![],
        );
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let unread = TagSet::all_unread(0);
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let set = HillClimbing::default().schedule(&input);
        assert!(set.is_empty(), "no positive increment exists without tags");
    }

    #[test]
    fn zero_gain_variant_may_add_more_readers() {
        // A reader covering only already-read tags has delta 0: the literal
        // paper rule admits it, the default rejects it.
        let d = Deployment::new(
            Rect::square(40.0),
            vec![Point::new(5.0, 5.0), Point::new(30.0, 30.0)],
            vec![4.0, 4.0],
            vec![2.0, 2.0],
            vec![Point::new(5.0, 5.0), Point::new(30.0, 30.0)],
        );
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let mut unread = TagSet::all_unread(2);
        unread.mark_read(1); // reader 1's only tag is gone
        let input = OneShotInput::new(&d, &c, &g, &unread);
        let strict = HillClimbing::default().schedule(&input);
        assert_eq!(strict, vec![0]);
        let lax = zero_gain().schedule(&input);
        assert_eq!(lax, vec![0, 1]);
    }

    #[test]
    fn reused_instance_matches_fresh_instances_and_stops_allocating() {
        use rfid_model::{RadiusModel, Scenario, ScenarioKind};
        let d = Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers: 30,
            n_tags: 250,
            region_side: 90.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: 12.0,
                lambda_interrogation: 6.0,
            },
        }
        .generate(11);
        let c = Coverage::build(&d);
        let g = interference_graph(&d);
        let mut unread;
        for mut warm in [HillClimbing::default(), zero_gain()] {
            unread = TagSet::all_unread(d.n_tags());
            for round in 0..4 {
                let input = OneShotInput::new(&d, &c, &g, &unread);
                let from_warm = warm.schedule(&input);
                let mut fresh = HillClimbing {
                    admit_zero_gain: warm.admit_zero_gain,
                    ..HillClimbing::default()
                };
                assert_eq!(from_warm, fresh.schedule(&input), "round {round}");
                if round == 0 {
                    assert!(warm.take_scratch_allocations() > 0);
                } else {
                    assert_eq!(warm.take_scratch_allocations(), 0, "round {round}");
                }
                let served = rfid_model::WeightEvaluator::new(&c).well_covered(&from_warm, &unread);
                unread.mark_all_read(&served);
            }
        }
    }
}
