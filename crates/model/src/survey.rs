//! Imperfect RF site surveys.
//!
//! The paper obtains the interference graph "through network measurement …
//! a RF site survey using a localization device and radio signal strength
//! measurement device" (footnote 1). Real surveys err in both directions:
//! a missed interference relationship (false negative) lets the scheduler
//! activate two conflicting readers — an RTc at run time; a phantom edge
//! (false positive) merely forfeits concurrency. This module produces
//! corrupted interference graphs with independently seeded error rates so
//! the harness can quantify both failure modes.

use crate::deployment::Deployment;
use crate::interference::interference_graph;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_graph::Csr;

/// Error rates of a simulated site survey.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurveyError {
    /// Probability that a true interference edge is *missed*.
    pub false_negative: f64,
    /// Probability that a non-edge reader pair is *falsely reported* as
    /// interfering.
    pub false_positive: f64,
}

impl SurveyError {
    /// A perfect survey.
    pub const NONE: SurveyError = SurveyError {
        false_negative: 0.0,
        false_positive: 0.0,
    };
}

/// Runs a simulated site survey: the true interference graph corrupted by
/// the given error rates (deterministic per seed).
pub fn surveyed_interference_graph(d: &Deployment, err: SurveyError, seed: u64) -> Csr {
    assert!(
        (0.0..=1.0).contains(&err.false_negative) && (0.0..=1.0).contains(&err.false_positive),
        "error rates must be probabilities"
    );
    let truth = interference_graph(d);
    let n = d.n_readers();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let real = truth.has_edge(a, b);
            let reported = if real {
                rng.random::<f64>() >= err.false_negative
            } else {
                rng.random::<f64>() < err.false_positive
            };
            if reported {
                edges.push((a, b));
            }
        }
    }
    Csr::from_edges(n, &edges)
}

/// Outcome of scheduling against a surveyed (possibly wrong) graph,
/// evaluated against the *true* model.
#[derive(Debug, Clone, PartialEq)]
pub struct SurveyImpact {
    /// Edges the survey missed (these can cause RTc).
    pub missed_edges: usize,
    /// Phantom edges the survey invented (these only cost concurrency).
    pub phantom_edges: usize,
}

/// Compares a surveyed graph against the ground truth.
pub fn survey_impact(d: &Deployment, surveyed: &Csr) -> SurveyImpact {
    let truth = interference_graph(d);
    let mut missed = 0;
    let mut phantom = 0;
    for a in 0..d.n_readers() {
        for b in (a + 1)..d.n_readers() {
            match (truth.has_edge(a, b), surveyed.has_edge(a, b)) {
                (true, false) => missed += 1,
                (false, true) => phantom += 1,
                _ => {}
            }
        }
    }
    SurveyImpact {
        missed_edges: missed,
        phantom_edges: phantom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioKind};
    use crate::RadiusModel;

    fn deployment(seed: u64) -> Deployment {
        Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers: 30,
            n_tags: 10,
            region_side: 100.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: 16.0,
                lambda_interrogation: 6.0,
            },
        }
        .generate(seed)
    }

    #[test]
    fn perfect_survey_is_the_truth() {
        let d = deployment(0);
        let s = surveyed_interference_graph(&d, SurveyError::NONE, 7);
        assert_eq!(s, interference_graph(&d));
        let impact = survey_impact(&d, &s);
        assert_eq!(
            impact,
            SurveyImpact {
                missed_edges: 0,
                phantom_edges: 0
            }
        );
    }

    #[test]
    fn full_false_negatives_erase_the_graph() {
        let d = deployment(1);
        let s = surveyed_interference_graph(
            &d,
            SurveyError {
                false_negative: 1.0,
                false_positive: 0.0,
            },
            7,
        );
        assert_eq!(s.m(), 0);
        let impact = survey_impact(&d, &s);
        assert_eq!(impact.missed_edges, interference_graph(&d).m());
    }

    #[test]
    fn full_false_positives_make_a_clique() {
        let d = deployment(2);
        let s = surveyed_interference_graph(
            &d,
            SurveyError {
                false_negative: 0.0,
                false_positive: 1.0,
            },
            7,
        );
        let n = d.n_readers();
        assert_eq!(s.m(), n * (n - 1) / 2);
    }

    #[test]
    fn partial_errors_are_roughly_calibrated() {
        let d = deployment(3);
        let truth = interference_graph(&d);
        let mut missed_total = 0usize;
        const RUNS: u64 = 30;
        for seed in 0..RUNS {
            let s = surveyed_interference_graph(
                &d,
                SurveyError {
                    false_negative: 0.3,
                    false_positive: 0.0,
                },
                seed,
            );
            missed_total += survey_impact(&d, &s).missed_edges;
        }
        let mean_missed = missed_total as f64 / RUNS as f64;
        let expect = 0.3 * truth.m() as f64;
        assert!(
            (mean_missed - expect).abs() <= 0.15 * truth.m() as f64 + 1.0,
            "mean missed {mean_missed} vs expected {expect}"
        );
    }

    #[test]
    fn surveys_are_deterministic_per_seed() {
        let d = deployment(4);
        let e = SurveyError {
            false_negative: 0.2,
            false_positive: 0.01,
        };
        assert_eq!(
            surveyed_interference_graph(&d, e, 9),
            surveyed_interference_graph(&d, e, 9)
        );
    }

    /// The punchline: schedulers driven by a lossy survey produce RTc
    /// against the true model; phantom-only surveys stay safe.
    #[test]
    fn false_negatives_cause_rtc_false_positives_do_not() {
        use crate::{audit_activation, Coverage, TagSet};
        let d = Scenario {
            kind: ScenarioKind::UniformRandom,
            n_readers: 30,
            n_tags: 300,
            region_side: 100.0,
            radius_model: RadiusModel::PoissonPair {
                lambda_interference: 18.0,
                lambda_interrogation: 8.0,
            },
        }
        .generate(5);
        let c = Coverage::build(&d);
        let unread = TagSet::all_unread(d.n_tags());
        // Greedy activation against a surveyed graph: take readers in
        // singleton-weight order that the *surveyed* graph calls
        // independent.
        let schedule_with = |g: &Csr| -> Vec<usize> {
            let mut order: Vec<usize> = (0..d.n_readers()).collect();
            order.sort_by_key(|&v| std::cmp::Reverse(crate::singleton_weight(&c, v, &unread)));
            let mut x: Vec<usize> = Vec::new();
            for v in order {
                if x.iter().all(|&u| !g.has_edge(u, v)) {
                    x.push(v);
                }
            }
            x.sort_unstable();
            x
        };
        // Phantom-only survey: activation remains feasible in truth.
        let phantom = surveyed_interference_graph(
            &d,
            SurveyError {
                false_negative: 0.0,
                false_positive: 0.3,
            },
            1,
        );
        let x = schedule_with(&phantom);
        assert!(audit_activation(&d, &c, &x, &unread).is_feasible());
        // Miss half the edges: some seed must produce a real RTc.
        let mut any_rtc = false;
        for seed in 0..10 {
            let lossy = surveyed_interference_graph(
                &d,
                SurveyError {
                    false_negative: 0.5,
                    false_positive: 0.0,
                },
                seed,
            );
            let x = schedule_with(&lossy);
            any_rtc |= !audit_activation(&d, &c, &x, &unread).is_feasible();
        }
        assert!(
            any_rtc,
            "50% missed edges never caused an RTc across 10 surveys?"
        );
    }
}
