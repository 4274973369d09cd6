//! The parameter-sweep experiment driver behind every figure.
//!
//! A sweep is a grid of `(λ point × algorithm × seed)` trials. Each trial
//! generates its deployment from `(scenario, seed)` (fully deterministic),
//! runs either the one-shot scheduler once on a fresh tag set (Figures
//! 8/9) or the full greedy covering schedule (Figures 6/7), and records
//! timing plus communication cost.
//!
//! The `(λ, seed)` trials are independent, so [`run_sweep`] splits them
//! across scoped threads, each claiming the next unstarted trial. This is
//! the only place the solver stack runs on more than one thread; every
//! scheduler inside a trial runs on the thread that claimed it. Results
//! are put back in trial order and sorted by `(point, algorithm, seed)`,
//! making the output independent of thread scheduling.

use crate::metrics::TrialRecord;
use rfid_core::{
    covering_schedule_with, AlgorithmKind, McsOptions, OneShotInput, SchedulerRegistry,
};
use rfid_model::interference::interference_graph;
use rfid_model::{Coverage, Scenario, TagSet, WeightEvaluator};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Which λ the sweep varies (the other stays at the scenario's value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepAxis {
    /// Vary λ_R (interference radii mean) — Figures 6 and 9.
    Interference,
    /// Vary λ_r (interrogation radii mean) — Figures 7 and 8.
    Interrogation,
}

/// Full sweep description.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Base scenario; the swept λ overrides its radius model per point.
    pub scenario: Scenario,
    /// Which λ varies.
    pub axis: SweepAxis,
    /// The swept λ values.
    pub values: Vec<f64>,
    /// The fixed λ for the other axis.
    pub fixed_lambda: f64,
    /// Algorithms to compare.
    pub algorithms: Vec<AlgorithmKind>,
    /// Seeded trials per point.
    pub trials: usize,
    /// Base seed; trial `t` uses `base_seed + t`.
    pub base_seed: u64,
    /// Record the MCS covering-schedule size (Figures 6/7).
    pub measure_mcs: bool,
    /// Record the one-shot weight on a fresh tag set (Figures 8/9).
    pub measure_oneshot: bool,
    /// Threads the trials are split across; `None` = available
    /// parallelism. Never more threads than trials are started.
    pub threads: Option<usize>,
}

impl SweepConfig {
    fn lambdas(&self, value: f64) -> (f64, f64) {
        match self.axis {
            SweepAxis::Interference => (value, self.fixed_lambda),
            SweepAxis::Interrogation => (self.fixed_lambda, value),
        }
    }
}

/// Runs the sweep; the result is sorted by `(λ, algorithm, seed)` and
/// contains `values × algorithms × trials` records.
pub fn run_sweep(config: &SweepConfig) -> Vec<TrialRecord> {
    assert!(config.trials > 0, "need at least one trial per point");
    assert!(!config.values.is_empty(), "need at least one sweep value");
    assert!(
        config.measure_mcs || config.measure_oneshot,
        "nothing to measure"
    );
    // Work items: one per (value, seed); all algorithms run on the same
    // deployment instance so the comparison is paired.
    let mut items = Vec::new();
    for &value in &config.values {
        for t in 0..config.trials {
            items.push((value, config.base_seed + t as u64));
        }
    }
    let threads = config
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .clamp(1, items.len());
    // One result slot per trial, filled by whichever thread claims it, so
    // the records come back in trial order at every thread count.
    let results: Vec<OnceLock<Vec<TrialRecord>>> = items.iter().map(|_| OnceLock::new()).collect();
    // Relaxed: the counter only hands out indices; the records travel
    // through the `OnceLock`s and the scope's join.
    let next = AtomicUsize::new(0);
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&(value, seed)) = items.get(i) else {
            break;
        };
        results[i]
            .set(run_point(config, value, seed))
            .expect("each trial is claimed once");
    };
    // The calling thread works too, so `threads - 1` are spawned.
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(worker);
        }
        worker();
    });
    let mut out: Vec<TrialRecord> = results
        .into_iter()
        .flat_map(|slot| slot.into_inner().expect("every trial ran"))
        .collect();
    out.sort_by(|a, b| {
        (
            a.lambda_interference,
            a.lambda_interrogation,
            &a.algorithm,
            a.seed,
        )
            .partial_cmp(&(
                b.lambda_interference,
                b.lambda_interrogation,
                &b.algorithm,
                b.seed,
            ))
            .expect("λ values are finite")
    });
    out
}

/// Runs every configured algorithm on one deployment instance.
fn run_point(config: &SweepConfig, value: f64, seed: u64) -> Vec<TrialRecord> {
    let (lambda_interference, lambda_interrogation) = config.lambdas(value);
    let mut scenario = config.scenario;
    scenario.radius_model = rfid_model::RadiusModel::PoissonPair {
        lambda_interference,
        lambda_interrogation,
    };
    let deployment = scenario.generate(seed);
    let coverage = Coverage::build(&deployment);
    let graph = interference_graph(&deployment);
    let registry = SchedulerRegistry::global();
    let mut records = Vec::with_capacity(config.algorithms.len());
    for &kind in &config.algorithms {
        let mut scheduler = registry.instantiate(kind, seed ^ 0x5eed);
        let start = Instant::now();
        let mut oneshot_weight = None;
        let mut messages = None;
        let mut bytes = None;
        if config.measure_oneshot {
            let unread = TagSet::all_unread(deployment.n_tags());
            let input = OneShotInput::new(&deployment, &coverage, &graph, &unread);
            let set = scheduler.schedule(&input);
            debug_assert!(
                deployment.is_feasible(&set),
                "{kind:?} produced infeasible set"
            );
            let mut weights = WeightEvaluator::new(&coverage);
            oneshot_weight = Some(weights.weight(&set, &unread));
            if let Some(stats) = scheduler.comm_stats() {
                messages = Some(stats.messages);
                bytes = Some(stats.bytes);
            }
        }
        let mut mcs_size = None;
        let mut fallback_slots = 0;
        if config.measure_mcs {
            let schedule = covering_schedule_with(
                &deployment,
                &coverage,
                &graph,
                scheduler.as_mut(),
                &McsOptions::new(),
            )
            .expect("strict covering schedule diverged")
            .schedule;
            fallback_slots = schedule.fallback_slots();
            mcs_size = Some(schedule.size());
        }
        records.push(TrialRecord {
            algorithm: kind.label().to_string(),
            lambda_interference,
            lambda_interrogation,
            seed,
            mcs_size,
            oneshot_weight,
            runtime_ms: start.elapsed().as_secs_f64() * 1e3,
            fallback_slots,
            messages,
            bytes,
        });
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_model::RadiusModel;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            scenario: Scenario {
                kind: rfid_model::ScenarioKind::UniformRandom,
                n_readers: 12,
                n_tags: 80,
                region_side: 60.0,
                radius_model: RadiusModel::paper_default(),
            },
            axis: SweepAxis::Interrogation,
            values: vec![4.0, 6.0],
            fixed_lambda: 10.0,
            algorithms: vec![AlgorithmKind::HillClimbing, AlgorithmKind::Colorwave],
            trials: 2,
            base_seed: 100,
            measure_mcs: true,
            measure_oneshot: true,
            threads: Some(2),
        }
    }

    #[test]
    fn sweep_produces_full_grid() {
        let records = run_sweep(&tiny_config());
        assert_eq!(records.len(), 2 * 2 * 2); // values × algorithms × trials
        for r in &records {
            assert!(r.mcs_size.is_some());
            assert!(r.oneshot_weight.is_some());
            assert_eq!(r.lambda_interference, 10.0);
            assert!(r.runtime_ms >= 0.0);
        }
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        // runtime_ms differs; compare the science fields. 0 threads runs
        // on the calling thread alone; 16 is capped at the 4 trials.
        let science = |threads| {
            let mut c = tiny_config();
            c.threads = Some(threads);
            run_sweep(&c)
                .iter()
                .map(|r| {
                    (
                        r.algorithm.clone(),
                        r.lambda_interrogation.to_bits(),
                        r.seed,
                        r.mcs_size,
                        r.oneshot_weight,
                    )
                })
                .collect::<Vec<_>>()
        };
        let one = science(1);
        for threads in [0, 4, 16] {
            assert_eq!(science(threads), one, "{threads} threads");
        }
    }

    #[test]
    fn interference_axis_varies_the_other_lambda() {
        let mut c = tiny_config();
        c.axis = SweepAxis::Interference;
        c.values = vec![9.0];
        c.measure_mcs = false;
        let records = run_sweep(&c);
        for r in &records {
            assert_eq!(r.lambda_interference, 9.0);
            assert_eq!(r.lambda_interrogation, 10.0);
        }
    }

    #[test]
    #[should_panic(expected = "nothing to measure")]
    fn rejects_empty_measurement() {
        let mut c = tiny_config();
        c.measure_mcs = false;
        c.measure_oneshot = false;
        run_sweep(&c);
    }
}
