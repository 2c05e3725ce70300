//! Resilient serving: the demotion ladder's counters and deterministic
//! chaos injection to exercise it.
//!
//! The paper's central robustness claim is that the PWM perceptron
//! *degrades gracefully* — a droopy supply shifts the output a bounded
//! amount instead of breaking the classification. The serving stack has
//! the same property: instead of failing a query when a tier misbehaves,
//! [`crate::InferenceEngine`] walks a demotion ladder (Circuit →
//! SwitchLevel → Analytic). Each tier gets one attempt; a transient
//! failure (a simulation error or a non-finite answer) is answered by the
//! next-cheaper tier, flagged `degraded` with that tier's certified error
//! bound. The shipped tiers are deterministic functions of the query, so
//! asking a tier that just failed again would fail again: the ladder
//! neither retries nor waits.
//!
//! * [`ResilStats`] — the ladder's counters.
//! * [`ChaosEvaluator`] — a seeded fault-injection wrapper over any
//!   [`Evaluator`]: per-(seed, call-index) forced non-convergence and NaN
//!   outputs, bitwise reproducible for a given seed.

use std::sync::atomic::{AtomicU64, Ordering};

use mssim::prelude::Volts;

use crate::duty::DutyCycle;
use crate::error::CoreError;
use crate::eval::Evaluator;
use crate::infer::{Eval, Query, Tier};
use crate::weight::WeightVector;

/// Counter snapshot of the demotion ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilStats {
    /// Ladder demotions (one per tier walked past).
    pub demotions: u64,
    /// Queries answered by a cheaper tier than demanded.
    pub degraded_served: u64,
}

/// SplitMix64 — the same finalizer the sweep driver uses for per-trial
/// RNG streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform draw in `[0, 1)` from `(seed, index)` — pure, so the injection
/// schedule can be recomputed by a harness without touching the wrapper.
fn unit_draw(seed: u64, index: u64) -> f64 {
    (splitmix64(seed ^ splitmix64(index)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Fault mix for [`ChaosEvaluator`]. Rates are per evaluator call and
/// mutually exclusive (failure wins over NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the injection schedule.
    pub seed: u64,
    /// Probability of a forced [`mssim::Error::NonConvergence`].
    pub fail_rate: f64,
    /// Probability of a NaN output voltage.
    pub nan_rate: f64,
}

impl ChaosConfig {
    /// All rates zero — a transparent wrapper.
    pub fn quiet(seed: u64) -> Self {
        ChaosConfig {
            seed,
            fail_rate: 0.0,
            nan_rate: 0.0,
        }
    }
}

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// The call fails with a forced solver non-convergence.
    NonConvergence,
    /// The call answers NaN volts.
    NanOutput,
}

/// The fault (if any) injected at evaluator-call `index` — a pure
/// function of `(config.seed, index)`.
pub fn chaos_fault_at(config: &ChaosConfig, index: u64) -> Option<ChaosFault> {
    let draw = unit_draw(config.seed, index);
    if draw < config.fail_rate {
        Some(ChaosFault::NonConvergence)
    } else if draw < config.fail_rate + config.nan_rate {
        Some(ChaosFault::NanOutput)
    } else {
        None
    }
}

/// Seeded fault-injection wrapper over any [`Evaluator`].
///
/// Faults are decided per (seed, evaluator-call index) with a SplitMix64
/// hash, so a replay with the same seed and the same call order injects
/// bitwise-identical faults.
pub struct ChaosEvaluator<E> {
    inner: E,
    config: ChaosConfig,
    calls: AtomicU64,
    injected: [AtomicU64; 2],
}

impl<E> std::fmt::Debug for ChaosEvaluator<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosEvaluator")
            .field("config", &self.config)
            .field("calls", &self.calls.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<E: Evaluator> ChaosEvaluator<E> {
    /// Wraps `inner` with the given fault mix.
    ///
    /// # Panics
    ///
    /// Panics if a rate is negative or the rates sum to more than 1.
    pub fn new(inner: E, config: ChaosConfig) -> Self {
        assert!(
            config.fail_rate >= 0.0
                && config.nan_rate >= 0.0
                && config.fail_rate + config.nan_rate <= 1.0,
            "fault rates must be non-negative and sum to at most 1"
        );
        ChaosEvaluator {
            inner,
            config,
            calls: AtomicU64::new(0),
            injected: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// The wrapped evaluator.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Evaluator calls seen so far (the injection index advances by one
    /// per call, batched or not).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Injected fault counts `[non_convergence, nan]`.
    pub fn injected(&self) -> [u64; 2] {
        [
            self.injected[0].load(Ordering::Relaxed),
            self.injected[1].load(Ordering::Relaxed),
        ]
    }

    fn forced_error() -> CoreError {
        CoreError::Simulation(mssim::Error::NonConvergence {
            analysis: "transient",
            time: 0.0,
            iterations: 0,
            stage: "chaos",
            attempts: 0,
        })
    }

    /// Applies `fault` to the inner evaluator's `answer`.
    fn inject(
        &self,
        fault: Option<ChaosFault>,
        answer: impl FnOnce() -> Result<Eval, CoreError>,
    ) -> Result<Eval, CoreError> {
        match fault {
            Some(ChaosFault::NonConvergence) => {
                self.injected[0].fetch_add(1, Ordering::Relaxed);
                Err(Self::forced_error())
            }
            Some(ChaosFault::NanOutput) => {
                self.injected[1].fetch_add(1, Ordering::Relaxed);
                answer().map(|mut eval| {
                    eval.vout = Volts(f64::NAN);
                    eval
                })
            }
            None => answer(),
        }
    }
}

impl<E: Evaluator> Evaluator for ChaosEvaluator<E> {
    fn vout(&self, duties: &[DutyCycle], weights: &WeightVector) -> Result<Volts, CoreError> {
        let query = Query::new(duties.to_vec(), weights.clone())?;
        Ok(self.evaluate(&query)?.vout)
    }

    fn vdd(&self) -> Volts {
        self.inner.vdd()
    }

    fn tier(&self) -> Tier {
        self.inner.tier()
    }

    fn evaluate(&self, query: &Query) -> Result<Eval, CoreError> {
        let index = self.calls.fetch_add(1, Ordering::Relaxed);
        self.inject(chaos_fault_at(&self.config, index), || {
            self.inner.evaluate(query)
        })
    }

    fn evaluate_batch(&self, queries: &[Query]) -> Vec<Result<Eval, CoreError>> {
        // Reserve one injection index per query, then route the subset
        // that is not forced to fail through the inner batched path.
        let base = self
            .calls
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        let faults: Vec<Option<ChaosFault>> = (0..queries.len() as u64)
            .map(|i| chaos_fault_at(&self.config, base + i))
            .collect();
        let pass_queries: Vec<Query> = queries
            .iter()
            .zip(&faults)
            .filter(|(_, f)| **f != Some(ChaosFault::NonConvergence))
            .map(|(q, _)| q.clone())
            .collect();
        let mut computed = self.inner.evaluate_batch(&pass_queries).into_iter();
        faults
            .into_iter()
            .map(|fault| {
                self.inject(fault, || {
                    computed.next().expect("one result per passed query")
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::AnalyticEvaluator;

    #[test]
    fn chaos_schedule_is_pure_and_matches_wrapper() {
        let config = ChaosConfig {
            seed: 42,
            fail_rate: 0.2,
            nan_rate: 0.1,
        };
        let schedule: Vec<Option<ChaosFault>> =
            (0..200).map(|i| chaos_fault_at(&config, i)).collect();
        assert_eq!(
            schedule,
            (0..200)
                .map(|i| chaos_fault_at(&config, i))
                .collect::<Vec<_>>()
        );
        // Both faults occur at these rates over 200 draws.
        assert!(schedule.contains(&Some(ChaosFault::NonConvergence)));
        assert!(schedule.contains(&Some(ChaosFault::NanOutput)));
        assert!(schedule.contains(&None));

        let chaos = ChaosEvaluator::new(AnalyticEvaluator::paper(), config);
        let q = Query::from_raw(&[0.5, 0.5], &[7, 7], 3).unwrap();
        for expected in &schedule {
            let got = chaos.evaluate(&q);
            match expected {
                Some(ChaosFault::NonConvergence) => assert!(matches!(
                    got,
                    Err(CoreError::Simulation(mssim::Error::NonConvergence { .. }))
                )),
                Some(ChaosFault::NanOutput) => {
                    assert!(got.unwrap().vout.value().is_nan());
                }
                None => assert!(got.unwrap().vout.value().is_finite()),
            }
        }
        assert_eq!(chaos.calls(), 200);
    }

    #[test]
    fn chaos_batch_matches_single_schedule() {
        let config = ChaosConfig {
            seed: 7,
            fail_rate: 0.3,
            nan_rate: 0.1,
        };
        let qs: Vec<Query> = (0..50)
            .map(|i| Query::from_raw(&[i as f64 / 49.0, 0.5], &[7, 3], 3).unwrap())
            .collect();
        let single = ChaosEvaluator::new(AnalyticEvaluator::paper(), config);
        let singles: Vec<_> = qs.iter().map(|q| single.evaluate(q)).collect();
        let batch = ChaosEvaluator::new(AnalyticEvaluator::paper(), config);
        let batched = batch.evaluate_batch(&qs);
        for (s, b) in singles.iter().zip(&batched) {
            match (s, b) {
                (Ok(a), Ok(c)) => {
                    assert!(
                        a.vout == c.vout || (a.vout.value().is_nan() && c.vout.value().is_nan())
                    );
                }
                (Err(_), Err(_)) => {}
                other => panic!("schedule mismatch: {other:?}"),
            }
        }
        assert_eq!(single.injected(), batch.injected());
    }

    #[test]
    fn quiet_chaos_is_transparent() {
        let chaos = ChaosEvaluator::new(AnalyticEvaluator::paper(), ChaosConfig::quiet(1));
        let clean = AnalyticEvaluator::paper();
        let q = Query::from_raw(&[0.25, 0.75], &[7, 7], 3).unwrap();
        assert_eq!(
            chaos.evaluate(&q).unwrap().vout,
            clean.evaluate(&q).unwrap().vout
        );
        assert_eq!(chaos.injected(), [0, 0]);
    }
}
