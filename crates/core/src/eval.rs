//! Weighted-adder evaluators.
//!
//! The perceptron's forward pass — duty cycles × weights → output voltage
//! — can be computed at three fidelities, all implementing [`Evaluator`]:
//!
//! | Evaluator | Model | Cost per call | Use for |
//! |---|---|---|---|
//! | [`AnalyticEvaluator`] | paper Eq. 2 | ~ns | training, sanity |
//! | [`SwitchLevelEvaluator`] | periodic-steady-state switch model | ~µs | training with hardware effects, Monte Carlo |
//! | [`CircuitEvaluator`] | transistor-level transient ([`mssim`]), limited MOS mode | ~5–8 ms (50 MHz, 0.5 pF) to ~0.1 s (paper's 500 MHz, 10 pF) | reference measurements (Table II) |
//!
//! The tiers agree within a few per cent (verified by tests and the
//! `xval` experiment); the differences *are* the hardware effects the
//! paper discusses (on-resistance asymmetry, edge ramps, square-law
//! nonlinearity). The circuit tier's limited-mode transients stay within
//! 1.3e-6 V of exact mode on every measured adder fixture, far inside
//! those differences.

use std::cell::RefCell;
use std::collections::HashMap;

use mssim::prelude::{Hertz, RescuePolicy, Volts};
use pwmcell::{analytic, AdderSpec, AdderTestbench, PwmNode, SimQuality, Technology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::duty::DutyCycle;
use crate::error::CoreError;
use crate::infer::{Eval, Query, Tier, ANALYTIC_ERROR_BOUND};
use crate::weight::WeightVector;

/// Computes the weighted-adder output voltage for a set of PWM inputs.
///
/// Implementations must be deterministic for the same inputs unless they
/// explicitly model noise (see [`NoisyEvaluator`]).
///
/// The serving surface is [`Evaluator::evaluate`] /
/// [`Evaluator::evaluate_batch`] over [`Query`]/[`Eval`]; `vout` remains
/// as the low-level single-shot entry point the defaults are built on.
/// Implementations override `evaluate_batch` where amortization exists —
/// the circuit tier reuses one prepared testbench per weight vector and
/// fans measurements over the work-stealing sweep driver.
pub trait Evaluator {
    /// Average output voltage for the given duty cycles and weights.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `duties` and `weights`
    /// differ in length, or [`CoreError::Simulation`] if an underlying
    /// circuit simulation fails.
    fn vout(&self, duties: &[DutyCycle], weights: &WeightVector) -> Result<Volts, CoreError>;

    /// The supply voltage this evaluator models (needed to resolve
    /// ratiometric references).
    fn vdd(&self) -> Volts;

    /// The fidelity tier this evaluator answers at.
    fn tier(&self) -> Tier {
        Tier::Analytic
    }

    /// Answers one [`Query`].
    ///
    /// # Errors
    ///
    /// As for [`Evaluator::vout`].
    fn evaluate(&self, query: &Query) -> Result<Eval, CoreError> {
        Ok(Eval {
            vout: self.vout(query.duties(), query.weights())?,
            tier: self.tier(),
            cached: false,
            degraded: false,
            error_bound: 0.0,
        })
    }

    /// Answers a batch of queries, one result per query in order.
    ///
    /// The default maps [`Evaluator::evaluate`] sequentially; tiers with
    /// per-batch amortization or internal parallelism override it.
    fn evaluate_batch(&self, queries: &[Query]) -> Vec<Result<Eval, CoreError>> {
        queries.iter().map(|q| self.evaluate(q)).collect()
    }
}

fn check_dims(duties: &[DutyCycle], weights: &WeightVector) -> Result<(), CoreError> {
    if duties.len() != weights.len() {
        return Err(CoreError::DimensionMismatch {
            expected: weights.len(),
            got: duties.len(),
        });
    }
    Ok(())
}

/// The paper's Eq. 2 — the ideal, instantaneous model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticEvaluator {
    vdd: Volts,
}

impl AnalyticEvaluator {
    /// Eq. 2 at an arbitrary supply.
    pub fn new(vdd: Volts) -> Self {
        AnalyticEvaluator { vdd }
    }

    /// Eq. 2 at the paper's 2.5 V.
    pub fn paper() -> Self {
        AnalyticEvaluator::new(Volts(2.5))
    }
}

impl Evaluator for AnalyticEvaluator {
    fn vout(&self, duties: &[DutyCycle], weights: &WeightVector) -> Result<Volts, CoreError> {
        check_dims(duties, weights)?;
        let v = analytic::adder_vout(
            self.vdd.value(),
            &DutyCycle::to_raw(duties),
            weights.as_slice(),
            weights.bits(),
        );
        Ok(Volts(v))
    }

    fn vdd(&self) -> Volts {
        self.vdd
    }
}

/// The switch-level periodic-steady-state model — fast enough for
/// hardware-in-the-loop training, faithful to on-resistance effects.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchLevelEvaluator {
    tech: Technology,
    frequency: Hertz,
    vdd: Volts,
}

impl SwitchLevelEvaluator {
    /// Evaluator at the technology's default supply and frequency.
    pub fn new(tech: Technology) -> Self {
        let frequency = tech.frequency;
        let vdd = tech.vdd;
        SwitchLevelEvaluator {
            tech,
            frequency,
            vdd,
        }
    }

    /// The paper's Table I technology.
    pub fn paper() -> Self {
        Self::new(Technology::umc65_like())
    }

    /// Overrides the supply voltage.
    pub fn with_vdd(mut self, vdd: Volts) -> Self {
        self.vdd = vdd;
        self
    }

    /// Overrides the PWM frequency.
    pub fn with_frequency(mut self, frequency: Hertz) -> Self {
        self.frequency = frequency;
        self
    }

    /// The underlying technology.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }
}

impl Evaluator for SwitchLevelEvaluator {
    fn vout(&self, duties: &[DutyCycle], weights: &WeightVector) -> Result<Volts, CoreError> {
        check_dims(duties, weights)?;
        let node = PwmNode::weighted_adder(
            &self.tech,
            &DutyCycle::to_raw(duties),
            weights.as_slice(),
            weights.bits(),
            self.frequency.value(),
            self.vdd.value(),
            self.tech.cout_adder.value(),
        );
        Ok(Volts(node.steady_state_average()))
    }

    fn vdd(&self) -> Volts {
        self.vdd
    }

    fn tier(&self) -> Tier {
        Tier::SwitchLevel
    }

    fn evaluate_batch(&self, queries: &[Query]) -> Vec<Result<Eval, CoreError>> {
        // The PSS model is pure computation — fan it over the sweep
        // driver's worker pool.
        mssim::sweep::sweep(queries, |q, _| self.evaluate(q))
    }
}

/// The transistor-level reference: builds the full Fig. 3 adder and runs
/// an [`mssim`] transient for every evaluation, through
/// [`AdderTestbench`]. Slow but authoritative: the testbench evaluates
/// MOSFETs in limited mode at its latency band (reltol 2.5e-3, abstol
/// 1.25e-4), whose worst measured deviation from exact mode on an adder
/// is 1.3e-6 V (9e-8 V on the paper's Table II rows). At
/// [`SimQuality::fast`] a call costs about 5–8 ms on a 50 MHz, 0.5 pF
/// technology and 0.12 s on the paper's, half to two thirds of exact
/// mode.
///
/// With [`CircuitEvaluator::with_rescue`], transient solver trouble is
/// first handled by the solver's own rescue ladder; a run that still ends
/// early is served as a *degraded* answer (averaged over the clamped
/// window, flagged [`Eval::degraded`] with the analytic error bound)
/// instead of an error — the measurement that exists beats no measurement.
#[derive(Debug, Clone)]
pub struct CircuitEvaluator {
    tech: Technology,
    quality: SimQuality,
    frequency: Hertz,
    vdd: Volts,
    rescue: Option<RescuePolicy>,
}

impl CircuitEvaluator {
    /// Evaluator at the technology's defaults with the given simulation
    /// quality.
    pub fn new(tech: Technology, quality: SimQuality) -> Self {
        let frequency = tech.frequency;
        let vdd = tech.vdd;
        CircuitEvaluator {
            tech,
            quality,
            frequency,
            vdd,
            rescue: None,
        }
    }

    /// Overrides the supply voltage.
    pub fn with_vdd(mut self, vdd: Volts) -> Self {
        self.vdd = vdd;
        self
    }

    /// Overrides the PWM frequency.
    pub fn with_frequency(mut self, frequency: Hertz) -> Self {
        self.frequency = frequency;
        self
    }

    /// Enables the transient rescue ladder: partially-rescued runs are
    /// served as degraded answers instead of errors.
    pub fn with_rescue(mut self, policy: RescuePolicy) -> Self {
        self.rescue = Some(policy);
        self
    }

    /// Maps a rescued measurement to an [`Eval`]: a partial rescue is a
    /// degraded circuit answer carrying the analytic bound (the loosest
    /// certified bound — the clamped-window average is at least as close
    /// to the true steady state as the closed form is).
    fn rescued_eval(m: pwmcell::RescuedAdderMeasurement) -> Eval {
        Eval {
            vout: m.measurement.vout,
            tier: Tier::Circuit,
            cached: false,
            degraded: m.partial,
            error_bound: if m.partial { ANALYTIC_ERROR_BOUND } else { 0.0 },
        }
    }
}

impl Evaluator for CircuitEvaluator {
    fn vout(&self, duties: &[DutyCycle], weights: &WeightVector) -> Result<Volts, CoreError> {
        check_dims(duties, weights)?;
        let spec = AdderSpec::new(weights.len(), weights.bits());
        let tb = AdderTestbench::new(&self.tech, spec);
        let m = tb.measure_at(
            &DutyCycle::to_raw(duties),
            weights.as_slice(),
            self.frequency,
            self.vdd,
            &self.quality,
        )?;
        Ok(m.vout)
    }

    fn vdd(&self) -> Volts {
        self.vdd
    }

    fn tier(&self) -> Tier {
        Tier::Circuit
    }

    fn evaluate(&self, query: &Query) -> Result<Eval, CoreError> {
        check_dims(query.duties(), query.weights())?;
        let weights = query.weights();
        let spec = AdderSpec::new(weights.len(), weights.bits());
        let tb = AdderTestbench::new(&self.tech, spec);
        let runner = tb.batch_runner(weights.as_slice(), self.frequency, self.vdd, &self.quality);
        let duties = DutyCycle::to_raw(query.duties());
        let m = runner.measure_rescued(&duties, self.rescue.as_ref())?;
        Ok(Self::rescued_eval(m))
    }

    fn evaluate_batch(&self, queries: &[Query]) -> Vec<Result<Eval, CoreError>> {
        // Group query indices by weight vector so netlist construction
        // and transient planning are paid once per group; each group's
        // duty vectors then fan over the sweep driver against one
        // prepared runner (bitwise identical to measure_at).
        let mut groups: HashMap<(Vec<u32>, u32), Vec<usize>> = HashMap::new();
        for (i, q) in queries.iter().enumerate() {
            groups
                .entry((q.weights().as_slice().to_vec(), q.weights().bits()))
                .or_default()
                .push(i);
        }
        let mut out: Vec<Option<Result<Eval, CoreError>>> = vec![None; queries.len()];
        for ((weights, bits), indices) in groups {
            let spec = AdderSpec::new(weights.len(), bits);
            let tb = AdderTestbench::new(&self.tech, spec);
            let runner = tb.batch_runner(&weights, self.frequency, self.vdd, &self.quality);
            let duty_sets: Vec<Vec<f64>> = indices
                .iter()
                .map(|&i| DutyCycle::to_raw(queries[i].duties()))
                .collect();
            let measured = mssim::sweep::sweep(&duty_sets, |d, _| {
                runner.measure_rescued(d, self.rescue.as_ref())
            });
            for (&i, m) in indices.iter().zip(measured) {
                out[i] = Some(m.map(Self::rescued_eval).map_err(CoreError::from));
            }
        }
        out.into_iter()
            .map(|r| {
                r.unwrap_or(Err(CoreError::Internal {
                    reason: "circuit batch grouping left a query unanswered",
                }))
            })
            .collect()
    }
}

/// Wraps any evaluator with additive Gaussian output noise — models
/// comparator input noise and residual ripple for robustness studies.
///
/// Deterministic for a given seed. Single-shot calls draw from one
/// sequential RNG stream (interior mutability, so the wrapper is not
/// `Sync`; clone per thread for parallel sweeps). Batched calls instead
/// derive an independent RNG per query index via the sweep driver's
/// SplitMix64 hash, so [`Evaluator::evaluate_batch`] is order-invariant
/// and bitwise-reproducible across worker counts.
#[derive(Debug)]
pub struct NoisyEvaluator<E> {
    inner: E,
    sigma: f64,
    seed: u64,
    rng: RefCell<StdRng>,
}

impl<E: Evaluator> NoisyEvaluator<E> {
    /// Adds zero-mean Gaussian noise of standard deviation `sigma` volts.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(inner: E, sigma: f64, seed: u64) -> Self {
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "noise sigma must be non-negative"
        );
        NoisyEvaluator {
            inner,
            sigma,
            seed,
            rng: RefCell::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// The wrapped evaluator.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Box–Muller: two uniforms → one normal deviate.
    fn gauss(rng: &mut StdRng) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl<E: Evaluator> Evaluator for NoisyEvaluator<E> {
    fn vout(&self, duties: &[DutyCycle], weights: &WeightVector) -> Result<Volts, CoreError> {
        let clean = self.inner.vout(duties, weights)?;
        let z = Self::gauss(&mut self.rng.borrow_mut());
        Ok(Volts(clean.value() + self.sigma * z))
    }

    fn vdd(&self) -> Volts {
        self.inner.vdd()
    }

    fn tier(&self) -> Tier {
        self.inner.tier()
    }

    fn evaluate_batch(&self, queries: &[Query]) -> Vec<Result<Eval, CoreError>> {
        // Per-query seeding on (base seed, index) keeps the batch
        // deterministic regardless of evaluation order or worker count —
        // the sequential `vout` stream is deliberately not consumed.
        self.inner
            .evaluate_batch(queries)
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.map(|e| {
                    let mut rng = mssim::sweep::trial_rng(self.seed, i);
                    Eval {
                        vout: Volts(e.vout.value() + self.sigma * Self::gauss(&mut rng)),
                        ..e
                    }
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn duties(raw: &[f64]) -> Vec<DutyCycle> {
        raw.iter().map(|&d| DutyCycle::new(d)).collect()
    }

    #[test]
    fn analytic_matches_eq2_rows() {
        let e = AnalyticEvaluator::paper();
        let w = WeightVector::new(vec![7, 7, 7], 3).unwrap();
        let v = e.vout(&duties(&[0.7, 0.8, 0.9]), &w).unwrap();
        assert!((v.value() - 2.0).abs() < 0.01);
        assert_eq!(e.vdd(), Volts(2.5));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let e = AnalyticEvaluator::paper();
        let w = WeightVector::new(vec![7, 7, 7], 3).unwrap();
        let err = e.vout(&duties(&[0.5]), &w).unwrap_err();
        assert!(matches!(
            err,
            CoreError::DimensionMismatch {
                expected: 3,
                got: 1
            }
        ));
    }

    #[test]
    fn switch_level_agrees_with_analytic_within_tolerance() {
        let analytic = AnalyticEvaluator::paper();
        let switch = SwitchLevelEvaluator::paper();
        let w = WeightVector::new(vec![5, 6, 7], 3).unwrap();
        let d = duties(&[0.2, 0.6, 0.8]);
        let va = analytic.vout(&d, &w).unwrap().value();
        let vs = switch.vout(&d, &w).unwrap().value();
        assert!((va - vs).abs() < 0.05, "analytic {va:.4} vs switch {vs:.4}");
    }

    #[test]
    fn switch_level_vdd_override() {
        let e = SwitchLevelEvaluator::paper().with_vdd(Volts(1.5));
        let w = WeightVector::maxed(3, 3);
        let d = duties(&[1.0, 1.0, 1.0]);
        let v = e.vout(&d, &w).unwrap().value();
        assert!((v - 1.5).abs() < 0.01, "v = {v}");
        assert_eq!(e.vdd(), Volts(1.5));
    }

    #[test]
    fn evaluators_are_object_safe() {
        let evals: Vec<Box<dyn Evaluator>> = vec![
            Box::new(AnalyticEvaluator::paper()),
            Box::new(SwitchLevelEvaluator::paper()),
        ];
        let w = WeightVector::new(vec![4, 4], 3).unwrap();
        let d = duties(&[0.5, 0.5]);
        for e in &evals {
            let v = e.vout(&d, &w).unwrap().value();
            // Eq.2: 2.5·(0.5·4 + 0.5·4)/(2·7) ≈ 0.714.
            assert!((v - 0.714).abs() < 0.05, "v = {v}");
        }
    }

    #[test]
    fn noisy_evaluator_is_seed_deterministic_and_unbiased() {
        let w = WeightVector::new(vec![7], 3).unwrap();
        let d = duties(&[0.5]);
        let mk = |seed| NoisyEvaluator::new(AnalyticEvaluator::paper(), 0.05, seed);
        let a: Vec<f64> = (0..50)
            .map(|_| mk(1).vout(&d, &w).unwrap().value())
            .collect();
        // Same seed, fresh instance → same first draw.
        let b = mk(1).vout(&d, &w).unwrap().value();
        assert_eq!(a[0], b);
        // Different draws differ.
        let e = mk(2);
        let x1 = e.vout(&d, &w).unwrap().value();
        let x2 = e.vout(&d, &w).unwrap().value();
        assert_ne!(x1, x2);
        // Mean near the clean value.
        let e = mk(3);
        let n = 2000;
        let mean: f64 = (0..n).map(|_| e.vout(&d, &w).unwrap().value()).sum::<f64>() / n as f64;
        let clean = AnalyticEvaluator::paper().vout(&d, &w).unwrap().value();
        assert!((mean - clean).abs() < 0.01, "mean {mean} vs clean {clean}");
    }

    #[test]
    fn noise_sigma_zero_is_clean() {
        let e = NoisyEvaluator::new(AnalyticEvaluator::paper(), 0.0, 9);
        let w = WeightVector::new(vec![7], 3).unwrap();
        let d = duties(&[0.4]);
        let clean = AnalyticEvaluator::paper().vout(&d, &w).unwrap();
        assert_eq!(e.vout(&d, &w).unwrap(), clean);
        assert_eq!(e.inner().vdd(), Volts(2.5));
    }
}
