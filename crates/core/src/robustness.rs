//! Robustness under parametric variation — the paper's "Robust" claim.
//!
//! The paper validates resilience against amplitude and frequency
//! variation; a 65 nm fabrication additionally brings device mismatch
//! (threshold-voltage and geometry sigma). This module provides
//! Monte-Carlo machinery at two fidelities:
//!
//! * **global corners** on the [`Technology`] (fast, switch-level), and
//! * **per-device perturbation** of an elaborated [`mssim::Circuit`]
//!   (transistor-level, used by the `repro mc` experiment).

use mssim::elements::Element;
use mssim::prelude::Circuit;
use mssim::sweep;
use pwmcell::{PwmNode, Technology};
use rand::rngs::StdRng;
use rand::Rng;

use crate::eval::{Evaluator, SwitchLevelEvaluator};
use crate::infer::Query;

/// Standard deviations of the varied parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSpec {
    /// Threshold-voltage sigma in volts (absolute).
    pub vth_sigma: f64,
    /// Relative width sigma (fraction of nominal).
    pub width_sigma_rel: f64,
    /// Relative resistor sigma (fraction of nominal).
    pub rout_sigma_rel: f64,
}

impl VariationSpec {
    /// Representative mismatch for large (1.2 µm) devices in a 65 nm bulk
    /// process: σ(Vth) = 30 mV, σ(W)/W = 3 %, σ(R)/R = 5 %.
    pub fn typical_65nm() -> Self {
        VariationSpec {
            vth_sigma: 0.03,
            width_sigma_rel: 0.03,
            rout_sigma_rel: 0.05,
        }
    }

    /// No variation (for A/B testing the MC machinery itself).
    pub fn none() -> Self {
        VariationSpec {
            vth_sigma: 0.0,
            width_sigma_rel: 0.0,
            rout_sigma_rel: 0.0,
        }
    }
}

/// One standard normal deviate (Box–Muller).
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a global process corner: every parameter of the technology
/// shifted by one correlated draw (all N devices move together, ditto P).
pub fn perturbed_technology(
    tech: &Technology,
    spec: &VariationSpec,
    rng: &mut StdRng,
) -> Technology {
    let mut t = tech.clone();
    t.nmos = t
        .nmos
        .with_vth0((t.nmos.vth0 + spec.vth_sigma * gauss(rng)).max(0.05));
    t.pmos = t
        .pmos
        .with_vth0((t.pmos.vth0 + spec.vth_sigma * gauss(rng)).max(0.05));
    t.nmos.w *= (1.0 + spec.width_sigma_rel * gauss(rng)).max(0.2);
    t.pmos.w *= (1.0 + spec.width_sigma_rel * gauss(rng)).max(0.2);
    t.rout = t.rout * (1.0 + spec.rout_sigma_rel * gauss(rng)).max(0.2);
    t
}

/// Applies **independent per-device** mismatch to every MOSFET and
/// resistor of an elaborated circuit — local variation, the harder test.
pub fn perturb_circuit(circuit: &mut Circuit, spec: &VariationSpec, rng: &mut StdRng) {
    let ids: Vec<_> = circuit.elements().map(|(id, _, _)| id).collect();
    for id in ids {
        match circuit.element(id) {
            Element::Mosfet { params, .. } => {
                let mut p = *params;
                p = p.with_vth0((p.vth0 + spec.vth_sigma * gauss(rng)).max(0.05));
                p.w *= (1.0 + spec.width_sigma_rel * gauss(rng)).max(0.2);
                circuit.set_mos_params(id, p).expect("element is a mosfet");
            }
            Element::Resistor { ohms, .. } => {
                let r = *ohms * (1.0 + spec.rout_sigma_rel * gauss(rng)).max(0.2);
                circuit
                    .set_resistance(id, r)
                    .expect("element is a resistor");
            }
            _ => {}
        }
    }
}

/// Summary statistics of a Monte-Carlo sample.
#[derive(Debug, Clone, PartialEq)]
pub struct McSummary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1).
    pub std: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// The raw observations.
    pub samples: Vec<f64>,
}

impl McSummary {
    /// Computes the summary, or `None` when `samples` is empty — the
    /// total function behind [`McSummary::from_samples`], for callers
    /// (fault campaigns, filtered MC paths) whose sample sets can
    /// legitimately come up empty.
    pub fn try_from_samples(samples: Vec<f64>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(McSummary {
            mean,
            std: var.sqrt(),
            min,
            max,
            samples,
        })
    }

    /// Computes the summary.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        Self::try_from_samples(samples).expect("need at least one sample")
    }

    /// Relative spread `std/mean` (coefficient of variation).
    pub fn relative_std(&self) -> f64 {
        if self.mean.abs() < 1e-30 {
            0.0
        } else {
            self.std / self.mean.abs()
        }
    }
}

/// Monte-Carlo distribution of the weighted-adder output voltage under
/// global process corners. Each trial draws a perturbed [`Technology`]
/// and answers the query through a [`SwitchLevelEvaluator`] — the same
/// [`Evaluator`] surface the serving engine uses, so the distribution is
/// exactly what a deployed classifier would see. Deterministic in `seed`;
/// trials run in parallel.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn switch_corner_monte_carlo(
    tech: &Technology,
    query: &Query,
    spec: &VariationSpec,
    trials: usize,
    seed: u64,
) -> McSummary {
    assert!(trials > 0, "need at least one trial");
    let samples = sweep::monte_carlo(trials, seed, |rng, _| corner_vout(tech, query, spec, rng));
    McSummary::try_from_samples(samples).expect("trials > 0 yields samples")
}

/// [`switch_corner_monte_carlo`] with telemetry: per-trial wall times,
/// worker indices and steal counts are delivered to `observer` via
/// [`mssim::sweep::monte_carlo_observed`]. The sample distribution is
/// identical to the unobserved version with the same seed.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn switch_corner_monte_carlo_observed(
    tech: &Technology,
    query: &Query,
    spec: &VariationSpec,
    trials: usize,
    seed: u64,
    observer: &mut dyn mssim::telemetry::Observer,
) -> McSummary {
    assert!(trials > 0, "need at least one trial");
    let samples = sweep::monte_carlo_observed(trials, seed, observer, |rng, _| {
        corner_vout(tech, query, spec, rng)
    });
    McSummary::try_from_samples(samples).expect("trials > 0 yields samples")
}

/// One corner draw evaluated through the trait surface.
fn corner_vout(tech: &Technology, query: &Query, spec: &VariationSpec, rng: &mut StdRng) -> f64 {
    let t = perturbed_technology(tech, spec, rng);
    SwitchLevelEvaluator::new(t)
        .vout(query.duties(), query.weights())
        .expect("query dimensions are validated at construction")
        .value()
}

/// Output voltage across a frequency sweep (switch-level) — supports the
/// paper's statement that Table II is unaffected from 1 MHz to 1 GHz.
pub fn vout_vs_frequency(
    tech: &Technology,
    duties: &[f64],
    weights: &[u32],
    bits: u32,
    frequencies: &[f64],
) -> Vec<(f64, f64)> {
    frequencies
        .iter()
        .map(|&f| {
            let v = PwmNode::weighted_adder(
                tech,
                duties,
                weights,
                bits,
                f,
                tech.vdd.value(),
                tech.cout_adder.value(),
            )
            .steady_state_average();
            (f, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn summary_statistics() {
        let s = McSummary::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(s.relative_std() > 0.0);
    }

    #[test]
    fn try_from_samples_owns_the_empty_case() {
        assert!(McSummary::try_from_samples(Vec::new()).is_none());
        let s = McSummary::try_from_samples(vec![2.0]).unwrap();
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std, 0.0);
    }

    fn query(duties: &[f64], weights: &[u32]) -> Query {
        Query::from_raw(duties, weights, 3).unwrap()
    }

    #[test]
    fn zero_variation_gives_zero_spread() {
        let tech = Technology::umc65_like();
        let q = query(&[0.5, 0.5, 0.5], &[7, 7, 7]);
        let s = switch_corner_monte_carlo(&tech, &q, &VariationSpec::none(), 16, 1);
        assert!(s.std < 1e-12, "std = {}", s.std);
    }

    #[test]
    fn variation_spreads_but_mean_stays_near_nominal() {
        let tech = Technology::umc65_like();
        let duties = [0.2, 0.6, 0.8];
        let weights = [5, 6, 7];
        let nominal = PwmNode::weighted_adder(
            &tech,
            &duties,
            &weights,
            3,
            tech.frequency.value(),
            tech.vdd.value(),
            tech.cout_adder.value(),
        )
        .steady_state_average();
        let s = switch_corner_monte_carlo(
            &tech,
            &query(&duties, &weights),
            &VariationSpec::typical_65nm(),
            64,
            7,
        );
        assert!(s.std > 1e-4, "mismatch must spread the output");
        assert!(
            (s.mean - nominal).abs() < 0.05,
            "mean {} vs nominal {nominal}",
            s.mean
        );
        // The headline robustness: spread stays small (a few per cent).
        assert!(s.relative_std() < 0.05, "cv = {}", s.relative_std());
    }

    #[test]
    fn monte_carlo_is_seed_deterministic() {
        let tech = Technology::umc65_like();
        let spec = VariationSpec::typical_65nm();
        let q = query(&[0.5], &[7]);
        let a = switch_corner_monte_carlo(&tech, &q, &spec, 8, 3);
        let b = switch_corner_monte_carlo(&tech, &q, &spec, 8, 3);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn observed_monte_carlo_matches_and_counts_trials() {
        use mssim::telemetry::MemoryRecorder;
        let tech = Technology::umc65_like();
        let spec = VariationSpec::typical_65nm();
        let q = query(&[0.5], &[7]);
        let plain = switch_corner_monte_carlo(&tech, &q, &spec, 8, 3);
        let mut rec = MemoryRecorder::new();
        let observed = switch_corner_monte_carlo_observed(&tech, &q, &spec, 8, 3, &mut rec);
        assert_eq!(plain.samples, observed.samples);
        assert_eq!(rec.counter_value("sweep.points"), 8);
        assert_eq!(rec.histogram_values("sweep.wall_ns").len(), 8);
    }

    #[test]
    fn per_device_perturbation_touches_all_devices() {
        use mssim::prelude::*;
        let tech = Technology::umc65_like();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
        let adder = pwmcell::WeightedAdder::build(
            &mut ckt,
            &tech,
            "a",
            vdd,
            &[7, 7, 7],
            pwmcell::AdderSpec::paper_3x3(),
        );
        let before: Vec<f64> = ckt
            .elements()
            .filter_map(|(_, _, e)| match e {
                Element::Mosfet { params, .. } => Some(params.vth0),
                _ => None,
            })
            .collect();
        assert_eq!(before.len(), adder.transistor_count());
        let mut rng = StdRng::seed_from_u64(11);
        perturb_circuit(&mut ckt, &VariationSpec::typical_65nm(), &mut rng);
        let after: Vec<f64> = ckt
            .elements()
            .filter_map(|(_, _, e)| match e {
                Element::Mosfet { params, .. } => Some(params.vth0),
                _ => None,
            })
            .collect();
        let changed = before
            .iter()
            .zip(&after)
            .filter(|(b, a)| (*b - *a).abs() > 1e-9)
            .count();
        assert_eq!(changed, before.len(), "every device perturbed");
        // And the perturbations are device-local (not all equal).
        let deltas: Vec<f64> = before.iter().zip(&after).map(|(b, a)| a - b).collect();
        assert!(deltas.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9));
    }

    #[test]
    fn frequency_sweep_is_flat() {
        let tech = Technology::umc65_like();
        let pts = vout_vs_frequency(
            &tech,
            &[0.2, 0.6, 0.8],
            &[5, 6, 7],
            3,
            &[1e6, 10e6, 100e6, 1e9],
        );
        let lo = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let hi = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        assert!(hi - lo < 0.03, "spread {} over frequency", hi - lo);
    }
}
