//! # pwm-perceptron — a power-elastic mixed-signal perceptron
//!
//! Library reproduction of *"A Pulse Width Modulation based Power-elastic
//! and Robust Mixed-signal Perceptron Design"* (Mileiko, Shafik, Yakovlev,
//! Edwards — DATE 2019). The perceptron performs its multiply–accumulate
//! in the **temporal domain**: inputs are encoded as PWM duty cycles,
//! weights are small integers that enable binary-scaled AND cells, and the
//! weighted sum appears as the average voltage on a shared capacitor
//! (paper Eq. 2). Because a duty cycle survives supply-amplitude and
//! frequency variation unharmed, the resulting classifier keeps working
//! from unregulated energy-harvesting supplies — it is *power-elastic*.
//!
//! ## Layers
//!
//! * [`DutyCycle`], [`WeightVector`], [`encode`] — the temporal encoding.
//! * [`eval`] — three interchangeable evaluators for the weighted adder:
//!   [`eval::AnalyticEvaluator`] (paper Eq. 2, instant),
//!   [`eval::SwitchLevelEvaluator`] (periodic-steady-state switch model,
//!   microseconds), and [`eval::CircuitEvaluator`] (full transistor-level
//!   transient on [`mssim`], the reference) — all behind one
//!   [`eval::Evaluator`] trait with batched entry points.
//! * [`infer`] — the batched inference engine: tiered dispatch over the
//!   evaluators, a duty-quantized memo cache, the tier-demotion ladder
//!   that answers a failed query from a cheaper tier, and serving
//!   telemetry.
//! * [`PwmPerceptron`] / [`DifferentialPerceptron`] — classification with
//!   a comparator against an absolute or ratiometric reference.
//! * [`train`] — hardware-in-the-loop integer perceptron learning
//!   (pocket algorithm).
//! * [`elasticity`], [`robustness`], [`energy`] — the paper's power
//!   elasticity, parametric-variation and power analyses as reusable
//!   sweeps.
//! * [`dataset`] — synthetic micro-edge classification tasks.
//!
//! ## Quickstart
//!
//! ```
//! use pwm_perceptron::eval::AnalyticEvaluator;
//! use pwm_perceptron::{DutyCycle, PwmPerceptron, Reference, WeightVector};
//!
//! # fn main() -> Result<(), pwm_perceptron::CoreError> {
//! let evaluator = AnalyticEvaluator::paper(); // Eq. 2 at Vdd = 2.5 V
//! let weights = WeightVector::new(vec![7, 7, 7], 3)?;
//! let mut p = PwmPerceptron::new(evaluator, weights, Reference::ratiometric(0.5));
//! let x = [DutyCycle::new(0.9), DutyCycle::new(0.8), DutyCycle::new(0.7)];
//! assert!(p.classify(&x)?); // strong inputs, full weights → fires
//! let weak = [DutyCycle::new(0.1), DutyCycle::new(0.1), DutyCycle::new(0.2)];
//! assert!(!p.classify(&weak)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comparator;
pub mod dataset;
pub mod duty;
pub mod elasticity;
pub mod encode;
pub mod energy;
pub mod error;
pub mod eval;
pub mod faults;
pub mod infer;
pub mod layer;
pub mod metrics;
pub mod multiclass;
pub mod perceptron;
pub mod robustness;
pub mod train;
pub mod weight;

pub use comparator::Comparator;
pub use dataset::Dataset;
pub use duty::DutyCycle;
pub use error::CoreError;
pub use eval::Evaluator;
pub use faults::{
    switch_adder_campaign, switch_adder_campaign_observed, switch_adder_triage, CampaignConfig,
    CampaignReport, FaultClass, FaultOutcome, TriageReport, TriageRow, TriageStats,
};
pub use infer::{Eval, InferenceEngine, Query, ResilStats, Tier, TierPolicy};
pub use layer::{HardLayer, Mlp};
pub use multiclass::WtaClassifier;
pub use perceptron::{DifferentialPerceptron, PwmPerceptron, Reference};
pub use weight::{SignedWeightVector, WeightVector};

/// Curated re-exports — the stable serving surface in one `use`.
///
/// ```
/// use pwm_perceptron::prelude::*;
/// ```
pub mod prelude {
    pub use crate::comparator::Comparator;
    pub use crate::duty::DutyCycle;
    pub use crate::error::CoreError;
    pub use crate::eval::{
        AnalyticEvaluator, CircuitEvaluator, Evaluator, NoisyEvaluator, SwitchLevelEvaluator,
    };
    pub use crate::infer::{
        CacheStats, Eval, InferReport, InferenceEngine, MemoCache, Query, ResilStats, Tier,
        TierPolicy,
    };
    pub use crate::layer::{HardLayer, Mlp};
    pub use crate::multiclass::WtaClassifier;
    pub use crate::perceptron::{DifferentialPerceptron, PwmPerceptron, Reference};
    pub use crate::weight::{SignedWeightVector, WeightVector};
}
