//! `repro chaos` — deterministic fault-injection harness for the
//! inference engine's demotion ladder.
//!
//! Serves seeded query streams through an [`InferenceEngine`] whose
//! switch-level tier is wrapped in a [`ChaosEvaluator`] injecting
//! non-convergence and NaN outputs on a schedule that is a pure function
//! of `(seed, call index)`, so the whole [`ChaosReport`] is
//! bitwise-reproducible for a given [`ChaosHarnessConfig`].
//!
//! Two streams run per invocation:
//!
//! * **baseline** — the acceptance stream: 1 % forced non-convergence
//!   plus rare NaNs.
//! * **storm** — 60 % forced non-convergence plus 5 % NaNs.
//!
//! Every injected fault demotes its query to the analytic tier, which
//! serves it flagged `degraded`, so both streams must keep: availability
//! ≥ 99.9 %, zero panics, zero degraded answers outside their certified
//! bound, zero classification divergences on full-fidelity answers, and
//! exactly one degraded answer per injected fault in the single-query
//! pass. Every degraded answer is checked against a chaos-free reference
//! engine of identical configuration; cache-shard poisoning is injected
//! at intervals and must be recovered (counted, never fatal).
//! [`ChaosReport::violations`] holds those gates, and [`to_json`] renders
//! the standalone `results/CHAOS_mssim.json` document.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pwm_perceptron::prelude::*;

use crate::serve::{serve_tech, uniform_stream, ServeConfig};

/// Chaos-harness knobs. Everything that feeds the injection schedule
/// lives here, so two runs with equal configs produce equal
/// [`ChaosReport`]s.
#[derive(Debug, Clone, Copy)]
pub struct ChaosHarnessConfig {
    /// Queries per stream.
    pub queries: usize,
    /// Stream + injection-schedule seed.
    pub seed: u64,
    /// Memo-cache duty resolution (levels).
    pub resolution: u32,
    /// Poison one cache shard every this many queries (0 = never).
    pub poison_every: usize,
}

impl Default for ChaosHarnessConfig {
    fn default() -> Self {
        ChaosHarnessConfig {
            queries: 2_000,
            seed: 0xC4405,
            resolution: 16,
            poison_every: 251,
        }
    }
}

/// One injected-fault mix (a stream of the harness).
#[derive(Debug, Clone, Copy)]
pub struct FaultMix {
    /// Stream name (`baseline` or `storm`).
    pub stream: &'static str,
    /// Forced non-convergence probability per evaluator call.
    pub fail_rate: f64,
    /// NaN-output probability per evaluator call.
    pub nan_rate: f64,
}

/// The acceptance mix: a 1 % tier fault rate plus rare NaNs.
pub fn baseline_mix() -> FaultMix {
    FaultMix {
        stream: "baseline",
        fail_rate: 0.01,
        nan_rate: 0.002,
    }
}

/// The storm mix: a majority of calls fail, so most misses are served
/// by the analytic tier.
pub fn storm_mix() -> FaultMix {
    FaultMix {
        stream: "storm",
        fail_rate: 0.60,
        nan_rate: 0.05,
    }
}

/// Metrics for one chaos stream. Contains no wall-clock figures — every
/// field is a deterministic function of the harness config.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosStreamReport {
    /// Stream name.
    pub stream: &'static str,
    /// Injected fault mix.
    pub mix: FaultMixRates,
    /// Queries served single-shot.
    pub queries: usize,
    /// Fraction of queries answered `Ok` (degraded included).
    pub availability: f64,
    /// Degraded answers (served below the demanded tier).
    pub degraded: usize,
    /// `degraded / queries`.
    pub degraded_rate: f64,
    /// Largest `|served − reference|` across degraded answers, volts.
    pub max_degraded_error_v: f64,
    /// Degraded answers whose error exceeded their certified bound.
    pub bound_violations: usize,
    /// Classification disagreements vs the chaos-free reference engine
    /// on full-fidelity (non-degraded) answers.
    pub divergences: usize,
    /// Panics that escaped the serving path.
    pub panics: usize,
    /// Ladder demotions.
    pub demotions: u64,
    /// Poisoned cache shards recovered by the engine.
    pub lock_poisoned: u64,
    /// Cache-shard poisonings injected by the harness.
    pub poison_injected: usize,
    /// Forced non-convergence faults the chaos evaluator injected.
    pub injected_fail: u64,
    /// NaN faults injected.
    pub injected_nan: u64,
    /// Fraction of queries answered `Ok` by a fresh batched pass over
    /// the same stream.
    pub batch_availability: f64,
    /// Degraded answers in the batched pass.
    pub batch_degraded: usize,
}

/// The fault-mix rates echoed into the report (kept separate from
/// [`FaultMix`] so the report derives `PartialEq` cleanly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMixRates {
    /// Forced non-convergence probability.
    pub fail: f64,
    /// NaN-output probability.
    pub nan: f64,
}

/// Full `repro chaos` result.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// The 1 % acceptance stream.
    pub baseline: ChaosStreamReport,
    /// The 60 % storm stream.
    pub storm: ChaosStreamReport,
}

impl ChaosReport {
    /// Acceptance-gate violations; an empty list means the run passes.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for s in [&self.baseline, &self.storm] {
            if s.availability < 0.999 {
                v.push(format!(
                    "{}: availability {:.4} < 0.999",
                    s.stream, s.availability
                ));
            }
            if s.batch_availability < 0.999 {
                v.push(format!(
                    "{}: batched availability {:.4} < 0.999",
                    s.stream, s.batch_availability
                ));
            }
            if s.panics > 0 {
                v.push(format!(
                    "{}: {} panic(s) escaped serving",
                    s.stream, s.panics
                ));
            }
            if s.bound_violations > 0 {
                v.push(format!(
                    "{}: {} degraded answer(s) outside the certified bound (max error {:.4} V)",
                    s.stream, s.bound_violations, s.max_degraded_error_v
                ));
            }
            if s.divergences > 0 {
                v.push(format!(
                    "{}: {} classification divergence(s) on full-fidelity answers",
                    s.stream, s.divergences
                ));
            }
            if s.poison_injected > 0 && s.lock_poisoned == 0 {
                v.push(format!(
                    "{}: {} shard poisonings injected but none recovered",
                    s.stream, s.poison_injected
                ));
            }
            // Each injected fault fails one tier call, which the ladder
            // must answer from the analytic tier: one degraded answer per
            // fault, and none without one.
            let injected = s.injected_fail + s.injected_nan;
            if s.degraded as u64 != injected {
                v.push(format!(
                    "{}: {} degraded answer(s) for {} injected fault(s)",
                    s.stream, s.degraded, injected
                ));
            }
        }
        if self.storm.injected_fail + self.storm.injected_nan == 0 {
            v.push("storm: no fault injected — the storm is not a storm".to_string());
        }
        v
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Shares one [`ChaosEvaluator`] between the engine (which consumes its
/// evaluators) and the harness (which reads the injection counters after
/// the run).
#[derive(Debug)]
struct SharedChaos(Arc<ChaosEvaluator<SwitchLevelEvaluator>>);

impl pwm_perceptron::Evaluator for SharedChaos {
    fn vout(
        &self,
        duties: &[DutyCycle],
        weights: &WeightVector,
    ) -> Result<mssim::units::Volts, CoreError> {
        self.0.vout(duties, weights)
    }

    fn vdd(&self) -> mssim::units::Volts {
        self.0.vdd()
    }

    fn tier(&self) -> Tier {
        Tier::SwitchLevel
    }

    fn evaluate(&self, query: &Query) -> Result<Eval, CoreError> {
        self.0.evaluate(query)
    }

    fn evaluate_batch(&self, queries: &[Query]) -> Vec<Result<Eval, CoreError>> {
        self.0.evaluate_batch(queries)
    }
}

struct StreamRig {
    engine: InferenceEngine,
    chaos: Arc<ChaosEvaluator<SwitchLevelEvaluator>>,
}

fn rig(config: &ChaosHarnessConfig, mix: &FaultMix, salt: u64) -> StreamRig {
    let tech = serve_tech();
    let chaos = Arc::new(ChaosEvaluator::new(
        SwitchLevelEvaluator::new(tech.clone()),
        ChaosConfig {
            seed: config.seed ^ salt,
            fail_rate: mix.fail_rate,
            nan_rate: mix.nan_rate,
        },
    ));
    let engine = InferenceEngine::new(tech.vdd)
        .with_switch_tier(SharedChaos(chaos.clone()))
        .with_policy(TierPolicy::switch_level())
        .with_cache(config.resolution, 1 << 16);
    StreamRig { engine, chaos }
}

/// The chaos-free reference: identical tiers, policy and cache, no
/// injection (a fault here is a harness bug).
fn reference_engine(config: &ChaosHarnessConfig) -> InferenceEngine {
    let tech = serve_tech();
    InferenceEngine::new(tech.vdd)
        .with_switch_tier(SwitchLevelEvaluator::new(tech))
        .with_policy(TierPolicy::switch_level())
        .with_cache(config.resolution, 1 << 16)
}

fn stream_queries(config: &ChaosHarnessConfig) -> Vec<Query> {
    uniform_stream(&ServeConfig {
        queries: config.queries,
        seed: config.seed,
        resolution: config.resolution,
        ..ServeConfig::default()
    })
}

/// Runs one fault mix over the stream: a single-query pass with
/// per-query reference checks and periodic shard poisoning, then a
/// fresh-rig batched pass for the batched-path availability gate.
fn run_stream(
    config: &ChaosHarnessConfig,
    mix: &FaultMix,
    stream: &[Query],
    reference: &InferenceEngine,
) -> ChaosStreamReport {
    let salt = splitmix64(u64::from_le_bytes(*b"chaosmix") ^ mix.stream.len() as u64)
        ^ (mix.fail_rate * 1e6) as u64;
    let r = rig(config, mix, salt);
    let threshold = 0.5 * r.engine.vdd().value();

    let mut ok = 0usize;
    let mut degraded = 0usize;
    let mut max_err = 0.0f64;
    let mut bound_violations = 0usize;
    let mut divergences = 0usize;
    let mut panics = 0usize;
    let mut poison_injected = 0usize;

    for (i, q) in stream.iter().enumerate() {
        if config.poison_every > 0 && i > 0 && i % config.poison_every == 0 {
            let shard =
                (splitmix64(config.seed ^ salt ^ i as u64) as usize) % MemoCache::shard_count();
            if let Some(cache) = r.engine.cache() {
                if cache.poison_shard(shard) {
                    poison_injected += 1;
                }
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| r.engine.evaluate(q)));
        match outcome {
            Err(_) => panics += 1,
            Ok(Err(_)) => {}
            Ok(Ok(eval)) => {
                ok += 1;
                let reference_vout = reference
                    .evaluate(q)
                    .expect("reference engine is fault-free")
                    .vout
                    .value();
                if eval.degraded {
                    degraded += 1;
                    let err = (eval.vout.value() - reference_vout).abs();
                    max_err = max_err.max(err);
                    if err > eval.error_bound {
                        bound_violations += 1;
                    }
                } else {
                    let fires = eval.vout.value() >= threshold;
                    let reference_fires = reference_vout >= threshold;
                    if fires != reference_fires {
                        divergences += 1;
                    }
                }
            }
        }
    }
    // Touch every shard so outstanding poisonings are recovered and
    // counted before the report snapshot.
    if let Some(cache) = r.engine.cache() {
        let _ = cache.len();
    }
    let report = r.engine.report();
    let [injected_fail, injected_nan] = r.chaos.injected();

    // Fresh rig for the batched pass: same schedule seed, fresh call
    // counter, cold cache.
    let batch_rig = rig(config, mix, salt);
    let mut batch_ok = 0usize;
    let mut batch_degraded = 0usize;
    match catch_unwind(AssertUnwindSafe(|| batch_rig.engine.evaluate_batch(stream))) {
        Err(_) => panics += 1,
        Ok(results) => {
            for eval in results.into_iter().flatten() {
                batch_ok += 1;
                if eval.degraded {
                    batch_degraded += 1;
                }
            }
        }
    }

    let n = stream.len().max(1);
    ChaosStreamReport {
        stream: mix.stream,
        mix: FaultMixRates {
            fail: mix.fail_rate,
            nan: mix.nan_rate,
        },
        queries: stream.len(),
        availability: ok as f64 / n as f64,
        degraded,
        degraded_rate: degraded as f64 / n as f64,
        max_degraded_error_v: max_err,
        bound_violations,
        divergences,
        panics,
        demotions: report.resil.demotions,
        lock_poisoned: report.cache.lock_poisoned,
        poison_injected,
        injected_fail,
        injected_nan,
        batch_availability: batch_ok as f64 / n as f64,
        batch_degraded,
    }
}

/// Runs the full chaos harness: baseline and storm streams over the
/// same seeded queries.
pub fn run(config: &ChaosHarnessConfig) -> ChaosReport {
    let stream = stream_queries(config);
    let reference = reference_engine(config);
    ChaosReport {
        baseline: run_stream(config, &baseline_mix(), &stream, &reference),
        storm: run_stream(config, &storm_mix(), &stream, &reference),
    }
}

/// Renders the `mssim-chaos-v1` document: the run's knobs and one object
/// per stream.
pub fn to_json(report: &ChaosReport, config: &ChaosHarnessConfig) -> String {
    let stream_json = |s: &ChaosStreamReport| {
        format!(
            "    {{\n      \"stream\": \"{}\",\n      \"fail_rate\": {:.4},\n      \"nan_rate\": {:.4},\n      \"queries\": {},\n      \"availability\": {:.6},\n      \"degraded\": {},\n      \"degraded_rate\": {:.6},\n      \"max_degraded_error_v\": {:.6},\n      \"bound_violations\": {},\n      \"divergences\": {},\n      \"panics\": {},\n      \"demotions\": {},\n      \"lock_poisoned\": {},\n      \"poison_injected\": {},\n      \"injected_fail\": {},\n      \"injected_nan\": {},\n      \"batch_availability\": {:.6},\n      \"batch_degraded\": {}\n    }}",
            s.stream,
            s.mix.fail,
            s.mix.nan,
            s.queries,
            s.availability,
            s.degraded,
            s.degraded_rate,
            s.max_degraded_error_v,
            s.bound_violations,
            s.divergences,
            s.panics,
            s.demotions,
            s.lock_poisoned,
            s.poison_injected,
            s.injected_fail,
            s.injected_nan,
            s.batch_availability,
            s.batch_degraded,
        )
    };
    format!(
        "{{\n  \"schema\": \"mssim-chaos-v1\",\n  \"queries\": {},\n  \"seed\": {},\n  \"resolution\": {},\n  \"poison_every\": {},\n  \"streams\": [\n{},\n{}\n  ]\n}}\n",
        config.queries,
        config.seed,
        config.resolution,
        config.poison_every,
        stream_json(&report.baseline),
        stream_json(&report.storm),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChaosHarnessConfig {
        ChaosHarnessConfig {
            queries: 200,
            poison_every: 61,
            ..ChaosHarnessConfig::default()
        }
    }

    #[test]
    fn chaos_report_is_seed_deterministic() {
        let c = tiny();
        let a = run(&c);
        let b = run(&c);
        assert_eq!(a, b, "same config must replay bitwise-identically");
        assert_eq!(to_json(&a, &c), to_json(&b, &c));
    }

    #[test]
    fn baseline_stream_passes_the_acceptance_gates() {
        let c = tiny();
        let report = run(&c);
        let violations = report.violations();
        assert!(violations.is_empty(), "gate violations: {violations:?}");
        assert!(report.baseline.availability >= 0.999);
        assert!(report.baseline.injected_fail > 0, "faults were injected");
        for s in [&report.baseline, &report.storm] {
            assert_eq!(
                s.degraded as u64,
                s.injected_fail + s.injected_nan,
                "{}: one degraded answer per injected fault",
                s.stream
            );
        }
    }

    #[test]
    fn distinct_seeds_change_the_injection_trace() {
        let a = run(&tiny());
        let b = run(&ChaosHarnessConfig {
            seed: 0xDEAD,
            ..tiny()
        });
        assert_ne!(
            (a.storm.injected_fail, a.storm.injected_nan),
            (b.storm.injected_fail, b.storm.injected_nan),
        );
    }

    #[test]
    fn chaos_document_is_standalone_with_the_gated_keys() {
        let c = tiny();
        let doc = to_json(&run(&c), &c);
        assert!(doc.starts_with("{\n  \"schema\": \"mssim-chaos-v1\",\n"));
        assert!(doc.ends_with("}\n"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        for key in [
            "availability",
            "batch_availability",
            "panics",
            "bound_violations",
            "divergences",
        ] {
            assert_eq!(doc.matches(&format!("\"{key}\": ")).count(), 2, "{key}");
        }
        assert!(doc.contains("\"stream\": \"baseline\""));
        assert!(doc.contains("\"stream\": \"storm\""));
    }
}
