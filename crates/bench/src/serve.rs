//! `repro serve` — load harness for the batched inference engine.
//!
//! Generates deterministic synthetic query streams (uniform and hot-set
//! skewed), serves them through [`InferenceEngine`] configurations at
//! different tiers, and reports latency percentiles, sustained
//! inferences/sec, cache hit rate and a naive-baseline speedup.
//! [`ServeReport::violations`] holds the acceptance gates, and
//! [`to_json`] renders the standalone `results/SERVE_mssim.json`
//! document.
//!
//! Everything is seeded: the same [`ServeConfig`] produces the same query
//! stream, the same cache misses and the same tier counts on every run —
//! only the wall-clock figures move.

use std::time::Instant;

use pwm_perceptron::prelude::*;
use pwmcell::{SimQuality, Technology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mssim::units::{Farads, Hertz};

/// Load-harness knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Queries per stream.
    pub queries: usize,
    /// Stream RNG seed.
    pub seed: u64,
    /// Memo-cache duty resolution (levels); streams draw duties on this
    /// grid, so cache quantization is exact.
    pub resolution: u32,
    /// Distinct (duty-vector, weights) pairs in the hot set.
    pub hot_set: usize,
    /// Probability a hot-set query is drawn from the hot set.
    pub hot_prob: f64,
    /// Queries sampled for the naive per-query circuit baseline.
    pub naive_sample: usize,
    /// Queries cross-checked against unbatched evaluation.
    pub divergence_sample: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queries: 10_000,
            seed: 0x5EED,
            resolution: 16,
            hot_set: 32,
            hot_prob: 0.95,
            naive_sample: 8,
            divergence_sample: 20,
        }
    }
}

/// Serving metrics for one query stream.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Stream name (`uniform` or `hotset`).
    pub stream: &'static str,
    /// Queries served.
    pub queries: usize,
    /// Median single-query latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile single-query latency, nanoseconds.
    pub p99_ns: u64,
    /// Sustained inferences/sec of one batched pass over the stream
    /// (fresh cache — misses pay real evaluations).
    pub qps: f64,
    /// Cache hit rate over the single-query pass.
    pub hit_rate: f64,
    /// Analytic-tier evaluations.
    pub tier_analytic: u64,
    /// Switch-level-tier evaluations.
    pub tier_switch_level: u64,
    /// Circuit-tier evaluations.
    pub tier_circuit: u64,
}

/// Full `repro serve` result.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Analytic-policy stream over uniform random queries.
    pub uniform: StreamReport,
    /// Switch-level-policy stream over the same uniform queries.
    pub switch: StreamReport,
    /// Circuit-policy stream over hot-set skewed queries.
    pub hotset: StreamReport,
    /// Naive per-query [`CircuitEvaluator`] throughput (no batching, no
    /// cache) extrapolated from a sample.
    pub naive_qps: f64,
    /// `hotset.qps / naive_qps` — the amortization + memoization win.
    pub speedup_vs_naive: f64,
    /// Classification disagreements between the engine and unbatched
    /// evaluation over the cross-check sample.
    pub divergences: usize,
}

/// Ceiling on the hot-set p99 latency, nanoseconds: twice the
/// 19 135 240 ns a 10 000-query run recorded when the ceiling was set.
/// Every hot-set miss is a fresh circuit-tier transient, so the ceiling
/// catches a simulator that got markedly slower.
const HOTSET_P99_CEILING_NS: u64 = 38_270_480;

impl ServeReport {
    /// Acceptance-gate violations; an empty list means the run passes.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.speedup_vs_naive < 10.0 {
            v.push(format!(
                "hot-set throughput is only {:.1}x the naive circuit path (< 10x)",
                self.speedup_vs_naive
            ));
        }
        if self.hotset.hit_rate < 0.90 {
            v.push(format!(
                "hot-set cache hit rate {:.1}% < 90%",
                self.hotset.hit_rate * 100.0
            ));
        }
        if self.divergences > 0 {
            v.push(format!(
                "{} classification divergence(s) vs unbatched evaluation",
                self.divergences
            ));
        }
        if self.hotset.p99_ns > HOTSET_P99_CEILING_NS {
            v.push(format!(
                "hot-set p99 {:.2} ms > {:.2} ms",
                self.hotset.p99_ns as f64 / 1e6,
                HOTSET_P99_CEILING_NS as f64 / 1e6
            ));
        }
        v
    }
}

/// The serving technology: the paper's device stack at 50 MHz with small
/// output capacitors, so one circuit-tier transient settles in
/// milliseconds instead of seconds (same trade the unit-test fixtures
/// make).
pub fn serve_tech() -> Technology {
    let mut t = Technology::umc65_like();
    t.cout_inverter = Farads(100e-15);
    t.cout_adder = Farads(500e-15);
    t.frequency = Hertz(50e6);
    t
}

/// The `p`-quantile (0..=1) of raw latency samples, nanoseconds.
/// An empty sample set has no order statistics; it reports 0 rather
/// than panicking, so a degenerate stream (`ServeConfig { queries: 0,
/// .. }`) still renders a report.
pub fn percentile_ns(samples: &mut [u64], p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "quantile must be in 0..=1");
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[idx]
}

/// Weight-vector pool the streams draw from (the paper's Table II rows).
fn weight_pool() -> Vec<WeightVector> {
    [[7u32, 7, 7], [1, 2, 4], [7, 3, 4]]
        .iter()
        .map(|w| WeightVector::new(w.to_vec(), 3).expect("pool weights are valid"))
        .collect()
}

fn grid_duty(rng: &mut StdRng, resolution: u32) -> DutyCycle {
    let idx = rng.gen_range(0..resolution);
    DutyCycle::new(idx as f64 / (resolution - 1) as f64)
}

fn random_query(rng: &mut StdRng, resolution: u32, pool: &[WeightVector]) -> Query {
    let duties: Vec<DutyCycle> = (0..3).map(|_| grid_duty(rng, resolution)).collect();
    let weights = pool[rng.gen_range(0..pool.len())].clone();
    Query::new(duties, weights).expect("pool dimensions match")
}

/// Uniform random queries on the duty grid.
pub fn uniform_stream(config: &ServeConfig) -> Vec<Query> {
    let pool = weight_pool();
    let mut rng = StdRng::seed_from_u64(config.seed);
    (0..config.queries)
        .map(|_| random_query(&mut rng, config.resolution, &pool))
        .collect()
}

/// Hot-set skewed queries: with probability [`ServeConfig::hot_prob`] a
/// query repeats one of [`ServeConfig::hot_set`] fixed pairs.
pub fn hotset_stream(config: &ServeConfig) -> Vec<Query> {
    let pool = weight_pool();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9E37_79B9);
    let hot: Vec<Query> = (0..config.hot_set)
        .map(|_| random_query(&mut rng, config.resolution, &pool))
        .collect();
    (0..config.queries)
        .map(|_| {
            if rng.gen_range(0.0..1.0) < config.hot_prob {
                hot[rng.gen_range(0..hot.len())].clone()
            } else {
                random_query(&mut rng, config.resolution, &pool)
            }
        })
        .collect()
}

fn engine(config: &ServeConfig, policy: TierPolicy) -> InferenceEngine {
    let tech = serve_tech();
    InferenceEngine::new(tech.vdd)
        .with_switch_tier(SwitchLevelEvaluator::new(tech.clone()))
        .with_circuit_tier(CircuitEvaluator::new(tech, SimQuality::fast()))
        .with_policy(policy)
        .with_cache(config.resolution, 1 << 16)
}

/// Serves `stream` twice on fresh engines: a single-query pass for
/// latency percentiles and hit rate, then a batched pass for sustained
/// throughput.
fn serve_stream(
    name: &'static str,
    stream: &[Query],
    config: &ServeConfig,
    policy: TierPolicy,
) -> StreamReport {
    let single = engine(config, policy);
    let mut latencies: Vec<u64> = Vec::with_capacity(stream.len());
    for q in stream {
        let t0 = Instant::now();
        single.evaluate(q).expect("stream queries are valid");
        latencies.push(t0.elapsed().as_nanos() as u64);
    }
    let report = single.report();

    let batched = engine(config, policy);
    let t0 = Instant::now();
    let out = batched.evaluate_batch(stream);
    let wall = t0.elapsed().as_secs_f64();
    assert!(out.iter().all(Result::is_ok), "batched pass must succeed");

    StreamReport {
        stream: name,
        queries: stream.len(),
        p50_ns: percentile_ns(&mut latencies, 0.50),
        p99_ns: percentile_ns(&mut latencies, 0.99),
        qps: stream.len() as f64 / wall.max(1e-9),
        hit_rate: report.cache.hit_rate(),
        tier_analytic: report.evals(Tier::Analytic),
        tier_switch_level: report.evals(Tier::SwitchLevel),
        tier_circuit: report.evals(Tier::Circuit),
    }
}

/// Runs the full load harness.
pub fn run(config: &ServeConfig) -> ServeReport {
    let uniform = uniform_stream(config);
    let hotset = hotset_stream(config);

    let uniform_report = serve_stream("uniform", &uniform, config, TierPolicy::analytic());
    let switch_report = serve_stream("switch", &uniform, config, TierPolicy::switch_level());
    let hotset_report = serve_stream("hotset", &hotset, config, TierPolicy::circuit());

    // Naive baseline: per-query CircuitEvaluator::vout — a fresh netlist
    // and transient per call, no cache, no batching.
    let tech = serve_tech();
    let naive = CircuitEvaluator::new(tech, SimQuality::fast());
    let sample: Vec<&Query> = hotset.iter().take(config.naive_sample.max(1)).collect();
    let t0 = Instant::now();
    for q in &sample {
        naive
            .vout(q.duties(), q.weights())
            .expect("stream queries are valid");
    }
    let naive_qps = sample.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    // Divergence cross-check: the engine's classification must match
    // unbatched evaluation exactly (grid-aligned duties make cache
    // quantization the identity, so vout agrees bitwise).
    let checked = engine(config, TierPolicy::circuit());
    let threshold = 0.5 * checked.vdd().value();
    let step = (hotset.len() / config.divergence_sample.max(1)).max(1);
    let divergences = hotset
        .iter()
        .step_by(step)
        .take(config.divergence_sample)
        .filter(|q| {
            let engine_fires = checked
                .evaluate(q)
                .expect("stream queries are valid")
                .vout
                .value()
                >= threshold;
            let direct_fires = naive
                .vout(q.duties(), q.weights())
                .expect("stream queries are valid")
                .value()
                >= threshold;
            engine_fires != direct_fires
        })
        .count();

    let speedup = hotset_report.qps / naive_qps.max(1e-9);
    ServeReport {
        uniform: uniform_report,
        switch: switch_report,
        hotset: hotset_report,
        naive_qps,
        speedup_vs_naive: speedup,
        divergences,
    }
}

/// Renders the `mssim-serve-v1` document: the run's knobs, the naive
/// baseline, the divergence count and one object per stream.
pub fn to_json(report: &ServeReport, config: &ServeConfig) -> String {
    let stream_json = |s: &StreamReport| {
        format!(
            "    {{\n      \"stream\": \"{}\",\n      \"queries\": {},\n      \"p50_ns\": {},\n      \"p99_ns\": {},\n      \"qps\": {:.0},\n      \"hit_rate\": {:.4},\n      \"tier_analytic\": {},\n      \"tier_switch_level\": {},\n      \"tier_circuit\": {}\n    }}",
            s.stream,
            s.queries,
            s.p50_ns,
            s.p99_ns,
            s.qps,
            s.hit_rate,
            s.tier_analytic,
            s.tier_switch_level,
            s.tier_circuit
        )
    };
    format!(
        "{{\n  \"schema\": \"mssim-serve-v1\",\n  \"queries\": {},\n  \"seed\": {},\n  \"resolution\": {},\n  \"hot_set\": {},\n  \"hot_prob\": {:.2},\n  \"naive_qps\": {:.1},\n  \"speedup_vs_naive\": {:.1},\n  \"divergences\": {},\n  \"streams\": [\n{},\n{},\n{}\n  ]\n}}\n",
        config.queries,
        config.seed,
        config.resolution,
        config.hot_set,
        config.hot_prob,
        report.naive_qps,
        report.speedup_vs_naive,
        report.divergences,
        stream_json(&report.uniform),
        stream_json(&report.switch),
        stream_json(&report.hotset)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeConfig {
        ServeConfig {
            queries: 200,
            hot_set: 8,
            naive_sample: 2,
            divergence_sample: 3,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn streams_are_seed_deterministic() {
        let c = tiny();
        assert_eq!(uniform_stream(&c), uniform_stream(&c));
        assert_eq!(hotset_stream(&c), hotset_stream(&c));
        let mut other = c;
        other.seed ^= 1;
        assert_ne!(hotset_stream(&c), hotset_stream(&other));
    }

    #[test]
    fn hotset_stream_repeats_hot_queries() {
        let c = tiny();
        let stream = hotset_stream(&c);
        let mut distinct: Vec<&Query> = Vec::new();
        for q in &stream {
            if !distinct.contains(&q) {
                distinct.push(q);
            }
        }
        // 95 % of 200 queries hit 8 hot pairs → far fewer distinct
        // queries than stream length.
        assert!(
            distinct.len() < stream.len() / 3,
            "{} distinct of {}",
            distinct.len(),
            stream.len()
        );
    }

    #[test]
    fn percentiles_pick_order_statistics() {
        let mut xs: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_ns(&mut xs, 0.0), 1);
        assert_eq!(percentile_ns(&mut xs, 1.0), 100);
        assert_eq!(percentile_ns(&mut xs, 0.5), 51);
    }

    #[test]
    fn empty_sample_set_reports_zero_latency() {
        let mut xs: Vec<u64> = Vec::new();
        assert_eq!(percentile_ns(&mut xs, 0.5), 0);
        assert_eq!(percentile_ns(&mut xs, 0.99), 0);
    }

    #[test]
    fn analytic_stream_report_counts_tiers() {
        let c = tiny();
        let stream = uniform_stream(&c);
        let r = serve_stream("uniform", &stream, &c, TierPolicy::analytic());
        assert_eq!(r.queries, c.queries);
        assert_eq!(r.tier_switch_level, 0);
        assert_eq!(r.tier_circuit, 0);
        // Analytic answers are never memoized: one evaluation per query.
        assert_eq!(r.tier_analytic, c.queries as u64);
        assert_eq!(r.hit_rate, 0.0);
        assert!(r.qps > 0.0);
        // The same stream at the memoized switch-level tier hits on its
        // repeats.
        let s = serve_stream("switch", &stream, &c, TierPolicy::switch_level());
        assert!(s.hit_rate > 0.0);
    }

    fn stream(name: &'static str, p99_ns: u64, hit_rate: f64) -> StreamReport {
        StreamReport {
            stream: name,
            queries: 200,
            p50_ns: 100,
            p99_ns,
            qps: 1e4,
            hit_rate,
            tier_analytic: 100,
            tier_switch_level: 0,
            tier_circuit: 0,
        }
    }

    fn passing_report() -> ServeReport {
        ServeReport {
            uniform: stream("uniform", 500, 0.5),
            switch: stream("switch", 700, 0.5),
            hotset: stream("hotset", 900, 0.95),
            naive_qps: 100.0,
            speedup_vs_naive: 100.0,
            divergences: 0,
        }
    }

    #[test]
    fn serve_document_is_standalone_with_the_gated_keys() {
        let doc = to_json(&passing_report(), &tiny());
        assert!(doc.starts_with("{\n  \"schema\": \"mssim-serve-v1\",\n"));
        assert!(doc.ends_with("}\n"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        for (key, count) in [
            ("speedup_vs_naive", 1),
            ("divergences", 1),
            ("hit_rate", 3),
            ("p99_ns", 3),
        ] {
            assert_eq!(doc.matches(&format!("\"{key}\": ")).count(), count, "{key}");
        }
        let hotset = doc.find("\"stream\": \"hotset\"").expect("hotset stream");
        assert!(doc[hotset..].contains("\"p99_ns\": 900,"));
    }

    #[test]
    fn serve_gates_flag_each_violation() {
        assert!(passing_report().violations().is_empty());
        let mut slow = passing_report();
        slow.hotset.p99_ns = HOTSET_P99_CEILING_NS + 1;
        slow.hotset.hit_rate = 0.89;
        slow.speedup_vs_naive = 9.9;
        slow.divergences = 1;
        assert_eq!(slow.violations().len(), 4, "{:?}", slow.violations());
        let mut at_ceiling = passing_report();
        at_ceiling.hotset.p99_ns = HOTSET_P99_CEILING_NS;
        assert!(at_ceiling.violations().is_empty());
    }
}
