//! Property-based tests of the inference engine's memo cache: duty
//! quantization, hit/miss transparency, deduplication and eviction must
//! never change what a caller observes, and analytic answers never reach
//! the cache at all.

use std::borrow::Cow;

use mssim::units::Volts;
use proptest::prelude::*;
use pwm_perceptron::prelude::*;

/// Raw material for one query: three duty values and three 3-bit weights.
type RawQuery = ((f64, f64, f64), (u32, u32, u32));

/// Raw material for one on-grid query: three grid indices and weights.
type GridQuery = ((u32, u32, u32), (u32, u32, u32));

/// Tuple-of-range strategy producing a [`RawQuery`].
type FreeRawStrategy = (
    (
        std::ops::RangeInclusive<f64>,
        std::ops::RangeInclusive<f64>,
        std::ops::RangeInclusive<f64>,
    ),
    (
        std::ops::RangeInclusive<u32>,
        std::ops::RangeInclusive<u32>,
        std::ops::RangeInclusive<u32>,
    ),
);

/// Tuple-of-range strategy producing a [`GridQuery`].
type GridRawStrategy = (
    (
        std::ops::Range<u32>,
        std::ops::Range<u32>,
        std::ops::Range<u32>,
    ),
    (
        std::ops::RangeInclusive<u32>,
        std::ops::RangeInclusive<u32>,
        std::ops::RangeInclusive<u32>,
    ),
);

/// Strategy for arbitrary continuous (off-grid) raw queries.
fn free_raw() -> FreeRawStrategy {
    (
        (0.0..=1.0, 0.0..=1.0, 0.0..=1.0),
        (0u32..=7, 0u32..=7, 0u32..=7),
    )
}

/// Strategy for raw queries whose duties sit ON a `levels`-point grid.
fn grid_raw(levels: u32) -> GridRawStrategy {
    (
        (0..levels, 0..levels, 0..levels),
        (0u32..=7, 0u32..=7, 0u32..=7),
    )
}

fn free_query(raw: RawQuery) -> Query {
    let ((d0, d1, d2), (w0, w1, w2)) = raw;
    Query::from_raw(&[d0, d1, d2], &[w0, w1, w2], 3).expect("raw inputs in range")
}

fn grid_query(levels: u32, raw: GridQuery) -> Query {
    let ((i0, i1, i2), (w0, w1, w2)) = raw;
    let step = 1.0 / (levels - 1) as f64;
    Query::from_raw(
        &[i0 as f64 * step, i1 as f64 * step, i2 as f64 * step],
        &[w0, w1, w2],
        3,
    )
    .expect("grid points are in range")
}

/// The analytic closed form posing as the switch-level tier. The engine
/// memoizes switch-level answers but never analytic ones, so this is how
/// the cache properties below get a memoized tier whose every answer is
/// `AnalyticEvaluator::paper()`'s, bit for bit.
#[derive(Debug)]
struct ClosedFormSwitch(AnalyticEvaluator);

impl Evaluator for ClosedFormSwitch {
    fn vout(&self, duties: &[DutyCycle], weights: &WeightVector) -> Result<Volts, CoreError> {
        self.0.vout(duties, weights)
    }

    fn vdd(&self) -> Volts {
        self.0.vdd()
    }

    fn tier(&self) -> Tier {
        Tier::SwitchLevel
    }
}

/// A cached engine serving at the memoized switch-level tier.
fn engine(levels: u32, capacity: usize) -> InferenceEngine {
    InferenceEngine::new(Volts(2.5))
        .with_switch_tier(ClosedFormSwitch(AnalyticEvaluator::paper()))
        .with_policy(TierPolicy::switch_level())
        .with_cache(levels, capacity)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Quantizing a query moves each duty at most half a grid step, so
    /// by Eq. 2's Lipschitz bound the analytic output moves at most
    /// `vdd · (step/2) · Σw / (k·(2ⁿ−1))`. Whenever the original output
    /// clears the firing threshold by more than that bound, the
    /// quantized query classifies identically.
    #[test]
    fn quantization_never_flips_a_clear_classification(
        raw in free_raw(),
        levels in 2u32..64,
    ) {
        let query = free_query(raw);
        let eval = AnalyticEvaluator::paper();
        let vdd = eval.vdd().value();
        let threshold = 0.5 * vdd;
        let v = eval.evaluate(&query).unwrap().vout.value();

        let step = 1.0 / (levels - 1) as f64;
        let wsum: u32 = query.weights().as_slice().iter().sum();
        let k = query.duties().len() as f64;
        let full_scale = 2f64.powi(query.weights().bits() as i32) - 1.0;
        let bound = vdd * (step / 2.0) * wsum as f64 / (k * full_scale);

        if (v - threshold).abs() <= bound + 1e-12 {
            // Within the quantization error band of the threshold —
            // classification is legitimately undefined there.
            return Ok(());
        }
        let vq = eval
            .evaluate(&query.quantized(levels))
            .unwrap()
            .vout
            .value();
        prop_assert_eq!(v >= threshold, vq >= threshold);
    }

    /// On the grid, quantization is the identity: the admitted query the
    /// cache evaluates IS the submitted query, bitwise.
    #[test]
    fn grid_queries_survive_quantization_roundtrip(raw in grid_raw(16)) {
        let query = grid_query(16, raw);
        prop_assert_eq!(query.quantized(16), query);
    }

    /// A cached engine answers exactly like the bare evaluator for
    /// on-grid streams — the cache is observationally transparent, hits
    /// and misses alike.
    #[test]
    fn cache_on_and_cache_off_agree_on_grid_streams(
        raws in prop::collection::vec(grid_raw(16), 1..40),
    ) {
        let stream: Vec<Query> = raws.into_iter().map(|r| grid_query(16, r)).collect();
        let cached = engine(16, 1024);
        let bare = AnalyticEvaluator::paper();
        for q in &stream {
            let via_cache = cached.evaluate(q).unwrap().vout;
            let direct = bare.evaluate(q).unwrap().vout;
            prop_assert_eq!(via_cache, direct);
        }
        // And again, now that everything is hot.
        for q in &stream {
            let hit = cached.evaluate(q).unwrap();
            prop_assert!(hit.cached);
            prop_assert_eq!(hit.vout, bare.evaluate(q).unwrap().vout);
        }
    }

    /// Off-grid queries are admitted at the nearest grid point: the
    /// engine's answer equals the bare evaluator on the quantized query,
    /// and repeats are hits with the identical value.
    #[test]
    fn admission_is_deterministic_for_free_queries(raw in free_raw()) {
        let query = free_query(raw);
        let cached = engine(16, 1024);
        let bare = AnalyticEvaluator::paper();
        let cold = cached.evaluate(&query).unwrap();
        prop_assert!(!cold.cached);
        prop_assert_eq!(cold.vout, bare.evaluate(&query.quantized(16)).unwrap().vout);
        let hot = cached.evaluate(&query).unwrap();
        prop_assert!(hot.cached);
        prop_assert_eq!(hot.vout, cold.vout);
    }

    /// Batched evaluation (with its miss deduplication) agrees bitwise
    /// with the sequential path on a fresh engine, duplicates included.
    #[test]
    fn batched_and_sequential_evaluation_agree(
        raws in prop::collection::vec(grid_raw(16), 1..40),
        dup in 0usize..4096,
    ) {
        let mut stream: Vec<Query> = raws.into_iter().map(|r| grid_query(16, r)).collect();
        // Force at least one in-batch duplicate.
        let copy = stream[dup % stream.len()].clone();
        stream.push(copy);

        let a = engine(16, 1024);
        let batched: Vec<_> = a
            .evaluate_batch(&stream)
            .into_iter()
            .map(|e| e.unwrap().vout)
            .collect();
        let b = engine(16, 1024);
        let sequential: Vec<_> = stream
            .iter()
            .map(|q| b.evaluate(q).unwrap().vout)
            .collect();
        prop_assert_eq!(batched, sequential);
    }

    /// Evictions under a tiny capacity and interleaved weight mutations
    /// never serve a stale value: weights are part of the key, and a
    /// flushed entry is recomputed, so every answer always equals the
    /// bare evaluator's.
    #[test]
    fn eviction_and_weight_changes_never_serve_stale(
        raws in prop::collection::vec(grid_raw(16), 1..60),
        bumps in prop::collection::vec(0usize..4096, 1..10),
    ) {
        let mut stream: Vec<Query> = raws.into_iter().map(|r| grid_query(16, r)).collect();
        // 16 shards × capacity ⌈4/16⌉ = 1 entry each: constant churn.
        let cached = engine(16, 4);
        let bare = AnalyticEvaluator::paper();
        // Mutate some queries' weights mid-stream by rebuilding them —
        // the cache must key the new weights, not the old answer.
        for b in bumps {
            let i = b % stream.len();
            let w: Vec<u32> = stream[i]
                .weights()
                .as_slice()
                .iter()
                .map(|&x| (x + 1) % 8)
                .collect();
            let weights = WeightVector::new(w, 3).unwrap();
            stream[i] = Query::new(stream[i].duties().to_vec(), weights).unwrap();
        }
        for pass in 0..2 {
            for q in &stream {
                let got = cached.evaluate(q).unwrap().vout;
                let want = bare.evaluate(q).unwrap().vout;
                prop_assert_eq!(got, want, "pass {}", pass);
            }
        }
        // Bookkeeping stays coherent under churn.
        let stats = cached.report().cache;
        prop_assert!(stats.insertions >= stats.evictions);
    }

    /// Analytic answers skip the memo cache: single and batched, on and
    /// off the grid, they are never `cached`, leave `CacheStats` at zero,
    /// and equal the bare evaluator on the admitted query bit for bit.
    /// An on-grid query is admitted as itself, without a copy.
    #[test]
    fn analytic_answers_bypass_the_cache(
        grid in prop::collection::vec(grid_raw(16), 0..20),
        free in prop::collection::vec(free_raw(), 0..20),
    ) {
        // The policy resolves to the analytic tier.
        let engine = InferenceEngine::new(Volts(2.5)).with_cache(16, 4);
        let on_grid: Vec<Query> = grid.into_iter().map(|r| grid_query(16, r)).collect();
        for q in &on_grid {
            prop_assert!(matches!(engine.admitted(q), Cow::Borrowed(_)));
        }
        let stream: Vec<Query> = on_grid
            .into_iter()
            .chain(free.into_iter().map(free_query))
            .collect();
        let bare = AnalyticEvaluator::paper();
        for pass in 0..2 {
            let batched = engine.evaluate_batch(&stream);
            for (q, b) in stream.iter().zip(batched) {
                prop_assert_eq!(engine.admitted(q).into_owned(), q.quantized(16));
                let want = bare.evaluate(&q.quantized(16)).unwrap().vout.value().to_bits();
                for eval in [engine.evaluate(q).unwrap(), b.unwrap()] {
                    prop_assert!(!eval.cached, "pass {}", pass);
                    prop_assert_eq!(eval.tier, Tier::Analytic);
                    prop_assert_eq!(eval.vout.value().to_bits(), want);
                }
            }
        }
        let report = engine.report();
        prop_assert_eq!(report.cache, CacheStats::default());
        prop_assert_eq!(report.evals(Tier::Analytic), 4 * stream.len() as u64);
        prop_assert!(engine.cache().unwrap().is_empty());
    }
}
