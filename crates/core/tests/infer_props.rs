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

/// The analytic closed form posing as either memoized tier.
#[derive(Debug)]
struct ClosedFormAt(Tier);

impl Evaluator for ClosedFormAt {
    fn vout(&self, duties: &[DutyCycle], weights: &WeightVector) -> Result<Volts, CoreError> {
        AnalyticEvaluator::paper().vout(duties, weights)
    }

    fn vdd(&self) -> Volts {
        Volts(2.5)
    }

    fn tier(&self) -> Tier {
        self.0
    }
}

/// A cached engine serving at the memoized switch-level tier.
fn engine(levels: u32, capacity: usize) -> InferenceEngine {
    InferenceEngine::new(Volts(2.5))
        .with_switch_tier(ClosedFormSwitch(AnalyticEvaluator::paper()))
        .with_policy(TierPolicy::switch_level())
        .with_cache(levels, capacity)
}

/// A grid of 2–65 536 levels drawn log-uniformly: `2^k` plus an offset
/// below `2^k`, capped at the finest grid the cache keys.
fn grid_levels((k, offset): (u32, u32)) -> u32 {
    ((1u32 << k) + offset % (1 << k)).min(1 << 16)
}

/// Raw material for one query of any shape: its length, its weight
/// width and six (duty index, weight) choices, of which the first
/// `length` are used.
type ShapedRaw = (usize, u32, Vec<(usize, usize)>);

fn shaped_raw() -> impl Strategy<Value = ShapedRaw> {
    (
        1usize..=6,
        1u32..=16,
        prop::collection::vec((0usize..5, 0usize..5), 6),
    )
}

/// One of five values in `0..=top`, the extremes included: neighbouring
/// fields of a key are all zeros or all ones there, where a field that
/// spilled into the next would collide.
fn pick(choice: usize, top: u32) -> u32 {
    [0, 1, top / 2, top - 1, top][choice]
}

/// The query `raw` describes on a `levels`-point grid, or a neighbour of
/// it that a key missing a field would confuse with it: `variant` 1
/// widens its weights by one bit, 2 puts a zero (index, weight) pair in
/// front, 3 drops its first pair, 4 flips the last weight's low bit and
/// 5 moves the last duty one level. Its first duty lies one ulp off the
/// grid when `nudged`, which admission snaps back.
fn shaped_query(levels: u32, raw: &ShapedRaw, variant: usize, nudged: bool) -> Query {
    let (len, mut bits, choices) = raw.clone();
    let top = levels - 1;
    let mut pairs: Vec<(u32, u32)> = choices[..len]
        .iter()
        .map(|&(i, w)| (pick(i, top), pick(w, (1 << bits) - 1)))
        .collect();
    match variant {
        1 if bits < 16 => bits += 1,
        2 if len < 6 => pairs.insert(0, (0, 0)),
        3 if len > 1 => {
            pairs.remove(0);
        }
        4 => pairs[len - 1].1 ^= 1,
        5 => {
            let index = &mut pairs[len - 1].0;
            *index = if *index > 0 { *index - 1 } else { 1 };
        }
        _ => {}
    }
    let mut duties: Vec<f64> = pairs
        .iter()
        .map(|&(i, _)| f64::from(i) / f64::from(top))
        .collect();
    if nudged {
        duties[0] = if duties[0] < 1.0 {
            duties[0].next_up()
        } else {
            duties[0].next_down()
        };
    }
    let weights: Vec<u32> = pairs.iter().map(|&(_, w)| w).collect();
    Query::from_raw(&duties, &weights, bits).expect("grid duties and in-range weights")
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

    /// A query is served `cached` exactly when an equal admitted query
    /// was served before at the same tier, for every shape: lengths 1–6,
    /// weight widths 1–16 and grids of 2–65 536 levels, so keys that
    /// pack into one word and keys too wide for it share the shard maps.
    /// The stream mixes queries with near neighbours that a key missing
    /// a field would serve from the cache. Every answer is the bare
    /// evaluator's on the admitted query.
    #[test]
    fn served_cached_exactly_when_an_equal_admitted_query_was_served(
        grid in (1u32..=16, 0u32..65_536),
        circuit in any::<bool>(),
        pool in prop::collection::vec(shaped_raw(), 1..12),
        picks in prop::collection::vec((0usize..64, 0usize..6, any::<bool>()), 1..64),
    ) {
        let levels = grid_levels(grid);
        let engine = InferenceEngine::new(Volts(2.5));
        let (engine, tier) = if circuit {
            let engine = engine.with_circuit_tier(ClosedFormAt(Tier::Circuit));
            (engine.with_policy(TierPolicy::circuit()), Tier::Circuit)
        } else {
            let engine = engine.with_switch_tier(ClosedFormAt(Tier::SwitchLevel));
            (engine.with_policy(TierPolicy::switch_level()), Tier::SwitchLevel)
        };
        // Room for every query: no shard is ever flushed.
        let engine = engine.with_cache(levels, 1 << 16);
        let bare = AnalyticEvaluator::paper();
        let mut served: Vec<Query> = Vec::new();
        for (pick, variant, nudged) in picks {
            let query = shaped_query(levels, &pool[pick % pool.len()], variant, nudged);
            let admitted = query.quantized(levels);
            let eval = engine.evaluate(&query).unwrap();
            prop_assert_eq!(eval.tier, tier);
            prop_assert_eq!(
                eval.cached,
                served.contains(&admitted),
                "{:?} on {} levels",
                admitted,
                levels
            );
            prop_assert_eq!(
                eval.vout.value().to_bits(),
                bare.evaluate(&admitted).unwrap().vout.value().to_bits()
            );
            served.push(admitted);
        }
        prop_assert_eq!(engine.report().cache.evictions, 0);
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
