//! Property-based tests of the demotion ladder, the judge of serving
//! resilience: over a tier that fails deterministically on a chosen set
//! of queries, every answer is `Ok` and finite, each one comes bit for
//! bit from the tier the ladder says served it, a degraded answer lies
//! within its certified bound of the clean answer, degraded answers are
//! never memoized, poisoned cache shards are recovered and counted
//! without changing an answer, and the batched path agrees with the
//! single-query path slot for slot.

use mssim::prelude::Volts;
use proptest::prelude::*;
use pwm_perceptron::infer::{ANALYTIC_ERROR_BOUND, SWITCH_ERROR_BOUND};
use pwm_perceptron::prelude::*;

/// How a tier fails on one query.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// A transient solver non-convergence.
    NonConvergence,
    /// A NaN output voltage.
    Nan,
}

impl Fault {
    fn from_code(code: u8) -> Option<Fault> {
        match code % 3 {
            0 => None,
            1 => Some(Fault::NonConvergence),
            _ => Some(Fault::Nan),
        }
    }

    /// What a tier answers on a query it fails.
    fn outcome(self) -> Result<Volts, CoreError> {
        match self {
            Fault::NonConvergence => Err(CoreError::Simulation(mssim::Error::NonConvergence {
                analysis: "transient",
                time: 0.0,
                iterations: 0,
                stage: "injected",
                attempts: 0,
            })),
            Fault::Nan => Ok(Volts(f64::NAN)),
        }
    }
}

/// A tier that answers like `clean` except on the queries listed in
/// `faults`, where it fails every time — keyed on the query, like the
/// shipped tiers, which are deterministic functions of the query.
#[derive(Debug, Clone)]
struct FaultyTier<E> {
    clean: E,
    pose_as: Tier,
    faults: Vec<(Query, Fault)>,
}

impl<E: Evaluator> FaultyTier<E> {
    fn fault_on(&self, query: &Query) -> Option<Fault> {
        self.faults
            .iter()
            .find(|(q, _)| q == query)
            .map(|&(_, fault)| fault)
    }
}

impl<E: Evaluator> Evaluator for FaultyTier<E> {
    fn vout(&self, duties: &[DutyCycle], weights: &WeightVector) -> Result<Volts, CoreError> {
        let query = Query::new(duties.to_vec(), weights.clone())?;
        match self.fault_on(&query) {
            Some(fault) => fault.outcome(),
            None => self.clean.vout(duties, weights),
        }
    }

    fn vdd(&self) -> Volts {
        self.clean.vdd()
    }

    fn tier(&self) -> Tier {
        self.pose_as
    }

    /// Forwards the clean slots through the clean tier's own batched path
    /// (the switch-level tier fans them over the sweep driver's worker
    /// pool), so faults are mixed into the engine's real batched serving.
    fn evaluate_batch(&self, queries: &[Query]) -> Vec<Result<Eval, CoreError>> {
        let clean: Vec<Query> = queries
            .iter()
            .filter(|q| self.fault_on(q).is_none())
            .cloned()
            .collect();
        let mut answers = self.clean.evaluate_batch(&clean).into_iter();
        queries
            .iter()
            .map(|q| {
                let vout = match self.fault_on(q) {
                    Some(fault) => fault.outcome()?,
                    None => answers.next().expect("one answer per clean query")?.vout,
                };
                Ok(Eval {
                    vout,
                    tier: self.pose_as,
                    cached: false,
                    degraded: false,
                    error_bound: 0.0,
                })
            })
            .collect()
    }
}

/// The weight vectors a query may carry: the three Table II rows the
/// serving streams draw from, and one more.
const WEIGHTS: [[u32; 3]; 4] = [[7, 7, 7], [1, 2, 4], [7, 3, 4], [7, 5, 3]];

/// Duty levels `(a, b, c)` on the 16-level grid, so the engine's cache
/// quantization is the identity, and an index into [`WEIGHTS`].
type Point = ((u32, u32, u32), usize);

fn point() -> impl Strategy<Value = Point> {
    ((0u32..16, 0u32..16, 0u32..16), 0usize..WEIGHTS.len())
}

fn grid_query(((a, b, c), w): Point) -> Query {
    Query::from_raw(
        &[a as f64 / 15.0, b as f64 / 15.0, c as f64 / 15.0],
        &WEIGHTS[w],
        3,
    )
    .unwrap()
}

/// A pool of grid queries with a fault code each, and a stream of picks
/// into the pool (so queries repeat and the cache is exercised).
type Pool = Vec<(Point, u8)>;

fn faults_of(pool: &Pool, code_of: impl Fn(u8) -> u8) -> Vec<(Query, Fault)> {
    pool.iter()
        .filter_map(|&(point, code)| {
            Fault::from_code(code_of(code)).map(|fault| (grid_query(point), fault))
        })
        .collect()
}

fn stream_of(pool: &Pool, picks: &[usize]) -> Vec<Query> {
    picks
        .iter()
        .map(|&i| grid_query(pool[i % pool.len()].0))
        .collect()
}

/// Single and batched answers agree on everything but `cached` (a batch
/// deduplicates repeats instead of serving them from the cache).
fn same_answer(a: &Eval, b: &Eval) -> bool {
    a.vout.value().to_bits() == b.vout.value().to_bits()
        && a.tier == b.tier
        && a.degraded == b.degraded
        && a.error_bound.to_bits() == b.error_bound.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Switch-level tier over the analytic fallback: the two-rung ladder.
    /// Its clean tier is the real switch-level model, so a degraded
    /// answer is checked against it within the analytic tier's bound.
    /// The stream is then served again on a second engine with one cache
    /// shard poisoned before every `poison_every`-th query (never for 0),
    /// and serving goes on as if nothing happened.
    #[test]
    fn ladder_serves_every_query_from_the_right_tier(
        pool in prop::collection::vec((point(), 0u8..3), 1..8),
        picks in prop::collection::vec(0usize..64, 1..64),
        poison_every in 0usize..12,
    ) {
        let tier = FaultyTier {
            clean: SwitchLevelEvaluator::paper(),
            pose_as: Tier::SwitchLevel,
            faults: faults_of(&pool, |code| code),
        };
        let engine = || {
            InferenceEngine::paper()
                .with_switch_tier(tier.clone())
                .with_policy(TierPolicy::switch_level())
                .with_cache(16, 1024)
        };
        let stream = stream_of(&pool, &picks);
        let clean = SwitchLevelEvaluator::paper();
        let analytic = AnalyticEvaluator::paper();

        let single = engine();
        let mut seen: Vec<&Query> = Vec::new();
        let mut answers = Vec::with_capacity(stream.len());
        for q in &stream {
            let eval = single.evaluate(q).unwrap();
            prop_assert!(eval.vout.value().is_finite());
            let clean_vout = clean.evaluate(q).unwrap().vout.value();
            if tier.fault_on(q).is_some() {
                prop_assert!(eval.degraded);
                prop_assert!(!eval.cached, "a degraded answer is never memoized");
                prop_assert_eq!(eval.tier, Tier::Analytic);
                prop_assert_eq!(eval.error_bound, ANALYTIC_ERROR_BOUND);
                prop_assert_eq!(
                    eval.vout.value().to_bits(),
                    analytic.evaluate(q).unwrap().vout.value().to_bits()
                );
                prop_assert!(
                    (eval.vout.value() - clean_vout).abs() <= eval.error_bound,
                    "degraded {} V is more than {} V from the clean {} V",
                    eval.vout.value(),
                    eval.error_bound,
                    clean_vout
                );
            } else {
                prop_assert!(!eval.degraded);
                prop_assert_eq!(eval.tier, Tier::SwitchLevel);
                prop_assert_eq!(eval.error_bound, 0.0);
                prop_assert_eq!(eval.cached, seen.contains(&q), "clean repeats hit the cache");
                prop_assert_eq!(eval.vout.value().to_bits(), clean_vout.to_bits());
            }
            seen.push(q);
            answers.push(eval);
        }
        let faulty = stream.iter().filter(|q| tier.fault_on(q).is_some()).count() as u64;
        prop_assert_eq!(single.resilience_stats().degraded_served, faulty);

        // Poisoning changes no answer. A recovered shard is cleared, and
        // which queries it held is private to the cache, so a clean
        // repeat is sure to hit only if it was served since the last
        // poisoning.
        let poisoned = engine();
        let cache = poisoned.cache().unwrap();
        let mut poisonings = 0u64;
        let mut kept: Vec<&Query> = Vec::new();
        for (i, (q, s)) in stream.iter().zip(&answers).enumerate() {
            if poison_every > 0 && i % poison_every == 0 {
                prop_assert!(cache.poison_shard(i), "shard lock must end up poisoned");
                poisonings += 1;
                kept.clear();
            }
            let eval = poisoned.evaluate(q).unwrap();
            prop_assert!(same_answer(&eval, s), "poisoned {:?} vs clean {:?}", eval, s);
            prop_assert!(!eval.cached || s.cached, "only a clean repeat hits the cache");
            prop_assert!(
                eval.cached || s.degraded || !kept.contains(&q),
                "a clean repeat since the last poisoning hits the cache"
            );
            kept.push(q);
        }
        prop_assert_eq!(poisoned.resilience_stats().degraded_served, faulty);
        // Touching every shard recovers any poisoning still pending. A
        // shard poisoned twice before it is touched recovers once.
        let _ = cache.len();
        let recovered = poisoned.report().cache.lock_poisoned;
        prop_assert!(
            recovered >= u64::from(poisonings > 0) && recovered <= poisonings,
            "{} recoveries for {} poisonings",
            recovered,
            poisonings
        );

        // A cold and two warm engines batch the stream exactly as the
        // single-query path served it.
        for batched in [
            engine().evaluate_batch(&stream),
            single.evaluate_batch(&stream),
            poisoned.evaluate_batch(&stream),
        ] {
            prop_assert_eq!(batched.len(), answers.len());
            for (b, s) in batched.iter().zip(&answers) {
                let b = b.as_ref().unwrap();
                prop_assert!(same_answer(b, s), "batch {:?} vs single {:?}", b, s);
                prop_assert!(!(b.degraded && b.cached));
            }
        }
    }

    /// Circuit over switch-level over analytic: a query the circuit tier
    /// fails is answered by the switch-level tier with its bound, and one
    /// both fail by the analytic tier, in single and batched serving.
    #[test]
    fn three_rung_ladder_stops_at_the_first_tier_that_answers(
        pool in prop::collection::vec((point(), 0u8..9), 1..8),
        picks in prop::collection::vec(0usize..64, 1..24),
    ) {
        // Pose the analytic closed form as the circuit tier: the ladder
        // only cares which tier is configured where.
        let circuit = FaultyTier {
            clean: AnalyticEvaluator::new(Volts(2.4)),
            pose_as: Tier::Circuit,
            faults: faults_of(&pool, |code| code % 3),
        };
        let switch = FaultyTier {
            clean: SwitchLevelEvaluator::paper(),
            pose_as: Tier::SwitchLevel,
            faults: faults_of(&pool, |code| code / 3),
        };
        let engine = InferenceEngine::paper()
            .with_switch_tier(switch.clone())
            .with_circuit_tier(circuit.clone())
            .with_policy(TierPolicy::circuit())
            .with_cache(16, 1024);
        let stream = stream_of(&pool, &picks);
        let mut answers = Vec::with_capacity(stream.len());
        for q in &stream {
            let eval = engine.evaluate(q).unwrap();
            let (tier, want, bound) = match (circuit.fault_on(q), switch.fault_on(q)) {
                (None, _) => (Tier::Circuit, circuit.clean.evaluate(q), 0.0),
                (Some(_), None) => (Tier::SwitchLevel, switch.clean.evaluate(q), SWITCH_ERROR_BOUND),
                (Some(_), Some(_)) => {
                    (Tier::Analytic, AnalyticEvaluator::paper().evaluate(q), ANALYTIC_ERROR_BOUND)
                }
            };
            prop_assert_eq!(eval.tier, tier);
            prop_assert_eq!(eval.degraded, tier != Tier::Circuit);
            prop_assert_eq!(eval.error_bound, bound);
            prop_assert_eq!(
                eval.vout.value().to_bits(),
                want.unwrap().vout.value().to_bits()
            );
            answers.push(eval);
        }
        for (b, s) in engine.evaluate_batch(&stream).iter().zip(&answers) {
            let b = b.as_ref().unwrap();
            prop_assert!(same_answer(b, s), "batch {:?} vs single {:?}", b, s);
        }
    }
}
