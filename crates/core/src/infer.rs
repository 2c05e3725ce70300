//! Batched inference engine — the evaluator stack as a serving product.
//!
//! The paper's perceptron is ultimately an inference device: Eq. 2 gives a
//! closed-form output that the circuit tiers merely refine. PWM inputs are
//! low-resolution discrete (3-bit weights × bounded duty resolution), so
//! throughput lives in memoization and batching, not per-query transients.
//! This module packages that observation behind one call site:
//!
//! * [`Query`] / [`Eval`] — the serving request/response pair used by
//!   [`Evaluator::evaluate`] and [`Evaluator::evaluate_batch`].
//! * [`TierPolicy`] — how much output error the caller tolerates, and
//!   therefore which fidelity [`Tier`] must answer.
//! * [`MemoCache`] — a sharded, duty-quantized memo cache with hit/miss/
//!   eviction counters surfaced through the [`Observer`] telemetry layer
//!   as `infer.*` counters and an `InferBatch` event. A shard whose lock
//!   was poisoned by a panicking writer is cleared and served on (counted
//!   as `infer.lock_poisoned`) — memoized values are recomputable, so a
//!   crash in one worker never takes the serving process with it.
//!   Only the simulated tiers are memoized: Eq. 2 costs less than a
//!   cache lookup, so analytic answers are evaluated directly and never
//!   reach the cache or its counters.
//! * [`InferenceEngine`] — tiered dispatch (analytic fast path, escalating
//!   to switch-level / transistor tiers only when the tolerance demands
//!   it) over the cache, with per-tier counts in the report.
//! * The demotion ladder — a query whose tier fails transiently is
//!   answered by the next-cheaper tier (Circuit → SwitchLevel →
//!   Analytic), flagged [`Eval::degraded`] with that tier's certified
//!   error bound instead of returning an error — the serving-layer
//!   analogue of the paper's graceful degradation under supply droop.
//!   Each tier gets one attempt: the shipped tiers are deterministic
//!   functions of the query, so the ladder neither retries nor waits.
//!   [`ResilStats`] counts its demotions and degraded answers.
//!
//! The engine itself implements [`Evaluator`], so every consumer that is
//! generic over the trait ([`crate::PwmPerceptron`], [`crate::HardLayer`],
//! [`crate::WtaClassifier`], training, metrics) can serve through it
//! unchanged.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use mssim::prelude::Volts;
use mssim::telemetry::{dispatch, Event, Observer};

use crate::duty::DutyCycle;
use crate::error::CoreError;
use crate::eval::{AnalyticEvaluator, Evaluator};
use crate::weight::WeightVector;

/// Fidelity tier of an evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tier {
    /// Paper Eq. 2 — closed form, ~ns.
    Analytic,
    /// Periodic-steady-state switch model — ~µs.
    SwitchLevel,
    /// Transistor-level transient on [`mssim`] — the reference, ~ms–s.
    Circuit,
}

impl Tier {
    /// Stable index for per-tier accounting (`0..3`).
    pub fn index(self) -> usize {
        match self {
            Tier::Analytic => 0,
            Tier::SwitchLevel => 1,
            Tier::Circuit => 2,
        }
    }

    /// Human-readable tier name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Analytic => "analytic",
            Tier::SwitchLevel => "switch-level",
            Tier::Circuit => "circuit",
        }
    }

    /// Whether the engine memoizes this tier's answers — the one rule
    /// that decides what the [`MemoCache`] holds. Eq. 2 answers in
    /// 20–35 ns, less than a lookup costs: a hit checks the grid, builds
    /// and hashes a one-word key, takes a shard lock and counts itself,
    /// about 63 ns on a warm hot set, and a miss also inserts and may
    /// flush a shard. So analytic answers are always evaluated directly.
    /// The switch-level and circuit tiers cost microseconds to
    /// milliseconds per answer and are memoized.
    fn memoized(self) -> bool {
        self != Tier::Analytic
    }
}

/// One inference request: a duty-cycle vector and the weight vector it
/// multiplies. Dimensions are validated at construction, so an existing
/// `Query` is always internally consistent.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    duties: Vec<DutyCycle>,
    weights: WeightVector,
}

impl Query {
    /// Creates a query.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `duties` and `weights`
    /// differ in length.
    pub fn new(duties: Vec<DutyCycle>, weights: WeightVector) -> Result<Self, CoreError> {
        if duties.len() != weights.len() {
            return Err(CoreError::DimensionMismatch {
                expected: weights.len(),
                got: duties.len(),
            });
        }
        Ok(Query { duties, weights })
    }

    /// Creates a query from raw duty values and weight magnitudes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidDuty`] / [`CoreError::InvalidWeight`]
    /// for out-of-range values, [`CoreError::InvalidWeightWidth`] for a
    /// width outside `1..=16` bits and [`CoreError::DimensionMismatch`]
    /// for ragged inputs.
    pub fn from_raw(duties: &[f64], weights: &[u32], bits: u32) -> Result<Self, CoreError> {
        Query::new(
            DutyCycle::try_from_slice(duties)?,
            WeightVector::new(weights.to_vec(), bits)?,
        )
    }

    /// The duty-cycle vector.
    pub fn duties(&self) -> &[DutyCycle] {
        &self.duties
    }

    /// The weight vector.
    pub fn weights(&self) -> &WeightVector {
        &self.weights
    }

    /// The query with every duty snapped to `levels` equidistant values
    /// (rails included) — the cache's input alphabet.
    pub fn quantized(&self, levels: u32) -> Query {
        Query {
            duties: self.duties.iter().map(|d| d.quantized(levels)).collect(),
            weights: self.weights.clone(),
        }
    }

    /// Whether every duty already lies on the `levels`-point grid, bit
    /// for bit: [`Query::quantized`] would return the query unchanged.
    fn on_grid(&self, levels: u32) -> bool {
        let steps = f64::from(levels - 1);
        self.duties.iter().all(|d| is_grid_value(d.value(), steps))
    }
}

/// `x` rounded to the nearest integer, for `0 ≤ x ≤ 65 535`: a cast,
/// where `f64::round` is a libm call on the x86-64 baseline. The two
/// differ only at 0.49999999999999994, whose sum with 0.5 rounds up to
/// 1, and no duty that lies on a grid, or one ulp off it, comes near it.
fn nearest(x: f64) -> u32 {
    (x + 0.5) as u32
}

/// Whether `duty` lies on the `steps + 1`-level grid, exactly when
/// [`DutyCycle::quantized`] would return it bit for bit, decided with
/// [`nearest`]. It compares by value so that −0.0, which `quantized`
/// keeps, stays on the grid.
fn is_grid_value(duty: f64, steps: f64) -> bool {
    f64::from(nearest(duty * steps)) / steps == duty
}

/// One inference response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eval {
    /// Average output voltage (paper Eq. 2 semantics).
    pub vout: Volts,
    /// Fidelity tier that produced (or originally produced, for cached
    /// responses) the value.
    pub tier: Tier,
    /// Whether the value was served from the memo cache (never for the
    /// analytic tier, which is not memoized).
    pub cached: bool,
    /// Whether the answer was served below the demanded fidelity — by a
    /// cheaper tier after a demotion, or from a partially-rescued
    /// transient. Degraded answers are never memoized.
    pub degraded: bool,
    /// Certified |answer − reference| bound in volts when `degraded`
    /// (0.0 for an answer at the demanded fidelity).
    pub error_bound: f64,
}

/// How much output-voltage error the caller tolerates. Against the
/// certified error bounds of the cheap tiers ([`ANALYTIC_ERROR_BOUND`],
/// [`SWITCH_ERROR_BOUND`]) it decides which [`Tier`] must answer.
///
/// The bounds come from the `repro xval` cross-validation experiment:
/// the analytic tier tracks the transistor-level reference within a few
/// tens of millivolts and the switch-level tier within ~20 mV on the
/// paper's Table II rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierPolicy {
    tolerance: f64,
}

/// Certified |analytic − circuit| bound in volts (`repro xval`).
pub const ANALYTIC_ERROR_BOUND: f64 = 0.05;
/// Certified |switch-level − circuit| bound in volts.
pub const SWITCH_ERROR_BOUND: f64 = 0.02;

impl TierPolicy {
    /// Accept any answer within `tolerance_volts` of the transistor-level
    /// reference; the engine picks the cheapest tier whose certified
    /// error bound fits.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance_volts` is negative or NaN.
    pub fn tolerance(tolerance_volts: f64) -> Self {
        assert!(
            tolerance_volts >= 0.0,
            "tolerance must be non-negative volts"
        );
        TierPolicy {
            tolerance: tolerance_volts,
        }
    }

    /// Any tolerance — the analytic fast path always answers.
    pub fn analytic() -> Self {
        Self::tolerance(f64::INFINITY)
    }

    /// Demand switch-level fidelity (tolerance between the two bounds).
    pub fn switch_level() -> Self {
        Self::tolerance(SWITCH_ERROR_BOUND)
    }

    /// Demand the transistor-level reference (zero tolerance).
    pub fn circuit() -> Self {
        Self::tolerance(0.0)
    }

    /// The caller's tolerance in volts.
    pub fn tolerance_volts(&self) -> f64 {
        self.tolerance
    }

    /// The certified |tier − circuit reference| bound in volts — what a
    /// degraded answer served by `tier` is annotated with.
    pub fn tier_bound(&self, tier: Tier) -> f64 {
        match tier {
            Tier::Analytic => ANALYTIC_ERROR_BOUND,
            Tier::SwitchLevel => SWITCH_ERROR_BOUND,
            Tier::Circuit => 0.0,
        }
    }

    /// The cheapest tier whose certified error bound fits the tolerance.
    pub fn demanded_tier(&self) -> Tier {
        if self.tolerance >= ANALYTIC_ERROR_BOUND {
            Tier::Analytic
        } else if self.tolerance >= SWITCH_ERROR_BOUND {
            Tier::SwitchLevel
        } else {
            Tier::Circuit
        }
    }
}

impl Default for TierPolicy {
    fn default() -> Self {
        TierPolicy::analytic()
    }
}

/// Cache key: the admitted query's duty indices on the
/// `resolution`-level grid (at most 65 536 levels, so an index fits 16
/// bits), its exact weights and weight width, its length and the
/// producing tier, with their hash computed once beside them. Weights
/// are part of the key, so a weight mutation can never be served a
/// stale entry — it simply misses.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CacheKey {
    /// [`mix`] of the fields: the shard maps read it through
    /// [`StoredHash`] instead of hashing the key again.
    hash: u64,
    fields: KeyFields,
}

/// The fields of a [`CacheKey`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum KeyFields {
    /// Every field in one word, for a query whose (index, weight) pairs
    /// fit [`PACKED_PAIR_BITS`]: from the top, each pair's index then
    /// weight, then [`HEADER_BITS`] of length, weight width − 1 and tier.
    /// The paper's 3×3 query with 3-bit weights on a 16-level grid
    /// takes 21 bits of pairs.
    Packed(u64),
    /// The same fields as words, owned: tier and weight width − 1, the
    /// duty indices, then the weights (the length is the slice's).
    Wide(Box<[u32]>),
}

/// Low bits of a packed key: tier (2 bits), weight width − 1 (4 bits,
/// as `WeightVector` admits 1..=16) and, from [`LEN_SHIFT`], length (5
/// bits).
const HEADER_BITS: u32 = 11;
const LEN_SHIFT: u32 = 6;
/// Longest query a packed key holds, the largest its length field holds.
const MAX_PACKED_LEN: usize = (1 << (HEADER_BITS - LEN_SHIFT)) - 1;
/// Bits a packed key has for its (index, weight) pairs.
const PACKED_PAIR_BITS: u32 = u64::BITS - HEADER_BITS;

/// A fixed 64-bit mix (the splitmix64 finalizer), a bijection in which
/// every input bit moves about half the output bits. It is the same
/// function in every cache and every run, so which entries a shard
/// flush discards never depends on the engine instance.
fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl CacheKey {
    fn new(fields: KeyFields) -> Self {
        let hash = match &fields {
            KeyFields::Packed(word) => mix(*word),
            KeyFields::Wide(words) => words
                .iter()
                .fold(0, |hash, &word| mix(hash ^ u64::from(word))),
        };
        CacheKey { hash, fields }
    }
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hasher of the shard maps and of a batch's miss map: it passes a
/// [`CacheKey`]'s stored hash through, so a lookup hashes once.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    /// Only [`CacheKey`]s are hashed here, each with one `write_u64`;
    /// any other input is still mixed in, not dropped.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = mix(self.0 ^ u64::from(byte));
        }
    }
}

/// The [`PassThrough`] hasher's builder.
type StoredHash = BuildHasherDefault<PassThrough>;

/// One cache shard.
type Shard = HashMap<CacheKey, f64, StoredHash>;

/// Counter snapshot of a [`MemoCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to an evaluator.
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries discarded by capacity eviction.
    pub evictions: u64,
    /// Poisoned shard locks recovered by clearing the shard.
    pub lock_poisoned: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sharded memo cache keyed on quantized duty/weight vectors.
///
/// Lock granularity is one `RwLock` per shard, so concurrent callers of
/// [`InferenceEngine::evaluate`] mostly take different locks; a batch
/// does its lookups and inserts on the calling thread, and the sweep
/// workers never touch the cache. Capacity is enforced per shard with
/// epoch eviction: a shard that reaches its capacity is flushed whole,
/// so a flush discards one shard, not the whole cache. Eviction is
/// deterministic and never serves a stale value — keys carry the full
/// weight vector, so mutated weights miss instead of colliding.
///
/// A lookup allocates nothing and hashes once when the query's (duty
/// index, weight) pairs fit 53 bits, as the paper's 3×3 query with 3-bit
/// weights on a 16-level grid does in 21: its key is one word, the hash
/// a fixed mix of that word, and the shard comes from hash bits its map
/// does not use. Wider queries key on owned words in the same maps.
///
/// A poisoned shard lock (a panic while a writer held it) is recovered,
/// not propagated: the shard is cleared — its entries are memoized
/// recomputables, so the only cost is re-evaluation — the poison flag is
/// reset, and the incident is counted in [`CacheStats::lock_poisoned`].
#[derive(Debug)]
pub struct MemoCache {
    shards: Vec<RwLock<Shard>>,
    resolution: u32,
    /// Bits of the largest duty index, `resolution − 1`.
    index_bits: u32,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    lock_poisoned: AtomicU64,
}

const SHARDS: usize = 16;
const _: () = assert!(SHARDS.is_power_of_two());

/// Lowest hash bit of a key's shard number. The std map (hashbrown)
/// takes a bucket from the low hash bits and a control tag from the top
/// 7, so the shard comes from the bits just below the tag, and the keys
/// of one shard still spread over their map's buckets and tags.
const SHARD_SHIFT: u32 = u64::BITS - 7 - SHARDS.trailing_zeros();

fn shard_of(hash: u64) -> usize {
    (hash >> SHARD_SHIFT) as usize % SHARDS
}

impl MemoCache {
    /// Cache with `resolution` duty levels and room for roughly
    /// `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `resolution < 2`, if `resolution > 65_536` (a key holds
    /// a level index in at most 16 bits) or if `capacity == 0`.
    pub fn new(resolution: u32, capacity: usize) -> Self {
        assert!(resolution >= 2, "need at least two duty levels");
        assert!(resolution <= 1 << 16, "at most 65536 duty levels");
        assert!(capacity > 0, "capacity must be positive");
        MemoCache {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            resolution,
            index_bits: u32::BITS - (resolution - 1).leading_zeros(),
            shard_capacity: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            lock_poisoned: AtomicU64::new(0),
        }
    }

    /// The duty grid resolution (levels).
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    /// Write access to a shard, recovering a poisoned lock by clearing
    /// the shard (entries are recomputable) and resetting the flag.
    fn write_shard(&self, idx: usize) -> RwLockWriteGuard<'_, Shard> {
        match self.shards[idx].write() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.lock_poisoned.fetch_add(1, Ordering::Relaxed);
                self.shards[idx].clear_poison();
                let mut guard = poisoned.into_inner();
                guard.clear();
                guard
            }
        }
    }

    /// Read access to a shard, routing a poisoned lock through the write
    /// path first so it is cleared and counted exactly once.
    fn read_shard(&self, idx: usize) -> RwLockReadGuard<'_, Shard> {
        if self.shards[idx].is_poisoned() {
            drop(self.write_shard(idx));
        }
        self.shards[idx]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Current number of live entries across all shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.read_shard(i).len())
            .sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            lock_poisoned: self.lock_poisoned.load(Ordering::Relaxed),
        }
    }

    /// Test fault-injection hook: poisons the lock of shard `shard`
    /// (modulo the shard count) by panicking while holding its write
    /// guard (the panic is caught here). Returns whether the shard is
    /// poisoned afterwards. The next access recovers it.
    pub fn poison_shard(&self, shard: usize) -> bool {
        let lock = &self.shards[shard % self.shards.len()];
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = lock.write().unwrap_or_else(PoisonError::into_inner);
            panic!("injected cache-shard poisoning");
        }));
        lock.is_poisoned()
    }

    /// The key of an admitted (on-grid) query: packed into one word
    /// when its pairs fit, owned words otherwise.
    fn key(&self, query: &Query, tier: Tier) -> CacheKey {
        let top = f64::from(self.resolution - 1);
        let indices = query.duties.iter().map(|d| nearest(d.value() * top));
        let weights = query.weights.as_slice();
        let bits = query.weights.bits();
        let pair_bits = self.index_bits + bits;
        let len = weights.len();
        let head = (bits - 1) << 2 | tier.index() as u32;
        if len <= MAX_PACKED_LEN && len as u32 * pair_bits <= PACKED_PAIR_BITS {
            let pairs = indices.zip(weights).fold(0, |word, (index, &weight)| {
                word << pair_bits | u64::from(index) << bits | u64::from(weight)
            });
            let word = pairs << HEADER_BITS | (len as u64) << LEN_SHIFT | u64::from(head);
            CacheKey::new(KeyFields::Packed(word))
        } else {
            let words = std::iter::once(head)
                .chain(indices)
                .chain(weights.iter().copied())
                .collect();
            CacheKey::new(KeyFields::Wide(words))
        }
    }

    fn lookup(&self, key: &CacheKey) -> Option<f64> {
        let found = self.read_shard(shard_of(key.hash)).get(key).copied();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn insert(&self, key: CacheKey, vout: f64) {
        let mut shard = self.write_shard(shard_of(key.hash));
        if shard.len() >= self.shard_capacity && !shard.contains_key(&key) {
            self.evictions
                .fetch_add(shard.len() as u64, Ordering::Relaxed);
            shard.clear();
        }
        if shard.insert(key, vout).is_none() {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Counter snapshot of the demotion ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilStats {
    /// Ladder demotions (one per tier walked past).
    pub demotions: u64,
    /// Queries answered by a cheaper tier than demanded.
    pub degraded_served: u64,
}

/// Per-tier evaluation counts plus cache statistics — the engine's
/// serving report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InferReport {
    /// Total queries answered.
    pub queries: u64,
    /// Evaluations performed by each tier, indexed by [`Tier::index`]
    /// (cache hits perform none).
    pub tier_evals: [u64; 3],
    /// Cache counters of the memoized tiers (zeroed when no cache is
    /// configured; analytic answers never count).
    pub cache: CacheStats,
    /// Demotion-ladder counters.
    pub resil: ResilStats,
}

impl InferReport {
    /// Evaluations the given tier performed.
    pub fn evals(&self, tier: Tier) -> u64 {
        self.tier_evals[tier.index()]
    }
}

fn emit_event(observer: &mut Option<&mut dyn Observer>, event: &Event) {
    if let Some(obs) = observer {
        dispatch(&mut **obs, event);
    }
}

/// Whether an evaluator error is transient (solver trouble), so the
/// next-cheaper tier may answer, as opposed to structural (bad query).
fn transient(err: &CoreError) -> bool {
    matches!(err, CoreError::Simulation(_) | CoreError::Internal { .. })
}

/// Whether a tier's outcome walks the query down the ladder: a transient
/// error or a non-finite answer.
fn demotes(outcome: &Result<Eval, CoreError>) -> bool {
    match outcome {
        Ok(eval) => !eval.vout.value().is_finite(),
        Err(err) => transient(err),
    }
}

fn non_finite() -> CoreError {
    CoreError::Internal {
        reason: "evaluator produced a non-finite output",
    }
}

/// Tiered, memoized, batched dispatch over the evaluator stack.
///
/// The analytic tier is always present; switch-level and circuit tiers
/// are optional escalation targets (any [`Evaluator`]).
/// Dispatch picks the cheapest tier the [`TierPolicy`] allows, degraded
/// to the best *configured* tier: a policy demanding the transistor-level
/// reference on an engine without a circuit tier is answered by the
/// highest tier available.
///
/// When a [`MemoCache`] is configured, queries are first snapped onto the
/// cache's duty grid (the PWM input alphabet is discrete, so serving
/// streams are expected to live on the grid already — quantization is
/// then the identity) and, at the switch-level and circuit tiers,
/// answered from the cache when possible. The analytic tier is never
/// memoized: Eq. 2 costs less than a lookup, so an analytic answer is
/// the closed form on the admitted query, exactly as on an engine
/// without a cache, and its `cached` flag is always false.
///
/// A transient failure at the resolved tier walks the demotion ladder
/// instead of erroring — see [`InferenceEngine::evaluate`].
///
/// # Examples
///
/// ```
/// use pwm_perceptron::prelude::*;
///
/// # fn main() -> Result<(), pwm_perceptron::CoreError> {
/// let engine = InferenceEngine::paper()
///     .with_switch_tier(SwitchLevelEvaluator::paper())
///     .with_policy(TierPolicy::switch_level())
///     .with_cache(16, 1 << 16);
/// let q = Query::from_raw(&[0.7, 0.8, 0.9], &[7, 7, 7], 3)?;
/// let first = engine.evaluate(&q)?;
/// let second = engine.evaluate(&q)?;
/// assert!(!first.cached && second.cached);
/// assert_eq!(first.vout, second.vout);
///
/// // The analytic tier answers in closed form and skips the cache.
/// let analytic = InferenceEngine::paper().with_cache(16, 1 << 16);
/// assert!(!analytic.evaluate(&q)?.cached && !analytic.evaluate(&q)?.cached);
/// # Ok(())
/// # }
/// ```
pub struct InferenceEngine {
    analytic: AnalyticEvaluator,
    switch: Option<Box<dyn Evaluator + Send + Sync>>,
    circuit: Option<Box<dyn Evaluator + Send + Sync>>,
    policy: TierPolicy,
    cache: Option<MemoCache>,
    queries: AtomicU64,
    tier_evals: [AtomicU64; 3],
    demotions: AtomicU64,
    degraded_served: AtomicU64,
}

impl fmt::Debug for InferenceEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InferenceEngine")
            .field("analytic", &self.analytic)
            .field("switch", &self.switch.as_ref().map(|_| "dyn Evaluator"))
            .field("circuit", &self.circuit.as_ref().map(|_| "dyn Evaluator"))
            .field("policy", &self.policy)
            .field("cache", &self.cache)
            .finish_non_exhaustive()
    }
}

impl InferenceEngine {
    /// Engine with only the analytic tier at the given supply.
    pub fn new(vdd: Volts) -> Self {
        InferenceEngine {
            analytic: AnalyticEvaluator::new(vdd),
            switch: None,
            circuit: None,
            policy: TierPolicy::default(),
            cache: None,
            queries: AtomicU64::new(0),
            tier_evals: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            demotions: AtomicU64::new(0),
            degraded_served: AtomicU64::new(0),
        }
    }

    /// Engine at the paper's 2.5 V supply.
    pub fn paper() -> Self {
        Self::new(Volts(2.5))
    }

    /// Adds (or replaces) the switch-level escalation tier.
    pub fn with_switch_tier(mut self, evaluator: impl Evaluator + Send + Sync + 'static) -> Self {
        self.switch = Some(Box::new(evaluator));
        self
    }

    /// Adds (or replaces) the transistor-level escalation tier.
    pub fn with_circuit_tier(mut self, evaluator: impl Evaluator + Send + Sync + 'static) -> Self {
        self.circuit = Some(Box::new(evaluator));
        self
    }

    /// Sets the dispatch policy.
    pub fn with_policy(mut self, policy: TierPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables the memo cache with the given duty resolution and
    /// capacity.
    ///
    /// # Panics
    ///
    /// As for [`MemoCache::new`].
    pub fn with_cache(mut self, resolution: u32, capacity: usize) -> Self {
        self.cache = Some(MemoCache::new(resolution, capacity));
        self
    }

    /// The dispatch policy.
    pub fn policy(&self) -> TierPolicy {
        self.policy
    }

    /// The memo cache, when configured.
    pub fn cache(&self) -> Option<&MemoCache> {
        self.cache.as_ref()
    }

    /// Demotion-ladder counter snapshot.
    pub fn resilience_stats(&self) -> ResilStats {
        ResilStats {
            demotions: self.demotions.load(Ordering::Relaxed),
            degraded_served: self.degraded_served.load(Ordering::Relaxed),
        }
    }

    /// The tier that will answer under the current policy and configured
    /// tiers.
    pub fn resolved_tier(&self) -> Tier {
        match self.policy.demanded_tier() {
            Tier::Circuit if self.circuit.is_some() => Tier::Circuit,
            Tier::Circuit if self.switch.is_some() => Tier::SwitchLevel,
            Tier::SwitchLevel if self.switch.is_some() => Tier::SwitchLevel,
            Tier::SwitchLevel if self.circuit.is_some() => Tier::Circuit,
            _ => Tier::Analytic,
        }
    }

    fn tier_evaluator(&self, tier: Tier) -> &dyn Evaluator {
        match tier {
            Tier::Analytic => &self.analytic,
            Tier::SwitchLevel => self.switch.as_deref().expect("switch tier configured"),
            Tier::Circuit => self.circuit.as_deref().expect("circuit tier configured"),
        }
    }

    /// The next-cheaper *configured* tier on the demotion ladder.
    fn tier_below(&self, tier: Tier) -> Option<Tier> {
        match tier {
            Tier::Circuit if self.switch.is_some() => Some(Tier::SwitchLevel),
            Tier::Circuit => Some(Tier::Analytic),
            Tier::SwitchLevel => Some(Tier::Analytic),
            Tier::Analytic => None,
        }
    }

    /// The query the engine actually evaluates: snapped onto the cache's
    /// duty grid when a cache is configured, unchanged otherwise. A query
    /// already on the grid (bit for bit) is borrowed, not copied.
    pub fn admitted<'q>(&self, query: &'q Query) -> Cow<'q, Query> {
        match &self.cache {
            Some(cache) if !query.on_grid(cache.resolution()) => {
                Cow::Owned(query.quantized(cache.resolution()))
            }
            _ => Cow::Borrowed(query),
        }
    }

    /// [`InferenceEngine::admitted`] for a whole batch, borrowed when
    /// every query is already on the grid.
    fn admitted_batch<'q>(&self, queries: &'q [Query]) -> Cow<'q, [Query]> {
        match &self.cache {
            Some(cache) if !queries.iter().all(|q| q.on_grid(cache.resolution())) => Cow::Owned(
                queries
                    .iter()
                    .map(|q| q.quantized(cache.resolution()))
                    .collect(),
            ),
            _ => Cow::Borrowed(queries),
        }
    }

    /// The cache that memoizes `tier`'s answers: the configured cache
    /// for a [`Tier::memoized`] tier, none otherwise.
    fn cache_for(&self, tier: Tier) -> Option<&MemoCache> {
        self.cache.as_ref().filter(|_| tier.memoized())
    }

    /// One cache-aware evaluation at exactly `tier`. Degraded or
    /// non-finite answers are never memoized, so a cache hit is always a
    /// full-fidelity answer for its keyed tier.
    fn evaluate_at(&self, tier: Tier, query: &Query) -> Result<Eval, CoreError> {
        let evaluator = self.tier_evaluator(tier);
        let admitted = self.admitted(query);
        let Some(cache) = self.cache_for(tier) else {
            self.tier_evals[tier.index()].fetch_add(1, Ordering::Relaxed);
            return evaluator.evaluate(&admitted);
        };
        let key = cache.key(&admitted, tier);
        if let Some(vout) = cache.lookup(&key) {
            return Ok(Eval {
                vout: Volts(vout),
                tier,
                cached: true,
                degraded: false,
                error_bound: 0.0,
            });
        }
        self.tier_evals[tier.index()].fetch_add(1, Ordering::Relaxed);
        let eval = evaluator.evaluate(&admitted)?;
        if eval.vout.value().is_finite() && !eval.degraded {
            cache.insert(key, eval.vout.value());
        }
        Ok(eval)
    }

    /// Flags a finite answer that `tier` served below the `demanded`
    /// tier as degraded, with `tier`'s certified bound, and reports it.
    /// A failure passes through unchanged to the next rung.
    fn degrade(
        &self,
        outcome: Result<Eval, CoreError>,
        demanded: Tier,
        tier: Tier,
        observer: &mut Option<&mut dyn Observer>,
    ) -> Result<Eval, CoreError> {
        let mut eval = match outcome {
            Ok(eval) if eval.vout.value().is_finite() => eval,
            failed => return failed,
        };
        eval.degraded = true;
        eval.error_bound = self.policy.tier_bound(tier);
        self.degraded_served.fetch_add(1, Ordering::Relaxed);
        emit_event(
            observer,
            &Event::Degraded {
                demanded: demanded.name(),
                served: tier.name(),
                error_bound: eval.error_bound,
            },
        );
        Ok(eval)
    }

    /// Answers one query through the tiered dispatch and memo cache.
    ///
    /// A transient failure at the resolved tier (a simulation error or a
    /// non-finite answer) walks the demotion ladder: each cheaper tier
    /// gets one attempt, bypassing the cache, and the first finite answer
    /// is served flagged [`Eval::degraded`] with its tier's certified
    /// bound. A demoted answer is never memoized.
    ///
    /// # Errors
    ///
    /// Structural evaluator errors (a bad query), and the analytic
    /// tier's failure when the whole ladder fails.
    pub fn evaluate(&self, query: &Query) -> Result<Eval, CoreError> {
        self.evaluate_inner(query, &mut None)
    }

    /// [`InferenceEngine::evaluate`] with telemetry: an
    /// [`Event::Degraded`] reaches `observer` for each answer served
    /// below the resolved tier.
    ///
    /// # Errors
    ///
    /// As for [`InferenceEngine::evaluate`].
    pub fn evaluate_observed(
        &self,
        query: &Query,
        observer: &mut dyn Observer,
    ) -> Result<Eval, CoreError> {
        self.evaluate_inner(query, &mut Some(observer))
    }

    fn evaluate_inner(
        &self,
        query: &Query,
        observer: &mut Option<&mut dyn Observer>,
    ) -> Result<Eval, CoreError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let demanded = self.resolved_tier();
        let mut tier = demanded;
        let mut outcome = self.evaluate_at(tier, query);
        while demotes(&outcome) {
            let Some(below) = self.tier_below(tier) else {
                break;
            };
            self.demotions.fetch_add(1, Ordering::Relaxed);
            tier = below;
            self.tier_evals[tier.index()].fetch_add(1, Ordering::Relaxed);
            let fresh = self.tier_evaluator(tier).evaluate(&self.admitted(query));
            outcome = self.degrade(fresh, demanded, tier, observer);
        }
        match outcome {
            Ok(eval) if !eval.vout.value().is_finite() => Err(non_finite()),
            other => other,
        }
    }

    /// One batched, deduplicated, cache-aware dispatch at exactly `tier`.
    fn dispatch_batch(&self, tier: Tier, queries: &[Query]) -> Vec<Result<Eval, CoreError>> {
        let evaluator = self.tier_evaluator(tier);
        let Some(cache) = self.cache_for(tier) else {
            self.tier_evals[tier.index()].fetch_add(queries.len() as u64, Ordering::Relaxed);
            return evaluator.evaluate_batch(&self.admitted_batch(queries));
        };

        let mut out: Vec<Option<Result<Eval, CoreError>>> = vec![None; queries.len()];
        // Key → position in the deduplicated miss list.
        let mut miss_of: HashMap<CacheKey, usize, StoredHash> = HashMap::default();
        let mut misses: Vec<Query> = Vec::new();
        // Per input query: which miss slot serves it (None = cache hit).
        let mut slot_of: Vec<Option<usize>> = Vec::with_capacity(queries.len());
        for (i, query) in queries.iter().enumerate() {
            let admitted = self.admitted(query);
            let key = cache.key(&admitted, tier);
            if let Some(vout) = cache.lookup(&key) {
                out[i] = Some(Ok(Eval {
                    vout: Volts(vout),
                    tier,
                    cached: true,
                    degraded: false,
                    error_bound: 0.0,
                }));
                slot_of.push(None);
            } else {
                let slot = *miss_of.entry(key).or_insert_with(|| {
                    misses.push(admitted.into_owned());
                    misses.len() - 1
                });
                slot_of.push(Some(slot));
            }
        }

        self.tier_evals[tier.index()].fetch_add(misses.len() as u64, Ordering::Relaxed);
        let computed = evaluator.evaluate_batch(&misses);
        // Insert in slot order (first occurrence in the batch): when an
        // insert flushes a full shard, which entries survive must not
        // depend on the map's per-instance random iteration order.
        let mut keyed: Vec<(usize, CacheKey)> =
            miss_of.into_iter().map(|(key, slot)| (slot, key)).collect();
        keyed.sort_unstable_by_key(|&(slot, _)| slot);
        for (slot, key) in keyed {
            if let Ok(eval) = &computed[slot] {
                if eval.vout.value().is_finite() && !eval.degraded {
                    cache.insert(key, eval.vout.value());
                }
            }
        }
        for (i, slot) in slot_of.iter().enumerate() {
            if let Some(slot) = slot {
                out[i] = Some(computed[*slot].clone());
            }
        }
        out.into_iter()
            .map(|r| {
                r.unwrap_or(Err(CoreError::Internal {
                    reason: "batch dispatch left a query unanswered",
                }))
            })
            .collect()
    }

    /// Answers a batch: cache hits are served immediately, distinct
    /// misses are deduplicated and fanned over the resolved tier's
    /// batched evaluator (which amortizes circuit construction and
    /// parallelises over the work-stealing sweep driver).
    ///
    /// Slots that fail transiently carry on down the demotion ladder, one
    /// batch per cheaper tier, exactly as [`InferenceEngine::evaluate`]
    /// would serve them: the tier that just failed is not asked again.
    pub fn evaluate_batch(&self, queries: &[Query]) -> Vec<Result<Eval, CoreError>> {
        self.evaluate_batch_inner(queries, &mut None)
    }

    fn evaluate_batch_inner(
        &self,
        queries: &[Query],
        observer: &mut Option<&mut dyn Observer>,
    ) -> Vec<Result<Eval, CoreError>> {
        self.queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        let demanded = self.resolved_tier();
        let mut tier = demanded;
        let mut out = self.dispatch_batch(tier, queries);
        let mut failed: Vec<usize> = (0..out.len()).filter(|&i| demotes(&out[i])).collect();
        while !failed.is_empty() {
            let Some(below) = self.tier_below(tier) else {
                for i in failed {
                    if out[i].is_ok() {
                        out[i] = Err(non_finite());
                    }
                }
                break;
            };
            let n = failed.len() as u64;
            self.demotions.fetch_add(n, Ordering::Relaxed);
            tier = below;
            self.tier_evals[tier.index()].fetch_add(n, Ordering::Relaxed);
            let admitted: Vec<Query> = failed
                .iter()
                .map(|&i| self.admitted(&queries[i]).into_owned())
                .collect();
            let fresh = self.tier_evaluator(tier).evaluate_batch(&admitted);
            for (&i, outcome) in failed.iter().zip(fresh) {
                out[i] = self.degrade(outcome, demanded, tier, observer);
            }
            failed.retain(|&i| demotes(&out[i]));
        }
        out
    }

    /// [`InferenceEngine::evaluate_batch`] with telemetry: an
    /// [`Event::Degraded`] reaches `observer` for each demoted answer as
    /// it is served, and one
    /// [`Event::InferBatch`] describing the batch (plus an
    /// `infer.lock_poisoned` counter when shards were recovered) is
    /// dispatched at the end.
    pub fn evaluate_batch_observed(
        &self,
        queries: &[Query],
        observer: &mut dyn Observer,
    ) -> Vec<Result<Eval, CoreError>> {
        let before = self.report();
        let out = self.evaluate_batch_inner(queries, &mut Some(&mut *observer));
        let after = self.report();
        dispatch(
            observer,
            &Event::InferBatch {
                queries: queries.len(),
                cache_hits: after.cache.hits - before.cache.hits,
                cache_misses: after.cache.misses - before.cache.misses,
                evictions: after.cache.evictions - before.cache.evictions,
                analytic: after.evals(Tier::Analytic) - before.evals(Tier::Analytic),
                switch_level: after.evals(Tier::SwitchLevel) - before.evals(Tier::SwitchLevel),
                circuit: after.evals(Tier::Circuit) - before.evals(Tier::Circuit),
            },
        );
        let poisoned = after.cache.lock_poisoned - before.cache.lock_poisoned;
        if poisoned > 0 {
            observer.counter("infer.lock_poisoned", poisoned);
        }
        out
    }

    /// Serving report: total queries, per-tier evaluation counts, cache
    /// and demotion-ladder statistics.
    pub fn report(&self) -> InferReport {
        InferReport {
            queries: self.queries.load(Ordering::Relaxed),
            tier_evals: [
                self.tier_evals[0].load(Ordering::Relaxed),
                self.tier_evals[1].load(Ordering::Relaxed),
                self.tier_evals[2].load(Ordering::Relaxed),
            ],
            cache: self
                .cache
                .as_ref()
                .map(MemoCache::stats)
                .unwrap_or_default(),
            resil: self.resilience_stats(),
        }
    }
}

impl Evaluator for InferenceEngine {
    fn vout(&self, duties: &[DutyCycle], weights: &WeightVector) -> Result<Volts, CoreError> {
        let query = Query::new(duties.to_vec(), weights.clone())?;
        Ok(self.evaluate(&query)?.vout)
    }

    fn vdd(&self) -> Volts {
        self.analytic.vdd()
    }

    fn tier(&self) -> Tier {
        self.resolved_tier()
    }

    fn evaluate(&self, query: &Query) -> Result<Eval, CoreError> {
        InferenceEngine::evaluate(self, query)
    }

    fn evaluate_batch(&self, queries: &[Query]) -> Vec<Result<Eval, CoreError>> {
        InferenceEngine::evaluate_batch(self, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::SwitchLevelEvaluator;
    use std::sync::Arc;

    fn query(duties: &[f64]) -> Query {
        Query::from_raw(duties, &[7, 5, 3], 3).unwrap()
    }

    #[test]
    fn query_validates_dimensions() {
        let err = Query::from_raw(&[0.5], &[7, 7], 3).unwrap_err();
        assert!(matches!(err, CoreError::DimensionMismatch { .. }));
        let q = query(&[0.1, 0.5, 0.9]);
        assert_eq!(q.duties().len(), 3);
        assert_eq!(q.weights().as_slice(), &[7, 5, 3]);
    }

    #[test]
    fn query_rejects_weight_widths_outside_1_to_16() {
        for bits in [0, 17] {
            assert_eq!(
                Query::from_raw(&[0.5], &[1], bits),
                Err(CoreError::InvalidWeightWidth { bits })
            );
        }
        assert!(Query::from_raw(&[0.5], &[65_535], 16).is_ok());
    }

    #[test]
    fn cast_rounding_decides_grid_membership_like_round() {
        // Every grid value j/(R−1) and its neighbours one ulp away; −g is
        // −0.0 at j = 0, a valid duty that `quantized` keeps.
        for levels in (2u32..=1024).chain([1 << 16]) {
            let steps = f64::from(levels - 1);
            for j in 0..levels {
                let g = f64::from(j) / steps;
                for duty in [g.next_down(), g, g.next_up(), -g] {
                    if !(0.0..=1.0).contains(&duty) {
                        continue;
                    }
                    let x = duty * steps;
                    assert_eq!(nearest(x), x.round() as u32, "{duty} on {levels} levels");
                    let snapped = DutyCycle::new(duty).quantized(levels).value();
                    assert_eq!(
                        is_grid_value(duty, steps),
                        snapped.to_bits() == duty.to_bits(),
                        "{duty} on {levels} levels"
                    );
                }
            }
        }
    }

    #[test]
    fn keys_pack_into_one_word_while_their_pairs_fit() {
        let packed = |cache: &MemoCache, q: &Query| {
            matches!(cache.key(q, Tier::Circuit).fields, KeyFields::Packed(_))
        };
        // The paper's 3×3 query: three 4-bit indices and 3-bit weights.
        assert!(packed(&MemoCache::new(16, 64), &query(&[0.2, 0.4, 1.0])));
        // 2-bit pairs: 26 fill 52 of the 53 pair bits, 27 do not fit.
        let two_levels = MemoCache::new(2, 64);
        for (len, fits) in [(26, true), (27, false)] {
            let q = Query::from_raw(&vec![1.0; len], &vec![1; len], 1).unwrap();
            assert_eq!(packed(&two_levels, &q), fits, "{len} pairs");
        }
        // 32-bit pairs: one fits, two do not.
        let finest = MemoCache::new(1 << 16, 64);
        for (len, fits) in [(1, true), (2, false)] {
            let q = Query::from_raw(&vec![1.0; len], &vec![65_535; len], 16).unwrap();
            assert_eq!(packed(&finest, &q), fits, "{len} pairs");
        }
    }

    #[test]
    fn policy_picks_the_cheapest_sufficient_tier() {
        assert_eq!(TierPolicy::analytic().demanded_tier(), Tier::Analytic);
        assert_eq!(
            TierPolicy::tolerance(0.1).demanded_tier(),
            Tier::Analytic,
            "loose tolerance stays on the fast path"
        );
        assert_eq!(
            TierPolicy::tolerance(0.03).demanded_tier(),
            Tier::SwitchLevel
        );
        assert_eq!(
            TierPolicy::switch_level().demanded_tier(),
            Tier::SwitchLevel
        );
        assert_eq!(TierPolicy::tolerance(0.001).demanded_tier(), Tier::Circuit);
        assert_eq!(TierPolicy::circuit().demanded_tier(), Tier::Circuit);
    }

    #[test]
    fn tier_bounds_follow_the_policy() {
        let p = TierPolicy::switch_level();
        assert_eq!(p.tier_bound(Tier::Analytic), ANALYTIC_ERROR_BOUND);
        assert_eq!(p.tier_bound(Tier::SwitchLevel), SWITCH_ERROR_BOUND);
        assert_eq!(p.tier_bound(Tier::Circuit), 0.0);
    }

    #[test]
    fn unconfigured_tiers_degrade_to_best_available() {
        let engine = InferenceEngine::paper().with_policy(TierPolicy::circuit());
        assert_eq!(engine.resolved_tier(), Tier::Analytic);
        let engine = engine.with_switch_tier(SwitchLevelEvaluator::paper());
        assert_eq!(engine.resolved_tier(), Tier::SwitchLevel);
    }

    #[test]
    fn cache_hits_after_first_evaluation() {
        let engine = memoized_engine(16, 1024);
        let q = query(&[0.25, 0.5, 0.75]);
        let a = engine.evaluate(&q).unwrap();
        let b = engine.evaluate(&q).unwrap();
        assert!(!a.cached);
        assert!(b.cached);
        assert!(!a.degraded && !b.degraded);
        assert_eq!(a.error_bound, 0.0);
        assert_eq!(a.vout, b.vout);
        assert_eq!(a.tier, Tier::SwitchLevel);
        let report = engine.report();
        assert_eq!(report.queries, 2);
        assert_eq!(report.cache.hits, 1);
        assert_eq!(report.cache.misses, 1);
        assert_eq!(report.evals(Tier::SwitchLevel), 1);
        assert_eq!(report.resil, ResilStats::default());
    }

    #[test]
    fn batch_deduplicates_misses() {
        let engine = memoized_engine(16, 1024);
        let qs = vec![
            query(&[0.25, 0.5, 0.75]),
            query(&[0.25, 0.5, 0.75]),
            query(&[0.0, 0.0, 1.0]),
        ];
        let out = engine.evaluate_batch(&qs);
        assert!(out.iter().all(Result::is_ok));
        let report = engine.report();
        // Two distinct keys computed once each; the duplicate shares.
        assert_eq!(report.evals(Tier::SwitchLevel), 2);
        assert_eq!(out[0].as_ref().unwrap().vout, out[1].as_ref().unwrap().vout);
    }

    #[test]
    fn batch_inserts_do_not_depend_on_hash_order() {
        // 16 entries over 16 shards: one entry per shard, so most inserts
        // flush a shard and the insertion order decides what survives.
        let qs: Vec<Query> = (0..64)
            .map(|i| query(&[(i % 16) as f64 / 15.0, (i / 16) as f64 / 15.0, 0.5]))
            .collect();
        let runs: Vec<(CacheStats, Vec<bool>)> = (0..6)
            .map(|_| {
                let engine = memoized_engine(16, 16);
                assert!(engine.evaluate_batch(&qs).iter().all(Result::is_ok));
                let hits: Vec<bool> = qs
                    .iter()
                    .map(|q| engine.evaluate(q).unwrap().cached)
                    .collect();
                (engine.report().cache, hits)
            })
            .collect();
        assert!(runs[0].0.evictions > 0, "inserts flushed shards");
        for run in &runs[1..] {
            assert_eq!(run, &runs[0]);
        }
    }

    #[test]
    fn batched_and_single_evaluation_agree_bitwise() {
        let cached = memoized_engine(32, 1024);
        let plain = InferenceEngine::paper();
        let qs: Vec<Query> = (0..20)
            .map(|i| {
                let step = i as f64 / 31.0;
                Query::from_raw(&[step, 1.0 - step, 0.5], &[7, 5, 3], 3).unwrap()
            })
            .collect();
        let batch = cached.evaluate_batch(&qs);
        for (q, b) in qs.iter().zip(&batch) {
            let single = plain.evaluate(&q.quantized(32)).unwrap();
            assert_eq!(single.vout, b.as_ref().unwrap().vout);
        }
    }

    #[test]
    fn eviction_flushes_but_never_serves_stale_values() {
        // Capacity of one entry per shard: every distinct key in the same
        // shard evicts its predecessor.
        let engine = memoized_engine(64, 1);
        let analytic = AnalyticEvaluator::paper();
        for i in 0..64 {
            let d = i as f64 / 63.0;
            let q = query(&[d, d, d]);
            let got = engine.evaluate(&q).unwrap().vout;
            let expect = analytic.vout(q.duties(), q.weights()).unwrap();
            assert_eq!(got, expect, "entry {i}");
        }
        assert!(engine.report().cache.evictions > 0, "evictions exercised");
    }

    #[test]
    fn observed_batch_reports_infer_counters() {
        use mssim::telemetry::MemoryRecorder;
        let engine = memoized_engine(16, 1024);
        let qs = vec![query(&[0.5, 0.5, 0.5]), query(&[0.5, 0.5, 0.5])];
        let mut rec = MemoryRecorder::new();
        let out = engine.evaluate_batch_observed(&qs, &mut rec);
        assert!(out.iter().all(Result::is_ok));
        assert_eq!(rec.counter_value("infer.queries"), 2);
        // Both lookups miss (insertion happens after the batch computes),
        // but the duplicate deduplicates down to one evaluation.
        assert_eq!(rec.counter_value("infer.cache_misses"), 2);
        assert_eq!(rec.counter_value("infer.tier_switch_level"), 1);
        assert!(rec.events().iter().any(|e| matches!(
            e,
            Event::InferBatch {
                queries: 2,
                cache_misses: 2,
                switch_level: 1,
                ..
            }
        )));
    }

    #[test]
    fn engine_is_an_evaluator() {
        // Resolution 11 puts 0.7/0.8/0.9 exactly on the duty grid.
        let engine = InferenceEngine::paper().with_cache(11, 1024);
        let e: &dyn Evaluator = &engine;
        let w = WeightVector::new(vec![7, 7, 7], 3).unwrap();
        let d: Vec<DutyCycle> = [0.7, 0.8, 0.9].iter().map(|&x| DutyCycle::new(x)).collect();
        let v = e.vout(&d, &w).unwrap();
        assert!((v.value() - 2.0).abs() < 0.01);
        assert_eq!(e.vdd(), Volts(2.5));
    }

    #[test]
    fn poisoned_shard_recovers_and_is_counted() {
        let cache = MemoCache::new(16, 1024);
        assert!(cache.poison_shard(3), "shard lock must end up poisoned");
        // Every surface keeps working; the first touch clears the shard.
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().lock_poisoned, 1);
        let engine = memoized_engine(16, 1024);
        let q = query(&[0.25, 0.5, 0.75]);
        engine.evaluate(&q).unwrap();
        let poisoned_one = engine.cache().unwrap().poison_shard(0);
        let poisoned_two = engine.cache().unwrap().poison_shard(1);
        assert!(poisoned_one && poisoned_two);
        // Serving continues; the poisoned shards were cleared, so the
        // answer is correct either way (recompute or surviving shard).
        let again = engine.evaluate(&q).unwrap();
        assert_eq!(engine.report().cache.hits + engine.report().cache.misses, 2);
        let clean = AnalyticEvaluator::paper()
            .evaluate(&q.quantized(16))
            .unwrap();
        assert_eq!(again.vout, clean.vout);
        // Touching every shard recovers (and counts) both poisoned locks.
        let _ = engine.cache().unwrap().len();
        assert_eq!(engine.report().cache.lock_poisoned, 2);
    }

    /// Test evaluator that fails its first `remaining` calls with a
    /// transient non-convergence, then answers analytically, posing as
    /// the given tier.
    #[derive(Debug)]
    struct FlakyEvaluator {
        inner: AnalyticEvaluator,
        remaining: Arc<AtomicU64>,
        calls: Arc<AtomicU64>,
        pose_as: Tier,
    }

    impl FlakyEvaluator {
        fn new(failures: u64, pose_as: Tier) -> (Self, Arc<AtomicU64>, Arc<AtomicU64>) {
            let remaining = Arc::new(AtomicU64::new(failures));
            let calls = Arc::new(AtomicU64::new(0));
            (
                FlakyEvaluator {
                    inner: AnalyticEvaluator::paper(),
                    remaining: remaining.clone(),
                    calls: calls.clone(),
                    pose_as,
                },
                remaining,
                calls,
            )
        }
    }

    impl Evaluator for FlakyEvaluator {
        fn vout(&self, duties: &[DutyCycle], weights: &WeightVector) -> Result<Volts, CoreError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let failing = self
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok();
            if failing {
                return Err(CoreError::Simulation(mssim::Error::NonConvergence {
                    analysis: "transient",
                    time: 0.0,
                    iterations: 0,
                    stage: "flaky",
                    attempts: 0,
                }));
            }
            self.inner.vout(duties, weights)
        }

        fn vdd(&self) -> Volts {
            self.inner.vdd()
        }

        fn tier(&self) -> Tier {
            self.pose_as
        }
    }

    fn flaky_engine(flaky_failures: u64) -> (InferenceEngine, Arc<AtomicU64>, Arc<AtomicU64>) {
        let (flaky, remaining, calls) = FlakyEvaluator::new(flaky_failures, Tier::SwitchLevel);
        let engine = InferenceEngine::paper()
            .with_switch_tier(flaky)
            .with_policy(TierPolicy::switch_level());
        (engine, remaining, calls)
    }

    /// A cached engine whose switch tier is the analytic closed form
    /// posing as `SwitchLevel`: its answers are memoized, and each equals
    /// `AnalyticEvaluator::paper()` on the admitted query.
    fn memoized_engine(resolution: u32, capacity: usize) -> InferenceEngine {
        flaky_engine(0).0.with_cache(resolution, capacity)
    }

    #[test]
    fn failed_tier_demotes_to_analytic_with_bound() {
        use mssim::telemetry::MemoryRecorder;
        let (engine, _, calls) = flaky_engine(u64::MAX);
        let q = query(&[0.25, 0.5, 0.75]);
        let mut rec = MemoryRecorder::new();
        let eval = engine.evaluate_observed(&q, &mut rec).unwrap();
        assert!(eval.degraded);
        assert_eq!(eval.tier, Tier::Analytic);
        assert_eq!(eval.error_bound, ANALYTIC_ERROR_BOUND);
        assert_eq!(calls.load(Ordering::Relaxed), 1, "one attempt per tier");
        // The degraded answer still matches the analytic closed form.
        let clean = AnalyticEvaluator::paper().evaluate(&q).unwrap();
        assert_eq!(eval.vout, clean.vout);
        let stats = engine.resilience_stats();
        assert_eq!(stats.demotions, 1);
        assert_eq!(stats.degraded_served, 1);
        assert_eq!(rec.counter_value("resil.degraded"), 1);
        assert!(rec.events().iter().any(|e| matches!(
            e,
            Event::Degraded {
                demanded: "switch-level",
                served: "analytic",
                ..
            }
        )));
    }

    #[test]
    fn structural_errors_are_not_demoted() {
        let (engine, _, _) = flaky_engine(0);
        let ragged = Query {
            duties: vec![DutyCycle::new(0.5)],
            weights: WeightVector::new(vec![7, 7], 3).unwrap(),
        };
        let err = engine.evaluate(&ragged).unwrap_err();
        assert!(matches!(err, CoreError::DimensionMismatch { .. }));
        assert_eq!(engine.resilience_stats(), ResilStats::default());
    }

    #[test]
    fn batch_carries_failed_slots_down_the_ladder() {
        let (engine, _, calls) = flaky_engine(3);
        let qs: Vec<Query> = (0..8).map(|i| query(&[i as f64 / 7.0, 0.5, 0.5])).collect();
        let out = engine.evaluate_batch(&qs);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            8,
            "the failing tier is not asked again"
        );
        let mut degraded = 0;
        for (q, r) in qs.iter().zip(&out) {
            let eval = r.as_ref().expect("the ladder answers every slot");
            if eval.degraded {
                degraded += 1;
                assert_eq!(eval.tier, Tier::Analytic);
                assert_eq!(eval.error_bound, ANALYTIC_ERROR_BOUND);
                let clean = AnalyticEvaluator::paper().evaluate(q).unwrap();
                assert_eq!(eval.vout, clean.vout);
            } else {
                assert_eq!(eval.tier, Tier::SwitchLevel);
            }
        }
        assert_eq!(degraded, 3);
        assert_eq!(engine.resilience_stats().degraded_served, 3);
        assert_eq!(engine.report().evals(Tier::Analytic), 3);
    }

    #[test]
    fn degraded_answers_are_not_memoized_across_tiers() {
        // A degraded (analytic-served) answer must not later be served as
        // a cache hit: demoted tiers bypass the cache.
        let (flaky, remaining, _) = FlakyEvaluator::new(1, Tier::SwitchLevel);
        let engine = InferenceEngine::paper()
            .with_switch_tier(flaky)
            .with_policy(TierPolicy::switch_level())
            .with_cache(16, 1024);
        let q = query(&[0.25, 0.5, 0.75]);
        let degraded = engine.evaluate(&q).unwrap();
        assert!(degraded.degraded, "first serve degrades (flaky fails)");
        assert!(!degraded.cached);
        assert_eq!(remaining.load(Ordering::Relaxed), 0);
        let healed = engine.evaluate(&q).unwrap();
        assert!(!healed.degraded, "healed tier serves at full fidelity");
        assert!(!healed.cached, "the degraded answer was never cached");
        assert_eq!(healed.tier, Tier::SwitchLevel);
        assert!(engine.evaluate(&q).unwrap().cached);
    }

    #[test]
    #[should_panic(expected = "at most 65536 duty levels")]
    fn cache_rejects_grids_finer_than_its_keys() {
        // A key holds a level index in at most 16 bits, so a 2^17-level
        // grid is refused rather than keyed.
        let _ = MemoCache::new(65_537, 1024);
    }

    #[test]
    fn finest_cache_grid_keys_every_level_apart() {
        let engine = memoized_engine(1 << 16, 1024);
        let analytic = AnalyticEvaluator::paper();
        for level in [65_533u32, 65_534, 65_535] {
            let d = level as f64 / 65_535.0;
            let q = Query::from_raw(&[d], &[7], 3).unwrap();
            let got = engine.evaluate(&q).unwrap();
            assert!(!got.cached, "level {level} has its own key");
            assert_eq!(
                got.vout,
                analytic.evaluate(&q.quantized(1 << 16)).unwrap().vout
            );
        }
    }
}
