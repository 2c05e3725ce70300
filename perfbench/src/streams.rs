//! Seeded serve streams. The program receives only the generated queries.

use bench::serve::{hotset_stream, uniform_stream, ServeConfig};
use pwm_perceptron::prelude::{DutyCycle, Query, WeightVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Duty levels of the serving grid (the `repro serve` grid). Queries sit
/// on it exactly, so the memo cache's quantization is the identity.
pub const RESOLUTION: u32 = 16;

/// Memo-cache capacity of both serve engines (the `repro serve` cache).
pub const CACHE_CAPACITY: usize = 1 << 16;

/// Hot-set stream length per pass.
pub const HOTSET_QUERIES: usize = 4_000;
/// Distinct hot (duty, weight) pairs.
pub const HOT_SET: usize = 32;
/// Share of hot-set queries drawn from the hot set.
pub const HOT_PROB: f64 = 0.95;

/// Uniform stream length per pass: four times the cache capacity.
pub const UNIFORM_QUERIES: usize = 1 << 18;

fn weights(w: &[u32]) -> WeightVector {
    WeightVector::new(w.to_vec(), 3).expect("3-bit weights are valid")
}

/// The uniform stream's weight pool: every vector of odd 3-bit weights.
pub fn odd_weight_pool() -> Vec<WeightVector> {
    let odd = [1u32, 3, 5, 7];
    let mut pool = Vec::with_capacity(64);
    for a in odd {
        for b in odd {
            for c in odd {
                pool.push(weights(&[a, b, c]));
            }
        }
    }
    pool
}

/// Distinct cache keys the uniform stream can draw from.
pub fn uniform_key_space() -> usize {
    (RESOLUTION as usize).pow(3) * odd_weight_pool().len()
}

fn grid_query(rng: &mut StdRng, pool: &[WeightVector]) -> Query {
    let top = f64::from(RESOLUTION - 1);
    let duties: Vec<DutyCycle> = (0..3)
        .map(|_| DutyCycle::new(f64::from(rng.gen_range(0..RESOLUTION)) / top))
        .collect();
    let w = pool[rng.gen_range(0..pool.len())].clone();
    Query::new(duties, w).expect("pool dimensions match")
}

/// Uniform queries over the 16-level grid and the odd-weight pool.
pub fn uniform(seed: u64, n: usize) -> Vec<Query> {
    let pool = odd_weight_pool();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0001);
    (0..n).map(|_| grid_query(&mut rng, &pool)).collect()
}

/// The hot-set stream of `repro serve` (32 hot pairs, p = 0.95, 16-level
/// grid, Table II weight pool), stratified. Its hot repeats come from
/// `bench::serve::hotset_stream` with every query drawn from the hot set,
/// its fresh draws from `bench::serve::uniform_stream`, both under `seed`;
/// exactly `round(p·n)` of the `n` queries are hot, at seeded positions.
/// `hotset_stream` itself draws hot or fresh per query, which moves the
/// miss count, and with it the pass time, from seed to seed.
pub fn hotset(seed: u64, n: usize) -> Vec<Query> {
    let n_hot = (HOT_PROB * n as f64).round() as usize;
    let config = |queries, hot_prob| ServeConfig {
        queries,
        seed,
        resolution: RESOLUTION,
        hot_set: HOT_SET,
        hot_prob,
        ..ServeConfig::default()
    };
    let mut hot = hotset_stream(&config(n_hot, 1.0)).into_iter();
    let mut fresh = uniform_stream(&config(n - n_hot, HOT_PROB)).into_iter();
    let mut is_hot: Vec<bool> = (0..n).map(|i| i < n_hot).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0002);
    for i in (1..n).rev() {
        is_hot.swap(i, rng.gen_range(0..=i));
    }
    is_hot
        .into_iter()
        .map(|h| if h { hot.next() } else { fresh.next() })
        .map(|q| q.expect("one query per position"))
        .collect()
}

/// Indices of `k` stream positions for the cache-free cross-check.
pub fn check_sample(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0003);
    (0..k).map(|_| rng.gen_range(0..n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    type Key = (Vec<u64>, Vec<u32>);

    fn key(q: &Query) -> Key {
        (
            q.duties().iter().map(|d| d.value().to_bits()).collect(),
            q.weights().as_slice().to_vec(),
        )
    }

    #[test]
    fn streams_repeat_under_one_seed_and_differ_under_another() {
        assert_eq!(uniform(3, 500), uniform(3, 500));
        assert_ne!(uniform(3, 500), uniform(4, 500));
        assert_eq!(hotset(3, 500), hotset(3, 500));
        assert_ne!(hotset(3, 500), hotset(4, 500));
        assert_eq!(check_sample(3, 100, 8), check_sample(3, 100, 8));
        assert_ne!(check_sample(3, 100, 8), check_sample(4, 100, 8));
    }

    #[test]
    fn uniform_key_space_exceeds_the_cache_capacity() {
        assert_eq!(uniform_key_space(), 262_144);
        assert!(uniform_key_space() >= 4 * CACHE_CAPACITY);
        // The stream really spreads over the space: one pass touches far
        // more distinct keys than the cache can hold.
        let distinct: HashSet<Key> = uniform(1, UNIFORM_QUERIES).iter().map(key).collect();
        assert!(distinct.len() > 2 * CACHE_CAPACITY, "{}", distinct.len());
    }

    /// Distinct keys of a stream: the misses of a pass on a fresh engine.
    fn misses(stream: &[Query]) -> usize {
        stream.iter().map(key).collect::<HashSet<Key>>().len()
    }

    #[test]
    fn stratified_hotset_holds_its_miss_count_across_seeds() {
        let range = |counts: Vec<usize>| {
            let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            (hi - lo) as f64 / *lo as f64
        };
        let seeds = 1..=10u64;
        let stratified = range(
            seeds
                .clone()
                .map(|s| misses(&hotset(s, HOTSET_QUERIES)))
                .collect(),
        );
        let bernoulli = range(
            seeds
                .map(|seed| {
                    let config = ServeConfig {
                        queries: HOTSET_QUERIES,
                        seed,
                        ..ServeConfig::default()
                    };
                    misses(&hotset_stream(&config))
                })
                .collect(),
        );
        assert!(stratified < 0.05, "{stratified}");
        assert!(bernoulli > 3.0 * stratified, "{bernoulli} vs {stratified}");
    }

    #[test]
    fn hotset_holds_its_share_of_hot_queries() {
        let n = 2_000;
        let n_hot = (HOT_PROB * n as f64).round() as usize;
        let stream = hotset(9, n);
        let mut counts: HashMap<Key, usize> = HashMap::new();
        for q in &stream {
            *counts.entry(key(q)).or_insert(0) += 1;
        }
        // Hot pairs each recur ~60 times; a cold draw lands on a hot pair
        // only by chance (32 of 12 288 keys).
        let hot_total: usize = counts.values().filter(|&&c| c > 10).sum();
        assert!((n_hot..=n_hot + 5).contains(&hot_total), "{hot_total}");
    }
}
