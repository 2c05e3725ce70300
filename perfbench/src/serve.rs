//! `serve_hotset` and `serve_uniform`: one closed-loop client answering
//! a seeded stream through `InferenceEngine::evaluate`.
//!
//! The client sends the next query after the previous answer, with no
//! think time: `evaluate` is a synchronous in-process call, so a closed
//! loop is the load its callers generate. Every pass starts on a newly
//! built engine with an empty memo cache.

use std::time::Instant;

use bench::serve::serve_tech;
use mssim::prelude::{MemoryRecorder, Volts};
use pwm_perceptron::prelude::{
    AnalyticEvaluator, CircuitEvaluator, CoreError, DutyCycle, Eval, Evaluator, InferenceEngine,
    Query, SwitchLevelEvaluator, Tier, TierPolicy, WeightVector,
};
use pwmcell::{SimQuality, Technology};

use crate::metrics::Outcome;
use crate::replay::{self, AdderCase};
use crate::{spans, stats, streams, Timed, Units};

/// Which stream a serve workload answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// 95 % repeats of 32 hot pairs, circuit tier.
    Hotset,
    /// Uniform over a key space four times the cache, analytic tier.
    Uniform,
}

/// Queries cross-checked against a cache-free evaluation per run.
fn check_count(stream: Stream) -> usize {
    match stream {
        Stream::Hotset => 8,
        Stream::Uniform => 256,
    }
}

/// Circuit-tier misses replayed layer by layer in the traced run.
const REPLAYED_MISSES: usize = 12;

/// Everything a pass needs before its first query.
pub struct Setup {
    stream: Stream,
    tech: Technology,
    queries: Vec<Query>,
    checks: Vec<usize>,
}

/// Generates the seeded stream and the cross-check sample.
pub fn setup(stream: Stream, seed: u64) -> Setup {
    let queries = match stream {
        Stream::Hotset => streams::hotset(seed, streams::HOTSET_QUERIES),
        Stream::Uniform => streams::uniform(seed, streams::UNIFORM_QUERIES),
    };
    let checks = streams::check_sample(seed, queries.len(), check_count(stream));
    let s = Setup {
        stream,
        tech: serve_tech(),
        queries,
        checks,
    };
    // The engine is part of set-up: build (and drop) one as a pass would.
    std::hint::black_box(engine(&s));
    s
}

fn circuit(tech: &Technology) -> CircuitEvaluator {
    CircuitEvaluator::new(tech.clone(), SimQuality::fast())
}

/// The circuit tier: forwards to `CircuitEvaluator` inside an
/// `eval.circuit` span, the engine → tier boundary of the traced run.
struct CircuitTier(CircuitEvaluator);

impl Evaluator for CircuitTier {
    fn vout(&self, duties: &[DutyCycle], weights: &WeightVector) -> Result<Volts, CoreError> {
        spans::span("eval.circuit", None, || self.0.vout(duties, weights))
    }

    fn vdd(&self) -> Volts {
        self.0.vdd()
    }

    fn tier(&self) -> Tier {
        Tier::Circuit
    }

    fn evaluate(&self, query: &Query) -> Result<Eval, CoreError> {
        spans::span("eval.circuit", None, || self.0.evaluate(query))
    }
}

/// A newly built engine: `repro serve`'s circuit-policy engine for the
/// hot set, the analytic-policy engine for the uniform stream, both with
/// `repro serve`'s 16-level, 65 536-entry memo cache.
fn engine(s: &Setup) -> InferenceEngine {
    let base = InferenceEngine::new(s.tech.vdd);
    let base = match s.stream {
        Stream::Hotset => base
            .with_switch_tier(SwitchLevelEvaluator::new(s.tech.clone()))
            .with_circuit_tier(CircuitTier(circuit(&s.tech)))
            .with_policy(TierPolicy::circuit()),
        Stream::Uniform => base.with_policy(TierPolicy::analytic()),
    };
    base.with_cache(streams::RESOLUTION, streams::CACHE_CAPACITY)
}

/// One closed-loop pass: per query, its latency (µs), its answer's bits
/// (`None` for an error) and whether the memo cache answered it.
struct Pass {
    latency_us: Vec<f64>,
    vout_bits: Vec<Option<u64>>,
    cached: Vec<bool>,
}

fn pass(s: &Setup, engine: &InferenceEngine) -> Pass {
    let n = s.queries.len();
    let mut p = Pass {
        latency_us: Vec::with_capacity(n),
        vout_bits: Vec::with_capacity(n),
        cached: Vec::with_capacity(n),
    };
    for (i, q) in s.queries.iter().enumerate() {
        let t0 = Instant::now();
        let answer = spans::span("infer.evaluate", Some(i as u64), || engine.evaluate(q));
        p.latency_us.push(t0.elapsed().as_nanos() as f64 * 1e-3);
        p.vout_bits
            .push(answer.as_ref().ok().map(|e| e.vout.value().to_bits()));
        p.cached.push(answer.is_ok_and(|e| e.cached));
    }
    p
}

/// Counts every answer, each of which must be `Ok`; the sampled ones
/// must also equal a cache-free evaluation at the same tier, bit for bit
/// (the stream sits on the cache grid, so quantization is the identity).
fn check(s: &Setup, p: &Pass, out: &mut Outcome) {
    for v in &p.vout_bits {
        out.check(v.is_some());
    }
    let direct: Box<dyn Evaluator> = match s.stream {
        Stream::Hotset => Box::new(circuit(&s.tech)),
        Stream::Uniform => Box::new(AnalyticEvaluator::new(s.tech.vdd)),
    };
    for &i in &s.checks {
        let want = direct
            .evaluate(&s.queries[i])
            .ok()
            .map(|e| e.vout.value().to_bits());
        out.check(want.is_some() && want == p.vout_bits[i]);
    }
}

/// The untraced run: fresh-engine passes while time remains.
pub fn measure(s: &Setup, seconds: f64, passes: &mut Units, out: &mut Outcome) {
    passes.repeat(seconds, |passes| {
        let e = engine(s);
        let timed = Timed::run(|| pass(s, &e));
        let queries = s.queries.len() as f64;
        passes.add(timed.wall, timed.cpu, queries, &timed.value.latency_us);
        check(s, &timed.value, out);
    });
    if s.stream == Stream::Uniform {
        out.note("key_space", streams::uniform_key_space());
    }
}

/// The traced run: an untraced pass, a traced pass with a span per
/// query and per circuit-tier call, the analytic tier timed alone on the
/// same queries, and (hot set) a layer-by-layer replay of some misses.
pub fn trace(s: &Setup, out: &mut Outcome) {
    let untraced = Timed::run(|| pass(s, &engine(s)));
    spans::install();
    let traced_engine = engine(s);
    let traced = Timed::run(|| pass(s, &traced_engine));
    let report = traced_engine.report();
    check(s, &traced.value, out);

    // The analytic tier lives inside the engine; time it alone.
    let analytic = AnalyticEvaluator::new(s.tech.vdd);
    let t0 = Instant::now();
    for q in &s.queries {
        std::hint::black_box(analytic.evaluate(std::hint::black_box(q)).ok());
    }
    let analytic_ns = t0.elapsed().as_nanos() as f64 / s.queries.len() as f64;

    let mut rec = MemoryRecorder::new();
    let replayed = match s.stream {
        Stream::Hotset => {
            // Whether the replay mirrors the live call bit for bit is a
            // property of the benchmark, not an answer of the program: a
            // note, not a check. The answers are checked above.
            let (picked, faithful) = replay_misses(s, &mut rec);
            out.note("replay_bitwise", faithful);
            picked
        }
        Stream::Uniform => Vec::new(),
    };
    let all = spans::take();
    let totals = spans::totals(&all);

    let evaluate = totals["infer.evaluate"];
    let hits: Vec<f64> = all
        .iter()
        .filter(|sp| sp.name == "infer.evaluate")
        .filter(|sp| traced.value.cached[sp.query.expect("evaluate spans carry a query") as usize])
        .map(|sp| sp.ns() as f64)
        .collect();
    if !hits.is_empty() {
        out.metric("infer.hit_ns", stats::median(&hits), hits.len());
    }
    out.metric(
        "infer.self_ns",
        evaluate.self_ns as f64 / evaluate.count as f64,
        evaluate.count as usize,
    );
    out.metric("infer.hit_rate", report.cache.hit_rate(), 1);
    out.count("infer.evictions", report.cache.evictions);
    out.count("infer.tier_evals", report.tier_evals.iter().sum());
    out.metric("eval.analytic_ns", analytic_ns, s.queries.len());
    let circuit_ms = spans::durations_ms(&all, "eval.circuit");
    if !circuit_ms.is_empty() {
        let mut sorted = circuit_ms.clone();
        sorted.sort_by(f64::total_cmp);
        out.metric(
            "eval.circuit_ms_p50",
            stats::median(&circuit_ms),
            circuit_ms.len(),
        );
        out.metric(
            "eval.circuit_ms_p99",
            stats::percentile_sorted(&sorted, 99.0),
            circuit_ms.len(),
        );
    }

    // What the pass spent outside `evaluate`: the client loop itself.
    let pass_ns = traced.wall * 1e9;
    out.metric(
        "trace.unattributed_pct",
        100.0 * (pass_ns - evaluate.total_ns as f64).max(0.0) / pass_ns,
        1,
    );
    out.metric(
        "trace.overhead_pct",
        100.0 * (traced.wall - untraced.wall) / untraced.wall,
        2,
    );
    if s.stream == Stream::Hotset {
        let live_ns: f64 = all
            .iter()
            .filter(|sp| sp.name == "infer.evaluate")
            .filter(|sp| replayed.contains(&(sp.query.unwrap_or(u64::MAX) as usize)))
            .map(|sp| sp.ns() as f64)
            .sum();
        crate::report_replay(out, &totals, &rec, live_ns);
    }
    crate::write_spans(&all);
}

/// Replays the first distinct circuit-tier misses of the stream through
/// the testbench and solver calls. Returns their stream positions and
/// whether every replay reproduced the live answer bit for bit.
fn replay_misses(s: &Setup, rec: &mut MemoryRecorder) -> (Vec<usize>, bool) {
    let mut seen: Vec<&Query> = Vec::new();
    let mut picked = Vec::new();
    let mut faithful = true;
    for (i, q) in s.queries.iter().enumerate() {
        if picked.len() == REPLAYED_MISSES {
            break;
        }
        if seen.contains(&q) {
            continue;
        }
        seen.push(q);
        picked.push(i);
        let duties = DutyCycle::to_raw(q.duties());
        let case = AdderCase {
            tech: &s.tech,
            duties: &duties,
            weights: q.weights().as_slice(),
            frequency: s.tech.frequency,
            vdd: s.tech.vdd,
            quality: &SimQuality::fast(),
        };
        let r = replay::adder(&case, rec);
        faithful &= r.live_vout.to_bits() == r.replay_vout.to_bits();
    }
    (picked, faithful)
}
