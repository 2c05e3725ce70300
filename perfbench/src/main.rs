//! Benchmark workload process: runs one workload of `BENCHMARK.json`,
//! checks its outputs and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <campaigns|serve_hotset|serve_uniform>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! perfbench --record            # regenerate reference/*.tsv on stdout
//! ```
//!
//! `run.py` builds this binary, pins it to one CPU and turns its result
//! line into the benchmark's report. See `README.md` for the design.

mod campaigns;
mod figures;
mod host;
mod metrics;
mod reference;
mod replay;
mod serve;
mod spans;
mod stats;
mod streams;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

use mssim::prelude::MemoryRecorder;

use metrics::Outcome;

/// Seed the runner uses when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed held out from tuning; later claims are checked on it again.
pub const HELD_OUT_SEED: u64 = 104_729;

/// Between two units, fresh set-ups are timed at least once and for at
/// least this long.
const SETUP_SECONDS: f64 = 0.02;

/// Wall and CPU time of one call.
pub struct Timed<T> {
    /// What the call returned.
    pub value: T,
    /// Wall time, seconds.
    pub wall: f64,
    /// CPU time, seconds.
    pub cpu: f64,
}

impl<T> Timed<T> {
    /// Times `f`.
    pub fn run(f: impl FnOnce() -> T) -> Timed<T> {
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let value = f();
        let wall = t0.elapsed().as_secs_f64();
        Timed {
            value,
            wall,
            cpu: host::cpu_seconds() - cpu0,
        }
    }
}

/// The units of a run — jobs, or passes over a stream — each repeating
/// the same operations in the same order, with fresh set-ups of the
/// workload timed between them.
///
/// On a shared VM one CPU's speed moves by tens of per cent from one
/// second to the next while no steal is recorded. So each operation's
/// latency, and the set-up's, is kept at its best over the whole run, and
/// the run reports the composite: a unit in which every operation ran
/// undisturbed.
pub struct Units {
    walls: Vec<f64>,
    cpus: Vec<f64>,
    ops: f64,
    /// Best latency of each operation, µs.
    best_us: Vec<f64>,
    /// Best time of a unit outside its timed operations, s.
    best_rest: f64,
    /// Peak resident set once set-up and the first unit are done, MiB.
    peak_rss: f64,
    /// Builds and drops a fresh set-up; returns its time in seconds.
    setup: Box<dyn FnMut() -> f64>,
    /// Set-up times, seconds.
    setup_s: Vec<f64>,
}

impl Units {
    /// A run whose process set up in `first_setup_s`; `setup` times one
    /// more set-up.
    pub fn new(first_setup_s: f64, setup: impl FnMut() -> f64 + 'static) -> Units {
        Units {
            walls: Vec::new(),
            cpus: Vec::new(),
            ops: 0.0,
            best_us: Vec::new(),
            best_rest: 0.0,
            peak_rss: 0.0,
            setup: Box::new(setup),
            setup_s: vec![first_setup_s],
        }
    }

    /// Adds one unit: wall and CPU seconds, operations completed, and the
    /// latency in µs of each timed operation, in the same order as every
    /// other unit's.
    ///
    /// # Panics
    ///
    /// Panics if the unit timed a different number of operations.
    pub fn add(&mut self, wall: f64, cpu: f64, ops: f64, op_us: &[f64]) {
        let rest = (wall - op_us.iter().sum::<f64>() * 1e-6).max(0.0);
        if self.walls.is_empty() {
            self.best_us = op_us.to_vec();
            self.best_rest = rest;
            // Later units repeat the same work; what they add to the peak
            // is allocator churn, not the program's footprint.
            self.peak_rss = host::peak_rss_mib();
        } else {
            assert_eq!(
                op_us.len(),
                self.best_us.len(),
                "units repeat the same operations"
            );
            for (best, &us) in self.best_us.iter_mut().zip(op_us) {
                *best = best.min(us);
            }
            self.best_rest = self.best_rest.min(rest);
        }
        self.walls.push(wall);
        self.cpus.push(cpu);
        self.ops = ops;
    }

    /// Runs `unit`, which adds itself, at least once, and again while
    /// another unit of median length still fits in `seconds`. After each
    /// unit, set-ups are timed for [`SETUP_SECONDS`].
    pub fn repeat(&mut self, seconds: f64, mut unit: impl FnMut(&mut Units)) {
        let start = Instant::now();
        loop {
            unit(self);
            let setups = Instant::now();
            loop {
                let s = (self.setup)();
                self.setup_s.push(s);
                if setups.elapsed().as_secs_f64() >= SETUP_SECONDS {
                    break;
                }
            }
            if start.elapsed().as_secs_f64() + stats::median(&self.walls) > seconds {
                break;
            }
        }
    }

    /// Reports the end-to-end metrics of the composite unit. Its CPU time
    /// is its wall time times the run's CPU share (CPU over wall time,
    /// summed over units), which leaves out time spent waiting for a CPU.
    /// The latency percentiles are taken over the operations' best
    /// latencies, one sample per operation; the tail is p99, or the
    /// highest percentile below it with ten samples beyond it.
    pub fn report(&self, out: &mut Outcome) {
        let n = self.walls.len();
        let wall = self.best_us.iter().sum::<f64>() * 1e-6 + self.best_rest;
        let share = self.cpus.iter().sum::<f64>() / self.walls.iter().sum::<f64>();
        let best_setup = self.setup_s.iter().copied().fold(f64::INFINITY, f64::min);
        out.metric("setup_s", best_setup, self.setup_s.len());
        out.metric("peak_rss_mb", self.peak_rss, 1);
        out.metric("wall_s", wall, n);
        out.metric("cpu_s", wall * share, n);
        out.metric("throughput", self.ops / wall, n);
        let mut sorted = self.best_us.clone();
        sorted.sort_by(f64::total_cmp);
        let tail = stats::tail(&sorted, 99.0).expect("a unit times at least 20 operations");
        out.metric(
            "latency_p50_us",
            stats::band_percentile(&sorted, 50.0),
            sorted.len(),
        );
        out.metric(
            "latency_p99_us",
            stats::band_percentile(&sorted, tail.percentile),
            sorted.len(),
        );
        out.note(
            "latency_tail",
            format!("p{} over {} operations", tail.percentile, tail.samples),
        );
        let walls: Vec<String> = self.walls.iter().map(|w| format!("{w:.3}")).collect();
        out.note("unit_walls_s", walls.join(" "));
        out.note(
            "setups_median_s",
            format!("{:.3e}", stats::median(&self.setup_s)),
        );
    }
}

/// Per-layer metrics of a replay: mean time per call of each replayed
/// layer, the solver counts, and how close build + transient come to the
/// live time of the same inputs (`live_ns`). The transient runs its own
/// preflight and plan compile, so `session.lint_us` and
/// `plan.compile_us` are its first two parts, timed alone.
pub fn report_replay(
    out: &mut Outcome,
    totals: &BTreeMap<&'static str, spans::Totals>,
    rec: &MemoryRecorder,
    live_ns: f64,
) {
    let mean = |name: &str, scale: f64| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.count as f64 * scale)
    };
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.count as usize);
    out.metric(
        "testbench.build_us",
        mean("testbench.build", 1e-3),
        calls("testbench.build"),
    );
    out.metric(
        "testbench.measure_ms",
        mean("testbench.measure", 1e-6),
        calls("testbench.measure"),
    );
    out.metric(
        "session.lint_us",
        mean("session.lint", 1e-3),
        calls("session.lint"),
    );
    out.metric(
        "plan.compile_us",
        mean("plan.compile", 1e-3),
        calls("plan.compile"),
    );
    out.metric("dcop.ms", mean("dcop", 1e-6), calls("dcop"));
    out.metric("tran.ms", mean("tran", 1e-6), calls("tran"));
    let steps = rec.counter_value("tran.steps_accepted");
    let tran_ns = totals.get("tran").map_or(0, |t| t.total_ns) as f64;
    out.metric(
        "tran.us_per_step",
        tran_ns * 1e-3 / steps.max(1) as f64,
        steps as usize,
    );
    for name in [
        "tran.steps_accepted",
        "tran.steps_rejected",
        "newton.iterations",
        "newton.device_evals",
        "newton.latency_hits",
        "plan.factorizations",
        "plan.bypasses",
        "homotopy.gmin_steps",
    ] {
        out.count(name, rec.counter_value(name));
    }
    let build_ns = totals.get("testbench.build").map_or(0, |t| t.total_ns) as f64;
    if live_ns > 0.0 {
        out.metric(
            "replay.coverage",
            (build_ns + tran_ns) / live_ns,
            calls("tran"),
        );
    }
}

static SPAN_DIR: OnceLock<Option<PathBuf>> = OnceLock::new();

/// Writes the traced run's spans as JSON lines into the `--out` directory.
pub fn write_spans(all: &[spans::Span]) {
    let Some(Some(dir)) = SPAN_DIR.get() else {
        return;
    };
    let path = dir.join("spans.jsonl");
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans::to_jsonl(all)))
    {
        eprintln!("could not write {}: {e}", path.display());
    }
}

enum Workload {
    Campaigns(campaigns::Setup),
    Serve(serve::Setup),
}

/// Everything a workload builds before its first measured operation.
fn setup(name: &str, seed: u64) -> Option<Workload> {
    Some(match name {
        "campaigns" => Workload::Campaigns(campaigns::setup()),
        "serve_hotset" => Workload::Serve(serve::setup(serve::Stream::Hotset, seed)),
        "serve_uniform" => Workload::Serve(serve::setup(serve::Stream::Uniform, seed)),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
    out: Option<PathBuf>,
}

/// A seed is any 64-bit integer; negative ones keep their bit pattern.
fn parse_seed(text: &str) -> Result<u64, String> {
    text.parse::<u64>()
        .or_else(|_| text.parse::<i64>().map(|s| s as u64))
        .map_err(|e| format!("--seed: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        record: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = parse_seed(&value()?)?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--record" => args.record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Prints the reference files' contents: seed-independent figure rows and
/// the Monte Carlo rows of both recorded seeds, then campaign verdicts.
fn record() {
    println!("# figures.tsv");
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        for line in figures::record(&figures::setup(seed), seed == DEFAULT_SEED) {
            println!("{line}");
        }
    }
    println!("# campaigns.tsv");
    for line in campaigns::record(&campaigns::setup()) {
        println!("{line}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.record {
        record();
        return;
    }
    let _ = SPAN_DIR.set(args.out.clone());
    let t0 = Instant::now();
    let Some(workload) = setup(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload '{}'", args.workload);
        std::process::exit(2);
    };
    let first_setup_s = t0.elapsed().as_secs_f64();
    let mut out = Outcome::default();
    if args.trace {
        match &workload {
            Workload::Campaigns(s) => {
                campaigns::trace(s, &figures::setup(args.seed), &mut out);
            }
            Workload::Serve(s) => serve::trace(s, &mut out),
        }
        out.count("sweep.workers", host::sweep_workers() as u64);
        out.zero_unmeasured_layers();
    } else {
        let (name, seed) = (args.workload.clone(), args.seed);
        let mut units = Units::new(first_setup_s, move || {
            let t0 = Instant::now();
            let fresh = setup(&name, seed);
            let s = t0.elapsed().as_secs_f64();
            drop(fresh);
            s
        });
        match &workload {
            Workload::Campaigns(s) => campaigns::measure(s, args.seconds, &mut units, &mut out),
            Workload::Serve(s) => serve::measure(s, args.seconds, &mut units, &mut out),
        }
        units.report(&mut out);
    }
    out.note("sweep_workers", host::sweep_workers());
    out.note("end_peak_rss_mb", host::peak_rss_mib());
    println!("{}", out.to_json(&args.workload, args.seed, args.trace));
}
