//! Structured instrumentation for every analysis the simulator runs.
//!
//! The paper's claims are validated by thousands of transient sweeps; when
//! one of them slows down or stops converging, the only visibility used to
//! be a single `SolverStats` struct buried in the plan solver. This module
//! makes the solver's behaviour observable end to end:
//!
//! * an [`Observer`] trait receiving **counters** (monotonic event tallies),
//!   **histograms** (distributions such as step sizes and per-point wall
//!   times) and typed [`Event`]s,
//! * instrumentation points threaded through the DC operating-point
//!   homotopy (gmin/source stepping), the Newton loop (iterations, residual
//!   norms, plan-cache hits), fixed-step transient stepping (accepted steps
//!   and the convergence-rescue ladder) and the multi-core sweep driver
//!   (per-point wall time, steal counts),
//! * three ready-made sinks: [`MemoryRecorder`] for tests, [`JsonlWriter`]
//!   for schema-versioned machine-readable traces, and [`Summary`] for a
//!   human-readable table — composable with [`Tee`].
//!
//! # Zero overhead when disabled
//!
//! The hot loops never see the observer. The plan solver counts its work
//! unconditionally in `SolverStats` (a handful of integer increments it has
//! always performed); telemetry reads the counters *around* each solve and
//! publishes the delta. With no observer attached the probe is a `None`
//! check per solve — nothing per Newton iteration, nothing per stamp.
//!
//! Attach an observer through [`Session::observe`](crate::Session::observe):
//!
//! ```
//! use mssim::prelude::*;
//!
//! let mut ckt = Circuit::new();
//! let a = ckt.node("a");
//! ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
//! ckt.resistor("R1", a, Circuit::GND, 1e3);
//!
//! let mut rec = MemoryRecorder::new();
//! let op = Session::new(&ckt).observe(&mut rec).dc_operating_point()?;
//! assert!((op.voltage(a) - 1.0).abs() < 1e-12);
//! assert!(rec.counter_value("newton.solves") >= 1);
//! # Ok::<(), mssim::Error>(())
//! ```

use std::collections::BTreeMap;
use std::io::{self, Write};

use crate::analysis::mna::{MnaLayout, NewtonOpts, SolveContext};
use crate::analysis::plan::{SolverEngine, SolverStats};
use crate::error::Error;
use crate::netlist::Circuit;

/// Schema identifier written as the first line of every JSONL trace.
pub const TRACE_SCHEMA: &str = "mssim-trace-v3";

/// Public snapshot of the plan solver's work counters.
///
/// Deltas of these appear on [`Event::NewtonSolve`] (work done by one
/// solve) and totals on [`Event::SolverReport`] (work done by one
/// analysis). The reference solver keeps no counters, so events carry
/// `None`/no report on that path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCounters {
    /// Newton iterations executed.
    pub iterations: u64,
    /// Full O(n³) LU factorizations performed.
    pub factorizations: u64,
    /// O(n²) back-substitutions performed.
    pub back_substitutions: u64,
    /// Linear solves skipped because the assembled system was bit-identical
    /// to the previous one (solution cache or Newton bypass).
    pub bypasses: u64,
    /// Base-matrix rebuilds.
    pub rebases: u64,
    /// MOSFET evaluations performed by the batched device block (latency
    /// hits excluded).
    pub device_evals: u64,
    /// Devices whose trial voltages were clamped by the `fetlim`/`limvds`
    /// limiting heuristics (limited mode only).
    pub limit_clamps: u64,
    /// Devices that reused their previous linearisation because their
    /// terminal voltages stayed inside the latency band (limited mode
    /// only).
    pub latency_hits: u64,
}

impl SolverCounters {
    /// Counter-wise `self - before`; saturates so a mismatched pair can
    /// never underflow.
    pub fn delta_since(&self, before: &SolverCounters) -> SolverCounters {
        SolverCounters {
            iterations: self.iterations.saturating_sub(before.iterations),
            factorizations: self.factorizations.saturating_sub(before.factorizations),
            back_substitutions: self
                .back_substitutions
                .saturating_sub(before.back_substitutions),
            bypasses: self.bypasses.saturating_sub(before.bypasses),
            rebases: self.rebases.saturating_sub(before.rebases),
            device_evals: self.device_evals.saturating_sub(before.device_evals),
            limit_clamps: self.limit_clamps.saturating_sub(before.limit_clamps),
            latency_hits: self.latency_hits.saturating_sub(before.latency_hits),
        }
    }
}

impl From<SolverStats> for SolverCounters {
    fn from(s: SolverStats) -> Self {
        SolverCounters {
            iterations: s.iterations,
            factorizations: s.factorizations,
            back_substitutions: s.back_substitutions,
            bypasses: s.bypasses,
            rebases: s.rebases,
            device_evals: s.device_evals,
            limit_clamps: s.limit_clamps,
            latency_hits: s.latency_hits,
        }
    }
}

/// A typed instrumentation event.
///
/// New variants may be added in minor releases; match with a wildcard arm.
/// The JSONL encoding of each variant is part of the [`TRACE_SCHEMA`]
/// contract and only changes with the schema version.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An analysis began (`"dc"`, `"dc-sweep"`, `"ac"`, `"noise"`,
    /// `"transient"`).
    AnalysisStart {
        /// Analysis name.
        analysis: &'static str,
    },
    /// The analysis finished successfully.
    AnalysisEnd {
        /// Analysis name.
        analysis: &'static str,
    },
    /// One stage of the DC operating-point homotopy concluded.
    Homotopy {
        /// `"direct"`, `"gmin"` or `"source"`.
        stage: &'static str,
        /// Step index within the stage (0 for the direct attempt).
        step: u32,
        /// Continuation parameter: the shunt conductance for gmin
        /// stepping, the source scale for source stepping, 0 for direct.
        param: f64,
        /// Whether this attempt converged.
        converged: bool,
    },
    /// One Newton solve (a full damped-iteration loop) converged.
    NewtonSolve {
        /// Analysis name.
        analysis: &'static str,
        /// Simulation time of the solve (0 for DC).
        time: f64,
        /// Iterations the loop took, from the solver's return value.
        iterations: u64,
        /// Plan-solver work delta for this solve; `None` on the
        /// reference path.
        plan: Option<SolverCounters>,
        /// Final-iteration maximum node-voltage update (a residual
        /// proxy); `None` on the reference path.
        max_dv: Option<f64>,
    },
    /// The transient stepper accepted a step.
    StepAccepted {
        /// Time at the end of the accepted step.
        time: f64,
        /// Step size taken.
        dt: f64,
    },
    /// The transient convergence-rescue ladder tried to recover a
    /// non-converged time step (see
    /// [`RescuePolicy`](crate::analysis::RescuePolicy)).
    RescueAttempt {
        /// Ladder stage: `"dt_cut"`, `"be"` or `"gmin"`.
        stage: &'static str,
        /// Target time of the step being rescued.
        time: f64,
        /// (Sub)step size used by this attempt.
        dt: f64,
        /// Continuation parameter: the shunt conductance for the gmin
        /// stage, 0 otherwise.
        param: f64,
        /// Whether this attempt advanced the solution to `time`.
        converged: bool,
    },
    /// The rescue ladder finished with a verdict for one troubled step.
    RescueOutcome {
        /// Target time of the step.
        time: f64,
        /// Stage that recovered the step, or `"exhausted"`.
        stage: &'static str,
        /// Ladder rungs tried (including the successful one).
        attempts: u32,
        /// Whether the step was recovered.
        recovered: bool,
    },
    /// One point of a multi-core sweep finished.
    SweepPoint {
        /// Index of the point in the input slice.
        index: usize,
        /// Wall-clock time the point took, in nanoseconds.
        wall_ns: u64,
        /// Index of the worker thread that executed it.
        thread: usize,
    },
    /// Total plan-solver work for one analysis run.
    SolverReport {
        /// Analysis name.
        analysis: &'static str,
        /// Counter totals accumulated by the engine over the run.
        counters: SolverCounters,
    },
    /// The abstract interpreter ([`crate::analyze`]) finished one
    /// circuit.
    AnalyzeReport {
        /// Deny-level findings (MS030/MS031).
        denials: u32,
        /// Warn-level findings (MS032/MS033).
        warnings: u32,
    },
    /// Static fault collapsing partitioned a campaign universe before
    /// any transient ran.
    FaultCollapse {
        /// Faults in the input universe.
        universe: usize,
        /// Distinct equivalence classes found.
        classes: usize,
        /// Faults that needed their own transient (class representatives).
        simulated: usize,
        /// Faults statically indistinguishable from the golden netlist.
        golden: usize,
    },
    /// The static triage tier pre-classified a campaign universe from
    /// guaranteed solution enclosures before any transient ran.
    FaultTriage {
        /// Faults in the input universe.
        universe: usize,
        /// Faults certified `GuaranteedMasked` without simulation.
        masked: usize,
        /// Faults certified `GuaranteedFail` without simulation.
        failed: usize,
        /// Faults left for the transient/rescue pipeline.
        simulated: usize,
    },
    /// A serving engine answered a query from a cheaper tier than the
    /// policy demanded, because the demanded tier failed — the answer was
    /// served flagged `degraded` with a certified error bound instead of
    /// failing the query.
    Degraded {
        /// Tier the policy demanded (`"analytic"`, `"switch-level"`,
        /// `"circuit"`).
        demanded: &'static str,
        /// Tier that actually answered.
        served: &'static str,
        /// Certified |served − reference| bound in volts.
        error_bound: f64,
    },
    /// A serving engine layered on `mssim` answered one inference batch
    /// (memo-cache hits plus per-tier evaluations).
    InferBatch {
        /// Queries in the batch.
        queries: usize,
        /// Queries answered from the memo cache.
        cache_hits: u64,
        /// Queries that fell through to an evaluator.
        cache_misses: u64,
        /// Cache entries discarded by capacity eviction during the batch.
        evictions: u64,
        /// Evaluations answered by the analytic tier.
        analytic: u64,
        /// Evaluations answered by the switch-level tier.
        switch_level: u64,
        /// Evaluations answered by the transistor-level tier.
        circuit: u64,
    },
}

/// Receiver for instrumentation emitted during an analysis.
///
/// All methods default to no-ops, so a sink only implements what it needs:
/// [`JsonlWriter`] keeps events, [`Summary`] keeps aggregates. Standard
/// counters and histograms are derived from events by the dispatcher, so a
/// counter-only observer still sees the Newton/step/cache tallies without
/// touching [`Observer::event`].
pub trait Observer {
    /// A named monotonic counter increased by `delta`.
    fn counter(&mut self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// One sample of a named distribution.
    fn histogram(&mut self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// A typed event. Counters and histograms derived from it have already
    /// been delivered when this is called.
    fn event(&mut self, event: &Event) {
        let _ = event;
    }
}

impl<T: Observer + ?Sized> Observer for &mut T {
    fn counter(&mut self, name: &'static str, delta: u64) {
        (**self).counter(name, delta);
    }

    fn histogram(&mut self, name: &'static str, value: f64) {
        (**self).histogram(name, value);
    }

    fn event(&mut self, event: &Event) {
        (**self).event(event);
    }
}

/// Delivers `event` to `obs`, first deriving the standard counters and
/// histograms it implies. One place defines the vocabulary:
///
/// * `newton.solves`, `newton.iterations`, `plan.factorizations`,
///   `plan.back_substitutions`, `plan.bypasses`, `plan.rebases`,
///   `newton.device_evals`, `newton.limit_clamps`, `newton.latency_hits`,
///   histogram `newton.max_dv`
/// * `homotopy.direct_attempts`, `homotopy.gmin_steps`,
///   `homotopy.source_steps`
/// * `tran.steps_accepted`, histogram `tran.dt`
/// * `tran.rescue_attempts`, `tran.rescue_recoveries`,
///   `tran.rescue_exhausted`
/// * `sweep.points`, histogram `sweep.wall_ns`
/// * `analyze.runs`, `analyze.denials`, `analyze.warnings`
/// * `collapse.universe`, `collapse.simulated`
/// * `triage.universe`, `triage.masked`, `triage.failed`,
///   `triage.simulated`
/// * `infer.queries`, `infer.cache_hits`, `infer.cache_misses`,
///   `infer.cache_evictions`, `infer.tier_analytic`,
///   `infer.tier_switch_level`, `infer.tier_circuit`
/// * `resil.degraded`, histogram `resil.error_bound`
///
/// Public so engines layered on top of `mssim` (e.g. fault-campaign
/// drivers) can report through the same vocabulary instead of
/// hand-rolling counter names.
pub fn dispatch(obs: &mut dyn Observer, event: &Event) {
    match *event {
        Event::NewtonSolve {
            iterations,
            plan,
            max_dv,
            ..
        } => {
            obs.counter("newton.solves", 1);
            obs.counter("newton.iterations", iterations);
            if let Some(p) = plan {
                obs.counter("plan.factorizations", p.factorizations);
                obs.counter("plan.back_substitutions", p.back_substitutions);
                obs.counter("plan.bypasses", p.bypasses);
                obs.counter("plan.rebases", p.rebases);
                obs.counter("newton.device_evals", p.device_evals);
                obs.counter("newton.limit_clamps", p.limit_clamps);
                obs.counter("newton.latency_hits", p.latency_hits);
            }
            if let Some(dv) = max_dv {
                obs.histogram("newton.max_dv", dv);
            }
        }
        Event::Homotopy { stage, .. } => {
            obs.counter(
                match stage {
                    "gmin" => "homotopy.gmin_steps",
                    "source" => "homotopy.source_steps",
                    _ => "homotopy.direct_attempts",
                },
                1,
            );
        }
        Event::StepAccepted { dt, .. } => {
            obs.counter("tran.steps_accepted", 1);
            obs.histogram("tran.dt", dt);
        }
        Event::RescueAttempt { .. } => {
            obs.counter("tran.rescue_attempts", 1);
        }
        Event::RescueOutcome { recovered, .. } => {
            obs.counter(
                if recovered {
                    "tran.rescue_recoveries"
                } else {
                    "tran.rescue_exhausted"
                },
                1,
            );
        }
        Event::SweepPoint { wall_ns, .. } => {
            obs.counter("sweep.points", 1);
            obs.histogram("sweep.wall_ns", wall_ns as f64);
        }
        Event::AnalyzeReport { denials, warnings } => {
            obs.counter("analyze.runs", 1);
            obs.counter("analyze.denials", u64::from(denials));
            obs.counter("analyze.warnings", u64::from(warnings));
        }
        Event::FaultCollapse {
            universe,
            simulated,
            ..
        } => {
            obs.counter("collapse.universe", universe as u64);
            obs.counter("collapse.simulated", simulated as u64);
        }
        Event::FaultTriage {
            universe,
            masked,
            failed,
            simulated,
        } => {
            obs.counter("triage.universe", universe as u64);
            obs.counter("triage.masked", masked as u64);
            obs.counter("triage.failed", failed as u64);
            obs.counter("triage.simulated", simulated as u64);
        }
        Event::Degraded { error_bound, .. } => {
            obs.counter("resil.degraded", 1);
            obs.histogram("resil.error_bound", error_bound);
        }
        Event::InferBatch {
            queries,
            cache_hits,
            cache_misses,
            evictions,
            analytic,
            switch_level,
            circuit,
        } => {
            obs.counter("infer.queries", queries as u64);
            obs.counter("infer.cache_hits", cache_hits);
            obs.counter("infer.cache_misses", cache_misses);
            obs.counter("infer.cache_evictions", evictions);
            obs.counter("infer.tier_analytic", analytic);
            obs.counter("infer.tier_switch_level", switch_level);
            obs.counter("infer.tier_circuit", circuit);
        }
        Event::AnalysisStart { .. } | Event::AnalysisEnd { .. } | Event::SolverReport { .. } => {}
    }
    obs.event(event);
}

/// Internal instrumentation handle threaded through the analyses.
///
/// Wraps the optional observer so every emission site is a single `None`
/// check; [`Probe::solve`] additionally brackets an engine solve with a
/// counter snapshot to publish the per-solve work delta.
pub(crate) struct Probe<'a> {
    obs: Option<&'a mut dyn Observer>,
}

impl<'a> Probe<'a> {
    /// A disabled probe: every emission is a no-op.
    pub fn none() -> Self {
        Probe { obs: None }
    }

    /// A probe forwarding to `obs` when present.
    pub fn new(obs: Option<&'a mut dyn Observer>) -> Self {
        Probe { obs }
    }

    /// Whether an observer is attached.
    pub fn enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// A shorter-lived probe sharing this probe's observer, for handing to
    /// a nested analysis by value.
    ///
    /// Goes through the `&mut T: Observer` blanket impl rather than plain
    /// reborrowing: the trait-object lifetime behind `&mut` is invariant,
    /// so `&'short mut (dyn Observer + 'long)` cannot shrink directly.
    pub fn reborrow(&mut self) -> Probe<'_> {
        match &mut self.obs {
            Some(o) => Probe { obs: Some(o) },
            None => Probe { obs: None },
        }
    }

    /// Emits a typed event (with its derived counters and histograms).
    pub fn emit(&mut self, event: Event) {
        if let Some(obs) = self.obs.as_deref_mut() {
            dispatch(obs, &event);
        }
    }

    /// Emits a bare counter increment.
    pub fn counter(&mut self, name: &'static str, delta: u64) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.counter(name, delta);
        }
    }

    /// Runs one Newton solve through `engine`, publishing a
    /// [`Event::NewtonSolve`] with the engine's counter delta on success.
    /// A failed solve (homotopy probing) still accounts its work under
    /// `newton.failed_solves` / `newton.iterations` / `plan.*`, so counter
    /// totals always reconcile with the engine's own statistics.
    #[allow(clippy::too_many_arguments)] // mirrors SolverEngine::solve
    pub fn solve(
        &mut self,
        engine: &mut SolverEngine,
        ckt: &Circuit,
        layout: &MnaLayout,
        x: &mut [f64],
        ctx: SolveContext<'_>,
        opts: &NewtonOpts,
        analysis: &'static str,
    ) -> Result<usize, Error> {
        if self.obs.is_none() {
            return engine.solve(ckt, layout, x, ctx, opts, analysis);
        }
        let before = engine.counters();
        let result = engine.solve(ckt, layout, x, ctx, opts, analysis);
        let plan = match (engine.counters(), before) {
            (Some(after), Some(before)) => Some(after.delta_since(&before)),
            _ => None,
        };
        match &result {
            Ok(iter) => self.emit(Event::NewtonSolve {
                analysis,
                time: ctx.time,
                iterations: *iter as u64,
                plan,
                max_dv: engine.last_max_dv(),
            }),
            Err(_) => {
                self.counter("newton.failed_solves", 1);
                if let Some(p) = plan {
                    self.counter("newton.iterations", p.iterations);
                    self.counter("plan.factorizations", p.factorizations);
                    self.counter("plan.back_substitutions", p.back_substitutions);
                    self.counter("plan.bypasses", p.bypasses);
                    self.counter("plan.rebases", p.rebases);
                    self.counter("newton.device_evals", p.device_evals);
                    self.counter("newton.limit_clamps", p.limit_clamps);
                    self.counter("newton.latency_hits", p.latency_hits);
                }
            }
        }
        result
    }

    /// Emits the engine's counter totals as a [`Event::SolverReport`].
    /// No-op on the reference path, which keeps no counters.
    pub fn report(&mut self, engine: &SolverEngine, analysis: &'static str) {
        if self.enabled() {
            if let Some(counters) = engine.counters() {
                self.emit(Event::SolverReport { analysis, counters });
            }
        }
    }
}

/// In-memory sink for tests: keeps every counter total, every histogram
/// sample and every event, in arrival order.
#[derive(Debug, Default, Clone)]
pub struct MemoryRecorder {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Vec<f64>>,
    events: Vec<Event>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total of the named counter (0 if never emitted).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All samples of the named histogram, in arrival order.
    pub fn histogram_values(&self, name: &str) -> &[f64] {
        self.histograms.get(name).map_or(&[], Vec::as_slice)
    }

    /// All events, in arrival order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Names of all counters seen, sorted.
    pub fn counter_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.counters.keys().copied()
    }
}

impl Observer for MemoryRecorder {
    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn histogram(&mut self, name: &'static str, value: f64) {
        self.histograms.entry(name).or_default().push(value);
    }

    fn event(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

/// Appends a finite float as a JSON number, `null` otherwise (JSON has no
/// Inf/NaN).
fn push_json_f64(buf: &mut String, v: f64) {
    if v.is_finite() {
        buf.push_str(&format!("{v:?}"));
    } else {
        buf.push_str("null");
    }
}

fn push_json_counters(buf: &mut String, c: &SolverCounters) {
    buf.push_str(&format!(
        "{{\"iterations\":{},\"factorizations\":{},\"back_substitutions\":{},\"bypasses\":{},\"rebases\":{},\"device_evals\":{},\"limit_clamps\":{},\"latency_hits\":{}}}",
        c.iterations,
        c.factorizations,
        c.back_substitutions,
        c.bypasses,
        c.rebases,
        c.device_evals,
        c.limit_clamps,
        c.latency_hits
    ));
}

/// Encodes one event as a single JSON line (without the trailing newline).
fn event_json(event: &Event) -> String {
    let mut s = String::new();
    match *event {
        Event::AnalysisStart { analysis } => {
            s.push_str(&format!(
                "{{\"event\":\"analysis_start\",\"analysis\":\"{analysis}\"}}"
            ));
        }
        Event::AnalysisEnd { analysis } => {
            s.push_str(&format!(
                "{{\"event\":\"analysis_end\",\"analysis\":\"{analysis}\"}}"
            ));
        }
        Event::Homotopy {
            stage,
            step,
            param,
            converged,
        } => {
            s.push_str(&format!(
                "{{\"event\":\"homotopy\",\"stage\":\"{stage}\",\"step\":{step},\"param\":"
            ));
            push_json_f64(&mut s, param);
            s.push_str(&format!(",\"converged\":{converged}}}"));
        }
        Event::NewtonSolve {
            analysis,
            time,
            iterations,
            plan,
            max_dv,
        } => {
            s.push_str(&format!(
                "{{\"event\":\"newton_solve\",\"analysis\":\"{analysis}\",\"time\":"
            ));
            push_json_f64(&mut s, time);
            s.push_str(&format!(",\"iterations\":{iterations},\"plan\":"));
            match plan {
                Some(c) => push_json_counters(&mut s, &c),
                None => s.push_str("null"),
            }
            s.push_str(",\"max_dv\":");
            match max_dv {
                Some(dv) => push_json_f64(&mut s, dv),
                None => s.push_str("null"),
            }
            s.push('}');
        }
        Event::StepAccepted { time, dt } => {
            s.push_str("{\"event\":\"step_accepted\",\"time\":");
            push_json_f64(&mut s, time);
            s.push_str(",\"dt\":");
            push_json_f64(&mut s, dt);
            s.push('}');
        }
        Event::RescueAttempt {
            stage,
            time,
            dt,
            param,
            converged,
        } => {
            s.push_str(&format!(
                "{{\"event\":\"rescue_attempt\",\"stage\":\"{stage}\",\"time\":"
            ));
            push_json_f64(&mut s, time);
            s.push_str(",\"dt\":");
            push_json_f64(&mut s, dt);
            s.push_str(",\"param\":");
            push_json_f64(&mut s, param);
            s.push_str(&format!(",\"converged\":{converged}}}"));
        }
        Event::RescueOutcome {
            time,
            stage,
            attempts,
            recovered,
        } => {
            s.push_str("{\"event\":\"rescue_outcome\",\"time\":");
            push_json_f64(&mut s, time);
            s.push_str(&format!(
                ",\"stage\":\"{stage}\",\"attempts\":{attempts},\"recovered\":{recovered}}}"
            ));
        }
        Event::SweepPoint {
            index,
            wall_ns,
            thread,
        } => {
            s.push_str(&format!(
                "{{\"event\":\"sweep_point\",\"index\":{index},\"wall_ns\":{wall_ns},\"thread\":{thread}}}"
            ));
        }
        Event::SolverReport { analysis, counters } => {
            s.push_str(&format!(
                "{{\"event\":\"solver_report\",\"analysis\":\"{analysis}\",\"counters\":"
            ));
            push_json_counters(&mut s, &counters);
            s.push('}');
        }
        Event::AnalyzeReport { denials, warnings } => {
            s.push_str(&format!(
                "{{\"event\":\"analyze_report\",\"denials\":{denials},\"warnings\":{warnings}}}"
            ));
        }
        Event::FaultCollapse {
            universe,
            classes,
            simulated,
            golden,
        } => {
            s.push_str(&format!(
                "{{\"event\":\"fault_collapse\",\"universe\":{universe},\"classes\":{classes},\"simulated\":{simulated},\"golden\":{golden}}}"
            ));
        }
        Event::FaultTriage {
            universe,
            masked,
            failed,
            simulated,
        } => {
            s.push_str(&format!(
                "{{\"event\":\"fault_triage\",\"universe\":{universe},\"masked\":{masked},\"failed\":{failed},\"simulated\":{simulated}}}"
            ));
        }
        Event::Degraded {
            demanded,
            served,
            error_bound,
        } => {
            s.push_str(&format!(
                "{{\"event\":\"degraded\",\"demanded\":\"{demanded}\",\"served\":\"{served}\",\"error_bound\":"
            ));
            push_json_f64(&mut s, error_bound);
            s.push('}');
        }
        Event::InferBatch {
            queries,
            cache_hits,
            cache_misses,
            evictions,
            analytic,
            switch_level,
            circuit,
        } => {
            s.push_str(&format!(
                "{{\"event\":\"infer_batch\",\"queries\":{queries},\"cache_hits\":{cache_hits},\"cache_misses\":{cache_misses},\"evictions\":{evictions},\"analytic\":{analytic},\"switch_level\":{switch_level},\"circuit\":{circuit}}}"
            ));
        }
    }
    s
}

/// Schema-versioned JSONL event sink.
///
/// The first line written is a header `{"schema":"mssim-trace-v3"}`; each
/// subsequent line is one event. Counters and histograms are not written —
/// they are derivable from the event stream by replaying it through the
/// same dispatcher.
///
/// I/O errors are deferred: the writer goes quiet after the first failure
/// and [`JsonlWriter::finish`] reports it, so instrumentation can never
/// abort an analysis.
#[derive(Debug)]
pub struct JsonlWriter<W: Write> {
    out: W,
    error: Option<io::Error>,
}

impl<W: Write> JsonlWriter<W> {
    /// Wraps `out` and writes the schema header line.
    pub fn new(out: W) -> Self {
        let mut w = JsonlWriter { out, error: None };
        w.write_line(&format!("{{\"schema\":\"{TRACE_SCHEMA}\"}}"));
        w
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }

    /// Flushes and returns the inner writer, or the first I/O error the
    /// stream hit.
    ///
    /// # Errors
    ///
    /// Returns any write or flush error, deferred or current.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> Observer for JsonlWriter<W> {
    fn event(&mut self, event: &Event) {
        let line = event_json(event);
        self.write_line(&line);
    }
}

/// Running aggregate of one histogram.
#[derive(Debug, Clone, Copy, Default)]
struct HistStat {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl HistStat {
    fn add(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }
}

/// Human-readable aggregation sink: counter totals plus count/mean/min/max
/// per histogram, rendered as a fixed-width table by [`Summary::render`].
#[derive(Debug, Default, Clone)]
pub struct Summary {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, HistStat>,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total of the named counter (0 if never emitted).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Renders the aggregates as a fixed-width text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str(&format!("{:<28} {:>14}\n", "counter", "total"));
            for (name, total) in &self.counters {
                out.push_str(&format!("{name:<28} {total:>14}\n"));
            }
        }
        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!(
                "{:<28} {:>10} {:>12} {:>12} {:>12}\n",
                "histogram", "count", "mean", "min", "max"
            ));
            for (name, h) in &self.histograms {
                let mean = if h.count > 0 {
                    h.sum / h.count as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "{name:<28} {:>10} {mean:>12.4e} {:>12.4e} {:>12.4e}\n",
                    h.count, h.min, h.max
                ));
            }
        }
        out
    }
}

impl Observer for Summary {
    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn histogram(&mut self, name: &'static str, value: f64) {
        self.histograms.entry(name).or_default().add(value);
    }
}

/// Fans every emission out to two observers; nest for more.
#[derive(Debug, Default, Clone)]
pub struct Tee<A, B>(
    /// First receiver.
    pub A,
    /// Second receiver.
    pub B,
);

impl<A: Observer, B: Observer> Observer for Tee<A, B> {
    fn counter(&mut self, name: &'static str, delta: u64) {
        self.0.counter(name, delta);
        self.1.counter(name, delta);
    }

    fn histogram(&mut self, name: &'static str, value: f64) {
        self.0.histogram(name, value);
        self.1.histogram(name, value);
    }

    fn event(&mut self, event: &Event) {
        self.0.event(event);
        self.1.event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::AnalysisStart {
                analysis: "transient",
            },
            Event::Homotopy {
                stage: "gmin",
                step: 3,
                param: 1e-4,
                converged: true,
            },
            Event::NewtonSolve {
                analysis: "transient",
                time: 1e-9,
                iterations: 3,
                plan: Some(SolverCounters {
                    iterations: 3,
                    factorizations: 1,
                    back_substitutions: 3,
                    bypasses: 0,
                    rebases: 1,
                    device_evals: 12,
                    limit_clamps: 1,
                    latency_hits: 4,
                }),
                max_dv: Some(0.5),
            },
            Event::StepAccepted {
                time: 2e-9,
                dt: 1e-9,
            },
            Event::RescueAttempt {
                stage: "dt_cut",
                time: 4e-9,
                dt: 5e-10,
                param: 0.0,
                converged: false,
            },
            Event::RescueAttempt {
                stage: "gmin",
                time: 4e-9,
                dt: 1e-9,
                param: 1e-6,
                converged: true,
            },
            Event::RescueOutcome {
                time: 4e-9,
                stage: "gmin",
                attempts: 2,
                recovered: true,
            },
            Event::SweepPoint {
                index: 7,
                wall_ns: 1200,
                thread: 2,
            },
            Event::SolverReport {
                analysis: "transient",
                counters: SolverCounters {
                    iterations: 3,
                    factorizations: 1,
                    back_substitutions: 3,
                    bypasses: 0,
                    rebases: 1,
                    device_evals: 12,
                    limit_clamps: 1,
                    latency_hits: 4,
                },
            },
            Event::AnalyzeReport {
                denials: 1,
                warnings: 2,
            },
            Event::FaultCollapse {
                universe: 49,
                classes: 48,
                simulated: 47,
                golden: 2,
            },
            Event::FaultTriage {
                universe: 49,
                masked: 2,
                failed: 18,
                simulated: 29,
            },
            Event::InferBatch {
                queries: 100,
                cache_hits: 90,
                cache_misses: 10,
                evictions: 0,
                analytic: 7,
                switch_level: 2,
                circuit: 1,
            },
            Event::Degraded {
                demanded: "circuit",
                served: "analytic",
                error_bound: 0.05,
            },
            Event::AnalysisEnd {
                analysis: "transient",
            },
        ]
    }

    #[test]
    fn dispatch_derives_standard_counters_and_histograms() {
        let mut rec = MemoryRecorder::new();
        for e in sample_events() {
            dispatch(&mut rec, &e);
        }
        assert_eq!(rec.counter_value("newton.solves"), 1);
        assert_eq!(rec.counter_value("newton.iterations"), 3);
        assert_eq!(rec.counter_value("plan.factorizations"), 1);
        assert_eq!(rec.counter_value("plan.back_substitutions"), 3);
        assert_eq!(rec.counter_value("plan.rebases"), 1);
        assert_eq!(rec.counter_value("homotopy.gmin_steps"), 1);
        assert_eq!(rec.counter_value("tran.steps_accepted"), 1);
        assert_eq!(rec.counter_value("tran.rescue_attempts"), 2);
        assert_eq!(rec.counter_value("tran.rescue_recoveries"), 1);
        assert_eq!(rec.counter_value("tran.rescue_exhausted"), 0);
        assert_eq!(rec.counter_value("sweep.points"), 1);
        assert_eq!(rec.counter_value("triage.universe"), 49);
        assert_eq!(rec.counter_value("triage.masked"), 2);
        assert_eq!(rec.counter_value("triage.failed"), 18);
        assert_eq!(rec.counter_value("triage.simulated"), 29);
        assert_eq!(rec.counter_value("infer.queries"), 100);
        assert_eq!(rec.counter_value("infer.cache_hits"), 90);
        assert_eq!(rec.counter_value("infer.cache_misses"), 10);
        assert_eq!(rec.counter_value("infer.tier_analytic"), 7);
        assert_eq!(rec.counter_value("infer.tier_switch_level"), 2);
        assert_eq!(rec.counter_value("infer.tier_circuit"), 1);
        assert_eq!(rec.counter_value("resil.degraded"), 1);
        assert_eq!(rec.histogram_values("resil.error_bound"), &[0.05]);
        assert_eq!(rec.histogram_values("tran.dt"), &[1e-9]);
        assert_eq!(rec.histogram_values("newton.max_dv"), &[0.5]);
        assert_eq!(rec.events().len(), sample_events().len());
    }

    #[test]
    fn jsonl_writer_emits_header_and_one_line_per_event() {
        let mut w = JsonlWriter::new(Vec::new());
        for e in sample_events() {
            dispatch(&mut w, &e);
        }
        let bytes = w.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], format!("{{\"schema\":\"{TRACE_SCHEMA}\"}}"));
        assert_eq!(lines.len(), 1 + sample_events().len());
        // Every line is a JSON object with balanced braces and the
        // advertised event tag.
        for line in &lines[1..] {
            assert!(line.starts_with("{\"event\":\""), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "{line}"
            );
        }
        assert!(text.contains("\"event\":\"newton_solve\""));
        assert!(text.contains("\"iterations\":3"));
        assert!(text.contains("\"event\":\"step_accepted\",\"time\":2e-9,\"dt\":1e-9}"));
        assert!(text.contains("\"max_dv\":0.5"));
        assert!(text.contains("\"event\":\"rescue_attempt\""));
        assert!(text.contains("\"stage\":\"dt_cut\""));
        assert!(
            text.contains("\"event\":\"rescue_outcome\"")
                && text.contains("\"attempts\":2,\"recovered\":true")
        );
        assert!(text.contains(
            "\"event\":\"degraded\",\"demanded\":\"circuit\",\"served\":\"analytic\",\"error_bound\":0.05"
        ));
    }

    #[test]
    fn jsonl_writer_encodes_non_finite_as_null() {
        let mut w = JsonlWriter::new(Vec::new());
        w.event(&Event::StepAccepted {
            time: f64::NAN,
            dt: f64::INFINITY,
        });
        let text = String::from_utf8(w.finish().unwrap()).unwrap();
        assert!(text.contains("\"time\":null,\"dt\":null}"));
    }

    #[test]
    fn summary_renders_counters_and_histogram_stats() {
        let mut s = Summary::new();
        for e in sample_events() {
            dispatch(&mut s, &e);
        }
        assert_eq!(s.counter_value("newton.solves"), 1);
        let table = s.render();
        assert!(table.contains("newton.iterations"));
        assert!(table.contains("tran.dt"));
        assert!(table.contains("mean"));
    }

    #[test]
    fn tee_forwards_to_both_sinks() {
        let mut tee = Tee(MemoryRecorder::new(), Summary::new());
        for e in sample_events() {
            dispatch(&mut tee, &e);
        }
        assert_eq!(tee.0.counter_value("newton.iterations"), 3);
        assert_eq!(tee.1.counter_value("newton.iterations"), 3);
    }

    #[test]
    fn counter_delta_saturates() {
        let a = SolverCounters {
            iterations: 5,
            ..Default::default()
        };
        let b = SolverCounters {
            iterations: 7,
            factorizations: 2,
            ..Default::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.iterations, 2);
        assert_eq!(d.factorizations, 2);
        assert_eq!(a.delta_since(&b).iterations, 0);
    }

    #[test]
    fn probe_none_is_disabled() {
        let mut p = Probe::none();
        assert!(!p.enabled());
        p.emit(Event::AnalysisStart { analysis: "dc" });
        p.counter("x", 1);
    }
}
