//! Fixed-step transient analysis.
//!
//! Capacitors are replaced by integration companions (trapezoidal by
//! default, backward Euler on the first step and on request) and the
//! resulting nonlinear system is solved by damped Newton–Raphson at every
//! time point, warm-started from the previous solution.

use crate::analysis::dcop::dc_operating_point_impl;
use crate::analysis::mna::{CapCompanion, IndCompanion, MnaLayout, NewtonOpts, SolveContext};
use crate::analysis::plan::{EngineSel, PlanMode, SolverEngine};
use crate::analysis::solution::Solution;
use crate::elements::Element;
use crate::error::Error;
use crate::netlist::{Circuit, ElementId, NodeId};
use crate::telemetry::{Event, Probe};
use crate::trace::{Trace, TraceData};

/// Numerical integration scheme for reactive elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrationMethod {
    /// First-order, L-stable; strongly damped.
    BackwardEuler,
    /// Second-order, A-stable; the default (first step still uses
    /// backward Euler to absorb initial-condition discontinuities).
    #[default]
    Trapezoidal,
}

/// Policy for the transient convergence-rescue ladder (see
/// [`Session::transient_rescued`](crate::session::Session::transient_rescued)).
///
/// When a time step refuses to converge the ladder tries, in order:
///
/// 1. **`dt_cut`** — the step is re-integrated as `2^k` sub-steps for
///    `k = 1..=max_step_cuts`, keeping the caller's integration method
///    (exponential backoff: every retry halves the sub-step again);
/// 2. **`be`** — the same progression forced to backward Euler, whose
///    L-stability damps the modes trapezoidal integration can ring on
///    (skipped when the caller already integrates with backward Euler);
/// 3. **`gmin`** — the full step solved with a shunt conductance from
///    every node to ground, walked down [`RescuePolicy::gmin_ladder`] and
///    finishing at zero shunt, each solve warm-starting the next.
///
/// A step no rung can save ends the run early: the caller receives
/// [`TransientOutcome::Partial`] carrying the waveform up to the last
/// accepted step. Every attempt is emitted as an
/// [`Event::RescueAttempt`]; every verdict as an
/// [`Event::RescueOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct RescuePolicy {
    /// Maximum binary timestep cuts tried by the `dt_cut` and `be`
    /// stages (rung `k` splits the failing step into `2^k` sub-steps).
    pub max_step_cuts: u32,
    /// Shunt conductances for the `gmin` stage, strongest first. A final
    /// zero-shunt solve always follows, so an accepted solution is never
    /// polluted by the rescue shunt.
    pub gmin_ladder: Vec<f64>,
    /// Troubled steps rescued before the run is abandoned as partial — a
    /// circuit needing more than this is failing structurally, not
    /// numerically.
    pub max_rescued_steps: usize,
}

impl Default for RescuePolicy {
    fn default() -> Self {
        RescuePolicy {
            max_step_cuts: 4,
            gmin_ladder: vec![1e-3, 1e-6, 1e-9],
            max_rescued_steps: 64,
        }
    }
}

/// One troubled time step and how the rescue ladder fared on it.
#[derive(Debug, Clone, PartialEq)]
pub struct RescueIncident {
    /// Target time of the failing step, seconds.
    pub time: f64,
    /// Ladder rungs tried (sub-step retries, BE retries, gmin solves).
    pub attempts: usize,
    /// Stage that recovered the step (`"dt_cut"`, `"be"` or `"gmin"`);
    /// `None` when the ladder was exhausted.
    pub recovered_by: Option<&'static str>,
}

/// Structured account of every rescue a transient run needed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RescueReport {
    /// One entry per troubled step, in time order.
    pub incidents: Vec<RescueIncident>,
}

impl RescueReport {
    /// `true` when no step needed rescuing.
    pub fn is_clean(&self) -> bool {
        self.incidents.is_empty()
    }

    /// Number of steps the ladder recovered.
    pub fn recovered(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| i.recovered_by.is_some())
            .count()
    }

    /// Total ladder rungs tried across all incidents.
    pub fn total_attempts(&self) -> usize {
        self.incidents.iter().map(|i| i.attempts).sum()
    }
}

/// Outcome of a transient run executed under a [`RescuePolicy`].
#[derive(Debug, Clone)]
pub enum TransientOutcome {
    /// The run reached `t_stop`, possibly after recovered rescues.
    Complete {
        /// The full waveform set.
        result: TransientResult,
        /// Every rescue the run needed (empty for a clean run).
        rescues: RescueReport,
    },
    /// The rescue ladder ran dry at some time point: the waveform is
    /// valid up to the last accepted step and then stops.
    Partial {
        /// The waveforms up to the last accepted step.
        result: TransientResult,
        /// Every rescue the run attempted, including the fatal one.
        rescues: RescueReport,
        /// The non-convergence that ended the run (stage `"rescue"`).
        error: Error,
    },
}

impl TransientOutcome {
    /// The recorded waveforms, full or partial.
    pub fn result(&self) -> &TransientResult {
        match self {
            TransientOutcome::Complete { result, .. }
            | TransientOutcome::Partial { result, .. } => result,
        }
    }

    /// The rescue report.
    pub fn rescues(&self) -> &RescueReport {
        match self {
            TransientOutcome::Complete { rescues, .. }
            | TransientOutcome::Partial { rescues, .. } => rescues,
        }
    }

    /// `true` when the run stopped before `t_stop`.
    pub fn is_partial(&self) -> bool {
        matches!(self, TransientOutcome::Partial { .. })
    }

    /// Consumes the outcome, keeping the waveforms (full or partial).
    pub fn into_result(self) -> TransientResult {
        match self {
            TransientOutcome::Complete { result, .. }
            | TransientOutcome::Partial { result, .. } => result,
        }
    }
}

/// Deep copy of the integrator state, taken before a step so any rescue
/// rung can rewind to the last accepted point.
struct StateSnapshot {
    x: Vec<f64>,
    v_prev: Vec<f64>,
    i_prev: Vec<f64>,
    il_prev: Vec<f64>,
    vl_prev: Vec<f64>,
}

impl StateSnapshot {
    fn capture(
        x: &[f64],
        v_prev: &[f64],
        i_prev: &[f64],
        il_prev: &[f64],
        vl_prev: &[f64],
    ) -> Self {
        StateSnapshot {
            x: x.to_vec(),
            v_prev: v_prev.to_vec(),
            i_prev: i_prev.to_vec(),
            il_prev: il_prev.to_vec(),
            vl_prev: vl_prev.to_vec(),
        }
    }

    fn restore(
        &self,
        x: &mut [f64],
        v_prev: &mut [f64],
        i_prev: &mut [f64],
        il_prev: &mut [f64],
        vl_prev: &mut [f64],
    ) {
        x.copy_from_slice(&self.x);
        self.restore_reactive(v_prev, i_prev, il_prev, vl_prev);
    }

    /// Restores the reactive-element history but keeps `x` — the gmin
    /// stage warm-starts each solve from the previous rung's iterate.
    fn restore_reactive(
        &self,
        v_prev: &mut [f64],
        i_prev: &mut [f64],
        il_prev: &mut [f64],
        vl_prev: &mut [f64],
    ) {
        v_prev.copy_from_slice(&self.v_prev);
        i_prev.copy_from_slice(&self.i_prev);
        il_prev.copy_from_slice(&self.il_prev);
        vl_prev.copy_from_slice(&self.vl_prev);
    }
}

/// Walks the rescue ladder over one failing step `t_from → t_target`.
///
/// `take_step` is the integrator's single-step primitive
/// `(t_new, h, be, gshunt, probe, x, v_prev, i_prev, il_prev, vl_prev)`.
/// Returns the rungs tried and the stage that recovered the step, or
/// `None` when exhausted (in which case the state is rewound to `snap`).
#[allow(clippy::too_many_arguments)]
fn rescue_ladder<F>(
    policy: &RescuePolicy,
    take_step: &mut F,
    probe: &mut Probe<'_>,
    t_from: f64,
    t_target: f64,
    method_be: bool,
    snap: &StateSnapshot,
    x: &mut Vec<f64>,
    v_prev: &mut [f64],
    i_prev: &mut [f64],
    il_prev: &mut [f64],
    vl_prev: &mut [f64],
) -> (usize, Option<&'static str>)
where
    F: FnMut(
        f64,
        f64,
        bool,
        f64,
        &mut Probe<'_>,
        &mut Vec<f64>,
        &mut [f64],
        &mut [f64],
        &mut [f64],
        &mut [f64],
    ) -> Result<(), Error>,
{
    let h_full = t_target - t_from;
    let mut attempts = 0usize;

    // Stages 1 and 2: timestep cutting, first with the caller's method,
    // then forced backward Euler. A BE caller skips the redundant rerun.
    let stages: &[(&'static str, bool)] = if method_be {
        &[("dt_cut", true)]
    } else {
        &[("dt_cut", false), ("be", true)]
    };
    for &(stage, be) in stages {
        let k_first = if stage == "be" { 0 } else { 1 };
        for k in k_first..=policy.max_step_cuts {
            let n_sub = 1u32 << k;
            let h_sub = h_full / f64::from(n_sub);
            snap.restore(x, v_prev, i_prev, il_prev, vl_prev);
            attempts += 1;
            let mut converged = true;
            for i in 1..=n_sub {
                let t_new = if i == n_sub {
                    t_target
                } else {
                    t_from + f64::from(i) * h_sub
                };
                if take_step(
                    t_new, h_sub, be, 0.0, probe, x, v_prev, i_prev, il_prev, vl_prev,
                )
                .is_err()
                {
                    converged = false;
                    break;
                }
            }
            probe.emit(Event::RescueAttempt {
                stage,
                time: t_target,
                dt: h_sub,
                param: 0.0,
                converged,
            });
            if converged {
                return (attempts, Some(stage));
            }
        }
    }

    // Stage 3: per-point gmin. Solve the full step (backward Euler) with
    // a shunt to ground, relaxing it rung by rung down to exactly zero;
    // each solve warm-starts the next, so only the final zero-shunt
    // solution is ever committed to the waveform.
    snap.restore(x, v_prev, i_prev, il_prev, vl_prev);
    let mut converged_all = true;
    for g in policy
        .gmin_ladder
        .iter()
        .copied()
        .chain(std::iter::once(0.0))
    {
        // Rewind the reactive history but keep `x` as the warm start.
        snap.restore_reactive(v_prev, i_prev, il_prev, vl_prev);
        attempts += 1;
        let r = take_step(
            t_target, h_full, true, g, probe, x, v_prev, i_prev, il_prev, vl_prev,
        );
        probe.emit(Event::RescueAttempt {
            stage: "gmin",
            time: t_target,
            dt: h_full,
            param: g,
            converged: r.is_ok(),
        });
        if r.is_err() {
            converged_all = false;
            break;
        }
    }
    if converged_all {
        return (attempts, Some("gmin"));
    }

    // Exhausted: rewind so the partial waveform ends at the last
    // accepted step.
    snap.restore(x, v_prev, i_prev, il_prev, vl_prev);
    (attempts, None)
}

/// Budget check + ladder walk + telemetry + report entry for one
/// troubled step. Returns `true` when the step was recovered.
#[allow(clippy::too_many_arguments)]
fn attempt_rescue<F>(
    policy: &RescuePolicy,
    report: &mut RescueReport,
    take_step: &mut F,
    probe: &mut Probe<'_>,
    t_from: f64,
    t_target: f64,
    method_be: bool,
    snap: &StateSnapshot,
    x: &mut Vec<f64>,
    v_prev: &mut [f64],
    i_prev: &mut [f64],
    il_prev: &mut [f64],
    vl_prev: &mut [f64],
) -> bool
where
    F: FnMut(
        f64,
        f64,
        bool,
        f64,
        &mut Probe<'_>,
        &mut Vec<f64>,
        &mut [f64],
        &mut [f64],
        &mut [f64],
        &mut [f64],
    ) -> Result<(), Error>,
{
    let (attempts, stage) = if report.incidents.len() >= policy.max_rescued_steps {
        // Rescue budget spent: rewind without burning more solves.
        snap.restore(x, v_prev, i_prev, il_prev, vl_prev);
        (0, None)
    } else {
        rescue_ladder(
            policy, take_step, probe, t_from, t_target, method_be, snap, x, v_prev, i_prev,
            il_prev, vl_prev,
        )
    };
    probe.emit(Event::RescueOutcome {
        time: t_target,
        stage: stage.unwrap_or("exhausted"),
        attempts: attempts as u32,
        recovered: stage.is_some(),
    });
    report.incidents.push(RescueIncident {
        time: t_target,
        attempts,
        recovered_by: stage,
    });
    stage.is_some()
}

/// A configured fixed-step transient analysis: `t_stop / dt` steps of
/// size `dt` (see [`Transient::new`]).
///
/// # Examples
///
/// ```
/// use mssim::prelude::*;
///
/// # fn main() -> Result<(), mssim::Error> {
/// let mut ckt = Circuit::new();
/// let inp = ckt.node("in");
/// let out = ckt.node("out");
/// ckt.vsource("V1", inp, Circuit::GND, Waveform::pwm(2.5, 1e6, 0.25));
/// ckt.resistor("R1", inp, out, 10e3);
/// ckt.capacitor("C1", out, Circuit::GND, 1e-9);
/// let tran = Transient::new(2e-9, 100e-6).use_initial_conditions();
/// let result = Session::new(&ckt).transient(&tran)?;
/// let avg = result.voltage(out).steady_state_average(1e-6, 10);
/// assert!((avg - 2.5 * 0.25).abs() < 0.05); // PWM average = Vdd · duty
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Transient {
    dt: f64,
    t_stop: f64,
    method: IntegrationMethod,
    uic: bool,
    record_every: usize,
    max_iter: usize,
}

impl Transient {
    /// Creates a transient analysis with time step `dt` running to
    /// `t_stop` (both in seconds).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive and finite, if
    /// `t_stop < dt`, or if the step count `t_stop / dt` does not fit in a
    /// `usize` (an infinite `t_stop` or a subnormal `dt`).
    pub fn new(dt: f64, t_stop: f64) -> Self {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        assert!(t_stop >= dt, "t_stop must be at least one step");
        assert!(
            t_stop / dt < usize::MAX as f64,
            "t_stop / dt must fit in a step count"
        );
        Transient {
            dt,
            t_stop,
            method: IntegrationMethod::default(),
            uic: false,
            record_every: 1,
            max_iter: 200,
        }
    }

    /// Skips the DC operating point and starts from capacitor initial
    /// conditions (node voltages start at zero) — SPICE `UIC`.
    pub fn use_initial_conditions(mut self) -> Self {
        self.uic = true;
        self
    }

    /// Selects the integration method.
    pub fn with_method(mut self, method: IntegrationMethod) -> Self {
        self.method = method;
        self
    }

    /// Records only every `n`-th time point (the final point is always
    /// recorded). Reduces memory for long runs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn record_every(mut self, n: usize) -> Self {
        assert!(n > 0, "record decimation must be at least 1");
        self.record_every = n;
        self
    }

    /// Sets the Newton iteration limit per time step.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        assert!(n > 0, "iteration limit must be at least 1");
        self.max_iter = n;
        self
    }

    /// The analysis proper, with the solver flavour and instrumentation
    /// handle supplied by [`Session`](crate::Session).
    pub(crate) fn run_with(
        &self,
        circuit: &Circuit,
        sel: EngineSel,
        probe: Probe<'_>,
    ) -> Result<TransientResult, Error> {
        match self.run_impl(circuit, sel, None, probe)? {
            TransientOutcome::Complete { result, .. } => Ok(result),
            // Unreachable without a rescue policy, but cheap to honour.
            TransientOutcome::Partial { error, .. } => Err(error),
        }
    }

    /// Like [`run_with`](Self::run_with) but under a [`RescuePolicy`]:
    /// non-convergent steps enter the rescue ladder and an exhausted
    /// ladder degrades to [`TransientOutcome::Partial`] instead of an
    /// error.
    pub(crate) fn run_rescued(
        &self,
        circuit: &Circuit,
        sel: EngineSel,
        policy: &RescuePolicy,
        probe: Probe<'_>,
    ) -> Result<TransientOutcome, Error> {
        self.run_impl(circuit, sel, Some(policy), probe)
    }

    fn run_impl(
        &self,
        circuit: &Circuit,
        sel: EngineSel,
        policy: Option<&RescuePolicy>,
        mut probe: Probe<'_>,
    ) -> Result<TransientOutcome, Error> {
        let ctx = if self.uic {
            crate::lint::LintContext::TransientUic
        } else {
            crate::lint::LintContext::Dc
        };
        crate::lint::preflight(circuit, "transient", ctx)?;
        probe.emit(Event::AnalysisStart {
            analysis: "transient",
        });
        let layout = MnaLayout::new(circuit);
        let n = layout.size();
        let node_rows = layout.n_nodes - 1;

        // Collect capacitor and source bookkeeping.
        struct CapInfo {
            a: NodeId,
            b: NodeId,
            farads: f64,
            ic: f64,
        }
        struct IndInfo {
            a: NodeId,
            b: NodeId,
            henries: f64,
            ic: f64,
            branch: usize,
        }
        let mut caps: Vec<CapInfo> = Vec::new();
        let mut inds: Vec<IndInfo> = Vec::new();
        let mut sources: Vec<SourceInfo> = Vec::new();
        let mut branch_elements: Vec<(usize, usize)> = Vec::new();
        for (idx, (_, _, e)) in circuit.elements().enumerate() {
            match e {
                Element::Capacitor {
                    a,
                    b,
                    farads,
                    initial_voltage,
                } => caps.push(CapInfo {
                    a: *a,
                    b: *b,
                    farads: *farads,
                    ic: *initial_voltage,
                }),
                Element::Inductor {
                    a,
                    b,
                    henries,
                    initial_current,
                } => {
                    let branch = layout.branch_of[idx].expect("inductor branch");
                    inds.push(IndInfo {
                        a: *a,
                        b: *b,
                        henries: *henries,
                        ic: *initial_current,
                        branch,
                    });
                    branch_elements.push((idx, branch));
                }
                Element::VoltageSource { pos, neg, .. } => {
                    let branch = layout.branch_of[idx].expect("vsource branch");
                    sources.push(SourceInfo {
                        element: idx,
                        pos: *pos,
                        neg: *neg,
                        branch,
                    });
                    branch_elements.push((idx, branch));
                }
                _ => {}
            }
        }

        // Initial solution.
        let mut x = vec![0.0; n];
        let mut v_prev: Vec<f64>;
        let mut il_prev: Vec<f64>;
        let mut vl_prev: Vec<f64>;
        if self.uic {
            v_prev = caps.iter().map(|c| c.ic).collect();
            il_prev = inds.iter().map(|l| l.ic).collect();
            vl_prev = vec![0.0; inds.len()];
            // Seed the branch unknowns with the initial currents so the
            // first Newton iterate starts consistent.
            for l in &inds {
                x[layout.branch_row(l.branch)] = l.ic;
            }
        } else {
            let op = dc_operating_point_impl(circuit, sel, probe.reborrow())?;
            x.copy_from_slice(op.raw());
            v_prev = caps
                .iter()
                .map(|c| op.voltage(c.a) - op.voltage(c.b))
                .collect();
            il_prev = inds
                .iter()
                .map(|l| op.raw()[layout.branch_row(l.branch)])
                .collect();
            vl_prev = vec![0.0; inds.len()]; // DC: zero volts across L
        }
        let mut i_prev = vec![0.0; caps.len()];

        let opts = NewtonOpts {
            max_iter: self.max_iter,
            ..NewtonOpts::default()
        };
        let mut engine = SolverEngine::new(circuit, &layout, PlanMode::Tran, sel);
        let mut companions = vec![CapCompanion::default(); caps.len()];
        let mut ind_companions = vec![IndCompanion::default(); inds.len()];

        let steps = (self.t_stop / self.dt).round().max(1.0) as usize;
        let recorded = steps / self.record_every + 2;
        let mut times = Vec::with_capacity(recorded);
        let mut signals: Vec<Vec<f64>> = (0..n).map(|_| Vec::with_capacity(recorded)).collect();

        let record = |t: f64, x: &[f64], times: &mut Vec<f64>, signals: &mut [Vec<f64>]| {
            times.push(t);
            for (sig, &val) in signals.iter_mut().zip(x) {
                sig.push(val);
            }
        };
        record(0.0, &x, &mut times, &mut signals);

        let v_of = |x: &[f64], node: NodeId| -> f64 {
            match layout.node_row(node) {
                None => 0.0,
                Some(r) => x[r],
            }
        };

        // One implicit step of size `h` from the current state at time
        // `t_now` to `t_now + h`, updating x and the reactive states.
        let mut take_step = |t_new: f64,
                             h: f64,
                             be: bool,
                             gshunt: f64,
                             probe: &mut Probe<'_>,
                             x: &mut Vec<f64>,
                             v_prev: &mut [f64],
                             i_prev: &mut [f64],
                             il_prev: &mut [f64],
                             vl_prev: &mut [f64]|
         -> Result<(), Error> {
            for (k, c) in caps.iter().enumerate() {
                let (geq, ieq) = if be {
                    let geq = c.farads / h;
                    (geq, geq * v_prev[k])
                } else {
                    let geq = 2.0 * c.farads / h;
                    (geq, geq * v_prev[k] + i_prev[k])
                };
                companions[k] = CapCompanion { geq, ieq };
            }
            for (k, l) in inds.iter().enumerate() {
                let (geq, ieq) = if be {
                    let geq = h / l.henries;
                    (geq, il_prev[k])
                } else {
                    let geq = 0.5 * h / l.henries;
                    (geq, il_prev[k] + geq * vl_prev[k])
                };
                ind_companions[k] = IndCompanion { geq, ieq };
            }
            let ctx = SolveContext {
                time: t_new,
                source_scale: 1.0,
                caps: Some(&companions),
                inds: Some(&ind_companions),
                gshunt,
            };
            probe.solve(&mut engine, circuit, &layout, x, ctx, &opts, "transient")?;
            for (k, c) in caps.iter().enumerate() {
                let v_new = v_of(x, c.a) - v_of(x, c.b);
                i_prev[k] = companions[k].geq * v_new - companions[k].ieq;
                v_prev[k] = v_new;
            }
            for (k, l) in inds.iter().enumerate() {
                il_prev[k] = x[layout.branch_row(l.branch)];
                vl_prev[k] = v_of(x, l.a) - v_of(x, l.b);
            }
            Ok(())
        };

        let mut report = RescueReport::default();
        let mut partial_error: Option<Error> = None;

        for step in 1..=steps {
            let t = step as f64 * self.dt;
            let t_prev = (step - 1) as f64 * self.dt;
            let be = matches!(self.method, IntegrationMethod::BackwardEuler) || step == 1;
            // Snapshots only exist under a rescue policy, so the plain
            // hot path stays allocation-free per step.
            let snap =
                policy.map(|_| StateSnapshot::capture(&x, &v_prev, &i_prev, &il_prev, &vl_prev));
            match take_step(
                t,
                self.dt,
                be,
                0.0,
                &mut probe,
                &mut x,
                &mut v_prev,
                &mut i_prev,
                &mut il_prev,
                &mut vl_prev,
            ) {
                Ok(()) => {}
                Err(e @ Error::NonConvergence { .. }) => {
                    let (Some(policy), Some(snap)) = (policy, snap.as_ref()) else {
                        return Err(e);
                    };
                    if !attempt_rescue(
                        policy,
                        &mut report,
                        &mut take_step,
                        &mut probe,
                        t_prev,
                        t,
                        be,
                        snap,
                        &mut x,
                        &mut v_prev,
                        &mut i_prev,
                        &mut il_prev,
                        &mut vl_prev,
                    ) {
                        partial_error = Some(Error::NonConvergence {
                            analysis: "transient",
                            time: t,
                            iterations: self.max_iter,
                            stage: "rescue",
                            attempts: report.incidents.last().map_or(0, |i| i.attempts),
                        });
                        // Put the last accepted point on record if decimation
                        // skipped it.
                        if times.last().copied() != Some(t_prev) {
                            record(t_prev, &x, &mut times, &mut signals);
                        }
                        break;
                    }
                }
                Err(e) => return Err(e),
            }
            probe.emit(Event::StepAccepted {
                time: t,
                dt: self.dt,
            });
            if step % self.record_every == 0 || step == steps {
                record(t, &x, &mut times, &mut signals);
            }
        }

        probe.report(&engine, "transient");
        let ground = vec![0.0; times.len()];
        let result = TransientResult {
            times,
            signals,
            ground,
            node_rows,
            n_nodes: layout.n_nodes,
            sources,
            branch_elements,
        };
        match partial_error {
            None => {
                probe.emit(Event::AnalysisEnd {
                    analysis: "transient",
                });
                Ok(TransientOutcome::Complete {
                    result,
                    rescues: report,
                })
            }
            Some(error) => Ok(TransientOutcome::Partial {
                result,
                rescues: report,
                error,
            }),
        }
    }
}

#[derive(Debug, Clone)]
struct SourceInfo {
    element: usize,
    pos: NodeId,
    neg: NodeId,
    branch: usize,
}

/// Recorded waveforms of a transient analysis.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    signals: Vec<Vec<f64>>,
    ground: Vec<f64>,
    node_rows: usize,
    n_nodes: usize,
    sources: Vec<SourceInfo>,
    /// `(element index, branch index)` for every branch-current element
    /// (voltage sources and inductors).
    branch_elements: Vec<(usize, usize)>,
}

impl TransientResult {
    /// Recorded sample times.
    pub fn time(&self) -> &[f64] {
        &self.times
    }

    /// Number of recorded samples.
    pub fn samples(&self) -> usize {
        self.times.len()
    }

    /// Voltage waveform of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the analysed circuit.
    pub fn voltage(&self, node: NodeId) -> Trace<'_> {
        let i = node.index();
        assert!(i < self.n_nodes, "node {node} out of range");
        if i == 0 {
            Trace::new(&self.times, &self.ground)
        } else {
            Trace::new(&self.times, &self.signals[i - 1])
        }
    }

    /// Differential voltage waveform `v(a) - v(b)` as owned data.
    ///
    /// # Panics
    ///
    /// Panics if either node does not belong to the analysed circuit.
    pub fn voltage_between(&self, a: NodeId, b: NodeId) -> TraceData {
        let va = self.voltage(a);
        let vb = self.voltage(b);
        let v = va
            .values()
            .iter()
            .zip(vb.values())
            .map(|(x, y)| x - y)
            .collect();
        TraceData::new(self.times.clone(), v)
    }

    /// Branch-current waveform of a voltage source or inductor. For a
    /// voltage source, positive current flows into the `pos` terminal
    /// (SPICE convention); for an inductor, positive current flows from
    /// terminal `a` to terminal `b`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownProbe`] if the element carries no branch
    /// current (resistor, capacitor, ...).
    pub fn branch_current(&self, element: ElementId) -> Result<Trace<'_>, Error> {
        let (_, branch) = self
            .branch_elements
            .iter()
            .find(|(e, _)| *e == element.index())
            .ok_or_else(|| Error::UnknownProbe {
                what: format!("branch current of {element}"),
            })?;
        Ok(Trace::new(
            &self.times,
            &self.signals[self.node_rows + branch],
        ))
    }

    /// Instantaneous power *delivered by* a voltage source:
    /// `(v_pos − v_neg) · (−i_branch)`. Positive for a supply feeding the
    /// circuit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownProbe`] if the element is not a voltage
    /// source of the analysed circuit.
    pub fn source_power(&self, element: ElementId) -> Result<TraceData, Error> {
        let info = self
            .sources
            .iter()
            .find(|s| s.element == element.index())
            .ok_or_else(|| Error::UnknownProbe {
                what: format!("source power of {element}"),
            })?;
        let vp = self.voltage(info.pos);
        let vn = self.voltage(info.neg);
        let ib = &self.signals[self.node_rows + info.branch];
        let p = vp
            .values()
            .iter()
            .zip(vn.values())
            .zip(ib)
            .map(|((vp, vn), i)| (vp - vn) * (-i))
            .collect();
        Ok(TraceData::new(self.times.clone(), p))
    }
}

impl Solution for TransientResult {
    /// Node voltage waveform over the recorded samples.
    type Voltage = TraceData;
    /// Branch current waveform over the recorded samples.
    type Current = TraceData;

    fn voltage(&self, node: NodeId) -> Result<TraceData, Error> {
        let i = node.index();
        if i >= self.n_nodes {
            return Err(Error::UnknownProbe {
                what: format!("voltage of {node}"),
            });
        }
        let values = if i == 0 {
            self.ground.clone()
        } else {
            self.signals[i - 1].clone()
        };
        Ok(TraceData::new(self.times.clone(), values))
    }

    fn branch_current(&self, element: ElementId) -> Result<TraceData, Error> {
        let trace = TransientResult::branch_current(self, element)?;
        let values = trace.values().to_vec();
        Ok(TraceData::new(self.times.clone(), values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::MosParams;
    use crate::session::Session;
    use crate::waveform::Waveform;

    /// RC step response: v(t) = V·(1 − e^(−t/τ)).
    #[test]
    fn rc_charge_matches_analytic() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor("R1", vin, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GND, 1e-6);
        let result = Session::new(&ckt)
            .transient(&Transient::new(1e-6, 5e-3).use_initial_conditions())
            .unwrap();
        let v = result.voltage(out);
        let tau = 1e-3;
        for &t in &[0.5e-3, 1e-3, 2e-3, 4e-3_f64] {
            let expect = 1.0 - (-t / tau).exp();
            let got = v.value_at(t);
            assert!(
                (got - expect).abs() < 2e-3,
                "t={t}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn trapezoidal_is_more_accurate_than_backward_euler() {
        let build = || {
            let mut ckt = Circuit::new();
            let vin = ckt.node("in");
            let out = ckt.node("out");
            ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
            ckt.resistor("R1", vin, out, 1e3);
            ckt.capacitor("C1", out, Circuit::GND, 1e-6);
            (ckt, out)
        };
        let tau = 1e-3;
        let expect = 1.0 - (-1.0f64).exp(); // at t = tau
        let (ckt, out) = build();
        // Deliberately coarse step to expose truncation error.
        let be = Session::new(&ckt)
            .transient(
                &Transient::new(50e-6, 1e-3)
                    .use_initial_conditions()
                    .with_method(IntegrationMethod::BackwardEuler),
            )
            .unwrap();
        let (ckt2, out2) = build();
        let tr = Session::new(&ckt2)
            .transient(
                &Transient::new(50e-6, 1e-3)
                    .use_initial_conditions()
                    .with_method(IntegrationMethod::Trapezoidal),
            )
            .unwrap();
        let err_be = (be.voltage(out).value_at(tau) - expect).abs();
        let err_tr = (tr.voltage(out2).value_at(tau) - expect).abs();
        assert!(
            err_tr < err_be,
            "trap err {err_tr} should beat BE err {err_be}"
        );
    }

    #[test]
    fn capacitor_initial_condition_is_honoured() {
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.resistor("R1", out, Circuit::GND, 1e3);
        ckt.capacitor_with_ic("C1", out, Circuit::GND, 1e-6, 2.0);
        let result = Session::new(&ckt)
            .transient(&Transient::new(1e-6, 1e-3).use_initial_conditions())
            .unwrap();
        let v = result.voltage(out);
        // Discharges from 2 V: v(τ) = 2/e.
        let got = v.value_at(1e-3);
        let expect = 2.0 * (-1.0f64).exp();
        assert!((got - expect).abs() < 5e-3, "got {got}, expected {expect}");
    }

    #[test]
    fn starts_from_dc_operating_point_by_default() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(2.0));
        ckt.resistor("R1", a, b, 1e3);
        ckt.resistor("R2", b, Circuit::GND, 1e3);
        ckt.capacitor("C1", b, Circuit::GND, 1e-9);
        let result = Session::new(&ckt)
            .transient(&Transient::new(1e-9, 100e-9))
            .unwrap();
        let v = result.voltage(b);
        // Already at equilibrium: stays at 1 V throughout.
        assert!((v.value_at(0.0) - 1.0).abs() < 1e-6);
        assert!((v.last_value() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pwm_average_on_rc_filter() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::pwm(2.0, 1e6, 0.3));
        ckt.resistor("R1", vin, out, 10e3);
        ckt.capacitor("C1", out, Circuit::GND, 1e-9);
        let result = Session::new(&ckt)
            .transient(
                &Transient::new(2e-9, 100e-6)
                    .use_initial_conditions()
                    .record_every(5),
            )
            .unwrap();
        let avg = result.voltage(out).steady_state_average(1e-6, 10);
        assert!((avg - 0.6).abs() < 0.02, "avg = {avg}");
    }

    #[test]
    fn energy_balance_of_rc_charge() {
        // Charging a capacitor through a resistor takes C·V² from the
        // source: ½CV² stored, ½CV² dissipated.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let v1 = ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(2.0));
        ckt.resistor("R1", vin, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GND, 1e-6);
        let result = Session::new(&ckt)
            .transient(&Transient::new(2e-6, 10e-3).use_initial_conditions())
            .unwrap();
        let p = result.source_power(v1).unwrap();
        let e = p.as_trace().integrate_between(0.0, 10e-3);
        let expect = 1e-6 * 2.0 * 2.0; // C·V²
        assert!(
            (e - expect).abs() / expect < 0.02,
            "energy {e} vs expected {expect}"
        );
    }

    #[test]
    fn cmos_inverter_inverts_a_slow_square_wave() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
        ckt.vsource("VIN", vin, Circuit::GND, Waveform::pwm(2.5, 1e6, 0.5));
        ckt.mosfet("MP", out, vin, vdd, MosParams::pmos(865e-9, 1.2e-6));
        ckt.mosfet(
            "MN",
            out,
            vin,
            Circuit::GND,
            MosParams::nmos(320e-9, 1.2e-6),
        );
        ckt.capacitor("CL", out, Circuit::GND, 10e-15);
        let result = Session::new(&ckt)
            .transient(&Transient::new(2e-9, 3e-6).use_initial_conditions())
            .unwrap();
        let v_in = result.voltage(vin);
        let v_out = result.voltage(out);
        // Probe mid-high and mid-low phases of the final cycle.
        let t_hi = 2.25e-6; // input high
        let t_lo = 2.75e-6; // input low
        assert!(v_in.value_at(t_hi) > 2.0);
        assert!(v_out.value_at(t_hi) < 0.3, "out = {}", v_out.value_at(t_hi));
        assert!(v_in.value_at(t_lo) < 0.5);
        assert!(v_out.value_at(t_lo) > 2.2, "out = {}", v_out.value_at(t_lo));
    }

    #[test]
    fn record_decimation_reduces_samples() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor("R1", a, Circuit::GND, 1e3);
        let fine = Session::new(&ckt)
            .transient(&Transient::new(1e-9, 1e-6))
            .unwrap();
        let coarse = Session::new(&ckt)
            .transient(&Transient::new(1e-9, 1e-6).record_every(10))
            .unwrap();
        assert!(coarse.samples() < fine.samples() / 5);
        // Final point always recorded.
        assert!((coarse.time().last().unwrap() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn branch_current_probe_errors_on_non_source() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        let r = ckt.resistor("R1", a, Circuit::GND, 1e3);
        let result = Session::new(&ckt)
            .transient(&Transient::new(1e-9, 10e-9))
            .unwrap();
        assert!(result.branch_current(r).is_err());
        assert!(result.source_power(r).is_err());
    }

    #[test]
    fn voltage_between_is_differential() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(3.0));
        ckt.resistor("R1", a, b, 1e3);
        ckt.resistor("R2", b, Circuit::GND, 2e3);
        let result = Session::new(&ckt)
            .transient(&Transient::new(1e-9, 10e-9))
            .unwrap();
        let vab = result.voltage_between(a, b);
        assert!((vab.as_trace().last_value() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_panics() {
        let _ = Transient::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "t_stop / dt must fit in a step count")]
    fn infinite_stop_time_panics() {
        let _ = Transient::new(1e-9, f64::INFINITY);
    }

    /// RL step response: i(t) = (V/R)·(1 − e^(−t·R/L)).
    #[test]
    fn rl_current_rise_matches_analytic() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor("R1", vin, mid, 100.0);
        let l1 = ckt.inductor("L1", mid, Circuit::GND, 1e-3); // τ = 10 µs
        let result = Session::new(&ckt)
            .transient(&Transient::new(20e-9, 50e-6).use_initial_conditions())
            .unwrap();
        let i = result.branch_current(l1).unwrap();
        let tau = 1e-3 / 100.0;
        for &t in &[0.5 * tau, tau, 3.0 * tau] {
            let expect = (1.0 / 100.0) * (1.0 - f64::exp(-t / tau));
            let got = i.value_at(t);
            assert!(
                (got - expect).abs() < 2e-4,
                "t={t}: i={got}, expected {expect}"
            );
        }
        // Fully risen at 5τ.
        assert!((i.last_value() - 0.01).abs() < 1e-4);
    }

    /// Inductor is a DC short: the operating point puts the full supply
    /// across the resistor.
    #[test]
    fn inductor_is_short_in_dc_derived_initial_condition() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(2.0));
        ckt.resistor("R1", vin, mid, 1e3);
        let l1 = ckt.inductor("L1", mid, Circuit::GND, 1e-3);
        // No UIC: start from the DC OP, where i(L) = 2 mA already.
        let result = Session::new(&ckt)
            .transient(&Transient::new(1e-7, 1e-5))
            .unwrap();
        let i = result.branch_current(l1).unwrap();
        assert!((i.value_at(0.0) - 2e-3).abs() < 1e-8);
        assert!((i.last_value() - 2e-3).abs() < 1e-8, "steady state holds");
    }

    /// Series RLC ringing: underdamped response oscillates near the
    /// natural frequency and decays at R/(2L).
    #[test]
    fn rlc_underdamped_oscillation() {
        let r = 10.0;
        let l = 1e-6;
        let c = 1e-9;
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor("R1", vin, mid, r);
        ckt.inductor("L1", mid, out, l);
        ckt.capacitor("C1", out, Circuit::GND, c);
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l * c).sqrt()); // ≈ 5 MHz
        let period = 1.0 / f0;
        let result = Session::new(&ckt)
            .transient(&Transient::new(period / 400.0, 6.0 * period).use_initial_conditions())
            .unwrap();
        let v = result.voltage(out);
        // Underdamped: overshoot beyond the final value.
        let peak = v.max();
        assert!(peak > 1.3, "expected ringing overshoot, peak = {peak}");
        // First peak lands near half the natural period.
        let t_half = period / 2.0;
        let v_half = v.value_at(t_half);
        assert!(v_half > 1.3, "v({t_half}) = {v_half}");
        // Decays toward 1 V.
        assert!((v.last_value() - 1.0).abs() < 0.25);
    }
}
