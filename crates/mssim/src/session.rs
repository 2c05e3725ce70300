//! The unified entry point for running analyses.
//!
//! [`Session`] borrows a circuit once and exposes every analysis the
//! simulator knows — DC operating point, DC sweep, AC, noise and
//! transient — behind one builder. It owns the cross-cutting concerns the
//! free functions used to duplicate: lint pre-flight, stamp-plan
//! compilation, solver-flavour selection and observer registration
//! ([`Session::observe`]), so instrumentation configured once applies to
//! every analysis run through the session.
//!
//! ```
//! use mssim::prelude::*;
//!
//! # fn main() -> Result<(), mssim::Error> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
//! ckt.resistor("R1", vin, out, 1e3);
//! ckt.capacitor("C1", out, Circuit::GND, 1e-6);
//!
//! let mut session = Session::new(&ckt);
//! let op = session.dc_operating_point()?;
//! assert!((op.voltage(out) - 1.0).abs() < 1e-9);
//! let tran = Transient::new(1e-5, 10e-3).use_initial_conditions();
//! let result = session.transient(&tran)?;
//! assert!((result.voltage(out).last_value() - 1.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

use crate::analysis::ac::{ac_analysis_impl, AcResult};
use crate::analysis::dcop::{dc_operating_point_opts, DcSolution};
use crate::analysis::dcsweep::{dc_sweep_impl, DcSweepResult};
use crate::analysis::noise::{noise_analysis_impl, NoiseResult};
use crate::analysis::plan::{DeviceEval, EngineSel};
use crate::analysis::{RescuePolicy, Transient, TransientOutcome, TransientResult};
use crate::analyze::{analyze_circuit, AnalyzeReport, Ranges};
use crate::error::Error;
use crate::netlist::{Circuit, ElementId, NodeId};
use crate::telemetry::{dispatch, Event, Observer, Probe};
use crate::verify::{verify_circuit, VerifyReport};

pub use crate::analysis::plan::LimitOpts;

/// One circuit, every analysis: the unified analysis entry point.
///
/// A session borrows the circuit for `'c` and optionally an observer for
/// `'o`; each analysis method lints the netlist, compiles the solver for
/// the analysis, threads the observer through every instrumentation
/// point and returns the analysis result. The session is reusable — run
/// as many analyses through it as needed; each gets a fresh solver.
///
/// See the [crate-level quickstart](crate) and
/// [`telemetry`](crate::telemetry) for observer examples.
pub struct Session<'c, 'o> {
    circuit: &'c Circuit,
    observer: Option<&'o mut dyn Observer>,
    reference: bool,
    limited: bool,
    limit_opts: Option<LimitOpts>,
    dc_max_iter: Option<usize>,
}

impl<'c, 'o> Session<'c, 'o> {
    /// Starts a session on `circuit`.
    pub fn new(circuit: &'c Circuit) -> Self {
        Session {
            circuit,
            observer: None,
            reference: false,
            limited: false,
            limit_opts: None,
            dc_max_iter: None,
        }
    }

    /// Caps the Newton iteration budget of every DC solve run through
    /// this session (the default budget is 200 iterations per solve).
    ///
    /// Starving the budget forces the DC homotopy ladder to exercise its
    /// gmin and source-stepping fallback stages, which is useful for
    /// testing convergence telemetry and for probing how close a circuit
    /// sails to non-convergence.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_dc_max_iterations(mut self, n: usize) -> Self {
        assert!(n > 0, "DC iteration budget must be at least 1");
        self.dc_max_iter = Some(n);
        self
    }

    /// Attaches an [`Observer`] receiving counters, histograms and typed
    /// events from every analysis run through this session. With no
    /// observer attached instrumentation costs a single branch per Newton
    /// solve.
    pub fn observe(mut self, observer: &'o mut dyn Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Runs every analysis on the naive per-iteration assembler instead
    /// of the compiled stamp plan. Kept for golden-equivalence tests and
    /// as the benchmark baseline; not part of the supported API.
    #[doc(hidden)]
    pub fn with_reference_solver(mut self, on: bool) -> Self {
        self.reference = on;
        self
    }

    /// Runs every analysis in this session with SPICE-style device
    /// limiting and latency on the compiled stamp plan: MOSFET trial
    /// voltages are clamped by the `fetlim`/`limvds` heuristics (taming
    /// Newton overshoot on large steps) and devices whose terminal
    /// voltages stayed inside a tolerance band with the operating region
    /// unchanged reuse their previous linearisation, keeping the
    /// factorization cache hot. Results agree with the default exact mode
    /// to solver tolerance (typically within microvolts) but are not
    /// bitwise identical; circuits without MOSFETs are unaffected.
    /// Ignored when the reference solver is selected.
    pub fn with_device_limiting(mut self, on: bool) -> Self {
        self.limited = on;
        self
    }

    /// [`with_device_limiting`](Self::with_device_limiting) with explicit
    /// latency bands instead of the shipped defaults. Test and tuning
    /// hook: the golden-equivalence and mutation tests use it to prove
    /// the equivalence gate notices a broken (over-wide) latency check.
    /// DC sweeps clamp the bands down to their own tighter defaults
    /// regardless of what is passed here.
    #[doc(hidden)]
    pub fn with_limit_opts(mut self, opts: LimitOpts) -> Self {
        self.limited = true;
        self.limit_opts = Some(opts);
        self
    }

    fn sel(&self) -> EngineSel {
        EngineSel {
            reference: self.reference,
            eval: if self.limited {
                DeviceEval::Limited(self.limit_opts.unwrap_or_default())
            } else {
                DeviceEval::Exact
            },
        }
    }

    fn probe(&mut self) -> Probe<'_> {
        // Through the `&mut T: Observer` blanket impl: the trait-object
        // lifetime behind `&mut` is invariant and cannot shrink directly.
        match &mut self.observer {
            Some(o) => Probe::new(Some(o)),
            None => Probe::none(),
        }
    }

    /// Computes the DC operating point (capacitors open, inductors
    /// shorted), falling back to gmin and source stepping for circuits
    /// that refuse to converge from a cold start.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LintRejected`] for structurally broken netlists,
    /// [`Error::SingularMatrix`] for under-determined ones, and
    /// [`Error::NonConvergence`] if every continuation strategy fails.
    ///
    /// # Examples
    ///
    /// ```
    /// use mssim::prelude::*;
    ///
    /// # fn main() -> Result<(), mssim::Error> {
    /// let mut ckt = Circuit::new();
    /// let a = ckt.node("a");
    /// let b = ckt.node("b");
    /// ckt.vsource("V1", a, Circuit::GND, Waveform::dc(3.0));
    /// ckt.resistor("R1", a, b, 2e3);
    /// ckt.resistor("R2", b, Circuit::GND, 1e3);
    /// let op = Session::new(&ckt).dc_operating_point()?;
    /// assert!((op.voltage(b) - 1.0).abs() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn dc_operating_point(&mut self) -> Result<DcSolution, Error> {
        let sel = self.sel();
        let max_iter = self.dc_max_iter;
        dc_operating_point_opts(self.circuit, sel, max_iter, self.probe())
    }

    /// Sweeps the DC value of `source` through `values`, solving the
    /// operating point at each step. The session's circuit is unchanged;
    /// the sweep mutates an internal copy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `source` is not a voltage
    /// source, and propagates operating-point errors.
    ///
    /// # Examples
    ///
    /// Locating a CMOS inverter's switching threshold:
    ///
    /// ```
    /// use mssim::prelude::*;
    /// use mssim::elements::MosParams;
    /// use mssim::sweep::linspace;
    ///
    /// # fn main() -> Result<(), mssim::Error> {
    /// let mut ckt = Circuit::new();
    /// let vdd = ckt.node("vdd");
    /// let g = ckt.node("g");
    /// let out = ckt.node("out");
    /// ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
    /// let vg = ckt.vsource("VG", g, Circuit::GND, Waveform::dc(0.0));
    /// ckt.mosfet("MP", out, g, vdd, MosParams::pmos(865e-9, 1.2e-6));
    /// ckt.mosfet("MN", out, g, Circuit::GND, MosParams::nmos(320e-9, 1.2e-6));
    /// ckt.resistor("RL", out, Circuit::GND, 10e6);
    /// let sweep = Session::new(&ckt).dc_sweep(vg, &linspace(0.0, 2.5, 51))?;
    /// let vm = sweep.crossing(out, 1.25).expect("inverter switches");
    /// assert!(vm > 0.8 && vm < 1.6);
    /// # Ok(())
    /// # }
    /// ```
    pub fn dc_sweep(&mut self, source: ElementId, values: &[f64]) -> Result<DcSweepResult, Error> {
        let sel = self.sel();
        let circuit = self.circuit.clone();
        dc_sweep_impl(circuit, source, values, sel, self.probe())
    }

    /// Small-signal AC analysis: linearises every nonlinear device around
    /// the DC operating point and sweeps `frequencies` with a unit
    /// stimulus at `source`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `source` is not a voltage
    /// source, and propagates operating-point and solver errors.
    ///
    /// # Examples
    ///
    /// An RC low-pass is 3 dB down at its corner frequency:
    ///
    /// ```
    /// use mssim::prelude::*;
    ///
    /// # fn main() -> Result<(), mssim::Error> {
    /// let mut ckt = Circuit::new();
    /// let vin = ckt.node("in");
    /// let out = ckt.node("out");
    /// let src = ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(0.0));
    /// ckt.resistor("R1", vin, out, 1e3);
    /// ckt.capacitor("C1", out, Circuit::GND, 1e-9);
    /// let fc = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
    /// let ac = Session::new(&ckt).ac(src, &[fc])?;
    /// let gain_db = ac.magnitude_db(out)[0];
    /// assert!((gain_db + 3.0103).abs() < 0.01);
    /// # Ok(())
    /// # }
    /// ```
    pub fn ac(&mut self, source: ElementId, frequencies: &[f64]) -> Result<AcResult, Error> {
        let sel = self.sel();
        ac_analysis_impl(self.circuit, source, frequencies, sel, self.probe())
    }

    /// Output-referred noise density at `output` across `frequencies`,
    /// summing every device's noise shaped by its transfer function to
    /// the output (adjoint method).
    ///
    /// # Errors
    ///
    /// Propagates DC-operating-point and solver errors.
    ///
    /// # Panics
    ///
    /// Panics if `output` is the ground node.
    pub fn noise(&mut self, output: NodeId, frequencies: &[f64]) -> Result<NoiseResult, Error> {
        let sel = self.sel();
        noise_analysis_impl(self.circuit, output, frequencies, sel, self.probe())
    }

    /// Runs the configured transient analysis `tran` on the session's
    /// circuit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LintRejected`] for broken netlists (see
    /// [`crate::lint`]), [`Error::NonConvergence`] if Newton iteration
    /// fails at some time point, and [`Error::SingularMatrix`] for
    /// under-determined systems.
    pub fn transient(&mut self, tran: &Transient) -> Result<TransientResult, Error> {
        let sel = self.sel();
        tran.run_with(self.circuit, sel, self.probe())
    }

    /// Runs `tran` under the convergence-rescue ladder `policy`.
    ///
    /// Each time step that fails Newton iteration enters the ladder —
    /// timestep cutting with exponential backoff, a backward-Euler
    /// fallback, then per-point gmin shunting — and the run degrades
    /// gracefully: instead of aborting with [`Error::NonConvergence`], an
    /// unrescuable step yields [`TransientOutcome::Partial`] carrying the
    /// waveform up to the last accepted point plus a structured
    /// [`RescueReport`](crate::analysis::RescueReport). Every rung tried
    /// is emitted to the session observer as
    /// [`Event::RescueAttempt`] /
    /// [`Event::RescueOutcome`]
    /// telemetry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::LintRejected`] for broken netlists and
    /// [`Error::SingularMatrix`] for under-determined systems; those are
    /// structural faults no amount of rescue can fix. Non-convergence of
    /// the *initial* DC solve also propagates as an error — the ladder
    /// only guards time stepping.
    pub fn transient_rescued(
        &mut self,
        tran: &Transient,
        policy: &RescuePolicy,
    ) -> Result<TransientOutcome, Error> {
        let sel = self.sel();
        tran.run_rescued(self.circuit, sel, policy, self.probe())
    }

    /// Statically verifies the session's circuit: full lint report plus
    /// the stamp-plan soundness proof, without running any solve. See
    /// [`verify_circuit`].
    pub fn verify(&self) -> VerifyReport {
        verify_circuit(self.circuit)
    }

    /// Abstractly interprets both compiled stamp plans over point ranges
    /// (no parameter widening) and reports the MS030–MS033 findings,
    /// without running any solve. See [`crate::analyze`].
    ///
    /// An attached observer receives an
    /// [`Event::AnalyzeReport`]
    /// summarising the findings.
    pub fn analyze(&mut self) -> AnalyzeReport {
        self.analyze_with(&Ranges::default())
    }

    /// Abstractly interprets both compiled stamp plans with every device
    /// parameter widened to `ranges` and reports the MS030–MS033
    /// findings. See [`crate::analyze`].
    pub fn analyze_with(&mut self, ranges: &Ranges) -> AnalyzeReport {
        let report = analyze_circuit(self.circuit, ranges);
        if let Some(obs) = &mut self.observer {
            dispatch(
                *obs,
                &Event::AnalyzeReport {
                    denials: report.denials().count() as u32,
                    warnings: report.warnings().count() as u32,
                },
            );
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::linspace;
    use crate::telemetry::{Event, MemoryRecorder};
    use crate::waveform::Waveform;

    fn rc_circuit() -> (Circuit, NodeId, NodeId, ElementId) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let v1 = ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(2.0));
        ckt.resistor("R1", vin, out, 1e3);
        ckt.resistor("R2", out, Circuit::GND, 1e3);
        (ckt, vin, out, v1)
    }

    #[test]
    fn one_session_runs_many_analyses() {
        let (mut ckt, _, out, v1) = rc_circuit();
        ckt.capacitor("C1", out, Circuit::GND, 1e-9);
        let mut session = Session::new(&ckt);
        let op = session.dc_operating_point().unwrap();
        assert!((op.voltage(out) - 1.0).abs() < 1e-9);
        let sweep = session.dc_sweep(v1, &linspace(0.0, 2.0, 3)).unwrap();
        assert_eq!(sweep.values().len(), 3);
        let ac = session.ac(v1, &[1e3, 1e6]).unwrap();
        assert_eq!(ac.frequencies().len(), 2);
        let noise = session.noise(out, &[1e3]).unwrap();
        assert_eq!(noise.density().len(), 1);
        let tran = session.transient(&Transient::new(1e-9, 10e-9)).unwrap();
        assert!(tran.samples() > 1);
        assert!(session.verify().is_sound());
        assert!(!session.analyze().has_denials());
    }

    #[test]
    fn analyze_reports_through_the_session_observer() {
        let (ckt, _, _, _) = rc_circuit();
        let mut rec = MemoryRecorder::new();
        let mut session = Session::new(&ckt).observe(&mut rec);
        let report = session.analyze_with(&Ranges::default().with_tolerance(0.05));
        assert!(!report.has_denials());
        assert_eq!(rec.counter_value("analyze.runs"), 1);
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e, Event::AnalyzeReport { denials: 0, .. })));
    }

    #[test]
    fn observer_sees_every_analysis_in_one_session() {
        let (mut ckt, _, out, v1) = rc_circuit();
        ckt.capacitor("C1", out, Circuit::GND, 1e-9);
        let mut rec = MemoryRecorder::new();
        let mut session = Session::new(&ckt).observe(&mut rec);
        session.dc_operating_point().unwrap();
        session.ac(v1, &[1e3]).unwrap();
        session.transient(&Transient::new(1e-9, 10e-9)).unwrap();
        let starts: Vec<&'static str> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::AnalysisStart { analysis } => Some(*analysis),
                _ => None,
            })
            .collect();
        // AC and transient each nest a DC operating point.
        assert_eq!(starts, ["dc", "ac", "dc", "transient", "dc"]);
        assert!(rec.counter_value("newton.solves") >= 3);
        assert!(rec.counter_value("tran.steps_accepted") == 10);
    }

    #[test]
    fn session_without_observer_matches_observed_run() {
        let (ckt, _, out, _) = rc_circuit();
        let plain = Session::new(&ckt).dc_operating_point().unwrap();
        let mut rec = MemoryRecorder::new();
        let observed = Session::new(&ckt)
            .observe(&mut rec)
            .dc_operating_point()
            .unwrap();
        assert_eq!(plain.raw(), observed.raw());
        assert!((plain.voltage(out) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reference_solver_produces_equivalent_results() {
        let (ckt, _, out, _) = rc_circuit();
        let plan = Session::new(&ckt).dc_operating_point().unwrap();
        let reference = Session::new(&ckt)
            .with_reference_solver(true)
            .dc_operating_point()
            .unwrap();
        assert!((plan.voltage(out) - reference.voltage(out)).abs() < 1e-12);
    }
}
