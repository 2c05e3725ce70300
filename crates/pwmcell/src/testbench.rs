//! Measurement harnesses for the paper's experiments.
//!
//! Every number in the paper is one measurement: the settled cycle
//! average of a PWM-driven RC node. [`measure_periodic`] is that
//! measurement, once: it runs a built circuit from UIC for a
//! [`PeriodicPlan`] in a given MOS mode, optionally under the rescue
//! ladder, and reads the output average, ripple and supply power over the
//! plan's trailing window. [`SimQuality::plan`] is the one settle rule
//! that sizes such a plan from an output time constant.
//!
//! [`InverterTestbench`] and [`AdderTestbench`] build a complete circuit
//! (supply, PWM stimulus, device under test), plan the transient from the
//! circuit's own time constant and measure it through
//! [`measure_periodic`] — exactly the procedure behind the paper's
//! Figs. 4–8 and Table II.
//!
//! Their transients evaluate MOSFETs in limited mode at one latency band,
//! `MEASURE_BAND` (reltol 2.5e-3, abstol 1.25e-4), far tighter than the
//! fault campaigns' [`LimitOpts::default`]. Exact mode stays the oracle:
//! the agreement test measures inverter, Table II and serve-grid adder
//! fixtures both ways and holds vout within 1e-5 V and supply power within
//! a relative 1e-5. On the paper's technology the band moves no figure row
//! by more than 6.3e-6 V, and a serve-grid adder transient does 4.7× fewer
//! MOSFET evaluations and half the factorizations of exact mode.
//! [`PerceptronTestbench`](crate::PerceptronTestbench) measures in exact
//! mode: limited mode stalls at its first step.

use mssim::prelude::*;
use mssim::session::LimitOpts;
use mssim::units::{Farads, Watts};

use crate::adder::{AdderSpec, WeightedAdder};
use crate::inverter::Inverter;
use crate::tech::Technology;

/// Latency band of every testbench transient. On the shipped band's
/// 20:1 reltol:abstol line, in reltol steps of 5e-4, it is the loosest
/// band that holds every fixture within 1e-5 V of exact mode: the
/// agreement test's (`tests::limited_band_agrees_with_exact_mode`, which
/// also holds power within a relative 1e-5), every `repro --fast` figure
/// row and every row behind `results/*.csv` at paper quality. At 3e-3 /
/// 1.5e-4 a paper-quality Fig. 6 row (4.5 V, duty 25 %) lands 1.07e-5 V
/// off; the shipped [`LimitOpts::default`] band misses by millivolts.
const MEASURE_BAND: LimitOpts = LimitOpts {
    latency_reltol: 2.5e-3,
    latency_abstol: 1.25e-4,
};

#[cfg(test)]
thread_local! {
    /// Test hook: runs this thread's periodic measurements in exact mode,
    /// the oracle the agreement test measures the band against.
    static EXACT_MODE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Time grid of one periodic measurement: a fixed-step transient from
/// UIC to `t_stop`, measured over its last `window_periods` periods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodicPlan {
    /// PWM period, seconds.
    pub period: f64,
    /// Time step, seconds.
    pub dt: f64,
    /// Stop time, seconds.
    pub t_stop: f64,
    /// Trailing measurement window in whole periods.
    pub window_periods: usize,
}

/// The settled cycle average of a PWM-driven node over a trailing window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodicMeasurement {
    /// Cycle-averaged output voltage.
    pub vout: Volts,
    /// Peak-to-peak output ripple over the window.
    pub ripple: Volts,
    /// Average power drawn from the supply over the window.
    pub supply_power: Watts,
}

/// One periodic transient and what it measured.
#[derive(Debug, Clone)]
pub struct PeriodicRun {
    /// The transient; always complete when no rescue policy was given.
    pub outcome: TransientOutcome,
    /// The trailing-window measurement: over the planned window for a
    /// complete run, over the window clamped to the recorded span for a
    /// partial one, and the run's terminal error when a partial run
    /// recorded too little to measure.
    pub measurement: Result<PeriodicMeasurement, Error>,
}

/// Runs `ckt` from UIC for `plan` and measures `output` and the power of
/// the voltage source `supply` over the plan's trailing window.
///
/// `mode` selects MOSFET evaluation: `None` is exact mode, `Some(opts)`
/// limited mode at those latency bands. With a `rescue` policy the run
/// goes through the transient rescue ladder and may come back partial;
/// without one, non-convergence is an error.
///
/// # Errors
///
/// Propagates simulator errors (lint rejection, singular matrix,
/// non-convergence of the initial DC solve, and any non-convergence when
/// `rescue` is `None`), and [`Error::UnknownProbe`] when `supply` is not a
/// voltage source of `ckt`.
pub fn measure_periodic(
    ckt: &Circuit,
    output: NodeId,
    supply: ElementId,
    plan: &PeriodicPlan,
    mode: Option<LimitOpts>,
    rescue: Option<&RescuePolicy>,
) -> Result<PeriodicRun, Error> {
    #[cfg(test)]
    let mode = mode.filter(|_| !EXACT_MODE.with(std::cell::Cell::get));
    let mut session = Session::new(ckt);
    if let Some(opts) = mode {
        session = session.with_limit_opts(opts);
    }
    let tran = Transient::new(plan.dt, plan.t_stop).use_initial_conditions();
    let outcome = match rescue {
        Some(policy) => session.transient_rescued(&tran, policy)?,
        None => TransientOutcome::Complete {
            result: session.transient(&tran)?,
            rescues: RescueReport::default(),
        },
    };
    let result = outcome.result();
    let trace = result.voltage(output);
    let (t_start, t_end) = trace.span();
    let mut t_win = t_end - plan.window_periods as f64 * plan.period;
    if outcome.is_partial() {
        t_win = t_win.max(t_start);
    }
    let measurement = match &outcome {
        TransientOutcome::Partial { error, .. } if t_win >= t_end => Err(error.clone()),
        _ => Ok(PeriodicMeasurement {
            vout: Volts(trace.average_between(t_win, t_end)),
            ripple: Volts(trace.ripple_between(t_win, t_end)),
            supply_power: Watts(
                result
                    .source_power(supply)?
                    .as_trace()
                    .average_between(t_win, t_end),
            ),
        }),
    };
    Ok(PeriodicRun {
        outcome,
        measurement,
    })
}

/// Simulation effort: how finely to step and how long to settle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimQuality {
    /// Time steps per PWM period.
    pub steps_per_period: usize,
    /// Settle duration in output time constants.
    pub settle_time_constants: f64,
    /// Lower bound on settle duration in periods.
    pub min_settle_periods: usize,
    /// Measurement window length in whole periods.
    pub measure_periods: usize,
    /// Upper bound on total simulated periods (guards runaway runtimes at
    /// extreme frequency/τ ratios).
    pub max_total_periods: usize,
}

impl SimQuality {
    /// Quick settings for unit tests and training loops: ~1 % accuracy.
    pub fn fast() -> Self {
        SimQuality {
            steps_per_period: 100,
            settle_time_constants: 5.0,
            min_settle_periods: 4,
            measure_periods: 2,
            max_total_periods: 4000,
        }
    }

    /// Publication settings matching the paper's reported precision.
    pub fn paper() -> Self {
        SimQuality {
            steps_per_period: 200,
            settle_time_constants: 8.0,
            min_settle_periods: 8,
            measure_periods: 4,
            max_total_periods: 8000,
        }
    }

    /// The settle rule: plans a measurement of a PWM period and an output
    /// time constant `tau` that settles for `settle_time_constants · tau`
    /// (at least `min_settle_periods`), then measures `measure_periods`,
    /// capped at `max_total_periods` in all.
    pub fn plan(&self, period: f64, tau: f64) -> PeriodicPlan {
        let settle = ((self.settle_time_constants * tau / period).ceil() as usize)
            .max(self.min_settle_periods);
        let total = (settle + self.measure_periods).min(self.max_total_periods);
        PeriodicPlan {
            period,
            dt: period / self.steps_per_period as f64,
            t_stop: total as f64 * period,
            window_periods: self.measure_periods,
        }
    }
}

impl Default for SimQuality {
    fn default() -> Self {
        Self::fast()
    }
}

/// Operating point for one inverter measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureSpec {
    /// Input duty cycle, `0..=1`.
    pub duty: f64,
    /// Input frequency; `None` uses the technology default (500 MHz).
    pub frequency: Option<Hertz>,
    /// Supply voltage; `None` uses the technology default (2.5 V).
    pub vdd: Option<Volts>,
    /// Input swing; `None` follows the supply voltage.
    pub amplitude: Option<Volts>,
}

impl MeasureSpec {
    /// Nominal conditions at the given duty cycle.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is outside `0..=1`.
    pub fn duty(duty: f64) -> Self {
        assert!((0.0..=1.0).contains(&duty), "duty must be in 0..=1");
        MeasureSpec {
            duty,
            frequency: None,
            vdd: None,
            amplitude: None,
        }
    }

    /// Overrides the input frequency.
    pub fn with_frequency(mut self, frequency: Hertz) -> Self {
        self.frequency = Some(frequency);
        self
    }

    /// Overrides the supply voltage.
    pub fn with_vdd(mut self, vdd: Volts) -> Self {
        self.vdd = Some(vdd);
        self
    }

    /// Overrides the input swing independently of the supply.
    pub fn with_amplitude(mut self, amplitude: Volts) -> Self {
        self.amplitude = Some(amplitude);
        self
    }
}

/// Steady-state measurement of the transcoding inverter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InverterMeasurement {
    /// Cycle-averaged output voltage.
    pub vout: Volts,
    /// Peak-to-peak output ripple over the measurement window.
    pub ripple: Volts,
    /// Average power drawn from the supply.
    pub supply_power: Watts,
    /// The supply voltage the measurement ran at.
    pub vdd: Volts,
}

impl InverterMeasurement {
    /// `Vout / Vdd` — the supply-independent quantity of the paper's
    /// Fig. 7.
    pub fn relative_output(&self) -> f64 {
        self.vout.value() / self.vdd.value()
    }
}

/// Transistor-level testbench for the Fig. 2 inverter.
#[derive(Debug, Clone)]
pub struct InverterTestbench {
    tech: Technology,
    rout: Option<Ohms>,
    cout: Farads,
}

impl InverterTestbench {
    /// Testbench with the technology's default output resistor (100 kΩ).
    pub fn new(tech: &Technology) -> Self {
        Self::with_rout(tech, Some(tech.rout))
    }

    /// The "no load (resistor)" variant of Fig. 4.
    pub fn without_load(tech: &Technology) -> Self {
        Self::with_rout(tech, None)
    }

    /// Testbench with an explicit output resistor choice.
    pub fn with_rout(tech: &Technology, rout: Option<Ohms>) -> Self {
        InverterTestbench {
            tech: tech.clone(),
            rout,
            cout: tech.cout_inverter,
        }
    }

    /// Overrides the output capacitor (Cout ablation).
    ///
    /// # Panics
    ///
    /// Panics if the capacitance is not strictly positive.
    pub fn with_cout(mut self, cout: Farads) -> Self {
        assert!(cout.value() > 0.0, "cout must be positive");
        self.cout = cout;
        self
    }

    /// Runs one transient measurement.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors ([`Error::NonConvergence`] etc.).
    pub fn measure(
        &self,
        spec: &MeasureSpec,
        quality: &SimQuality,
    ) -> Result<InverterMeasurement, Error> {
        let vdd = spec.vdd.unwrap_or(self.tech.vdd);
        let amplitude = spec.amplitude.unwrap_or(vdd);
        let frequency = spec.frequency.unwrap_or(self.tech.frequency);
        let period = frequency.period().value();

        let mut ckt = Circuit::new();
        let vdd_node = ckt.node("vdd");
        let in_node = ckt.node("in");
        let vdd_src = ckt.vsource("VDD", vdd_node, Circuit::GND, Waveform::dc(vdd.value()));
        ckt.vsource(
            "VIN",
            in_node,
            Circuit::GND,
            Waveform::pwm_with_edges(
                amplitude.value(),
                frequency.value(),
                spec.duty,
                self.tech.edge_fraction(frequency),
            ),
        );
        let inv = Inverter::build(
            &mut ckt, &self.tech, "dut", in_node, vdd_node, self.rout, self.cout,
        );

        let plan = quality.plan(period, self.output_tau(vdd));
        let mode = Some(MEASURE_BAND);
        let m = measure_periodic(&ckt, inv.output, vdd_src, &plan, mode, None)?.measurement?;
        Ok(InverterMeasurement {
            vout: m.vout,
            ripple: m.ripple,
            supply_power: m.supply_power,
            vdd,
        })
    }

    /// Small-signal frequency response of the transcoding path: the
    /// inverter is biased with its input at mid-rail (both devices
    /// conducting) and a unit AC stimulus rides the gate; the returned
    /// pairs are `(frequency, |V(out)| / |V(out at the first frequency)|)`
    /// — the normalised magnitude of the output filter, whose dominant
    /// pole is what gives the design its ripple rejection.
    ///
    /// # Errors
    ///
    /// Propagates DC-operating-point and AC-solver errors.
    ///
    /// # Panics
    ///
    /// Panics if `frequencies` is empty.
    pub fn frequency_response(&self, frequencies: &[f64]) -> Result<Vec<(f64, f64)>, Error> {
        self.frequency_response_at(self.tech.vdd * 0.5, frequencies)
    }

    /// [`InverterTestbench::frequency_response`] with an explicit gate
    /// bias. Mid-rail biases both devices in saturation (high output
    /// resistance); a rail bias puts the conducting device in triode,
    /// where its on-resistance sets the unloaded pole.
    ///
    /// # Errors
    ///
    /// Propagates DC-operating-point and AC-solver errors.
    ///
    /// # Panics
    ///
    /// Panics if `frequencies` is empty.
    pub fn frequency_response_at(
        &self,
        bias: Volts,
        frequencies: &[f64],
    ) -> Result<Vec<(f64, f64)>, Error> {
        assert!(!frequencies.is_empty(), "need at least one frequency");
        let vdd = self.tech.vdd;
        let mut ckt = Circuit::new();
        let vdd_node = ckt.node("vdd");
        let in_node = ckt.node("in");
        ckt.vsource("VDD", vdd_node, Circuit::GND, Waveform::dc(vdd.value()));
        let vin = ckt.vsource("VIN", in_node, Circuit::GND, Waveform::dc(bias.value()));
        let inv = Inverter::build(
            &mut ckt, &self.tech, "dut", in_node, vdd_node, self.rout, self.cout,
        );
        let ac = mssim::Session::new(&ckt).ac(vin, frequencies)?;
        let mags = ac.magnitude(inv.output);
        let reference = mags[0].max(1e-30);
        Ok(frequencies
            .iter()
            .zip(&mags)
            .map(|(&f, &m)| (f, m / reference))
            .collect())
    }

    /// First-order output time constant at the given supply, with the
    /// on-resistance clamped so a below-threshold supply still yields a
    /// finite simulation plan.
    fn output_tau(&self, vdd: Volts) -> f64 {
        let drive = vdd.value();
        let ron_n = self.tech.nmos.r_on(drive).min(10e6);
        let ron_p = self.tech.pmos.r_on(drive).min(10e6);
        let ron = 0.5 * (ron_n + ron_p);
        (self.rout.map_or(0.0, Ohms::value) + ron) * self.cout.value()
    }
}

/// Steady-state measurement of the weighted adder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdderMeasurement {
    /// Cycle-averaged output voltage.
    pub vout: Volts,
    /// Peak-to-peak output ripple over the measurement window.
    pub ripple: Volts,
    /// Average power drawn from the supply (the paper's Fig. 8 quantity).
    pub supply_power: Watts,
    /// The supply voltage the measurement ran at.
    pub vdd: Volts,
}

/// Steady-state adder measurement taken under the transient rescue
/// ladder (see [`AdderBatchBench::measure_rescued`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RescuedAdderMeasurement {
    /// The measurement. For a partial run this averages the trailing
    /// window of the truncated waveform instead of the planned window.
    pub measurement: AdderMeasurement,
    /// Whether the transient stopped before `t_stop` (rescue ladder
    /// exhausted) — the measurement is then degraded, not exact.
    pub partial: bool,
    /// Total rescue-ladder rungs attempted (0 for a clean run).
    pub rescue_attempts: usize,
}

/// Transistor-level testbench for the Fig. 3 weighted adder.
#[derive(Debug, Clone)]
pub struct AdderTestbench {
    tech: Technology,
    spec: AdderSpec,
}

impl AdderTestbench {
    /// Testbench for an arbitrary adder size.
    pub fn new(tech: &Technology, spec: AdderSpec) -> Self {
        AdderTestbench {
            tech: tech.clone(),
            spec,
        }
    }

    /// The paper's 3×3 case study.
    pub fn paper(tech: &Technology) -> Self {
        Self::new(tech, AdderSpec::paper_3x3())
    }

    /// The adder dimensions under test.
    pub fn spec(&self) -> AdderSpec {
        self.spec
    }

    /// Transistor count of the device under test.
    pub fn transistor_count(&self) -> usize {
        self.spec.transistor_count()
    }

    /// Runs one transient measurement at nominal supply and frequency.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Panics if `duties`/`weights` do not match the adder dimensions or
    /// are out of range.
    pub fn measure(
        &self,
        duties: &[f64],
        weights: &[u32],
        quality: &SimQuality,
    ) -> Result<AdderMeasurement, Error> {
        self.measure_at(duties, weights, self.tech.frequency, self.tech.vdd, quality)
    }

    /// Runs one transient measurement at an explicit frequency and supply:
    /// a [`Self::batch_runner`] used once.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Panics if `duties`/`weights` do not match the adder dimensions or
    /// are out of range.
    pub fn measure_at(
        &self,
        duties: &[f64],
        weights: &[u32],
        frequency: Hertz,
        vdd: Volts,
        quality: &SimQuality,
    ) -> Result<AdderMeasurement, Error> {
        self.batch_runner(weights, frequency, vdd, quality)
            .measure(duties)
    }

    /// First-order time constant of the shared output node: the parallel
    /// combination of every cell's series resistance into `Cout`.
    fn output_tau(&self, vdd: Volts) -> f64 {
        let drive = vdd.value();
        let ron =
            0.5 * (self.tech.nmos.r_on(drive).min(10e6) + self.tech.pmos.r_on(drive).min(10e6));
        let r_cell = self.tech.rout.value() + ron;
        // Conductance units: each input contributes 1+2+…+2^(n−1).
        let units = self.spec.inputs as f64 * (self.spec.max_weight() as f64);
        (r_cell / units) * self.tech.cout_adder.value()
    }

    /// Prepares a reusable runner for repeated measurements that differ
    /// only in duty cycles: the circuit, transient plan and waveform
    /// parameters are built once, and each [`AdderBatchBench::measure`]
    /// swaps input waveforms on a clone (waveform edits do not change the
    /// matrix structure, so the solver's symbolic work is identical).
    ///
    /// # Panics
    ///
    /// Panics if `weights` do not match the adder dimensions or are out
    /// of range.
    pub fn batch_runner(
        &self,
        weights: &[u32],
        frequency: Hertz,
        vdd: Volts,
        quality: &SimQuality,
    ) -> AdderBatchBench {
        let period = frequency.period().value();
        let edge_fraction = self.tech.edge_fraction(frequency);

        let mut ckt = Circuit::new();
        let vdd_node = ckt.node("vdd");
        let vdd_src = ckt.vsource("VDD", vdd_node, Circuit::GND, Waveform::dc(vdd.value()));
        let adder = WeightedAdder::build(&mut ckt, &self.tech, "dut", vdd_node, weights, self.spec);
        // Placeholder stimulus; measure() replaces each waveform.
        let vin_srcs: Vec<ElementId> = (0..self.spec.inputs)
            .map(|i| {
                ckt.vsource(
                    &format!("VIN{i}"),
                    adder.inputs[i],
                    Circuit::GND,
                    Waveform::pwm_with_edges(vdd.value(), frequency.value(), 0.5, edge_fraction),
                )
            })
            .collect();

        AdderBatchBench {
            ckt,
            vin_srcs,
            vdd_src,
            output: adder.output,
            edge_fraction,
            frequency,
            vdd,
            plan: quality.plan(period, self.output_tau(vdd)),
        }
    }
}

/// Reusable measurement runner for one adder configuration (weights,
/// frequency, supply, quality) across many duty-cycle vectors.
///
/// Created by [`AdderTestbench::batch_runner`]. The runner is `Sync`, so
/// a batch of duty vectors can be fanned over `mssim::sweep::sweep`; each
/// measurement clones the prepared circuit and swaps input waveforms,
/// skipping netlist construction and transient planning.
#[derive(Debug, Clone)]
pub struct AdderBatchBench {
    ckt: Circuit,
    vin_srcs: Vec<ElementId>,
    vdd_src: ElementId,
    output: NodeId,
    edge_fraction: f64,
    frequency: Hertz,
    vdd: Volts,
    plan: PeriodicPlan,
}

impl AdderBatchBench {
    /// Runs one measurement for the given duty-cycle vector.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Panics if `duties` does not match the adder's input count.
    pub fn measure(&self, duties: &[f64]) -> Result<AdderMeasurement, Error> {
        Ok(self.measure_rescued(duties, None)?.measurement)
    }

    /// [`AdderBatchBench::measure`], under the transient rescue ladder when
    /// `policy` is given: recoverable non-convergence is retried per step,
    /// and a run whose ladder runs dry still yields a measurement over the
    /// trailing window of the truncated waveform, flagged `partial` —
    /// serving layers can hand it out as a degraded answer instead of
    /// failing the query.
    ///
    /// A run that needs no rescue is bitwise identical to
    /// [`AdderBatchBench::measure`].
    ///
    /// # Errors
    ///
    /// Propagates structural errors (lint rejection, singular matrix,
    /// initial-DC non-convergence), any non-convergence without a
    /// `policy`, and the terminal non-convergence when a partial waveform
    /// is too short to measure at all.
    ///
    /// # Panics
    ///
    /// Panics if `duties` does not match the adder's input count.
    pub fn measure_rescued(
        &self,
        duties: &[f64],
        policy: Option<&RescuePolicy>,
    ) -> Result<RescuedAdderMeasurement, Error> {
        assert_eq!(duties.len(), self.vin_srcs.len(), "one duty per input");
        let mut ckt = self.ckt.clone();
        for (&src, &d) in self.vin_srcs.iter().zip(duties) {
            ckt.set_waveform(
                src,
                Waveform::pwm_with_edges(
                    self.vdd.value(),
                    self.frequency.value(),
                    d,
                    self.edge_fraction,
                ),
            )?;
        }
        let mode = Some(MEASURE_BAND);
        let run = measure_periodic(&ckt, self.output, self.vdd_src, &self.plan, mode, policy)?;
        let m = run.measurement?;
        Ok(RescuedAdderMeasurement {
            measurement: AdderMeasurement {
                vout: m.vout,
                ripple: m.ripple,
                supply_power: m.supply_power,
                vdd: self.vdd,
            },
            partial: run.outcome.is_partial(),
            rescue_attempts: run.outcome.rescues().total_attempts(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;

    /// Lower-frequency, small-Cout technology keeps debug-mode tests fast;
    /// the paper configuration runs in the bench harness.
    fn quick_tech() -> Technology {
        let mut t = Technology::umc65_like();
        t.cout_inverter = Farads(100e-15);
        t.cout_adder = Farads(500e-15);
        t.frequency = Hertz(50e6);
        t
    }

    #[test]
    fn inverter_transfer_is_inverse_in_duty() {
        let tb = InverterTestbench::new(&quick_tech());
        let q = SimQuality::fast();
        let m25 = tb.measure(&MeasureSpec::duty(0.25), &q).unwrap();
        let m75 = tb.measure(&MeasureSpec::duty(0.75), &q).unwrap();
        assert!(m25.vout.value() > m75.vout.value());
        assert!((m25.vout.value() - 2.5 * 0.75).abs() < 0.15, "{m25:?}");
        assert!((m75.vout.value() - 2.5 * 0.25).abs() < 0.15, "{m75:?}");
    }

    #[test]
    fn inverter_measurement_reports_positive_power_and_ripple() {
        let tb = InverterTestbench::new(&quick_tech());
        let m = tb
            .measure(&MeasureSpec::duty(0.5), &SimQuality::fast())
            .unwrap();
        assert!(m.supply_power.value() > 0.0, "power {:?}", m.supply_power);
        assert!(m.ripple.value() > 0.0);
        assert!((m.relative_output() - 0.5).abs() < 0.08);
    }

    #[test]
    fn no_load_variant_is_more_nonlinear_than_100k() {
        // Deviation from the ideal straight line at mid-duty should be
        // visibly larger without the linearising resistor — the essence of
        // the paper's Fig. 4.
        let tech = quick_tech();
        let q = SimQuality::fast();
        let err_of = |tb: &InverterTestbench| {
            let m = tb.measure(&MeasureSpec::duty(0.5), &q).unwrap();
            (m.vout.value() - analytic::inverter_vout(2.5, 0.5)).abs()
        };
        let err_noload = err_of(&InverterTestbench::without_load(&tech));
        let err_100k = err_of(&InverterTestbench::new(&tech));
        assert!(
            err_noload > err_100k,
            "no-load err {err_noload:.4} should exceed 100k err {err_100k:.4}"
        );
    }

    #[test]
    fn adder_measurement_tracks_eq2() {
        let tech = quick_tech();
        let tb = AdderTestbench::paper(&tech);
        assert_eq!(tb.transistor_count(), 54);
        let duties = [0.7, 0.8, 0.9];
        let weights = [7, 7, 7];
        let m = tb.measure(&duties, &weights, &SimQuality::fast()).unwrap();
        let expect = analytic::adder_vout(2.5, &duties, &weights, 3);
        assert!(
            (m.vout.value() - expect).abs() < 0.15,
            "vout {:.3} vs Eq.2 {expect:.3}",
            m.vout.value()
        );
    }

    #[test]
    fn batch_runner_matches_measure_at_bitwise() {
        let tech = quick_tech();
        let tb = AdderTestbench::paper(&tech);
        let weights = [7, 5, 3];
        let quality = SimQuality::fast();
        let runner = tb.batch_runner(&weights, tech.frequency, tech.vdd, &quality);
        for duties in [[0.7, 0.8, 0.9], [0.0, 0.5, 1.0], [0.25, 0.25, 0.25]] {
            let reference = tb
                .measure_at(&duties, &weights, tech.frequency, tech.vdd, &quality)
                .unwrap();
            let batched = runner.measure(&duties).unwrap();
            assert_eq!(batched.vout, reference.vout, "{duties:?}");
            assert_eq!(batched.ripple, reference.ripple, "{duties:?}");
            assert_eq!(batched.supply_power, reference.supply_power, "{duties:?}");
        }
    }

    #[test]
    fn measure_rescued_matches_measure_bitwise_when_clean() {
        let tech = quick_tech();
        let tb = AdderTestbench::paper(&tech);
        let weights = [7, 5, 3];
        let quality = SimQuality::fast();
        let runner = tb.batch_runner(&weights, tech.frequency, tech.vdd, &quality);
        let duties = [0.3, 0.6, 0.9];
        let clean = runner.measure(&duties).unwrap();
        let rescued = runner
            .measure_rescued(&duties, Some(&RescuePolicy::default()))
            .unwrap();
        assert!(!rescued.partial);
        assert_eq!(rescued.rescue_attempts, 0);
        assert_eq!(rescued.measurement, clean);
    }

    /// Measures a fixture at [`MEASURE_BAND`] and again in exact mode on
    /// the same circuit; the two must agree within 1e-5 V in vout and
    /// within a relative 1e-5 in supply power. Returns whether the vouts
    /// differ at all.
    fn assert_agrees_with_exact(fixture: &str, measure: impl Fn() -> (Volts, Watts)) -> bool {
        let (vout, power) = measure();
        EXACT_MODE.with(|exact| exact.set(true));
        let (vout_exact, power_exact) = measure();
        EXACT_MODE.with(|exact| exact.set(false));
        let dv = (vout.value() - vout_exact.value()).abs();
        let dp = ((power.value() - power_exact.value()) / power_exact.value()).abs();
        assert!(dv <= 1e-5, "{fixture}: vout is {dv:e} V from exact mode");
        assert!(
            dp <= 1e-5,
            "{fixture}: power is {dp:e} (relative) from exact mode"
        );
        dv > 0.0
    }

    #[test]
    fn limited_band_agrees_with_exact_mode() {
        let tech = quick_tech();
        let q = SimQuality::fast();
        let mut differing = 0;
        for rout in [None, Some(Ohms(5e3)), Some(Ohms(100e3))] {
            let tb = InverterTestbench::with_rout(&tech, rout);
            for duty in [0.2, 0.5, 0.8] {
                differing += usize::from(assert_agrees_with_exact(
                    &format!("inverter {rout:?} at {duty}"),
                    || {
                        let m = tb.measure(&MeasureSpec::duty(duty), &q).unwrap();
                        (m.vout, m.supply_power)
                    },
                ));
            }
        }
        // The Table II rows of the three weight vectors the serving
        // streams draw from, then sixteen duty vectors of their 16-level
        // grid through the batch runner, alternately rescued.
        let tb = AdderTestbench::paper(&tech);
        let weights = [[7, 7, 7], [1, 2, 4], [7, 3, 4]];
        for (w, duties) in weights
            .iter()
            .zip([[0.7, 0.8, 0.9], [0.5; 3], [0.8, 0.2, 0.5]])
        {
            differing += usize::from(assert_agrees_with_exact(
                &format!("adder {w:?} at {duties:?}"),
                || {
                    let m = tb.measure(&duties, w, &q).unwrap();
                    (m.vout, m.supply_power)
                },
            ));
        }
        let runners: Vec<_> = weights
            .iter()
            .map(|w| tb.batch_runner(w, tech.frequency, tech.vdd, &q))
            .collect();
        for i in 0..16 {
            let duties = [i, 15 - i, (7 * i + 3) % 16].map(|k| k as f64 / 15.0);
            let runner = &runners[i % 3];
            differing += usize::from(assert_agrees_with_exact(
                &format!("grid {i} at {duties:?}"),
                || {
                    let m = if i % 2 == 0 {
                        runner.measure(&duties).unwrap()
                    } else {
                        let policy = RescuePolicy::default();
                        runner
                            .measure_rescued(&duties, Some(&policy))
                            .unwrap()
                            .measurement
                    };
                    (m.vout, m.supply_power)
                },
            ));
        }
        // Exact mode would agree trivially: the testbench must not run it.
        assert!(
            differing > 0,
            "every fixture is bitwise equal to exact mode"
        );
    }

    #[test]
    fn quality_plan_respects_caps() {
        let q = SimQuality::fast();
        // Extreme τ/T ratio must hit the period cap.
        let capped = q.plan(1e-9, 1.0);
        assert!(capped.t_stop <= q.max_total_periods as f64 * 1e-9 + 1e-15);
        // Relaxed ratio obeys the minimum settle.
        let relaxed = q.plan(1e-6, 1e-9);
        assert!((relaxed.dt - 1e-6 / 100.0).abs() < 1e-18);
        let periods = (relaxed.t_stop / 1e-6).round() as usize;
        assert_eq!(periods, q.min_settle_periods + q.measure_periods);
        assert_eq!(relaxed.window_periods, q.measure_periods);
    }

    #[test]
    #[should_panic(expected = "duty must be in 0..=1")]
    fn measure_spec_rejects_bad_duty() {
        let _ = MeasureSpec::duty(-0.1);
    }

    #[test]
    fn frequency_response_is_a_low_pass() {
        let tech = Technology::umc65_like();
        let tb = InverterTestbench::new(&tech);
        let freqs = mssim::sweep::logspace(1e3, 1e9, 13);
        let resp = tb.frequency_response(&freqs).unwrap();
        // Normalised to the first point.
        assert!((resp[0].1 - 1.0).abs() < 1e-12);
        // Monotone roll-off.
        for w in resp.windows(2) {
            assert!(w[1].1 <= w[0].1 * 1.001, "{resp:?}");
        }
        // Strong attenuation at 1 GHz — this is the ripple filter that
        // makes Fig. 5 flat.
        assert!(resp.last().unwrap().1 < 1e-2, "{resp:?}");
        // Beyond the pole the slope approaches −20 dB/decade.
        let hi = resp[resp.len() - 1].1;
        let lo = resp[resp.len() - 2].1; // one log-step below
        let step = freqs[12] / freqs[11];
        assert!(
            (lo / hi - step).abs() / step < 0.2,
            "slope ratio {} vs decade step {step}",
            lo / hi
        );
    }

    #[test]
    fn no_load_inverter_has_wider_bandwidth() {
        // Without the series resistor the output pole sits much higher —
        // the quantitative version of "Rout adds ripple filtering". Bias
        // the gate at the rail so the conducting NMOS is in triode and
        // its ~9 kΩ on-resistance sets the unloaded pole (at mid-rail
        // both devices would be saturated and high-impedance instead).
        let tech = Technology::umc65_like();
        let freqs = mssim::sweep::logspace(1e4, 1e10, 31);
        let bias = tech.vdd;
        let half_bandwidth = |tb: &InverterTestbench| {
            let resp = tb.frequency_response_at(bias, &freqs).unwrap();
            resp.iter()
                .find(|(_, m)| *m < 0.5)
                .map(|(f, _)| *f)
                .unwrap_or(f64::INFINITY)
        };
        let bw_loaded = half_bandwidth(&InverterTestbench::new(&tech));
        let bw_unloaded = half_bandwidth(&InverterTestbench::without_load(&tech));
        assert!(
            bw_unloaded > 5.0 * bw_loaded,
            "unloaded {bw_unloaded:.3e} vs loaded {bw_loaded:.3e}"
        );
    }
}
