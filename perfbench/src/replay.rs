//! Replays one live call through the public calls it is made of.
//!
//! A circuit-tier measurement is build + lint + plan + transient inside
//! one public call, so its layers cannot be split from outside. The
//! traced run repeats the same input through `AdderTestbench::batch_runner`,
//! `AdderBatchBench::measure`, `lint`, `plan_key`,
//! `Session::dc_operating_point` and `Session::observe(..).transient(..)`,
//! each in its own span, and compares the replay with the live span.

use mssim::prelude::{
    lint, plan_key, Circuit, Hertz, MemoryRecorder, Session, Transient, Volts, Waveform,
};
use pwmcell::{AdderSpec, AdderTestbench, SimQuality, Technology, WeightedAdder};

use crate::spans::span;

/// One adder measurement to replay.
pub struct AdderCase<'a> {
    /// Device stack.
    pub tech: &'a Technology,
    /// Input duty cycles.
    pub duties: &'a [f64],
    /// Input weights (3-bit).
    pub weights: &'a [u32],
    /// PWM frequency.
    pub frequency: Hertz,
    /// Supply.
    pub vdd: Volts,
    /// Simulation effort.
    pub quality: &'a SimQuality,
}

/// Builds the testbench circuit exactly as `AdderTestbench::measure_at`
/// does, with its transient plan (`SimQuality`'s settle rule, mirrored).
fn adder_circuit(case: &AdderCase<'_>) -> (Circuit, mssim::NodeId, Transient, f64, usize) {
    let tech = case.tech;
    let spec = AdderSpec::paper_3x3();
    let period = case.frequency.period().value();
    let mut ckt = Circuit::new();
    let vdd_node = ckt.node("vdd");
    ckt.vsource(
        "VDD",
        vdd_node,
        Circuit::GND,
        Waveform::dc(case.vdd.value()),
    );
    let adder = WeightedAdder::build(&mut ckt, tech, "dut", vdd_node, case.weights, spec);
    for (i, &d) in case.duties.iter().enumerate() {
        ckt.vsource(
            &format!("VIN{i}"),
            adder.inputs[i],
            Circuit::GND,
            Waveform::pwm_with_edges(
                case.vdd.value(),
                case.frequency.value(),
                d,
                tech.edge_fraction(case.frequency),
            ),
        );
    }
    let drive = case.vdd.value();
    let ron = 0.5 * (tech.nmos.r_on(drive).min(10e6) + tech.pmos.r_on(drive).min(10e6));
    let units = spec.inputs as f64 * f64::from(spec.max_weight());
    let tau = (tech.rout.value() + ron) / units * tech.cout_adder.value();
    let q = case.quality;
    let settle =
        ((q.settle_time_constants * tau / period).ceil() as usize).max(q.min_settle_periods);
    let total = (settle + q.measure_periods).min(q.max_total_periods);
    let tran = Transient::new(period / q.steps_per_period as f64, total as f64 * period)
        .use_initial_conditions();
    (ckt, adder.output, tran, period, q.measure_periods)
}

/// What one replay found.
#[derive(Debug, Clone, Copy)]
pub struct Replayed {
    /// Settled output of the live-equivalent `AdderBatchBench::measure`.
    pub live_vout: f64,
    /// Settled output of the observed transient.
    pub replay_vout: f64,
}

/// Replays `case`, recording spans `testbench.build`, `testbench.measure`,
/// `session.lint`, `plan.compile`, `dcop` and `tran`, and solver counts
/// of the DC and transient solves into `rec`.
///
/// # Panics
///
/// Panics if the measurement fails; the replayed inputs are ones the live
/// run already answered.
pub fn adder(case: &AdderCase<'_>, rec: &mut MemoryRecorder) -> Replayed {
    let runner = span("testbench.build", None, || {
        AdderTestbench::new(case.tech, AdderSpec::paper_3x3()).batch_runner(
            case.weights,
            case.frequency,
            case.vdd,
            case.quality,
        )
    });
    let live = span("testbench.measure", None, || runner.measure(case.duties))
        .expect("replayed measurement converges");
    let (ckt, output, tran, period, window) = adder_circuit(case);
    span("session.lint", None, || std::hint::black_box(lint(&ckt)));
    span("plan.compile", None, || {
        std::hint::black_box(plan_key(&ckt))
    });
    span("dcop", None, || {
        let _ = Session::new(&ckt).observe(rec).dc_operating_point();
    });
    let result = span("tran", None, || {
        Session::new(&ckt).observe(rec).transient(&tran)
    })
    .expect("replayed transient converges");
    Replayed {
        live_vout: live.vout.value(),
        replay_vout: result.voltage(output).steady_state_average(period, window),
    }
}
