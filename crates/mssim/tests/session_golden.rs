//! Golden equivalence: the deprecated `Transient::run` entry point must
//! produce **bitwise identical** results to the [`Session`] API it
//! delegates to, and the telemetry counters a session derives from its
//! event stream must agree exactly with the solver's own statistics.

#![allow(deprecated)]

use mssim::prelude::*;
use mssim::telemetry::Event;

const VDD: f64 = 2.5;
const FREQ: f64 = 500e6;
const ROUT: f64 = 100e3;
const R_OFF: f64 = 1e12;

/// Switch-level 3×3 weighted adder, the topology of `pwmcell::SwitchAdder`
/// at the paper's technology numbers.
fn switch_adder_3x3() -> (Circuit, NodeId) {
    let duties = [0.70, 0.80, 0.90];
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let out = ckt.node("out");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(VDD));
    for (i, &d) in duties.iter().enumerate() {
        let input = ckt.node(&format!("in{i}"));
        ckt.vsource(
            &format!("VIN{i}"),
            input,
            Circuit::GND,
            Waveform::pwm(VDD, FREQ, d),
        );
        for b in 0..3u32 {
            let r_on = ROUT / (1u32 << b) as f64;
            ckt.switch(
                &format!("SU{i}b{b}"),
                vdd,
                out,
                input,
                Circuit::GND,
                VDD / 2.0,
                r_on,
                R_OFF,
            );
            ckt.switch(
                &format!("SD{i}b{b}"),
                out,
                Circuit::GND,
                Circuit::GND,
                input,
                -VDD / 2.0,
                r_on,
                R_OFF,
            );
        }
    }
    ckt.capacitor("COUT", out, Circuit::GND, 10e-12);
    (ckt, out)
}

#[test]
fn wrapper_transient_is_bitwise_identical_to_session() {
    let (ckt, out) = switch_adder_3x3();
    let tran = Transient::new(10e-12, 200.0 * 10e-12)
        .use_initial_conditions()
        .record_every(4);
    let legacy = tran.run(&ckt).expect("legacy transient converges");
    let session = Session::new(&ckt)
        .transient(&tran)
        .expect("session transient converges");
    assert_eq!(legacy.time(), session.time());
    assert_eq!(legacy.voltage(out).values(), session.voltage(out).values());
}

/// The acceptance-gated cross-check: Newton-iteration and cache-hit
/// counters derived from the event stream agree with the solver's own
/// `SolverStats`, surfaced on the end-of-analysis [`Event::SolverReport`].
#[test]
fn telemetry_counters_match_solver_stats_on_adder_transient() {
    let (ckt, _) = switch_adder_3x3();
    let tran = Transient::new(10e-12, 500.0 * 10e-12).record_every(16);
    let mut rec = MemoryRecorder::new();
    Session::new(&ckt)
        .observe(&mut rec)
        .transient(&tran)
        .expect("transient converges");
    let (mut iterations, mut bypasses, mut factorizations, mut back_substitutions) = (0, 0, 0, 0);
    let mut reports = 0usize;
    for e in rec.events() {
        if let Event::SolverReport { counters, .. } = e {
            iterations += counters.iterations;
            bypasses += counters.bypasses;
            factorizations += counters.factorizations;
            back_substitutions += counters.back_substitutions;
            reports += 1;
        }
    }
    // One report per analysis: the transient plus its nested DC op.
    assert_eq!(reports, 2);
    assert!(iterations > 0, "solver must have iterated");
    assert_eq!(rec.counter_value("newton.iterations"), iterations);
    assert_eq!(rec.counter_value("plan.bypasses"), bypasses);
    assert_eq!(rec.counter_value("plan.factorizations"), factorizations);
    assert_eq!(
        rec.counter_value("plan.back_substitutions"),
        back_substitutions
    );
    // And the step accounting is exact for a fixed-step run.
    assert_eq!(rec.counter_value("tran.steps_accepted"), 500);
}
