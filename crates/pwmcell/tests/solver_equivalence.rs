//! Golden equivalence on the paper's shipped transistor-level cells: the
//! compiled-plan solver must match the naive reference assembler within
//! 1e-12 on the Fig. 3 weighted adder, at both abstraction levels.

use mssim::prelude::*;
use pwmcell::{AdderSpec, SwitchAdder, Technology, WeightedAdder};

const TOL: f64 = 1e-12;

fn divergence(ckt: &Circuit, probes: &[NodeId], dt: f64, steps: usize) -> f64 {
    let tran = Transient::new(dt, steps as f64 * dt).use_initial_conditions();
    let plan = Session::new(ckt).transient(&tran).expect("plan converges");
    let reference = Session::new(ckt)
        .with_reference_solver(true)
        .transient(&tran)
        .expect("reference converges");
    let mut worst = 0.0f64;
    for &node in probes {
        for (a, b) in plan
            .voltage(node)
            .values()
            .iter()
            .zip(reference.voltage(node).values())
        {
            worst = worst.max((a - b).abs());
        }
    }
    worst
}

#[test]
fn mos_adder3x3_matches_reference() {
    let tech = Technology::umc65_like();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    let adder = WeightedAdder::build(
        &mut ckt,
        &tech,
        "add",
        vdd,
        &[7, 7, 7],
        AdderSpec::paper_3x3(),
    );
    for (i, &duty) in [0.70, 0.80, 0.90].iter().enumerate() {
        ckt.vsource(
            &format!("VIN{i}"),
            adder.inputs[i],
            Circuit::GND,
            Waveform::pwm(tech.vdd.value(), tech.frequency.value(), duty),
        );
    }
    let mut probes = vec![vdd, adder.output];
    probes.extend_from_slice(&adder.inputs);
    let d = divergence(&ckt, &probes, 10e-12, 300);
    assert!(d <= TOL, "MOS 3x3 adder diverges by {d:e}");
}

#[test]
fn switch_adder3x3_matches_reference() {
    let tech = Technology::umc65_like();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(tech.vdd.value()));
    let adder = SwitchAdder::build(
        &mut ckt,
        &tech,
        "add",
        vdd,
        &[7, 3, 5],
        AdderSpec::paper_3x3(),
    );
    for (i, &duty) in [0.20, 0.60, 0.80].iter().enumerate() {
        ckt.vsource(
            &format!("VIN{i}"),
            adder.inputs[i],
            Circuit::GND,
            Waveform::pwm(tech.vdd.value(), tech.frequency.value(), duty),
        );
    }
    let mut probes = vec![vdd, adder.output];
    probes.extend_from_slice(&adder.inputs);
    let d = divergence(&ckt, &probes, 10e-12, 600);
    assert!(d <= TOL, "switch-level 3x3 adder diverges by {d:e}");
}
