//! Golden-equivalence suite: the optimized solver path (compiled stamp
//! plans + factorization reuse + Newton bypass) must reproduce the naive
//! reference assembler's waveforms within 1e-12 on every shipped circuit
//! shape. In practice the plan is designed for *bitwise* agreement — the
//! assembled system is replayed in the reference's exact accumulation
//! order — so these tests usually observe a max deviation of exactly 0.

use mssim::elements::MosParams;
use mssim::prelude::*;

const TOL: f64 = 1e-12;

/// Runs `ckt` on both solver paths and returns the largest voltage
/// deviation over `probes`.
fn transient_divergence(ckt: &Circuit, probes: &[NodeId], dt: f64, steps: usize) -> f64 {
    let tran = Transient::new(dt, steps as f64 * dt).use_initial_conditions();
    let plan = Session::new(ckt)
        .transient(&tran)
        .expect("plan transient converges");
    let reference = Session::new(ckt)
        .with_reference_solver(true)
        .transient(&tran)
        .expect("reference transient converges");
    assert_eq!(plan.samples(), reference.samples());
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
fn mos_inverter_matches_reference() {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let g = ckt.node("g");
    let out = ckt.node("out");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
    ckt.vsource("VIN", g, Circuit::GND, Waveform::pwm(2.5, 500e6, 0.7));
    ckt.mosfet("MP", out, g, vdd, MosParams::pmos(865e-9, 1.2e-6));
    ckt.mosfet("MN", out, g, Circuit::GND, MosParams::nmos(320e-9, 1.2e-6));
    ckt.capacitor("COUT", out, Circuit::GND, 1e-12);
    let d = transient_divergence(&ckt, &[vdd, g, out], 10e-12, 600);
    assert!(d <= TOL, "inverter diverges by {d:e}");
}

#[test]
fn switch_adder_matches_reference() {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let out = ckt.node("out");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
    let mut probes = vec![vdd, out];
    for (i, duty) in [0.7, 0.8, 0.9].into_iter().enumerate() {
        let input = ckt.node(&format!("in{i}"));
        probes.push(input);
        ckt.vsource(
            &format!("VIN{i}"),
            input,
            Circuit::GND,
            Waveform::pwm(2.5, 500e6, duty),
        );
        for b in 0..3u32 {
            let r_on = 100e3 / (1u32 << b) as f64;
            ckt.switch(
                &format!("SU{i}b{b}"),
                vdd,
                out,
                input,
                Circuit::GND,
                1.25,
                r_on,
                1e12,
            );
            ckt.switch(
                &format!("SD{i}b{b}"),
                out,
                Circuit::GND,
                Circuit::GND,
                input,
                -1.25,
                r_on,
                1e12,
            );
        }
    }
    ckt.capacitor("COUT", out, Circuit::GND, 10e-12);
    let d = transient_divergence(&ckt, &probes, 10e-12, 600);
    assert!(d <= TOL, "switch adder diverges by {d:e}");
}

#[test]
fn rlc_tank_matches_reference() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    let out = ckt.node("out");
    ckt.vsource(
        "VIN",
        a,
        Circuit::GND,
        Waveform::pwl(vec![(0.0, 0.0), (1e-9, 1.0)]),
    );
    ckt.resistor("R1", a, b, 50.0);
    ckt.inductor("L1", b, out, 100e-9);
    ckt.capacitor("C1", out, Circuit::GND, 10e-12);
    // Underdamped: the waveform rings, exercising sign changes in the
    // companion currents.
    let d = transient_divergence(&ckt, &[a, b, out], 50e-12, 800);
    assert!(d <= TOL, "RLC tank diverges by {d:e}");
}

#[test]
fn diode_clipper_matches_reference() {
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let out = ckt.node("out");
    let bias = ckt.node("bias");
    ckt.vsource("VIN", inp, Circuit::GND, Waveform::sine(0.0, 3.0, 10e6));
    ckt.vsource("VB", bias, Circuit::GND, Waveform::dc(1.0));
    ckt.resistor("RS", inp, out, 1e3);
    ckt.diode("D1", out, bias, 1e-14, 1.0);
    ckt.diode("D2", Circuit::GND, out, 1e-14, 1.0);
    ckt.capacitor("CL", out, Circuit::GND, 1e-12);
    let d = transient_divergence(&ckt, &[inp, out, bias], 1e-9, 600);
    assert!(d <= TOL, "diode clipper diverges by {d:e}");
}

/// DC sweep equivalence on the inverter voltage-transfer characteristic.
#[test]
fn dc_sweep_matches_reference() {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let g = ckt.node("g");
    let out = ckt.node("out");
    ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
    let vg = ckt.vsource("VG", g, Circuit::GND, Waveform::dc(0.0));
    ckt.mosfet("MP", out, g, vdd, MosParams::pmos(865e-9, 1.2e-6));
    ckt.mosfet("MN", out, g, Circuit::GND, MosParams::nmos(320e-9, 1.2e-6));
    ckt.resistor("RL", out, Circuit::GND, 10e6);
    let points = mssim::sweep::linspace(0.0, 2.5, 51);
    let plan = Session::new(&ckt)
        .dc_sweep(vg, &points)
        .expect("plan sweep");
    let reference = Session::new(&ckt)
        .with_reference_solver(true)
        .dc_sweep(vg, &points)
        .expect("reference sweep");
    for (i, (&(_, a), (_, b))) in plan
        .transfer(out)
        .iter()
        .zip(reference.transfer(out))
        .enumerate()
    {
        assert!(
            (a - b).abs() <= TOL,
            "sweep point {i}: {a} vs {b} diverges by {:e}",
            (a - b).abs()
        );
    }
}
