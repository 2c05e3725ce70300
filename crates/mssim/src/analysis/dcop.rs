//! DC operating-point analysis.
//!
//! Finds the static solution of a circuit with capacitors open. For
//! nonlinear circuits that refuse to converge from a cold start, the
//! solver falls back to **gmin stepping** (a shunt conductance from every
//! node to ground that is relaxed toward zero) and then **source stepping**
//! (all independent sources ramped from 0 to 100 %), the same continuation
//! strategies used by production SPICE implementations.

use crate::analysis::mna::{MnaLayout, NewtonOpts, SolveContext};
use crate::analysis::plan::{EngineSel, PlanMode, SolverEngine};
use crate::analysis::solution::Solution;
use crate::error::Error;
use crate::netlist::{Circuit, ElementId, NodeId};
use crate::telemetry::{Event, Probe};

/// Result of a DC operating-point analysis.
#[derive(Debug, Clone)]
pub struct DcSolution {
    x: Vec<f64>,
    n_nodes: usize,
    branch_of: Vec<Option<usize>>,
}

impl DcSolution {
    /// Voltage of `node` in volts.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the analysed circuit.
    pub fn voltage(&self, node: NodeId) -> f64 {
        let i = node.index();
        assert!(i < self.n_nodes, "node {node} out of range");
        if i == 0 {
            0.0
        } else {
            self.x[i - 1]
        }
    }

    /// Branch current of a voltage source, in the SPICE convention
    /// (positive into the `pos` terminal), or an error for other elements.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownProbe`] if the element is not a voltage
    /// source.
    pub fn branch_current(&self, element: ElementId) -> Result<f64, Error> {
        let idx = element.index();
        match self.branch_of.get(idx).copied().flatten() {
            Some(b) => Ok(self.x[self.n_nodes - 1 + b]),
            None => Err(Error::UnknownProbe {
                what: format!("branch current of {element}"),
            }),
        }
    }

    /// The raw solution vector (node voltages then branch currents).
    pub fn raw(&self) -> &[f64] {
        &self.x
    }
}

impl Solution for DcSolution {
    /// Node voltage in volts.
    type Voltage = f64;
    /// Branch current in amperes (SPICE convention).
    type Current = f64;

    fn voltage(&self, node: NodeId) -> Result<f64, Error> {
        let i = node.index();
        if i >= self.n_nodes {
            return Err(Error::UnknownProbe {
                what: format!("voltage of {node}"),
            });
        }
        Ok(if i == 0 { 0.0 } else { self.x[i - 1] })
    }

    fn branch_current(&self, element: ElementId) -> Result<f64, Error> {
        DcSolution::branch_current(self, element)
    }
}

/// [`Session::dc_operating_point`](crate::Session::dc_operating_point) on
/// the naive per-iteration assembler, bypassing the compiled stamp plan.
/// Kept for golden-equivalence tests and as the benchmark baseline; not
/// part of the supported API.
///
/// # Errors
///
/// Same conditions as [`Session::dc_operating_point`](crate::Session::dc_operating_point).
#[doc(hidden)]
pub fn dc_operating_point_reference(circuit: &Circuit) -> Result<DcSolution, Error> {
    crate::session::Session::new(circuit)
        .with_reference_solver(true)
        .dc_operating_point()
}

pub(crate) fn dc_operating_point_impl(
    circuit: &Circuit,
    sel: EngineSel,
    probe: Probe<'_>,
) -> Result<DcSolution, Error> {
    dc_operating_point_opts(circuit, sel, None, probe)
}

/// [`dc_operating_point_impl`] with an explicit per-solve Newton iteration
/// budget (`None` = [`NewtonOpts::default`]). The budget applies to every
/// rung of the homotopy ladder, which makes convergence failures cheap to
/// provoke in tests and lets fault campaigns bound worst-case solve time.
pub(crate) fn dc_operating_point_opts(
    circuit: &Circuit,
    sel: EngineSel,
    max_iter: Option<usize>,
    mut probe: Probe<'_>,
) -> Result<DcSolution, Error> {
    crate::lint::preflight(circuit, "dc", crate::lint::LintContext::Dc)?;
    let layout = MnaLayout::new(circuit);
    let mut engine = SolverEngine::new(circuit, &layout, PlanMode::Dc, sel);
    probe.emit(Event::AnalysisStart { analysis: "dc" });
    let result = solve_dc_opts(circuit, &layout, &mut engine, max_iter, &mut probe);
    probe.report(&engine, "dc");
    if result.is_ok() {
        probe.emit(Event::AnalysisEnd { analysis: "dc" });
    }
    result
}

/// The continuation ladder of [`solve_dc_opts`], but with the direct
/// Newton attempt seeded from
/// `warm` — typically the previous sweep point's solution — instead of
/// zeros; on success the accepted solution is written back into `warm`.
/// Adjacent sweep points differ by one small source step, so the seeded
/// attempt usually converges in a couple of iterations and, on the plan
/// engine, keeps the device anchors and factorization caches hot. The
/// continuation ladder still starts from its usual cold states when the
/// seeded attempt fails, so robustness is unchanged (`warm` is then left
/// untouched: a stale seed is still a valid next guess).
pub(crate) fn solve_dc_seeded(
    circuit: &Circuit,
    layout: &MnaLayout,
    engine: &mut SolverEngine,
    warm: &mut [f64],
    probe: &mut Probe<'_>,
) -> Result<DcSolution, Error> {
    let mut x = warm.to_vec();
    let direct = probe.solve(
        engine,
        circuit,
        layout,
        &mut x,
        SolveContext {
            time: 0.0,
            source_scale: 1.0,
            caps: None,
            inds: None,
            gshunt: 0.0,
        },
        &NewtonOpts::default(),
        "dc",
    );
    probe.emit(Event::Homotopy {
        stage: "direct",
        step: 0,
        param: 0.0,
        converged: direct.is_ok(),
    });
    if direct.is_ok() {
        warm.copy_from_slice(&x);
        return Ok(pack(circuit, layout, x));
    }
    solve_dc_opts(circuit, layout, engine, None, probe)
}

/// [`solve_dc_with`] with an explicit per-solve Newton iteration budget.
pub(crate) fn solve_dc_opts(
    circuit: &Circuit,
    layout: &MnaLayout,
    engine: &mut SolverEngine,
    max_iter: Option<usize>,
    probe: &mut Probe<'_>,
) -> Result<DcSolution, Error> {
    let n = layout.size();
    let opts = match max_iter {
        Some(max_iter) => NewtonOpts {
            max_iter,
            ..NewtonOpts::default()
        },
        None => NewtonOpts::default(),
    };
    // Total continuation attempts across all stages, reported on the final
    // error so callers can see how much of the ladder was consumed.
    let mut attempts = 0usize;

    let mut x = vec![0.0; n];
    let direct = probe.solve(
        engine,
        circuit,
        layout,
        &mut x,
        SolveContext {
            time: 0.0,
            source_scale: 1.0,
            caps: None,
            inds: None,
            gshunt: 0.0,
        },
        &opts,
        "dc",
    );
    probe.emit(Event::Homotopy {
        stage: "direct",
        step: 0,
        param: 0.0,
        converged: direct.is_ok(),
    });
    attempts += 1;
    if direct.is_ok() {
        return Ok(pack(circuit, layout, x));
    }

    // Gmin stepping: relax a node shunt from strong to none, warm-starting
    // each stage from the previous solution.
    let mut x = vec![0.0; n];
    let mut ok = true;
    for k in 0..=12 {
        let gshunt = if k == 12 { 0.0 } else { 10f64.powi(-k - 1) };
        let r = probe.solve(
            engine,
            circuit,
            layout,
            &mut x,
            SolveContext {
                time: 0.0,
                source_scale: 1.0,
                caps: None,
                inds: None,
                gshunt,
            },
            &opts,
            "dc",
        );
        probe.emit(Event::Homotopy {
            stage: "gmin",
            step: k as u32,
            param: gshunt,
            converged: r.is_ok(),
        });
        attempts += 1;
        if r.is_err() {
            ok = false;
            break;
        }
    }
    if ok {
        return Ok(pack(circuit, layout, x));
    }

    // Source stepping: ramp all sources from 10 % to 100 %.
    let mut x = vec![0.0; n];
    for step in 1..=10 {
        let scale = step as f64 / 10.0;
        let r = probe.solve(
            engine,
            circuit,
            layout,
            &mut x,
            SolveContext {
                time: 0.0,
                source_scale: scale,
                caps: None,
                inds: None,
                gshunt: 0.0,
            },
            &opts,
            "dc",
        );
        probe.emit(Event::Homotopy {
            stage: "source",
            step: step as u32,
            param: scale,
            converged: r.is_ok(),
        });
        attempts += 1;
        // The whole ladder is spent: report which stage died and how many
        // continuation attempts were burned getting there.
        r.map_err(|e| match e {
            Error::NonConvergence {
                analysis,
                time,
                iterations,
                ..
            } => Error::NonConvergence {
                analysis,
                time,
                iterations,
                stage: "source",
                attempts,
            },
            other => other,
        })?;
    }
    Ok(pack(circuit, layout, x))
}

fn pack(circuit: &Circuit, layout: &MnaLayout, x: Vec<f64>) -> DcSolution {
    DcSolution {
        x,
        n_nodes: circuit.node_count(),
        branch_of: layout.branch_of.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::MosParams;
    use crate::session::Session;
    use crate::waveform::Waveform;

    #[test]
    fn divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let v1 = ckt.vsource("V1", a, Circuit::GND, Waveform::dc(3.0));
        ckt.resistor("R1", a, b, 2e3);
        let r2 = ckt.resistor("R2", b, Circuit::GND, 1e3);
        let op = Session::new(&ckt).dc_operating_point().unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-9);
        assert!((op.voltage(a) - 3.0).abs() < 1e-9);
        assert_eq!(op.voltage(Circuit::GND), 0.0);
        // 1 mA flows; SPICE convention: negative at the source.
        assert!((op.branch_current(v1).unwrap() + 1e-3).abs() < 1e-9);
        assert!(op.branch_current(r2).is_err());
    }

    #[test]
    fn capacitor_is_open_in_dc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(5.0));
        ckt.resistor("R1", a, b, 1e3);
        ckt.capacitor("C1", b, Circuit::GND, 1e-9);
        let op = Session::new(&ckt).dc_operating_point().unwrap();
        // No DC path through the cap: the full supply appears across it.
        assert!((op.voltage(b) - 5.0).abs() < 1e-3);
    }

    #[test]
    fn nmos_inverter_static_transfer() {
        // Resistive-load NMOS inverter: gate high pulls the output low.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("g");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
        ckt.vsource("VG", gate, Circuit::GND, Waveform::dc(2.5));
        ckt.resistor("RL", vdd, out, 100e3);
        ckt.mosfet(
            "M1",
            out,
            gate,
            Circuit::GND,
            MosParams::nmos(320e-9, 1.2e-6),
        );
        let op = Session::new(&ckt).dc_operating_point().unwrap();
        let v_out = op.voltage(out);
        // Ron ≈ 9.1 kΩ against 100 kΩ load → ~0.21 V.
        assert!(v_out > 0.05 && v_out < 0.4, "v_out = {v_out}");
    }

    #[test]
    fn nmos_inverter_gate_low_output_high() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("g");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
        ckt.vsource("VG", gate, Circuit::GND, Waveform::dc(0.0));
        ckt.resistor("RL", vdd, out, 100e3);
        ckt.mosfet(
            "M1",
            out,
            gate,
            Circuit::GND,
            MosParams::nmos(320e-9, 1.2e-6),
        );
        let op = Session::new(&ckt).dc_operating_point().unwrap();
        assert!((op.voltage(out) - 2.5).abs() < 0.01);
    }

    #[test]
    fn cmos_inverter_rails() {
        let params_n = MosParams::nmos(320e-9, 1.2e-6);
        let params_p = MosParams::pmos(865e-9, 1.2e-6);
        for (vin, expect_hi) in [(0.0, true), (2.5, false)] {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let gate = ckt.node("g");
            let out = ckt.node("out");
            ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
            ckt.vsource("VG", gate, Circuit::GND, Waveform::dc(vin));
            ckt.mosfet("MP", out, gate, vdd, params_p);
            ckt.mosfet("MN", out, gate, Circuit::GND, params_n);
            // Small load so the output is well defined.
            ckt.resistor("RL", out, Circuit::GND, 10e6);
            let op = Session::new(&ckt).dc_operating_point().unwrap();
            let v = op.voltage(out);
            if expect_hi {
                assert!(v > 2.4, "vin={vin}: v_out={v}");
            } else {
                assert!(v < 0.1, "vin={vin}: v_out={v}");
            }
        }
    }

    #[test]
    fn diode_forward_drop() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let k = ckt.node("k");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(5.0));
        ckt.resistor("R1", a, k, 1e3);
        ckt.diode("D1", k, Circuit::GND, 1e-14, 1.0);
        let op = Session::new(&ckt).dc_operating_point().unwrap();
        let vd = op.voltage(k);
        assert!(vd > 0.5 && vd < 0.8, "diode drop {vd}");
    }

    #[test]
    fn invalid_circuit_is_rejected() {
        let ckt = Circuit::new();
        assert!(matches!(
            Session::new(&ckt).dc_operating_point(),
            Err(Error::LintRejected { analysis: "dc", .. })
        ));
    }

    #[test]
    fn switch_follows_control() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let ctl = ckt.node("ctl");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.0));
        ckt.vsource("VC", ctl, Circuit::GND, Waveform::dc(1.5));
        ckt.switch("S1", vdd, out, ctl, Circuit::GND, 1.0, 1.0, 1e9);
        ckt.resistor("RL", out, Circuit::GND, 1e3);
        let op = Session::new(&ckt).dc_operating_point().unwrap();
        assert!((op.voltage(out) - 2.0).abs() < 0.01, "closed switch passes");
    }
}
