//! DC sweep analysis: the static transfer curve.
//!
//! Repeats the DC operating-point solve while stepping one voltage
//! source through a range — the `.DC` analysis of SPICE. Used for
//! voltage-transfer curves (e.g. the static characteristic of the
//! transcoding inverter) and for locating switching thresholds.

use crate::analysis::dcop::{solve_dc_seeded, DcSolution};
use crate::analysis::mna::MnaLayout;
use crate::analysis::plan::{EngineSel, PlanMode, SolverEngine};
use crate::analysis::solution::Solution;
use crate::elements::Element;
use crate::error::Error;
use crate::netlist::{Circuit, ElementId, NodeId};
use crate::telemetry::{Event, Probe};
use crate::waveform::Waveform;

/// Result of a DC sweep: one full operating point per sweep value.
#[derive(Debug, Clone)]
pub struct DcSweepResult {
    values: Vec<f64>,
    solutions: Vec<DcSolution>,
}

impl DcSweepResult {
    /// The swept source values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The operating point at sweep index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn solution(&self, idx: usize) -> &DcSolution {
        &self.solutions[idx]
    }

    /// Transfer curve of one node: `(sweep value, node voltage)` pairs.
    pub fn transfer(&self, node: NodeId) -> Vec<(f64, f64)> {
        self.values
            .iter()
            .zip(&self.solutions)
            .map(|(&v, s)| (v, s.voltage(node)))
            .collect()
    }

    /// First sweep value at which `node` crosses `level` (linear
    /// interpolation between sweep points), or `None`.
    pub fn crossing(&self, node: NodeId, level: f64) -> Option<f64> {
        let curve = self.transfer(node);
        for pair in curve.windows(2) {
            let (x0, y0) = pair[0];
            let (x1, y1) = pair[1];
            if (y0 - level) * (y1 - level) <= 0.0 && y0 != y1 {
                return Some(x0 + (x1 - x0) * (level - y0) / (y1 - y0));
            }
        }
        None
    }
}

impl Solution for DcSweepResult {
    /// Node voltage at each sweep point, in volts.
    type Voltage = Vec<f64>;
    /// Branch current at each sweep point, in amperes.
    type Current = Vec<f64>;

    fn voltage(&self, node: NodeId) -> Result<Vec<f64>, Error> {
        self.solutions
            .iter()
            .map(|s| Solution::voltage(s, node))
            .collect()
    }

    fn branch_current(&self, element: ElementId) -> Result<Vec<f64>, Error> {
        self.solutions
            .iter()
            .map(|s| s.branch_current(element))
            .collect()
    }
}

/// [`Session::dc_sweep`](crate::Session::dc_sweep) on the naive
/// per-iteration assembler, bypassing the compiled stamp plan. Kept for
/// golden-equivalence tests and as the benchmark baseline; not part of the
/// supported API.
///
/// # Errors
///
/// Same conditions as [`Session::dc_sweep`](crate::Session::dc_sweep).
#[doc(hidden)]
pub fn dc_sweep_reference(
    circuit: Circuit,
    source: ElementId,
    values: &[f64],
) -> Result<DcSweepResult, Error> {
    crate::session::Session::new(&circuit)
        .with_reference_solver(true)
        .dc_sweep(source, values)
}

pub(crate) fn dc_sweep_impl(
    mut circuit: Circuit,
    source: ElementId,
    values: &[f64],
    mut sel: EngineSel,
    mut probe: Probe<'_>,
) -> Result<DcSweepResult, Error> {
    // The latency bands shrink well below the transient defaults here: a
    // sweep point is a *converged equilibrium* whose full frozen-device
    // error lands directly in the reported curve, with no subsequent step
    // to damp it, so the sweep trades back most of the latency for
    // accuracy. The sparse replay factorization still carries the speed.
    if let crate::analysis::plan::DeviceEval::Limited(ref mut lopts) = sel.eval {
        lopts.latency_reltol = 5e-3;
        lopts.latency_abstol = 2.5e-4;
    }
    crate::lint::preflight(&circuit, "dc-sweep", crate::lint::LintContext::Dc)?;
    if !matches!(circuit.element(source), Element::VoltageSource { .. }) {
        return Err(Error::InvalidParameter {
            element: circuit.element_name(source).to_owned(),
            reason: "DC sweep target must be a voltage source".into(),
        });
    }
    // One layout and one engine for the whole sweep: the stamp plan reads
    // source waveforms live at each solve, so `set_waveform` between points
    // (the only mutation here) needs no recompilation, and the plan's
    // factorization cache carries across points whose Jacobian repeats.
    let layout = MnaLayout::new(&circuit);
    let mut engine = SolverEngine::new(&circuit, &layout, PlanMode::Dc, sel);
    probe.emit(Event::AnalysisStart {
        analysis: "dc-sweep",
    });
    let mut solutions = Vec::with_capacity(values.len());
    // Warm start: each point's Newton seeds from the previous accepted
    // solution (standard SPICE sweep continuation). Both engines benefit;
    // the plan engine additionally keeps its device anchors and
    // factorization caches valid across points this way.
    let mut warm = vec![0.0; layout.size()];
    for &v in values {
        circuit
            .set_waveform(source, Waveform::dc(v))
            .expect("checked: element is a source");
        let point = solve_dc_seeded(&circuit, &layout, &mut engine, &mut warm, &mut probe);
        match point {
            Ok(sol) => solutions.push(sol),
            Err(e) => {
                probe.report(&engine, "dc-sweep");
                return Err(e);
            }
        }
    }
    probe.report(&engine, "dc-sweep");
    probe.emit(Event::AnalysisEnd {
        analysis: "dc-sweep",
    });
    Ok(DcSweepResult {
        values: values.to_vec(),
        solutions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::MosParams;
    use crate::session::Session;
    use crate::sweep::linspace;

    #[test]
    fn divider_sweep_is_linear() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let src = ckt.vsource("V1", a, Circuit::GND, Waveform::dc(0.0));
        ckt.resistor("R1", a, b, 1e3);
        ckt.resistor("R2", b, Circuit::GND, 1e3);
        let sweep = Session::new(&ckt)
            .dc_sweep(src, &linspace(0.0, 4.0, 5))
            .unwrap();
        for (vin, vout) in sweep.transfer(b) {
            assert!((vout - vin / 2.0).abs() < 1e-9);
        }
        assert_eq!(sweep.values(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn inverter_vtc_has_a_steep_transition() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
        let vg = ckt.vsource("VG", g, Circuit::GND, Waveform::dc(0.0));
        ckt.mosfet("MP", out, g, vdd, MosParams::pmos(865e-9, 1.2e-6));
        ckt.mosfet("MN", out, g, Circuit::GND, MosParams::nmos(320e-9, 1.2e-6));
        ckt.resistor("RL", out, Circuit::GND, 10e6);
        let sweep = Session::new(&ckt)
            .dc_sweep(vg, &linspace(0.0, 2.5, 101))
            .unwrap();
        let curve = sweep.transfer(out);
        // Rails at the ends.
        assert!(curve[0].1 > 2.45);
        assert!(curve[100].1 < 0.05);
        // Monotone non-increasing.
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-6);
        }
        // Switching threshold near the analytic V_M ≈ 1.27 V.
        let vm = sweep.crossing(out, 1.25).expect("crosses mid-rail");
        assert!((vm - 1.27).abs() < 0.1, "V_M = {vm}");
        // Max gain well above 1 (it is an amplifier in transition).
        let gain = curve
            .windows(2)
            .map(|w| (w[1].1 - w[0].1).abs() / (w[1].0 - w[0].0))
            .fold(0.0f64, f64::max);
        assert!(gain > 5.0, "peak |dVout/dVin| = {gain}");
    }

    #[test]
    fn sweep_rejects_non_source_target() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        let r = ckt.resistor("R1", a, Circuit::GND, 1e3);
        assert!(matches!(
            Session::new(&ckt).dc_sweep(r, &[0.0, 1.0]),
            Err(Error::InvalidParameter { .. })
        ));
    }

    #[test]
    fn crossing_returns_none_when_never_crossed() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let src = ckt.vsource("V1", a, Circuit::GND, Waveform::dc(0.0));
        ckt.resistor("R1", a, b, 1e3);
        ckt.resistor("R2", b, Circuit::GND, 1e3);
        let sweep = Session::new(&ckt)
            .dc_sweep(src, &linspace(0.0, 1.0, 3))
            .unwrap();
        assert_eq!(sweep.crossing(b, 5.0), None);
    }
}
