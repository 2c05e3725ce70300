//! AC (small-signal) analysis.
//!
//! Linearises the circuit around its DC operating point and solves the
//! complex phasor system at each requested frequency: capacitors become
//! `jωC`, inductors `jωL`, nonlinear devices their operating-point
//! conductances (`gm`, `gds`, diode `g`), and one designated voltage
//! source drives a unit AC stimulus while all other independent sources
//! are nulled (voltage sources shorted, current sources opened) — the
//! standard SPICE `.AC` semantics.

use crate::analysis::dcop::{dc_operating_point_impl, DcSolution};
use crate::analysis::mna::MnaLayout;
use crate::analysis::plan::EngineSel;
use crate::analysis::solution::Solution;
use crate::complex::{Complex, ComplexMatrix};
use crate::elements::Element;
use crate::error::Error;
use crate::netlist::{Circuit, ElementId, NodeId};
use crate::telemetry::{Event, Probe};

/// Result of an AC sweep: one complex phasor per node per frequency.
#[derive(Debug, Clone)]
pub struct AcResult {
    frequencies: Vec<f64>,
    /// `phasors[freq_idx][row]`, rows as in the MNA layout.
    phasors: Vec<Vec<Complex>>,
    n_nodes: usize,
    branch_of: Vec<Option<usize>>,
}

impl AcResult {
    /// The analysed frequencies in hertz.
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// Node voltage phasor at frequency index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` or the node is out of range.
    pub fn phasor(&self, node: NodeId, idx: usize) -> Complex {
        let n = node.index();
        assert!(n < self.n_nodes, "node {node} out of range");
        if n == 0 {
            Complex::ZERO
        } else {
            self.phasors[idx][n - 1]
        }
    }

    /// Transfer magnitude `|V(node)|` across the sweep (unit stimulus, so
    /// this is `|H|`).
    pub fn magnitude(&self, node: NodeId) -> Vec<f64> {
        (0..self.frequencies.len())
            .map(|i| self.phasor(node, i).abs())
            .collect()
    }

    /// Transfer magnitude in dB across the sweep.
    pub fn magnitude_db(&self, node: NodeId) -> Vec<f64> {
        (0..self.frequencies.len())
            .map(|i| self.phasor(node, i).db())
            .collect()
    }

    /// Phase in degrees across the sweep.
    pub fn phase_deg(&self, node: NodeId) -> Vec<f64> {
        (0..self.frequencies.len())
            .map(|i| self.phasor(node, i).arg_deg())
            .collect()
    }
}

impl Solution for AcResult {
    /// Node-voltage phasor across the sweep.
    type Voltage = Vec<Complex>;
    /// Branch-current phasor across the sweep.
    type Current = Vec<Complex>;

    fn voltage(&self, node: NodeId) -> Result<Vec<Complex>, Error> {
        if node.index() >= self.n_nodes {
            return Err(Error::UnknownProbe {
                what: format!("voltage of {node}"),
            });
        }
        Ok((0..self.frequencies.len())
            .map(|i| self.phasor(node, i))
            .collect())
    }

    fn branch_current(&self, element: ElementId) -> Result<Vec<Complex>, Error> {
        match self.branch_of.get(element.index()).copied().flatten() {
            Some(b) => Ok(self
                .phasors
                .iter()
                .map(|row| row[self.n_nodes - 1 + b])
                .collect()),
            None => Err(Error::UnknownProbe {
                what: format!("branch current of {element}"),
            }),
        }
    }
}

pub(crate) fn ac_analysis_impl(
    circuit: &Circuit,
    source: ElementId,
    frequencies: &[f64],
    sel: EngineSel,
    mut probe: Probe<'_>,
) -> Result<AcResult, Error> {
    crate::lint::preflight(circuit, "ac", crate::lint::LintContext::Dc)?;
    if !matches!(circuit.element(source), Element::VoltageSource { .. }) {
        return Err(Error::InvalidParameter {
            element: circuit.element_name(source).to_owned(),
            reason: "AC stimulus must be a voltage source".into(),
        });
    }
    probe.emit(Event::AnalysisStart { analysis: "ac" });
    let op = dc_operating_point_impl(circuit, sel, probe.reborrow())?;
    let layout = MnaLayout::new(circuit);
    let n = layout.size();

    let mut phasors = Vec::with_capacity(frequencies.len());
    let mut mat = ComplexMatrix::zeros(n);
    for &freq in frequencies {
        let omega = 2.0 * std::f64::consts::PI * freq;
        mat.clear();
        let mut rhs = vec![Complex::ZERO; n];
        stamp_ac(
            circuit,
            &layout,
            &op,
            Some(source),
            omega,
            &mut mat,
            &mut rhs,
        );
        mat.solve_in_place(&mut rhs)?;
        phasors.push(rhs);
    }
    probe.emit(Event::AnalysisEnd { analysis: "ac" });
    Ok(AcResult {
        frequencies: frequencies.to_vec(),
        phasors,
        n_nodes: circuit.node_count(),
        branch_of: layout.branch_of.clone(),
    })
}

/// Stamps the AC-linearised system with every independent source nulled
/// (voltage sources shorted, current sources opened). Shared with the
/// noise analysis, which supplies its own excitation via the adjoint.
pub(crate) fn stamp_ac_matrix(
    ckt: &Circuit,
    layout: &MnaLayout,
    op: &DcSolution,
    omega: f64,
    mat: &mut ComplexMatrix,
    rhs: &mut [Complex],
) {
    stamp_ac(ckt, layout, op, None, omega, mat, rhs);
}

fn stamp_ac(
    ckt: &Circuit,
    layout: &MnaLayout,
    op: &DcSolution,
    source: Option<ElementId>,
    omega: f64,
    mat: &mut ComplexMatrix,
    rhs: &mut [Complex],
) {
    let row = |node: NodeId| layout.node_row(node);
    let stamp_g = |mat: &mut ComplexMatrix, a: NodeId, b: NodeId, g: Complex| {
        if let Some(ra) = row(a) {
            mat.add(ra, ra, g);
            if let Some(rb) = row(b) {
                mat.add(ra, rb, -g);
            }
        }
        if let Some(rb) = row(b) {
            mat.add(rb, rb, g);
            if let Some(ra) = row(a) {
                mat.add(rb, ra, -g);
            }
        }
    };

    for (idx, (id, _, elem)) in ckt.elements().enumerate() {
        match elem {
            Element::Resistor { a, b, ohms } => {
                stamp_g(mat, *a, *b, Complex::real(1.0 / ohms));
            }
            Element::Capacitor { a, b, farads, .. } => {
                stamp_g(mat, *a, *b, Complex::imag(omega * farads));
            }
            Element::Inductor { a, b, henries, .. } => {
                let br = layout.branch_row(layout.branch_of[idx].expect("inductor branch"));
                if let Some(ra) = row(*a) {
                    mat.add(ra, br, Complex::ONE);
                    mat.add(br, ra, Complex::ONE);
                }
                if let Some(rb) = row(*b) {
                    mat.add(rb, br, -Complex::ONE);
                    mat.add(br, rb, -Complex::ONE);
                }
                // v(a) − v(b) − jωL·i = 0.
                mat.add(br, br, Complex::imag(-omega * henries));
            }
            Element::VoltageSource { pos, neg, .. } => {
                let br = layout.branch_row(layout.branch_of[idx].expect("vsource branch"));
                if let Some(rp) = row(*pos) {
                    mat.add(rp, br, Complex::ONE);
                    mat.add(br, rp, Complex::ONE);
                }
                if let Some(rn) = row(*neg) {
                    mat.add(rn, br, -Complex::ONE);
                    mat.add(br, rn, -Complex::ONE);
                }
                rhs[br] = if Some(id) == source {
                    Complex::ONE
                } else {
                    Complex::ZERO // AC-nulled: ideal short
                };
            }
            Element::CurrentSource { .. } => {
                // AC-nulled: open circuit — no stamp.
            }
            Element::Mosfet { d, g, s, params } => {
                let vd = op.voltage(*d);
                let vg = op.voltage(*g);
                let vs = op.voltage(*s);
                let pt = params.evaluate(vd, vg, vs);
                // Small-signal: i_d = gdd·v_d + gdg·v_g + gds·v_s.
                let rd = row(*d);
                let rg = row(*g);
                let rs = row(*s);
                if let Some(rd) = rd {
                    mat.add(rd, rd, Complex::real(pt.gdd));
                    if let Some(rg) = rg {
                        mat.add(rd, rg, Complex::real(pt.gdg));
                    }
                    if let Some(rs) = rs {
                        mat.add(rd, rs, Complex::real(pt.gds_node));
                    }
                }
                if let Some(rs_row) = rs {
                    if let Some(rd) = rd {
                        mat.add(rs_row, rd, Complex::real(-pt.gdd));
                    }
                    if let Some(rg) = rg {
                        mat.add(rs_row, rg, Complex::real(-pt.gdg));
                    }
                    mat.add(rs_row, rs_row, Complex::real(-pt.gds_node));
                }
                stamp_g(mat, *d, *s, Complex::real(1e-12)); // gmin
            }
            Element::Switch {
                a,
                b,
                ctrl_pos,
                ctrl_neg,
                threshold,
                r_on,
                r_off,
            } => {
                let vc = op.voltage(*ctrl_pos) - op.voltage(*ctrl_neg);
                let g = if vc > *threshold {
                    1.0 / r_on
                } else {
                    1.0 / r_off
                };
                stamp_g(mat, *a, *b, Complex::real(g));
            }
            Element::Diode { a, k, i_sat, n } => {
                let v = op.voltage(*a) - op.voltage(*k);
                let nvt = n * 0.025852;
                let g = i_sat / nvt * (v / nvt).min(40.0).exp();
                stamp_g(mat, *a, *k, Complex::real(g + 1e-12));
            }
            Element::Vcvs { p, n, cp, cn, gain } => {
                let br = layout.branch_row(layout.branch_of[idx].expect("vcvs branch"));
                if let Some(rp) = row(*p) {
                    mat.add(rp, br, Complex::ONE);
                    mat.add(br, rp, Complex::ONE);
                }
                if let Some(rn) = row(*n) {
                    mat.add(rn, br, -Complex::ONE);
                    mat.add(br, rn, -Complex::ONE);
                }
                // v(p) − v(n) − gain·(v(cp) − v(cn)) = 0.
                if let Some(rcp) = row(*cp) {
                    mat.add(br, rcp, Complex::real(-gain));
                }
                if let Some(rcn) = row(*cn) {
                    mat.add(br, rcn, Complex::real(*gain));
                }
            }
            Element::Vccs {
                from,
                to,
                cp,
                cn,
                gm,
            } => {
                let rcp = row(*cp);
                let rcn = row(*cn);
                if let Some(rt) = row(*to) {
                    if let Some(rcp) = rcp {
                        mat.add(rt, rcp, Complex::real(-gm));
                    }
                    if let Some(rcn) = rcn {
                        mat.add(rt, rcn, Complex::real(*gm));
                    }
                }
                if let Some(rf) = row(*from) {
                    if let Some(rcp) = rcp {
                        mat.add(rf, rcp, Complex::real(*gm));
                    }
                    if let Some(rcn) = rcn {
                        mat.add(rf, rcn, Complex::real(-gm));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::MosParams;
    use crate::session::Session;
    use crate::sweep::logspace;
    use crate::waveform::Waveform;

    #[test]
    fn rc_lowpass_bode() {
        let r = 1e3;
        let c = 1e-9;
        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let src = ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(0.0));
        ckt.resistor("R1", vin, out, r);
        ckt.capacitor("C1", out, Circuit::GND, c);
        let ac = Session::new(&ckt)
            .ac(src, &[fc / 100.0, fc, fc * 100.0])
            .unwrap();
        let mag = ac.magnitude_db(out);
        let phase = ac.phase_deg(out);
        assert!(mag[0].abs() < 0.01, "passband flat: {} dB", mag[0]);
        assert!((mag[1] + 3.0103).abs() < 0.01, "corner: {} dB", mag[1]);
        assert!((mag[2] + 40.0).abs() < 0.1, "-20 dB/dec: {} dB", mag[2]);
        assert!((phase[1] + 45.0).abs() < 0.1, "corner phase {}", phase[1]);
    }

    #[test]
    fn rl_highpass() {
        // L to ground after a series R: V(out)/V(in) = jωL/(R + jωL).
        let r = 100.0;
        let l = 1e-3;
        let fc = r / (2.0 * std::f64::consts::PI * l);
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let src = ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(0.0));
        ckt.resistor("R1", vin, out, r);
        ckt.inductor("L1", out, Circuit::GND, l);
        let ac = Session::new(&ckt)
            .ac(src, &[fc / 100.0, fc, fc * 100.0])
            .unwrap();
        let mag = ac.magnitude_db(out);
        assert!((mag[0] + 40.0).abs() < 0.1, "stopband {} dB", mag[0]);
        assert!((mag[1] + 3.0103).abs() < 0.01, "corner {} dB", mag[1]);
        assert!(mag[2].abs() < 0.01, "passband {} dB", mag[2]);
    }

    #[test]
    fn rlc_series_resonance_peak() {
        // Voltage across C in a series RLC peaks near f0 by the quality
        // factor Q = (1/R)·√(L/C).
        let r = 10.0f64;
        let l = 1e-6f64;
        let c = 1e-9f64;
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l * c).sqrt());
        let q = (l / c).sqrt() / r;
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        let out = ckt.node("out");
        let src = ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(0.0));
        ckt.resistor("R1", vin, mid, r);
        ckt.inductor("L1", mid, out, l);
        ckt.capacitor("C1", out, Circuit::GND, c);
        let ac = Session::new(&ckt).ac(src, &[f0]).unwrap();
        let gain = ac.magnitude(out)[0];
        assert!((gain - q).abs() / q < 0.01, "peak {gain} vs Q {q}");
    }

    #[test]
    fn nmos_common_source_gain() {
        // Resistor-loaded common-source amp: |A| ≈ gm·(RL ∥ rds) at low
        // frequency, rolling off with the load capacitor.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("g");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
        // Bias for saturation: vov ≈ 0.4 V puts ~26 µA through the 50 kΩ
        // load, leaving vds ≈ 1.2 V > vov.
        let vbias = 0.85;
        let vg = ckt.vsource("VG", gate, Circuit::GND, Waveform::dc(vbias));
        let rl = 50e3;
        ckt.resistor("RL", vdd, out, rl);
        ckt.mosfet("M1", out, gate, Circuit::GND, MosParams::nmos(2e-6, 1.2e-6));
        ckt.capacitor("CL", out, Circuit::GND, 1e-12);

        // Predict gm and rds from the DC OP.
        let op = Session::new(&ckt).dc_operating_point().unwrap();
        let pt = MosParams::nmos(2e-6, 1.2e-6).evaluate(op.voltage(out), vbias, 0.0);
        let rds = 1.0 / pt.gdd.max(1e-12);
        let expect = pt.gdg * (rl * rds / (rl + rds));

        let ac = Session::new(&ckt).ac(vg, &[1e3]).unwrap();
        let gain = ac.magnitude(out)[0];
        assert!(
            (gain - expect).abs() / expect < 0.01,
            "gain {gain} vs predicted {expect}"
        );
        assert!(gain > 2.0, "should actually amplify, |A| = {gain}");
        // Phase inversion: output ~180° from input at low frequency.
        let ph = ac.phase_deg(out)[0].abs();
        assert!((ph - 180.0).abs() < 5.0, "phase {ph}");
    }

    #[test]
    fn transcoding_inverter_output_pole() {
        // The Fig. 2 inverter's output RC sets a pole near
        // 1/(2π(Rout+Ron)Cout) when driven in its linear region.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("g");
        let drv = ckt.node("drv");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
        let vg = ckt.vsource("VG", gate, Circuit::GND, Waveform::dc(1.1));
        ckt.mosfet("MP", drv, gate, vdd, MosParams::pmos(865e-9, 1.2e-6));
        ckt.mosfet(
            "MN",
            drv,
            gate,
            Circuit::GND,
            MosParams::nmos(320e-9, 1.2e-6),
        );
        ckt.resistor("Rout", drv, out, 100e3);
        ckt.capacitor("Cout", out, Circuit::GND, 1e-12);
        let freqs = logspace(1e3, 100e6, 11);
        let ac = Session::new(&ckt).ac(vg, &freqs).unwrap();
        let mag = ac.magnitude(out);
        // Monotone low-pass behaviour at the output node.
        for w in mag.windows(2) {
            assert!(w[1] <= w[0] * 1.001, "low-pass must roll off: {mag:?}");
        }
        // High-frequency magnitude strongly attenuated.
        assert!(mag[10] < mag[0] * 0.05);
    }

    #[test]
    fn stimulus_must_be_a_voltage_source() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        let r = ckt.resistor("R1", a, Circuit::GND, 1e3);
        assert!(matches!(
            Session::new(&ckt).ac(r, &[1e3]),
            Err(Error::InvalidParameter { .. })
        ));
    }

    #[test]
    fn other_sources_are_nulled() {
        // Two sources; stimulate one: the other contributes nothing.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let mid = ckt.node("mid");
        let s1 = ckt.vsource("V1", a, Circuit::GND, Waveform::dc(5.0));
        ckt.vsource("V2", b, Circuit::GND, Waveform::dc(3.0));
        ckt.resistor("R1", a, mid, 1e3);
        ckt.resistor("R2", b, mid, 1e3);
        let ac = Session::new(&ckt).ac(s1, &[1e3]).unwrap();
        // mid sees the divider of the unit stimulus: 0.5.
        assert!((ac.magnitude(mid)[0] - 0.5).abs() < 1e-9);
    }
}
