//! Small-signal noise analysis (SPICE `.NOISE`).
//!
//! Computes the output-referred noise voltage density at a node, summing
//! the thermal noise of every resistor (`4kT/R` current PSD) and the
//! channel noise of every MOSFET (`4kT·γ·(gm+gds)` with the long-channel
//! `γ = 2/3`), each shaped by its own transfer function to the output.
//!
//! Rather than solving one AC system per noise source, the solver uses
//! the **adjoint (transpose) method**: one factorisation of `Aᵀ` per
//! frequency yields the transfer from a current injection at *every*
//! node pair to the output simultaneously — the standard trick in
//! production noise analysis.
//!
//! The classic validation is the RC low-pass: integrating the resistor's
//! filtered thermal noise over all frequencies gives `√(kT/C)`
//! independent of R — reproduced by this module's tests.

use crate::analysis::dcop::dc_operating_point_impl;
use crate::analysis::mna::MnaLayout;
use crate::analysis::plan::EngineSel;
use crate::analysis::solution::Solution;
use crate::complex::{Complex, ComplexMatrix};
use crate::elements::Element;
use crate::error::Error;
use crate::netlist::{Circuit, ElementId, NodeId};
use crate::telemetry::{Event, Probe};

/// Boltzmann constant × nominal temperature (300 K), in joules.
const KT: f64 = 1.380649e-23 * 300.0;
/// Long-channel MOSFET channel-noise factor.
const GAMMA: f64 = 2.0 / 3.0;

/// Result of a noise analysis.
#[derive(Debug, Clone)]
pub struct NoiseResult {
    frequencies: Vec<f64>,
    /// Output noise voltage density per frequency, V/√Hz.
    density: Vec<f64>,
    /// The node the analysis was referred to.
    output: NodeId,
}

impl NoiseResult {
    /// The analysed frequencies in hertz.
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// Output noise voltage density in V/√Hz at each frequency.
    pub fn density(&self) -> &[f64] {
        &self.density
    }

    /// Total RMS output noise, integrating the density over the analysed
    /// band with the trapezoidal rule (in linear frequency).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two frequencies were analysed.
    pub fn integrated_rms(&self) -> f64 {
        assert!(self.frequencies.len() >= 2, "need a band to integrate");
        let mut power = 0.0;
        for i in 1..self.frequencies.len() {
            let df = self.frequencies[i] - self.frequencies[i - 1];
            let p0 = self.density[i - 1] * self.density[i - 1];
            let p1 = self.density[i] * self.density[i];
            power += 0.5 * (p0 + p1) * df;
        }
        power.sqrt()
    }
}

impl Solution for NoiseResult {
    /// Output noise voltage density across the sweep, V/√Hz.
    type Voltage = Vec<f64>;
    /// Noise analysis keeps no branch currents; always an error.
    type Current = Vec<f64>;

    /// The noise density, available only at the analysed output node.
    fn voltage(&self, node: NodeId) -> Result<Vec<f64>, Error> {
        if node == self.output {
            Ok(self.density.clone())
        } else {
            Err(Error::UnknownProbe {
                what: format!(
                    "noise density of {node} (analysis referred to {})",
                    self.output
                ),
            })
        }
    }

    fn branch_current(&self, element: ElementId) -> Result<Vec<f64>, Error> {
        Err(Error::UnknownProbe {
            what: format!("branch current of {element} in a noise analysis"),
        })
    }
}

pub(crate) fn noise_analysis_impl(
    circuit: &Circuit,
    output: NodeId,
    frequencies: &[f64],
    sel: EngineSel,
    mut probe: Probe<'_>,
) -> Result<NoiseResult, Error> {
    assert!(!output.is_ground(), "noise at ground is identically zero");
    crate::lint::preflight(circuit, "noise", crate::lint::LintContext::Dc)?;
    probe.emit(Event::AnalysisStart { analysis: "noise" });
    let op = dc_operating_point_impl(circuit, sel, probe.reborrow())?;
    let layout = MnaLayout::new(circuit);
    let n = layout.size();

    // Collect noise current sources: (node a, node b, current PSD A²/Hz),
    // current injected between the element's terminals.
    let mut sources: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for (_, _, e) in circuit.elements() {
        match e {
            Element::Resistor { a, b, ohms } => {
                sources.push((*a, *b, 4.0 * KT / ohms));
            }
            Element::Mosfet { d, s, g, params } => {
                let pt = params.evaluate(op.voltage(*d), op.voltage(*g), op.voltage(*s));
                // Conservative long-channel channel noise: 4kTγ(gm + gds).
                let g_noise = (pt.gdg.abs() + pt.gdd.abs()) * GAMMA;
                if g_noise > 0.0 {
                    sources.push((*d, *s, 4.0 * KT * g_noise));
                }
            }
            _ => {}
        }
    }

    let mut density = Vec::with_capacity(frequencies.len());
    for &freq in frequencies {
        let omega = 2.0 * std::f64::consts::PI * freq;
        // Build the AC matrix (no stimulus) and transpose it for the
        // adjoint solve.
        let mut mat = ComplexMatrix::zeros(n);
        let mut dummy_rhs = vec![Complex::ZERO; n];
        super::ac::stamp_ac_matrix(circuit, &layout, &op, omega, &mut mat, &mut dummy_rhs);
        let mut at = ComplexMatrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                at.add(r, c, mat.get(c, r));
            }
        }
        // Adjoint excitation: unit at the output row.
        let mut y = vec![Complex::ZERO; n];
        let out_row = layout.node_row(output).expect("output checked non-ground");
        y[out_row] = Complex::ONE;
        at.solve_in_place(&mut y)?;

        // Sum contributions: |y_a − y_b|² · S_i.
        let y_at = |node: NodeId| -> Complex {
            match layout.node_row(node) {
                None => Complex::ZERO,
                Some(r) => y[r],
            }
        };
        let mut psd = 0.0;
        for &(a, b, s_i) in &sources {
            let h = y_at(a) - y_at(b);
            psd += h.norm_sqr() * s_i;
        }
        density.push(psd.sqrt());
    }

    probe.emit(Event::AnalysisEnd { analysis: "noise" });
    Ok(NoiseResult {
        frequencies: frequencies.to_vec(),
        density,
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::sweep::logspace;
    use crate::waveform::Waveform;

    /// The kT/C law: an RC low-pass's integrated output noise is
    /// √(kT/C), independent of the resistor value.
    #[test]
    fn ktc_noise_of_rc_lowpass() {
        for r in [1e3, 100e3] {
            let c = 1e-12;
            let mut ckt = Circuit::new();
            let vin = ckt.node("in");
            let out = ckt.node("out");
            ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(0.0));
            ckt.resistor("R1", vin, out, r);
            ckt.capacitor("C1", out, Circuit::GND, c);
            // Band: 4 decades below fc to 4 above captures ~all power.
            let fc = 1.0 / (2.0 * std::f64::consts::PI * r * c);
            let freqs = logspace(fc / 1e4, fc * 1e4, 400);
            let result = Session::new(&ckt).noise(out, &freqs).unwrap();
            let expect = (KT / c).sqrt(); // ≈ 64.4 µV at 300 K, 1 pF
            let got = result.integrated_rms();
            assert!(
                (got / expect - 1.0).abs() < 0.02,
                "R = {r}: {got:.3e} vs kT/C {expect:.3e}"
            );
        }
    }

    /// Density at low frequency equals the resistor's open √(4kTR).
    #[test]
    fn flatband_density_is_4ktr() {
        let r = 10e3;
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(0.0));
        ckt.resistor("R1", vin, out, r);
        ckt.capacitor("C1", out, Circuit::GND, 1e-12);
        let result = Session::new(&ckt).noise(out, &[1.0]).unwrap();
        let expect = (4.0 * KT * r).sqrt(); // ≈ 12.9 nV/√Hz for 10 kΩ
        let got = result.density()[0];
        assert!(
            (got / expect - 1.0).abs() < 1e-6,
            "{got:.3e} vs {expect:.3e}"
        );
    }

    /// Two parallel resistors make exactly the noise of their parallel
    /// equivalent (noise adds as power, conductance adds linearly).
    #[test]
    fn parallel_resistors_equal_their_equivalent() {
        let run = |build: &dyn Fn(&mut Circuit, NodeId)| -> f64 {
            let mut ckt = Circuit::new();
            let out = ckt.node("out");
            build(&mut ckt, out);
            ckt.capacitor("C1", out, Circuit::GND, 1e-12);
            Session::new(&ckt).noise(out, &[1e3]).unwrap().density()[0]
        };
        let two = run(&|ckt, out| {
            ckt.resistor("R1", out, Circuit::GND, 2e3);
            ckt.resistor("R2", out, Circuit::GND, 2e3);
        });
        let one = run(&|ckt, out| {
            ckt.resistor("Req", out, Circuit::GND, 1e3);
        });
        assert!((two / one - 1.0).abs() < 1e-9, "{two:.3e} vs {one:.3e}");
    }

    /// MOSFET channel noise raises the output noise of a loaded amplifier
    /// above the load resistor's own contribution.
    #[test]
    fn mosfet_adds_channel_noise() {
        use crate::elements::MosParams;
        let build = |with_fet: bool| -> f64 {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let g = ckt.node("g");
            let out = ckt.node("out");
            ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
            ckt.vsource("VG", g, Circuit::GND, Waveform::dc(0.85));
            ckt.resistor("RL", vdd, out, 50e3);
            if with_fet {
                ckt.mosfet("M1", out, g, Circuit::GND, MosParams::nmos(2e-6, 1.2e-6));
            } else {
                // Same small-signal load without noise: nothing (output
                // held by RL only; add a big resistor to ground to keep
                // the node defined).
                ckt.resistor("Rbig", out, Circuit::GND, 50e6);
            }
            ckt.capacitor("CL", out, Circuit::GND, 1e-12);
            Session::new(&ckt).noise(out, &[1e3]).unwrap().density()[0]
        };
        let with_fet = build(true);
        let without = build(false);
        assert!(
            with_fet > 1.2 * without,
            "fet {with_fet:.3e} vs resistors only {without:.3e}"
        );
    }
}
