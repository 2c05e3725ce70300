//! Technology parameters — the paper's Table I.
//!
//! | Parameter | Paper value |
//! |---|---|
//! | Supply voltage | Vdd = 2.5 V |
//! | Transistor widths | nwidth = 320 nm, pwidth = 865 nm |
//! | Transistor lengths | nlength = plength = 1.2 µm |
//! | Output capacitor (inverter) | Cout = 1 pF |
//! | Output capacitor (3×3 adder) | Cout = 10 pF |
//! | Output resistor | Rout ∈ {none, 5 kΩ, 100 kΩ}, default 100 kΩ |
//! | Input frequency | 500 MHz default, swept 1 MHz–1.5 GHz |
//!
//! The paper uses proprietary UMC 65 nm foundry models; here the devices
//! are level-1 square-law transistors (see [`mssim::elements::mosfet`])
//! with `kp` chosen so that the on-resistances of the N and P devices at
//! the paper's sizes are ≈ 9 kΩ at a 2.5 V gate drive — balanced pull-up /
//! pull-down, small against the 100 kΩ output resistor, comparable to the
//! 5 kΩ one, exactly the regime the paper's Fig. 4 explores.

use mssim::prelude::{MosParams, Ohms, Volts};
use mssim::units::{Farads, Hertz, Seconds};

/// Process + operating-point parameters shared by all cells.
///
/// Fields are public on purpose: this is passive configuration data that
/// experiments sweep freely.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Nominal supply voltage.
    pub vdd: Volts,
    /// Base (×1 cell) NMOS device.
    pub nmos: MosParams,
    /// Base (×1 cell) PMOS device.
    pub pmos: MosParams,
    /// Output capacitor of the single transcoding inverter (Fig. 2).
    pub cout_inverter: Farads,
    /// Output capacitor of the weighted adder (Fig. 3 experiments).
    pub cout_adder: Farads,
    /// Base (×1 / least-significant-bit cell) output resistor.
    pub rout: Ohms,
    /// Default PWM input frequency.
    pub frequency: Hertz,
    /// Parasitic node capacitance (junction + local wiring) added at each
    /// gate output node of a ×1 cell; scales with drive strength. This is
    /// what makes switching power grow with frequency (Fig. 8).
    pub cnode: Farads,
    /// Physical rise/fall time of the PWM drivers. Fixed (not a fraction
    /// of the period), so the crowbar fraction of each cycle — and hence
    /// the short-circuit power — grows with frequency.
    pub edge_time: Seconds,
}

impl Technology {
    /// The paper's Table I configuration.
    pub fn umc65_like() -> Self {
        Technology {
            vdd: Volts(2.5),
            nmos: MosParams::nmos(320e-9, 1.2e-6),
            pmos: MosParams::pmos(865e-9, 1.2e-6),
            cout_inverter: Farads(1e-12),
            cout_adder: Farads(10e-12),
            rout: Ohms(100e3),
            frequency: Hertz(500e6),
            cnode: Farads(2e-15),
            edge_time: Seconds(100e-12),
        }
    }

    /// Fraction of a PWM period spent in each (fixed-duration) edge at a
    /// given frequency, clamped to stay a valid trapezoid.
    pub fn edge_fraction(&self, frequency: Hertz) -> f64 {
        (self.edge_time.value() * frequency.value()).clamp(1e-6, 0.3)
    }

    /// The technology re-evaluated at an ambient temperature (°C).
    ///
    /// First-order silicon temperature effects relative to the 27 °C
    /// nominal: threshold voltage drops ~2 mV/K, and carrier mobility —
    /// hence `kp` — falls as `(T/T₀)^−1.5` in kelvin. Micro-edge sensing
    /// nodes see wide ambient swings, so the robustness experiments sweep
    /// this (see `repro`'s temperature ablation).
    ///
    /// # Panics
    ///
    /// Panics if `celsius` is outside the military range `−55..=125`.
    pub fn at_temperature(&self, celsius: f64) -> Self {
        assert!(
            (-55.0..=125.0).contains(&celsius),
            "temperature must be within -55..=125 °C"
        );
        const T0_K: f64 = 300.15; // 27 °C nominal
        const DVTH_DT: f64 = -2e-3; // V/K
        let t_k = celsius + 273.15;
        let mobility = (t_k / T0_K).powf(-1.5);
        let dvth = DVTH_DT * (t_k - T0_K);
        let mut t = self.clone();
        t.nmos = t
            .nmos
            .with_vth0((t.nmos.vth0 + dvth).max(0.05))
            .with_kp(t.nmos.kp * mobility);
        t.pmos = t
            .pmos
            .with_vth0((t.pmos.vth0 + dvth).max(0.05))
            .with_kp(t.pmos.kp * mobility);
        t
    }

    /// Returns a copy with a different supply voltage.
    pub fn with_vdd(mut self, vdd: Volts) -> Self {
        self.vdd = vdd;
        self
    }

    /// Returns a copy with a different base output resistor.
    pub fn with_rout(mut self, rout: Ohms) -> Self {
        self.rout = rout;
        self
    }

    /// Returns a copy with a different default input frequency.
    pub fn with_frequency(mut self, frequency: Hertz) -> Self {
        self.frequency = frequency;
        self
    }

    /// NMOS on-resistance at the nominal gate drive.
    pub fn ron_n(&self) -> Ohms {
        Ohms(self.nmos.r_on(self.vdd.value()))
    }

    /// PMOS on-resistance at the nominal gate drive.
    pub fn ron_p(&self) -> Ohms {
        Ohms(self.pmos.r_on(self.vdd.value()))
    }
}

impl Default for Technology {
    fn default() -> Self {
        Self::umc65_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_fraction_scaling() {
        let t = Technology::umc65_like();
        // 100 ps edges: 5 % of a 2 ns period, 0.01 % of a 1 µs period.
        assert!((t.edge_fraction(Hertz(500e6)) - 0.05).abs() < 1e-12);
        assert!((t.edge_fraction(Hertz(1e6)) - 1e-4).abs() < 1e-12);
        // Clamped at extreme frequency.
        assert!(t.edge_fraction(Hertz(10e9)) <= 0.3);
    }

    #[test]
    fn paper_table_one_values() {
        let t = Technology::umc65_like();
        assert_eq!(t.vdd, Volts(2.5));
        assert_eq!(t.nmos.w, 320e-9);
        assert_eq!(t.pmos.w, 865e-9);
        assert_eq!(t.nmos.l, 1.2e-6);
        assert_eq!(t.pmos.l, 1.2e-6);
        assert_eq!(t.cout_inverter, Farads(1e-12));
        assert_eq!(t.cout_adder, Farads(10e-12));
        assert_eq!(t.rout, Ohms(100e3));
        assert_eq!(t.frequency, Hertz(500e6));
    }

    #[test]
    fn on_resistances_are_balanced_and_small_vs_rout() {
        let t = Technology::umc65_like();
        let rn = t.ron_n().value();
        let rp = t.ron_p().value();
        assert!((rn / rp - 1.0).abs() < 0.15, "rn={rn} rp={rp}");
        // Ron ≪ 100 kΩ (linear regime), comparable to 5 kΩ (nonlinear).
        assert!(rn < 0.15 * t.rout.value());
        assert!(rn > 0.5 * 5e3);
    }

    #[test]
    fn builder_methods() {
        let t = Technology::umc65_like()
            .with_vdd(Volts(1.0))
            .with_rout(Ohms(5e3))
            .with_frequency(Hertz(1e6));
        assert_eq!(t.vdd, Volts(1.0));
        assert_eq!(t.rout, Ohms(5e3));
        assert_eq!(t.frequency, Hertz(1e6));
    }

    #[test]
    fn default_is_paper_config() {
        assert_eq!(Technology::default(), Technology::umc65_like());
    }

    #[test]
    fn temperature_scaling_directions() {
        let nom = Technology::umc65_like();
        let hot = nom.at_temperature(85.0);
        let cold = nom.at_temperature(-40.0);
        // Hot: lower threshold, lower mobility.
        assert!(hot.nmos.vth0 < nom.nmos.vth0);
        assert!(hot.nmos.kp < nom.nmos.kp);
        // Cold: the opposite.
        assert!(cold.nmos.vth0 > nom.nmos.vth0);
        assert!(cold.nmos.kp > nom.nmos.kp);
        // 27 °C is the identity.
        let same = nom.at_temperature(27.0);
        assert!((same.nmos.vth0 - nom.nmos.vth0).abs() < 1e-12);
        assert!((same.nmos.kp - nom.nmos.kp).abs() < 1e-12);
        // Magnitudes: ~116 mV threshold shift at +85 °C.
        assert!((nom.nmos.vth0 - hot.nmos.vth0 - 0.116).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "-55..=125")]
    fn absurd_temperature_panics() {
        let _ = Technology::umc65_like().at_temperature(400.0);
    }
}
