//! Time-domain source waveforms.
//!
//! A [`Waveform`] describes the value of an independent source as a function
//! of time. The pulse waveform follows the SPICE `PULSE` convention and has
//! a convenience constructor [`Waveform::pwm`] for the duty-cycle-coded
//! signals that carry information in the PWM perceptron.

/// Value of an independent source over time.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Periodic trapezoidal pulse (SPICE `PULSE` semantics).
    Pulse(Pulse),
    /// Piecewise-linear interpolation through `(time, value)` points;
    /// constant extrapolation outside the point range.
    Pwl(Vec<(f64, f64)>),
    /// Sinusoid `offset + amplitude * sin(2π f (t - delay))` for `t >= delay`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Peak amplitude.
        amplitude: f64,
        /// Frequency in hertz.
        frequency: f64,
        /// Start delay in seconds.
        delay: f64,
    },
}

/// Periodic trapezoidal pulse parameters (SPICE `PULSE` semantics).
///
/// One period starting at `t = delay` consists of: `rise` seconds ramping
/// from `low` to `high`, `width` seconds at `high`, `fall` seconds ramping
/// back to `low`, and the remainder of `period` at `low`. Before `delay`
/// the value is `low`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pulse {
    /// Initial / low value.
    pub low: f64,
    /// Pulsed / high value.
    pub high: f64,
    /// Delay before the first rising edge, seconds.
    pub delay: f64,
    /// Rise time, seconds.
    pub rise: f64,
    /// Fall time, seconds.
    pub fall: f64,
    /// Time at the high value, seconds.
    pub width: f64,
    /// Repetition period, seconds.
    pub period: f64,
}

impl Pulse {
    /// Instantaneous value at time `t`.
    pub fn value(&self, t: f64) -> f64 {
        if t < self.delay || self.period <= 0.0 {
            return self.low;
        }
        let tp = (t - self.delay) % self.period;
        if tp < self.rise {
            let frac = if self.rise > 0.0 { tp / self.rise } else { 1.0 };
            self.low + (self.high - self.low) * frac
        } else if tp < self.rise + self.width {
            self.high
        } else if tp < self.rise + self.width + self.fall {
            let frac = if self.fall > 0.0 {
                (tp - self.rise - self.width) / self.fall
            } else {
                1.0
            };
            self.high + (self.low - self.high) * frac
        } else {
            self.low
        }
    }

    /// Fraction of each period spent high, counting half of each edge.
    pub fn duty_cycle(&self) -> f64 {
        if self.period <= 0.0 {
            return 0.0;
        }
        (self.width + 0.5 * (self.rise + self.fall)) / self.period
    }
}

/// Deterministic jitter description for [`Waveform::pwm_with_jitter`].
///
/// All randomness derives from `seed` through a SplitMix64 stream, so two
/// waveforms built from equal specs are bitwise identical — campaigns
/// stay reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct Jitter {
    /// Seed of the per-edge offset stream.
    pub seed: u64,
    /// Peak edge displacement as a fraction of the period: each edge
    /// moves by an independent uniform offset in `±edge_jitter` periods.
    pub edge_jitter: f64,
    /// Probability (0..=1) that a period's duty cycle glitches.
    pub glitch_probability: f64,
    /// Signed duty shift applied on a glitched period (result clamped to
    /// `0..=1`).
    pub glitch_duty: f64,
    /// Number of PWM periods materialised; the line parks low afterwards.
    pub periods: usize,
}

impl Jitter {
    /// Pure edge jitter (no glitches) over `periods` periods.
    pub fn edges(seed: u64, edge_jitter: f64, periods: usize) -> Self {
        Jitter {
            seed,
            edge_jitter,
            glitch_probability: 0.0,
            glitch_duty: 0.0,
            periods,
        }
    }
}

/// SplitMix64 step returning a uniform sample in `[0, 1)`.
fn splitmix_uniform(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl Waveform {
    /// Constant waveform.
    pub fn dc(value: f64) -> Self {
        Waveform::Dc(value)
    }

    /// PWM clock: a 0→`amplitude` pulse train at `frequency` hertz with the
    /// given `duty` cycle (0..=1) and edge times of 1 % of the period.
    ///
    /// The effective duty cycle (time-average of the waveform divided by the
    /// amplitude) equals `duty` exactly because the flat-top width is
    /// shortened to compensate for the trapezoidal edges. Duty cycles that
    /// would make the flat top negative are clamped so the waveform stays
    /// well formed.
    ///
    /// # Panics
    ///
    /// Panics if `frequency <= 0`, `amplitude < 0`, or `duty` is outside
    /// `0.0..=1.0`.
    pub fn pwm(amplitude: f64, frequency: f64, duty: f64) -> Self {
        Self::pwm_with_edges(amplitude, frequency, duty, 0.01)
    }

    /// PWM clock with edge (rise = fall) times expressed as a fraction of
    /// the period.
    ///
    /// # Panics
    ///
    /// Panics on out-of-domain arguments (see [`Waveform::pwm`]) or if
    /// `edge_fraction` is not in `0.0..0.5`.
    pub fn pwm_with_edges(amplitude: f64, frequency: f64, duty: f64, edge_fraction: f64) -> Self {
        assert!(frequency > 0.0, "pwm frequency must be positive");
        assert!(amplitude >= 0.0, "pwm amplitude must be non-negative");
        assert!((0.0..=1.0).contains(&duty), "duty cycle must be in 0..=1");
        assert!(
            (0.0..0.5).contains(&edge_fraction),
            "edge fraction must be in 0..0.5"
        );
        // A 0 % or 100 % duty cycle is no pulse train at all: a real
        // generator parks the line at the rail.
        if duty == 0.0 {
            return Waveform::Dc(0.0);
        }
        if duty == 1.0 {
            return Waveform::Dc(amplitude);
        }
        let period = 1.0 / frequency;
        let edge = edge_fraction * period;
        // width chosen so that width + (rise+fall)/2 = duty * period
        let width = (duty * period - edge).clamp(0.0, period - 2.0 * edge);
        Waveform::Pulse(Pulse {
            low: 0.0,
            high: amplitude,
            delay: 0.0,
            rise: edge,
            fall: edge,
            width,
            period,
        })
    }

    /// PWM clock with deterministic per-edge timing jitter and optional
    /// duty glitches, materialised as a piecewise-linear waveform.
    ///
    /// Each rising and falling edge of each period is displaced by an
    /// independent uniform offset in `±jitter.edge_jitter` periods, drawn
    /// from a SplitMix64 stream seeded with `jitter.seed` — the same seed
    /// always produces the bitwise-identical waveform. A period may
    /// additionally *glitch*: with probability `jitter.glitch_probability`
    /// its duty cycle is shifted by `jitter.glitch_duty`. Because the
    /// edge offsets are symmetric and independent, the mean duty cycle
    /// over many periods is preserved (up to the glitch contribution).
    ///
    /// The waveform is finite: `jitter.periods` periods are emitted and
    /// the line parks low afterwards (PWL constant extrapolation).
    ///
    /// # Panics
    ///
    /// Panics on out-of-domain arguments (see [`Waveform::pwm`]), if
    /// `edge_fraction` is not in `0.0..0.5` (strictly positive: a PWL
    /// edge cannot be vertical), or on an invalid [`Jitter`] (negative
    /// fields, `edge_jitter >= 0.25`, probability outside `0..=1`, or
    /// zero periods).
    pub fn pwm_with_jitter(
        amplitude: f64,
        frequency: f64,
        duty: f64,
        edge_fraction: f64,
        jitter: &Jitter,
    ) -> Self {
        assert!(frequency > 0.0, "pwm frequency must be positive");
        assert!(amplitude >= 0.0, "pwm amplitude must be non-negative");
        assert!((0.0..=1.0).contains(&duty), "duty cycle must be in 0..=1");
        assert!(
            edge_fraction > 0.0 && edge_fraction < 0.5,
            "edge fraction must be in 0.0..0.5 and nonzero for a jittered pwm"
        );
        assert!(
            (0.0..0.25).contains(&jitter.edge_jitter),
            "edge jitter must be in 0.0..0.25 periods"
        );
        assert!(
            (0.0..=1.0).contains(&jitter.glitch_probability),
            "glitch probability must be in 0..=1"
        );
        assert!(
            jitter.glitch_duty.is_finite(),
            "glitch duty shift must be finite"
        );
        assert!(jitter.periods > 0, "jittered pwm needs at least one period");

        let period = 1.0 / frequency;
        let edge = edge_fraction * period;
        // Minimum spacing keeping PWL times strictly increasing even when
        // jitter pushes edges together.
        let gap = period * 1e-9;
        let mut state = jitter.seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut points: Vec<(f64, f64)> = vec![(0.0, 0.0)];
        let push = |points: &mut Vec<(f64, f64)>, t: f64, v: f64| {
            let last_t = points.last().map_or(0.0, |p| p.0);
            points.push((t.max(last_t + gap), v));
        };
        for p in 0..jitter.periods {
            let t0 = p as f64 * period;
            let mut duty_p = duty;
            if jitter.glitch_probability > 0.0
                && splitmix_uniform(&mut state) < jitter.glitch_probability
            {
                duty_p = (duty + jitter.glitch_duty).clamp(0.0, 1.0);
            }
            let jr = (2.0 * splitmix_uniform(&mut state) - 1.0) * jitter.edge_jitter * period;
            let jf = (2.0 * splitmix_uniform(&mut state) - 1.0) * jitter.edge_jitter * period;
            // Nominal corners mirror `pwm_with_edges`: the flat top is
            // shortened so duty counts half of each edge.
            let width = (duty_p * period - edge).clamp(0.0, period - 2.0 * edge);
            if width <= 0.0 {
                continue; // period glitched to (near-)zero duty: stay low
            }
            let rise_start = t0 + jr;
            let fall_start = rise_start + edge + width + jf;
            push(&mut points, rise_start, 0.0);
            push(&mut points, rise_start + edge, amplitude);
            push(&mut points, fall_start, amplitude);
            push(&mut points, fall_start + edge, 0.0);
        }
        // Terminal point so the constant extrapolation parks the line low.
        let t_end = jitter.periods as f64 * period;
        push(&mut points, t_end, 0.0);
        Waveform::pwl(points)
    }

    /// Piecewise-linear waveform through the given `(time, value)` points.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or the times are not strictly increasing.
    pub fn pwl(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "pwl requires at least one point");
        for pair in points.windows(2) {
            assert!(
                pair[1].0 > pair[0].0,
                "pwl times must be strictly increasing"
            );
        }
        Waveform::Pwl(points)
    }

    /// Sinusoid `offset + amplitude·sin(2πf(t−delay))` for `t ≥ delay`.
    pub fn sine(offset: f64, amplitude: f64, frequency: f64) -> Self {
        Waveform::Sine {
            offset,
            amplitude,
            frequency,
            delay: 0.0,
        }
    }

    /// Instantaneous value at time `t` (seconds).
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse(p) => p.value(t),
            Waveform::Pwl(points) => pwl_value(points, t),
            Waveform::Sine {
                offset,
                amplitude,
                frequency,
                delay,
            } => {
                if t < *delay {
                    *offset
                } else {
                    offset
                        + amplitude * (2.0 * std::f64::consts::PI * frequency * (t - delay)).sin()
                }
            }
        }
    }

    /// Value at `t = 0`, used as the DC operating-point drive.
    pub fn initial_value(&self) -> f64 {
        self.value(0.0)
    }

    /// Repetition period, if the waveform is periodic.
    pub fn period(&self) -> Option<f64> {
        match self {
            Waveform::Pulse(p) if p.period > 0.0 => Some(p.period),
            Waveform::Sine { frequency, .. } if *frequency > 0.0 => Some(1.0 / frequency),
            _ => None,
        }
    }
}

impl Default for Waveform {
    fn default() -> Self {
        Waveform::Dc(0.0)
    }
}

impl From<f64> for Waveform {
    fn from(value: f64) -> Self {
        Waveform::Dc(value)
    }
}

fn pwl_value(points: &[(f64, f64)], t: f64) -> f64 {
    match points {
        [] => 0.0,
        [only] => only.1,
        _ => {
            if t <= points[0].0 {
                return points[0].1;
            }
            if t >= points[points.len() - 1].0 {
                return points[points.len() - 1].1;
            }
            let idx = points.partition_point(|&(pt, _)| pt <= t);
            let (t0, v0) = points[idx - 1];
            let (t1, v1) = points[idx];
            v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::dc(2.5);
        assert_eq!(w.value(0.0), 2.5);
        assert_eq!(w.value(1.0), 2.5);
        assert_eq!(w.period(), None);
    }

    #[test]
    fn pwm_levels_and_period() {
        let w = Waveform::pwm(2.5, 500e6, 0.5);
        let period = w.period().expect("pwm is periodic");
        assert!((period - 2e-9).abs() < 1e-18);
        // Middle of the high phase.
        assert!((w.value(0.5e-9) - 2.5).abs() < 1e-12);
        // Low phase.
        assert!(w.value(1.8e-9).abs() < 1e-12);
    }

    #[test]
    fn pwm_effective_duty_matches_request() {
        for &duty in &[0.1, 0.25, 0.5, 0.75, 0.9] {
            let w = Waveform::pwm(1.0, 1e6, duty);
            if let Waveform::Pulse(p) = &w {
                assert!(
                    (p.duty_cycle() - duty).abs() < 1e-12,
                    "duty {duty} produced {}",
                    p.duty_cycle()
                );
            } else {
                panic!("pwm should be a pulse");
            }
        }
    }

    #[test]
    fn pwm_numerical_average_matches_duty() {
        let duty = 0.3;
        let w = Waveform::pwm(2.0, 1e6, duty);
        let period = w.period().unwrap();
        let n = 100_000;
        let mut sum = 0.0;
        for i in 0..n {
            let t = period * (i as f64 + 0.5) / n as f64;
            sum += w.value(t);
        }
        let avg = sum / n as f64;
        assert!(
            (avg - 2.0 * duty).abs() < 1e-3,
            "average {avg} vs expected {}",
            2.0 * duty
        );
    }

    #[test]
    fn pwm_extreme_duty_cycles_are_well_formed() {
        let w0 = Waveform::pwm(1.0, 1e6, 0.0);
        let w1 = Waveform::pwm(1.0, 1e6, 1.0);
        // Duty 0: almost always low; duty 1: flat top fills the period
        // minus edges.
        assert!(w0.value(0.5e-6) < 0.6); // middle of period
        assert!(w1.value(0.5e-6) > 0.99);
    }

    #[test]
    fn pulse_edges_are_linear() {
        let p = Pulse {
            low: 0.0,
            high: 1.0,
            delay: 0.0,
            rise: 0.2,
            fall: 0.2,
            width: 0.3,
            period: 1.0,
        };
        assert!((p.value(0.1) - 0.5).abs() < 1e-12); // mid-rise
        assert!((p.value(0.3) - 1.0).abs() < 1e-12); // top
        assert!((p.value(0.6) - 0.5).abs() < 1e-12); // mid-fall
        assert!(p.value(0.9).abs() < 1e-12); // low tail
        assert!((p.value(1.1) - 0.5).abs() < 1e-12); // periodic repeat
    }

    #[test]
    fn pulse_respects_delay() {
        let p = Pulse {
            low: 0.0,
            high: 1.0,
            delay: 1.0,
            rise: 0.0,
            fall: 0.0,
            width: 0.5,
            period: 1.0,
        };
        assert_eq!(p.value(0.5), 0.0);
        assert_eq!(p.value(1.25), 1.0);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::pwl(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)]);
        assert_eq!(w.value(-1.0), 0.0);
        assert!((w.value(0.5) - 1.0).abs() < 1e-12);
        assert!((w.value(1.5) - 1.5).abs() < 1e-12);
        assert_eq!(w.value(5.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn pwl_rejects_unsorted_points() {
        let _ = Waveform::pwl(vec![(0.0, 0.0), (0.0, 1.0)]);
    }

    #[test]
    fn sine_value() {
        let w = Waveform::sine(1.0, 0.5, 1.0);
        assert!((w.value(0.25) - 1.5).abs() < 1e-12);
        assert!((w.value(0.75) - 0.5).abs() < 1e-12);
        assert_eq!(w.period(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "duty cycle must be in 0..=1")]
    fn pwm_rejects_bad_duty() {
        let _ = Waveform::pwm(1.0, 1e6, 1.5);
    }

    #[test]
    fn from_f64_is_dc() {
        let w: Waveform = 3.3.into();
        assert_eq!(w, Waveform::Dc(3.3));
    }

    /// Time-average of `w` over `[0, t_end]` on a fine uniform grid.
    fn grid_average(w: &Waveform, t_end: f64, n: usize) -> f64 {
        let mut sum = 0.0;
        for i in 0..n {
            let t = t_end * (i as f64 + 0.5) / n as f64;
            sum += w.value(t);
        }
        sum / n as f64
    }

    #[test]
    fn jittered_pwm_preserves_mean_duty() {
        let duty = 0.4;
        let periods = 200;
        let jit = Jitter::edges(42, 0.05, periods);
        let w = Waveform::pwm_with_jitter(1.0, 1e6, duty, 0.01, &jit);
        let avg = grid_average(&w, periods as f64 * 1e-6, 400_000);
        // Symmetric independent edge offsets cancel in the mean; the
        // residual is sampling noise plus the O(1/periods) edge effects.
        assert!(
            (avg - duty).abs() < 0.01,
            "mean duty {avg} drifted from {duty}"
        );
    }

    #[test]
    fn jittered_pwm_is_deterministic() {
        let jit = Jitter::edges(7, 0.03, 32);
        let a = Waveform::pwm_with_jitter(2.5, 500e6, 0.5, 0.01, &jit);
        let b = Waveform::pwm_with_jitter(2.5, 500e6, 0.5, 0.01, &jit);
        assert_eq!(a, b, "same seed must give the bitwise-identical pwl");
        let other = Jitter::edges(8, 0.03, 32);
        let c = Waveform::pwm_with_jitter(2.5, 500e6, 0.5, 0.01, &other);
        assert_ne!(a, c, "different seeds should move the edges");
    }

    #[test]
    fn jittered_pwm_edges_actually_move() {
        let jit = Jitter::edges(3, 0.1, 16);
        let w = Waveform::pwm_with_jitter(1.0, 1e6, 0.5, 0.01, &jit);
        let clean = Waveform::pwm_with_jitter(1.0, 1e6, 0.5, 0.01, &Jitter::edges(3, 0.0, 16));
        assert_ne!(w, clean);
        // Still a well-formed pwl: strictly increasing breakpoints.
        let Waveform::Pwl(points) = &w else {
            panic!("jittered pwm must be pwl")
        };
        for pair in points.windows(2) {
            assert!(pair[1].0 > pair[0].0);
        }
    }

    #[test]
    fn duty_glitches_shift_the_average() {
        let base = Jitter::edges(11, 0.0, 100);
        let glitchy = Jitter {
            glitch_probability: 1.0,
            glitch_duty: -0.2,
            ..base.clone()
        };
        let w_base = Waveform::pwm_with_jitter(1.0, 1e6, 0.5, 0.01, &base);
        let w_glitch = Waveform::pwm_with_jitter(1.0, 1e6, 0.5, 0.01, &glitchy);
        let t_end = 100.0 * 1e-6;
        let a0 = grid_average(&w_base, t_end, 200_000);
        let a1 = grid_average(&w_glitch, t_end, 200_000);
        assert!(
            (a0 - a1 - 0.2).abs() < 0.01,
            "every-period glitch of -0.2 duty should drop the average by 0.2 (got {a0} vs {a1})"
        );
    }

    #[test]
    fn jittered_pwm_parks_low_after_last_period() {
        let jit = Jitter::edges(1, 0.02, 4);
        let w = Waveform::pwm_with_jitter(1.0, 1e6, 0.5, 0.01, &jit);
        assert_eq!(w.value(10e-6), 0.0);
    }

    #[test]
    #[should_panic(expected = "edge jitter must be in 0.0..0.25")]
    fn jittered_pwm_rejects_wild_jitter() {
        let _ = Waveform::pwm_with_jitter(1.0, 1e6, 0.5, 0.01, &Jitter::edges(0, 0.4, 8));
    }
}
