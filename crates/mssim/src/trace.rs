//! Waveform traces and measurements.
//!
//! A [`Trace`] is a borrowed view over a sampled signal `(t[i], v[i])`
//! produced by a transient analysis. All measurements integrate with the
//! trapezoidal rule over the (not necessarily uniform) time grid, matching
//! what a `.measure` statement would do in a SPICE deck.

/// Borrowed view of a sampled waveform.
#[derive(Debug, Clone, Copy)]
pub struct Trace<'a> {
    t: &'a [f64],
    v: &'a [f64],
}

impl<'a> Trace<'a> {
    /// Creates a trace over parallel time/value slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn new(t: &'a [f64], v: &'a [f64]) -> Self {
        assert_eq!(t.len(), v.len(), "time and value slices must match");
        Trace { t, v }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// `true` if the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// The sample times.
    pub fn times(&self) -> &'a [f64] {
        self.t
    }

    /// The sample values.
    pub fn values(&self) -> &'a [f64] {
        self.v
    }

    /// The final sample value.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn last_value(&self) -> f64 {
        *self.v.last().expect("trace is empty")
    }

    /// Start and end times of the trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn span(&self) -> (f64, f64) {
        (self.t[0], *self.t.last().expect("trace is empty"))
    }

    /// Value at time `time` by linear interpolation, clamped at the ends.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn value_at(&self, time: f64) -> f64 {
        assert!(!self.is_empty(), "trace is empty");
        if time <= self.t[0] {
            return self.v[0];
        }
        if time >= *self.t.last().unwrap() {
            return *self.v.last().unwrap();
        }
        let idx = self.t.partition_point(|&ti| ti <= time);
        let (t0, v0) = (self.t[idx - 1], self.v[idx - 1]);
        let (t1, v1) = (self.t[idx], self.v[idx]);
        if t1 == t0 {
            v0
        } else {
            v0 + (v1 - v0) * (time - t0) / (t1 - t0)
        }
    }

    /// Minimum sample value.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn min(&self) -> f64 {
        self.v.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample value.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn max(&self) -> f64 {
        self.v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Trapezoidal time-average over the whole trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace has fewer than two samples.
    pub fn average(&self) -> f64 {
        let (t0, t1) = self.span();
        self.average_between(t0, t1)
    }

    /// Trapezoidal time-average over `[from, to]`, interpolating at the
    /// window edges.
    ///
    /// # Panics
    ///
    /// Panics if the trace has fewer than two samples, if `from >= to`, or
    /// if the window lies outside the trace span.
    pub fn average_between(&self, from: f64, to: f64) -> f64 {
        self.integrate_between(from, to) / (to - from)
    }

    /// Trapezoidal integral of the signal over `[from, to]`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Trace::average_between`].
    pub fn integrate_between(&self, from: f64, to: f64) -> f64 {
        assert!(self.len() >= 2, "need at least two samples");
        assert!(from < to, "window must have positive width");
        let (start, end) = self.span();
        assert!(
            from >= start - 1e-18 && to <= end + 1e-18,
            "window [{from}, {to}] outside trace span [{start}, {end}]"
        );
        let mut sum = 0.0;
        let mut prev_t = from;
        let mut prev_v = self.value_at(from);
        let i0 = self.t.partition_point(|&ti| ti <= from);
        for i in i0..self.t.len() {
            let (ti, vi) = (self.t[i], self.v[i]);
            if ti >= to {
                break;
            }
            sum += 0.5 * (prev_v + vi) * (ti - prev_t);
            prev_t = ti;
            prev_v = vi;
        }
        let v_end = self.value_at(to);
        sum += 0.5 * (prev_v + v_end) * (to - prev_t);
        sum
    }

    /// Peak-to-peak excursion over `[from, to]`.
    ///
    /// # Panics
    ///
    /// Panics if the window contains no samples.
    pub fn ripple_between(&self, from: f64, to: f64) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (&ti, &vi) in self.t.iter().zip(self.v) {
            if ti >= from && ti <= to {
                lo = lo.min(vi);
                hi = hi.max(vi);
            }
        }
        assert!(lo <= hi, "window [{from}, {to}] contains no samples");
        hi - lo
    }

    /// Average over the last `cycles` whole periods of a periodic signal —
    /// the standard way to measure a PWM-averaged voltage free of both the
    /// start-up transient and partial-cycle bias.
    ///
    /// # Panics
    ///
    /// Panics if `period` or `cycles` is zero, or if the trace is shorter
    /// than the requested window.
    pub fn steady_state_average(&self, period: f64, cycles: usize) -> f64 {
        assert!(period > 0.0, "period must be positive");
        assert!(cycles > 0, "need at least one cycle");
        let (start, end) = self.span();
        let window = period * cycles as f64;
        assert!(
            end - start >= window,
            "trace span {} shorter than measurement window {window}",
            end - start
        );
        self.average_between(end - window, end)
    }

    /// Fraction of `[from, to]` the signal spends above `threshold` — the
    /// duty cycle of a (possibly analog) waveform, measured exactly with
    /// linear interpolation at the threshold crossings.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Trace::average_between`].
    pub fn duty_cycle_between(&self, threshold: f64, from: f64, to: f64) -> f64 {
        assert!(self.len() >= 2, "need at least two samples");
        assert!(from < to, "window must have positive width");
        let mut high_time = 0.0;
        let mut prev_t = from;
        let mut prev_v = self.value_at(from);
        let i0 = self.t.partition_point(|&ti| ti <= from);
        let segment = |t0: f64, v0: f64, t1: f64, v1: f64| {
            let dt = t1 - t0;
            if dt <= 0.0 {
                return 0.0;
            }
            match (v0 > threshold, v1 > threshold) {
                (true, true) => dt,
                (false, false) => 0.0,
                (hi0, _) => {
                    // One crossing inside the segment.
                    let frac = (threshold - v0) / (v1 - v0);
                    if hi0 {
                        dt * frac
                    } else {
                        dt * (1.0 - frac)
                    }
                }
            }
        };
        for i in i0..self.t.len() {
            let (ti, vi) = (self.t[i], self.v[i]);
            if ti >= to {
                break;
            }
            high_time += segment(prev_t, prev_v, ti, vi);
            prev_t = ti;
            prev_v = vi;
        }
        let v_end = self.value_at(to);
        high_time += segment(prev_t, prev_v, to, v_end);
        high_time / (to - from)
    }
}

/// Owned waveform data, convertible to a [`Trace`] view — used for derived
/// signals such as instantaneous power.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// Sample times in seconds.
    pub t: Vec<f64>,
    /// Sample values.
    pub v: Vec<f64>,
}

impl TraceData {
    /// Creates owned trace data.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    pub fn new(t: Vec<f64>, v: Vec<f64>) -> Self {
        assert_eq!(t.len(), v.len(), "time and value vectors must match");
        TraceData { t, v }
    }

    /// Borrowed measurement view.
    pub fn as_trace(&self) -> Trace<'_> {
        Trace::new(&self.t, &self.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> (Vec<f64>, Vec<f64>) {
        let t: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let v: Vec<f64> = t.iter().map(|&x| 2.0 * x).collect();
        (t, v)
    }

    #[test]
    fn interpolation() {
        let (t, v) = ramp();
        let tr = Trace::new(&t, &v);
        assert_eq!(tr.value_at(2.5), 5.0);
        assert_eq!(tr.value_at(-1.0), 0.0); // clamp left
        assert_eq!(tr.value_at(99.0), 20.0); // clamp right
        assert_eq!(tr.last_value(), 20.0);
        assert_eq!(tr.len(), 11);
        assert!(!tr.is_empty());
    }

    #[test]
    fn average_of_ramp() {
        let (t, v) = ramp();
        let tr = Trace::new(&t, &v);
        assert!((tr.average() - 10.0).abs() < 1e-12);
        assert!((tr.average_between(0.0, 5.0) - 5.0).abs() < 1e-12);
        // Window not aligned to samples.
        assert!((tr.average_between(1.5, 2.5) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn integral_of_constant() {
        let t = vec![0.0, 1.0, 2.0];
        let v = vec![3.0, 3.0, 3.0];
        let tr = Trace::new(&t, &v);
        assert!((tr.integrate_between(0.0, 2.0) - 6.0).abs() < 1e-12);
        assert!((tr.integrate_between(0.25, 0.75) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn min_max_ripple() {
        let t = vec![0.0, 1.0, 2.0, 3.0];
        let v = vec![1.0, 3.0, 0.5, 2.0];
        let tr = Trace::new(&t, &v);
        assert_eq!(tr.min(), 0.5);
        assert_eq!(tr.max(), 3.0);
        assert_eq!(tr.ripple_between(0.0, 3.0), 2.5);
        assert_eq!(tr.ripple_between(0.5, 1.5), 0.0);
    }

    #[test]
    fn steady_state_average_ignores_startup() {
        // Signal: 0 for t<5, then square wave period 1 between 1 and 3.
        let mut t = Vec::new();
        let mut v = Vec::new();
        let dt = 0.005;
        let mut time = 0.0;
        while time <= 10.0 {
            let val = if time < 5.0 {
                0.0
            } else if (time % 1.0) < 0.5 {
                1.0
            } else {
                3.0
            };
            t.push(time);
            v.push(val);
            time += dt;
        }
        let tr = Trace::new(&t, &v);
        let avg = tr.steady_state_average(1.0, 4);
        assert!((avg - 2.0).abs() < 0.02, "avg = {avg}");
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_lengths_panic() {
        let t = vec![0.0, 1.0];
        let v = vec![0.0];
        let _ = Trace::new(&t, &v);
    }

    #[test]
    #[should_panic(expected = "outside trace span")]
    fn out_of_span_window_panics() {
        let (t, v) = ramp();
        let _ = Trace::new(&t, &v).average_between(5.0, 20.0);
    }

    #[test]
    fn trace_data_roundtrip() {
        let td = TraceData::new(vec![0.0, 1.0], vec![1.0, 2.0]);
        assert!((td.as_trace().average() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duty_cycle_of_square_wave() {
        // 30 % duty square wave sampled finely.
        let n = 3000;
        let t: Vec<f64> = (0..=n).map(|i| i as f64 / n as f64 * 3.0).collect();
        let v: Vec<f64> = t
            .iter()
            .map(|&x| if x % 1.0 < 0.3 { 1.0 } else { 0.0 })
            .collect();
        let tr = Trace::new(&t, &v);
        let d = tr.duty_cycle_between(0.5, 0.0, 3.0);
        assert!((d - 0.3).abs() < 2e-3, "duty = {d}");
    }

    #[test]
    fn duty_cycle_with_interpolated_crossings() {
        // Triangle from 0 to 1 and back: above 0.5 exactly half the time.
        let t = vec![0.0, 1.0, 2.0];
        let v = vec![0.0, 1.0, 0.0];
        let tr = Trace::new(&t, &v);
        let d = tr.duty_cycle_between(0.5, 0.0, 2.0);
        assert!((d - 0.5).abs() < 1e-12, "duty = {d}");
        // Threshold at 0.25: above it 75 % of the time.
        let d = tr.duty_cycle_between(0.25, 0.0, 2.0);
        assert!((d - 0.75).abs() < 1e-12, "duty = {d}");
    }

    #[test]
    fn duty_cycle_of_constant_signals() {
        let t = vec![0.0, 1.0];
        let hi = vec![2.0, 2.0];
        let lo = vec![0.1, 0.1];
        assert_eq!(Trace::new(&t, &hi).duty_cycle_between(1.0, 0.0, 1.0), 1.0);
        assert_eq!(Trace::new(&t, &lo).duty_cycle_between(1.0, 0.0, 1.0), 0.0);
    }
}
