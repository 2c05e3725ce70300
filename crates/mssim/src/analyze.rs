//! Numeric abstract interpretation of compiled stamp plans and static
//! fault collapsing.
//!
//! [`crate::verify`] proves *structural* properties of a compiled
//! `StampPlan` — every op lands in bounds, the sparsity pattern is
//! solvable, the cache identity is complete. This module adds the
//! *numeric* layer: it re-executes the same flat op program over
//! **intervals** instead of floats, with every device parameter widened
//! to a declared [`Ranges`] envelope (component tolerance, supply droop
//! window, a [`Fault`]'s perturbation), and derives facts that hold for
//! *every* concrete circuit inside the envelope:
//!
//! * **MS030** `guaranteed-singular-pivot` — a node-row diagonal whose
//!   interval is exactly `[0, 0]` (singular for every parameter choice)
//!   or straddles zero (sign-indefinite: the pivot can vanish somewhere
//!   inside the declared range).
//! * **MS031** `non-finite-stamp-range` — a matrix or rhs entry whose
//!   interval reaches NaN/∞ or magnitudes beyond ~1e300, so a concrete
//!   assembly inside the range can overflow.
//! * **MS032** `catastrophic-cancellation` — an entry accumulated from
//!   contributions whose summed magnitudes dwarf the residual interval
//!   by more than twelve decades, so most of the addends' precision is
//!   lost to cancellation.
//! * **MS033** `interval-ill-conditioned` — a Varah-style condition
//!   bound on the node-conductance block, computed from the interval
//!   endpoints, exceeds the same ~1e12 span MS022 flags heuristically;
//!   unlike MS022 this is a numeric certificate valid over the whole
//!   declared range (and is skipped when the block is not strictly
//!   diagonally dominant, where the bound does not apply).
//!
//! # Soundness
//!
//! Interval endpoints are computed with ordinary `f64` arithmetic in the
//! *same per-entry accumulation order* as the concrete assembler replays
//! its ops. Because IEEE-754 addition, multiplication and division are
//! monotone in each operand, every concretely assembled stamp value lies
//! inside the abstract interval whenever the concrete parameters lie
//! inside the declared ranges (`tests/abstract_soundness.rs` checks this
//! property on random circuits), and widening a range can only widen the
//! resulting intervals. Dynamic companion history currents (`ieq`) are
//! bounded by a documented envelope — companion conductance times the
//! node-voltage window — rather than derived, so transient rhs intervals
//! are certificates *relative to that envelope*.
//!
//! # Static fault collapsing
//!
//! The second half of the module implements ATPG-style fault collapsing
//! for the campaign engine. [`plan_key`] serialises a circuit's compiled
//! DC and transient plans into a canonical identity in which a switch
//! whose both control terminals are literally ground is *statically
//! resolved*: its control voltage is exactly `0.0` at every Newton
//! iteration of every concrete solve, so only the resolved conductance —
//! not the dormant branch — enters the key. Two circuits with equal keys
//! replay bit-identical op programs against bit-identical waveforms and
//! initial conditions, so their transients are bitwise identical and one
//! simulation serves both. [`collapse_faults`] groups a fault universe by
//! key: faults indistinguishable from the golden netlist replicate the
//! golden verdict, equal-key faults share one representative transient.
//! Dominance (mutual containment of abstracted plans) degenerates to key
//! equality here on purpose: faults touching *different* element
//! positions change the per-entry float accumulation order, which the
//! bitwise reproducibility contract of the campaign engine must not
//! blur.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::{Add as _, Mul as _, Neg as _, Sub as _};

use crate::analysis::mna::{self, MnaLayout, NewtonOpts};
use crate::analysis::plan::{IterOp, MatOp, PlanMode, RhsOp, StampPlan, ValRef};
use crate::elements::{Element, MosParams};
use crate::faults::{Fault, LabeledFault};
use crate::linear::{DenseMatrix, LuFactors};
use crate::lint::{Diagnostic, LintCode, Severity};
use crate::netlist::{Circuit, ElementId, NodeId};
use crate::waveform::Waveform;

/// Magnitude beyond which a stamp entry is treated as overflow-prone
/// (MS031): one more multiplication by a modest factor reaches ±∞.
const OVERFLOW_LIMIT: f64 = 1e300;

/// Ratio of summed contribution magnitudes to residual magnitude above
/// which an accumulated entry has lost essentially all addend precision
/// to cancellation (MS032). Matches the ~12-decade span MS022/MS033 use.
const CANCELLATION_LIMIT: f64 = 1e12;

// ---------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------

/// A closed interval `[lo, hi]` of `f64` values.
///
/// Arithmetic uses plain `f64` endpoint operations; soundness of the
/// analyzer rests on the monotonicity of IEEE-754 `+`, `×` and `÷`, not
/// on outward rounding (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl Interval {
    /// The interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` (NaN endpoints are allowed and compare false,
    /// so they pass through; MS031 reports them).
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Greater),
            "interval endpoints out of order: [{lo}, {hi}]"
        );
        Interval { lo, hi }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The smallest interval containing both `a` and `b`.
    pub fn hull(a: f64, b: f64) -> Self {
        Interval {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// `true` if `x` lies inside the interval (false for NaN).
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// `true` if every point of `other` lies inside `self`.
    pub fn encloses(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Largest absolute endpoint value.
    pub fn mag(&self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// `true` if both endpoints are finite.
    pub fn is_finite(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Reciprocal of a strictly-positive interval (used to turn a
    /// resistance scale into a conductance scale).
    fn recip_positive(self) -> Interval {
        debug_assert!(self.lo > 0.0, "reciprocal needs a positive interval");
        Interval {
            lo: 1.0 / self.hi,
            hi: 1.0 / self.lo,
        }
    }

    /// Midpoint of the interval.
    pub fn mid(&self) -> f64 {
        0.5 * self.lo + 0.5 * self.hi
    }

    /// Width `hi − lo` of the interval.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Interval quotient `self / other`, or `None` when `other` contains
    /// zero (the quotient would be unbounded). Endpoint division is
    /// monotone like the other IEEE-754 operations, so the same
    /// soundness convention applies.
    pub fn checked_div(self, other: Interval) -> Option<Interval> {
        if other.lo <= 0.0 && 0.0 <= other.hi {
            return None;
        }
        Some(self.mul(Interval {
            lo: 1.0 / other.hi,
            hi: 1.0 / other.lo,
        }))
    }

    /// Intersection of two intervals, or `None` when they are disjoint.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }
}

/// Interval sum (exact endpoint addition).
impl std::ops::Add for Interval {
    type Output = Interval;

    fn add(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
    }
}

/// Interval product (min/max over the four endpoint products).
impl std::ops::Mul for Interval {
    type Output = Interval;

    fn mul(self, other: Interval) -> Interval {
        let p = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        Interval {
            lo: p.iter().copied().fold(f64::INFINITY, f64::min),
            hi: p.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Negated interval.
impl std::ops::Neg for Interval {
    type Output = Interval;

    fn neg(self) -> Interval {
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }
}

/// Interval difference (exact endpoint subtraction).
impl std::ops::Sub for Interval {
    type Output = Interval;

    fn sub(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo - other.hi,
            hi: self.hi - other.lo,
        }
    }
}

// ---------------------------------------------------------------------
// Declared parameter ranges
// ---------------------------------------------------------------------

/// Declared parameter envelope the abstract interpreter widens every
/// device over: a global relative tolerance, per-element multiplicative
/// overrides, a supply scale window (droop), a node-voltage window used
/// to bound nonlinear device transfer curves, and the admissible
/// transient timestep range for companion-conductance bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranges {
    tolerance: f64,
    overrides: Vec<(ElementId, Interval)>,
    supply_scale: Interval,
    voltage_window: Option<Interval>,
    dt: Interval,
}

impl Default for Ranges {
    /// Point ranges: no widening at all. The abstract assembly then
    /// reproduces the concrete one bitwise (up to source waveform hulls,
    /// which always span the full waveform excursion).
    fn default() -> Self {
        Ranges {
            tolerance: 0.0,
            overrides: Vec::new(),
            supply_scale: Interval::point(1.0),
            voltage_window: None,
            dt: Interval::new(1e-15, 1e-3),
        }
    }
}

impl Ranges {
    /// Point ranges (same as [`Default`]).
    pub fn point() -> Self {
        Ranges::default()
    }

    /// Sets the global relative component tolerance `t`: every parametric
    /// value `p` is widened to `p · [1−t, 1+t]` (conductances derived
    /// from resistances get the exact reciprocal window).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ t < 1`.
    pub fn with_tolerance(mut self, t: f64) -> Self {
        assert!((0.0..1.0).contains(&t), "tolerance must be in [0, 1)");
        self.tolerance = t;
        self
    }

    /// Overrides the multiplicative parameter window of one element:
    /// its parameter ranges over `p · [scale_lo, scale_hi]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale_lo ≤ scale_hi`.
    pub fn with_element_scale(mut self, id: ElementId, scale_lo: f64, scale_hi: f64) -> Self {
        assert!(
            scale_lo > 0.0 && scale_lo <= scale_hi,
            "element scale window must be positive and ordered"
        );
        if let Some(slot) = self.overrides.iter_mut().find(|(e, _)| *e == id) {
            slot.1 = Interval::new(scale_lo, scale_hi);
        } else {
            self.overrides.push((id, Interval::new(scale_lo, scale_hi)));
        }
        self
    }

    /// Sets the supply scale window (droop): every independent source
    /// value is multiplied by `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn with_supply_scale(mut self, lo: f64, hi: f64) -> Self {
        self.supply_scale = Interval::new(lo, hi);
        self
    }

    /// Sets the node-voltage window used to bound MOSFET/diode transfer
    /// curves and companion history currents. Without an explicit window
    /// one is derived from the source hulls (±(2·max source magnitude
    /// + 1) volts).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn with_voltage_window(mut self, lo: f64, hi: f64) -> Self {
        self.voltage_window = Some(Interval::new(lo, hi));
        self
    }

    /// Sets the admissible transient timestep range, which bounds
    /// capacitor/inductor companion conductances.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo ≤ hi`.
    pub fn with_dt(mut self, lo: f64, hi: f64) -> Self {
        assert!(lo > 0.0 && lo <= hi, "dt window must be positive");
        self.dt = Interval::new(lo, hi);
        self
    }

    /// Derives the widening a [`Fault`]'s perturbation declares against
    /// the `golden` netlist it targets: an envelope over the golden
    /// circuit's parameters that covers both the nominal and the faulted
    /// parameterisation.
    ///
    /// Every variant yields a non-point envelope for its affected
    /// element. Parametric faults (drift, droop, brownout, forced
    /// open/short/stuck resistances, PWM timing) get the exact
    /// multiplicative window between nominal and forced value;
    /// topology-adding faults (MOSFET shorts, capacitor leaks, net
    /// bridges), whose faulty netlist gains an element the golden plan
    /// lacks, get a conservative site-marking window instead — analysing
    /// them precisely still requires abstracting the *applied* faulty
    /// netlist.
    pub fn for_fault(fault: &Fault, golden: &Circuit) -> Self {
        use crate::faults::{OPEN_OHMS, SHORT_OHMS};
        let ranges = Ranges::default();
        // Multiplicative window spanning nominal (×1) and every listed
        // forced-over-nominal resistance factor.
        let hull1 = |factors: &[f64]| {
            let lo = factors.iter().fold(1.0f64, |a, &f| a.min(f)).max(1e-18);
            let hi = factors.iter().fold(1.0f64, |a, &f| a.max(f));
            (lo, hi.max(lo * (1.0 + 1e-9)))
        };
        match *fault {
            Fault::SwitchStuckOpen(id) => {
                let w = match golden.element(id) {
                    Element::Switch { r_on, r_off, .. } => {
                        hull1(&[OPEN_OHMS / r_on, OPEN_OHMS / r_off])
                    }
                    _ => (1.0, OPEN_OHMS),
                };
                ranges.with_element_scale(id, w.0, w.1)
            }
            Fault::SwitchStuckClosed(id) => {
                let w = match golden.element(id) {
                    Element::Switch { r_on, r_off, .. } => {
                        hull1(&[SHORT_OHMS / r_on, SHORT_OHMS / r_off])
                    }
                    _ => (SHORT_OHMS, 1.0),
                };
                ranges.with_element_scale(id, w.0, w.1)
            }
            // Stuck-open collapses W to 1e-9·W; the window spans the
            // starved and nominal channel.
            Fault::MosfetStuckOpen(id) => ranges.with_element_scale(id, 1e-9, 1.0),
            // Stuck-short adds a SHORT_OHMS drain–source bridge the
            // golden plan lacks; mark the site with a window covering
            // the added 1/SHORT_OHMS siemens of channel conductance.
            Fault::MosfetStuckShort(id) => ranges.with_element_scale(id, 1.0, 1.0 / SHORT_OHMS),
            Fault::ResistorOpen(id) => {
                let w = match golden.element(id) {
                    Element::Resistor { ohms, .. } => hull1(&[OPEN_OHMS / ohms]),
                    _ => (1.0, OPEN_OHMS),
                };
                ranges.with_element_scale(id, w.0, w.1)
            }
            Fault::ResistorShort(id) => {
                let w = match golden.element(id) {
                    Element::Resistor { ohms, .. } => hull1(&[SHORT_OHMS / ohms]),
                    _ => (SHORT_OHMS, 1.0),
                };
                ranges.with_element_scale(id, w.0, w.1)
            }
            Fault::ResistorDrift { id, factor } => {
                let w = hull1(&[factor]);
                ranges.with_element_scale(id, w.0, w.1)
            }
            // The leak path (conductance 1/ohms) is bounded relative to
            // the capacitor's companion conductance C/dt: their ratio is
            // dt/(R·C), largest at the slowest admissible timestep.
            Fault::CapacitorLeak { id, ohms } => {
                let hi = match golden.element(id) {
                    Element::Capacitor { farads, .. } => 1.0 + ranges.dt.hi / (farads * ohms),
                    _ => 1.0 + 1.0 / ohms,
                };
                ranges.with_element_scale(id, 1.0, hi.max(1.0 + 1e-9))
            }
            // A bridge perturbs every conductance incident on the
            // bridged nets by an amount with no usable relative bound;
            // the declared envelope widens the global tolerance to the
            // maximum the range language expresses, so every element at
            // the fault site (and elsewhere) is non-point.
            Fault::NetBridge { .. } => ranges.with_tolerance(0.999),
            Fault::SupplyDroop { factor, .. } => {
                let (lo, hi) = (factor.min(1.0), factor.max(1.0));
                ranges.with_supply_scale(lo, hi.max(lo + 1e-9))
            }
            Fault::SupplyBrownout { .. } => ranges.with_supply_scale(0.0, 1.0),
            // Timing faults perturb the pulse train's time-average; per
            // period the duty error is bounded by one edge displacement
            // per edge plus the glitch shift, expressed as a
            // multiplicative window on the source's hull.
            Fault::PwmJitter { id, ref jitter } => {
                let j = (2.0 * jitter.edge_jitter.abs() + jitter.glitch_duty.abs()).max(1e-6);
                ranges.with_element_scale(id, (1.0 - j).max(1e-6), 1.0 + j)
            }
            Fault::PwmDutyShift { id, delta } => {
                let j = delta.abs().max(1e-6);
                ranges.with_element_scale(id, (1.0 - j).max(1e-6), 1.0 + j)
            }
        }
    }

    /// Multiplicative parameter window of `id`: the override when one
    /// exists, else the global tolerance window `[1−t, 1+t]`.
    fn scale_of(&self, id: ElementId) -> Interval {
        self.scale_override(id).unwrap_or(Interval {
            lo: 1.0 - self.tolerance,
            hi: 1.0 + self.tolerance,
        })
    }

    /// The explicit per-element override of `id`, if any. Sources are
    /// widened only through this path (plus the supply window) — the
    /// global tolerance fallback is for device parameters, not source
    /// values.
    fn scale_override(&self, id: ElementId) -> Option<Interval> {
        self.overrides
            .iter()
            .find(|(e, _)| *e == id)
            .map(|&(_, s)| s)
    }

    /// Node-voltage window: the explicit one, or ±(2·max source hull
    /// magnitude + 1) derived from the circuit's sources.
    fn window_for(&self, ckt: &Circuit) -> Interval {
        if let Some(w) = self.voltage_window {
            return w;
        }
        let mut m = 0.0f64;
        for (_, _, elem) in ckt.elements() {
            if let Element::VoltageSource { waveform, .. }
            | Element::CurrentSource { waveform, .. } = elem
            {
                m = m.max(waveform_hull(waveform).mul(self.supply_scale).mag());
            }
        }
        let half = 2.0 * m + 1.0;
        Interval::new(-half, half)
    }
}

/// Hull of every value a waveform can take over all time.
fn waveform_hull(w: &Waveform) -> Interval {
    match w {
        Waveform::Dc(v) => Interval::point(*v),
        Waveform::Pulse(p) => Interval::hull(p.low, p.high),
        Waveform::Pwl(points) => {
            let mut iv = Interval::point(points.first().map_or(0.0, |&(_, v)| v));
            for &(_, v) in points {
                iv = Interval::new(iv.lo.min(v), iv.hi.max(v));
            }
            iv
        }
        Waveform::Sine {
            offset, amplitude, ..
        } => Interval::new(offset - amplitude.abs(), offset + amplitude.abs()),
    }
}

// ---------------------------------------------------------------------
// Abstract assembly
// ---------------------------------------------------------------------

/// The interval-valued MNA system produced by abstractly interpreting
/// one compiled stamp plan over a [`Ranges`] envelope, plus per-entry
/// accumulation statistics for the cancellation lint.
#[derive(Debug, Clone)]
pub struct AbstractStamp {
    n: usize,
    node_rows: usize,
    mat: Vec<Interval>,
    rhs: Vec<Interval>,
    /// Per matrix entry: (number of contributions, Σ contribution mags).
    mat_contrib: Vec<(u32, f64)>,
    /// Per rhs row: (number of contributions, Σ contribution mags).
    rhs_contrib: Vec<(u32, f64)>,
}

impl AbstractStamp {
    /// System size (node rows + branch rows).
    pub fn size(&self) -> usize {
        self.n
    }

    /// Number of node rows (the leading rows of the system).
    pub fn node_rows(&self) -> usize {
        self.node_rows
    }

    /// Abstract matrix entry at `(row, col)`.
    pub fn mat_interval(&self, row: usize, col: usize) -> Interval {
        self.mat[row * self.n + col]
    }

    /// Abstract right-hand-side entry at `row`.
    pub fn rhs_interval(&self, row: usize) -> Interval {
        self.rhs[row]
    }

    /// `true` if every entry of the concretely assembled `(mat, rhs)`
    /// (flat row-major matrix) lies inside its abstract interval.
    pub fn encloses_concrete(&self, mat: &[f64], rhs: &[f64]) -> bool {
        mat.len() == self.mat.len()
            && rhs.len() == self.rhs.len()
            && self.mat.iter().zip(mat).all(|(iv, &x)| iv.contains(x))
            && self.rhs.iter().zip(rhs).all(|(iv, &x)| iv.contains(x))
    }

    /// `true` if every abstract entry of `other` lies inside the
    /// corresponding entry of `self` (i.e. `self` is the wider system).
    pub fn encloses(&self, other: &AbstractStamp) -> bool {
        self.n == other.n
            && self.mat.iter().zip(&other.mat).all(|(a, b)| a.encloses(b))
            && self.rhs.iter().zip(&other.rhs).all(|(a, b)| a.encloses(b))
    }
}

/// Magnitude bounds of one MOSFET's linearised stamps over a voltage
/// window: `(g, i)` with `|gdd|, |gdg|, |gds_node| ≤ g` and the rhs
/// Norton current bounded by `i`.
fn mosfet_bounds(params: &MosParams, window: Interval, scale: Interval) -> (f64, f64) {
    // Any terminal difference is bounded by the window span.
    let v = window.hi - window.lo;
    let beta = params.beta() * scale.hi;
    let vth = params.vth0.abs() * scale.hi;
    let lambda = params.lambda.abs() * scale.hi;
    let vov = v + vth;
    let clm = 1.0 + lambda * v;
    let core = (vov * v).max(0.5 * vov * vov);
    let i_max = beta * core * clm;
    let gm = beta * v.max(vov) * clm;
    let gds = beta * (vov * clm + core * lambda);
    let g = gm + gds;
    // i_const = id − gdd·vd − gdg·vg − gds_node·vs.
    let i = i_max + 3.0 * g * window.mag();
    (g, i)
}

/// Magnitude bounds of one diode's stamps: `(g_max, i_max)` with the
/// small-signal conductance in `[0, g_max]` (before the solver's `gmin`
/// shunt) and the rhs Norton current bounded by `i_max`.
fn diode_bounds(i_sat: f64, nvt: f64, window: Interval, scale: Interval) -> (f64, f64) {
    let i_sat = i_sat * scale.hi;
    let e = mna::DIODE_EXP_MAX.exp();
    let g = i_sat * e / nvt;
    // Past the exp clamp the current continues linearly in vd.
    let i = i_sat * e + g * (window.hi - window.lo) + g * window.mag();
    (g, i)
}

/// Abstractly interprets `plan` over `ranges`, replaying every op in the
/// concrete assembler's per-entry accumulation order on intervals.
fn abstract_plan(ckt: &Circuit, plan: &StampPlan, ranges: &Ranges) -> AbstractStamp {
    let n = plan.n;
    let gmin = NewtonOpts::default().gmin;
    let window = ranges.window_for(ckt);
    let venv = window.mag();
    let mut stamp = AbstractStamp {
        n,
        node_rows: plan.node_rows,
        mat: vec![Interval::point(0.0); n * n],
        rhs: vec![Interval::point(0.0); n],
        mat_contrib: vec![(0, 0.0); n * n],
        rhs_contrib: vec![(0, 0.0); n],
    };

    // Parameter value of the element owning a companion slot.
    let elem_value = |seq: usize| match ckt.element(ElementId(seq)) {
        Element::Capacitor { farads, .. } => *farads,
        Element::Inductor { henries, .. } => *henries,
        _ => unreachable!("companion slot owned by a non-reactive element"),
    };
    let scale = |seq: usize| ranges.scale_of(ElementId(seq));

    // Hulls of the companion conductances over the dt window: the
    // integrators in use (backward Euler geq = C/dt, trapezoidal
    // geq = 2C/dt; duals for inductors) all fall inside [0, 2·p_hi/dt_lo]
    // for capacitors and [0, dt_hi/L_lo] for inductors.
    let cap_geq_hi = |seq: usize| 2.0 * elem_value(seq) * scale(seq).hi / ranges.dt.lo;
    let ind_geq_hi = |seq: usize| ranges.dt.hi / (elem_value(seq) * scale(seq).lo);

    // Abstract value of one base/rhs0/demoted ValRef, widened by the
    // originating element's declared range.
    let eval = |val: ValRef, seq: usize| -> Interval {
        match val {
            ValRef::Const(c) => match ckt.element(ElementId(seq)) {
                // Conductance entries: resistance scale s widens g = 1/R
                // to g · [1/s_hi, 1/s_lo].
                Element::Resistor { .. } => Interval::point(c).mul(scale(seq).recip_positive()),
                // Transconductance entries scale linearly.
                Element::Vccs { .. } => Interval::point(c).mul(scale(seq)),
                // Everything else (source/inductor/VCVS incidence and
                // VCVS gains) is treated as structural and exact.
                _ => Interval::point(c),
            },
            ValRef::Gmin { sign } => Interval::point(sign * gmin),
            ValRef::CapGeq { slot: _, sign } => {
                let hi = cap_geq_hi(seq);
                if sign > 0.0 {
                    Interval::new(0.0, hi)
                } else {
                    Interval::new(-hi, 0.0)
                }
            }
            ValRef::IndGeq { slot: _, sign } => {
                let hi = ind_geq_hi(seq);
                if sign > 0.0 {
                    Interval::new(0.0, hi)
                } else {
                    Interval::new(-hi, 0.0)
                }
            }
            // History currents: bounded by the documented envelope of
            // twice the companion conductance times the voltage window.
            ValRef::CapIeq { slot: _, .. } => {
                let m = 2.0 * cap_geq_hi(seq) * venv;
                Interval::new(-m, m)
            }
            ValRef::IndIeq { .. } => {
                let m = 2.0 * ind_geq_hi(seq) * venv;
                Interval::new(-m, m)
            }
            ValRef::Src { src, sign } => {
                let id = plan.sources[src];
                let w = match ckt.element(id) {
                    Element::VoltageSource { waveform, .. }
                    | Element::CurrentSource { waveform, .. } => waveform,
                    _ => unreachable!("source list points at a non-source"),
                };
                let hull = waveform_hull(w)
                    .mul(ranges.supply_scale)
                    .mul(Interval::point(sign));
                // Explicit per-source overrides (PWM timing-fault
                // envelopes) widen the hull; the global tolerance
                // fallback deliberately does not apply to sources.
                match ranges.scale_override(id) {
                    Some(s) => hull.mul(s),
                    None => hull,
                }
            }
        }
    };

    // --- matrix: base ops, then the per-iteration ops in op order -----
    let add_mat = |stamp: &mut AbstractStamp, idx: usize, iv: Interval| {
        stamp.mat[idx] = stamp.mat[idx].add(iv);
        let c = &mut stamp.mat_contrib[idx];
        c.0 += 1;
        c.1 += iv.mag();
    };
    for (op, &seq) in plan.base_ops.iter().zip(&plan.base_elems) {
        add_mat(&mut stamp, op.idx, eval(op.val, seq));
    }
    for (op, &seq) in plan.iter_ops.iter().zip(&plan.iter_elems) {
        match *op {
            IterOp::Mat(MatOp { idx, val }) => add_mat(&mut stamp, idx, eval(val, seq)),
            IterOp::Rhs(_) => {}
            IterOp::Mosfet { rd, rg, rs, params } => {
                let (g, _) = mosfet_bounds(&params, window, scale(seq));
                // gdd ∈ [0, g] and gds_node ∈ [−g, 0] by construction of
                // the model (channel derivatives are nonnegative), gdg
                // can take either sign in reverse mode.
                let gdd = Interval::new(0.0, g);
                let gdg = Interval::new(-g, g);
                let gds_node = Interval::new(-g, 0.0);
                // When the gate row coincides with the drain row
                // (diode-connected device) or the source row (an enable
                // gate wired to a rail), two concrete stamps land on the
                // same matrix slot — and their *sum* is sign-definite
                // even though `gdg` alone is not. From the model:
                //
                // * forward (vd ≥ vs): gdd = gds, gdg = gm,
                //   gds_node = −gm − gds;
                // * reverse (vd < vs): gdd = gm_r + gds_r, gdg = −gm_r,
                //   gds_node = −gds_r;
                //
                // so gdd + gdg ∈ {gds + gm, gds_r} ⊆ [0, g] and
                // −gdg − gds_node ∈ {gds, gm_r + gds_r} ⊆ [0, g] in both
                // modes. The coincident pair is fused into one abstract
                // add so the sign information survives; `FUSE_PAD` widens
                // the fused bound outward to cover the extra rounding of
                // the two sequential concrete additions it replaces
                // (single adds stay exact by monotonicity).
                const FUSE_PAD: f64 = 1.0 + 1e-12;
                let fused_pos = Interval::new(0.0, g * FUSE_PAD);
                let fused_neg = fused_pos.neg();
                let diode_connected = rd.is_some() && rg == rd && rs != rd;
                let gate_on_source = rs.is_some() && rg == rs && rd != rs;
                if let Some(rd) = rd {
                    if diode_connected {
                        // (d,d) += gdd then (d,g)=(d,d) += gdg, fused.
                        add_mat(&mut stamp, rd * n + rd, fused_pos);
                        if let Some(rs) = rs {
                            add_mat(&mut stamp, rd * n + rs, gds_node);
                        }
                    } else if gate_on_source {
                        add_mat(&mut stamp, rd * n + rd, gdd);
                        // (d,g)=(d,s) += gdg then (d,s) += gds_node:
                        // gdg + gds_node = −(−gdg − gds_node) ∈ [−g, 0].
                        add_mat(&mut stamp, rd * n + rs.unwrap(), fused_neg);
                    } else {
                        add_mat(&mut stamp, rd * n + rd, gdd);
                        if let Some(rg) = rg {
                            add_mat(&mut stamp, rd * n + rg, gdg);
                        }
                        if let Some(rs) = rs {
                            add_mat(&mut stamp, rd * n + rs, gds_node);
                        }
                    }
                }
                if let Some(rs_row) = rs {
                    if diode_connected {
                        // (s,d) += −gdd then (s,g)=(s,d) += −gdg, fused.
                        add_mat(&mut stamp, rs_row * n + rd.unwrap(), fused_neg);
                        add_mat(&mut stamp, rs_row * n + rs_row, gds_node.neg());
                    } else if gate_on_source {
                        if let Some(rd) = rd {
                            add_mat(&mut stamp, rs_row * n + rd, gdd.neg());
                        }
                        // (s,g)=(s,s) += −gdg then (s,s) += −gds_node, fused.
                        add_mat(&mut stamp, rs_row * n + rs_row, fused_pos);
                    } else {
                        if let Some(rd) = rd {
                            add_mat(&mut stamp, rs_row * n + rd, gdd.neg());
                        }
                        if let Some(rg) = rg {
                            add_mat(&mut stamp, rs_row * n + rg, gdg.neg());
                        }
                        add_mat(&mut stamp, rs_row * n + rs_row, gds_node.neg());
                    }
                }
                // Channel gmin, in stamp order.
                let gm = Interval::point(gmin);
                if let Some(ra) = rd {
                    add_mat(&mut stamp, ra * n + ra, gm);
                    if let Some(rb) = rs {
                        add_mat(&mut stamp, ra * n + rb, gm.neg());
                    }
                }
                if let Some(rb) = rs {
                    add_mat(&mut stamp, rb * n + rb, gm);
                    if let Some(ra) = rd {
                        add_mat(&mut stamp, rb * n + ra, gm.neg());
                    }
                }
            }
            IterOp::Switch {
                ra,
                rb,
                rp,
                rn,
                threshold,
                g_on,
                g_off,
            } => {
                // Resistance scale s widens a conductance multiplicatively.
                let gscale = scale(seq).recip_positive();
                let g = if rp.is_none() && rn.is_none() {
                    // Statically resolved: the control voltage is exactly
                    // 0.0 at every concrete iteration.
                    let resolved = if 0.0 > threshold { g_on } else { g_off };
                    Interval::point(resolved).mul(gscale)
                } else {
                    Interval::hull(g_on, g_off).mul(gscale)
                };
                if let Some(ra) = ra {
                    add_mat(&mut stamp, ra * n + ra, g);
                    if let Some(rb) = rb {
                        add_mat(&mut stamp, ra * n + rb, g.neg());
                    }
                }
                if let Some(rb) = rb {
                    add_mat(&mut stamp, rb * n + rb, g);
                    if let Some(ra) = ra {
                        add_mat(&mut stamp, rb * n + ra, g.neg());
                    }
                }
            }
            IterOp::Diode { ra, rk, i_sat, nvt } => {
                let (g_hi, _) = diode_bounds(i_sat, nvt, window, scale(seq));
                let gt = Interval::new(gmin, g_hi + gmin);
                if let Some(ra) = ra {
                    add_mat(&mut stamp, ra * n + ra, gt);
                    if let Some(rk) = rk {
                        add_mat(&mut stamp, ra * n + rk, gt.neg());
                    }
                }
                if let Some(rk) = rk {
                    add_mat(&mut stamp, rk * n + rk, gt);
                    if let Some(ra) = ra {
                        add_mat(&mut stamp, rk * n + ra, gt.neg());
                    }
                }
            }
        }
    }

    // --- rhs: rhs0 ops, then the per-iteration ops in op order --------
    let add_rhs = |stamp: &mut AbstractStamp, row: usize, iv: Interval| {
        stamp.rhs[row] = stamp.rhs[row].add(iv);
        let c = &mut stamp.rhs_contrib[row];
        c.0 += 1;
        c.1 += iv.mag();
    };
    for (op, &seq) in plan.rhs0_ops.iter().zip(&plan.rhs0_elems) {
        add_rhs(&mut stamp, op.row, eval(op.val, seq));
    }
    for (op, &seq) in plan.iter_ops.iter().zip(&plan.iter_elems) {
        match *op {
            IterOp::Mat(_) | IterOp::Switch { .. } => {}
            IterOp::Rhs(RhsOp { row, val }) => add_rhs(&mut stamp, row, eval(val, seq)),
            IterOp::Mosfet { rd, rs, params, .. } => {
                let (_, i) = mosfet_bounds(&params, window, scale(seq));
                let iv = Interval::new(-i, i);
                if let Some(rd) = rd {
                    add_rhs(&mut stamp, rd, iv.neg());
                }
                if let Some(rs) = rs {
                    add_rhs(&mut stamp, rs, iv);
                }
            }
            IterOp::Diode { ra, rk, i_sat, nvt } => {
                let (_, i) = diode_bounds(i_sat, nvt, window, scale(seq));
                let iv = Interval::new(-i, i);
                if let Some(rk) = rk {
                    add_rhs(&mut stamp, rk, iv);
                }
                if let Some(ra) = ra {
                    add_rhs(&mut stamp, ra, iv.neg());
                }
            }
        }
    }

    stamp
}

/// Concretely assembles the DC system of `ckt` through its compiled
/// plan, at solution `x = 0`, time `0`, unit source scale and the
/// default `gmin` — the reference point the abstract intervals must
/// enclose. Returns `(n, mat, rhs)` with `mat` flat row-major.
pub fn concrete_dc_stamp(ckt: &Circuit) -> (usize, Vec<f64>, Vec<f64>) {
    let layout = MnaLayout::new(ckt);
    let plan = StampPlan::compile(ckt, &layout, PlanMode::Dc);
    let n = plan.n;
    let gmin = NewtonOpts::default().gmin;
    let src_vals: Vec<f64> =
        plan.sources
            .iter()
            .map(|&id| match ckt.element(id) {
                Element::VoltageSource { waveform, .. }
                | Element::CurrentSource { waveform, .. } => waveform.value(0.0),
                _ => unreachable!("source list points at a non-source"),
            })
            .collect();
    let eval = |val: ValRef| match val {
        ValRef::Const(c) => c,
        ValRef::Gmin { sign } => sign * gmin,
        ValRef::Src { src, sign } => sign * src_vals[src],
        // DC plans never reference companion slots.
        _ => unreachable!("companion reference in a DC plan"),
    };
    let mut mat = vec![0.0; n * n];
    let mut rhs = vec![0.0; n];
    for op in &plan.base_ops {
        mat[op.idx] += eval(op.val);
    }
    for op in &plan.iter_ops {
        match *op {
            IterOp::Mat(MatOp { idx, val }) => mat[idx] += eval(val),
            IterOp::Rhs(_) => {}
            IterOp::Mosfet { rd, rg, rs, params } => {
                let op = params.evaluate(0.0, 0.0, 0.0);
                if let Some(rd) = rd {
                    mat[rd * n + rd] += op.gdd;
                    if let Some(rg) = rg {
                        mat[rd * n + rg] += op.gdg;
                    }
                    if let Some(rs) = rs {
                        mat[rd * n + rs] += op.gds_node;
                    }
                }
                if let Some(rs_row) = rs {
                    if let Some(rd) = rd {
                        mat[rs_row * n + rd] += -op.gdd;
                    }
                    if let Some(rg) = rg {
                        mat[rs_row * n + rg] += -op.gdg;
                    }
                    mat[rs_row * n + rs_row] += -op.gds_node;
                }
                if let Some(ra) = rd {
                    mat[ra * n + ra] += gmin;
                    if let Some(rb) = rs {
                        mat[ra * n + rb] += -gmin;
                    }
                }
                if let Some(rb) = rs {
                    mat[rb * n + rb] += gmin;
                    if let Some(ra) = rd {
                        mat[rb * n + ra] += -gmin;
                    }
                }
            }
            IterOp::Switch {
                ra,
                rb,
                threshold,
                g_on,
                g_off,
                ..
            } => {
                // x = 0 ⇒ vc = 0 for every control connection.
                let g = if 0.0 > threshold { g_on } else { g_off };
                if let Some(ra) = ra {
                    mat[ra * n + ra] += g;
                    if let Some(rb) = rb {
                        mat[ra * n + rb] += -g;
                    }
                }
                if let Some(rb) = rb {
                    mat[rb * n + rb] += g;
                    if let Some(ra) = ra {
                        mat[rb * n + ra] += -g;
                    }
                }
            }
            IterOp::Diode { ra, rk, i_sat, nvt } => {
                // vd = 0 ⇒ i = 0, g = i_sat/nvt.
                let gt = i_sat / nvt + gmin;
                if let Some(ra) = ra {
                    mat[ra * n + ra] += gt;
                    if let Some(rk) = rk {
                        mat[ra * n + rk] += -gt;
                    }
                }
                if let Some(rk) = rk {
                    mat[rk * n + rk] += gt;
                    if let Some(ra) = ra {
                        mat[rk * n + ra] += -gt;
                    }
                }
            }
        }
    }
    for op in &plan.rhs0_ops {
        rhs[op.row] += eval(op.val);
    }
    for op in &plan.iter_ops {
        // At x = 0 every device Norton current is 0 (MOSFET cutoff,
        // diode at vd = 0), so only demoted rhs atoms contribute.
        if let IterOp::Rhs(RhsOp { row, val }) = *op {
            rhs[row] += eval(val);
        }
    }
    (n, mat, rhs)
}

/// Abstractly interprets the DC plan of `ckt` over `ranges`.
pub fn abstract_dc_stamp(ckt: &Circuit, ranges: &Ranges) -> AbstractStamp {
    let layout = MnaLayout::new(ckt);
    let plan = StampPlan::compile(ckt, &layout, PlanMode::Dc);
    abstract_plan(ckt, &plan, ranges)
}

/// Abstractly interprets the transient plan of `ckt` over `ranges`.
pub fn abstract_tran_stamp(ckt: &Circuit, ranges: &Ranges) -> AbstractStamp {
    let layout = MnaLayout::new(ckt);
    let plan = StampPlan::compile(ckt, &layout, PlanMode::Tran);
    abstract_plan(ckt, &plan, ranges)
}

// ---------------------------------------------------------------------
// Findings (MS030–MS033)
// ---------------------------------------------------------------------

/// Human-readable name of system row/column `r`.
fn row_name(ckt: &Circuit, stamp: &AbstractStamp, r: usize) -> String {
    if r < stamp.node_rows {
        ckt.node_name(NodeId(r + 1)).to_owned()
    } else {
        format!("branch{}", r - stamp.node_rows)
    }
}

/// Derives the MS030–MS033 findings from one abstract assembly. `label`
/// tags the analysed plan (`"dc plan"` / `"tran plan"`).
fn derive_findings(ckt: &Circuit, stamp: &AbstractStamp, label: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = stamp.n;

    // MS030: guaranteed-singular or sign-indefinite node-row pivots.
    let mut singular = Vec::new();
    let mut indefinite = Vec::new();
    for r in 0..stamp.node_rows {
        let d = stamp.mat_interval(r, r);
        if d.lo == 0.0 && d.hi == 0.0 {
            // A node coupled only through branch rows (e.g. pinned by a
            // source) has a legitimately zero diagonal; only rows with
            // no branch-column coupling at all are doomed.
            let coupled = (stamp.node_rows..n).any(|c| stamp.mat_interval(r, c).mag() != 0.0);
            if !coupled {
                singular.push(row_name(ckt, stamp, r));
            }
        } else if d.lo < 0.0 && 0.0 < d.hi {
            indefinite.push(row_name(ckt, stamp, r));
        }
    }
    if !singular.is_empty() || !indefinite.is_empty() {
        let mut msg = format!("{label}: ");
        if !singular.is_empty() {
            let _ = write!(
                msg,
                "diagonal guaranteed zero over the declared ranges at node(s) {} ",
                singular.join(", ")
            );
        }
        if !indefinite.is_empty() {
            let _ = write!(
                msg,
                "diagonal interval straddles zero (sign-indefinite pivot) at node(s) {}",
                indefinite.join(", ")
            );
        }
        let mut elements = singular;
        elements.extend(indefinite);
        out.push(Diagnostic {
            code: LintCode::GuaranteedSingularPivot,
            severity: LintCode::GuaranteedSingularPivot.default_severity(),
            elements,
            message: msg.trim_end().to_owned(),
            suggestion: Some(
                "add a DC path or tighten the declared parameter ranges so the pivot keeps a sign"
                    .to_owned(),
            ),
        });
    }

    // MS031: possibly non-finite / overflowing entries.
    let mut bad = Vec::new();
    for r in 0..n {
        for c in 0..n {
            let iv = stamp.mat_interval(r, c);
            if !iv.is_finite() || iv.mag() > OVERFLOW_LIMIT {
                bad.push(format!(
                    "G({},{})",
                    row_name(ckt, stamp, r),
                    row_name(ckt, stamp, c)
                ));
            }
        }
        let iv = stamp.rhs_interval(r);
        if !iv.is_finite() || iv.mag() > OVERFLOW_LIMIT {
            bad.push(format!("rhs({})", row_name(ckt, stamp, r)));
        }
    }
    if !bad.is_empty() {
        let shown = bad.iter().take(6).cloned().collect::<Vec<_>>().join(", ");
        out.push(Diagnostic {
            code: LintCode::NonFiniteStampRange,
            severity: LintCode::NonFiniteStampRange.default_severity(),
            message: format!(
                "{label}: {} stamp entr{} can reach non-finite or >1e300 values over the declared ranges ({shown})",
                bad.len(),
                if bad.len() == 1 { "y" } else { "ies" },
            ),
            elements: bad,
            suggestion: Some(
                "check for zero-valued resistances/timesteps or runaway parameter scales"
                    .to_owned(),
            ),
        });
    }

    // MS032: catastrophic cancellation in static sums.
    let mut cancelled = Vec::new();
    for r in 0..n {
        for c in 0..n {
            let idx = r * n + c;
            let (count, mag_sum) = stamp.mat_contrib[idx];
            let residual = stamp.mat[idx].mag();
            if count >= 2
                && mag_sum.is_finite()
                && mag_sum > 0.0
                && mag_sum / residual.max(1e-300) > CANCELLATION_LIMIT
            {
                cancelled.push(format!(
                    "G({},{})",
                    row_name(ckt, stamp, r),
                    row_name(ckt, stamp, c)
                ));
            }
        }
        let (count, mag_sum) = stamp.rhs_contrib[r];
        let residual = stamp.rhs[r].mag();
        if count >= 2
            && mag_sum.is_finite()
            && mag_sum > 0.0
            && mag_sum / residual.max(1e-300) > CANCELLATION_LIMIT
        {
            cancelled.push(format!("rhs({})", row_name(ckt, stamp, r)));
        }
    }
    if !cancelled.is_empty() {
        let shown = cancelled
            .iter()
            .take(6)
            .cloned()
            .collect::<Vec<_>>()
            .join(", ");
        out.push(Diagnostic {
            code: LintCode::CatastrophicCancellation,
            severity: LintCode::CatastrophicCancellation.default_severity(),
            message: format!(
                "{label}: {} entr{} accumulate(s) contributions that cancel to less than 1e-12 of their summed magnitude ({shown})",
                cancelled.len(),
                if cancelled.len() == 1 { "y" } else { "ies" },
            ),
            elements: cancelled,
            suggestion: Some(
                "near-equal opposing stamps lose their addends' precision; restructure the netlist or expect gmin-sized pivots".to_owned(),
            ),
        });
    }

    // MS033: interval condition-number certificate via Varah's bound on
    // the node-conductance block: for a strictly diagonally dominant
    // block, ‖A⁻¹‖∞ ≤ 1/min_r(|a_rr| − Σ_{c≠r}|a_rc|), so
    // κ∞ ≤ ‖A‖∞ / min margin — evaluated at the interval endpoints the
    // bound holds for every concrete system in the envelope. Rows with
    // no node-block entries at all (nodes coupled purely through branch
    // rows) are outside the block and skipped.
    let mut norm_a = 0.0f64;
    let mut min_margin = f64::INFINITY;
    let mut dominant = true;
    let mut block_rows = 0usize;
    for r in 0..stamp.node_rows {
        let mut off = 0.0f64;
        let mut rowsum = 0.0f64;
        for c in 0..stamp.node_rows {
            let m = stamp.mat_interval(r, c).mag();
            rowsum += m;
            if c != r {
                off += m;
            }
        }
        if rowsum == 0.0 {
            continue;
        }
        block_rows += 1;
        norm_a = norm_a.max(rowsum);
        let margin = stamp.mat_interval(r, r).lo - off;
        if margin <= 0.0 {
            dominant = false;
            break;
        }
        min_margin = min_margin.min(margin);
    }
    if dominant && block_rows > 0 {
        let bound = norm_a / min_margin;
        if bound > crate::verify::CONDITIONING_SPAN_LIMIT {
            out.push(Diagnostic {
                code: LintCode::IntervalIllConditioned,
                severity: LintCode::IntervalIllConditioned.default_severity(),
                elements: Vec::new(),
                message: format!(
                    "{label}: certified condition bound of the node-conductance block is {bound:.3e} (> 1e12) over the declared ranges"
                ),
                suggestion: Some(
                    "narrow the component value spread or expect pivot-scaled precision loss"
                        .to_owned(),
                ),
            });
        }
    }

    out
}

/// The outcome of abstractly analysing one circuit: the MS030–MS033
/// findings over both compiled plans, plus the abstract systems
/// themselves for inspection.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    findings: Vec<Diagnostic>,
    dc: AbstractStamp,
    tran: AbstractStamp,
}

impl AnalyzeReport {
    /// All findings, most severe first.
    pub fn findings(&self) -> &[Diagnostic] {
        &self.findings
    }

    /// Findings at deny level.
    pub fn denials(&self) -> impl Iterator<Item = &Diagnostic> {
        self.findings
            .iter()
            .filter(|d| d.severity == Severity::Deny)
    }

    /// Findings at warn level.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.findings
            .iter()
            .filter(|d| d.severity == Severity::Warn)
    }

    /// `true` if any deny-level finding is present.
    pub fn has_denials(&self) -> bool {
        self.denials().next().is_some()
    }

    /// `true` if nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The abstract DC system.
    pub fn dc_stamp(&self) -> &AbstractStamp {
        &self.dc
    }

    /// The abstract transient system.
    pub fn tran_stamp(&self) -> &AbstractStamp {
        &self.tran
    }
}

impl std::fmt::Display for AnalyzeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.findings.is_empty() {
            return writeln!(f, "analyze: clean");
        }
        for d in &self.findings {
            writeln!(f, "{d}")?;
        }
        let denies = self.denials().count();
        let warns = self.warnings().count();
        writeln!(f, "analyze: {denies} deny, {warns} warn")
    }
}

/// Abstractly interprets both compiled plans of `ckt` over `ranges` and
/// derives the MS030–MS033 findings.
pub fn analyze_circuit(ckt: &Circuit, ranges: &Ranges) -> AnalyzeReport {
    let layout = MnaLayout::new(ckt);
    let dc_plan = StampPlan::compile(ckt, &layout, PlanMode::Dc);
    let tran_plan = StampPlan::compile(ckt, &layout, PlanMode::Tran);
    let dc = abstract_plan(ckt, &dc_plan, ranges);
    let tran = abstract_plan(ckt, &tran_plan, ranges);
    let mut findings = derive_findings(ckt, &dc, "dc plan");
    findings.extend(derive_findings(ckt, &tran, "tran plan"));
    findings.sort_by_key(|d| std::cmp::Reverse(d.severity));
    AnalyzeReport { findings, dc, tran }
}

// ---------------------------------------------------------------------
// Guaranteed solution enclosures (Krawczyk + interval Gauss–Seidel)
// ---------------------------------------------------------------------

/// Maximum number of interval Gauss–Seidel refinement sweeps; each sweep
/// either strictly tightens some component or terminates the loop.
const MAX_GS_SWEEPS: usize = 64;

/// A guaranteed componentwise enclosure of the solution set of an
/// interval linear system `[A]·x = [b]`: for every concrete `A ∈ [A]`,
/// `b ∈ [b]` with `A` nonsingular, the solution `A⁻¹b` lies inside
/// `rows`. Produced by [`solve_enclosure`].
#[derive(Debug, Clone, PartialEq)]
pub struct Enclosure {
    /// Componentwise solution enclosure, or `None` when no enclosure
    /// could be certified (singular/non-finite midpoint system, or a
    /// contraction bound ≥ 1).
    pub rows: Option<Vec<Interval>>,
    /// Krawczyk contraction bound `β = ‖I − R·[A]‖∞` of the
    /// midpoint-preconditioned system; `β ≥ 1` (or ∞) is the
    /// proven-divergence early-out.
    pub beta: f64,
    /// Interval Gauss–Seidel refinement sweeps performed.
    pub sweeps: usize,
}

impl Enclosure {
    /// `true` when a guaranteed enclosure was certified.
    pub fn is_certified(&self) -> bool {
        self.rows.is_some()
    }

    fn uncertified(beta: f64) -> Self {
        Enclosure {
            rows: None,
            beta,
            sweeps: 0,
        }
    }
}

/// Turns one abstract MNA system into a guaranteed solution enclosure.
///
/// The solver is the Krawczyk operator over the midpoint-preconditioned
/// system: `R` is the LU inverse of the midpoint matrix, and when the
/// contraction bound `β = ‖I − R·[A]‖∞` is below 1 every solution lies
/// inside `x̃ ± ‖R·([b] − [A]·x̃)‖∞ / (1 − β)` around the approximate
/// midpoint solution `x̃ = R·mid([b])`. That box is then tightened by
/// interval Gauss–Seidel on `(R·[A])·x = R·[b]`, whose diagonal is
/// bounded away from zero by `1 − β`. A singular or non-finite midpoint
/// system, or `β ≥ 1`, is a *proven-divergence early-out*: no enclosure
/// is returned and the caller must fall back to simulation.
///
/// Soundness follows the module convention: endpoint arithmetic with
/// IEEE-754-monotone `+`, `×`, `÷`, and `R·([b] − [A]·x̃) ⊆ R·[b] −
/// (R·[A])·x̃` by subdistributivity, so the computed radius only ever
/// over-approximates. Dense `O(n³)` work is fine at MNA sizes.
pub fn solve_enclosure(stamp: &AbstractStamp) -> Enclosure {
    let n = stamp.size();
    if n == 0 {
        return Enclosure {
            rows: Some(Vec::new()),
            beta: 0.0,
            sweeps: 0,
        };
    }
    for r in 0..n {
        if !stamp.rhs_interval(r).is_finite() {
            return Enclosure::uncertified(f64::INFINITY);
        }
        for c in 0..n {
            if !stamp.mat_interval(r, c).is_finite() {
                return Enclosure::uncertified(f64::INFINITY);
            }
        }
    }
    // Precondition by R = inverse of the midpoint matrix.
    let mut mid = DenseMatrix::zeros(n);
    for r in 0..n {
        for c in 0..n {
            mid.set(r, c, stamp.mat_interval(r, c).mid());
        }
    }
    let mut lu = LuFactors::new(n);
    if lu.factor_from(&mid).is_err() {
        return Enclosure::uncertified(f64::INFINITY);
    }
    // R column by column (row-major).
    let mut rmat = vec![0.0; n * n];
    for j in 0..n {
        let mut col = vec![0.0; n];
        col[j] = 1.0;
        lu.solve(&mut col);
        for (i, &v) in col.iter().enumerate() {
            if !v.is_finite() {
                return Enclosure::uncertified(f64::INFINITY);
            }
            rmat[i * n + j] = v;
        }
    }
    // M = R·[A]; β = ‖I − M‖∞.
    let mut m = vec![Interval::point(0.0); n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = Interval::point(0.0);
            for k in 0..n {
                acc = acc.add(Interval::point(rmat[i * n + k]).mul(stamp.mat_interval(k, j)));
            }
            m[i * n + j] = acc;
        }
    }
    let mut beta = 0.0f64;
    for i in 0..n {
        let mut row = 0.0;
        for j in 0..n {
            let c = if i == j {
                Interval::point(1.0).sub(m[i * n + j])
            } else {
                m[i * n + j].neg()
            };
            row += c.mag();
        }
        beta = beta.max(row);
    }
    // NaN β (from non-finite interval products) must also refuse to
    // certify, so the comparison is written to send NaN to the early-out.
    if beta.is_nan() || beta >= 1.0 {
        return Enclosure::uncertified(beta);
    }
    // r = R·[b] and the approximate midpoint solution x̃ = R·mid([b]).
    let mut rvec = vec![Interval::point(0.0); n];
    let mut xt = vec![0.0; n];
    for i in 0..n {
        let mut acc = Interval::point(0.0);
        let mut mid_acc = 0.0;
        for k in 0..n {
            acc = acc.add(Interval::point(rmat[i * n + k]).mul(stamp.rhs_interval(k)));
            mid_acc += rmat[i * n + k] * stamp.rhs_interval(k).mid();
        }
        rvec[i] = acc;
        xt[i] = mid_acc;
    }
    if xt.iter().any(|v| !v.is_finite()) {
        return Enclosure::uncertified(beta);
    }
    // Krawczyk box: x̃ ± ‖z‖∞/(1−β) with z = R·[b] − M·x̃.
    let mut znorm = 0.0f64;
    for i in 0..n {
        let mut acc = rvec[i];
        for j in 0..n {
            acc = acc.sub(m[i * n + j].mul(Interval::point(xt[j])));
        }
        znorm = znorm.max(acc.mag());
    }
    if !znorm.is_finite() {
        return Enclosure::uncertified(beta);
    }
    let rad = znorm / (1.0 - beta);
    let mut x: Vec<Interval> = xt
        .iter()
        .map(|&v| Interval::new(v - rad, v + rad))
        .collect();
    // Interval Gauss–Seidel on M·x = r: every concrete solution already
    // inside the box stays inside each tightened component, and the
    // diagonal `M_ii ∋ 1 − C_ii` keeps away from zero because |C_ii| ≤
    // β < 1, so the checked division always succeeds.
    let mut sweeps = 0;
    while sweeps < MAX_GS_SWEEPS {
        let mut improved = false;
        for i in 0..n {
            let mut acc = rvec[i];
            for j in 0..n {
                if j != i {
                    acc = acc.sub(m[i * n + j].mul(x[j]));
                }
            }
            let Some(q) = acc.checked_div(m[i * n + i]) else {
                continue;
            };
            // A numerically empty intersection can only come from
            // accumulated rounding; keep the proven outer component.
            if let Some(tight) = q.intersect(&x[i]) {
                if tight.lo > x[i].lo || tight.hi < x[i].hi {
                    improved = true;
                }
                x[i] = tight;
            }
        }
        sweeps += 1;
        if !improved {
            break;
        }
    }
    Enclosure {
        rows: Some(x),
        beta,
        sweeps,
    }
}

/// A circuit's guaranteed DC solution enclosure, addressable by node.
/// Produced by [`dc_enclosure`].
#[derive(Debug, Clone, PartialEq)]
pub struct DcEnclosure {
    enclosure: Enclosure,
    /// System row of each node id (ground and branch-only ids map to
    /// `None`).
    node_row: Vec<Option<usize>>,
}

impl DcEnclosure {
    /// `true` when the solver certified an enclosure.
    pub fn is_certified(&self) -> bool {
        self.enclosure.is_certified()
    }

    /// Krawczyk contraction bound β of the preconditioned system.
    pub fn beta(&self) -> f64 {
        self.enclosure.beta
    }

    /// Interval Gauss–Seidel sweeps spent refining the enclosure.
    pub fn sweeps(&self) -> usize {
        self.enclosure.sweeps
    }

    /// Guaranteed DC voltage enclosure of `node` (ground is exactly 0),
    /// or `None` when no enclosure was certified.
    pub fn node_interval(&self, node: NodeId) -> Option<Interval> {
        if node.index() == 0 {
            return Some(Interval::point(0.0));
        }
        let row = (*self.node_row.get(node.index())?)?;
        self.enclosure.rows.as_ref().map(|rows| rows[row])
    }
}

/// Computes the guaranteed enclosure of every DC node voltage of `ckt`
/// over `ranges`: abstract DC assembly ([`abstract_dc_stamp`]) followed
/// by the interval solver ([`solve_enclosure`]).
pub fn dc_enclosure(ckt: &Circuit, ranges: &Ranges) -> DcEnclosure {
    let layout = MnaLayout::new(ckt);
    let plan = StampPlan::compile(ckt, &layout, PlanMode::Dc);
    let stamp = abstract_plan(ckt, &plan, ranges);
    let node_row = (0..ckt.node_count())
        .map(|i| layout.node_row(NodeId(i)))
        .collect();
    DcEnclosure {
        enclosure: solve_enclosure(&stamp),
        node_row,
    }
}

// ---------------------------------------------------------------------
// Static verdict triage
// ---------------------------------------------------------------------

/// Pre-classification of one fault class by the static triage tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StaticVerdict {
    /// The guaranteed output-error enclosure lies entirely inside the
    /// masked band: every in-envelope circuit settles masked.
    GuaranteedMasked,
    /// The guaranteed output-error enclosure lies entirely beyond the
    /// fail threshold: every in-envelope circuit is a functional fail.
    GuaranteedFail,
    /// Nothing could be certified either way; the transient/rescue
    /// pipeline decides.
    NeedsSimulation,
}

impl StaticVerdict {
    /// Stable machine-readable tag (used in exported JSON).
    pub fn tag(&self) -> &'static str {
        match self {
            StaticVerdict::GuaranteedMasked => "guaranteed_masked",
            StaticVerdict::GuaranteedFail => "guaranteed_fail",
            StaticVerdict::NeedsSimulation => "needs_simulation",
        }
    }
}

/// The Eq. 2 classification bands triage compares an enclosure against:
/// `|Vout − center| ≤ masked` is masked, `> fail` is a functional fail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictBands {
    /// Analytic settled output voltage (the band center).
    pub center: f64,
    /// Masked epsilon, volts.
    pub masked: f64,
    /// Functional-fail epsilon, volts.
    pub fail: f64,
}

/// Outcome of statically triaging one circuit against [`VerdictBands`].
#[derive(Debug, Clone, PartialEq)]
pub struct TriageVerdict {
    /// The static verdict.
    pub verdict: StaticVerdict,
    /// Guaranteed Vout enclosure, when one was certified.
    pub vout: Option<Interval>,
    /// Guaranteed `|Vout − center|` enclosure, when one was certified.
    pub error: Option<Interval>,
    /// Krawczyk contraction bound β of the DC system.
    pub beta: f64,
    /// MS034 (`enclosure-unbounded`) / MS035 (`verdict-certified`)
    /// diagnostics derived from the attempt.
    pub diagnostics: Vec<Diagnostic>,
}

/// Statically triages `ckt`: computes the guaranteed DC enclosure of the
/// `output` node over `ranges` and compares it against `bands`.
///
/// A certified enclosure whose error band falls entirely inside the
/// masked band yields [`StaticVerdict::GuaranteedMasked`]; entirely past
/// the fail threshold yields [`StaticVerdict::GuaranteedFail`] (both
/// reported as MS035). Anything else — including an uncertified
/// enclosure, reported as MS034 — is [`StaticVerdict::NeedsSimulation`].
/// The enclosure is sound for the *settled* output of the monotone RC
/// networks the campaign engine drives (see DESIGN.md §13), and the
/// `NeedsSimulation` bucket absorbs every case where that certification
/// does not apply.
pub fn triage_circuit(
    ckt: &Circuit,
    output: NodeId,
    ranges: &Ranges,
    bands: &VerdictBands,
) -> TriageVerdict {
    let enc = dc_enclosure(ckt, ranges);
    let out_name = ckt.node_name(output).to_owned();
    match enc.node_interval(output) {
        Some(iv) if iv.is_finite() => {
            let err_hi = (iv.lo - bands.center)
                .abs()
                .max((iv.hi - bands.center).abs());
            let err_lo = if iv.contains(bands.center) {
                0.0
            } else {
                (iv.lo - bands.center)
                    .abs()
                    .min((iv.hi - bands.center).abs())
            };
            let err = Interval::new(err_lo, err_hi);
            let verdict = if err.hi <= bands.masked {
                StaticVerdict::GuaranteedMasked
            } else if err.lo > bands.fail {
                StaticVerdict::GuaranteedFail
            } else {
                StaticVerdict::NeedsSimulation
            };
            let mut diagnostics = Vec::new();
            if verdict != StaticVerdict::NeedsSimulation {
                diagnostics.push(Diagnostic {
                    code: LintCode::VerdictCertified,
                    severity: LintCode::VerdictCertified.default_severity(),
                    elements: vec![out_name],
                    message: format!(
                        "settled output certified {} without simulation: Vout ∈ [{:.6}, {:.6}] V vs analytic {:.6} V (β = {:.3e})",
                        verdict.tag(),
                        iv.lo,
                        iv.hi,
                        bands.center,
                        enc.beta()
                    ),
                    suggestion: None,
                });
            }
            TriageVerdict {
                verdict,
                vout: Some(iv),
                error: Some(err),
                beta: enc.beta(),
                diagnostics,
            }
        }
        _ => TriageVerdict {
            verdict: StaticVerdict::NeedsSimulation,
            vout: None,
            error: None,
            beta: enc.beta(),
            diagnostics: vec![Diagnostic {
                code: LintCode::EnclosureUnbounded,
                severity: LintCode::EnclosureUnbounded.default_severity(),
                elements: vec![out_name],
                message: format!(
                    "no guaranteed solution enclosure: contraction bound β = {:.3e} (≥ 1 means the preconditioned intervals are too wide to contract)",
                    enc.beta()
                ),
                suggestion: Some(
                    "tighten the declared ranges, or let the transient pipeline decide".to_owned(),
                ),
            }],
        },
    }
}

// ---------------------------------------------------------------------
// Canonical plan keys and static fault collapsing
// ---------------------------------------------------------------------

/// Canonical identity of everything a (rescued) transient consumes from
/// a circuit: both compiled plans with statically resolved switches,
/// source waveforms, reactive parameters and initial conditions, all at
/// exact bit patterns. Equal keys ⇒ bitwise-identical simulations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey(String);

/// Serialises one plan into `out` (see [`plan_key`]).
fn push_plan(out: &mut String, ckt: &Circuit, plan: &StampPlan) {
    let b = |x: f64| x.to_bits();
    let _ = write!(
        out,
        "P{};{};{:?};{};{}|",
        plan.n, plan.node_rows, plan.mode, plan.n_cap_slots, plan.n_ind_slots
    );
    let push_val = |out: &mut String, val: ValRef| {
        match val {
            ValRef::Const(c) => {
                let _ = write!(out, "C{:x}", b(c));
            }
            ValRef::Gmin { sign } => {
                let _ = write!(out, "g{:x}", b(sign));
            }
            ValRef::CapGeq { slot, sign } => {
                let _ = write!(out, "cg{slot}:{:x}", b(sign));
            }
            ValRef::IndGeq { slot, sign } => {
                let _ = write!(out, "lg{slot}:{:x}", b(sign));
            }
            ValRef::CapIeq { slot, sign } => {
                let _ = write!(out, "ci{slot}:{:x}", b(sign));
            }
            ValRef::IndIeq { slot } => {
                let _ = write!(out, "li{slot}");
            }
            ValRef::Src { src, sign } => {
                let _ = write!(out, "s{src}:{:x}", b(sign));
            }
        };
        out.push(',');
    };
    for op in &plan.base_ops {
        let _ = write!(out, "B{}=", op.idx);
        push_val(out, op.val);
    }
    for op in &plan.rhs0_ops {
        let _ = write!(out, "R{}=", op.row);
        push_val(out, op.val);
    }
    for op in &plan.iter_ops {
        match *op {
            IterOp::Mat(MatOp { idx, val }) => {
                let _ = write!(out, "IM{idx}=");
                push_val(out, val);
            }
            IterOp::Rhs(RhsOp { row, val }) => {
                let _ = write!(out, "IR{row}=");
                push_val(out, val);
            }
            IterOp::Mosfet { rd, rg, rs, params } => {
                let _ = write!(
                    out,
                    "M{rd:?}{rg:?}{rs:?}:{:?}:{:x}:{:x}:{:x}:{:x}:{:x},",
                    params.polarity,
                    b(params.w),
                    b(params.l),
                    b(params.vth0),
                    b(params.kp),
                    b(params.lambda)
                );
            }
            IterOp::Switch {
                ra,
                rb,
                rp,
                rn,
                threshold,
                g_on,
                g_off,
            } => {
                if rp.is_none() && rn.is_none() {
                    // Statically resolved: the control voltage is exactly
                    // 0.0 at runtime, so only the taken branch's
                    // conductance is ever read.
                    let resolved = if 0.0 > threshold { g_on } else { g_off };
                    let _ = write!(out, "SR{ra:?}{rb:?}:{:x},", b(resolved));
                } else {
                    let _ = write!(
                        out,
                        "S{ra:?}{rb:?}{rp:?}{rn:?}:{:x}:{:x}:{:x},",
                        b(threshold),
                        b(g_on),
                        b(g_off)
                    );
                }
            }
            IterOp::Diode { ra, rk, i_sat, nvt } => {
                let _ = write!(out, "D{ra:?}{rk:?}:{:x}:{:x},", b(i_sat), b(nvt));
            }
        }
    }
    // Waveforms are read live by the solver; their exact shapes are part
    // of the identity. Debug formatting of f64 round-trips the value.
    for &id in &plan.sources {
        match ckt.element(id) {
            Element::VoltageSource { waveform, .. } | Element::CurrentSource { waveform, .. } => {
                let _ = write!(out, "W{waveform:?};");
            }
            _ => unreachable!("source list points at a non-source"),
        }
    }
}

/// Computes the canonical transient-identity key of `ckt`: both compiled
/// plans (with statically resolved switches collapsed to their taken
/// branch), every source waveform, and the reactive parameters and
/// initial conditions the companion integrators consume.
pub fn plan_key(ckt: &Circuit) -> PlanKey {
    let layout = MnaLayout::new(ckt);
    let mut out = String::new();
    push_plan(
        &mut out,
        ckt,
        &StampPlan::compile(ckt, &layout, PlanMode::Dc),
    );
    push_plan(
        &mut out,
        ckt,
        &StampPlan::compile(ckt, &layout, PlanMode::Tran),
    );
    // Companion inputs and initial conditions live outside the plan.
    for (_, _, elem) in ckt.elements() {
        match elem {
            Element::Capacitor {
                farads,
                initial_voltage,
                ..
            } => {
                let _ = write!(
                    out,
                    "c{:x}:{:x};",
                    farads.to_bits(),
                    initial_voltage.to_bits()
                );
            }
            Element::Inductor {
                henries,
                initial_current,
                ..
            } => {
                let _ = write!(
                    out,
                    "l{:x}:{:x};",
                    henries.to_bits(),
                    initial_current.to_bits()
                );
            }
            _ => {}
        }
    }
    PlanKey(out)
}

/// Role of one fault inside a collapsed campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollapseMember {
    /// The fault's plan key equals the golden netlist's: replicate the
    /// golden verdict without simulating.
    Golden,
    /// First fault of its key class: simulate it.
    Representative,
    /// Same key as an earlier fault: replicate that fault's verdict.
    /// The payload is the index of the representative in the input
    /// universe.
    ReplicaOf(usize),
}

/// A collapsed fault universe: one entry per input fault plus the class
/// statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Collapse {
    /// Role of each input fault, in universe order.
    pub members: Vec<CollapseMember>,
    /// Number of distinct key classes (the golden class counts as one
    /// when populated).
    pub n_classes: usize,
    /// Number of faults requiring their own transient.
    pub n_simulated: usize,
    /// Number of faults statically indistinguishable from golden.
    pub n_golden: usize,
}

/// Statically collapses `faults` against the `golden` netlist: faults
/// whose applied circuit has the same canonical [`plan_key`] replay
/// bit-identical simulations, so one representative transient per class
/// suffices and golden-equivalent faults need none at all. Faults whose
/// application fails are kept as representatives (the campaign engine
/// owns the error reporting).
pub fn collapse_faults(golden: &Circuit, faults: &[LabeledFault]) -> Collapse {
    let golden_key = plan_key(golden);
    let mut first_of: HashMap<PlanKey, usize> = HashMap::new();
    let mut members = Vec::with_capacity(faults.len());
    let mut n_simulated = 0;
    let mut n_golden = 0;
    for (i, lf) in faults.iter().enumerate() {
        let member = match lf.fault.apply(golden) {
            Ok(faulty) => {
                let key = plan_key(&faulty);
                if key == golden_key {
                    n_golden += 1;
                    CollapseMember::Golden
                } else {
                    match first_of.entry(key) {
                        std::collections::hash_map::Entry::Vacant(v) => {
                            v.insert(i);
                            n_simulated += 1;
                            CollapseMember::Representative
                        }
                        std::collections::hash_map::Entry::Occupied(o) => {
                            CollapseMember::ReplicaOf(*o.get())
                        }
                    }
                }
            }
            Err(_) => {
                n_simulated += 1;
                CollapseMember::Representative
            }
        };
        members.push(member);
    }
    Collapse {
        members,
        n_classes: first_of.len() + usize::from(n_golden > 0),
        n_simulated,
        n_golden,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{single_fault_universe, UniverseConfig, OPEN_OHMS};
    use crate::lint::LintCode;
    use crate::waveform::Jitter;

    /// The mixed fixture from `verify.rs`: every element family except
    /// switches, structurally sound.
    fn mixed_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let mid = ckt.node("mid");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(2.5));
        ckt.resistor("R1", vin, mid, 1e3);
        ckt.inductor("L1", mid, out, 1e-6);
        ckt.capacitor("C1", out, Circuit::GND, 1e-12);
        ckt.resistor("R2", out, Circuit::GND, 1e4);
        ckt.mosfet(
            "M1",
            mid,
            vin,
            Circuit::GND,
            MosParams::nmos(320e-9, 1.2e-6),
        );
        ckt.diode("D1", out, Circuit::GND, 1e-14, 1.0);
        ckt
    }

    /// A switch pair mirroring the adder topology: one statically-OFF
    /// pull-up (both controls ground, positive threshold) and one
    /// statically-ON pull-down (negative threshold).
    fn switch_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
        ckt.switch(
            "SU",
            vdd,
            out,
            Circuit::GND,
            Circuit::GND,
            1.25,
            5e3,
            OPEN_OHMS,
        );
        ckt.switch(
            "SD",
            out,
            Circuit::GND,
            Circuit::GND,
            Circuit::GND,
            -1.25,
            5e3,
            OPEN_OHMS,
        );
        ckt.capacitor("Cout", out, Circuit::GND, 1e-12);
        ckt
    }

    #[test]
    fn interval_arithmetic_basics() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(-3.0, 0.5);
        assert_eq!(a.add(b), Interval::new(-2.0, 2.5));
        assert_eq!(a.mul(b), Interval::new(-6.0, 1.0));
        assert_eq!(b.neg(), Interval::new(-0.5, 3.0));
        assert!(a.contains(1.5) && !a.contains(2.5));
        assert!(Interval::new(0.0, 3.0).encloses(&a));
        assert!(!a.encloses(&b));
        assert_eq!(b.mag(), 3.0);
        assert!(!Interval::new(f64::NEG_INFINITY, 0.0).is_finite());
    }

    #[test]
    fn clean_fixtures_are_deny_clean_even_widened() {
        let ranges = Ranges::default()
            .with_tolerance(0.05)
            .with_supply_scale(0.9, 1.0);
        for ckt in [mixed_circuit(), switch_circuit()] {
            let report = analyze_circuit(&ckt, &ranges);
            assert!(!report.has_denials(), "unexpected denials:\n{report}");
        }
    }

    /// Regression: coincident gate rows must not make a rail diagonal
    /// sign-indefinite. A diode-connected PMOS mirror (gate = drain, as
    /// in the comparator bias leg) and an enable PMOS with its gate
    /// wired to the source rail (as in a NAND pull-up with the enable
    /// input tied high) both put `gm` stamps on a diagonal; the fused
    /// bounds keep those diagonals nonnegative.
    #[test]
    fn coincident_gate_rows_stay_deny_clean() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let bias = ckt.node("bias");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(1.0));
        // Diode-connected mirror: d = g = bias, s = vdd.
        ckt.mosfet("MMir", bias, bias, vdd, MosParams::pmos(640e-9, 60e-9));
        ckt.resistor("Rb", bias, Circuit::GND, 50e3);
        // Enable pull-up with gate tied to its own source rail.
        ckt.mosfet("MPB", out, vdd, vdd, MosParams::pmos(640e-9, 60e-9));
        ckt.resistor("Rl", out, Circuit::GND, 10e3);
        let ranges = Ranges::default()
            .with_tolerance(0.05)
            .with_supply_scale(0.9, 1.0);
        let report = analyze_circuit(&ckt, &ranges);
        assert!(
            !report.has_denials(),
            "coincident-gate fixture must analyze clean:\n{report}"
        );
        // The fused stamps must still enclose the concrete assembly at
        // the x = 0 reference (cutoff: every channel derivative is 0).
        let (_, mat, rhs) = concrete_dc_stamp(&ckt);
        let stamp = abstract_dc_stamp(&ckt, &ranges);
        assert!(stamp.encloses_concrete(&mat, &rhs));
        // And the rail diagonals are sign-definite, not straddling.
        let layout = MnaLayout::new(&ckt);
        for node in ["vdd", "bias"] {
            let row = layout.node_row(ckt.find_node(node).unwrap()).unwrap();
            let diag = stamp.mat_interval(row, row);
            assert!(
                diag.lo >= 0.0 && diag.hi > 0.0,
                "{node} diagonal must be nonnegative, got {diag:?}"
            );
        }
    }

    #[test]
    fn abstract_dc_stamp_encloses_the_concrete_assembly() {
        for ckt in [mixed_circuit(), switch_circuit()] {
            let (n, mat, rhs) = concrete_dc_stamp(&ckt);
            let stamp = abstract_dc_stamp(&ckt, &Ranges::default());
            assert_eq!(stamp.size(), n);
            assert!(stamp.encloses_concrete(&mat, &rhs));
            // And a widened envelope encloses the point one.
            let wide = abstract_dc_stamp(&ckt, &Ranges::default().with_tolerance(0.1));
            assert!(wide.encloses(&stamp));
        }
    }

    /// MS030 mutation: cancelling a node diagonal to an exact zero (and
    /// with tolerance, to a sign-straddling interval) must fire exactly
    /// the singular-pivot code.
    #[test]
    fn ms030_fires_on_cancelled_diagonal() {
        let ckt = switch_circuit();
        let layout = MnaLayout::new(&ckt);
        let mut plan = StampPlan::compile(&ckt, &layout, PlanMode::Dc);
        // The `out` node row: cancel everything on its diagonal with one
        // synthetic const contribution attributed to the capacitor.
        let out_row = layout.node_row(ckt.find_node("out").unwrap()).unwrap();
        let idx = out_row * plan.n + out_row;
        let stamp = abstract_plan(&ckt, &plan, &Ranges::default());
        let diag = stamp.mat_interval(out_row, out_row);
        assert!(diag.lo == diag.hi && diag.lo > 0.0, "need a point diagonal");
        // Append the cancelling contribution as a trailing iteration op
        // so the abstract accumulation ends with `x + (-x)`, an exact
        // zero.
        let cap_seq = ckt.find_element("Cout").unwrap().index();
        plan.iter_ops.push(IterOp::Mat(MatOp {
            idx,
            val: ValRef::Const(-diag.lo),
        }));
        plan.iter_elems.push(cap_seq);
        let mutated = abstract_plan(&ckt, &plan, &Ranges::default());
        let findings = derive_findings(&ckt, &mutated, "dc plan");
        assert!(
            findings
                .iter()
                .any(|d| d.code == LintCode::GuaranteedSingularPivot
                    && d.elements.iter().any(|e| e == "out")),
            "MS030 must fire: {findings:?}"
        );
        assert!(findings
            .iter()
            .all(|d| d.code != LintCode::NonFiniteStampRange));
    }

    /// MS031 mutation: an overflow-scale const must fire exactly the
    /// non-finite-range code.
    #[test]
    fn ms031_fires_on_overflowing_entry() {
        let ckt = mixed_circuit();
        let layout = MnaLayout::new(&ckt);
        let mut plan = StampPlan::compile(&ckt, &layout, PlanMode::Dc);
        let r1_seq = ckt.find_element("R1").unwrap().index();
        plan.base_ops.push(MatOp {
            idx: 0,
            val: ValRef::Const(1e305),
        });
        plan.base_elems.push(r1_seq);
        let stamp = abstract_plan(&ckt, &plan, &Ranges::default());
        let findings = derive_findings(&ckt, &stamp, "dc plan");
        assert!(
            findings
                .iter()
                .any(|d| d.code == LintCode::NonFiniteStampRange),
            "MS031 must fire: {findings:?}"
        );
        assert!(findings
            .iter()
            .all(|d| d.code != LintCode::GuaranteedSingularPivot));
    }

    /// MS032 mutation: two huge opposing contributions that cancel to a
    /// tiny residual must fire exactly the cancellation code.
    #[test]
    fn ms032_fires_on_catastrophic_cancellation() {
        let ckt = mixed_circuit();
        let layout = MnaLayout::new(&ckt);
        let mut plan = StampPlan::compile(&ckt, &layout, PlanMode::Dc);
        // `vin` carries only R1's conductance on its diagonal (no wide
        // device intervals that would mask the cancellation), and its
        // branch coupling to V1 keeps MS030 out of the picture.
        let vin_row = layout.node_row(ckt.find_node("vin").unwrap()).unwrap();
        let idx = vin_row * plan.n + vin_row;
        let r1_seq = ckt.find_element("R1").unwrap().index();
        for v in [1e15, -1e15] {
            plan.base_ops.push(MatOp {
                idx,
                val: ValRef::Const(v),
            });
            plan.base_elems.push(r1_seq);
        }
        let stamp = abstract_plan(&ckt, &plan, &Ranges::default());
        let findings = derive_findings(&ckt, &stamp, "dc plan");
        assert!(
            findings
                .iter()
                .any(|d| d.code == LintCode::CatastrophicCancellation
                    && d.elements.iter().any(|e| e.contains("vin"))),
            "MS032 must fire: {findings:?}"
        );
        assert!(findings
            .iter()
            .all(|d| d.code != LintCode::NonFiniteStampRange));
    }

    /// MS033 mutation: a conductance spread beyond twelve decades in a
    /// diagonally dominant block must fire exactly the interval
    /// condition certificate.
    #[test]
    fn ms033_fires_on_extreme_conductance_spread() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.resistor("Rsmall", a, Circuit::GND, 1e-3);
        ckt.resistor("Rbig", b, Circuit::GND, 1e12);
        let report = analyze_circuit(&ckt, &Ranges::default());
        assert!(
            report
                .findings()
                .iter()
                .any(|d| d.code == LintCode::IntervalIllConditioned),
            "MS033 must fire: {report}"
        );
        assert!(report
            .findings()
            .iter()
            .all(|d| d.code != LintCode::GuaranteedSingularPivot));
        // A mild spread stays silent.
        let mut ok = Circuit::new();
        let c = ok.node("c");
        ok.resistor("R1", c, Circuit::GND, 1e3);
        assert!(analyze_circuit(&ok, &Ranges::default()).is_clean());
    }

    /// Satellite audit: every one of the 13 `Fault` variants must
    /// declare a non-point envelope for its affected element — a point
    /// envelope would let the triage tier certify a faulted circuit
    /// from golden-identical intervals.
    #[test]
    fn ranges_for_fault_covers_all_thirteen_variants() {
        let mixed = mixed_circuit();
        let sw = switch_circuit();
        let r1 = mixed.find_element("R1").unwrap();
        let c1 = mixed.find_element("C1").unwrap();
        let m1 = mixed.find_element("M1").unwrap();
        let v1 = mixed.find_element("V1").unwrap();
        let su = sw.find_element("SU").unwrap();
        let out = mixed.find_node("out").unwrap();
        let nonpoint = |r: &Ranges, id: ElementId| {
            let s = r.scale_of(id);
            assert!(s.width() > 0.0, "point envelope for {id}: {s:?}");
        };
        // Switches: both stuck polarities span nominal and forced value.
        nonpoint(&Ranges::for_fault(&Fault::SwitchStuckOpen(su), &sw), su);
        nonpoint(&Ranges::for_fault(&Fault::SwitchStuckClosed(su), &sw), su);
        // MOSFETs: starved channel / added drain–source short.
        nonpoint(&Ranges::for_fault(&Fault::MosfetStuckOpen(m1), &mixed), m1);
        nonpoint(&Ranges::for_fault(&Fault::MosfetStuckShort(m1), &mixed), m1);
        // Resistors: hard faults span the forced factor, drift is exact.
        nonpoint(&Ranges::for_fault(&Fault::ResistorOpen(r1), &mixed), r1);
        nonpoint(&Ranges::for_fault(&Fault::ResistorShort(r1), &mixed), r1);
        let drift = Ranges::for_fault(
            &Fault::ResistorDrift {
                id: r1,
                factor: 2.0,
            },
            &mixed,
        );
        assert_eq!(drift.scale_of(r1), Interval::new(1.0, 2.0));
        // Capacitor leak widens the capacitor's own envelope.
        nonpoint(
            &Ranges::for_fault(&Fault::CapacitorLeak { id: c1, ohms: 1e5 }, &mixed),
            c1,
        );
        // A bridge has no single element to widen: the global tolerance
        // blows up instead, so every element (fault site included) is
        // non-point.
        let bridge = Ranges::for_fault(
            &Fault::NetBridge {
                a: out,
                b: Circuit::GND,
                ohms: 100.0,
            },
            &mixed,
        );
        nonpoint(&bridge, r1);
        nonpoint(&bridge, c1);
        // Supplies: droop keeps the exact window, brownout spans 0..=1.
        let droop = Ranges::for_fault(
            &Fault::SupplyDroop {
                id: v1,
                factor: 0.9,
            },
            &mixed,
        );
        assert_eq!(droop.supply_scale, Interval::new(0.9, 1.0));
        let brownout = Ranges::for_fault(
            &Fault::SupplyBrownout {
                id: v1,
                v_low: 0.5,
                t_start: 1e-7,
                t_end: 5e-7,
                t_ramp: 1e-8,
            },
            &mixed,
        );
        assert!(brownout.supply_scale.width() > 0.0);
        // PWM timing faults widen the driving source's envelope.
        nonpoint(
            &Ranges::for_fault(
                &Fault::PwmJitter {
                    id: v1,
                    jitter: Jitter::edges(1, 0.05, 64),
                },
                &mixed,
            ),
            v1,
        );
        nonpoint(
            &Ranges::for_fault(&Fault::PwmDutyShift { id: v1, delta: 0.1 }, &mixed),
            v1,
        );
    }

    /// 2.5 V through a 1k/3k divider: analytic out = 1.875 V.
    fn divider_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("vin");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(2.5));
        ckt.resistor("R1", vin, out, 1e3);
        ckt.resistor("R2", out, Circuit::GND, 3e3);
        ckt
    }

    /// The certified DC enclosure must contain every corner draw of the
    /// widened divider, and degenerate to a point at point ranges.
    #[test]
    fn dc_enclosure_encloses_divider_corners() {
        let ckt = divider_circuit();
        let out = ckt.find_node("out").unwrap();
        let enc = dc_enclosure(&ckt, &Ranges::default().with_tolerance(0.05));
        assert!(enc.is_certified(), "β = {}", enc.beta());
        let iv = enc.node_interval(out).unwrap();
        for s1 in [0.95, 1.0, 1.05] {
            for s2 in [0.95, 1.0, 1.05] {
                let v = 2.5 * (3e3 * s2) / (1e3 * s1 + 3e3 * s2);
                assert!(iv.contains(v), "corner {v} outside {iv:?}");
            }
        }
        let tight = dc_enclosure(&ckt, &Ranges::default());
        let iv = tight.node_interval(out).unwrap();
        assert!(iv.contains(1.875) && iv.width() < 1e-9, "{iv:?}");
        // Ground is exactly zero by convention.
        assert_eq!(
            tight.node_interval(Circuit::GND),
            Some(Interval::point(0.0))
        );
    }

    /// MS035 mutation: a certifiable point-range divider is statically
    /// masked against its analytic band and statically failed against a
    /// distant one — both certified, neither emits MS034.
    #[test]
    fn ms035_fires_on_certified_verdicts() {
        let ckt = divider_circuit();
        let out = ckt.find_node("out").unwrap();
        let bands = VerdictBands {
            center: 1.875,
            masked: 0.05,
            fail: 0.25,
        };
        let t = triage_circuit(&ckt, out, &Ranges::default(), &bands);
        assert_eq!(t.verdict, StaticVerdict::GuaranteedMasked);
        assert!(t
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::VerdictCertified && d.severity == Severity::Info));
        assert!(t
            .diagnostics
            .iter()
            .all(|d| d.code != LintCode::EnclosureUnbounded));
        assert!(t.error.unwrap().hi <= bands.masked);
        let far = VerdictBands {
            center: 0.0,
            masked: 0.05,
            fail: 0.25,
        };
        let t = triage_circuit(&ckt, out, &Ranges::default(), &far);
        assert_eq!(t.verdict, StaticVerdict::GuaranteedFail);
        assert!(
            t.diagnostics
                .iter()
                .any(|d| d.code == LintCode::VerdictCertified
                    && d.message.contains("guaranteed_fail"))
        );
    }

    /// MS034 mutation: the maximal (bridge-style) envelope defeats the
    /// contraction bound; triage falls back to simulation, says why, and
    /// does not emit the certification info code.
    #[test]
    fn ms034_fires_when_enclosure_cannot_be_certified() {
        let ckt = divider_circuit();
        let out = ckt.find_node("out").unwrap();
        let wide = Ranges::default().with_tolerance(0.999);
        let enc = dc_enclosure(&ckt, &wide);
        assert!(!enc.is_certified());
        assert!(enc.beta() >= 1.0, "β = {}", enc.beta());
        let bands = VerdictBands {
            center: 1.875,
            masked: 0.05,
            fail: 0.25,
        };
        let t = triage_circuit(&ckt, out, &wide, &bands);
        assert_eq!(t.verdict, StaticVerdict::NeedsSimulation);
        assert!(t.vout.is_none() && t.error.is_none());
        assert!(t
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::EnclosureUnbounded && d.severity == Severity::Warn));
        assert!(t
            .diagnostics
            .iter()
            .all(|d| d.code != LintCode::VerdictCertified));
    }

    /// The load-bearing triage case for the campaign gate: a stuck-closed
    /// pull-up hard-shorts `out` to the rail, and the enclosure of the
    /// *applied* faulty netlist certifies the functional fail with no
    /// transient.
    #[test]
    fn triage_certifies_stuck_closed_switch_fail() {
        let golden = switch_circuit();
        let su = golden.find_element("SU").unwrap();
        let faulty = Fault::SwitchStuckClosed(su).apply(&golden).unwrap();
        let out = faulty.find_node("out").unwrap();
        // Golden out sits at ~0 V (pull-down ON, pull-up OFF).
        let bands = VerdictBands {
            center: 0.0,
            masked: 0.05,
            fail: 0.25,
        };
        let t = triage_circuit(&faulty, out, &Ranges::default(), &bands);
        assert_eq!(t.verdict, StaticVerdict::GuaranteedFail, "β = {}", t.beta);
        let vout = t.vout.unwrap();
        assert!(
            vout.lo > 2.0,
            "shorted output must sit near the rail: {vout:?}"
        );
    }

    /// An empty system is trivially certified; a non-finite stamp is a
    /// proven early-out, not a panic.
    #[test]
    fn solve_enclosure_handles_degenerate_systems() {
        let ckt = Circuit::new();
        let layout = MnaLayout::new(&ckt);
        let plan = StampPlan::compile(&ckt, &layout, PlanMode::Dc);
        let stamp = abstract_plan(&ckt, &plan, &Ranges::default());
        let enc = solve_enclosure(&stamp);
        assert_eq!(enc.rows, Some(Vec::new()));
        // A singular (all-zero) system: one floating node.
        let mut floating = Circuit::new();
        let a = floating.node("a");
        let b = floating.node("b");
        floating.resistor("R1", a, b, 1e3);
        let layout = MnaLayout::new(&floating);
        let plan = StampPlan::compile(&floating, &layout, PlanMode::Dc);
        let stamp = abstract_plan(&floating, &plan, &Ranges::default());
        assert!(!solve_enclosure(&stamp).is_certified());
    }

    #[test]
    fn plan_key_is_deterministic_and_discriminates() {
        let ckt = switch_circuit();
        assert_eq!(plan_key(&ckt), plan_key(&ckt));
        // A waveform change must change the key.
        let mut other = switch_circuit();
        other
            .set_waveform(other.find_element("VDD").unwrap(), Waveform::dc(2.4))
            .unwrap();
        assert_ne!(plan_key(&ckt), plan_key(&other));
        // So must a resolved-conductance change on a statically-OFF
        // switch (its selected branch is g_off) — while a change to the
        // dormant g_on branch leaves the key untouched.
        let mut third = switch_circuit();
        let su = third.find_element("SU").unwrap();
        third.set_switch_resistances(su, 4e3, OPEN_OHMS).unwrap();
        assert_eq!(plan_key(&ckt), plan_key(&third));
        third
            .set_switch_resistances(su, 5e3, OPEN_OHMS / 2.0)
            .unwrap();
        assert_ne!(plan_key(&ckt), plan_key(&third));
    }

    /// Stuck-open on a statically-OFF switch leaves the resolved
    /// conductance untouched, so it collapses into the golden class;
    /// stuck-closed on a statically-ON switch changes the selected
    /// conductance and must not.
    #[test]
    fn collapse_matches_static_switch_analysis() {
        let ckt = switch_circuit();
        let su = ckt.find_element("SU").unwrap();
        let sd = ckt.find_element("SD").unwrap();
        let faults = vec![
            LabeledFault::new("SU", Fault::SwitchStuckOpen(su)),
            LabeledFault::new("SD", Fault::SwitchStuckClosed(sd)),
            LabeledFault::new("SD2", Fault::SwitchStuckOpen(sd)),
        ];
        let collapse = collapse_faults(&ckt, &faults);
        assert_eq!(collapse.members[0], CollapseMember::Golden);
        assert_eq!(collapse.members[1], CollapseMember::Representative);
        assert_eq!(collapse.members[2], CollapseMember::Representative);
        assert_eq!(collapse.n_golden, 1);
        assert_eq!(collapse.n_simulated, 2);
        assert_eq!(collapse.n_classes, 3);
    }

    #[test]
    fn collapse_groups_identical_faulty_plans() {
        let ckt = switch_circuit();
        let su = ckt.find_element("SU").unwrap();
        // The same fault listed twice: the second entry replicates the
        // first (both differ from golden — SU is OFF, but stuck-closed
        // changes its resolved conductance).
        let faults = vec![
            LabeledFault::new("a", Fault::SwitchStuckClosed(su)),
            LabeledFault::new("b", Fault::SwitchStuckClosed(su)),
        ];
        let collapse = collapse_faults(&ckt, &faults);
        assert_eq!(collapse.members[0], CollapseMember::Representative);
        assert_eq!(collapse.members[1], CollapseMember::ReplicaOf(0));
        assert_eq!(collapse.n_simulated, 1);
        assert_eq!(collapse.n_classes, 1);
    }

    #[test]
    fn collapse_covers_the_generic_universe_without_denials() {
        let ckt = switch_circuit();
        let universe = single_fault_universe(&ckt, &UniverseConfig::default());
        assert!(!universe.is_empty());
        let collapse = collapse_faults(&ckt, &universe);
        assert_eq!(collapse.members.len(), universe.len());
        assert!(collapse.n_simulated + collapse.n_golden <= universe.len());
        // Every fault has a resolvable role.
        for m in &collapse.members {
            if let CollapseMember::ReplicaOf(i) = m {
                assert_eq!(collapse.members[*i], CollapseMember::Representative);
            }
        }
    }
}
