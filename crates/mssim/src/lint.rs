//! Pre-flight static analysis (linting) of circuit netlists.
//!
//! Modified nodal analysis fails in well-understood ways: a node with no
//! element incident produces an all-zero matrix row, a loop of ideal
//! voltage sources produces linearly dependent branch rows, a cutset of
//! current sources makes the KCL equations inconsistent, and a node with
//! no DC-conductive path to ground is pinned only by the `gmin`
//! regularisation and converges to a meaningless voltage. All of these
//! used to surface deep inside an analysis as
//! [`Error::SingularMatrix`] with a bare pivot-row number.
//!
//! This module predicts those failures *before* any matrix is assembled
//! and reports them as structured [`Diagnostic`]s that name the offending
//! nodes and elements and suggest a fix. Every analysis entry point
//! ([`Session::dc_operating_point`](crate::Session::dc_operating_point),
//! [`Session::dc_sweep`](crate::Session::dc_sweep),
//! [`Session::ac`](crate::Session::ac),
//! [`Session::noise`](crate::Session::noise),
//! [`Session::transient`](crate::Session::transient))
//! runs the lints as a pre-flight and refuses to start while deny-level
//! diagnostics are present, returning
//! [`Error::LintRejected`].
//!
//! # Lint codes
//!
//! | Code  | Name                     | Default  | Failure prevented |
//! |-------|--------------------------|----------|-------------------|
//! | MS001 | `empty-circuit`          | deny     | zero-sized MNA system |
//! | MS002 | `floating-node`          | deny     | detached subgraph ⇒ singular matrix |
//! | MS003 | `unused-node`            | deny     | node with no element ⇒ all-zero row |
//! | MS004 | `current-source-cutset`  | deny     | KCL inconsistency ⇒ singular/ill-posed system |
//! | MS005 | `voltage-source-loop`    | deny     | dependent branch rows ⇒ singular matrix |
//! | MS006 | `inductor-voltage-loop`  | deny¹    | DC: inductors are shorts ⇒ singular matrix |
//! | MS007 | `no-dc-path-to-ground`   | deny¹    | node pinned only by gmin ⇒ meaningless DC voltage |
//! | MS008 | `non-finite-parameter`   | deny     | NaN/∞ propagates through the solver |
//! | MS009 | `suspicious-value`       | warn     | likely unit mistake (mΩ vs MΩ, F vs pF) |
//! | MS010 | `shorted-element`        | warn     | element with both terminals on one node |
//! | MS011 | `duplicate-element-name` | deny     | ambiguous probes and sweeps |
//! | MS020 | `structurally-singular`  | deny     | no perfect equation/unknown matching ⇒ zero pivot for *any* values |
//! | MS021 | `dependent-voltage-constraints` | deny | cycle of voltage-defining branches ⇒ dependent branch rows |
//! | MS022 | `ill-conditioned-block`  | warn     | stamp-magnitude span predicts LU pivot trouble |
//! | MS030 | `guaranteed-singular-pivot` | deny  | pivot interval is `[0,0]` or straddles zero over declared ranges |
//! | MS031 | `non-finite-stamp-range` | deny     | stamp interval reaches NaN/∞/overflow over declared ranges |
//! | MS032 | `catastrophic-cancellation` | warn  | contributions cancel beyond ~12 decades of their magnitude |
//! | MS033 | `interval-ill-conditioned` | warn   | certified condition bound > 1e12 over declared ranges |
//! | MS034 | `enclosure-unbounded`    | warn     | interval solver could not certify a solution enclosure |
//! | MS035 | `verdict-certified`      | info     | settled-output verdict certified without simulation |
//!
//! MS030–MS035 are derived by the abstract interpreter in
//! [`crate::analyze`] (they need declared parameter ranges), not by the
//! pattern-based [`lint`] pass; MS034/MS035 come from its interval
//! solution solver ([`crate::analyze::triage_circuit`]).
//!
//! ¹ downgraded to warn for transient analysis started from initial
//! conditions (UIC), where inductor and capacitor companion models make
//! the system well-posed — unless the code's severity was set explicitly.
//!
//! # Examples
//!
//! ```
//! use mssim::lint::{lint, LintCode, Severity};
//! use mssim::{Circuit, Waveform};
//!
//! let mut ckt = Circuit::new();
//! let a = ckt.node("a");
//! let b = ckt.node("b");
//! ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
//! ckt.vsource("V2", a, Circuit::GND, Waveform::dc(2.0)); // conflicting loop
//! ckt.resistor("R1", a, b, 1e3);
//! ckt.capacitor("C1", b, Circuit::GND, 1e-12);
//!
//! let report = lint(&ckt);
//! assert!(report.has_denials());
//! assert!(report
//!     .diagnostics()
//!     .iter()
//!     .any(|d| d.code == LintCode::VoltageSourceLoop && d.severity == Severity::Deny));
//! ```

use std::collections::HashMap;
use std::sync::Mutex;

use crate::elements::Element;
use crate::error::Error;
use crate::netlist::Circuit;

/// How a triggered lint is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The diagnostic is suppressed entirely.
    Allow,
    /// Purely informational: a positive certificate (e.g. MS035), never
    /// a defect. Reported, never blocks analysis.
    Info,
    /// The diagnostic is reported but does not block analysis.
    Warn,
    /// The diagnostic blocks analysis ([`Error::LintRejected`]).
    Deny,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// Identifies one class of netlist defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LintCode {
    /// MS001: the circuit contains no elements at all.
    EmptyCircuit,
    /// MS002: a node is used by elements but its subgraph never reaches
    /// ground, so its voltage is undefined.
    FloatingNode,
    /// MS003: a node was declared but no element connects to it, which
    /// produces an all-zero MNA row.
    UnusedNode,
    /// MS004: a region of the circuit is tied to the rest only through
    /// current sources, so KCL over the region is inconsistent.
    CurrentSourceCutset,
    /// MS005: a closed loop of ideal voltage sources (including a source
    /// shorted onto a single node), which over-determines the loop.
    VoltageSourceLoop,
    /// MS006: a closed loop of voltage sources and at least one inductor;
    /// inductors are DC shorts, so the DC system is singular.
    InductorVoltageLoop,
    /// MS007: a node has no DC-conductive path to ground (reached only
    /// through capacitors or not at all), so its DC voltage is set by the
    /// `gmin` regularisation rather than the circuit.
    NoDcPathToGround,
    /// MS008: an element parameter or source value is NaN or infinite.
    NonFiniteParameter,
    /// MS009: a parameter magnitude far outside the plausible physical
    /// range for its unit — usually a prefix mistake.
    SuspiciousValue,
    /// MS010: a two-terminal element with both terminals on the same node.
    ShortedElement,
    /// MS011: two elements share a name (defensive; the builder API
    /// already rejects this).
    DuplicateElementName,
    /// MS020: the MNA sparsity pattern admits no perfect matching between
    /// equations and unknowns, so the matrix is singular for *every*
    /// choice of element values. Detected by maximum bipartite matching
    /// with a Dulmage–Mendelsohn decomposition naming the
    /// under-determined unknowns and over-determined equations (see
    /// [`crate::verify`]).
    StructurallySingular,
    /// MS021: a cycle of voltage-defining branches (voltage sources,
    /// DC-shorted inductors, VCVS outputs) closed by a controlled source,
    /// which makes the branch constraint rows linearly dependent even
    /// though the sparsity pattern alone looks solvable.
    DependentVoltageConstraints,
    /// MS022: the statically-known stamp magnitudes inside one matched
    /// diagonal block span more than ~12 decades, predicting LU pivot
    /// trouble although the system is structurally sound.
    IllConditionedBlock,
    /// MS030: over the declared parameter ranges a node-row pivot is
    /// guaranteed zero (interval exactly `[0, 0]`) or sign-indefinite
    /// (interval straddles zero), so some concrete circuit inside the
    /// envelope yields a singular or sign-flipping pivot. Derived by
    /// [`crate::analyze`].
    GuaranteedSingularPivot,
    /// MS031: a matrix or rhs entry's abstract interval reaches NaN,
    /// infinity, or magnitudes past ~1e300 over the declared ranges, so
    /// concrete assembly can overflow. Derived by [`crate::analyze`].
    NonFiniteStampRange,
    /// MS032: an entry is accumulated from contributions whose summed
    /// magnitudes exceed the residual interval magnitude by more than
    /// ~12 decades — catastrophic cancellation destroys the addends'
    /// precision. Derived by [`crate::analyze`].
    CatastrophicCancellation,
    /// MS033: a Varah-style condition bound of the node-conductance
    /// block, evaluated on interval endpoints, exceeds ~1e12 — the
    /// numeric certificate form of MS022, valid over the whole declared
    /// range. Derived by [`crate::analyze`].
    IntervalIllConditioned,
    /// MS034: the interval linear solver could not certify a solution
    /// enclosure for the abstract MNA system — the Krawczyk contraction
    /// bound is ≥ 1 (or the midpoint system is singular/non-finite), so
    /// nothing can be concluded statically and the circuit must be
    /// simulated. Derived by [`crate::analyze::triage_circuit`].
    EnclosureUnbounded,
    /// MS035: the settled-output verdict of a faulted circuit was
    /// certified statically — the guaranteed Vout enclosure lies
    /// entirely inside (masked) or entirely outside (fail) the
    /// classification bands, so no transient is needed. A positive
    /// certificate, reported at info level. Derived by
    /// [`crate::analyze::triage_circuit`].
    VerdictCertified,
}

/// All analog lint codes, in report order.
pub const ALL_CODES: &[LintCode] = &[
    LintCode::EmptyCircuit,
    LintCode::FloatingNode,
    LintCode::UnusedNode,
    LintCode::CurrentSourceCutset,
    LintCode::VoltageSourceLoop,
    LintCode::InductorVoltageLoop,
    LintCode::NoDcPathToGround,
    LintCode::NonFiniteParameter,
    LintCode::SuspiciousValue,
    LintCode::ShortedElement,
    LintCode::DuplicateElementName,
    LintCode::StructurallySingular,
    LintCode::DependentVoltageConstraints,
    LintCode::IllConditionedBlock,
    LintCode::GuaranteedSingularPivot,
    LintCode::NonFiniteStampRange,
    LintCode::CatastrophicCancellation,
    LintCode::IntervalIllConditioned,
    LintCode::EnclosureUnbounded,
    LintCode::VerdictCertified,
];

impl LintCode {
    /// Stable short identifier, e.g. `"MS005"`.
    pub fn id(self) -> &'static str {
        match self {
            LintCode::EmptyCircuit => "MS001",
            LintCode::FloatingNode => "MS002",
            LintCode::UnusedNode => "MS003",
            LintCode::CurrentSourceCutset => "MS004",
            LintCode::VoltageSourceLoop => "MS005",
            LintCode::InductorVoltageLoop => "MS006",
            LintCode::NoDcPathToGround => "MS007",
            LintCode::NonFiniteParameter => "MS008",
            LintCode::SuspiciousValue => "MS009",
            LintCode::ShortedElement => "MS010",
            LintCode::DuplicateElementName => "MS011",
            LintCode::StructurallySingular => "MS020",
            LintCode::DependentVoltageConstraints => "MS021",
            LintCode::IllConditionedBlock => "MS022",
            LintCode::GuaranteedSingularPivot => "MS030",
            LintCode::NonFiniteStampRange => "MS031",
            LintCode::CatastrophicCancellation => "MS032",
            LintCode::IntervalIllConditioned => "MS033",
            LintCode::EnclosureUnbounded => "MS034",
            LintCode::VerdictCertified => "MS035",
        }
    }

    /// Human-readable kebab-case name, e.g. `"voltage-source-loop"`.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::EmptyCircuit => "empty-circuit",
            LintCode::FloatingNode => "floating-node",
            LintCode::UnusedNode => "unused-node",
            LintCode::CurrentSourceCutset => "current-source-cutset",
            LintCode::VoltageSourceLoop => "voltage-source-loop",
            LintCode::InductorVoltageLoop => "inductor-voltage-loop",
            LintCode::NoDcPathToGround => "no-dc-path-to-ground",
            LintCode::NonFiniteParameter => "non-finite-parameter",
            LintCode::SuspiciousValue => "suspicious-value",
            LintCode::ShortedElement => "shorted-element",
            LintCode::DuplicateElementName => "duplicate-element-name",
            LintCode::StructurallySingular => "structurally-singular",
            LintCode::DependentVoltageConstraints => "dependent-voltage-constraints",
            LintCode::IllConditionedBlock => "ill-conditioned-block",
            LintCode::GuaranteedSingularPivot => "guaranteed-singular-pivot",
            LintCode::NonFiniteStampRange => "non-finite-stamp-range",
            LintCode::CatastrophicCancellation => "catastrophic-cancellation",
            LintCode::IntervalIllConditioned => "interval-ill-conditioned",
            LintCode::EnclosureUnbounded => "enclosure-unbounded",
            LintCode::VerdictCertified => "verdict-certified",
        }
    }

    /// Severity when the user has not configured the code.
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::SuspiciousValue
            | LintCode::ShortedElement
            | LintCode::IllConditionedBlock
            | LintCode::CatastrophicCancellation
            | LintCode::IntervalIllConditioned
            | LintCode::EnclosureUnbounded => Severity::Warn,
            LintCode::VerdictCertified => Severity::Info,
            _ => Severity::Deny,
        }
    }
}

impl std::fmt::Display for LintCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.id(), self.name())
    }
}

/// Per-code severity configuration.
///
/// Codes not explicitly configured use [`LintCode::default_severity`].
/// Attach a config to a circuit with [`Circuit::set_lint_config`] to make
/// analysis pre-flights honour it.
///
/// # Examples
///
/// ```
/// use mssim::lint::{LintCode, LintConfig, Severity};
///
/// let cfg = LintConfig::new()
///     .allow(LintCode::SuspiciousValue)
///     .deny(LintCode::ShortedElement);
/// assert_eq!(cfg.severity(LintCode::ShortedElement), Severity::Deny);
/// assert!(!cfg.is_overridden(LintCode::FloatingNode));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintConfig {
    overrides: Vec<(LintCode, Severity)>,
}

impl LintConfig {
    /// A config in which every code has its default severity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `code` to the given severity (builder style).
    pub fn set(mut self, code: LintCode, severity: Severity) -> Self {
        self.set_severity(code, severity);
        self
    }

    /// Sets `code` to the given severity in place — the non-builder form
    /// for configs already attached to a circuit, reached through
    /// [`Circuit::lint_config_mut`], which also invalidates any memoized
    /// pre-flight verdicts computed under the old severities.
    pub fn set_severity(&mut self, code: LintCode, severity: Severity) {
        if let Some(slot) = self.overrides.iter_mut().find(|(c, _)| *c == code) {
            slot.1 = severity;
        } else {
            self.overrides.push((code, severity));
        }
    }

    /// Suppresses `code` entirely.
    pub fn allow(self, code: LintCode) -> Self {
        self.set(code, Severity::Allow)
    }

    /// Reports `code` without blocking analysis.
    pub fn warn(self, code: LintCode) -> Self {
        self.set(code, Severity::Warn)
    }

    /// Makes `code` block analysis.
    pub fn deny(self, code: LintCode) -> Self {
        self.set(code, Severity::Deny)
    }

    /// Effective severity of `code` under this config.
    pub fn severity(&self, code: LintCode) -> Severity {
        self.overrides
            .iter()
            .find(|(c, _)| *c == code)
            .map(|&(_, s)| s)
            .unwrap_or_else(|| code.default_severity())
    }

    /// `true` if the user explicitly configured `code` (context-based
    /// downgrades only apply to non-overridden codes).
    pub fn is_overridden(&self, code: LintCode) -> bool {
        self.overrides.iter().any(|(c, _)| *c == code)
    }
}

/// The analysis an upcoming run is linted for; relaxes DC-only rules
/// where the analysis is well-posed anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintContext {
    /// A DC solve happens (operating point, sweep, AC/noise around an
    /// operating point, or a transient that starts from one).
    #[default]
    Dc,
    /// Transient from initial conditions: capacitor and inductor companion
    /// models conduct, so MS006/MS007 are downgraded to warnings when the
    /// node is reachable through reactive elements.
    TransientUic,
}

/// One reported defect.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Effective severity after config and context.
    pub severity: Severity,
    /// Names of the offending nodes and/or elements.
    pub elements: Vec<String>,
    /// What is wrong, in terms of the named nodes/elements.
    pub message: String,
    /// How to fix it, when a stock suggestion exists.
    pub suggestion: Option<String>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} [{}]: {}",
            self.severity,
            self.code.id(),
            self.code.name(),
            self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, " (help: {s})")?;
        }
        Ok(())
    }
}

/// The outcome of linting one circuit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// All diagnostics, most severe first, in pass order within a severity.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Diagnostics at deny level.
    pub fn denials(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
    }

    /// Diagnostics at warn level.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
    }

    /// `true` if any deny-level diagnostic is present.
    pub fn has_denials(&self) -> bool {
        self.denials().next().is_some()
    }

    /// `true` if nothing (warn or deny) was reported.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    fn push(&mut self, severity: Severity, code: LintCode, d: Diagnostic) {
        debug_assert_eq!(d.code, code);
        if severity != Severity::Allow {
            self.diagnostics.push(d);
        }
    }
}

impl std::fmt::Display for LintReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "lint: clean");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        let denies = self.denials().count();
        let warns = self.warnings().count();
        writeln!(f, "lint: {denies} deny, {warns} warn")
    }
}

/// Lints `circuit` with its attached config (see
/// [`Circuit::set_lint_config`]) for a DC-style analysis.
pub fn lint(circuit: &Circuit) -> LintReport {
    lint_with(circuit, circuit.lint_config(), LintContext::Dc)
}

/// Lints `circuit` with an explicit config and analysis context.
pub fn lint_with(circuit: &Circuit, config: &LintConfig, context: LintContext) -> LintReport {
    let mut report = LintReport::default();
    let linter = Linter {
        ckt: circuit,
        cfg: config,
        ctx: context,
    };
    if linter.check_empty(&mut report) {
        return finish(report);
    }
    linter.check_connectivity(&mut report);
    linter.check_source_loops(&mut report);
    linter.check_parameters(&mut report);
    linter.check_shorted(&mut report);
    linter.check_duplicate_names(&mut report);
    linter.check_structural(&mut report);
    finish(report)
}

fn finish(mut report: LintReport) -> LintReport {
    // Most severe first; stable within a severity so pass order is kept.
    report
        .diagnostics
        .sort_by_key(|d| std::cmp::Reverse(d.severity));
    report
}

struct Linter<'a> {
    ckt: &'a Circuit,
    cfg: &'a LintConfig,
    ctx: LintContext,
}

impl Linter<'_> {
    /// Configured severity with context-sensitive downgrades for
    /// non-overridden codes.
    fn severity(&self, code: LintCode) -> Severity {
        let base = self.cfg.severity(code);
        if self.ctx == LintContext::TransientUic
            && !self.cfg.is_overridden(code)
            && code == LintCode::InductorVoltageLoop
        {
            // Inductor companions are resistive in the transient, so a
            // V/L loop only breaks the (skipped) DC solve.
            return Severity::Warn;
        }
        base
    }

    fn emit(
        &self,
        report: &mut LintReport,
        code: LintCode,
        severity: Severity,
        elements: Vec<String>,
        message: String,
        suggestion: Option<&str>,
    ) {
        report.push(
            severity,
            code,
            Diagnostic {
                code,
                severity,
                elements,
                message,
                suggestion: suggestion.map(str::to_owned),
            },
        );
    }

    fn check_empty(&self, report: &mut LintReport) -> bool {
        if self.ckt.element_count() > 0 {
            return false;
        }
        let sev = self.severity(LintCode::EmptyCircuit);
        self.emit(
            report,
            LintCode::EmptyCircuit,
            sev,
            Vec::new(),
            "circuit has no elements".to_owned(),
            Some("add at least one source and one load before running an analysis"),
        );
        true
    }

    /// MS002/MS003/MS004/MS007: flood fills from ground over progressively
    /// stricter edge sets. Each defective node is reported under the first
    /// (most fundamental) category that explains it.
    fn check_connectivity(&self, report: &mut LintReport) {
        let n = self.ckt.node_count();
        let mut used = vec![false; n];
        used[0] = true;
        for (_, _, e) in self.ckt.elements() {
            for nd in e.nodes() {
                used[nd.index()] = true;
            }
        }

        let reach_all = self.flood(|_| true);
        let reach_no_isrc = self.flood(|e| !matches!(e, Element::CurrentSource { .. }));
        let reach_cond = self.flood_conductive(false);
        let reach_cond_caps = self.flood_conductive(true);

        for idx in 1..n {
            let name = self.ckt.node_name(crate::netlist::NodeId(idx));
            if !used[idx] {
                let sev = self.severity(LintCode::UnusedNode);
                self.emit(
                    report,
                    LintCode::UnusedNode,
                    sev,
                    vec![name.to_owned()],
                    format!("node '{name}' is declared but no element connects to it"),
                    Some("remove the node or wire an element to it; an empty node makes the MNA row all zeros"),
                );
            } else if !reach_all[idx] {
                let sev = self.severity(LintCode::FloatingNode);
                self.emit(
                    report,
                    LintCode::FloatingNode,
                    sev,
                    vec![name.to_owned()],
                    format!("node '{name}' is not connected to ground"),
                    Some("connect the subgraph to ground (directly or through other elements)"),
                );
            } else if !reach_no_isrc[idx] {
                let crossing = self.crossing_current_sources(&reach_no_isrc);
                let sev = self.severity(LintCode::CurrentSourceCutset);
                self.emit(
                    report,
                    LintCode::CurrentSourceCutset,
                    sev,
                    crossing.clone(),
                    format!(
                        "node '{name}' is tied to the rest of the circuit only through current source(s) {}",
                        crossing.join(", ")
                    ),
                    Some("add a DC return path (e.g. a large resistor) in parallel with the current source"),
                );
            } else if !reach_cond[idx] {
                // Reached through capacitors (or gate/ctrl pins) only: the
                // DC voltage is set by gmin, not the circuit. Under UIC the
                // capacitor companion conducts, so reachable-through-caps
                // nodes are only worth a warning.
                let mut sev = self.severity(LintCode::NoDcPathToGround);
                if self.ctx == LintContext::TransientUic
                    && !self.cfg.is_overridden(LintCode::NoDcPathToGround)
                    && reach_cond_caps[idx]
                {
                    sev = Severity::Warn;
                }
                self.emit(
                    report,
                    LintCode::NoDcPathToGround,
                    sev,
                    vec![name.to_owned()],
                    format!("node '{name}' has no DC-conductive path to ground"),
                    Some("add a bleed resistor to ground, or drive the node through a conductive element"),
                );
            }
        }
    }

    /// Flood fill from ground over the elements selected by `keep`.
    fn flood(&self, keep: impl Fn(&Element) -> bool) -> Vec<bool> {
        let n = self.ckt.node_count();
        let mut reached = vec![false; n];
        reached[0] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for (_, _, e) in self.ckt.elements() {
                if !keep(e) {
                    continue;
                }
                let nodes = e.nodes();
                if nodes.iter().any(|nd| reached[nd.index()]) {
                    for nd in nodes {
                        if !reached[nd.index()] {
                            reached[nd.index()] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        reached
    }

    /// Flood fill over DC-conductive terminal pairs only. MOSFET gates,
    /// switch control pins and current sources conduct no DC current;
    /// capacitors conduct only when `caps_conduct` (transient companions).
    fn flood_conductive(&self, caps_conduct: bool) -> Vec<bool> {
        let n = self.ckt.node_count();
        let mut reached = vec![false; n];
        reached[0] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for (_, _, e) in self.ckt.elements() {
                let pair: Option<(usize, usize)> = match *e {
                    Element::Resistor { a, b, .. } | Element::Inductor { a, b, .. } => {
                        Some((a.index(), b.index()))
                    }
                    Element::Capacitor { a, b, .. } => {
                        caps_conduct.then_some((a.index(), b.index()))
                    }
                    Element::VoltageSource { pos, neg, .. } => Some((pos.index(), neg.index())),
                    Element::CurrentSource { .. } => None,
                    Element::Mosfet { d, s, .. } => Some((d.index(), s.index())),
                    Element::Switch { a, b, .. } => Some((a.index(), b.index())),
                    Element::Diode { a, k, .. } => Some((a.index(), k.index())),
                    // A VCVS output is an ideal (controlled) voltage
                    // source: it conducts. Its control pins and a VCCS
                    // conduct no current, like an independent isource.
                    Element::Vcvs { p, n, .. } => Some((p.index(), n.index())),
                    Element::Vccs { .. } => None,
                };
                if let Some((u, v)) = pair {
                    if reached[u] != reached[v] {
                        reached[u] = true;
                        reached[v] = true;
                        changed = true;
                    }
                }
            }
        }
        reached
    }

    /// Current sources with exactly one endpoint inside the non-reached
    /// region of `reach` — the cutset members.
    fn crossing_current_sources(&self, reach: &[bool]) -> Vec<String> {
        self.ckt
            .elements()
            .filter_map(|(_, name, e)| match *e {
                Element::CurrentSource { from, to, .. }
                    if reach[from.index()] != reach[to.index()] =>
                {
                    Some(name.to_owned())
                }
                _ => None,
            })
            .collect()
    }

    /// MS005/MS006: union-find over voltage-source edges, then inductor
    /// edges. An edge that closes a cycle is reported; the union-find
    /// state carries which elements merged each component so the report
    /// can name the whole loop.
    fn check_source_loops(&self, report: &mut LintReport) {
        let mut dsu = Dsu::new(self.ckt.node_count());
        // Track the member elements of each component so the diagnostic
        // can list the full loop, not just the closing edge.
        let mut members: HashMap<usize, Vec<String>> = HashMap::new();

        let pass = |report: &mut LintReport,
                    dsu: &mut Dsu,
                    members: &mut HashMap<usize, Vec<String>>,
                    code: LintCode,
                    filter: &dyn Fn(&Element) -> Option<(usize, usize)>| {
            for (_, name, e) in self.ckt.elements() {
                let Some((u, v)) = filter(e) else { continue };
                let (ru, rv) = (dsu.find(u), dsu.find(v));
                if ru == rv {
                    let mut loop_elems = members.get(&ru).cloned().unwrap_or_default();
                    loop_elems.push(name.to_owned());
                    let sev = self.severity(code);
                    let what = match code {
                        LintCode::VoltageSourceLoop => "voltage sources",
                        _ => "voltage sources and inductors",
                    };
                    self.emit(
                        report,
                        code,
                        sev,
                        loop_elems.clone(),
                        format!(
                            "'{name}' closes a loop of ideal {what} ({})",
                            loop_elems.join(", ")
                        ),
                        Some("break the loop with a small series resistance, or remove the redundant element"),
                    );
                    continue;
                }
                let root = dsu.union(ru, rv);
                let mut merged = members.remove(&ru).unwrap_or_default();
                merged.extend(members.remove(&rv).unwrap_or_default());
                merged.push(name.to_owned());
                members.insert(root, merged);
            }
        };

        pass(
            report,
            &mut dsu,
            &mut members,
            LintCode::VoltageSourceLoop,
            &|e| match *e {
                Element::VoltageSource { pos, neg, .. } => Some((pos.index(), neg.index())),
                _ => None,
            },
        );
        pass(
            report,
            &mut dsu,
            &mut members,
            LintCode::InductorVoltageLoop,
            &|e| match *e {
                Element::Inductor { a, b, .. } => Some((a.index(), b.index())),
                _ => None,
            },
        );
    }

    /// MS008/MS009: every numeric parameter must be finite, and a few
    /// magnitudes are compared against generous physical ranges to catch
    /// unit-prefix mistakes.
    fn check_parameters(&self, report: &mut LintReport) {
        for (_, name, e) in self.ckt.elements() {
            let non_finite = |what: &str, v: f64, report: &mut LintReport| {
                if !v.is_finite() {
                    let sev = self.severity(LintCode::NonFiniteParameter);
                    self.emit(
                        report,
                        LintCode::NonFiniteParameter,
                        sev,
                        vec![name.to_owned()],
                        format!("'{name}': {what} is {v}, which is not finite"),
                        Some("replace the NaN/infinite value; it would poison every solver iteration"),
                    );
                }
            };
            let suspicious = |what: &str, v: f64, lo: f64, hi: f64, report: &mut LintReport| {
                if v.is_finite() && (v < lo || v > hi) {
                    let sev = self.severity(LintCode::SuspiciousValue);
                    self.emit(
                        report,
                        LintCode::SuspiciousValue,
                        sev,
                        vec![name.to_owned()],
                        format!(
                            "'{name}': {what} of {v:.3e} is outside the plausible range [{lo:.0e}, {hi:.0e}]"
                        ),
                        Some("double-check the unit prefix (e.g. pF vs F, mΩ vs MΩ)"),
                    );
                }
            };
            match *e {
                Element::Resistor { ohms, .. } => {
                    non_finite("resistance", ohms, report);
                    suspicious("resistance", ohms, 1e-3, 1e12, report);
                }
                Element::Capacitor {
                    farads,
                    initial_voltage,
                    ..
                } => {
                    non_finite("capacitance", farads, report);
                    non_finite("initial voltage", initial_voltage, report);
                    suspicious("capacitance", farads, 1e-18, 1.0, report);
                }
                Element::Inductor {
                    henries,
                    initial_current,
                    ..
                } => {
                    non_finite("inductance", henries, report);
                    non_finite("initial current", initial_current, report);
                    suspicious("inductance", henries, 1e-15, 1e3, report);
                }
                Element::VoltageSource { ref waveform, .. }
                | Element::CurrentSource { ref waveform, .. } => {
                    non_finite("source value at t=0", waveform.value(0.0), report);
                }
                Element::Mosfet { ref params, .. } => {
                    non_finite("width", params.w, report);
                    non_finite("length", params.l, report);
                    non_finite("vth0", params.vth0, report);
                    non_finite("kp", params.kp, report);
                    non_finite("lambda", params.lambda, report);
                    suspicious("channel width", params.w, 1e-9, 1e-2, report);
                    suspicious("channel length", params.l, 1e-9, 1e-2, report);
                }
                Element::Switch {
                    threshold,
                    r_on,
                    r_off,
                    ..
                } => {
                    non_finite("threshold", threshold, report);
                    non_finite("r_on", r_on, report);
                    non_finite("r_off", r_off, report);
                    suspicious("on-resistance", r_on, 1e-3, 1e12, report);
                }
                Element::Diode { i_sat, n, .. } => {
                    non_finite("saturation current", i_sat, report);
                    non_finite("emission coefficient", n, report);
                }
                Element::Vcvs { gain, .. } => {
                    non_finite("gain", gain, report);
                    suspicious("gain magnitude", gain.abs(), 1e-12, 1e6, report);
                }
                Element::Vccs { gm, .. } => {
                    non_finite("transconductance", gm, report);
                    suspicious("transconductance magnitude", gm.abs(), 1e-15, 1e3, report);
                }
            }
        }
    }

    /// MS010: two-terminal elements (and switch contacts) with both
    /// terminals on the same node stamp nothing and usually indicate a
    /// wiring mistake.
    fn check_shorted(&self, report: &mut LintReport) {
        for (_, name, e) in self.ckt.elements() {
            let shorted = match *e {
                Element::Resistor { a, b, .. }
                | Element::Capacitor { a, b, .. }
                | Element::Inductor { a, b, .. }
                | Element::Switch { a, b, .. } => a == b,
                Element::VoltageSource { pos, neg, .. } => pos == neg,
                Element::CurrentSource { from, to, .. } => from == to,
                Element::Diode { a, k, .. } => a == k,
                Element::Vcvs { p, n, .. } => p == n,
                Element::Vccs { from, to, .. } => from == to,
                _ => false,
            };
            if shorted {
                let sev = self.severity(LintCode::ShortedElement);
                self.emit(
                    report,
                    LintCode::ShortedElement,
                    sev,
                    vec![name.to_owned()],
                    format!("'{name}' has both terminals on the same node"),
                    Some("rewire one terminal, or delete the element if it is intentional dead weight"),
                );
            }
            // A controlled source whose control terminals coincide sees a
            // control voltage that is identically zero: the element is a
            // constant-zero source in disguise.
            let ctrl_shorted = match *e {
                Element::Vcvs { cp, cn, .. } | Element::Vccs { cp, cn, .. } => cp == cn,
                _ => false,
            };
            if ctrl_shorted {
                let sev = self.severity(LintCode::ShortedElement);
                self.emit(
                    report,
                    LintCode::ShortedElement,
                    sev,
                    vec![name.to_owned()],
                    format!("'{name}' has both control terminals on the same node, so its control voltage is identically zero"),
                    Some("rewire a control terminal; a zero control voltage makes the source output a constant 0"),
                );
            }
        }
    }

    /// MS020/MS021/MS022: structural solvability of the induced MNA
    /// system (maximum matching, voltage-constraint cycles, conditioning
    /// spans — see [`crate::verify`]). Skipped while deny-level topology
    /// diagnostics are present: a floating node already explains the
    /// singularity, and the matching would only restate it less helpfully.
    fn check_structural(&self, report: &mut LintReport) {
        if report.has_denials() {
            return;
        }
        for finding in crate::verify::structural_lint(self.ckt, self.ctx) {
            let sev = self.severity(finding.code);
            self.emit(
                report,
                finding.code,
                sev,
                finding.elements,
                finding.message,
                finding.suggestion.as_deref(),
            );
        }
    }

    /// MS011: defensive duplicate-name scan. The builder API rejects
    /// duplicates eagerly, so this only fires for netlists constructed
    /// through future non-builder paths.
    fn check_duplicate_names(&self, report: &mut LintReport) {
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for (_, name, _) in self.ckt.elements() {
            *seen.entry(name).or_insert(0) += 1;
        }
        for (name, count) in seen {
            if count > 1 {
                let sev = self.severity(LintCode::DuplicateElementName);
                self.emit(
                    report,
                    LintCode::DuplicateElementName,
                    sev,
                    vec![name.to_owned()],
                    format!("element name '{name}' is used {count} times"),
                    Some("rename the duplicates; probes and sweeps address elements by name"),
                );
            }
        }
    }
}

/// Union-find over node indices.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the components of two roots, returning the surviving root.
    fn union(&mut self, ra: usize, rb: usize) -> usize {
        self.parent[rb] = ra;
        ra
    }
}

/// Memoized pre-flight verdicts, stored on the [`Circuit`] itself.
///
/// Analyses that re-enter `preflight` on an unmodified circuit (a DC
/// sweep followed by a transient, a Monte-Carlo loop re-running the same
/// netlist) pay the full lint walk only once. Entries are keyed by the
/// circuit's mutation revision plus the [`LintContext`]; any mutation
/// bumps the revision, so stale verdicts simply never match and are
/// evicted on the next store.
///
/// The interior mutex makes the cache usable from `&Circuit` (analyses
/// only hold shared references) and keeps `Circuit: Sync` for the sweep
/// drivers. Two threads racing on a cold cache both compute the verdict
/// and one store wins — wasted work, never a wrong answer.
pub(crate) struct LintCache {
    /// `(revision, context, deny-level violations)`; empty vec = clean.
    entries: Mutex<Vec<(u64, LintContext, Vec<String>)>>,
}

impl LintCache {
    fn lookup(&self, revision: u64, context: LintContext) -> Option<Vec<String>> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries
            .iter()
            .find(|(rev, ctx, _)| *rev == revision && *ctx == context)
            .map(|(_, _, v)| v.clone())
    }

    fn store(&self, revision: u64, context: LintContext, violations: Vec<String>) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        // Verdicts for older revisions can never match again; drop them.
        entries.retain(|(rev, ctx, _)| *rev == revision && *ctx != context);
        entries.push((revision, context, violations));
    }

    /// Number of live entries (test observability).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl Default for LintCache {
    fn default() -> Self {
        LintCache {
            entries: Mutex::new(Vec::new()),
        }
    }
}

// Manual impls: `Circuit` derives Clone/Debug and a `Mutex` supports
// neither. Cloning carries the verdicts over (the clone starts at the
// same revision with identical contents, so they remain valid).
impl Clone for LintCache {
    fn clone(&self) -> Self {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        LintCache {
            entries: Mutex::new(entries.clone()),
        }
    }
}

impl std::fmt::Debug for LintCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("LintCache")
            .field("entries", &entries.len())
            .finish()
    }
}

/// Runs the lints and refuses with [`Error::LintRejected`] if any
/// deny-level diagnostic is present. Used by every analysis entry point.
///
/// Verdicts are memoized per circuit revision and context in the
/// circuit's [`LintCache`], so repeated analyses on an unmodified
/// netlist lint once.
pub(crate) fn preflight(
    circuit: &Circuit,
    analysis: &'static str,
    context: LintContext,
) -> Result<(), Error> {
    let revision = circuit.revision();
    let violations = circuit
        .lint_cache()
        .lookup(revision, context)
        .unwrap_or_else(|| {
            let report = lint_with(circuit, circuit.lint_config(), context);
            let violations: Vec<String> = report.denials().map(|d| d.to_string()).collect();
            circuit
                .lint_cache()
                .store(revision, context, violations.clone());
            violations
        });
    if violations.is_empty() {
        Ok(())
    } else {
        Err(Error::LintRejected {
            analysis,
            violations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    fn codes(report: &LintReport) -> Vec<LintCode> {
        report.diagnostics().iter().map(|d| d.code).collect()
    }

    fn rc_divider() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor("R1", a, b, 1e3);
        ckt.capacitor("C1", b, Circuit::GND, 1e-12);
        ckt.resistor("R2", b, Circuit::GND, 1e3);
        ckt
    }

    #[test]
    fn clean_circuit_is_clean() {
        let report = lint(&rc_divider());
        assert!(report.is_clean(), "unexpected: {report}");
    }

    #[test]
    fn preflight_memoizes_per_revision_and_context() {
        let ckt = rc_divider();
        assert_eq!(ckt.lint_cache().len(), 0);
        preflight(&ckt, "dc", LintContext::Dc).unwrap();
        assert_eq!(ckt.lint_cache().len(), 1);
        // Second run at the same revision reuses the verdict: still one
        // entry, and it must agree.
        preflight(&ckt, "dc", LintContext::Dc).unwrap();
        assert_eq!(ckt.lint_cache().len(), 1);
        // A different context is a distinct verdict at the same revision.
        preflight(&ckt, "transient", LintContext::TransientUic).unwrap();
        assert_eq!(ckt.lint_cache().len(), 2);
    }

    #[test]
    fn preflight_cache_invalidated_by_mutation() {
        let mut ckt = rc_divider();
        let src = ckt.find_element("V1").unwrap();
        preflight(&ckt, "dc", LintContext::Dc).unwrap();
        assert_eq!(ckt.lint_cache().len(), 1);
        // Swapping the waveform to a NaN value must flip the verdict —
        // the lint inspects the t=0 source value, so a stale cached
        // "clean" would wrongly admit the broken netlist.
        ckt.set_waveform(src, Waveform::dc(f64::NAN)).unwrap();
        let err = preflight(&ckt, "dc", LintContext::Dc).unwrap_err();
        assert!(matches!(err, Error::LintRejected { analysis: "dc", .. }));
        // Old-revision entries are evicted on store.
        assert_eq!(ckt.lint_cache().len(), 1);
        // Restoring the waveform restores the clean verdict.
        ckt.set_waveform(src, Waveform::dc(1.0)).unwrap();
        preflight(&ckt, "dc", LintContext::Dc).unwrap();
        assert_eq!(ckt.lint_cache().len(), 1);
    }

    #[test]
    fn preflight_cache_invalidated_by_lint_config_mutation() {
        let mut ckt = rc_divider();
        let b = ckt.node("b");
        ckt.resistor("Rshort", b, b, 1e3); // warn by default: preflight passes
        preflight(&ckt, "dc", LintContext::Dc).unwrap();
        assert_eq!(ckt.lint_cache().len(), 1);
        // Escalating a severity after a memoized clean verdict must
        // invalidate it — the same netlist is now supposed to be rejected.
        ckt.lint_config_mut()
            .set_severity(LintCode::ShortedElement, Severity::Deny);
        let err = preflight(&ckt, "dc", LintContext::Dc).unwrap_err();
        assert!(matches!(err, Error::LintRejected { analysis: "dc", .. }));
        // And relaxing it back re-admits the circuit.
        ckt.lint_config_mut()
            .set_severity(LintCode::ShortedElement, Severity::Allow);
        preflight(&ckt, "dc", LintContext::Dc).unwrap();
    }

    #[test]
    fn lint_cache_survives_clone() {
        let ckt = rc_divider();
        preflight(&ckt, "dc", LintContext::Dc).unwrap();
        let copy = ckt.clone();
        // The clone starts with the verdicts carried over and still valid.
        assert_eq!(copy.lint_cache().len(), 1);
        preflight(&copy, "dc", LintContext::Dc).unwrap();
        assert_eq!(copy.lint_cache().len(), 1);
    }

    #[test]
    fn empty_circuit_denied() {
        let report = lint(&Circuit::new());
        assert_eq!(codes(&report), vec![LintCode::EmptyCircuit]);
        assert!(report.has_denials());
    }

    #[test]
    fn unused_node_denied() {
        let mut ckt = rc_divider();
        ckt.node("orphan");
        let report = lint(&ckt);
        assert_eq!(codes(&report), vec![LintCode::UnusedNode]);
        assert_eq!(report.diagnostics()[0].elements, vec!["orphan"]);
    }

    #[test]
    fn detached_island_denied() {
        let mut ckt = rc_divider();
        let x = ckt.node("x");
        let y = ckt.node("y");
        ckt.resistor("Risland", x, y, 1e3);
        let report = lint(&ckt);
        assert_eq!(codes(&report), vec![LintCode::FloatingNode; 2]);
        assert!(report.diagnostics()[0]
            .message
            .contains("not connected to ground"));
    }

    #[test]
    fn current_source_cutset_denied() {
        let mut ckt = rc_divider();
        let z = ckt.node("z");
        ckt.isource("I1", Circuit::GND, z, Waveform::dc(1e-6));
        ckt.isource("I2", z, Circuit::GND, Waveform::dc(1e-6));
        let report = lint(&ckt);
        assert_eq!(codes(&report), vec![LintCode::CurrentSourceCutset]);
        let d = &report.diagnostics()[0];
        assert!(d.elements.contains(&"I1".to_owned()));
        assert!(d.elements.contains(&"I2".to_owned()));
    }

    #[test]
    fn isource_with_parallel_resistor_is_fine() {
        let mut ckt = rc_divider();
        let z = ckt.node("z");
        ckt.isource("I1", Circuit::GND, z, Waveform::dc(1e-6));
        ckt.resistor("Rpar", z, Circuit::GND, 1e6);
        assert!(lint(&ckt).is_clean());
    }

    #[test]
    fn voltage_source_loop_denied() {
        let mut ckt = rc_divider();
        let a = ckt.node("a");
        ckt.vsource("V2", a, Circuit::GND, Waveform::dc(2.0));
        let report = lint(&ckt);
        assert_eq!(codes(&report), vec![LintCode::VoltageSourceLoop]);
        let d = &report.diagnostics()[0];
        assert!(d.elements.contains(&"V1".to_owned()));
        assert!(d.elements.contains(&"V2".to_owned()));
    }

    #[test]
    fn shorted_vsource_is_a_self_loop() {
        let mut ckt = rc_divider();
        let a = ckt.node("a");
        ckt.vsource("Vshort", a, a, Waveform::dc(1.0));
        let report = lint(&ckt);
        assert!(codes(&report).contains(&LintCode::VoltageSourceLoop));
        assert!(codes(&report).contains(&LintCode::ShortedElement));
    }

    #[test]
    fn inductor_across_vsource_denied_for_dc() {
        let mut ckt = rc_divider();
        let a = ckt.node("a");
        ckt.inductor("L1", a, Circuit::GND, 1e-6);
        let report = lint(&ckt);
        assert_eq!(codes(&report), vec![LintCode::InductorVoltageLoop]);
    }

    #[test]
    fn inductor_loop_downgraded_under_uic() {
        let mut ckt = rc_divider();
        let a = ckt.node("a");
        ckt.inductor("L1", a, Circuit::GND, 1e-6);
        let report = lint_with(&ckt, &LintConfig::new(), LintContext::TransientUic);
        assert!(!report.has_denials());
        assert_eq!(report.warnings().count(), 1);
        // ...unless the user explicitly configured the code.
        let cfg = LintConfig::new().deny(LintCode::InductorVoltageLoop);
        let report = lint_with(&ckt, &cfg, LintContext::TransientUic);
        assert!(report.has_denials());
    }

    #[test]
    fn cap_only_node_has_no_dc_path() {
        let mut ckt = rc_divider();
        let b = ckt.node("b");
        let c = ckt.node("c");
        ckt.capacitor("Cc", b, c, 1e-12);
        ckt.capacitor("Cg", c, Circuit::GND, 1e-12);
        let report = lint(&ckt);
        assert_eq!(codes(&report), vec![LintCode::NoDcPathToGround]);
        assert!(report.has_denials());
        // Under UIC the capacitor companions conduct: warning only.
        let report = lint_with(&ckt, &LintConfig::new(), LintContext::TransientUic);
        assert!(!report.has_denials());
        assert_eq!(report.warnings().count(), 1);
    }

    #[test]
    fn floating_mosfet_gate_detected() {
        let mut ckt = rc_divider();
        let a = ckt.node("a");
        let gate = ckt.node("gate");
        ckt.mosfet(
            "M1",
            a,
            gate,
            Circuit::GND,
            crate::elements::MosParams::nmos(1e-6, 1e-6),
        );
        let report = lint(&ckt);
        assert_eq!(codes(&report), vec![LintCode::NoDcPathToGround]);
        // A floating gate stays broken even under UIC: no capacitor
        // companion will ever pin it.
        let report = lint_with(&ckt, &LintConfig::new(), LintContext::TransientUic);
        assert!(report.has_denials());
    }

    #[test]
    fn nan_parameter_denied() {
        let mut ckt = rc_divider();
        let b = ckt.node("b");
        ckt.capacitor_with_ic("Cbad", b, Circuit::GND, 1e-12, f64::NAN);
        let report = lint(&ckt);
        assert_eq!(codes(&report), vec![LintCode::NonFiniteParameter]);
        assert_eq!(report.diagnostics()[0].elements, vec!["Cbad"]);
    }

    #[test]
    fn unit_mistake_warned() {
        let mut ckt = rc_divider();
        let b = ckt.node("b");
        ckt.resistor("Rtiny", b, Circuit::GND, 1e-9);
        ckt.capacitor("Chuge", b, Circuit::GND, 3.0);
        let report = lint(&ckt);
        assert!(!report.has_denials());
        assert_eq!(report.warnings().count(), 2);
    }

    #[test]
    fn shorted_resistor_warned() {
        let mut ckt = rc_divider();
        let b = ckt.node("b");
        ckt.resistor("Rshort", b, b, 1e3);
        let report = lint(&ckt);
        assert_eq!(codes(&report), vec![LintCode::ShortedElement]);
        assert!(!report.has_denials());
    }

    #[test]
    fn config_overrides_are_respected() {
        let mut ckt = rc_divider();
        let b = ckt.node("b");
        ckt.resistor("Rshort", b, b, 1e3);
        let cfg = LintConfig::new().allow(LintCode::ShortedElement);
        assert!(lint_with(&ckt, &cfg, LintContext::Dc).is_clean());
        let cfg = LintConfig::new().deny(LintCode::ShortedElement);
        assert!(lint_with(&ckt, &cfg, LintContext::Dc).has_denials());
    }

    #[test]
    fn denials_sort_before_warnings() {
        let mut ckt = rc_divider();
        let b = ckt.node("b");
        ckt.resistor("Rshort", b, b, 1e3); // warn
        ckt.node("orphan"); // deny
        let report = lint(&ckt);
        assert_eq!(report.diagnostics()[0].severity, Severity::Deny);
        assert_eq!(
            report.diagnostics().last().unwrap().severity,
            Severity::Warn
        );
    }

    #[test]
    fn preflight_formats_violations() {
        let mut ckt = Circuit::new();
        let x = ckt.node("x");
        let y = ckt.node("y");
        ckt.resistor("R1", x, y, 1e3);
        let err = preflight(&ckt, "dc", LintContext::Dc).unwrap_err();
        match err {
            Error::LintRejected {
                analysis,
                violations,
            } => {
                assert_eq!(analysis, "dc");
                assert!(violations.iter().any(|v| v.contains("MS002")));
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }
}
