//! Static verification: structural solvability of MNA systems and
//! soundness proofs for compiled stamp plans.
//!
//! Two independent analyses live here, both purely static — neither ever
//! evaluates a device model or factors a matrix:
//!
//! **Structural solvability (MS020-series lints).** From the sparsity
//! pattern the circuit induces on its MNA system (no numerics), a maximum
//! bipartite matching between equations and unknowns decides whether the
//! matrix can be nonsingular for *any* element values; a
//! Dulmage–Mendelsohn coarse decomposition then names the
//! under-determined unknowns and over-determined equations. Two companion
//! passes catch what the pattern alone cannot: cycles of voltage-defining
//! branches (whose ±1 incidence columns are linearly dependent even
//! though the pattern admits a perfect matching), and matched diagonal
//! blocks whose statically-known stamp magnitudes span so many decades
//! that LU pivoting is predictably fragile. The findings surface through
//! the ordinary lint machinery as MS020/MS021/MS022 (see
//! [`crate::lint`]), so every analysis pre-flights them.
//!
//! The pattern is *cancellation-aware*: contributions that provably sum
//! to exactly zero at a matrix entry (a resistor with both terminals on
//! one node, a VCVS output shorted to itself, a unit-gain VCVS
//! controlling itself) are dropped, and devices whose stamps always
//! cancel (a MOSFET with drain tied to source) are skipped, so the
//! matching sees the entries that can actually be nonzero. The soundness
//! direction is one-way by construction: an entry is dropped only when it
//! is zero for *every* valuation, so a failed matching proves the matrix
//! singular for all numerics — MS020 never denies a solvable circuit.
//!
//! **Plan verification (PL001-series).** An abstract interpreter over the
//! flat stamp programs of `crate::analysis::plan` proves four
//! properties per compiled plan: every pre-resolved index is in bounds
//! (PL001), no atom reads a value from a tier more dynamic than its own
//! (PL002), every value array a plan reads contributes to the bitwise
//! cache identity (PL003), and the multiset of write destinations equals
//! the reference assembler's stamp footprint (PL004). The verifier runs
//! automatically at plan-compile time under `debug_assertions`, over
//! every shipped circuit via `repro verify`, and on demand through
//! [`verify_circuit`].

use std::collections::HashMap;

use crate::analysis::mna::MnaLayout;
use crate::analysis::plan::{IterOp, PlanMode, StampPlan, ValRef};
use crate::elements::Element;
use crate::lint::{self, LintCode, LintContext, LintReport};
use crate::netlist::{Circuit, NodeId};

/// Conditioning span (max/min statically-known stamp magnitude within one
/// matched block) beyond which MS022 warns. Partial-pivoting LU loses
/// roughly `log10(span)` digits in the worst case; 12 decades leaves only
/// a few significant digits in an f64 solve. [`crate::analyze`] reuses the
/// same limit for its certified MS033 bound so the heuristic and the
/// certificate stay in lockstep.
pub(crate) const CONDITIONING_SPAN_LIMIT: f64 = 1e12;

// ---------------------------------------------------------------------------
// Structural solvability (MS020/MS021/MS022)
// ---------------------------------------------------------------------------

/// One MS020-series finding, ready for [`crate::lint`] to wrap in a
/// [`Diagnostic`](crate::lint::Diagnostic) with the configured severity.
pub(crate) struct StructuralFinding {
    pub code: LintCode,
    pub elements: Vec<String>,
    pub message: String,
    pub suggestion: Option<String>,
}

/// One merged entry of the cancellation-aware sparsity pattern.
#[derive(Clone, Copy, Default)]
struct PatternEntry {
    /// Exact sum of the statically-known contributions.
    static_sum: f64,
    /// Whether any contribution's value is only known at run time.
    dynamic: bool,
}

/// The cancellation-aware MNA sparsity pattern for one circuit/context.
struct StampPattern {
    n: usize,
    entries: HashMap<(usize, usize), PatternEntry>,
}

impl StampPattern {
    fn build(ckt: &Circuit, layout: &MnaLayout, ctx: LintContext) -> Self {
        let n = layout.size();
        let mut entries: HashMap<(usize, usize), PatternEntry> = HashMap::new();
        fn add_static(
            entries: &mut HashMap<(usize, usize), PatternEntry>,
            r: usize,
            c: usize,
            v: f64,
        ) {
            entries.entry((r, c)).or_default().static_sum += v;
        }
        // Four-entry conductance footprint with a run-time value: the
        // entries exist whenever the terminals are distinct and ungrounded.
        let mark_g4 = |entries: &mut HashMap<(usize, usize), PatternEntry>,
                       ra: Option<usize>,
                       rb: Option<usize>| {
            for (r, c) in [(ra, ra), (ra, rb), (rb, rb), (rb, ra)] {
                if let (Some(r), Some(c)) = (r, c) {
                    entries.entry((r, c)).or_default().dynamic = true;
                }
            }
        };
        let row = |node: NodeId| layout.node_row(node);

        for (idx, (_, _, e)) in ckt.elements().enumerate() {
            match *e {
                Element::Resistor { a, b, ohms } => {
                    let g = 1.0 / ohms;
                    let (ra, rb) = (row(a), row(b));
                    for (r, c, v) in [(ra, ra, g), (ra, rb, -g), (rb, rb, g), (rb, ra, -g)] {
                        if let (Some(r), Some(c)) = (r, c) {
                            add_static(&mut entries, r, c, v);
                        }
                    }
                }
                Element::Capacitor { a, b, .. } => {
                    // DC: the gmin leak; transient: the companion geq. Both
                    // are run-time values, and both cancel identically when
                    // the terminals coincide — skip the shorted case so the
                    // always-zero entries never reach the matching.
                    if a != b {
                        mark_g4(&mut entries, row(a), row(b));
                    }
                }
                Element::Inductor { a, b, .. } => {
                    let br = layout.branch_row(layout.branch_of[idx].expect("inductor branch"));
                    let (ra, rb) = (row(a), row(b));
                    for (r, v) in [(ra, 1.0), (rb, -1.0)] {
                        if let Some(r) = r {
                            add_static(&mut entries, r, br, v);
                        }
                    }
                    match ctx {
                        LintContext::Dc => {
                            // Ideal short: v(a) − v(b) = 0.
                            for (c, v) in [(ra, 1.0), (rb, -1.0)] {
                                if let Some(c) = c {
                                    add_static(&mut entries, br, c, v);
                                }
                            }
                        }
                        LintContext::TransientUic => {
                            // Companion: i − geq·(v(a)−v(b)) = ieq.
                            add_static(&mut entries, br, br, 1.0);
                            if a != b {
                                for c in [ra, rb].into_iter().flatten() {
                                    entries.entry((br, c)).or_default().dynamic = true;
                                }
                            }
                        }
                    }
                }
                Element::VoltageSource { pos, neg, .. } | Element::Vcvs { p: pos, n: neg, .. } => {
                    let br = layout.branch_row(layout.branch_of[idx].expect("source branch"));
                    let (rp, rn) = (row(pos), row(neg));
                    for (nd, v) in [(rp, 1.0), (rn, -1.0)] {
                        if let Some(nd) = nd {
                            add_static(&mut entries, nd, br, v);
                            add_static(&mut entries, br, nd, v);
                        }
                    }
                    if let Element::Vcvs { cp, cn, gain, .. } = *e {
                        for (c, v) in [(row(cp), -gain), (row(cn), gain)] {
                            if let Some(c) = c {
                                add_static(&mut entries, br, c, v);
                            }
                        }
                    }
                }
                Element::CurrentSource { .. } => {
                    // rhs only; no matrix footprint.
                }
                Element::Mosfet { d, g, s, .. } => {
                    // All six linearisation entries plus the channel gmin
                    // cancel exactly when d == s; otherwise mark them
                    // dynamic (their values follow the operating point).
                    if d != s {
                        let (rd, rg, rs) = (row(d), row(g), row(s));
                        for (r, c) in [(rd, rd), (rd, rg), (rd, rs), (rs, rd), (rs, rg), (rs, rs)] {
                            if let (Some(r), Some(c)) = (r, c) {
                                entries.entry((r, c)).or_default().dynamic = true;
                            }
                        }
                    }
                }
                Element::Switch { a, b, .. } => {
                    if a != b {
                        mark_g4(&mut entries, row(a), row(b));
                    }
                }
                Element::Diode { a, k, .. } => {
                    if a != k {
                        mark_g4(&mut entries, row(a), row(k));
                    }
                }
                Element::Vccs {
                    from,
                    to,
                    cp,
                    cn,
                    gm,
                } => {
                    let (rcp, rcn) = (row(cp), row(cn));
                    for (r, c, v) in [
                        (row(to), rcp, -gm),
                        (row(to), rcn, gm),
                        (row(from), rcp, gm),
                        (row(from), rcn, -gm),
                    ] {
                        if let (Some(r), Some(c)) = (r, c) {
                            add_static(&mut entries, r, c, v);
                        }
                    }
                }
            }
        }

        // Drop entries whose contributions are all static and sum to
        // exactly zero: they are zero for every valuation, so keeping
        // them would hide genuine structural singularity.
        entries.retain(|_, e| e.dynamic || e.static_sum != 0.0);
        StampPattern { n, entries }
    }

    /// Per-column row lists, sorted for deterministic reports.
    fn column_adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.n];
        for &(r, c) in self.entries.keys() {
            adj[c].push(r);
        }
        for rows in &mut adj {
            rows.sort_unstable();
        }
        adj
    }
}

/// Maximum bipartite matching (augmenting-path search) between columns
/// (unknowns) and rows (equations). Returns `(row_of_col, col_of_row)`.
fn max_matching(n: usize, col_adj: &[Vec<usize>]) -> (Vec<Option<usize>>, Vec<Option<usize>>) {
    let mut row_of_col: Vec<Option<usize>> = vec![None; n];
    let mut col_of_row: Vec<Option<usize>> = vec![None; n];

    fn try_augment(
        c: usize,
        col_adj: &[Vec<usize>],
        visited: &mut [bool],
        row_of_col: &mut [Option<usize>],
        col_of_row: &mut [Option<usize>],
    ) -> bool {
        for &r in &col_adj[c] {
            if visited[r] {
                continue;
            }
            visited[r] = true;
            let free = match col_of_row[r] {
                None => true,
                Some(c2) => try_augment(c2, col_adj, visited, row_of_col, col_of_row),
            };
            if free {
                row_of_col[c] = Some(r);
                col_of_row[r] = Some(c);
                return true;
            }
        }
        false
    }

    let mut visited = vec![false; n];
    for c in 0..n {
        visited.fill(false);
        try_augment(c, col_adj, &mut visited, &mut row_of_col, &mut col_of_row);
    }
    (row_of_col, col_of_row)
}

/// Dulmage–Mendelsohn coarse decomposition from a maximum matching: the
/// horizontal part (columns/rows reachable from unmatched columns by
/// alternating paths) is under-determined, the vertical part (reachable
/// from unmatched rows) is over-determined. With a perfect matching both
/// are empty and only the square part remains.
struct DmCoarse {
    /// Unknowns in the under-determined (horizontal) part.
    under_cols: Vec<usize>,
    /// Equations in the over-determined (vertical) part.
    over_rows: Vec<usize>,
}

fn dm_coarse(
    n: usize,
    col_adj: &[Vec<usize>],
    row_of_col: &[Option<usize>],
    col_of_row: &[Option<usize>],
) -> DmCoarse {
    // Row adjacency (row → columns with an entry) for the vertical sweep.
    let mut row_adj = vec![Vec::new(); n];
    for (c, rows) in col_adj.iter().enumerate() {
        for &r in rows {
            row_adj[r].push(c);
        }
    }

    // Horizontal: start from unmatched columns; col → row via any entry,
    // row → col via its matching edge.
    let mut col_in_h = vec![false; n];
    let mut row_in_h = vec![false; n];
    let mut stack: Vec<usize> = (0..n).filter(|&c| row_of_col[c].is_none()).collect();
    for &c in &stack {
        col_in_h[c] = true;
    }
    while let Some(c) = stack.pop() {
        for &r in &col_adj[c] {
            if row_in_h[r] {
                continue;
            }
            row_in_h[r] = true;
            if let Some(c2) = col_of_row[r] {
                if !col_in_h[c2] {
                    col_in_h[c2] = true;
                    stack.push(c2);
                }
            }
        }
    }

    // Vertical: start from unmatched rows; row → col via any entry,
    // col → row via its matching edge.
    let mut row_in_v = vec![false; n];
    let mut col_in_v = vec![false; n];
    let mut stack: Vec<usize> = (0..n).filter(|&r| col_of_row[r].is_none()).collect();
    for &r in &stack {
        row_in_v[r] = true;
    }
    while let Some(r) = stack.pop() {
        for &c in &row_adj[r] {
            if col_in_v[c] {
                continue;
            }
            col_in_v[c] = true;
            if let Some(r2) = row_of_col[c] {
                if !row_in_v[r2] {
                    row_in_v[r2] = true;
                    stack.push(r2);
                }
            }
        }
    }

    DmCoarse {
        under_cols: (0..n).filter(|&c| col_in_h[c]).collect(),
        over_rows: (0..n).filter(|&r| row_in_v[r]).collect(),
    }
}

/// Human name of unknown (column) `c`: a node voltage or a branch current.
fn unknown_name(ckt: &Circuit, layout: &MnaLayout, c: usize) -> String {
    let node_rows = layout.n_nodes - 1;
    if c < node_rows {
        format!("v({})", ckt.node_name(NodeId(c + 1)))
    } else {
        let b = c - node_rows;
        for (idx, (_, name, _)) in ckt.elements().enumerate() {
            if layout.branch_of[idx] == Some(b) {
                return format!("i({name})");
            }
        }
        format!("i(branch {b})")
    }
}

/// Human name of equation (row) `r`: a node's KCL or a branch constraint.
fn equation_name(ckt: &Circuit, layout: &MnaLayout, r: usize) -> String {
    let node_rows = layout.n_nodes - 1;
    if r < node_rows {
        format!("KCL@{}", ckt.node_name(NodeId(r + 1)))
    } else {
        let b = r - node_rows;
        for (idx, (_, name, _)) in ckt.elements().enumerate() {
            if layout.branch_of[idx] == Some(b) {
                return format!("branch({name})");
            }
        }
        format!("branch {b}")
    }
}

/// MS021: union-find over voltage-defining edges. Independent sources
/// (and, at DC, inductors) are merged silently first — cycles among them
/// are MS005/MS006's diagnoses and gate this pass anyway — then each VCVS
/// output edge that closes a cycle is reported: the cycle's ±1 incidence
/// columns sum to zero, so the system is singular despite a perfect
/// pattern matching.
fn check_voltage_constraint_cycles(
    ckt: &Circuit,
    ctx: LintContext,
    findings: &mut Vec<StructuralFinding>,
) {
    let mut parent: Vec<usize> = (0..ckt.node_count()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut members: HashMap<usize, Vec<String>> = HashMap::new();

    // Silent pass: independent voltage constraints.
    for (_, name, e) in ckt.elements() {
        let edge = match *e {
            Element::VoltageSource { pos, neg, .. } => Some((pos.index(), neg.index())),
            // Inductors are ideal shorts only in the DC system; transient
            // companions give their branch column a diagonal entry, which
            // breaks the incidence-cycle dependency.
            Element::Inductor { a, b, .. } if ctx == LintContext::Dc => {
                Some((a.index(), b.index()))
            }
            _ => None,
        };
        let Some((u, v)) = edge else { continue };
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru == rv {
            continue; // MS005/MS006 territory.
        }
        parent[rv] = ru;
        let mut merged = members.remove(&ru).unwrap_or_default();
        merged.extend(members.remove(&rv).unwrap_or_default());
        merged.push(name.to_owned());
        members.insert(ru, merged);
    }

    // Reporting pass: VCVS output edges.
    for (_, name, e) in ckt.elements() {
        let Element::Vcvs { p, n, .. } = *e else {
            continue;
        };
        let (ru, rv) = (find(&mut parent, p.index()), find(&mut parent, n.index()));
        if ru == rv {
            let mut cycle = members.get(&ru).cloned().unwrap_or_default();
            cycle.push(name.to_owned());
            findings.push(StructuralFinding {
                code: LintCode::DependentVoltageConstraints,
                elements: cycle.clone(),
                message: format!(
                    "'{name}' closes a cycle of voltage-defining branches ({}); \
                     their branch-current columns are linearly dependent",
                    cycle.join(", ")
                ),
                suggestion: Some(
                    "break the cycle with a series resistance, or remove the redundant \
                     controlled source"
                        .to_owned(),
                ),
            });
            continue;
        }
        parent[rv] = ru;
        let mut merged = members.remove(&ru).unwrap_or_default();
        merged.extend(members.remove(&rv).unwrap_or_default());
        merged.push(name.to_owned());
        members.insert(ru, merged);
    }
}

/// MS022: Tarjan SCC over the matched-column digraph (edge `c → c'` when
/// column `c`'s matched row has an entry in column `c'`), then per
/// diagonal block the span of statically-known stamp magnitudes. Only
/// static values participate — device linearisations and companion terms
/// are operating-point dependent and would make the span meaningless.
fn check_conditioning(
    ckt: &Circuit,
    layout: &MnaLayout,
    pattern: &StampPattern,
    row_of_col: &[Option<usize>],
    findings: &mut Vec<StructuralFinding>,
) {
    let n = pattern.n;
    // Matched-column digraph.
    let mut adj = vec![Vec::new(); n];
    for (c, r) in row_of_col.iter().enumerate() {
        let r = r.expect("conditioning runs only on perfect matchings");
        for c2 in 0..n {
            if c2 != c && pattern.entries.contains_key(&(r, c2)) {
                adj[c].push(c2);
            }
        }
    }

    // Iterative Tarjan.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut call: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        call.push((start, 0));
        while let Some(&mut (v, ref mut ei)) = call.last_mut() {
            if *ei == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ei < adj[v].len() {
                let w = adj[v][*ei];
                *ei += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }

    for scc in sccs {
        let in_scc: Vec<bool> = {
            let mut m = vec![false; n];
            for &c in &scc {
                m[c] = true;
            }
            m
        };
        let mut min_mag = f64::INFINITY;
        let mut max_mag = 0.0f64;
        let mut count = 0usize;
        for &c in &scc {
            let r = row_of_col[c].expect("perfect matching");
            for &c2 in &scc {
                if let Some(e) = pattern.entries.get(&(r, c2)) {
                    if e.dynamic || !in_scc[c2] {
                        continue;
                    }
                    let mag = e.static_sum.abs();
                    if mag > 0.0 {
                        min_mag = min_mag.min(mag);
                        max_mag = max_mag.max(mag);
                        count += 1;
                    }
                }
            }
        }
        if count >= 2 && max_mag / min_mag > CONDITIONING_SPAN_LIMIT {
            let names: Vec<String> = scc.iter().map(|&c| unknown_name(ckt, layout, c)).collect();
            findings.push(StructuralFinding {
                code: LintCode::IllConditionedBlock,
                elements: names.clone(),
                message: format!(
                    "matched block {{{}}} spans {:.1} decades of stamp magnitude \
                     (|max| = {max_mag:.3e}, |min| = {min_mag:.3e}); LU pivoting will \
                     lose that many digits in the worst case",
                    names.join(", "),
                    (max_mag / min_mag).log10()
                ),
                suggestion: Some(
                    "rescale the extreme element values, or split the block with an \
                     explicit intermediate node"
                        .to_owned(),
                ),
            });
        }
    }
}

/// Runs the MS020-series structural passes over `ckt` for `ctx`.
///
/// Called by the lint engine once the MS001–MS011 topology lints found no
/// denials (a floating node already explains a singular matrix better
/// than an unmatched pattern column would).
pub(crate) fn structural_lint(ckt: &Circuit, ctx: LintContext) -> Vec<StructuralFinding> {
    let mut findings = Vec::new();
    let layout = MnaLayout::new(ckt);
    if layout.size() == 0 {
        return findings;
    }

    let pattern = StampPattern::build(ckt, &layout, ctx);
    let col_adj = pattern.column_adjacency();
    let (row_of_col, col_of_row) = max_matching(pattern.n, &col_adj);
    let deficiency = row_of_col.iter().filter(|m| m.is_none()).count();

    if deficiency > 0 {
        let dm = dm_coarse(pattern.n, &col_adj, &row_of_col, &col_of_row);
        let under: Vec<String> = dm
            .under_cols
            .iter()
            .map(|&c| unknown_name(ckt, &layout, c))
            .collect();
        let over: Vec<String> = dm
            .over_rows
            .iter()
            .map(|&r| equation_name(ckt, &layout, r))
            .collect();
        let mut parts = vec![format!(
            "the MNA system is structurally singular for every choice of element values \
             ({deficiency} of {} unknowns cannot be matched to an equation)",
            pattern.n
        )];
        if !under.is_empty() {
            parts.push(format!("under-determined: {}", under.join(", ")));
        }
        if !over.is_empty() {
            parts.push(format!("over-determined: {}", over.join(", ")));
        }
        let mut elements = under;
        elements.extend(over);
        findings.push(StructuralFinding {
            code: LintCode::StructurallySingular,
            elements,
            message: parts.join("; "),
            suggestion: Some(
                "every unknown needs an equation that can pin it: give the named nodes a \
                 current path and the named constraints an independent degree of freedom"
                    .to_owned(),
            ),
        });
    } else {
        check_conditioning(ckt, &layout, &pattern, &row_of_col, &mut findings);
    }

    check_voltage_constraint_cycles(ckt, ctx, &mut findings);
    findings
}

// ---------------------------------------------------------------------------
// Plan verification (PL001–PL004)
// ---------------------------------------------------------------------------

/// Identifies one class of compiled-plan defect proved by the verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PlanCode {
    /// PL001: a pre-resolved matrix index, rhs row, device terminal row or
    /// value-slot index is out of bounds for the layout the plan claims to
    /// target.
    IndexOutOfBounds,
    /// PL002: an atom reads a value array from a tier more dynamic than
    /// the one it is placed in — e.g. a per-solve source value baked into
    /// the cached base matrix, whose identity key does not cover it.
    TierViolation,
    /// PL003: a value array the plan reads does not contribute to the
    /// bitwise cache identity (a device read row missing from
    /// `dyn_reads`, a companion slot count that disagrees with the
    /// layout, or a source list that diverges from the circuit). A gap
    /// here is a silent wrong-answer bug, not a performance bug.
    CacheKeyGap,
    /// PL004: the multiset of (row, col) / rhs-row write destinations the
    /// plan produces differs from the reference assembler's stamp
    /// footprint for the same circuit and mode.
    FootprintMismatch,
}

impl PlanCode {
    /// Stable short identifier, e.g. `"PL001"`.
    pub fn id(self) -> &'static str {
        match self {
            PlanCode::IndexOutOfBounds => "PL001",
            PlanCode::TierViolation => "PL002",
            PlanCode::CacheKeyGap => "PL003",
            PlanCode::FootprintMismatch => "PL004",
        }
    }

    /// Human-readable kebab-case name, e.g. `"tier-violation"`.
    pub fn name(self) -> &'static str {
        match self {
            PlanCode::IndexOutOfBounds => "index-out-of-bounds",
            PlanCode::TierViolation => "tier-violation",
            PlanCode::CacheKeyGap => "cache-key-gap",
            PlanCode::FootprintMismatch => "footprint-mismatch",
        }
    }
}

impl std::fmt::Display for PlanCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.id(), self.name())
    }
}

/// One property violation found in a compiled stamp plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanViolation {
    /// Which soundness property is broken.
    pub code: PlanCode,
    /// What exactly is wrong, in terms of ops and indices.
    pub detail: String,
}

impl std::fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

/// `true` if `val` may live in the cached base tier without going stale
/// between base rebuilds. The base key covers gmin and the companion
/// `geq` bits, so those are safe there; source values and companion
/// history currents change per solve and are not part of the base key.
/// The rhs0 and iter tiers are refreshed every solve, so they admit any
/// value by construction.
fn base_tier_admits(val: ValRef) -> bool {
    matches!(
        val,
        ValRef::Const(_) | ValRef::Gmin { .. } | ValRef::CapGeq { .. } | ValRef::IndGeq { .. }
    )
}

/// Checks one [`ValRef`]'s slot indices and mode admissibility, pushing
/// PL001/PL002 violations as needed.
fn check_valref(val: ValRef, where_: &str, plan: &StampPlan, out: &mut Vec<PlanViolation>) {
    match val {
        ValRef::Const(_) | ValRef::Gmin { .. } => {}
        ValRef::CapGeq { slot, .. } | ValRef::CapIeq { slot, .. } => {
            if slot >= plan.n_cap_slots {
                out.push(PlanViolation {
                    code: PlanCode::IndexOutOfBounds,
                    detail: format!(
                        "{where_} reads capacitor slot {slot}, but the plan has only \
                         {} slots",
                        plan.n_cap_slots
                    ),
                });
            }
            if plan.mode == PlanMode::Dc {
                out.push(PlanViolation {
                    code: PlanCode::TierViolation,
                    detail: format!(
                        "{where_} reads a capacitor companion value in a DC-mode plan \
                         (no companion slice exists at solve time)"
                    ),
                });
            }
        }
        ValRef::IndGeq { slot, .. } | ValRef::IndIeq { slot } => {
            if slot >= plan.n_ind_slots {
                out.push(PlanViolation {
                    code: PlanCode::IndexOutOfBounds,
                    detail: format!(
                        "{where_} reads inductor slot {slot}, but the plan has only \
                         {} slots",
                        plan.n_ind_slots
                    ),
                });
            }
            if plan.mode == PlanMode::Dc {
                out.push(PlanViolation {
                    code: PlanCode::TierViolation,
                    detail: format!(
                        "{where_} reads an inductor companion value in a DC-mode plan \
                         (no companion slice exists at solve time)"
                    ),
                });
            }
        }
        ValRef::Src { src, .. } => {
            if src >= plan.sources.len() {
                out.push(PlanViolation {
                    code: PlanCode::IndexOutOfBounds,
                    detail: format!(
                        "{where_} reads source value {src}, but the plan lists only \
                         {} sources",
                        plan.sources.len()
                    ),
                });
            }
        }
    }
}

/// The write footprint of a plan or of the reference assembler: per
/// destination, how many additive contributions land there. `mat` is
/// keyed by flat index `row·n + col`, `rhs` by row.
#[derive(Default, PartialEq, Eq)]
struct Footprint {
    mat: HashMap<usize, u32>,
    rhs: HashMap<usize, u32>,
}

impl Footprint {
    fn mat_hit(&mut self, idx: usize) {
        *self.mat.entry(idx).or_insert(0) += 1;
    }
    fn rhs_hit(&mut self, row: usize) {
        *self.rhs.entry(row).or_insert(0) += 1;
    }
    /// Four-entry conductance footprint between two optional rows, in
    /// `stamp_conductance` order.
    fn cond4(&mut self, n: usize, ra: Option<usize>, rb: Option<usize>) {
        if let Some(ra) = ra {
            self.mat_hit(ra * n + ra);
            if let Some(rb) = rb {
                self.mat_hit(ra * n + rb);
            }
        }
        if let Some(rb) = rb {
            self.mat_hit(rb * n + rb);
            if let Some(ra) = ra {
                self.mat_hit(rb * n + ra);
            }
        }
    }
}

/// The stamp footprint `mna::assemble` produces for `ckt` in `mode`,
/// mirrored independently of the plan compiler (gshunt excluded on both
/// sides — it is a per-solve regularisation, not a circuit stamp). This
/// walker is the PL004 reference: it intentionally repeats the reference
/// assembler's structure rather than sharing code with the compiler it
/// checks.
fn reference_footprint(ckt: &Circuit, layout: &MnaLayout, mode: PlanMode) -> Footprint {
    let n = layout.size();
    let mut fp = Footprint::default();
    let row = |node: NodeId| layout.node_row(node);
    for (idx, (_, _, e)) in ckt.elements().enumerate() {
        match *e {
            Element::Resistor { a, b, .. } => fp.cond4(n, row(a), row(b)),
            Element::Capacitor { a, b, .. } => match mode {
                PlanMode::Tran => {
                    fp.cond4(n, row(a), row(b));
                    // stamp_current(b → a).
                    if let Some(ra) = row(a) {
                        fp.rhs_hit(ra);
                    }
                    if let Some(rb) = row(b) {
                        fp.rhs_hit(rb);
                    }
                }
                PlanMode::Dc => fp.cond4(n, row(a), row(b)),
            },
            Element::Inductor { a, b, .. } => {
                let br = layout.branch_row(layout.branch_of[idx].expect("inductor branch"));
                let (ra, rb) = (row(a), row(b));
                if let Some(ra) = ra {
                    fp.mat_hit(ra * n + br);
                }
                if let Some(rb) = rb {
                    fp.mat_hit(rb * n + br);
                }
                match mode {
                    PlanMode::Tran => {
                        fp.mat_hit(br * n + br);
                        if let Some(ra) = ra {
                            fp.mat_hit(br * n + ra);
                        }
                        if let Some(rb) = rb {
                            fp.mat_hit(br * n + rb);
                        }
                        fp.rhs_hit(br);
                    }
                    PlanMode::Dc => {
                        if let Some(ra) = ra {
                            fp.mat_hit(br * n + ra);
                        }
                        if let Some(rb) = rb {
                            fp.mat_hit(br * n + rb);
                        }
                        // The assembler writes rhs[br] = 0.0 here; a zero
                        // store on a zeroed rhs contributes nothing, and
                        // the plan rightly emits no atom for it.
                    }
                }
            }
            Element::VoltageSource { pos, neg, .. } => {
                let br = layout.branch_row(layout.branch_of[idx].expect("vsource branch"));
                if let Some(rp) = row(pos) {
                    fp.mat_hit(rp * n + br);
                    fp.mat_hit(br * n + rp);
                }
                if let Some(rn) = row(neg) {
                    fp.mat_hit(rn * n + br);
                    fp.mat_hit(br * n + rn);
                }
                fp.rhs_hit(br);
            }
            Element::CurrentSource { from, to, .. } => {
                if let Some(rt) = row(to) {
                    fp.rhs_hit(rt);
                }
                if let Some(rf) = row(from) {
                    fp.rhs_hit(rf);
                }
            }
            Element::Mosfet { d, g, s, .. } => {
                let (rd, rg, rs) = (row(d), row(g), row(s));
                if let Some(rd) = rd {
                    fp.mat_hit(rd * n + rd);
                    if let Some(rg) = rg {
                        fp.mat_hit(rd * n + rg);
                    }
                    if let Some(rs) = rs {
                        fp.mat_hit(rd * n + rs);
                    }
                    fp.rhs_hit(rd);
                }
                if let Some(rs_row) = rs {
                    if let Some(rd) = rd {
                        fp.mat_hit(rs_row * n + rd);
                    }
                    if let Some(rg) = rg {
                        fp.mat_hit(rs_row * n + rg);
                    }
                    fp.mat_hit(rs_row * n + rs_row);
                    fp.rhs_hit(rs_row);
                }
                // Channel gmin.
                fp.cond4(n, rd, rs);
            }
            Element::Switch { a, b, .. } => fp.cond4(n, row(a), row(b)),
            Element::Diode { a, k, .. } => {
                fp.cond4(n, row(a), row(k));
                // stamp_current(a → k).
                if let Some(rk) = row(k) {
                    fp.rhs_hit(rk);
                }
                if let Some(ra) = row(a) {
                    fp.rhs_hit(ra);
                }
            }
            Element::Vcvs {
                p, n: np, cp, cn, ..
            } => {
                let br = layout.branch_row(layout.branch_of[idx].expect("vcvs branch"));
                if let Some(rp) = row(p) {
                    fp.mat_hit(rp * n + br);
                    fp.mat_hit(br * n + rp);
                }
                if let Some(rn) = row(np) {
                    fp.mat_hit(rn * n + br);
                    fp.mat_hit(br * n + rn);
                }
                if let Some(rcp) = row(cp) {
                    fp.mat_hit(br * n + rcp);
                }
                if let Some(rcn) = row(cn) {
                    fp.mat_hit(br * n + rcn);
                }
            }
            Element::Vccs {
                from, to, cp, cn, ..
            } => {
                let (rcp, rcn) = (row(cp), row(cn));
                if let Some(rt) = row(to) {
                    if let Some(rcp) = rcp {
                        fp.mat_hit(rt * n + rcp);
                    }
                    if let Some(rcn) = rcn {
                        fp.mat_hit(rt * n + rcn);
                    }
                }
                if let Some(rf) = row(from) {
                    if let Some(rcp) = rcp {
                        fp.mat_hit(rf * n + rcp);
                    }
                    if let Some(rcn) = rcn {
                        fp.mat_hit(rf * n + rcn);
                    }
                }
            }
        }
    }
    fp
}

/// The write footprint a compiled plan produces when replayed, expanding
/// device ops exactly as `fill_mat`/`write_rhs` do.
fn plan_footprint(plan: &StampPlan) -> Footprint {
    let n = plan.n;
    let mut fp = Footprint::default();
    for op in &plan.base_ops {
        fp.mat_hit(op.idx);
    }
    for op in &plan.rhs0_ops {
        fp.rhs_hit(op.row);
    }
    for op in &plan.iter_ops {
        match *op {
            IterOp::Mat(ref m) => fp.mat_hit(m.idx),
            IterOp::Rhs(ref r) => fp.rhs_hit(r.row),
            IterOp::Mosfet { rd, rg, rs, .. } => {
                if let Some(rd) = rd {
                    fp.mat_hit(rd * n + rd);
                    if let Some(rg) = rg {
                        fp.mat_hit(rd * n + rg);
                    }
                    if let Some(rs) = rs {
                        fp.mat_hit(rd * n + rs);
                    }
                    fp.rhs_hit(rd);
                }
                if let Some(rs_row) = rs {
                    if let Some(rd) = rd {
                        fp.mat_hit(rs_row * n + rd);
                    }
                    if let Some(rg) = rg {
                        fp.mat_hit(rs_row * n + rg);
                    }
                    fp.mat_hit(rs_row * n + rs_row);
                    fp.rhs_hit(rs_row);
                }
                fp.cond4(n, rd, rs);
            }
            IterOp::Switch { ra, rb, .. } => fp.cond4(n, ra, rb),
            IterOp::Diode { ra, rk, .. } => {
                fp.cond4(n, ra, rk);
                if let Some(rk) = rk {
                    fp.rhs_hit(rk);
                }
                if let Some(ra) = ra {
                    fp.rhs_hit(ra);
                }
            }
        }
    }
    fp
}

/// Proves the four PL-series soundness properties of `plan` against the
/// circuit and layout it was compiled from. An empty result is a proof
/// (relative to the reference walker) that replaying the plan touches
/// exactly the assembler's destinations, never goes out of bounds, and
/// can never serve a stale cached system.
pub(crate) fn verify_plan(
    ckt: &Circuit,
    layout: &MnaLayout,
    plan: &StampPlan,
) -> Vec<PlanViolation> {
    let mut out = Vec::new();
    let n = plan.n;

    // PL001 — dimensions, op indices, device rows, slot and source ids.
    if n != layout.size() || plan.node_rows != layout.n_nodes - 1 {
        out.push(PlanViolation {
            code: PlanCode::IndexOutOfBounds,
            detail: format!(
                "plan dimensions ({}, {} node rows) disagree with the layout ({}, {})",
                n,
                plan.node_rows,
                layout.size(),
                layout.n_nodes - 1
            ),
        });
        // Every later bound would be checked against the wrong n.
        return out;
    }
    for (i, op) in plan.base_ops.iter().enumerate() {
        if op.idx >= n * n {
            out.push(PlanViolation {
                code: PlanCode::IndexOutOfBounds,
                detail: format!(
                    "base op {i} writes flat index {} in an n²={} matrix",
                    op.idx,
                    n * n
                ),
            });
        }
        check_valref(op.val, &format!("base op {i}"), plan, &mut out);
        if !base_tier_admits(op.val) {
            out.push(PlanViolation {
                code: PlanCode::TierViolation,
                detail: format!(
                    "base op {i} reads {:?}, which changes per solve; the base key \
                     (gshunt, gmin, companion geq bits) does not cover it, so the \
                     cached base matrix would go stale",
                    op.val
                ),
            });
        }
    }
    for (i, op) in plan.rhs0_ops.iter().enumerate() {
        if op.row >= n {
            out.push(PlanViolation {
                code: PlanCode::IndexOutOfBounds,
                detail: format!("rhs0 op {i} writes row {} in an n={n} rhs", op.row),
            });
        }
        check_valref(op.val, &format!("rhs0 op {i}"), plan, &mut out);
    }
    let row_ok = |r: Option<usize>| r.is_none_or(|r| r < plan.node_rows);
    for (i, op) in plan.iter_ops.iter().enumerate() {
        match *op {
            IterOp::Mat(ref m) => {
                if m.idx >= n * n {
                    out.push(PlanViolation {
                        code: PlanCode::IndexOutOfBounds,
                        detail: format!(
                            "iter op {i} writes flat index {} in an n²={} matrix",
                            m.idx,
                            n * n
                        ),
                    });
                }
                check_valref(m.val, &format!("iter op {i}"), plan, &mut out);
            }
            IterOp::Rhs(ref r) => {
                if r.row >= n {
                    out.push(PlanViolation {
                        code: PlanCode::IndexOutOfBounds,
                        detail: format!("iter op {i} writes row {} in an n={n} rhs", r.row),
                    });
                }
                check_valref(r.val, &format!("iter op {i}"), plan, &mut out);
            }
            IterOp::Mosfet { rd, rg, rs, .. } => {
                if ![rd, rg, rs].into_iter().all(row_ok) {
                    out.push(PlanViolation {
                        code: PlanCode::IndexOutOfBounds,
                        detail: format!(
                            "iter op {i} (mosfet) addresses a terminal row outside the \
                             {} node rows",
                            plan.node_rows
                        ),
                    });
                }
            }
            IterOp::Switch { ra, rb, rp, rn, .. } => {
                if ![ra, rb, rp, rn].into_iter().all(row_ok) {
                    out.push(PlanViolation {
                        code: PlanCode::IndexOutOfBounds,
                        detail: format!(
                            "iter op {i} (switch) addresses a terminal row outside the \
                             {} node rows",
                            plan.node_rows
                        ),
                    });
                }
            }
            IterOp::Diode { ra, rk, .. } => {
                if ![ra, rk].into_iter().all(row_ok) {
                    out.push(PlanViolation {
                        code: PlanCode::IndexOutOfBounds,
                        detail: format!(
                            "iter op {i} (diode) addresses a terminal row outside the \
                             {} node rows",
                            plan.node_rows
                        ),
                    });
                }
            }
        }
    }
    for (k, id) in plan.sources.iter().enumerate() {
        if id.index() >= ckt.element_count() {
            out.push(PlanViolation {
                code: PlanCode::IndexOutOfBounds,
                detail: format!(
                    "source {k} points at element {}, but the circuit has only {} elements",
                    id.index(),
                    ckt.element_count()
                ),
            });
        }
    }
    for &r in &plan.dyn_reads {
        if r >= n {
            out.push(PlanViolation {
                code: PlanCode::IndexOutOfBounds,
                detail: format!("dyn_reads lists solution row {r} in an n={n} system"),
            });
        }
    }
    if !out.is_empty() {
        // Out-of-bounds or mis-tiered ops make the remaining properties
        // meaningless (and the footprint expansion could itself index out
        // of range); report the fundamental failures alone.
        return out;
    }

    // PL003 — cache-key coverage.
    let read_row = |i: usize, what: &str, r: Option<usize>, out: &mut Vec<PlanViolation>| {
        if let Some(r) = r {
            if plan.dyn_reads.binary_search(&r).is_err() {
                out.push(PlanViolation {
                    code: PlanCode::CacheKeyGap,
                    detail: format!(
                        "iter op {i} ({what}) reads solution row {r}, which is missing \
                         from dyn_reads — the Newton bypass would reuse a stale system \
                         after that row moves"
                    ),
                });
            }
        }
    };
    for (i, op) in plan.iter_ops.iter().enumerate() {
        match *op {
            IterOp::Mat(_) | IterOp::Rhs(_) => {}
            IterOp::Mosfet { rd, rg, rs, .. } => {
                for r in [rd, rg, rs] {
                    read_row(i, "mosfet", r, &mut out);
                }
            }
            IterOp::Switch { rp, rn, .. } => {
                for r in [rp, rn] {
                    read_row(i, "switch", r, &mut out);
                }
            }
            IterOp::Diode { ra, rk, .. } => {
                for r in [ra, rk] {
                    read_row(i, "diode", r, &mut out);
                }
            }
        }
    }
    if plan.n_cap_slots != layout.n_caps || plan.n_ind_slots != layout.n_inds {
        out.push(PlanViolation {
            code: PlanCode::CacheKeyGap,
            detail: format!(
                "plan companion slot counts ({} cap, {} ind) disagree with the layout \
                 ({}, {}); the base key would compare the wrong geq bits",
                plan.n_cap_slots, plan.n_ind_slots, layout.n_caps, layout.n_inds
            ),
        });
    }
    let expected_sources: Vec<usize> = ckt
        .elements()
        .enumerate()
        .filter(|(_, (_, _, e))| {
            matches!(
                e,
                Element::VoltageSource { .. } | Element::CurrentSource { .. }
            )
        })
        .map(|(idx, _)| idx)
        .collect();
    let plan_sources: Vec<usize> = plan.sources.iter().map(|id| id.index()).collect();
    if plan_sources != expected_sources {
        out.push(PlanViolation {
            code: PlanCode::CacheKeyGap,
            detail: format!(
                "plan source list {plan_sources:?} does not match the circuit's \
                 independent sources {expected_sources:?}; rhs0 would read the wrong \
                 waveforms"
            ),
        });
    }

    // PL004 — write-coverage equivalence against the reference walker.
    let want = reference_footprint(ckt, layout, plan.mode);
    let got = plan_footprint(plan);
    if got != want {
        let mut diffs: Vec<String> = Vec::new();
        let keys: std::collections::BTreeSet<usize> =
            want.mat.keys().chain(got.mat.keys()).copied().collect();
        for idx in keys {
            let (w, g) = (
                want.mat.get(&idx).copied().unwrap_or(0),
                got.mat.get(&idx).copied().unwrap_or(0),
            );
            if w != g {
                diffs.push(format!(
                    "mat ({}, {}): assembler {w}, plan {g}",
                    idx / n,
                    idx % n
                ));
            }
        }
        let keys: std::collections::BTreeSet<usize> =
            want.rhs.keys().chain(got.rhs.keys()).copied().collect();
        for r in keys {
            let (w, g) = (
                want.rhs.get(&r).copied().unwrap_or(0),
                got.rhs.get(&r).copied().unwrap_or(0),
            );
            if w != g {
                diffs.push(format!("rhs {r}: assembler {w}, plan {g}"));
            }
        }
        out.push(PlanViolation {
            code: PlanCode::FootprintMismatch,
            detail: format!(
                "plan write footprint differs from the reference assembler at \
                 {} destination(s): {}",
                diffs.len(),
                diffs.join("; ")
            ),
        });
    }

    out
}

// ---------------------------------------------------------------------------
// Public entry point
// ---------------------------------------------------------------------------

/// The combined result of [`verify_circuit`]: the full lint report
/// (topology + structural solvability) and, when no lint denies, the
/// plan-verifier findings for both compiled modes.
#[derive(Debug)]
pub struct VerifyReport {
    /// Topology and structural-solvability diagnostics (MS001–MS022).
    pub lint: LintReport,
    /// PL001–PL004 violations across the DC and transient plans, empty
    /// when every compiled plan is proved sound. Each detail names the
    /// plan mode it was found in.
    pub plan_violations: Vec<PlanViolation>,
}

impl VerifyReport {
    /// `true` when nothing blocks analysis: no deny-level lint and no
    /// plan violation. Warnings may still be present in [`Self::lint`].
    pub fn is_sound(&self) -> bool {
        !self.lint.has_denials() && self.plan_violations.is_empty()
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.lint)?;
        if self.lint.has_denials() {
            // Plans are never compiled for a denied circuit.
            writeln!(f, "plans: not compiled (lint denied)")
        } else if self.plan_violations.is_empty() {
            writeln!(f, "plans: verified")
        } else {
            for v in &self.plan_violations {
                writeln!(f, "{v}")?;
            }
            writeln!(f, "plans: {} violation(s)", self.plan_violations.len())
        }
    }
}

/// Statically verifies `circuit` end to end: lints it (including the
/// MS020-series structural passes), and — when no lint denies — compiles
/// the DC and transient stamp plans and proves the PL-series soundness
/// properties for each.
///
/// # Examples
///
/// ```
/// use mssim::{verify_circuit, Circuit, Waveform};
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
/// ckt.resistor("R1", a, Circuit::GND, 1e3);
/// assert!(verify_circuit(&ckt).is_sound());
/// ```
pub fn verify_circuit(circuit: &Circuit) -> VerifyReport {
    let lint = lint::lint(circuit);
    let mut plan_violations = Vec::new();
    if !lint.has_denials() {
        let layout = MnaLayout::new(circuit);
        for mode in [PlanMode::Dc, PlanMode::Tran] {
            let plan = StampPlan::compile(circuit, &layout, mode);
            let label = match mode {
                PlanMode::Dc => "dc plan",
                PlanMode::Tran => "tran plan",
            };
            plan_violations.extend(verify_plan(circuit, &layout, &plan).into_iter().map(
                |mut v| {
                    v.detail = format!("{label}: {}", v.detail);
                    v
                },
            ));
        }
    }
    VerifyReport {
        lint,
        plan_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::plan::{MatOp, RhsOp};
    use crate::elements::MosParams;
    use crate::netlist::ElementId;
    use crate::waveform::Waveform;

    /// A circuit exercising every tier: source, resistor, cap, inductor,
    /// MOSFET and diode.
    fn mixed_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
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

    fn compiled(mode: PlanMode) -> (Circuit, MnaLayout, StampPlan) {
        let ckt = mixed_circuit();
        let layout = MnaLayout::new(&ckt);
        let plan = StampPlan::compile(&ckt, &layout, mode);
        (ckt, layout, plan)
    }

    fn codes_of(violations: &[PlanViolation]) -> Vec<PlanCode> {
        violations.iter().map(|v| v.code).collect()
    }

    #[test]
    fn fresh_plans_verify_clean() {
        for mode in [PlanMode::Dc, PlanMode::Tran] {
            let (ckt, layout, plan) = compiled(mode);
            let violations = verify_plan(&ckt, &layout, &plan);
            assert!(violations.is_empty(), "{mode:?}: {violations:?}");
        }
    }

    // --- PL001 mutation: corrupt a pre-resolved index -------------------

    #[test]
    fn mutated_base_index_caught_as_pl001() {
        let (ckt, layout, mut plan) = compiled(PlanMode::Tran);
        let n = plan.n;
        plan.base_ops[0].idx = n * n; // one past the end
        let violations = verify_plan(&ckt, &layout, &plan);
        assert!(codes_of(&violations).contains(&PlanCode::IndexOutOfBounds));
    }

    #[test]
    fn mutated_rhs_row_caught_as_pl001() {
        let (ckt, layout, mut plan) = compiled(PlanMode::Tran);
        let n = plan.n;
        let row = plan
            .rhs0_ops
            .first()
            .map(|op| op.row)
            .expect("tran plan has rhs0 ops");
        plan.rhs0_ops[0].row = n + row; // out of range
        let violations = verify_plan(&ckt, &layout, &plan);
        assert!(codes_of(&violations).contains(&PlanCode::IndexOutOfBounds));
    }

    #[test]
    fn mutated_companion_slot_caught_as_pl001() {
        let (ckt, layout, mut plan) = compiled(PlanMode::Tran);
        let slots = plan.n_cap_slots;
        let op = plan
            .base_ops
            .iter_mut()
            .find(|op| matches!(op.val, ValRef::CapGeq { .. }))
            .expect("tran plan has cap geq atoms");
        op.val = ValRef::CapGeq {
            slot: slots,
            sign: 1.0,
        };
        let violations = verify_plan(&ckt, &layout, &plan);
        assert!(codes_of(&violations).contains(&PlanCode::IndexOutOfBounds));
    }

    // --- PL002 mutation: place an atom in a too-static tier -------------

    #[test]
    fn source_read_in_base_caught_as_pl002() {
        let (ckt, layout, mut plan) = compiled(PlanMode::Tran);
        assert!(!plan.sources.is_empty());
        // A per-solve source value baked into the cached base matrix: the
        // base key does not cover source bits, so this is the archetypal
        // silent-staleness bug.
        plan.base_ops.push(MatOp {
            idx: 0,
            val: ValRef::Src { src: 0, sign: 1.0 },
        });
        let violations = verify_plan(&ckt, &layout, &plan);
        assert!(codes_of(&violations).contains(&PlanCode::TierViolation));
    }

    #[test]
    fn companion_read_in_dc_plan_caught_as_pl002() {
        let (ckt, layout, mut plan) = compiled(PlanMode::Dc);
        // A DC solve has no companion slices; eval_val would panic.
        plan.rhs0_ops.push(RhsOp {
            row: 0,
            val: ValRef::CapIeq { slot: 0, sign: 1.0 },
        });
        let violations = verify_plan(&ckt, &layout, &plan);
        assert!(codes_of(&violations).contains(&PlanCode::TierViolation));
    }

    // --- PL003 mutation: break the cache-identity hookup ----------------

    #[test]
    fn pruned_dyn_reads_caught_as_pl003() {
        let (ckt, layout, mut plan) = compiled(PlanMode::Tran);
        assert!(!plan.dyn_reads.is_empty(), "mosfet/diode reads expected");
        plan.dyn_reads.clear();
        let violations = verify_plan(&ckt, &layout, &plan);
        assert!(codes_of(&violations).contains(&PlanCode::CacheKeyGap));
    }

    #[test]
    fn wrong_slot_count_caught_as_pl003() {
        let (ckt, layout, mut plan) = compiled(PlanMode::Tran);
        plan.n_cap_slots += 1;
        let violations = verify_plan(&ckt, &layout, &plan);
        assert!(codes_of(&violations).contains(&PlanCode::CacheKeyGap));
    }

    #[test]
    fn corrupted_source_list_caught_as_pl003() {
        let (ckt, layout, mut plan) = compiled(PlanMode::Tran);
        // Point the source list at a non-source element: rhs0 would read
        // the wrong waveform every solve.
        plan.sources[0] = ElementId(1);
        let violations = verify_plan(&ckt, &layout, &plan);
        assert!(codes_of(&violations).contains(&PlanCode::CacheKeyGap));
    }

    // --- PL004 mutation: change the write footprint ---------------------

    #[test]
    fn dropped_stamp_caught_as_pl004() {
        let (ckt, layout, mut plan) = compiled(PlanMode::Tran);
        plan.base_ops.pop();
        let violations = verify_plan(&ckt, &layout, &plan);
        assert!(codes_of(&violations).contains(&PlanCode::FootprintMismatch));
    }

    #[test]
    fn duplicated_stamp_caught_as_pl004() {
        let (ckt, layout, mut plan) = compiled(PlanMode::Tran);
        let dup = plan.base_ops[0];
        plan.base_ops.push(dup);
        let violations = verify_plan(&ckt, &layout, &plan);
        assert!(codes_of(&violations).contains(&PlanCode::FootprintMismatch));
    }

    // --- structural passes ----------------------------------------------

    #[test]
    fn degenerate_self_controlled_vcvs_is_ms020() {
        // v(p) − v(n) − 1·(v(p) − v(n)) = 0: the constraint row cancels
        // to nothing, so no valuation can make the matrix nonsingular.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor("R1", a, b, 1e3);
        ckt.resistor("R2", b, Circuit::GND, 1e3);
        ckt.vcvs("E1", a, b, a, b, 1.0);
        let findings = structural_lint(&ckt, LintContext::Dc);
        assert!(
            findings
                .iter()
                .any(|f| f.code == LintCode::StructurallySingular),
            "expected MS020"
        );
    }

    #[test]
    fn vcvs_loop_is_ms021() {
        // Two VCVS outputs in a loop: the pattern still matches perfectly
        // (±1 incidence is not generic), so only the cycle pass sees it.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        ckt.vsource("V1", c, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor("Rc", c, Circuit::GND, 1e3);
        ckt.vcvs("E1", a, b, c, Circuit::GND, 2.0);
        ckt.vcvs("E2", a, b, c, Circuit::GND, 3.0);
        ckt.resistor("Ra", a, Circuit::GND, 1e3);
        ckt.resistor("Rb", b, Circuit::GND, 1e3);
        let findings = structural_lint(&ckt, LintContext::Dc);
        assert!(
            findings
                .iter()
                .any(|f| f.code == LintCode::DependentVoltageConstraints),
            "expected MS021, got {:?}",
            findings.iter().map(|f| f.code).collect::<Vec<_>>()
        );
    }

    #[test]
    fn vcvs_parallel_with_vsource_is_ms021() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let c = ckt.node("c");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        ckt.vsource("V2", c, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor("Rc", c, Circuit::GND, 1e3);
        ckt.vcvs("E1", a, Circuit::GND, c, Circuit::GND, 2.0);
        ckt.resistor("Ra", a, Circuit::GND, 1e3);
        let findings = structural_lint(&ckt, LintContext::Dc);
        assert!(findings
            .iter()
            .any(|f| f.code == LintCode::DependentVoltageConstraints));
    }

    #[test]
    fn extreme_magnitude_span_is_ms022() {
        // A chain keeps the extreme conductances on distinct entries: a
        // parallel pair would merge them into one summed diagonal and
        // the small magnitude would disappear into the large one.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor("Rsmall", a, b, 1e-3); // g = 1e3
        ckt.resistor("Rhuge", b, c, 1e12); // g = 1e-12
        ckt.resistor("Rload", c, Circuit::GND, 1e12);
        let findings = structural_lint(&ckt, LintContext::Dc);
        assert!(
            findings
                .iter()
                .any(|f| f.code == LintCode::IllConditionedBlock),
            "expected MS022, got {:?}",
            findings.iter().map(|f| f.code).collect::<Vec<_>>()
        );
    }

    #[test]
    fn healthy_circuits_have_no_structural_findings() {
        let findings = structural_lint(&mixed_circuit(), LintContext::Dc);
        assert!(findings.is_empty(), "unexpected findings");
        let findings = structural_lint(&mixed_circuit(), LintContext::TransientUic);
        assert!(findings.is_empty(), "unexpected findings");
    }

    #[test]
    fn verify_circuit_is_sound_for_healthy_circuit() {
        let report = verify_circuit(&mixed_circuit());
        assert!(report.is_sound(), "{report}");
    }

    #[test]
    fn verify_circuit_reports_structural_denial() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor("R1", a, b, 1e3);
        ckt.resistor("R2", b, Circuit::GND, 1e3);
        ckt.vcvs("E1", a, b, a, b, 1.0);
        let report = verify_circuit(&ckt);
        assert!(!report.is_sound());
        assert!(report
            .lint
            .denials()
            .any(|d| d.code == LintCode::StructurallySingular));
        // Denied circuits never reach plan compilation.
        assert!(report.plan_violations.is_empty());
    }
}
