//! Parser and writer for the Berkeley Logic Interchange Format (BLIF).
//!
//! The supported subset is the structural core used by ISCAS/ITC-style
//! corpora: `.model`, `.inputs`, `.outputs`, `.names` (single-output PLA
//! covers), `.latch` and `.end`, with `#` comments and `\` line
//! continuations. Unsupported constructs (`.subckt`, `.gate`, `.exdc`,
//! multiple `.model` sections) are recorded as syntax errors by the
//! permissive [`parse_raw`] entry point, so the lint pipeline can report
//! them with line spans before [`RawNetlist::build`] refuses the netlist.
//!
//! Covers whose shape matches one of our canonical gate emissions (see
//! [`write`]) are imported as the corresponding [`GateKind`], so
//! `parse(write(c))` reproduces `c` exactly — same net ids, same flip-flop
//! (scan chain) order, same name. Any other single-output cover is
//! synthesized into a small AND/OR/NOT network with generated helper
//! names, which keeps foreign corpora loadable at the cost of structural
//! identity.
//!
//! Latch init values are accepted and ignored: the simulation model powers
//! up in the unknown state (`3` in BLIF terms), which is what the writer
//! emits.
//!
//! # Example
//!
//! ```
//! use limscan_netlist::blif_format;
//!
//! # fn main() -> Result<(), limscan_netlist::NetlistError> {
//! let src = "\
//! .model nand2
//! .inputs a b
//! .outputs y
//! .names a b y
//! 11 0
//! .end
//! ";
//! let c = blif_format::parse("nand2", src)?;
//! assert_eq!(c.gate_count(), 1);
//! let round = blif_format::write(&c);
//! assert_eq!(blif_format::parse("nand2", &round)?, c);
//! # Ok(())
//! # }
//! ```

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use crate::circuit::{Circuit, Driver, GateKind, NetId, Span};
use crate::error::NetlistError;
use crate::limits::{LimitViolation, ParseLimit, ParseLimits};
use crate::raw::{RawDecl, RawDriverKind, RawNetlist, RawOutput, SyntaxError};

/// One logical (continuation-joined, comment-stripped) BLIF line with the
/// line number of its first physical line.
struct LogicalLine {
    line: usize,
    text: String,
}

fn logical_lines(source: &str) -> Vec<LogicalLine> {
    let mut out: Vec<LogicalLine> = Vec::new();
    let mut pending: Option<LogicalLine> = None;
    for (lineno, raw) in source.lines().enumerate() {
        let stripped = raw.split('#').next().unwrap_or("");
        let (text, continued) = match stripped.trim_end().strip_suffix('\\') {
            Some(head) => (head.trim(), true),
            None => (stripped.trim(), false),
        };
        let target = pending.get_or_insert_with(|| LogicalLine {
            line: lineno + 1,
            text: String::new(),
        });
        if !text.is_empty() {
            if !target.text.is_empty() {
                target.text.push(' ');
            }
            target.text.push_str(text);
        }
        if !continued {
            let done = pending.take().expect("pending was just populated");
            if !done.text.is_empty() {
                out.push(done);
            }
        }
    }
    if let Some(done) = pending {
        if !done.text.is_empty() {
            out.push(done);
        }
    }
    out
}

/// One row of a `.names` cover: the input pattern and the output value.
#[derive(Clone)]
struct CoverRow {
    pattern: Vec<u8>,
    out: u8,
}

/// A `.names` block under construction.
struct PendingCover {
    inputs: Vec<String>,
    output: String,
    rows: Vec<CoverRow>,
    span: Span,
}

/// A `.subckt` instantiation, as written: the child model name and the
/// `formal=actual` port bindings.
struct SubcktInst {
    model: String,
    binds: Vec<(String, String)>,
    span: Span,
}

/// One item of a model body, in source order. Order matters: the
/// flattener emits declarations in item order, which is what keeps
/// `parse(write(c)) == c` net-id-exact.
enum Item {
    Input(String, Span),
    Output(String, Span),
    Latch {
        input: String,
        output: String,
        span: Span,
    },
    Cover(PendingCover),
    Subckt(SubcktInst),
}

/// One `.model` section, parsed but not yet flattened.
struct BlifModel {
    name: Option<String>,
    items: Vec<Item>,
}

/// The declared formal input and output port names of a model.
fn ports(model: &BlifModel) -> (HashSet<&str>, HashSet<&str>) {
    let mut ins = HashSet::new();
    let mut outs = HashSet::new();
    for item in &model.items {
        match item {
            Item::Input(n, _) => {
                ins.insert(n.as_str());
            }
            Item::Output(n, _) => {
                outs.insert(n.as_str());
            }
            _ => {}
        }
    }
    (ins, outs)
}

/// Maps a model-local net name to its flattened name: bound formals go to
/// their actual nets, everything else gets the instance prefix.
fn resolve(bind: &HashMap<String, String>, prefix: &str, name: &str) -> String {
    match bind.get(name) {
        Some(actual) => actual.clone(),
        None => format!("{prefix}{name}"),
    }
}

/// Parses BLIF source permissively into a [`RawNetlist`].
///
/// Every declaration is recorded with the [`Span`] of its source line;
/// malformed lines and unsupported constructs are collected as syntax
/// errors instead of aborting, which is what the lint pipeline wants. The
/// circuit name comes from the first `.model` when present, else `name`.
/// Hierarchies (`.model` sections instantiated via `.subckt`) are
/// flattened; the first model in the file is the top.
pub fn parse_raw(name: &str, source: &str) -> RawNetlist {
    parse_raw_limited(name, source, &ParseLimits::default())
}

/// [`parse_raw`] under an explicit resource budget; see
/// [`crate::limits`] for the enforcement contract.
pub fn parse_raw_limited(name: &str, source: &str, limits: &ParseLimits) -> RawNetlist {
    let mut raw = RawNetlist {
        name: name.to_owned(),
        decls: Vec::new(),
        outputs: Vec::new(),
        syntax_errors: Vec::new(),
        limit_error: None,
    };
    if source.len() as u64 > limits.max_source_bytes {
        raw.limit_error = Some(LimitViolation {
            limit: ParseLimit::SourceBytes,
            line: 0,
            actual: source.len() as u64,
            max: limits.max_source_bytes,
        });
        return raw;
    }
    let models = scan_models(source, limits, &mut raw);
    if raw.limit_error.is_some() || models.is_empty() {
        raw.syntax_errors.sort_by_key(|e| e.span);
        return raw;
    }
    if let Some(n) = &models[0].name {
        raw.name.clone_from(n);
    }
    let by_name: HashMap<&str, usize> = models
        .iter()
        .enumerate()
        .filter_map(|(i, m)| m.name.as_deref().map(|n| (n, i)))
        .collect();
    let mut used_names: HashSet<String> = HashSet::new();
    let mut flattener = Flattener {
        models: &models,
        by_name,
        limits,
        raw: &mut raw,
        used: &mut used_names,
        instances: 0,
    };
    flattener.emit_model(0, "", &HashMap::new(), 0);
    // Flattening appends its errors (unknown models, bad bindings) after
    // the scan's; restore source order for build()'s first-defect bail.
    raw.syntax_errors.sort_by_key(|e| e.span);
    raw
}

/// The scan stage: splits the source into `.model` sections and their
/// items, recording syntax errors and enforcing the per-line, cover and
/// arity ceilings. Content before any `.model` forms an implicit top
/// model.
fn scan_models(source: &str, limits: &ParseLimits, raw: &mut RawNetlist) -> Vec<BlifModel> {
    let mut models: Vec<BlifModel> = Vec::new();
    let mut current: Option<BlifModel> = None;
    let mut cover: Option<PendingCover> = None;
    let mut after_end = false;

    let flush = |cover: &mut Option<PendingCover>, current: &mut Option<BlifModel>| {
        if let Some(c) = cover.take() {
            current
                .get_or_insert_with(|| BlifModel {
                    name: None,
                    items: Vec::new(),
                })
                .items
                .push(Item::Cover(c));
        }
    };

    for ll in logical_lines(source) {
        let span = Span::at_line(ll.line);
        if ll.text.len() > limits.max_line_bytes {
            flush(&mut cover, &mut current);
            raw.limit_error = Some(LimitViolation {
                limit: ParseLimit::LineBytes,
                line: ll.line,
                actual: ll.text.len() as u64,
                max: limits.max_line_bytes as u64,
            });
            break;
        }
        let tokens: Vec<&str> = ll.text.split_whitespace().collect();
        let Some(&head) = tokens.first() else {
            continue;
        };
        if after_end && head != ".model" {
            raw.syntax_errors.push(SyntaxError {
                span,
                message: "content after .end".to_owned(),
            });
            continue;
        }
        fn model(current: &mut Option<BlifModel>) -> &mut BlifModel {
            current.get_or_insert_with(|| BlifModel {
                name: None,
                items: Vec::new(),
            })
        }
        if let Some(directive) = head.strip_prefix('.') {
            flush(&mut cover, &mut current);
            match directive {
                "model" => {
                    if let Some(m) = current.take() {
                        models.push(m);
                    }
                    after_end = false;
                    current = Some(BlifModel {
                        name: tokens.get(1).map(|&m| m.to_owned()),
                        items: Vec::new(),
                    });
                }
                "inputs" => {
                    let m = model(&mut current);
                    for &n in &tokens[1..] {
                        m.items.push(Item::Input(n.to_owned(), span));
                    }
                }
                "outputs" => {
                    let m = model(&mut current);
                    for &n in &tokens[1..] {
                        m.items.push(Item::Output(n.to_owned(), span));
                    }
                }
                "latch" => {
                    // .latch <input> <output> [<type> <control>] [<init>]
                    if tokens.len() < 3 || tokens.len() > 6 {
                        raw.syntax_errors.push(SyntaxError {
                            span,
                            message: format!(".latch takes 2-5 operands, got {}", tokens.len() - 1),
                        });
                        continue;
                    }
                    let extras = &tokens[3..];
                    let init_ok = match extras {
                        [] | [_, _] => true,
                        [init] | [_, _, init] => matches!(*init, "0" | "1" | "2" | "3"),
                        _ => false,
                    };
                    if !init_ok {
                        raw.syntax_errors.push(SyntaxError {
                            span,
                            message: format!("malformed .latch operands `{}`", extras.join(" ")),
                        });
                        continue;
                    }
                    model(&mut current).items.push(Item::Latch {
                        input: tokens[1].to_owned(),
                        output: tokens[2].to_owned(),
                        span,
                    });
                }
                "names" => {
                    if tokens.len() < 2 {
                        raw.syntax_errors.push(SyntaxError {
                            span,
                            message: ".names needs at least an output signal".to_owned(),
                        });
                        continue;
                    }
                    if tokens.len() - 2 > limits.max_fanin {
                        raw.limit_error = Some(LimitViolation {
                            limit: ParseLimit::FaninArity,
                            line: ll.line,
                            actual: (tokens.len() - 2) as u64,
                            max: limits.max_fanin as u64,
                        });
                        break;
                    }
                    cover = Some(PendingCover {
                        inputs: tokens[1..tokens.len() - 1]
                            .iter()
                            .map(|s| (*s).to_owned())
                            .collect(),
                        output: (*tokens.last().expect("len checked")).to_owned(),
                        rows: Vec::new(),
                        span,
                    });
                }
                "subckt" => {
                    if tokens.len() < 2 {
                        raw.syntax_errors.push(SyntaxError {
                            span,
                            message: ".subckt needs a model name".to_owned(),
                        });
                        continue;
                    }
                    if tokens.len() - 2 > limits.max_fanin {
                        raw.limit_error = Some(LimitViolation {
                            limit: ParseLimit::FaninArity,
                            line: ll.line,
                            actual: (tokens.len() - 2) as u64,
                            max: limits.max_fanin as u64,
                        });
                        break;
                    }
                    let mut binds = Vec::new();
                    for &t in &tokens[2..] {
                        match t.split_once('=') {
                            Some((f, a)) if !f.is_empty() && !a.is_empty() => {
                                binds.push((f.to_owned(), a.to_owned()));
                            }
                            _ => raw.syntax_errors.push(SyntaxError {
                                span,
                                message: format!(
                                    "malformed `.subckt` binding `{t}`; expected formal=actual"
                                ),
                            }),
                        }
                    }
                    model(&mut current).items.push(Item::Subckt(SubcktInst {
                        model: tokens[1].to_owned(),
                        binds,
                        span,
                    }));
                }
                "end" => {
                    if let Some(m) = current.take() {
                        models.push(m);
                    }
                    after_end = true;
                }
                other => {
                    raw.syntax_errors.push(SyntaxError {
                        span,
                        message: format!("unsupported BLIF construct `.{other}`"),
                    });
                }
            }
            continue;
        }

        // Not a directive: must be a cover row of the open .names block.
        let Some(c) = cover.as_mut() else {
            raw.syntax_errors.push(SyntaxError {
                span,
                message: format!("stray line `{}` outside a .names block", ll.text),
            });
            continue;
        };
        if c.rows.len() >= limits.max_cover_rows {
            raw.limit_error = Some(LimitViolation {
                limit: ParseLimit::CoverRows,
                line: ll.line,
                actual: c.rows.len() as u64 + 1,
                max: limits.max_cover_rows as u64,
            });
            flush(&mut cover, &mut current);
            break;
        }
        match parse_cover_row(&tokens, c.inputs.len()) {
            Ok(r) => c.rows.push(r),
            Err(message) => raw.syntax_errors.push(SyntaxError { span, message }),
        }
    }
    flush(&mut cover, &mut current);
    if let Some(m) = current.take() {
        models.push(m);
    }
    models
}

/// The flatten stage: walks a model's items in source order, renaming
/// local nets through the instance prefix / port bindings and recursing
/// into `.subckt` instantiations under the depth and instance ceilings.
struct Flattener<'a> {
    models: &'a [BlifModel],
    by_name: HashMap<&'a str, usize>,
    limits: &'a ParseLimits,
    raw: &'a mut RawNetlist,
    used: &'a mut HashSet<String>,
    instances: usize,
}

impl Flattener<'_> {
    fn push_decl(&mut self, decl: RawDecl) {
        if self.raw.decls.len() >= self.limits.max_nets {
            self.raw.limit_error = Some(LimitViolation {
                limit: ParseLimit::Nets,
                line: decl.span.line().unwrap_or(0),
                actual: self.raw.decls.len() as u64 + 1,
                max: self.limits.max_nets as u64,
            });
            return;
        }
        self.raw.decls.push(decl);
    }

    /// Covers lower through [`lower_cover`], which pushes several decls at
    /// once; re-check the net ceiling afterwards and drop the excess so
    /// memory stays bounded even under a tight budget.
    fn check_nets(&mut self, span: Span) {
        if self.raw.decls.len() > self.limits.max_nets {
            self.raw.limit_error = Some(LimitViolation {
                limit: ParseLimit::Nets,
                line: span.line().unwrap_or(0),
                actual: self.raw.decls.len() as u64,
                max: self.limits.max_nets as u64,
            });
            self.raw.decls.truncate(self.limits.max_nets);
        }
    }

    fn emit_model(
        &mut self,
        idx: usize,
        prefix: &str,
        bind: &HashMap<String, String>,
        depth: usize,
    ) {
        for item in &self.models[idx].items {
            if self.raw.limit_error.is_some() {
                return;
            }
            match item {
                Item::Input(n, span) => {
                    // Nested inputs are driven by the parent through the
                    // binding; only the top model declares primary inputs.
                    if depth == 0 {
                        self.used.insert(n.clone());
                        self.push_decl(RawDecl {
                            name: n.clone(),
                            kind: RawDriverKind::Input,
                            fanins: Vec::new(),
                            span: *span,
                        });
                    }
                }
                Item::Output(n, span) => {
                    if depth == 0 {
                        self.raw.outputs.push(RawOutput {
                            name: n.clone(),
                            span: *span,
                        });
                    }
                }
                Item::Latch {
                    input,
                    output,
                    span,
                } => {
                    let name = resolve(bind, prefix, output);
                    self.used.insert(name.clone());
                    self.push_decl(RawDecl {
                        name,
                        kind: RawDriverKind::Dff,
                        fanins: vec![resolve(bind, prefix, input)],
                        span: *span,
                    });
                }
                Item::Cover(c) => {
                    let renamed = PendingCover {
                        inputs: c.inputs.iter().map(|n| resolve(bind, prefix, n)).collect(),
                        output: resolve(bind, prefix, &c.output),
                        rows: c.rows.clone(),
                        span: c.span,
                    };
                    self.used.insert(renamed.output.clone());
                    lower_cover(&renamed, self.raw, self.used);
                    self.check_nets(c.span);
                }
                Item::Subckt(inst) => self.emit_subckt(inst, prefix, bind, depth),
            }
        }
    }

    fn emit_subckt(
        &mut self,
        inst: &SubcktInst,
        prefix: &str,
        bind: &HashMap<String, String>,
        depth: usize,
    ) {
        let line = inst.span.line().unwrap_or(0);
        self.instances += 1;
        if self.instances > self.limits.max_subckt_instances {
            self.raw.limit_error = Some(LimitViolation {
                limit: ParseLimit::SubcktInstances,
                line,
                actual: self.instances as u64,
                max: self.limits.max_subckt_instances as u64,
            });
            return;
        }
        if depth + 1 > self.limits.max_subckt_depth {
            self.raw.limit_error = Some(LimitViolation {
                limit: ParseLimit::SubcktDepth,
                line,
                actual: depth as u64 + 1,
                max: self.limits.max_subckt_depth as u64,
            });
            return;
        }
        let Some(&child) = self.by_name.get(inst.model.as_str()) else {
            self.raw.syntax_errors.push(SyntaxError {
                span: inst.span,
                message: format!(
                    "`.subckt {}` references unknown model `{}`",
                    inst.model, inst.model
                ),
            });
            return;
        };
        let (ins, outs) = ports(&self.models[child]);
        let mut child_bind: HashMap<String, String> = HashMap::new();
        for (formal, actual) in &inst.binds {
            if !ins.contains(formal.as_str()) && !outs.contains(formal.as_str()) {
                self.raw.syntax_errors.push(SyntaxError {
                    span: inst.span,
                    message: format!("`.subckt {}` binds unknown port `{formal}`", inst.model),
                });
                continue;
            }
            let resolved = resolve(bind, prefix, actual);
            if child_bind.insert(formal.clone(), resolved).is_some() {
                self.raw.syntax_errors.push(SyntaxError {
                    span: inst.span,
                    message: format!("`.subckt {}` binds port `{formal}` twice", inst.model),
                });
            }
        }
        let child_prefix = format!("{}${}$", inst.model, self.instances);
        let mut unbound: Vec<&str> = ins
            .iter()
            .filter(|f| !child_bind.contains_key(**f))
            .copied()
            .collect();
        unbound.sort_unstable();
        for f in unbound {
            // Parse on: the dangling prefixed net surfaces as an undefined
            // signal if the child actually reads it.
            self.raw.syntax_errors.push(SyntaxError {
                span: inst.span,
                message: format!("`.subckt {}` leaves input `{f}` unbound", inst.model),
            });
            child_bind.insert(f.to_owned(), format!("{child_prefix}{f}"));
        }
        self.emit_model(child, &child_prefix, &child_bind, depth + 1);
    }
}

fn parse_cover_row(tokens: &[&str], n_inputs: usize) -> Result<CoverRow, String> {
    let (pattern, out) = if n_inputs == 0 {
        if tokens.len() != 1 {
            return Err("constant cover row must be a single output value".to_owned());
        }
        (Vec::new(), tokens[0])
    } else {
        if tokens.len() != 2 {
            return Err(format!(
                "cover row must be `<pattern> <value>`, got {} token(s)",
                tokens.len()
            ));
        }
        (tokens[0].bytes().collect(), tokens[1])
    };
    if pattern.len() != n_inputs {
        return Err(format!(
            "cover pattern has {} positions for {} inputs",
            pattern.len(),
            n_inputs
        ));
    }
    if let Some(&bad) = pattern.iter().find(|b| !matches!(b, b'0' | b'1' | b'-')) {
        return Err(format!(
            "cover pattern contains `{}`; only 0, 1 and - are allowed",
            bad as char
        ));
    }
    let out = match out {
        "0" => b'0',
        "1" => b'1',
        other => return Err(format!("cover output must be 0 or 1, got `{other}`")),
    };
    Ok(CoverRow { pattern, out })
}

/// Lowers one `.names` cover into declarations: a single recognized gate
/// kind when the cover matches a canonical shape, otherwise a synthesized
/// AND/OR/NOT network.
fn lower_cover(cover: &PendingCover, raw: &mut RawNetlist, used: &mut HashSet<String>) {
    if let Some(err) = cover_defect(cover) {
        raw.syntax_errors.push(SyntaxError {
            span: cover.span,
            message: err,
        });
        return;
    }
    if let Some((kind, fanins)) = recognize_cover(cover) {
        raw.decls.push(RawDecl {
            name: cover.output.clone(),
            kind: RawDriverKind::Gate(kind),
            fanins,
            span: cover.span,
        });
        return;
    }
    synthesize_cover(cover, raw, used);
}

/// Structural defects that make a cover unusable.
fn cover_defect(cover: &PendingCover) -> Option<String> {
    if cover.rows.len() > 1 {
        let first = cover.rows[0].out;
        if cover.rows.iter().any(|r| r.out != first) {
            return Some("cover mixes output values 0 and 1".to_owned());
        }
    }
    None
}

/// Matches the canonical single-gate cover shapes our writer emits (plus
/// their inverted-output duals).
fn recognize_cover(cover: &PendingCover) -> Option<(GateKind, Vec<String>)> {
    let n = cover.inputs.len();
    let rows = &cover.rows;
    let fanins = || cover.inputs.clone();

    if n == 0 {
        return match rows.len() {
            0 => Some((GateKind::Const0, Vec::new())),
            1 if rows[0].out == b'1' => Some((GateKind::Const1, Vec::new())),
            1 => Some((GateKind::Const0, Vec::new())),
            _ => None,
        };
    }
    if rows.is_empty() {
        return Some((GateKind::Const0, Vec::new()));
    }
    let out1 = rows[0].out == b'1';

    // Single-row covers: AND/NAND/NOR/OR and the one-input gates.
    if rows.len() == 1 {
        let p = &rows[0].pattern;
        if p.iter().all(|&b| b == b'1') {
            return Some(match (n, out1) {
                (1, true) => (GateKind::Buf, fanins()),
                (1, false) => (GateKind::Not, fanins()),
                (_, true) => (GateKind::And, fanins()),
                (_, false) => (GateKind::Nand, fanins()),
            });
        }
        if p.iter().all(|&b| b == b'0') {
            return Some(match (n, out1) {
                (1, true) => (GateKind::Not, fanins()),
                (1, false) => (GateKind::Buf, fanins()),
                (_, true) => (GateKind::Nor, fanins()),
                (_, false) => (GateKind::Or, fanins()),
            });
        }
        if p.iter().all(|&b| b == b'-') {
            return Some(if out1 {
                (GateKind::Const1, Vec::new())
            } else {
                (GateKind::Const0, Vec::new())
            });
        }
    }

    // One-hot rows: OR (each input raised exactly once, rest don't-care).
    if n >= 2 && rows.len() == n {
        let mut seen = vec![false; n];
        let one_hot = rows.iter().all(|r| {
            let ones: Vec<usize> = r
                .pattern
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'1')
                .map(|(i, _)| i)
                .collect();
            ones.len() == 1
                && r.pattern.iter().all(|&b| b != b'0')
                && !std::mem::replace(&mut seen[ones[0]], true)
        });
        if one_hot && seen.iter().all(|&s| s) {
            return Some(if out1 {
                (GateKind::Or, fanins())
            } else {
                (GateKind::Nor, fanins())
            });
        }
    }

    // Mux: select, d0, d1 — rows {01-, 1-1}.
    if n == 3 && rows.len() == 2 && out1 {
        let mut pats: Vec<&[u8]> = rows.iter().map(|r| r.pattern.as_slice()).collect();
        pats.sort_unstable();
        if pats == [b"01-".as_slice(), b"1-1".as_slice()] {
            return Some((GateKind::Mux, fanins()));
        }
    }

    // Full parity covers: XOR/XNOR.
    if (2..=16).contains(&n) && rows.len() == (1usize << (n - 1)) {
        let mut parity: Option<bool> = None;
        let full_minterms = rows.iter().all(|r| {
            if r.pattern.contains(&b'-') {
                return false;
            }
            let ones = r.pattern.iter().filter(|&&b| b == b'1').count();
            let p = ones % 2 == 1;
            match parity {
                None => {
                    parity = Some(p);
                    true
                }
                Some(q) => p == q,
            }
        });
        let distinct: HashSet<&[u8]> = rows.iter().map(|r| r.pattern.as_slice()).collect();
        if full_minterms && distinct.len() == rows.len() {
            let odd = parity.expect("rows nonempty");
            let kind = match (odd, out1) {
                (true, true) | (false, false) => GateKind::Xor,
                (true, false) | (false, true) => GateKind::Xnor,
            };
            return Some((kind, fanins()));
        }
    }

    None
}

/// Synthesizes a general cover as NOT/AND/OR helpers feeding the output.
fn synthesize_cover(cover: &PendingCover, raw: &mut RawNetlist, used: &mut HashSet<String>) {
    let span = cover.span;
    let fresh = |base: String, used: &mut HashSet<String>| -> String {
        let mut name = base;
        while used.contains(&name) {
            name.push('_');
        }
        used.insert(name.clone());
        name
    };
    let push_gate = |raw: &mut RawNetlist, name: String, kind: GateKind, fanins: Vec<String>| {
        raw.decls.push(RawDecl {
            name,
            kind: RawDriverKind::Gate(kind),
            fanins,
            span,
        });
    };

    let out1 = cover.rows.first().map_or(b'1', |r| r.out) == b'1';
    // Shared inverters for inputs used in a 0 literal.
    let mut inv_of: Vec<Option<String>> = vec![None; cover.inputs.len()];

    let mut terms: Vec<String> = Vec::new();
    for (ri, row) in cover.rows.iter().enumerate() {
        let mut literals: Vec<String> = Vec::new();
        for (i, &b) in row.pattern.iter().enumerate() {
            match b {
                b'1' => literals.push(cover.inputs[i].clone()),
                b'0' => {
                    if inv_of[i].is_none() {
                        let name = fresh(format!("{}$not{}", cover.output, cover.inputs[i]), used);
                        push_gate(
                            raw,
                            name.clone(),
                            GateKind::Not,
                            vec![cover.inputs[i].clone()],
                        );
                        inv_of[i] = Some(name);
                    }
                    literals.push(inv_of[i].clone().expect("inverter just created"));
                }
                _ => {}
            }
        }
        let term = match literals.len() {
            0 => {
                // Tautological row: the whole cover is constant.
                let kind = if out1 {
                    GateKind::Const1
                } else {
                    GateKind::Const0
                };
                push_gate(raw, cover.output.clone(), kind, Vec::new());
                return;
            }
            1 => literals.pop().expect("len checked"),
            _ => {
                let name = fresh(format!("{}$t{ri}", cover.output), used);
                push_gate(raw, name.clone(), GateKind::And, literals);
                name
            }
        };
        terms.push(term);
    }

    match (terms.len(), out1) {
        (0, _) => push_gate(raw, cover.output.clone(), GateKind::Const0, Vec::new()),
        (1, true) => push_gate(raw, cover.output.clone(), GateKind::Buf, terms),
        (1, false) => push_gate(raw, cover.output.clone(), GateKind::Not, terms),
        (_, true) => push_gate(raw, cover.output.clone(), GateKind::Or, terms),
        (_, false) => push_gate(raw, cover.output.clone(), GateKind::Nor, terms),
    }
}

/// Parses BLIF source text into a validated [`Circuit`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed or unsupported lines and
/// the builder's validation errors (duplicate drivers, undefined signals,
/// combinational cycles) for structurally invalid netlists.
pub fn parse(name: &str, source: &str) -> Result<Circuit, NetlistError> {
    parse_raw(name, source).build()
}

/// Reads and parses a `.blif` file; the circuit is named by the file's
/// `.model` line, falling back to the file stem.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] with the offending path for I/O failures,
/// and the usual parse/validation errors otherwise.
pub fn read_file(path: impl AsRef<std::path::Path>) -> Result<Circuit, NetlistError> {
    let path = path.as_ref();
    let source = crate::bench_format::read_source(path, &ParseLimits::default())?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    parse(name, &source)
}

/// Writes a circuit to a `.blif` file.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] with the offending path describing the I/O
/// failure.
pub fn write_file(
    circuit: &Circuit,
    path: impl AsRef<std::path::Path>,
) -> Result<(), NetlistError> {
    let path = path.as_ref();
    std::fs::write(path, write(circuit)).map_err(|e| NetlistError::io(path, &e))
}

fn write_name_list(out: &mut String, directive: &str, names: impl Iterator<Item = String>) {
    let mut line = directive.to_owned();
    for n in names {
        if line.len() + n.len() + 1 > 76 {
            let _ = writeln!(out, "{line} \\");
            line = format!("  {n}");
        } else {
            line.push(' ');
            line.push_str(&n);
        }
    }
    let _ = writeln!(out, "{line}");
}

/// Serialises a circuit to BLIF text using one canonical cover per gate
/// kind.
///
/// Latches and gate covers are emitted in net-table order — the same order
/// [`crate::bench_format::write`] uses — so `parse(write(c))` reproduces
/// `c` exactly (same net ids, same chain order, same name).
pub fn write(circuit: &Circuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", circuit.name());
    write_name_list(
        &mut out,
        ".inputs",
        circuit
            .inputs()
            .iter()
            .map(|&i| circuit.net(i).name().to_owned()),
    );
    write_name_list(
        &mut out,
        ".outputs",
        circuit
            .outputs()
            .iter()
            .map(|&o| circuit.net(o).name().to_owned()),
    );
    for id in (0..circuit.net_count()).map(NetId::from_index) {
        let net = circuit.net(id);
        match net.driver() {
            Driver::Input => {}
            Driver::Dff { d } => {
                let _ = writeln!(out, ".latch {} {} 3", circuit.net(*d).name(), net.name());
            }
            Driver::Gate { kind, fanins } => {
                write_name_list(
                    &mut out,
                    ".names",
                    fanins
                        .iter()
                        .map(|f| circuit.net(*f).name().to_owned())
                        .chain(std::iter::once(net.name().to_owned())),
                );
                write_cover(&mut out, *kind, fanins.len());
            }
        }
    }
    let _ = writeln!(out, ".end");
    out
}

/// Emits the canonical cover for `kind` with `n` inputs.
fn write_cover(out: &mut String, kind: GateKind, n: usize) {
    let row = |out: &mut String, pattern: String, v: char| {
        if pattern.is_empty() {
            let _ = writeln!(out, "{v}");
        } else {
            let _ = writeln!(out, "{pattern} {v}");
        }
    };
    match kind {
        GateKind::Const0 => {}
        GateKind::Const1 => row(out, String::new(), '1'),
        GateKind::And | GateKind::Buf => row(out, "1".repeat(n), '1'),
        GateKind::Nand => row(out, "1".repeat(n), '0'),
        GateKind::Nor | GateKind::Not => row(out, "0".repeat(n), '1'),
        GateKind::Or => {
            for i in 0..n {
                let mut p = "-".repeat(n);
                p.replace_range(i..=i, "1");
                row(out, p, '1');
            }
        }
        GateKind::Mux => {
            row(out, "01-".to_owned(), '1');
            row(out, "1-1".to_owned(), '1');
        }
        GateKind::Xor | GateKind::Xnor => {
            let want_odd = kind == GateKind::Xor;
            for bits in 0..(1u32 << n) {
                let ones = bits.count_ones() as usize;
                if (ones % 2 == 1) != want_odd {
                    continue;
                }
                let p: String = (0..n)
                    .map(|i| {
                        if bits >> (n - 1 - i) & 1 == 1 {
                            '1'
                        } else {
                            '0'
                        }
                    })
                    .collect();
                row(out, p, '1');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format;
    use crate::benchmarks;

    #[test]
    fn s27_roundtrips_exactly() {
        let c = benchmarks::s27();
        let text = write(&c);
        let c2 = parse("ignored-hint", &text).unwrap();
        assert_eq!(c, c2, "model name, ids and chain order survive");
    }

    #[test]
    fn every_gate_kind_roundtrips() {
        let src = "\
INPUT(s)\nINPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(k)\nOUTPUT(q)\n\
n1 = AND(a, b)\nn2 = NAND(a, b, c)\nn3 = OR(a, c)\nn4 = NOR(b, c)\n\
n5 = XOR(a, b)\nn6 = XNOR(a, b, c)\nn7 = NOT(a)\nn8 = BUFF(c)\n\
y = MUX(s, n1, n2)\nk = CONST1()\nz = CONST0()\nq = DFF(zz)\n\
zz = OR(n3, n4, n5, n6, n7, n8, z)\n";
        let c = bench_format::parse("kinds", src).unwrap();
        let c2 = parse("kinds", &write(&c)).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn latch_variants_and_continuations_parse() {
        let src = "\
.model m
.inputs \\
  a b
.outputs q0 q1 q2
.latch a q0
.latch a q1 2
.latch b q2 re clk 3
.end
";
        let c = parse("m", src).unwrap();
        assert_eq!(c.dffs().len(), 3);
        assert_eq!(c.inputs().len(), 2);
        assert_eq!(c.name(), "m");
    }

    #[test]
    fn general_covers_are_synthesized() {
        // y = a·b̄ + c — no canonical gate shape.
        let src = "\
.model sop
.inputs a b c
.outputs y
.names a b c y
10- 1
--1 1
.end
";
        let c = parse("sop", src).unwrap();
        // Truth check against the synthesized network.
        use crate::circuit::Driver;
        let eval = |va: bool, vb: bool, vc: bool| -> bool {
            let mut vals = vec![false; c.net_count()];
            for (&n, v) in c.inputs().iter().zip([va, vb, vc]) {
                vals[n.index()] = v;
            }
            for &id in c.comb_order() {
                let Driver::Gate { kind, fanins } = c.net(id).driver() else {
                    unreachable!()
                };
                let ins: Vec<bool> = fanins.iter().map(|f| vals[f.index()]).collect();
                vals[id.index()] = match kind {
                    GateKind::And => ins.iter().all(|&x| x),
                    GateKind::Or => ins.iter().any(|&x| x),
                    GateKind::Not => !ins[0],
                    GateKind::Buf => ins[0],
                    other => unreachable!("synthesis only emits AND/OR/NOT/BUF, got {other:?}"),
                };
            }
            vals[c.outputs()[0].index()]
        };
        for bits in 0..8 {
            let (a, b, cc) = (bits & 4 != 0, bits & 2 != 0, bits & 1 != 0);
            assert_eq!(eval(a, b, cc), (a && !b) || cc, "abc={a}{b}{cc}");
        }
    }

    #[test]
    fn off_set_covers_are_synthesized_inverted() {
        // y = NOT(a·b̄) via an OFF-set cover.
        let src = ".model f\n.inputs a b\n.outputs y\n.names a b y\n10 0\n.end\n";
        let c = parse("f", src).unwrap();
        let y = c.outputs()[0];
        // One NOT for b̄? No: the row is the OFF-set, so out = NOT(a AND b̄).
        assert!(matches!(
            c.net(y).driver(),
            Driver::Gate {
                kind: GateKind::Not,
                ..
            }
        ));
    }

    #[test]
    fn constant_covers_parse() {
        let src = "\
.model k
.inputs a
.outputs one zero dead
.names one
1
.names zero
.names a dead
-- is junk
.end
";
        // The junk row is a syntax error; drop it and check the clean part.
        let raw = parse_raw("k", src);
        assert_eq!(raw.syntax_errors.len(), 1);
        let src_ok = ".model k\n.inputs a\n.outputs one zero a\n.names one\n1\n.names zero\n.end\n";
        let c = parse("k", src_ok).unwrap();
        let one = c.find_net("one").unwrap();
        let zero = c.find_net("zero").unwrap();
        assert!(matches!(
            c.net(one).driver(),
            Driver::Gate {
                kind: GateKind::Const1,
                ..
            }
        ));
        assert!(matches!(
            c.net(zero).driver(),
            Driver::Gate {
                kind: GateKind::Const0,
                ..
            }
        ));
    }

    #[test]
    fn unsupported_constructs_are_reported_with_spans() {
        let src =
            ".model bad\n.inputs a\n.outputs y\n.subckt foo x=a\n.names a y\n1 1\n.end\nstray\n";
        let raw = parse_raw("bad", src);
        assert_eq!(raw.syntax_errors.len(), 2);
        assert_eq!(raw.syntax_errors[0].span.line(), Some(4));
        assert!(raw.syntax_errors[0].message.contains(".subckt"));
        assert_eq!(raw.syntax_errors[1].span.line(), Some(8));
        assert!(matches!(
            raw.build(),
            Err(NetlistError::Parse { line: 4, .. })
        ));
    }

    #[test]
    fn subckt_hierarchy_flattens() {
        // Two half-adders built from a shared `ha` model, chained into a
        // registered full adder — exercises input/output binding, internal
        // net prefixing, and latches around the hierarchy.
        let src = "\
.model top
.inputs x y cin clk_d
.outputs sum_q cout
.subckt ha a=x b=y s=s1 c=c1
.subckt ha a=s1 b=cin s=sum c=c2
.names c1 c2 cout
1- 1
-1 1
.latch sum sum_q 3
.names clk_d clk_q
1 1
.end
.model ha
.inputs a b
.outputs s c
.names a b s
10 1
01 1
.names a b c
11 1
.end
";
        let c = parse("top", src).unwrap();
        assert_eq!(c.name(), "top");
        assert_eq!(c.inputs().len(), 4);
        assert_eq!(c.outputs().len(), 2);
        assert_eq!(c.dffs().len(), 1);
        // Truth-table the flattened adder through the circuit evaluator.
        let eval = |vx: bool, vy: bool, vc: bool| -> (bool, bool) {
            let mut vals = vec![false; c.net_count()];
            for (&n, v) in c.inputs().iter().zip([vx, vy, vc, false]) {
                vals[n.index()] = v;
            }
            for &id in c.comb_order() {
                let Driver::Gate { kind, fanins } = c.net(id).driver() else {
                    unreachable!()
                };
                let ins: Vec<bool> = fanins.iter().map(|f| vals[f.index()]).collect();
                vals[id.index()] = match kind {
                    GateKind::And => ins.iter().all(|&v| v),
                    GateKind::Or => ins.iter().any(|&v| v),
                    GateKind::Xor => ins.iter().filter(|&&v| v).count() % 2 == 1,
                    GateKind::Not => !ins[0],
                    GateKind::Buf => ins[0],
                    other => unreachable!("unexpected {other:?}"),
                };
            }
            let sum = c.find_net("sum").unwrap();
            let cout = c.find_net("cout").unwrap();
            (vals[sum.index()], vals[cout.index()])
        };
        for bits in 0..8 {
            let (x, y, ci) = (bits & 4 != 0, bits & 2 != 0, bits & 1 != 0);
            let total = usize::from(x) + usize::from(y) + usize::from(ci);
            assert_eq!(eval(x, y, ci), (total % 2 == 1, total >= 2), "{x}{y}{ci}");
        }
    }

    #[test]
    fn subckt_errors_are_reported() {
        // Unknown port, unbound input, duplicate binding.
        let lib = "\n.model inv\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n";
        let bad_port =
            format!(".model t\n.inputs x\n.outputs y\n.subckt inv bogus=x y=y a=x\n.end{lib}");
        let raw = parse_raw("t", &bad_port);
        assert!(raw
            .syntax_errors
            .iter()
            .any(|e| e.message.contains("unknown port `bogus`")));
        let unbound = format!(".model t\n.inputs x\n.outputs y\n.subckt inv y=y\n.end{lib}");
        let raw = parse_raw("t", &unbound);
        assert!(raw
            .syntax_errors
            .iter()
            .any(|e| e.message.contains("leaves input `a` unbound")));
        let dup = format!(".model t\n.inputs x\n.outputs y\n.subckt inv a=x a=x y=y\n.end{lib}");
        let raw = parse_raw("t", &dup);
        assert!(raw
            .syntax_errors
            .iter()
            .any(|e| e.message.contains("binds port `a` twice")));
    }

    #[test]
    fn recursive_subckt_is_stopped_by_depth_cap() {
        use crate::limits::ParseLimit;
        // `loopy` instantiates itself: the depth ceiling must stop the
        // flatten with a typed error instead of recursing forever.
        let src = "\
.model loopy
.inputs a
.outputs y
.subckt loopy a=a y=y
.names a y
1 1
.end
";
        let raw = parse_raw("loopy", src);
        let err = raw.build().unwrap_err();
        assert!(
            matches!(
                err,
                NetlistError::LimitExceeded {
                    limit: ParseLimit::SubcktDepth | ParseLimit::SubcktInstances,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn subckt_instance_cap_is_enforced() {
        use crate::limits::{ParseLimit, ParseLimits};
        let mut src = String::from(".model t\n.inputs x\n.outputs y\n");
        for i in 0..10 {
            let _ = writeln!(src, ".subckt inv a=x y=w{i}");
        }
        src.push_str(
            ".names x y\n1 1\n.end\n.model inv\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n",
        );
        let l = ParseLimits {
            max_subckt_instances: 4,
            ..ParseLimits::default()
        };
        assert!(matches!(
            parse_raw_limited("t", &src, &l).build(),
            Err(NetlistError::LimitExceeded {
                limit: ParseLimit::SubcktInstances,
                ..
            })
        ));
        // The same netlist parses fine under the default budget.
        assert!(parse("t", &src).is_ok());
    }

    #[test]
    fn cover_row_and_line_limits_truncate() {
        use crate::limits::{ParseLimit, ParseLimits};
        let src = ".model m\n.inputs a b\n.outputs y\n.names a b y\n10 1\n01 1\n11 1\n.end\n";
        let l = ParseLimits {
            max_cover_rows: 2,
            ..ParseLimits::default()
        };
        assert!(matches!(
            parse_raw_limited("m", src, &l).build(),
            Err(NetlistError::LimitExceeded {
                limit: ParseLimit::CoverRows,
                line: 7,
                ..
            })
        ));
        let l = ParseLimits {
            max_line_bytes: 8,
            ..ParseLimits::default()
        };
        assert!(matches!(
            parse_raw_limited("m", src, &l).build(),
            Err(NetlistError::LimitExceeded {
                limit: ParseLimit::LineBytes,
                ..
            })
        ));
    }

    #[test]
    fn mixed_cover_outputs_are_rejected() {
        let src = ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n";
        assert!(matches!(
            parse("m", src),
            Err(NetlistError::Parse { line: 4, .. })
        ));
    }

    #[test]
    fn file_roundtrip() {
        let c = benchmarks::s27();
        let dir = std::env::temp_dir().join("limscan_blif_format_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s27.blif");
        write_file(&c, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(c, back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn spans_point_at_blif_lines() {
        let src = ".model m\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n";
        let c = parse("m", src).unwrap();
        assert_eq!(c.span(c.find_net("a").unwrap()).line(), Some(2));
        assert_eq!(c.span(c.find_net("y").unwrap()).line(), Some(4));
    }

    #[test]
    fn synthetic_benchmarks_roundtrip() {
        for name in ["s298", "s344", "b01", "b06"] {
            let c = benchmarks::load(name).unwrap();
            let c2 = parse(name, &write(&c)).unwrap();
            assert_eq!(c, c2, "{name}");
        }
    }
}
