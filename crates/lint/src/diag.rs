//! The diagnostics data model: rule codes, severities, findings, reports.

use std::fmt;

use limscan_netlist::Span;

/// How bad a finding is.
///
/// `Error` findings describe circuits the limscan flows cannot process
/// soundly (they would panic or silently mis-simulate); `Warning` findings
/// describe structures that work but will hurt coverage or test length;
/// `Info` findings are observations.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// An observation; never gates anything.
    Info,
    /// Suspicious but processable.
    Warning,
    /// The circuit is unsound for the limscan flows.
    Error,
}

impl Severity {
    /// The lowercase human label (`error`, `warning`, `info`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }

    /// Parses a label as produced by [`label`](Self::label).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "error" => Severity::Error,
            "warning" => Severity::Warning,
            "info" => Severity::Info,
            _ => return None,
        })
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Identity of a lint rule.
///
/// Codes are grouped by family: `L0xx` structural, `L1xx` scan integrity,
/// `L2xx` testability. The code/slug pair is stable across releases so it
/// can be referenced from CI configuration and suppression comments.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RuleCode {
    /// `L000` — a line that could not be parsed at all (including unknown
    /// gate mnemonics).
    SyntaxError,
    /// `L001` — combinational logic forms a cycle through non-flip-flop
    /// paths.
    CombinationalCycle,
    /// `L002` — a net is referenced (as a fanin or an output) but never
    /// driven.
    UndrivenNet,
    /// `L003` — a net is driven by more than one declaration.
    MultiplyDrivenNet,
    /// `L004` — a gate from whose output no primary output or flip-flop can
    /// be reached; its value is unobservable in every time frame.
    DanglingGate,
    /// `L005` — a gate or flip-flop declared with the wrong number of
    /// fanins.
    BadFaninArity,
    /// `L006` — the circuit has no primary outputs and no flip-flops, so
    /// nothing is observable.
    NothingObservable,
    /// `L007` — the source tripped a [`ParseLimits`] resource ceiling
    /// (file size, line length, net/fanin counts, ...); everything past
    /// the violation was ignored, so other findings may be incomplete.
    ///
    /// [`ParseLimits`]: limscan_netlist::ParseLimits
    LimitExceeded,
    /// `L101` — a flip-flop is not fronted by a scan multiplexer selected
    /// by `scan_sel`.
    MissingScanMux,
    /// `L102` — scan chain threading disagrees with flip-flop declaration
    /// order (the order `shifts_to_observe` and state loading assume).
    ChainOrder,
    /// `L103` — scan port wiring is wrong: `scan_sel`/`scan_inp` feed
    /// non-scan logic, or a chain's scan-out is not observed.
    ScanPortWiring,
    /// `L104` — the scan chains do not cover every flip-flop exactly once.
    ChainLength,
    /// `L201` — a net SCOAP controllability says is impractical (or
    /// impossible) to set to 0 or 1.
    HardToControl,
    /// `L202` — a net SCOAP observability says is impractical (or
    /// impossible) to observe.
    HardToObserve,
    /// `L203` — a flip-flop unreachable from every primary input: its
    /// power-up X can never be flushed functionally.
    XSource,
    /// `L204` — a gate output the static implication engine proves
    /// constant in every time frame; the logic computing it is redundant
    /// and one of its stuck-at faults is untestable.
    ConstantNet,
    /// `L205` — a two-input AND/NAND/OR/NOR fanin whose non-controlling
    /// value is implied by the other fanin's; the gate collapses to a
    /// (possibly inverted) copy of that other fanin.
    RedundantFanin,
}

impl RuleCode {
    /// Every rule code, in catalog order.
    pub const ALL: [RuleCode; 17] = [
        RuleCode::SyntaxError,
        RuleCode::CombinationalCycle,
        RuleCode::UndrivenNet,
        RuleCode::MultiplyDrivenNet,
        RuleCode::DanglingGate,
        RuleCode::BadFaninArity,
        RuleCode::NothingObservable,
        RuleCode::LimitExceeded,
        RuleCode::MissingScanMux,
        RuleCode::ChainOrder,
        RuleCode::ScanPortWiring,
        RuleCode::ChainLength,
        RuleCode::HardToControl,
        RuleCode::HardToObserve,
        RuleCode::XSource,
        RuleCode::ConstantNet,
        RuleCode::RedundantFanin,
    ];

    /// The stable short code, e.g. `L001`.
    pub fn code(self) -> &'static str {
        match self {
            RuleCode::SyntaxError => "L000",
            RuleCode::CombinationalCycle => "L001",
            RuleCode::UndrivenNet => "L002",
            RuleCode::MultiplyDrivenNet => "L003",
            RuleCode::DanglingGate => "L004",
            RuleCode::BadFaninArity => "L005",
            RuleCode::NothingObservable => "L006",
            RuleCode::LimitExceeded => "L007",
            RuleCode::MissingScanMux => "L101",
            RuleCode::ChainOrder => "L102",
            RuleCode::ScanPortWiring => "L103",
            RuleCode::ChainLength => "L104",
            RuleCode::HardToControl => "L201",
            RuleCode::HardToObserve => "L202",
            RuleCode::XSource => "L203",
            RuleCode::ConstantNet => "L204",
            RuleCode::RedundantFanin => "L205",
        }
    }

    /// The stable kebab-case rule name, e.g. `combinational-cycle`.
    pub fn slug(self) -> &'static str {
        match self {
            RuleCode::SyntaxError => "syntax-error",
            RuleCode::CombinationalCycle => "combinational-cycle",
            RuleCode::UndrivenNet => "undriven-net",
            RuleCode::MultiplyDrivenNet => "multiply-driven-net",
            RuleCode::DanglingGate => "dangling-gate",
            RuleCode::BadFaninArity => "bad-fanin-arity",
            RuleCode::NothingObservable => "nothing-observable",
            RuleCode::LimitExceeded => "limit-exceeded",
            RuleCode::MissingScanMux => "missing-scan-mux",
            RuleCode::ChainOrder => "chain-order",
            RuleCode::ScanPortWiring => "scan-port-wiring",
            RuleCode::ChainLength => "chain-length",
            RuleCode::HardToControl => "hard-to-control",
            RuleCode::HardToObserve => "hard-to-observe",
            RuleCode::XSource => "x-source",
            RuleCode::ConstantNet => "constant-net",
            RuleCode::RedundantFanin => "redundant-fanin",
        }
    }

    /// The severity findings of this rule carry.
    pub fn severity(self) -> Severity {
        match self {
            RuleCode::SyntaxError
            | RuleCode::CombinationalCycle
            | RuleCode::UndrivenNet
            | RuleCode::MultiplyDrivenNet
            | RuleCode::BadFaninArity
            | RuleCode::NothingObservable
            | RuleCode::LimitExceeded
            | RuleCode::MissingScanMux
            | RuleCode::ChainOrder
            | RuleCode::ScanPortWiring
            | RuleCode::ChainLength => Severity::Error,
            RuleCode::DanglingGate
            | RuleCode::HardToControl
            | RuleCode::HardToObserve
            | RuleCode::XSource
            | RuleCode::ConstantNet
            | RuleCode::RedundantFanin => Severity::Warning,
        }
    }
}

impl fmt::Display for RuleCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code(), self.slug())
    }
}

/// One finding: a rule violation anchored to a source span.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// The violated rule.
    pub code: RuleCode,
    /// Severity (normally [`RuleCode::severity`]).
    pub severity: Severity,
    /// The `.bench` line the finding points at ([`Span::NONE`] for
    /// circuit-level findings or programmatically built nets).
    pub span: Span,
    /// The offending net's name, when the finding is about one net.
    pub net: Option<String>,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the rule has a concrete suggestion.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// A finding with the rule's default severity and no net/suggestion.
    pub fn new(code: RuleCode, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            net: None,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches the offending net's name.
    #[must_use]
    pub fn with_net(mut self, net: impl Into<String>) -> Self {
        self.net = Some(net.into());
        self
    }

    /// Attaches a fix suggestion.
    #[must_use]
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// Renders the finding in compiler style:
    /// `file:line: severity[CODE] slug: message`.
    pub fn render_human(&self, file: &str) -> String {
        let mut out = String::new();
        match self.span.line() {
            Some(line) => out.push_str(&format!("{file}:{line}: ")),
            None => out.push_str(&format!("{file}: ")),
        }
        out.push_str(&format!(
            "{}[{}] {}: {}",
            self.severity,
            self.code.code(),
            self.code.slug(),
            self.message
        ));
        if let Some(s) = &self.suggestion {
            out.push_str(&format!("\n  help: {s}"));
        }
        out
    }
}

/// The outcome of a lint run: findings sorted by source position.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Wraps raw findings, sorting them by line (spanless findings last),
    /// then code.
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by_key(|d| (d.span.line().unwrap_or(usize::MAX), d.code, d.net.clone()));
        LintReport { diagnostics }
    }

    /// All findings, in report order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of findings at exactly this severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether the report contains no findings at or above `min`.
    pub fn is_clean(&self, min: Severity) -> bool {
        !self.diagnostics.iter().any(|d| d.severity >= min)
    }

    /// Whether any error-severity finding is present.
    pub fn has_errors(&self) -> bool {
        !self.is_clean(Severity::Error)
    }

    /// A copy keeping only findings at or above `min`.
    #[must_use]
    pub fn filtered(&self, min: Severity) -> LintReport {
        LintReport {
            diagnostics: self
                .diagnostics
                .iter()
                .filter(|d| d.severity >= min)
                .cloned()
                .collect(),
        }
    }

    /// Merges another report into this one, re-sorting.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
        let merged = std::mem::take(&mut self.diagnostics);
        *self = LintReport::new(merged);
    }

    /// Renders every finding in compiler style, one per finding, plus a
    /// summary line.
    pub fn render_human(&self, file: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_human(file));
            out.push('\n');
        }
        out.push_str(&format!(
            "{file}: {} error(s), {} warning(s), {} info",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severities_order_and_parse() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        for s in [Severity::Error, Severity::Warning, Severity::Info] {
            assert_eq!(Severity::parse(s.label()), Some(s));
        }
        assert_eq!(Severity::parse("fatal"), None);
    }

    #[test]
    fn rule_codes_are_unique_and_stable() {
        let mut codes: Vec<&str> = RuleCode::ALL.iter().map(|r| r.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), RuleCode::ALL.len());
        assert_eq!(RuleCode::CombinationalCycle.code(), "L001");
        assert_eq!(RuleCode::CombinationalCycle.slug(), "combinational-cycle");
        assert_eq!(RuleCode::MissingScanMux.code(), "L101");
        assert_eq!(RuleCode::HardToControl.severity(), Severity::Warning);
        assert_eq!(RuleCode::ChainOrder.severity(), Severity::Error);
    }

    #[test]
    fn report_sorts_and_filters() {
        let d1 = Diagnostic::new(RuleCode::DanglingGate, Span::at_line(9), "late");
        let d2 = Diagnostic::new(RuleCode::CombinationalCycle, Span::at_line(2), "early");
        let d3 = Diagnostic::new(RuleCode::XSource, Span::NONE, "spanless");
        let r = LintReport::new(vec![d1, d2, d3]);
        let lines: Vec<Option<usize>> = r.diagnostics().iter().map(|d| d.span.line()).collect();
        assert_eq!(lines, [Some(2), Some(9), None]);
        assert!(r.has_errors());
        assert!(!r.is_clean(Severity::Warning));
        assert_eq!(r.filtered(Severity::Error).diagnostics().len(), 1);
        assert!(!r.filtered(Severity::Error).is_clean(Severity::Error));
    }

    #[test]
    fn human_rendering_is_compiler_style() {
        let d = Diagnostic::new(
            RuleCode::UndrivenNet,
            Span::at_line(4),
            "net `x` is undriven",
        )
        .with_net("x")
        .with_suggestion("declare `x` with INPUT(x) or an assignment");
        let text = d.render_human("c.bench");
        assert!(
            text.starts_with("c.bench:4: error[L002] undriven-net:"),
            "{text}"
        );
        assert!(text.contains("help:"), "{text}");
    }
}
