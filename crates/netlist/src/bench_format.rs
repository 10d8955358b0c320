//! Parser and writer for the ISCAS-89 `.bench` textual netlist format.
//!
//! The format consists of `INPUT(name)` / `OUTPUT(name)` declarations and
//! assignments `name = KIND(fanin, fanin, ...)`, with `#` comments. `DFF`
//! assignments declare flip-flops; all other kinds are combinational gates.
//!
//! # Example
//!
//! ```
//! use limscan_netlist::bench_format;
//!
//! # fn main() -> Result<(), limscan_netlist::NetlistError> {
//! let src = "\
//! INPUT(a)
//! INPUT(b)
//! OUTPUT(y)
//! y = NAND(a, b)
//! ";
//! let c = bench_format::parse("nand2", src)?;
//! assert_eq!(c.gate_count(), 1);
//! let round = bench_format::write(&c);
//! assert_eq!(bench_format::parse("nand2", &round)?, c);
//! # Ok(())
//! # }
//! ```

use std::fmt::Write as _;

use crate::circuit::{Circuit, Driver, GateKind, NetId, Span};
use crate::error::NetlistError;
use crate::limits::{LimitViolation, ParseLimit, ParseLimits};
use crate::raw::{RawDecl, RawDriverKind, RawNetlist, RawOutput, SyntaxError};

fn kind_from_mnemonic(s: &str) -> Option<GateKind> {
    Some(match s.to_ascii_uppercase().as_str() {
        "AND" => GateKind::And,
        "NAND" => GateKind::Nand,
        "OR" => GateKind::Or,
        "NOR" => GateKind::Nor,
        "XOR" => GateKind::Xor,
        "XNOR" => GateKind::Xnor,
        "NOT" | "INV" => GateKind::Not,
        "BUF" | "BUFF" => GateKind::Buf,
        "MUX" => GateKind::Mux,
        "CONST0" => GateKind::Const0,
        "CONST1" => GateKind::Const1,
        _ => return None,
    })
}

/// One syntactically well-formed `.bench` statement.
enum Stmt<'a> {
    Input(&'a str),
    Output(&'a str),
    Assign {
        lhs: &'a str,
        mnemonic: &'a str,
        fanins: Vec<&'a str>,
    },
}

/// Scans one comment-stripped, non-empty line into a statement, without any
/// semantic validation (unknown mnemonics and wrong arities pass through).
fn scan_statement(line: &str) -> Result<Stmt<'_>, String> {
    if let Some(rest) = strip_call(line, "INPUT") {
        return Ok(Stmt::Input(rest.trim()));
    }
    if let Some(rest) = strip_call(line, "OUTPUT") {
        return Ok(Stmt::Output(rest.trim()));
    }
    if let Some((lhs, rhs)) = line.split_once('=') {
        let lhs = lhs.trim();
        let rhs = rhs.trim();
        let (mnemonic, args) = rhs
            .split_once('(')
            .ok_or_else(|| format!("expected KIND(...) on right-hand side, got `{rhs}`"))?;
        let args = args
            .strip_suffix(')')
            .ok_or_else(|| "missing closing parenthesis".to_owned())?;
        let fanins: Vec<&str> = args
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        return Ok(Stmt::Assign {
            lhs,
            mnemonic: mnemonic.trim(),
            fanins,
        });
    }
    Err(format!("unrecognised line `{line}`"))
}

/// Parses `.bench` source text permissively into a [`RawNetlist`]: every
/// declaration is recorded as written (duplicates, unknown mnemonics and
/// wrong arities included) together with its line [`Span`], and malformed
/// lines are collected instead of aborting the parse. This is the entry
/// point for the `limscan-lint` diagnostics engine, which wants *all*
/// defects, not the first one.
pub fn parse_raw(name: &str, source: &str) -> RawNetlist {
    parse_raw_limited(name, source, &ParseLimits::default())
}

/// [`parse_raw`] under an explicit resource budget. The first ceiling
/// crossed truncates the parse and is recorded as the netlist's
/// [`limit_error`](RawNetlist::limit_error), which
/// [`build`](RawNetlist::build) turns into a typed
/// [`NetlistError::LimitExceeded`].
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
    for (lineno, text) in source.lines().enumerate() {
        let span = Span::at_line(lineno + 1);
        if text.len() > limits.max_line_bytes {
            raw.limit_error = Some(LimitViolation {
                limit: ParseLimit::LineBytes,
                line: lineno + 1,
                actual: text.len() as u64,
                max: limits.max_line_bytes as u64,
            });
            return raw;
        }
        let line = text.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let net_cap = |raw: &mut RawNetlist| -> bool {
            if raw.decls.len() >= limits.max_nets {
                raw.limit_error = Some(LimitViolation {
                    limit: ParseLimit::Nets,
                    line: lineno + 1,
                    actual: raw.decls.len() as u64 + 1,
                    max: limits.max_nets as u64,
                });
                return true;
            }
            false
        };
        match scan_statement(line) {
            Ok(Stmt::Input(name)) => {
                if net_cap(&mut raw) {
                    return raw;
                }
                raw.decls.push(RawDecl {
                    name: name.to_owned(),
                    kind: RawDriverKind::Input,
                    fanins: Vec::new(),
                    span,
                });
            }
            Ok(Stmt::Output(name)) => raw.outputs.push(RawOutput {
                name: name.to_owned(),
                span,
            }),
            Ok(Stmt::Assign {
                lhs,
                mnemonic,
                fanins,
            }) => {
                if net_cap(&mut raw) {
                    return raw;
                }
                if fanins.len() > limits.max_fanin {
                    raw.limit_error = Some(LimitViolation {
                        limit: ParseLimit::FaninArity,
                        line: lineno + 1,
                        actual: fanins.len() as u64,
                        max: limits.max_fanin as u64,
                    });
                    return raw;
                }
                let kind = if mnemonic.eq_ignore_ascii_case("DFF") {
                    RawDriverKind::Dff
                } else {
                    match kind_from_mnemonic(mnemonic) {
                        Some(k) => RawDriverKind::Gate(k),
                        None => RawDriverKind::UnknownGate(mnemonic.to_owned()),
                    }
                };
                raw.decls.push(RawDecl {
                    name: lhs.to_owned(),
                    kind,
                    fanins: fanins.into_iter().map(str::to_owned).collect(),
                    span,
                });
            }
            Err(message) => raw.syntax_errors.push(SyntaxError { span, message }),
        }
    }
    raw
}

/// Parses `.bench` source text into a validated [`Circuit`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed lines and any of the
/// builder's validation errors (duplicate drivers, undefined signals,
/// combinational cycles) for structurally invalid netlists.
pub fn parse(name: &str, source: &str) -> Result<Circuit, NetlistError> {
    parse_raw(name, source).build()
}

fn strip_call<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(keyword)?.trim_start();
    rest.strip_prefix('(')?.strip_suffix(')')
}

/// Reads and parses a `.bench` file; the circuit is named after the file
/// stem.
///
/// # Errors
///
/// Returns [`NetlistError::Io`] with the offending path for I/O failures,
/// and the usual parse/validation errors otherwise.
pub fn read_file(path: impl AsRef<std::path::Path>) -> Result<Circuit, NetlistError> {
    let path = path.as_ref();
    let source = read_source(path, &ParseLimits::default())?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    parse(name, &source)
}

/// Reads a source file with its size checked against the budget before
/// any byte is loaded, so an oversized file costs a `stat`, not an
/// allocation. Shared by the `.bench` and BLIF readers and by callers that
/// parse a file permissively under their own budget.
///
/// # Errors
///
/// [`NetlistError::LimitExceeded`] (line 0) for a file larger than
/// [`ParseLimits::max_source_bytes`], and [`NetlistError::Io`] with the
/// offending path for I/O failures.
pub fn read_source(path: &std::path::Path, limits: &ParseLimits) -> Result<String, NetlistError> {
    let meta = std::fs::metadata(path).map_err(|e| NetlistError::io(path, &e))?;
    if meta.len() > limits.max_source_bytes {
        return Err(NetlistError::LimitExceeded {
            limit: ParseLimit::SourceBytes,
            line: 0,
            actual: meta.len(),
            max: limits.max_source_bytes,
        });
    }
    std::fs::read_to_string(path).map_err(|e| NetlistError::io(path, &e))
}

/// Writes a circuit to a `.bench` file.
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

/// Serialises a circuit back to `.bench` text.
///
/// Gate assignments are emitted in net-table order, so `parse(write(c))`
/// reproduces `c` exactly (same net ids, same chain order).
pub fn write(circuit: &Circuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", circuit.name());
    for &i in circuit.inputs() {
        let _ = writeln!(out, "INPUT({})", circuit.net(i).name());
    }
    for &o in circuit.outputs() {
        let _ = writeln!(out, "OUTPUT({})", circuit.net(o).name());
    }
    for id in (0..circuit.net_count()).map(NetId::from_index) {
        let net = circuit.net(id);
        match net.driver() {
            Driver::Input => {}
            Driver::Dff { d } => {
                let _ = writeln!(out, "{} = DFF({})", net.name(), circuit.net(*d).name());
            }
            Driver::Gate { kind, fanins } => {
                let args: Vec<&str> = fanins.iter().map(|f| circuit.net(*f).name()).collect();
                let _ = writeln!(
                    out,
                    "{} = {}({})",
                    net.name(),
                    kind.mnemonic(),
                    args.join(", ")
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            parse("bad", "widget"),
            Err(NetlistError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse("bad", "y = FROB(a)"),
            Err(NetlistError::Parse { .. })
        ));
        assert!(matches!(
            parse("bad", "y = AND(a, b"),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "# header\n\nINPUT(a)  # trailing\nOUTPUT(y)\ny = NOT(a)\n";
        let c = parse("c", src).unwrap();
        assert_eq!(c.net_count(), 2);
    }

    #[test]
    fn dff_requires_single_fanin() {
        let src = "INPUT(a)\nOUTPUT(q)\nq = DFF(a, a)\n";
        assert!(matches!(parse("c", src), Err(NetlistError::Parse { .. })));
    }

    #[test]
    fn duplicate_input_is_a_parse_error() {
        let src = "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n";
        assert!(matches!(
            parse("c", src),
            Err(NetlistError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn s27_roundtrips() {
        let c = benchmarks::s27();
        let text = write(&c);
        let c2 = parse(c.name(), &text).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn file_roundtrip() {
        let c = benchmarks::s27();
        let dir = std::env::temp_dir().join("limscan_bench_format_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s27.bench");
        write_file(&c, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(c, back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_missing_file_is_an_io_error_with_the_path() {
        let err = read_file("/nonexistent/limscan/file.bench").unwrap_err();
        let NetlistError::Io { path, message } = &err else {
            panic!("expected Io error, got {err:?}");
        };
        assert_eq!(path, "/nonexistent/limscan/file.bench");
        assert!(!message.is_empty());
        assert!(err.to_string().contains("file.bench"), "{err}");
    }

    #[test]
    fn write_to_unwritable_path_is_an_io_error() {
        let c = benchmarks::s27();
        let err = write_file(&c, "/nonexistent/limscan/out.bench").unwrap_err();
        assert!(matches!(err, NetlistError::Io { .. }));
    }

    #[test]
    fn parsed_circuits_carry_line_spans() {
        let src = "# header\nINPUT(a)\nOUTPUT(y)\n\ny = NOT(a)  # gate\n";
        let c = parse("c", src).unwrap();
        assert_eq!(c.span(c.find_net("a").unwrap()).line(), Some(2));
        assert_eq!(c.span(c.find_net("y").unwrap()).line(), Some(5));
    }

    #[test]
    fn limits_truncate_with_typed_errors() {
        use crate::limits::{ParseLimit, ParseLimits};
        let tight = |f: fn(&mut ParseLimits)| {
            let mut l = ParseLimits::default();
            f(&mut l);
            l
        };
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
        // Source-byte ceiling, before any line parses.
        let l = tight(|l| l.max_source_bytes = 8);
        let raw = parse_raw_limited("c", src, &l);
        assert!(raw.decls.is_empty(), "parse truncated");
        assert!(matches!(
            raw.build(),
            Err(NetlistError::LimitExceeded {
                limit: ParseLimit::SourceBytes,
                line: 0,
                ..
            })
        ));
        // Net ceiling.
        let l = tight(|l| l.max_nets = 2);
        assert!(matches!(
            parse_raw_limited("c", src, &l).build(),
            Err(NetlistError::LimitExceeded {
                limit: ParseLimit::Nets,
                line: 4,
                ..
            })
        ));
        // Fanin ceiling.
        let l = tight(|l| l.max_fanin = 1);
        assert!(matches!(
            parse_raw_limited("c", src, &l).build(),
            Err(NetlistError::LimitExceeded {
                limit: ParseLimit::FaninArity,
                actual: 2,
                ..
            })
        ));
        // Line-byte ceiling.
        let long = format!("INPUT({})\n", "x".repeat(64));
        let l = tight(|l| l.max_line_bytes = 16);
        assert!(matches!(
            parse_raw_limited("c", &long, &l).build(),
            Err(NetlistError::LimitExceeded {
                limit: ParseLimit::LineBytes,
                line: 1,
                ..
            })
        ));
        // Default budget leaves the same source untouched.
        assert!(parse("c", src).is_ok());
    }

    #[test]
    fn oversized_file_is_rejected_before_reading() {
        use crate::limits::{ParseLimit, ParseLimits};
        let dir = std::env::temp_dir().join("limscan_bench_limit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.bench");
        // Not UTF-8: reading the text would fail, so the size alone decides.
        std::fs::write(&path, b"INPUT(a)\nOUTPUT(a)\n\xff").unwrap();
        let l = ParseLimits {
            max_source_bytes: 4,
            ..ParseLimits::default()
        };
        assert!(matches!(
            read_source(&path, &l),
            Err(NetlistError::LimitExceeded {
                limit: ParseLimit::SourceBytes,
                line: 0,
                actual: 20,
                max: 4,
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mux_and_constants_roundtrip() {
        let src = "INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(k)\n\
                   y = MUX(s, a, b)\nk = CONST1()\n";
        let c = parse("m", src).unwrap();
        let c2 = parse("m", &write(&c)).unwrap();
        assert_eq!(c, c2);
    }
}
