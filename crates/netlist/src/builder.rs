//! Name-based circuit construction with forward references.

use std::collections::HashMap;

use crate::circuit::{Circuit, Driver, GateKind, Net, NetId, Pin, Span};
use crate::error::NetlistError;

enum ProtoDriver {
    Input,
    Gate { kind: GateKind, fanins: Vec<String> },
    Dff { d: String },
}

/// Builds a [`Circuit`] from named signals, resolving names at
/// [`build`](CircuitBuilder::build) time so that forward references (such as
/// a flip-flop whose D input is defined later) are allowed, exactly as in the
/// `.bench` format.
///
/// # Example
///
/// ```
/// use limscan_netlist::{CircuitBuilder, GateKind};
///
/// # fn main() -> Result<(), limscan_netlist::NetlistError> {
/// let mut b = CircuitBuilder::new("counter_bit");
/// b.input("en");
/// b.dff("q", "d")?;              // `d` is defined below
/// b.gate("d", GateKind::Xor, &["q", "en"])?;
/// b.output("q");
/// let c = b.build()?;
/// assert_eq!(c.dffs().len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct CircuitBuilder {
    name: String,
    /// (signal name, driver, declaration span) in declaration order.
    signals: Vec<(String, ProtoDriver, Span)>,
    by_name: HashMap<String, usize>,
    outputs: Vec<String>,
    /// Span stamped onto subsequent declarations; see [`at`](Self::at).
    current_span: Span,
}

impl CircuitBuilder {
    /// Creates an empty builder for a circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        CircuitBuilder {
            name: name.into(),
            signals: Vec::new(),
            by_name: HashMap::new(),
            outputs: Vec::new(),
            current_span: Span::NONE,
        }
    }

    /// Sets the source [`Span`] stamped onto declarations made after this
    /// call (until the next `at`). The `.bench` parser uses this to thread
    /// line numbers into the circuit; programmatic construction can ignore
    /// it and leave every net at [`Span::NONE`].
    pub fn at(&mut self, span: Span) -> &mut Self {
        self.current_span = span;
        self
    }

    fn declare(&mut self, name: &str, driver: ProtoDriver) -> Result<(), NetlistError> {
        if self.by_name.contains_key(name) {
            return Err(NetlistError::DuplicateDriver { name: name.into() });
        }
        self.by_name.insert(name.to_owned(), self.signals.len());
        self.signals
            .push((name.to_owned(), driver, self.current_span));
        Ok(())
    }

    /// Declares a primary input.
    ///
    /// # Panics
    ///
    /// Panics if the name is already driven; inputs are typically declared
    /// first, so this is treated as a programming error rather than a
    /// recoverable condition. Use [`try_input`](Self::try_input) when the
    /// name comes from untrusted data.
    pub fn input(&mut self, name: &str) {
        self.try_input(name).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Declares a primary input, reporting duplicates as an error.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateDriver`] if `name` already has a
    /// driver.
    pub fn try_input(&mut self, name: &str) -> Result<(), NetlistError> {
        self.declare(name, ProtoDriver::Input)
    }

    /// Declares a combinational gate driving `name`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateDriver`] if `name` already has a
    /// driver and [`NetlistError::BadFaninCount`] if the fanin count does not
    /// match the gate kind's arity.
    pub fn gate(
        &mut self,
        name: &str,
        kind: GateKind,
        fanins: &[&str],
    ) -> Result<(), NetlistError> {
        let ok = match kind.arity() {
            Some(n) => fanins.len() == n,
            None => fanins.len() >= 2,
        };
        if !ok {
            return Err(NetlistError::BadFaninCount {
                name: name.into(),
                kind: kind.mnemonic(),
                got: fanins.len(),
            });
        }
        self.declare(
            name,
            ProtoDriver::Gate {
                kind,
                fanins: fanins.iter().map(|s| (*s).to_owned()).collect(),
            },
        )
    }

    /// Declares a D flip-flop with output `q` and D input signal `d`.
    ///
    /// The declaration order of flip-flops defines the scan chain order used
    /// by scan insertion.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateDriver`] if `q` already has a driver.
    pub fn dff(&mut self, q: &str, d: &str) -> Result<(), NetlistError> {
        self.declare(q, ProtoDriver::Dff { d: d.to_owned() })
    }

    /// Marks an existing (or forward-referenced) signal as a primary output.
    pub fn output(&mut self, name: &str) {
        self.outputs.push(name.to_owned());
    }

    /// Resolves all names, validates the netlist, levelizes the
    /// combinational logic, indexes every net (its position among the nets
    /// of its kind, output flag and level) and produces the immutable
    /// [`Circuit`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UndefinedSignal`] for dangling references,
    /// [`NetlistError::CombinationalCycle`] if gate logic forms a cycle, and
    /// [`NetlistError::NothingObservable`] for a circuit with neither
    /// outputs nor flip-flops.
    pub fn build(self) -> Result<Circuit, NetlistError> {
        let resolve = |name: &str| -> Result<NetId, NetlistError> {
            self.by_name
                .get(name)
                .map(|&i| NetId::from_index(i))
                .ok_or_else(|| NetlistError::UndefinedSignal { name: name.into() })
        };

        let mut nets = Vec::with_capacity(self.signals.len());
        let mut spans = Vec::with_capacity(self.signals.len());
        let mut inputs = Vec::new();
        let mut dffs = Vec::new();
        for (i, (name, proto, span)) in self.signals.iter().enumerate() {
            let driver = match proto {
                ProtoDriver::Input => {
                    inputs.push(NetId::from_index(i));
                    Driver::Input
                }
                ProtoDriver::Gate { kind, fanins } => Driver::Gate {
                    kind: *kind,
                    fanins: fanins
                        .iter()
                        .map(|f| resolve(f))
                        .collect::<Result<Vec<_>, _>>()?,
                },
                ProtoDriver::Dff { d } => {
                    dffs.push(NetId::from_index(i));
                    Driver::Dff { d: resolve(d)? }
                }
            };
            nets.push(Net {
                name: name.clone(),
                driver,
            });
            spans.push(*span);
        }

        let outputs = self
            .outputs
            .iter()
            .map(|o| resolve(o))
            .collect::<Result<Vec<_>, _>>()?;

        if outputs.is_empty() && dffs.is_empty() {
            return Err(NetlistError::NothingObservable);
        }

        let fanouts = compute_fanouts(&nets);
        let (comb_order, level) = crate::level::levelize(&nets)?;
        let depth = level.iter().copied().max().unwrap_or(0);
        let mut position = vec![0u32; nets.len()];
        for list in [&inputs, &comb_order, &dffs] {
            for (i, id) in list.iter().enumerate() {
                position[id.index()] = i as u32;
            }
        }
        let mut output_flag = vec![false; nets.len()];
        for o in &outputs {
            output_flag[o.index()] = true;
        }

        Ok(Circuit {
            name: self.name,
            nets,
            inputs,
            outputs,
            dffs,
            fanouts,
            comb_order,
            spans,
            position,
            output_flag,
            level,
            depth,
        })
    }
}

fn compute_fanouts(nets: &[Net]) -> Vec<Vec<Pin>> {
    let mut fanouts = vec![Vec::new(); nets.len()];
    for (i, net) in nets.iter().enumerate() {
        for (pin, &fanin) in net.driver.fanins().iter().enumerate() {
            fanouts[fanin.index()].push(Pin {
                net: NetId::from_index(i),
                pin: pin as u8,
            });
        }
    }
    fanouts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_reference_through_dff_resolves() {
        let mut b = CircuitBuilder::new("fwd");
        b.input("x");
        b.dff("q", "d").unwrap();
        b.gate("d", GateKind::And, &["q", "x"]).unwrap();
        b.output("q");
        let c = b.build().unwrap();
        assert_eq!(c.dffs().len(), 1);
        let q = c.find_net("q").unwrap();
        let d = c.find_net("d").unwrap();
        assert_eq!(*c.net(q).driver(), Driver::Dff { d });
    }

    #[test]
    fn duplicate_driver_rejected() {
        let mut b = CircuitBuilder::new("dup");
        b.input("a");
        let err = b.gate("a", GateKind::Not, &["a"]).unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateDriver { .. }));
    }

    #[test]
    fn undefined_signal_rejected_at_build() {
        let mut b = CircuitBuilder::new("undef");
        b.input("a");
        b.gate("y", GateKind::Not, &["ghost"]).unwrap();
        b.output("y");
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            NetlistError::UndefinedSignal {
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn bad_arity_rejected() {
        let mut b = CircuitBuilder::new("arity");
        b.input("a");
        let err = b.gate("y", GateKind::Not, &["a", "a"]).unwrap_err();
        assert!(matches!(err, NetlistError::BadFaninCount { got: 2, .. }));
        let err = b.gate("z", GateKind::And, &["a"]).unwrap_err();
        assert!(matches!(err, NetlistError::BadFaninCount { got: 1, .. }));
    }

    #[test]
    fn combinational_cycle_rejected() {
        let mut b = CircuitBuilder::new("cyc");
        b.input("a");
        b.gate("x", GateKind::And, &["y", "a"]).unwrap();
        b.gate("y", GateKind::Or, &["x", "a"]).unwrap();
        b.output("x");
        let err = b.build().unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalCycle { .. }));
    }

    #[test]
    fn cycle_through_dff_is_fine() {
        let mut b = CircuitBuilder::new("seqcyc");
        b.input("a");
        b.dff("q", "d").unwrap();
        b.gate("d", GateKind::Xor, &["q", "a"]).unwrap();
        b.output("q");
        assert!(b.build().is_ok());
    }

    #[test]
    fn unobservable_circuit_rejected() {
        let mut b = CircuitBuilder::new("blind");
        b.input("a");
        b.gate("y", GateKind::Not, &["a"]).unwrap();
        let err = b.build().unwrap_err();
        assert_eq!(err, NetlistError::NothingObservable);
    }

    #[test]
    fn undefined_output_rejected() {
        let mut b = CircuitBuilder::new("badout");
        b.input("a");
        b.output("nope");
        assert!(matches!(
            b.build().unwrap_err(),
            NetlistError::UndefinedSignal { .. }
        ));
    }
}
