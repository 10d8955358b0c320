//! Summary statistics of a circuit, for reports and table headers.

use std::fmt;

use crate::circuit::{Circuit, Driver, GateKind};

/// Structural statistics of a [`Circuit`].
///
/// # Example
///
/// ```
/// use limscan_netlist::{benchmarks, CircuitStats};
///
/// let stats = CircuitStats::of(&benchmarks::s27());
/// assert_eq!(stats.inputs, 4);
/// assert_eq!(stats.flip_flops, 3);
/// assert_eq!(stats.gates, 10);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CircuitStats {
    /// Circuit name.
    pub name: String,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of D flip-flops.
    pub flip_flops: usize,
    /// Number of combinational gates.
    pub gates: usize,
    /// Combinational depth (maximum logic level).
    pub depth: u32,
    /// Gate counts per kind, ordered as [`CircuitStats::KINDS`].
    pub by_kind: [usize; Self::KINDS.len()],
}

impl CircuitStats {
    /// Gate kinds reported in [`by_kind`](Self::by_kind), in order.
    pub const KINDS: [GateKind; 11] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
        GateKind::Mux,
        GateKind::Const0,
        GateKind::Const1,
    ];

    /// Computes statistics for a circuit.
    pub fn of(circuit: &Circuit) -> Self {
        let mut by_kind = [0usize; Self::KINDS.len()];
        for net in circuit.nets() {
            if let Driver::Gate { kind, .. } = net.driver() {
                let pos = Self::KINDS
                    .iter()
                    .position(|k| k == kind)
                    .expect("KINDS covers every gate kind");
                by_kind[pos] += 1;
            }
        }
        CircuitStats {
            name: circuit.name().to_owned(),
            inputs: circuit.inputs().len(),
            outputs: circuit.outputs().len(),
            flip_flops: circuit.dffs().len(),
            gates: circuit.gate_count(),
            depth: circuit.depth(),
            by_kind,
        }
    }
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} outputs, {} flip-flops, {} gates, depth {}",
            self.name, self.inputs, self.outputs, self.flip_flops, self.gates, self.depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;

    #[test]
    fn s27_stats() {
        let s = CircuitStats::of(&benchmarks::s27());
        assert_eq!(s.gates, 10);
        assert_eq!(s.outputs, 1);
        assert!(s.depth >= 3);
        assert_eq!(s.by_kind.iter().sum::<usize>(), s.gates);
        let shown = s.to_string();
        assert!(shown.contains("s27") && shown.contains("10 gates"));
    }
}
