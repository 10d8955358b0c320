//! Levelization: topological ordering and logic levels of the
//! combinational logic.

use crate::circuit::{Driver, Net, NetId};
use crate::error::NetlistError;

/// Levelizes the combinational logic: a topological order of all
/// gate-driven nets, and every net's logic level. Primary inputs and
/// flip-flop outputs are level-0 sources, and a gate is one more than its
/// deepest fanin. Detects combinational cycles.
pub(crate) fn levelize(nets: &[Net]) -> Result<(Vec<NetId>, Vec<u32>), NetlistError> {
    // Kahn's algorithm over gate-driven nets only.
    let n = nets.len();
    let mut indegree = vec![0u32; n];
    let mut is_gate = vec![false; n];
    for (i, net) in nets.iter().enumerate() {
        if let Driver::Gate { fanins, .. } = &net.driver {
            is_gate[i] = true;
            indegree[i] = fanins
                .iter()
                .filter(|f| matches!(nets[f.index()].driver, Driver::Gate { .. }))
                .count() as u32;
        }
    }

    let mut queue: Vec<usize> = (0..n).filter(|&i| is_gate[i] && indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(queue.len());
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, net) in nets.iter().enumerate() {
        if let Driver::Gate { fanins, .. } = &net.driver {
            for f in fanins {
                if is_gate[f.index()] {
                    consumers[f.index()].push(i);
                }
            }
        }
    }

    // A gate starts one past its source fanins and is raised by each gate
    // fanin as that fanin is ordered, which is before the gate itself.
    let mut level: Vec<u32> = is_gate.iter().map(|&g| u32::from(g)).collect();
    while let Some(i) = queue.pop() {
        order.push(NetId::from_index(i));
        for &c in &consumers[i] {
            level[c] = level[c].max(level[i] + 1);
            indegree[c] -= 1;
            if indegree[c] == 0 {
                queue.push(c);
            }
        }
    }

    let gate_total = is_gate.iter().filter(|&&g| g).count();
    if order.len() != gate_total {
        // Some gate never reached indegree 0: it is on a cycle.
        let culprit = (0..n)
            .find(|&i| is_gate[i] && indegree[i] > 0)
            .expect("cycle implies a gate with positive indegree");
        return Err(NetlistError::CombinationalCycle {
            name: nets[culprit].name.clone(),
        });
    }
    Ok((order, level))
}

#[cfg(test)]
mod tests {
    use crate::{CircuitBuilder, GateKind};

    #[test]
    fn levels_monotone_along_paths() {
        let mut b = CircuitBuilder::new("lvl");
        b.input("a");
        b.input("b");
        b.gate("g1", GateKind::And, &["a", "b"]).unwrap();
        b.gate("g2", GateKind::Not, &["g1"]).unwrap();
        b.gate("g3", GateKind::Or, &["g2", "a"]).unwrap();
        b.output("g3");
        let c = b.build().unwrap();
        let level = |name: &str| c.level(c.find_net(name).unwrap());
        assert_eq!(level("a"), 0);
        assert_eq!(level("g1"), 1);
        assert_eq!(level("g2"), 2);
        assert_eq!(level("g3"), 3);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn dff_outputs_are_sources() {
        let mut b = CircuitBuilder::new("src");
        b.input("x");
        b.dff("q", "d").unwrap();
        b.gate("d", GateKind::Nand, &["q", "x"]).unwrap();
        b.output("d");
        let c = b.build().unwrap();
        assert_eq!(c.level(c.find_net("q").unwrap()), 0);
        assert_eq!(c.level(c.find_net("d").unwrap()), 1);
        assert_eq!(c.depth(), 1);
    }
}
