//! The per-net index a `Circuit` computes when it is built — each net's
//! position among the nets of its kind, its output flag, its logic level
//! and the circuit's depth — checked against a from-scratch derivation on
//! every embedded benchmark, bare and with one to four scan chains.

use limscan::benchmarks;
use limscan::netlist::{Driver, NetId};
use limscan::{Circuit, ScanCircuit};

/// Names of every embedded benchmark, deduplicated across the suites.
fn all_benchmark_names() -> Vec<&'static str> {
    let mut names = vec!["s27"];
    names.extend(
        benchmarks::iscas89_suite()
            .iter()
            .chain(benchmarks::itc99_suite())
            .chain(benchmarks::table7_suite()),
    );
    names.sort_unstable();
    names.dedup();
    names
}

fn check_index(c: &Circuit, what: &str) {
    let n = c.net_count();
    // Positions: every net is listed exactly once, as an input, a gate or
    // a flip-flop output.
    let mut position = vec![None; n];
    for list in [c.inputs(), c.comb_order(), c.dffs()] {
        for (i, id) in list.iter().enumerate() {
            assert!(
                position[id.index()].replace(i).is_none(),
                "{what}: {id} is listed twice"
            );
        }
    }
    // Levels: sources are 0, and a gate is one more than its deepest fanin
    // (a gate without fanins is at level 1).
    let mut level = vec![0u32; n];
    for &id in c.comb_order() {
        level[id.index()] = c
            .net(id)
            .driver()
            .fanins()
            .iter()
            .map(|f| level[f.index()])
            .max()
            .unwrap_or(0)
            + 1;
    }
    let mut is_output = vec![false; n];
    for o in c.outputs() {
        is_output[o.index()] = true;
    }

    for i in 0..n {
        let id = NetId::from_index(i);
        let pos = position[i].unwrap_or_else(|| panic!("{what}: {id} is in no list"));
        let driver = c.net(id).driver();
        assert_eq!(c.position(id), pos, "{what}: position of {id}");
        assert_eq!(
            c.comb_position(id),
            matches!(driver, Driver::Gate { .. }).then_some(pos),
            "{what}: comb position of {id}"
        );
        assert_eq!(
            c.dff_position(id),
            matches!(driver, Driver::Dff { .. }).then_some(pos),
            "{what}: flip-flop position of {id}"
        );
        assert_eq!(c.is_output(id), is_output[i], "{what}: output flag of {id}");
        assert_eq!(c.level(id), level[i], "{what}: level of {id}");
    }
    assert_eq!(
        c.depth(),
        level.iter().copied().max().unwrap_or(0),
        "{what}: depth"
    );
}

#[test]
fn index_matches_a_from_scratch_derivation_bare_and_scan_inserted() {
    for name in all_benchmark_names() {
        let c = benchmarks::load(name).expect("suite names all load");
        check_index(&c, name);
        for chains in 1..=4.min(c.dffs().len()) {
            let sc = ScanCircuit::insert_chains(&c, chains);
            check_index(sc.circuit(), &format!("{name} with {chains} scan chain(s)"));
        }
    }
}
