//! Regenerates the paper's tables.
//!
//! ```text
//! tables [--full] [--only CIRC[,CIRC...]] <table1|table2|table3|table4|table5|table6|table7|all>
//! ```
//!
//! * `table1` — test sequence generated for `s27_scan` by the Section 2
//!   procedure (paper Table 1);
//! * `table2`/`table3` — a conventional test set for `s27_scan` and its
//!   Section 3 translation (paper Tables 2 and 3);
//! * `table4` — the Table 1 sequence after restoration + omission (paper
//!   Table 4);
//! * `table5`/`table6` — fault coverage and test lengths over the ISCAS-89
//!   and ITC-99 suites (paper Tables 5 and 6; one experiment run feeds
//!   both);
//! * `table7` — translated-test-set compaction (paper Table 7);
//! * `all` — everything above.
//!
//! `--full` removes the cost caps on large circuits; `--only` restricts the
//! suite. Circuit names other than `s27` denote profile-synthetic stand-ins
//! and are printed with a `~` prefix (see `DESIGN.md` §5).

use std::collections::BTreeMap;
use std::time::Instant;

use limscan::{benchmarks, CircuitExperiment, FaultList, ScanCircuit, TestSequence};
use limscan_bench::{config_for, render_table, Effort};

/// Circuits too large for the default effort level (run with `--full`).
const FULL_ONLY: &[&str] = &["s5378", "s35932"];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut effort = Effort::Default;
    let mut only: Option<Vec<String>> = None;
    if let Some(i) = args.iter().position(|a| a == "--full") {
        args.remove(i);
        effort = Effort::Full;
    }
    if let Some(i) = args.iter().position(|a| a == "--only") {
        args.remove(i);
        let list = args.remove(i);
        only = Some(list.split(',').map(str::to_owned).collect());
    }
    let which = args.first().map_or("all", String::as_str);

    match which {
        "table1" => table1(),
        "table2" => {
            table2_3(false);
        }
        "table3" => {
            table2_3(true);
        }
        "table4" => table4(),
        "chains" => chains_extension(),
        "table5" | "table6" | "table7" | "all" => {
            let run567 =
                |t5: bool, t6: bool, t7: bool| suite_tables(effort, only.as_deref(), t5, t6, t7);
            match which {
                "table5" => run567(true, false, false),
                "table6" => run567(false, true, false),
                "table7" => run567(false, false, true),
                _ => {
                    table1();
                    table2_3(true);
                    table4();
                    run567(true, true, true);
                }
            }
        }
        other => {
            eprintln!("unknown table `{other}`");
            std::process::exit(2);
        }
    }
}

fn s27_flow() -> limscan::GenerationFlow {
    limscan::GenerationFlow::run(&benchmarks::s27(), &limscan::FlowConfig::default())
        .expect("flow runs on a lint-clean circuit")
}

fn print_sequence(sc: &ScanCircuit, seq: &TestSequence) {
    let n = sc.original_inputs();
    let mut header = vec!["t".to_owned()];
    header.extend((1..=n).map(|i| format!("a{i}")));
    header.push("scan_sel".into());
    header.push("scan_inp".into());
    println!(
        "{}",
        render_table(
            &header.iter().map(String::as_str).collect::<Vec<_>>(),
            &seq.iter()
                .enumerate()
                .map(|(t, v)| {
                    let mut row = vec![t.to_string()];
                    row.extend(v.iter().map(ToString::to_string));
                    row
                })
                .collect::<Vec<_>>(),
        )
    );
}

/// Table 1: the Section 2 sequence for `s27_scan`.
fn table1() {
    println!("== Table 1: test sequence generated for s27_scan ==\n");
    let flow = s27_flow();
    print_sequence(&flow.scan, &flow.generated.sequence);
    println!(
        "{} vectors, {} with scan_sel = 1; coverage {:.2}% ({} faults)\n",
        flow.generated.sequence.len(),
        flow.generated_scan_vectors(),
        flow.generated.report.coverage_percent(),
        flow.faults.len(),
    );
}

/// Tables 2 and 3: a conventional test set for `s27_scan` and its
/// translation into a flat sequence.
fn table2_3(with_translation: bool) {
    use limscan::atpg::first_approach::{generate, CombAtpgConfig};
    let c = benchmarks::s27();
    let faults = FaultList::collapsed(&c);
    let outcome = generate(&c, &faults, &CombAtpgConfig::default());
    println!("== Table 2: conventional scan-based test set S for s27_scan ==\n");
    print!("{}", outcome.set);
    println!(
        "\n{} tests, {} cycles with complete scan operations\n",
        outcome.set.len(),
        outcome.set.application_cycles()
    );
    if with_translation {
        let sc = ScanCircuit::insert(&c);
        let seq = sc.translate(&outcome.set);
        println!("== Table 3: test sequence based on S for s27_scan ==\n");
        print_sequence(&sc, &seq);
        println!(
            "{} vectors ({} scan); x entries are free for compaction\n",
            seq.len(),
            sc.count_scan_vectors(&seq)
        );
    }
}

/// Table 4: the Table 1 sequence after restoration + omission.
fn table4() {
    println!("== Table 4: compacted test sequence for s27_scan ==\n");
    let flow = s27_flow();
    print_sequence(&flow.scan, &flow.omitted.sequence);
    println!(
        "{} -> {} -> {} vectors (generated -> restored -> omitted); scan vectors {} -> {} -> {}\n",
        flow.generated.sequence.len(),
        flow.restored.sequence.len(),
        flow.omitted.sequence.len(),
        flow.generated_scan_vectors(),
        flow.restored_scan_vectors(),
        flow.omitted_scan_vectors(),
    );
}

/// Extension experiment (not a paper table): the generation flow under 1,
/// 2 and 4 scan chains. More chains shorten complete loads and shift-outs,
/// so compacted lengths drop further.
fn chains_extension() {
    println!("== Extension: multiple scan chains (generation flow) ==\n");
    let mut rows = Vec::new();
    for name in ["s27", "s298", "b06", "b10"] {
        let circuit = benchmarks::load(name).expect("suite circuit");
        for chains in [1usize, 2, 4] {
            if chains > circuit.dffs().len() {
                continue;
            }
            let config = limscan::FlowConfig {
                scan_chains: chains,
                max_faults: 800,
                ..limscan::FlowConfig::default()
            };
            let flow = limscan::GenerationFlow::run(&circuit, &config)
                .expect("flow runs on a lint-clean circuit");
            rows.push(vec![
                if benchmarks::is_synthetic(name) {
                    format!("~{name}")
                } else {
                    name.to_owned()
                },
                chains.to_string(),
                format!("{:.2}", flow.generated.report.coverage_percent()),
                flow.generated.sequence.len().to_string(),
                flow.omitted.sequence.len().to_string(),
                flow.omitted_scan_vectors().to_string(),
            ]);
        }
    }
    println!(
        "{}",
        render_table(&["circ", "chains", "fcov", "gen", "omit", "scan"], &rows)
    );
}

fn suite_names(only: Option<&[String]>, effort: Effort) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = std::iter::once("s27")
        .chain(benchmarks::iscas89_suite().iter().copied())
        .chain(benchmarks::itc99_suite().iter().copied())
        .collect();
    if effort == Effort::Default {
        names.retain(|n| !FULL_ONLY.contains(n));
    }
    if let Some(only) = only {
        names.retain(|n| only.iter().any(|o| o == n));
    }
    names
}

/// Tables 5, 6 and 7 over the benchmark suites; one experiment per circuit
/// feeds all requested tables.
fn suite_tables(effort: Effort, only: Option<&[String]>, t5: bool, t6: bool, t7: bool) {
    let names = suite_names(only, effort);
    let mut experiments: BTreeMap<&str, CircuitExperiment> = BTreeMap::new();
    for name in &names {
        let started = Instant::now();
        eprint!("running {name} ... ");
        let config = config_for(name, effort);
        match CircuitExperiment::run(name, &config) {
            Some(exp) => {
                eprintln!("done in {:.1}s", started.elapsed().as_secs_f64());
                experiments.insert(name, exp);
            }
            None => eprintln!("unknown circuit, skipped"),
        }
    }
    let ordered: Vec<&CircuitExperiment> =
        names.iter().filter_map(|n| experiments.get(n)).collect();

    if t5 {
        println!("== Table 5: fault coverage after test generation ==\n");
        let rows: Vec<Vec<String>> = ordered
            .iter()
            .map(|e| {
                let r = e.table5();
                vec![
                    r.circ,
                    r.inp.to_string(),
                    r.stvr.to_string(),
                    r.faults.to_string(),
                    r.detected.to_string(),
                    format!("{:.2}", r.fcov),
                    r.untestable.to_string(),
                    format!("{:.2}", r.eff),
                    r.funct.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["circ", "inp", "stvr", "faults", "detected", "fcov", "untest", "eff", "funct"],
                &rows
            )
        );
    }

    if t6 {
        println!("== Table 6: test length after generation and compaction ==\n");
        let mut rows = Vec::new();
        let mut tot_omit = 0usize;
        let mut tot_cyc = 0usize;
        for e in &ordered {
            let r = e.table6();
            tot_omit += r.omit_len.0;
            tot_cyc += r.cyc26;
            rows.push(vec![
                r.circ,
                r.test_len.0.to_string(),
                r.test_len.1.to_string(),
                r.restor_len.0.to_string(),
                r.restor_len.1.to_string(),
                r.omit_len.0.to_string(),
                r.omit_len.1.to_string(),
                if r.ext_det > 0 {
                    format!("+{}", r.ext_det)
                } else {
                    String::new()
                },
                r.cyc26.to_string(),
            ]);
        }
        rows.push(vec![
            "total".into(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            tot_omit.to_string(),
            String::new(),
            String::new(),
            tot_cyc.to_string(),
        ]);
        println!(
            "{}",
            render_table(
                &["circ", "test", "scan", "restor", "scan", "omit", "scan", "ext", "[26]cyc"],
                &rows
            )
        );
    }

    if t7 {
        println!("== Table 7: results for translated test sets ==\n");
        let mut rows = Vec::new();
        let mut tot_omit = 0usize;
        let mut tot_cyc = 0usize;
        for e in &ordered {
            let Some(r) = e.table7() else { continue };
            if !benchmarks::table7_suite().contains(&e.name.as_str()) {
                continue;
            }
            tot_omit += r.omit_len.0;
            tot_cyc += r.cyc26;
            rows.push(vec![
                r.circ,
                r.test_len.0.to_string(),
                r.test_len.1.to_string(),
                r.restor_len.0.to_string(),
                r.restor_len.1.to_string(),
                r.omit_len.0.to_string(),
                r.omit_len.1.to_string(),
                r.cyc26.to_string(),
            ]);
        }
        rows.push(vec![
            "total".into(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            tot_omit.to_string(),
            String::new(),
            tot_cyc.to_string(),
        ]);
        println!(
            "{}",
            render_table(
                &["circ", "test", "scan", "restor", "scan", "omit", "scan", "[26]cyc"],
                &rows
            )
        );
    }
}
