//! The checked-in table of expected verdicts, and how it is made.
//!
//! Every run checks every verdict it sees against `expected_verdicts.tsv`.
//! `walshbench gen-expected` regenerates the table without ever asking the
//! MAPI engine under test: a cell takes its verdict from the published
//! facts pinned by the repository's `tests/known_verdicts.rs` where that
//! file lists it, else from the exhaustive oracle for gadgets with at most
//! 16 inputs, else from the LIL baseline engine. A cell that has a known
//! verdict is also cross-checked against the oracle or LIL.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

use walshcheck_core::exhaustive::exhaustive_check;
use walshcheck_core::sites::SiteOptions;
use walshcheck_core::{EngineKind, Outcome, Session, Verdict, VerifyOptions};

use crate::cells::{all_cells, Cell};

const TABLE: &str = include_str!("../expected_verdicts.tsv");

/// Widest gadget the exhaustive oracle is asked about.
const ORACLE_MAX_INPUTS: usize = 16;

/// Cells `tests/known_verdicts.rs` pins, with their verdict (`true` =
/// secure).
const KNOWN: &[(&str, &str, u32, bool)] = &[
    ("isw-1", "sni", 1, true),
    ("isw-1", "ni", 1, true),
    ("isw-1", "probing", 1, true),
    ("isw-1", "probing", 2, false),
    ("isw-1", "sni", 2, false),
    ("isw-1", "pini", 1, false),
    ("dom-1", "sni", 1, true),
    ("dom-1", "probing", 1, true),
    ("dom-1", "pini", 1, false),
    ("dom-2", "sni", 2, true),
    ("dom-2", "probing", 2, true),
    ("trichina-1", "sni", 1, true),
    ("trichina-1", "ni", 1, true),
    ("trichina-1", "probing", 1, true),
    ("ti-1", "probing", 1, true),
    ("ti-1", "ni", 1, false),
    ("ti-1", "sni", 1, false),
    ("keccak-1", "sni", 1, true),
    ("keccak-1", "probing", 1, true),
    ("refresh-isw-1", "sni", 1, true),
    ("refresh-isw-2", "sni", 2, true),
    ("refresh-isw-1", "pini", 1, true),
    ("fig1", "ni", 2, false),
    ("hpc1-1", "pini", 1, true),
    ("hpc1-2", "pini", 2, true),
    ("hpc2-1", "pini", 1, true),
    ("hpc2-2", "pini", 2, true),
    ("hpc2-1", "probing", 1, true),
    ("hpc2-2", "probing", 2, true),
];

/// Expected outcome (`"secure"` / `"violated"`) of every tabled cell, by
/// [`Cell::label`].
pub fn table() -> &'static BTreeMap<String, String> {
    static PARSED: OnceLock<BTreeMap<String, String>> = OnceLock::new();
    PARSED.get_or_init(|| {
        TABLE
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let f: Vec<&str> = l.split('\t').collect();
                assert!(f.len() == 5, "malformed expected-verdict row `{l}`");
                (format!("{}:{}{}", f[0], f[1], f[2]), f[3].to_string())
            })
            .collect()
    })
}

/// Checks a verdict against the table; `false` (and a note on stderr) on
/// a mismatch.
pub fn verdict_ok(cell: &Cell, v: &Verdict) -> bool {
    let want = table().get(&cell.label());
    let ok = want.map(String::as_str) == Some(v.outcome.as_str());
    if !ok {
        eprintln!(
            "walshbench: {} verdict {} but expected {want:?}",
            cell.label(),
            v.outcome.as_str()
        );
    }
    ok
}

fn known(cell: &Cell) -> Option<bool> {
    KNOWN
        .iter()
        .find(|&&(g, k, o, _)| g == cell.gadget && k == cell.kind && o == cell.order)
        .map(|&(.., secure)| secure)
}

fn outcome_name(outcome: Outcome) -> String {
    assert!(
        !matches!(outcome, Outcome::Inconclusive(_)),
        "a reference verdict must be conclusive"
    );
    outcome.as_str().to_string()
}

/// Computes the verdict of `cell` from the oracle or LIL, naming which.
fn reference(cell: &Cell) -> (String, &'static str) {
    let netlist = cell.netlist();
    if netlist.inputs.len() <= ORACLE_MAX_INPUTS {
        let v = exhaustive_check(&netlist, cell.property(), &SiteOptions::default())
            .expect("oracle accepts the gadget");
        (outcome_name(v.outcome), "exhaustive")
    } else {
        let v = Session::new(&netlist)
            .expect("gadget is valid")
            .property(cell.property())
            .options(VerifyOptions::builder().engine(EngineKind::Lil).build())
            .run();
        (outcome_name(v.outcome), "lil")
    }
}

/// Prints the table for every cell any workload can issue.
pub fn generate() {
    println!("# Expected verdicts of every cell the walshbench workloads issue.");
    println!("# Regenerate with `walshbench gen-expected`; never filled from MAPI.");
    println!("# gadget\tproperty\torder\texpected\tsource");
    for cell in all_cells() {
        let t = Instant::now();
        let (computed, engine) = reference(&cell);
        let (verdict, source) = match known(&cell) {
            Some(secure) => {
                let pinned = if secure { "secure" } else { "violated" };
                assert_eq!(pinned, computed, "{}: {engine} disagrees", cell.label());
                (computed, "known_verdicts")
            }
            None => (computed, engine),
        };
        eprintln!(
            "{} {verdict} via {source} in {:.2?}",
            cell.label(),
            t.elapsed()
        );
        println!(
            "{}\t{}\t{}\t{verdict}\t{source}",
            cell.gadget, cell.kind, cell.order
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_every_cell_a_workload_can_issue() {
        let table = table();
        for cell in all_cells() {
            let v = table
                .get(&cell.label())
                .unwrap_or_else(|| panic!("{} has no expected verdict", cell.label()));
            assert!(v == "secure" || v == "violated", "{}: {v}", cell.label());
        }
    }

    #[test]
    fn table_agrees_with_the_known_verdicts() {
        let table = table();
        for &(g, k, o, secure) in KNOWN {
            if let Some(v) = table.get(&format!("{g}:{k}{o}")) {
                assert_eq!(v == "secure", secure, "{g}:{k}{o}");
            }
        }
    }
}
