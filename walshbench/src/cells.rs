//! The checks each workload can issue, and the seeded `daemon-mix` stream.
//!
//! A *cell* is `(gadget, property, order)`; its expected verdict lives in
//! `expected_verdicts.tsv`. A daemon job is a cell plus one of eight
//! verdict-neutral option variants (check mode × prefilter × enumeration
//! order), which are part of the job identity, so the daemon computes each
//! variant afresh while the expected verdict stays the cell's.

use walshcheck_circuit::netlist::Netlist;
use walshcheck_core::{CheckMode, EngineKind, JobSpec, Property, VerifyOptions};
use walshcheck_gadgets::suite::Benchmark;

use crate::stats::SplitMix64;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cell {
    pub gadget: &'static str,
    pub kind: &'static str,
    pub order: u32,
}

const fn cell(gadget: &'static str, kind: &'static str, order: u32) -> Cell {
    Cell {
        gadget,
        kind,
        order,
    }
}

impl Cell {
    pub fn benchmark(&self) -> Benchmark {
        Benchmark::from_name(self.gadget).expect("cell names a suite gadget")
    }

    pub fn netlist(&self) -> Netlist {
        self.benchmark().netlist()
    }

    pub fn property(&self) -> Property {
        Property::from_kind(self.kind, self.order).expect("cell names a property kind")
    }

    pub fn label(&self) -> String {
        format!("{}:{}{}", self.gadget, self.kind, self.order)
    }
}

/// `table1`: the ten Table I gadgets, each checked for SNI at its order.
pub const TABLE1: [Cell; 10] = [
    cell("ti-1", "sni", 1),
    cell("trichina-1", "sni", 1),
    cell("isw-1", "sni", 1),
    cell("dom-1", "sni", 1),
    cell("keccak-1", "sni", 1),
    cell("dom-2", "sni", 2),
    cell("keccak-2", "sni", 2),
    cell("dom-3", "sni", 3),
    cell("keccak-3", "sni", 3),
    cell("dom-4", "sni", 4),
];

/// `table1 --smoke` drops the two gadgets that take seconds.
pub const TABLE1_SMOKE: usize = 8;

/// `beyond-order`: keccak-2 checked two orders past its design order.
pub const BEYOND: Cell = cell("keccak-2", "ni", 4);

/// `beyond-order --smoke`: the same shape one order lower.
pub const BEYOND_SMOKE: Cell = cell("keccak-2", "ni", 3);

/// `daemon-mix`: every Table I and extension cell at the gadget's order
/// and one past it whose slowest variant checks in under ~0.2 s in
/// process (MAPI, one thread), as measured by `walshbench survey`.
pub const DAEMON: &[Cell] = &[
    cell("ti-1", "probing", 1),
    cell("ti-1", "probing", 2),
    cell("ti-1", "ni", 1),
    cell("ti-1", "ni", 2),
    cell("ti-1", "sni", 1),
    cell("ti-1", "sni", 2),
    cell("ti-1", "pini", 1),
    cell("ti-1", "pini", 2),
    cell("trichina-1", "probing", 1),
    cell("trichina-1", "probing", 2),
    cell("trichina-1", "ni", 1),
    cell("trichina-1", "ni", 2),
    cell("trichina-1", "sni", 1),
    cell("trichina-1", "sni", 2),
    cell("trichina-1", "pini", 1),
    cell("trichina-1", "pini", 2),
    cell("isw-1", "probing", 1),
    cell("isw-1", "probing", 2),
    cell("isw-1", "ni", 1),
    cell("isw-1", "ni", 2),
    cell("isw-1", "sni", 1),
    cell("isw-1", "sni", 2),
    cell("isw-1", "pini", 1),
    cell("isw-1", "pini", 2),
    cell("dom-1", "probing", 1),
    cell("dom-1", "probing", 2),
    cell("dom-1", "ni", 1),
    cell("dom-1", "ni", 2),
    cell("dom-1", "sni", 1),
    cell("dom-1", "sni", 2),
    cell("dom-1", "pini", 1),
    cell("dom-1", "pini", 2),
    cell("keccak-1", "probing", 1),
    cell("keccak-1", "probing", 2),
    cell("keccak-1", "ni", 1),
    cell("keccak-1", "ni", 2),
    cell("keccak-1", "sni", 1),
    cell("keccak-1", "sni", 2),
    cell("keccak-1", "pini", 1),
    cell("keccak-1", "pini", 2),
    cell("dom-2", "probing", 2),
    cell("dom-2", "probing", 3),
    cell("dom-2", "ni", 2),
    cell("dom-2", "ni", 3),
    cell("dom-2", "sni", 2),
    cell("dom-2", "sni", 3),
    cell("dom-2", "pini", 2),
    cell("dom-2", "pini", 3),
    cell("keccak-2", "probing", 2),
    cell("keccak-2", "probing", 3),
    cell("keccak-2", "ni", 2),
    cell("keccak-2", "sni", 2),
    cell("keccak-2", "sni", 3),
    cell("keccak-2", "pini", 2),
    cell("dom-3", "probing", 3),
    cell("dom-3", "probing", 4),
    cell("dom-3", "ni", 3),
    cell("dom-3", "sni", 3),
    cell("dom-3", "sni", 4),
    cell("dom-3", "pini", 3),
    cell("hpc1-1", "probing", 1),
    cell("hpc1-1", "probing", 2),
    cell("hpc1-1", "ni", 1),
    cell("hpc1-1", "ni", 2),
    cell("hpc1-1", "sni", 1),
    cell("hpc1-1", "sni", 2),
    cell("hpc1-1", "pini", 1),
    cell("hpc1-1", "pini", 2),
    cell("hpc1-2", "probing", 2),
    cell("hpc1-2", "probing", 3),
    cell("hpc1-2", "ni", 2),
    cell("hpc1-2", "ni", 3),
    cell("hpc1-2", "sni", 2),
    cell("hpc1-2", "sni", 3),
    cell("hpc1-2", "pini", 2),
    cell("hpc1-2", "pini", 3),
    cell("hpc2-1", "probing", 1),
    cell("hpc2-1", "probing", 2),
    cell("hpc2-1", "ni", 1),
    cell("hpc2-1", "ni", 2),
    cell("hpc2-1", "sni", 1),
    cell("hpc2-1", "sni", 2),
    cell("hpc2-1", "pini", 1),
    cell("hpc2-1", "pini", 2),
    cell("hpc2-2", "probing", 2),
    cell("hpc2-2", "probing", 3),
    cell("hpc2-2", "ni", 2),
    cell("hpc2-2", "ni", 3),
    cell("hpc2-2", "sni", 2),
    cell("hpc2-2", "sni", 3),
    cell("hpc2-2", "pini", 2),
    cell("hpc2-2", "pini", 3),
    cell("chi3-ti", "probing", 1),
    cell("chi3-ti", "probing", 2),
    cell("chi3-ti", "ni", 1),
    cell("chi3-ti", "ni", 2),
    cell("chi3-ti", "sni", 1),
    cell("chi3-ti", "sni", 2),
    cell("chi3-ti", "pini", 1),
    cell("chi3-ti", "pini", 2),
    cell("refresh-isw-1", "probing", 1),
    cell("refresh-isw-1", "probing", 2),
    cell("refresh-isw-1", "ni", 1),
    cell("refresh-isw-1", "ni", 2),
    cell("refresh-isw-1", "sni", 1),
    cell("refresh-isw-1", "sni", 2),
    cell("refresh-isw-1", "pini", 1),
    cell("refresh-isw-1", "pini", 2),
    cell("refresh-isw-2", "probing", 2),
    cell("refresh-isw-2", "probing", 3),
    cell("refresh-isw-2", "ni", 2),
    cell("refresh-isw-2", "ni", 3),
    cell("refresh-isw-2", "sni", 2),
    cell("refresh-isw-2", "sni", 3),
    cell("refresh-isw-2", "pini", 2),
    cell("refresh-isw-2", "pini", 3),
    cell("fig1", "probing", 2),
    cell("fig1", "probing", 3),
    cell("fig1", "ni", 2),
    cell("fig1", "ni", 3),
    cell("fig1", "sni", 2),
    cell("fig1", "sni", 3),
    cell("fig1", "pini", 2),
    cell("fig1", "pini", 3),
];

/// Every cell any workload can issue.
pub fn all_cells() -> Vec<Cell> {
    let mut cells: Vec<Cell> = TABLE1.to_vec();
    cells.extend([BEYOND, BEYOND_SMOKE]);
    cells.extend_from_slice(DAEMON);
    cells.sort();
    cells.dedup();
    cells
}

/// Option variants of a daemon job: bit 0 row-wise mode, bit 1 prefilter
/// off, bit 2 smallest combinations first. Variant 0 is the CLI default.
pub const VARIANTS: usize = 8;

/// Rounds a stream can hold: one per option variant.
pub const MAX_ROUNDS: usize = VARIANTS;

pub fn daemon_spec(cell: &Cell, variant: usize) -> JobSpec {
    let options = VerifyOptions::builder()
        .engine(EngineKind::Mapi)
        .mode(if variant & 1 == 0 {
            CheckMode::Joint
        } else {
            CheckMode::RowWise
        })
        .prefilter(variant & 2 == 0)
        .largest_first(variant & 4 == 0)
        .build();
    let mut spec = JobSpec::new(cell.property());
    spec.options = options;
    spec.threads = 1;
    spec
}

/// One submission of the `daemon-mix` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamJob {
    /// Index into [`DAEMON`].
    pub cell: usize,
    pub variant: usize,
    /// For a resubmission: the stream position of the job it repeats.
    pub repeat_of: Option<usize>,
}

/// Fresh jobs between two resubmissions: one submission in four repeats.
pub const FRESH_PER_REPEAT: usize = 3;

/// A resubmission targets a job at least this many positions back, so
/// with two clients its original has finished when it is sent.
pub const REPEAT_DISTANCE: usize = 8;

/// The variant of `cell` in `round`: the (mode, prefilter) pairs in turn,
/// starting from one set by the cell, with the enumeration order flipped
/// after the first four rounds — a variant new to the store every round.
fn round_variant(cell: usize, round: usize) -> usize {
    let half = VARIANTS / 2;
    let pair = (cell + round) % half;
    let order = ((cell + pair) & 1) ^ ((round / half) & 1);
    pair | (order << 2)
}

/// The `daemon-mix` stream for `seed`, as `rounds` contiguous rounds. Each
/// round submits every cell of `cells` once under [`round_variant`] — so
/// every fresh job is new to the store, and a given number of rounds
/// submits the same jobs whatever the seed — in a seeded order, and after
/// every third fresh job resubmits a seeded earlier job.
pub fn daemon_stream(seed: u64, cells: usize, rounds: usize) -> Vec<Vec<StreamJob>> {
    assert!(rounds <= MAX_ROUNDS, "at most {MAX_ROUNDS} rounds");
    let mut rng = SplitMix64::new(seed);
    let mut fresh_positions: Vec<usize> = Vec::new();
    let mut position = 0;
    let mut out = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let mut order: Vec<usize> = (0..cells).collect();
        rng.shuffle(&mut order);
        let mut jobs = Vec::new();
        for (i, &c) in order.iter().enumerate() {
            jobs.push(StreamJob {
                cell: c,
                variant: round_variant(c, round),
                repeat_of: None,
            });
            fresh_positions.push(position);
            position += 1;
            if (i + 1) % FRESH_PER_REPEAT == 0 {
                let eligible = fresh_positions
                    .iter()
                    .take_while(|&&p| p + REPEAT_DISTANCE <= position)
                    .count();
                if eligible > 0 {
                    let target = fresh_positions[rng.below(eligible)];
                    let original = job_at(&out, &jobs, target);
                    jobs.push(StreamJob {
                        repeat_of: Some(target),
                        ..original
                    });
                    position += 1;
                }
            }
        }
        out.push(jobs);
    }
    out
}

fn job_at(done: &[Vec<StreamJob>], current: &[StreamJob], position: usize) -> StreamJob {
    let mut p = position;
    for round in done {
        if p < round.len() {
            return round[p];
        }
        p -= round.len();
    }
    current[p]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let n = DAEMON.len().max(20);
        assert_eq!(daemon_stream(5, n, 4), daemon_stream(5, n, 4));
        assert_ne!(daemon_stream(5, n, 4), daemon_stream(6, n, 4));
    }

    #[test]
    fn rounds_cover_every_cell_with_fresh_variants() {
        let n = DAEMON.len().max(20);
        let rounds = daemon_stream(11, n, MAX_ROUNDS);
        let mut seen = std::collections::HashSet::new();
        let flat: Vec<StreamJob> = rounds.iter().flatten().copied().collect();
        for round in &rounds {
            let mut cells: Vec<usize> = round
                .iter()
                .filter(|j| j.repeat_of.is_none())
                .map(|j| j.cell)
                .collect();
            cells.sort_unstable();
            assert_eq!(cells, (0..n).collect::<Vec<_>>());
        }
        for (pos, job) in flat.iter().enumerate() {
            match job.repeat_of {
                None => assert!(seen.insert((job.cell, job.variant)), "fresh job repeats"),
                Some(target) => {
                    assert!(target + REPEAT_DISTANCE <= pos);
                    assert!(flat[target].repeat_of.is_none());
                    assert_eq!(
                        (flat[target].cell, flat[target].variant),
                        (job.cell, job.variant)
                    );
                }
            }
        }
        assert_eq!(seen.len(), n * VARIANTS);
        let repeats = flat.iter().filter(|j| j.repeat_of.is_some()).count();
        let share = repeats as f64 / flat.len() as f64;
        assert!((0.2..=0.26).contains(&share), "repeat share {share}");
    }

    #[test]
    fn a_round_count_submits_the_same_jobs_for_any_seed() {
        let n = DAEMON.len();
        let fresh = |seed, rounds| {
            let mut jobs: Vec<(usize, usize)> = daemon_stream(seed, n, rounds)
                .concat()
                .iter()
                .filter(|j| j.repeat_of.is_none())
                .map(|j| (j.cell, j.variant))
                .collect();
            jobs.sort_unstable();
            jobs
        };
        for rounds in 1..=MAX_ROUNDS {
            assert_eq!(fresh(1, rounds), fresh(2, rounds));
            assert_eq!(fresh(1, rounds).len(), n * rounds);
        }
    }

    #[test]
    fn variants_are_distinct_job_identities() {
        let c = &TABLE1[3];
        let mut ids: Vec<String> = (0..VARIANTS)
            .map(|v| daemon_spec(c, v).identity_hash())
            .collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), VARIANTS);
    }

    #[test]
    fn every_cell_names_a_gadget_and_property() {
        for c in all_cells() {
            let _ = (c.benchmark(), c.property());
        }
    }
}
