//! Checkpoint/resume for long verification sweeps (`walshcheck-checkpoint/1`).
//!
//! A run with checkpointing enabled periodically persists a small JSON
//! snapshot of its progress: a fingerprint binding the file to the exact
//! netlist + property + enumeration-relevant options, the frontier of
//! *completed* batch ranges in the deterministic global enumeration order,
//! the violation candidates and quarantined combinations found so far, and
//! batch-complete partial counters. A resumed run skips every combination
//! inside the completed frontier, re-checks everything else, and — because
//! enumeration order, batch boundaries, and minimal-index witness selection
//! are all deterministic (DESIGN.md §8/§10) — produces a verdict and witness
//! identical to an uninterrupted run.
//!
//! Combinations are stored as site-index vectors, not serialized witnesses:
//! masks and coefficients are recomputed on demand from the (fingerprinted)
//! netlist, which keeps the format small and engine-representation-free.
//!
//! Writes are atomic *and durable* (temp file + fsync + rename + parent
//! directory fsync, via [`crate::iofs::atomic_replace`]), so a kill or
//! power loss mid-write leaves the previous checkpoint intact — and a
//! completed write can no longer be undone by a crash that catches the
//! rename before the directory metadata reached the journal.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use walshcheck_circuit::ilang::write_ilang;
use walshcheck_circuit::netlist::Netlist;

use crate::engine::VerifyOptions;
use crate::error::Error;
use crate::json::{self, Json};
use crate::property::{IncompleteReason, Property};
use crate::report::json_escape;

/// Schema tag of the checkpoint format.
pub const CHECKPOINT_SCHEMA: &str = "walshcheck-checkpoint/1";

/// Where and how often a run persists its progress.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Target file; written atomically via a sibling temp file.
    pub path: PathBuf,
    /// Minimum interval between periodic writes. [`Duration::ZERO`] writes
    /// after every completed batch (useful for tests; expensive on real
    /// sweeps). A final write always happens when the run ends.
    pub every: Duration,
    /// The I/O layer the writes go through — [`crate::iofs::RealFs`] by
    /// default; a tracing shim when a crash-point explorer is recording
    /// the schedule.
    pub fs: Arc<dyn crate::iofs::IoFs>,
}

impl CheckpointConfig {
    /// Checkpoint to `path` every `every` at most.
    pub fn new(path: impl Into<PathBuf>, every: Duration) -> Self {
        CheckpointConfig {
            path: path.into(),
            every,
            fs: crate::iofs::RealFs::shared(),
        }
    }

    /// The same configuration writing through `fs`.
    #[must_use]
    pub fn with_fs(mut self, fs: Arc<dyn crate::iofs::IoFs>) -> Self {
        self.fs = fs;
        self
    }
}

/// A sorted set of disjoint half-open `[start, end)` ranges of global
/// enumeration indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RangeSet {
    ranges: Vec<(u64, u64)>,
}

impl RangeSet {
    /// Inserts `[start, end)`, merging with touching/overlapping ranges.
    pub(crate) fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // Find the insertion window of ranges that touch [start, end).
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        let hi = self.ranges.partition_point(|&(s, _)| s <= end);
        let mut new_start = start;
        let mut new_end = end;
        if lo < hi {
            new_start = new_start.min(self.ranges[lo].0);
            new_end = new_end.max(self.ranges[hi - 1].1);
        }
        self.ranges.splice(lo..hi, [(new_start, new_end)]);
    }

    /// Whether `index` falls inside any range.
    pub(crate) fn contains(&self, index: u64) -> bool {
        let i = self.ranges.partition_point(|&(_, e)| e <= index);
        self.ranges.get(i).is_some_and(|&(s, _)| s <= index)
    }

    pub(crate) fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

/// In-memory form of a parsed (or about-to-be-written) checkpoint.
#[derive(Debug, Clone, Default)]
pub(crate) struct Checkpoint {
    pub(crate) fingerprint: String,
    pub(crate) property: String,
    /// Combinations checked within *completed* batches only (redone batches
    /// are recounted by the resumed run, so nothing double-counts).
    pub(crate) combinations: u64,
    /// Prefilter prunes within completed batches.
    pub(crate) pruned: u64,
    pub(crate) completed: RangeSet,
    /// Violation candidates: `(global index, site indices)`.
    pub(crate) candidates: Vec<(u64, Vec<usize>)>,
    /// Quarantined combinations: `(global index, site indices, reason)`.
    pub(crate) skipped: Vec<(u64, Vec<usize>, IncompleteReason)>,
    /// Quarantines the rescue pass already resolved as clean, with the
    /// reason they were originally skipped for. Kept out of `skipped` so a
    /// resumed run does not replay their escalation ladders. Absent in
    /// files written before rescue existed — parsed as empty.
    pub(crate) rescued: Vec<(u64, Vec<usize>, IncompleteReason)>,
}

/// What the scheduler needs to resume: the frontier plus seeded evidence,
/// already filtered down to completed ranges (anything outside them will be
/// re-discovered deterministically by the resumed sweep).
#[derive(Debug, Clone, Default)]
pub(crate) struct ResumeState {
    pub(crate) completed: RangeSet,
    pub(crate) combinations: u64,
    pub(crate) pruned: u64,
    pub(crate) candidates: Vec<(u64, Vec<usize>)>,
    pub(crate) skipped: Vec<(u64, Vec<usize>, IncompleteReason)>,
    pub(crate) rescued: Vec<(u64, Vec<usize>, IncompleteReason)>,
}

impl Checkpoint {
    pub(crate) fn into_resume(self) -> ResumeState {
        let completed = self.completed;
        let candidates = self
            .candidates
            .into_iter()
            .filter(|&(i, _)| completed.contains(i))
            .collect();
        let skipped = self
            .skipped
            .into_iter()
            .filter(|&(i, _, _)| completed.contains(i))
            .collect();
        let rescued = self
            .rescued
            .into_iter()
            .filter(|&(i, _, _)| completed.contains(i))
            .collect();
        ResumeState {
            completed,
            combinations: self.combinations,
            pruned: self.pruned,
            candidates,
            skipped,
            rescued,
        }
    }
}

/// 64-bit FNV-1a over the canonical run identity: the netlist's ILANG dump,
/// the property, and every option that influences the enumeration order or
/// per-combination results (engine, mode, site extraction, prefilter,
/// largest-first, node budget), plus a constant `false` where the retired
/// presift flag stood, so existing checkpoints keep their fingerprint.
/// Deliberately excluded:
/// `time_limit` (a resumed run usually changes it), `threads` (results are
/// thread-count independent by design) and the prefix cache knobs (proven
/// verdict-neutral, DESIGN.md §9).
pub fn fingerprint(netlist: &Netlist, property: Property, options: &VerifyOptions) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    write(write_ilang(netlist).as_bytes());
    write(property.to_string().as_bytes());
    write(
        format!(
            "|{:?}|{:?}|{:?}|{}|{}|{:?}|false",
            options.engine,
            options.mode,
            options.sites,
            options.prefilter,
            options.largest_first,
            options.node_budget,
        )
        .as_bytes(),
    );
    format!("{h:016x}")
}

/// Renders a checkpoint as `walshcheck-checkpoint/1` JSON.
pub(crate) fn render(ck: &Checkpoint) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"schema\":\"");
    out.push_str(CHECKPOINT_SCHEMA);
    out.push_str("\",\"fingerprint\":\"");
    out.push_str(&json_escape(&ck.fingerprint));
    out.push_str("\",\"property\":\"");
    out.push_str(&json_escape(&ck.property));
    out.push_str("\",\"combinations\":");
    out.push_str(&ck.combinations.to_string());
    out.push_str(",\"pruned\":");
    out.push_str(&ck.pruned.to_string());
    out.push_str(",\"completed\":[");
    for (i, (s, e)) in ck.completed.ranges().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{s},{e}]"));
    }
    out.push_str("],\"candidates\":[");
    for (i, (index, sites)) in ck.candidates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"index\":{index},\"sites\":{}}}",
            render_usize_list(sites)
        ));
    }
    out.push_str("],\"skipped\":[");
    for (i, (index, sites, reason)) in ck.skipped.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"index\":{index},\"sites\":{},\"reason\":\"{}\"}}",
            render_usize_list(sites),
            reason.as_str()
        ));
    }
    out.push_str("],\"rescued\":[");
    for (i, (index, sites, reason)) in ck.rescued.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"index\":{index},\"sites\":{},\"reason\":\"{}\"}}",
            render_usize_list(sites),
            reason.as_str()
        ));
    }
    out.push_str("]}");
    out
}

fn render_usize_list(v: &[usize]) -> String {
    let mut s = String::from("[");
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&x.to_string());
    }
    s.push(']');
    s
}

/// Parses and structurally validates a checkpoint document. Fingerprint
/// *matching* is the caller's job ([`crate::Session::resume_from`]) — the
/// parser has no netlist to compare against.
pub(crate) fn parse(text: &str) -> Result<Checkpoint, Error> {
    let doc = json::parse(text).map_err(Error::Checkpoint)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| Error::Checkpoint("missing schema".into()))?;
    if schema != CHECKPOINT_SCHEMA {
        return Err(Error::Checkpoint(format!(
            "unsupported schema {schema:?} (expected {CHECKPOINT_SCHEMA:?})"
        )));
    }
    let str_field = |key: &str| -> Result<String, Error> {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| Error::Checkpoint(format!("missing string field {key:?}")))
    };
    let u64_field = |key: &str| -> Result<u64, Error> {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| Error::Checkpoint(format!("missing integer field {key:?}")))
    };
    let arr_field = |key: &str| -> Result<&[Json], Error> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| Error::Checkpoint(format!("missing array field {key:?}")))
    };

    let mut completed = RangeSet::default();
    for pair in arr_field("completed")? {
        let pair = pair
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| Error::Checkpoint("completed entries must be [start,end]".into()))?;
        let (s, e) = (
            pair[0]
                .as_u64()
                .ok_or_else(|| Error::Checkpoint("bad range start".into()))?,
            pair[1]
                .as_u64()
                .ok_or_else(|| Error::Checkpoint("bad range end".into()))?,
        );
        if s > e {
            return Err(Error::Checkpoint(format!("inverted range [{s},{e}]")));
        }
        completed.insert(s, e);
    }

    let sites_of = |entry: &Json| -> Result<Vec<usize>, Error> {
        entry
            .get("sites")
            .and_then(Json::as_arr)
            .ok_or_else(|| Error::Checkpoint("entry missing sites".into()))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .and_then(|u| usize::try_from(u).ok())
                    .ok_or_else(|| Error::Checkpoint("bad site index".into()))
            })
            .collect()
    };
    let index_of = |entry: &Json| -> Result<u64, Error> {
        entry
            .get("index")
            .and_then(Json::as_u64)
            .ok_or_else(|| Error::Checkpoint("entry missing index".into()))
    };

    let mut candidates = Vec::new();
    for entry in arr_field("candidates")? {
        candidates.push((index_of(entry)?, sites_of(entry)?));
    }
    let mut skipped = Vec::new();
    for entry in arr_field("skipped")? {
        let reason = entry
            .get("reason")
            .and_then(Json::as_str)
            .and_then(IncompleteReason::parse)
            .ok_or_else(|| Error::Checkpoint("entry has unknown reason".into()))?;
        skipped.push((index_of(entry)?, sites_of(entry)?, reason));
    }
    // Tolerant of files written before the rescue pass existed: the array
    // is simply absent there.
    let mut rescued = Vec::new();
    if let Some(entries) = doc.get("rescued").and_then(Json::as_arr) {
        for entry in entries {
            let reason = entry
                .get("reason")
                .and_then(Json::as_str)
                .and_then(IncompleteReason::parse)
                .ok_or_else(|| Error::Checkpoint("entry has unknown reason".into()))?;
            rescued.push((index_of(entry)?, sites_of(entry)?, reason));
        }
    }

    Ok(Checkpoint {
        fingerprint: str_field("fingerprint")?,
        property: str_field("property")?,
        combinations: u64_field("combinations")?,
        pruned: u64_field("pruned")?,
        completed,
        candidates,
        skipped,
        rescued,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_set_merges_and_queries() {
        let mut r = RangeSet::default();
        r.insert(10, 20);
        r.insert(30, 40);
        assert_eq!(r.ranges(), &[(10, 20), (30, 40)]);
        r.insert(20, 30); // bridges the gap
        assert_eq!(r.ranges(), &[(10, 40)]);
        r.insert(5, 7);
        r.insert(50, 50); // empty: ignored
        assert_eq!(r.ranges(), &[(5, 7), (10, 40)]);
        assert!(r.contains(5));
        assert!(!r.contains(7));
        assert!(r.contains(39));
        assert!(!r.contains(40));
        assert!(!r.contains(8));
        assert!(!RangeSet::default().contains(0));
    }

    #[test]
    fn checkpoint_round_trips() {
        let mut completed = RangeSet::default();
        completed.insert(0, 16);
        completed.insert(32, 48);
        let ck = Checkpoint {
            fingerprint: "00deadbeef00cafe".into(),
            property: "2-SNI".into(),
            combinations: 30,
            pruned: 4,
            completed,
            candidates: vec![(5, vec![0, 3])],
            skipped: vec![(7, vec![1, 2], IncompleteReason::NodeBudget)],
            rescued: vec![(9, vec![0, 4], IncompleteReason::WorkerFailure)],
        };
        let text = render(&ck);
        assert!(text.starts_with("{\"schema\":\"walshcheck-checkpoint/1\""));
        let back = parse(&text).expect("round trip");
        assert_eq!(back.fingerprint, ck.fingerprint);
        assert_eq!(back.property, ck.property);
        assert_eq!(back.combinations, 30);
        assert_eq!(back.pruned, 4);
        assert_eq!(back.completed, ck.completed);
        assert_eq!(back.candidates, ck.candidates);
        assert_eq!(back.skipped, ck.skipped);
        assert_eq!(back.rescued, ck.rescued);
    }

    #[test]
    fn parse_tolerates_missing_rescued_array() {
        // Files written before the rescue pass existed have no `rescued`.
        let text = "{\"schema\":\"walshcheck-checkpoint/1\",\"fingerprint\":\"x\",\
             \"property\":\"p\",\"combinations\":1,\"pruned\":0,\"completed\":[[0,4]],\
             \"candidates\":[],\"skipped\":[]}";
        let back = parse(text).expect("legacy file parses");
        assert!(back.rescued.is_empty());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{}",
            "{\"schema\":\"walshcheck-checkpoint/9\"}",
            "{\"schema\":\"walshcheck-checkpoint/1\",\"fingerprint\":\"x\",\"property\":\"p\",\
             \"combinations\":1,\"pruned\":0,\"completed\":[[3,1]],\"candidates\":[],\"skipped\":[]}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn resume_filters_to_completed_frontier() {
        let mut completed = RangeSet::default();
        completed.insert(0, 10);
        let ck = Checkpoint {
            fingerprint: String::new(),
            property: String::new(),
            combinations: 0,
            pruned: 0,
            completed,
            candidates: vec![(5, vec![1]), (15, vec![2])],
            skipped: vec![(3, vec![0], IncompleteReason::WorkerFailure)],
            rescued: vec![
                (4, vec![1], IncompleteReason::NodeBudget),
                (12, vec![2], IncompleteReason::NodeBudget),
            ],
        };
        let resume = ck.into_resume();
        assert_eq!(resume.candidates, vec![(5, vec![1])]);
        assert_eq!(resume.skipped.len(), 1);
        assert_eq!(
            resume.rescued,
            vec![(4, vec![1], IncompleteReason::NodeBudget)]
        );
    }
}
