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
//! masks and coefficients are recomputed from the (fingerprinted) netlist,
//! which keeps the format small and engine-representation-free. Quarantines
//! the rescue pass resolved are stored with their resolution and attempt
//! log, so a resumed run carries them instead of replaying their ladders
//! (layout revision 2). A file is admitted only if its evidence fits the
//! run (`Checkpoint::admit`).
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

use crate::engine::{Verifier, VerifyOptions};
use crate::error::Error;
use crate::json::{self, Json};
use crate::property::{IncompleteReason, Property, Witness};
use crate::recover::{RescueAttempt, RescueResolution};
use crate::report::json_escape;
use crate::scheduler::{binomial, bucket_sizes, bucket_total};

/// Schema tag of the checkpoint format.
pub const CHECKPOINT_SCHEMA: &str = "walshcheck-checkpoint/1";

/// Layout revision written under [`CHECKPOINT_SCHEMA`]. Revision 2 records
/// every rescue resolution, violated ones too, with its attempt log. Files
/// without a `"revision"` key are revision 1 (0.3.0): their `rescued`
/// entries carry no log, and a violation their rescue pass found is stored
/// only as a candidate, indistinguishable from one the sweep found.
const REVISION: u64 = 2;

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

/// A quarantine the rescue pass resolved: where it sits, why the sweep
/// skipped it, and how its ladder ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Rescued {
    pub(crate) index: u64,
    pub(crate) sites: Vec<usize>,
    pub(crate) reason: IncompleteReason,
    /// Clean or violated (unresolved quarantines stay in `skipped`).
    pub(crate) resolution: RescueResolution,
    pub(crate) attempts: Vec<RescueAttempt>,
}

/// A violation candidate: global index, site indices, and the witness
/// (`None` until recomputed; checkpoints store no witnesses).
pub(crate) type Candidate = (u64, Vec<usize>, Option<Witness>);

/// A quarantined combination: global index, site indices, reason.
pub(crate) type Quarantined = (u64, Vec<usize>, IncompleteReason);

/// In-memory form of a parsed (or about-to-be-written) checkpoint, and,
/// once [`Checkpoint::admit`]ted, the state a resumed run is seeded from.
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
    pub(crate) candidates: Vec<Candidate>,
    pub(crate) skipped: Vec<Quarantined>,
    /// Quarantines the rescue pass already resolved. Kept out of
    /// `skipped` so a resumed run does not replay their escalation ladders.
    /// Absent in files written before rescue existed — parsed as empty.
    pub(crate) rescued: Vec<Rescued>,
}

impl Checkpoint {
    /// Checks that the file's evidence fits this run and narrows it to the
    /// completed frontier (the resumed sweep re-discovers anything outside
    /// it). Every entry must name a combination of the run (strictly
    /// increasing, in-range sites of a swept size) at its own enumeration
    /// index; `combinations` must fit the space and `pruned` must fit
    /// `combinations`; every candidate must still violate, and its
    /// recomputed witness seeds the run; a `rescued` entry shares its index
    /// with a candidate exactly when its resolution is violated.
    pub(crate) fn admit(
        mut self,
        verifier: &Verifier,
        property: Property,
        options: &VerifyOptions,
    ) -> Result<Checkpoint, Error> {
        let run_sites = verifier.begin_enumeration(property, options).sites;
        let n = run_sites.len();
        let sizes = bucket_sizes(property, options, n);
        let total = bucket_total(&sizes, n);
        if self.combinations > total || self.pruned > self.combinations {
            return Err(Error::Checkpoint(format!(
                "counters do not fit this run: {} combinations ({} pruned) of {total}",
                self.combinations, self.pruned
            )));
        }
        let entries = self
            .candidates
            .iter()
            .map(|(i, s, _)| (*i, s))
            .chain(self.skipped.iter().map(|(i, s, _)| (*i, s)))
            .chain(self.rescued.iter().map(|r| (r.index, &r.sites)));
        for (index, sites) in entries {
            if combination_index(&sizes, n, sites) != Some(index) {
                return Err(Error::Checkpoint(format!(
                    "entry {index} with sites {sites:?} is not that combination of this run"
                )));
            }
        }
        let completed = &self.completed;
        self.rescued.retain(|r| completed.contains(r.index));
        self.skipped.retain(|&(i, _, _)| completed.contains(i));
        self.candidates.retain(|&(i, _, _)| completed.contains(i));
        for r in &self.rescued {
            let violated = r.resolution == RescueResolution::Violated;
            if violated != self.candidates.iter().any(|&(i, _, _)| i == r.index) {
                return Err(Error::Checkpoint(format!(
                    "rescued entry {} is {} but {} a candidate",
                    r.index,
                    r.resolution.as_str(),
                    if violated { "is not" } else { "is also" }
                )));
            }
        }
        for (index, idxs, witness) in &mut self.candidates {
            *witness = verifier.witness_of(property, options, &run_sites, idxs);
            if witness.is_none() {
                return Err(Error::Checkpoint(format!(
                    "candidate {index} does not violate {property}"
                )));
            }
        }
        Ok(self)
    }
}

/// The global enumeration index of `sites` in a run over `n` sites whose
/// size buckets are enumerated in `sizes` order: the bucket's offset plus
/// the lexicographic rank of `sites` among the bucket's combinations.
/// `None` unless `sites` is strictly increasing, in range and of a swept
/// size.
fn combination_index(sizes: &[usize], n: usize, sites: &[usize]) -> Option<u64> {
    let k = sites.len();
    let bucket = sizes.iter().position(|&s| s == k)?;
    let in_range = sites.last().is_some_and(|&last| last < n);
    if !in_range || sites.windows(2).any(|w| w[0] >= w[1]) {
        return None;
    }
    let mut index = bucket_total(&sizes[..bucket], n);
    let mut next = 0;
    for (i, &site) in sites.iter().enumerate() {
        // Every combination that agrees up to position `i` and puts a
        // smaller site there comes first.
        for skipped in next..site {
            index = index.saturating_add(binomial(n - 1 - skipped, k - 1 - i));
        }
        next = site + 1;
    }
    Some(index)
}

/// 64-bit FNV-1a over the canonical run identity: the netlist's ILANG dump,
/// the property, and every option that influences the enumeration order or
/// per-combination results (engine, mode, site extraction, prefilter,
/// largest-first, node budget), plus a constant `false` where a retired
/// flag stood, so existing checkpoints keep their fingerprint.
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
    out.push_str(&format!("\",\"revision\":{REVISION},\"fingerprint\":\""));
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
    for (i, (index, sites, _)) in ck.candidates.iter().enumerate() {
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
    for (i, r) in ck.rescued.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let attempts: Vec<String> = r.attempts.iter().map(RescueAttempt::to_json).collect();
        out.push_str(&format!(
            "{{\"index\":{},\"sites\":{},\"reason\":\"{}\",\"resolution\":\"{}\",\"attempts\":[{}]}}",
            r.index,
            render_usize_list(&r.sites),
            r.reason.as_str(),
            r.resolution.as_str(),
            attempts.join(",")
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
/// parser has no netlist to compare against. A revision-1 file that has a
/// `rescued` array and a candidate inside its frontier is refused: the
/// candidate may be a violation its rescue pass found, whose record that
/// revision did not keep, and no resume could restore it exactly.
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
    let revision_1 = match doc.get("revision") {
        None => true,
        Some(r) if r.as_u64() == Some(REVISION) => false,
        Some(_) => return Err(Error::Checkpoint("unsupported revision".into())),
    };
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
        candidates.push((index_of(entry)?, sites_of(entry)?, None));
    }
    let reason_of = |entry: &Json| -> Result<IncompleteReason, Error> {
        entry
            .get("reason")
            .and_then(Json::as_str)
            .and_then(IncompleteReason::parse)
            .ok_or_else(|| Error::Checkpoint("entry has unknown reason".into()))
    };
    let mut skipped = Vec::new();
    for entry in arr_field("skipped")? {
        skipped.push((index_of(entry)?, sites_of(entry)?, reason_of(entry)?));
    }
    // Tolerant of files written before the rescue pass existed: the array
    // is simply absent there, and every candidate is the sweep's.
    let rescued_field = doc.get("rescued").and_then(Json::as_arr);
    if revision_1
        && rescued_field.is_some()
        && candidates.iter().any(|&(i, _, _)| completed.contains(i))
    {
        return Err(Error::Checkpoint(
            "a revision-1 file holds a violation without saying whether its rescue \
             pass found it, so it cannot be resumed exactly; rerun without resuming"
                .into(),
        ));
    }
    let mut rescued = Vec::new();
    for entry in rescued_field.unwrap_or(&[]) {
        let (index, sites, reason) = (index_of(entry)?, sites_of(entry)?, reason_of(entry)?);
        // 0.3.0 files recorded no attempt log: their deterministic ladders
        // replay on resume, exactly as a still-quarantined entry's would.
        let Some(attempts) = entry.get("attempts").and_then(Json::as_arr) else {
            skipped.push((index, sites, reason));
            continue;
        };
        let resolution = entry
            .get("resolution")
            .and_then(Json::as_str)
            .and_then(RescueResolution::parse)
            .filter(|&r| r != RescueResolution::Unresolved);
        let attempts: Option<Vec<_>> = attempts.iter().map(RescueAttempt::from_json).collect();
        let (Some(resolution), Some(attempts)) = (resolution, attempts) else {
            return Err(Error::Checkpoint("bad rescue record".into()));
        };
        rescued.push(Rescued {
            index,
            sites,
            reason,
            resolution,
            attempts,
        });
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
    use crate::engine::EngineKind;
    use crate::recover::{RescueAttemptOutcome, RescueRung};

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
        let attempt = RescueAttempt {
            rung: RescueRung::EngineFallback,
            engine: EngineKind::Lil,
            node_budget: Some(64),
            outcome: RescueAttemptOutcome::Violated,
        };
        let ck = Checkpoint {
            fingerprint: "00deadbeef00cafe".into(),
            property: "2-SNI".into(),
            combinations: 30,
            pruned: 4,
            completed,
            candidates: vec![(5, vec![0, 3], None)],
            skipped: vec![(7, vec![1, 2], IncompleteReason::NodeBudget)],
            rescued: vec![Rescued {
                index: 9,
                sites: vec![0, 4],
                reason: IncompleteReason::WorkerFailure,
                resolution: RescueResolution::Violated,
                attempts: vec![
                    RescueAttempt {
                        node_budget: None,
                        ..attempt
                    },
                    attempt,
                ],
            }],
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
        // Files written before the rescue pass existed have no `rescued`,
        // and their candidates are the sweep's.
        let text = "{\"schema\":\"walshcheck-checkpoint/1\",\"fingerprint\":\"x\",\
             \"property\":\"p\",\"combinations\":1,\"pruned\":0,\"completed\":[[0,4]],\
             \"candidates\":[{\"index\":2,\"sites\":[2]}],\"skipped\":[]}";
        let back = parse(text).expect("legacy file parses");
        assert!(back.rescued.is_empty());
        assert_eq!(back.candidates.len(), 1);
        // A revision-1 (0.3.0) file has the array, and cannot say whether
        // its rescue pass found that candidate.
        assert!(parse(&text.replace("[]}", "[],\"rescued\":[]}")).is_err());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        let rescued = |tail: &str| {
            format!(
                "{{\"schema\":\"walshcheck-checkpoint/1\",\"fingerprint\":\"x\",\"property\":\"p\",\
                 \"combinations\":1,\"pruned\":0,\"completed\":[],\"candidates\":[],\"skipped\":[],\
                 \"rescued\":[{{\"index\":0,\"sites\":[0],\"reason\":\"node-budget\",{tail}}}]}}"
            )
        };
        let log = "\"attempts\":[{\"rung\":\"budget\",\"engine\":\"mapi\",\"node_budget\":2,\"outcome\":\"clean\"}]";
        for bad in [
            String::new(),
            "{}".into(),
            "{\"schema\":\"walshcheck-checkpoint/9\"}".into(),
            "{\"schema\":\"walshcheck-checkpoint/1\",\"revision\":3,\"fingerprint\":\"x\",\
             \"property\":\"p\",\"combinations\":1,\"pruned\":0,\"completed\":[],\
             \"candidates\":[],\"skipped\":[]}"
                .into(),
            "{\"schema\":\"walshcheck-checkpoint/1\",\"fingerprint\":\"x\",\"property\":\"p\",\
             \"combinations\":1,\"pruned\":0,\"completed\":[[3,1]],\"candidates\":[],\"skipped\":[]}"
                .into(),
            rescued(&format!("\"resolution\":\"unresolved\",{log}")),
            rescued(&format!("\"resolution\":\"clean\",{}", log.replace("budget\"", "warp\""))),
        ] {
            assert!(parse(&bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn resume_filters_to_completed_frontier() {
        // dom-1 is 1-SNI and SNI(1) sweeps single sites, so site `i` is
        // combination `i` and no candidate violates: outside the frontier
        // one is dropped, not re-checked.
        let netlist = walshcheck_gadgets::suite::Benchmark::Dom(1).netlist();
        let verifier = Verifier::new(&netlist).expect("valid netlist");
        let quarantined = |i: u64| (i, vec![i as usize], IncompleteReason::NodeBudget);
        let rescued = |i: u64| Rescued {
            index: i,
            sites: vec![i as usize],
            reason: IncompleteReason::NodeBudget,
            resolution: RescueResolution::Clean,
            attempts: Vec::new(),
        };
        let mut completed = RangeSet::default();
        completed.insert(0, 2);
        let ck = Checkpoint {
            combinations: 2,
            completed,
            candidates: vec![(3, vec![3], None)],
            skipped: vec![quarantined(0), quarantined(4)],
            rescued: vec![rescued(1), rescued(5)],
            ..Checkpoint::default()
        };
        let admitted = ck
            .admit(&verifier, Property::Sni(1), &VerifyOptions::default())
            .expect("fits the run");
        assert!(admitted.candidates.is_empty());
        assert_eq!(admitted.skipped, vec![quarantined(0)]);
        assert_eq!(admitted.rescued, vec![rescued(1)]);
    }

    #[test]
    fn combination_index_matches_the_enumeration() {
        let n = 6;
        for sizes in [vec![3, 2, 1], vec![1, 2, 3]] {
            let mut expect = 0u64;
            for &k in &sizes {
                let mut idxs: Vec<usize> = (0..k).collect();
                loop {
                    assert_eq!(combination_index(&sizes, n, &idxs), Some(expect));
                    expect += 1;
                    if !crate::scheduler::next_combination(&mut idxs, n) {
                        break;
                    }
                }
            }
        }
        for bad in [&[][..], &[6], &[2, 2], &[3, 1], &[0, 1, 2, 3]] {
            assert_eq!(combination_index(&[3, 2, 1], n, bad), None, "{bad:?}");
        }
    }
}
