//! Check times that the host's slow phases drop out of.
//!
//! On a shared host the same check runs up to ~1.5x slower for seconds at a
//! time, whatever the program does. A check is therefore run several times,
//! spread over the workload, and each of its parts is timed across those
//! runs: the part of `Session::run` outside the batch loop, and each batch
//! of combinations (a one-thread sweep hands out the same batches, in the
//! same order, on every run). A check that runs many times is timed by its
//! fastest run; one that runs a few times is timed batch by batch, so a
//! slow phase must hit the same batch in every run to count.
//!
//! [`fastest`] takes each part's least time: right for a single busy
//! thread, whose fastest time is the host's fast phase. [`typical`] takes
//! each part's median, for runs that share the machine with a second busy
//! thread (the `--json` aggregator), whose time also depends on how the two
//! threads meet: there the least times add up to far less than any real
//! run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use walshcheck_core::observe::EnginePhase;
use walshcheck_core::{
    ChannelObserver, CheckStats, IncompleteReason, ProgressObserver, RecoveryReport, RescueAttempt,
    RescueResolution, Witness,
};

use crate::stats::median;

/// A batch: its combination size and the enumeration index of its first
/// combination.
pub type BatchKey = (usize, u64);

/// The wall seconds of one run of a check and of each of its batches, in
/// the order they ran.
#[derive(Debug, Clone, Default)]
pub struct RunTimes {
    pub wall: f64,
    pub batches: Vec<(BatchKey, f64)>,
}

/// The time of a check across `runs`: `pick` applied to the times outside
/// the batches, plus `pick` applied to each batch's times. `None` when there
/// is no run.
fn per_part(runs: &[RunTimes], pick: impl Fn(&[f64]) -> f64) -> Option<f64> {
    if runs.is_empty() {
        return None;
    }
    let outside: Vec<f64> = runs
        .iter()
        .map(|r| (r.wall - r.batches.iter().map(|b| b.1).sum::<f64>()).max(0.0))
        .collect();
    let mut batches: BTreeMap<BatchKey, Vec<f64>> = BTreeMap::new();
    for r in runs {
        for &(key, t) in &r.batches {
            batches.entry(key).or_default().push(t);
        }
    }
    Some(pick(&outside) + batches.values().map(|ts| pick(ts)).sum::<f64>())
}

/// Each part's least time across `runs`, summed.
pub fn fastest(runs: &[RunTimes]) -> Option<f64> {
    per_part(runs, |ts| ts.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Each part's median time across `runs`, summed.
pub fn typical(runs: &[RunTimes]) -> Option<f64> {
    per_part(runs, |ts| median(ts).expect("a part has a time"))
}

/// Batch times recorded during a run. `done` is allocated before the run,
/// so recording a batch does not allocate while the check runs.
#[derive(Debug, Default)]
struct Batches {
    open: Option<(BatchKey, Instant)>,
    done: Vec<(BatchKey, f64)>,
}

/// The benchmark's observer: forwards every callback to the CLI's
/// [`ChannelObserver`] when it has one, and times batches or counts
/// callbacks when asked to. Meant for one-thread runs, which claim one
/// batch at a time.
#[derive(Debug)]
pub struct Probe {
    inner: Option<ChannelObserver>,
    events: Option<AtomicU64>,
    batches: Option<Mutex<Batches>>,
}

impl Probe {
    pub fn new(inner: Option<ChannelObserver>) -> Self {
        Probe {
            inner,
            events: None,
            batches: None,
        }
    }

    /// Also times every batch ([`Probe::take_batches`]), with room for
    /// `capacity` batches a run before it allocates.
    pub fn timing(mut self, capacity: usize) -> Self {
        self.batches = Some(Mutex::new(Batches {
            open: None,
            done: Vec::with_capacity(capacity),
        }));
        self
    }

    /// Also counts every callback ([`Probe::events`]).
    pub fn counting(mut self) -> Self {
        self.events = Some(AtomicU64::new(0));
        self
    }

    pub fn events(&self) -> u64 {
        self.events
            .as_ref()
            .map_or(0, |e| e.load(Ordering::Relaxed))
    }

    /// The batch times recorded since the last call.
    pub fn take_batches(&self) -> Vec<(BatchKey, f64)> {
        self.batches.as_ref().map_or_else(Vec::new, |b| {
            let mut b = b.lock().expect("batch times poisoned");
            let capacity = b.done.capacity();
            std::mem::replace(&mut b.done, Vec::with_capacity(capacity))
        })
    }

    fn tick(&self) {
        if let Some(e) = &self.events {
            e.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl ProgressObserver for Probe {
    fn run_started(&self, sites: usize, total: u64, buckets: &[(usize, u64)]) {
        self.tick();
        if let Some(o) = &self.inner {
            o.run_started(sites, total, buckets);
        }
    }
    fn batch_claimed(&self, worker: usize, k: usize, first_index: u64, len: usize) {
        self.tick();
        if let Some(o) = &self.inner {
            o.batch_claimed(worker, k, first_index, len);
        }
        if let Some(b) = &self.batches {
            b.lock().expect("batch times poisoned").open = Some(((k, first_index), Instant::now()));
        }
    }
    fn batch_finished(&self, worker: usize, checked: u64, pruned: u64) {
        if let Some(b) = &self.batches {
            let mut b = b.lock().expect("batch times poisoned");
            if let Some((key, start)) = b.open.take() {
                b.done.push((key, start.elapsed().as_secs_f64()));
            }
        }
        self.tick();
        if let Some(o) = &self.inner {
            o.batch_finished(worker, checked, pruned);
        }
    }
    fn combination_pruned(&self, worker: usize, index: u64) {
        self.tick();
        if let Some(o) = &self.inner {
            o.combination_pruned(worker, index);
        }
    }
    fn violation_found(&self, worker: usize, index: u64, witness: &Witness) {
        self.tick();
        if let Some(o) = &self.inner {
            o.violation_found(worker, index, witness);
        }
    }
    fn combination_quarantined(&self, worker: usize, index: u64, reason: IncompleteReason) {
        self.tick();
        if let Some(o) = &self.inner {
            o.combination_quarantined(worker, index, reason);
        }
    }
    fn checkpoint_written(&self, path: &std::path::Path, combinations: u64) {
        self.tick();
        if let Some(o) = &self.inner {
            o.checkpoint_written(path, combinations);
        }
    }
    fn phase_timing(&self, phase: EnginePhase, elapsed: Duration) {
        self.tick();
        if let Some(o) = &self.inner {
            o.phase_timing(phase, elapsed);
        }
    }
    fn cache_stats(&self, hits: u64, misses: u64, evictions: u64, peak_bytes: u64) {
        self.tick();
        if let Some(o) = &self.inner {
            o.cache_stats(hits, misses, evictions, peak_bytes);
        }
    }
    fn dd_cache_stats(&self, hits: u64, misses: u64, evictions: u64, peak_bytes: u64) {
        self.tick();
        if let Some(o) = &self.inner {
            o.dd_cache_stats(hits, misses, evictions, peak_bytes);
        }
    }
    fn rescue_started(&self, quarantined: usize) {
        self.tick();
        if let Some(o) = &self.inner {
            o.rescue_started(quarantined);
        }
    }
    fn rescue_attempt(&self, index: u64, attempt: &RescueAttempt) {
        self.tick();
        if let Some(o) = &self.inner {
            o.rescue_attempt(index, attempt);
        }
    }
    fn rescue_resolved(&self, index: u64, resolution: RescueResolution) {
        self.tick();
        if let Some(o) = &self.inner {
            o.rescue_resolved(index, resolution);
        }
    }
    fn rescue_finished(&self, report: &RecoveryReport) {
        self.tick();
        if let Some(o) = &self.inner {
            o.rescue_finished(report);
        }
    }
    fn run_finished(&self, stats: &CheckStats) {
        self.tick();
        if let Some(o) = &self.inner {
            o.run_finished(stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(wall: f64, batches: &[(u64, f64)]) -> RunTimes {
        RunTimes {
            wall,
            batches: batches.iter().map(|&(i, t)| ((2, i), t)).collect(),
        }
    }

    #[test]
    fn fastest_takes_each_part_from_its_fastest_run() {
        // Outside the batches: 1.0 and 0.5; batch 0: 2.0 and 1.0; batch
        // 8: 1.0 and 3.0.
        let a = run(4.0, &[(0, 2.0), (8, 1.0)]);
        let b = run(4.5, &[(0, 1.0), (8, 3.0)]);
        assert_eq!(fastest(&[a.clone(), b.clone()]), Some(0.5 + 1.0 + 1.0));
        assert_eq!(fastest(std::slice::from_ref(&a)), Some(4.0));
        assert_eq!(fastest(&[]), None);
        assert_eq!(typical(&[a.clone(), b.clone()]), Some(0.75 + 1.5 + 2.0));
        let c = run(4.0, &[(0, 1.5), (8, 2.0)]);
        assert_eq!(typical(&[a, b, c]), Some(0.5 + 1.5 + 2.0));
        // Runs without batches: the fastest run.
        assert_eq!(
            fastest(&[run(3.0, &[]), run(2.0, &[]), run(5.0, &[])]),
            Some(2.0)
        );
    }

    #[test]
    fn probe_times_each_batch_and_forwards() {
        let (inner, rx) = ChannelObserver::new();
        let p = Probe::new(Some(inner)).timing(1).counting();
        p.batch_claimed(0, 2, 0, 4);
        p.combination_pruned(0, 1);
        p.batch_finished(0, 4, 1);
        p.batch_claimed(0, 2, 4, 4);
        p.batch_finished(0, 4, 0);
        assert_eq!(p.events(), 5);
        let times = p.take_batches();
        assert_eq!(
            times.iter().map(|b| b.0).collect::<Vec<_>>(),
            [(2, 0), (2, 4)]
        );
        assert!(p.take_batches().is_empty());
        drop(p);
        assert_eq!(rx.into_iter().count(), 5);
    }
}
