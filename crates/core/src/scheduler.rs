//! Work-stealing batched scheduler for the combination enumeration.
//!
//! The paper lists parallelization as future work; the first cut here was
//! static modulo sharding, which splits the space by leading site index.
//! That split is badly unbalanced: the largest-first heuristic makes
//! combination cost depend on position, and a worker whose shard holds the
//! expensive leading indices becomes the critical path while the others
//! idle.
//!
//! This scheduler instead dispenses the enumeration as contiguous batches
//! from a shared cursor (self-scheduling / work stealing from a central
//! queue): idle workers always find work while any remains, so imbalance is
//! bounded by one batch. Combinations keep their global enumeration index —
//! the exact order the serial verifier uses — which preserves deterministic
//! witness selection (see below) no matter how batches interleave at run
//! time.
//!
//! # Batching policy
//!
//! Combinations are grouped into size buckets (`k = d..1` under
//! largest-first). Each bucket's batch length is `C(n, k) / (threads × 16)`
//! clamped to `[1, 1024]`: small enough that every worker gets many batches
//! per bucket (load balance), large enough that the shared-cursor lock is
//! cold (one lock round-trip per batch, not per combination).
//!
//! # Cancellation and determinism
//!
//! A worker that finds a violation at global index `g` lowers the shared
//! `stop_before` bound with a `fetch_min`. The queue stops issuing batches
//! at or past the bound, and in-flight workers skip their remaining
//! combinations with index `≥ stop_before` — but every batch below the
//! bound runs to completion. Since batches are claimed in enumeration
//! order, all combinations before the final bound are fully checked, and
//! the minimum-index candidate is exactly the witness the serial
//! enumeration would have returned first. A wall-clock timeout instead
//! raises a hard stop that abandons all remaining work (the verdict is then
//! flagged `timed_out`, matching the serial semantics).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use walshcheck_circuit::netlist::Netlist;

use crate::checkpoint::{
    self, Candidate, Checkpoint, CheckpointConfig, Quarantined, RangeSet, Rescued,
};
use crate::engine::{ComboStep, EnumState, Verifier, VerifyOptions};
use crate::observe::{EnginePhase, ProgressObserver};
use crate::property::{CheckStats, Property, SkippedCombination, Verdict, Witness};
use crate::recover::{RecoveryReport, RescueConfig, RescueResolution, RescuedCombination};

/// Wall-times of the setup work done in `Session::new`, reported to the
/// observer as engine phases.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SetupTimings {
    pub(crate) validate: Duration,
    pub(crate) unfold: Duration,
}

/// `C(n, k)`, saturating at `u64::MAX` (used for progress accounting and
/// index arithmetic; the enumeration itself never materializes the count).
pub(crate) fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
        if acc > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    acc as u64
}

/// The combination sizes of a run over `n` sites, in enumeration order
/// (largest first by default).
pub(crate) fn bucket_sizes(property: Property, options: &VerifyOptions, n: usize) -> Vec<usize> {
    let max_k = (property.order() as usize).min(n);
    if options.largest_first {
        (1..=max_k).rev().collect()
    } else {
        (1..=max_k).collect()
    }
}

/// The number of combinations in the buckets `sizes` of a run over `n`
/// sites (saturating).
pub(crate) fn bucket_total(sizes: &[usize], n: usize) -> u64 {
    sizes
        .iter()
        .fold(0u64, |acc, &k| acc.saturating_add(binomial(n, k)))
}

/// A claimed slice of the enumeration: `len` combinations of size `k`
/// starting at global index `first_index`, stored flattened.
struct Batch {
    k: usize,
    first_index: u64,
    flat: Vec<usize>,
}

impl Batch {
    fn len(&self) -> usize {
        self.flat.len() / self.k
    }

    fn combos(&self) -> impl Iterator<Item = &[usize]> {
        self.flat.chunks_exact(self.k)
    }
}

/// Cursor state behind the queue's mutex: the current bucket, the next
/// combination in it, and that combination's global index.
struct Cursor {
    /// Index into `BatchQueue::sizes`.
    bucket: usize,
    /// The next combination to hand out (`None` once the bucket must be
    /// (re-)initialized).
    next: Option<Vec<usize>>,
    /// Global enumeration index of `next`.
    global: u64,
}

/// The shared batch dispenser.
struct BatchQueue {
    n: usize,
    /// Bucket sizes in enumeration order (largest-first by default).
    sizes: Vec<usize>,
    /// Batch length per bucket (see module docs for the policy).
    batch_lens: Vec<usize>,
    cursor: Mutex<Cursor>,
    /// Combinations with global index `>= stop_before` need not run: a
    /// violation with a smaller index has already been found.
    stop_before: AtomicU64,
    /// Abandon everything (wall-clock timeout).
    hard_stop: AtomicBool,
    /// Set when a graceful-shutdown request drained the queue while
    /// dispensable work remained — distinguishes "interrupted" from
    /// "exhausted" (a sweep that finished before the signal stays
    /// conclusive).
    cut: AtomicBool,
    /// Job-scoped interrupt token ([`crate::Job::set_interrupt`]): drains
    /// this queue exactly like the process-global flag, without touching
    /// sibling runs in the same process.
    interrupt: Option<Arc<AtomicBool>>,
}

impl BatchQueue {
    fn new(
        n: usize,
        sizes: Vec<usize>,
        threads: usize,
        interrupt: Option<Arc<AtomicBool>>,
    ) -> Self {
        let batch_lens = sizes
            .iter()
            .map(|&k| {
                let total = binomial(n, k);
                (total / (threads as u64 * 16).max(1)).clamp(1, 1024) as usize
            })
            .collect();
        BatchQueue {
            n,
            sizes,
            batch_lens,
            cursor: Mutex::new(Cursor {
                bucket: 0,
                next: None,
                global: 0,
            }),
            stop_before: AtomicU64::new(u64::MAX),
            hard_stop: AtomicBool::new(false),
            cut: AtomicBool::new(false),
            interrupt,
        }
    }

    /// Whether a graceful interruption was requested — process-global
    /// shutdown or this run's own token.
    fn interrupt_requested(&self) -> bool {
        crate::shutdown::requested()
            || self
                .interrupt
                .as_ref()
                .is_some_and(|t| t.load(Ordering::Relaxed))
    }

    fn stop_before(&self) -> u64 {
        self.stop_before.load(Ordering::Relaxed)
    }

    fn record_violation(&self, index: u64) {
        self.stop_before.fetch_min(index, Ordering::Relaxed);
    }

    fn hard_stop(&self) {
        self.hard_stop.store(true, Ordering::Relaxed);
    }

    fn hard_stopped(&self) -> bool {
        self.hard_stop.load(Ordering::Relaxed)
    }

    fn was_cut(&self) -> bool {
        self.cut.load(Ordering::Relaxed)
    }

    /// Claims the next batch, or `None` when the enumeration is exhausted,
    /// cancelled past the cursor, or hard-stopped.
    fn next_batch(&self) -> Option<Batch> {
        if self.hard_stopped() {
            return None;
        }
        let mut cur = self.cursor.lock().expect("queue poisoned");
        // Position the cursor on a combination (entering the next bucket if
        // the current one is drained).
        while cur.next.is_none() {
            if cur.bucket >= self.sizes.len() {
                return None;
            }
            let k = self.sizes[cur.bucket];
            if k >= 1 && k <= self.n {
                cur.next = Some((0..k).collect());
            } else {
                cur.bucket += 1;
            }
        }
        if cur.global >= self.stop_before() {
            return None;
        }
        // Graceful shutdown — process-global or job-scoped — drains the
        // queue at the batch boundary: the check sits *after* the
        // exhaustion and cancellation tests, so `cut` is only raised when
        // checkable work was actually abandoned.
        if self.interrupt_requested() {
            self.cut.store(true, Ordering::Relaxed);
            return None;
        }
        let k = self.sizes[cur.bucket];
        let want = self.batch_lens[cur.bucket];
        let first_index = cur.global;
        let mut flat = Vec::with_capacity(want * k);
        let mut produced = 0usize;
        loop {
            let combo = cur.next.as_mut().expect("cursor positioned");
            // A combination ending at `n - 1` is the last extension of its
            // (k−1)-prefix: stopping the batch only there keeps every
            // subtree of the prefix trie on a single worker, so its prefix
            // cache sees all the reuse (the overshoot past `want` is at
            // most `n − 1` combinations).
            let closes_subtree = k < 2 || combo[k - 1] == self.n - 1;
            flat.extend_from_slice(combo);
            produced += 1;
            if !next_combination(combo, self.n) {
                cur.next = None;
                cur.bucket += 1;
                break;
            }
            if produced >= want && closes_subtree {
                break;
            }
        }
        cur.global += produced as u64;
        Some(Batch {
            k,
            first_index,
            flat,
        })
    }
}

/// Frontier and counters persisted by a checkpoint, behind one lock so
/// every snapshot is internally consistent (a range is never visible as
/// completed without the combinations counted inside it).
#[derive(Clone, Default)]
struct Progress {
    completed: RangeSet,
    combinations: u64,
    pruned: u64,
}

/// Shared checkpointing state for one run.
struct CheckpointShared {
    config: CheckpointConfig,
    fingerprint: String,
    property: String,
    progress: Mutex<Progress>,
    last_write: Mutex<Instant>,
    /// Quarantines already resolved by an earlier (interrupted) run's
    /// rescue pass, carried through every sweep-time snapshot so a second
    /// interruption does not lose them. The current run's own rescue pass
    /// appends to a separate list and writes via [`Self::write_snapshot`].
    carried_rescued: Vec<Rescued>,
}

impl CheckpointShared {
    /// Writes a checkpoint if at least `config.every` has elapsed since the
    /// previous one. Lock order matters for snapshot consistency: workers
    /// push evidence (candidates / skipped) *before* marking the containing
    /// batch complete, so reading `progress` first guarantees any range seen
    /// as completed already has its evidence in the lists read afterwards.
    fn maybe_write(
        &self,
        candidates: &Mutex<Vec<Candidate>>,
        skipped: &Mutex<Vec<Quarantined>>,
        observer: Option<&dyn ProgressObserver>,
    ) {
        if self.due() {
            self.write(candidates, skipped, observer);
        }
    }

    /// Whether at least `config.every` has elapsed since the previous
    /// periodic write; restarts that clock when it has.
    fn due(&self) -> bool {
        let mut last = self.last_write.lock().expect("checkpoint clock poisoned");
        if last.elapsed() < self.config.every {
            return false;
        }
        *last = Instant::now();
        true
    }

    /// Unconditionally writes a sweep-time checkpoint (best-effort: an I/O
    /// failure of a periodic write must not abort the verification it is
    /// backing up).
    fn write(
        &self,
        candidates: &Mutex<Vec<Candidate>>,
        skipped: &Mutex<Vec<Quarantined>>,
        observer: Option<&dyn ProgressObserver>,
    ) {
        // Progress first, evidence second — see `maybe_write`.
        let progress = self.progress.lock().expect("progress poisoned").clone();
        let cands = candidates.lock().expect("candidates poisoned").clone();
        let skips = skipped.lock().expect("skipped poisoned").clone();
        self.emit(progress, cands, skips, &self.carried_rescued, observer);
    }

    /// Snapshot-based variant for the (single-threaded) rescue pass, where
    /// the evidence lists are plain vectors again and the frontier is
    /// static. `skipped` is every quarantine still open: the unresolved
    /// ones plus the pass's unprocessed tail.
    fn write_snapshot(
        &self,
        candidates: &[Candidate],
        mut skipped: Vec<Quarantined>,
        rescued: &[Rescued],
        observer: Option<&dyn ProgressObserver>,
    ) {
        skipped.sort_by_key(|&(g, _, _)| g);
        let progress = self.progress.lock().expect("progress poisoned").clone();
        self.emit(progress, candidates.to_vec(), skipped, rescued, observer);
    }

    fn emit(
        &self,
        progress: Progress,
        candidates: Vec<Candidate>,
        skipped: Vec<Quarantined>,
        rescued: &[Rescued],
        observer: Option<&dyn ProgressObserver>,
    ) {
        let combinations = progress.combinations;
        let ck = Checkpoint {
            fingerprint: self.fingerprint.clone(),
            property: self.property.clone(),
            combinations,
            pruned: progress.pruned,
            completed: progress.completed,
            candidates,
            skipped,
            rescued: rescued.to_vec(),
        };
        if crate::iofs::atomic_replace(
            &*self.config.fs,
            &self.config.path,
            checkpoint::render(&ck).as_bytes(),
        )
        .is_ok()
        {
            if let Some(obs) = observer {
                obs.checkpoint_written(&self.config.path, combinations);
            }
            crate::fault::on_checkpoint_written();
        }
    }
}

/// Advances `idxs` to the next `k`-combination of `0..n` in lexicographic
/// order; returns `false` when `idxs` was the last one.
pub(crate) fn next_combination(idxs: &mut [usize], n: usize) -> bool {
    let k = idxs.len();
    let mut i = k;
    loop {
        if i == 0 {
            return false;
        }
        i -= 1;
        if idxs[i] != i + n - k {
            break;
        }
    }
    idxs[i] += 1;
    for j in i + 1..k {
        idxs[j] = idxs[j - 1] + 1;
    }
    true
}

/// Runs the batched enumeration with `threads` workers on the calling
/// thread plus `threads - 1` scoped worker threads. `verifier` doubles as
/// worker 0's engine (its unfolding is reused across runs); the other
/// workers build their own `Verifier` from the shared netlist, since the
/// decision-diagram managers are single-threaded by design.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    verifier: &mut Verifier,
    property: Property,
    options: &VerifyOptions,
    threads: usize,
    observer: Option<&Arc<dyn ProgressObserver>>,
    setup: SetupTimings,
    ckpt: Option<&CheckpointConfig>,
    resume: Option<Checkpoint>,
    rescue: &RescueConfig,
    interrupt: Option<&Arc<AtomicBool>>,
) -> Verdict {
    crate::isolate::install_quiet_hook();
    let start = Instant::now();
    let threads = threads.max(1);

    let t = Instant::now();
    let mut state0 = verifier.begin_enumeration(property, options);
    let extract_time = t.elapsed();

    let n = state0.sites.len();
    let sizes = bucket_sizes(property, options, n);
    let buckets: Vec<(usize, u64)> = sizes.iter().map(|&k| (k, binomial(n, k))).collect();
    let total = bucket_total(&sizes, n);

    if let Some(obs) = observer {
        obs.run_started(n, total, &buckets);
        obs.phase_timing(EnginePhase::Validate, setup.validate);
        obs.phase_timing(EnginePhase::Unfold, setup.unfold);
        obs.phase_timing(EnginePhase::ExtractSites, extract_time);
    }

    let queue = BatchQueue::new(n, sizes, threads, interrupt.cloned());
    let enum_start = Instant::now();

    // Seed shared evidence from the resume state (if any); the done-set of
    // completed ranges lets workers skip already-checked combinations.
    let resume = resume.unwrap_or_default();
    let resumed_combinations = resume.combinations;
    let resumed_pruned = resume.pruned;
    let done: Option<&RangeSet> = if resume.completed.is_empty() {
        None
    } else {
        Some(&resume.completed)
    };
    let candidates: Mutex<Vec<Candidate>> = Mutex::new(resume.candidates.clone());
    for &(g, _, _) in &resume.candidates {
        // A seeded candidate cancels everything past it, exactly as a live
        // violation would.
        queue.record_violation(g);
    }
    let skipped: Mutex<Vec<Quarantined>> = Mutex::new(resume.skipped.clone());

    let ck_shared: Option<CheckpointShared> = ckpt.map(|cfg| CheckpointShared {
        config: cfg.clone(),
        fingerprint: checkpoint::fingerprint(verifier.netlist(), property, options),
        property: property.to_string(),
        progress: Mutex::new(Progress {
            completed: resume.completed.clone(),
            combinations: resumed_combinations,
            pruned: resumed_pruned,
        }),
        last_write: Mutex::new(Instant::now()),
        carried_rescued: resume.rescued.clone(),
    });

    let shared: &Verifier = verifier;
    let netlist: &Netlist = shared.netlist();
    let obs_dyn: Option<&dyn ProgressObserver> = observer.map(|o| o.as_ref());
    let ck_ref = ck_shared.as_ref();
    let mut lost_workers: u64 = 0;
    let mut worker_stats: Vec<CheckStats> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads)
            .map(|wid| {
                let queue = &queue;
                let candidates = &candidates;
                let skipped = &skipped;
                // The whole worker body sits behind a `catch_unwind`: the
                // per-combination boundary in `worker_loop` already converts
                // engine panics into quarantines, so anything escaping here
                // (worker setup, an injected worker loss, a scheduler bug)
                // kills only this worker. Siblings keep draining the queue
                // and the run degrades to Inconclusive(WorkerFailure)
                // instead of aborting.
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        crate::fault::maybe_lose_worker(wid);
                        let worker = Verifier::new(netlist).expect("validated in Session::new");
                        let mut state = worker.begin_enumeration(property, options);
                        debug_assert_eq!(state.sites.len(), n, "site extraction is deterministic");
                        worker_loop(
                            wid, &worker, &mut state, queue, property, options, enum_start,
                            obs_dyn, candidates, skipped, done, ck_ref,
                        )
                    }))
                    .ok()
                })
            })
            .collect();
        let mine = catch_unwind(AssertUnwindSafe(|| {
            crate::fault::maybe_lose_worker(0);
            worker_loop(
                0,
                shared,
                &mut state0,
                &queue,
                property,
                options,
                enum_start,
                obs_dyn,
                &candidates,
                &skipped,
                done,
                ck_ref,
            )
        }))
        .ok();
        match mine {
            Some(s) => worker_stats.push(s),
            None => lost_workers += 1,
        }
        for h in handles {
            // `join` cannot panic — the closure catches its own unwinds —
            // but a lost worker surfaces as `None` either way.
            match h.join().ok().flatten() {
                Some(s) => worker_stats.push(s),
                None => lost_workers += 1,
            }
        }
    });
    let enum_time = enum_start.elapsed();
    verifier.end_enumeration();

    let mut stats: CheckStats = worker_stats.drain(..).sum();
    stats.worker_failures += lost_workers;
    stats.combinations += resumed_combinations;
    stats.pruned += resumed_pruned;
    stats.interrupted |= queue.was_cut();

    // Post-sweep flush: even a finished run leaves a coherent frontier
    // file, so a later resume of a completed sweep is a cheap no-op — and
    // for a graceful shutdown this write *is* the flush the signal handler
    // promises.
    if let Some(ck) = ck_ref {
        ck.write(&candidates, &skipped, obs_dyn);
    }

    let mut cand_list: Vec<Candidate> = candidates.into_inner().expect("candidates poisoned");
    let mut raw_skipped: Vec<Quarantined> = skipped.into_inner().expect("skipped poisoned");
    raw_skipped.sort_by_key(|&(g, _, _)| g);
    raw_skipped.dedup_by_key(|&mut (g, _, _)| g);

    // Rescue pass: serial, on this thread, in ascending quarantine order.
    // The escalation ladder is a pure function of (options, rescue config),
    // so the pass is deterministic no matter how many workers the sweep
    // used. Skipped entirely after a timeout or an interrupt — both mean
    // the sweep itself is incomplete and rescue could not upgrade the
    // verdict anyway.
    //
    // Quarantines an earlier (interrupted) run's rescue pass already
    // resolved stay resolved, with the attempt log their ladder wrote in
    // that process; they are not replayed here.
    let mut rescued: Vec<Rescued> = resume.rescued;
    let mut records: Vec<RescuedCombination> = rescued
        .iter()
        .map(|r| RescuedCombination {
            index: r.index,
            combination: r
                .sites
                .iter()
                .map(|&i| state0.sites[i].probe.clone())
                .collect(),
            reason: r.reason,
            attempts: r.attempts.clone(),
            resolution: r.resolution,
        })
        .collect();
    let can_rescue =
        rescue.enabled && !raw_skipped.is_empty() && !stats.timed_out && !stats.interrupted;
    if can_rescue {
        let todo = std::mem::take(&mut raw_skipped);
        if let Some(obs) = observer {
            obs.rescue_started(todo.len());
        }
        // Only quarantines at or below the minimal violation index can
        // change the verdict: anything past it is outranked by the witness
        // in `Verdict::conclude`, exactly as the sweep's cancellation bound
        // skips combinations past a found violation. A rescued violation
        // lowers the bound the same way.
        let mut cutoff: Option<u64> = cand_list.iter().map(|&(g, _, _)| g).min();
        for (i, (g, idxs, reason)) in todo.iter().enumerate() {
            // A kill or deadline landing mid-rescue drains like one landing
            // mid-sweep: the unprocessed tail (including this entry) stays
            // skipped, and the final snapshot below makes the run resumable
            // from exactly this point.
            if crate::shutdown::requested() || interrupt.is_some_and(|t| t.load(Ordering::Relaxed))
            {
                raw_skipped.push((*g, idxs.clone(), *reason));
                raw_skipped.extend_from_slice(&todo[i + 1..]);
                stats.interrupted = true;
                break;
            }
            if cutoff.is_some_and(|c| *g > c) {
                raw_skipped.push((*g, idxs.clone(), *reason));
                continue;
            }
            let rec = crate::recover::rescue_one(
                verifier,
                property,
                options,
                rescue,
                &state0.sites,
                *g,
                idxs,
                *reason,
                obs_dyn,
            );
            match rec.resolution {
                RescueResolution::Unresolved => raw_skipped.push((*g, idxs.clone(), *reason)),
                resolution => {
                    if resolution == RescueResolution::Violated {
                        // Witness recomputed below only if this index wins
                        // the minimal-index selection — with the run's own
                        // engine and no budget, byte-identical to a
                        // sweep-found one.
                        cand_list.push((*g, idxs.clone(), None));
                        cutoff = Some(cutoff.map_or(*g, |c| c.min(*g)));
                    }
                    rescued.push(Rescued {
                        index: *g,
                        sites: idxs.clone(),
                        reason: *reason,
                        resolution,
                        attempts: rec.attempts.clone(),
                    });
                }
            }
            records.push(rec);
            // Persist resolutions on the sweep's cadence so a kill
            // mid-rescue resumes without replaying healed combinations; the
            // unprocessed tail goes back into the snapshot as still-skipped.
            if let Some(ck) = ck_ref.filter(|ck| ck.due()) {
                let open = [&raw_skipped[..], &todo[i + 1..]].concat();
                ck.write_snapshot(&cand_list, open, &rescued, obs_dyn);
            }
        }
        // The pass ended or was interrupted: one final snapshot records
        // where it stands.
        if let Some(ck) = ck_ref {
            ck.write_snapshot(&cand_list, raw_skipped.clone(), &rescued, obs_dyn);
        }
    }
    // The skipped counter mirrors the surviving quarantine list: workers
    // count only the quarantines this process hit, not those a resumed run
    // carries from its checkpoint, and rescue may have resolved some.
    stats.skipped = raw_skipped.len() as u64;
    let recovery: Option<RecoveryReport> = if can_rescue || !records.is_empty() {
        records.sort_by_key(|r| r.index);
        let resolved = records
            .iter()
            .filter(|r| r.resolution != RescueResolution::Unresolved)
            .count();
        let report = RecoveryReport {
            attempted: records.len(),
            resolved,
            unresolved: records.len() - resolved,
            combinations: records,
        };
        if can_rescue {
            if let Some(obs) = observer {
                obs.rescue_finished(&report);
            }
        }
        Some(report)
    } else {
        None
    };

    let winner: Option<(u64, Witness)> = {
        cand_list.sort_by_key(|&(g, _, _)| g);
        cand_list.into_iter().next().map(|(g, idxs, w)| {
            let w = w.unwrap_or_else(|| {
                verifier
                    .witness_of(property, options, &state0.sites, &idxs)
                    .expect("a rescue-found violation violates under every engine")
            });
            (g, w)
        })
    };
    // Workers stopped by cancellation (a witness exists) are complete for
    // our purposes; only a time-limit stop on a clean run is partial.
    stats.timed_out = stats.timed_out && winner.is_none();
    stats.total_time = start.elapsed();

    raw_skipped.sort_by_key(|&(g, _, _)| g);
    let skipped: Vec<SkippedCombination> = raw_skipped
        .into_iter()
        .map(|(index, idxs, reason)| SkippedCombination {
            index,
            combination: idxs
                .iter()
                .map(|&i| state0.sites[i].probe.clone())
                .collect(),
            reason,
        })
        .collect();

    if let Some(obs) = observer {
        obs.phase_timing(EnginePhase::Enumerate, enum_time);
        obs.phase_timing(EnginePhase::Convolution, stats.convolution_time);
        obs.phase_timing(EnginePhase::Verification, stats.verification_time);
        obs.cache_stats(
            stats.cache_hits,
            stats.cache_misses,
            stats.cache_evictions,
            stats.cache_peak_bytes,
        );
        obs.dd_cache_stats(
            stats.dd_cache_hits,
            stats.dd_cache_misses,
            stats.dd_cache_evictions,
            stats.dd_cache_peak_bytes,
        );
        obs.run_finished(&stats);
    }

    let mut verdict = Verdict::conclude(property, winner.map(|(_, w)| w), skipped, stats);
    verdict.recovery = recovery;
    verdict
}

/// One worker: claim batches until the queue dries up. Combination
/// counting, arena collection cadence, and the per-combination time-limit
/// check replicate the serial enumeration exactly, so a one-thread
/// scheduler run produces the same counters as `Verifier::check`.
///
/// Every combination runs behind the [`crate::isolate`] boundary: a panic
/// or budget blow-out quarantines that one combination (pushed onto
/// `skipped`) and the sweep continues. Batches that ran to their end —
/// normally or cut short by the cancellation bound, but *not* by a
/// hard stop — are recorded in the checkpoint frontier: cancellation-cut
/// combinations all sit at or past a recorded violation index, so a resume
/// can never lose a minimal witness to them.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    wid: usize,
    verifier: &Verifier,
    state: &mut EnumState,
    queue: &BatchQueue,
    property: Property,
    options: &VerifyOptions,
    run_start: Instant,
    observer: Option<&dyn ProgressObserver>,
    candidates: &Mutex<Vec<Candidate>>,
    skipped: &Mutex<Vec<Quarantined>>,
    done: Option<&RangeSet>,
    ckpt: Option<&CheckpointShared>,
) -> CheckStats {
    let worker_start = Instant::now();
    let mut stats = CheckStats::default();
    'claim: while let Some(batch) = queue.next_batch() {
        if let Some(obs) = observer {
            obs.batch_claimed(wid, batch.k, batch.first_index, batch.len());
        }
        let checked0 = stats.combinations;
        let pruned0 = stats.pruned;
        for (i, idxs) in batch.combos().enumerate() {
            let index = batch.first_index + i as u64;
            // Later combinations in the batch only have larger indices, so
            // once the cancellation bound is crossed the rest can be
            // dropped wholesale.
            if index >= queue.stop_before() {
                break;
            }
            if queue.hard_stopped() {
                break 'claim;
            }
            // Already covered by the resumed frontier: the combination was
            // checked (and counted) by the interrupted run.
            if done.is_some_and(|d| d.contains(index)) {
                continue;
            }
            stats.combinations += 1;
            if stats.combinations % 256 == 1 {
                state.maybe_collect();
            }
            if let Some(limit) = options.time_limit {
                if run_start.elapsed() > limit {
                    stats.timed_out = true;
                    queue.hard_stop();
                    break 'claim;
                }
            }
            match crate::isolate::check_isolated(
                verifier, state, property, options, index, idxs, &mut stats,
            ) {
                Ok(ComboStep::Clean) => {}
                Ok(ComboStep::Pruned) => {
                    if let Some(obs) = observer {
                        obs.combination_pruned(wid, index);
                    }
                }
                Ok(ComboStep::Violation(witness)) => {
                    queue.record_violation(index);
                    if let Some(obs) = observer {
                        obs.violation_found(wid, index, &witness);
                    }
                    candidates.lock().expect("candidates poisoned").push((
                        index,
                        idxs.to_vec(),
                        Some(witness),
                    ));
                }
                Err(reason) => {
                    if let Some(obs) = observer {
                        obs.combination_quarantined(wid, index, reason);
                    }
                    skipped
                        .lock()
                        .expect("skipped poisoned")
                        .push((index, idxs.to_vec(), reason));
                }
            }
        }
        if let Some(obs) = observer {
            obs.batch_finished(wid, stats.combinations - checked0, stats.pruned - pruned0);
        }
        // This point is only reached when the batch ran to its end (a hard
        // stop breaks out of `'claim` above), so the batch's whole index
        // range — including any cancellation-cut tail, see the function
        // docs — joins the checkpoint frontier.
        if let Some(ck) = ckpt {
            {
                let mut p = ck.progress.lock().expect("progress poisoned");
                p.completed
                    .insert(batch.first_index, batch.first_index + batch.len() as u64);
                p.combinations += stats.combinations - checked0;
                p.pruned += stats.pruned - pruned0;
            }
            ck.maybe_write(candidates, skipped, observer);
        }
    }
    state.finish(&mut stats);
    stats.total_time = worker_start.elapsed();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 6), 0);
        assert_eq!(binomial(33, 2), 528);
        assert_eq!(binomial(128, 64), u64::MAX); // saturates
    }

    #[test]
    fn successor_walks_lexicographic_order() {
        let mut c = vec![0, 1, 2];
        let mut seen = vec![c.clone()];
        while next_combination(&mut c, 5) {
            seen.push(c.clone());
        }
        assert_eq!(seen.len(), 10);
        assert_eq!(seen[0], [0, 1, 2]);
        assert_eq!(seen[1], [0, 1, 3]);
        assert_eq!(seen[9], [2, 3, 4]);
    }

    #[test]
    fn queue_dispenses_every_combination_once_in_order() {
        let queue = BatchQueue::new(6, vec![3, 2, 1], 2, None);
        let mut indices = Vec::new();
        let mut combos = Vec::new();
        while let Some(batch) = queue.next_batch() {
            for (i, c) in batch.combos().enumerate() {
                indices.push(batch.first_index + i as u64);
                combos.push((batch.k, c.to_vec()));
            }
        }
        let expect_total = binomial(6, 3) + binomial(6, 2) + binomial(6, 1);
        assert_eq!(indices.len() as u64, expect_total);
        // Global indices are consecutive from zero — the serial order.
        assert_eq!(indices, (0..expect_total).collect::<Vec<_>>());
        // Bucket boundaries respected: all k=3 first, then k=2, then k=1.
        let ks: Vec<usize> = combos.iter().map(|(k, _)| *k).collect();
        let mut sorted = ks.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(ks, sorted);
        // First and last combination of the first bucket.
        assert_eq!(combos[0].1, [0, 1, 2]);
        assert_eq!(combos[(binomial(6, 3) - 1) as usize].1, [3, 4, 5]);
    }

    #[test]
    fn queue_respects_stop_before() {
        let queue = BatchQueue::new(6, vec![2], 1, None);
        queue.record_violation(3);
        let mut count = 0u64;
        while let Some(batch) = queue.next_batch() {
            count += batch.len() as u64;
        }
        // The queue stops issuing once the cursor crosses the bound; at
        // most one in-flight batch straddles it.
        assert!(count < binomial(6, 2));
        queue.record_violation(0);
        assert!(queue.next_batch().is_none());
    }

    #[test]
    fn hard_stop_drains_the_queue() {
        let queue = BatchQueue::new(10, vec![2], 4, None);
        assert!(queue.next_batch().is_some());
        queue.hard_stop();
        assert!(queue.next_batch().is_none());
    }

    #[test]
    fn batches_end_on_subtree_boundaries() {
        // C(9,3) = 84 with threads = 2 gives a nominal batch length of 2,
        // so nearly every batch must be extended to its subtree boundary.
        let queue = BatchQueue::new(9, vec![3], 2, None);
        let mut total = 0u64;
        while let Some(batch) = queue.next_batch() {
            let last = batch.flat.chunks_exact(batch.k).last().expect("non-empty");
            assert_eq!(last[batch.k - 1], 8, "batch ends mid-subtree: {last:?}");
            total += batch.len() as u64;
        }
        assert_eq!(total, binomial(9, 3));
        // Size-1 buckets have no prefix to align on.
        let queue = BatchQueue::new(9, vec![1], 2, None);
        let mut total = 0u64;
        while let Some(batch) = queue.next_batch() {
            total += batch.len() as u64;
        }
        assert_eq!(total, 9);
    }

    #[test]
    fn batch_lengths_are_positive_and_bounded() {
        for threads in [1, 4, 64] {
            let queue = BatchQueue::new(40, vec![3, 2, 1], threads, None);
            for len in &queue.batch_lens {
                assert!((1..=1024).contains(len));
            }
        }
    }
}
