//! The exact spectral verifier and its four engine backends.
//!
//! [`Verifier::check`] enumerates all combinations of up to `d` observations
//! (output shares and internal probes), computes the Walsh correlation rows
//! of each combination, and tests them against the property's forbidden
//! region. The four [`EngineKind`] backends reproduce the implementation
//! alternatives compared in the paper's evaluation:
//!
//! | engine  | convolution        | verification                     |
//! |---------|--------------------|----------------------------------|
//! | `Lil`   | sorted lists (\[11\])| scan entries against the region  |
//! | `Map`   | hash maps          | scan entries against the region  |
//! | `Mapi`  | hash maps          | ADD × `T`-matrix (the paper)     |
//! | `Fujita`| sign-ADD product + | ADD × `T`-matrix                 |
//! |         | ADD Walsh transform|                                  |
//!
//! The enumeration applies the paper's largest-combinations-first heuristic
//! and an optional functional-support prefilter (a cheap necessary
//! condition), both switchable for the ablation benchmarks.

use std::ops::ControlFlow;
use std::rc::Rc;
use std::time::Instant;

use walshcheck_circuit::glitch::ProbeModel;
use walshcheck_circuit::netlist::{Netlist, NetlistError};
use walshcheck_circuit::unfold::{unfold, Unfolded};
use walshcheck_dd::add::{Add, AddManager};
use walshcheck_dd::bdd::{Bdd, BddManager};
use walshcheck_dd::dyadic::Dyadic;
use walshcheck_dd::spectral::{sign_add, walsh_sparse, wht_with, SparseWalshCache, WhtMemo};
use walshcheck_dd::var::{VarId, VarSet};
use walshcheck_dd::FastMap;

use crate::mask::{Mask, VarMap};
use crate::pcache::PrefixCache;
use crate::property::{CheckMode, CheckStats, Property, SkippedCombination, Verdict, Witness};
use crate::sites::{extract_sites, Site, SiteOptions};
use crate::spectrum::{LilSpectrum, MapSpectrum, Spectrum};
use crate::tmatrix::Region;

/// Selects the data structures used for convolution and verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Sorted list-of-lists — the exact baseline of reference \[11\].
    Lil,
    /// Hash maps for both convolution and verification.
    Map,
    /// Hash-map convolution, ADD-based verification — the paper's method.
    #[default]
    Mapi,
    /// Full ADD pipeline using the Fujita Walsh transform.
    Fujita,
}

impl EngineKind {
    /// Stable lowercase machine-readable name (job specs, reports, CLI
    /// flags): `"lil"`, `"map"`, `"mapi"` or `"fujita"`.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Lil => "lil",
            EngineKind::Map => "map",
            EngineKind::Mapi => "mapi",
            EngineKind::Fujita => "fujita",
        }
    }

    /// Inverse of [`EngineKind::as_str`].
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s {
            "lil" => Some(EngineKind::Lil),
            "map" => Some(EngineKind::Map),
            "mapi" => Some(EngineKind::Mapi),
            "fujita" => Some(EngineKind::Fujita),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineKind::Lil => "LIL",
            EngineKind::Map => "MAP",
            EngineKind::Mapi => "MAPI",
            EngineKind::Fujita => "FUJITA",
        })
    }
}

/// Options for a verification run.
///
/// Construct with [`VerifyOptions::builder`], [`VerifyOptions::default`] or
/// the [`VerifyOptions::paper`] preset; the struct is `#[non_exhaustive]`, so
/// literal construction outside this crate is not possible (fields may be
/// added without a breaking change). Individual fields stay public and can
/// be adjusted after construction.
///
/// Work distribution is no longer part of the options: sharding and
/// cross-worker cancellation are internal to the work-stealing scheduler
/// and are driven by [`crate::Session::threads`]. Neither is variable
/// order: greedy sifting runs only as the rescue ladder's second rung
/// (see [`crate::recover`]).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct VerifyOptions {
    /// Engine backend.
    pub engine: EngineKind,
    /// Row-wise (paper-faithful) or joint (union-support) checking.
    pub mode: CheckMode,
    /// Probe-site extraction options (leakage model, input probing, dedup).
    pub sites: SiteOptions,
    /// Skip combinations whose functional support already satisfies the
    /// budget (sound, cheap necessary condition).
    pub prefilter: bool,
    /// Enumerate larger combinations first (the paper's search heuristic).
    pub largest_first: bool,
    /// Optional wall-clock budget; when exceeded the check stops and the
    /// verdict carries `stats.timed_out = true`.
    pub time_limit: Option<std::time::Duration>,
    /// Optional per-combination decision-diagram node budget. A combination
    /// whose estimated row count exceeds the budget, or that grows the ADD /
    /// T-matrix arenas by more than `node_budget` nodes, is quarantined
    /// (recorded in [`Verdict::skipped`]) instead of blowing up memory, and
    /// the outcome degrades to
    /// [`Outcome::Inconclusive`](crate::Outcome::Inconclusive).
    pub node_budget: Option<usize>,
    /// Reuse partial convolution products across tuples that share an
    /// enumeration prefix (see DESIGN.md §9). Purely a time/memory trade:
    /// verdicts and witnesses are identical either way.
    pub cache: bool,
    /// Byte budget of each worker's prefix cache (least-recently-used
    /// eviction above it). `0` disables caching like `cache = false`.
    pub cache_budget: usize,
    /// Support width at or below which spectral kernels (map convolution,
    /// sparse Walsh transforms, the ADD WHT) drop to a flat integer
    /// butterfly instead of pointer-chasing DD recursions. The dense
    /// kernels are exact (dyadic coefficients over a common exponent, with
    /// overflow falling back to the recursion), so results are
    /// byte-identical at any cut — a pure speed knob, excluded from job
    /// identity. `0` disables them.
    pub dense_cut: u32,
}

/// Default per-worker prefix-cache budget (64 MiB).
pub const DEFAULT_CACHE_BUDGET: usize = 64 << 20;

/// Default dense-kernel support cut ([`VerifyOptions::dense_cut`]): 12
/// variables keeps every flat table at or under 4096 entries (32 KiB of
/// `i64`s — L1-resident) while covering the small cones that dominate
/// low-order sweeps.
pub const DEFAULT_DENSE_CUT: u32 = 12;

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            engine: EngineKind::Mapi,
            mode: CheckMode::Joint,
            sites: SiteOptions::default(),
            prefilter: true,
            largest_first: true,
            time_limit: None,
            node_budget: None,
            cache: true,
            cache_budget: DEFAULT_CACHE_BUDGET,
            dense_cut: DEFAULT_DENSE_CUT,
        }
    }
}

impl VerifyOptions {
    /// Starts a builder initialized with the default configuration.
    pub fn builder() -> VerifyOptionsBuilder {
        VerifyOptionsBuilder {
            options: VerifyOptions::default(),
        }
    }

    /// Paper-faithful configuration for an engine: row-wise checking with
    /// prefiltering disabled, as in the original evaluation.
    pub fn paper(engine: EngineKind) -> Self {
        VerifyOptions {
            engine,
            mode: CheckMode::RowWise,
            sites: SiteOptions::default(),
            prefilter: false,
            largest_first: true,
            time_limit: None,
            node_budget: None,
            cache: true,
            cache_budget: DEFAULT_CACHE_BUDGET,
            dense_cut: DEFAULT_DENSE_CUT,
        }
    }

    /// Re-opens this configuration as a builder (useful to tweak a preset).
    pub fn to_builder(&self) -> VerifyOptionsBuilder {
        VerifyOptionsBuilder {
            options: self.clone(),
        }
    }

    /// Sets the probe model (standard or glitch-extended).
    pub fn with_probe_model(mut self, model: ProbeModel) -> Self {
        self.sites.probe_model = model;
        self
    }
}

/// Fluent constructor for [`VerifyOptions`].
///
/// ```
/// use walshcheck_core::{CheckMode, EngineKind, VerifyOptions};
///
/// let options = VerifyOptions::builder()
///     .engine(EngineKind::Fujita)
///     .mode(CheckMode::RowWise)
///     .prefilter(false)
///     .build();
/// assert_eq!(options.engine, EngineKind::Fujita);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VerifyOptionsBuilder {
    options: VerifyOptions,
}

impl VerifyOptionsBuilder {
    /// Engine backend.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.options.engine = engine;
        self
    }

    /// Row-wise (paper-faithful) or joint (union-support) checking.
    pub fn mode(mut self, mode: CheckMode) -> Self {
        self.options.mode = mode;
        self
    }

    /// Replaces the probe-site extraction options wholesale.
    pub fn sites(mut self, sites: SiteOptions) -> Self {
        self.options.sites = sites;
        self
    }

    /// Probe model (standard or glitch-extended).
    pub fn probe_model(mut self, model: ProbeModel) -> Self {
        self.options.sites.probe_model = model;
        self
    }

    /// Whether unshared input wires are also probeable sites.
    pub fn include_inputs(mut self, include: bool) -> Self {
        self.options.sites.include_inputs = include;
        self
    }

    /// Deduplication of sites with identical observed function sets.
    pub fn dedup_sites(mut self, on: bool) -> Self {
        self.options.sites.dedup = on;
        self
    }

    /// Functional-support prefilter on/off.
    pub fn prefilter(mut self, on: bool) -> Self {
        self.options.prefilter = on;
        self
    }

    /// Largest-combinations-first enumeration on/off.
    pub fn largest_first(mut self, on: bool) -> Self {
        self.options.largest_first = on;
        self
    }

    /// Wall-clock budget for the run.
    pub fn time_limit(mut self, limit: std::time::Duration) -> Self {
        self.options.time_limit = Some(limit);
        self
    }

    /// Per-combination decision-diagram node budget (see
    /// [`VerifyOptions::node_budget`]).
    pub fn node_budget(mut self, nodes: usize) -> Self {
        self.options.node_budget = Some(nodes);
        self
    }

    /// Prefix-shared convolution caching on/off.
    pub fn cache(mut self, on: bool) -> Self {
        self.options.cache = on;
        self
    }

    /// Byte budget of each worker's prefix cache.
    pub fn cache_budget(mut self, bytes: usize) -> Self {
        self.options.cache_budget = bytes;
        self
    }

    /// Dense spectral-kernel support cut (see [`VerifyOptions::dense_cut`]).
    pub fn dense_cut(mut self, cut: u32) -> Self {
        self.options.dense_cut = cut;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> VerifyOptions {
        self.options
    }
}

/// The exact spectral verifier for one netlist.
#[derive(Debug)]
pub struct Verifier {
    netlist: Netlist,
    unfolded: Unfolded,
    varmap: VarMap,
}

impl Verifier {
    /// Unfolds the netlist and prepares the verifier.
    ///
    /// # Errors
    ///
    /// Fails if the netlist is structurally invalid or cyclic.
    pub fn new(netlist: &Netlist) -> Result<Self, NetlistError> {
        netlist.validate()?;
        let unfolded = unfold(netlist)?;
        let varmap = VarMap::from_netlist(netlist);
        Ok(Verifier {
            netlist: netlist.clone(),
            unfolded,
            varmap,
        })
    }

    /// The input-variable classification.
    pub fn varmap(&self) -> &VarMap {
        &self.varmap
    }

    /// The netlist under analysis.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The symbolic unfolding (wire functions).
    pub fn unfolded(&self) -> &Unfolded {
        &self.unfolded
    }

    /// Checks `property` with the default options (MAPI engine, joint mode).
    pub fn check_default(&mut self, property: Property) -> Verdict {
        let mut witness: Option<Witness> = None;
        let (stats, skipped) =
            self.run_enumeration(property, &VerifyOptions::default(), &mut |w| {
                witness = Some(w);
                ControlFlow::Break(())
            });
        Verdict::conclude(property, witness, skipped, stats)
    }

    /// Enumerates violating combinations until `limit` witnesses are found
    /// (or the space is exhausted). Unlike a verdict run, the search
    /// continues past the first violation — useful for leakage diagnosis.
    pub fn find_witnesses(
        &mut self,
        property: Property,
        options: &VerifyOptions,
        limit: usize,
    ) -> Vec<Witness> {
        self.find_witnesses_full(property, options, limit).0
    }

    /// [`Verifier::find_witnesses`] plus the run's degradation evidence: the
    /// quarantined combinations and the stats (whose `timed_out` flag is the
    /// only way to tell "no more leaks" apart from "ran out of time"). The
    /// enumeration honors `options.time_limit` and `options.node_budget`
    /// exactly like a `check` run.
    pub(crate) fn find_witnesses_full(
        &mut self,
        property: Property,
        options: &VerifyOptions,
        limit: usize,
    ) -> (Vec<Witness>, Vec<SkippedCombination>, CheckStats) {
        let mut found = Vec::new();
        let (stats, skipped) = self.run_enumeration(property, options, &mut |w| {
            found.push(w);
            if found.len() >= limit {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        (found, skipped, stats)
    }

    /// Prepares the per-run enumeration state: the (deterministic) probe
    /// sites, the resolved check mode, and a fresh engine context with its
    /// own decision-diagram managers. Shared between the serial
    /// enumeration and the scheduler's workers.
    pub(crate) fn begin_enumeration(
        &self,
        property: Property,
        options: &VerifyOptions,
    ) -> EnumState {
        let sites = extract_sites(&self.netlist, &self.unfolded, &options.sites)
            .expect("netlist validated in Verifier::new");
        self.begin_with_sites(sites, property, options)
    }

    /// [`Verifier::begin_enumeration`] with an explicit site list. The
    /// rescue pass re-checks combinations against the sweep's exact sites
    /// (cloned from its state) instead of re-extracting them, so a rescue
    /// attempt under different options still indexes the same tuples.
    pub(crate) fn begin_with_sites(
        &self,
        sites: Vec<Site>,
        property: Property,
        options: &VerifyOptions,
    ) -> EnumState {
        // Probing security is a per-coefficient property: joint mode
        // degenerates to the row-wise region test.
        let mode = if matches!(property, Property::Probing(_)) {
            CheckMode::RowWise
        } else {
            options.mode
        };
        let ctx = EngineCtx::new(
            options.engine,
            self.varmap.num_vars as u32,
            effective_cache_budget(options),
            options.node_budget,
            options.dense_cut,
        );
        EnumState { sites, mode, ctx }
    }

    /// Checks one combination in a cold engine context built from
    /// `options` — the rescue ladder's plain-retry primitive. Every call
    /// starts from scratch (no prefix cache, no shared arenas), so the
    /// result depends only on `(options, sites, idxs)`, never on sweep
    /// history — part of the rescue determinism argument (DESIGN.md §11).
    pub(crate) fn check_fresh(
        &self,
        property: Property,
        options: &VerifyOptions,
        sites: &[Site],
        idxs: &[usize],
        stats: &mut CheckStats,
    ) -> ComboStep {
        let mut state = self.begin_with_sites(sites.to_vec(), property, options);
        let step = self.check_indices(&mut state, property, false, idxs, stats);
        state.finish(stats);
        step
    }

    /// Re-checks one combination after greedily sifting its observed
    /// functions into a smaller variable order
    /// ([`walshcheck_dd::reorder::sift`]) — the rescue ladder's second
    /// rung. The functions are re-expressed in a fresh manager under the
    /// found order, the variable map and site supports are permuted to
    /// match, the check runs in a cold engine context, and a violating
    /// coordinate is mapped back to the original numbering before
    /// returning. The `begin_tuple` pre-charge counts functions, not
    /// nodes, so it is unchanged by sifting — only the arena-growth half
    /// of the budget benefits from the smaller diagrams.
    pub(crate) fn check_sifted(
        &self,
        property: Property,
        options: &VerifyOptions,
        sites: &[Site],
        idxs: &[usize],
        stats: &mut CheckStats,
    ) -> ComboStep {
        let combo: Vec<&Site> = idxs.iter().map(|&i| &sites[i]).collect();
        let roots: Vec<Bdd> = combo.iter().flat_map(|s| s.funcs.iter().copied()).collect();
        let sifted = walshcheck_dd::reorder::sift(&self.unfolded.bdds, &roots);
        let vm = self.varmap.permuted(&sifted.order);
        let mut moved = sifted.roots.iter().copied();
        let local: Vec<Site> = combo
            .iter()
            .map(|s| Site {
                probe: s.probe.clone(),
                funcs: moved.by_ref().take(s.funcs.len()).collect(),
                support: s.support.permuted(&sifted.order),
            })
            .collect();
        let refs: Vec<&Site> = local.iter().collect();
        let mode = if matches!(property, Property::Probing(_)) {
            CheckMode::RowWise
        } else {
            options.mode
        };
        let internal = refs.iter().filter(|s| s.is_internal()).count();
        let region = region_for(property, &refs, refs.len(), internal);
        let mut ctx = EngineCtx::new(
            options.engine,
            self.varmap.num_vars as u32,
            effective_cache_budget(options),
            options.node_budget,
            options.dense_cut,
        );
        ctx.begin_tuple(&refs);
        // Local indices are the throwaway context's cache keys; they never
        // mix with another run's keys because the context dies here.
        let local_idxs: Vec<usize> = (0..refs.len()).collect();
        let hit = ctx.check_combination(
            &sifted.manager,
            &vm,
            &refs,
            &local_idxs,
            &region,
            mode,
            stats,
        );
        ctx.fold_cache_stats(stats);
        match hit {
            Some((mask, reason, coefficient)) => ComboStep::Violation(Witness {
                combination: refs.iter().map(|s| s.probe.clone()).collect(),
                mask: mask.permuted(&sifted.inverse_order()),
                reason,
                coefficient,
            }),
            None => ComboStep::Clean,
        }
    }

    /// Checks the single combination `idxs` (site indices into
    /// `state.sites`). Does **not** count the combination in
    /// `stats.combinations` — the enumeration driver owns that counter (and
    /// the time-limit / cancellation cadence around it).
    pub(crate) fn check_indices(
        &self,
        state: &mut EnumState,
        property: Property,
        prefilter: bool,
        idxs: &[usize],
        stats: &mut CheckStats,
    ) -> ComboStep {
        let combo: Vec<&Site> = idxs.iter().map(|&i| &state.sites[i]).collect();
        let internal = combo.iter().filter(|s| s.is_internal()).count();
        let region = region_for(property, &combo, combo.len(), internal);

        if prefilter {
            let support = combo.iter().fold(Mask::ZERO, |acc, s| acc | s.support);
            if region_prunable(&region, &self.varmap, support) {
                stats.pruned += 1;
                return ComboStep::Pruned;
            }
        }

        // Pruned tuples never reach the engine, so budgeting starts here:
        // the prefilter is a sound proof, not a capacity concession.
        state.ctx.begin_tuple(&combo);

        let hit = state.ctx.check_combination(
            &self.unfolded.bdds,
            &self.varmap,
            &combo,
            idxs,
            &region,
            state.mode,
            stats,
        );
        match hit {
            Some((mask, reason, coefficient)) => ComboStep::Violation(Witness {
                combination: combo.iter().map(|s| s.probe.clone()).collect(),
                mask,
                reason,
                coefficient,
            }),
            None => ComboStep::Clean,
        }
    }

    /// Releases transient decision-diagram memory after an enumeration.
    /// MAPI/FUJITA verification mutates the shared BDD manager (T matrices,
    /// support BDDs); this gives the memory back between runs.
    pub(crate) fn end_enumeration(&mut self) {
        self.unfolded.bdds.clear_caches();
    }

    /// The shared enumeration loop; `on_witness` decides whether to stop.
    /// Returns the stats and the combinations quarantined by the
    /// per-combination isolation boundary (budget exhaustion or a caught
    /// panic), in enumeration order.
    fn run_enumeration(
        &mut self,
        property: Property,
        options: &VerifyOptions,
        on_witness: &mut dyn FnMut(Witness) -> ControlFlow<()>,
    ) -> (CheckStats, Vec<SkippedCombination>) {
        crate::isolate::install_quiet_hook();
        let start = Instant::now();
        let mut state = self.begin_enumeration(property, options);
        let d = property.order() as usize;
        let mut stats = CheckStats::default();
        let mut skipped: Vec<SkippedCombination> = Vec::new();

        let max_k = d.min(state.sites.len());
        let sizes: Vec<usize> = if options.largest_first {
            (1..=max_k).rev().collect()
        } else {
            (1..=max_k).collect()
        };

        let this = &*self;
        // Position in the deterministic global enumeration order, so
        // indices agree with the scheduler's batch indices.
        let mut index: u64 = 0;
        'sizes: for k in sizes {
            let flow = for_each_combination(state.sites.len(), k, &mut |idxs| {
                let my_index = index;
                index += 1;
                stats.combinations += 1;
                if stats.combinations % 256 == 1 {
                    if crate::shutdown::requested() {
                        stats.interrupted = true;
                        return ControlFlow::Break(());
                    }
                    state.ctx.maybe_collect();
                }
                // The wall-clock budget is checked on every combination (a
                // clock read is negligible next to any convolution).
                if let Some(limit) = options.time_limit {
                    if start.elapsed() > limit {
                        stats.timed_out = true;
                        return ControlFlow::Break(());
                    }
                }
                match crate::isolate::check_isolated(
                    this, &mut state, property, options, my_index, idxs, &mut stats,
                ) {
                    Ok(ComboStep::Clean | ComboStep::Pruned) => ControlFlow::Continue(()),
                    Ok(ComboStep::Violation(w)) => on_witness(w),
                    Err(reason) => {
                        skipped.push(SkippedCombination {
                            index: my_index,
                            combination: idxs
                                .iter()
                                .map(|&i| state.sites[i].probe.clone())
                                .collect(),
                            reason,
                        });
                        ControlFlow::Continue(())
                    }
                }
            });
            if flow.is_break() {
                break 'sizes;
            }
        }

        state.finish(&mut stats);
        self.end_enumeration();
        stats.total_time = start.elapsed();
        (stats, skipped)
    }
}

/// Owned per-pass enumeration state produced by
/// [`Verifier::begin_enumeration`]: the deterministic site list, the
/// resolved check mode, and the engine's spectrum/diagram caches.
pub(crate) struct EnumState {
    pub(crate) sites: Vec<Site>,
    pub(crate) mode: CheckMode,
    ctx: EngineCtx,
}

impl EnumState {
    /// Bounds decision-diagram arena growth (see [`EngineCtx::maybe_collect`]).
    pub(crate) fn maybe_collect(&mut self) {
        self.ctx.maybe_collect();
    }

    /// Folds the engine's prefix-cache counters into `stats`. Call exactly
    /// once per engine-context epoch: when the worker's enumeration pass is
    /// over, or just before a quarantine rebuilds the context (each rebuilt
    /// context starts its counters at zero, so the epochs sum correctly).
    pub(crate) fn finish(&self, stats: &mut CheckStats) {
        self.ctx.fold_cache_stats(stats);
    }
}

/// The cache budget an options struct resolves to: `0` (disabled) when
/// caching is switched off.
fn effective_cache_budget(options: &VerifyOptions) -> usize {
    if options.cache {
        options.cache_budget
    } else {
        0
    }
}

/// Outcome of checking one combination.
pub(crate) enum ComboStep {
    /// No violation on this combination.
    Clean,
    /// Skipped by the functional-support prefilter (counted in
    /// `stats.pruned`).
    Pruned,
    /// The combination violates the property.
    Violation(Witness),
}

impl Verifier {
    /// Shrinks a violating combination to a minimal one: greedily drops
    /// observations while the remainder still violates `property` (with the
    /// budgets of the smaller combination). Useful because the
    /// largest-combinations-first search may return witnesses containing
    /// irrelevant probes.
    ///
    /// Returns the minimized witness, or the original if it cannot shrink.
    pub fn minimize_witness(
        &mut self,
        witness: &Witness,
        property: Property,
        options: &VerifyOptions,
    ) -> Witness {
        let mut current = witness.clone();
        loop {
            let mut shrunk = None;
            for drop in 0..current.combination.len() {
                if current.combination.len() == 1 {
                    break;
                }
                let subset: Vec<crate::property::ProbeRef> = current
                    .combination
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != drop)
                    .map(|(_, p)| p.clone())
                    .collect();
                if let Some(w) = self.check_specific(&subset, property, options) {
                    shrunk = Some(w);
                    break;
                }
            }
            match shrunk {
                Some(w) => current = w,
                None => return current,
            }
        }
    }

    /// Checks a single explicit combination of observations against
    /// `property`, returning a witness if it violates.
    pub fn check_specific(
        &mut self,
        combination: &[crate::property::ProbeRef],
        property: Property,
        options: &VerifyOptions,
    ) -> Option<Witness> {
        let sites = extract_sites(&self.netlist, &self.unfolded, &options.sites)
            .expect("netlist validated in Verifier::new");
        // Match the requested probes to sites (by observed wire).
        let idxs: Vec<usize> = combination
            .iter()
            .map(|p| {
                sites
                    .iter()
                    .position(|s| s.probe.wire() == p.wire() && s.is_internal() == p.is_internal())
                    .expect("probe refers to a known site")
            })
            .collect();
        let combo: Vec<&Site> = idxs.iter().map(|&i| &sites[i]).collect();
        let mode = if matches!(property, Property::Probing(_)) {
            CheckMode::RowWise
        } else {
            options.mode
        };
        let internal = combo.iter().filter(|s| s.is_internal()).count();
        let region = region_for(property, &combo, combo.len(), internal);
        // No node budget here: `check_specific` / `minimize_witness` operate
        // on combinations that already completed (or that the caller chose
        // explicitly), so quarantining would only lose information.
        let mut ctx = EngineCtx::new(
            options.engine,
            self.varmap.num_vars as u32,
            effective_cache_budget(options),
            None,
            options.dense_cut,
        );
        let mut stats = CheckStats::default();
        let hit = ctx.check_combination(
            &self.unfolded.bdds,
            &self.varmap,
            &combo,
            &idxs,
            &region,
            mode,
            &mut stats,
        );
        hit.map(|(mask, reason, coefficient)| Witness {
            combination: combo.iter().map(|s| s.probe.clone()).collect(),
            mask,
            reason,
            coefficient,
        })
    }
}

/// The forbidden region for `property` on a combination of `s` observations
/// with `internal` internal probes.
fn region_for(property: Property, combo: &[&Site], s: usize, internal: usize) -> Region {
    match property {
        Property::Probing(_) => Region::Probing,
        Property::Ni(_) => Region::ShareBudget { budget: s as u32 },
        Property::Sni(_) => Region::ShareBudget {
            budget: internal as u32,
        },
        Property::Pini(_) => {
            let mut allowed = 0u64;
            for site in combo {
                if let crate::property::ProbeRef::Output { index, .. } = site.probe {
                    allowed |= 1 << index;
                }
            }
            Region::PiniBudget {
                allowed_indices: allowed,
                extra: internal as u32,
            }
        }
    }
}

/// Whether a combination whose functions only touch `support` can possibly
/// produce a coefficient inside the region (necessary-condition prefilter).
fn region_prunable(region: &Region, vm: &VarMap, support: Mask) -> bool {
    match *region {
        Region::Probing => !vm.share_groups.iter().any(|g| g.is_subset(support)),
        Region::ShareBudget { budget } => vm
            .share_groups
            .iter()
            .all(|&g| support.weight_in(g) <= budget),
        Region::PiniBudget {
            allowed_indices,
            extra,
        } => (vm.share_indices(support) & !allowed_indices).count_ones() <= extra,
    }
}

/// Visits every `k`-combination of `0..n` (lexicographic); the callback may
/// break out early.
fn for_each_combination(
    n: usize,
    k: usize,
    f: &mut dyn FnMut(&[usize]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    if k == 0 || k > n {
        return ControlFlow::Continue(());
    }
    let mut idxs: Vec<usize> = (0..k).collect();
    loop {
        f(&idxs)?;
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return ControlFlow::Continue(());
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
    }
}

/// Partial correlation rows of an enumeration prefix, in the DFS leaf order
/// of [`product_rows`]. `None` marks the path on which no site has
/// contributed a factor yet (joint mode's empty choices); it stands for the
/// unit spectrum without materializing it.
type RowList<S> = Vec<Option<Rc<S>>>;

/// Prefix row lists larger than this are not materialized (wide glitch
/// cones make the cartesian product of per-site choices explode); the
/// engine falls back to the streaming DFS, which needs O(depth) memory.
const MAX_PREFIX_ROWS: usize = 1 << 10;

/// Estimated heap bytes of a cached row list (spectra report their own
/// footprint; the `Option<Rc<_>>` slots add a word each).
fn row_list_bytes<S: Spectrum>(rows: &[Option<Rc<S>>]) -> usize {
    rows.iter().flatten().map(|s| s.heap_bytes()).sum::<usize>() + rows.len() * 8 + 32
}

/// The apply-cache slot limit derived from a prefix-cache byte budget
/// (`None` keeps the manager's default bound). The direct-mapped caches
/// cost 16 bytes per binary slot plus 12 bytes per unary slot at 1/16 the
/// slot count, so ~17 bytes buys one binary slot; the manager rounds the
/// limit down to a power of two, keeping the slab within the budget.
fn add_apply_limit(cache_budget: usize) -> Option<usize> {
    (cache_budget > 0).then(|| (cache_budget / 17).clamp(1 << 14, 1 << 22))
}

/// Fresh decision-diagram managers for an engine context: the ADD apply
/// caches sized from the cache byte budget (see [`add_apply_limit`]), and
/// both managers under the per-combination node budget.
fn fresh_managers(
    num_vars: u32,
    cache_budget: usize,
    node_budget: Option<usize>,
) -> (AddManager<Dyadic>, BddManager) {
    let mut adds = AddManager::new(num_vars);
    if let Some(limit) = add_apply_limit(cache_budget) {
        adds.set_apply_cache_limit(limit);
    }
    adds.set_node_budget(node_budget);
    let mut t_bdds = BddManager::new(num_vars);
    t_bdds.set_node_budget(node_budget);
    (adds, t_bdds)
}

/// How one combination's correlation rows will be produced.
enum RowPlan<S> {
    /// Streaming DFS over the per-site groups (cache off, or the prefix
    /// row list would be too large to materialize).
    Dfs(Vec<Vec<Rc<S>>>),
    /// Materialized rows of the proper prefix plus the last site's group;
    /// the last convolution level is streamed row by row.
    Prefix(Rc<RowList<S>>, Rc<RowList<S>>),
}

/// FUJITA's analogue of [`RowPlan`] with sign-ADD handles.
enum SignPlan {
    Dfs(Vec<Vec<Add>>),
    Prefix(Rc<Vec<Option<Add>>>, Rc<Vec<Option<Add>>>),
}

/// Per-run engine state: spectrum caches, prefix caches and
/// decision-diagram managers.
struct EngineCtx {
    kind: EngineKind,
    walsh: SparseWalshCache,
    /// Node-keyed partial-WHT memo shared across FUJITA rows; cleared
    /// whenever [`EngineCtx::maybe_collect`] rebuilds `adds` (its keys are
    /// `adds` handles).
    wht_memo: WhtMemo,
    /// Dense spectral-kernel cut threaded into the map convolutions (see
    /// [`VerifyOptions::dense_cut`]; the DD-side kernels read the same cut
    /// from `walsh` / `wht_memo`).
    dense_cut: u32,
    map_base: FastMap<Bdd, Rc<MapSpectrum>>,
    lil_base: FastMap<Bdd, Rc<LilSpectrum>>,
    sign_base: FastMap<Bdd, Add>,
    adds: AddManager<Dyadic>,
    t_bdds: BddManager,
    t_cache: FastMap<Region, Bdd>,
    /// Byte budget of each prefix cache below; `0` disables prefix caching
    /// entirely (the engines then re-derive every tuple independently, as
    /// before PR 2).
    cache_budget: usize,
    /// Per-combination node-growth budget applied to `adds` / `t_bdds` (the
    /// only managers that grow while checking a tuple) plus a deterministic
    /// row-count pre-charge; `None` disables budgeting.
    node_budget: Option<usize>,
    map_prefix: PrefixCache<Rc<RowList<MapSpectrum>>>,
    lil_prefix: PrefixCache<Rc<RowList<LilSpectrum>>>,
    add_prefix: PrefixCache<Rc<Vec<Option<Add>>>>,
}

impl EngineCtx {
    fn new(
        kind: EngineKind,
        num_vars: u32,
        cache_budget: usize,
        node_budget: Option<usize>,
        dense_cut: u32,
    ) -> Self {
        let (adds, t_bdds) = fresh_managers(num_vars, cache_budget, node_budget);
        EngineCtx {
            kind,
            // The base-spectrum memos predate the prefix caches and stay on
            // even with caching disabled (cache_budget 0 ⇒ unbounded, the
            // pre-PR-10 behavior); a configured budget bounds them too.
            walsh: SparseWalshCache::with_config(cache_budget, dense_cut),
            wht_memo: WhtMemo::with_config(cache_budget, dense_cut),
            dense_cut,
            map_base: FastMap::default(),
            lil_base: FastMap::default(),
            sign_base: FastMap::default(),
            adds,
            t_bdds,
            t_cache: FastMap::default(),
            cache_budget,
            node_budget,
            map_prefix: PrefixCache::new(cache_budget),
            lil_prefix: PrefixCache::new(cache_budget),
            add_prefix: PrefixCache::new(cache_budget),
        }
    }

    /// Opens a tuple-sized budget window: rebases the managers' growth
    /// baselines and pre-charges a deterministic estimate of the tuple's row
    /// count. The pre-charge (`Σ_site 2^|funcs| − 1`, a lower bound on the
    /// correlation rows the tuple contributes) is a pure function of the
    /// tuple, independent of worker history or cache warmth — it is what
    /// makes tiny-budget quarantine lists identical at every thread count.
    /// Diverges with [`walshcheck_dd::budget::CapacityExceeded`] when the
    /// estimate alone exceeds the budget.
    fn begin_tuple(&mut self, combo: &[&Site]) {
        let Some(limit) = self.node_budget else {
            return;
        };
        let est = combo.iter().fold(0usize, |acc, s| {
            let rows = 1usize
                .checked_shl(s.funcs.len() as u32)
                .map_or(usize::MAX, |p| p - 1);
            acc.saturating_add(rows)
        });
        if est > limit {
            walshcheck_dd::budget::exceeded("tuple-estimate", est, limit);
        }
        self.adds.rebase_node_budget();
        self.t_bdds.rebase_node_budget();
    }

    /// Bounds arena growth over very long enumerations: the per-row ADDs
    /// and support BDDs are transient, so once the arenas grow past a
    /// threshold everything (including the cached T matrices and sign
    /// ADDs, which are cheap to rebuild) is dropped and re-created. Cached
    /// prefix ADD handles point into the old arena, so the ADD prefix
    /// cache is invalidated too (the spectrum prefix caches survive).
    fn maybe_collect(&mut self) {
        const NODE_LIMIT: usize = 4_000_000;
        if self.adds.arena_size() > NODE_LIMIT || self.t_bdds.arena_size() > NODE_LIMIT {
            (self.adds, self.t_bdds) =
                fresh_managers(self.adds.num_vars(), self.cache_budget, self.node_budget);
            self.t_cache.clear();
            self.sign_base.clear();
            self.add_prefix.clear();
            // The WHT memo is keyed by handles into the old `adds` arena.
            self.wht_memo.clear();
        }
    }

    /// Folds the prefix-cache counters into `stats` (at most one of the
    /// three caches is active for any engine kind; the others stay zero).
    fn fold_cache_stats(&self, stats: &mut CheckStats) {
        for s in [
            self.map_prefix.stats(),
            self.lil_prefix.stats(),
            self.add_prefix.stats(),
        ] {
            stats.cache_hits += s.hits;
            stats.cache_misses += s.misses;
            stats.cache_evictions += s.evictions;
            stats.cache_peak_bytes += s.peak_bytes;
        }
        for s in [self.walsh.stats(), self.wht_memo.stats()] {
            stats.dd_cache_hits += s.hits;
            stats.dd_cache_misses += s.misses;
            stats.dd_cache_evictions += s.evictions;
            stats.dd_cache_peak_bytes += s.peak_bytes as u64;
        }
    }

    fn t_matrix(&mut self, region: &Region, vm: &VarMap) -> Bdd {
        if let Some(&t) = self.t_cache.get(region) {
            return t;
        }
        let t = region.to_bdd(vm, &mut self.t_bdds);
        self.t_cache.insert(region.clone(), t);
        t
    }

    /// Checks one combination; returns a violating coordinate, the reason,
    /// and the leaking coefficient when a single row exhibits it. `idxs`
    /// are the combination's global site indices — the prefix-cache keys.
    #[allow(clippy::too_many_arguments)]
    fn check_combination(
        &mut self,
        bdds: &BddManager,
        vm: &VarMap,
        combo: &[&Site],
        idxs: &[usize],
        region: &Region,
        mode: CheckMode,
        stats: &mut CheckStats,
    ) -> Option<(Mask, String, Option<Dyadic>)> {
        match (self.kind, mode) {
            (EngineKind::Lil, _) => {
                self.scan_check::<LilSpectrum>(bdds, vm, combo, idxs, region, mode, stats)
            }
            (EngineKind::Map, _) => {
                self.scan_check::<MapSpectrum>(bdds, vm, combo, idxs, region, mode, stats)
            }
            (EngineKind::Mapi, CheckMode::RowWise) => {
                self.mapi_rowwise(bdds, vm, combo, idxs, region, stats)
            }
            // MAPI joint: the union-support accumulation is a map scan (the
            // ADD only accelerates the per-row region product).
            (EngineKind::Mapi, CheckMode::Joint) => {
                self.scan_check::<MapSpectrum>(bdds, vm, combo, idxs, region, mode, stats)
            }
            (EngineKind::Fujita, _) => {
                self.fujita_check(bdds, vm, combo, idxs, region, mode, stats)
            }
        }
    }

    // ---- scan engines (LIL / MAP) ----

    #[allow(clippy::too_many_arguments)]
    fn scan_check<S: Spectrum + SpectrumBase>(
        &mut self,
        bdds: &BddManager,
        vm: &VarMap,
        combo: &[&Site],
        idxs: &[usize],
        region: &Region,
        mode: CheckMode,
        stats: &mut CheckStats,
    ) -> Option<(Mask, String, Option<Dyadic>)> {
        let joint = mode == CheckMode::Joint;
        let plan = self.row_plan::<S>(bdds, combo, idxs, joint, stats);
        let dense_cut = self.dense_cut;
        match mode {
            CheckMode::RowWise => {
                let mut hit = None;
                let _ = drive_rows(&plan, false, dense_cut, stats, &mut |spec, stats| {
                    stats.rows_checked += 1;
                    let t = Instant::now();
                    let found = spec.find(&|m, _| region.matches(vm, m));
                    stats.verification_time += t.elapsed();
                    if let Some((m, c)) = found {
                        hit = Some((m, c));
                        return ControlFlow::Break(());
                    }
                    ControlFlow::Continue(())
                });
                hit.map(|(m, c)| (m, rowwise_reason(region, vm, m), Some(c)))
            }
            CheckMode::Joint => {
                let mut union = Mask::ZERO;
                let _ = drive_rows(&plan, true, dense_cut, stats, &mut |spec, stats| {
                    stats.rows_checked += 1;
                    let t = Instant::now();
                    union = union | spec.support_union(&|m| vm.rho_is_zero(m));
                    stats.verification_time += t.elapsed();
                    ControlFlow::Continue(())
                });
                joint_verdict(region, vm, union).map(|(m, r)| (m, r, None))
            }
        }
    }

    /// Decides how this combination's rows will be produced and computes
    /// the shared pieces: with the cache enabled, per-site groups and the
    /// proper prefix's accumulated rows come from the prefix cache; with it
    /// disabled (or when materializing the prefix would be too large), the
    /// per-site groups feed the streaming DFS of [`product_rows`].
    fn row_plan<S: Spectrum + SpectrumBase>(
        &mut self,
        bdds: &BddManager,
        combo: &[&Site],
        idxs: &[usize],
        joint: bool,
        stats: &mut CheckStats,
    ) -> RowPlan<S> {
        if self.cache_budget == 0 {
            return RowPlan::Dfs(self.subset_spectra::<S>(bdds, combo, stats));
        }
        let groups: Vec<Rc<RowList<S>>> = combo
            .iter()
            .zip(idxs)
            .map(|(site, &i)| self.site_rows::<S>(bdds, site, i, stats))
            .collect();
        let k = groups.len();
        let rows_estimate = groups[..k - 1]
            .iter()
            .map(|g| g.len() + joint as usize)
            .fold(1usize, usize::saturating_mul);
        if rows_estimate > MAX_PREFIX_ROWS {
            let plain = groups
                .iter()
                .map(|g| g.iter().flatten().cloned().collect())
                .collect();
            return RowPlan::Dfs(plain);
        }
        let prefix = if k == 1 {
            Rc::new(vec![None])
        } else {
            self.prefix_rows::<S>(&idxs[..k - 1], &groups[..k - 1], joint, stats)
        };
        RowPlan::Prefix(prefix, Rc::clone(&groups[k - 1]))
    }

    /// The per-site row group — spectra of every non-empty subset of the
    /// site's observed functions (a single element in the standard model) —
    /// cached at key `([i], row-wise)`, which doubles as the depth-1
    /// row-wise prefix entry (the values coincide).
    fn site_rows<S: Spectrum + SpectrumBase>(
        &mut self,
        bdds: &BddManager,
        site: &Site,
        idx: usize,
        stats: &mut CheckStats,
    ) -> Rc<RowList<S>> {
        if let Some(rows) = S::prefix_cache(self).get(&[idx], false) {
            return rows;
        }
        let rows = Rc::new(self.one_site_rows::<S>(bdds, site, stats));
        let bytes = row_list_bytes(&rows);
        S::prefix_cache(self).insert(&[idx], false, Rc::clone(&rows), bytes);
        rows
    }

    /// Computes one site's subset spectra (no cache interaction).
    fn one_site_rows<S: Spectrum + SpectrumBase>(
        &mut self,
        bdds: &BddManager,
        site: &Site,
        stats: &mut CheckStats,
    ) -> RowList<S> {
        let mut out: RowList<S> = Vec::with_capacity((1 << site.funcs.len()) - 1);
        // Enumerate non-empty subsets; reuse smaller subsets'
        // results: subset m = (m without lowest bit) ⊛ base(lowest).
        for m in 1usize..1 << site.funcs.len() {
            let low = m.trailing_zeros() as usize;
            let rest = m & (m - 1);
            let base = S::base(self, bdds, site.funcs[low], stats);
            let spec = if rest == 0 {
                base
            } else {
                let prev = out[rest - 1].as_ref().expect("site rows are all present");
                let t = Instant::now();
                let conv = prev.convolve_opt(&base, self.dense_cut);
                stats.convolution_time += t.elapsed();
                stats.convolutions += 1;
                Rc::new(conv)
            };
            out.push(Some(spec));
        }
        out
    }

    /// Accumulated partial rows of the proper prefix `idxs` (site-index
    /// slice of length ≥ 1), in DFS leaf order. Probes the cache from the
    /// deepest level down, then extends one level at a time, caching every
    /// intermediate so sibling tuples and deeper prefixes reuse it.
    fn prefix_rows<S: Spectrum + SpectrumBase>(
        &mut self,
        idxs: &[usize],
        groups: &[Rc<RowList<S>>],
        joint: bool,
        stats: &mut CheckStats,
    ) -> Rc<RowList<S>> {
        let depth = idxs.len();
        // Depth-1 row-wise rows are the site group itself (same cache key
        // `([i], false)` that `site_rows` maintains), so the descent stops
        // at level 1 without a second probe there.
        let (mut level, mut rows) = if joint {
            (0, Rc::new(vec![None]))
        } else {
            (1, Rc::clone(&groups[0]))
        };
        for j in ((level + 1)..=depth).rev() {
            if let Some(r) = S::prefix_cache(self).get(&idxs[..j], joint) {
                rows = r;
                level = j;
                break;
            }
        }
        while level < depth {
            let next = Rc::new(extend_rows(
                &rows,
                &groups[level],
                joint,
                self.dense_cut,
                stats,
            ));
            level += 1;
            let bytes = row_list_bytes(&next);
            S::prefix_cache(self).insert(&idxs[..level], joint, Rc::clone(&next), bytes);
            rows = next;
        }
        rows
    }

    /// Per-site spectra of every non-empty subset of the site's observed
    /// functions, computed fresh for this combination (the cache-off path:
    /// exactly the pre-PR-2 cost model).
    fn subset_spectra<S: Spectrum + SpectrumBase>(
        &mut self,
        bdds: &BddManager,
        combo: &[&Site],
        stats: &mut CheckStats,
    ) -> Vec<Vec<Rc<S>>> {
        combo
            .iter()
            .map(|site| {
                self.one_site_rows::<S>(bdds, site, stats)
                    .into_iter()
                    .flatten()
                    .collect()
            })
            .collect()
    }

    // ---- MAPI: map convolution, ADD verification ----

    fn mapi_rowwise(
        &mut self,
        bdds: &BddManager,
        vm: &VarMap,
        combo: &[&Site],
        idxs: &[usize],
        region: &Region,
        stats: &mut CheckStats,
    ) -> Option<(Mask, String, Option<Dyadic>)> {
        let plan = self.row_plan::<MapSpectrum>(bdds, combo, idxs, false, stats);
        let mut hit = None;
        let t_bdds = &mut self.t_bdds;
        let t_cache = &mut self.t_cache;
        // Interning-free screening: the existential query ∃α. T(α,ρ) ∧
        // W(α,ρ) ≠ 0 is first resolved by a direct mask scan of the key
        // set — the same `region.matches` predicate the T-matrix BDD was
        // built from — without creating a single node. It must not run
        // under a node budget (skipping the interning would move
        // quarantine points), and clean rows (the overwhelming majority on
        // secure gadgets) return straight from it; only a hit falls
        // through to the exact build-and-intersect below, whose witness —
        // `one_sat` over the BDD product — is byte-identical to an
        // unscreened run's.
        let screen_rows = self.node_budget.is_none();
        // The T-matrix BDD is only consulted past the screen, so its
        // construction is deferred to the first screen hit: secure gadgets
        // (every shipped benchmark) never pay for it. With the screen off
        // the old eager build is kept — every row intersects against it.
        let mut t_matrix = if screen_rows {
            None
        } else {
            Some(match t_cache.get(region) {
                Some(&t) => t,
                None => {
                    let t = region.to_bdd(vm, t_bdds);
                    t_cache.insert(region.clone(), t);
                    t
                }
            })
        };
        let dense_cut = self.dense_cut;
        let mut keys: Vec<u128> = Vec::new();
        let _ = drive_rows(&plan, false, dense_cut, stats, &mut |spec, stats| {
            stats.rows_checked += 1;
            let t = Instant::now();
            if screen_rows
                && !spec
                    .entries()
                    .iter()
                    .any(|(&k, c)| !c.is_zero() && region.matches(vm, Mask(k)))
            {
                stats.verification_time += t.elapsed();
                return ControlFlow::Continue(());
            }
            // The spectrum's non-zero support becomes a BDD straight from
            // the map keys (no intermediate ADD — the witness coefficient
            // comes back out of the map).
            keys.clear();
            keys.extend(
                spec.entries()
                    .iter()
                    .filter(|(_, c)| !c.is_zero())
                    .map(|(&k, _)| k),
            );
            let t_matrix = *t_matrix.get_or_insert_with(|| match t_cache.get(region) {
                Some(&t) => t,
                None => {
                    let t = region.to_bdd(vm, t_bdds);
                    t_cache.insert(region.clone(), t);
                    t
                }
            });
            let nonzero = t_bdds.from_keys(&mut keys);
            let product = t_bdds.and(nonzero, t_matrix);
            stats.verification_time += t.elapsed();
            if product != Bdd::FALSE {
                let alpha = t_bdds.one_sat(product).expect("satisfiable product");
                let coeff = *spec
                    .entries()
                    .get(&alpha)
                    .expect("witness coordinate is in the support");
                hit = Some((Mask(alpha), coeff));
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        hit.map(|(m, c)| (m, rowwise_reason(region, vm, m), Some(c)))
    }

    // ---- FUJITA: full ADD pipeline ----

    #[allow(clippy::too_many_arguments)]
    fn fujita_check(
        &mut self,
        bdds: &BddManager,
        vm: &VarMap,
        combo: &[&Site],
        idxs: &[usize],
        region: &Region,
        mode: CheckMode,
        stats: &mut CheckStats,
    ) -> Option<(Mask, String, Option<Dyadic>)> {
        let joint = mode == CheckMode::Joint;
        let plan = self.sign_plan(bdds, combo, idxs, joint, stats);
        let t_matrix = self.t_matrix(region, vm);
        let adds = &mut self.adds;
        let t_bdds = &mut self.t_bdds;
        let wht_memo = &mut self.wht_memo;

        match mode {
            CheckMode::RowWise => {
                let mut hit = None;
                let _ = drive_signs(adds, &plan, false, stats, &mut |adds, sign, stats| {
                    stats.rows_checked += 1;
                    let t = Instant::now();
                    let spec = wht_with(adds, sign, wht_memo);
                    stats.convolution_time += t.elapsed();
                    stats.convolutions += 1;
                    let t = Instant::now();
                    let nonzero = adds.nonzero_bdd(t_bdds, spec);
                    let product = t_bdds.and(nonzero, t_matrix);
                    stats.verification_time += t.elapsed();
                    if product != Bdd::FALSE {
                        let alpha = t_bdds.one_sat(product).expect("satisfiable product");
                        hit = Some((Mask(alpha), *adds.eval(spec, alpha)));
                        return ControlFlow::Break(());
                    }
                    ControlFlow::Continue(())
                });
                hit.map(|(m, c)| (m, rowwise_reason(region, vm, m), Some(c)))
            }
            CheckMode::Joint => {
                let mut union = Mask::ZERO;
                let randoms = vm.random_vars();
                let _ = drive_signs(adds, &plan, true, stats, &mut |adds, sign, stats| {
                    stats.rows_checked += 1;
                    let t = Instant::now();
                    let spec = wht_with(adds, sign, wht_memo);
                    stats.convolution_time += t.elapsed();
                    stats.convolutions += 1;
                    let t = Instant::now();
                    let nonzero = adds.nonzero_bdd(t_bdds, spec);
                    union = union | add_support_union(t_bdds, nonzero, &randoms);
                    stats.verification_time += t.elapsed();
                    ControlFlow::Continue(())
                });
                joint_verdict(region, vm, union).map(|(m, r)| (m, r, None))
            }
        }
    }

    /// FUJITA's [`RowPlan`]: sign-ADD groups per site, with the proper
    /// prefix's accumulated sign products cached like the spectrum paths
    /// (ADD handles are cheap to store; the nodes live in the context's ADD
    /// arena, whose growth [`EngineCtx::maybe_collect`] bounds separately).
    fn sign_plan(
        &mut self,
        bdds: &BddManager,
        combo: &[&Site],
        idxs: &[usize],
        joint: bool,
        stats: &mut CheckStats,
    ) -> SignPlan {
        if self.cache_budget == 0 {
            let groups = combo
                .iter()
                .map(|site| self.one_site_signs(bdds, site, stats))
                .collect();
            return SignPlan::Dfs(groups);
        }
        let groups: Vec<Rc<Vec<Option<Add>>>> = combo
            .iter()
            .zip(idxs)
            .map(|(site, &i)| self.site_signs(bdds, site, i, stats))
            .collect();
        let k = groups.len();
        let rows_estimate = groups[..k - 1]
            .iter()
            .map(|g| g.len() + joint as usize)
            .fold(1usize, usize::saturating_mul);
        if rows_estimate > MAX_PREFIX_ROWS {
            let plain = groups
                .iter()
                .map(|g| g.iter().flatten().copied().collect())
                .collect();
            return SignPlan::Dfs(plain);
        }
        let prefix = if k == 1 {
            Rc::new(vec![None])
        } else {
            self.prefix_signs(&idxs[..k - 1], &groups[..k - 1], joint, stats)
        };
        SignPlan::Prefix(prefix, Rc::clone(&groups[k - 1]))
    }

    /// Cached per-site sign-ADD group (key `([i], row-wise)` in the ADD
    /// prefix cache, mirroring [`EngineCtx::site_rows`]).
    fn site_signs(
        &mut self,
        bdds: &BddManager,
        site: &Site,
        idx: usize,
        stats: &mut CheckStats,
    ) -> Rc<Vec<Option<Add>>> {
        if let Some(rows) = self.add_prefix.get(&[idx], false) {
            return rows;
        }
        let rows: Rc<Vec<Option<Add>>> = Rc::new(
            self.one_site_signs(bdds, site, stats)
                .into_iter()
                .map(Some)
                .collect(),
        );
        let bytes = rows.len() * 8 + 32;
        self.add_prefix
            .insert(&[idx], false, Rc::clone(&rows), bytes);
        rows
    }

    /// Sign-ADD products of every non-empty subset of one site's observed
    /// functions (no cache interaction).
    fn one_site_signs(
        &mut self,
        bdds: &BddManager,
        site: &Site,
        stats: &mut CheckStats,
    ) -> Vec<Add> {
        let mut out: Vec<Add> = Vec::with_capacity((1 << site.funcs.len()) - 1);
        for m in 1usize..1 << site.funcs.len() {
            let low = m.trailing_zeros() as usize;
            let rest = m & (m - 1);
            let base = self.sign(bdds, site.funcs[low], stats);
            let prod = if rest == 0 {
                base
            } else {
                let prev = out[rest - 1];
                let t = Instant::now();
                let p = self.adds.mul_op(prev, base);
                stats.convolution_time += t.elapsed();
                p
            };
            out.push(prod);
        }
        out
    }

    /// Accumulated sign products of the proper prefix `idxs`, analogous to
    /// [`EngineCtx::prefix_rows`]. `None` is the not-yet-multiplied path
    /// (the unit constant without materializing it; multiplying by the unit
    /// would return the identical hash-consed handle anyway).
    fn prefix_signs(
        &mut self,
        idxs: &[usize],
        groups: &[Rc<Vec<Option<Add>>>],
        joint: bool,
        stats: &mut CheckStats,
    ) -> Rc<Vec<Option<Add>>> {
        let depth = idxs.len();
        let (mut level, mut rows) = if joint {
            (0, Rc::new(vec![None]))
        } else {
            (1, Rc::clone(&groups[0]))
        };
        for j in ((level + 1)..=depth).rev() {
            if let Some(r) = self.add_prefix.get(&idxs[..j], joint) {
                rows = r;
                level = j;
                break;
            }
        }
        while level < depth {
            let group = Rc::clone(&groups[level]);
            let mut next: Vec<Option<Add>> =
                Vec::with_capacity(rows.len() * (group.len() + joint as usize));
            for &r in rows.iter() {
                if joint {
                    next.push(r);
                }
                for &c in group.iter().flatten() {
                    match r {
                        None => next.push(Some(c)),
                        Some(prev) => {
                            let t = Instant::now();
                            let p = self.adds.mul_op(prev, c);
                            stats.convolution_time += t.elapsed();
                            next.push(Some(p));
                        }
                    }
                }
            }
            let next = Rc::new(next);
            level += 1;
            let bytes = next.len() * 8 + 32;
            self.add_prefix
                .insert(&idxs[..level], joint, Rc::clone(&next), bytes);
            rows = next;
        }
        rows
    }

    fn sign(&mut self, bdds: &BddManager, f: Bdd, stats: &mut CheckStats) -> Add {
        if let Some(&s) = self.sign_base.get(&f) {
            return s;
        }
        let t = Instant::now();
        let s = sign_add(bdds, &mut self.adds, f);
        stats.convolution_time += t.elapsed();
        self.sign_base.insert(f, s);
        s
    }
}

/// Hook giving the generic scan path access to the right base-spectrum and
/// prefix caches of the context.
trait SpectrumBase: Sized {
    fn base(ctx: &mut EngineCtx, bdds: &BddManager, f: Bdd, stats: &mut CheckStats) -> Rc<Self>;
    fn prefix_cache(ctx: &mut EngineCtx) -> &mut PrefixCache<Rc<RowList<Self>>>;
}

impl SpectrumBase for MapSpectrum {
    fn base(ctx: &mut EngineCtx, bdds: &BddManager, f: Bdd, stats: &mut CheckStats) -> Rc<Self> {
        if let Some(s) = ctx.map_base.get(&f) {
            return Rc::clone(s);
        }
        let t = Instant::now();
        let sparse = walsh_sparse(bdds, f, &mut ctx.walsh);
        let s = Rc::new(MapSpectrum::from_map(&sparse));
        stats.convolution_time += t.elapsed();
        ctx.map_base.insert(f, Rc::clone(&s));
        s
    }

    fn prefix_cache(ctx: &mut EngineCtx) -> &mut PrefixCache<Rc<RowList<Self>>> {
        &mut ctx.map_prefix
    }
}

impl SpectrumBase for LilSpectrum {
    fn base(ctx: &mut EngineCtx, bdds: &BddManager, f: Bdd, stats: &mut CheckStats) -> Rc<Self> {
        if let Some(s) = ctx.lil_base.get(&f) {
            return Rc::clone(s);
        }
        let t = Instant::now();
        let sparse = walsh_sparse(bdds, f, &mut ctx.walsh);
        let s = Rc::new(LilSpectrum::from_map(&sparse));
        stats.convolution_time += t.elapsed();
        ctx.lil_base.insert(f, Rc::clone(&s));
        s
    }

    fn prefix_cache(ctx: &mut EngineCtx) -> &mut PrefixCache<Rc<RowList<Self>>> {
        &mut ctx.lil_prefix
    }
}

/// Extends the accumulated prefix rows by one site's group, preserving the
/// DFS leaf order (rows outer, choices inner; joint mode's empty choice
/// first). The convolution association is the same left-to-right chain the
/// DFS computes, so the resulting spectra are identical, not just
/// equivalent.
fn extend_rows<S: Spectrum>(
    rows: &RowList<S>,
    group: &RowList<S>,
    joint: bool,
    dense_cut: u32,
    stats: &mut CheckStats,
) -> RowList<S> {
    let mut out: RowList<S> = Vec::with_capacity(rows.len() * (group.len() + joint as usize));
    for r in rows {
        if joint {
            out.push(r.clone());
        }
        for c in group.iter().flatten() {
            match r {
                None => out.push(Some(Rc::clone(c))),
                Some(prev) => {
                    let t = Instant::now();
                    let conv = prev.convolve_opt(c, dense_cut);
                    stats.convolution_time += t.elapsed();
                    stats.convolutions += 1;
                    out.push(Some(Rc::new(conv)));
                }
            }
        }
    }
    out
}

/// Drives `leaf` over every correlation row of a [`RowPlan`], in the same
/// leaf order either way (the deterministic-witness guarantee depends on
/// it; see DESIGN.md §9).
fn drive_rows<S: Spectrum>(
    plan: &RowPlan<S>,
    joint: bool,
    dense_cut: u32,
    stats: &mut CheckStats,
    leaf: &mut dyn FnMut(&S, &mut CheckStats) -> ControlFlow<()>,
) -> ControlFlow<()> {
    match plan {
        RowPlan::Dfs(groups) => product_rows(groups, joint, dense_cut, stats, leaf),
        RowPlan::Prefix(rows, group) => stream_rows(rows, group, joint, dense_cut, stats, leaf),
    }
}

/// Streams the last convolution level: every prefix row times every choice
/// of the final site (plus, in joint mode, the prefix row itself for the
/// final site's empty choice). The all-empty path (`None` row, empty last
/// choice) is skipped exactly as [`product_rows`] skips its `None`
/// accumulator.
fn stream_rows<S: Spectrum>(
    rows: &RowList<S>,
    group: &RowList<S>,
    joint: bool,
    dense_cut: u32,
    stats: &mut CheckStats,
    leaf: &mut dyn FnMut(&S, &mut CheckStats) -> ControlFlow<()>,
) -> ControlFlow<()> {
    for r in rows {
        if joint {
            if let Some(spec) = r {
                leaf(spec, stats)?;
            }
        }
        for c in group.iter().flatten() {
            match r {
                None => leaf(c, stats)?,
                Some(prev) => {
                    let t = Instant::now();
                    let conv = prev.convolve_opt(c, dense_cut);
                    stats.convolution_time += t.elapsed();
                    stats.convolutions += 1;
                    leaf(&conv, stats)?;
                }
            }
        }
    }
    ControlFlow::Continue(())
}

/// [`drive_rows`] for the FUJITA sign-ADD pipeline.
fn drive_signs(
    adds: &mut AddManager<Dyadic>,
    plan: &SignPlan,
    joint: bool,
    stats: &mut CheckStats,
    leaf: &mut SignLeaf<'_>,
) -> ControlFlow<()> {
    match plan {
        SignPlan::Dfs(groups) => {
            let unit = adds.constant(Dyadic::ONE);
            product_signs(adds, groups, joint, unit, stats, leaf)
        }
        SignPlan::Prefix(rows, group) => stream_signs(adds, rows, group, joint, stats, leaf),
    }
}

/// Sign-ADD analogue of [`stream_rows`]. A `None` row times a choice is the
/// choice itself — multiplying by the unit constant would return the same
/// hash-consed handle, so skipping it changes nothing but the cost.
fn stream_signs(
    adds: &mut AddManager<Dyadic>,
    rows: &[Option<Add>],
    group: &[Option<Add>],
    joint: bool,
    stats: &mut CheckStats,
    leaf: &mut SignLeaf<'_>,
) -> ControlFlow<()> {
    for &r in rows {
        if joint {
            if let Some(sign) = r {
                leaf(adds, sign, stats)?;
            }
        }
        for &c in group.iter().flatten() {
            match r {
                None => leaf(adds, c, stats)?,
                Some(prev) => {
                    let t = Instant::now();
                    let prod = adds.mul_op(prev, c);
                    stats.convolution_time += t.elapsed();
                    leaf(adds, prod, stats)?;
                }
            }
        }
    }
    ControlFlow::Continue(())
}

/// Walks the cartesian product of per-site row choices, convolving along the
/// path. With `include_empty`, each site may also contribute nothing (used
/// by joint mode to reach every ω), except the all-empty row.
fn product_rows<S: Spectrum>(
    groups: &[Vec<Rc<S>>],
    include_empty: bool,
    dense_cut: u32,
    stats: &mut CheckStats,
    leaf: &mut dyn FnMut(&S, &mut CheckStats) -> ControlFlow<()>,
) -> ControlFlow<()> {
    fn rec<S: Spectrum>(
        groups: &[Vec<Rc<S>>],
        idx: usize,
        acc: Option<&S>,
        include_empty: bool,
        dense_cut: u32,
        stats: &mut CheckStats,
        leaf: &mut dyn FnMut(&S, &mut CheckStats) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if idx == groups.len() {
            return match acc {
                Some(spec) => leaf(spec, stats),
                None => ControlFlow::Continue(()),
            };
        }
        if include_empty {
            rec(groups, idx + 1, acc, include_empty, dense_cut, stats, leaf)?;
        }
        for choice in &groups[idx] {
            match acc {
                None => rec(
                    groups,
                    idx + 1,
                    Some(choice),
                    include_empty,
                    dense_cut,
                    stats,
                    leaf,
                )?,
                Some(prev) => {
                    let t = Instant::now();
                    let conv = prev.convolve_opt(choice, dense_cut);
                    stats.convolution_time += t.elapsed();
                    stats.convolutions += 1;
                    rec(
                        groups,
                        idx + 1,
                        Some(&conv),
                        include_empty,
                        dense_cut,
                        stats,
                        leaf,
                    )?;
                }
            }
        }
        ControlFlow::Continue(())
    }
    rec(groups, 0, None, include_empty, dense_cut, stats, leaf)
}

/// Leaf callback of [`product_signs`]: receives the manager, the
/// accumulated sign-ADD product, and the stats counters.
type SignLeaf<'a> =
    dyn FnMut(&mut AddManager<Dyadic>, Add, &mut CheckStats) -> ControlFlow<()> + 'a;

/// ADD analogue of [`product_rows`] for the FUJITA engine: multiplies sign
/// ADDs along the product walk.
fn product_signs(
    adds: &mut AddManager<Dyadic>,
    groups: &[Vec<Add>],
    include_empty: bool,
    unit: Add,
    stats: &mut CheckStats,
    leaf: &mut SignLeaf<'_>,
) -> ControlFlow<()> {
    #[allow(clippy::too_many_arguments)]
    fn rec(
        adds: &mut AddManager<Dyadic>,
        groups: &[Vec<Add>],
        idx: usize,
        acc: Add,
        any: bool,
        include_empty: bool,
        stats: &mut CheckStats,
        leaf: &mut SignLeaf<'_>,
    ) -> ControlFlow<()> {
        if idx == groups.len() {
            if any {
                return leaf(adds, acc, stats);
            }
            return ControlFlow::Continue(());
        }
        if include_empty {
            rec(adds, groups, idx + 1, acc, any, include_empty, stats, leaf)?;
        }
        for i in 0..groups[idx].len() {
            let choice = groups[idx][i];
            let t = Instant::now();
            let prod = adds.mul_op(acc, choice);
            stats.convolution_time += t.elapsed();
            rec(
                adds,
                groups,
                idx + 1,
                prod,
                true,
                include_empty,
                stats,
                leaf,
            )?;
        }
        ControlFlow::Continue(())
    }
    rec(adds, groups, 0, unit, false, include_empty, stats, leaf)
}

/// Union of coordinates of a non-zero-support BDD after forcing `ρ = 0`:
/// variable `v` is in the union iff some surviving coordinate selects it.
fn add_support_union(bdds: &mut BddManager, nonzero: Bdd, randoms: &VarSet) -> Mask {
    let mut s0 = nonzero;
    for v in randoms.iter() {
        s0 = bdds.restrict(s0, v, false);
    }
    if s0 == Bdd::FALSE {
        return Mask::ZERO;
    }
    let mut acc = Mask::ZERO;
    let num_vars = bdds.num_vars();
    let support = bdds.support(s0);
    for v in 0..num_vars {
        let var = VarId(v);
        if randoms.contains(var) {
            continue;
        }
        if !support.contains(var) {
            // s0 is independent of v and non-empty: entries with v = 1 exist.
            acc.0 |= 1 << v;
            continue;
        }
        let lit = bdds.var(var);
        if bdds.and(s0, lit) != Bdd::FALSE {
            acc.0 |= 1 << v;
        }
    }
    acc
}

fn rowwise_reason(region: &Region, vm: &VarMap, mask: Mask) -> String {
    match *region {
        Region::Probing => {
            format!("non-zero correlation with raw secret(s) at α={mask} (full share groups, ρ=0)")
        }
        Region::ShareBudget { budget } => {
            let worst = vm
                .share_groups
                .iter()
                .map(|&g| mask.weight_in(g))
                .max()
                .unwrap_or(0);
            format!(
                "coefficient at α={mask} selects {worst} shares of one secret (budget {budget})"
            )
        }
        Region::PiniBudget {
            allowed_indices,
            extra,
        } => {
            let outside = (vm.share_indices(mask) & !allowed_indices).count_ones();
            format!(
                "coefficient at α={mask} uses {outside} non-output share indices (budget {extra})"
            )
        }
    }
}

fn joint_verdict(region: &Region, vm: &VarMap, union: Mask) -> Option<(Mask, String)> {
    match *region {
        Region::ShareBudget { budget } => {
            for (i, &g) in vm.share_groups.iter().enumerate() {
                let w = union.weight_in(g);
                if w > budget {
                    return Some((
                        union,
                        format!("simulation set needs {w} shares of secret #{i} (budget {budget})"),
                    ));
                }
            }
            None
        }
        Region::PiniBudget {
            allowed_indices,
            extra,
        } => {
            let outside = (vm.share_indices(union) & !allowed_indices).count_ones();
            (outside > extra).then(|| {
                (
                    union,
                    format!(
                        "simulation set needs {outside} non-output share indices (budget {extra})"
                    ),
                )
            })
        }
        Region::Probing => unreachable!("probing is checked row-wise"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combination_enumeration_is_exhaustive() {
        let mut seen = Vec::new();
        let _ = for_each_combination(5, 3, &mut |c| {
            seen.push(c.to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(seen.len(), 10);
        assert_eq!(seen[0], vec![0, 1, 2]);
        assert_eq!(seen[9], vec![2, 3, 4]);
        // Early break stops enumeration.
        let mut count = 0;
        let flow = for_each_combination(5, 2, &mut |_| {
            count += 1;
            if count == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(flow.is_break());
        assert_eq!(count, 3);
    }

    #[test]
    fn degenerate_combinations() {
        let mut n = 0;
        let _ = for_each_combination(3, 0, &mut |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(n, 0);
        let _ = for_each_combination(2, 5, &mut |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(n, 0);
        let _ = for_each_combination(3, 3, &mut |c| {
            assert_eq!(c, [0, 1, 2]);
            n += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn engine_kind_display() {
        assert_eq!(EngineKind::Lil.to_string(), "LIL");
        assert_eq!(EngineKind::Mapi.to_string(), "MAPI");
        assert_eq!(EngineKind::default(), EngineKind::Mapi);
    }
}
