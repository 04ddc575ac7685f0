//! The exact spectral verifier and its four engine backends.
//!
//! A run enumerates all combinations of up to `d` observations (output
//! shares and internal probes), computes the Walsh correlation rows of each
//! combination, and tests them against the property's forbidden region. A
//! row is a product of one factor per observed function, so one row
//! pipeline serves all engines; the four [`EngineKind`] backends differ in
//! the factor and the test, reproducing the implementation alternatives
//! compared in the paper's evaluation:
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

use std::borrow::Borrow;
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
use crate::property::{CheckMode, CheckStats, Property, SkippedCombination, Witness};
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
/// order: every check keeps the order of the circuit's input declaration,
/// over which the spectral coordinates are masks.
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
    /// (recorded in [`Verdict::skipped`](crate::Verdict::skipped)) instead of
    /// blowing up memory, and the outcome degrades to
    /// [`Outcome::Inconclusive`](crate::Outcome::Inconclusive).
    pub node_budget: Option<usize>,
    /// Byte budget of each worker's prefix cache, which reuses partial
    /// convolution products across tuples that share an enumeration prefix
    /// (least-recently-used eviction above it; see DESIGN.md §9). The same
    /// budget separately bounds the running engine's spectral memo and
    /// sizes FUJITA's ADD apply caches. `0` disables prefix caching and
    /// leaves the memo unbounded. Purely a time/memory trade: verdicts and
    /// witnesses are identical at any budget.
    pub cache_budget: usize,
}

/// Default per-worker prefix-cache budget (64 MiB).
pub const DEFAULT_CACHE_BUDGET: usize = 64 << 20;

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
            cache_budget: DEFAULT_CACHE_BUDGET,
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
            cache_budget: DEFAULT_CACHE_BUDGET,
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

    /// Byte budget of each worker's prefix cache (see
    /// [`VerifyOptions::cache_budget`]; `0` disables prefix caching).
    pub fn cache_budget(mut self, bytes: usize) -> Self {
        self.options.cache_budget = bytes;
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
    /// exactly like a `check` run, and walks combinations in the
    /// scheduler's global order, so quarantine indices agree with a sweep's.
    pub(crate) fn find_witnesses_full(
        &mut self,
        property: Property,
        options: &VerifyOptions,
        limit: usize,
    ) -> (Vec<Witness>, Vec<SkippedCombination>, CheckStats) {
        crate::isolate::install_quiet_hook();
        let start = Instant::now();
        let mut state = self.begin_enumeration(property, options);
        let mut stats = CheckStats::default();
        let mut found = Vec::new();
        let mut skipped = Vec::new();

        let n = state.sites.len();
        let sizes = crate::scheduler::bucket_sizes(property, options, n);
        let mut index: u64 = 0;
        'sizes: for k in sizes {
            let mut idxs: Vec<usize> = (0..k).collect();
            loop {
                stats.combinations += 1;
                if stats.combinations % 256 == 1 {
                    if crate::shutdown::requested() {
                        stats.interrupted = true;
                        break 'sizes;
                    }
                    state.maybe_collect();
                }
                // The wall-clock budget is checked on every combination (a
                // clock read is negligible next to any convolution).
                if let Some(limit) = options.time_limit {
                    if start.elapsed() > limit {
                        stats.timed_out = true;
                        break 'sizes;
                    }
                }
                match crate::isolate::check_isolated(
                    self, &mut state, property, options, index, &idxs, &mut stats,
                ) {
                    Ok(ComboStep::Clean | ComboStep::Pruned) => {}
                    Ok(ComboStep::Violation(w)) => {
                        found.push(w);
                        if found.len() >= limit {
                            break 'sizes;
                        }
                    }
                    Err(reason) => skipped.push(SkippedCombination {
                        index,
                        combination: idxs.iter().map(|&i| state.sites[i].probe.clone()).collect(),
                        reason,
                    }),
                }
                index += 1;
                if !crate::scheduler::next_combination(&mut idxs, n) {
                    break;
                }
            }
        }

        state.finish(&mut stats);
        self.end_enumeration();
        stats.total_time = start.elapsed();
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
            options.cache_budget,
            options.node_budget,
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
        self.witness_of(property, options, &sites, &idxs)
    }

    /// Checks the one combination `idxs` (indices into `sites`) with the
    /// node budget and the prefilter off ([`Verifier::check_fresh`]), and
    /// returns its witness; `None` if it does not violate. The combination
    /// already completed, was rescued as a violation or was chosen by the
    /// caller, so a capacity concession must not quarantine it again.
    pub(crate) fn witness_of(
        &self,
        property: Property,
        options: &VerifyOptions,
        sites: &[Site],
        idxs: &[usize],
    ) -> Option<Witness> {
        let mut opts = options.clone();
        opts.node_budget = None;
        match self.check_fresh(property, &opts, sites, idxs, &mut CheckStats::default()) {
            ComboStep::Violation(w) => Some(w),
            ComboStep::Clean | ComboStep::Pruned => None,
        }
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

/// A violating coordinate, the reason, and the leaking coefficient when a
/// single row exhibits it.
type Hit = (Mask, String, Option<Dyadic>);

/// Partial correlation rows of an enumeration prefix, in the DFS leaf order
/// of [`product_rows`]. `None` marks the path on which no site has
/// contributed a factor yet (joint mode's empty choices); it stands for the
/// unit row without materializing it.
type RowList<R> = Vec<Option<R>>;

/// Prefix row lists larger than this are not materialized (wide glitch
/// cones make the cartesian product of per-site choices explode); the
/// engine falls back to the streaming DFS, which needs O(depth) memory.
const MAX_PREFIX_ROWS: usize = 1 << 10;

/// The apply-cache slot limit derived from a prefix-cache byte budget
/// (`None` keeps the manager's default bound). The direct-mapped caches
/// cost 16 bytes per binary slot plus 12 bytes per unary slot at 1/16 the
/// slot count, so ~17 bytes buys one binary slot; the manager rounds the
/// limit down to a power of two, keeping the slab within the budget.
fn add_apply_limit(cache_budget: usize) -> Option<usize> {
    (cache_budget > 0).then(|| (cache_budget / 17).clamp(1 << 14, 1 << 22))
}

/// One engine's row algebra. A tuple's correlation rows are products of one
/// factor per observed function, so the row pipeline ([`Rows`]) needs only
/// a memoized factor per function and the product of two rows: Walsh
/// spectra multiplied by convolution (LIL, MAP, MAPI), or sign ADDs
/// multiplied pointwise and Walsh-transformed at the leaf (FUJITA).
trait Factors {
    /// A row as the verification leaf sees it.
    type Row;
    /// A row as site groups and cached prefix lists hold it.
    type Shared: Clone + Borrow<Self::Row>;
    /// The memoized factor of one observed function.
    fn base(&mut self, bdds: &BddManager, f: Bdd, stats: &mut CheckStats) -> Self::Shared;
    /// The product of two rows.
    fn mul(&mut self, a: &Self::Row, b: &Self::Row, stats: &mut CheckStats) -> Self::Row;
    /// Wraps a computed row for sharing.
    fn share(row: Self::Row) -> Self::Shared;
    /// Estimated heap bytes a shared row owns (prefix-cache accounting).
    fn bytes(row: &Self::Shared) -> usize;
}

/// Walsh spectra of the observed functions, multiplied by convolution
/// (LIL, MAP and MAPI).
struct Spectra<S> {
    base: FastMap<Bdd, Rc<S>>,
    walsh: SparseWalshCache,
}

impl<S: Spectrum> Factors for Spectra<S> {
    type Row = S;
    type Shared = Rc<S>;

    fn base(&mut self, bdds: &BddManager, f: Bdd, stats: &mut CheckStats) -> Rc<S> {
        if let Some(s) = self.base.get(&f) {
            return Rc::clone(s);
        }
        let t = Instant::now();
        let sparse = walsh_sparse(bdds, f, &mut self.walsh);
        let s = Rc::new(S::from_map(&sparse));
        stats.convolution_time += t.elapsed();
        self.base.insert(f, Rc::clone(&s));
        s
    }

    fn mul(&mut self, a: &S, b: &S, stats: &mut CheckStats) -> S {
        let t = Instant::now();
        let conv = a.convolve(b);
        stats.convolution_time += t.elapsed();
        stats.convolutions += 1;
        conv
    }

    fn share(row: S) -> Rc<S> {
        Rc::new(row)
    }

    fn bytes(row: &Rc<S>) -> usize {
        row.heap_bytes()
    }
}

/// Sign ADDs `(−1)^f` of the observed functions, multiplied pointwise
/// (FUJITA). Their products are not counted in `stats.convolutions`; the
/// leaf's Walsh transform is.
struct Signs {
    base: FastMap<Bdd, Add>,
    adds: AddManager<Dyadic>,
}

impl Signs {
    /// Fresh sign factors in a manager whose apply caches are sized from
    /// the cache byte budget (see [`add_apply_limit`]), under the
    /// per-combination node budget.
    fn new(num_vars: u32, cache_budget: usize, node_budget: Option<usize>) -> Self {
        let mut adds = AddManager::new(num_vars);
        if let Some(limit) = add_apply_limit(cache_budget) {
            adds.set_apply_cache_limit(limit);
        }
        adds.set_node_budget(node_budget);
        Signs {
            base: FastMap::default(),
            adds,
        }
    }
}

impl Factors for Signs {
    type Row = Add;
    type Shared = Add;

    fn base(&mut self, bdds: &BddManager, f: Bdd, stats: &mut CheckStats) -> Add {
        if let Some(&s) = self.base.get(&f) {
            return s;
        }
        let t = Instant::now();
        let s = sign_add(bdds, &mut self.adds, f);
        stats.convolution_time += t.elapsed();
        self.base.insert(f, s);
        s
    }

    fn mul(&mut self, &a: &Add, &b: &Add, stats: &mut CheckStats) -> Add {
        let t = Instant::now();
        let p = self.adds.mul_op(a, b);
        stats.convolution_time += t.elapsed();
        p
    }

    fn share(row: Add) -> Add {
        row
    }

    /// ADD handles are accounted as handles: their nodes live in the
    /// context's arena, whose growth [`EngineCtx::maybe_collect`] bounds.
    fn bytes(_: &Add) -> usize {
        0
    }
}

/// Estimated heap bytes of a cached row list (rows report their own
/// footprint; the `Option` slots add a word each).
fn row_list_bytes<F: Factors>(rows: &RowList<F::Shared>) -> usize {
    rows.iter().flatten().map(F::bytes).sum::<usize>() + rows.len() * 8 + 32
}

/// How one combination's correlation rows will be produced.
enum RowPlan<R> {
    /// Streaming DFS over the per-site groups (cache off, or the prefix
    /// row list would be too large to materialize).
    Dfs(Vec<Vec<R>>),
    /// Materialized rows of the proper prefix plus the last site's group;
    /// the last product level is streamed row by row.
    Prefix(Rc<RowList<R>>, Rc<RowList<R>>),
}

/// The row pipeline, written once for all four engines: an engine's
/// factors plus the worker's prefix cache of partial row lists (see
/// DESIGN.md §9).
struct Rows<F: Factors> {
    factors: F,
    prefix: PrefixCache<Rc<RowList<F::Shared>>>,
    /// Byte budget of `prefix`; `0` disables prefix caching (the engine
    /// then re-derives every tuple independently).
    cache_budget: usize,
}

impl<S: Spectrum> Rows<Spectra<S>> {
    fn spectra(cache_budget: usize) -> Self {
        let factors = Spectra {
            base: FastMap::default(),
            // The memo stays on with prefix caching disabled (cache_budget
            // 0 ⇒ unbounded); a configured budget bounds it too.
            walsh: SparseWalshCache::with_budget(cache_budget),
        };
        Rows::new(factors, cache_budget)
    }
}

impl<F: Factors> Rows<F> {
    fn new(factors: F, cache_budget: usize) -> Self {
        Rows {
            factors,
            prefix: PrefixCache::new(cache_budget),
            cache_budget,
        }
    }

    /// Decides how this combination's rows will be produced and computes
    /// the shared pieces: with the cache enabled, per-site groups and the
    /// proper prefix's accumulated rows come from the prefix cache; with it
    /// disabled (or when materializing the prefix would be too large), the
    /// per-site groups feed the streaming DFS of [`product_rows`].
    fn plan(
        &mut self,
        bdds: &BddManager,
        combo: &[&Site],
        idxs: &[usize],
        joint: bool,
        stats: &mut CheckStats,
    ) -> RowPlan<F::Shared> {
        if self.cache_budget == 0 {
            let groups = combo
                .iter()
                .map(|site| {
                    one_site_rows(&mut self.factors, bdds, site, stats)
                        .into_iter()
                        .flatten()
                        .collect()
                })
                .collect();
            return RowPlan::Dfs(groups);
        }
        let groups: Vec<Rc<RowList<F::Shared>>> = combo
            .iter()
            .zip(idxs)
            .map(|(site, &i)| self.site_rows(bdds, site, i, stats))
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
            self.prefix_rows(&idxs[..k - 1], &groups[..k - 1], joint, stats)
        };
        RowPlan::Prefix(prefix, Rc::clone(&groups[k - 1]))
    }

    /// The per-site row group, cached at key `([i], row-wise)`, which
    /// doubles as the depth-1 row-wise prefix entry (the values coincide).
    fn site_rows(
        &mut self,
        bdds: &BddManager,
        site: &Site,
        idx: usize,
        stats: &mut CheckStats,
    ) -> Rc<RowList<F::Shared>> {
        if let Some(rows) = self.prefix.get(&[idx], false) {
            return rows;
        }
        let rows = Rc::new(one_site_rows(&mut self.factors, bdds, site, stats));
        let bytes = row_list_bytes::<F>(&rows);
        self.prefix.insert(&[idx], false, Rc::clone(&rows), bytes);
        rows
    }

    /// Accumulated partial rows of the proper prefix `idxs` (site-index
    /// slice of length ≥ 1), in DFS leaf order. Probes the cache from the
    /// deepest level down, then extends one level at a time, caching every
    /// intermediate so sibling tuples and deeper prefixes reuse it.
    fn prefix_rows(
        &mut self,
        idxs: &[usize],
        groups: &[Rc<RowList<F::Shared>>],
        joint: bool,
        stats: &mut CheckStats,
    ) -> Rc<RowList<F::Shared>> {
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
            if let Some(r) = self.prefix.get(&idxs[..j], joint) {
                rows = r;
                level = j;
                break;
            }
        }
        while level < depth {
            let next = Rc::new(extend_rows(
                &mut self.factors,
                &rows,
                &groups[level],
                joint,
                stats,
            ));
            level += 1;
            let bytes = row_list_bytes::<F>(&next);
            self.prefix
                .insert(&idxs[..level], joint, Rc::clone(&next), bytes);
            rows = next;
        }
        rows
    }

    /// Drives `leaf` over every correlation row of a [`RowPlan`], in the
    /// same leaf order either way (the deterministic-witness guarantee
    /// depends on it; see DESIGN.md §9).
    fn drive(
        &mut self,
        plan: &RowPlan<F::Shared>,
        joint: bool,
        stats: &mut CheckStats,
        leaf: &mut Leaf<'_, F>,
    ) -> ControlFlow<()> {
        let f = &mut self.factors;
        match plan {
            RowPlan::Dfs(groups) => product_rows(f, groups, joint, stats, leaf),
            RowPlan::Prefix(rows, group) => stream_rows(f, rows, group, joint, stats, leaf),
        }
    }
}

/// One site's row group: the products of every non-empty subset of the
/// site's observed functions (a single factor in the standard model),
/// reusing smaller subsets: subset m = (m without lowest bit) × base(lowest).
fn one_site_rows<F: Factors>(
    f: &mut F,
    bdds: &BddManager,
    site: &Site,
    stats: &mut CheckStats,
) -> RowList<F::Shared> {
    let mut out: RowList<F::Shared> = Vec::with_capacity((1 << site.funcs.len()) - 1);
    for m in 1usize..1 << site.funcs.len() {
        let low = m.trailing_zeros() as usize;
        let rest = m & (m - 1);
        let base = f.base(bdds, site.funcs[low], stats);
        let row = if rest == 0 {
            base
        } else {
            let prev = out[rest - 1].as_ref().expect("site rows are all present");
            F::share(f.mul(prev.borrow(), base.borrow(), stats))
        };
        out.push(Some(row));
    }
    out
}

/// Extends the accumulated prefix rows by one site's group, preserving the
/// DFS leaf order (rows outer, choices inner; joint mode's empty choice
/// first). The product association is the same left-to-right chain the
/// DFS computes, so the resulting rows are identical, not just equivalent.
fn extend_rows<F: Factors>(
    f: &mut F,
    rows: &RowList<F::Shared>,
    group: &RowList<F::Shared>,
    joint: bool,
    stats: &mut CheckStats,
) -> RowList<F::Shared> {
    let mut out = Vec::with_capacity(rows.len() * (group.len() + joint as usize));
    for r in rows {
        if joint {
            out.push(r.clone());
        }
        for c in group.iter().flatten() {
            out.push(Some(match r {
                None => c.clone(),
                Some(prev) => F::share(f.mul(prev.borrow(), c.borrow(), stats)),
            }));
        }
    }
    out
}

/// Verification callback of the row pipeline: receives the engine's
/// factors (FUJITA transforms the row in their manager), one finished row,
/// and the counters.
type Leaf<'a, F> = dyn FnMut(&mut F, &<F as Factors>::Row, &mut CheckStats) -> ControlFlow<()> + 'a;

/// Streams the last product level: every prefix row times every choice of
/// the final site (plus, in joint mode, the prefix row itself for the
/// final site's empty choice). The all-empty path (`None` row, empty last
/// choice) is skipped exactly as [`product_rows`] skips its `None`
/// accumulator.
fn stream_rows<F: Factors>(
    f: &mut F,
    rows: &RowList<F::Shared>,
    group: &RowList<F::Shared>,
    joint: bool,
    stats: &mut CheckStats,
    leaf: &mut Leaf<'_, F>,
) -> ControlFlow<()> {
    for r in rows {
        if joint {
            if let Some(row) = r {
                leaf(f, row.borrow(), stats)?;
            }
        }
        for c in group.iter().flatten() {
            match r {
                None => leaf(f, c.borrow(), stats)?,
                Some(prev) => {
                    let row = f.mul(prev.borrow(), c.borrow(), stats);
                    leaf(f, &row, stats)?;
                }
            }
        }
    }
    ControlFlow::Continue(())
}

/// Walks the cartesian product of per-site row choices, multiplying along
/// the path. With `include_empty`, each site may also contribute nothing
/// (used by joint mode to reach every ω), except the all-empty row.
fn product_rows<F: Factors>(
    f: &mut F,
    groups: &[Vec<F::Shared>],
    include_empty: bool,
    stats: &mut CheckStats,
    leaf: &mut Leaf<'_, F>,
) -> ControlFlow<()> {
    fn rec<F: Factors>(
        f: &mut F,
        groups: &[Vec<F::Shared>],
        acc: Option<&F::Row>,
        include_empty: bool,
        stats: &mut CheckStats,
        leaf: &mut Leaf<'_, F>,
    ) -> ControlFlow<()> {
        let Some((group, rest)) = groups.split_first() else {
            return match acc {
                Some(row) => leaf(f, row, stats),
                None => ControlFlow::Continue(()),
            };
        };
        if include_empty {
            rec(f, rest, acc, include_empty, stats, leaf)?;
        }
        for choice in group {
            match acc {
                None => rec(f, rest, Some(choice.borrow()), include_empty, stats, leaf)?,
                Some(prev) => {
                    let row = f.mul(prev, choice.borrow(), stats);
                    rec(f, rest, Some(&row), include_empty, stats, leaf)?;
                }
            }
        }
        ControlFlow::Continue(())
    }
    rec(f, groups, None, include_empty, stats, leaf)
}

/// The T-matrix BDDs of the forbidden regions (MAPI and FUJITA), in their
/// own manager under the per-combination node budget.
struct TMatrices {
    bdds: BddManager,
    cache: FastMap<Region, Bdd>,
}

impl TMatrices {
    fn new(num_vars: u32, node_budget: Option<usize>) -> Self {
        let mut bdds = BddManager::new(num_vars);
        bdds.set_node_budget(node_budget);
        TMatrices {
            bdds,
            cache: FastMap::default(),
        }
    }

    fn get(&mut self, region: &Region, vm: &VarMap) -> Bdd {
        if let Some(&t) = self.cache.get(region) {
            return t;
        }
        let t = region.to_bdd(vm, &mut self.bdds);
        self.cache.insert(region.clone(), t);
        t
    }
}

/// MAPI: map convolution, row-wise verification against the T matrix.
struct Mapi {
    rows: Rows<Spectra<MapSpectrum>>,
    t: TMatrices,
}

/// FUJITA: sign-ADD products, the Fujita Walsh transform of every row, and
/// verification against the T matrix.
struct Fujita {
    rows: Rows<Signs>,
    /// Node-keyed partial-WHT memo shared across rows; cleared whenever
    /// [`EngineCtx::maybe_collect`] rebuilds the sign manager (its keys
    /// are that manager's handles).
    wht_memo: WhtMemo,
    t: TMatrices,
}

/// The state of one engine; each variant holds only what its engine runs.
#[allow(clippy::large_enum_variant)] // one per worker, never moved in a loop
enum Engine {
    Lil(Rows<Spectra<LilSpectrum>>),
    Map(Rows<Spectra<MapSpectrum>>),
    Mapi(Mapi),
    Fujita(Fujita),
}

/// Per-run engine state of one worker.
struct EngineCtx {
    engine: Engine,
    /// Per-combination node-growth budget: a deterministic row-count
    /// pre-charge per tuple, plus the growth limit of the engine's
    /// decision-diagram managers (the only state that grows while checking
    /// a tuple); `None` disables budgeting.
    node_budget: Option<usize>,
}

impl EngineCtx {
    fn new(
        kind: EngineKind,
        num_vars: u32,
        cache_budget: usize,
        node_budget: Option<usize>,
    ) -> Self {
        let engine = match kind {
            EngineKind::Lil => Engine::Lil(Rows::spectra(cache_budget)),
            EngineKind::Map => Engine::Map(Rows::spectra(cache_budget)),
            EngineKind::Mapi => Engine::Mapi(Mapi {
                rows: Rows::spectra(cache_budget),
                t: TMatrices::new(num_vars, node_budget),
            }),
            EngineKind::Fujita => Engine::Fujita(Fujita {
                rows: Rows::new(
                    Signs::new(num_vars, cache_budget, node_budget),
                    cache_budget,
                ),
                wht_memo: WhtMemo::with_budget(cache_budget),
                t: TMatrices::new(num_vars, node_budget),
            }),
        };
        EngineCtx {
            engine,
            node_budget,
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
        match &mut self.engine {
            Engine::Lil(_) | Engine::Map(_) => {}
            Engine::Mapi(m) => m.t.bdds.rebase_node_budget(),
            Engine::Fujita(f) => {
                f.rows.factors.adds.rebase_node_budget();
                f.t.bdds.rebase_node_budget();
            }
        }
    }

    /// Bounds arena growth over very long enumerations: the per-row ADDs
    /// and support BDDs are transient, so once an arena grows past a
    /// threshold its manager is dropped and re-created, together with
    /// everything holding its handles — the cached T matrices and, for
    /// FUJITA, the sign factors, the sign prefix cache and the WHT memo
    /// (whose counters survive). Spectra hold no handles, so the spectrum
    /// prefix caches survive; LIL and MAP grow no arena.
    fn maybe_collect(&mut self) {
        const NODE_LIMIT: usize = 4_000_000;
        let node_budget = self.node_budget;
        match &mut self.engine {
            Engine::Lil(_) | Engine::Map(_) => {}
            Engine::Mapi(m) => {
                if m.t.bdds.arena_size() > NODE_LIMIT {
                    m.t = TMatrices::new(m.t.bdds.num_vars(), node_budget);
                }
            }
            Engine::Fujita(f) => {
                let adds = &f.rows.factors.adds;
                if adds.arena_size() > NODE_LIMIT || f.t.bdds.arena_size() > NODE_LIMIT {
                    let num_vars = adds.num_vars();
                    f.rows.factors = Signs::new(num_vars, f.rows.cache_budget, node_budget);
                    f.rows.prefix.clear();
                    f.wht_memo.clear();
                    f.t = TMatrices::new(num_vars, node_budget);
                }
            }
        }
    }

    /// Folds the engine's prefix-cache and spectral-memo counters into
    /// `stats`.
    fn fold_cache_stats(&self, stats: &mut CheckStats) {
        let (prefix, memo) = match &self.engine {
            Engine::Lil(rows) => (rows.prefix.stats(), rows.factors.walsh.stats()),
            Engine::Map(rows) | Engine::Mapi(Mapi { rows, .. }) => {
                (rows.prefix.stats(), rows.factors.walsh.stats())
            }
            Engine::Fujita(f) => (f.rows.prefix.stats(), f.wht_memo.stats()),
        };
        stats.cache_hits += prefix.hits;
        stats.cache_misses += prefix.misses;
        stats.cache_evictions += prefix.evictions;
        stats.cache_peak_bytes += prefix.peak_bytes;
        stats.dd_cache_hits += memo.hits;
        stats.dd_cache_misses += memo.misses;
        stats.dd_cache_evictions += memo.evictions;
        stats.dd_cache_peak_bytes += memo.peak_bytes as u64;
    }

    /// Checks one combination. `idxs` are the combination's global site
    /// indices — the prefix-cache keys.
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
    ) -> Option<Hit> {
        let screen_rows = self.node_budget.is_none();
        match (&mut self.engine, mode) {
            (Engine::Lil(rows), _) => scan_check(rows, bdds, vm, combo, idxs, region, mode, stats),
            // MAPI joint: the union-support accumulation is a map scan (the
            // ADD only accelerates the per-row region product).
            (Engine::Map(rows), _) | (Engine::Mapi(Mapi { rows, .. }), CheckMode::Joint) => {
                scan_check(rows, bdds, vm, combo, idxs, region, mode, stats)
            }
            (Engine::Mapi(m), CheckMode::RowWise) => {
                m.check_rowwise(bdds, vm, combo, idxs, region, screen_rows, stats)
            }
            (Engine::Fujita(f), _) => f.check(bdds, vm, combo, idxs, region, mode, stats),
        }
    }
}

/// LIL and MAP (and MAPI's joint mode): scan each row's entries against the
/// region, or unite their ρ = 0 supports in joint mode.
#[allow(clippy::too_many_arguments)]
fn scan_check<S: Spectrum>(
    rows: &mut Rows<Spectra<S>>,
    bdds: &BddManager,
    vm: &VarMap,
    combo: &[&Site],
    idxs: &[usize],
    region: &Region,
    mode: CheckMode,
    stats: &mut CheckStats,
) -> Option<Hit> {
    let joint = mode == CheckMode::Joint;
    let plan = rows.plan(bdds, combo, idxs, joint, stats);
    let (mut hit, mut union) = (None, Mask::ZERO);
    let _ = rows.drive(&plan, joint, stats, &mut |_, spec, stats| {
        stats.rows_checked += 1;
        let t = Instant::now();
        if joint {
            union = union | spec.support_union(&|m| vm.rho_is_zero(m));
        } else {
            hit = spec.find(&|m, _| region.matches(vm, m));
        }
        stats.verification_time += t.elapsed();
        match hit {
            Some(_) => ControlFlow::Break(()),
            None => ControlFlow::Continue(()),
        }
    });
    if joint {
        joint_verdict(region, vm, union).map(|(m, r)| (m, r, None))
    } else {
        hit.map(|(m, c)| (m, rowwise_reason(region, vm, m), Some(c)))
    }
}

impl Mapi {
    #[allow(clippy::too_many_arguments)]
    fn check_rowwise(
        &mut self,
        bdds: &BddManager,
        vm: &VarMap,
        combo: &[&Site],
        idxs: &[usize],
        region: &Region,
        screen_rows: bool,
        stats: &mut CheckStats,
    ) -> Option<Hit> {
        let plan = self.rows.plan(bdds, combo, idxs, false, stats);
        let tm = &mut self.t;
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
        //
        // The T-matrix BDD is only consulted past the screen, so its
        // construction is deferred to the first screen hit: secure gadgets
        // (every shipped benchmark) never pay for it. With the screen off
        // the old eager build is kept — every row intersects against it.
        let mut t_matrix = (!screen_rows).then(|| tm.get(region, vm));
        let mut keys: Vec<u128> = Vec::new();
        let mut hit = None;
        let _ = self.rows.drive(&plan, false, stats, &mut |_, spec, stats| {
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
            let t_matrix = *t_matrix.get_or_insert_with(|| tm.get(region, vm));
            let nonzero = tm.bdds.from_keys(&mut keys);
            let product = tm.bdds.and(nonzero, t_matrix);
            stats.verification_time += t.elapsed();
            if product != Bdd::FALSE {
                let alpha = tm.bdds.one_sat(product).expect("satisfiable product");
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
}

impl Fujita {
    #[allow(clippy::too_many_arguments)]
    fn check(
        &mut self,
        bdds: &BddManager,
        vm: &VarMap,
        combo: &[&Site],
        idxs: &[usize],
        region: &Region,
        mode: CheckMode,
        stats: &mut CheckStats,
    ) -> Option<Hit> {
        let joint = mode == CheckMode::Joint;
        let plan = self.rows.plan(bdds, combo, idxs, joint, stats);
        let t_matrix = self.t.get(region, vm);
        let t_bdds = &mut self.t.bdds;
        let wht_memo = &mut self.wht_memo;
        let randoms = vm.random_vars();
        let (mut hit, mut union) = (None, Mask::ZERO);
        let _ = self
            .rows
            .drive(&plan, joint, stats, &mut |signs, &sign, stats| {
                stats.rows_checked += 1;
                let t = Instant::now();
                let spec = wht_with(&mut signs.adds, sign, wht_memo);
                stats.convolution_time += t.elapsed();
                stats.convolutions += 1;
                let t = Instant::now();
                let nonzero = signs.adds.nonzero_bdd(t_bdds, spec);
                if joint {
                    union = union | add_support_union(t_bdds, nonzero, &randoms);
                    stats.verification_time += t.elapsed();
                    return ControlFlow::Continue(());
                }
                let product = t_bdds.and(nonzero, t_matrix);
                stats.verification_time += t.elapsed();
                if product == Bdd::FALSE {
                    return ControlFlow::Continue(());
                }
                let alpha = t_bdds.one_sat(product).expect("satisfiable product");
                hit = Some((Mask(alpha), *signs.adds.eval(spec, alpha)));
                ControlFlow::Break(())
            });
        if joint {
            joint_verdict(region, vm, union).map(|(m, r)| (m, r, None))
        } else {
            hit.map(|(m, c)| (m, rowwise_reason(region, vm, m), Some(c)))
        }
    }
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
    fn engine_kind_display() {
        assert_eq!(EngineKind::Lil.to_string(), "LIL");
        assert_eq!(EngineKind::Mapi.to_string(), "MAPI");
        assert_eq!(EngineKind::default(), EngineKind::Mapi);
    }
}
