//! Sparse Walsh-spectrum containers and convolution.
//!
//! A probe combination's correlation-matrix row is the spectrum of the XOR
//! of the selected functions, which equals the *convolution* of the
//! individual spectra (`W_{f⊕g}(α) = Σ_β W_f(β)·W_g(α⊕β)` for normalized
//! coefficients). The paper compares two container choices for this
//! computation:
//!
//! * [`LilSpectrum`] — sorted list of `(coordinate, coefficient)` pairs, the
//!   "list of lists" structure of the prior exact tool (reference \[11\]);
//! * [`MapSpectrum`] — a hash map (the Rust analogue of C++
//!   `unordered_map`, using the kernel's fast multiplicative hasher — see
//!   [`walshcheck_dd::fasthash`]), the container of the paper's MAP / MAPI
//!   methods with O(1) average insertion.
//!
//! Both implement [`Spectrum`] and are interchangeable in the engines; the
//! benchmark harness measures the difference.

use walshcheck_dd::dyadic::Dyadic;
use walshcheck_dd::FastMap;

use crate::mask::Mask;

/// Common interface of sparse spectrum containers.
pub trait Spectrum: Clone {
    /// Builds a spectrum from a coordinate → coefficient map (zeros are
    /// dropped).
    fn from_map(map: &FastMap<u128, Dyadic>) -> Self;

    /// The convolution `Σ_β self(β)·other(α⊕β)` — the spectrum of the XOR
    /// of the underlying functions.
    fn convolve(&self, other: &Self) -> Self;

    /// Number of non-zero entries.
    fn len(&self) -> usize;

    /// Whether the spectrum is identically zero.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `f` for every non-zero entry.
    fn for_each(&self, f: &mut dyn FnMut(Mask, Dyadic));

    /// The entry with the smallest coordinate satisfying `pred`, if any.
    ///
    /// Taking the minimum (rather than the first match seen) keeps the
    /// reported witness mask independent of the container's iteration
    /// order — `MapSpectrum`'s hash map iterates in a per-instance random
    /// order, and the full scan happens regardless since `for_each` has no
    /// early exit.
    fn find(&self, pred: &dyn Fn(Mask, Dyadic) -> bool) -> Option<(Mask, Dyadic)> {
        let mut found: Option<(Mask, Dyadic)> = None;
        self.for_each(&mut |m, c| {
            if found.is_none_or(|(best, _)| m < best) && pred(m, c) {
                found = Some((m, c));
            }
        });
        found
    }

    /// Union of the coordinates of all entries accepted by `relevant`
    /// (typically "ρ = 0").
    fn support_union(&self, relevant: &dyn Fn(Mask) -> bool) -> Mask {
        let mut acc = Mask::ZERO;
        self.for_each(&mut |m, _| {
            if relevant(m) {
                acc = acc | m;
            }
        });
        acc
    }

    /// The coefficient at `mask` (zero if absent).
    fn coefficient(&self, mask: Mask) -> Dyadic;

    /// Estimated heap footprint in bytes, used by the prefix-cache budget
    /// accounting. An estimate (container overhead is approximated), not an
    /// exact measure.
    fn heap_bytes(&self) -> usize;
}

/// Hash-map backed spectrum (the paper's MAP/MAPI container).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MapSpectrum {
    entries: FastMap<u128, Dyadic>,
}

impl MapSpectrum {
    /// The spectrum of the constant-zero function (`W(0) = 1`).
    pub fn one() -> Self {
        MapSpectrum {
            entries: [(0, Dyadic::ONE)].into_iter().collect(),
        }
    }

    /// Direct access to the underlying map.
    pub fn entries(&self) -> &FastMap<u128, Dyadic> {
        &self.entries
    }
}

impl Spectrum for MapSpectrum {
    fn from_map(map: &FastMap<u128, Dyadic>) -> Self {
        MapSpectrum {
            entries: map
                .iter()
                .filter(|(_, c)| !c.is_zero())
                .map(|(&k, &c)| (k, c))
                .collect(),
        }
    }

    fn convolve(&self, other: &Self) -> Self {
        // Iterate the smaller operand outside for cache behaviour.
        let (small, large) = if self.entries.len() <= other.entries.len() {
            (&self.entries, &other.entries)
        } else {
            (&other.entries, &self.entries)
        };
        let mut out: FastMap<u128, Dyadic> = FastMap::with_capacity_and_hasher(
            small.len() * large.len() / 2 + 1,
            Default::default(),
        );
        for (&ka, &ca) in small {
            for (&kb, &cb) in large {
                let key = ka ^ kb;
                let prod = ca * cb;
                let slot = out.entry(key).or_insert(Dyadic::ZERO);
                *slot += prod;
            }
        }
        out.retain(|_, c| !c.is_zero());
        MapSpectrum { entries: out }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn for_each(&self, f: &mut dyn FnMut(Mask, Dyadic)) {
        for (&k, &c) in &self.entries {
            f(Mask(k), c);
        }
    }

    fn coefficient(&self, mask: Mask) -> Dyadic {
        self.entries.get(&mask.0).copied().unwrap_or(Dyadic::ZERO)
    }

    fn heap_bytes(&self) -> usize {
        // (u128, Dyadic) payload plus hash-map control bytes and slack.
        self.entries.len() * 48 + 48
    }
}

/// Sorted-list backed spectrum (the "list of lists" baseline of \[11\]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LilSpectrum {
    /// Sorted by coordinate, no zero coefficients.
    entries: Vec<(u128, Dyadic)>,
}

impl LilSpectrum {
    /// The spectrum of the constant-zero function.
    pub fn one() -> Self {
        LilSpectrum {
            entries: vec![(0, Dyadic::ONE)],
        }
    }

    /// The sorted entry list.
    pub fn entries(&self) -> &[(u128, Dyadic)] {
        &self.entries
    }
}

impl Spectrum for LilSpectrum {
    fn from_map(map: &FastMap<u128, Dyadic>) -> Self {
        let mut entries: Vec<(u128, Dyadic)> = map
            .iter()
            .filter(|(_, c)| !c.is_zero())
            .map(|(&k, &c)| (k, c))
            .collect();
        entries.sort_by_key(|&(k, _)| k);
        LilSpectrum { entries }
    }

    fn convolve(&self, other: &Self) -> Self {
        // List processing as in the baseline of [11]: each product term is
        // inserted/updated in a sorted list, paying the linear shuffle cost
        // a list store implies (this is precisely the behaviour the paper's
        // hash-map containers avoid with O(1) average insertion).
        let mut out: Vec<(u128, Dyadic)> = Vec::new();
        for &(ka, ca) in &self.entries {
            for &(kb, cb) in &other.entries {
                let key = ka ^ kb;
                let prod = ca * cb;
                match out.binary_search_by_key(&key, |&(k, _)| k) {
                    Ok(i) => out[i].1 += prod,
                    Err(i) => out.insert(i, (key, prod)),
                }
            }
        }
        out.retain(|(_, c)| !c.is_zero());
        LilSpectrum { entries: out }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn for_each(&self, f: &mut dyn FnMut(Mask, Dyadic)) {
        for &(k, c) in &self.entries {
            f(Mask(k), c);
        }
    }

    fn coefficient(&self, mask: Mask) -> Dyadic {
        match self.entries.binary_search_by_key(&mask.0, |&(k, _)| k) {
            Ok(i) => self.entries[i].1,
            Err(_) => Dyadic::ZERO,
        }
    }

    fn heap_bytes(&self) -> usize {
        self.entries.len() * 32 + 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use walshcheck_dd::bdd::BddManager;
    use walshcheck_dd::spectral::{walsh_sparse, SparseWalshCache};
    use walshcheck_dd::var::VarId;

    fn spectra_of(f: walshcheck_dd::bdd::Bdd, m: &BddManager) -> (MapSpectrum, LilSpectrum) {
        let mut cache = SparseWalshCache::new();
        let s = walsh_sparse(m, f, &mut cache);
        (MapSpectrum::from_map(&s), LilSpectrum::from_map(&s))
    }

    #[test]
    fn map_and_lil_agree_on_construction() {
        let mut m = BddManager::new(3);
        let x = m.var(VarId(0));
        let y = m.var(VarId(1));
        let f = m.and(x, y);
        let (ms, ls) = spectra_of(f, &m);
        assert_eq!(ms.len(), ls.len());
        ms.for_each(&mut |mask, c| assert_eq!(ls.coefficient(mask), c));
    }

    #[test]
    fn convolution_equals_xor_spectrum() {
        let mut m = BddManager::new(4);
        let w = m.var(VarId(0));
        let x = m.var(VarId(1));
        let y = m.var(VarId(2));
        let z = m.var(VarId(3));
        let f = m.and(w, x);
        let g = m.or(y, z);
        let fg = m.xor(f, g);
        let (mf, lf) = spectra_of(f, &m);
        let (mg, lg) = spectra_of(g, &m);
        let (mfg, lfg) = spectra_of(fg, &m);
        let conv_m = mf.convolve(&mg);
        let conv_l = lf.convolve(&lg);
        assert_eq!(conv_m.len(), mfg.len());
        mfg.for_each(&mut |mask, c| {
            assert_eq!(conv_m.coefficient(mask), c, "map conv at {mask}");
            assert_eq!(conv_l.coefficient(mask), c, "lil conv at {mask}");
        });
        assert_eq!(conv_l.entries().len(), lfg.entries().len());
    }

    #[test]
    fn convolution_with_overlapping_supports_cancels() {
        // f ⊕ f = 0, whose spectrum is the unit impulse.
        let mut m = BddManager::new(2);
        let x = m.var(VarId(0));
        let y = m.var(VarId(1));
        let f = m.and(x, y);
        let (mf, lf) = spectra_of(f, &m);
        let conv_m = mf.convolve(&mf);
        let conv_l = lf.convolve(&lf);
        assert_eq!(conv_m.len(), 1);
        assert_eq!(conv_m.coefficient(Mask::ZERO), Dyadic::ONE);
        assert_eq!(conv_l.len(), 1);
        assert_eq!(conv_l.coefficient(Mask::ZERO), Dyadic::ONE);
    }

    #[test]
    fn unit_spectrum_is_identity() {
        let mut m = BddManager::new(2);
        let x = m.var(VarId(0));
        let (ms, ls) = spectra_of(x, &m);
        let conv = ms.convolve(&MapSpectrum::one());
        assert_eq!(conv, ms);
        let conv = ls.convolve(&LilSpectrum::one());
        assert_eq!(conv.entries(), ls.entries());
    }

    #[test]
    fn support_union_and_find() {
        let mut m = BddManager::new(3);
        let x = m.var(VarId(0));
        let z = m.var(VarId(2));
        let f = m.and(x, z);
        let (ms, _) = spectra_of(f, &m);
        // Entries at 000, 001, 100, 101 → union 101.
        let all = ms.support_union(&|_| true);
        assert_eq!(all, Mask(0b101));
        let none = ms.support_union(&|mask| mask.contains(1));
        assert_eq!(none, Mask::ZERO);
        let hit = ms.find(&|mask, _| mask.weight() == 2);
        assert_eq!(hit.map(|(m, _)| m), Some(Mask(0b101)));
        // With several matches, the smallest coordinate wins — independent
        // of the hash map's iteration order.
        let hit = ms.find(&|mask, _| mask.weight() == 1);
        assert_eq!(hit.map(|(m, _)| m), Some(Mask(0b001)));
    }

    #[test]
    fn parseval_via_for_each() {
        let mut m = BddManager::new(3);
        let x = m.var(VarId(0));
        let y = m.var(VarId(1));
        let z = m.var(VarId(2));
        let t = m.or(x, y);
        let f = m.xor(t, z);
        let (ms, _) = spectra_of(f, &m);
        let mut energy = Dyadic::ZERO;
        ms.for_each(&mut |_, c| energy += c * c);
        assert_eq!(energy, Dyadic::ONE);
    }
}
