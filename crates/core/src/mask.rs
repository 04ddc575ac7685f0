//! Spectral coordinates and the input-variable map.
//!
//! A spectral coordinate (the paper's `(α, ρ)` pair) selects an XOR
//! combination of input variables; [`Mask`] packs one into a `u128` whose bit
//! `i` corresponds to BDD variable `i`, i.e. the `i`-th declared input of the
//! netlist. [`VarMap`] records which bit positions are shares of which
//! secret, randoms, or publics — everything the non-interference predicates
//! need to classify a coordinate.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor};

use walshcheck_circuit::netlist::{InputRole, Netlist, SecretId};
use walshcheck_dd::var::{VarId, VarSet};

/// A spectral coordinate: an XOR selection of input variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Mask(pub u128);

impl Mask {
    /// The empty (zero) coordinate.
    pub const ZERO: Mask = Mask(0);

    /// Whether no variable is selected.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Whether variable position `i` is selected.
    pub fn contains(self, i: usize) -> bool {
        self.0 >> i & 1 == 1
    }

    /// Number of selected variables.
    pub fn weight(self) -> u32 {
        self.0.count_ones()
    }

    /// Number of selected variables also present in `other`.
    pub fn weight_in(self, other: Mask) -> u32 {
        (self.0 & other.0).count_ones()
    }

    /// Whether `self ⊆ other` as variable sets.
    pub fn is_subset(self, other: Mask) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates the selected variable positions in increasing order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(i)
            }
        })
    }

    /// Converts to a [`VarSet`] of BDD variables.
    pub fn to_var_set(self) -> VarSet {
        VarSet(self.0)
    }

    /// Builds a mask from a [`VarSet`].
    pub fn from_var_set(s: VarSet) -> Mask {
        Mask(s.0)
    }
}

impl BitXor for Mask {
    type Output = Mask;
    fn bitxor(self, rhs: Mask) -> Mask {
        Mask(self.0 ^ rhs.0)
    }
}

impl BitOr for Mask {
    type Output = Mask;
    fn bitor(self, rhs: Mask) -> Mask {
        Mask(self.0 | rhs.0)
    }
}

impl BitAnd for Mask {
    type Output = Mask;
    fn bitand(self, rhs: Mask) -> Mask {
        Mask(self.0 & rhs.0)
    }
}

impl fmt::Display for Mask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:b}", self.0)
    }
}

/// Classification of the input variables of a netlist, fixing the meaning of
/// every [`Mask`] bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarMap {
    /// Total number of input variables (mask width).
    pub num_vars: usize,
    /// For each secret, the mask of its share variable positions.
    pub share_groups: Vec<Mask>,
    /// For each variable position: `(secret, share index)` if it is a share.
    pub share_of: Vec<Option<(SecretId, u32)>>,
    /// Mask of all random variable positions (the `ρ` coordinates).
    pub randoms: Mask,
    /// Mask of all public variable positions.
    pub publics: Mask,
    /// Mask of all share variable positions (union of the groups).
    pub all_shares: Mask,
}

impl VarMap {
    /// Builds the map from a netlist's input declaration.
    pub fn from_netlist(netlist: &Netlist) -> VarMap {
        let num_vars = netlist.inputs.len();
        let mut share_groups = vec![Mask::ZERO; netlist.num_secrets()];
        let mut share_of = vec![None; num_vars];
        let mut randoms = Mask::ZERO;
        let mut publics = Mask::ZERO;
        for (pos, &(_, role)) in netlist.inputs.iter().enumerate() {
            match role {
                InputRole::Share { secret, index } => {
                    share_groups[secret.0 as usize].0 |= 1 << pos;
                    share_of[pos] = Some((secret, index));
                }
                InputRole::Random => randoms.0 |= 1 << pos,
                InputRole::Public => publics.0 |= 1 << pos,
            }
        }
        let all_shares = share_groups.iter().fold(Mask::ZERO, |a, &g| a | g);
        VarMap {
            num_vars,
            share_groups,
            share_of,
            randoms,
            publics,
            all_shares,
        }
    }

    /// Number of secrets.
    pub fn num_secrets(&self) -> usize {
        self.share_groups.len()
    }

    /// Number of shares of `secret`.
    pub fn shares_of(&self, secret: SecretId) -> u32 {
        self.share_groups[secret.0 as usize].weight()
    }

    /// Whether the coordinate has no random component (`ρ = 0`), i.e. is
    /// relevant for the simulatability analysis.
    pub fn rho_is_zero(&self, mask: Mask) -> bool {
        (mask & self.randoms).is_zero()
    }

    /// The share part of a coordinate (`α` restricted to share positions).
    pub fn share_part(&self, mask: Mask) -> Mask {
        mask & self.all_shares
    }

    /// Whether the share part of `mask` is a non-empty union of *complete*
    /// share groups — the critical region of the probing-security check
    /// (such a coordinate correlates a probe combination with the XOR of
    /// one or more raw secrets).
    pub fn is_full_group_union(&self, mask: Mask) -> bool {
        let sp = self.share_part(mask);
        if sp.is_zero() {
            return false;
        }
        for &g in &self.share_groups {
            let inter = sp & g;
            if !inter.is_zero() && inter != g {
                return false;
            }
        }
        true
    }

    /// The set of share indices (column indices in PINI terminology) that
    /// appear in the share part of `mask`, as a bitmask over indices.
    pub fn share_indices(&self, mask: Mask) -> u64 {
        let mut out = 0u64;
        for pos in self.share_part(mask).iter() {
            if let Some((_, index)) = self.share_of[pos] {
                out |= 1 << index;
            }
        }
        out
    }

    /// The BDD variables of the random positions.
    pub fn random_vars(&self) -> VarSet {
        self.randoms.to_var_set()
    }

    /// The BDD variables of secret `secret`'s shares.
    pub fn group_vars(&self, secret: SecretId) -> VarSet {
        self.share_groups[secret.0 as usize].to_var_set()
    }

    /// The variable id of input position `pos`.
    pub fn var(&self, pos: usize) -> VarId {
        VarId(pos as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use walshcheck_circuit::builder::NetlistBuilder;

    fn example() -> (Netlist, VarMap) {
        let mut b = NetlistBuilder::new("m");
        let sx = b.secret("x");
        let sy = b.secret("y");
        let x = b.shares(sx, 2);
        let y = b.shares(sy, 2);
        let r = b.random("r");
        let p = b.public_input("clk");
        let _ = p;
        let t1 = b.and(x[0], y[0]);
        let t2 = b.xor(t1, r);
        let t3 = b.xor(t2, x[1]);
        let t4 = b.xor(t3, y[1]);
        let o = b.output("q");
        b.output_share(t4, o, 0);
        let n = b.build().expect("valid");
        let vm = VarMap::from_netlist(&n);
        (n, vm)
    }

    #[test]
    fn mask_basic_ops() {
        let m = Mask(0b1011);
        assert_eq!(m.weight(), 3);
        assert!(m.contains(0));
        assert!(!m.contains(2));
        assert_eq!(m.weight_in(Mask(0b0011)), 2);
        assert!(Mask(0b0010).is_subset(m));
        assert!(!Mask(0b0100).is_subset(m));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!((m ^ Mask(0b0001)).0, 0b1010);
        assert_eq!((m | Mask(0b0100)).0, 0b1111);
        assert_eq!((m & Mask(0b0110)).0, 0b0010);
    }

    #[test]
    fn varmap_classifies_positions() {
        // Input order: x0 x1 y0 y1 r clk → positions 0..6.
        let (_, vm) = example();
        assert_eq!(vm.num_vars, 6);
        assert_eq!(vm.share_groups[0], Mask(0b000011));
        assert_eq!(vm.share_groups[1], Mask(0b001100));
        assert_eq!(vm.randoms, Mask(0b010000));
        assert_eq!(vm.publics, Mask(0b100000));
        assert_eq!(vm.all_shares, Mask(0b001111));
        assert_eq!(vm.share_of[2], Some((SecretId(1), 0)));
        assert_eq!(vm.shares_of(SecretId(0)), 2);
    }

    #[test]
    fn rho_zero_and_share_part() {
        let (_, vm) = example();
        assert!(vm.rho_is_zero(Mask(0b001011)));
        assert!(!vm.rho_is_zero(Mask(0b010001)));
        assert_eq!(vm.share_part(Mask(0b111111)), Mask(0b001111));
    }

    #[test]
    fn full_group_union_detection() {
        let (_, vm) = example();
        // Both shares of x: a full group.
        assert!(vm.is_full_group_union(Mask(0b000011)));
        // Both groups complete.
        assert!(vm.is_full_group_union(Mask(0b001111)));
        // Half of x: not full.
        assert!(!vm.is_full_group_union(Mask(0b000001)));
        // Full x plus half y: not full.
        assert!(!vm.is_full_group_union(Mask(0b000111)));
        // Publics do not matter.
        assert!(vm.is_full_group_union(Mask(0b100011)));
        // Empty share part: not a leak coordinate.
        assert!(!vm.is_full_group_union(Mask(0b100000)));
    }

    #[test]
    fn share_indices_collects_columns() {
        let (_, vm) = example();
        // x0 and y1 → indices {0, 1}.
        assert_eq!(vm.share_indices(Mask(0b001001)), 0b11);
        assert_eq!(vm.share_indices(Mask(0b000001)), 0b01);
        assert_eq!(vm.share_indices(Mask::ZERO), 0);
    }
}
