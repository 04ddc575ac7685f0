//! Property-based tests for the decision-diagram package: dyadic rational
//! arithmetic, BDD operations against a truth-table model, and the spectral
//! transform invariants (Parseval, involution, convolution theorem).

use proptest::prelude::*;

use walshcheck_dd::add::AddManager;
use walshcheck_dd::bdd::{Bdd, BddManager};
use walshcheck_dd::dyadic::Dyadic;
use walshcheck_dd::spectral::{
    dense_walsh, inverse_wht, sign_add, walsh_sparse, wht, wht_with, SparseWalshCache, WhtMemo,
};
use walshcheck_dd::threshold::{at_least, at_most, exactly};
use walshcheck_dd::var::{VarId, VarSet};

// ---------- dyadic rationals ----------

/// Model: exact fraction num / 2^denpow with i128 arithmetic.
#[derive(Debug, Clone, Copy)]
struct Frac {
    num: i128,
    denpow: u32,
}

impl Frac {
    fn of(d: Dyadic) -> Frac {
        if d.exponent() >= 0 {
            Frac {
                num: d.mantissa() << d.exponent(),
                denpow: 0,
            }
        } else {
            Frac {
                num: d.mantissa(),
                denpow: (-d.exponent()) as u32,
            }
        }
    }

    fn eq_value(a: Frac, b: Frac) -> bool {
        // a.num / 2^a.denpow == b.num / 2^b.denpow
        let shift = a.denpow.max(b.denpow);
        (a.num << (shift - a.denpow)) == (b.num << (shift - b.denpow))
    }
}

fn dyadic_strategy() -> impl Strategy<Value = Dyadic> {
    (-1000i128..1000, -20i32..20).prop_map(|(m, e)| Dyadic::new(m, e))
}

proptest! {
    #[test]
    fn dyadic_add_matches_fractions(a in dyadic_strategy(), b in dyadic_strategy()) {
        let sum = a + b;
        let fa = Frac::of(a);
        let fb = Frac::of(b);
        let shift = fa.denpow.max(fb.denpow);
        let model = Frac {
            num: (fa.num << (shift - fa.denpow)) + (fb.num << (shift - fb.denpow)),
            denpow: shift,
        };
        prop_assert!(Frac::eq_value(Frac::of(sum), model));
    }

    #[test]
    fn dyadic_mul_matches_fractions(a in dyadic_strategy(), b in dyadic_strategy()) {
        let prod = a * b;
        let fa = Frac::of(a);
        let fb = Frac::of(b);
        let model = Frac { num: fa.num * fb.num, denpow: fa.denpow + fb.denpow };
        prop_assert!(Frac::eq_value(Frac::of(prod), model));
    }

    #[test]
    fn dyadic_ring_laws(a in dyadic_strategy(), b in dyadic_strategy(), c in dyadic_strategy()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a - a, Dyadic::ZERO);
        prop_assert_eq!(a + Dyadic::ZERO, a);
        prop_assert_eq!(a * Dyadic::ONE, a);
        prop_assert_eq!(a.half().double(), a);
    }

    #[test]
    fn dyadic_ordering_is_total(a in dyadic_strategy(), b in dyadic_strategy()) {
        let byf = a.to_f64().partial_cmp(&b.to_f64()).expect("finite");
        // f64 is exact for these small mantissas/exponents.
        prop_assert_eq!(a.cmp(&b), byf);
    }
}

// ---------- random Boolean expressions ----------

const NVARS: u32 = 5;

#[derive(Debug, Clone)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    Const(bool),
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..NVARS).prop_map(Expr::Var),
        any::<bool>().prop_map(Expr::Const),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::Ite(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

fn build(m: &mut BddManager, e: &Expr) -> Bdd {
    match e {
        Expr::Var(v) => m.var(VarId(*v)),
        Expr::Const(b) => m.constant(*b),
        Expr::Not(a) => {
            let x = build(m, a);
            m.not(x)
        }
        Expr::And(a, b) => {
            let (x, y) = (build(m, a), build(m, b));
            m.and(x, y)
        }
        Expr::Or(a, b) => {
            let (x, y) = (build(m, a), build(m, b));
            m.or(x, y)
        }
        Expr::Xor(a, b) => {
            let (x, y) = (build(m, a), build(m, b));
            m.xor(x, y)
        }
        Expr::Ite(a, b, c) => {
            let (x, y, z) = (build(m, a), build(m, b), build(m, c));
            m.ite(x, y, z)
        }
    }
}

fn eval_expr(e: &Expr, a: u128) -> bool {
    match e {
        Expr::Var(v) => a >> v & 1 == 1,
        Expr::Const(b) => *b,
        Expr::Not(x) => !eval_expr(x, a),
        Expr::And(x, y) => eval_expr(x, a) && eval_expr(y, a),
        Expr::Or(x, y) => eval_expr(x, a) || eval_expr(y, a),
        Expr::Xor(x, y) => eval_expr(x, a) ^ eval_expr(y, a),
        Expr::Ite(x, y, z) => {
            if eval_expr(x, a) {
                eval_expr(y, a)
            } else {
                eval_expr(z, a)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bdd_matches_expression_semantics(e in expr_strategy()) {
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e);
        for a in 0..1u128 << NVARS {
            prop_assert_eq!(m.eval(f, a), eval_expr(&e, a));
        }
    }

    #[test]
    fn bdd_sat_count_matches_truth_table(e in expr_strategy()) {
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e);
        let expected = (0..1u128 << NVARS).filter(|&a| eval_expr(&e, a)).count() as u128;
        prop_assert_eq!(m.sat_count(f), expected);
        // one_sat returns a model iff satisfiable.
        match m.one_sat(f) {
            Some(a) => prop_assert!(m.eval(f, a)),
            None => prop_assert_eq!(expected, 0),
        }
    }

    #[test]
    fn bdd_de_morgan_and_double_negation(e1 in expr_strategy(), e2 in expr_strategy()) {
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e1);
        let g = build(&mut m, &e2);
        let fg = m.and(f, g);
        let n_fg = m.not(fg);
        let nf = m.not(f);
        let ng = m.not(g);
        let de_morgan = m.or(nf, ng);
        prop_assert_eq!(n_fg, de_morgan);
        let nn = m.not(nf);
        prop_assert_eq!(nn, f);
    }

    #[test]
    fn bdd_quantifier_semantics(e in expr_strategy(), v in 0..NVARS) {
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e);
        let lo = m.restrict(f, VarId(v), false);
        let hi = m.restrict(f, VarId(v), true);
        let ex = m.exists(f, VarSet::singleton(VarId(v)));
        let all = m.forall(f, VarSet::singleton(VarId(v)));
        let or = m.or(lo, hi);
        let and = m.and(lo, hi);
        prop_assert_eq!(ex, or);
        prop_assert_eq!(all, and);
    }

    #[test]
    fn sparse_walsh_matches_dense(e in expr_strategy()) {
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e);
        let table: Vec<bool> = (0..1u128 << NVARS).map(|a| eval_expr(&e, a)).collect();
        let dense = dense_walsh(&table);
        let mut cache = SparseWalshCache::new();
        let sparse = walsh_sparse(&m, f, &mut cache);
        for (alpha, want) in dense.iter().enumerate() {
            let got = sparse.get(&(alpha as u128)).copied().unwrap_or(Dyadic::ZERO);
            prop_assert_eq!(got, *want, "α={}", alpha);
        }
    }

    #[test]
    fn parseval_holds(e in expr_strategy()) {
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e);
        let mut cache = SparseWalshCache::new();
        let sparse = walsh_sparse(&m, f, &mut cache);
        let energy: Dyadic = sparse.values().map(|c| *c * *c).sum();
        prop_assert_eq!(energy, Dyadic::ONE);
    }

    #[test]
    fn wht_involution(e in expr_strategy()) {
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e);
        let mut adds = AddManager::new(NVARS);
        let sign = sign_add(&m, &mut adds, f);
        let spec = wht(&mut adds, sign);
        let back = inverse_wht(&mut adds, spec);
        prop_assert_eq!(back, sign);
    }

    #[test]
    fn convolution_theorem(e1 in expr_strategy(), e2 in expr_strategy()) {
        // WHT(sign(f)·sign(g)) = spectrum of f ⊕ g (pointwise product of
        // sign functions is the sign of the XOR).
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e1);
        let g = build(&mut m, &e2);
        let fg = m.xor(f, g);
        let mut adds = AddManager::new(NVARS);
        let sf = sign_add(&m, &mut adds, f);
        let sg = sign_add(&m, &mut adds, g);
        let prod = adds.mul_op(sf, sg);
        let via_product = wht(&mut adds, prod);
        let sfg = sign_add(&m, &mut adds, fg);
        let direct = wht(&mut adds, sfg);
        prop_assert_eq!(via_product, direct);
    }

    #[test]
    fn threshold_functions_count_bits(k in 0usize..7) {
        let mut m = BddManager::new(NVARS);
        let vars: VarSet = (0..NVARS).map(VarId).collect();
        let ge = at_least(&mut m, &vars, k);
        let le = at_most(&mut m, &vars, k);
        let eq = exactly(&mut m, &vars, k);
        for a in 0..1u128 << NVARS {
            let ones = a.count_ones() as usize;
            prop_assert_eq!(m.eval(ge, a), ones >= k);
            prop_assert_eq!(m.eval(le, a), ones <= k);
            prop_assert_eq!(m.eval(eq, a), ones == k);
        }
    }

    #[test]
    fn add_from_sparse_round_trips(entries in proptest::collection::btree_map(0u128..32, -50i64..50, 0..10)) {
        let mut adds: AddManager<Dyadic> = AddManager::new(NVARS);
        let list: Vec<(u128, Dyadic)> = entries
            .iter()
            .filter(|&(_, &v)| v != 0)
            .map(|(&k, &v)| (k, Dyadic::from_int(v)))
            .collect();
        let f = adds.from_sparse(list.clone(), Dyadic::ZERO);
        for a in 0..1u128 << NVARS {
            let want = list
                .iter()
                .find(|&&(k, _)| k == a)
                .map(|&(_, v)| v)
                .unwrap_or(Dyadic::ZERO);
            prop_assert_eq!(*adds.eval(f, a), want);
        }
        // And back out through the sparse walk.
        let mut seen = Vec::new();
        adds.for_each_nonzero(f, &Dyadic::ZERO, &mut |a, v| seen.push((a, *v)));
        seen.sort();
        let mut want = list.clone();
        want.sort();
        prop_assert_eq!(seen, want);
    }
}

// ---------- DD transforms against the truth-table oracle, 12 variables ----------

/// A wider variable space than [`NVARS`], so the DD transforms run over
/// supports the exhaustive-table tests above never reach.
const NVARS_WIDE: u32 = 12;

fn wide_expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..NVARS_WIDE).prop_map(Expr::Var),
        any::<bool>().prop_map(Expr::Const),
    ];
    leaf.prop_recursive(6, 96, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::Ite(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `wht_with` and `walsh_sparse` agree with the literal `dense_walsh`
    /// truth-table transform on random functions of up to 12 variables,
    /// and on their complements, so the top-level complement edge
    /// crosses both DD transforms.
    #[test]
    fn spectral_kernels_agree_up_to_12_vars(e in wide_expr_strategy()) {
        let mut m = BddManager::new(NVARS_WIDE);
        let f = build(&mut m, &e);
        let nf = m.not(f);
        for (g, negated) in [(f, false), (nf, true)] {
            let table: Vec<bool> = (0..1u128 << NVARS_WIDE)
                .map(|a| eval_expr(&e, a) ^ negated)
                .collect();
            let dense = dense_walsh(&table);

            let mut cache = SparseWalshCache::new();
            let sparse = walsh_sparse(&m, g, &mut cache);
            let mut adds = AddManager::new(NVARS_WIDE);
            let sign = sign_add(&m, &mut adds, g);
            let w = wht_with(&mut adds, sign, &mut WhtMemo::new());
            for (alpha, want) in dense.iter().enumerate() {
                let a = alpha as u128;
                let got = sparse.get(&a).copied().unwrap_or(Dyadic::ZERO);
                prop_assert_eq!(got, *want, "sparse α={}", alpha);
                prop_assert_eq!(*adds.eval(w, a), *want, "wht α={}", alpha);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The sparse ANF agrees with the function on every point, degree is
    /// bounded by the variable count, and to_bdd round-trips.
    #[test]
    fn anf_round_trips_on_random_expressions(e in expr_strategy()) {
        use walshcheck_dd::anf::anf_from_bdd;
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e);
        let anf = anf_from_bdd(&m, f);
        prop_assert!(anf.degree() <= NVARS);
        for a in 0..1u128 << NVARS {
            prop_assert_eq!(anf.eval(a), m.eval(f, a), "a={:b}", a);
        }
        let back = anf.to_bdd(&mut m);
        prop_assert_eq!(back, f);
    }

    /// BDD functional composition matches semantic substitution.
    #[test]
    fn compose_matches_substitution(e1 in expr_strategy(), e2 in expr_strategy(), v in 0..NVARS) {
        let mut m = BddManager::new(NVARS);
        let f = build(&mut m, &e1);
        let g = build(&mut m, &e2);
        let h = m.compose(f, VarId(v), g);
        for a in 0..1u128 << NVARS {
            let gv = m.eval(g, a);
            let substituted = if gv { a | 1 << v } else { a & !(1 << v) };
            prop_assert_eq!(m.eval(h, a), m.eval(f, substituted), "a={:b}", a);
        }
    }
}
