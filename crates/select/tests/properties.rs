//! Property-based tests for the objective and the exact selectors, on
//! randomly constructed coverage models (built directly, no chase — the
//! chase path is covered by the tgd crate's properties and the
//! integration tests).

use cms_data::{RelId, Tuple};
use cms_select::{
    preprocess, BranchBound, CoverageModel, ErrorGroup, Exhaustive, Greedy, IncrementalObjective,
    LocalSearch, Objective, ObjectiveWeights, PslCollective, Selector,
};
use proptest::prelude::*;

/// A random coverage model with `n_cand ≤ 7`, `n_targets ≤ 8`, and up to
/// six error groups of up to `n_cand` creators each (so groups overlap and
/// a candidate sits in several).
fn arb_model() -> impl Strategy<Value = CoverageModel> {
    let n_cand = 1usize..=7;
    let n_tgt = 1usize..=8;
    (n_cand, n_tgt).prop_flat_map(|(nc, nt)| {
        let covers =
            prop::collection::vec(prop::collection::vec((0..nt, 1u32..=4), 0..nt), nc..=nc);
        let sizes = prop::collection::vec(2usize..=6, nc..=nc);
        let errors = prop::collection::vec(prop::collection::vec(0..nc, 1..=nc), 0..=6);
        (covers, sizes, errors).prop_map(move |(covers, sizes, errors)| {
            let covers: Vec<Vec<(usize, f64)>> = covers
                .into_iter()
                .map(|list| {
                    let mut best: std::collections::BTreeMap<usize, f64> = Default::default();
                    for (t, q) in list {
                        let d = q as f64 / 4.0;
                        let e = best.entry(t).or_insert(0.0);
                        if d > *e {
                            *e = d;
                        }
                    }
                    best.into_iter().collect()
                })
                .collect();
            let errors: Vec<ErrorGroup> = errors
                .into_iter()
                .map(|mut creators| {
                    creators.sort_unstable();
                    creators.dedup();
                    ErrorGroup {
                        creators,
                        example: Tuple::ground(RelId(0), &["err"]),
                    }
                })
                .collect();
            let mut error_counts = vec![0usize; nc];
            for g in &errors {
                for &c in &g.creators {
                    error_counts[c] += 1;
                }
            }
            CoverageModel {
                num_candidates: nc,
                targets: (0..nt)
                    .map(|t| Tuple::ground(RelId(0), &[&format!("t{t}")]))
                    .collect(),
                sizes,
                covers,
                errors,
                error_counts,
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// F({}) = w1 · |targets|; F is bounded below by w3·size of the
    /// selection; components are non-negative.
    #[test]
    fn objective_basic_identities(model in arb_model()) {
        let w = ObjectiveWeights::unweighted();
        let f = Objective::new(&model, w);
        prop_assert!((f.value(&[]) - model.num_targets() as f64).abs() < 1e-9);
        let all: Vec<usize> = (0..model.num_candidates).collect();
        let (u, e, s) = f.components(&all);
        prop_assert!(u >= -1e-12 && e >= 0.0 && s >= 0.0);
        let total_size: usize = model.sizes.iter().sum();
        prop_assert!((s - total_size as f64).abs() < 1e-9);
        prop_assert!(f.value(&all) >= s - 1e-9);
    }

    /// Exhaustive and branch-and-bound agree exactly.
    #[test]
    fn exact_selectors_agree(model in arb_model()) {
        let w = ObjectiveWeights::unweighted();
        let ex = Exhaustive::default().select(&model, &w).unwrap();
        let bb = BranchBound::default().select(&model, &w).unwrap();
        prop_assert!((ex.objective - bb.objective).abs() < 1e-9,
            "exhaustive {} vs bb {}", ex.objective, bb.objective);
    }

    /// No heuristic ever reports a better value than the exact optimum,
    /// and every reported value re-evaluates to itself.
    #[test]
    fn heuristics_bounded_by_exact(model in arb_model()) {
        let w = ObjectiveWeights::unweighted();
        let f = Objective::new(&model, w);
        let exact = Exhaustive::default().select(&model, &w).unwrap();
        for selector in [
            Box::new(Greedy) as Box<dyn Selector>,
            Box::new(LocalSearch { restarts: 2, seed: 1, ..LocalSearch::default() }),
            Box::new(PslCollective::default()),
        ] {
            let sel = selector.select(&model, &w).unwrap();
            prop_assert!(sel.objective >= exact.objective - 1e-9,
                "{} below optimum", selector.name());
            prop_assert!((f.value(&sel.selected) - sel.objective).abs() < 1e-9,
                "{} misreports its own objective", selector.name());
        }
    }

    /// PSL with greedy repair is never worse than plain greedy.
    #[test]
    fn psl_repair_dominates_greedy(model in arb_model()) {
        let w = ObjectiveWeights::unweighted();
        let greedy = Greedy.select(&model, &w).unwrap();
        let psl = PslCollective::default().select(&model, &w).unwrap();
        prop_assert!(psl.objective <= greedy.objective + 1e-9,
            "psl {} vs greedy {}", psl.objective, greedy.objective);
    }

    /// Preprocessing shifts the objective by exactly the constant, for
    /// every selection.
    #[test]
    fn preprocess_preserves_objective(model in arb_model()) {
        let w = ObjectiveWeights::unweighted();
        let (reduced, report) = preprocess(&model);
        let f_full = Objective::new(&model, w);
        let f_red = Objective::new(&reduced, w);
        let constant = report.certain_unexplained as f64;
        for subset in 0u32..(1 << model.num_candidates.min(5)) {
            let sel: Vec<usize> =
                (0..model.num_candidates.min(5)).filter(|&b| subset & (1 << b) != 0).collect();
            prop_assert!((f_full.value(&sel) - (f_red.value(&sel) + constant)).abs() < 1e-9);
        }
    }

    /// Weighted objective is linear in the weights: F_w = w1·U + w2·E + w3·S
    /// where (U, E, S) are the unit components.
    #[test]
    fn objective_linear_in_weights(model in arb_model(), w1 in 0.0f64..3.0, w2 in 0.0f64..3.0, w3 in 0.0f64..3.0) {
        let unit = Objective::new(&model, ObjectiveWeights::unweighted());
        let weighted = Objective::new(&model, ObjectiveWeights { w_explain: w1, w_error: w2, w_size: w3 });
        let all: Vec<usize> = (0..model.num_candidates).collect();
        for sel in [vec![], vec![0], all] {
            let (u, e, s) = unit.components(&sel);
            prop_assert!((weighted.value(&sel) - (w1 * u + w2 * e + w3 * s)).abs() < 1e-9);
        }
    }

    /// The incremental evaluator agrees with the reference evaluator after
    /// any sequence of adds/removes, and each probe delta matches both the
    /// applied change and the naive difference `F(after) − F(before)`.
    #[test]
    fn incremental_matches_naive(
        model in arb_model(),
        ops in prop::collection::vec((0usize..7, any::<bool>()), 1..24),
    ) {
        let w = ObjectiveWeights::unweighted();
        let naive = Objective::new(&model, w);
        let mut inc = IncrementalObjective::new(&model, w);
        for (raw, add) in ops {
            let c = raw % model.num_candidates;
            let before = inc.value();
            let naive_before = naive.value(&inc.selection());
            let delta = if add {
                let delta = inc.delta_add(c);
                inc.add(c);
                delta
            } else {
                let delta = inc.delta_remove(c);
                inc.remove(c);
                delta
            };
            let sel = inc.selection();
            let naive_after = naive.value(&sel);
            prop_assert!((inc.value() - (before + delta)).abs() < 1e-9);
            prop_assert!((delta - (naive_after - naive_before)).abs() < 1e-9,
                "probe {delta} vs naive difference {} at {sel:?}", naive_after - naive_before);
            prop_assert!((inc.value() - naive_after).abs() < 1e-9,
                "incremental {} vs naive {naive_after} at {sel:?}", inc.value());
        }
    }
}
