//! The selectors' inner loops walk the coverage model's adjacency views
//! ([`CoverageModel::groups_by_candidate`],
//! [`CoverageModel::covers_by_target`]) instead of scanning every error
//! group or calling `cover(c, t)` per (candidate, target) pair. These tests
//! pin that the rewrite is bit-identical to the scans it replaced, on
//! generated `all_primitives` scenarios: branch-and-bound against a
//! per-node error recount, and both PSL program builders against a per-pair
//! explanation-cap loop.

use cms_data::{RelId, Tuple};
use cms_ibench::{generate, NoiseConfig, Scenario, ScenarioConfig};
use cms_psl::{AtomLin, GroundAtom, GroundProgram, LinExpr, PredId, Program, Resolved};
use cms_select::{
    build_eval_program, BranchBound, CoverageModel, ObjectiveWeights, PreparedScenario,
    PslCollective, Selector,
};

/// The benchmark's exact-search shape: `all_primitives(scale)` at 10% noise.
fn scenario(scale: usize, seed: u64) -> Scenario {
    generate(&ScenarioConfig {
        noise: NoiseConfig::uniform(10.0),
        seed,
        ..ScenarioConfig::all_primitives(scale)
    })
}

/// The preprocessed model the pipeline hands to selectors.
fn models() -> Vec<(String, Scenario, CoverageModel)> {
    let mut out = Vec::new();
    for scale in 1..=2 {
        for seed in 1..=3 {
            let s = scenario(scale, seed);
            let model = PreparedScenario::new(&s).expect("model builds").reduced;
            out.push((format!("all_primitives({scale}) seed {seed}"), s, model));
        }
    }
    out
}

/// Branch-and-bound as it was before the error count moved onto the DFS
/// stack: every node recounts the error groups any included candidate
/// creates. Returns `(selected, objective, nodes)`.
fn recount_branch_bound(model: &CoverageModel, w: &ObjectiveWeights) -> (Vec<usize>, f64, usize) {
    struct Search<'a> {
        model: &'a CoverageModel,
        w: ObjectiveWeights,
        order: Vec<usize>,
        suffix_cover: Vec<Vec<f64>>,
        best_value: f64,
        best_set: Vec<usize>,
        nodes: usize,
    }
    impl Search<'_> {
        fn dfs(&mut self, i: usize, included: &mut Vec<usize>, cur: &mut Vec<f64>, size: f64) {
            self.nodes += 1;
            let errors = self
                .model
                .errors
                .iter()
                .filter(|g| g.creators.iter().any(|c| included.contains(c)))
                .count() as f64;
            if i == self.order.len() {
                let unexplained: f64 = cur.iter().map(|d| 1.0 - d).sum();
                let value =
                    self.w.w_explain * unexplained + self.w.w_error * errors + self.w.w_size * size;
                if value < self.best_value {
                    self.best_value = value;
                    self.best_set = included.clone();
                }
                return;
            }
            let optimistic: f64 = cur
                .iter()
                .zip(&self.suffix_cover[i])
                .map(|(&c, &s)| 1.0 - c.max(s))
                .sum();
            let bound =
                self.w.w_explain * optimistic + self.w.w_error * errors + self.w.w_size * size;
            if bound >= self.best_value - 1e-12 {
                return;
            }
            let cand = self.order[i];
            let mut touched = Vec::new();
            for &(t, d) in &self.model.covers[cand] {
                if d > cur[t] {
                    touched.push((t, cur[t]));
                    cur[t] = d;
                }
            }
            included.push(cand);
            let grown = size + self.model.sizes[cand] as f64;
            self.dfs(i + 1, included, cur, grown);
            included.pop();
            for (t, old) in touched {
                cur[t] = old;
            }
            self.dfs(i + 1, included, cur, size);
        }
    }

    let useless = model.useless_candidates();
    let mut order: Vec<usize> = (0..model.num_candidates)
        .filter(|c| !useless.contains(c))
        .collect();
    let mass = |c: usize| -> f64 { model.covers[c].iter().map(|&(_, d)| d).sum() };
    order.sort_by(|&a, &b| mass(b).partial_cmp(&mass(a)).unwrap());
    let nt = model.num_targets();
    let mut suffix_cover = vec![vec![0.0f64; nt]; order.len() + 1];
    for i in (0..order.len()).rev() {
        let mut row = suffix_cover[i + 1].clone();
        for &(t, d) in &model.covers[order[i]] {
            if d > row[t] {
                row[t] = d;
            }
        }
        suffix_cover[i] = row;
    }
    let mut search = Search {
        model,
        w: *w,
        order,
        suffix_cover,
        best_value: cms_select::Objective::new(model, *w).value(&[]),
        best_set: Vec::new(),
        nodes: 0,
    };
    search.dfs(0, &mut Vec::new(), &mut vec![0.0; nt], 0.0);
    let mut selected = search.best_set;
    selected.sort_unstable();
    (selected, search.best_value, search.nodes)
}

#[test]
fn branch_bound_matches_per_node_recount() {
    let weights = [
        ObjectiveWeights::unweighted(),
        ObjectiveWeights {
            w_explain: 1.5,
            w_error: 0.75,
            w_size: 0.25,
        },
    ];
    for (label, _, model) in models() {
        for w in &weights {
            let got = BranchBound::default().select(&model, w).unwrap();
            let (selected, objective, nodes) = recount_branch_bound(&model, w);
            assert_eq!(got.selected, selected, "{label} {w:?}: selection");
            assert_eq!(
                got.objective.to_bits(),
                objective.to_bits(),
                "{label} {w:?}: objective {} vs {objective}",
                got.objective
            );
            assert_eq!(got.evaluations, nodes, "{label} {w:?}: node count");
        }
    }
}

/// Every `explain-cap` constraint of `ground`, in emission order.
fn explain_caps(ground: &GroundProgram) -> Vec<&LinExpr> {
    ground
        .constraints
        .iter()
        .filter(|c| c.origin == "explain-cap")
        .map(|c| &c.expr)
        .collect()
}

/// What grounding the per-pair cap `explained(t) − Σ_c cover(c, t)·inMap(c)`
/// yields against `program`'s database and `ground`'s variable numbering:
/// observed atoms fold into the constant in term order, open ones become
/// variables.
fn per_pair_caps(
    model: &CoverageModel,
    program: &Program,
    ground: &GroundProgram,
    explained_p: PredId,
    in_map_p: PredId,
) -> Vec<LinExpr> {
    (0..model.num_targets())
        .map(|t| {
            let mut lin = AtomLin::new();
            lin.add(GroundAtom::from_strs(explained_p, &[&format!("t{t}")]), 1.0);
            for c in 0..model.num_candidates {
                let d = model.cover(c, t);
                if d > 0.0 {
                    lin.add(GroundAtom::from_strs(in_map_p, &[&format!("c{c}")]), -d);
                }
            }
            let mut expr = LinExpr::constant(lin.constant);
            for (atom, coef) in &lin.terms {
                match program.db.resolve(atom) {
                    Resolved::Observed(v) => {
                        expr.add_constant(coef * v);
                    }
                    Resolved::Target => {
                        expr.add_term(ground.var_of(atom).expect("grounded atom"), *coef);
                    }
                }
            }
            expr.normalize();
            expr
        })
        .collect()
}

fn assert_same_exprs(got: &[&LinExpr], want: &[LinExpr], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: constraint count");
    let bits = |e: &LinExpr| -> (Vec<(usize, u64)>, u64) {
        let terms = e.terms.iter().map(|&(v, c)| (v, c.to_bits())).collect();
        (terms, e.constant.to_bits())
    };
    for (t, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(bits(g), bits(w), "{what}: explain-cap of target {t}");
    }
}

/// Both builders' caps on `model` against the per-pair loop: the
/// collective program (`inMap` open, so each cap is a variable row) and the
/// evaluation program at each of `selections` (`inMap` observed, so the
/// selected covers of a target fold into its cap's constant in term order).
fn check_caps(label: &str, model: &CoverageModel, selections: &[Vec<usize>]) {
    let w = ObjectiveWeights::unweighted();
    let (program, in_map_p) = PslCollective::default().build_program(model, &w);
    let ground = program.ground().unwrap();
    let explained_p = program.vocab.id_of("explained").unwrap();
    let want = per_pair_caps(model, &program, &ground, explained_p, in_map_p);
    assert_same_exprs(
        &explain_caps(&ground),
        &want,
        &format!("{label} collective"),
    );
    for selection in selections {
        let (program, preds) = build_eval_program(model, &w, selection);
        let ground = program.ground().unwrap();
        let want = per_pair_caps(model, &program, &ground, preds.explained, preds.in_map);
        assert_same_exprs(
            &explain_caps(&ground),
            &want,
            &format!("{label} eval {selection:?}"),
        );
    }
}

#[test]
fn explain_caps_match_per_pair_cover_loop() {
    for (label, scenario, model) in models() {
        let all: Vec<usize> = (0..model.num_candidates).collect();
        check_caps(&label, &model, &[scenario.gold.clone(), all]);
    }
}

#[test]
fn explain_cap_terms_keep_candidate_order() {
    // Folded in candidate order the cap constant of t0 is
    // (−1 − 1e-16) − 1e-16 = −1; in any other order the two tiny degrees
    // first sum to −2e-16, which survives the final −1 as one ulp.
    let model = CoverageModel {
        num_candidates: 3,
        targets: vec![
            Tuple::ground(RelId(0), &["t0"]),
            Tuple::ground(RelId(0), &["t1"]),
        ],
        sizes: vec![1, 1, 1],
        covers: vec![vec![(0, 1.0)], vec![(0, 1e-16), (1, 0.5)], vec![(0, 1e-16)]],
        errors: Vec::new(),
        error_counts: vec![0, 0, 0],
    };
    check_caps("order-sensitive model", &model, &[vec![0, 1, 2]]);
}
