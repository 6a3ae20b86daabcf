//! Equivalence: weight learning on prepared scenarios returns exactly what
//! the per-grid-point pipeline returns.
//!
//! `learn_weights` builds each training scenario's coverage model once and
//! scores each grid point by selection plus the learned metric alone. The
//! reference below is the straightforward loop it replaces: every grid
//! point runs the whole `evaluate_scenario` pipeline (model build,
//! preprocessing, selection, both F1s) on every scenario. The two must
//! agree bit for bit on every field of `LearnedWeights`.

use cms::prelude::*;
use cms::select::learn::{learn_weights, LearnMetric, LearnedWeights, WeightGrid};
use cms::select::{evaluate_prepared, PreparedScenario};

/// The per-grid-point reference for both metrics at once, in `METRICS`
/// order: every grid point runs the full pipeline on every scenario, and
/// each metric keeps `learn_weights`'s scoring order and tie-breaking.
fn reference_learn(
    scenarios: &[Scenario],
    selector: &dyn Selector,
    grid: &WeightGrid,
) -> [LearnedWeights; 2] {
    let scores_of = |weights: &ObjectiveWeights| {
        let mut total = [0.0; 2];
        for s in scenarios {
            let outcome = evaluate_scenario(s, selector, weights).expect("selector runs");
            total[0] += outcome.mapping.f1;
            total[1] += outcome.data.f1;
        }
        total.map(|t| t / scenarios.len() as f64)
    };
    let default = ObjectiveWeights::unweighted();
    let default_scores = scores_of(&default);
    let mut best = default_scores.map(|score| (default, score));
    let mut evaluated = 1usize;
    for weights in grid.combinations() {
        if weights == default {
            continue;
        }
        let scores = scores_of(&weights);
        evaluated += 1;
        for (best, score) in best.iter_mut().zip(scores) {
            if score > best.1 + 1e-12 {
                *best = (weights, score);
            }
        }
    }
    [0, 1].map(|m| LearnedWeights {
        weights: best[m].0,
        train_score: best[m].1,
        default_score: default_scores[m],
        evaluated,
    })
}

fn weight_bits(w: &ObjectiveWeights) -> [u64; 3] {
    [
        w.w_explain.to_bits(),
        w.w_error.to_bits(),
        w.w_size.to_bits(),
    ]
}

fn assert_learned_identical(got: &LearnedWeights, want: &LearnedWeights, what: &str) {
    assert_eq!(
        weight_bits(&got.weights),
        weight_bits(&want.weights),
        "{what}: weights {:?} vs reference {:?}",
        got.weights,
        want.weights
    );
    assert_eq!(
        got.train_score.to_bits(),
        want.train_score.to_bits(),
        "{what}: train_score {} vs reference {}",
        got.train_score,
        want.train_score
    );
    assert_eq!(
        got.default_score.to_bits(),
        want.default_score.to_bits(),
        "{what}: default_score {} vs reference {}",
        got.default_score,
        want.default_score
    );
    assert_eq!(got.evaluated, want.evaluated, "{what}: evaluated");
}

/// A noisy `all_primitives(scale)` scenario, with few rows so the
/// reference's 25 full pipeline runs per scenario stay quick in debug
/// builds.
fn noisy(scale: usize, seed: u64) -> Scenario {
    generate(&ScenarioConfig {
        rows_per_relation: 8,
        noise: NoiseConfig::uniform(25.0),
        seed,
        ..ScenarioConfig::all_primitives(scale)
    })
}

const METRICS: [LearnMetric; 2] = [LearnMetric::MappingF1, LearnMetric::DataF1];

fn check_matches_reference(selector: &dyn Selector, scale: usize, seeds: &[u64]) {
    let scenarios: Vec<Scenario> = seeds.iter().map(|&seed| noisy(scale, seed)).collect();
    let grid = WeightGrid::default();
    let reference = reference_learn(&scenarios, selector, &grid);
    for (metric, want) in METRICS.into_iter().zip(&reference) {
        let got = learn_weights(&scenarios, selector, &grid, metric).expect("learning runs");
        assert_learned_identical(
            &got,
            want,
            &format!("{} at scale {scale}, {metric:?}", selector.name()),
        );
        assert_eq!(got.evaluated, grid.combinations().len());
    }
}

#[test]
fn greedy_learning_matches_per_point_pipeline() {
    for scale in 1..=2 {
        check_matches_reference(&Greedy, scale, &[1, 2, 3]);
    }
}

#[test]
fn local_search_learning_matches_per_point_pipeline() {
    for scale in 1..=2 {
        check_matches_reference(&LocalSearch::default(), scale, &[1, 2, 3]);
    }
}

#[test]
fn psl_learning_matches_per_point_pipeline() {
    let scenarios = [generate(&ScenarioConfig {
        rows_per_relation: 6,
        noise: NoiseConfig::uniform(25.0),
        seed: 7,
        ..ScenarioConfig::all_primitives(1)
    })];
    let selector = PslCollective::default();
    let grid = WeightGrid::default();
    let reference = reference_learn(&scenarios, &selector, &grid);
    for (metric, want) in METRICS.into_iter().zip(&reference) {
        let got = learn_weights(&scenarios, &selector, &grid, metric).expect("learning runs");
        assert_learned_identical(&got, want, &format!("psl-collective, {metric:?}"));
    }
}

#[test]
fn learning_moves_off_the_default_somewhere() {
    // Guards the equivalence tests against a vacuous pass: on at least one
    // of their batches the learned weights differ from the default.
    let moved = (1..=2).any(|scale| {
        let scenarios: Vec<Scenario> = [1, 2, 3].iter().map(|&s| noisy(scale, s)).collect();
        METRICS.iter().any(|&metric| {
            let l = learn_weights(&scenarios, &Greedy, &WeightGrid::default(), metric)
                .expect("learning runs");
            l.weights != ObjectiveWeights::unweighted()
        })
    });
    assert!(moved, "every batch learned the default weights");
}

/// Everything in an outcome except its two wall-clock timings.
fn outcome_fields(o: &SelectionOutcome) -> String {
    let prf = |p: &Prf| [p.precision.to_bits(), p.recall.to_bits(), p.f1.to_bits()];
    format!(
        "{} {:?} {:?} {:?} {:?} {} {:?}",
        o.selector,
        o.selection,
        o.selection.objective.to_bits(),
        prf(&o.mapping),
        prf(&o.data),
        o.gold_objective.to_bits(),
        o.preprocess
    )
}

#[test]
fn evaluate_prepared_equals_evaluate_scenario_for_every_selector() {
    let scenario = generate(&ScenarioConfig {
        rows_per_relation: 6,
        noise: NoiseConfig::uniform(25.0),
        seed: 5,
        ..ScenarioConfig::all_primitives(1)
    });
    let prepared = PreparedScenario::new(&scenario).expect("valid candidates");
    let selectors: Vec<Box<dyn Selector>> = vec![
        Box::new(Exhaustive::default()),
        Box::new(BranchBound::default()),
        Box::new(Greedy),
        Box::new(LocalSearch::default()),
        Box::new(PslCollective::default()),
        Box::new(IndependentBaseline),
        Box::new(FixedSelection::new("gold-oracle", scenario.gold.clone())),
        Box::new(FixedSelection::all(scenario.candidates.len())),
    ];
    let weights = [
        ObjectiveWeights::unweighted(),
        ObjectiveWeights {
            w_explain: 1.0,
            w_error: 2.0,
            w_size: 0.25,
        },
    ];
    for selector in &selectors {
        for w in &weights {
            let full = evaluate_scenario(&scenario, selector.as_ref(), w).expect("runs");
            let split =
                evaluate_prepared(&scenario, &prepared, selector.as_ref(), w).expect("runs");
            assert_eq!(
                outcome_fields(&full),
                outcome_fields(&split),
                "{} under {w:?}",
                selector.name()
            );
        }
    }
}
