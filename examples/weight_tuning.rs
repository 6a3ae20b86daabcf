//! Weight learning: tune the objective weights (w1, w2, w3) on labeled
//! training scenarios, evaluate on held-out ones.
//!
//! The appendix's NP-hardness section introduces the weighted objective
//! `w1·unexplained + w2·errors + w3·size`; this example shows why the
//! weights matter in practice — under asymmetric noise the unweighted
//! objective is not the best operating point — and how the supervised
//! grid search of `cms::select::learn` picks a better one.
//!
//! Run with: `cargo run --release --example weight_tuning`

use cms::prelude::*;
use cms::select::learn::{learn_weights, LearnMetric, WeightGrid};

fn batch(seeds: &[u64]) -> Vec<Scenario> {
    seeds
        .iter()
        .map(|&seed| {
            generate(&ScenarioConfig {
                rows_per_relation: 12,
                // Asymmetric noise: many spurious candidates, some missing
                // target data — exactly when leaning on w2/w3 pays off.
                noise: NoiseConfig {
                    pi_corresp: 75.0,
                    pi_errors: 30.0,
                    pi_unexplained: 5.0,
                },
                seed,
                ..ScenarioConfig::all_primitives(1)
            })
        })
        .collect()
}

/// Mean mapping and data F1 of the PSL selector under `weights`. The
/// scenarios come prepared (model built once), since only selection
/// depends on the weights.
fn mean_f1(scenarios: &[(Scenario, PreparedScenario)], weights: &ObjectiveWeights) -> (f64, f64) {
    let selector = PslCollective::default();
    let (mut map_f1, mut data_f1) = (0.0, 0.0);
    for (s, prepared) in scenarios {
        let o = evaluate_prepared(s, prepared, &selector, weights).expect("selector runs");
        map_f1 += o.mapping.f1 / scenarios.len() as f64;
        data_f1 += o.data.f1 / scenarios.len() as f64;
    }
    (map_f1, data_f1)
}

fn main() {
    let train = batch(&[101, 102, 103]);
    let test = batch(&[900, 901, 902]);
    println!(
        "training on {} scenarios, evaluating on {} held-out scenarios\n",
        train.len(),
        test.len()
    );

    let learned = learn_weights(
        &train,
        &PslCollective::default(),
        &WeightGrid::default(),
        LearnMetric::MappingF1,
    )
    .expect("weight learning runs");
    println!("grid search over {} weight settings:", learned.evaluated);
    println!(
        "  default  w = (1.00, 1.00, 1.00)  train mapping-F1 = {:.3}",
        learned.default_score
    );
    println!(
        "  learned  w = ({:.2}, {:.2}, {:.2})  train mapping-F1 = {:.3}\n",
        learned.weights.w_explain,
        learned.weights.w_error,
        learned.weights.w_size,
        learned.train_score
    );

    let test: Vec<(Scenario, PreparedScenario)> = test
        .into_iter()
        .map(|s| {
            let prepared = PreparedScenario::new(&s).expect("generated candidates are valid");
            (s, prepared)
        })
        .collect();
    let (map_default, data_default) = mean_f1(&test, &ObjectiveWeights::unweighted());
    let (map_learned, data_learned) = mean_f1(&test, &learned.weights);
    println!("held-out evaluation:");
    println!("  default : mapping-F1 = {map_default:.3}  data-F1 = {data_default:.3}");
    println!("  learned : mapping-F1 = {map_learned:.3}  data-F1 = {data_learned:.3}");

    assert!(
        learned.train_score >= learned.default_score - 1e-12,
        "learning must not lose on its own training data"
    );
}
