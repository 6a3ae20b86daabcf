//! Weight learning's spans: one `learn/prepare` holding each training
//! scenario's single model build, and one `learn/grid` per grid point.
//! Each model build (`pipeline/build-model`) holds exactly its three
//! layers: the chase, the coverage scoring pass and preprocessing.
//!
//! A binary of its own with a single test, because the span store and the
//! level override are process-wide.

use cms::obs;
use cms::prelude::*;
use cms::select::learn::{learn_weights, LearnMetric, WeightGrid};

fn noisy(seed: u64) -> Scenario {
    generate(&ScenarioConfig {
        rows_per_relation: 8,
        noise: NoiseConfig::uniform(25.0),
        seed,
        ..ScenarioConfig::all_primitives(1)
    })
}

#[test]
fn learning_builds_each_model_once_under_its_spans() {
    let scenarios = [noisy(1), noisy(2)];
    // Scenario generation chases too: start the span store clean after it.
    let _ = obs::drain_spans();
    obs::set_level_override(obs::ObsLevel::Spans);
    let learned = learn_weights(
        &scenarios,
        &Greedy,
        &WeightGrid::default(),
        LearnMetric::DataF1,
    );
    obs::clear_level_override();
    let learned = learned.expect("learning runs");
    let spans = obs::drain_spans();
    let named =
        |name: &str| -> Vec<&obs::SpanRecord> { spans.iter().filter(|s| s.name == name).collect() };
    let prepare = named("learn/prepare");
    assert_eq!(prepare.len(), 1);
    let builds = named("pipeline/build-model");
    assert_eq!(builds.len(), scenarios.len());
    assert!(builds.iter().all(|b| b.parent == prepare[0].id));
    for build in &builds {
        let mut layers: Vec<&str> = spans
            .iter()
            .filter(|s| s.parent == build.id)
            .map(|s| s.name.as_str())
            .collect();
        layers.sort_unstable();
        assert_eq!(layers, ["chase/all", "coverage/score", "preprocess"]);
    }
    assert_eq!(named("learn/grid").len(), learned.evaluated);
}
