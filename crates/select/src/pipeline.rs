//! Scenario-level pipeline: build the model, preprocess, select, score.
//!
//! The pipeline splits into a weight-independent half — the coverage model
//! (a chase plus the covers/creates scoring pass) and its preprocessing,
//! held by [`PreparedScenario`] — and a weight-dependent half, selection
//! and scoring, run by [`evaluate_prepared`]. Loops that evaluate one
//! scenario under many selectors or weights prepare it once;
//! [`evaluate_scenario`] is the two halves back to back.

use crate::coverage::{CoverageModel, CoverageOptions};
use crate::metrics::{exchange_patterns, mapping_prf, patterns_prf, Prf};
use crate::objective::{Objective, ObjectiveWeights};
use crate::preprocess::{preprocess, PreprocessReport};
use crate::selectors::{SelectError, Selection, Selector};
use cms_ibench::Scenario;
use std::time::{Duration, Instant};

/// Everything measured for one (scenario, selector) pair.
#[derive(Clone, Debug)]
pub struct SelectionOutcome {
    /// Selector name.
    pub selector: String,
    /// The selection and its objective (on the preprocessed model, plus
    /// the preprocessing constant so values are comparable across
    /// selectors and to the full objective).
    pub selection: Selection,
    /// Mapping-level precision/recall/F1 against the gold mapping.
    pub mapping: Prf,
    /// Data-level precision/recall/F1 (exchanged-instance comparison).
    pub data: Prf,
    /// Objective value of the gold mapping itself (reference point).
    pub gold_objective: f64,
    /// Preprocessing summary.
    pub preprocess: PreprocessReport,
    /// Wall-clock time of model building + selection + scoring from
    /// [`evaluate_scenario`]; from [`evaluate_prepared`], selection +
    /// scoring only (the model was built beforehand).
    pub wall: Duration,
    /// Wall-clock time of the selection call only.
    pub select_wall: Duration,
}

/// The weight-independent half of a scenario's evaluation: its coverage
/// model, preprocessed. Nothing in it depends on the selector or the
/// objective weights.
#[derive(Clone, Debug)]
pub struct PreparedScenario {
    /// The preprocessed coverage model the selectors run on.
    pub reduced: CoverageModel,
    /// What preprocessing removed or flagged.
    pub report: PreprocessReport,
}

impl PreparedScenario {
    /// Build and preprocess the scenario's coverage model. A candidate tgd
    /// that fails chase validation is a [`SelectError::Chase`].
    pub fn new(scenario: &Scenario) -> Result<PreparedScenario, SelectError> {
        let _span = cms_obs::span("pipeline/build-model");
        let model = CoverageModel::try_build_with(
            &scenario.source,
            &scenario.target,
            &scenario.candidates,
            &CoverageOptions::default(),
        )?;
        let (reduced, report) = {
            let _span = cms_obs::span("preprocess");
            preprocess(&model)
        };
        Ok(PreparedScenario { reduced, report })
    }
}

/// Run one selector on one scenario. Selector failures (e.g. grounding
/// errors in the PSL selector) propagate instead of aborting.
pub fn evaluate_scenario(
    scenario: &Scenario,
    selector: &dyn Selector,
    weights: &ObjectiveWeights,
) -> Result<SelectionOutcome, SelectError> {
    let _span = cms_obs::span("pipeline/evaluate");
    let start = Instant::now();
    let prepared = PreparedScenario::new(scenario)?;
    let mut outcome = evaluate_prepared(scenario, &prepared, selector, weights)?;
    outcome.wall = start.elapsed();
    Ok(outcome)
}

/// Run one selector on a scenario prepared by [`PreparedScenario::new`]
/// (from this same `scenario`): select, then score against the gold
/// mapping. The result equals [`evaluate_scenario`]'s except for `wall`,
/// which here excludes the model build.
pub fn evaluate_prepared(
    scenario: &Scenario,
    prepared: &PreparedScenario,
    selector: &dyn Selector,
    weights: &ObjectiveWeights,
) -> Result<SelectionOutcome, SelectError> {
    debug_assert_eq!(prepared.reduced.num_candidates, scenario.candidates.len());
    let start = Instant::now();
    let reduced = &prepared.reduced;
    let constant = weights.w_explain * prepared.report.certain_unexplained as f64;

    let select_start = Instant::now();
    let mut selection = {
        let _span = cms_obs::span(format!("pipeline/select/{}", selector.name()));
        selector.select(reduced, weights)?
    };
    let select_wall = select_start.elapsed();
    selection.objective += constant;

    let gold_objective = Objective::new(reduced, *weights).value(&scenario.gold) + constant;
    let mapping = mapping_prf(&selection.selected, &scenario.gold);
    let exchange = |idxs: &[usize]| exchange_patterns(&scenario.source, &scenario.candidates, idxs);
    let data = patterns_prf(&exchange(&selection.selected)?, &exchange(&scenario.gold)?);
    Ok(SelectionOutcome {
        selector: selector.name().to_owned(),
        selection,
        mapping,
        data,
        gold_objective,
        preprocess: prepared.report.clone(),
        wall: start.elapsed(),
        select_wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selectors::{Greedy, PslCollective};
    use cms_ibench::{generate, Primitive, ScenarioConfig};

    #[test]
    fn clean_cp_scenario_recovers_gold_exactly() {
        let scenario = generate(&ScenarioConfig::single_primitive(Primitive::Cp, 2));
        let outcome =
            evaluate_scenario(&scenario, &Greedy, &ObjectiveWeights::unweighted()).unwrap();
        assert_eq!(
            outcome.mapping.f1, 1.0,
            "selected {:?}",
            outcome.selection.selected
        );
        assert_eq!(outcome.data.f1, 1.0);
        assert!(outcome.selection.objective <= outcome.gold_objective + 1e-9);
    }

    #[test]
    fn clean_default_scenario_psl_matches_gold_data() {
        let scenario = generate(&ScenarioConfig::default());
        let outcome = evaluate_scenario(
            &scenario,
            &PslCollective::default(),
            &ObjectiveWeights::unweighted(),
        )
        .unwrap();
        // On a clean scenario the gold mapping explains everything with
        // zero errors, so any objective-optimal selection reproduces the
        // gold data exactly.
        assert!(
            outcome.data.f1 > 0.99,
            "data F1 = {:?} selected {:?} gold {:?}",
            outcome.data,
            outcome.selection.selected,
            scenario.gold
        );
    }
}
