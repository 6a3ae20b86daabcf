//! Greedy best-improvement selection.
//!
//! Standard submodular-style baseline: repeatedly add the candidate whose
//! inclusion decreases `F` the most; stop when no addition helps; then run
//! a removal pass (additions can make earlier choices redundant). Fast and
//! surprisingly strong when candidates do not interact; the collective
//! cases (shared error tuples, overlapping covers) are exactly where it
//! falls behind the PSL approach.
//!
//! Probing uses [`IncrementalObjective`]: a probe of candidate `c` costs
//! O(|covers[c]| + |error groups of c|) (up to the tiny per-target degree
//! lists), so one full pass costs the summed cover and error-group lists
//! of the probed candidates instead of O(candidates · model). The removal
//! pass additionally rebuilds the selection list, O(candidates), per step.

use super::{useful_candidates, SelectError, Selection, Selector};
use crate::coverage::CoverageModel;
use crate::incremental::IncrementalObjective;
use crate::objective::{Objective, ObjectiveWeights};

/// Greedy add-then-remove selector.
#[derive(Clone, Debug, Default)]
pub struct Greedy;

/// One full greedy run starting from `start`; returns (selection, value,
/// probe count). Shared with [`super::LocalSearch`] and PSL's repair step.
pub(crate) fn greedy_from(
    model: &CoverageModel,
    weights: &ObjectiveWeights,
    start: Vec<usize>,
) -> (Vec<usize>, f64, usize) {
    let useful = useful_candidates(model);
    let mut inc = IncrementalObjective::with_selection(model, *weights, &start);
    let mut evaluations = 1usize;

    loop {
        let mut improved = false;
        // Addition pass: best improvement first.
        loop {
            let mut best_delta = -1e-12;
            let mut best_cand = None;
            for &c in &useful {
                if inc.is_selected(c) {
                    continue;
                }
                let delta = inc.delta_add(c);
                evaluations += 1;
                if delta < best_delta {
                    best_delta = delta;
                    best_cand = Some(c);
                }
            }
            match best_cand {
                Some(c) => {
                    inc.add(c);
                    improved = true;
                }
                None => break,
            }
        }
        // Removal pass.
        loop {
            let mut best_delta = -1e-12;
            let mut best_cand = None;
            for c in inc.selection() {
                let delta = inc.delta_remove(c);
                evaluations += 1;
                if delta < best_delta {
                    best_delta = delta;
                    best_cand = Some(c);
                }
            }
            match best_cand {
                Some(c) => {
                    inc.remove(c);
                    improved = true;
                }
                None => break,
            }
        }
        if !improved {
            break;
        }
    }
    let selected = inc.selection();
    // Recompute with the reference evaluator (guards against incremental
    // drift; also what the Selection contract promises).
    let value = Objective::new(model, *weights).value(&selected);
    (selected, value, evaluations)
}

impl Selector for Greedy {
    fn name(&self) -> &str {
        "greedy"
    }

    fn select(
        &self,
        model: &CoverageModel,
        weights: &ObjectiveWeights,
    ) -> Result<Selection, SelectError> {
        let (selected, value, evaluations) = greedy_from(model, weights, Vec::new());
        Ok(Selection::new(selected, value, evaluations))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{appendix_model, known_optimum_model};
    use super::*;

    #[test]
    fn solves_easy_instances_optimally() {
        let (model, best) = known_optimum_model();
        let sel = Greedy
            .select(&model, &ObjectiveWeights::unweighted())
            .unwrap();
        // Greedy is optimal here: each set covers disjoint gains.
        assert!(
            (sel.objective - best).abs() < 1e-9,
            "greedy got {}",
            sel.objective
        );
    }

    #[test]
    fn appendix_example_keeps_empty_mapping() {
        let model = appendix_model();
        let sel = Greedy
            .select(&model, &ObjectiveWeights::unweighted())
            .unwrap();
        assert!(sel.selected.is_empty());
    }

    #[test]
    fn removal_pass_drops_redundant_choice() {
        use crate::coverage::ErrorGroup;
        use cms_data::{RelId, Tuple};
        let targets: Vec<Tuple> = (0..6)
            .map(|i| Tuple::ground(RelId(0), &[&format!("t{i}")]))
            .collect();
        let model = CoverageModel {
            num_candidates: 2,
            targets,
            sizes: vec![1, 1],
            covers: vec![
                (0..3).map(|t| (t, 1.0)).collect(), // covers 3
                (0..6).map(|t| (t, 1.0)).collect(), // covers all 6, 1 error
            ],
            errors: vec![ErrorGroup {
                creators: vec![1],
                example: Tuple::ground(RelId(0), &["err"]),
            }],
            error_counts: vec![0, 1],
        };
        // Whatever the add order, the final answer must be {1} alone.
        let sel = Greedy
            .select(&model, &ObjectiveWeights::unweighted())
            .unwrap();
        assert_eq!(sel.selected, vec![1]);
    }

    #[test]
    fn greedy_from_respects_start() {
        let (model, _) = known_optimum_model();
        let w = ObjectiveWeights::unweighted();
        // Starting from the full set, removal prunes to an optimum too.
        let (sel, value, _) = greedy_from(&model, &w, vec![0, 1, 2, 3]);
        assert!(sel.len() <= 2, "{sel:?}");
        assert!((value - 4.0).abs() < 1e-9);
    }
}
