//! Human-readable selection reports.
//!
//! A downstream user who just ran selection wants to know *why* each
//! candidate was kept or dropped. This module renders the coverage model
//! and a selection into a per-candidate account: explanatory mass
//! contributed, errors introduced, size paid, and the marginal objective
//! change of flipping the candidate — the same quantities the objective
//! sums, attributed back to candidates.

use crate::coverage::CoverageModel;
use crate::incremental::IncrementalObjective;
use crate::objective::{Objective, ObjectiveWeights};
use cms_data::Schema;
use cms_tgd::StTgd;
use std::fmt::Write as _;

/// Per-candidate row of a selection report.
#[derive(Clone, Debug)]
pub struct CandidateReport {
    /// Candidate index.
    pub index: usize,
    /// Whether the selection includes it.
    pub selected: bool,
    /// Σ covers(θ, t) over all targets (its standalone explanatory mass).
    pub cover_mass: f64,
    /// Targets it covers to degree 1.
    pub full_covers: usize,
    /// Error groups it participates in.
    pub errors: usize,
    /// size(θ).
    pub size: usize,
    /// Objective delta of flipping this candidate's membership in the
    /// given selection (negative = flipping would improve the objective;
    /// a coherent selection has no negative flips).
    pub flip_delta: f64,
}

/// A full report for one selection.
#[derive(Clone, Debug)]
pub struct SelectionReport {
    /// Objective value of the selection.
    pub objective: f64,
    /// Components `(unexplained, errors, size)`.
    pub components: (f64, f64, f64),
    /// Targets explained to degree 1 by the selection.
    pub fully_explained: usize,
    /// Targets completely unexplained by the selection.
    pub unexplained: usize,
    /// Per-candidate rows, candidate order.
    pub candidates: Vec<CandidateReport>,
}

/// Build a report for `selection` over `model`.
pub fn explain_selection(
    model: &CoverageModel,
    weights: &ObjectiveWeights,
    selection: &[usize],
) -> SelectionReport {
    let objective = Objective::new(model, *weights);
    let value = objective.value(selection);
    let components = objective.components(selection);

    let mut best = vec![0.0f64; model.num_targets()];
    for &c in selection {
        for &(t, d) in &model.covers[c] {
            if d > best[t] {
                best[t] = d;
            }
        }
    }
    let fully_explained = best.iter().filter(|&&d| (d - 1.0).abs() < 1e-12).count();
    let unexplained = best.iter().filter(|&&d| d == 0.0).count();

    let inc = IncrementalObjective::with_selection(model, *weights, selection);
    let candidates = (0..model.num_candidates)
        .map(|c| {
            let selected = inc.is_selected(c);
            CandidateReport {
                index: c,
                selected,
                cover_mass: model.covers[c].iter().map(|&(_, d)| d).sum(),
                full_covers: model.covers[c]
                    .iter()
                    .filter(|&&(_, d)| (d - 1.0).abs() < 1e-12)
                    .count(),
                errors: model.error_counts[c],
                size: model.sizes[c],
                flip_delta: if selected {
                    inc.delta_remove(c)
                } else {
                    inc.delta_add(c)
                },
            }
        })
        .collect();

    SelectionReport {
        objective: value,
        components,
        fully_explained,
        unexplained,
        candidates,
    }
}

impl SelectionReport {
    /// True iff no single flip would improve the objective (the selection
    /// is 1-flip locally optimal).
    pub fn is_flip_optimal(&self) -> bool {
        self.candidates.iter().all(|c| c.flip_delta >= -1e-9)
    }

    /// Render as a text table; tgds printed against the schema pair when
    /// provided.
    pub fn render(&self, tgds: Option<(&[StTgd], &Schema, &Schema)>) -> String {
        let mut out = String::new();
        let (u, e, s) = self.components;
        let _ = writeln!(
            out,
            "objective F = {:.3}  (unexplained {:.3} + errors {:.0} + size {:.0})",
            self.objective, u, e, s
        );
        let _ = writeln!(
            out,
            "targets: {} fully explained, {} untouched",
            self.fully_explained, self.unexplained
        );
        let _ = writeln!(
            out,
            "{:<5} {:<4} {:>10} {:>6} {:>7} {:>5} {:>10}",
            "cand", "sel", "coverMass", "full", "errors", "size", "flipΔ"
        );
        for c in &self.candidates {
            let _ = writeln!(
                out,
                "θ{:<4} {:<4} {:>10.3} {:>6} {:>7} {:>5} {:>10.3}",
                c.index,
                if c.selected { "yes" } else { "no" },
                c.cover_mass,
                c.full_covers,
                c.errors,
                c.size,
                c.flip_delta
            );
            if let Some((tgds, src, tgt)) = tgds {
                let _ = writeln!(out, "      {}", tgds[c.index].display(src, tgt));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::tests::running_example;
    use crate::selectors::{BranchBound, Selector};

    #[test]
    fn report_matches_objective_components() {
        let (_, _, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        let w = ObjectiveWeights::unweighted();
        let report = explain_selection(&model, &w, &[1]);
        assert!((report.objective - 8.0).abs() < 1e-9);
        let (u, e, s) = report.components;
        assert!((u - 2.0).abs() < 1e-9);
        assert!((e - 2.0).abs() < 1e-9);
        assert!((s - 4.0).abs() < 1e-9);
        assert_eq!(report.fully_explained, 2);
        assert_eq!(report.unexplained, 2);
    }

    #[test]
    fn optimal_selection_is_flip_optimal() {
        let (_, _, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        let w = ObjectiveWeights::unweighted();
        let best = BranchBound::default().select(&model, &w).unwrap();
        let report = explain_selection(&model, &w, &best.selected);
        assert!(report.is_flip_optimal(), "{:?}", report.candidates);
    }

    #[test]
    fn suboptimal_selection_shows_improving_flip() {
        let (_, _, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        let w = ObjectiveWeights::unweighted();
        // {θ1, θ3} (F = 12) improves by dropping either candidate.
        let report = explain_selection(&model, &w, &[0, 1]);
        assert!(!report.is_flip_optimal());
        assert!(report
            .candidates
            .iter()
            .any(|c| c.selected && c.flip_delta < 0.0));
    }

    #[test]
    fn render_contains_key_facts() {
        let (src, tgt, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        let w = ObjectiveWeights::unweighted();
        let report = explain_selection(&model, &w, &[1]);
        let text = report.render(Some((&cands, &src, &tgt)));
        assert!(text.contains("F = 8.000"), "{text}");
        assert!(text.contains("θ0"), "{text}");
        assert!(text.contains("task"), "tgd rendering missing: {text}");
        // Renders without schema context too.
        let bare = report.render(None);
        assert!(bare.contains("θ1"));
    }
}
