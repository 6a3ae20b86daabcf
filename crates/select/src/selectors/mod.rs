//! Mapping selectors: algorithms that pick `M ⊆ C`.
//!
//! | Selector | Kind | Notes |
//! |----------|------|-------|
//! | [`Exhaustive`] | exact | enumerates all subsets; ≤ 25 useful candidates |
//! | [`BranchBound`] | exact | DFS with an optimistic-explains lower bound |
//! | [`Greedy`] | heuristic | best-improvement add passes + removal pass |
//! | [`LocalSearch`] | heuristic | greedy + flip hill-climbing with restarts |
//! | [`PslCollective`] | the paper's approach | HL-MRF MAP + rounding |
//! | [`IndependentBaseline`] | baseline | per-candidate marginal test (non-collective) |
//! | [`FixedSelection`] | reference | a fixed set (gold oracle, empty, all) |

mod baselines;
mod branch_bound;
mod exhaustive;
mod greedy;
mod local_search;
mod psl_collective;

pub use baselines::{FixedSelection, IndependentBaseline};
pub use branch_bound::BranchBound;
pub use exhaustive::Exhaustive;
pub use greedy::Greedy;
pub use local_search::LocalSearch;
pub use psl_collective::PslCollective;

use crate::coverage::CoverageModel;
use crate::objective::ObjectiveWeights;

/// Why a selector could not produce a selection.
///
/// The paper's collective selector compiles the coverage model into a PSL
/// program; compilation or grounding failures surface here instead of
/// aborting the process (selectors used to `.expect()` on them).
#[derive(Clone, PartialEq, Debug)]
pub enum SelectError {
    /// The PSL program failed to ground.
    Grounding(cms_psl::GroundingError),
    /// A candidate tgd failed chase validation while the coverage model
    /// was being built.
    Chase(cms_tgd::ChaseError),
    /// Weight learning was given no training scenarios.
    EmptyTraining,
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::Grounding(e) => write!(f, "selection failed: {e}"),
            SelectError::Chase(e) => write!(f, "invalid candidate tgd: {e}"),
            SelectError::EmptyTraining => {
                write!(f, "weight learning needs at least one scenario")
            }
        }
    }
}

impl std::error::Error for SelectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SelectError::Grounding(e) => Some(e),
            SelectError::Chase(e) => Some(e),
            SelectError::EmptyTraining => None,
        }
    }
}

impl From<cms_psl::GroundingError> for SelectError {
    fn from(e: cms_psl::GroundingError) -> SelectError {
        SelectError::Grounding(e)
    }
}

impl From<cms_tgd::ChaseError> for SelectError {
    fn from(e: cms_tgd::ChaseError) -> SelectError {
        SelectError::Chase(e)
    }
}

/// Structured diagnostics from a selector run.
///
/// Selectors that drive the PSL relaxation populate the fields they
/// track; purely combinatorial selectors leave the default. The legacy
/// `note` string is rendered from this via
/// [`render_note`](SelectionTelemetry::render_note), so tests and
/// tables can read typed fields instead of parsing text.
#[derive(Clone, Debug, Default)]
pub struct SelectionTelemetry {
    /// Final soft (relaxed) objective at the reported selection.
    pub soft_objective: Option<f64>,
    /// Accepted flips mirrored through the warm relaxation.
    pub flips: usize,
    /// Ground terms spliced (reused byte-identically) across regrounds.
    pub terms_reused: usize,
    /// Ground terms recomputed across regrounds.
    pub terms_recomputed: usize,
    /// Arithmetic free bindings spliced across regrounds.
    pub arith_bindings_spliced: usize,
    /// Raw delta entries coalesced away before the regrounder saw them
    /// (cancelling flip pairs and folded flip chains inside one batch).
    pub entries_coalesced: usize,
    /// Batch entries deduplicated into reground work already scheduled by
    /// an earlier entry of the same drained delta.
    pub sources_deduped: usize,
    /// Total ADMM iterations across all solves.
    pub admm_iterations: usize,
    /// Dual variables carried between warm solves.
    pub dual_terms_carried: usize,
    /// Regrounds abandoned for a fresh ground (self-healing rungs 2/4).
    pub fallback_fresh_grounds: usize,
    /// ADMM restarts taken inside the solver's restart loop.
    pub solver_restarts: usize,
    /// Carried dual terms dropped for non-finiteness (rung 1).
    pub duals_dropped: usize,
    /// Warm solves escalated to a cold resolve (rung 3).
    pub cold_solves: usize,
    /// Health of the last ADMM solve.
    pub last_health: Option<cms_psl::SolveHealth>,
    /// Degradation-ladder rungs taken during the run, in order.
    pub degradations: Vec<cms_obs::DegradationRung>,
    /// Whether the final solve converged (collective selector only).
    pub converged: Option<bool>,
    /// Ground term count of the final program (collective selector only).
    pub ground_terms: Option<usize>,
}

impl SelectionTelemetry {
    /// Render the legacy one-line `note` string for this telemetry.
    ///
    /// Reproduces the historical formats byte-for-byte: the collective
    /// selector's `admm_iters=…` line when
    /// [`converged`](SelectionTelemetry::converged) is set, the local-search
    /// `relaxation: …` line when only
    /// [`soft_objective`](SelectionTelemetry::soft_objective) is set,
    /// and an empty string otherwise.
    pub fn render_note(&self) -> String {
        if let Some(converged) = self.converged {
            let health = self
                .last_health
                .map(|h| h.to_string())
                .unwrap_or_else(|| "unknown".to_owned());
            return format!(
                "admm_iters={} converged={} ground_terms={} soft_obj={:.3} health={} restarts={}",
                self.admm_iterations,
                converged,
                self.ground_terms.unwrap_or(0),
                self.soft_objective.unwrap_or(f64::NAN),
                health,
                self.solver_restarts,
            );
        }
        let Some(soft) = self.soft_objective else {
            return String::new();
        };
        let health = self
            .last_health
            .map(|h| h.to_string())
            .unwrap_or_else(|| "unknown".to_owned());
        let mut note = format!(
            "relaxation: soft_obj={:.3} flips={} coalesced={} deduped={} terms_reused={} \
             terms_recomputed={} arith_spliced={} warm_iters={} duals_carried={} \
             fallback_grounds={} solver_restarts={} health={}",
            soft,
            self.flips,
            self.entries_coalesced,
            self.sources_deduped,
            self.terms_reused,
            self.terms_recomputed,
            self.arith_bindings_spliced,
            self.admm_iterations,
            self.dual_terms_carried,
            self.fallback_fresh_grounds,
            self.solver_restarts,
            health,
        );
        if !self.degradations.is_empty() {
            let reason = self
                .degradations
                .iter()
                .map(|r| r.render())
                .collect::<Vec<_>>()
                .join("; ");
            note.push_str(&format!(" degraded=\"{reason}\""));
        }
        note
    }
}

/// The result of running a selector.
#[derive(Clone, Debug)]
pub struct Selection {
    /// Selected candidate indices, sorted ascending.
    pub selected: Vec<usize>,
    /// Discrete objective value `F` of the selection on the given model.
    pub objective: f64,
    /// Number of discrete objective evaluations (search effort proxy).
    pub evaluations: usize,
    /// Selector-specific diagnostics (e.g. ADMM iterations), rendered
    /// from [`Selection::telemetry`] for selectors that track it.
    pub note: String,
    /// Structured diagnostics; default for purely combinatorial selectors.
    pub telemetry: SelectionTelemetry,
}

impl Selection {
    pub(crate) fn new(mut selected: Vec<usize>, objective: f64, evaluations: usize) -> Selection {
        selected.sort_unstable();
        selected.dedup();
        Selection {
            selected,
            objective,
            evaluations,
            note: String::new(),
            telemetry: SelectionTelemetry::default(),
        }
    }

    /// Attach telemetry and render the legacy `note` from it.
    pub(crate) fn with_telemetry(mut self, telemetry: SelectionTelemetry) -> Selection {
        self.note = telemetry.render_note();
        self.telemetry = telemetry;
        self
    }
}

/// A mapping-selection algorithm.
pub trait Selector {
    /// Human-readable name for tables.
    fn name(&self) -> &str;
    /// Choose a selection minimizing (approximately) the objective.
    /// Errors (e.g. a PSL grounding failure) propagate instead of
    /// aborting — purely combinatorial selectors never fail.
    fn select(
        &self,
        model: &CoverageModel,
        weights: &ObjectiveWeights,
    ) -> Result<Selection, SelectError>;
}

/// Candidates worth considering: everything except provably useless ones.
pub(crate) fn useful_candidates(model: &CoverageModel) -> Vec<usize> {
    let useless = model.useless_candidates();
    (0..model.num_candidates)
        .filter(|c| !useless.contains(c))
        .collect()
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::coverage::CoverageModel;
    use crate::objective::{Objective, ObjectiveWeights};
    use crate::reduction::{build_reduction, SetCoverInstance};

    /// A model where the optimum is known by construction: the set-cover
    /// reduction of a small instance (optimal covers {0,2} / {1,3}, F = 4).
    pub fn known_optimum_model() -> (CoverageModel, f64) {
        let sc = SetCoverInstance {
            universe: 4,
            sets: vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]],
            bound: 2,
        };
        let red = build_reduction(&sc);
        let model = CoverageModel::build(&red.source, &red.target, &red.candidates);
        let f = Objective::new(&model, ObjectiveWeights::unweighted());
        let best = f.value(&[0, 2]);
        (model, best)
    }

    /// The appendix running-example model (optimum = empty mapping, F=4).
    pub fn appendix_model() -> CoverageModel {
        let (_, _, i, j, cands) = crate::coverage::tests::running_example();
        CoverageModel::build(&i, &j, &cands)
    }
}
