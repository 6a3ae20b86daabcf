//! The four workloads: their scenario families, one op each, and the
//! checks every op's output must pass.

use crate::trace::{Tracer, OP};
use cms_candgen::generate_candidates;
use cms_ibench::{generate, NoiseConfig, Scenario, ScenarioConfig};
use cms_select::{
    data_prf, evaluate_scenario, learn_weights, mapping_prf, preprocess, BranchBound,
    CoverageModel, CoverageOptions, Greedy, LearnMetric, LearnedWeights, LocalSearch, Objective,
    ObjectiveWeights, PslCollective, Selection, SelectionOutcome, Selector, WeightGrid,
};
use cms_tgd::{canonical_key, ChaseEngine, StTgd};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's PSL selector at `all_primitives(16)`: fresh grounding,
    /// cold ADMM, rounding and greedy repair.
    CollectiveS16,
    /// Default local search at `all_primitives(4)`: the relaxation mirror
    /// drives delta regrounding and warm ADMM after each climb.
    LocalSearchS4,
    /// Grid-search weight learning over two `all_primitives(2)` scenarios
    /// with greedy selection: coverage, chase and data F1, no ADMM.
    LearnS2,
    /// Exact branch-and-bound at `all_primitives(2)`.
    ExactS2,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::CollectiveS16,
        Workload::LocalSearchS4,
        Workload::LearnS2,
        Workload::ExactS2,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CollectiveS16 => "collective-s16",
            Workload::LocalSearchS4 => "localsearch-s4",
            Workload::LearnS2 => "learn-s2",
            Workload::ExactS2 => "exact-s2",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops in one pass over the seed set. Per-scenario cost varies with
    /// the seed, so each pass averages over enough scenarios that runs
    /// with different seeds agree.
    pub(crate) fn ops_per_pass(self) -> usize {
        match self {
            Workload::CollectiveS16 => 10,
            Workload::LocalSearchS4 => 16,
            Workload::LearnS2 => 16,
            Workload::ExactS2 => 192,
        }
    }

    fn scenarios_per_op(self) -> usize {
        match self {
            Workload::LearnS2 => 2,
            _ => 1,
        }
    }

    fn config(self, seed: u64) -> ScenarioConfig {
        // Exact search is exponential in the useful candidates; at 25%
        // noise one `all_primitives(2)` scenario takes 0.6–3.3 s, too few
        // per run to average out. 10% noise keeps the search dominant at
        // tens of milliseconds per scenario.
        let (scale, noise) = match self {
            Workload::CollectiveS16 => (16, 25.0),
            Workload::LocalSearchS4 => (4, 25.0),
            Workload::LearnS2 => (2, 25.0),
            Workload::ExactS2 => (2, 10.0),
        };
        ScenarioConfig {
            noise: NoiseConfig::uniform(noise),
            seed,
            ..ScenarioConfig::all_primitives(scale)
        }
    }

    fn selector(self) -> Box<dyn Selector> {
        match self {
            Workload::CollectiveS16 => Box::new(PslCollective::default()),
            Workload::LocalSearchS4 => Box::new(LocalSearch::default()),
            Workload::LearnS2 => Box::new(Greedy),
            Workload::ExactS2 => Box::new(BranchBound::default()),
        }
    }

    /// Generator seeds of op `index`'s scenarios under benchmark seed `seed`.
    fn scenario_seeds(self, seed: u64, index: usize) -> Vec<u64> {
        let per = self.scenarios_per_op();
        (0..per)
            .map(|j| {
                let stream = ((self as u64) << 32) | (index * per + j) as u64;
                splitmix64(seed ^ splitmix64(stream))
            })
            .collect()
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a, for digests that must repeat across runs and builds.
#[derive(Clone, Copy)]
pub(crate) struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix in one word.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// The scenarios of one op.
pub(crate) struct Case {
    scenarios: Vec<Scenario>,
}

impl Case {
    /// Generate op `index`'s scenarios.
    pub fn generate(w: Workload, seed: u64, index: usize) -> Case {
        Case {
            scenarios: w
                .scenario_seeds(seed, index)
                .into_iter()
                .map(|s| generate(&w.config(s)))
                .collect(),
        }
    }
}

/// What one successful op produced.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OpOutput {
    /// Digest of the selection (or learned weights) and its scores.
    pub digest: u64,
    /// Mapping F1 (learn: the learned weights' training score).
    pub map_f1: f64,
    /// Data F1.
    pub data_f1: f64,
    /// Selection objective, preprocessing constant included.
    pub objective: f64,
    /// Gold mapping's objective under the same weights.
    pub gold_objective: f64,
}

/// Reference data for one op, computed once in set-up outside any timing.
pub(crate) struct CaseRef {
    /// Canonical keys of the candidates candgen produced for the scenario.
    cand_keys: Vec<String>,
    /// Per scenario: preprocessed model and its certainly-unexplained count.
    reduced: Vec<(CoverageModel, usize)>,
    /// Objective no correct selection may exceed (greedy, and for exact
    /// search also local search).
    bound: Option<f64>,
    /// Output of the op's first run; every later run must repeat it.
    first: Option<OpOutput>,
}

impl CaseRef {
    /// Build the reference for `case`.
    pub fn new(w: Workload, case: &Case) -> CaseRef {
        let weights = ObjectiveWeights::unweighted();
        let reduced: Vec<(CoverageModel, usize)> = case
            .scenarios
            .iter()
            .map(|s| {
                let model = CoverageModel::build(&s.source, &s.target, &s.candidates);
                let (reduced, report) = preprocess(&model);
                (reduced, report.certain_unexplained)
            })
            .collect();
        let s = &case.scenarios[0];
        let generated = s.candidates.len() - s.stats.gold_missing_from_candgen;
        let cand_keys = s.candidates[..generated]
            .iter()
            .map(canonical_key)
            .collect();
        let (model, unexplained) = &reduced[0];
        let objective_of = |sel: &dyn Selector| -> Option<f64> {
            let selection = sel.select(model, &weights).ok()?;
            Some(selection.objective + weights.w_explain * *unexplained as f64)
        };
        let bound = match w {
            Workload::CollectiveS16 | Workload::LocalSearchS4 => objective_of(&Greedy),
            Workload::ExactS2 => {
                let greedy = objective_of(&Greedy);
                let local = objective_of(&LocalSearch::default());
                greedy.zip(local).map(|(g, l)| g.min(l))
            }
            Workload::LearnS2 => None,
        };
        CaseRef {
            cand_keys,
            reduced,
            bound,
            first: None,
        }
    }

    /// Require `out` to repeat the op's first output exactly.
    fn repeat(&mut self, out: OpOutput) -> Result<OpOutput, String> {
        match self.first {
            None => {
                self.first = Some(out);
                Ok(out)
            }
            Some(first) if first.digest == out.digest => Ok(out),
            Some(first) => Err(format!(
                "digest {:016x} differs from the first run's {:016x}",
                out.digest, first.digest
            )),
        }
    }

    /// The op's first output.
    pub(crate) fn first(&self) -> Option<OpOutput> {
        self.first
    }

    fn check_objective(
        &self,
        i: usize,
        selection: &Selection,
        weights: &ObjectiveWeights,
    ) -> Result<(), String> {
        let (model, unexplained) = &self.reduced[i];
        let want = Objective::new(model, *weights).value(&selection.selected)
            + weights.w_explain * *unexplained as f64;
        if (selection.objective - want).abs() > 1e-9 * want.abs().max(1.0) {
            return Err(format!(
                "objective {} but the selected set scores {want}",
                selection.objective
            ));
        }
        Ok(())
    }

    fn check_bound(&self, objective: f64) -> Result<(), String> {
        match self.bound {
            Some(bound) if objective > bound + 1e-9 * bound.abs().max(1.0) => Err(format!(
                "objective {objective} is worse than the reference selectors' {bound}"
            )),
            _ => Ok(()),
        }
    }

    fn check_candidates(&self, cands: &[StTgd]) -> Result<(), String> {
        let keys: Vec<String> = cands.iter().map(canonical_key).collect();
        if keys != self.cand_keys {
            return Err(format!(
                "candgen produced {} candidates that differ from the scenario's {}",
                keys.len(),
                self.cand_keys.len()
            ));
        }
        Ok(())
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .map_or("panic".to_owned(), |m| format!("panic: {m}"))
}

fn selection_digest(selection: &Selection, map_f1: f64, data_f1: f64) -> u64 {
    let mut d = Digest::default();
    for &c in &selection.selected {
        d.u64(c as u64);
    }
    d.f64(selection.objective);
    d.f64(map_f1);
    d.f64(data_f1);
    d.0
}

fn learned_digest(l: &LearnedWeights) -> u64 {
    let mut d = Digest::default();
    d.f64(l.weights.w_explain);
    d.f64(l.weights.w_error);
    d.f64(l.weights.w_size);
    d.f64(l.train_score);
    d.f64(l.default_score);
    d.u64(l.evaluated as u64);
    d.0
}

/// Run one untraced op: time it, then check its output outside the timing.
pub(crate) fn run_op(
    w: Workload,
    case: &Case,
    r: &mut CaseRef,
) -> (Duration, Result<OpOutput, String>) {
    let scenarios = &case.scenarios;
    match w {
        Workload::LearnS2 => {
            let start = Instant::now();
            let res = catch_unwind(AssertUnwindSafe(|| {
                learn_weights(
                    scenarios,
                    &Greedy,
                    &WeightGrid::default(),
                    LearnMetric::MappingF1,
                )
            }));
            let took = start.elapsed();
            let out = match res {
                Err(p) => Err(panic_message(p)),
                Ok(Err(e)) => Err(e.to_string()),
                Ok(Ok(learned)) => check_learned(scenarios, r, &learned),
            };
            (took, out)
        }
        _ => {
            let s = &scenarios[0];
            let selector = w.selector();
            let start = Instant::now();
            let res = catch_unwind(AssertUnwindSafe(|| {
                let cands = generate_candidates(
                    &s.source_schema,
                    &s.target_schema,
                    &s.correspondences,
                    &s.config.candgen,
                );
                let outcome =
                    evaluate_scenario(s, selector.as_ref(), &ObjectiveWeights::unweighted());
                (cands, outcome)
            }));
            let took = start.elapsed();
            let out = match res {
                Err(p) => Err(panic_message(p)),
                Ok((_, Err(e))) => Err(e.to_string()),
                Ok((cands, Ok(outcome))) => check_selection(r, &cands, &outcome),
            };
            (took, out)
        }
    }
}

fn check_selection(
    r: &mut CaseRef,
    cands: &[StTgd],
    outcome: &SelectionOutcome,
) -> Result<OpOutput, String> {
    r.check_candidates(cands)?;
    r.check_objective(0, &outcome.selection, &ObjectiveWeights::unweighted())?;
    r.check_bound(outcome.selection.objective)?;
    r.repeat(OpOutput {
        digest: selection_digest(&outcome.selection, outcome.mapping.f1, outcome.data.f1),
        map_f1: outcome.mapping.f1,
        data_f1: outcome.data.f1,
        objective: outcome.selection.objective,
        gold_objective: outcome.gold_objective,
    })
}

/// Re-evaluate the learned weights: their mean mapping F1 must be the
/// reported training score, and never below the default weights' score.
fn check_learned(
    scenarios: &[Scenario],
    r: &mut CaseRef,
    learned: &LearnedWeights,
) -> Result<OpOutput, String> {
    if learned.train_score < learned.default_score - 1e-12 {
        return Err(format!(
            "learned score {} below the default weights' {}",
            learned.train_score, learned.default_score
        ));
    }
    let grid = WeightGrid::default().combinations().len();
    if learned.evaluated != grid {
        return Err(format!(
            "learning evaluated {} of {grid} grid points",
            learned.evaluated
        ));
    }
    let n = scenarios.len() as f64;
    let (mut map, mut data, mut obj, mut gold) = (0.0, 0.0, 0.0, 0.0);
    for (i, s) in scenarios.iter().enumerate() {
        let o = evaluate_scenario(s, &Greedy, &learned.weights).map_err(|e| e.to_string())?;
        r.check_objective(i, &o.selection, &learned.weights)?;
        map += o.mapping.f1;
        data += o.data.f1;
        obj += o.selection.objective;
        gold += o.gold_objective;
    }
    if (map / n - learned.train_score).abs() > 1e-12 {
        return Err(format!(
            "learned weights score {} on re-evaluation, learning reported {}",
            map / n,
            learned.train_score
        ));
    }
    r.repeat(OpOutput {
        digest: learned_digest(learned),
        map_f1: learned.train_score,
        data_f1: data / n,
        objective: obj / n,
        gold_objective: gold / n,
    })
}

/// Work counters gathered by traced ops, summed over ops.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Candidates candgen produced.
    pub candidates: u64,
    /// Target tuples of the coverage models built.
    pub coverage_targets: u64,
    /// Target tuples preprocessing removed as certainly unexplained.
    pub targets_removed: u64,
    /// Chase firings during coverage builds.
    pub chase_firings: u64,
    /// Chase prefix bindings computed.
    pub chase_computed: u64,
    /// Chase prefix bindings reused through the body-prefix trie.
    pub chase_reused: u64,
    /// Ground potentials plus constraints of the PSL program.
    pub ground_terms: u64,
    /// ADMM iterations of the inference probes.
    pub admm_iterations: u64,
    /// Inference probes run.
    pub infer_runs: u64,
    /// Inference probes whose solve converged.
    pub infer_converged: u64,
    /// Discrete objective evaluations reported by the selectors.
    pub evaluations: u64,
    /// Branch-and-bound nodes.
    pub bb_evaluations: u64,
    /// Flips mirrored into the warm relaxation.
    pub flips: u64,
    /// Ground terms the regrounds reused.
    pub terms_reused: u64,
    /// Ground terms the regrounds recomputed.
    pub terms_recomputed: u64,
    /// Warm ADMM iterations of the relaxation mirror.
    pub warm_iters: u64,
    /// Weight combinations evaluated by learning.
    pub grid_points: u64,
}

/// A staged evaluation's result, with the preprocessed model the probes use.
struct Staged {
    selection: Selection,
    map_f1: f64,
    data_f1: f64,
    reduced: CoverageModel,
}

/// The stages of `evaluate_scenario`, each timed as a child of `parent`.
fn staged_evaluate(
    tr: &mut Tracer,
    parent: usize,
    op: usize,
    c: &mut Counters,
    s: &Scenario,
    selector: &dyn Selector,
    weights: &ObjectiveWeights,
) -> Result<Staged, String> {
    let (model, chase) = tr
        .stage("coverage", parent, op, || {
            CoverageModel::build_with_stats(
                &s.source,
                &s.target,
                &s.candidates,
                &CoverageOptions::default(),
            )
        })
        .map_err(|e| format!("coverage build: {e}"))?;
    let (reduced, report) = tr.stage("preprocess", parent, op, || preprocess(&model));
    let constant = weights.w_explain * report.certain_unexplained as f64;
    let mut selection = tr
        .stage("select", parent, op, || selector.select(&reduced, weights))
        .map_err(|e| e.to_string())?;
    selection.objective += constant;
    // The gold objective is part of `evaluate_scenario`; it belongs to no
    // layer and counts as unattributed time.
    black_box(Objective::new(&reduced, *weights).value(&s.gold) + constant);
    let (mapping, data) = tr.stage("metrics", parent, op, || {
        (
            mapping_prf(&selection.selected, &s.gold),
            data_prf(&s.source, &s.candidates, &selection.selected, &s.gold),
        )
    });
    c.coverage_targets += model.num_targets() as u64;
    c.targets_removed += report.certain_unexplained as u64;
    c.chase_firings += chase.firings as u64;
    c.chase_computed += chase.prefix_bindings_computed as u64;
    c.chase_reused += chase.prefix_bindings_reused as u64;
    c.evaluations += selection.evaluations as u64;
    Ok(Staged {
        selection,
        map_f1: mapping.f1,
        data_f1: data.f1,
        reduced,
    })
}

fn chase_probe(tr: &mut Tracer, op: usize, s: &Scenario) {
    tr.probe("probe.chase", op, || {
        let engine = ChaseEngine::new(&s.candidates)
            .expect("candidates passed chase validation in the coverage build");
        black_box(engine.chase_all_stats(&s.source));
    });
}

/// Run one op stage by stage under the tracer, then its probes, and check
/// that it reproduces the untraced op's output.
pub(crate) fn run_traced_op(
    w: Workload,
    case: &Case,
    r: &mut CaseRef,
    tr: &mut Tracer,
    op: usize,
    c: &mut Counters,
) -> Result<(), String> {
    let res = catch_unwind(AssertUnwindSafe(|| match w {
        Workload::LearnS2 => traced_learn(case, tr, op, c),
        _ => traced_selection(w, case, tr, op, c),
    }));
    tr.finish_op(op);
    let digest = match res {
        Err(p) => return Err(panic_message(p)),
        Ok(out) => out?,
    };
    match r.first().map(|o| o.digest) {
        Some(first) if first != digest => Err(format!(
            "traced op digest {digest:016x} differs from the untraced {first:016x}"
        )),
        _ => Ok(()),
    }
}

fn traced_selection(
    w: Workload,
    case: &Case,
    tr: &mut Tracer,
    op: usize,
    c: &mut Counters,
) -> Result<u64, String> {
    let s = &case.scenarios[0];
    let selector = w.selector();
    let weights = ObjectiveWeights::unweighted();
    let root = tr.open(OP, None, op);
    let cands = tr.stage("candgen", root, op, || {
        generate_candidates(
            &s.source_schema,
            &s.target_schema,
            &s.correspondences,
            &s.config.candgen,
        )
    });
    let staged = staged_evaluate(tr, root, op, c, s, selector.as_ref(), &weights);
    tr.close(root);
    let Staged {
        selection,
        map_f1,
        data_f1,
        reduced,
    } = staged?;
    c.candidates += cands.len() as u64;

    chase_probe(tr, op, s);
    match w {
        Workload::CollectiveS16 => {
            let psl = PslCollective::default();
            let ground = tr
                .probe("probe.psl.ground", op, || {
                    psl.build_program(&reduced, &weights).0.ground()
                })
                .map_err(|e| e.to_string())?;
            c.ground_terms += (ground.potentials.len() + ground.constraints.len()) as u64;
            drop(ground);
            let run = tr
                .probe("probe.psl.infer", op, || psl.infer(&reduced, &weights))
                .map_err(|e| e.to_string())?;
            c.admm_iterations += run.iterations as u64;
            c.infer_runs += 1;
            c.infer_converged += u64::from(run.converged);
        }
        Workload::LocalSearchS4 => {
            let climb = LocalSearch {
                track_relaxation: false,
                ..LocalSearch::default()
            };
            let untracked = tr
                .probe("probe.local_search.climb", op, || {
                    climb.select(&reduced, &weights)
                })
                .map_err(|e| e.to_string())?;
            if untracked.selected != selection.selected {
                return Err(
                    "local search selects differently without the relaxation mirror".to_owned(),
                );
            }
            let t = &selection.telemetry;
            c.flips += t.flips as u64;
            c.terms_reused += t.terms_reused as u64;
            c.terms_recomputed += t.terms_recomputed as u64;
            c.warm_iters += t.admm_iterations as u64;
        }
        Workload::ExactS2 => c.bb_evaluations += selection.evaluations as u64,
        Workload::LearnS2 => unreachable!("learning is traced by traced_learn"),
    }
    Ok(selection_digest(&selection, map_f1, data_f1))
}

/// `learn_weights` replayed as its grid of staged evaluations, with the
/// same scoring and tie-breaking.
fn traced_learn(case: &Case, tr: &mut Tracer, op: usize, c: &mut Counters) -> Result<u64, String> {
    let scenarios = &case.scenarios;
    let root = tr.open(OP, None, op);
    let score_of = |tr: &mut Tracer, c: &mut Counters, weights: &ObjectiveWeights| {
        let mut total = 0.0;
        for s in scenarios {
            let eval = tr.open("learn.evaluate", Some(root), op);
            let staged = staged_evaluate(tr, eval, op, c, s, &Greedy, weights)?;
            tr.close(eval);
            total += staged.map_f1;
        }
        Ok::<f64, String>(total / scenarios.len() as f64)
    };
    let default = ObjectiveWeights::unweighted();
    let default_score = score_of(tr, c, &default)?;
    let mut best = (default, default_score);
    let mut evaluated = 1usize;
    for weights in WeightGrid::default().combinations() {
        if weights == default {
            continue;
        }
        let score = score_of(tr, c, &weights)?;
        evaluated += 1;
        if score > best.1 + 1e-12 {
            best = (weights, score);
        }
    }
    tr.close(root);
    c.grid_points += evaluated as u64;
    for _ in 0..evaluated {
        for s in scenarios {
            chase_probe(tr, op, s);
        }
    }
    Ok(learned_digest(&LearnedWeights {
        weights: best.0,
        train_score: best.1,
        default_score,
        evaluated,
    }))
}
