//! The graded `covers` / `creates` semantics of objective Eq. (9).
//!
//! For each candidate θ we chase `I` to get `K_θ` and compare against the
//! target instance `J`:
//!
//! * `k ∈ K_θ` **matches** `t ∈ J` iff every constant position agrees
//!   ([`cms_data::tuple_match`]); the match induces a null assignment.
//! * A null assignment `n ↦ c` is **supported** iff another tuple of `K_θ`
//!   containing `n` matches some `J` tuple inducing the same assignment —
//!   the join evidence that lets an existential "borrow" a concrete value
//!   (this is what makes θ3 in the appendix explain `task(ML, Alice, 111)`
//!   to degree 3/3 while θ1 only reaches 2/3).
//! * `covers(θ, t)` = max over matching `k` of
//!   `(#constants + #supported nulls) / arity`.
//! * `k` with **no** match in `J` is an error (`creates` = 1).
//!
//! Scoring never scans `J` per tuple: each `K_θ` tuple probes postings
//! lists of `J` keyed by `(relation, column, constant)` and checks only the
//! shortest list among its constants (all of its relation's targets only
//! when it has no constant), and null support reads the matches the probe
//! already found. See `CoverageModel::from_solutions` for the cost.
//!
//! Nulls are never shared across candidates (the chase freshens them per
//! firing), so per-candidate computation is exact for any selection:
//! `explains(M, t) = max_{θ ∈ M} covers(θ, t)`, and error tuples union.
//! Ground error tuples identical across candidates are merged into one
//! error *group* charged once per selection, matching `Σ_{t ∈ K_C − J}` of
//! Eq. (1).

use cms_data::{FxHashMap, Instance, NullId, RelId, Tuple, Value};
use cms_tgd::{chase_one, core_of, ChaseEngine, ChaseError, ChaseStats, StTgd};
use std::collections::BTreeMap;
use std::ops::Range;

/// Options for coverage-model construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoverageOptions {
    /// Minimize each candidate's universal solution to its **core** before
    /// computing covers/creates. The paper evaluates on the canonical
    /// (non-minimized) solution — this switch is the ablation: redundant
    /// null-tuples produced by duplicate firings then stop inflating the
    /// error term. See `cms_tgd::core_of`.
    pub use_core: bool,
}

/// A group of identical created-but-unmatched tuples and its creators.
#[derive(Clone, Debug)]
pub struct ErrorGroup {
    /// Candidate indices that create this tuple.
    pub creators: Vec<usize>,
    /// A representative tuple (for diagnostics).
    pub example: Tuple,
}

/// Everything the objective needs, precomputed per candidate.
#[derive(Clone, Debug)]
pub struct CoverageModel {
    /// Number of candidates.
    pub num_candidates: usize,
    /// The target tuples of `J`, indexed.
    pub targets: Vec<Tuple>,
    /// `size(θ)` per candidate.
    pub sizes: Vec<usize>,
    /// Sparse per-candidate covers: `(target index, degree)` with
    /// degree > 0, at most one entry per target.
    pub covers: Vec<Vec<(usize, f64)>>,
    /// Error groups (tuples in `K_C` with no match in `J`).
    pub errors: Vec<ErrorGroup>,
    /// Per-candidate count of error groups it participates in.
    pub error_counts: Vec<usize>,
}

impl CoverageModel {
    /// Build the model by chasing each candidate over `source` and
    /// comparing against `target` (canonical solutions, as in the paper).
    pub fn build(source: &Instance, target: &Instance, candidates: &[StTgd]) -> CoverageModel {
        CoverageModel::build_with(source, target, candidates, &CoverageOptions::default())
    }

    /// Build with explicit [`CoverageOptions`].
    ///
    /// The per-candidate solutions come from one [`ChaseEngine`] pass over
    /// the shared body-prefix trie rather than a per-candidate
    /// `chase_one` loop; results are identical to
    /// [`CoverageModel::build_reference`] (nulls are engine-renamed, which
    /// covers/creates cannot observe).
    ///
    /// Panics — before chasing anything — if a candidate fails chase
    /// validation; use [`CoverageModel::try_build_with`] for a `Result`.
    pub fn build_with(
        source: &Instance,
        target: &Instance,
        candidates: &[StTgd],
        options: &CoverageOptions,
    ) -> CoverageModel {
        CoverageModel::try_build_with(source, target, candidates, options)
            .unwrap_or_else(|e| panic!("CoverageModel: invalid candidate tgd: {e}"))
    }

    /// Fallible [`CoverageModel::build_with`].
    pub fn try_build_with(
        source: &Instance,
        target: &Instance,
        candidates: &[StTgd],
        options: &CoverageOptions,
    ) -> Result<CoverageModel, ChaseError> {
        CoverageModel::build_with_stats(source, target, candidates, options).map(|(m, _)| m)
    }

    /// Reference implementation: per-candidate naive [`chase_one`] loop,
    /// kept for equivalence testing against the engine-backed build.
    pub fn build_reference(
        source: &Instance,
        target: &Instance,
        candidates: &[StTgd],
        options: &CoverageOptions,
    ) -> CoverageModel {
        let solutions = candidates
            .iter()
            .map(|tgd| chase_one(source, tgd))
            .collect();
        CoverageModel::from_solutions(target, candidates, solutions, options)
    }

    /// Engine-backed build that also reports the batch-chase work counters
    /// (prefix bindings computed vs reused, firings, trie size).
    pub fn build_with_stats(
        source: &Instance,
        target: &Instance,
        candidates: &[StTgd],
        options: &CoverageOptions,
    ) -> Result<(CoverageModel, ChaseStats), ChaseError> {
        let engine = ChaseEngine::new(candidates)?;
        let (solutions, stats) = engine.chase_all_stats(source);
        Ok((
            CoverageModel::from_solutions(target, candidates, solutions, options),
            stats,
        ))
    }

    /// Score precomputed per-candidate universal solutions against `target`.
    ///
    /// A `K_θ` tuple can only match targets that agree with it on every
    /// constant position, so each tuple probes a [`TargetIndex`] once: the
    /// shortest `(relation, column, constant)` postings list among its
    /// constant positions, or all of its relation's targets when it has
    /// none. The probe lists a subset of the relation's targets in
    /// ascending order and every listed target is still checked, so the
    /// matches are those of a scan of every same-relation target. The null
    /// support check reuses those matches: `n ↦ c` is supported for one
    /// tuple iff another tuple containing `n` has a match with `c` at `n`'s
    /// position, read from that tuple's sorted induced constants.
    ///
    /// Cost: building the index sorts each column of `J` once. Per `K_θ`
    /// tuple, one relation lookup and one binary search per constant
    /// position, plus a check of each target on the shortest list; per
    /// match, one binary search per null position. Nothing scans a whole
    /// relation unless the tuple has no constant.
    fn from_solutions(
        target: &Instance,
        candidates: &[StTgd],
        solutions: Vec<Instance>,
        options: &CoverageOptions,
    ) -> CoverageModel {
        debug_assert_eq!(candidates.len(), solutions.len());
        let _span = cms_obs::span("coverage/score");
        let targets: Vec<Tuple> = target
            .iter_all()
            .map(|(rel, row)| Tuple::new(rel, row.to_vec()))
            .collect();
        let index = TargetIndex::new(&targets);

        let mut covers: Vec<Vec<(usize, f64)>> = Vec::with_capacity(candidates.len());
        let mut ground_errors: BTreeMap<Tuple, Vec<usize>> = BTreeMap::new();
        let mut null_errors: Vec<ErrorGroup> = Vec::new();
        let mut sizes = Vec::with_capacity(candidates.len());
        // Per-candidate scratch, reused: the matching targets of each K_θ
        // tuple (tuple `ki`'s are `matches[match_end[ki - 1]..match_end[ki]]`),
        // the null occurrences `(null, tuple, induced range)` of tuples with
        // a match, and the sorted constants their matches induce.
        let mut matches: Vec<usize> = Vec::new();
        let mut match_end: Vec<usize> = Vec::new();
        let mut occurrences: Vec<(NullId, usize, usize, usize)> = Vec::new();
        let mut induced: Vec<Value> = Vec::new();
        // The current candidate's best degree per target, and the targets
        // whose degree it raised above 0 (reset after each candidate).
        let mut best = vec![0.0f64; targets.len()];
        let mut touched: Vec<usize> = Vec::new();

        for (cand_idx, (tgd, mut k)) in candidates.iter().zip(solutions).enumerate() {
            sizes.push(tgd.size());
            if options.use_core {
                k = core_of(&k);
            }
            let k_rows: Vec<(RelId, &[Value])> = k.iter_all().collect();
            matches.clear();
            match_end.clear();
            for &(rel, row) in &k_rows {
                let probed = index.probe(rel, row).iter();
                matches.extend(probed.filter(|&&ti| row_matches(row, &targets[ti].args)));
                match_end.push(matches.len());
            }
            let matches_of = |ki: usize| {
                let start = if ki == 0 { 0 } else { match_end[ki - 1] };
                &matches[start..match_end[ki]]
            };

            occurrences.clear();
            induced.clear();
            for (ki, &(_, row)) in k_rows.iter().enumerate() {
                for (pos, &v) in row.iter().enumerate() {
                    let Value::Null(n) = v else { continue };
                    if row[..pos].contains(&v) {
                        continue; // a match gives every position of n one value
                    }
                    let start = induced.len();
                    induced.extend(matches_of(ki).iter().map(|&ti| targets[ti].args[pos]));
                    if induced.len() > start {
                        induced[start..].sort_unstable();
                        occurrences.push((n, ki, start, induced.len()));
                    }
                }
            }
            occurrences.sort_unstable_by_key(|&(n, ki, ..)| (n, ki));
            // n ↦ c is supported for tuple `asking` iff another tuple
            // containing n matches a target that induces n ↦ c.
            let is_supported = |n: NullId, c: Value, asking: usize| -> bool {
                let first = occurrences.partition_point(|o| o.0 < n);
                occurrences[first..]
                    .iter()
                    .take_while(|o| o.0 == n)
                    .any(|&(_, ki, start, end)| {
                        ki != asking && induced[start..end].binary_search(&c).is_ok()
                    })
            };

            for (ki, &(rel, row)) in k_rows.iter().enumerate() {
                let matched = matches_of(ki);
                for &ti in matched {
                    // A matched null's induced constant is the target's
                    // value at any of its positions (they agree).
                    let hits = row
                        .iter()
                        .zip(&targets[ti].args)
                        .filter(|&(v, &tv)| match v {
                            Value::Const(_) => true,
                            Value::Null(n) => is_supported(*n, tv, ki),
                        })
                        .count();
                    let degree = (hits as f64 / row.len() as f64).min(1.0);
                    if degree > best[ti] {
                        if best[ti] == 0.0 {
                            touched.push(ti);
                        }
                        best[ti] = degree;
                    }
                }
                if matched.is_empty() {
                    let tuple = Tuple::new(rel, row.to_vec());
                    if tuple.is_ground() {
                        ground_errors.entry(tuple).or_default().push(cand_idx);
                    } else {
                        null_errors.push(ErrorGroup {
                            creators: vec![cand_idx],
                            example: tuple,
                        });
                    }
                }
            }
            touched.sort_unstable();
            covers.push(
                touched
                    .drain(..)
                    .map(|t| (t, std::mem::take(&mut best[t])))
                    .collect(),
            );
        }

        let mut errors: Vec<ErrorGroup> = ground_errors
            .into_iter()
            .map(|(example, mut creators)| {
                creators.sort_unstable();
                creators.dedup();
                ErrorGroup { creators, example }
            })
            .collect();
        errors.append(&mut null_errors);

        let mut error_counts = vec![0usize; candidates.len()];
        for g in &errors {
            for &c in &g.creators {
                error_counts[c] += 1;
            }
        }

        CoverageModel {
            num_candidates: candidates.len(),
            targets,
            sizes,
            covers,
            errors,
            error_counts,
        }
    }

    /// Number of target tuples.
    pub fn num_targets(&self) -> usize {
        self.targets.len()
    }

    /// Error groups per candidate, ascending group order: the candidate →
    /// group view of `errors`, derived in one O(model) pass. A creator
    /// listed twice in one group still maps to that group once.
    pub fn groups_by_candidate(&self) -> Vec<Vec<usize>> {
        let mut groups_of = vec![Vec::new(); self.num_candidates];
        for (g, group) in self.errors.iter().enumerate() {
            for &c in &group.creators {
                let list = &mut groups_of[c];
                if list.last() != Some(&g) {
                    list.push(g);
                }
            }
        }
        groups_of
    }

    /// `(candidate, degree)` pairs per target, ascending candidate order:
    /// the target → candidate view of `covers`, derived in one O(model)
    /// pass.
    pub fn covers_by_target(&self) -> Vec<Vec<(usize, f64)>> {
        let mut by_target = vec![Vec::new(); self.num_targets()];
        for (c, list) in self.covers.iter().enumerate() {
            for &(t, d) in list {
                by_target[t].push((c, d));
            }
        }
        by_target
    }

    /// Best cover of target `t` by candidate `c` (0 if none).
    ///
    /// A linear scan of `c`'s cover list, meant for tests and
    /// diagnostics; inner loops over many (candidate, target) pairs go
    /// through [`CoverageModel::covers_by_target`] instead.
    pub fn cover(&self, c: usize, t: usize) -> f64 {
        self.covers[c]
            .iter()
            .find(|&&(ti, _)| ti == t)
            .map_or(0.0, |&(_, d)| d)
    }

    /// Indices of targets no candidate covers at all ("certain
    /// unexplained", removable before optimization per §III-C).
    pub fn certainly_unexplained(&self) -> Vec<usize> {
        let mut covered = vec![false; self.targets.len()];
        for cand in &self.covers {
            for &(t, _) in cand {
                covered[t] = true;
            }
        }
        covered
            .iter()
            .enumerate()
            .filter(|(_, &c)| !c)
            .map(|(i, _)| i)
            .collect()
    }

    /// Candidates with no positive cover: they can only add errors and
    /// size, so no optimal selection includes them.
    pub fn useless_candidates(&self) -> Vec<usize> {
        (0..self.num_candidates)
            .filter(|&c| self.covers[c].is_empty())
            .collect()
    }
}

/// Target ids of `J` by relation, and postings `(relation, column,
/// constant) → target ids`, every list ascending. Built per scoring pass
/// and dropped with it.
struct TargetIndex {
    rels: FxHashMap<RelId, RelTargets>,
    /// Each relation's columns, one run per column sorted by `(value, id)`:
    /// a value's postings are the `ids` of its equal run of `values`.
    values: Vec<Value>,
    ids: Vec<usize>,
}

/// One relation's targets, ascending, and its column runs in
/// [`TargetIndex::values`] / [`TargetIndex::ids`].
struct RelTargets {
    targets: Vec<usize>,
    columns: Vec<Range<usize>>,
}

impl TargetIndex {
    fn new(targets: &[Tuple]) -> TargetIndex {
        let mut rels: FxHashMap<RelId, RelTargets> = FxHashMap::default();
        for (i, t) in targets.iter().enumerate() {
            rels.entry(t.rel)
                .or_insert_with(|| RelTargets {
                    targets: Vec::new(),
                    columns: Vec::new(),
                })
                .targets
                .push(i);
        }
        let (mut values, mut ids) = (Vec::new(), Vec::new());
        let mut run: Vec<(Value, usize)> = Vec::new();
        for rel in rels.values_mut() {
            let arity = rel.targets.iter().map(|&i| targets[i].arity()).max();
            for col in 0..arity.unwrap_or(0) {
                run.clear();
                run.extend(rel.targets.iter().filter_map(|&i| {
                    let args = &targets[i].args;
                    args.get(col).map(|&v| (v, i))
                }));
                run.sort_unstable();
                let start = values.len();
                values.extend(run.iter().map(|&(v, _)| v));
                ids.extend(run.iter().map(|&(_, i)| i));
                rel.columns.push(start..values.len());
            }
        }
        TargetIndex { rels, values, ids }
    }

    /// The targets `row` (a tuple of `rel`) can match, ascending: the
    /// shortest postings list among its constant positions (a match agrees
    /// with every one of them), or all of `rel`'s targets if it has none.
    fn probe(&self, rel: RelId, row: &[Value]) -> &[usize] {
        let Some(rel) = self.rels.get(&rel) else {
            return &[];
        };
        let mut shortest: Option<&[usize]> = None;
        for (col, &v) in row.iter().enumerate() {
            if v.is_null() {
                continue;
            }
            let Some(run) = rel.columns.get(col) else {
                return &[];
            };
            let values = &self.values[run.clone()];
            let lo = values.partition_point(|&x| x < v);
            let len = values[lo..].iter().take_while(|&&x| x == v).count();
            if len == 0 {
                return &[];
            }
            if shortest.is_none_or(|s| len < s.len()) {
                shortest = Some(&self.ids[run.start + lo..run.start + lo + len]);
            }
        }
        shortest.unwrap_or(&rel.targets)
    }
}

/// `tuple_match(k, t).is_some()` without building the assignment: equal
/// arity, every constant of `k` equal in `t`, `t` ground, and each
/// repeated null of `k` facing one value.
fn row_matches(k: &[Value], t: &[Value]) -> bool {
    k.len() == t.len()
        && (0..k.len()).all(|p| match (k[p], t[p]) {
            (Value::Const(a), Value::Const(b)) => a == b,
            (Value::Null(n), Value::Const(_)) => k[..p]
                .iter()
                .zip(t)
                .all(|(&kq, &tq)| kq != Value::Null(n) || tq == t[p]),
            (_, Value::Null(_)) => false,
        })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cms_data::Schema;
    use cms_tgd::parse_tgd;

    /// The paper's running example (appendix §I), reconstructed:
    ///   source: proj(name, code, firm), team(pcode, emp)
    ///   target: task(pname, emp, oid), org(oid, firm)
    ///   θ1: proj(x,c,f) & team(c,e) -> task(x,e,o)
    ///   θ3: proj(x,c,f) & team(c,e) -> task(x,e,o) & org(o,f)
    pub(crate) fn running_example() -> (Schema, Schema, Instance, Instance, Vec<StTgd>) {
        let mut src = Schema::new("s");
        src.add_relation("proj", &["name", "code", "firm"]);
        src.add_relation("team", &["pcode", "emp"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("task", &["pname", "emp", "oid"]);
        tgt.add_relation("org", &["oid", "firm"]);

        let mut i = Instance::new();
        let proj = src.rel_id("proj").unwrap();
        let team = src.rel_id("team").unwrap();
        i.insert_ground(proj, &["BigData", "7", "IBM"]);
        i.insert_ground(proj, &["ML", "9", "SAP"]);
        i.insert_ground(team, &["7", "Bob"]);
        i.insert_ground(team, &["9", "Alice"]);

        let mut j = Instance::new();
        let task = tgt.rel_id("task").unwrap();
        let org = tgt.rel_id("org").unwrap();
        j.insert_ground(task, &["ML", "Alice", "111"]);
        j.insert_ground(org, &["111", "SAP"]);
        // Two tuples no candidate explains (keeps |J| = 4 as in the
        // appendix's objective table).
        j.insert_ground(task, &["Web", "Carol", "333"]);
        j.insert_ground(org, &["444", "Oracle"]);

        let theta1 = parse_tgd("proj(x, c, f) & team(c, e) -> task(x, e, o)", &src, &tgt).unwrap();
        let theta3 = parse_tgd(
            "proj(x, c, f) & team(c, e) -> task(x, e, o) & org(o, f)",
            &src,
            &tgt,
        )
        .unwrap();
        (src, tgt, i, j, vec![theta1, theta3])
    }

    #[test]
    fn theta1_covers_two_thirds_unsupported_null() {
        let (_, tgt, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        let task = tgt.rel_id("task").unwrap();
        let ml_idx = model
            .targets
            .iter()
            .position(|t| t.rel == task && t.args[0] == Value::constant("ML"))
            .unwrap();
        assert!((model.cover(0, ml_idx) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn theta3_covers_fully_via_join_support() {
        let (_, tgt, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        let task = tgt.rel_id("task").unwrap();
        let org = tgt.rel_id("org").unwrap();
        let ml_idx = model
            .targets
            .iter()
            .position(|t| t.rel == task && t.args[0] == Value::constant("ML"))
            .unwrap();
        let org_idx = model
            .targets
            .iter()
            .position(|t| t.rel == org && t.args[0] == Value::constant("111"))
            .unwrap();
        assert!(
            (model.cover(1, ml_idx) - 1.0).abs() < 1e-12,
            "3/3 via supported null"
        );
        assert!(
            (model.cover(1, org_idx) - 1.0).abs() < 1e-12,
            "2/2 via supported null"
        );
    }

    #[test]
    fn error_counts_match_appendix() {
        let (_, _, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        // θ1 creates 1 error (BigData task); θ3 creates 2 (BigData task +
        // IBM org). Nulls keep them in distinct groups.
        assert_eq!(model.error_counts, vec![1, 2]);
        assert_eq!(model.errors.len(), 3);
    }

    #[test]
    fn sizes_match_appendix() {
        let (_, _, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        assert_eq!(model.sizes, vec![3, 4]);
    }

    #[test]
    fn certainly_unexplained_detects_junk_targets() {
        let (_, _, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        assert_eq!(model.certainly_unexplained().len(), 2);
    }

    #[test]
    fn ground_duplicate_errors_merge_across_candidates() {
        let mut src = Schema::new("s");
        src.add_relation("a", &["x"]);
        src.add_relation("b", &["x"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x"]);
        let c1 = parse_tgd("a(x) -> t(x)", &src, &tgt).unwrap();
        let c2 = parse_tgd("b(x) -> t(x)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(src.rel_id("a").unwrap(), &["v"]);
        i.insert_ground(src.rel_id("b").unwrap(), &["v"]);
        let j = Instance::new(); // everything is an error
        let model = CoverageModel::build(&i, &j, &[c1, c2]);
        // Both candidates create the *same* ground tuple t(v): one group,
        // two creators — charged once per Eq. (1)'s sum over K_C − J.
        assert_eq!(model.errors.len(), 1);
        assert_eq!(model.errors[0].creators, vec![0, 1]);
    }

    #[test]
    fn useless_candidates_have_no_covers() {
        let (_, _, i, j, mut cands) = running_example();
        // A candidate writing only junk no J tuple matches.
        let (src, tgt) = {
            let (s, t, _, _, _) = running_example();
            (s, t)
        };
        cands.push(parse_tgd("team(c, e) -> org(e, c)", &src, &tgt).unwrap());
        let model = CoverageModel::build(&i, &j, &cands);
        assert_eq!(model.useless_candidates(), vec![2]);
    }

    #[test]
    fn core_option_removes_redundant_errors() {
        // A tgd whose body ignores one column fires twice per "ML" value,
        // producing two pattern-identical error tuples; the core ablation
        // collapses them to one.
        let mut src = Schema::new("s");
        src.add_relation("a", &["x", "y"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x", "k"]);
        let tgd = parse_tgd("a(x, y) -> t(x, n)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(src.rel_id("a").unwrap(), &["ML", "1"]);
        i.insert_ground(src.rel_id("a").unwrap(), &["ML", "2"]);
        let j = Instance::new(); // everything is an error
        let canonical = CoverageModel::build(&i, &j, std::slice::from_ref(&tgd));
        assert_eq!(canonical.error_counts, vec![2], "two firings, two errors");
        let cored = CoverageModel::build_with(
            &i,
            &j,
            std::slice::from_ref(&tgd),
            &CoverageOptions { use_core: true },
        );
        assert_eq!(cored.error_counts, vec![1], "core collapses the duplicate");
    }

    #[test]
    fn null_support_spans_multiple_target_relations() {
        // a(x) -> t(x,n) & u(n) & w(n,x): one null threaded through three
        // target relations. Support for n ↦ c in any one relation comes
        // from the *other* relations' matches.
        let mut src = Schema::new("s");
        src.add_relation("a", &["x"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x", "k"]);
        tgt.add_relation("u", &["k"]);
        tgt.add_relation("w", &["k", "x"]);
        let tgd = parse_tgd("a(x) -> t(x, n) & u(n) & w(n, x)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(src.rel_id("a").unwrap(), &["v"]);

        // Full corroboration: every relation holds the consistent n ↦ c
        // image; all three covers are exact.
        let mut j = Instance::new();
        j.insert_ground(tgt.rel_id("t").unwrap(), &["v", "c"]);
        j.insert_ground(tgt.rel_id("u").unwrap(), &["c"]);
        j.insert_ground(tgt.rel_id("w").unwrap(), &["c", "v"]);
        let model = CoverageModel::build(&i, &j, std::slice::from_ref(&tgd));
        for t in 0..model.num_targets() {
            assert!(
                (model.cover(0, t) - 1.0).abs() < 1e-12,
                "target {t}: cross-relation support must make the cover exact"
            );
        }
        assert!(model.errors.is_empty());

        // Drop w from J: t and u still corroborate each other (support
        // only needs *one* other inducing occurrence), while the w tuple
        // becomes a null error.
        let mut j2 = Instance::new();
        j2.insert_ground(tgt.rel_id("t").unwrap(), &["v", "c"]);
        j2.insert_ground(tgt.rel_id("u").unwrap(), &["c"]);
        let model2 = CoverageModel::build(&i, &j2, std::slice::from_ref(&tgd));
        for t in 0..model2.num_targets() {
            assert!((model2.cover(0, t) - 1.0).abs() < 1e-12);
        }
        assert_eq!(
            model2.error_counts,
            vec![1],
            "unmatched w(n, v) is an error"
        );
        assert!(!model2.errors[0].example.is_ground());
    }

    #[test]
    fn conflicting_induced_assignments_are_not_support() {
        // a(x) -> t(x,n) & u(n,x): J induces n ↦ c1 from the t match but
        // n ↦ c2 from the u match. Conflicting assignments corroborate
        // nothing — both covers stay at the constant fraction 1/2.
        let mut src = Schema::new("s");
        src.add_relation("a", &["x"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x", "k"]);
        tgt.add_relation("u", &["k", "x"]);
        let tgd = parse_tgd("a(x) -> t(x, n) & u(n, x)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(src.rel_id("a").unwrap(), &["v"]);

        let mut j = Instance::new();
        j.insert_ground(tgt.rel_id("t").unwrap(), &["v", "c1"]);
        j.insert_ground(tgt.rel_id("u").unwrap(), &["c2", "v"]);
        let model = CoverageModel::build(&i, &j, std::slice::from_ref(&tgd));
        for t in 0..model.num_targets() {
            assert!(
                (model.cover(0, t) - 0.5).abs() < 1e-12,
                "target {t}: n ↦ c1 vs n ↦ c2 must not count as support"
            );
        }

        // Consistent assignments flip both covers to exact.
        let mut j_ok = Instance::new();
        j_ok.insert_ground(tgt.rel_id("t").unwrap(), &["v", "c"]);
        j_ok.insert_ground(tgt.rel_id("u").unwrap(), &["c", "v"]);
        let model_ok = CoverageModel::build(&i, &j_ok, std::slice::from_ref(&tgd));
        for t in 0..model_ok.num_targets() {
            assert!((model_ok.cover(0, t) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn use_core_can_retract_the_partially_covering_null_tuple() {
        // a(x) -> t(x,x) & t(x,e): the firing produces the ground t(v,v)
        // and the padded t(v,N); N retracts onto v, so the core drops the
        // null tuple. Against J = {t(v,w)} only t(v,N) matches (degree
        // 1/2) — coring therefore *lowers* the cover to 0 while the ground
        // error stays. The supported-null machinery must follow whichever
        // instance it is given.
        let mut src = Schema::new("s");
        src.add_relation("a", &["x"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x", "y"]);
        let tgd = parse_tgd("a(x) -> t(x, x) & t(x, e)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(src.rel_id("a").unwrap(), &["v"]);
        let mut j = Instance::new();
        j.insert_ground(tgt.rel_id("t").unwrap(), &["v", "w"]);

        let canonical = CoverageModel::build(&i, &j, std::slice::from_ref(&tgd));
        assert!((canonical.cover(0, 0) - 0.5).abs() < 1e-12);
        assert_eq!(canonical.error_counts, vec![1], "ground t(v,v) is an error");

        let cored = CoverageModel::build_with(
            &i,
            &j,
            std::slice::from_ref(&tgd),
            &CoverageOptions { use_core: true },
        );
        assert_eq!(cored.cover(0, 0), 0.0, "core dropped the covering tuple");
        assert_eq!(cored.error_counts, vec![1]);

        // When J matches the ground tuple exactly, coring is lossless:
        // cover stays exact and nothing becomes an error.
        let mut j_exact = Instance::new();
        j_exact.insert_ground(tgt.rel_id("t").unwrap(), &["v", "v"]);
        for options in [
            CoverageOptions::default(),
            CoverageOptions { use_core: true },
        ] {
            let model =
                CoverageModel::build_with(&i, &j_exact, std::slice::from_ref(&tgd), &options);
            assert!(
                (model.cover(0, 0) - 1.0).abs() < 1e-12,
                "use_core={}",
                options.use_core
            );
            assert!(model.errors.is_empty(), "use_core={}", options.use_core);
        }
    }

    #[test]
    fn engine_and_reference_builds_agree_on_running_example() {
        let (_, _, i, j, cands) = running_example();
        let engine = CoverageModel::build(&i, &j, &cands);
        let reference = CoverageModel::build_reference(&i, &j, &cands, &CoverageOptions::default());
        assert_eq!(engine.covers, reference.covers);
        assert_eq!(engine.sizes, reference.sizes);
        assert_eq!(engine.error_counts, reference.error_counts);
        assert_eq!(engine.errors.len(), reference.errors.len());
    }

    #[test]
    fn adjacency_views_invert_covers_and_errors() {
        let (_, _, i, j, cands) = running_example();
        let model = CoverageModel::build(&i, &j, &cands);
        let groups_of = model.groups_by_candidate();
        for (c, groups) in groups_of.iter().enumerate() {
            assert!(groups.windows(2).all(|w| w[0] < w[1]), "ascending");
            assert_eq!(groups.len(), model.error_counts[c]);
            for &g in groups {
                assert!(model.errors[g].creators.contains(&c));
            }
        }
        let by_target = model.covers_by_target();
        for (t, pairs) in by_target.iter().enumerate() {
            assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
            for c in 0..model.num_candidates {
                let d = pairs.iter().find(|&&(ci, _)| ci == c).map_or(0.0, |p| p.1);
                assert_eq!(d, model.cover(c, t));
            }
        }
    }

    /// A value from a small pool: constants `c0..c2` or nulls `N0..N2`.
    fn pooled(is_const: bool, i: u32) -> Value {
        if is_const {
            Value::constant(&format!("c{i}"))
        } else {
            Value::Null(NullId(i))
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// `k` is half nulls; `t` is mostly ground, and one time in eight
        /// a column shorter.
        #[test]
        fn row_matches_agrees_with_tuple_match(
            cols in proptest::collection::vec(((0u32..2, 0u32..3), (0u32..10, 0u32..3)), 0..5),
            trim in 0u32..8,
        ) {
            let k: Vec<Value> = cols.iter().map(|&((kind, i), _)| pooled(kind == 0, i)).collect();
            let mut t: Vec<Value> = cols.iter().map(|&(_, (kind, i))| pooled(kind != 0, i)).collect();
            if trim == 0 {
                t.pop();
            }
            proptest::prop_assert_eq!(
                row_matches(&k, &t),
                cms_data::tuple_match(&k, &t).is_some()
            );
        }
    }

    #[test]
    fn full_tgd_ground_cover_is_exact() {
        let mut src = Schema::new("s");
        src.add_relation("a", &["x", "y"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x", "y"]);
        let c = parse_tgd("a(x, y) -> t(x, y)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(src.rel_id("a").unwrap(), &["p", "q"]);
        let mut j = Instance::new();
        j.insert_ground(tgt.rel_id("t").unwrap(), &["p", "q"]);
        let model = CoverageModel::build(&i, &j, &[c]);
        assert_eq!(model.cover(0, 0), 1.0);
        assert!(model.errors.is_empty());
    }
}
