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
//! Nulls are never shared across candidates (the chase freshens them per
//! firing), so per-candidate computation is exact for any selection:
//! `explains(M, t) = max_{θ ∈ M} covers(θ, t)`, and error tuples union.
//! Ground error tuples identical across candidates are merged into one
//! error *group* charged once per selection, matching `Σ_{t ∈ K_C − J}` of
//! Eq. (1).

use cms_data::{tuple_match, FxHashMap, Instance, NullId, Tuple, Value};
use cms_tgd::{chase_one, core_of, ChaseEngine, ChaseError, ChaseStats, StTgd};
use std::collections::BTreeMap;

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
    fn from_solutions(
        target: &Instance,
        candidates: &[StTgd],
        solutions: Vec<Instance>,
        options: &CoverageOptions,
    ) -> CoverageModel {
        debug_assert_eq!(candidates.len(), solutions.len());
        let targets: Vec<Tuple> = target
            .iter_all()
            .map(|(rel, row)| Tuple::new(rel, row.to_vec()))
            .collect();
        // Target index per relation for fast match lookup.
        let mut by_rel: FxHashMap<cms_data::RelId, Vec<usize>> = FxHashMap::default();
        for (i, t) in targets.iter().enumerate() {
            by_rel.entry(t.rel).or_default().push(i);
        }

        let mut covers: Vec<Vec<(usize, f64)>> = Vec::with_capacity(candidates.len());
        let mut ground_errors: BTreeMap<Tuple, Vec<usize>> = BTreeMap::new();
        let mut null_errors: Vec<ErrorGroup> = Vec::new();
        let mut sizes = Vec::with_capacity(candidates.len());

        for (cand_idx, (tgd, mut k)) in candidates.iter().zip(solutions).enumerate() {
            sizes.push(tgd.size());
            if options.use_core {
                k = core_of(&k);
            }
            let k_tuples: Vec<Tuple> = k
                .iter_all()
                .map(|(rel, row)| Tuple::new(rel, row.to_vec()))
                .collect();
            // Occurrences of each null across K_θ.
            let mut null_occurrences: FxHashMap<NullId, Vec<usize>> = FxHashMap::default();
            for (ki, kt) in k_tuples.iter().enumerate() {
                for v in &kt.args {
                    if let Some(n) = v.as_null() {
                        null_occurrences.entry(n).or_default().push(ki);
                    }
                }
            }
            // Support cache: is n ↦ c corroborated by a tuple other than
            // the asking one? Support is a property of (n, c) pairs plus
            // the asking tuple; since occurrences lists are tiny we check
            // directly with an exclusion index.
            let mut support_cache: FxHashMap<(NullId, Value, usize), bool> = FxHashMap::default();
            let mut is_supported = |n: NullId,
                                    c: Value,
                                    asking: usize,
                                    k_tuples: &[Tuple],
                                    null_occurrences: &FxHashMap<NullId, Vec<usize>>|
             -> bool {
                if let Some(&cached) = support_cache.get(&(n, c, asking)) {
                    return cached;
                }
                let mut supported = false;
                if let Some(occs) = null_occurrences.get(&n) {
                    'outer: for &other in occs {
                        if other == asking {
                            continue;
                        }
                        let kt = &k_tuples[other];
                        for ti in by_rel.get(&kt.rel).map_or(&[][..], Vec::as_slice) {
                            if let Some(assignment) = tuple_match(&kt.args, &targets[*ti].args) {
                                if assignment.get(&n) == Some(&c) {
                                    supported = true;
                                    break 'outer;
                                }
                            }
                        }
                    }
                }
                support_cache.insert((n, c, asking), supported);
                supported
            };

            let mut cand_covers: FxHashMap<usize, f64> = FxHashMap::default();
            for (ki, kt) in k_tuples.iter().enumerate() {
                let mut matched = false;
                for ti in by_rel.get(&kt.rel).map_or(&[][..], Vec::as_slice) {
                    let t = &targets[*ti];
                    let Some(assignment) = tuple_match(&kt.args, &t.args) else {
                        continue;
                    };
                    matched = true;
                    let arity = kt.arity() as f64;
                    let mut hits = 0usize;
                    for (pos, v) in kt.args.iter().enumerate() {
                        match v {
                            Value::Const(_) => hits += 1,
                            Value::Null(n) => {
                                // Invariant: `assignment` came from
                                // `tuple_match(&kt.args, ..)`, which maps
                                // *every* null position of `kt.args` (the
                                // slice `n` is drawn from) or returns
                                // `None` — so the lookup cannot miss.
                                let c = *assignment.get(n).expect("matched null has assignment");
                                debug_assert_eq!(c, t.args[pos]);
                                if is_supported(*n, c, ki, &k_tuples, &null_occurrences) {
                                    hits += 1;
                                }
                            }
                        }
                    }
                    let degree = (hits as f64 / arity).min(1.0);
                    let entry = cand_covers.entry(*ti).or_insert(0.0);
                    if degree > *entry {
                        *entry = degree;
                    }
                }
                if !matched {
                    if kt.is_ground() {
                        ground_errors.entry(kt.clone()).or_default().push(cand_idx);
                    } else {
                        null_errors.push(ErrorGroup {
                            creators: vec![cand_idx],
                            example: kt.clone(),
                        });
                    }
                }
            }
            let mut list: Vec<(usize, f64)> =
                cand_covers.into_iter().filter(|&(_, d)| d > 0.0).collect();
            list.sort_by_key(|&(t, _)| t);
            covers.push(list);
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
