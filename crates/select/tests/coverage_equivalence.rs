//! `CoverageModel` scoring against a test-local brute-force scorer: the
//! per-candidate reference chase, then a scan of every same-relation target
//! with `tuple_match`, for covers and for null support alike. This is the
//! scoring the postings probe replaced (`CoverageModel::build_reference`
//! shares the library's scoring pass, so it cannot serve as the oracle).
//! Covers, error groups (creators and example tuples, in order), sizes and
//! error counts must agree exactly.
//!
//! The reference chase is `chase_one_canonical`, which matches the batched
//! engine bit for bit, null ids included, so even null error examples
//! compare exactly.

use cms_data::{tuple_match, FxHashMap, Instance, NullId, RelId, Schema, Tuple, Value};
use cms_ibench::{generate, NoiseConfig, ScenarioConfig};
use cms_select::{CoverageModel, CoverageOptions};
use cms_tgd::{chase_one_canonical, core_of, parse_tgd, StTgd};
use std::collections::BTreeMap;

/// What the selectors read from a model, in model order.
#[derive(Debug, PartialEq)]
struct Scored {
    covers: Vec<Vec<(usize, f64)>>,
    errors: Vec<(Vec<usize>, Tuple)>,
    sizes: Vec<usize>,
    error_counts: Vec<usize>,
}

fn scored(model: &CoverageModel) -> Scored {
    Scored {
        covers: model.covers.clone(),
        errors: model
            .errors
            .iter()
            .map(|g| (g.creators.clone(), g.example.clone()))
            .collect(),
        sizes: model.sizes.clone(),
        error_counts: model.error_counts.clone(),
    }
}

/// The old scoring pass: every `K_θ` tuple against every target of its
/// relation, and support checked the same way.
fn brute_force(
    source: &Instance,
    target: &Instance,
    candidates: &[StTgd],
    options: &CoverageOptions,
) -> Scored {
    let targets: Vec<Tuple> = target
        .iter_all()
        .map(|(rel, row)| Tuple::new(rel, row.to_vec()))
        .collect();
    let mut by_rel: FxHashMap<RelId, Vec<usize>> = FxHashMap::default();
    for (i, t) in targets.iter().enumerate() {
        by_rel.entry(t.rel).or_default().push(i);
    }
    let same_rel = |rel: RelId| by_rel.get(&rel).map_or(&[][..], Vec::as_slice);

    let mut covers = Vec::new();
    let mut ground_errors: BTreeMap<Tuple, Vec<usize>> = BTreeMap::new();
    let mut null_errors: Vec<(Vec<usize>, Tuple)> = Vec::new();
    let mut sizes = Vec::new();
    for (cand_idx, tgd) in candidates.iter().enumerate() {
        sizes.push(tgd.size());
        let mut k = chase_one_canonical(source, tgd).expect("valid candidate");
        if options.use_core {
            k = core_of(&k);
        }
        let k_tuples = k.to_tuples();
        let mut occurrences: FxHashMap<NullId, Vec<usize>> = FxHashMap::default();
        for (ki, kt) in k_tuples.iter().enumerate() {
            for v in &kt.args {
                if let Some(n) = v.as_null() {
                    occurrences.entry(n).or_default().push(ki);
                }
            }
        }
        let is_supported = |n: NullId, c: Value, asking: usize| -> bool {
            occurrences[&n].iter().any(|&other| {
                other != asking
                    && same_rel(k_tuples[other].rel).iter().any(|&ti| {
                        tuple_match(&k_tuples[other].args, &targets[ti].args)
                            .is_some_and(|a| a.get(&n) == Some(&c))
                    })
            })
        };

        let mut cand_covers: FxHashMap<usize, f64> = FxHashMap::default();
        for (ki, kt) in k_tuples.iter().enumerate() {
            let mut matched = false;
            for &ti in same_rel(kt.rel) {
                let Some(assignment) = tuple_match(&kt.args, &targets[ti].args) else {
                    continue;
                };
                matched = true;
                let hits = kt
                    .args
                    .iter()
                    .filter(|v| match v {
                        Value::Const(_) => true,
                        Value::Null(n) => is_supported(*n, assignment[n], ki),
                    })
                    .count();
                let degree = (hits as f64 / kt.arity() as f64).min(1.0);
                let entry = cand_covers.entry(ti).or_insert(0.0);
                if degree > *entry {
                    *entry = degree;
                }
            }
            if !matched {
                if kt.is_ground() {
                    ground_errors.entry(kt.clone()).or_default().push(cand_idx);
                } else {
                    null_errors.push((vec![cand_idx], kt.clone()));
                }
            }
        }
        let mut list: Vec<(usize, f64)> =
            cand_covers.into_iter().filter(|&(_, d)| d > 0.0).collect();
        list.sort_by_key(|&(t, _)| t);
        covers.push(list);
    }

    let mut errors: Vec<(Vec<usize>, Tuple)> = ground_errors
        .into_iter()
        .map(|(example, mut creators)| {
            creators.sort_unstable();
            creators.dedup();
            (creators, example)
        })
        .collect();
    errors.append(&mut null_errors);
    let mut error_counts = vec![0usize; candidates.len()];
    for (creators, _) in &errors {
        for &c in creators {
            error_counts[c] += 1;
        }
    }
    Scored {
        covers,
        errors,
        sizes,
        error_counts,
    }
}

fn assert_agrees(
    label: &str,
    source: &Instance,
    target: &Instance,
    candidates: &[StTgd],
    options: &CoverageOptions,
) -> Scored {
    let model = CoverageModel::build_with(source, target, candidates, options);
    let expected = brute_force(source, target, candidates, options);
    let got = scored(&model);
    assert_eq!(got.sizes, expected.sizes, "{label}: sizes");
    assert_eq!(
        got.error_counts, expected.error_counts,
        "{label}: error counts"
    );
    assert_eq!(got.errors, expected.errors, "{label}: error groups");
    // Bit-identical degrees, not merely close ones.
    let bits = |c: &[Vec<(usize, f64)>]| -> Vec<Vec<(usize, u64)>> {
        c.iter()
            .map(|l| l.iter().map(|&(t, d)| (t, d.to_bits())).collect())
            .collect()
    };
    assert_eq!(bits(&got.covers), bits(&expected.covers), "{label}: covers");
    expected
}

#[test]
fn scoring_matches_brute_force_on_generated_scenarios() {
    // `core_of` searches homomorphisms, which at the default 25 rows per
    // relation takes minutes per scenario; the cored leg runs on 5 rows.
    for (use_core, rows_per_relation) in [(false, 25), (true, 5)] {
        for scale in 1..=4 {
            for seed in 1..=3 {
                let s = generate(&ScenarioConfig {
                    rows_per_relation,
                    noise: NoiseConfig::uniform(25.0),
                    seed,
                    ..ScenarioConfig::all_primitives(scale)
                });
                let label = format!("all_primitives({scale}) seed {seed} use_core {use_core}");
                let expected = assert_agrees(
                    &label,
                    &s.source,
                    &s.target,
                    &s.candidates,
                    &CoverageOptions { use_core },
                );
                assert!(
                    expected.covers.iter().any(|c| !c.is_empty()) && !expected.errors.is_empty(),
                    "{label}: the scenario must exercise both covers and errors"
                );
            }
        }
    }
}

/// Source `a(x, y)` and target `t(p, q, r)`, `u(p, q)`.
fn schemas() -> (Schema, Schema) {
    let mut src = Schema::new("s");
    src.add_relation("a", &["x", "y"]);
    let mut tgt = Schema::new("t");
    tgt.add_relation("t", &["p", "q", "r"]);
    tgt.add_relation("u", &["p", "q"]);
    (src, tgt)
}

fn instance(schema: &Schema, rows: &[(&str, &[&str])]) -> Instance {
    let mut inst = Instance::new();
    for (rel, row) in rows {
        inst.insert_ground(schema.rel_id(rel).unwrap(), row);
    }
    inst
}

#[test]
fn all_null_tuples_scan_their_relation() {
    // `t(n, m, o)` has no constant to probe with, so it is matched against
    // every `t` target; its nulls are supported only through `u(n, y)`.
    let (src, tgt) = schemas();
    let cands = vec![
        parse_tgd("a(x, y) -> t(n, m, o) & u(n, y)", &src, &tgt).unwrap(),
        parse_tgd("a(x, y) -> t(n, m, n)", &src, &tgt).unwrap(),
        parse_tgd("a(x, y) -> u(n, m)", &src, &tgt).unwrap(),
    ];
    let i = instance(&src, &[("a", &["1", "2"]), ("a", &["3", "4"])]);
    let j = instance(
        &tgt,
        &[
            ("t", &["c", "d", "c"]),
            ("t", &["c", "e", "f"]),
            ("t", &["g", "d", "h"]),
            ("u", &["c", "2"]),
            ("u", &["g", "9"]),
        ],
    );
    for use_core in [false, true] {
        let expected = assert_agrees(
            &format!("use_core {use_core}"),
            &i,
            &j,
            &cands,
            &CoverageOptions { use_core },
        );
        // Null support raised some degree above the constant fraction.
        assert!(expected.covers[0].iter().any(|&(_, d)| d == 1.0));
    }
    // Nothing in J: every tuple is a null error, in firing order.
    assert_agrees(
        "empty J",
        &i,
        &Instance::new(),
        &cands,
        &CoverageOptions::default(),
    );
}

#[test]
fn constant_repeated_across_columns() {
    // `t(x, x, n)` probes with the same constant in two columns; targets
    // agreeing in only one of them must not match.
    let (src, tgt) = schemas();
    let cands = vec![
        parse_tgd("a(x, y) -> t(x, x, n) & u(n, y)", &src, &tgt).unwrap(),
        parse_tgd("a(x, y) -> t(x, y, x)", &src, &tgt).unwrap(),
    ];
    let i = instance(&src, &[("a", &["v", "w"]), ("a", &["w", "w"])]);
    let j = instance(
        &tgt,
        &[
            ("t", &["v", "v", "c"]),
            ("t", &["v", "w", "c"]),
            ("t", &["w", "v", "d"]),
            ("t", &["w", "w", "w"]),
            ("t", &["v", "v", "e"]),
            ("u", &["c", "w"]),
            ("u", &["e", "x"]),
        ],
    );
    for use_core in [false, true] {
        let expected = assert_agrees(
            &format!("use_core {use_core}"),
            &i,
            &j,
            &cands,
            &CoverageOptions { use_core },
        );
        assert!(expected.covers.iter().all(|c| !c.is_empty()));
    }
}
