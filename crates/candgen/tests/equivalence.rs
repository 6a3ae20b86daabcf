//! `generate_candidates` against a test-local copy of the generator it
//! replaced: every (source LR, target LR) pair scanned against every
//! correspondence, then `dedup_tgds`. The indexed generator must emit the
//! same candidates in the same order, alternatives cap included.

mod common;

use cms_candgen::{corr, generate_candidates, logical_relations, CandGenConfig, Correspondence};
use cms_candgen::{LogicalRelation, LrAtom};
use cms_data::{ForeignKey, FxHashMap, Schema};
use cms_ibench::{generate, NoiseConfig, ScenarioConfig};
use cms_tgd::{canonical_key, dedup_tgds, Atom, StTgd, Term, VarId};
use common::{arb_corrs, arb_schema, resolve};
use proptest::prelude::*;

fn reference(
    source: &Schema,
    target: &Schema,
    correspondences: &[Correspondence],
    config: &CandGenConfig,
) -> Vec<StTgd> {
    let src_lrs = logical_relations(source, config.max_join_atoms);
    let tgt_lrs = logical_relations(target, config.max_join_atoms);
    let mut raw = Vec::new();
    for src_lr in &src_lrs {
        for tgt_lr in &tgt_lrs {
            raw.extend(reference_pair(src_lr, tgt_lr, correspondences, config));
        }
    }
    dedup_tgds(raw).0
}

fn reference_pair(
    src_lr: &LogicalRelation,
    tgt_lr: &LogicalRelation,
    correspondences: &[Correspondence],
    config: &CandGenConfig,
) -> Vec<StTgd> {
    let mut options: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
    let mut tgt_var_order: Vec<usize> = Vec::new();
    for c in correspondences {
        let (Some(src_var), Some(tgt_var)) = (src_lr.var_of(c.source), tgt_lr.var_of(c.target))
        else {
            continue;
        };
        let entry = options.entry(tgt_var).or_insert_with(|| {
            tgt_var_order.push(tgt_var);
            Vec::new()
        });
        if !entry.contains(&src_var) {
            entry.push(src_var);
        }
    }
    if options.is_empty() {
        return Vec::new();
    }
    let radices: Vec<usize> = tgt_var_order.iter().map(|v| options[v].len()).collect();
    let total = radices.iter().fold(1usize, |acc, &r| acc.saturating_mul(r));
    let emit = total.min(config.max_alternatives_per_pair.max(1));
    (0..emit)
        .map(|combo| {
            let mut binding: FxHashMap<usize, usize> = FxHashMap::default();
            let mut rest = combo;
            for (v, radix) in tgt_var_order.iter().zip(&radices) {
                binding.insert(*v, options[v][rest % radix]);
                rest /= radix;
            }
            reference_tgd(src_lr, tgt_lr, &binding)
        })
        .collect()
}

fn reference_tgd(
    src_lr: &LogicalRelation,
    tgt_lr: &LogicalRelation,
    head_binding: &FxHashMap<usize, usize>,
) -> StTgd {
    let mut exist_map: FxHashMap<usize, u32> = FxHashMap::default();
    let mut next_var = src_lr.num_vars as u32;
    let mut var_names: Vec<String> = (0..src_lr.num_vars).map(|i| format!("x{i}")).collect();
    let atom = |a: &LrAtom, term: &mut dyn FnMut(usize) -> Term| {
        Atom::new(a.rel, a.vars.iter().map(|&v| term(v)).collect())
    };
    let body: Vec<Atom> = src_lr
        .atoms
        .iter()
        .map(|a| atom(a, &mut |v| Term::Var(VarId(v as u32))))
        .collect();
    let head: Vec<Atom> = tgt_lr
        .atoms
        .iter()
        .map(|a| {
            atom(a, &mut |tv| match head_binding.get(&tv) {
                Some(&sv) => Term::Var(VarId(sv as u32)),
                None => {
                    let id = *exist_map.entry(tv).or_insert_with(|| {
                        let id = next_var;
                        next_var += 1;
                        var_names.push(format!("e{}", id as usize - src_lr.num_vars));
                        id
                    });
                    Term::Var(VarId(id))
                }
            })
        })
        .collect();
    StTgd::new(body, head, var_names)
}

fn keys(cands: &[StTgd]) -> Vec<String> {
    cands.iter().map(canonical_key).collect()
}

fn assert_same(
    label: &str,
    source: &Schema,
    target: &Schema,
    corrs: &[Correspondence],
    config: &CandGenConfig,
) {
    let got = generate_candidates(source, target, corrs, config);
    let expected = reference(source, target, corrs, config);
    assert_eq!(keys(&got), keys(&expected), "{label}");
    // Same atoms, variable ids and names, not only the same structure.
    assert!(got == expected, "{label}: equal keys, different tgds");
}

/// Scenario correspondences at 25% metadata noise, which adds conflicting
/// ones. The data is irrelevant to candidate generation, so keep it small.
fn scenario_config(scale: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        rows_per_relation: 2,
        noise: NoiseConfig::uniform(25.0),
        seed,
        ..ScenarioConfig::all_primitives(scale)
    }
}

#[test]
fn matches_the_all_pairs_scan_on_generated_scenarios() {
    let mut configs: Vec<ScenarioConfig> = (1..=4)
        .flat_map(|scale| (1..=3).map(move |seed| scenario_config(scale, seed)))
        .collect();
    configs.push(scenario_config(16, 3));
    for config in configs {
        let s = generate(&config);
        let label = format!(
            "all_primitives({}) seed {}",
            config.invocations[0].1, config.seed
        );
        for cap in [1, 2, CandGenConfig::default().max_alternatives_per_pair] {
            let candgen = CandGenConfig {
                max_alternatives_per_pair: cap,
                ..config.candgen.clone()
            };
            assert_same(
                &format!("{label} cap {cap}"),
                &s.source_schema,
                &s.target_schema,
                &s.correspondences,
                &candgen,
            );
        }
    }
}

#[test]
fn cap_keeps_the_first_seen_alternatives_of_a_joined_relation() {
    // team(pcode → proj.code, emp) joins proj(name, code, leader), so the
    // LR rooted at team gathers team's correspondences before proj's. The
    // conflicting ones onto task.pname must still be seen in input order:
    // proj.name (index 0) first, then team.emp and proj.leader.
    let mut src = Schema::new("s");
    let proj = src.add_relation_full("proj", &["name", "code", "leader"], &[1], Vec::new());
    src.add_relation_full(
        "team",
        &["pcode", "emp"],
        &[],
        vec![ForeignKey {
            cols: vec![0],
            target: proj,
            target_cols: vec![1],
        }],
    );
    let mut tgt = Schema::new("t");
    tgt.add_relation("task", &["pname", "emp"]);
    let corrs = [
        corr(&src, "proj", "name", &tgt, "task", "pname"),
        corr(&src, "team", "emp", &tgt, "task", "pname"),
        corr(&src, "team", "emp", &tgt, "task", "emp"),
        corr(&src, "proj", "leader", &tgt, "task", "pname"),
    ];
    for cap in 1..=3 {
        let config = CandGenConfig {
            max_alternatives_per_pair: cap,
            ..CandGenConfig::default()
        };
        assert_same(&format!("cap {cap}"), &src, &tgt, &corrs, &config);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matches_the_all_pairs_scan_on_random_schemas(
        src in arb_schema("s"),
        tgt in arb_schema("t"),
        raw in arb_corrs(),
        cap in 1usize..4,
    ) {
        let corrs = resolve(&raw, &src, &tgt);
        let config = CandGenConfig { max_alternatives_per_pair: cap, ..CandGenConfig::default() };
        let got = generate_candidates(&src, &tgt, &corrs, &config);
        let expected = reference(&src, &tgt, &corrs, &config);
        prop_assert_eq!(keys(&got), keys(&expected));
        prop_assert!(got == expected);
    }
}
