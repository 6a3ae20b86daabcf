//! Candidate st-tgd generation from correspondences (Clio-style).
//!
//! For every pair of a source logical relation and a target logical
//! relation connected by at least one correspondence, emit candidate
//! st tgds:
//!
//! * body = the source join tree;
//! * head = the target join tree, where each target attribute covered by a
//!   correspondence (whose source attribute the source side covers) reuses
//!   the corresponding source variable, and every other target variable is
//!   existential.
//!
//! When several correspondences *conflict* — map different source
//! attributes onto the same target attribute — Clio proposes alternative
//! mappings rather than picking one arbitrarily. We do the same: one
//! candidate per combination of conflicting choices, capped at
//! [`CandGenConfig::max_alternatives_per_pair`] (combinations are
//! enumerated in correspondence order, so the first candidate is the
//! "first match wins" mapping).
//!
//! The emitted set is deduplicated structurally. This mirrors how Clio
//! turns matches into mappings and guarantees — as the paper's scenarios
//! require — that the gold mapping is generated whenever the true
//! correspondences are present (`MG ⊆ C`).
//!
//! Cost per call: correspondences are bucketed by source relation once.
//! Each source LR gathers the buckets of its atoms' relations (ascending
//! correspondence order, so first-seen order and the alternatives cap
//! behave as in a scan of the whole list), and each target LR keeps the
//! ones whose target relation it contains. A pair costs
//! O(its source LR's correspondences × target LR atoms) to filter, pairs
//! with no connecting correspondence are skipped, and only connected
//! pairs build candidates.

use crate::correspondence::Correspondence;
use crate::logical_relation::{logical_relations, LogicalRelation};
use cms_data::{FxHashMap, RelId, Schema};
use cms_tgd::{dedup_tgds, Atom, StTgd, Term, VarId};

/// Tuning knobs for candidate generation.
#[derive(Clone, Debug)]
pub struct CandGenConfig {
    /// Maximum atoms per logical relation (bounds FK-closure size).
    pub max_join_atoms: usize,
    /// Maximum alternative candidates emitted per (source LR, target LR)
    /// pair when correspondences conflict.
    pub max_alternatives_per_pair: usize,
}

impl Default for CandGenConfig {
    fn default() -> CandGenConfig {
        CandGenConfig {
            max_join_atoms: 6,
            max_alternatives_per_pair: 8,
        }
    }
}

/// Generate the candidate set `C` for a schema pair and correspondence set.
pub fn generate_candidates(
    source: &Schema,
    target: &Schema,
    correspondences: &[Correspondence],
    config: &CandGenConfig,
) -> Vec<StTgd> {
    let src_lrs = logical_relations(source, config.max_join_atoms);
    let tgt_lrs = logical_relations(target, config.max_join_atoms);

    // Correspondence indices per source relation, ascending.
    let mut by_source: FxHashMap<RelId, Vec<usize>> = FxHashMap::default();
    for (i, c) in correspondences.iter().enumerate() {
        by_source.entry(c.source.rel).or_default().push(i);
    }

    let mut raw: Vec<StTgd> = Vec::new();
    let mut src_corrs: Vec<usize> = Vec::new();
    let mut pair_corrs: Vec<Correspondence> = Vec::new();
    for src_lr in &src_lrs {
        src_corrs.clear();
        for atom in &src_lr.atoms {
            if let Some(bucket) = by_source.get(&atom.rel) {
                src_corrs.extend_from_slice(bucket);
            }
        }
        src_corrs.sort_unstable();
        src_corrs.dedup();
        if src_corrs.is_empty() {
            continue;
        }
        for tgt_lr in &tgt_lrs {
            pair_corrs.clear();
            pair_corrs.extend(
                src_corrs
                    .iter()
                    .map(|&i| correspondences[i])
                    .filter(|c| tgt_lr.atoms.iter().any(|a| a.rel == c.target.rel)),
            );
            if !pair_corrs.is_empty() {
                raw.extend(candidates_for_pair(src_lr, tgt_lr, &pair_corrs, config));
            }
        }
    }
    let (deduped, _) = dedup_tgds(raw);
    deduped
}

/// Build the candidates for one (source LR, target LR) pair from the
/// correspondences connecting it, in ascending input order (the order
/// fixes which alternatives the cap keeps); empty if none applies.
fn candidates_for_pair(
    src_lr: &LogicalRelation,
    tgt_lr: &LogicalRelation,
    correspondences: &[Correspondence],
    config: &CandGenConfig,
) -> Vec<StTgd> {
    // For each target variable, the distinct source variables offered by
    // applicable correspondences, in first-seen order.
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

    // Enumerate combinations of choices (mixed-radix counter over the
    // conflicting variables), capped.
    let radices: Vec<usize> = tgt_var_order.iter().map(|v| options[v].len()).collect();
    // Saturating: a pair with many conflicting target attributes can have
    // more combinations than `usize` holds, and only the capped prefix is
    // ever enumerated.
    let total = radices.iter().fold(1usize, |acc, &r| acc.saturating_mul(r));
    let emit = total.min(config.max_alternatives_per_pair.max(1));

    let mut out = Vec::with_capacity(emit);
    for combo in 0..emit {
        let mut binding: FxHashMap<usize, usize> = FxHashMap::default(); // tgt var -> src var
        let mut rest = combo;
        for (v, radix) in tgt_var_order.iter().zip(radices.iter()) {
            let pick = rest % radix;
            rest /= radix;
            binding.insert(*v, options[v][pick]);
        }
        out.push(build_tgd(src_lr, tgt_lr, &binding));
    }
    out
}

/// Materialize one tgd for a fixed target-variable binding.
fn build_tgd(
    src_lr: &LogicalRelation,
    tgt_lr: &LogicalRelation,
    head_binding: &FxHashMap<usize, usize>,
) -> StTgd {
    // Source variables keep their LR indices [0, src_lr.num_vars); target
    // variables not bound by a correspondence become existentials numbered
    // from src_lr.num_vars, shared across head atoms (they are LR-unified).
    let mut exist_map: FxHashMap<usize, u32> = FxHashMap::default();
    let mut next_var = src_lr.num_vars as u32;
    let mut var_names: Vec<String> = (0..src_lr.num_vars).map(|i| format!("x{i}")).collect();

    let body: Vec<Atom> = src_lr
        .atoms
        .iter()
        .map(|a| {
            Atom::new(
                a.rel,
                a.vars.iter().map(|&v| Term::Var(VarId(v as u32))).collect(),
            )
        })
        .collect();

    let head: Vec<Atom> = tgt_lr
        .atoms
        .iter()
        .map(|a| {
            Atom::new(
                a.rel,
                a.vars
                    .iter()
                    .map(|&tv| match head_binding.get(&tv) {
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
                    .collect(),
            )
        })
        .collect();

    StTgd::new(body, head, var_names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correspondence::corr;
    use cms_data::ForeignKey;
    use cms_tgd::{canonical_key, parse_tgd};

    /// Source: proj(name, code, leader) / team(pcode→code, emp).
    /// Target: task(pname, emp, oid) / org(oid, firm), task.oid → org.oid.
    fn schemas() -> (Schema, Schema) {
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
        let org = tgt.add_relation_full("org", &["oid", "firm"], &[0], Vec::new());
        tgt.add_relation_full(
            "task",
            &["pname", "emp", "oid"],
            &[],
            vec![ForeignKey {
                cols: vec![2],
                target: org,
                target_cols: vec![0],
            }],
        );
        (src, tgt)
    }

    #[test]
    fn generates_projection_and_join_candidates() {
        let (src, tgt) = schemas();
        let corrs = vec![
            corr(&src, "proj", "name", &tgt, "task", "pname"),
            corr(&src, "team", "emp", &tgt, "task", "emp"),
        ];
        let cands = generate_candidates(&src, &tgt, &corrs, &CandGenConfig::default());
        // Source LRs: {proj}, {team ⋈ proj}. Target LRs: {org}, {task ⋈ org}.
        // Pairs with a correspondence: (proj, task⋈org), (team⋈proj, task⋈org).
        assert_eq!(cands.len(), 2);

        // The θ3-style candidate must be among them.
        let theta3 = parse_tgd(
            "team(c, e) & proj(x, c, l) -> task(x, e, o) & org(o, f)",
            &src,
            &tgt,
        )
        .unwrap();
        assert!(
            cands
                .iter()
                .any(|c| canonical_key(c) == canonical_key(&theta3)),
            "θ3-style candidate missing: {:?}",
            cands
                .iter()
                .map(|c| c.display(&src, &tgt).to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn no_correspondences_yields_no_candidates() {
        let (src, tgt) = schemas();
        let cands = generate_candidates(&src, &tgt, &[], &CandGenConfig::default());
        assert!(cands.is_empty());
    }

    #[test]
    fn existentials_are_shared_across_head_atoms() {
        let (src, tgt) = schemas();
        let corrs = vec![corr(&src, "proj", "name", &tgt, "task", "pname")];
        let cands = generate_candidates(&src, &tgt, &corrs, &CandGenConfig::default());
        // Candidate proj → task ⋈ org: task.oid and org.oid must share one
        // existential variable.
        let c = cands
            .iter()
            .find(|c| c.head.len() == 2 && c.body.len() == 1)
            .expect("proj → task⋈org candidate");
        let task_atom = c.head.iter().find(|a| a.arity() == 3).unwrap();
        let org_atom = c.head.iter().find(|a| a.arity() == 2).unwrap();
        assert_eq!(task_atom.terms[2], org_atom.terms[0]);
        let exists = c.existential_vars();
        assert!(exists.len() >= 2); // oid + firm (+ emp)
    }

    #[test]
    fn conflicting_correspondences_yield_alternatives() {
        let (src, tgt) = schemas();
        let corrs = vec![
            corr(&src, "proj", "name", &tgt, "task", "pname"),
            corr(&src, "proj", "leader", &tgt, "task", "pname"),
        ];
        let cands = generate_candidates(&src, &tgt, &corrs, &CandGenConfig::default());
        // Each connected pair now yields two alternatives (name vs leader
        // exported to pname); dedup keeps them distinct.
        let name_variant =
            parse_tgd("proj(x, c, l) -> task(x, e, o) & org(o, f)", &src, &tgt).unwrap();
        let leader_variant =
            parse_tgd("proj(x, c, l) -> task(l, e, o) & org(o, f)", &src, &tgt).unwrap();
        let keys: Vec<String> = cands.iter().map(canonical_key).collect();
        assert!(
            keys.contains(&canonical_key(&name_variant)),
            "name variant missing"
        );
        assert!(
            keys.contains(&canonical_key(&leader_variant)),
            "leader variant missing"
        );
        for c in &cands {
            assert!(c.validate(&src, &tgt).is_ok());
        }
    }

    #[test]
    fn alternatives_are_capped() {
        let (src, tgt) = schemas();
        // Three conflicting options on pname × two on emp = 6 combos;
        // cap at 2 keeps the first two.
        let corrs = vec![
            corr(&src, "proj", "name", &tgt, "task", "pname"),
            corr(&src, "proj", "leader", &tgt, "task", "pname"),
            corr(&src, "proj", "code", &tgt, "task", "pname"),
            corr(&src, "team", "emp", &tgt, "task", "emp"),
            corr(&src, "team", "pcode", &tgt, "task", "emp"),
        ];
        let capped = generate_candidates(
            &src,
            &tgt,
            &corrs,
            &CandGenConfig {
                max_alternatives_per_pair: 2,
                ..CandGenConfig::default()
            },
        );
        let full = generate_candidates(&src, &tgt, &corrs, &CandGenConfig::default());
        assert!(
            capped.len() < full.len(),
            "{} !< {}",
            capped.len(),
            full.len()
        );
    }

    #[test]
    fn first_candidate_is_first_match_wins() {
        let (src, tgt) = schemas();
        let corrs = vec![
            corr(&src, "proj", "name", &tgt, "task", "pname"),
            corr(&src, "proj", "leader", &tgt, "task", "pname"),
        ];
        // With the cap at 1 the behaviour degenerates to the old
        // "first applicable correspondence wins".
        let cands = generate_candidates(
            &src,
            &tgt,
            &corrs,
            &CandGenConfig {
                max_alternatives_per_pair: 1,
                ..CandGenConfig::default()
            },
        );
        let name_variant =
            parse_tgd("proj(x, c, l) -> task(x, e, o) & org(o, f)", &src, &tgt).unwrap();
        assert!(cands
            .iter()
            .any(|c| canonical_key(c) == canonical_key(&name_variant)));
        let leader_variant =
            parse_tgd("proj(x, c, l) -> task(l, e, o) & org(o, f)", &src, &tgt).unwrap();
        assert!(!cands
            .iter()
            .any(|c| canonical_key(c) == canonical_key(&leader_variant)));
    }

    #[test]
    fn combination_count_past_usize_saturates_to_the_cap() {
        // 64 target attributes with two options each: 2^64 combinations,
        // which a plain product wraps to 0 (and panics on in debug).
        let mut src = Schema::new("s");
        let s = src.add_relation("s", &["a", "b"]);
        let cols: Vec<String> = (0..64).map(|i| format!("c{i}")).collect();
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        let mut tgt = Schema::new("t");
        let t = tgt.add_relation("t", &col_refs);
        let corrs: Vec<Correspondence> = (0..64)
            .flat_map(|tc| {
                (0..2).map(move |sc| {
                    Correspondence::new(
                        cms_data::AttrRef::new(s, sc),
                        cms_data::AttrRef::new(t, tc),
                    )
                })
            })
            .collect();
        let config = CandGenConfig::default();
        let cands = generate_candidates(&src, &tgt, &corrs, &config);
        assert_eq!(cands.len(), config.max_alternatives_per_pair);
    }

    #[test]
    fn dedup_collapses_identical_pairs() {
        let (src, tgt) = schemas();
        // Duplicate correspondence entries must not duplicate candidates.
        let c1 = corr(&src, "proj", "name", &tgt, "task", "pname");
        let cands = generate_candidates(&src, &tgt, &[c1, c1], &CandGenConfig::default());
        let keys: Vec<String> = cands.iter().map(canonical_key).collect();
        let mut deduped = keys.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(keys.len(), deduped.len());
    }

    #[test]
    fn all_candidates_validate() {
        let (src, tgt) = schemas();
        let corrs = vec![
            corr(&src, "proj", "name", &tgt, "task", "pname"),
            corr(&src, "team", "emp", &tgt, "task", "emp"),
            corr(&src, "proj", "leader", &tgt, "org", "firm"),
        ];
        let cands = generate_candidates(&src, &tgt, &corrs, &CandGenConfig::default());
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(c.validate(&src, &tgt).is_ok(), "{}", c.display(&src, &tgt));
        }
    }
}
