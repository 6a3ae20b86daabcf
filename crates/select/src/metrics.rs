//! Evaluation metrics: how close is a selected mapping to the gold one?
//!
//! Two granularities, both reported in the experiments:
//!
//! * **mapping-level** — precision/recall/F1 of the selected candidate set
//!   against the gold indices;
//! * **data-level** — precision/recall/F1 of the exchanged instance
//!   `K_M = chase(I, M)` against `K_MG`, compared as multisets of
//!   null-canonicalized tuple patterns (nulls from different chases can
//!   never be equal verbatim).

use cms_data::{multiset_overlap, pattern_multiset, Instance, TuplePattern};
use cms_tgd::{ChaseEngine, ChaseError, StTgd};
use std::collections::BTreeMap;

/// Precision / recall / F1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prf {
    /// |sel ∩ gold| / |sel|.
    pub precision: f64,
    /// |sel ∩ gold| / |gold|.
    pub recall: f64,
    /// Harmonic mean.
    pub f1: f64,
}

impl Prf {
    /// From raw counts. Empty-vs-empty counts as perfect (the selection
    /// made no mistake); empty-vs-nonempty as zero.
    pub fn from_counts(true_pos: usize, selected: usize, gold: usize) -> Prf {
        if selected == 0 && gold == 0 {
            return Prf {
                precision: 1.0,
                recall: 1.0,
                f1: 1.0,
            };
        }
        let precision = if selected == 0 {
            0.0
        } else {
            true_pos as f64 / selected as f64
        };
        let recall = if gold == 0 {
            0.0
        } else {
            true_pos as f64 / gold as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Prf {
            precision,
            recall,
            f1,
        }
    }
}

/// Mapping-level P/R/F1 of selected candidate indices vs gold indices.
pub fn mapping_prf(selected: &[usize], gold: &[usize]) -> Prf {
    let tp = selected.iter().filter(|c| gold.contains(c)).count();
    Prf::from_counts(tp, selected.len(), gold.len())
}

/// Data-level P/R/F1: exchanged instances compared as pattern multisets.
///
/// Panics if a selected or gold candidate fails chase validation.
pub fn data_prf(
    source: &Instance,
    candidates: &[StTgd],
    selected: &[usize],
    gold: &[usize],
) -> Prf {
    let exchange = |idxs: &[usize]| {
        exchange_patterns(source, candidates, idxs)
            .unwrap_or_else(|e| panic!("data_prf: invalid candidate tgd: {e}"))
    };
    patterns_prf(&exchange(selected), &exchange(gold))
}

/// The exchanged instance `chase(source, {candidates[i] | i ∈ idxs})` as a
/// multiset of tuple patterns.
pub(crate) fn exchange_patterns(
    source: &Instance,
    candidates: &[StTgd],
    idxs: &[usize],
) -> Result<BTreeMap<TuplePattern, usize>, ChaseError> {
    // Exchange through the batched engine (merged solution per selection);
    // patterns are invariant under its null renaming.
    let picked: Vec<StTgd> = idxs.iter().map(|&i| candidates[i].clone()).collect();
    Ok(pattern_multiset(
        &ChaseEngine::new(&picked)?.chase_merged(source),
    ))
}

/// Data-level P/R/F1 of a selection's exchanged patterns against the gold
/// mapping's.
pub(crate) fn patterns_prf(
    selected: &BTreeMap<TuplePattern, usize>,
    gold: &BTreeMap<TuplePattern, usize>,
) -> Prf {
    let overlap = multiset_overlap(selected, gold);
    let n_sel: usize = selected.values().sum();
    let n_gold: usize = gold.values().sum();
    Prf::from_counts(overlap, n_sel, n_gold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_data::{RelId, Schema};
    use cms_tgd::parse_tgd;

    #[test]
    fn mapping_prf_basic() {
        let p = mapping_prf(&[0, 2], &[0, 1]);
        assert!((p.precision - 0.5).abs() < 1e-12);
        assert!((p.recall - 0.5).abs() < 1e-12);
        assert!((p.f1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn perfect_and_empty_edge_cases() {
        let perfect = mapping_prf(&[1, 2], &[1, 2]);
        assert_eq!(perfect.f1, 1.0);
        let both_empty = mapping_prf(&[], &[]);
        assert_eq!(both_empty.f1, 1.0);
        let nothing_selected = mapping_prf(&[], &[0]);
        assert_eq!(nothing_selected.f1, 0.0);
        assert_eq!(nothing_selected.precision, 0.0);
        let all_wrong = mapping_prf(&[5], &[0]);
        assert_eq!(all_wrong.f1, 0.0);
    }

    #[test]
    fn data_prf_identical_selection_is_perfect() {
        let mut src = Schema::new("s");
        src.add_relation("a", &["x", "y"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x", "z"]);
        let c0 = parse_tgd("a(x, y) -> t(x, e)", &src, &tgt).unwrap();
        let c1 = parse_tgd("a(x, y) -> t(y, x)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(RelId(0), &["p", "q"]);
        i.insert_ground(RelId(0), &["r", "s"]);
        let p = data_prf(&i, &[c0.clone(), c1.clone()], &[0], &[0]);
        assert_eq!(p.f1, 1.0);
        // Different candidate: no pattern overlap.
        let p = data_prf(&i, &[c0, c1], &[1], &[0]);
        assert_eq!(p.f1, 0.0);
    }

    #[test]
    fn data_prf_superset_selection_loses_precision() {
        let mut src = Schema::new("s");
        src.add_relation("a", &["x"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x"]);
        tgt.add_relation("u", &["x"]);
        let good = parse_tgd("a(x) -> t(x)", &src, &tgt).unwrap();
        let extra = parse_tgd("a(x) -> u(x)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(RelId(0), &["v"]);
        let p = data_prf(&i, &[good, extra], &[0, 1], &[0]);
        assert!((p.precision - 0.5).abs() < 1e-12);
        assert!((p.recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn data_prf_is_null_renaming_invariant() {
        let mut src = Schema::new("s");
        src.add_relation("a", &["x"]);
        let mut tgt = Schema::new("t");
        tgt.add_relation("t", &["x", "k"]);
        // Two structurally equal candidates written separately: their
        // chases use different nulls, but patterns agree.
        let c0 = parse_tgd("a(x) -> t(x, e)", &src, &tgt).unwrap();
        let c1 = parse_tgd("a(y) -> t(y, n)", &src, &tgt).unwrap();
        let mut i = Instance::new();
        i.insert_ground(RelId(0), &["v"]);
        let p = data_prf(&i, &[c0, c1], &[0], &[1]);
        assert_eq!(p.f1, 1.0);
    }
}
