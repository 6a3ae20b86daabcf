//! Property-based tests for candidate generation.

mod common;

use cms_candgen::{expand, generate_candidates, CandGenConfig};
use cms_data::{Instance, RelId};
use cms_tgd::{chase_one, chase_one_canonical, ChaseEngine};
use common::{arb_corrs, arb_schema, resolve};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated candidate validates, is structurally unique, and
    /// exports at least one source variable.
    #[test]
    fn candidates_are_wellformed(src in arb_schema("s"), tgt in arb_schema("t"), raw in arb_corrs()) {
        let corrs = resolve(&raw, &src, &tgt);
        let cands = generate_candidates(&src, &tgt, &corrs, &CandGenConfig::default());
        let mut keys: Vec<String> = cands.iter().map(cms_tgd::canonical_key).collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(keys.len(), n, "structural duplicates emitted");
        for c in &cands {
            prop_assert!(c.validate(&src, &tgt).is_ok());
            // At least one head variable is universal (a correspondence
            // fired), otherwise the pair shouldn't have been emitted.
            let exist = c.existential_vars();
            let head_vars: usize = c.head.iter().flat_map(|a| a.vars()).count();
            prop_assert!(head_vars > exist.len() || head_vars == 0 ||
                c.head.iter().flat_map(|a| a.vars()).any(|v| !exist.contains(&v)),
                "candidate exports nothing");
        }
        // No correspondences ⇒ no candidates.
        if corrs.is_empty() {
            prop_assert!(cands.is_empty());
        }
    }

    /// Raising the alternatives cap never *removes* candidates.
    #[test]
    fn alternatives_monotone_in_cap(src in arb_schema("s"), tgt in arb_schema("t"), raw in arb_corrs()) {
        let corrs = resolve(&raw, &src, &tgt);
        let lo = generate_candidates(&src, &tgt, &corrs,
            &CandGenConfig { max_alternatives_per_pair: 1, ..CandGenConfig::default() });
        let hi = generate_candidates(&src, &tgt, &corrs,
            &CandGenConfig { max_alternatives_per_pair: 16, ..CandGenConfig::default() });
        prop_assert!(hi.len() >= lo.len());
        let hi_keys: Vec<String> = hi.iter().map(cms_tgd::canonical_key).collect();
        for c in &lo {
            prop_assert!(hi_keys.contains(&cms_tgd::canonical_key(c)));
        }
    }

    /// Candgen-emitted candidate sets chase identically through the
    /// batched engine and the per-tgd naive chase: same tuple patterns per
    /// candidate (null renaming invariant), bit-identical to the
    /// canonical-order reference. This is the workload the shared
    /// body-prefix trie exists for — every (source LR, target LR) pairing
    /// reuses the same body, so the engine must dedup without changing a
    /// single solution.
    #[test]
    fn generated_candidates_chase_identically_batched(
        src in arb_schema("s"),
        tgt in arb_schema("t"),
        raw in arb_corrs(),
        rows in prop::collection::vec((0usize..4, 0u32..6, 0u32..6, 0u32..6, 0u32..6), 0..24),
    ) {
        let corrs = resolve(&raw, &src, &tgt);
        let cands = generate_candidates(&src, &tgt, &corrs, &CandGenConfig::default());
        // Populate the source schema with pooled values so FK joins hit.
        let mut inst = Instance::new();
        for (r, a, b, c, d) in rows {
            if r >= src.len() {
                continue;
            }
            let rel = RelId(r as u32);
            let arity = src.relation(rel).arity();
            let vals = [a, b, c, d];
            let row: Vec<String> = (0..arity).map(|i| format!("p{}", vals[i])).collect();
            let refs: Vec<&str> = row.iter().map(String::as_str).collect();
            inst.insert_ground(rel, &refs);
        }
        let engine = ChaseEngine::new(&cands).expect("candgen output is chase-valid");
        let solutions = engine.chase_all(&inst);
        prop_assert_eq!(solutions.len(), cands.len());
        for (k, tgd) in solutions.iter().zip(&cands) {
            let naive = chase_one(&inst, tgd);
            prop_assert_eq!(
                cms_data::pattern_multiset(k),
                cms_data::pattern_multiset(&naive)
            );
            let canonical = chase_one_canonical(&inst, tgd).expect("valid tgd");
            prop_assert_eq!(k.to_tuples(), canonical.to_tuples());
        }
    }

    /// Logical-relation expansion: FK-unified variables really are shared,
    /// and the number of atoms respects the cap.
    #[test]
    fn expansion_respects_fks(schema in arb_schema("s"), cap in 1usize..5) {
        for root in schema.rel_ids() {
            let lr = expand(&schema, root, cap);
            prop_assert!(lr.atoms.len() <= cap);
            prop_assert_eq!(lr.atoms[0].rel, root);
            // All variable indices are < num_vars.
            for atom in &lr.atoms {
                for &v in &atom.vars {
                    prop_assert!(v < lr.num_vars);
                }
            }
        }
    }
}
