//! Proptest strategies shared by the candgen integration tests.

use cms_candgen::Correspondence;
use cms_data::{AttrRef, ForeignKey, RelId, Schema};
use proptest::prelude::*;

/// A random schema: `n` relations of arity 2–4, each (except the first)
/// optionally carrying a foreign key to an earlier relation.
pub fn arb_schema(prefix: &'static str) -> impl Strategy<Value = Schema> {
    (
        2usize..=4,
        prop::collection::vec((2usize..=4, prop::option::of(0usize..3)), 1..4),
    )
        .prop_map(move |(_, rels)| {
            let mut schema = Schema::new(prefix);
            for (i, (arity, fk_to)) in rels.iter().enumerate() {
                let attrs: Vec<String> = (0..*arity).map(|a| format!("{prefix}{i}_a{a}")).collect();
                let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                let fks = match fk_to {
                    Some(t) if *t < i => vec![ForeignKey {
                        cols: vec![0],
                        target: RelId(*t as u32),
                        target_cols: vec![0],
                    }],
                    _ => Vec::new(),
                };
                schema.add_relation_full(&format!("{prefix}{i}"), &attr_refs, &[0], fks);
            }
            schema
        })
}

/// Random correspondences between two schemas, by index.
pub fn arb_corrs() -> impl Strategy<Value = Vec<(usize, usize, usize, usize)>> {
    prop::collection::vec((0usize..4, 0usize..4, 0usize..4, 0usize..4), 0..8)
}

pub fn resolve(
    raw: &[(usize, usize, usize, usize)],
    src: &Schema,
    tgt: &Schema,
) -> Vec<Correspondence> {
    raw.iter()
        .filter_map(|&(sr, sc, tr, tc)| {
            if sr >= src.len() || tr >= tgt.len() {
                return None;
            }
            let s_rel = RelId(sr as u32);
            let t_rel = RelId(tr as u32);
            if sc >= src.relation(s_rel).arity() || tc >= tgt.relation(t_rel).arity() {
                return None;
            }
            Some(Correspondence::new(
                AttrRef::new(s_rel, sc),
                AttrRef::new(t_rel, tc),
            ))
        })
        .collect()
}
