//! # cms — Collective, Probabilistic Schema-Mapping Selection
//!
//! A from-scratch Rust reproduction of Kimmig, Memory, Miller & Getoor,
//! *"A Collective, Probabilistic Approach to Schema Mapping"* (ICDE 2017).
//!
//! Given a source schema, a target schema, a data example `(I, J)`, and a
//! set of candidate st tgds (generated Clio-style from attribute
//! correspondences), the library selects the subset that best explains the
//! data example — trading off unexplained target tuples, invented target
//! tuples, and mapping size — by MAP inference in a hinge-loss Markov
//! random field (probabilistic soft logic), with exact and heuristic
//! baselines for comparison.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`obs`] | `cms-obs` | telemetry: spans, metrics registry, event journal |
//! | [`data`] | `cms-data` | schemas, instances, labeled nulls, homomorphisms |
//! | [`tgd`] | `cms-tgd` | st tgds, conjunctive matching, the chase |
//! | [`psl`] | `cms-psl` | a full PSL/HL-MRF engine with ADMM MAP inference |
//! | [`candgen`] | `cms-candgen` | Clio-style candidate generation |
//! | [`ibench`] | `cms-ibench` | iBench-style scenario + noise generation |
//! | [`select`] | `cms-select` | the selection objective, selectors, metrics |
//!
//! ## Quickstart
//!
//! ```
//! use cms::prelude::*;
//!
//! // Schemas for the paper's running example.
//! let mut src = Schema::new("s");
//! src.add_relation("proj", &["name", "code", "firm"]);
//! src.add_relation("team", &["pcode", "emp"]);
//! let mut tgt = Schema::new("t");
//! tgt.add_relation("task", &["pname", "emp", "oid"]);
//! tgt.add_relation("org", &["oid", "firm"]);
//!
//! // Candidate mappings (θ1 and θ3 of the paper).
//! let theta1 = parse_tgd("proj(x,c,f) & team(c,e) -> task(x,e,o)", &src, &tgt).unwrap();
//! let theta3 = parse_tgd("proj(x,c,f) & team(c,e) -> task(x,e,o) & org(o,f)", &src, &tgt).unwrap();
//!
//! // A data example. (With too little data the empty mapping wins — the
//! // paper's overfitting guard — so give it a handful of projects.)
//! let mut i = Instance::new();
//! let mut j = Instance::new();
//! i.insert_ground(src.rel_id("team").unwrap(), &["9", "Alice"]);
//! j.insert_ground(tgt.rel_id("org").unwrap(), &["111", "SAP"]);
//! for name in ["ML", "NLP", "Search", "Vision", "Infra", "Mobile"] {
//!     i.insert_ground(src.rel_id("proj").unwrap(), &[name, "9", "SAP"]);
//!     j.insert_ground(tgt.rel_id("task").unwrap(), &[name, "Alice", "111"]);
//! }
//!
//! // Select collectively with PSL.
//! let model = CoverageModel::build(&i, &j, &[theta1, theta3]);
//! let selection = PslCollective::default()
//!     .select(&model, &ObjectiveWeights::unweighted())
//!     .expect("the CMS program grounds cleanly");
//! assert_eq!(selection.selected, vec![1], "θ3 explains the join evidence");
//! ```

#![forbid(unsafe_code)]

pub use cms_candgen as candgen;
pub use cms_data as data;
pub use cms_ibench as ibench;
pub use cms_obs as obs;
pub use cms_psl as psl;
pub use cms_select as select;
pub use cms_tgd as tgd;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use cms_candgen::{corr, generate_candidates, CandGenConfig, Correspondence};
    pub use cms_data::{
        homomorphic, pattern_multiset, tuple_match, AttrRef, ForeignKey, Instance, NullFactory,
        RelId, Schema, Sym, Tuple, TuplePattern, Value,
    };
    pub use cms_ibench::{
        generate, ground_instance, DataNoiseReport, NoiseConfig, Primitive, Scenario,
        ScenarioConfig,
    };
    pub use cms_psl::{AdmmConfig, GroundAtom, Program, RuleBuilder, Vocabulary};
    pub use cms_select::{
        build_reduction, data_prf, evaluate_prepared, evaluate_scenario, mapping_prf, preprocess,
        BranchBound, CoverageModel, Exhaustive, FixedSelection, Greedy, IndependentBaseline,
        LocalSearch, Objective, ObjectiveWeights, PreparedScenario, Prf, PslCollective, Selection,
        SelectionOutcome, Selector, SetCoverInstance,
    };
    pub use cms_tgd::{
        chase, chase_one, parse_tgd, var, ChaseEngine, ChaseError, ChaseStats, StTgd, TgdBuilder,
    };
}
