//! Partial object specifications: the core formalism of Johnsen & Owe,
//! *Composition and Refinement for Partial Object Specifications* (2002).
//!
//! A specification is a triple `Γ = ⟨O, α, T⟩` (Def. 1): a finite set of
//! object identities, an infinite alphabet of communication events that
//! touch `O` but are not internal to it, and a prefix-closed trace set
//! over that alphabet.  Because specifications are *partial*, several
//! specifications of the same object may coexist, each considering a
//! different subset of its communication events (viewpoints/aspects).
//!
//! The crate implements:
//!
//! * [`Specification`] with Def.-1 well-formedness
//!   validation and communication-environment derivation (module [`spec`]);
//! * trace-set backends — the paper's `prs` regular sets, opaque
//!   predicates, conjunctions, and the projection semantics of composed
//!   sets (module [`traceset`]);
//! * the refinement relation `Γ′ ⊑ Γ` of Def. 2, which permits **alphabet
//!   expansion** and the **introduction of new objects**, with conditions
//!   1–2 decided exactly on the granule algebra and condition 3 decided by
//!   automaton inclusion over the canonical finitization (module
//!   [`refine`]);
//! * composition `Γ‖∆` with hiding of internal events (Def. 4 for
//!   interface specifications, Def. 11 for components), the composability
//!   condition of Def. 10 and the properness condition of Def. 14 (module
//!   [`mod@compose`]);
//! * semantic components and specification soundness (Def. 8–9, Lemma 13)
//!   (module [`component`]).

pub mod assume_guarantee;
pub mod cache;
pub mod component;
pub mod compose;
pub mod morphism;
pub mod parallel;
pub mod persist;
pub mod refine;
pub mod spec;
pub mod traceset;

pub use assume_guarantee::{ag_specification, assume_guarantee, direction_of, Direction};
pub use cache::{
    check_all_pairs, check_refinement_batch, check_refinement_cached, CacheStats, DfaCache,
};
pub use component::{Component, SemanticObject};
pub use compose::{
    compose, compose_unchecked, is_composable, is_proper_refinement, language_equiv,
    observable_deadlock, observable_equiv, properness_offending_events, ComposeError,
};
pub use morphism::{check_refinement_upto, Morphism};
pub use parallel::{
    parallel_find_first, parallel_flat_map_ref, parallel_map, parallel_map_ref,
    parallel_try_map_ref, worker_count, WorkerPanic,
};
pub use persist::{PersistStats, PersistentStore, FORMAT_VERSION};
pub use refine::{
    check_refinement, check_traditional_refinement, refinement_conditions, refines,
    FailedCondition, RefinementConditions, Verdict,
};
pub use spec::{CommEnv, SpecError, Specification};
pub use traceset::{traceset_dfa, ComposedSet, TraceSet, TraceSetRunner, DEFAULT_PREDICATE_DEPTH};
