//! # pospec — Composition and Refinement for Partial Object Specifications
//!
//! An executable rendition of Johnsen & Owe, *Composition and Refinement
//! for Partial Object Specifications* (Research Report 301, Univ. of Oslo,
//! 2002; abridged in Proc. FMPPTA/IPDPS 2002): trace-based **partial**
//! specifications of objects with explicit identities, a refinement
//! relation that supports alphabet expansion and multiple inheritance of
//! behaviour, and composition with hiding of internal events — all as
//! decision procedures rather than pen-and-paper definitions.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`trace`] | events, traces, the `h/S`, `h∖S`, `h/o`, `h/M` notation |
//! | [`alphabet`] | frozen universes, the exact granule algebra for infinite event sets, `α_o` / `I(…)` |
//! | [`regex`] | trace regular expressions with the `•` binder, `prs`, NFA/DFA machinery |
//! | [`core`] | `⟨O, α, T⟩` specifications, refinement (Def. 2), composition (Def. 4/11), composability (Def. 10), properness (Def. 14), components (Def. 8–9) |
//! | [`check`] | finitization, parallel bounded exploration, the mechanized meta-theory (PVS substitute) |
//! | [`lang`] | an OUN-flavoured surface language |
//! | [`sim`] | an actor runtime and online safety monitors |
//!
//! ## Quickstart
//!
//! ```rust
//! use pospec::prelude::*;
//!
//! // Example 1's universe: an access controller o, environment Objects.
//! let mut b = UniverseBuilder::new();
//! let objects = b.object_class("Objects").unwrap();
//! let data = b.data_class("Data").unwrap();
//! let o = b.object("o").unwrap();
//! let r = b.method_with("R", data).unwrap();
//! b.class_witnesses(objects, 2).unwrap();
//! b.data_witnesses(data, 1).unwrap();
//! let u = b.freeze();
//!
//! // Read: concurrent reads, unrestricted trace set.
//! let alpha = EventPattern::call(objects, o, r).to_set(&u);
//! let read = Specification::new("Read", [o], alpha, TraceSet::Universal).unwrap();
//! assert!(read.is_interface());
//! assert!(check_refinement(&read, &read, 6).holds());
//! ```

pub use pospec_alphabet as alphabet;
pub use pospec_check as check;
pub use pospec_core as core;
pub use pospec_lang as lang;
pub use pospec_lsp as lsp;
pub use pospec_regex as regex;
pub use pospec_sim as sim;
pub use pospec_trace as trace;

/// Glue between the surface language and the development auditor:
/// build a verifiable [`Development`](pospec_check::Development) from a
/// parsed document's `development { … }` block.
pub mod audit {
    use pospec_check::{Development, DevelopmentError};
    use pospec_lang::parser::DevStmt;
    use pospec_lang::Document;

    /// Register every specification of the document and replay its
    /// development statements.  Structural failures (unknown names,
    /// non-composable merges) surface as [`DevelopmentError`]; proof
    /// obligations are checked later via
    /// [`Development::verify`](pospec_check::Development::verify).
    pub fn development_from(doc: &Document) -> Result<Development, DevelopmentError> {
        let mut dev = Development::new();
        for s in &doc.specs {
            dev.add(s.clone())?;
        }
        // Component declarations: each member's behaviour is the named
        // specification's trace set (the Def. 8–9 semantic reading where
        // the spec *is* the object's full behaviour over its alphabet).
        for cd in &doc.components {
            let members = cd.members.iter().map(|(obj_name, spec_name)| {
                let obj = doc
                    .universe
                    .object_by_name(obj_name)
                    .expect("elaborator validated the object name");
                let behaviour = doc
                    .spec(spec_name)
                    .expect("elaborator validated the spec name")
                    .trace_set()
                    .clone();
                pospec_core::SemanticObject::new(obj, behaviour)
            });
            dev.add_component(&cd.name, pospec_core::Component::new(members))?;
        }
        for stmt in &doc.development {
            match stmt {
                DevStmt::Refine { concrete, abstract_, .. } => {
                    dev.claim_refines(concrete, abstract_)?;
                }
                DevStmt::Compose { name, left, right, .. } => {
                    dev.merge(name, left, right)?;
                }
                DevStmt::Sound { spec, component, .. } => {
                    dev.claim_sound(spec, component)?;
                }
            }
        }
        Ok(dev)
    }
}

/// The most commonly used items, in one import.
pub mod prelude {
    pub use pospec_alphabet::{
        admissible_alphabet, alpha_object, internal_between, internal_of_pair, internal_of_set,
        ArgSpec, EventPattern, EventSet, ObjSpec, Universe, UniverseBuilder,
    };
    pub use pospec_check::{enumerate_spec_traces, is_deadlocked_bounded, Parallelism};
    pub use pospec_core::{
        check_refinement, compose, is_composable, is_proper_refinement, observable_deadlock,
        observable_equiv, refines, Component, SemanticObject, SpecError, Specification, TraceSet,
        Verdict,
    };
    pub use pospec_lang::parse_document;
    pub use pospec_regex::{prs, Re, Template, VarId};
    pub use pospec_sim::{
        DeterministicRuntime, FaultPlan, FaultRates, Monitor, MonitorVerdict, RunConfig,
        RunOutcome, StopReason, SupervisedRun, ThreadedRuntime,
    };
    pub use pospec_trace::{Arg, Event, Trace};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compile_and_work() {
        let mut b = UniverseBuilder::new();
        let objects = b.object_class("Objects").unwrap();
        let o = b.object("o").unwrap();
        let m = b.method("M").unwrap();
        b.class_witnesses(objects, 1).unwrap();
        let u = b.freeze();
        let alpha = EventPattern::call(objects, o, m).to_set(&u);
        let s = Specification::new("S", [o], alpha, TraceSet::Universal).unwrap();
        assert!(refines(&s, &s));
    }
}
