//! The refinement relation `Γ′ ⊑ Γ` of Def. 2.
//!
//! `Γ′` refines `Γ` iff
//!
//! 1. `O(Γ) ⊆ O(Γ′)` — objects may be *added* (the `new` command of
//!    object-oriented languages);
//! 2. `α(Γ) ⊆ α(Γ′)` — the alphabet may be *expanded* (new methods, new
//!    communication partners);
//! 3. `∀ h ∈ T(Γ′) : h/α(Γ) ∈ T(Γ)` — on the old alphabet, the behaviour
//!    only becomes more deterministic.
//!
//! Conditions 1–2 are decided **exactly** on the granule algebra.
//! Condition 3 is an inclusion between trace languages: the concrete
//! automaton `A′` of `T(Γ′)` over the finitized `α(Γ′)` must be included
//! in the inverse projection of the automaton of `T(Γ)` — which is exact
//! for regular backends and exact-up-to-depth when an opaque predicate is
//! involved.  On failure a shortest counterexample trace is produced.

use crate::cache::{check_refinement_cached, DfaCache};
use crate::spec::Specification;
use crate::traceset::{traceset_dfa, TraceSet, DEFAULT_PREDICATE_DEPTH};
use pospec_regex::{
    accepts_outside_bounds, accepts_word_of_length_at_least, lazy_lifted_inclusion, ConcreteDfa,
};
use pospec_trace::{Event, Trace};
use std::fmt;
use std::sync::Arc;

/// The outcomes of the two statically-decidable refinement conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefinementConditions {
    /// Condition 1: `O(Γ) ⊆ O(Γ′)`.
    pub objects_ok: bool,
    /// Condition 2: `α(Γ) ⊆ α(Γ′)`.
    pub alphabet_ok: bool,
}

impl RefinementConditions {
    /// Both static conditions hold.
    pub fn all_ok(&self) -> bool {
        self.objects_ok && self.alphabet_ok
    }
}

/// Which Def.-2 condition failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailedCondition {
    /// Condition 1 (object inclusion).
    Objects,
    /// Condition 2 (alphabet inclusion).
    Alphabet,
    /// Condition 3 (trace projection).
    Traces,
}

/// The result of a refinement check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The refinement holds.  `exact` is true when every trace set
    /// involved is regular, making the automaton check a decision
    /// procedure over the finitization; otherwise the verdict is exact up
    /// to the predicate-trie depth.
    Holds {
        /// Whether the check was a full decision procedure.
        exact: bool,
    },
    /// The refinement fails.
    Fails {
        /// The violated condition.
        reason: FailedCondition,
        /// For condition 3: a trace of `T(Γ′)` whose projection leaves
        /// `T(Γ)`.
        counterexample: Option<Trace>,
    },
}

impl Verdict {
    /// Did the refinement hold?
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds { .. })
    }

    /// The counterexample trace, if the check failed with one.
    pub fn counterexample(&self) -> Option<&Trace> {
        match self {
            Verdict::Fails { counterexample, .. } => counterexample.as_ref(),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Holds { exact: true } => write!(f, "holds (exact)"),
            Verdict::Holds { exact: false } => write!(f, "holds (up to predicate depth)"),
            Verdict::Fails { reason, counterexample } => {
                write!(f, "fails ({reason:?})")?;
                if let Some(c) = counterexample {
                    write!(f, " witness: {c}")?;
                }
                Ok(())
            }
        }
    }
}

/// Evaluate the statically-decidable conditions 1–2 of Def. 2, exactly.
pub fn refinement_conditions(
    concrete: &Specification,
    abstract_: &Specification,
) -> RefinementConditions {
    RefinementConditions {
        objects_ok: abstract_.objects().is_subset(concrete.objects()),
        alphabet_ok: abstract_.alphabet().is_subset(concrete.alphabet()),
    }
}

/// Decide condition 3 from already-built automata.
///
/// `a` is the concrete trace set's view over the finitized `α(Γ′)`;
/// `b_lifted` is the abstract view lifted (inverse projection) to the
/// same alphabet.  Shared by the uncached [`check_refinement`] and the
/// cached [`crate::cache::check_refinement_cached`] paths, so both
/// produce identical verdicts and counterexamples.
///
/// Inexact (predicate-trie) views are compared only on the *symmetric*
/// comparison region where both sides are exact:
///
/// * if the concrete side is inexact, words longer than `pred_depth`
///   are excluded (the concrete trie is silent about them);
/// * if the abstract side is inexact, words whose **projection** onto
///   `α(Γ)` is longer than `pred_depth` are excluded (the abstract trie
///   is silent about those projections) — a strictly larger region than
///   truncating by total concrete length, so counterexamples whose
///   concrete length exceeds the depth but whose projection does not are
///   still found.
///
/// Within the region both tries answer membership exactly, so a verdict
/// is reported `exact` whenever nothing was clipped away: every view is
/// regular or trie-exact, no word of `a` fell outside the region, and —
/// when the concrete side is a trie — no member sits *on* the depth
/// horizon (by prefix-closedness, a deeper member would have a
/// horizon-length prefix in the trie, so an empty horizon proves the
/// whole language was explored).
pub(crate) fn condition3_verdict(
    concrete_ts: &TraceSet,
    abstract_ts: &TraceSet,
    a: &ConcreteDfa,
    b_lifted: &ConcreteDfa,
    sigma_conc: &Arc<Vec<Event>>,
    sigma_abs: &Arc<Vec<Event>>,
    pred_depth: usize,
) -> Verdict {
    let conc_regular = concrete_ts.is_regular();
    let abs_regular = abstract_ts.is_regular();
    if conc_regular && abs_regular {
        return match a.included_in(b_lifted) {
            Ok(()) => Verdict::Holds { exact: true },
            Err(word) => Verdict::Fails {
                reason: FailedCondition::Traces,
                counterexample: Some(Trace::from_events(word)),
            },
        };
    }
    let mut region = ConcreteDfa::universal(Arc::clone(sigma_conc));
    if !conc_regular {
        region = region.intersect(&ConcreteDfa::length_at_most(Arc::clone(sigma_conc), pred_depth));
    }
    if !abs_regular {
        region = region.intersect(
            &ConcreteDfa::length_at_most(Arc::clone(sigma_abs), pred_depth)
                .lift_to(Arc::clone(sigma_conc)),
        );
    }
    let mut clipped = a.included_in(&region).is_err();
    if !conc_regular && !clipped {
        // Members *on* the horizon may have unexplored extensions, so the
        // language counts as fully explored only when every member is
        // strictly shorter than the trie depth.  Asking for a member of
        // length ≥ depth covers depth 0 uniformly: an empty language was
        // explored completely even by a depth-0 trie.
        clipped = accepts_word_of_length_at_least(a, pred_depth);
    }
    match a.intersect(&region).included_in(b_lifted) {
        Ok(()) => Verdict::Holds {
            exact: !clipped
                && concrete_ts.trie_exact_to_depth()
                && abstract_ts.trie_exact_to_depth(),
        },
        Err(word) => Verdict::Fails {
            reason: FailedCondition::Traces,
            counterexample: Some(Trace::from_events(word)),
        },
    }
}

/// What the on-the-fly inclusion engine did for one condition-3 check —
/// recorded into the cache's counters by the cached checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OtfOutcome {
    /// The search stopped at a counterexample instead of exhausting the
    /// reachable product.
    pub early_exit: bool,
    /// Product states dequeued by the main inclusion search.
    pub explored: u64,
}

/// Decide condition 3 **on the fly**: the same verdict (and witness) as
/// [`condition3_verdict`], produced without materializing the lifted
/// abstract automaton, the region automaton, or their product.
///
/// `a` is the concrete view over the finitized `α(Γ′)`; `b` is the
/// abstract view over its *own* alphabet `α(Γ)` — the inverse projection
/// is simulated per symbol by [`lazy_lifted_inclusion`], and the partial
/// comparison region (concrete length / projected length at most
/// `pred_depth` when the respective side is a predicate trie) becomes a
/// pair of counters pruning the product walk.  The search is breadth-first
/// in symbol order, so a failing check returns the identical shortest,
/// lexicographically-least counterexample as the eager pipeline and stops
/// at it — the early exit that makes failing checks cheap.
pub(crate) fn condition3_verdict_lazy(
    concrete_ts: &TraceSet,
    abstract_ts: &TraceSet,
    a: &ConcreteDfa,
    b: &ConcreteDfa,
    pred_depth: usize,
) -> (Verdict, OtfOutcome) {
    let conc_regular = concrete_ts.is_regular();
    let abs_regular = abstract_ts.is_regular();
    let conc_bound = if conc_regular { None } else { Some(pred_depth) };
    let proj_bound = if abs_regular { None } else { Some(pred_depth) };
    let outcome = lazy_lifted_inclusion(a, b, conc_bound, proj_bound);
    let otf = OtfOutcome { early_exit: outcome.early_exit(), explored: outcome.explored };
    if let Some(word) = outcome.counterexample {
        return (
            Verdict::Fails {
                reason: FailedCondition::Traces,
                counterexample: Some(Trace::from_events(word)),
            },
            otf,
        );
    }
    // Inclusion holds on the comparison region; the verdict is exact only
    // when nothing fell outside it (same rule as the eager path).
    let mut clipped = accepts_outside_bounds(a, b, conc_bound, proj_bound);
    if !conc_regular && !clipped {
        clipped = accepts_word_of_length_at_least(a, pred_depth);
    }
    let exact = !clipped && concrete_ts.trie_exact_to_depth() && abstract_ts.trie_exact_to_depth();
    (Verdict::Holds { exact }, otf)
}

/// Full refinement check `concrete ⊑ abstract_` (Def. 2), eager and
/// uncached: it materializes the lifted abstract automaton and the full
/// product.
///
/// Every surface decides refinement with the cached, on-the-fly
/// [`check_refinement_cached`]; this function is the reference it is
/// tested against (`tests/inclusion_equivalence.rs`,
/// `tests/cache_equivalence.rs`), and `paper_report` and the benchmark
/// time it as the uncached baseline.
///
/// `pred_depth` bounds the trie unfolding of opaque predicate trace sets;
/// it is irrelevant for regular backends.
pub fn check_refinement(
    concrete: &Specification,
    abstract_: &Specification,
    pred_depth: usize,
) -> Verdict {
    let conds = refinement_conditions(concrete, abstract_);
    if !conds.objects_ok {
        return Verdict::Fails { reason: FailedCondition::Objects, counterexample: None };
    }
    if !conds.alphabet_ok {
        return Verdict::Fails { reason: FailedCondition::Alphabet, counterexample: None };
    }
    let u = concrete.universe();
    let sigma_conc = Arc::new(concrete.alphabet().enumerate_concrete());
    let sigma_abs = Arc::new(abstract_.alphabet().enumerate_concrete());
    let a = traceset_dfa(u, concrete.trace_set(), Arc::clone(&sigma_conc), pred_depth);
    let b = traceset_dfa(u, abstract_.trace_set(), Arc::clone(&sigma_abs), pred_depth)
        .lift_to(Arc::clone(&sigma_conc));
    condition3_verdict(
        concrete.trace_set(),
        abstract_.trace_set(),
        &a,
        &b,
        &sigma_conc,
        &sigma_abs,
        pred_depth,
    )
}

/// Convenience: does `concrete ⊑ abstract_` hold with default settings?
pub fn refines(concrete: &Specification, abstract_: &Specification) -> bool {
    check_refinement_cached(&DfaCache::new(), concrete, abstract_, DEFAULT_PREDICATE_DEPTH).holds()
}

/// The **baseline** the paper argues against (§3, §9): traditional
/// trace-set refinement over a *fixed* alphabet, as in Action Systems,
/// CSP, FOCUS and TLA — `Γ′` refines `Γ` iff the object sets and
/// alphabets coincide and `T(Γ′) ⊆ T(Γ)`.
///
/// Under this relation no alphabet expansion is possible: two viewpoint
/// specifications with different alphabets can never have a common
/// refinement, and none of the paper's development steps (Examples 2–3)
/// type-check.  Kept here so the comparison is executable (the BASE1
/// experiment).
pub fn check_traditional_refinement(
    concrete: &Specification,
    abstract_: &Specification,
    pred_depth: usize,
) -> Verdict {
    if concrete.objects() != abstract_.objects() {
        return Verdict::Fails { reason: FailedCondition::Objects, counterexample: None };
    }
    if !concrete.alphabet().set_eq(abstract_.alphabet()) {
        return Verdict::Fails { reason: FailedCondition::Alphabet, counterexample: None };
    }
    // With equal alphabets, condition 3 degenerates to plain inclusion —
    // exactly `T(Γ′) ⊆ T(Γ)`.
    check_refinement_cached(&DfaCache::new(), concrete, abstract_, pred_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traceset::TraceSet;
    use pospec_alphabet::{EventPattern, Universe, UniverseBuilder};
    use pospec_regex::{Re, Template};
    use pospec_trace::{ClassId, MethodId, ObjectId};

    /// The universe of Examples 1–3.
    struct Fix {
        u: Arc<Universe>,
        o: ObjectId,
        objects: ClassId,
        r: MethodId,
        or_: MethodId,
        cr: MethodId,
    }

    fn fix() -> Fix {
        let mut b = UniverseBuilder::new();
        let objects = b.object_class("Objects").unwrap();
        let data = b.data_class("Data").unwrap();
        let o = b.object("o").unwrap();
        let r = b.method_with("R", data).unwrap();
        let or_ = b.method("OR").unwrap();
        let cr = b.method("CR").unwrap();
        b.class_witnesses(objects, 2).unwrap();
        b.data_witnesses(data, 1).unwrap();
        Fix { u: b.freeze(), o, objects, r, or_, cr }
    }

    /// Example 1's `Read`: concurrent reads, unrestricted.
    fn read(f: &Fix) -> Specification {
        let alpha = EventPattern::call(f.objects, f.o, f.r).to_set(&f.u);
        Specification::new("Read", [f.o], alpha, TraceSet::Universal).unwrap()
    }

    /// Example 2's `Read2`: per-caller bracketing `[OR R* CR]*`.
    fn read2(f: &Fix) -> Specification {
        let alpha = EventPattern::call(f.objects, f.o, f.or_)
            .to_set(&f.u)
            .union(&EventPattern::call(f.objects, f.o, f.cr).to_set(&f.u))
            .union(&EventPattern::call(f.objects, f.o, f.r).to_set(&f.u));
        // ∀x: h/x prs [OR R* CR]* — expressed as one regex per caller is
        // awkward; instead use the per-caller predicate directly.
        let (o, or_, cr, r) = (f.o, f.or_, f.cr, f.r);
        let u = Arc::clone(&f.u);
        let ts = TraceSet::predicate("∀x: h/x prs [OR R* CR]*", move |h| {
            let x_re = |x: ObjectId| {
                Re::seq([
                    Re::lit(Template::call(x, o, or_)),
                    Re::lit(Template::call(x, o, r)).star(),
                    Re::lit(Template::call(x, o, cr)),
                ])
                .star()
            };
            h.callers().into_iter().all(|x| {
                let hx = h.project_caller(x);
                pospec_regex::prs(&u, &hx, &x_re(x))
            })
        });
        Specification::new("Read2", [f.o], alpha, ts).unwrap()
    }

    #[test]
    fn refinement_is_reflexive() {
        let f = fix();
        let s = read(&f);
        let v = check_refinement(&s, &s, 6);
        assert!(v.holds());
        assert!(matches!(v, Verdict::Holds { exact: true }));
    }

    #[test]
    fn example_2_read2_refines_read() {
        let f = fix();
        let v = check_refinement(&read2(&f), &read(&f), 5);
        assert!(v.holds(), "{v}");
        // Read2 uses a predicate backend → not an exact verdict.
        assert!(matches!(v, Verdict::Holds { exact: false }));
    }

    #[test]
    fn read_does_not_refine_read2_alphabet_condition() {
        let f = fix();
        let v = check_refinement(&read(&f), &read2(&f), 5);
        assert!(matches!(v, Verdict::Fails { reason: FailedCondition::Alphabet, .. }));
    }

    #[test]
    fn trace_condition_failure_produces_counterexample() {
        let f = fix();
        // "Refinement" with same alphabet but larger trace set: fails.
        let restricted = {
            let alpha = EventPattern::call(f.objects, f.o, f.r).to_set(&f.u);
            let ts = TraceSet::predicate("≤1 R", {
                let r = f.r;
                move |h: &Trace| h.count_method(r) <= 1
            });
            Specification::new("ReadOnce", [f.o], alpha, ts).unwrap()
        };
        let v = check_refinement(&read(&f), &restricted, 4);
        match v {
            Verdict::Fails { reason: FailedCondition::Traces, counterexample: Some(c) } => {
                assert_eq!(c.len(), 2, "shortest violation: two reads");
                assert!(!restricted.contains_trace(&c));
                assert!(read(&f).contains_trace(&c));
            }
            other => panic!("expected trace failure, got {other:?}"),
        }
        // And the opposite direction holds.
        assert!(check_refinement(&restricted, &read(&f), 4).holds());
    }

    #[test]
    fn object_condition_failure() {
        let f = fix();
        // An abstract spec over a *different* object.
        let mut b = UniverseBuilder::new();
        let objects = b.object_class("Objects").unwrap();
        let o2 = b.object("o2").unwrap();
        let m = b.method("M").unwrap();
        b.class_witnesses(objects, 1).unwrap();
        let u2 = b.freeze();
        let other = Specification::new(
            "Other",
            [o2],
            EventPattern::call(objects, o2, m).to_set(&u2),
            TraceSet::Universal,
        )
        .unwrap();
        // Using the same universe is required for alphabet ops, so compare
        // object sets directly through refinement_conditions of two specs
        // over f's universe instead.
        let s = read(&f);
        let wit_spec = Specification::new_unchecked(
            "shifted",
            [f.u.class_witnesses(f.objects).next().unwrap()],
            s.alphabet().clone(),
            TraceSet::Universal,
        );
        let conds = refinement_conditions(&s, &wit_spec);
        assert!(!conds.objects_ok);
        assert!(conds.alphabet_ok);
        let v = check_refinement(&s, &wit_spec, 3);
        assert!(matches!(v, Verdict::Fails { reason: FailedCondition::Objects, .. }));
        let _ = other;
    }

    #[test]
    fn counterexample_beyond_depth_horizon_is_found() {
        let f = fix();
        // Concrete: traces must follow OR·OR·OR·R·R (prefixes thereof).
        // Abstract: at most one R, as an opaque predicate over the
        // R-only alphabet, with trie depth 3.  The shortest violating
        // trace has *concrete* length 5 > 3, but its projection R·R has
        // length 2 ≤ 3 — truncating by total concrete length (the old
        // asymmetric rule) would have clipped it and wrongly reported
        // that the refinement holds.
        let x = pospec_regex::VarId(0);
        let alpha_conc = EventPattern::call(f.objects, f.o, f.or_)
            .to_set(&f.u)
            .union(&EventPattern::call(f.objects, f.o, f.r).to_set(&f.u));
        let re = Re::seq([
            Re::lit(Template::call(x, f.o, f.or_)),
            Re::lit(Template::call(x, f.o, f.or_)),
            Re::lit(Template::call(x, f.o, f.or_)),
            Re::lit(Template::call(x, f.o, f.r)),
            Re::lit(Template::call(x, f.o, f.r)),
        ])
        .bind(x, f.objects);
        let concrete = Specification::new("Burst", [f.o], alpha_conc, TraceSet::prs(re)).unwrap();
        let abstract_ = {
            let alpha = EventPattern::call(f.objects, f.o, f.r).to_set(&f.u);
            let r = f.r;
            let ts = TraceSet::predicate("≤1 R", move |h: &Trace| h.count_method(r) <= 1);
            Specification::new("ReadOnce", [f.o], alpha, ts).unwrap()
        };
        let v = check_refinement(&concrete, &abstract_, 3);
        match v {
            Verdict::Fails { reason: FailedCondition::Traces, counterexample: Some(c) } => {
                assert_eq!(c.len(), 5, "full concrete burst, beyond the depth horizon");
                assert!(concrete.contains_trace(&c));
            }
            other => panic!("expected a trace counterexample, got {other:?}"),
        }
    }

    #[test]
    fn finite_predicate_within_depth_is_exact() {
        let f = fix();
        let alpha = EventPattern::call(f.objects, f.o, f.r).to_set(&f.u);
        let r = f.r;
        let restricted = Specification::new(
            "ReadOnce",
            [f.o],
            alpha.clone(),
            TraceSet::predicate("≤1 R", move |h: &Trace| h.count_method(r) <= 1),
        )
        .unwrap();
        let any = Specification::new("Read", [f.o], alpha, TraceSet::Universal).unwrap();
        // Every member has length ≤ 1, strictly inside depth 4: the trie
        // explored the whole language, so the verdict is a decision.
        let v = check_refinement(&restricted, &any, 4);
        assert!(matches!(v, Verdict::Holds { exact: true }), "{v:?}");
        // A predicate whose members reach the horizon stays inexact.
        let loose = Specification::new(
            "ReadFive",
            [f.o],
            restricted.alphabet().clone(),
            TraceSet::predicate("≤5 R", move |h: &Trace| h.count_method(r) <= 5),
        )
        .unwrap();
        let v = check_refinement(&loose, &any, 3);
        assert!(matches!(v, Verdict::Holds { exact: false }), "{v:?}");
    }

    #[test]
    fn horizon_edge_depths_zero_and_one() {
        let f = fix();
        let alpha = EventPattern::call(f.objects, f.o, f.r).to_set(&f.u);
        let any = Specification::new("Read", [f.o], alpha.clone(), TraceSet::Universal).unwrap();
        let r = f.r;

        // Depth 0, empty predicate language: even a depth-0 trie explores
        // an empty language completely, so the verdict is a decision.
        // (Previously depth 0 was unconditionally clipped.)
        let never = Specification::new(
            "Never",
            [f.o],
            alpha.clone(),
            TraceSet::predicate("false", |_h: &Trace| false),
        )
        .unwrap();
        let v = check_refinement(&never, &any, 0);
        assert!(matches!(v, Verdict::Holds { exact: true }), "{v:?}");

        // Depth 0, non-empty language: ε itself sits on the horizon, so
        // the verdict cannot claim exactness.
        let eps_only = Specification::new(
            "NoReads",
            [f.o],
            alpha.clone(),
            TraceSet::predicate("no R", move |h: &Trace| h.count_method(r) == 0),
        )
        .unwrap();
        let v = check_refinement(&eps_only, &any, 0);
        assert!(matches!(v, Verdict::Holds { exact: false }), "{v:?}");

        // Depth 1: the same language {ε} now lies strictly inside the
        // horizon — exact again.
        let v = check_refinement(&eps_only, &any, 1);
        assert!(matches!(v, Verdict::Holds { exact: true }), "{v:?}");

        // Cached on-the-fly path must agree verdict-for-verdict.
        let cache = crate::DfaCache::new();
        for (spec, depth) in [(&never, 0usize), (&eps_only, 0), (&eps_only, 1)] {
            let cached = crate::check_refinement_cached(&cache, spec, &any, depth);
            let plain = check_refinement(spec, &any, depth);
            assert_eq!(cached, plain, "{} at depth {depth}", spec.name());
        }
    }

    #[test]
    fn horizon_length_members_block_exactness_exactly_at_the_boundary() {
        let f = fix();
        let alpha = EventPattern::call(f.objects, f.o, f.r).to_set(&f.u);
        let any = Specification::new("Read", [f.o], alpha.clone(), TraceSet::Universal).unwrap();
        let r = f.r;
        // Members have length ≤ 3 (one witness caller, R only).
        let three = Specification::new(
            "ReadThrice",
            [f.o],
            alpha,
            TraceSet::predicate("≤3 R", move |h: &Trace| h.count_method(r) <= 3),
        )
        .unwrap();
        // Longest member exactly on the horizon: not off by one — still
        // inexact at depth 3...
        let v = check_refinement(&three, &any, 3);
        assert!(matches!(v, Verdict::Holds { exact: false }), "{v:?}");
        // ...and exact from depth 4 on, where every member is strictly
        // inside the trie.
        let v = check_refinement(&three, &any, 4);
        assert!(matches!(v, Verdict::Holds { exact: true }), "{v:?}");
        let cache = crate::DfaCache::new();
        for depth in [3usize, 4] {
            let cached = crate::check_refinement_cached(&cache, &three, &any, depth);
            assert_eq!(cached, check_refinement(&three, &any, depth), "depth {depth}");
        }
    }

    #[test]
    fn transitivity_on_a_chain() {
        let f = fix();
        let top = read(&f);
        let mid = read2(&f);
        // bottom: Read2 further restricted to at most one OR per caller.
        let bottom = {
            let (or_, u) = (f.or_, Arc::clone(&f.u));
            let mid2 = read2(&f);
            let ts = TraceSet::conj([
                mid2.trace_set().clone(),
                TraceSet::predicate("≤1 OR", move |h: &Trace| h.count_method(or_) <= 1),
            ]);
            let _ = u;
            Specification::new("Read2Once", [f.o], mid2.alphabet().clone(), ts).unwrap()
        };
        assert!(check_refinement(&bottom, &mid, 4).holds());
        assert!(check_refinement(&mid, &top, 4).holds());
        assert!(check_refinement(&bottom, &top, 4).holds(), "transitivity instance");
    }
}
