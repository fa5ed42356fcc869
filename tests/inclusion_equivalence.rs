//! Verdict equivalence of the minimized + on-the-fly inclusion pipeline.
//!
//! The cached checker runs Hopcroft-minimized automata through the lazy
//! product search (`A × ¬lift(B)`, explored breadth-first in symbol
//! order) instead of materializing the lifted abstract automaton.  That
//! rebuild is admissible only if it is *observationally invisible*: on
//! every shipping specification pair and on generated spec/trace
//! families, the full [`Verdict`] — holds/fails, exactness flag, and the
//! counterexample trace itself — must equal the eager, uncached
//! [`check_refinement`] reference.  Counterexamples are additionally
//! validated semantically: the witness is a member of the concrete trace
//! set whose projection onto the abstract alphabet escapes the abstract
//! trace set.  On generated pairs the bounded falsifier of `pospec-check`
//! is a second, automaton-free oracle for the same witnesses.

use pospec::prelude::*;
use pospec_bench::paper::Paper;
use pospec_check::{bounded_refinement_counterexample, Arena, SpecGen};
use pospec_core::{check_refinement_cached, refinement_conditions, DfaCache, Verdict};

const DEPTH: usize = 6;

/// Assert the cached (minimized, on-the-fly) verdict equals the eager
/// uncached one, and that any counterexample is semantically valid.
fn assert_equivalent(
    tag: &str,
    cache: &DfaCache,
    concrete: &Specification,
    abstract_: &Specification,
    depth: usize,
) -> Verdict {
    let eager = check_refinement(concrete, abstract_, depth);
    let lazy = check_refinement_cached(cache, concrete, abstract_, depth);
    assert_eq!(lazy, eager, "{tag}: cached/on-the-fly verdict must equal the eager reference");
    if let Verdict::Fails { counterexample: Some(c), .. } = &lazy {
        assert!(
            concrete.contains_trace(c),
            "{tag}: counterexample must be a member of the concrete trace set: {c}"
        );
        let projected = c.project(abstract_.alphabet());
        // The trie view of an opaque predicate answers membership exactly
        // only up to its depth; within it the witness's projection must
        // genuinely escape the abstract set.
        if abstract_.trace_set().is_regular() || projected.len() <= depth {
            assert!(
                !abstract_.contains_trace(&projected),
                "{tag}: projected counterexample must leave the abstract trace set: {projected}"
            );
        }
    }
    eager
}

/// The bounded falsifier enumerates `T(Γ′)` breadth-first in symbol
/// order up to `depth` and decides membership directly, without automata.
/// It must find a witness exactly when the cached verdict's shortest,
/// least witness fits in `depth` — and then that same witness — whether
/// it searches sequentially or on threads.
fn assert_bounded_agrees(
    tag: &str,
    cache: &DfaCache,
    concrete: &Specification,
    abstract_: &Specification,
    depth: usize,
) {
    if !refinement_conditions(concrete, abstract_).all_ok() {
        return; // the falsifier only decides condition 3
    }
    let verdict = check_refinement_cached(cache, concrete, abstract_, depth);
    let expected = verdict.counterexample().filter(|w| w.len() <= depth);
    for par in [Parallelism::Sequential, Parallelism::Threads] {
        let bounded = bounded_refinement_counterexample(concrete, abstract_, depth, par);
        assert_eq!(bounded.as_ref(), expected, "{tag}: bounded falsifier ({par:?}) disagrees");
    }
}

#[test]
fn paper_spec_matrix_verdicts_are_identical() {
    // Every ordered pair of the six shipping interface specifications
    // (Examples 1–6), diagonal included: 36 pairs through one shared
    // cache, so later pairs run on interned minimized automata.
    let p = Paper::new();
    let specs = p.interface_specs();
    let cache = DfaCache::new();
    let mut eager_verdicts = Vec::new();
    for c in &specs {
        for a in &specs {
            let tag = format!("paper {} ⊑ {}", c.name(), a.name());
            let eager = assert_equivalent(&tag, &cache, c, a, DEPTH);
            eager_verdicts.push((tag, eager));
        }
    }
    // And again warm — every automaton now comes straight off the cache;
    // the eager reference is computed once above and reused.
    let mut it = eager_verdicts.iter();
    for c in &specs {
        for a in &specs {
            let (tag, eager) = it.next().expect("36 verdicts");
            let warm = check_refinement_cached(&cache, c, a, DEPTH);
            assert_eq!(&warm, eager, "{tag} (warm)");
        }
    }
}

#[test]
fn shipping_document_pairs_are_identical() {
    // All pairs within each shipping `.pos` document (same universe).
    for file in ["readers_writers.pos", "rw_component.pos", "session_service.pos", "auction.pos"] {
        let path = format!("{}/specs/{file}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let doc = parse_document(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        let cache = DfaCache::new();
        for c in &doc.specs {
            for a in &doc.specs {
                assert_equivalent(
                    &format!("{file}: {} ⊑ {}", c.name(), a.name()),
                    &cache,
                    c,
                    a,
                    DEPTH,
                );
            }
        }
    }
}

#[test]
fn generated_regular_pairs_are_identical_across_depths() {
    let arena = Arena::new(3, 2);
    let mut g = SpecGen::new(arena.clone(), 6101);
    let cache = DfaCache::new();
    for i in 0..25 {
        let spec = g.random_env_spec(&[arena.objs[0], arena.objs[1]], "R");
        let abs = g.abstraction_of(&spec, true, DEPTH);
        let other = g.random_env_spec(&[arena.objs[0]], "S");
        for depth in [0, 1, DEPTH] {
            assert_equivalent(&format!("gen/holds #{i}@{depth}"), &cache, &spec, &abs, depth);
            assert_equivalent(&format!("gen/random #{i}@{depth}"), &cache, &spec, &other, depth);
        }
        for (tag, a) in [("holds", &abs), ("random", &other), ("reflexive", &spec)] {
            assert_bounded_agrees(&format!("gen/{tag} #{i} bounded"), &cache, &spec, a, 4);
        }
    }
}

#[test]
fn generated_predicate_pairs_are_identical_and_witnesses_shortest() {
    use pospec_core::TraceSet;
    use pospec_trace::Trace;
    let arena = Arena::new(2, 2);
    let mut g = SpecGen::new(arena.clone(), 6102);
    let cache = DfaCache::new();
    let m0 = arena.methods[0];
    let mut failing = 0;
    for i in 0..20 {
        let spec = g.random_env_spec(&[arena.objs[0]], "P");
        let k = i % 3;
        let pred = Specification::new(
            format!("≤{k}#{i}"),
            spec.objects().iter().copied(),
            spec.alphabet().clone(),
            TraceSet::predicate(format!("≤{k} m0"), move |h: &Trace| h.count_method(m0) <= k),
        )
        .expect("same admissible alphabet");
        assert_equivalent(&format!("pred/concrete #{i}"), &cache, &pred, &spec, DEPTH);
        assert_equivalent(&format!("pred/abstract #{i}"), &cache, &spec, &pred, DEPTH);
        assert_bounded_agrees(&format!("pred/concrete #{i} bounded"), &cache, &pred, &spec, DEPTH);
        assert_bounded_agrees(&format!("pred/abstract #{i} bounded"), &cache, &spec, &pred, DEPTH);
        if let Verdict::Fails { counterexample: Some(c), .. } =
            check_refinement_cached(&cache, &spec, &pred, DEPTH)
        {
            failing += 1;
            // Shortest-first: strictly shorter members must still project
            // inside the abstract set, i.e. no shorter witness exists.
            for p in c.prefixes() {
                if p.len() < c.len() && spec.contains_trace(&p) {
                    assert!(
                        pred.contains_trace(&p.project(pred.alphabet())),
                        "instance {i}: a shorter witness was skipped: {p}"
                    );
                }
            }
        }
    }
    assert!(failing > 0, "generator should produce failing predicate pairs");
}

#[test]
fn generated_trace_suites_agree_with_verdicts() {
    // Sanity tie-in between the automaton pipeline and direct trace-set
    // membership: when the cached verdict says `holds` exactly, every
    // trace of the concrete spec's transition-covering suite must project
    // into the abstract set — generated trace families, not just the
    // automaton's own counterexample search.
    use pospec_check::testgen::transition_cover;
    let p = Paper::new();
    let specs = p.interface_specs();
    let cache = DfaCache::new();
    let mut checked = 0;
    for c in &specs {
        let suite = transition_cover(c, DEPTH);
        for a in &specs {
            let v = check_refinement_cached(&cache, c, a, DEPTH);
            if !matches!(v, Verdict::Holds { exact: true }) {
                continue;
            }
            for h in &suite.traces {
                assert!(
                    a.contains_trace(&h.project(a.alphabet())),
                    "{} ⊑ {} holds exactly, but member {h} projects outside",
                    c.name(),
                    a.name()
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "suites should exercise at least one holding pair");
}
