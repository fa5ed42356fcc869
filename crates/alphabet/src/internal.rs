//! The paper's derived event sets: `α_o`, `I(o₁,o₂)`, `I(S)`, `I(S₁,S₂)`
//! and the Def.-1 admissible alphabet of an object set.
//!
//! Def. 3 makes the internal-event set of a pair of objects the set of
//! *all* possible communication events between them — over every method,
//! declared or not: *"In some sense, we hide more than we can see."*  The
//! granule representation renders this faithfully: each `I` set includes
//! the undeclared-method residue granule.

use crate::pattern::EventPattern;
use crate::set::EventSet;
use crate::universe::Universe;
use pospec_trace::ObjectId;
use std::collections::BTreeSet;
use std::sync::Arc;

/// `α_o` — the set of all possible observable communication events of the
/// object `o` (paper §2): every event with `o` as caller or callee, any
/// partner, any method, any argument.
pub fn alpha_object(u: &Arc<Universe>, o: ObjectId) -> EventSet {
    let outgoing = EventPattern::any_method(o, crate::pattern::ObjSpec::Any).to_set(u);
    let incoming = EventPattern::any_method(crate::pattern::ObjSpec::Any, o).to_set(u);
    outgoing.union(&incoming)
}

/// `I(o₁,o₂)` — all possible communication events between two objects, in
/// both directions (Def. 3).
pub fn internal_of_pair(u: &Arc<Universe>, o1: ObjectId, o2: ObjectId) -> EventSet {
    if o1 == o2 {
        return EventSet::empty(u);
    }
    let fwd = EventPattern::any_method(o1, o2).to_set(u);
    let bwd = EventPattern::any_method(o2, o1).to_set(u);
    fwd.union(&bwd)
}

/// `I(S)` — the pairwise union of the internal events of the objects in
/// `S` (Def. 8): all events with *both* endpoints in `S`.
pub fn internal_of_set(u: &Arc<Universe>, s: &BTreeSet<ObjectId>) -> EventSet {
    let v: Vec<ObjectId> = s.iter().copied().collect();
    let pairs = v.iter().enumerate().flat_map(|(i, &a)| v[i + 1..].iter().map(move |&b| (a, b)));
    union_of_pairs(u, pairs)
}

/// `I(S₁,S₂)` — the events `⟨o,o′,m⟩` with one endpoint in `S₁` and the
/// other in `S₂` (the notation introduced in the proof of Lemma 15).
pub fn internal_between(
    u: &Arc<Universe>,
    s1: &BTreeSet<ObjectId>,
    s2: &BTreeSet<ObjectId>,
) -> EventSet {
    union_of_pairs(u, s1.iter().flat_map(|&a| s2.iter().map(move |&b| (a, b))))
}

/// `⋃ I(a,b)` over the given pairs, built once: a fold of
/// `EventSet::union` would copy the accumulated set once per pair,
/// making `I(S)` quartic in `|S|`.
fn union_of_pairs(
    u: &Arc<Universe>,
    pairs: impl Iterator<Item = (ObjectId, ObjectId)>,
) -> EventSet {
    let mut granules = Vec::new();
    for (a, b) in pairs {
        granules.extend(internal_of_pair(u, a, b).granules().copied());
    }
    EventSet::from_granules(u, granules)
}

/// The Def.-1 upper bound on a specification alphabet for the object set
/// `O`:
///
/// ```text
/// { ⟨o₁,o₂,m⟩ ∈ ⋃_{o∈O} α_o  |  ¬(o₁ ∈ O ∧ o₂ ∈ O) }
/// ```
///
/// i.e. every event involving at least one object of `O`, minus the events
/// internal to `O`.
pub fn admissible_alphabet(u: &Arc<Universe>, objects: &BTreeSet<ObjectId>) -> EventSet {
    let mut union = EventSet::empty(u);
    for &o in objects {
        union = union.union(&alpha_object(u, o));
    }
    union.difference(&internal_of_set(u, objects))
}

/// Decide `alphabet ⊆ admissible_alphabet(u, objects)` without
/// materializing the admissible set.
///
/// [`admissible_alphabet`] expands `α_o`'s `Any` endpoints into one
/// granule per declared object, so building it is `O(|universe|)` —
/// quadratic over a document whose spec count grows with the universe.
/// This check is `O(|alphabet| + |objects|²)` instead: a granule lies
/// under `⋃_{o∈O} α_o` iff one of its endpoint atoms is the atom of
/// some `o ∈ O` (atoms are disjoint, so no other granule can contain
/// an event involving `O`), and the internal events of a small object
/// set are cheap to intersect against.
pub fn alphabet_is_admissible(
    u: &Arc<Universe>,
    objects: &BTreeSet<ObjectId>,
    alphabet: &EventSet,
) -> bool {
    let atoms: BTreeSet<crate::granule::ObjGranule> =
        objects.iter().map(|&o| crate::granule::ObjGranule::of(u, o)).collect();
    alphabet.granules().all(|g| atoms.contains(&g.caller) || atoms.contains(&g.callee))
        && alphabet.intersect(&internal_of_set(u, objects)).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::UniverseBuilder;
    use pospec_trace::{Event, MethodId};

    struct Fix {
        u: Arc<Universe>,
        o1: ObjectId,
        o2: ObjectId,
        o3: ObjectId,
        ow: MethodId,
    }

    fn fix() -> Fix {
        let mut b = UniverseBuilder::new();
        let objects = b.object_class("Objects").unwrap();
        let o1 = b.object("o1").unwrap();
        let o2 = b.object("o2").unwrap();
        let o3 = b.object("o3").unwrap();
        let ow = b.method("OW").unwrap();
        b.class_witnesses(objects, 1).unwrap();
        b.anon_witnesses(1).unwrap();
        b.method_witnesses(1).unwrap();
        Fix { u: b.freeze(), o1, o2, o3, ow }
    }

    #[test]
    fn alpha_object_contains_all_events_of_o() {
        let f = fix();
        let a = alpha_object(&f.u, f.o1);
        assert!(a.contains(&Event::call(f.o1, f.o2, f.ow)));
        assert!(a.contains(&Event::call(f.o2, f.o1, f.ow)));
        let fresh = f.u.method_witnesses().next().unwrap();
        assert!(a.contains(&Event::call(f.o1, f.o3, fresh)));
        assert!(!a.contains(&Event::call(f.o2, f.o3, f.ow)));
        assert!(a.is_infinite());
    }

    #[test]
    fn internal_pair_is_symmetric_and_covers_fresh_methods() {
        let f = fix();
        let i12 = internal_of_pair(&f.u, f.o1, f.o2);
        let i21 = internal_of_pair(&f.u, f.o2, f.o1);
        assert!(i12.set_eq(&i21));
        assert!(i12.contains(&Event::call(f.o1, f.o2, f.ow)));
        assert!(i12.contains(&Event::call(f.o2, f.o1, f.ow)));
        let fresh = f.u.method_witnesses().next().unwrap();
        assert!(
            i12.contains(&Event::call(f.o1, f.o2, fresh)),
            "Def. 3 hides more than we can see: undeclared methods are internal too"
        );
        assert!(!i12.contains(&Event::call(f.o1, f.o3, f.ow)));
        assert!(internal_of_pair(&f.u, f.o1, f.o1).is_empty());
    }

    #[test]
    fn internal_of_set_is_pairwise_union() {
        let f = fix();
        let s: BTreeSet<_> = [f.o1, f.o2, f.o3].into_iter().collect();
        let i = internal_of_set(&f.u, &s);
        let manual = internal_of_pair(&f.u, f.o1, f.o2)
            .union(&internal_of_pair(&f.u, f.o1, f.o3))
            .union(&internal_of_pair(&f.u, f.o2, f.o3));
        assert!(i.set_eq(&manual));
        // Events leaving the set are not internal.
        let wit = f.u.anon_witnesses().next().unwrap();
        assert!(!i.contains(&Event::call(f.o1, wit, f.ow)));
    }

    #[test]
    fn one_pass_internal_sets_equal_the_pairwise_union_fold() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // The reference: the Def.-8 pairwise union, one `union` per pair.
        fn fold(u: &Arc<Universe>, pairs: &[(ObjectId, ObjectId)]) -> EventSet {
            pairs
                .iter()
                .fold(EventSet::empty(u), |acc, &(a, b)| acc.union(&internal_of_pair(u, a, b)))
        }
        let mut b = UniverseBuilder::new();
        let objects = b.object_class("Objects").unwrap();
        let mut pool: Vec<ObjectId> = (0..6).map(|i| b.object(&format!("o{i}")).unwrap()).collect();
        b.method("OW").unwrap();
        b.class_witnesses(objects, 2).unwrap();
        b.anon_witnesses(1).unwrap();
        b.method_witnesses(1).unwrap();
        let u = b.freeze();
        pool.extend(u.class_witnesses(objects));
        pool.extend(u.anon_witnesses());
        let mut rng = SmallRng::seed_from_u64(0x15);
        let subset = |rng: &mut SmallRng| -> BTreeSet<ObjectId> {
            pool.iter().copied().filter(|_| rng.gen_bool(0.5)).collect()
        };
        for round in 0..64 {
            let s1 = subset(&mut rng);
            let s2 = subset(&mut rng);
            let v: Vec<ObjectId> = s1.iter().copied().collect();
            let within: Vec<_> = v
                .iter()
                .enumerate()
                .flat_map(|(i, &a)| v[i + 1..].iter().map(move |&b| (a, b)))
                .collect();
            let across: Vec<_> = s1.iter().flat_map(|&a| s2.iter().map(move |&b| (a, b))).collect();
            assert!(internal_of_set(&u, &s1).set_eq(&fold(&u, &within)), "round {round}: {s1:?}");
            assert!(
                internal_between(&u, &s1, &s2).set_eq(&fold(&u, &across)),
                "round {round}: {s1:?} × {s2:?}"
            );
        }
    }

    #[test]
    fn fast_admissibility_agrees_with_the_materialized_set() {
        let f = fix();
        // Candidate alphabets, including inadmissible ones (internal
        // events, events not involving the object set, class residues).
        let wit = f.u.class_witnesses(f.u.class_by_name("Objects").unwrap()).next().unwrap();
        let candidates: Vec<EventSet> = vec![
            EventPattern::any_method(f.o1, f.o2).to_set(&f.u),
            EventPattern::any_method(f.o2, f.o1).to_set(&f.u),
            EventPattern::any_method(f.o1, f.o3).to_set(&f.u),
            EventPattern::any_method(f.o2, f.o3).to_set(&f.u),
            EventPattern::any_method(crate::pattern::ObjSpec::Any, f.o1).to_set(&f.u),
            EventPattern::any_method(wit, f.o1).to_set(&f.u),
            alpha_object(&f.u, f.o1),
            EventSet::empty(&f.u),
        ];
        let object_sets: Vec<BTreeSet<ObjectId>> = vec![
            [f.o1].into_iter().collect(),
            [f.o2].into_iter().collect(),
            [f.o1, f.o2].into_iter().collect(),
            [f.o1, f.o3].into_iter().collect(),
            [f.o1, f.o2, f.o3].into_iter().collect(),
            [wit].into_iter().collect(),
            [f.o1, wit].into_iter().collect(),
        ];
        for objects in &object_sets {
            let admissible = admissible_alphabet(&f.u, objects);
            for (i, alpha) in candidates.iter().enumerate() {
                // Unions of candidates widen the sample beyond single
                // patterns.
                for (j, other) in candidates.iter().enumerate() {
                    let set = alpha.union(other);
                    assert_eq!(
                        alphabet_is_admissible(&f.u, objects, &set),
                        set.is_subset(&admissible),
                        "candidates {i}∪{j} over {objects:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn internal_of_singleton_or_empty_set_is_empty() {
        let f = fix();
        let empty: BTreeSet<ObjectId> = BTreeSet::new();
        assert!(internal_of_set(&f.u, &empty).is_empty());
        let single: BTreeSet<_> = [f.o1].into_iter().collect();
        assert!(internal_of_set(&f.u, &single).is_empty());
    }

    #[test]
    fn internal_between_matches_lemma_15_reading() {
        let f = fix();
        let s1: BTreeSet<_> = [f.o1].into_iter().collect();
        let s2: BTreeSet<_> = [f.o2, f.o3].into_iter().collect();
        let i = internal_between(&f.u, &s1, &s2);
        assert!(i.contains(&Event::call(f.o1, f.o2, f.ow)));
        assert!(i.contains(&Event::call(f.o3, f.o1, f.ow)));
        assert!(!i.contains(&Event::call(f.o2, f.o3, f.ow)));
    }

    #[test]
    fn internal_between_overlapping_sets_contains_their_internal_events() {
        let f = fix();
        let s: BTreeSet<_> = [f.o1, f.o2].into_iter().collect();
        let i = internal_between(&f.u, &s, &s);
        assert!(i.set_eq(&internal_of_set(&f.u, &s)));
    }

    #[test]
    fn admissible_alphabet_excludes_internal_events() {
        let f = fix();
        let o: BTreeSet<_> = [f.o1, f.o2].into_iter().collect();
        let adm = admissible_alphabet(&f.u, &o);
        // Internal to O: excluded.
        assert!(!adm.contains(&Event::call(f.o1, f.o2, f.ow)));
        // Crossing the boundary: included.
        assert!(adm.contains(&Event::call(f.o1, f.o3, f.ow)));
        assert!(adm.contains(&Event::call(f.o3, f.o2, f.ow)));
        // Events not involving O at all: excluded.
        let wit = f.u.anon_witnesses().next().unwrap();
        assert!(!adm.contains(&Event::call(f.o3, wit, f.ow)));
        assert!(adm.is_infinite());
    }

    #[test]
    fn admissible_alphabet_decomposes_as_union_minus_internal() {
        let f = fix();
        let o: BTreeSet<_> = [f.o1, f.o2].into_iter().collect();
        let adm = admissible_alphabet(&f.u, &o);
        let manual = alpha_object(&f.u, f.o1)
            .union(&alpha_object(&f.u, f.o2))
            .difference(&internal_of_set(&f.u, &o));
        assert!(adm.set_eq(&manual));
    }
}
