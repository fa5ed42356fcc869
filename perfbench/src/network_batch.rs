//! `network-batch`: a seeded gossip network, refined then linted cold.
//!
//! A write operation parses and elaborates the document and checks every
//! manifest pair through an empty cache (`check_refinement_batch`); a read
//! operation lints the same source with a fresh cache.  The process-wide
//! cache is emptied before each pass, so every pass is cold.  Set-up is
//! one parse and elaboration of the document.  Every verdict (kind and
//! counterexample) and the multiset of lint sites are compared with the
//! generated manifest; a traced run also checks every manifest
//! composition (Def. 10 composability and Ex.-5 deadlock).
//!
//! The traced run times the same calls, then replays the batch check on a
//! cache of its own, split per layer, and the automaton builds and
//! compositions through the public functions beneath them.

use crate::oracle::{doctor, lint_matches, verdict_matches};
use crate::stats::{ms, Ledger};
use crate::trace::{Summary, Tracer};
use crate::{Config, Measured, Phase};
use pospec_core::{
    check_refinement_batch, compose, is_composable, observable_deadlock, refinement_conditions,
    CacheStats, DfaCache, Specification, TraceSet, Verdict,
};
use pospec_gen::{generate, Family, GenConfig, Manifest, Scenario};
use pospec_lang::{elab::elaborate, parser::parse, Document};
use pospec_lint::{lint_document_cached, LintConfig};
use pospec_regex::{AcceptMode, ConcreteDfa, Nfa};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Predicate depth; every generated trace set is regular, so verdicts
/// do not depend on it.
const DEPTH: usize = 6;

/// Network size: 6,000 specs.  At N=3000 a pass takes about 4.5 s, too
/// few samples per run to be steady on a 2-core machine.
const OBJECTS: usize = 1000;

pub fn scenario(cfg: &Config, objects: usize) -> Result<Scenario, String> {
    let mut s = generate(&GenConfig::new(Family::Gossip, objects, cfg.seed))
        .map_err(|e| format!("generating the network: {e}"))?;
    if cfg.doctor {
        doctor(&mut s.manifest);
    }
    Ok(s)
}

/// The manifest's pairs resolved in `doc`.
fn pairs<'d>(
    doc: &'d Document,
    m: &Manifest,
) -> Result<Vec<(&'d Specification, &'d Specification)>, String> {
    m.refinements
        .iter()
        .map(|e| match (doc.spec(&e.concrete), doc.spec(&e.abstract_)) {
            (Some(c), Some(a)) => Ok((c, a)),
            _ => Err(format!("manifest names a missing spec: {} / {}", e.concrete, e.abstract_)),
        })
        .collect()
}

/// The distinct specs of `pairs`, in first-use order.
fn distinct<'d>(pairs: &[(&'d Specification, &'d Specification)]) -> Vec<&'d Specification> {
    let mut seen = BTreeSet::new();
    pairs.iter().flat_map(|(c, a)| [*c, *a]).filter(|s| seen.insert(s.name().to_string())).collect()
}

/// One write: the calls an untraced run makes, traced or not.
fn refine_all(
    tr: &mut Tracer,
    src: &str,
    m: &Manifest,
) -> Result<(Document, Vec<Verdict>), String> {
    let ast = tr.span("lang.parse", |_| parse(src)).map_err(|e| e.to_string())?;
    let doc = tr.span("lang.elab", |_| elaborate(&ast)).map_err(|e| e.to_string())?;
    let pairs = pairs(&doc, m)?;
    let cache = DfaCache::new();
    let verdicts = tr.span("core.refine_batch", |_| check_refinement_batch(&cache, &pairs, DEPTH));
    drop(pairs);
    Ok((doc, verdicts))
}

/// Replay a batch check on `cache`, split into the calls
/// `check_refinement_batch` makes per layer, and count what it moved in
/// the cache; returns the cache counters of the whole replay.  The
/// automata are built on one thread, so the counts repeat exactly.
pub fn replay_batch(
    tr: &mut Tracer,
    cache: &DfaCache,
    pairs: &[(&Specification, &Specification)],
    depth: usize,
) -> CacheStats {
    let before = cache.stats();
    let specs = distinct(pairs);
    tr.replay("alphabet.finitize", || {
        for s in &specs {
            cache.alphabet(s.alphabet());
        }
    });
    let ok: Vec<bool> = tr.replay("alphabet.conditions", || {
        pairs.iter().map(|(c, a)| refinement_conditions(c, a).all_ok()).collect()
    });
    tr.replay("core.dfa_build", || {
        for ((c, a), ok) in pairs.iter().zip(&ok) {
            if *ok {
                cache.traceset_dfa(c.universe(), c.trace_set(), c.alphabet(), depth);
                cache.traceset_dfa(a.universe(), a.trace_set(), a.alphabet(), depth);
            }
        }
    });
    let built = cache.stats();
    tr.replay("core.inclusion", || check_refinement_batch(cache, pairs, depth));
    let after = cache.stats();
    let (setup, incl) = (built.since(&before), after.since(&built));
    tr.count("alphabet.finitize_misses", setup.alphabet_misses as f64);
    tr.count("core.dfa_builds", setup.dfa_misses as f64);
    tr.count("core.otf_explored", incl.otf_explored as f64);
    tr.count("core.otf_early_exits", incl.otf_early_exits as f64);
    after.since(&before)
}

/// Replay the batch check per layer, the automaton builds of the checked
/// specs through the public regex functions, and every manifest
/// composition.
fn replay(
    tr: &mut Tracer,
    doc: &Document,
    m: &Manifest,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let pairs = pairs(doc, m)?;
    replay_batch(tr, &DfaCache::new(), &pairs, DEPTH);
    let cache = DfaCache::new();
    let mut regular = Vec::new();
    for s in distinct(&pairs) {
        if let TraceSet::Prs(re) = s.trace_set() {
            regular.push((s.universe(), re, cache.alphabet(s.alphabet())));
        }
    }
    let nfas: Vec<Nfa> = tr.replay("regex.nfa_compile", || {
        regular.iter().map(|(_, re, _)| Nfa::compile(re.re())).collect()
    });
    let dfas: Vec<ConcreteDfa> = tr.replay("regex.determinize", || {
        regular
            .iter()
            .zip(&nfas)
            .map(|((u, _, sigma), nfa)| {
                ConcreteDfa::from_nfa(u, nfa, Arc::clone(sigma), AcceptMode::PrefixLive)
            })
            .collect()
    });
    let mins: Vec<ConcreteDfa> =
        tr.replay("regex.minimize", || dfas.iter().map(ConcreteDfa::minimize).collect());
    tr.count("regex.states_in", dfas.iter().map(ConcreteDfa::state_count).sum::<usize>() as f64);
    tr.count("regex.states_out", mins.iter().map(ConcreteDfa::state_count).sum::<usize>() as f64);

    let mut operands = Vec::new();
    for c in &m.compositions {
        match (doc.spec(&c.left), doc.spec(&c.right)) {
            (Some(l), Some(r)) => operands.push((c, l, r)),
            _ => return Err(format!("composition {} names a missing spec", c.name)),
        }
    }
    let composable: Vec<bool> = tr.replay("core.composable", || {
        operands.iter().map(|(_, l, r)| is_composable(l, r)).collect()
    });
    let composed: Vec<Option<Specification>> =
        tr.replay("core.compose", || operands.iter().map(|(_, l, r)| compose(l, r).ok()).collect());
    let deadlocks: Vec<Option<bool>> = tr.replay("core.deadlock", || {
        composed.iter().map(|c| c.as_ref().map(observable_deadlock)).collect()
    });
    for (((entry, _, _), ok), dead) in operands.iter().zip(&composable).zip(&deadlocks) {
        ledger.check(*ok == entry.composable, || format!("Def. 10 on {}: {ok}", entry.name));
        let want = entry.composable.then_some(entry.deadlock);
        ledger.check(*dead == want, || {
            format!("deadlock of {}: {dead:?}, manifest {want:?}", entry.name)
        });
    }
    Ok(())
}

fn lint(tr: &mut Tracer, name: &str, src: &str) -> Vec<(String, String)> {
    let mut config = LintConfig::default();
    config.depth = DEPTH;
    let report =
        tr.span("lint.document", |_| lint_document_cached(name, src, &config, &DfaCache::new()));
    tr.count("lint.diagnostics", report.diagnostics.len() as f64);
    report.diagnostics.iter().map(|d| (d.code.as_str().to_string(), d.message.clone())).collect()
}

pub fn run(cfg: &Config, phase: &Phase) -> Result<Measured, String> {
    let s = scenario(cfg, if cfg.tiny { 10 } else { OBJECTS })?;
    let (src, m) = (&s.document, &s.manifest);
    let name = format!("{}.pos", s.config.stem());
    let mut out = Measured::default();

    // One parse and elaboration is short, so each run takes 3× the
    // set-up samples of the other workloads.
    for _ in 0..phase.setups * 3 {
        let t = Instant::now();
        let doc = pospec_lang::parse_document(src).map_err(|e| e.to_string())?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        drop(doc);
    }

    let mut tr = Tracer::new(phase.trace, 0, Instant::now());
    let started = Instant::now();
    let mut busy = 0.0;
    while out.write_ms.is_empty() || started.elapsed().as_secs_f64() < phase.seconds {
        // Every pass is cold, as in a fresh `pospec` process: lint's
        // compositions go through the process-wide cache, which keeps
        // every document's automata and would slow each later pass.
        DfaCache::global().clear();
        let (res, t) = tr.op("refine", |tr| refine_all(tr, src, m));
        let (doc, verdicts) = res?;
        out.write_ms.push(ms(t));
        busy += t.as_secs_f64();
        for (e, v) in m.refinements.iter().zip(&verdicts) {
            out.ledger.check(verdict_matches(&doc.universe, &e.expect, v), || {
                format!("{} ⊑ {}: {v:?}, manifest {:?}", e.concrete, e.abstract_, e.expect)
            });
        }
        if tr.is_on() {
            replay(&mut tr, &doc, m, &mut out.ledger)?;
        }
        drop(doc);

        let (diags, t) = tr.op("lint", |tr| lint(tr, &name, src));
        out.read_ms.push(ms(t));
        busy += t.as_secs_f64();
        let verdict = lint_matches(&m.lint, &diags);
        out.ledger.check(verdict.is_ok(), || format!("lint: {}", verdict.unwrap_err()));
    }
    out.busy_s = busy;
    if phase.trace {
        out.summary = Some(Summary::merge(vec![tr]));
    }
    Ok(out)
}
