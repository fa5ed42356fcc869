//! `paper-matrix`: the paper's six interface specs, 36 pairs, cold then
//! warm through one `DfaCache`.
//!
//! A cold operation derives the specs from the fixture and checks the
//! whole Def.-2 matrix through an empty cache; a warm operation re-derives
//! them (fresh `Arc`s, so the opaque predicate sets `Read2` and `RW` miss
//! again) and checks the matrix through the same cache.  Cold is the
//! workload's write, warm its read.  Set-up is the fixture itself, timed
//! in fresh child processes (`--child setup`): one fixture takes tens of
//! microseconds, and how long depends on the CPU a process runs on (half
//! again as long on one vCPU as on the other, on the VM this was tuned
//! on), so a run takes the median over several processes.
//!
//! The traced run times the same `check_all_pairs` call, then replays
//! each matrix on a cache of its own, split into the calls it makes per
//! layer (finitize, conditions, automaton builds, inclusion), and the
//! cold builds once more through the regex and predicate-trie functions.
//!
//! References: the relations the paper states, and the eager, uncached
//! `check_refinement` on all 36 pairs.  The eager matrix takes several
//! times as long as a cached one, so it runs once per run in a child
//! process (`--child oracle`): outside any timed region, and
//! leaving neither its allocations nor its peak RSS to this process.

use crate::network_batch::replay_batch;
use crate::stats::{ms, Ledger};
use crate::trace::{Summary, Tracer};
use crate::{Config, Measured, Phase};
use pospec_bench::paper::Paper;
use pospec_core::{
    check_all_pairs, check_refinement, refinement_conditions, traceset_dfa, DfaCache,
    Specification, TraceSet, Verdict,
};
use pospec_regex::{AcceptMode, ConcreteDfa, Nfa};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per sample: one fixture takes about 30–50 µs, so a sample is
/// the mean of many.
const SETUP_REPEATS: usize = 1000;
/// Child processes, each one set-up sample, per set-up the other
/// workloads make.
const SETUP_PROCESSES: usize = 3;

/// Indices into `Paper::interface_specs`.
const READ: usize = 0;
const READ2: usize = 1;
const WRITE: usize = 2;
const RW: usize = 3;
const WRITE_ACC: usize = 4;

/// The relations the paper states: (concrete, abstract, holds).
const STATED: &[(usize, usize, bool)] = &[
    (READ2, READ, true),
    (RW, READ, true),
    (RW, WRITE, true),
    (RW, READ2, false),
    (WRITE_ACC, WRITE, true),
];

/// Predicate-trie depth.  At depth 6 one cold pass takes 5–7 s and
/// peaks at 1.4 or 2.7 GiB depending on whether the two worker threads
/// build tries at the same time; at depth 5 a pass takes 0.5–0.9 s, so a
/// run holds about 15 samples and its medians moved by a third between
/// runs.  Depth 4 keeps the shape (predicate tries are about 90% of the
/// cold and the warm matrix) at about 75 ms per pass.
fn depth(cfg: &Config) -> usize {
    if cfg.tiny {
        3
    } else {
        4
    }
}

/// One verdict as the oracle records it.
fn show(v: &Verdict) -> String {
    format!("{v:?}")
}

/// The body of a child process: `oracle` prints the eager oracle's 36
/// verdicts, one per line; `setup` prints the mean seconds of one set-up.
pub fn child_main(cfg: &Config, what: &str) -> Result<(), String> {
    match what {
        "oracle" => {
            let specs = Paper::new().interface_specs();
            for c in &specs {
                for a in &specs {
                    println!("{}", show(&check_refinement(c, a, depth(cfg))));
                }
            }
        }
        "setup" => {
            let t = Instant::now();
            for _ in 0..SETUP_REPEATS {
                let fixture = Paper::new();
                let specs = fixture.interface_specs();
                let cache = DfaCache::new();
                std::hint::black_box((&specs, &cache));
            }
            println!("{}", t.elapsed().as_secs_f64() / SETUP_REPEATS as f64);
        }
        other => return Err(format!("unknown --child `{other}` (oracle or setup)")),
    }
    Ok(())
}

/// Run this program as a paper-matrix child; returns its output lines.
fn child(cfg: &Config, what: &str) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child.args(["--workload", "paper-matrix", "--child", what]);
    if cfg.tiny {
        child.arg("--tiny");
    }
    let out = child.output().map_err(|e| format!("running the {what} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {what} child failed: {}", String::from_utf8_lossy(&out.stderr)));
    }
    Ok(String::from_utf8_lossy(&out.stdout).lines().map(str::to_string).collect())
}

/// The eager oracle's 36 verdicts, computed by a child process.
fn eager_matrix(cfg: &Config) -> Result<Vec<String>, String> {
    let lines = child(cfg, "oracle")?;
    if lines.len() != 36 {
        return Err(format!("the eager oracle gave {} verdicts, not 36", lines.len()));
    }
    Ok(lines)
}

fn compare(
    ledger: &mut Ledger,
    kind: &str,
    names: &[String],
    got: &[Vec<Verdict>],
    oracle: &[String],
    stated: &[(usize, usize, bool)],
) {
    let n = names.len();
    for (k, want) in oracle.iter().enumerate() {
        let (i, j) = (k / n, k % n);
        let have = got.get(i).and_then(|r| r.get(j)).map(show);
        ledger.check(have.as_deref() == Some(want.as_str()), || {
            format!("{kind}: {} ⊑ {}: {have:?}, eager oracle {want}", names[i], names[j])
        });
    }
    for &(c, a, holds) in stated {
        let have = got.get(c).and_then(|r| r.get(a)).map(Verdict::holds);
        ledger.check(have == Some(holds), || {
            format!("{kind}: {} ⊑ {} is {have:?}, the paper states {holds}", names[c], names[a])
        });
    }
}

/// One matrix through `cache`: the call an untraced run makes, traced or
/// not.
fn matrix(
    tr: &mut Tracer,
    cache: &DfaCache,
    specs: &[Specification],
    d: usize,
) -> Vec<Vec<Verdict>> {
    tr.span("core.check_all_pairs", |_| check_all_pairs(cache, specs, d))
}

/// Replay one matrix on `cache`, split per layer (see `replay_batch`);
/// the warm replay also counts the cache's hits and rebuilds.
fn replay_matrix(tr: &mut Tracer, cache: &DfaCache, specs: &[Specification], d: usize, warm: bool) {
    let pairs: Vec<(&Specification, &Specification)> =
        specs.iter().flat_map(|c| specs.iter().map(move |a| (c, a))).collect();
    let all = replay_batch(tr, cache, &pairs, d);
    if warm {
        tr.count("core.warm_hits", all.hits() as f64);
        tr.count("core.warm_lookups", (all.hits() + all.misses()) as f64);
        tr.count("core.warm_rebuilds", all.misses() as f64);
    }
}

/// Replay the cold operation's automaton builds through the public
/// functions the cache calls, and the lift sweep of the composition
/// pipeline.
fn replay_builds(tr: &mut Tracer, cache: &DfaCache, specs: &[Specification], d: usize) {
    let (mut states_in, mut states_out, mut trie_states) = (0usize, 0usize, 0usize);
    for s in specs {
        let (u, sigma) = (s.universe(), cache.alphabet(s.alphabet()));
        let raw = match s.trace_set() {
            TraceSet::Universal => continue,
            TraceSet::Prs(re) => {
                let nfa = tr.replay("regex.nfa_compile", || Nfa::compile(re.re()));
                tr.replay("regex.determinize", || {
                    ConcreteDfa::from_nfa(u, &nfa, Arc::clone(&sigma), AcceptMode::PrefixLive)
                })
            }
            ts => {
                let dfa = tr.replay("core.predicate_trie", || traceset_dfa(u, ts, sigma, d));
                trie_states += dfa.state_count();
                dfa
            }
        };
        let min = tr.replay("regex.minimize", || raw.minimize());
        states_in += raw.state_count();
        states_out += min.state_count();
    }
    tr.count("regex.states_in", states_in as f64);
    tr.count("regex.states_out", states_out as f64);
    tr.count("core.predicate_trie_states", trie_states as f64);
    tr.replay("core.lift", || {
        for c in specs {
            for a in specs {
                if refinement_conditions(c, a).alphabet_ok {
                    cache.lifted_dfa(c.universe(), a.trace_set(), a.alphabet(), c.alphabet(), d);
                }
            }
        }
    });
}

pub fn run(cfg: &Config, phase: &Phase) -> Result<Measured, String> {
    let d = depth(cfg);
    let mut out = Measured::default();
    let p = Paper::new();
    let names: Vec<String> = p.interface_specs().iter().map(|s| s.name().to_string()).collect();
    let oracle = eager_matrix(cfg)?;
    let mut stated = STATED.to_vec();
    if cfg.doctor {
        stated[0].2 = !stated[0].2;
    }

    for _ in 0..phase.setups * SETUP_PROCESSES {
        let line = child(cfg, "setup")?.concat();
        let secs =
            line.trim().parse().map_err(|e| format!("set-up child printed {line:?}: {e}"))?;
        out.setup_s.push(secs);
    }

    let mut tr = Tracer::new(phase.trace, 0, Instant::now());
    let started = Instant::now();
    let mut busy = 0.0;
    while out.write_ms.is_empty() || started.elapsed().as_secs_f64() < phase.seconds {
        let cache = DfaCache::new();
        let ((specs, cold), t) = tr.op("cold", |tr| {
            let specs = p.interface_specs();
            let m = matrix(tr, &cache, &specs, d);
            (specs, m)
        });
        out.write_ms.push(ms(t));
        busy += t.as_secs_f64();
        // The replays run on a cache of their own, outside the operations.
        let replay_cache = tr.is_on().then(DfaCache::new);
        if let Some(rc) = &replay_cache {
            replay_matrix(&mut tr, rc, &specs, d, false);
            replay_builds(&mut tr, rc, &specs, d);
        }
        compare(&mut out.ledger, "cold", &names, &cold, &oracle, &stated);
        let (warm, t) = tr.op("warm", |tr| {
            let specs = p.interface_specs();
            matrix(tr, &cache, &specs, d)
        });
        out.read_ms.push(ms(t));
        busy += t.as_secs_f64();
        if let Some(rc) = &replay_cache {
            replay_matrix(&mut tr, rc, &p.interface_specs(), d, true);
        }
        compare(&mut out.ledger, "warm", &names, &warm, &oracle, &stated);
    }
    out.busy_s = busy;
    if phase.trace {
        out.summary = Some(Summary::merge(vec![tr]));
    }
    Ok(out)
}
