//! `serve-mix`: an in-process `pospec serve` (2 workers) on loopback,
//! driven by 2 closed-loop client connections.
//!
//! Set-up is `Server::bind` until the first `load_spec` of a gossip
//! document is answered.  Each client then sends, in a seeded order,
//! about 80% `check`, 5% each of `batch_check` (64 pairs), `compose` and
//! `lint`, and 5% `load_spec`, which alternates a language-preserving
//! one-spec edit (`( X )*` → `( X | X )*`) and its revert, so every
//! verdict and diagnostic stays the manifest's.  `load_spec` is the
//! write; `check`, `batch_check`, `compose` and `lint` are the reads.
//! `read_p90_ms` is taken over the document-wide reads only: a `check`
//! takes well under a millisecond unless the other client's batch or
//! lint holds both cores, which happens to about a tenth of checks, so a
//! p90 over all reads would sit on that edge and jump from run to run.
//! Every response must be ok and match the manifest.
//!
//! The pair-cache hit ratio is counted from the `cached` flag of the
//! `check` responses among each client's first `WINDOW` requests, a
//! request sequence the seed fixes, so its base repeats exactly.  The
//! peak RSS is read when each client has sent those requests: the
//! server's cache grows with every `load_spec` and `lint`, so a reading
//! at the end of the run would measure how many requests the run
//! completed.  The traced run reports that end-of-run reading as
//! `serve.end_rss_mb`.  The
//! traced run replays every request line through
//! `protocol::parse_request` and `pospec_json::parse`, and every
//! `load_spec` through `SpecRegistry::load_source`; the server's own
//! `stats` gives the overload and queue counters.

use crate::lsp_text::{duplicate_branch, editable_callers};
use crate::network_batch::scenario;
use crate::oracle::{json_diagnostics, lint_matches, verdict_json_matches};
use crate::stats::{median, ms, peak_rss_mb, Ledger};
use crate::trace::{Summary, Tracer};
use crate::{Config, Measured, Phase};
use pospec_gen::{Manifest, SplitMix64};
use pospec_json::{ObjBuilder, Value};
use pospec_serve::protocol::parse_request;
use pospec_serve::server::{Server, ServerConfig};
use pospec_serve::SpecRegistry;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const DOC: &str = "gossip";
const CLIENTS: usize = 2;
const BATCH: usize = 64;
/// One deck of the request mix: 80% check, 5% of each other kind.
const DECK: [&str; 20] = [
    "check", "check", "check", "check", "check", "check", "check", "check", "check", "check",
    "check", "check", "check", "check", "check", "check", "batch", "compose", "lint", "load",
];
/// Requests per client over which the pair-cache hit ratio is counted;
/// every client sends at least these, whatever `--seconds` is.
const WINDOW: usize = 45;
/// A response slower than this counts as a failure.
const TIMEOUT: Duration = Duration::from_secs(60);

type ServerThread = JoinHandle<Result<pospec_serve::metrics::MetricsSnapshot, String>>;

/// One client connection, speaking newline-delimited JSON.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(TIMEOUT)).map_err(|e| e.to_string())?;
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn { writer, reader: BufReader::new(s) })
    }

    /// Send one request; returns the request line and the response.
    fn call(&mut self, tr: &mut Tracer, req: &Value) -> Result<(String, Value), String> {
        let mut line = tr.span("json.serialize", |_| req.to_compact());
        line.push('\n');
        self.writer.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
        line.pop();
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp).map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let v = tr.span("json.parse_response", |_| pospec_json::parse(resp.trim_end()));
        Ok((line, v.map_err(|e| format!("bad response: {e}"))?))
    }
}

fn obj(op: &str) -> ObjBuilder {
    ObjBuilder::new().field("op", op)
}

fn load_req(source: &str) -> Value {
    obj("load_spec").field("name", DOC).field("source", source).build()
}

fn ok(resp: &Value) -> bool {
    resp.get("ok").and_then(Value::as_bool) == Some(true)
}

/// Bind a server with 2 workers on an ephemeral loopback port and serve
/// it on its own thread.
fn start() -> Result<(String, ServerThread), String> {
    let config = ServerConfig { addr: "127.0.0.1:0".into(), workers: 2, ..ServerConfig::default() };
    let server = Server::bind(&config)?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let handle = std::thread::Builder::new()
        .name("perfbench-serve".into())
        .spawn(move || server.serve())
        .map_err(|e| format!("spawn: {e}"))?;
    Ok((addr, handle))
}

/// Ask the server to stop and wait for it.
fn stop(addr: &str, handle: ServerThread) -> Result<(), String> {
    let mut c = Conn::connect(addr)?;
    let mut off = Tracer::new(false, 0, Instant::now());
    c.call(&mut off, &obj("shutdown").build())?;
    drop(c);
    handle.join().map_err(|_| "server thread panicked".to_string())?.map(|_| ())
}

/// What one client measured.
struct ClientRun {
    tracer: Tracer,
    ledger: Ledger,
    write_ms: Vec<f64>,
    read_ms: Vec<f64>,
    /// Latencies of the document-wide reads (`batch_check`, `compose`,
    /// `lint`).
    wide_ms: Vec<f64>,
    /// `check` requests among the first `WINDOW`, and how many of them
    /// the pair cache answered.
    window_checks: usize,
    window_hits: usize,
    /// `VmHWM` when this client had sent its first `WINDOW` requests.
    window_rss_mb: f64,
    by_kind: Vec<(&'static str, f64)>,
}

/// The inputs every client shares.
struct Plan<'a> {
    m: &'a Manifest,
    original: &'a str,
    edited: &'a str,
    composable: Vec<usize>,
    seed: u64,
    seconds: f64,
    max_requests: usize,
    trace: bool,
}

fn client(plan: &Plan, addr: &str, id: usize, epoch: Instant) -> Result<ClientRun, String> {
    let m = plan.m;
    let mut tr = Tracer::new(plan.trace, id as u32 + 1, epoch);
    let mut run = ClientRun {
        tracer: Tracer::new(false, 0, epoch),
        ledger: Ledger::default(),
        write_ms: Vec::new(),
        read_ms: Vec::new(),
        wide_ms: Vec::new(),
        window_checks: 0,
        window_hits: 0,
        window_rss_mb: 0.0,
        by_kind: Vec::new(),
    };
    let mut rng = SplitMix64::new(plan.seed ^ (0x9E37_79B9 * (id as u64 + 1)));
    let replay = SpecRegistry::new();
    if plan.trace {
        replay.load_source(DOC, plan.original).map_err(|e| format!("replay load: {e}"))?;
    }
    let mut conn = Conn::connect(addr)?;
    let mut edited = false;
    let mut deck: Vec<&'static str> = Vec::new();
    let pick = |rng: &mut SplitMix64, len: usize| (rng.next_u64() % len as u64) as usize;
    let window = WINDOW.min(plan.max_requests);
    let started = Instant::now();
    for n in 0..plan.max_requests {
        if started.elapsed().as_secs_f64() >= plan.seconds && n >= window {
            break;
        }
        // One of each kind first, then the mix in seeded-shuffled decks
        // of 20, so every run holds the same proportions.
        if deck.is_empty() {
            deck = DECK.to_vec();
            for i in (1..deck.len()).rev() {
                deck.swap(i, pick(&mut rng, i + 1));
            }
        }
        let kind = if n < 5 {
            ["check", "batch", "compose", "lint", "load"][n]
        } else {
            deck.pop().unwrap_or("check")
        };
        let req = match kind {
            "check" => {
                let i = if n == 0 { 0 } else { pick(&mut rng, m.refinements.len()) };
                let e = &m.refinements[i];
                obj("check")
                    .field("doc", DOC)
                    .field("concrete", e.concrete.as_str())
                    .field("abstract", e.abstract_.as_str())
                    .field("id", i as u64)
                    .build()
            }
            "batch" => {
                let idx: Vec<usize> = (0..BATCH.min(m.refinements.len()))
                    .map(|_| pick(&mut rng, m.refinements.len()))
                    .collect();
                let pairs: Vec<Value> = idx
                    .iter()
                    .map(|&i| {
                        Value::Arr(vec![
                            m.refinements[i].concrete.as_str().into(),
                            m.refinements[i].abstract_.as_str().into(),
                        ])
                    })
                    .collect();
                let ids: Vec<Value> = idx.iter().map(|&i| Value::from(i as u64)).collect();
                obj("batch_check")
                    .field("doc", DOC)
                    .field("pairs", Value::Arr(pairs))
                    .field("id", Value::Arr(ids))
                    .build()
            }
            "compose" => {
                let i = plan.composable[pick(&mut rng, plan.composable.len())];
                let c = &m.compositions[i];
                obj("compose")
                    .field("doc", DOC)
                    .field("left", c.left.as_str())
                    .field("right", c.right.as_str())
                    .field("deadlock", true)
                    .field("id", i as u64)
                    .build()
            }
            "lint" => obj("lint").field("doc", DOC).build(),
            _ => {
                edited = !edited;
                load_req(if edited { plan.edited } else { plan.original })
            }
        };
        let (res, t) = tr.op(kind, |tr| conn.call(tr, &req));
        let lat = ms(t);
        match kind {
            "load" => run.write_ms.push(lat),
            "check" => run.read_ms.push(lat),
            _ => {
                run.read_ms.push(lat);
                run.wide_ms.push(lat);
            }
        }
        run.by_kind.push((kind, lat));
        let (line, resp) = match res {
            Ok(r) => r,
            Err(e) => {
                run.ledger.check(false, || format!("{kind}: {e}"));
                conn = Conn::connect(addr)?;
                continue;
            }
        };
        let result = resp.get("result");
        if kind == "check" && n < window {
            run.window_checks += 1;
            let cached = result.and_then(|r| r.get("cached")).and_then(Value::as_bool);
            run.window_hits += usize::from(cached == Some(true));
        }
        let good = ok(&resp)
            && match kind {
                "check" => {
                    let i = req.get("id").and_then(Value::as_u64).unwrap_or(0) as usize;
                    result.is_some_and(|r| verdict_json_matches(&m.refinements[i], r))
                }
                "batch" => {
                    let ids = req.get("id").and_then(Value::as_arr).unwrap_or(&[]);
                    let rows = result
                        .and_then(|r| r.get("verdicts"))
                        .and_then(Value::as_arr)
                        .unwrap_or(&[]);
                    rows.len() == ids.len()
                        && ids.iter().zip(rows).all(|(i, r)| {
                            verdict_json_matches(
                                &m.refinements[i.as_u64().unwrap_or(0) as usize],
                                r,
                            )
                        })
                }
                "compose" => {
                    let i = req.get("id").and_then(Value::as_u64).unwrap_or(0) as usize;
                    result.and_then(|r| r.get("deadlocked")).and_then(Value::as_bool)
                        == Some(m.compositions[i].deadlock)
                }
                "lint" => lint_matches(
                    &m.lint,
                    &json_diagnostics(result.and_then(|r| r.get("diagnostics"))),
                )
                .is_ok(),
                _ => result.and_then(|r| r.get("name")).and_then(Value::as_str) == Some(DOC),
            };
        run.ledger.check(good, || {
            format!(
                "{kind} response does not match the manifest: {}",
                resp.to_compact().chars().take(300).collect::<String>()
            )
        });
        if n + 1 == window {
            run.window_rss_mb = peak_rss_mb();
        }
        if plan.trace {
            let _ = tr.replay("serve.parse_request", || parse_request(&line));
            let stem = if kind == "load" { "json.parse_write" } else { "json.parse_read" };
            let _ = tr.replay(stem, || pospec_json::parse(&line));
            if kind == "load" {
                let src = if edited { plan.edited } else { plan.original };
                let _ = tr.replay("serve.registry_load", || replay.load_source(DOC, src));
            }
        }
    }
    run.tracer = tr;
    Ok(run)
}

pub fn run(cfg: &Config, phase: &Phase) -> Result<Measured, String> {
    let s = scenario(cfg, if cfg.tiny { 10 } else { 100 })?;
    let m = &s.manifest;
    let target = editable_callers(m, cfg.seed).into_iter().next().ok_or("no editable spec")?;
    let edited = duplicate_branch(&s.document, &target).ok_or("cannot edit the document")?;
    let composable: Vec<usize> =
        (0..m.compositions.len()).filter(|&i| m.compositions[i].composable).collect();
    if composable.is_empty() || m.refinements.is_empty() {
        return Err("the generated network has nothing to check or compose".into());
    }
    let mut out = Measured::default();

    let mut live: Option<(String, ServerThread)> = None;
    for _ in 0..phase.setups.max(1) {
        if let Some((addr, h)) = live.take() {
            stop(&addr, h)?;
        }
        let t = Instant::now();
        let (addr, handle) = start()?;
        let mut c = Conn::connect(&addr)?;
        let mut off = Tracer::new(false, 0, Instant::now());
        let (_, resp) = c.call(&mut off, &load_req(&s.document))?;
        out.setup_s.push(t.elapsed().as_secs_f64());
        out.ledger.check(ok(&resp), || format!("initial load_spec failed: {}", resp.to_compact()));
        live = Some((addr, handle));
    }
    let (addr, handle) = live.expect("at least one set-up");

    let plan = Plan {
        m,
        original: &s.document,
        edited: &edited,
        composable,
        seed: cfg.seed,
        seconds: phase.seconds,
        max_requests: if cfg.tiny { 12 } else { usize::MAX },
        trace: phase.trace,
    };
    let epoch = Instant::now();
    let runs: Vec<Result<ClientRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let (plan, addr) = (&plan, addr.as_str());
                scope.spawn(move || client(plan, addr, i, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect()
    });
    out.busy_s = epoch.elapsed().as_secs_f64();

    let mut tracers = Vec::new();
    let mut by_kind = Vec::new();
    let mut wide = Vec::new();
    let (mut lookups, mut hits, mut rss) = (0, 0, 0.0f64);
    for r in runs {
        let r = r?;
        out.ledger.absorb(r.ledger);
        out.write_ms.extend(r.write_ms);
        out.read_ms.extend(r.read_ms);
        wide.extend(r.wide_ms);
        (lookups, hits) = (lookups + r.window_checks, hits + r.window_hits);
        rss = rss.max(r.window_rss_mb);
        by_kind.extend(r.by_kind);
        tracers.push(r.tracer);
    }
    out.read_tail_ms = Some(wide);
    out.peak_rss_mb = Some(rss);
    out.extra.push(("serve.pair_lookups", lookups as f64, 1));
    let ratio = if lookups > 0 { hits as f64 / lookups as f64 } else { 0.0 };
    out.extra.push(("serve.pair_hit_ratio", ratio, lookups));
    for (metric, kind) in [
        ("serve.check_p50_ms", "check"),
        ("serve.batch_p50_ms", "batch"),
        ("serve.compose_p50_ms", "compose"),
        ("serve.lint_p50_ms", "lint"),
        ("serve.load_p50_ms", "load"),
    ] {
        let v: Vec<f64> = by_kind.iter().filter(|(k, _)| *k == kind).map(|(_, l)| *l).collect();
        out.extra.push((metric, median(&v), v.len()));
    }

    let mut c = Conn::connect(&addr)?;
    let mut off = Tracer::new(false, 0, Instant::now());
    let (_, stats) = c.call(&mut off, &obj("stats").build())?;
    drop(c);
    let num = |path: &[&str]| {
        path.iter().try_fold(&stats, |v, k| v.get(k)).and_then(Value::as_f64).unwrap_or(0.0)
    };
    out.extra.push(("serve.overloaded", num(&["result", "metrics", "overloaded"]), 1));
    out.extra.push(("serve.queue_depth_max", num(&["result", "metrics", "queue_highwater"]), 1));
    out.extra.push(("serve.end_rss_mb", peak_rss_mb(), 1));
    stop(&addr, handle)?;
    if phase.trace {
        out.summary = Some(Summary::merge(tracers));
    }
    Ok(out)
}
