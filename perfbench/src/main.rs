//! `perfbench` — one layered benchmark of the pospec checker.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--tiny] [--doctor]
//! ```
//!
//! Workloads (see `WORKLOADS.md` beside this package):
//!
//! * `paper-matrix` — the paper's six interface specs, 36 pairs, cold
//!   then warm through one `DfaCache` (fixed input; `--seed` unused);
//! * `network-batch` — a seeded gossip network, refined then linted cold;
//! * `edit-loop` — an in-process `LspServer` fed framed keystroke edits
//!   and hovers by one closed-loop caller;
//! * `serve-mix` — an in-process `pospec serve` with 2 workers and 2
//!   closed-loop client connections over loopback TCP.
//!
//! Every output is compared with a reference the checker does not
//! produce (the paper's stated relations and the eager oracle, or the
//! generated manifest); any mismatch makes the run exit 1.  The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, holding every
//! end-to-end metric with `--trace 0` and every per-layer metric with
//! `--trace 1`.  A traced run first measures untraced for half of
//! `--seconds`, then traced for the other half, and reports the
//! difference as tracing overhead; it writes its spans as Chrome
//! trace-event JSON to `.perfbench/trace-<workload>-s<seed>.json`.
//!
//! `--tiny` shrinks every workload to a few operations (the self-tests
//! use it); `--doctor` corrupts one expected answer, which must fail the
//! run.

mod edit_loop;
mod lsp_text;
mod network_batch;
mod oracle;
mod paper_matrix;
mod serve_mix;
mod stats;
mod trace;

use stats::{median, peak_rss_mb, quantile, Ledger};
use std::path::PathBuf;
use std::time::Instant;
use trace::Summary;

/// Command-line settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run?
    pub trace: bool,
    /// Tiny inputs (self-tests).
    pub tiny: bool,
    /// Corrupt one expected answer.
    pub doctor: bool,
    /// Run as a paper-matrix child process (`oracle` or `setup`): print
    /// its result and exit.
    pub child: Option<String>,
}

/// One measuring pass of a workload.
pub struct Phase {
    /// Seconds of measured operations.
    pub seconds: f64,
    /// How many times set-up is repeated.
    pub setups: usize,
    /// Record spans?
    pub trace: bool,
}

/// What one pass of a workload measured.
#[derive(Default)]
pub struct Measured {
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Write-operation latencies, ms.
    pub write_ms: Vec<f64>,
    /// Read-operation latencies, ms.
    pub read_ms: Vec<f64>,
    /// The read latencies `read_p90_ms` is taken over, where they are not
    /// all of `read_ms` (serve-mix: the document-wide reads only).
    pub read_tail_ms: Option<Vec<f64>>,
    /// Seconds the measured operations took, end to end.
    pub busy_s: f64,
    /// `VmHWM` read at a point fixed by the input (serve-mix: after each
    /// client's first requests), in place of the end of the run.
    pub peak_rss_mb: Option<f64>,
    /// Per-layer values measured outside spans: (metric, value, samples).
    pub extra: Vec<(&'static str, f64, usize)>,
    /// Output comparisons.
    pub ledger: Ledger,
    /// Spans and counters (traced passes).
    pub summary: Option<Summary>,
}

impl Measured {
    fn ops(&self) -> usize {
        self.write_ms.len() + self.read_ms.len()
    }
}

/// Span stems reported as per-layer times (`<stem>_ms`).
const LAYER_TIMES: &[&str] = &[
    "lang.parse",
    "lang.elab",
    "lang.session_elab",
    "alphabet.finitize",
    "alphabet.conditions",
    "regex.nfa_compile",
    "regex.determinize",
    "regex.minimize",
    "core.predicate_trie",
    "core.dfa_build",
    "core.inclusion",
    "core.lift",
    "core.composable",
    "core.compose",
    "core.deadlock",
    "lint.document",
    "lint.session",
    "json.parse_write",
    "json.parse_read",
    "json.serialize",
    "serve.parse_request",
    "serve.registry_load",
    "serve.refresh_pairs",
    "lsp.open_read",
    "lsp.change_read",
    "lsp.handle",
    "lsp.rpc_write",
];

/// Counters reported per cycle (one operation of each kind); each must
/// repeat exactly across the operations of one kind.
const LAYER_COUNTS: &[&str] = &[
    "lang.reelaborated",
    "alphabet.finitize_misses",
    "regex.states_in",
    "regex.states_out",
    "core.predicate_trie_states",
    "core.dfa_builds",
    "core.otf_explored",
    "core.otf_early_exits",
    "core.warm_lookups",
    "core.warm_rebuilds",
    "lint.diagnostics",
    "serve.pair_lookups",
];

/// Metrics only `serve-mix` measures (client-side latency by request
/// kind, and the server's own `stats`); 0 on the other workloads.
const SERVE_ONLY: &[(&str, &str)] = &[
    ("serve.check_p50_ms", "ms"),
    ("serve.batch_p50_ms", "ms"),
    ("serve.compose_p50_ms", "ms"),
    ("serve.lint_p50_ms", "ms"),
    ("serve.load_p50_ms", "ms"),
    ("serve.overloaded", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.end_rss_mb", "MiB"),
];

/// The names the workloads accept.
const WORKLOADS: &[&str] = &["paper-matrix", "network-batch", "edit-loop", "serve-mix"];

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        doctor: false,
        child: None,
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("`{name}` needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value("--workload")?,
            "--seed" => {
                cfg.seed = value("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?
            }
            "--seconds" => {
                cfg.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cfg.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                }
            }
            "--tiny" => cfg.tiny = true,
            "--doctor" => cfg.doctor = true,
            "--child" => cfg.child = Some(value("--child")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(cfg)
}

fn run_phase(cfg: &Config, phase: &Phase) -> Result<Measured, String> {
    match cfg.workload.as_str() {
        "paper-matrix" => paper_matrix::run(cfg, phase),
        "network-batch" => network_batch::run(cfg, phase),
        "edit-loop" => edit_loop::run(cfg, phase),
        "serve-mix" => serve_mix::run(cfg, phase),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: usize,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric { name: name.into(), unit, value, samples }
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let (w, r) = (&m.write_ms, &m.read_ms);
    let tail = m.read_tail_ms.as_ref().unwrap_or(r);
    vec![
        metric("setup_s", "s", median(&m.setup_s), m.setup_s.len()),
        metric("peak_rss_mb", "MiB", m.peak_rss_mb.unwrap_or_else(peak_rss_mb), 1),
        metric("write_p50_ms", "ms", quantile(w, 0.5), w.len()),
        metric("write_p90_ms", "ms", quantile(w, 0.9), w.len()),
        metric("read_p50_ms", "ms", quantile(r, 0.5), r.len()),
        metric("read_p90_ms", "ms", quantile(tail, 0.9), tail.len()),
        metric("throughput_rps", "1/s", m.ops() as f64 / m.busy_s.max(1e-9), m.ops()),
    ]
}

fn per_layer(
    untraced: &Measured,
    traced: &Measured,
    ledger: &mut Ledger,
) -> (Vec<Metric>, Vec<String>) {
    let s = traced.summary.as_ref().expect("a traced phase records spans");
    let mut out = Vec::new();
    for stem in LAYER_TIMES {
        let (v, n) = s.layer_ms(stem);
        out.push(metric(format!("{stem}_ms"), "ms", v, n));
    }
    let mut count = |name: &str| match s.count(name) {
        Ok(v) => v,
        Err(e) => {
            ledger.check(false, || e);
            0.0
        }
    };
    for name in LAYER_COUNTS {
        let v = count(name);
        out.push(metric(*name, "count", v, 1));
    }
    let ratio = |hits: f64, base: f64| if base > 0.0 { hits / base } else { 0.0 };
    let warm = ratio(count("core.warm_hits"), count("core.warm_lookups"));
    out.push(metric("core.warm_hit_ratio", "ratio", warm, 1));
    let pairs = ratio(count("serve.pair_hits"), count("serve.pair_lookups"));
    out.push(metric("serve.pair_hit_ratio", "ratio", pairs, 1));
    for (name, unit) in SERVE_ONLY {
        out.push(metric(*name, unit, 0.0, 0));
    }
    // Values the program reports about itself override span figures.
    for &(name, value, samples) in &traced.extra {
        if let Some(m) = out.iter_mut().find(|m| m.name == name) {
            (m.value, m.samples) = (value, samples);
        }
    }
    let (un, n) = s.unattributed_ms();
    out.push(metric("bench.unattributed_ms", "ms", un, n));
    let base = median(&[median(&untraced.write_ms), median(&untraced.read_ms)]);
    let with = median(&[median(&traced.write_ms), median(&traced.read_ms)]);
    let overhead = if base > 0.0 { (with - base) / base * 100.0 } else { 0.0 };
    out.push(metric("bench.trace_overhead_pct", "%", overhead, traced.ops()));
    (out, s.breakdown())
}

fn json_line(ledger: &Ledger, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("{:?}: {{\"value\": {v:?}, \"unit\": {:?}}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    )
}

fn write_trace(cfg: &Config, s: &Summary) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-s{}.json", cfg.workload, cfg.seed));
    std::fs::write(&path, s.chrome_json().to_compact())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(what) = &cfg.child {
        if let Err(e) = paper_matrix::child_main(&cfg, what) {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    let started = Instant::now();
    let result = if cfg.trace {
        let half = cfg.seconds / 2.0;
        run_phase(&cfg, &Phase { seconds: half, setups: 1, trace: false }).and_then(|u| {
            run_phase(&cfg, &Phase { seconds: half, setups: 1, trace: true }).map(|t| (u, Some(t)))
        })
    } else {
        run_phase(&cfg, &Phase { seconds: cfg.seconds, setups: 3, trace: false }).map(|u| (u, None))
    };
    let (mut untraced, traced) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            std::process::exit(2);
        }
    };
    let mut ledger = std::mem::take(&mut untraced.ledger);
    let (metrics, breakdown) = match traced {
        None => (end_to_end(&untraced), Vec::new()),
        Some(mut t) => {
            ledger.absorb(std::mem::take(&mut t.ledger));
            let (m, b) = per_layer(&untraced, &t, &mut ledger);
            if let Some(s) = &t.summary {
                match write_trace(&cfg, s) {
                    Ok(p) => println!("trace written to {}", p.display()),
                    Err(e) => ledger.check(false, || e),
                }
            }
            (m, b)
        }
    };
    if ledger.attempted == 0 {
        ledger.check(false, || "no output was checked".into());
    }
    println!(
        "workload {} seed {} ({}{}), {:.1} s wall",
        cfg.workload,
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        if cfg.tiny { ", tiny" } else { "" },
        started.elapsed().as_secs_f64()
    );
    for line in &breakdown {
        println!("{line}");
    }
    for m in &metrics {
        println!("metric {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    println!(
        "fail_frac = {} ({} failed of {} attempted)",
        ledger.failed as f64 / ledger.attempted as f64,
        ledger.failed,
        ledger.attempted
    );
    for n in &ledger.notes {
        eprintln!("mismatch: {n}");
    }
    println!("{}", json_line(&ledger, &metrics));
    if ledger.failed > 0 {
        std::process::exit(1);
    }
}
