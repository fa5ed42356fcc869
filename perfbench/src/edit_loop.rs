//! `edit-loop`: an in-process `LspServer` fed framed messages by one
//! closed-loop caller.
//!
//! Set-up is `initialize` plus `didOpen` of a gossip document until the
//! first `publishDiagnostics`.  Then the caller cycles through four
//! keystroke-sized `didChange` edits — a one-spec trace-set change (a
//! `*` after one literal of `Caller_k`), its undo, a comment insertion
//! and its removal — each followed by a `hover` on the edited spec.  The
//! edits are writes, the hovers reads; each operation is timed from its
//! framed bytes through `rpc::read_message`, `LspServer::handle` and
//! `rpc::write_message`.
//!
//! After every undo and comment edit the published diagnostics must equal
//! the manifest's lint sites; every hover must report the verdict of
//! `Caller_k ⊑ Proto_k` the current text implies.
//!
//! The traced run replays each change through the functions
//! `LspServer` calls: `pospec_json::parse` on the frame body,
//! `parser::parse`, `ElabSession::document`, `SpecRegistry::load_source`
//! and `refresh_pairs`, `lint_document_session`, and `Value::to_compact`
//! on the published notification.

use crate::lsp_text::{editable_callers, position, spec_name_offset, traces_parens};
use crate::network_batch::scenario;
use crate::oracle::{json_diagnostics, lint_matches};
use crate::stats::{ms, Ledger};
use crate::trace::{Summary, Tracer};
use crate::{Config, Measured, Phase};
use pospec_core::DfaCache;
use pospec_gen::Manifest;
use pospec_json::{ObjBuilder, Value};
use pospec_lang::{parser::parse, ElabSession};
use pospec_lint::LintConfig;
use pospec_lsp::{rpc, LspServer};
use pospec_serve::SpecRegistry;
use std::io::Cursor;
use std::time::Instant;

const DEPTH: usize = 6;
const URI: &str = "file:///bench/gossip.pos";
const COMMENT: &str = "// keystroke\n";

/// Frame `msg` as a client would send it.
fn frame(msg: &Value) -> Vec<u8> {
    let mut buf = Vec::new();
    rpc::write_message(&mut buf, msg).expect("writing to memory cannot fail");
    buf
}

fn request(id: u64, method: &str, params: Value) -> Value {
    ObjBuilder::new()
        .field("jsonrpc", "2.0")
        .field("id", id)
        .field("method", method)
        .field("params", params)
        .build()
}

fn pos_json(text: &str, offset: usize) -> Value {
    let (line, character) = position(text, offset);
    ObjBuilder::new().field("line", line).field("character", character).build()
}

/// Feed one framed message to the server the way `LspServer::run` does;
/// returns the messages it wrote, parsed back.
fn exchange(
    tr: &mut Tracer,
    server: &mut LspServer,
    bytes: &[u8],
    read_span: &'static str,
) -> Result<Vec<Value>, String> {
    let msg = tr
        .span(read_span, |_| rpc::read_message(&mut Cursor::new(bytes)))
        .map_err(|e| format!("reading a frame: {e}"))?
        .ok_or("empty frame")?;
    let replies = tr.span("lsp.handle", |_| server.handle(&msg));
    let mut wire = Vec::new();
    tr.span("lsp.rpc_write", |_| -> Result<(), String> {
        for r in &replies {
            rpc::write_message(&mut wire, r).map_err(|e| format!("writing a reply: {e}"))?;
        }
        Ok(())
    })?;
    Ok(replies)
}

fn published(replies: &[Value]) -> Option<&Value> {
    replies.iter().find(|r| {
        r.get("method").and_then(Value::as_str) == Some("textDocument/publishDiagnostics")
    })
}

fn check_diagnostics(ledger: &mut Ledger, m: &Manifest, what: &str, replies: &[Value]) {
    let diags = json_diagnostics(
        published(replies).and_then(|p| p.get("params")).and_then(|p| p.get("diagnostics")),
    );
    let verdict = if published(replies).is_some() {
        lint_matches(&m.lint, &diags)
    } else {
        Err("no publishDiagnostics".into())
    };
    ledger.check(verdict.is_ok(), || format!("{what}: {}", verdict.unwrap_err()));
}

/// The replay state: a registry, cache and session fed the same texts.
struct Replay {
    registry: SpecRegistry,
    cache: DfaCache,
    session: ElabSession,
}

impl Replay {
    fn new(text: &str) -> Replay {
        let mut r = Replay {
            registry: SpecRegistry::new(),
            cache: DfaCache::new(),
            session: ElabSession::new(),
        };
        if let Ok(ast) = parse(text) {
            let _ = r.session.document(&ast);
        }
        if let Ok(o) = r.registry.load_source(URI, text) {
            r.registry.refresh_pairs(&o.entry, DEPTH, &r.cache);
        }
        r
    }

    fn change(&mut self, tr: &mut Tracer, body: &str, text: &str, replies: &[Value]) {
        let _ = tr.replay("json.parse_write", || pospec_json::parse(body));
        if let Ok(ast) = tr.replay("lang.parse", || parse(text)) {
            if let Ok((_, load)) = tr.replay("lang.session_elab", || self.session.document(&ast)) {
                tr.count("lang.reelaborated", load.reelaborated.len() as f64);
            }
        }
        if let Ok(o) = tr.replay("serve.registry_load", || self.registry.load_source(URI, text)) {
            let (recomputed, served) = tr.replay("serve.refresh_pairs", || {
                self.registry.refresh_pairs(&o.entry, DEPTH, &self.cache)
            });
            tr.count("serve.pair_lookups", (recomputed + served) as f64);
            tr.count("serve.pair_hits", served as f64);
        }
        let mut config = LintConfig::default();
        config.depth = DEPTH;
        let cache = &self.cache;
        tr.replay("lint.session", || {
            self.registry.with_session(URI, |s| {
                pospec_lint::lint_document_session(URI, text, &config, cache, s)
            })
        });
        if let Some(p) = published(replies) {
            tr.replay("json.serialize", || p.to_compact());
        }
    }
}

/// A fresh server with the document open; returns it with the time from
/// `initialize` to the first `publishDiagnostics`.
fn open(
    tr: &mut Tracer,
    text: &str,
    ledger: &mut Ledger,
    m: &Manifest,
) -> Result<(LspServer, f64), String> {
    let init = frame(&request(0, "initialize", ObjBuilder::new().build()));
    let initialized = frame(
        &ObjBuilder::new()
            .field("jsonrpc", "2.0")
            .field("method", "initialized")
            .field("params", ObjBuilder::new().build())
            .build(),
    );
    let doc = ObjBuilder::new()
        .field("uri", URI)
        .field("languageId", "pos")
        .field("version", 0u64)
        .field("text", text)
        .build();
    let did_open = frame(
        &ObjBuilder::new()
            .field("jsonrpc", "2.0")
            .field("method", "textDocument/didOpen")
            .field("params", ObjBuilder::new().field("textDocument", doc).build())
            .build(),
    );
    let mut server = LspServer::new(DEPTH);
    let (res, t) = tr.op("setup", |tr| -> Result<Vec<Value>, String> {
        exchange(tr, &mut server, &init, "lsp.init_read")?;
        exchange(tr, &mut server, &initialized, "lsp.init_read")?;
        exchange(tr, &mut server, &did_open, "lsp.open_read")
    });
    let replies = res?;
    check_diagnostics(ledger, m, "didOpen", &replies);
    Ok((server, t.as_secs_f64()))
}

/// One edit of the cycle: the byte range replaced and its new text.
struct Edit {
    kind: &'static str,
    start: usize,
    end: usize,
    text: &'static str,
}

/// The four edits of one cycle on `spec`, as seen from `text`.
fn cycle(text: &str, spec: &str) -> Option<[Edit; 4]> {
    let (open, close) = traces_parens(text, spec)?;
    // After the second literal: `( <a> <b>* <ack> )*`.
    let star = open + text[open..close].match_indices('>').nth(1)?.0 + 1;
    let line = text[..spec_name_offset(text, spec)?].rfind('\n').map_or(0, |i| i + 1);
    Some([
        Edit { kind: "change", start: star, end: star, text: "*" },
        Edit { kind: "undo", start: star, end: star + 1, text: "" },
        Edit { kind: "comment_add", start: line, end: line, text: COMMENT },
        Edit { kind: "comment_del", start: line, end: line + COMMENT.len(), text: "" },
    ])
}

pub fn run(cfg: &Config, phase: &Phase) -> Result<Measured, String> {
    let s = scenario(cfg, if cfg.tiny { 10 } else { 300 })?;
    let m = &s.manifest;
    let mut text = s.document.clone();
    let targets = editable_callers(m, cfg.seed);
    if targets.is_empty() {
        return Err("no editable spec in the generated document".into());
    }
    let mut out = Measured::default();
    let mut tr = Tracer::new(phase.trace, 0, Instant::now());
    let mut server = None;
    for _ in 0..phase.setups.max(1) {
        let (srv, t) = open(&mut tr, &text, &mut out.ledger, m)?;
        out.setup_s.push(t);
        server = Some(srv);
    }
    let mut server = server.expect("at least one set-up");
    let mut replay = phase.trace.then(|| Replay::new(&text));

    let started = Instant::now();
    let (mut busy, mut version, mut id) = (0.0, 0u64, 1u64);
    let max_edits = if cfg.tiny { 8 } else { usize::MAX };
    'run: for spec in targets.iter().cycle() {
        let edits =
            cycle(&text, spec).ok_or_else(|| format!("cannot locate `{spec}` in the document"))?;
        for e in edits {
            version += 1;
            let change = ObjBuilder::new()
                .field(
                    "range",
                    ObjBuilder::new()
                        .field("start", pos_json(&text, e.start))
                        .field("end", pos_json(&text, e.end))
                        .build(),
                )
                .field("text", e.text)
                .build();
            let params = ObjBuilder::new()
                .field(
                    "textDocument",
                    ObjBuilder::new().field("uri", URI).field("version", version).build(),
                )
                .field("contentChanges", Value::Arr(vec![change]))
                .build();
            let msg = ObjBuilder::new()
                .field("jsonrpc", "2.0")
                .field("method", "textDocument/didChange")
                .field("params", params)
                .build();
            let bytes = frame(&msg);
            text.replace_range(e.start..e.end, e.text);
            let (replies, t) =
                tr.op(e.kind, |tr| exchange(tr, &mut server, &bytes, "lsp.change_read"));
            let replies = replies?;
            out.write_ms.push(ms(t));
            busy += t.as_secs_f64();
            if e.kind != "change" {
                check_diagnostics(&mut out.ledger, m, e.kind, &replies);
            }
            if let Some(r) = replay.as_mut() {
                r.change(&mut tr, &msg.to_compact(), &text, &replies);
            }

            // Hover on the edited spec's name.
            id += 1;
            let at = spec_name_offset(&text, spec).ok_or("edited spec vanished")? + 1;
            let params = ObjBuilder::new()
                .field("textDocument", ObjBuilder::new().field("uri", URI).build())
                .field("position", pos_json(&text, at))
                .build();
            let hover = request(id, "textDocument/hover", params);
            let bytes = frame(&hover);
            let (replies, t) =
                tr.op("hover", |tr| exchange(tr, &mut server, &bytes, "lsp.hover_read"));
            let replies = replies?;
            out.read_ms.push(ms(t));
            busy += t.as_secs_f64();
            let shown = replies
                .first()
                .and_then(|r| r.get("result"))
                .and_then(|r| r.get("contents"))
                .and_then(|c| c.get("value"))
                .and_then(Value::as_str)
                .unwrap_or("");
            let proto = spec.replacen("Caller", "Proto", 1);
            let want = format!(
                "`{spec} ⊑ {proto}`: **{}**",
                if e.kind == "change" { "fails" } else { "holds" }
            );
            out.ledger.check(shown.contains(&want), || {
                format!("hover on {spec} lacks {want:?}: {shown:?}")
            });
            if tr.is_on() {
                let _ = tr.replay("json.parse_read", || pospec_json::parse(&hover.to_compact()));
                if let Some(r) = replies.first() {
                    tr.replay("json.serialize", || r.to_compact());
                }
            }
            if out.write_ms.len() >= max_edits
                || (started.elapsed().as_secs_f64() >= phase.seconds && e.kind == "comment_del")
            {
                break 'run;
            }
        }
    }
    out.busy_s = busy;
    if phase.trace {
        out.summary = Some(Summary::merge(vec![tr]));
    }
    Ok(out)
}
