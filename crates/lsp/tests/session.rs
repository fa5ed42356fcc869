//! Scripted LSP sessions over in-memory framed pipes.
//!
//! The golden transcript drives [`LspServer::run`] exactly as an editor
//! would — framed JSON-RPC bytes in, framed bytes out — and pins:
//!
//! * lifecycle (initialize → … → shutdown → exit, exit code 0);
//! * publishDiagnostics emptiness on a clean document;
//! * **incrementality by counters**: a didChange touching one spec
//!   re-elaborates exactly one spec and re-checks exactly the dirty
//!   refinement pair (`pospec/stats` before/after);
//! * hover and definition payloads, including UTF-16 positions over
//!   multi-byte source;
//! * diagnostics byte-identical (code / byte span / message) to
//!   `pospec lint --json` when an edit introduces `P020`.

use pospec_json::{ObjBuilder, Value};
use pospec_lang::pos::offset_to_utf16;
use pospec_lsp::rpc::{read_message, write_message};
use pospec_lsp::LspServer;
use std::io::Cursor;

const URI: &str = "file:///demo.pos";
const DEPTH: usize = 6;

// Three specs, two refine obligations sharing the abstract side: an
// edit to `C` dirties exactly the pair (C, A).
const DOC: &str = "\
universe { class Env; object o; object b; method OP; witnesses Env 1; }
spec A { objects { o } alphabet { <Env, o, OP>; <o, b, OP>; } traces any; }
spec B { objects { o } alphabet { <Env, o, OP>; <o, b, OP>; } traces prs <o, b, OP>*; }
spec C { objects { o } alphabet { <Env, o, OP>; <o, b, OP>; } traces prs <o, b, OP> <o, b, OP>*; }
development { refine B of A; refine C of A; }
";

/// The edited `C` trace set (still well-formed, still refines `A`).
const C_OLD: &str = "<o, b, OP> <o, b, OP>*;";
const C_NEW: &str = "<o, b, OP>?;";

/// A document whose `compose` violates Def. 10: `A`'s alphabet has
/// `<o, b, OP>`, internal to `D`'s objects `{o, b}` — lint reports P020.
fn p020_doc() -> String {
    DOC.replace(
        "development {",
        "spec D { objects { o b } alphabet { <Env, b, OP>; } traces any; }\n\
         development { compose X from A with D;",
    )
}

// ---- framing helpers -------------------------------------------------

fn obj() -> ObjBuilder {
    ObjBuilder::new().field("jsonrpc", "2.0")
}

fn request(id: u64, method: &str, params: Value) -> Value {
    obj().field("id", id).field("method", method).field("params", params).build()
}

fn notification(method: &str, params: Value) -> Value {
    obj().field("method", method).field("params", params).build()
}

fn did_open(uri: &str, text: &str) -> Value {
    notification(
        "textDocument/didOpen",
        ObjBuilder::new()
            .field(
                "textDocument",
                ObjBuilder::new()
                    .field("uri", uri)
                    .field("languageId", "pospec")
                    .field("version", 1u64)
                    .field("text", text)
                    .build(),
            )
            .build(),
    )
}

fn full_change(uri: &str, version: u64, text: &str) -> Value {
    notification(
        "textDocument/didChange",
        ObjBuilder::new()
            .field(
                "textDocument",
                ObjBuilder::new().field("uri", uri).field("version", version).build(),
            )
            .field(
                "contentChanges",
                Value::Arr(vec![ObjBuilder::new().field("text", text).build()]),
            )
            .build(),
    )
}

fn position(line: u32, character: u32) -> Value {
    ObjBuilder::new().field("line", line as u64).field("character", character as u64).build()
}

/// An incremental didChange replacing the UTF-16 range covering byte
/// range `start..end` of `src` with `text`.
fn range_change(uri: &str, version: u64, src: &str, start: usize, end: usize, text: &str) -> Value {
    let (sl, sc) = offset_to_utf16(src, start);
    let (el, ec) = offset_to_utf16(src, end);
    notification(
        "textDocument/didChange",
        ObjBuilder::new()
            .field(
                "textDocument",
                ObjBuilder::new().field("uri", uri).field("version", version).build(),
            )
            .field(
                "contentChanges",
                Value::Arr(vec![ObjBuilder::new()
                    .field(
                        "range",
                        ObjBuilder::new()
                            .field("start", position(sl, sc))
                            .field("end", position(el, ec))
                            .build(),
                    )
                    .field("text", text)
                    .build()]),
            )
            .build(),
    )
}

fn at_position(uri: &str, src: &str, offset: usize) -> Value {
    let (l, c) = offset_to_utf16(src, offset);
    ObjBuilder::new()
        .field("textDocument", ObjBuilder::new().field("uri", uri).build())
        .field("position", position(l, c))
        .build()
}

/// Run a scripted session: frame `messages` into one input stream, run
/// the server over it, return `(exit code, outgoing messages)`.
fn run_session(messages: &[Value]) -> (i32, Vec<Value>) {
    let mut input = Vec::new();
    for m in messages {
        write_message(&mut input, m).expect("frame");
    }
    let mut server = LspServer::new(DEPTH);
    let mut output = Vec::new();
    let code = server.run(&mut Cursor::new(input), &mut output);
    let mut cursor = Cursor::new(output);
    let mut out = Vec::new();
    while let Some(m) = read_message(&mut cursor).expect("well-framed output") {
        out.push(m);
    }
    (code, out)
}

/// The response to request `id` (panics if absent).
fn response_to(out: &[Value], id: u64) -> &Value {
    out.iter()
        .find(|m| m.get("id").and_then(Value::as_u64) == Some(id) && m.get("method").is_none())
        .unwrap_or_else(|| panic!("no response to id {id}"))
}

/// All `publishDiagnostics` notifications, in order.
fn publishes(out: &[Value]) -> Vec<&Value> {
    out.iter()
        .filter(|m| {
            m.get("method").and_then(Value::as_str) == Some("textDocument/publishDiagnostics")
        })
        .map(|m| m.get("params").expect("params"))
        .collect()
}

fn diagnostics(publish: &Value) -> &[Value] {
    publish.get("diagnostics").and_then(Value::as_arr).expect("diagnostics array")
}

fn path(v: &Value, keys: &[&str]) -> u64 {
    let mut cur = v;
    for k in keys {
        cur = cur.get(k).unwrap_or_else(|| panic!("missing key `{k}`"));
    }
    cur.as_u64().unwrap_or_else(|| panic!("non-numeric at {keys:?}"))
}

// ---- the golden transcript ------------------------------------------

#[test]
fn golden_session_proves_incrementality_by_counters() {
    let edited = DOC.replace(C_OLD, C_NEW);
    assert_ne!(edited, DOC, "edit must apply");
    let start = DOC.find(C_OLD).expect("C trace set present");
    let hover_off = DOC.find("spec B").expect("spec B") + "spec ".len();
    // `refine B` sits after the edited spec `C`, so its byte offset
    // must come from the post-edit text.
    let def_off = edited.find("refine B").expect("refine B") + "refine ".len();

    let script = [
        request(1, "initialize", ObjBuilder::new().field("capabilities", Value::Null).build()),
        notification("initialized", Value::Obj(Vec::new())),
        did_open(URI, DOC),
        request(2, "pospec/stats", Value::Null),
        range_change(URI, 2, DOC, start, start + C_OLD.len(), C_NEW),
        request(3, "pospec/stats", Value::Null),
        request(4, "textDocument/hover", at_position(URI, &edited, hover_off)),
        request(5, "textDocument/definition", at_position(URI, &edited, def_off)),
        request(6, "shutdown", Value::Null),
        notification("exit", Value::Null),
    ];
    let (code, out) = run_session(&script);
    assert_eq!(code, 0, "exit after shutdown is a clean exit");

    // initialize: incremental sync + hover + definition, UTF-16.
    let caps = response_to(&out, 1).get("result").expect("result");
    assert_eq!(path(caps, &["capabilities", "textDocumentSync", "change"]), 2);
    assert_eq!(
        caps.get("capabilities").and_then(|c| c.get("positionEncoding")).and_then(Value::as_str),
        Some("utf-16")
    );

    // A clean document publishes zero diagnostics, with the version.
    let pubs = publishes(&out);
    assert_eq!(pubs.len(), 2, "one publish per didOpen/didChange");
    assert_eq!(pubs[0].get("uri").and_then(Value::as_str), Some(URI));
    assert_eq!(path(pubs[0], &["version"]), 1);
    assert!(diagnostics(pubs[0]).is_empty(), "clean doc: {:?}", pubs[0]);
    // The incremental edit keeps the document clean too.
    assert_eq!(path(pubs[1], &["version"]), 2);
    assert!(diagnostics(pubs[1]).is_empty(), "still clean: {:?}", pubs[1]);

    // Counters: didOpen elaborated all three specs once (lint shares
    // the session, so the five passes add zero re-elaborations) and
    // checked both refine pairs.
    let s1 = response_to(&out, 2).get("result").expect("stats");
    assert_eq!(path(s1, &["registry", "elaborations"]), 3);
    assert_eq!(path(s1, &["registry", "pair_checks"]), 2);
    assert_eq!(path(s1, &["registry", "pair_hits"]), 0);

    // After editing only `C`: exactly one re-elaboration, and of the
    // two refine pairs exactly the dirty (C, A) was recomputed — the
    // clean (B, A) was served from the pair-verdict cache.
    let s2 = response_to(&out, 3).get("result").expect("stats");
    assert_eq!(
        path(s2, &["registry", "elaborations"]),
        4,
        "one keystroke, one re-elaboration: {s2:?}"
    );
    assert_eq!(path(s2, &["registry", "pair_checks"]), 4);
    assert_eq!(path(s2, &["registry", "pair_hits"]), 1, "clean pair served from cache");
    // The automaton cache only rebuilt the edited spec's machinery.
    let d1 = path(s1, &["cache", "dfa_misses"]);
    let d2 = path(s2, &["cache", "dfa_misses"]);
    assert!(d2 > d1, "C's new automaton must be built");
    assert!(d2 - d1 <= 2, "only the edited spec may rebuild: {d1} -> {d2}");

    // Hover over `B`: alphabet, granules, and its cached verdict.
    let hover = response_to(&out, 4).get("result").expect("hover");
    let md = hover
        .get("contents")
        .and_then(|c| c.get("value"))
        .and_then(Value::as_str)
        .expect("markdown");
    assert!(md.contains("spec `B`"), "{md}");
    assert!(md.contains("alphabet:"), "{md}");
    assert!(md.contains("granule"), "{md}");
    assert!(md.contains("`B ⊑ A`"), "{md}");
    assert!(md.contains("*(cached)*"), "verdict must come from the pair cache: {md}");

    // Definition of `B` from its use in `refine B of A`.
    let def = response_to(&out, 5).get("result").expect("definition");
    assert_eq!(def.get("uri").and_then(Value::as_str), Some(URI));
    let (dl, dc) = offset_to_utf16(&edited, edited.find("spec B").expect("decl") + "spec ".len());
    assert_eq!(path(def, &["range", "start", "line"]), dl as u64);
    assert_eq!(path(def, &["range", "start", "character"]), dc as u64);

    // shutdown answers null.
    assert!(matches!(response_to(&out, 6).get("result"), Some(Value::Null)));
}

#[test]
fn introduced_p020_matches_lint_json_byte_for_byte() {
    let bad = p020_doc();
    let script = [
        request(1, "initialize", Value::Obj(Vec::new())),
        did_open(URI, DOC),
        full_change(URI, 2, &bad),
        request(2, "shutdown", Value::Null),
        notification("exit", Value::Null),
    ];
    let (code, out) = run_session(&script);
    assert_eq!(code, 0);

    let pubs = publishes(&out);
    assert_eq!(pubs.len(), 2);
    assert!(diagnostics(pubs[0]).is_empty());
    let published = diagnostics(pubs[1]);
    assert!(!published.is_empty(), "the bad compose must be reported");

    // Reference: the plain batch linter on the same text.
    let mut config = pospec_lint::LintConfig::default();
    config.depth = DEPTH;
    let report = pospec_lint::lint_document(URI, &bad, &config);
    assert_eq!(published.len(), report.diagnostics.len(), "same diagnostic set");
    let mut saw_p020 = false;
    for (lsp, lint) in published.iter().zip(&report.diagnostics) {
        // code and message are the linter's strings, verbatim.
        assert_eq!(lsp.get("code").and_then(Value::as_str), Some(lint.code.as_str()));
        assert_eq!(lsp.get("message").and_then(Value::as_str), Some(lint.message.as_str()));
        // The byte span rides along in `data`, identical to
        // `pospec lint --json`'s span object.
        if let Some(span) = &lint.span {
            let data = lsp.get("data").expect("byte span data");
            assert_eq!(path(data, &["line"]), span.line as u64);
            assert_eq!(path(data, &["col"]), span.col as u64);
            assert_eq!(path(data, &["offset"]), span.offset as u64);
            assert_eq!(path(data, &["len"]), span.len as u64);
        }
        if lint.code.as_str() == "P020" {
            saw_p020 = true;
            let related = lsp.get("relatedInformation").and_then(Value::as_arr).expect("notes");
            assert_eq!(related.len(), lint.notes.len());
        }
    }
    assert!(saw_p020, "P020 must be among the published diagnostics: {report:?}");
}

#[test]
fn utf16_positions_round_trip_through_emoji_source() {
    // The comment's emoji (surrogate pairs in UTF-16) shifts columns;
    // the multi-byte é shifts bytes but not UTF-16 units.
    let doc = DOC.replace("spec B {", "// 🦀🦀 naïve café comment\nspec B {");
    let hover_off = doc.find("spec B").expect("spec B") + "spec ".len();
    let script = [
        request(1, "initialize", Value::Obj(Vec::new())),
        did_open(URI, &doc),
        request(2, "textDocument/hover", at_position(URI, &doc, hover_off)),
        request(3, "shutdown", Value::Null),
        notification("exit", Value::Null),
    ];
    let (code, out) = run_session(&script);
    assert_eq!(code, 0);
    assert!(diagnostics(publishes(&out)[0]).is_empty(), "doc still clean");

    let hover = response_to(&out, 2).get("result").expect("hover");
    let md = hover
        .get("contents")
        .and_then(|c| c.get("value"))
        .and_then(Value::as_str)
        .expect("markdown");
    assert!(md.contains("spec `B`"), "{md}");
    // The returned highlight range must map back to the same bytes.
    let (l, c) = offset_to_utf16(&doc, hover_off);
    assert_eq!(path(hover, &["range", "start", "line"]), l as u64);
    assert_eq!(path(hover, &["range", "start", "character"]), c as u64);
    assert_eq!(
        pospec_lang::pos::utf16_to_offset(&doc, l, c),
        Some(hover_off),
        "UTF-16 position round-trips to the same byte offset"
    );
}

#[test]
fn lifecycle_gates_are_enforced() {
    // A request before initialize is rejected with -32002; exit
    // without shutdown returns code 1.
    let script = [
        request(1, "textDocument/hover", Value::Obj(Vec::new())),
        request(2, "initialize", Value::Obj(Vec::new())),
        request(3, "nosuch/method", Value::Null),
        notification("exit", Value::Null),
    ];
    let (code, out) = run_session(&script);
    assert_eq!(code, 1, "exit without shutdown is abnormal");
    let err = response_to(&out, 1).get("error").expect("error");
    assert_eq!(err.get("code").and_then(Value::as_u64), None); // negative
    assert_eq!(err.get("message").and_then(Value::as_str), Some("server not initialized"));
    let unknown = response_to(&out, 3).get("error").expect("error");
    assert!(unknown
        .get("message")
        .and_then(Value::as_str)
        .expect("message")
        .contains("nosuch/method"));
}

#[test]
fn unparsable_bodies_get_parse_errors_and_the_session_goes_on() {
    // A 500 KB body of `[` is under any sane frame size and used to
    // overflow the parser's stack; now it is one PARSE_ERROR reply.
    let frame = |body: &str| format!("Content-Length: {}\r\n\r\n{body}", body.len());
    let mut input = String::new();
    input += &frame(&request(1, "initialize", Value::Obj(Vec::new())).to_compact());
    input += &frame(&"[".repeat(500_000));
    input += &frame("{\"jsonrpc\":\"2.0\",\"id\":2,");
    input += &frame(&request(3, "shutdown", Value::Null).to_compact());
    input += &frame(&notification("exit", Value::Null).to_compact());
    let mut output = Vec::new();
    let code = LspServer::new(DEPTH).run(&mut Cursor::new(input.into_bytes()), &mut output);
    assert_eq!(code, 0, "the session ends normally");
    let mut cursor = Cursor::new(output);
    let mut out = Vec::new();
    while let Some(m) = read_message(&mut cursor).expect("well-framed output") {
        out.push(m);
    }
    let parse_errors: Vec<&Value> =
        out.iter().filter(|m| m.get("id") == Some(&Value::Null)).collect();
    assert_eq!(parse_errors.len(), 2, "{out:?}");
    for e in parse_errors {
        let error = e.get("error").expect("error");
        assert_eq!(error.get("code").and_then(Value::as_f64), Some(-32700.0));
    }
    assert_eq!(response_to(&out, 3).get("result"), Some(&Value::Null));
}

#[test]
fn over_nested_regexes_are_a_p001_diagnostic() {
    // A million-deep group used to overflow the `.pos` parser's stack
    // and kill the server; now it is one diagnostic like any syntax error.
    let n = 1_000_000;
    let deep = DOC.replace(C_OLD, &format!("{}<o, b, OP>{};", "(".repeat(n), ")".repeat(n)));
    let script = [
        request(1, "initialize", Value::Obj(Vec::new())),
        did_open(URI, &deep),
        request(2, "shutdown", Value::Null),
        notification("exit", Value::Null),
    ];
    let (code, out) = run_session(&script);
    assert_eq!(code, 0);
    let pubs = publishes(&out);
    let diags = diagnostics(pubs[0]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].get("code").and_then(Value::as_str), Some("P001"));
    let message = diags[0].get("message").and_then(Value::as_str).expect("message");
    assert!(message.contains("nested more than 256 levels"), "{message}");
}

#[test]
fn did_close_clears_diagnostics() {
    let bad = p020_doc();
    let close = notification(
        "textDocument/didClose",
        ObjBuilder::new()
            .field("textDocument", ObjBuilder::new().field("uri", URI).build())
            .build(),
    );
    let script = [
        request(1, "initialize", Value::Obj(Vec::new())),
        did_open(URI, &bad),
        close,
        request(2, "shutdown", Value::Null),
        notification("exit", Value::Null),
    ];
    let (code, out) = run_session(&script);
    assert_eq!(code, 0);
    let pubs = publishes(&out);
    assert_eq!(pubs.len(), 2);
    assert!(!diagnostics(pubs[0]).is_empty(), "bad doc reports");
    assert!(diagnostics(pubs[1]).is_empty(), "closing clears the problems pane");
}

#[test]
fn code_action_serves_machine_fix_that_lints_clean() {
    // A third copy of `<o, b, OP>` in `B`'s alphabet is shadowed by the
    // patterns before it (P101) and carries a machine-applicable
    // deletion fix.
    let doc = DOC.replace(
        "spec B { objects { o } alphabet { <Env, o, OP>; <o, b, OP>; }",
        "spec B { objects { o } alphabet { <Env, o, OP>; <o, b, OP>; <o, b, OP>; }",
    );
    assert_ne!(doc, DOC, "edit must apply");
    let (el, ec) = offset_to_utf16(&doc, doc.len());
    let params = ObjBuilder::new()
        .field("textDocument", ObjBuilder::new().field("uri", URI).build())
        .field(
            "range",
            ObjBuilder::new().field("start", position(0, 0)).field("end", position(el, ec)).build(),
        )
        .field("context", ObjBuilder::new().field("diagnostics", Value::Arr(Vec::new())).build())
        .build();
    let script = [
        request(1, "initialize", Value::Obj(Vec::new())),
        did_open(URI, &doc),
        request(2, "textDocument/codeAction", params),
        request(3, "shutdown", Value::Null),
        notification("exit", Value::Null),
    ];
    let (code, out) = run_session(&script);
    assert_eq!(code, 0);

    let caps = response_to(&out, 1).get("result").expect("result");
    assert_eq!(
        caps.get("capabilities").and_then(|c| c.get("codeActionProvider")).and_then(Value::as_bool),
        Some(true),
        "codeActionProvider must be advertised"
    );

    let actions = response_to(&out, 2).get("result").and_then(Value::as_arr).expect("actions");
    assert_eq!(actions.len(), 1, "exactly the shadowed-pattern fix: {actions:?}");
    let action = &actions[0];
    assert_eq!(action.get("title").and_then(Value::as_str), Some("remove the shadowed pattern"));
    assert_eq!(action.get("kind").and_then(Value::as_str), Some("quickfix"));
    assert_eq!(action.get("isPreferred").and_then(Value::as_bool), Some(true));
    let attached = action.get("diagnostics").and_then(Value::as_arr).expect("diagnostics");
    assert_eq!(attached.len(), 1);
    assert_eq!(attached[0].get("code").and_then(Value::as_str), Some("P101"));

    // Apply the workspace edit exactly as an editor would — UTF-16
    // ranges against the open text — and the document must lint clean.
    let edits = action
        .get("edit")
        .and_then(|e| e.get("changes"))
        .and_then(|c| c.get(URI))
        .and_then(Value::as_arr)
        .expect("edits for the document");
    let mut spans: Vec<(usize, usize, String)> = edits
        .iter()
        .map(|e| {
            let r = e.get("range").expect("range");
            let s = pospec_lang::pos::utf16_to_offset(
                &doc,
                path(r, &["start", "line"]) as u32,
                path(r, &["start", "character"]) as u32,
            )
            .expect("start maps back to bytes");
            let en = pospec_lang::pos::utf16_to_offset(
                &doc,
                path(r, &["end", "line"]) as u32,
                path(r, &["end", "character"]) as u32,
            )
            .expect("end maps back to bytes");
            (s, en, e.get("newText").and_then(Value::as_str).expect("newText").to_string())
        })
        .collect();
    spans.sort_by_key(|(s, _, _)| std::cmp::Reverse(*s));
    let mut fixed = doc.clone();
    for (s, e, t) in spans {
        fixed.replace_range(s..e, &t);
    }
    let mut config = pospec_lint::LintConfig::default();
    config.depth = DEPTH;
    let report = pospec_lint::lint_document(URI, &fixed, &config);
    assert!(report.diagnostics.is_empty(), "applying the code action lints clean: {report:?}");
}

/// Measurement harness for the EXPERIMENTS.md incremental-vs-full
/// re-lint table.  Run manually:
///
/// ```text
/// cargo test --release -p pospec-lsp --test session -- --ignored --nocapture
/// ```
#[test]
#[ignore = "timing harness, run manually in release mode"]
fn incremental_relint_timing() {
    use pospec_core::DfaCache;
    use pospec_serve::SpecRegistry;
    use std::time::Instant;

    // A universe wide enough that per-spec elaboration (template →
    // granule expansion) is the dominant per-keystroke cost, as it is
    // for real documents.
    fn build_doc(n: usize) -> String {
        let mut doc = String::from("universe { class Env; ");
        for o in 0..8 {
            doc.push_str(&format!("object o{o}; "));
        }
        for m in 0..12 {
            doc.push_str(&format!("method M{m}; "));
        }
        doc.push_str("witnesses Env 1; }\n");
        // Def. 1: every event must involve the spec's object o0.
        let alphabet: String =
            (0..12).map(|m| format!("<Env, o0, M{m}>; <o0, o{}, M{m}>; ", 1 + m % 7)).collect();
        doc.push_str(&format!(
            "spec S0 {{ objects {{ o0 }} alphabet {{ {alphabet}}} traces any; }}\n"
        ));
        for i in 1..n {
            doc.push_str(&format!(
                "spec S{i} {{ objects {{ o0 }} alphabet {{ {alphabet}}} \
                 traces prs <o0, o1, M0>{}; }}\n",
                "*".repeat(1 + i % 2),
            ));
        }
        doc.push_str("development {");
        for i in 1..n {
            doc.push_str(&format!(" refine S{i} of S0;"));
        }
        doc.push_str(" }\n");
        doc
    }

    println!("| specs | full re-lint (ms) | incremental (ms) | speedup | re-elaborations/edit |");
    println!("|---|---|---|---|---|");
    for n in [10usize, 40, 160] {
        let doc = build_doc(n);
        let mut config = pospec_lint::LintConfig::default();
        config.depth = DEPTH;
        let runs = 10;

        let last = n - 1;
        let old = format!("traces prs <o0, o1, M0>{}; }}\ndevelopment", "*".repeat(1 + last % 2));
        let edited = doc.replace(&old, "traces prs <o0, o1, M0>?; }\ndevelopment");
        assert_ne!(edited, doc, "edit must hit the last spec");

        // Full: what a non-incremental editor loop does per keystroke —
        // parse + elaborate *everything*, run the five passes, and
        // re-check every refine obligation.  The DFA cache is shared
        // across runs, but a fresh `Arc<Universe>` per run defeats its
        // pointer-keyed interning.
        let full_cache = DfaCache::new();
        let full_round = |text: &str| {
            pospec_lint::lint_document_cached("t", text, &config, &full_cache);
            let parsed = pospec_lang::parse_document(text).expect("well-formed");
            for i in 1..n {
                let c = parsed.spec(&format!("S{i}")).expect("spec");
                let a = parsed.spec("S0").expect("spec");
                pospec_core::check_refinement_cached(&full_cache, c, a, DEPTH);
            }
        };
        full_round(&doc);
        let t = Instant::now();
        for round in 0..runs {
            full_round(if round % 2 == 0 { &edited } else { &doc });
        }
        let full_ms = t.elapsed().as_secs_f64() * 1000.0 / runs as f64;

        // Incremental: the LSP's analyze() path — register the edit
        // (the session re-elaborates only the changed spec), refresh
        // verdicts (only the dirty pair re-checks), re-lint through
        // the same session.
        let registry = SpecRegistry::new();
        let cache = DfaCache::new();
        let out = registry.load_source("t", &doc).expect("well-formed");
        registry.refresh_pairs(&out.entry, DEPTH, &cache);
        registry.with_session("t", |s| {
            pospec_lint::lint_document_session("t", &doc, &config, &cache, s)
        });
        let t = Instant::now();
        let mut reelabs = 0u32;
        for round in 0..runs {
            // Alternate the last spec's trace set so every round is a
            // real one-spec change.
            let text = if round % 2 == 0 { &edited } else { &doc };
            let out = registry.load_source("t", text).expect("well-formed");
            reelabs += out.reelaborated.len() as u32;
            registry.refresh_pairs(&out.entry, DEPTH, &cache);
            registry.with_session("t", |s| {
                pospec_lint::lint_document_session("t", text, &config, &cache, s)
            });
        }
        let incr_ms = t.elapsed().as_secs_f64() * 1000.0 / runs as f64;
        println!(
            "| {n} | {full_ms:.2} | {incr_ms:.2} | {:.1}x | {} |",
            full_ms / incr_ms.max(1e-9),
            reelabs as f64 / runs as f64,
        );
    }
}
