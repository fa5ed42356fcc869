//! Property-based round trips through the writer and the parser.
//!
//! The wire protocols (serve's JSON lines, the LSP's framed bodies) rely
//! on `parse ∘ write` being the identity, so random values are written
//! compactly and prettily and parsed back.  Strings mix ASCII runs,
//! 2/3/4-byte UTF-8, every escaped character and control characters at
//! run boundaries, which is where a run-copying parser or writer would
//! slip.  Large inputs are checked by value only, never by time.

use pospec_json::{parse, ObjBuilder, Value};
use proptest::prelude::*;
use proptest::{Strategy, TestRunner};

/// Pieces a random string is glued from: plain ASCII runs, multi-byte
/// scalars of every UTF-8 width, every character the writer escapes,
/// and other control characters (DEL included, which it does not).
const PIECES: &[&str] = &[
    "a",
    "spec Read",
    " ",
    "é",
    "ß",
    "Γ",
    "‖",
    "∆",
    "🦀",
    "𝔸",
    "\"",
    "\\",
    "/",
    "\n",
    "\r",
    "\t",
    "\u{08}",
    "\u{0C}",
    "\u{00}",
    "\u{01}",
    "\u{1F}",
    "\u{7F}",
    "\\u0041",
    "\u{FFFD}",
];

fn random_string(runner: &mut TestRunner) -> String {
    let len = runner.gen_range_usize(0, 12);
    (0..len).map(|_| PIECES[runner.gen_range_usize(0, PIECES.len())]).collect()
}

fn random_number(runner: &mut TestRunner) -> f64 {
    match runner.gen_range_usize(0, 3) {
        0 => runner.gen_range_usize(0, 1000) as f64,
        1 => (runner.next_u64() as i64 as f64) / 1024.0,
        // Arbitrary bits; non-finite values have no JSON form.
        _ => Some(f64::from_bits(runner.next_u64())).filter(|n| n.is_finite()).unwrap_or(0.5),
    }
}

/// Random values nested at most `depth` levels deep.
struct Values {
    depth: usize,
}

impl Strategy for Values {
    type Value = Value;

    fn generate(&self, runner: &mut TestRunner) -> Value {
        let kinds = if self.depth == 0 { 4 } else { 6 };
        match runner.gen_range_usize(0, kinds) {
            0 => Value::Null,
            1 => Value::Bool(runner.next_u64() & 1 == 1),
            2 => Value::Num(random_number(runner)),
            3 => Value::Str(random_string(runner)),
            4 => {
                let inner = Values { depth: self.depth - 1 };
                let len = runner.gen_range_usize(0, 5);
                Value::Arr((0..len).map(|_| inner.generate(runner)).collect())
            }
            _ => {
                let inner = Values { depth: self.depth - 1 };
                let len = runner.gen_range_usize(0, 5);
                Value::Obj(
                    (0..len).map(|_| (random_string(runner), inner.generate(runner))).collect(),
                )
            }
        }
    }
}

struct Strings;

impl Strategy for Strings {
    type Value = String;

    fn generate(&self, runner: &mut TestRunner) -> String {
        random_string(runner)
    }
}

/// Quote `s` the way an `ensure_ascii` encoder does: every non-ASCII
/// scalar as `\uXXXX`, astral ones as a UTF-16 surrogate pair.
fn ascii_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            ' '..='~' => out.push(c),
            _ => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compact_rendering_parses_back(v in Values { depth: 4 }) {
        prop_assert_eq!(parse(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn pretty_rendering_parses_back(v in Values { depth: 4 }) {
        prop_assert_eq!(parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn rendering_is_a_fixed_point_of_parse(v in Values { depth: 3 }) {
        let once = v.to_compact();
        prop_assert_eq!(parse(&once).unwrap().to_compact(), once);
    }

    #[test]
    fn ascii_escaped_strings_decode_to_the_original(s in Strings) {
        prop_assert_eq!(parse(&ascii_escaped(&s)).unwrap(), Value::Str(s));
    }
}

#[test]
fn a_four_mib_string_parses_to_itself() {
    let chunk = "Read2 ⊑ Write \"quoted\" 🦀\n\t\u{01}";
    let s = chunk.repeat((4 << 20) / chunk.len() + 1);
    assert!(s.len() >= 4 << 20);
    let text = Value::Str(s.clone()).to_compact();
    assert_eq!(parse(&text).unwrap(), Value::Str(s));
}

/// A `load_spec` request the size of a gossip N=100 document (about
/// 130 KB), shaped like one: a universe block and many short specs.
#[test]
fn a_gossip_sized_load_spec_line_parses_to_the_request() {
    let mut source = String::from("// family=gossip objects=100 salt=\"\"\nuniverse {\n");
    for i in 0..100 {
        source.push_str(&format!("  object o{i};\n"));
    }
    source.push_str("}\n");
    for i in 0..200 {
        let (a, b, m) = (i % 100, (i + 1) % 100, 2 * (i % 4));
        source.push_str(&format!("\n// edge {i}: o{a} -> o{b} via m{m}/m{}\n", m + 1));
        for (role, obj, ack) in [("Proto", a, ""), ("Caller", a, "ack"), ("Callee", b, "ack")] {
            let ack_event =
                if ack.is_empty() { String::new() } else { format!(" <o{obj}, mon, ack>") };
            source.push_str(&format!(
                "spec {role}{i} {{\n  objects {{ o{obj} }}\n  alphabet {{ <Env, o{obj}, req>; \
                 <o{a}, o{b}, m{m}>; <o{a}, o{b}, m{}>;{ack_event} }}\n  traces prs ( \
                 <o{a}, o{b}, m{m}> <o{a}, o{b}, m{}>{ack_event} )*;\n}}\n",
                m + 1,
                m + 1,
            ));
        }
    }
    assert!(source.len() > 100_000, "{} bytes", source.len());
    let request = ObjBuilder::new()
        .field("op", "load_spec")
        .field("name", "gossip-n100")
        .field("source", source)
        .build();
    let line = request.to_compact();
    assert!(!line.contains('\n'), "one request is one line");
    assert_eq!(parse(&line).unwrap(), request);
}
