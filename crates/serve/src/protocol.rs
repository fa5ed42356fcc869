//! The newline-delimited JSON wire protocol.
//!
//! One JSON object per line in each direction.  A request is an object
//! with an `"op"` field naming the operation, operation-specific
//! parameters, and two optional generic fields:
//!
//! * `"id"` — any JSON value, echoed back verbatim in the response so
//!   clients can match pipelined requests to responses;
//! * `"deadline_ms"` — a queue-wait bound: a request still waiting for
//!   a worker when its deadline expires is answered with a `deadline`
//!   error instead of being executed.
//!
//! Responses are `{"id":…,"ok":true,"op":…,"result":{…}}` on success
//! and `{"id":…,"ok":false,"error":{"kind":…,"message":…}}` on failure.
//! Error kinds are a closed vocabulary: `bad_request` (malformed or
//! unknown op/fields), `parse` (ill-formed `.pos` source), `not_found`
//! (unregistered document or spec), `overloaded` (bounded queue full),
//! `deadline` (expired in queue), `shutting_down`, and `internal`.

use pospec_json::{ObjBuilder, Value};
use std::io::Write;

/// Default predicate-trie depth for `check`/`batch_check`, matching the
/// CLI's `--depth` default.
pub const DEFAULT_DEPTH: usize = 6;

/// Upper bound on `ping` delays, so the op stays a harmless diagnostic
/// and cannot park a worker indefinitely.
pub const MAX_PING_DELAY_MS: u64 = 10_000;

/// A decoded operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Elaborate `source` and register it under `name`.
    LoadSpec {
        /// Registry name.
        name: String,
        /// `.pos` source text.
        source: String,
    },
    /// Refinement `concrete ⊑ abstract` between two specs of `doc`.
    Check {
        /// Registered document name.
        doc: String,
        /// Concrete (refining) spec name.
        concrete: String,
        /// Abstract (refined) spec name.
        abstract_: String,
        /// Predicate-trie depth.
        depth: usize,
    },
    /// Def. 11 composition of two specs of `doc`.
    Compose {
        /// Registered document name.
        doc: String,
        /// Left operand spec name.
        left: String,
        /// Right operand spec name.
        right: String,
        /// Also report observable deadlock (`T = {ε}`)?
        deadlock: bool,
    },
    /// Many refinement queries over `doc`, fanned across the check
    /// worker threads.
    BatchCheck {
        /// Registered document name.
        doc: String,
        /// `(concrete, abstract)` spec-name pairs.
        pairs: Vec<(String, String)>,
        /// Predicate-trie depth.
        depth: usize,
    },
    /// Run the static analyzer (`pospec-lint`) over a registered
    /// document's stored source or over inline source text.
    Lint {
        /// Registered document name (exactly one of `doc`/`source`).
        doc: Option<String>,
        /// Inline `.pos` source text (exactly one of `doc`/`source`).
        source: Option<String>,
        /// Predicate-trie depth for the automaton passes.
        depth: usize,
        /// Promote warnings to errors in the report.
        deny_warnings: bool,
    },
    /// Liveness/diagnostic no-op; `delay_ms` parks a worker, which the
    /// tests use to saturate the bounded queue deterministically.
    Ping {
        /// Artificial service time in milliseconds (clamped).
        delay_ms: u64,
    },
    /// Metrics snapshot (handled inline, never queued — stats must
    /// answer even when the service is overloaded).
    Stats,
    /// Drop all cache entries (counters survive).
    ClearCache,
    /// Stop accepting work, drain in-flight requests, exit.
    Shutdown,
}

impl Request {
    /// The wire name of this operation.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::LoadSpec { .. } => "load_spec",
            Request::Check { .. } => "check",
            Request::Compose { .. } => "compose",
            Request::BatchCheck { .. } => "batch_check",
            Request::Lint { .. } => "lint",
            Request::Ping { .. } => "ping",
            Request::Stats => "stats",
            Request::ClearCache => "clear_cache",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A decoded request line: the operation plus its generic fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client correlation id, echoed back verbatim.
    pub id: Option<Value>,
    /// Queue-wait deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// The operation.
    pub req: Request,
}

/// A protocol-level rejection (before any work happens).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Error kind (`bad_request` unless noted otherwise).
    pub kind: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl ProtoError {
    fn bad(message: impl Into<String>) -> ProtoError {
        ProtoError { kind: "bad_request", message: message.into() }
    }
}

fn str_field(v: &Value, key: &str) -> Result<String, ProtoError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| ProtoError::bad(format!("missing or non-string field `{key}`")))
}

fn depth_field(v: &Value) -> Result<usize, ProtoError> {
    match v.get("depth") {
        None => Ok(DEFAULT_DEPTH),
        Some(d) => d
            .as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| ProtoError::bad("field `depth` must be a non-negative integer")),
    }
}

/// Send `v` as one line in a single `write_all`.  Both ends set
/// `TCP_NODELAY` on unbuffered sockets, so every separate write would
/// go out as its own segment.
pub(crate) fn write_line(w: &mut impl Write, v: &Value) -> std::io::Result<()> {
    let mut line = v.to_compact();
    line.push('\n');
    w.write_all(line.as_bytes())
}

/// Decode one request line.
pub fn parse_request(line: &str) -> Result<Envelope, ProtoError> {
    let v = pospec_json::parse(line)
        .map_err(|e| ProtoError { kind: "bad_request", message: format!("invalid JSON: {e}") })?;
    let id = v.get("id").cloned();
    let deadline_ms = match v.get("deadline_ms") {
        None => None,
        Some(d) => Some(d.as_u64().ok_or_else(|| {
            ProtoError::bad("field `deadline_ms` must be a non-negative integer")
        })?),
    };
    let op = str_field(&v, "op")?;
    let req = match op.as_str() {
        "load_spec" => {
            Request::LoadSpec { name: str_field(&v, "name")?, source: str_field(&v, "source")? }
        }
        "check" => Request::Check {
            doc: str_field(&v, "doc")?,
            concrete: str_field(&v, "concrete")?,
            abstract_: str_field(&v, "abstract")?,
            depth: depth_field(&v)?,
        },
        "compose" => Request::Compose {
            doc: str_field(&v, "doc")?,
            left: str_field(&v, "left")?,
            right: str_field(&v, "right")?,
            deadlock: v.get("deadlock").and_then(Value::as_bool).unwrap_or(false),
        },
        "batch_check" => {
            let pairs = v
                .get("pairs")
                .and_then(Value::as_arr)
                .ok_or_else(|| ProtoError::bad("missing or non-array field `pairs`"))?
                .iter()
                .map(|p| match p.as_arr() {
                    Some([c, a]) => match (c.as_str(), a.as_str()) {
                        (Some(c), Some(a)) => Ok((c.to_string(), a.to_string())),
                        _ => Err(ProtoError::bad("each pair must hold two spec names")),
                    },
                    _ => Err(ProtoError::bad(
                        "field `pairs` must be an array of [concrete, abstract] pairs",
                    )),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Request::BatchCheck { doc: str_field(&v, "doc")?, pairs, depth: depth_field(&v)? }
        }
        "lint" => {
            let doc = v.get("doc").and_then(Value::as_str).map(str::to_string);
            let source = v.get("source").and_then(Value::as_str).map(str::to_string);
            if doc.is_some() == source.is_some() {
                return Err(ProtoError::bad("lint needs exactly one of `doc` or `source`"));
            }
            Request::Lint {
                doc,
                source,
                depth: depth_field(&v)?,
                deny_warnings: v.get("deny_warnings").and_then(Value::as_bool).unwrap_or(false),
            }
        }
        "ping" => Request::Ping {
            delay_ms: v
                .get("delay_ms")
                .map(|d| {
                    d.as_u64().ok_or_else(|| {
                        ProtoError::bad("field `delay_ms` must be a non-negative integer")
                    })
                })
                .transpose()?
                .unwrap_or(0)
                .min(MAX_PING_DELAY_MS),
        },
        "stats" => Request::Stats,
        "clear_cache" => Request::ClearCache,
        "shutdown" => Request::Shutdown,
        other => return Err(ProtoError::bad(format!("unknown op `{other}`"))),
    };
    Ok(Envelope { id, deadline_ms, req })
}

/// A success response line.
pub fn ok_response(id: Option<&Value>, op: &str, result: Value) -> Value {
    let mut b = ObjBuilder::new();
    if let Some(id) = id {
        b = b.field("id", id.clone());
    }
    b.field("ok", true).field("op", op).field("result", result).build()
}

/// An error response line.
pub fn error_response(id: Option<&Value>, kind: &str, message: &str) -> Value {
    let mut b = ObjBuilder::new();
    if let Some(id) = id {
        b = b.field("id", id.clone());
    }
    b.field("ok", false)
        .field("error", ObjBuilder::new().field("kind", kind).field("message", message).build())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_request_round_trips() {
        let e = parse_request(
            r#"{"id":7,"op":"check","doc":"rw","concrete":"WriteAcc","abstract":"Write","depth":4,"deadline_ms":250}"#,
        )
        .expect("well-formed");
        assert_eq!(e.id, Some(Value::Num(7.0)));
        assert_eq!(e.deadline_ms, Some(250));
        assert_eq!(
            e.req,
            Request::Check {
                doc: "rw".into(),
                concrete: "WriteAcc".into(),
                abstract_: "Write".into(),
                depth: 4
            }
        );
        assert_eq!(e.req.kind(), "check");
    }

    #[test]
    fn batch_pairs_and_defaults() {
        let e = parse_request(r#"{"op":"batch_check","doc":"rw","pairs":[["A","B"],["B","A"]]}"#)
            .expect("well-formed");
        match e.req {
            Request::BatchCheck { pairs, depth, .. } => {
                assert_eq!(pairs, vec![("A".into(), "B".into()), ("B".into(), "A".into())]);
                assert_eq!(depth, DEFAULT_DEPTH);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn rejections_name_the_problem() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"check","doc":"d"}"#, "concrete"),
            (r#"{"op":"check","doc":"d","concrete":"a","abstract":"b","depth":-1}"#, "depth"),
            (r#"{"op":"batch_check","doc":"d","pairs":[["only_one"]]}"#, "pair"),
            (r#"{"op":"ping","delay_ms":"soon"}"#, "delay_ms"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert_eq!(err.kind, "bad_request", "{line}");
            assert!(err.message.contains(needle), "{line}: {}", err.message);
        }
    }

    #[test]
    fn lint_request_accepts_doc_or_source_but_not_both() {
        let e = parse_request(r#"{"op":"lint","doc":"rw","deny_warnings":true}"#).expect("doc");
        assert_eq!(
            e.req,
            Request::Lint {
                doc: Some("rw".into()),
                source: None,
                depth: DEFAULT_DEPTH,
                deny_warnings: true
            }
        );
        assert_eq!(e.req.kind(), "lint");
        let e = parse_request(r#"{"op":"lint","source":"universe { }","depth":3}"#).expect("src");
        assert_eq!(
            e.req,
            Request::Lint {
                doc: None,
                source: Some("universe { }".into()),
                depth: 3,
                deny_warnings: false
            }
        );
        for line in [r#"{"op":"lint"}"#, r#"{"op":"lint","doc":"rw","source":"x"}"#] {
            let err = parse_request(line).expect_err(line);
            assert!(err.message.contains("exactly one"), "{line}: {}", err.message);
        }
    }

    #[test]
    fn ping_delay_is_clamped() {
        let e = parse_request(r#"{"op":"ping","delay_ms":99999999}"#).expect("well-formed");
        assert_eq!(e.req, Request::Ping { delay_ms: MAX_PING_DELAY_MS });
    }

    #[test]
    fn responses_echo_the_id() {
        let id = Value::Str("req-1".into());
        let ok = ok_response(Some(&id), "stats", ObjBuilder::new().build());
        assert_eq!(ok.get("id"), Some(&id));
        assert_eq!(ok.get("ok"), Some(&Value::Bool(true)));
        let err = error_response(None, "overloaded", "queue full");
        assert_eq!(err.get("id"), None);
        assert_eq!(
            err.get("error").and_then(|e| e.get("kind")).and_then(Value::as_str),
            Some("overloaded")
        );
    }
}
