#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! Crash-safe on-disk persistence for the automaton cache.
//!
//! A [`PersistentStore`] is a directory of JSON files, one minimized
//! [`ConcreteDfa`] per file, addressed by a **content hash** of the
//! cache's structural key (regex AST, alphabet granules, universe
//! fingerprint, predicate-trie depth — the same content that keys the
//! in-memory maps of [`DfaCache`](crate::DfaCache)).  A server that
//! attaches a store writes every freshly built automaton *through* to
//! disk, so even a `kill -9` loses nothing that was ever built, and a
//! restarted process comes up warm.
//!
//! Safety over freshness, always:
//!
//! * files are written **atomically** (a unique temp file in the same
//!   directory, then `rename`), so a crash mid-write leaves at worst an
//!   ignored `.tmp` orphan, never a half-written entry;
//! * every file is validated on load: unparseable or truncated JSON,
//!   a wrong `format` version, a structurally invalid automaton, and a
//!   file whose name does not match its embedded key (a hash-collision
//!   overwrite, or a file copied under the wrong name) are each
//!   **skipped and counted** — never served;
//! * an entry is only handed out on an exact canonical-key match *and*
//!   an exact enumerated-alphabet match ([`PersistentStore::get`]), so
//!   a stale entry can never influence a verdict.
//!
//! Only content-keyed entries are ever persisted: trace sets containing
//! opaque predicate closures or explicit DFAs are identity-keyed
//! (process-local `Arc` addresses) and stay memory-only.

use pospec_json::{ObjBuilder, Value};
use pospec_regex::ConcreteDfa;
use pospec_trace::{Arg, DataId, Event, MethodId, ObjectId};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// On-disk format version; bump on any incompatible layout change.
/// Entries carrying any other version are skipped at load (and counted),
/// never reinterpreted.
pub const FORMAT_VERSION: u64 = 1;

/// FNV-1a 64-bit: a stable, dependency-free content hash for filenames.
/// Collisions are harmless — the embedded key string is always compared
/// before an entry is trusted.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The file name an entry with canonical key `key` must live under.
fn file_name_for(key: &str) -> String {
    format!("dfa-{:016x}.json", fnv64(key.as_bytes()))
}

/// Counters of one store's lifetime (loads at open, writes since).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Entries validated and loaded at [`PersistentStore::open`].
    pub loaded: u64,
    /// Files skipped: unreadable, truncated, or unparseable.
    pub skipped_corrupt: u64,
    /// Files skipped: parseable but a different `format` version.
    pub skipped_version: u64,
    /// Files skipped or refused: embedded key does not match the file
    /// name (load) or the probe's enumerated alphabet (get).
    pub skipped_key: u64,
    /// Entries written through since open.
    pub writes: u64,
    /// Write attempts that failed at the filesystem (entry stays
    /// memory-only; the store keeps serving).
    pub write_errors: u64,
}

impl PersistStats {
    /// Total files skipped for any reason.
    pub fn skipped(&self) -> u64 {
        self.skipped_corrupt + self.skipped_version + self.skipped_key
    }
}

/// A content-hash-addressed directory of serialized minimized automata.
pub struct PersistentStore {
    dir: PathBuf,
    /// Canonical key → validated automaton, populated eagerly at open
    /// and on every write-through.
    index: Mutex<HashMap<String, Arc<ConcreteDfa>>>,
    temp_counter: AtomicU64,
    loaded: AtomicU64,
    skipped_corrupt: AtomicU64,
    skipped_version: AtomicU64,
    skipped_key: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
}

impl PersistentStore {
    /// Open (creating if needed) the cache directory and eagerly load
    /// every valid entry; invalid files are skipped and counted, never
    /// deleted (they are evidence, and another process may own them).
    pub fn open(dir: impl Into<PathBuf>) -> Result<PersistentStore, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create cache dir `{}`: {e}", dir.display()))?;
        let store = PersistentStore {
            dir: dir.clone(),
            index: Mutex::new(HashMap::new()),
            temp_counter: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            skipped_corrupt: AtomicU64::new(0),
            skipped_version: AtomicU64::new(0),
            skipped_key: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        };
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| format!("cannot read cache dir `{}`: {e}", dir.display()))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue; // temp files and strangers are not entries
            }
            store.load_file(&path);
        }
        Ok(store)
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of entries currently served from memory.
    pub fn len(&self) -> usize {
        self.index.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counter values.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            loaded: self.loaded.load(Ordering::Relaxed),
            skipped_corrupt: self.skipped_corrupt.load(Ordering::Relaxed),
            skipped_version: self.skipped_version.load(Ordering::Relaxed),
            skipped_key: self.skipped_key.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }

    /// Validate one file and admit it to the index, or count why not.
    fn load_file(&self, path: &Path) {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(_) => {
                self.skipped_corrupt.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let (key, dfa) = match decode_entry(&text) {
            Ok(pair) => pair,
            Err(DecodeError::Corrupt(_)) => {
                self.skipped_corrupt.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(DecodeError::Version) => {
                self.skipped_version.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        // The file name is derived from the key; a mismatch means the
        // entry was hashed under a different key (collision overwrite,
        // manual copy) and its content cannot be trusted for this name.
        let expected = file_name_for(&key);
        if path.file_name().and_then(|n| n.to_str()) != Some(expected.as_str()) {
            self.skipped_key.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.loaded.fetch_add(1, Ordering::Relaxed);
        self.index.lock().unwrap_or_else(|e| e.into_inner()).insert(key, Arc::new(dfa));
    }

    /// Look up `key`, additionally demanding that the stored automaton's
    /// alphabet is exactly `sigma` (the probe's enumerated alphabet).
    /// The returned automaton is re-skinned onto the caller's interned
    /// `sigma` `Arc`, so downstream alphabet equality stays a pointer
    /// check.
    pub fn get(&self, key: &str, sigma: &Arc<Vec<Event>>) -> Option<Arc<ConcreteDfa>> {
        let stored = {
            let index = self.index.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(index.get(key)?)
        };
        if **stored.alphabet() != **sigma {
            // Same canonical key, different enumeration: never trust it.
            self.skipped_key.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        match ConcreteDfa::from_parts(
            Arc::clone(sigma),
            stored.rows().to_vec(),
            stored.accepting_mask().to_vec(),
            stored.start_state(),
        ) {
            Ok(dfa) => Some(Arc::new(dfa)),
            Err(_) => {
                self.skipped_key.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Write `dfa` through under `key`: temp file + rename, so readers
    /// (and crashes) never observe a partial entry.  Filesystem errors
    /// are counted and swallowed — persistence is an optimization, the
    /// in-memory entry is already live.
    pub fn put(&self, key: &str, dfa: &Arc<ConcreteDfa>) {
        self.index
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key.to_string(), Arc::clone(dfa));
        let final_path = self.dir.join(file_name_for(key));
        let n = self.temp_counter.fetch_add(1, Ordering::Relaxed);
        let temp_path = self.dir.join(format!("write-{}-{n}.tmp", std::process::id()));
        let body = encode_entry(key, dfa).to_compact();
        let result = std::fs::write(&temp_path, body.as_bytes())
            .and_then(|()| std::fs::rename(&temp_path, &final_path));
        match result {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(&temp_path);
            }
        }
    }
}

/// One event as a JSON array `[caller, callee, method, arg|null]`.
fn event_json(e: &Event) -> Value {
    Value::Arr(vec![
        Value::from(u64::from(e.caller.0)),
        Value::from(u64::from(e.callee.0)),
        Value::from(u64::from(e.method.0)),
        match e.arg {
            Arg::None => Value::Null,
            Arg::Data(d) => Value::from(u64::from(d.0)),
        },
    ])
}

/// Serialise one entry to its file body.
fn encode_entry(key: &str, dfa: &ConcreteDfa) -> Value {
    let alphabet: Vec<Value> = dfa.alphabet().iter().map(event_json).collect();
    let trans: Vec<Value> = dfa
        .rows()
        .iter()
        .map(|row| {
            Value::Arr(
                row.iter()
                    .map(|t| match t {
                        None => Value::Null,
                        Some(s) => Value::from(u64::from(*s)),
                    })
                    .collect(),
            )
        })
        .collect();
    let accepting: Vec<Value> = dfa.accepting_mask().iter().map(|a| Value::Bool(*a)).collect();
    ObjBuilder::new()
        .field("format", FORMAT_VERSION)
        .field("key", key)
        .field("alphabet", Value::Arr(alphabet))
        .field("start", dfa.start_state())
        .field("accepting", Value::Arr(accepting))
        .field("trans", Value::Arr(trans))
        .build()
}

enum DecodeError {
    /// Unreadable, truncated, or structurally invalid.
    Corrupt(String),
    /// Parseable, but a different format version.
    Version,
}

impl DecodeError {
    /// The human-readable reason; read by the corruption tests, carried
    /// everywhere so skip sites stay debuggable.
    #[cfg_attr(not(test), allow(dead_code))]
    fn reason(&self) -> &str {
        match self {
            DecodeError::Corrupt(msg) => msg,
            DecodeError::Version => "unsupported format version",
        }
    }
}

fn corrupt(msg: impl Into<String>) -> DecodeError {
    DecodeError::Corrupt(msg.into())
}

fn u32_field(v: &Value, what: &str) -> Result<u32, DecodeError> {
    let n = v.as_u64().ok_or_else(|| corrupt(format!("{what} must be a non-negative integer")))?;
    u32::try_from(n).map_err(|_| corrupt(format!("{what} out of u32 range")))
}

fn decode_event(v: &Value) -> Result<Event, DecodeError> {
    let parts = v.as_arr().ok_or_else(|| corrupt("event must be an array"))?;
    let [caller, callee, method, arg] = parts else {
        return Err(corrupt("event must have four elements"));
    };
    let arg = match arg {
        Value::Null => Arg::None,
        other => Arg::Data(DataId(u32_field(other, "event arg")?)),
    };
    Event::new(
        ObjectId(u32_field(caller, "event caller")?),
        ObjectId(u32_field(callee, "event callee")?),
        MethodId(u32_field(method, "event method")?),
        arg,
    )
    .map_err(|e| corrupt(e.to_string()))
}

/// Parse and validate one file body back to `(key, automaton)`.
fn decode_entry(text: &str) -> Result<(String, ConcreteDfa), DecodeError> {
    let v = pospec_json::parse(text).map_err(|e| corrupt(e.to_string()))?;
    let format =
        v.get("format").and_then(Value::as_u64).ok_or_else(|| corrupt("missing `format` field"))?;
    if format != FORMAT_VERSION {
        return Err(DecodeError::Version);
    }
    let key = v
        .get("key")
        .and_then(Value::as_str)
        .ok_or_else(|| corrupt("missing `key` field"))?
        .to_string();
    let alphabet = v
        .get("alphabet")
        .and_then(Value::as_arr)
        .ok_or_else(|| corrupt("missing `alphabet` array"))?
        .iter()
        .map(decode_event)
        .collect::<Result<Vec<Event>, DecodeError>>()?;
    let start =
        v.get("start").and_then(Value::as_u64).ok_or_else(|| corrupt("missing `start` field"))?
            as usize;
    let accepting = v
        .get("accepting")
        .and_then(Value::as_arr)
        .ok_or_else(|| corrupt("missing `accepting` array"))?
        .iter()
        .map(|a| a.as_bool().ok_or_else(|| corrupt("accepting entries must be booleans")))
        .collect::<Result<Vec<bool>, DecodeError>>()?;
    let trans = v
        .get("trans")
        .and_then(Value::as_arr)
        .ok_or_else(|| corrupt("missing `trans` array"))?
        .iter()
        .map(|row| {
            row.as_arr()
                .ok_or_else(|| corrupt("transition rows must be arrays"))?
                .iter()
                .map(|t| match t {
                    Value::Null => Ok(None),
                    other => u32_field(other, "transition target").map(Some),
                })
                .collect::<Result<Vec<Option<u32>>, DecodeError>>()
        })
        .collect::<Result<Vec<Vec<Option<u32>>>, DecodeError>>()?;
    let dfa =
        ConcreteDfa::from_parts(Arc::new(alphabet), trans, accepting, start).map_err(corrupt)?;
    Ok((key, dfa))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pospec-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_dfa() -> (Arc<Vec<Event>>, Arc<ConcreteDfa>) {
        let sigma = Arc::new(vec![
            Event::new(ObjectId(0), ObjectId(1), MethodId(0), Arg::None).unwrap(),
            Event::new(ObjectId(0), ObjectId(1), MethodId(1), Arg::Data(DataId(3))).unwrap(),
        ]);
        // Two states: even/odd number of second-symbol occurrences.
        let dfa = ConcreteDfa::from_parts(
            Arc::clone(&sigma),
            vec![vec![Some(0), Some(1)], vec![Some(1), None]],
            vec![true, false],
            0,
        )
        .unwrap();
        (sigma, Arc::new(dfa))
    }

    #[test]
    fn round_trips_through_disk_and_reskins_the_alphabet() {
        let dir = temp_dir("roundtrip");
        let (sigma, dfa) = sample_dfa();
        {
            let store = PersistentStore::open(&dir).unwrap();
            store.put("k1", &dfa);
            assert_eq!(store.stats().writes, 1);
        }
        let store = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.stats().loaded, 1);
        let got = store.get("k1", &sigma).expect("persisted entry");
        assert!(got.equiv(&dfa), "language must survive the round trip");
        assert!(Arc::ptr_eq(got.alphabet(), &sigma), "alphabet re-skinned onto probe Arc");
        assert!(store.get("other-key", &sigma).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_truncated_and_wrong_version_files_are_skipped_and_counted() {
        let dir = temp_dir("corrupt");
        let (_, dfa) = sample_dfa();
        {
            let store = PersistentStore::open(&dir).unwrap();
            store.put("good", &dfa);
        }
        // Garbage bytes.
        std::fs::write(dir.join(file_name_for("garbage")), b"\x00\xffnot json").unwrap();
        // A truncated copy of a real entry.
        let good = std::fs::read_to_string(dir.join(file_name_for("good"))).unwrap();
        std::fs::write(dir.join(file_name_for("trunc")), &good[..good.len() / 2]).unwrap();
        // A future format version.
        std::fs::write(
            dir.join(file_name_for("future")),
            good.replace("\"format\":1", "\"format\":99"),
        )
        .unwrap();
        // A valid body stored under a name its key does not hash to
        // (the key-collision shape).
        std::fs::write(dir.join("dfa-0000000000000000.json"), &good).unwrap();

        let store = PersistentStore::open(&dir).unwrap();
        let stats = store.stats();
        assert_eq!(stats.loaded, 1, "only the good entry loads");
        assert_eq!(stats.skipped_corrupt, 2, "garbage + truncated");
        assert_eq!(stats.skipped_version, 1);
        assert_eq!(stats.skipped_key, 1);
        assert_eq!(stats.skipped(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deeply_nested_files_are_corrupt_not_a_crash() {
        let dir = temp_dir("nested");
        drop(PersistentStore::open(&dir).unwrap());
        std::fs::write(dir.join(file_name_for("nested")), "[".repeat(500_000)).unwrap();
        let store = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.stats().skipped_corrupt, 1);
        assert_eq!(store.stats().loaded, 0);
        let err = decode_entry(&"{\"a\":".repeat(500_000)).map(|_| ()).unwrap_err();
        assert!(err.reason().contains("nesting"), "got: {}", err.reason());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn alphabet_mismatch_is_refused_and_counted() {
        let dir = temp_dir("alpha");
        let (_, dfa) = sample_dfa();
        let store = PersistentStore::open(&dir).unwrap();
        store.put("k", &dfa);
        let other_sigma =
            Arc::new(vec![Event::new(ObjectId(5), ObjectId(6), MethodId(7), Arg::None).unwrap()]);
        assert!(store.get("k", &other_sigma).is_none());
        assert_eq!(store.stats().skipped_key, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_structure_never_becomes_an_automaton() {
        // An out-of-range transition target must fail validation even
        // though the JSON itself is well-formed.
        let (_, dfa) = sample_dfa();
        let body = encode_entry("k", &dfa).to_compact().replace("[1,null]", "[9,null]");
        let err = decode_entry(&body).map(|_| ()).unwrap_err();
        assert!(err.reason().contains("out-of-range"), "got: {}", err.reason());
    }
}
