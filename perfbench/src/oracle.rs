//! References the checker does not produce: the generated manifest,
//! compared with verdicts, serve responses and diagnostics.

use pospec_alphabet::{display_event, Universe};
use pospec_core::{FailedCondition, Verdict};
use pospec_gen::{ExpectRefine, LintSite, Manifest, RefinementEntry};
use pospec_json::Value;
use std::collections::BTreeMap;

/// Corrupt one expected answer of each kind (`--doctor`): the first
/// refinement's expectation flips and a lint site no document has is
/// added.  A run against the doctored manifest must fail.
pub fn doctor(m: &mut Manifest) {
    if let Some(e) = m.refinements.first_mut() {
        e.expect = if e.expect.holds() { ExpectRefine::FailsAlphabet } else { ExpectRefine::Holds };
    }
    m.lint.push(LintSite { code: "P021", subject: "NoSuchSpec".to_string() });
}

/// Does an engine verdict equal the manifest's expectation, including
/// the exact flag and the counterexample?
pub fn verdict_matches(u: &Universe, expect: &ExpectRefine, got: &Verdict) -> bool {
    match (expect, got) {
        (ExpectRefine::Holds, Verdict::Holds { exact }) => *exact,
        (
            ExpectRefine::FailsObjects,
            Verdict::Fails { reason: FailedCondition::Objects, counterexample: None },
        ) => true,
        (
            ExpectRefine::FailsAlphabet,
            Verdict::Fails { reason: FailedCondition::Alphabet, counterexample: None },
        ) => true,
        (
            ExpectRefine::FailsTraces { counterexample },
            Verdict::Fails { reason: FailedCondition::Traces, counterexample: Some(t) },
        ) => {
            t.len() == counterexample.len()
                && t.iter().zip(counterexample).all(|(e, s)| display_event(u, e).to_string() == *s)
        }
        _ => false,
    }
}

/// Does a serve verdict object (`check` result, `batch_check` row)
/// match the manifest entry?
pub fn verdict_json_matches(entry: &RefinementEntry, v: &Value) -> bool {
    let str_field = |k: &str| v.get(k).and_then(Value::as_str);
    if str_field("concrete") != Some(entry.concrete.as_str())
        || str_field("abstract") != Some(entry.abstract_.as_str())
    {
        return false;
    }
    let holds = v.get("holds").and_then(Value::as_bool);
    match &entry.expect {
        ExpectRefine::Holds => {
            holds == Some(true) && v.get("exact").and_then(Value::as_bool) == Some(true)
        }
        ExpectRefine::FailsObjects => {
            holds == Some(false) && str_field("reason") == Some("objects")
        }
        ExpectRefine::FailsAlphabet => {
            holds == Some(false) && str_field("reason") == Some("alphabet")
        }
        ExpectRefine::FailsTraces { counterexample } => {
            let shown =
                if counterexample.is_empty() { "ε".to_string() } else { counterexample.join(" ") };
            holds == Some(false)
                && str_field("reason") == Some("traces")
                && str_field("counterexample") == Some(shown.as_str())
        }
    }
}

/// Compare diagnostics, as `(code, message)` pairs, with the manifest's
/// lint sites: the same total, and per `(code, subject)` exactly as many
/// diagnostics of that code naming `` `subject` `` as the manifest lists.
pub fn lint_matches(expected: &[LintSite], got: &[(String, String)]) -> Result<(), String> {
    if got.len() != expected.len() {
        return Err(format!("{} diagnostics, manifest lists {}", got.len(), expected.len()));
    }
    let mut want: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for site in expected {
        *want.entry((site.code, site.subject.as_str())).or_default() += 1;
    }
    for ((code, subject), count) in want {
        let needle = format!("`{subject}`");
        let n = got.iter().filter(|(c, m)| c == code && m.contains(&needle)).count();
        if n != count {
            return Err(format!("{n}× {code} naming `{subject}`, manifest lists {count}"));
        }
    }
    Ok(())
}

/// `(code, message)` of every diagnostic in a JSON array of lint or LSP
/// diagnostics.
pub fn json_diagnostics(diags: Option<&Value>) -> Vec<(String, String)> {
    diags
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|d| {
            let s = |k: &str| d.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            (s("code"), s("message"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_multiset_is_exact() {
        let sites = vec![
            LintSite { code: "P021", subject: "A".into() },
            LintSite { code: "P021", subject: "A".into() },
        ];
        let d = |c: &str, m: &str| (c.to_string(), m.to_string());
        assert!(lint_matches(&sites, &[d("P021", "x `A` y"), d("P021", "`A`")]).is_ok());
        assert!(lint_matches(&sites, &[d("P021", "`A`")]).is_err());
        assert!(lint_matches(&sites, &[d("P021", "`A`"), d("P020", "`A`")]).is_err());
    }
}
