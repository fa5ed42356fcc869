//! Locating and editing spec blocks of a generated gossip document.

use pospec_gen::{ExpectRefine, Manifest, SplitMix64};

/// LSP position (line, UTF-16 character) of byte `offset` in `text`.
pub fn position(text: &str, offset: usize) -> (u64, u64) {
    let before = &text[..offset];
    let line = before.matches('\n').count() as u64;
    let line_start = before.rfind('\n').map_or(0, |i| i + 1);
    let character = before[line_start..].encode_utf16().count() as u64;
    (line, character)
}

/// Byte offset of the name in `spec <name> {`.
pub fn spec_name_offset(text: &str, spec: &str) -> Option<usize> {
    text.find(&format!("spec {spec} {{")).map(|i| i + "spec ".len())
}

/// Byte range of the parenthesised body of `traces prs ( … )*;` in the
/// block of `spec`: the offsets of its `(` and of the matching `)`.
pub fn traces_parens(text: &str, spec: &str) -> Option<(usize, usize)> {
    let start = spec_name_offset(text, spec)?;
    let block_end = start + text[start..].find("\n}")?;
    let traces = start + text[start..block_end].find("traces prs (")?;
    let open = traces + "traces prs ".len();
    let close = open + text[open..block_end].find(')')?;
    Some((open, close))
}

/// Specs the edit workloads touch: `Caller_k` of edges whose declared
/// `Caller_k ⊑ Proto_k` holds unmutated.  Up to 16 are taken at even
/// steps through the document from a seeded start, so every seed edits
/// and hovers at the same spread of positions.
pub fn editable_callers(m: &Manifest, seed: u64) -> Vec<String> {
    let names: Vec<String> = m
        .refinements
        .iter()
        .filter(|e| {
            e.declared
                && e.mutation.is_none()
                && e.expect == ExpectRefine::Holds
                && e.concrete.starts_with("Caller")
                && e.abstract_.starts_with("Proto")
        })
        .map(|e| e.concrete.clone())
        .collect();
    let step = (names.len() / 16).max(1);
    let start = (SplitMix64::new(seed).next_u64() % step as u64) as usize;
    names.into_iter().skip(start).step_by(step).take(16).collect()
}

/// A language-preserving edit of `spec`'s trace set: `( X )*` becomes
/// `( X | X )*`.  Returns the edited document.
pub fn duplicate_branch(text: &str, spec: &str) -> Option<String> {
    let (open, close) = traces_parens(text, spec)?;
    let body = &text[open + 1..close];
    Some(format!("{}|{body}{}", &text[..close], &text[close..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_count_utf16() {
        let t = "a—b\ncd";
        assert_eq!(position(t, 0), (0, 0));
        assert_eq!(position(t, "a—".len()), (0, 2));
        assert_eq!(position(t, t.len()), (1, 2));
    }

    #[test]
    fn edits_find_the_spec_block() {
        let t = "spec A {\n  traces prs ( <x> <y> )*;\n}\nspec B {\n  traces prs ( <z> )*;\n}\n";
        let (o, c) = traces_parens(t, "B").unwrap();
        assert_eq!(&t[o..=c], "( <z> )");
        let d = duplicate_branch(t, "A").unwrap();
        assert!(d.contains("( <x> <y> | <x> <y> )*"), "{d}");
    }
}
