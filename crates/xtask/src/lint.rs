//! Repo-specific lint pass over `crates/core` and `crates/runtime`.
//!
//! The rules encode invariants rustc/clippy cannot express for this
//! codebase (see `docs/ARCHITECTURE.md` § Invariants & static analysis):
//!
//! 1. **no-panic** — no `unwrap()` / `expect()` / `panic!` / `assert!`
//!    family / `unreachable!` / `todo!` / `unimplemented!` outside test
//!    code. A panic on a data-plane thread drops every in-flight tuple on
//!    that channel and silently breaks join completeness.
//! 2. **no-index** — no `container[i]` indexing (which panics on
//!    out-of-bounds) in the data-plane files; use `.get()` and handle the
//!    miss.
//! 3. **no-wildcard-match** — `match`es with arms on the protocol message
//!    enums (`InstanceMsg`, `RtMsg`, `SpoutMsg`, `DispatcherMsg`,
//!    `MonitorMsg`, `CollectorMsg`) must not have a `_` arm, so adding a message variant
//!    is a compile error at every handler instead of a silent drop.
//! 4. **missing-docs** — public items in `fastjoin-core` carry doc
//!    comments.
//! 5. **no-channel-unwrap** — in `crates/runtime`, a channel `send`/`recv`
//!    result must never be `unwrap()`ed/`expect()`ed. A disconnected
//!    channel is a *normal* event under supervision (a peer crashed or
//!    shut down first); panicking on it turns one executor's failure into
//!    a cascade. Handle the `Err` (stop the loop, report the failure).
//! 6. **hot-path-alloc** / **hot-path-lookup** / **hot-path-clock** —
//!    functions marked
//!    `#[lint(hot_path)]` (the inert marker from the `lintmarks` crate,
//!    used on trace-emission entry points and on the runtime's per-tuple
//!    functions) must not allocate: no `format!`, `to_string`,
//!    `to_owned`, `String::`/`Vec::` constructors, `vec!`, `Box::new`,
//!    or `collect`. Nor may they look a metric up by name:
//!    `counter_add(`, `gauge_set(`, `histogram_record(` and
//!    `series_record(` walk a string-keyed map on every call — resolve
//!    the metric once per message (`MetricsRegistry::histogram_mut`, or a
//!    plain field folded in at the end) and record through that. Nor
//!    may they read the clock: `now_us(`, `Instant::now(` and
//!    `.elapsed(` cost a vDSO call per tuple for a time that can only be
//!    observed where the tuple's message is — the caller reads the clock
//!    where the message changes hands and passes the stamp down. The
//!    data plane promises no allocator round-trip, no registry lookup and
//!    no clock read per tuple; this rule keeps that promise honest as the
//!    code evolves.
//! 7. **unsafe-code** — `unsafe` appears only in the files of
//!    [`UNSAFE_FILES`] (the store's probe kernel, which calls its AVX2
//!    copy once the CPU feature is detected), and each use there carries a
//!    `// SAFETY:` comment on the same line or the line directly above,
//!    saying why the call is sound. `lint:allow` does not excuse it.
//!
//! Sites that are genuinely unreachable or deliberately fatal are excused
//! with a `// lint:allow(reason)` comment on the same line or the line
//! directly above. Test code (`#[cfg(test)]` items and `#[test]` fns) is
//! skipped entirely.
//!
//! There is no `syn` available in the offline build environment, so this
//! is a hand-rolled scanner: a masking lexer blanks out comments, strings,
//! and char literals (preserving line structure), and the rules run over
//! the masked text. That is precise enough for every construct in this
//! repo and keeps the pass dependency-free.

use std::fmt;
use std::path::{Path, PathBuf};

/// Message enums whose `match`es must stay wildcard-free (rule 3).
const PROTOCOL_ENUMS: &[&str] =
    &["InstanceMsg", "RtMsg", "SpoutMsg", "DispatcherMsg", "MonitorMsg", "CollectorMsg"];

/// Files on the tuple hot path where indexing must go through `.get()`
/// (rule 2). Paths are relative to the repo root.
const DATA_PLANE_FILES: &[&str] = &[
    "crates/core/src/instance.rs",
    "crates/core/src/state.rs",
    "crates/core/src/dispatcher.rs",
    "crates/core/src/window.rs",
    "crates/core/src/hash.rs",
    "crates/core/src/routing.rs",
    "crates/core/src/partition.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/sequencer.rs",
    "crates/core/src/stage.rs",
    "crates/runtime/src/msg.rs",
    "crates/runtime/src/topology/mod.rs",
    "crates/runtime/src/topology/dispatch.rs",
    "crates/runtime/src/topology/instance.rs",
];

/// The only files where `unsafe` may appear (rule 7). Paths are relative
/// to the repo root.
const UNSAFE_FILES: &[&str] = &["crates/core/src/state.rs"];

/// One lint finding, printed as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line of the finding.
    pub line: usize,
    /// Short rule identifier (`no-panic`, `no-index`, ...).
    pub rule: &'static str,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// Per-line facts produced by the masking lexer.
struct MaskedSource {
    /// Source text with comment/string/char contents replaced by spaces;
    /// newlines preserved so byte offsets map to the same lines.
    masked: String,
    /// Lines (1-based) carrying a `// lint:allow(reason)` annotation.
    allow_lines: Vec<usize>,
    /// Lines (1-based) carrying a `// SAFETY:` comment.
    safety_lines: Vec<usize>,
    /// Lines that are doc comments (`///` or `//!`).
    doc_lines: Vec<usize>,
}

/// Blanks comments, string literals, and char literals while recording
/// `lint:allow` annotations, `SAFETY:` comments and doc-comment lines.
fn mask_source(src: &str) -> MaskedSource {
    let bytes = src.as_bytes();
    let mut masked = Vec::with_capacity(bytes.len());
    let mut allow_lines = Vec::new();
    let mut safety_lines = Vec::new();
    let mut doc_lines = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Pushes a blank (or the original byte for newlines) into the mask.
    fn blank(out: &mut Vec<u8>, b: u8) {
        out.push(if b == b'\n' { b'\n' } else { b' ' });
    }

    while i < bytes.len() {
        let b = bytes[i];
        let rest = &src[i..];
        if b == b'\n' {
            line += 1;
            masked.push(b);
            i += 1;
        } else if rest.starts_with("//") {
            // Line comment (incl. doc comments). Scan to end of line.
            let end = rest.find('\n').map_or(bytes.len(), |p| i + p);
            let text = &src[i..end];
            if text.starts_with("///") || text.starts_with("//!") {
                doc_lines.push(line);
            }
            if text.contains("lint:allow(") {
                allow_lines.push(line);
            }
            if text.contains("SAFETY:") {
                safety_lines.push(line);
            }
            for &c in &bytes[i..end] {
                blank(&mut masked, c);
            }
            i = end;
        } else if rest.starts_with("/*") {
            // Block comment, possibly nested; may span lines.
            if rest.starts_with("/**") || rest.starts_with("/*!") {
                doc_lines.push(line);
            }
            let mut depth = 0usize;
            let mut j = i;
            while j < bytes.len() {
                let r = &src[j..];
                if r.starts_with("/*") {
                    depth += 1;
                    blank(&mut masked, bytes[j]);
                    blank(&mut masked, bytes[j + 1]);
                    j += 2;
                } else if r.starts_with("*/") {
                    depth -= 1;
                    blank(&mut masked, bytes[j]);
                    blank(&mut masked, bytes[j + 1]);
                    j += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if bytes[j] == b'\n' {
                        line += 1;
                    }
                    blank(&mut masked, bytes[j]);
                    j += 1;
                }
            }
            if src[i..j].contains("lint:allow(") {
                allow_lines.push(line);
            }
            i = j;
        } else if b == b'"' || (b == b'r' && (rest.starts_with("r\"") || rest.starts_with("r#"))) {
            // String literal (plain, raw, or raw with hashes). Keep the
            // delimiters, blank the contents.
            let (open_len, hashes) = if b == b'"' {
                (1, 0)
            } else {
                let h = rest[1..].bytes().take_while(|&c| c == b'#').count();
                (1 + h + 1, h)
            };
            for &c in &bytes[i..i + open_len] {
                masked.push(c);
            }
            let mut j = i + open_len;
            loop {
                if j >= bytes.len() {
                    break;
                }
                let c = bytes[j];
                if hashes == 0 && c == b'\\' {
                    blank(&mut masked, c);
                    if j + 1 < bytes.len() {
                        if bytes[j + 1] == b'\n' {
                            line += 1;
                        }
                        blank(&mut masked, bytes[j + 1]);
                    }
                    j += 2;
                    continue;
                }
                if c == b'"' {
                    let close = &src[j + 1..];
                    let close_hashes = close.bytes().take_while(|&x| x == b'#').count();
                    if close_hashes >= hashes {
                        masked.push(b'"');
                        masked.extend(std::iter::repeat_n(b'#', hashes));
                        j += 1 + hashes;
                        break;
                    }
                }
                if c == b'\n' {
                    line += 1;
                }
                blank(&mut masked, c);
                j += 1;
            }
            i = j;
        } else if b == b'\'' {
            // Char literal vs lifetime. A char literal is 'x' or '\..'.
            let is_char = match bytes.get(i + 1) {
                Some(b'\\') => true,
                Some(_) => bytes.get(i + 2) == Some(&b'\''),
                None => false,
            };
            if is_char {
                masked.push(b'\'');
                let mut j = i + 1;
                if bytes[j] == b'\\' {
                    blank(&mut masked, bytes[j]);
                    j += 1;
                }
                while j < bytes.len() && bytes[j] != b'\'' {
                    blank(&mut masked, bytes[j]);
                    j += 1;
                }
                if j < bytes.len() {
                    masked.push(b'\'');
                    j += 1;
                }
                i = j;
            } else {
                masked.push(b);
                i += 1;
            }
        } else {
            masked.push(b);
            i += 1;
        }
    }

    MaskedSource {
        masked: String::from_utf8(masked).unwrap_or_default(),
        allow_lines,
        safety_lines,
        doc_lines,
    }
}

/// Returns, for each line (1-based), whether it is inside test code: a
/// `#[cfg(test)]` item or a `#[test]` function.
fn test_line_mask(masked: &str) -> Vec<bool> {
    let line_count = masked.lines().count() + 2;
    let mut in_test = vec![false; line_count + 1];
    let lines: Vec<&str> = masked.lines().collect();
    let mut li = 0usize;
    while li < lines.len() {
        let t = lines[li].trim_start();
        if t.starts_with("#[cfg(test)]") || t.starts_with("#[test]") {
            // Skip further attributes, then mark the item through its
            // closing brace (or terminating semicolon for `mod x;`).
            let mut j = li;
            let mut depth = 0i64;
            let mut opened = false;
            while j < lines.len() {
                for ch in lines[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        ';' if !opened && depth == 0 => {
                            opened = true; // `mod x;` — single line item
                            depth = 0;
                        }
                        _ => {}
                    }
                }
                in_test[j + 1] = true;
                if opened && depth == 0 {
                    break;
                }
                j += 1;
            }
            li = j + 1;
        } else {
            li += 1;
        }
    }
    in_test
}

/// True if `line` (1-based) is excused by a `lint:allow` annotation on the
/// same line or the line directly above.
fn allowed(allow_lines: &[usize], line: usize) -> bool {
    allow_lines.contains(&line) || (line > 0 && allow_lines.contains(&(line - 1)))
}

/// Word-boundary check: `text[pos]` starts a token (preceding char is not
/// an identifier char).
fn boundary_before(text: &str, pos: usize) -> bool {
    pos == 0
        || !text.as_bytes()[pos - 1].is_ascii_alphanumeric() && text.as_bytes()[pos - 1] != b'_'
}

/// Rule 1: panic-family calls outside test code.
fn check_no_panic(file: &str, src: &MaskedSource, in_test: &[bool], out: &mut Vec<Diagnostic>) {
    const NEEDLES: &[(&str, &str)] = &[
        (".unwrap()", "unwrap() panics on None/Err; return the error or annotate"),
        (".expect(", "expect() panics; return the error or annotate"),
        ("panic!", "panic! on a data-plane path drops in-flight tuples"),
        ("unreachable!", "unreachable! must be justified with lint:allow"),
        ("todo!", "todo! left in non-test code"),
        ("unimplemented!", "unimplemented! left in non-test code"),
        ("assert!", "assert! panics; make it a checked error or annotate"),
        ("assert_eq!", "assert_eq! panics; make it a checked error or annotate"),
        ("assert_ne!", "assert_ne! panics; make it a checked error or annotate"),
    ];
    for (lineno, line) in src.masked.lines().enumerate() {
        let lineno = lineno + 1;
        if in_test.get(lineno).copied().unwrap_or(false) || allowed(&src.allow_lines, lineno) {
            continue;
        }
        for (needle, why) in NEEDLES {
            let mut start = 0usize;
            while let Some(p) = line[start..].find(needle) {
                let pos = start + p;
                // `debug_assert!` compiles out in release: not flagged. The
                // boundary check also keeps `assert!` from matching inside
                // `assert_eq!`/`debug_assert!` etc.
                if boundary_before(line, pos) || (needle.starts_with('.') && !needle.is_empty()) {
                    out.push(Diagnostic {
                        file: file.to_string(),
                        line: lineno,
                        rule: "no-panic",
                        msg: format!("`{}`: {}", needle.trim_start_matches('.'), why),
                    });
                    break; // one diagnostic per needle per line
                }
                start = pos + needle.len();
            }
        }
    }
}

/// Rule 2: `container[index]` on data-plane files.
fn check_no_index(file: &str, src: &MaskedSource, in_test: &[bool], out: &mut Vec<Diagnostic>) {
    for (lineno, line) in src.masked.lines().enumerate() {
        let lineno = lineno + 1;
        if in_test.get(lineno).copied().unwrap_or(false) || allowed(&src.allow_lines, lineno) {
            continue;
        }
        let b = line.as_bytes();
        for (i, &c) in b.iter().enumerate() {
            if c != b'[' || i == 0 {
                continue;
            }
            let prev = b[i - 1];
            // `expr[...]` has an identifier char, `)`, or `]` directly
            // before the bracket. Attributes (`#[...]`), macros
            // (`vec![...]`), slices (`&[...]`), and types (`: [T; 2]`)
            // do not.
            if prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']' {
                // Skip empty index `[]` (array type sugar never is) and
                // obvious attribute contexts.
                out.push(Diagnostic {
                    file: file.to_string(),
                    line: lineno,
                    rule: "no-index",
                    msg: "indexing panics out-of-bounds on a data-plane path; use .get()"
                        .to_string(),
                });
                break;
            }
        }
    }
}

/// Rule 3: `match`es with protocol-enum arms must not have a `_` arm.
fn check_no_wildcard_match(
    file: &str,
    src: &MaskedSource,
    in_test: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    let text = &src.masked;
    let bytes = text.as_bytes();
    // Map byte offset -> line number.
    let mut line_of = vec![1usize; bytes.len() + 1];
    let mut l = 1usize;
    for (i, &c) in bytes.iter().enumerate() {
        line_of[i] = l;
        if c == b'\n' {
            l += 1;
        }
    }
    if let Some(last) = line_of.last_mut() {
        *last = l;
    }

    let mut start = 0usize;
    while let Some(p) = text[start..].find("match") {
        let pos = start + p;
        start = pos + 5;
        // Token boundaries on both sides.
        if !boundary_before(text, pos) {
            continue;
        }
        match bytes.get(pos + 5) {
            Some(c) if c.is_ascii_alphanumeric() || *c == b'_' => continue,
            None => continue,
            _ => {}
        }
        let match_line = line_of[pos];
        if in_test.get(match_line).copied().unwrap_or(false) {
            continue;
        }
        // Find the `{` opening the arm block (paren/bracket depth 0).
        let mut i = pos + 5;
        let mut depth = 0i64;
        let open = loop {
            if i >= bytes.len() {
                break None;
            }
            match bytes[i] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => break Some(i),
                b';' if depth == 0 => break None, // not a match expression
                _ => {}
            }
            i += 1;
        };
        let Some(open) = open else { continue };
        // Walk the arm block: collect arm patterns (text before `=>` at
        // depth 1 relative to the block).
        let mut depth = 1i64;
        let mut i = open + 1;
        let mut pat_start = i;
        let mut in_pattern = true;
        let mut has_protocol_arm = false;
        let mut wildcard_line: Option<usize> = None;
        while i < bytes.len() && depth > 0 {
            let c = bytes[i];
            match c {
                b'{' | b'(' | b'[' => depth += 1,
                b'}' | b')' | b']' => {
                    depth -= 1;
                    // End of a block-bodied arm at depth 1: next arm starts.
                    if depth == 1 && !in_pattern {
                        in_pattern = true;
                        pat_start = i + 1;
                    }
                }
                b'=' if depth == 1
                    && in_pattern
                    && bytes.get(i + 1) == Some(&b'>')
                    && i > 0
                    && bytes[i - 1] != b'<'
                    && bytes[i - 1] != b'=' =>
                {
                    let pat = text[pat_start..i].trim();
                    let pat = pat.trim_start_matches(',').trim();
                    if PROTOCOL_ENUMS.iter().any(|e| {
                        pat.find(e).is_some_and(|q| {
                            boundary_before(pat, q)
                                && pat[q + e.len()..].trim_start().starts_with("::")
                        })
                    }) {
                        has_protocol_arm = true;
                    }
                    // Wildcard arm: first token of the pattern is `_`.
                    let first = pat.split(|ch: char| !ch.is_alphanumeric() && ch != '_').next();
                    if first == Some("_") && wildcard_line.is_none() {
                        wildcard_line = Some(line_of[pat_start.min(bytes.len() - 1)]);
                    }
                    in_pattern = false;
                    i += 1; // skip the '>'
                }
                b',' if depth == 1 && !in_pattern => {
                    in_pattern = true;
                    pat_start = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        if has_protocol_arm {
            if let Some(wl) = wildcard_line {
                if !allowed(&src.allow_lines, match_line) && !allowed(&src.allow_lines, wl) {
                    out.push(Diagnostic {
                        file: file.to_string(),
                        line: match_line,
                        rule: "no-wildcard-match",
                        msg: format!(
                            "match on a protocol enum has a `_` arm (line {wl}); \
                             handle every variant so new messages cannot be dropped"
                        ),
                    });
                }
            }
        }
    }
}

/// Rule 5: channel `send`/`recv` results must not be unwrapped in the
/// runtime crate. The scan finds a channel-op call, skips its balanced
/// argument list, and checks whether the very next method in the chain is
/// `unwrap`/`expect` — so `tx.send(x.unwrap())` (an unwrap *inside* the
/// arguments, rule 1's business) is not double-reported, while multi-line
/// chains like `tx.send(x)\n    .unwrap()` are.
fn check_no_channel_unwrap(
    file: &str,
    src: &MaskedSource,
    in_test: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    const CHANNEL_OPS: &[&str] =
        &[".send(", ".try_send(", ".recv(", ".try_recv(", ".recv_timeout(", ".recv_deadline("];
    let text = &src.masked;
    let bytes = text.as_bytes();
    let mut line_of = vec![1usize; bytes.len() + 1];
    let mut l = 1usize;
    for (i, &c) in bytes.iter().enumerate() {
        line_of[i] = l;
        if c == b'\n' {
            l += 1;
        }
    }
    if let Some(last) = line_of.last_mut() {
        *last = l;
    }
    for op in CHANNEL_OPS {
        let mut start = 0usize;
        while let Some(p) = text[start..].find(op) {
            let pos = start + p;
            start = pos + op.len();
            // Skip the balanced argument list of the call.
            let mut depth = 1i64;
            let mut i = pos + op.len();
            while i < bytes.len() && depth > 0 {
                match bytes[i] {
                    b'(' | b'[' | b'{' => depth += 1,
                    b')' | b']' | b'}' => depth -= 1,
                    _ => {}
                }
                i += 1;
            }
            // The next chained method (whitespace/newlines allowed).
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            let rest = &text[i.min(text.len())..];
            if !(rest.starts_with(".unwrap()") || rest.starts_with(".expect(")) {
                continue;
            }
            let lineno = line_of[pos];
            if in_test.get(lineno).copied().unwrap_or(false) || allowed(&src.allow_lines, lineno) {
                continue;
            }
            out.push(Diagnostic {
                file: file.to_string(),
                line: lineno,
                rule: "no-channel-unwrap",
                msg: format!(
                    "`{}...).unwrap()/expect()`: a disconnected channel is a normal \
                     shutdown/crash event under supervision; handle the Err",
                    op
                ),
            });
        }
    }
}

/// Rule 4: public items in `fastjoin-core` must have doc comments.
fn check_missing_docs(file: &str, src: &MaskedSource, in_test: &[bool], out: &mut Vec<Diagnostic>) {
    const ITEM_KEYWORDS: &[&str] =
        &["fn", "struct", "enum", "trait", "type", "const", "static", "mod", "unsafe", "async"];
    let lines: Vec<&str> = src.masked.lines().collect();
    for (idx, raw) in lines.iter().enumerate() {
        let lineno = idx + 1;
        if in_test.get(lineno).copied().unwrap_or(false) || allowed(&src.allow_lines, lineno) {
            continue;
        }
        let t = raw.trim_start();
        let Some(rest) = t.strip_prefix("pub ") else { continue };
        // `pub(crate)` / `pub(super)` are not public API; `pub use`
        // re-exports inherit the original item's docs.
        if t.starts_with("pub(") || rest.trim_start().starts_with("use ") {
            continue;
        }
        let first_word = rest.split_whitespace().next().unwrap_or("");
        if !ITEM_KEYWORDS.contains(&first_word) {
            continue;
        }
        // Walk upward over attributes and blank lines to the nearest
        // meaningful line; it must be a doc comment.
        let mut j = idx;
        let mut documented = false;
        while j > 0 {
            j -= 1;
            let prev_masked = lines[j].trim();
            if prev_masked.is_empty() {
                // Masked-out comment lines are blank here; consult the
                // doc-line record before treating it as a gap.
                if src.doc_lines.contains(&(j + 1)) {
                    documented = true;
                }
                break;
            }
            if prev_masked.starts_with("#[") || prev_masked.starts_with("#!") {
                continue; // attribute — keep walking up
            }
            break;
        }
        if !documented {
            out.push(Diagnostic {
                file: file.to_string(),
                line: lineno,
                rule: "missing-docs",
                msg: format!("public `{first_word}` item has no doc comment"),
            });
        }
    }
}

/// Rule 6: no heap allocation, no by-name registry lookup and no clock
/// read inside `#[lint(hot_path)]` functions.
///
/// The scanner finds each `#[lint(hot_path)]` attribute, brace-matches the
/// body of the function it marks, and flags allocating constructs, by-name
/// metric calls and clock reads inside. `lint:allow` on the offending line
/// (or the line above) excuses a site, as everywhere else.
fn check_hot_path(file: &str, src: &MaskedSource, in_test: &[bool], out: &mut Vec<Diagnostic>) {
    const ALLOC: &str = "hot-path-alloc";
    const LOOKUP: &str = "hot-path-lookup";
    const CLOCK: &str = "hot-path-clock";
    const BY_NAME: &str = "looks the metric up by name; resolve once per message";
    const READS_CLOCK: &str = "reads the clock; take the message's stamp as an argument";
    const NEEDLES: &[(&str, &str, &str)] = &[
        ("format!", ALLOC, "format! allocates a String"),
        (".to_string(", ALLOC, "to_string() allocates"),
        (".to_owned(", ALLOC, "to_owned() allocates"),
        ("String::new", ALLOC, "String constructor allocates on growth"),
        ("String::from", ALLOC, "String::from allocates"),
        ("String::with_capacity", ALLOC, "String::with_capacity allocates"),
        ("vec!", ALLOC, "vec! allocates"),
        ("Vec::new", ALLOC, "Vec constructor allocates on growth"),
        ("Vec::with_capacity", ALLOC, "Vec::with_capacity allocates"),
        ("Box::new", ALLOC, "Box::new allocates"),
        (".collect(", ALLOC, "collect() allocates a container"),
        (".counter_add(", LOOKUP, BY_NAME),
        (".gauge_set(", LOOKUP, BY_NAME),
        (".histogram_record(", LOOKUP, BY_NAME),
        (".series_record(", LOOKUP, BY_NAME),
        ("now_us(", CLOCK, READS_CLOCK),
        ("Instant::now(", CLOCK, READS_CLOCK),
        (".elapsed(", CLOCK, READS_CLOCK),
    ];
    const MARKER: &str = "#[lint(hot_path)]";
    let text = &src.masked;
    let bytes = text.as_bytes();
    let mut line_of = vec![1usize; bytes.len() + 1];
    let mut l = 1usize;
    for (i, &c) in bytes.iter().enumerate() {
        line_of[i] = l;
        if c == b'\n' {
            l += 1;
        }
    }
    if let Some(last) = line_of.last_mut() {
        *last = l;
    }
    let mut start = 0usize;
    while let Some(p) = text[start..].find(MARKER) {
        let pos = start + p;
        start = pos + MARKER.len();
        // The function body: first `{` after the marker (the signature of
        // a marked fn never contains braces in this codebase), matched to
        // its closing brace.
        let Some(open_rel) = text[pos..].find('{') else { continue };
        let open = pos + open_rel;
        let mut depth = 0i64;
        let mut close = open;
        for (j, &c) in bytes.iter().enumerate().skip(open) {
            match c {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        let body_first = line_of[open];
        let body_last = line_of[close];
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            if lineno < body_first || lineno > body_last {
                continue;
            }
            if in_test.get(lineno).copied().unwrap_or(false) || allowed(&src.allow_lines, lineno) {
                continue;
            }
            for (needle, rule, why) in NEEDLES {
                let mut from = 0usize;
                while let Some(q) = line[from..].find(needle) {
                    let at = from + q;
                    if needle.starts_with('.') || boundary_before(line, at) {
                        out.push(Diagnostic {
                            file: file.to_string(),
                            line: lineno,
                            rule,
                            msg: format!(
                                "`{}` inside a #[lint(hot_path)] fn: {}",
                                needle.trim_start_matches('.'),
                                why
                            ),
                        });
                        break; // one diagnostic per needle per line
                    }
                    from = at + needle.len();
                }
            }
        }
    }
}

/// Rule 7: `unsafe` only in [`UNSAFE_FILES`], each use under a
/// `// SAFETY:` comment.
fn check_unsafe(file: &str, src: &MaskedSource, in_test: &[bool], out: &mut Vec<Diagnostic>) {
    let listed = UNSAFE_FILES.contains(&file);
    for (lineno, line) in src.masked.lines().enumerate() {
        let lineno = lineno + 1;
        if in_test.get(lineno).copied().unwrap_or(false) {
            continue;
        }
        // The keyword, not `unsafe_code` or `is_unsafe`.
        let keyword = line.match_indices("unsafe").any(|(pos, word)| {
            let after = line.as_bytes().get(pos + word.len());
            boundary_before(line, pos)
                && !after.is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
        });
        if !keyword {
            continue;
        }
        let msg = if !listed {
            "`unsafe` outside the allow-listed files (UNSAFE_FILES in crates/xtask/src/lint.rs)"
        } else if allowed(&src.safety_lines, lineno) {
            continue;
        } else {
            "`unsafe` needs a `// SAFETY:` comment on the same line or the line above"
        };
        out.push(Diagnostic {
            file: file.to_string(),
            line: lineno,
            rule: "unsafe-code",
            msg: msg.to_string(),
        });
    }
}

/// Lints one file's source text. `repo_rel` is the path relative to the
/// repo root (used to decide which rules apply).
#[must_use]
pub fn lint_source(repo_rel: &str, source: &str) -> Vec<Diagnostic> {
    let masked = mask_source(source);
    let in_test = test_line_mask(&masked.masked);
    let mut out = Vec::new();
    check_no_panic(repo_rel, &masked, &in_test, &mut out);
    if DATA_PLANE_FILES.contains(&repo_rel) {
        check_no_index(repo_rel, &masked, &in_test, &mut out);
    }
    check_no_wildcard_match(repo_rel, &masked, &in_test, &mut out);
    if repo_rel.starts_with("crates/core/") {
        check_missing_docs(repo_rel, &masked, &in_test, &mut out);
    }
    if repo_rel.starts_with("crates/runtime/") {
        check_no_channel_unwrap(repo_rel, &masked, &in_test, &mut out);
    }
    check_hot_path(repo_rel, &masked, &in_test, &mut out);
    check_unsafe(repo_rel, &masked, &in_test, &mut out);
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Recursively collects `.rs` files under `dir`.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the lint pass over `crates/core` and `crates/runtime` under
/// `repo_root`. Returns all diagnostics found.
///
/// # Errors
///
/// Returns an I/O error if a source tree cannot be read.
pub fn lint_repo(repo_root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for tree in ["crates/core/src", "crates/runtime/src"] {
        rs_files(&repo_root.join(tree), &mut files)?;
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let source = std::fs::read_to_string(&path)?;
        let rel =
            path.strip_prefix(repo_root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        out.extend(lint_source(&rel, &source));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn flags_unwrap_and_expect_and_panic() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    let v = x.unwrap();\n    \
                   let w = x.expect(\"boom\");\n    panic!(\"no\");\n}\n";
        let d = lint_source("crates/core/src/fake.rs", src);
        assert_eq!(rules(&d), vec!["no-panic", "no-panic", "no-panic"]);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[1].line, 3);
        assert_eq!(d[2].line, 4);
    }

    #[test]
    fn lint_allow_excuses_same_and_previous_line() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    \
                   x.unwrap() // lint:allow(checked by caller)\n}\n\
                   fn g(x: Option<u32>) -> u32 {\n    \
                   // lint:allow(startup only)\n    x.unwrap()\n}\n";
        assert!(lint_source("crates/core/src/fake.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   Some(1).unwrap();\n    }\n}\n";
        assert!(lint_source("crates/core/src/fake.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_cannot_fake_findings() {
        let src = "fn f() {\n    let s = \"x.unwrap() panic!()\";\n    // x.unwrap()\n    \
                   let _ = s;\n}\n";
        assert!(lint_source("crates/core/src/fake.rs", src).is_empty());
    }

    #[test]
    fn debug_assert_is_not_flagged() {
        let src = "fn f(x: u32) {\n    debug_assert!(x > 0);\n}\n";
        assert!(lint_source("crates/core/src/fake.rs", src).is_empty());
    }

    #[test]
    fn indexing_flagged_only_on_data_plane_files() {
        let src = "fn f(v: &Vec<u32>) -> u32 {\n    v[0]\n}\n";
        let on_plane = lint_source("crates/core/src/state.rs", src);
        assert_eq!(rules(&on_plane), vec!["no-index"]);
        let off_plane = lint_source("crates/core/src/fake.rs", src);
        assert!(off_plane.is_empty());
    }

    #[test]
    fn attributes_macros_and_slices_are_not_indexing() {
        let src = "#[derive(Clone)]\nstruct S;\nfn f() {\n    let v = vec![1, 2];\n    \
                   let s: &[u32] = &v;\n    let a: [u32; 2] = [0, 0];\n    \
                   let _ = (s, a, v.get(0));\n}\n";
        assert!(lint_source("crates/core/src/state.rs", src).is_empty());
    }

    #[test]
    fn wildcard_match_on_protocol_enum_is_flagged() {
        let src = "fn f(m: InstanceMsg) {\n    match m {\n        \
                   InstanceMsg::Data(t) => drop(t),\n        _ => {}\n    }\n}\n";
        let d = lint_source("crates/core/src/fake.rs", src);
        assert_eq!(rules(&d), vec!["no-wildcard-match"]);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn exhaustive_protocol_match_passes() {
        let src = "fn f(m: Side) {\n    match m {\n        Side::R => {}\n        \
                   _ => {}\n    }\n}\n";
        // `Side` is not a protocol enum; wildcard is fine.
        assert!(lint_source("crates/core/src/fake.rs", src).is_empty());
    }

    #[test]
    fn nested_match_wildcard_does_not_leak_outward() {
        let src = "fn f(m: InstanceMsg, x: u32) {\n    match m {\n        \
                   InstanceMsg::Data(t) => match x {\n            0 => drop(t),\n            \
                   _ => {}\n        },\n        InstanceMsg::MigEnd { .. } => {}\n    }\n}\n";
        assert!(
            lint_source("crates/core/src/fake.rs", src).is_empty(),
            "inner wildcard is on a non-protocol match"
        );
    }

    #[test]
    fn missing_docs_flagged_in_core_only() {
        let src = "pub fn undocumented() {}\n";
        let core = lint_source("crates/core/src/fake.rs", src);
        assert_eq!(rules(&core), vec!["missing-docs"]);
        let runtime = lint_source("crates/runtime/src/fake.rs", src);
        assert!(runtime.is_empty());
    }

    #[test]
    fn documented_and_non_public_items_pass() {
        let src = "/// Does the thing.\npub fn documented() {}\n\n\
                   pub(crate) fn internal() {}\n\nfn private() {}\n\n\
                   /// Re-exported elsewhere.\n#[derive(Debug)]\npub struct S;\n";
        assert!(lint_source("crates/core/src/fake.rs", src).is_empty());
    }

    #[test]
    fn channel_unwrap_flagged_in_runtime_only() {
        let src = "fn f(tx: Sender<u32>) {\n    tx.send(1).unwrap();\n}\n";
        let runtime = lint_source("crates/runtime/src/fake.rs", src);
        assert!(rules(&runtime).contains(&"no-channel-unwrap"), "{runtime:?}");
        let core = lint_source("crates/core/src/fake.rs", src);
        assert!(!rules(&core).contains(&"no-channel-unwrap"), "{core:?}");
    }

    #[test]
    fn channel_unwrap_catches_multiline_chains_and_expect_on_recv() {
        let src = "fn f(tx: Sender<u32>, rx: Receiver<u32>) {\n    tx.send(1)\n        \
                   .unwrap();\n    let _ = rx.recv_timeout(d).expect(\"peer gone\");\n}\n";
        let d = lint_source("crates/runtime/src/fake.rs", src);
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "no-channel-unwrap").collect();
        assert_eq!(hits.len(), 2, "{d:?}");
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[1].line, 4);
    }

    #[test]
    fn unwrap_inside_send_arguments_is_not_a_channel_unwrap() {
        let src = "fn f(tx: Sender<u32>, x: Option<u32>) {\n    \
                   let _ = tx.send(x.unwrap());\n}\n";
        let d = lint_source("crates/runtime/src/fake.rs", src);
        // Rule 1 still flags the unwrap; the channel rule must not.
        assert!(!rules(&d).contains(&"no-channel-unwrap"), "{d:?}");
        assert!(rules(&d).contains(&"no-panic"));
    }

    #[test]
    fn channel_unwrap_honors_lint_allow_and_test_code() {
        let src = "fn f(tx: Sender<u32>) {\n    \
                   tx.send(1).unwrap(); // lint:allow(spout holds both ends)\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn g(tx: Sender<u32>) {\n        \
                   tx.send(1).unwrap();\n    }\n}\n";
        let d = lint_source("crates/runtime/src/fake.rs", src);
        assert!(!rules(&d).contains(&"no-channel-unwrap"), "{d:?}");
    }

    #[test]
    fn hot_path_fn_may_not_allocate() {
        let src = "#[lint(hot_path)]\nfn emit(&mut self, n: u64) {\n    \
                   let s = format!(\"{n}\");\n    let v: Vec<u64> = (0..n).collect();\n    \
                   drop((s, v));\n}\n";
        let d = lint_source("crates/core/src/fake.rs", src);
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "hot-path-alloc").collect();
        assert_eq!(hits.len(), 2, "{d:?}");
        assert_eq!(hits[0].line, 3);
        assert_eq!(hits[1].line, 4);
    }

    #[test]
    fn unmarked_fn_may_allocate_and_lint_allow_excuses() {
        let src = "fn cold() -> String {\n    format!(\"fine\")\n}\n\n\
                   #[lint(hot_path)]\nfn emit(&mut self) {\n    \
                   // lint:allow(cold slow path after ring overflow)\n    \
                   let _ = String::new();\n}\n";
        let d = lint_source("crates/core/src/fake.rs", src);
        assert!(!rules(&d).contains(&"hot-path-alloc"), "{d:?}");
    }

    #[test]
    fn hot_path_scan_stops_at_the_marked_fn_body() {
        // The allocation sits in the NEXT function, outside the marked
        // body; it must not be flagged.
        let src = "#[lint(hot_path)]\nfn emit(&mut self, x: u64) {\n    \
                   self.total += x;\n}\n\nfn summarize() -> String {\n    \
                   String::from(\"ok\")\n}\n";
        let d = lint_source("crates/core/src/fake.rs", src);
        assert!(!rules(&d).contains(&"hot-path-alloc"), "{d:?}");
    }

    #[test]
    fn hot_path_fn_may_not_look_metrics_up_by_name() {
        let src = "#[lint(hot_path)]\nfn ingest(&mut self, us: u64) {\n    \
                   self.reg.counter_add(\"tuples\", 1);\n    \
                   self.reg.histogram_record(\"stage.us\", us);\n    \
                   self.reg.gauge_set(\"depth\", 1.0);\n    \
                   self.reg.series_record(\"depth\", 10, us, 1.0);\n}\n";
        let d = lint_source("crates/runtime/src/fake.rs", src);
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "hot-path-lookup").collect();
        assert_eq!(hits.iter().map(|d| d.line).collect::<Vec<_>>(), vec![3, 4, 5, 6], "{d:?}");
        assert!(hits[0].msg.contains("resolve once per message"), "{d:?}");
    }

    #[test]
    fn by_name_lookups_pass_when_excused_resolved_once_or_outside_the_body() {
        // Excused with a reason; a handle resolved once and recorded
        // through; and a by-name call in the NEXT, unmarked function.
        let src = "#[lint(hot_path)]\nfn flush(&mut self, items: &[u64]) {\n    \
                   // lint:allow(once per flush, not per item)\n    \
                   self.reg.counter_add(\"flushes\", 1);\n    \
                   let h = self.reg.histogram_mut(\"stage.us\");\n    \
                   for &us in items {\n        h.record(us);\n    }\n}\n\n\
                   fn finish(&mut self) {\n    self.reg.counter_add(\"tuples\", self.n);\n}\n";
        let d = lint_source("crates/runtime/src/fake.rs", src);
        assert!(!rules(&d).contains(&"hot-path-lookup"), "{d:?}");
    }

    #[test]
    fn hot_path_fn_may_not_read_the_clock() {
        let src = "#[lint(hot_path)]\nfn ingest(&mut self, t: Tuple) {\n    \
                   let now = self.pulse.now_us();\n    \
                   let t0 = Instant::now();\n    \
                   self.enqueue(t, now);\n    \
                   self.spent += t0.elapsed().as_micros() as u64;\n    \
                   self.last = now_us();\n}\n";
        let d = lint_source("crates/runtime/src/fake.rs", src);
        let hits: Vec<_> = d.iter().filter(|d| d.rule == "hot-path-clock").collect();
        assert_eq!(hits.iter().map(|d| d.line).collect::<Vec<_>>(), vec![3, 4, 6, 7], "{d:?}");
        assert!(hits[0].msg.contains("stamp as an argument"), "{d:?}");
    }

    #[test]
    fn clock_reads_pass_when_excused_passed_down_or_outside_the_body() {
        // Excused with a reason; a stamp taken as an argument (the name
        // `now_us` alone is not a read); and the caller, unmarked, reading
        // the clock once for the whole message.
        let src = "#[lint(hot_path)]\nfn ingest(&mut self, t: Tuple, now_us: u64) {\n    \
                   // lint:allow(once per parked send, not per tuple)\n    \
                   let parked = self.pulse.now_us();\n    \
                   self.enqueue(t, now_us.max(parked));\n}\n\n\
                   fn on_data(&mut self, tuples: Vec<Tuple>) {\n    \
                   let now = self.pulse.now_us();\n    \
                   for t in tuples {\n        self.ingest(t, now);\n    }\n}\n";
        let d = lint_source("crates/runtime/src/fake.rs", src);
        assert!(!rules(&d).contains(&"hot-path-clock"), "{d:?}");
    }

    #[test]
    fn unsafe_is_flagged_outside_the_allow_listed_files() {
        let src = "fn f(p: *const u64) -> u64 {\n    \
                   // SAFETY: p is valid.\n    \
                   unsafe { *p }\n}\n";
        for file in ["crates/core/src/instance.rs", "crates/runtime/src/fake.rs"] {
            let d = lint_source(file, src);
            assert_eq!(rules(&d), vec!["unsafe-code"], "{d:?}");
            assert_eq!(d[0].line, 3);
            assert!(d[0].msg.contains("allow-listed"), "{d:?}");
        }
        assert!(lint_source("crates/core/src/state.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_an_allow_listed_file_needs_a_safety_comment() {
        // Same line and line above pass; two lines above, a plain comment
        // and a `lint:allow` do not.
        let src = "fn f(p: *const u64) -> u64 {\n    \
                   unsafe { *p } // SAFETY: p is valid.\n}\n\
                   fn g(p: *const u64) -> u64 {\n    \
                   // SAFETY: p is valid.\n    unsafe { *p }\n}\n\
                   fn h(p: *const u64) -> u64 {\n    \
                   // SAFETY: p is valid.\n    let q = p;\n    unsafe { *q }\n}\n\
                   fn i(p: *const u64) -> u64 {\n    \
                   // p is valid.\n    unsafe { *p }\n}\n\
                   fn j(p: *const u64) -> u64 {\n    \
                   // lint:allow(p is valid)\n    unsafe { *p }\n}\n";
        let d = lint_source("crates/core/src/state.rs", src);
        assert_eq!(rules(&d), vec!["unsafe-code"; 3], "{d:?}");
        assert_eq!(d.iter().map(|d| d.line).collect::<Vec<_>>(), vec![11, 15, 19], "{d:?}");
        assert!(d[0].msg.contains("SAFETY"), "{d:?}");
    }

    #[test]
    fn unsafe_in_test_code_strings_comments_and_identifiers_is_not_flagged() {
        let src = "#![forbid(unsafe_code)]\n\
                   fn f() -> &'static str {\n    \
                   // an unsafe block would be wrong here\n    \
                   let is_unsafe = false;\n    \
                   \"unsafe\"\n}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   unsafe { std::hint::unreachable_unchecked() }\n    }\n}\n";
        assert!(lint_source("crates/runtime/src/fake.rs", src).is_empty());
    }

    #[test]
    fn repo_lint_is_clean() {
        // The acceptance gate: the shipped tree must pass its own lint.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let diags = lint_repo(&root).expect("repo readable");
        assert!(
            diags.is_empty(),
            "lint violations in tree:\n{}",
            diags.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }

    #[test]
    fn every_data_plane_file_exists() {
        // A renamed or split file must be re-listed, or it silently loses
        // the no-index and hot-path rules.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for file in DATA_PLANE_FILES {
            assert!(root.join(file).is_file(), "DATA_PLANE_FILES lists a missing file: {file}");
        }
        for file in UNSAFE_FILES {
            assert!(root.join(file).is_file(), "UNSAFE_FILES lists a missing file: {file}");
        }
    }

    #[test]
    fn repo_lint_catches_seeded_violation() {
        let seeded = "fn hot_path(v: &[u64]) -> u64 {\n    v.first().copied().unwrap()\n}\n";
        let d = lint_source("crates/core/src/instance.rs", seeded);
        assert!(d.iter().any(|d| d.rule == "no-panic"));
    }
}
