//! Non-test line counts for the workspace (`regress --loc`).
//!
//! A line counts when it holds at least one character of code that is
//! neither whitespace, nor inside a comment, nor inside an item marked
//! `#[cfg(test)]`. So blank lines, comment-only lines (doc comments
//! included) and test modules, test functions and test-only fields
//! anywhere in a file are all left out. The scanner knows Rust's
//! lexical structure well enough that braces inside strings, raw
//! strings, character literals and comments never move an item's end,
//! and it tells a lifetime (`'a`) from a character literal (`'{'`).

use std::path::{Path, PathBuf};

/// What a lexical token is, as far as item boundaries care.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Kind {
    /// One punctuation character.
    Punct(char),
    /// An identifier, keyword, number or lifetime.
    Word(String),
    /// A string, raw string or character literal.
    Literal,
}

/// A token and the lines (0-based, inclusive) it spans.
#[derive(Debug)]
struct Tok {
    kind: Kind,
    first: usize,
    last: usize,
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Split `src` into tokens, dropping whitespace and comments.
fn tokens(src: &str) -> Vec<Tok> {
    let c: Vec<char> = src.chars().collect();
    let at = |k: usize| c.get(k).copied().unwrap_or('\0');
    let mut out = Vec::new();
    let (mut i, mut line) = (0, 0);
    while i < c.len() {
        let start_line = line;
        let ch = c[i];
        // Advance to c[to], counting the newlines crossed.
        let mut take = |to: usize| {
            let to = to.min(c.len());
            line += c[i..to].iter().filter(|&&x| x == '\n').count();
            to
        };
        if ch.is_whitespace() {
            i = take(i + 1);
            continue;
        }
        if ch == '/' && at(i + 1) == '/' {
            while i < c.len() && c[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if ch == '/' && at(i + 1) == '*' {
            let (mut j, mut depth) = (i + 2, 1);
            while j < c.len() && depth > 0 {
                if c[j] == '/' && at(j + 1) == '*' {
                    depth += 1;
                    j += 2;
                } else if c[j] == '*' && at(j + 1) == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = take(j);
            continue;
        }
        let prev_ident = i > 0 && is_ident(c[i - 1]);
        // Raw strings: r"…", r#"…"#, br"…", cr#"…"#.
        let r = if matches!(ch, 'b' | 'c') && at(i + 1) == 'r' {
            i + 1
        } else {
            i
        };
        if !prev_ident && at(r) == 'r' {
            let mut j = r + 1;
            while at(j) == '#' {
                j += 1;
            }
            if at(j) == '"' {
                let hashes = j - r - 1;
                j += 1;
                while j < c.len() && !(c[j] == '"' && (1..=hashes).all(|h| at(j + h) == '#')) {
                    j += 1;
                }
                i = take(j + 1 + hashes);
                out.push(Tok {
                    kind: Kind::Literal,
                    first: start_line,
                    last: line,
                });
                continue;
            }
        }
        // Strings with escapes: "…", b"…", c"…".
        let q = if !prev_ident && matches!(ch, 'b' | 'c') && at(i + 1) == '"' {
            i + 1
        } else {
            i
        };
        if at(q) == '"' {
            let mut j = q + 1;
            while j < c.len() && c[j] != '"' {
                j += if c[j] == '\\' { 2 } else { 1 };
            }
            i = take(j + 1);
            out.push(Tok {
                kind: Kind::Literal,
                first: start_line,
                last: line,
            });
            continue;
        }
        // Character literals ('x', '\n', '\u{7f}', b'x') and lifetimes.
        let a = if !prev_ident && ch == 'b' && at(i + 1) == '\'' {
            i + 1
        } else {
            i
        };
        if at(a) == '\'' {
            let end = if at(a + 1) == '\\' {
                let mut j = a + 3;
                while j < c.len() && c[j] != '\'' {
                    j += 1;
                }
                Some(j + 1)
            } else if at(a + 2) == '\'' {
                Some(a + 3)
            } else {
                None
            };
            if let Some(end) = end {
                i = take(end);
                out.push(Tok {
                    kind: Kind::Literal,
                    first: start_line,
                    last: line,
                });
                continue;
            }
            // A lifetime: the quote and the name form one word.
            let mut j = a + 1;
            while j < c.len() && is_ident(c[j]) {
                j += 1;
            }
            out.push(Tok {
                kind: Kind::Word(c[a..j].iter().collect()),
                first: line,
                last: line,
            });
            i = j;
            continue;
        }
        if is_ident(ch) {
            let mut j = i;
            while j < c.len() && is_ident(c[j]) {
                j += 1;
            }
            out.push(Tok {
                kind: Kind::Word(c[i..j].iter().collect()),
                first: line,
                last: line,
            });
            i = j;
            continue;
        }
        out.push(Tok {
            kind: Kind::Punct(ch),
            first: line,
            last: line,
        });
        i += 1;
    }
    out
}

/// If `toks[i..]` opens with `#[cfg(test)]` or `#![cfg(test)]`, the
/// index just past the attribute and whether it is the inner form.
fn cfg_test_at(toks: &[Tok], i: usize) -> Option<(usize, bool)> {
    let punct = |k: usize, p: char| toks.get(k).is_some_and(|t| t.kind == Kind::Punct(p));
    let word = |k: usize, w: &str| {
        toks.get(k)
            .is_some_and(|t| matches!(&t.kind, Kind::Word(x) if x == w))
    };
    if !punct(i, '#') {
        return None;
    }
    let inner = punct(i + 1, '!');
    let k = i + 1 + usize::from(inner);
    let is_cfg_test = punct(k, '[')
        && word(k + 1, "cfg")
        && punct(k + 2, '(')
        && word(k + 3, "test")
        && punct(k + 4, ')')
        && punct(k + 5, ']');
    is_cfg_test.then_some((k + 6, inner))
}

/// The index just past the item that starts at `toks[start]`: at a `;`
/// or `,` outside every bracket, after the brace block that closes at
/// the top level (with a `;` or `,` that directly follows it), or just
/// before a `}` that closes the enclosing block. Angle brackets count
/// only for the `,` rule, so a field typed `Map<K, V>` stays one item.
fn item_end(toks: &[Tok], start: usize) -> usize {
    let (mut nest, mut brace, mut angle) = (0i32, 0i32, 0i32);
    for j in start..toks.len() {
        let Kind::Punct(p) = toks[j].kind else {
            continue;
        };
        let after_arrow = j > start && matches!(toks[j - 1].kind, Kind::Punct('-' | '='));
        match p {
            '(' | '[' => nest += 1,
            ')' | ']' => nest -= 1,
            '<' => angle += 1,
            '>' if !after_arrow => angle = (angle - 1).max(0),
            '{' => brace += 1,
            '}' if brace == 0 => return j,
            '}' => {
                brace -= 1;
                if brace == 0 && nest == 0 {
                    let trailing = toks
                        .get(j + 1)
                        .is_some_and(|t| matches!(t.kind, Kind::Punct(';' | ',')));
                    return j + 1 + usize::from(trailing);
                }
            }
            ';' if nest == 0 && brace == 0 => return j + 1,
            ',' if nest == 0 && brace == 0 && angle == 0 => return j + 1,
            _ => {}
        }
    }
    toks.len()
}

/// The index of the `}` that closes the block enclosing `toks[start]`,
/// or the end of the file.
fn block_end(toks: &[Tok], start: usize) -> usize {
    let mut brace = 0i32;
    for (j, t) in toks.iter().enumerate().skip(start) {
        match t.kind {
            Kind::Punct('{') => brace += 1,
            Kind::Punct('}') if brace == 0 => return j,
            Kind::Punct('}') => brace -= 1,
            _ => {}
        }
    }
    toks.len()
}

/// Non-test lines of one Rust source file.
pub fn count_source(src: &str) -> usize {
    let toks = tokens(src);
    let mut code = vec![false; src.lines().count() + 1];
    let mut i = 0;
    while i < toks.len() {
        if let Some((after, inner)) = cfg_test_at(&toks, i) {
            i = if inner {
                block_end(&toks, after)
            } else {
                item_end(&toks, after)
            };
            continue;
        }
        code[toks[i].first..=toks[i].last].fill(true);
        i += 1;
    }
    code.iter().filter(|&&b| b).count()
}

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rust_files(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Non-test line counts of every `.rs` file under `<crates>/<crate>/src`
/// except the vendored `compat` crates, as `(crate, file, lines)` in
/// path order.
pub fn count_crates(crates: &Path) -> std::io::Result<Vec<(String, PathBuf, usize)>> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(crates)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    dirs.sort();
    let mut out = Vec::new();
    for dir in dirs {
        let name = dir
            .file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
        let src = dir.join("src");
        if name == "compat" || !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&src, &mut files)?;
        for f in files {
            let lines = count_source(&std::fs::read_to_string(&f)?);
            out.push((name.clone(), f, lines));
        }
    }
    Ok(out)
}

/// The `regress --loc` report: one line per file, then per crate, then
/// the total.
pub fn report(counts: &[(String, PathBuf, usize)]) -> String {
    let mut s = String::new();
    for (_, f, n) in counts {
        s += &format!("{n:>7}  {}\n", f.display());
    }
    let mut crates: Vec<(&str, usize)> = Vec::new();
    for (c, _, n) in counts {
        match crates.last_mut() {
            Some((last, total)) if *last == c.as_str() => *total += n,
            _ => crates.push((c, *n)),
        }
    }
    for (c, n) in &crates {
        s += &format!("{n:>7}  crate {c}\n");
    }
    let total: usize = counts.iter().map(|(_, _, n)| n).sum();
    s += &format!("{total:>7}  total ({} files)\n", counts.len());
    s
}

#[cfg(test)]
mod tests {
    use super::count_source;

    #[test]
    fn skips_tests_comments_and_blanks_but_not_tricky_literals() {
        let src = r####"//! Module doc.

/// A lifetime in counted code.
pub fn first<'a>(x: &'a str) -> &'a str {
    x
}

#[cfg(test)]
fn helper<'a>(x: &'a str) -> Vec<[u8; 2]> {
    let open = '{'; // a brace in a char literal
    let close = "}"; /* a brace in a comment: { */
    let raw = r#"} "{ "#;
    let esc = ('\'', "\"}");
    let _ = (x, open, close, raw, esc);
    vec![]
}

pub struct S {
    a: u32,
    #[cfg(test)]
    probe: std::collections::HashMap<u32, u32>,
    b: u32,
}

/* a
   block comment */
pub const C: char = '}';
#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
pub fn last() {}
"####;
        // Counted: `pub fn first` (3 lines), `pub struct S {`, `a: u32,`,
        // `b: u32,`, `}`, `pub const C`, `pub fn last`. A brace, quote
        // or lifetime misread inside `helper` moves its end.
        assert_eq!(count_source(src), 9);
    }

    #[test]
    fn inner_cfg_test_skips_the_rest_of_the_file() {
        assert_eq!(count_source("#![cfg(test)]\nfn a() {}\nfn b() {}\n"), 0);
        assert_eq!(count_source("fn a() {}\n\n// x\n"), 1);
    }
}
