//! A minimal Rust source scanner.
//!
//! Every rule in this linter reads masked code, so all the scanner has
//! to get right is *what is code*: comment bodies, string/char literal
//! contents, and raw strings must never be mistaken for code (a
//! `"panic!"` inside a log message is not a finding). This is
//! deliberately not a full lexer — no token stream, no spans — just a
//! masking pass plus `#[cfg(test)]` region tracking.

/// The result of scanning one source file.
pub struct ScannedFile {
    /// Source lines with comment bodies and literal contents blanked
    /// out. Literal delimiters (`"`, `r#"`, `'`) survive so rules can
    /// still see that a string literal starts at a position.
    pub code: Vec<String>,
    /// `in_test[i]` is true when line `i` is inside an item annotated
    /// `#[cfg(test)]` (almost always the trailing `mod tests { ... }`).
    pub in_test: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str { byte: bool },
    RawStr { hashes: u32 },
    CharLit,
}

/// Scans `src` into masked code lines and `#[cfg(test)]` region marks.
pub fn scan(src: &str) -> ScannedFile {
    let chars: Vec<char> = src.chars().collect();
    let mut masked = String::with_capacity(src.len());
    let mut state = State::Code;
    let mut i = 0usize;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            masked.push('\n');
            if state == State::LineComment {
                state = State::Code;
            }
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                let prev_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    masked.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    masked.push_str("  ");
                    i += 2;
                } else if !prev_ident && (c == 'r' || (c == 'b' && next == Some('r'))) {
                    // Possible raw string: r"..." / r#"..."# / br"..."
                    let mut j = i + if c == 'b' { 2 } else { 1 };
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        for &d in &chars[i..=j] {
                            masked.push(d);
                        }
                        i = j + 1;
                        state = State::RawStr { hashes };
                    } else {
                        masked.push(c);
                        i += 1;
                    }
                } else if c == 'b' && next == Some('"') && !prev_ident {
                    masked.push_str("b\"");
                    i += 2;
                    state = State::Str { byte: true };
                } else if c == '"' {
                    masked.push('"');
                    i += 1;
                    state = State::Str { byte: false };
                } else if c == '\'' {
                    // Char literal vs lifetime. A literal is 'x' or an
                    // escape '\...'; a lifetime ('a, '_ in <'a>) has no
                    // closing quote right after one element.
                    if next == Some('\\') {
                        masked.push('\'');
                        i += 1;
                        state = State::CharLit;
                    } else if chars.get(i + 2) == Some(&'\'') && next != Some('\'') {
                        masked.push_str("\'  ");
                        i += 3;
                    } else {
                        masked.push('\'');
                        i += 1;
                    }
                } else {
                    masked.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                masked.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    masked.push_str("  ");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    masked.push_str("  ");
                    i += 2;
                } else {
                    masked.push(' ');
                    i += 1;
                }
            }
            State::Str { byte: _ } => {
                if c == '\\' {
                    if chars.get(i + 1) == Some(&'\n') {
                        // Line continuation (`"…\` at end of line): mask
                        // only the backslash and let the newline take
                        // the normal path, or every line after this
                        // string shifts against the raw source.
                        masked.push(' ');
                        i += 1;
                    } else {
                        masked.push_str("  ");
                        i += 2;
                    }
                } else if c == '"' {
                    masked.push('"');
                    i += 1;
                    state = State::Code;
                } else {
                    masked.push(' ');
                    i += 1;
                }
            }
            State::RawStr { hashes } => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        masked.push('"');
                        for _ in 0..hashes {
                            masked.push('#');
                        }
                        i += 1 + hashes as usize;
                        state = State::Code;
                        continue;
                    }
                }
                masked.push(' ');
                i += 1;
            }
            State::CharLit => {
                if c == '\\' {
                    masked.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    masked.push('\'');
                    i += 1;
                    state = State::Code;
                } else {
                    masked.push(' ');
                    i += 1;
                }
            }
        }
    }

    let code: Vec<String> = masked.split('\n').map(str::to_owned).collect();
    let in_test = mark_cfg_test_regions(&code);
    ScannedFile { code, in_test }
}

/// Marks the lines covered by items annotated `#[cfg(test)]`, or every
/// line when the file opens with an inner `#![cfg(test)]`.
///
/// After an attribute line, the item extends to the matching `}` of the
/// first top-level `{` (or to the first `;` seen before any brace, for
/// `#[cfg(test)] use ...;` style items). Subsequent attributes between
/// the cfg and the item (`#[allow]`, doc comments) are skipped.
fn mark_cfg_test_regions(code: &[String]) -> Vec<bool> {
    let stripped =
        |line: &String| -> String { line.chars().filter(|c| !c.is_whitespace()).collect() };
    let inner_cfg_test = code
        .iter()
        .map(stripped)
        .filter(|l| !l.is_empty())
        .take_while(|l| l.starts_with("#!["))
        .any(|l| l.starts_with("#![cfg(test)]") || l.starts_with("#![cfg(test,"));
    let mut in_test = vec![inner_cfg_test; code.len()];
    if inner_cfg_test {
        return in_test;
    }
    let mut line = 0usize;
    while line < code.len() {
        let stripped = stripped(&code[line]);
        if !(stripped.contains("#[cfg(test)]") || stripped.contains("#[cfg(test,")) {
            line += 1;
            continue;
        }
        // Walk characters starting after the attribute's closing `]`.
        let attr_start = code[line].find("#[").unwrap_or(0);
        let mut col = match code[line][attr_start..].find(']') {
            Some(p) => attr_start + p + 1,
            None => code[line].len(),
        };
        let mut cur = line;
        let mut depth = 0usize;
        let mut end = line;
        'walk: while cur < code.len() {
            let bytes = code[cur].as_bytes();
            while col < bytes.len() {
                match bytes[col] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            end = cur;
                            break 'walk;
                        }
                    }
                    b';' if depth == 0 => {
                        end = cur;
                        break 'walk;
                    }
                    _ => {}
                }
                col += 1;
            }
            cur += 1;
            col = 0;
            end = cur.min(code.len() - 1);
        }
        for flag in in_test.iter_mut().take(end + 1).skip(line) {
            *flag = true;
        }
        line = end + 1;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_strings_and_comments() {
        let s = scan("let x = \"HashMap\"; // HashMap here\nlet y = 1;\n");
        assert!(!s.code[0].contains("HashMap"));
        assert_eq!(s.code[1], "let y = 1;");
    }

    #[test]
    fn masks_raw_strings_and_chars() {
        let s = scan("let x = r#\"Instant::now()\"#; let c = 'a'; let lt: &'static str = \"\";");
        assert!(!s.code[0].contains("Instant"));
        assert!(s.code[0].contains("&'static str"));
    }

    #[test]
    fn string_line_continuations_keep_line_numbering() {
        let s = scan("let h = \"first\\\n    second\";\nlet after = 1;\n");
        assert_eq!(s.code.len(), 4, "{:?}", s.code);
        assert_eq!(s.code[2], "let after = 1;");
    }

    #[test]
    fn nested_block_comments() {
        let s = scan("/* outer /* inner */ still */ code()");
        assert!(s.code[0].contains("code()"));
        assert!(!s.code[0].contains("outer"));
        assert!(!s.code[0].contains("inner"));
    }

    #[test]
    fn cfg_test_region_spans_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let s = scan(src);
        assert!(!s.in_test[0]);
        assert!(s.in_test[1] && s.in_test[2] && s.in_test[3] && s.in_test[4]);
        assert!(!s.in_test[5]);
    }

    #[test]
    fn inner_cfg_test_marks_the_whole_file() {
        let s = scan("//! Test support.\n#![ cfg(test) ]\n\nfn a() {}\n");
        assert!(s.in_test.iter().all(|t| *t), "{:?}", s.in_test);
        // Only as the file's own attribute: inside a module it is not.
        let s = scan("fn a() {}\nmod m {\n    #![cfg(test)]\n}\n");
        assert!(!s.in_test[0]);
    }

    #[test]
    fn cfg_test_single_item_without_braces() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn c() {}\n";
        let s = scan(src);
        assert!(s.in_test[0] && s.in_test[1]);
        assert!(!s.in_test[2]);
    }
}
