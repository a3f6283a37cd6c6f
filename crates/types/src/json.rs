//! The one JSON string escaper every hand-rolled emitter in the workspace
//! shares (the workspace vendors no JSON library).

/// Quotes and escapes `s` as a JSON string literal: quotes and backslashes
/// are backslash-escaped, every other control character becomes a
/// `\u00XX` escape, and everything else passes through verbatim.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\u000ay\"");
        assert_eq!(json_string("\t\r"), "\"\\u0009\\u000d\"");
    }
}
