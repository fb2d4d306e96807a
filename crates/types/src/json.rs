//! The one JSON string escaper: the daemon's API bodies and the experiment
//! reports render every string literal through [`quote`].

use std::fmt::Write as _;

/// Escapes `text` as a JSON string literal (including the quotes). Control
/// characters without a short escape come out as `\u00XX`.
#[must_use]
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
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
    fn quotes_escape_what_json_requires_and_nothing_else() {
        assert_eq!(quote(""), "\"\"");
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quote("\n\r\t"), "\"\\n\\r\\t\"");
        assert_eq!(quote("\u{0}\u{1f}"), "\"\\u0000\\u001f\"");
        assert_eq!(quote("é ∀ /"), "\"é ∀ /\"");
    }
}
