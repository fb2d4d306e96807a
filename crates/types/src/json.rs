//! The workspace's one JSON writer: the daemon's bodies and the experiment
//! reports are built from these functions, inside out ([`object`] and
//! [`array()`] take members the others rendered), compact and escaped once.

use std::fmt::Write as _;

/// An object of already-rendered members, in the order given.
#[must_use]
pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(&mut out, key);
        out.push(':');
        out.push_str(&value);
    }
    out.push('}');
    out
}

/// An array of already-rendered items, in the order given.
#[must_use]
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// An unsigned integer.
#[must_use]
pub fn uint(n: impl Into<u64>) -> String {
    n.into().to_string()
}

/// `true` or `false`.
#[must_use]
pub fn boolean(b: bool) -> String {
    b.to_string()
}

/// A measured number: three decimals, and `null` when it is not finite
/// (JSON has no infinities, so a degenerate ratio reads `null`).
#[must_use]
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

/// Escapes `text` as a JSON string literal (including the quotes). Control
/// characters without a short escape come out as `\u00XX`.
#[must_use]
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    escape_into(&mut out, text);
    out
}

fn escape_into(out: &mut String, text: &str) {
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

    #[test]
    fn documents_nest_compactly_in_the_order_given() {
        assert_eq!(object([]), "{}");
        assert_eq!(array([]), "[]");
        assert_eq!(
            object([
                ("n", uint(7u32)),
                ("max", uint(u64::MAX)),
                ("ok", boolean(false)),
                ("k\"ey", quote("v")),
                ("xs", array([number(0.5), number(f64::NAN)])),
                ("inner", object([("x", number(-1.0 / 3.0))])),
                ("e", object([("", array([]))])),
            ]),
            "{\"n\":7,\"max\":18446744073709551615,\"ok\":false,\"k\\\"ey\":\"v\",\
             \"xs\":[0.500,null],\"inner\":{\"x\":-0.333},\"e\":{\"\":[]}}"
        );
        assert_eq!(number(f64::INFINITY), "null");
    }
}
