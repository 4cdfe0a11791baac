//! Deterministic compact and pretty emitters.

use std::fmt::Write as _;

use crate::Value;

/// Escapes `s` for a JSON string body (no surrounding quotes).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
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
}

/// The token a float emits as: shortest round-trip form, `null` when
/// non-finite (JSON has no NaN/infinity literals). Negative zero
/// normalizes to `0`: Rust would print `-0`, which reads back as the
/// integer 0 and would break the emit∘parse byte-identity the crate
/// promises.
fn float_token(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Value {
    /// Emits the document with no whitespace — the form reports and batch
    /// summaries use, byte-identical for equal values.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Emits the document with two-space indentation and a member per
    /// line — the form scenario files and goldens use. No trailing
    /// newline; file writers add one.
    ///
    /// Empty arrays and objects stay inline (`[]`, `{}`).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Writes the document as one newline-delimited-JSON record: the
    /// compact form plus a trailing `\n`, handed to the writer in **one**
    /// `write_all`. A record is the unit a reader waits for, so it is
    /// also the unit of I/O: on a raw socket, pipe or `File` that is one
    /// syscall per record whether or not the caller wrapped the sink in a
    /// `BufWriter`. The caller decides when to flush.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn write_ndjson_line<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut line = self.to_string_compact();
        line.push('\n');
        w.write_all(line.as_bytes())
    }

    fn write_scalar(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => out.push_str(&float_token(*f)),
            Value::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Value::Array(_) | Value::Object(_) => unreachable!("containers handled by callers"),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(out, key);
                    out.push_str("\":");
                    value.write_compact(out);
                }
                out.push('}');
            }
            scalar => scalar.write_scalar(out),
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Value::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Object(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    out.push('"');
                    escape_into(out, key);
                    out.push_str("\": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            Value::Array(_) => out.push_str("[]"),
            Value::Object(_) => out.push_str("{}"),
            scalar => scalar.write_scalar(out),
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn sample() -> Value {
        parse(r#"{"name":"a\"b","n":[1,-2,2.5,1e21],"ok":true,"none":null,"empty":{},"e2":[]}"#)
            .expect("valid sample")
    }

    #[test]
    fn compact_round_trips_bytes() {
        let doc = sample();
        let text = doc.to_string_compact();
        // Rust's float Display is positional (no exponents), so 1e21 emits
        // as its full decimal form; the parser accepts either spelling.
        assert_eq!(
            text,
            r#"{"name":"a\"b","n":[1,-2,2.5,1000000000000000000000],"ok":true,"none":null,"empty":{},"e2":[]}"#
        );
        assert_eq!(parse(&text).unwrap(), doc);
        // Emission is a pure function of the value.
        assert_eq!(text, sample().to_string_compact());
    }

    #[test]
    fn pretty_round_trips_values() {
        let doc = sample();
        let text = doc.to_string_pretty();
        assert_eq!(parse(&text).unwrap(), doc);
        assert!(text.contains("\"empty\": {}"));
        assert!(text.contains("\"e2\": []"));
        assert!(text.starts_with("{\n  \"name\": \"a\\\"b\",\n"));
        assert!(!text.ends_with('\n'));
    }

    #[test]
    fn an_ndjson_line_is_one_write_of_the_compact_form() {
        /// Accepts everything it is handed and counts the calls.
        #[derive(Default)]
        struct Counting {
            bytes: Vec<u8>,
            writes: usize,
        }
        impl std::io::Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // The NDJSON writer must be the compact emitter, byte for byte —
        // a protocol spec pinned against one must hold for the other —
        // and a record must reach the sink whole: a per-token write path
        // costs a syscall per token on an unbuffered socket.
        for text in [
            r#"{"name":"a\"b","n":[1,-2,2.5],"ok":true,"none":null,"empty":{},"e2":[]}"#,
            r#"[{"k":"v"},[],{},"x",0]"#,
            "\"lone \\n string\"",
            "-7",
        ] {
            let doc = parse(text).expect("valid sample");
            let mut sink = Counting::default();
            doc.write_ndjson_line(&mut sink).unwrap();
            assert_eq!(sink.writes, 1, "{text}");
            assert_eq!(
                String::from_utf8(sink.bytes).unwrap(),
                format!("{}\n", doc.to_string_compact())
            );
        }
    }

    #[test]
    fn io_streaming_surfaces_writer_errors() {
        struct Broken;
        impl std::io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let doc = sample();
        assert!(doc.write_ndjson_line(&mut Broken).is_err());
    }

    #[test]
    fn non_finite_floats_emit_null() {
        assert_eq!(Value::Float(f64::NAN).to_string_compact(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_string_pretty(), "null");
        assert_eq!(float_token(1.5), "1.5");
    }

    #[test]
    fn negative_zero_normalizes_to_zero() {
        // "-0" would reparse as Int(0) and re-emit as "0", breaking the
        // byte-identity of emit∘parse∘emit.
        let text = Value::Float(-0.0).to_string_compact();
        assert_eq!(text, "0");
        assert_eq!(parse(&text).unwrap().to_string_compact(), text);
    }

    #[test]
    fn extreme_magnitudes_emit_their_shortest_form_and_reparse() {
        for v in [1e21, 5e-324, 1.7976931348623157e308, -2.5e-7] {
            let token = float_token(v);
            let back = parse(&token).unwrap();
            assert_eq!(back.as_f64(), Some(v), "token {token}");
        }
    }
}
