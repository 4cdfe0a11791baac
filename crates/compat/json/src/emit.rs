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
        self.write_node::<false>(&mut out, 0);
        out
    }

    /// Emits the document with two-space indentation and a member per
    /// line — the form scenario files and goldens use. No trailing
    /// newline; file writers add one.
    ///
    /// Empty arrays and objects stay inline (`[]`, `{}`).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_node::<true>(&mut out, 0);
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
            Value::Str(s) => push_string(out, s),
            Value::Array(_) | Value::Object(_) => unreachable!("containers handled by callers"),
        }
    }

    /// Appends the node as it reads `depth` containers deep in a
    /// document — the one emitter behind both forms and [`Stream`]. The
    /// form is a constant so the compact one carries no layout branches.
    fn write_node<const PRETTY: bool>(&self, out: &mut String, depth: usize) {
        match self {
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    push_separator(out, PRETTY, i == 0, depth + 1);
                    item.write_node::<PRETTY>(out, depth + 1);
                }
                push_close(out, PRETTY, !items.is_empty(), depth, ']');
            }
            Value::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    push_separator(out, PRETTY, i == 0, depth + 1);
                    push_key(out, PRETTY, key);
                    value.write_node::<PRETTY>(out, depth + 1);
                }
                push_close(out, PRETTY, !members.is_empty(), depth, '}');
            }
            scalar => scalar.write_scalar(out),
        }
    }
}

// The layout rules, in one place: what goes before a container's child,
// between a key and its value, and before the closing bracket. An empty
// container has no child and no line break, so it stays inline.

#[inline]
fn push_separator(out: &mut String, pretty: bool, first: bool, depth: usize) {
    if !first {
        out.push(',');
    }
    if pretty {
        push_line(out, depth);
    }
}

#[inline]
fn push_key(out: &mut String, pretty: bool, key: &str) {
    push_string(out, key);
    out.push_str(if pretty { ": " } else { ":" });
}

#[inline]
fn push_close(out: &mut String, pretty: bool, any_child: bool, depth: usize, bracket: char) {
    if pretty && any_child {
        push_line(out, depth);
    }
    out.push(bracket);
}

/// A line break plus two spaces per level of `depth`.
#[inline]
fn push_line(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

#[inline]
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// A document written one node at a time, so a caller with a long array
/// holds one element in memory instead of the whole tree.
///
/// The caller opens and closes containers and hands over complete child
/// nodes; the stream writes every separator, indent and bracket by the
/// same rules as [`Value::to_string_compact`] / [`Value::to_string_pretty`],
/// so the bytes equal those of the assembled [`Value`] (plus the trailing
/// newline [`Stream::finish`] writes). Each node reaches the writer in
/// one `write_all`, with the brackets and separators before it, so wrap
/// an unbuffered sink in a `BufWriter`. An I/O error surfaces at the
/// call that met it, leaving a partial document behind.
///
/// ```
/// use json::{Stream, Value};
///
/// let mut out = Vec::new();
/// let mut doc = Stream::new(&mut out, true);
/// doc.open_object(None);
/// doc.open_array(Some("cells"));
/// for i in 0..2u64 {
///     doc.node(None, &Value::UInt(i))?;
/// }
/// doc.close();
/// doc.close();
/// doc.finish()?;
/// assert_eq!(out, b"{\n  \"cells\": [\n    0,\n    1\n  ]\n}\n");
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct Stream<'w, W: std::io::Write + ?Sized> {
    w: &'w mut W,
    pretty: bool,
    /// One entry per open container: its closing bracket and whether it
    /// has a child yet.
    open: Vec<(char, bool)>,
    buf: String,
}

impl<'w, W: std::io::Write + ?Sized> Stream<'w, W> {
    /// Starts a document on `w`, compact or pretty.
    pub fn new(w: &'w mut W, pretty: bool) -> Self {
        Stream {
            w,
            pretty,
            open: Vec::new(),
            buf: String::new(),
        }
    }

    /// Starts the next child of the innermost open container: its
    /// separator, then `key` when the container is an object.
    fn child(&mut self, key: Option<&str>) {
        let in_object = matches!(self.open.last(), Some(('}', _)));
        debug_assert_eq!(key.is_some(), in_object, "keys name object members");
        if let Some((_, any_child)) = self.open.last_mut() {
            let first = !*any_child;
            *any_child = true;
            push_separator(&mut self.buf, self.pretty, first, self.open.len());
        }
        if let Some(key) = key {
            push_key(&mut self.buf, self.pretty, key);
        }
    }

    /// Opens an object as the next child (`key` names it inside an object).
    pub fn open_object(&mut self, key: Option<&str>) {
        self.child(key);
        self.buf.push('{');
        self.open.push(('}', false));
    }

    /// Opens an array as the next child (`key` names it inside an object).
    pub fn open_array(&mut self, key: Option<&str>) {
        self.child(key);
        self.buf.push('[');
        self.open.push((']', false));
    }

    /// Writes `value` whole as the next child (`key` names it inside an
    /// object); the caller may drop it as soon as this returns.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn node(&mut self, key: Option<&str>, value: &Value) -> std::io::Result<()> {
        self.child(key);
        let depth = self.open.len();
        if self.pretty {
            value.write_node::<true>(&mut self.buf, depth);
        } else {
            value.write_node::<false>(&mut self.buf, depth);
        }
        self.w.write_all(self.buf.as_bytes())?;
        self.buf.clear();
        Ok(())
    }

    /// Writes `compact` — the compact text of a complete value, as
    /// [`Value::to_string_compact`] renders it — as the next child (`key`
    /// names it inside an object), copied as is: the bytes equal those of
    /// [`Stream::node`] on the value, without rebuilding it. This is how a
    /// document splices in a member rendered earlier.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    ///
    /// # Panics
    ///
    /// Panics on a pretty stream, whose layout the compact text lacks.
    pub fn raw(&mut self, key: Option<&str>, compact: &str) -> std::io::Result<()> {
        assert!(!self.pretty, "raw compact text in a pretty document");
        self.child(key);
        self.w.write_all(self.buf.as_bytes())?;
        self.buf.clear();
        self.w.write_all(compact.as_bytes())
    }

    /// Closes the innermost open container.
    ///
    /// # Panics
    ///
    /// Panics when no container is open.
    pub fn close(&mut self) {
        let (bracket, any_child) = self.open.pop().expect("close without an open container");
        let depth = self.open.len();
        push_close(&mut self.buf, self.pretty, any_child, depth, bracket);
    }

    /// Writes what is left plus the trailing newline a file ends with.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    ///
    /// # Panics
    ///
    /// Panics when a container is still open.
    pub fn finish(mut self) -> std::io::Result<()> {
        assert!(self.open.is_empty(), "finish with an open container");
        self.buf.push('\n');
        self.w.write_all(self.buf.as_bytes())
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

    /// Streams `value` with the containers of its top `levels` levels
    /// opened and closed through the stream and every deeper node handed
    /// over whole.
    fn stream_into(
        s: &mut Stream<'_, Vec<u8>>,
        key: Option<&str>,
        value: &Value,
        levels: usize,
    ) -> std::io::Result<()> {
        match value {
            Value::Array(items) if levels > 0 => {
                s.open_array(key);
                for item in items {
                    stream_into(s, None, item, levels - 1)?;
                }
                s.close();
            }
            Value::Object(members) if levels > 0 => {
                s.open_object(key);
                for (k, v) in members {
                    stream_into(s, Some(k), v, levels - 1)?;
                }
                s.close();
            }
            _ => s.node(key, value)?,
        }
        Ok(())
    }

    #[test]
    fn a_stream_writes_the_bytes_of_the_assembled_value() {
        for text in [
            r#"{"name":"a\"b","n":[1,-2,2.5,1e21],"ok":true,"none":null,"empty":{},"e2":[]}"#,
            r#"[{"k":[{"deep":[[],{}]}]},[],{},"x",0]"#,
            r#"{"cells":[],"rankings":[]}"#,
            "[]",
            "{}",
        ] {
            let doc = parse(text).expect("valid sample");
            for pretty in [false, true] {
                let want = if pretty {
                    doc.to_string_pretty()
                } else {
                    doc.to_string_compact()
                };
                for levels in [1, 2, usize::MAX] {
                    let mut out = Vec::new();
                    let mut s = Stream::new(&mut out, pretty);
                    stream_into(&mut s, None, &doc, levels).unwrap();
                    s.finish().unwrap();
                    assert_eq!(
                        String::from_utf8(out).unwrap(),
                        format!("{want}\n"),
                        "{text} pretty={pretty} levels={levels}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_stream_splices_raw_compact_text_as_the_node_would_write_it() {
        let doc = parse(r#"{"k":[{"deep":[[],{}]}],"s":"a\"b","n":-2.5}"#).expect("valid sample");
        let Value::Object(members) = &doc else {
            unreachable!("an object sample")
        };
        let write = |raw: bool| {
            let mut out = Vec::new();
            let mut s = Stream::new(&mut out, false);
            s.open_array(None);
            s.open_object(None);
            for (key, value) in members {
                if raw {
                    s.raw(Some(key), &value.to_string_compact()).unwrap();
                } else {
                    s.node(Some(key), value).unwrap();
                }
            }
            s.close();
            if raw {
                s.raw(None, &doc.to_string_compact()).unwrap();
            } else {
                s.node(None, &doc).unwrap();
            }
            s.close();
            s.finish().unwrap();
            String::from_utf8(out).unwrap()
        };
        assert_eq!(write(true), write(false));
        assert_eq!(write(true), format!("[{0},{0}]\n", doc.to_string_compact()));
    }

    #[test]
    #[should_panic(expected = "pretty document")]
    fn raw_text_in_a_pretty_stream_panics() {
        let mut out = Vec::new();
        let mut s = Stream::new(&mut out, true);
        s.open_array(None);
        let _ = s.raw(None, "[1,2]");
    }

    #[test]
    fn a_stream_surfaces_writer_errors() {
        /// Fails every write once `budget` bytes have gone through.
        struct Full(usize);
        impl std::io::Write for Full {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if buf.len() > self.0 {
                    return Err(std::io::Error::new(std::io::ErrorKind::StorageFull, "full"));
                }
                self.0 -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // Mid-document: the second node meets the error.
        let mut full = Full(2);
        let mut s = Stream::new(&mut full, false);
        s.open_array(None);
        s.node(None, &Value::UInt(1)).unwrap();
        assert!(s.node(None, &Value::UInt(2)).is_err());
        // At the end: the closing bracket and newline meet it in `finish`.
        let mut full = Full(2);
        let mut s = Stream::new(&mut full, false);
        s.open_array(None);
        s.node(None, &Value::UInt(1)).unwrap();
        s.close();
        assert!(s.finish().is_err());
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
