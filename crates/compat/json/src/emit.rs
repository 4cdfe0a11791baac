//! Deterministic compact and pretty emitters.

use std::fmt::Write as _;

use crate::{Scalar, Value};

/// Escapes `s` for a JSON string body (no surrounding quotes): `"`, `\`
/// and the bytes below 0x20, the ones JSON forbids raw. Everything else
/// is copied a run at a time, so a string with nothing to escape costs
/// one copy.
fn escape_into(out: &mut String, mut s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    while let Some(at) = first_to_escape(s.as_bytes()) {
        // An ASCII byte is a char boundary, so the run ends on one.
        out.push_str(&s[..at]);
        let b = s.as_bytes()[at];
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        s = &s[at + 1..];
    }
    out.push_str(s);
}

/// The position of the first byte [`escape_into`] escapes, found eight
/// clean bytes at a time.
fn first_to_escape(bytes: &[u8]) -> Option<usize> {
    let mut clean = 0;
    for word in bytes.chunks_exact(8) {
        if any_to_escape(u64::from_le_bytes(word.try_into().expect("8 bytes"))) {
            break;
        }
        clean += 8;
    }
    bytes[clean..]
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
        .map(|at| clean + at)
}

/// Whether any of the eight bytes of `word` is one [`escape_into`]
/// escapes: below 0x20, `"` or `\`. Each test sets a byte's high bit
/// exactly when some byte matches (the borrow only spreads above a
/// match), and no byte of 0x80 or more matches.
fn any_to_escape(word: u64) -> bool {
    const ONES: u64 = u64::from_ne_bytes([1; 8]);
    const HIGH: u64 = ONES << 7;
    let below = |n: u8| word.wrapping_sub(ONES * u64::from(n)) & !word & HIGH;
    let equal = |c: u8| {
        let v = word ^ (ONES * u64::from(c));
        v.wrapping_sub(ONES) & !v & HIGH
    };
    below(0x20) | equal(b'"') | equal(b'\\') != 0
}

/// Appends `n` in decimal, as `Display` writes it, without the
/// formatting machinery.
fn push_uint(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Appends the token a float emits as: shortest round-trip form, `null`
/// when non-finite (JSON has no NaN/infinity literals). Negative zero
/// normalizes to `0`: Rust would print `-0`, which reads back as the
/// integer 0 and would break the emit∘parse byte-identity the crate
/// promises.
fn push_float(out: &mut String, v: f64) {
    if v == 0.0 {
        out.push('0');
    } else if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
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
            Value::UInt(u) => push_uint(out, *u),
            Value::Int(i) => {
                if *i < 0 {
                    out.push('-');
                }
                push_uint(out, i.unsigned_abs());
            }
            Value::Float(f) => push_float(out, *f),
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
/// A short string or count needs no [`Value`]: [`Stream::scalar`] writes
/// a borrowed [`Scalar`] by the same separator and escape rules, held
/// with the brackets until the next node, raw text or
/// [`Stream::finish`] goes out, so a record of small members reaches the
/// writer in one piece.
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
            // Room for a record's small members, so they do not regrow it.
            buf: String::with_capacity(256),
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

    /// Writes `value` as the next child (`key` names it inside an
    /// object), the bytes [`Stream::node`] writes for the equal [`Value`],
    /// without building one. It cannot fail: the bytes wait for the next
    /// call that writes.
    pub fn scalar(&mut self, key: Option<&str>, value: Scalar<'_>) {
        self.child(key);
        match value {
            Scalar::Str(s) => push_string(&mut self.buf, s),
            Scalar::UInt(u) => push_uint(&mut self.buf, u),
        }
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
        assert_eq!(Value::Float(1.5).to_string_compact(), "1.5");
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
            let token = Value::Float(v).to_string_compact();
            let back = parse(&token).unwrap();
            assert_eq!(back.as_f64(), Some(v), "token {token}");
        }
    }

    /// A seeded source for the oracle tests (SplitMix64).
    struct Seeded(u64);

    impl Seeded {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u32) -> u32 {
            (self.next() % u64::from(n)) as u32
        }

        /// A string of up to 24 chars drawn from every class the escape
        /// treats apart: quote, backslash, each control, DEL, plain
        /// ASCII, and 2-, 3- and 4-byte UTF-8 (U+2028 among them).
        fn string(&mut self) -> String {
            let len = self.below(25);
            (0..len)
                .map(|_| {
                    let code = match self.below(9) {
                        0 => u32::from(b'"'),
                        1 => u32::from(b'\\'),
                        2 => self.below(0x20),
                        3 => 0x7f,
                        4 => 0x20 + self.below(0x5f),
                        5 => 0x80 + self.below(0x780),
                        6 => 0x2028 + self.below(2),
                        7 => 0x800 + self.below(0xd000),
                        _ => 0x10000 + self.below(0x10_0000),
                    };
                    char::from_u32(code).expect("no surrogate is drawn")
                })
                .collect()
        }
    }

    /// The escape as it was written before runs were copied whole: one
    /// char at a time.
    fn escape_char_by_char(s: &str) -> String {
        let mut out = String::new();
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
        out
    }

    /// A float's token as it was written before it went straight into
    /// the output: an owned `String` per float.
    fn float_token(v: f64) -> String {
        if v == 0.0 {
            "0".to_string()
        } else if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    #[test]
    fn the_run_copying_escape_equals_the_char_by_char_one() {
        let escape = |s: &str| {
            let mut out = String::from("prefix");
            escape_into(&mut out, s);
            out
        };
        let fixed = (0u8..0x80)
            .map(char::from)
            .chain(['\u{2028}', 'é', '€', '😀'])
            .collect::<String>();
        for s in ["", "plain", "\"", "\\", "\u{0}", "a\u{1f}b", &fixed] {
            assert_eq!(
                escape(s),
                format!("prefix{}", escape_char_by_char(s)),
                "{s:?}"
            );
        }
        let mut rng = Seeded(0x0e5c_a9e0);
        for _ in 0..4096 {
            let s = rng.string();
            assert_eq!(
                escape(&s),
                format!("prefix{}", escape_char_by_char(&s)),
                "{s:?}"
            );
        }
    }

    #[test]
    fn a_word_needs_escaping_exactly_when_one_of_its_bytes_does() {
        // Bytes at and around every edge the word test has.
        const EDGES: [u8; 12] = [
            0x00, 0x01, 0x1f, 0x20, 0x21, 0x22, 0x23, 0x5b, 0x5c, 0x5d, 0x80, 0xff,
        ];
        let mut rng = Seeded(0x005a_a7a7);
        for _ in 0..1 << 16 {
            let bytes: [u8; 8] = std::array::from_fn(|_| {
                if rng.below(2) == 0 {
                    EDGES[rng.below(EDGES.len() as u32) as usize]
                } else {
                    rng.next() as u8
                }
            });
            let want = bytes.iter().any(|&b| b < 0x20 || b == b'"' || b == b'\\');
            assert_eq!(
                any_to_escape(u64::from_le_bytes(bytes)),
                want,
                "{bytes:02x?}"
            );
        }
    }

    #[test]
    fn an_in_place_float_equals_its_owned_token() {
        let fixed = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e21,
            5e-324,
            0.1 + 0.2,
            f64::MAX,
            -2.5e-7,
        ];
        let mut rng = Seeded(0x000f_10a7);
        let seeded = (0..4096).map(|_| f64::from_bits(rng.next()));
        for v in fixed.into_iter().chain(seeded) {
            let mut out = String::from("[");
            push_float(&mut out, v);
            assert_eq!(out, format!("[{}", float_token(v)), "{v:e}");
        }
    }

    #[test]
    fn integers_emit_as_display_writes_them() {
        let mut rng = Seeded(0x0001_7e6e);
        let fixed = [0, 1, 9, 10, 99, 100, u64::MAX, i64::MAX as u64, 1 << 63];
        for n in fixed
            .into_iter()
            .chain((0..4096).map(|_| rng.next() >> rng.below(64)))
        {
            assert_eq!(Value::UInt(n).to_string_compact(), n.to_string());
            let i = n as i64;
            assert_eq!(Value::Int(i).to_string_compact(), i.to_string());
        }
        assert_eq!(
            Value::Int(i64::MIN).to_string_compact(),
            i64::MIN.to_string()
        );
    }

    #[test]
    fn a_scalar_member_equals_the_node_of_its_value() {
        let mut rng = Seeded(0x005c_a1a2);
        for round in 0..512 {
            let text = rng.string();
            let scalars = [
                Scalar::Str(&text),
                Scalar::UInt(rng.next() >> rng.below(64)),
                Scalar::UInt(0),
                Scalar::UInt(u64::MAX),
                Scalar::Str(""),
            ];
            for pretty in [false, true] {
                let write = |by_value: bool| {
                    let mut out = Vec::new();
                    let mut s = Stream::new(&mut out, pretty);
                    s.open_object(None);
                    for (i, &scalar) in scalars.iter().enumerate() {
                        let key = format!("k{i}\"{text}");
                        if by_value {
                            s.node(Some(&key), &Value::from(scalar)).unwrap();
                        } else {
                            s.scalar(Some(&key), scalar);
                        }
                    }
                    s.open_array(Some("list"));
                    for &scalar in &scalars {
                        if by_value {
                            s.node(None, &Value::from(scalar)).unwrap();
                        } else {
                            s.scalar(None, scalar);
                        }
                    }
                    s.close();
                    s.close();
                    s.finish().unwrap();
                    String::from_utf8(out).unwrap()
                };
                assert_eq!(write(false), write(true), "round {round} pretty={pretty}");
            }
        }
    }
}
