//! Minimal dependency-free JSON subset shared by the evaluation-cache
//! journal ([`crate::cache`]) and the serve protocol ([`crate::serve`]).
//!
//! The grammar is exactly what those two consumers need — objects,
//! arrays, escape-free strings, unsigned integers, floats, and `null`
//! — with no external dependencies. Strings containing `\` escapes are
//! rejected: cache keys and protocol identifiers are quote-free ASCII
//! by construction, and rejecting a request is always safe (the client
//! gets a structured error reply).
//!
//! Nesting is capped at [`MAX_DEPTH`]: the parser recurses once per
//! container level, so an unbounded `[[[[…` line would otherwise
//! overflow the stack and abort the whole process (no `catch_unwind`
//! can intercept a stack overflow).

/// Deepest container nesting the parser accepts. The journal and the
/// serve protocol need at most 4 levels; deeper input is rejected as
/// malformed.
pub const MAX_DEPTH: usize = 32;

/// Escapes `s` for embedding inside a JSON string literal: quotes,
/// backslashes, and control characters. The one escaper behind every
/// message that sweep rows and serve replies embed.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The JSON subset the journal and the serve protocol use.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete document: one value followed only by
    /// whitespace. Trailing garbage is a parse failure.
    pub(crate) fn parse(text: &str) -> Option<Json> {
        let mut parser = Parser::new(text);
        let value = parser.value()?;
        parser.skip_ws();
        (parser.pos == parser.bytes.len()).then_some(value)
    }

    pub(crate) fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn int(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub(crate) fn field<'a>(&'a self, name: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// `Some(None)` for an explicit `null`, `Some(Some(v))` for a
    /// present value, `None` for a missing field.
    pub(crate) fn opt_field<'a>(&'a self, name: &str) -> Option<Option<&'a Json>> {
        match self.field(name)? {
            Json::Null => Some(None),
            v => Some(Some(v)),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { bytes: text.as_bytes(), pos: 0, depth: 0 }
    }

    /// Parses one container, refusing to nest past [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Option<Json>) -> Option<Json> {
        if self.depth == MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match self.bytes.get(self.pos)? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => self.string().map(Json::Str),
            b'n' => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Some(Json::Null)
                } else {
                    None
                }
            }
            b't' => {
                if self.bytes[self.pos..].starts_with(b"true") {
                    self.pos += 4;
                    Some(Json::Bool(true))
                } else {
                    None
                }
            }
            b'f' => {
                if self.bytes[self.pos..].starts_with(b"false") {
                    self.pos += 5;
                    Some(Json::Bool(false))
                } else {
                    None
                }
            }
            b'0'..=b'9' | b'-' => self.number(),
            _ => None,
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Some(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos)? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Json::Obj(fields));
                }
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos)? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(Json::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return None;
        }
        self.pos += 1;
        let start = self.pos;
        // Keys, fingerprints, and protocol ids contain no escapes or
        // quotes.
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?.to_owned();
                self.pos += 1;
                return Some(s);
            }
            if b == b'\\' {
                return None;
            }
            self.pos += 1;
        }
        None
    }

    /// A number token. Plain unsigned integers become [`Json::Int`]
    /// (exact — the journal stores counters this way); anything with a
    /// sign, fraction, or exponent becomes [`Json::Float`].
    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        if let Ok(v) = token.parse::<u64>() {
            return Some(Json::Int(v));
        }
        token.parse::<f64>().ok().filter(|v| v.is_finite()).map(Json::Float)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_journal_subset() {
        let doc = Json::parse(r#"{"a":1,"b":"two","c":[3,null],"d":{}}"#).expect("parses");
        assert_eq!(doc.field("a").and_then(Json::int), Some(1));
        assert_eq!(doc.field("b").and_then(Json::str), Some("two"));
        assert_eq!(doc.field("c"), Some(&Json::Arr(vec![Json::Int(3), Json::Null])));
        let flags = Json::parse(r#"{"t":true,"f":false}"#).expect("booleans parse");
        assert_eq!(flags.field("t"), Some(&Json::Bool(true)));
        assert_eq!(flags.field("f"), Some(&Json::Bool(false)));
        assert_eq!(doc.field("d"), Some(&Json::Obj(vec![])));
        assert_eq!(doc.opt_field("e"), None);
    }

    #[test]
    fn parses_floats_and_keeps_ints() {
        let doc = Json::parse(r#"{"p":0.25,"neg":-2.5,"exp":1e3,"int":7}"#).expect("parses");
        assert_eq!(doc.field("p"), Some(&Json::Float(0.25)));
        assert_eq!(doc.field("neg"), Some(&Json::Float(-2.5)));
        assert_eq!(doc.field("exp"), Some(&Json::Float(1000.0)));
        assert_eq!(doc.field("int"), Some(&Json::Int(7)));
        assert_eq!(doc.field("p").and_then(Json::int), None, "floats are not ints");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "\"esc\\\"aped\"", "{\"a\":1} trailing", "nul"] {
            assert_eq!(Json::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_some(), "the cap itself parses");
        assert_eq!(Json::parse(&nested(MAX_DEPTH + 1)), None);
        // One such line used to overflow the stack and abort the server.
        assert_eq!(Json::parse(&"[".repeat(300_000)), None);
    }

    #[test]
    fn escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd\te\u{1}"), "a\\\"b\\\\c\\nd\\te\\u0001");
    }
}
