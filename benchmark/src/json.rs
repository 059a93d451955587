//! Just enough JSON to read back what the benchmark itself writes (result
//! files for `--compare`) and the flat `BENCHMARK.json`. No escapes beyond
//! `\"` and `\\`, no surrogate pairs: neither file holds any.

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }
}

/// # Errors
///
/// A byte offset and what was expected there.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = parser.value()?;
    parser.skip_space();
    if parser.at == parser.bytes.len() {
        Ok(value)
    } else {
        Err(parser.expected("end of input"))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn expected(&self, what: &str) -> String {
        format!("expected {what} at byte {}", self.at)
    }

    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_space();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.expected(word))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut entries = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.skip_space();
                        let key = self.string()?;
                        if !self.eat(b':') {
                            return Err(self.expected("`:`"));
                        }
                        entries.push((key, self.value()?));
                        if self.eat(b'}') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(self.expected("`,` or `}`"));
                        }
                    }
                }
                Ok(Value::Object(entries))
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value()?);
                        if self.eat(b']') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(self.expected("`,` or `]`"));
                        }
                    }
                }
                Ok(Value::Array(items))
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Value::Number)
                    .ok_or_else(|| self.expected("a value"))
            }
            None => Err(self.expected("a value")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(self.expected("`\"`"));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.expected("UTF-8"));
                }
                Some(b'\\') => {
                    match self.bytes.get(self.at + 1) {
                        Some(&escaped @ (b'"' | b'\\')) => out.push(escaped),
                        _ => return Err(self.expected("`\\\"` or `\\\\`")),
                    }
                    self.at += 2;
                }
                Some(&byte) => {
                    out.push(byte);
                    self.at += 1;
                }
                None => return Err(self.expected("closing `\"`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_the_benchmark_writes() {
        let value = parse(
            "{\"correct\": true, \"attempted\": 10, \"metrics\": \
             {\"a.b\": {\"value\": 1.5e3, \"unit\": \"ms\"}}, \"list\": [1, -2.5, \"x\"], \"none\": null}",
        )
        .expect("valid JSON");
        assert_eq!(value.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(value.get("attempted").and_then(Value::as_f64), Some(10.0));
        let metric = value
            .get("metrics")
            .and_then(|m| m.get("a.b"))
            .expect("nested");
        assert_eq!(metric.get("value").and_then(Value::as_f64), Some(1500.0));
        assert_eq!(metric.get("unit").and_then(Value::as_str), Some("ms"));
        assert_eq!(
            value
                .get("list")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(3)
        );
        assert_eq!(value.get("none"), Some(&Value::Null));
    }

    #[test]
    fn refuses_trailing_garbage_and_open_strings() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\": \"b}").is_err());
        assert!(parse("[1, ]").is_err());
    }
}
