//! Streaming pull parser.
//!
//! [`Reader`] walks a `&str` and yields [`Event`]s. It performs
//! well-formedness checks that matter for data integrity (balanced tags,
//! attribute syntax, entity validity) and skips constructs performance-tool
//! XML does not use (DOCTYPE internals are consumed but not interpreted).

use crate::error::{Error, Result};
use crate::escape::unescape_at;
use std::borrow::Cow;

/// A single attribute on a start or empty element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (namespace prefixes are kept verbatim).
    pub name: String,
    /// Attribute value with entities resolved.
    pub value: String,
}

/// A parse event produced by [`Reader::next_event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// `<?xml version="1.0" ...?>`
    Declaration { attributes: Vec<Attribute> },
    /// `<name attr="v">`
    Start {
        name: String,
        attributes: Vec<Attribute>,
    },
    /// `</name>`
    End { name: String },
    /// `<name attr="v"/>` — reported as a single event.
    Empty {
        name: String,
        attributes: Vec<Attribute>,
    },
    /// Character data with entities resolved. Whitespace-only text between
    /// elements is reported too; callers that don't care can skip it.
    Text(String),
    /// `<![CDATA[...]]>` content, verbatim.
    CData(String),
    /// `<!-- ... -->` content, verbatim.
    Comment(String),
    /// `<?target data?>` other than the XML declaration.
    ProcessingInstruction { target: String, data: String },
    /// End of input. Returned exactly once; subsequent calls repeat it.
    Eof,
}

/// A pull parser over an in-memory document.
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Stack of currently open element names, for balance checking.
    stack: Vec<String>,
    seen_root: bool,
    done: bool,
}

impl<'a> Reader<'a> {
    /// Create a reader over `src`.
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            stack: Vec::new(),
            seen_root: false,
            done: false,
        }
    }

    /// Current byte offset into the input.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Depth of currently open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn syntax(&self, message: impl Into<String>) -> Error {
        Error::Syntax {
            message: message.into(),
            offset: self.pos,
        }
    }

    /// Pull the next event.
    pub fn next_event(&mut self) -> Result<Event> {
        if self.done {
            return Ok(Event::Eof);
        }
        if self.pos >= self.src.len() {
            if !self.stack.is_empty() {
                return Err(Error::UnexpectedEof {
                    context: "open element",
                });
            }
            self.done = true;
            return Ok(Event::Eof);
        }

        if self.rest().starts_with('<') {
            self.parse_markup()
        } else {
            self.parse_text()
        }
    }

    fn parse_text(&mut self) -> Result<Event> {
        let start = self.pos;
        let end = self
            .rest()
            .find('<')
            .map(|p| start + p)
            .unwrap_or(self.src.len());
        let raw = &self.src[start..end];
        self.pos = end;
        if self.stack.is_empty() && !raw.trim().is_empty() {
            return Err(Error::Syntax {
                message: "character data outside root element".into(),
                offset: start,
            });
        }
        let text = unescape_at(raw, start)?;
        Ok(Event::Text(match text {
            Cow::Borrowed(s) => s.to_string(),
            Cow::Owned(s) => s,
        }))
    }

    fn parse_markup(&mut self) -> Result<Event> {
        debug_assert!(self.rest().starts_with('<'));
        let r = self.rest();
        if let Some(stripped) = r.strip_prefix("<!--") {
            let end = stripped
                .find("-->")
                .ok_or(Error::UnexpectedEof { context: "comment" })?;
            let body = stripped[..end].to_string();
            self.bump(4 + end + 3);
            return Ok(Event::Comment(body));
        }
        if let Some(stripped) = r.strip_prefix("<![CDATA[") {
            let end = stripped.find("]]>").ok_or(Error::UnexpectedEof {
                context: "CDATA section",
            })?;
            if self.stack.is_empty() {
                return Err(self.syntax("CDATA outside root element"));
            }
            let body = stripped[..end].to_string();
            self.bump(9 + end + 3);
            return Ok(Event::CData(body));
        }
        if r.starts_with("<!DOCTYPE") || r.starts_with("<!doctype") {
            return self.skip_doctype();
        }
        if r.starts_with("<?") {
            return self.parse_pi();
        }
        if let Some(stripped) = r.strip_prefix("</") {
            let end = stripped
                .find('>')
                .ok_or(Error::UnexpectedEof { context: "end tag" })?;
            let name = stripped[..end].trim();
            if !is_name(name) {
                return Err(self.syntax(format!("invalid end tag name {name:?}")));
            }
            let offset = self.pos;
            self.bump(2 + end + 1);
            match self.stack.pop() {
                Some(open) if open == name => Ok(Event::End {
                    name: name.to_string(),
                }),
                Some(open) => Err(Error::MismatchedTag {
                    expected: open,
                    found: name.to_string(),
                    offset,
                }),
                None => Err(Error::Syntax {
                    message: format!("end tag </{name}> with no open element"),
                    offset,
                }),
            }
        } else {
            self.parse_start_tag()
        }
    }

    fn skip_doctype(&mut self) -> Result<Event> {
        // Consume "<!DOCTYPE ... >" honouring one level of [...] internal subset.
        let r = self.rest();
        let mut depth = 0usize;
        for (i, c) in r.char_indices() {
            match c {
                '[' => depth += 1,
                ']' => depth = depth.saturating_sub(1),
                '>' if depth == 0 => {
                    self.bump(i + 1);
                    return self.next_event();
                }
                _ => {}
            }
        }
        Err(Error::UnexpectedEof {
            context: "DOCTYPE declaration",
        })
    }

    fn parse_pi(&mut self) -> Result<Event> {
        let r = self.rest();
        let end = r.find("?>").ok_or(Error::UnexpectedEof {
            context: "processing instruction",
        })?;
        let body = &r[2..end];
        let consumed = end + 2;
        let (target, data) = match body.find(|c: char| c.is_ascii_whitespace()) {
            Some(sp) => (&body[..sp], body[sp..].trim_start()),
            None => (body, ""),
        };
        if target.eq_ignore_ascii_case("xml") {
            // Re-parse the declaration pseudo-attributes.
            let mut attrs = Vec::new();
            let mut cursor = data;
            let base = self.pos + 2 + (body.len() - data.len());
            while !cursor.trim().is_empty() {
                let consumed_before = data.len() - cursor.len();
                let (attr, rest) = parse_attribute(cursor, base + consumed_before)?;
                attrs.push(attr);
                cursor = rest;
            }
            self.bump(consumed);
            Ok(Event::Declaration { attributes: attrs })
        } else {
            let ev = Event::ProcessingInstruction {
                target: target.to_string(),
                data: data.to_string(),
            };
            self.bump(consumed);
            Ok(ev)
        }
    }

    fn parse_start_tag(&mut self) -> Result<Event> {
        let tag_start = self.pos;
        let r = self.rest();
        debug_assert!(r.starts_with('<'));
        // Find the closing '>' while respecting quoted attribute values.
        let mut in_quote: Option<char> = None;
        let mut gt = None;
        for (i, c) in r.char_indices() {
            match (in_quote, c) {
                (Some(q), _) if c == q => in_quote = None,
                (Some(_), _) => {}
                (None, '"') | (None, '\'') => in_quote = Some(c),
                (None, '>') => {
                    gt = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let gt = gt.ok_or(Error::UnexpectedEof {
            context: "start tag",
        })?;
        let mut inner = &r[1..gt];
        let self_closing = inner.ends_with('/');
        if self_closing {
            inner = &inner[..inner.len() - 1];
        }
        let name_end = inner
            .find(|c: char| c.is_ascii_whitespace())
            .unwrap_or(inner.len());
        let name = &inner[..name_end];
        if !is_name(name) {
            return Err(Error::Syntax {
                message: format!("invalid element name {name:?}"),
                offset: tag_start,
            });
        }
        if self.stack.is_empty() && self.seen_root {
            return Err(Error::Syntax {
                message: format!("second root element <{name}>"),
                offset: tag_start,
            });
        }
        let mut attrs = Vec::new();
        let mut cursor = inner[name_end..].trim_start();
        while !cursor.is_empty() {
            let consumed_before = inner.len() - cursor.len();
            let (attr, rest) = parse_attribute(cursor, tag_start + 1 + consumed_before)?;
            if attrs.iter().any(|a: &Attribute| a.name == attr.name) {
                return Err(Error::Syntax {
                    message: format!("duplicate attribute {:?} on <{name}>", attr.name),
                    offset: tag_start,
                });
            }
            attrs.push(attr);
            cursor = rest.trim_start();
        }
        self.bump(gt + 1);
        self.seen_root = true;
        if self_closing {
            Ok(Event::Empty {
                name: name.to_string(),
                attributes: attrs,
            })
        } else {
            self.stack.push(name.to_string());
            Ok(Event::Start {
                name: name.to_string(),
                attributes: attrs,
            })
        }
    }
}

/// Parse one `name="value"` pair from the front of `s`; return it and the rest.
fn parse_attribute(s: &str, offset: usize) -> Result<(Attribute, &str)> {
    let eq = s.find('=').ok_or(Error::Syntax {
        message: format!("expected '=' in attribute near {:?}", truncate(s, 20)),
        offset,
    })?;
    let name = s[..eq].trim();
    if !is_name(name) {
        return Err(Error::Syntax {
            message: format!("invalid attribute name {name:?}"),
            offset,
        });
    }
    let after = s[eq + 1..].trim_start();
    let quote = after.chars().next().ok_or(Error::UnexpectedEof {
        context: "attribute value",
    })?;
    if quote != '"' && quote != '\'' {
        return Err(Error::Syntax {
            message: format!("attribute value for {name:?} must be quoted"),
            offset,
        });
    }
    let body = &after[1..];
    let close = body.find(quote).ok_or(Error::UnexpectedEof {
        context: "attribute value",
    })?;
    let raw = &body[..close];
    let value = unescape_at(raw, offset)?.into_owned();
    let rest_idx = s.len() - body.len() + close + 1;
    Ok((
        Attribute {
            name: name.to_string(),
            value,
        },
        &s[rest_idx..],
    ))
}

/// Check a (possibly prefixed) XML name.
fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_alphanumeric() || matches!(c, '_' | ':' | '-' | '.'))
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(src: &str) -> Vec<Event> {
        let mut r = Reader::new(src);
        let mut out = Vec::new();
        loop {
            let e = r.next_event().expect("parse");
            if e == Event::Eof {
                break;
            }
            out.push(e);
        }
        out
    }

    #[test]
    fn simple_document() {
        let evs = events(r#"<?xml version="1.0"?><a x="1"><b/>hi</a>"#);
        assert_eq!(
            evs,
            vec![
                Event::Declaration {
                    attributes: vec![Attribute {
                        name: "version".into(),
                        value: "1.0".into()
                    }]
                },
                Event::Start {
                    name: "a".into(),
                    attributes: vec![Attribute {
                        name: "x".into(),
                        value: "1".into()
                    }]
                },
                Event::Empty {
                    name: "b".into(),
                    attributes: vec![]
                },
                Event::Text("hi".into()),
                Event::End { name: "a".into() },
            ]
        );
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let evs = events(r#"<f n="a&lt;b">x &amp; y</f>"#);
        match &evs[0] {
            Event::Start { attributes, .. } => assert_eq!(attributes[0].value, "a<b"),
            other => panic!("{other:?}"),
        }
        assert_eq!(evs[1], Event::Text("x & y".into()));
    }

    #[test]
    fn cdata_not_unescaped() {
        let evs = events("<x><![CDATA[a < b & c]]></x>");
        assert_eq!(evs[1], Event::CData("a < b & c".into()));
    }

    #[test]
    fn comments_and_pis() {
        let evs = events("<x><!-- note --><?tool data here?></x>");
        assert_eq!(evs[1], Event::Comment(" note ".into()));
        assert_eq!(
            evs[2],
            Event::ProcessingInstruction {
                target: "tool".into(),
                data: "data here".into()
            }
        );
    }

    #[test]
    fn doctype_skipped() {
        let evs = events("<!DOCTYPE html [ <!ENTITY x \"y\"> ]><r/>");
        assert_eq!(
            evs,
            vec![Event::Empty {
                name: "r".into(),
                attributes: vec![]
            }]
        );
    }

    #[test]
    fn mismatched_tag_rejected() {
        let mut r = Reader::new("<a><b></a></b>");
        r.next_event().unwrap();
        r.next_event().unwrap();
        assert!(matches!(r.next_event(), Err(Error::MismatchedTag { .. })));
    }

    #[test]
    fn unclosed_element_rejected() {
        let mut r = Reader::new("<a><b></b>");
        r.next_event().unwrap();
        r.next_event().unwrap();
        r.next_event().unwrap();
        assert!(matches!(r.next_event(), Err(Error::UnexpectedEof { .. })));
    }

    #[test]
    fn second_root_rejected() {
        let mut r = Reader::new("<a/><b/>");
        r.next_event().unwrap();
        assert!(r.next_event().is_err());
    }

    #[test]
    fn text_outside_root_rejected() {
        let mut r = Reader::new("junk<a/>");
        assert!(r.next_event().is_err());
    }

    #[test]
    fn whitespace_outside_root_ok() {
        let evs = events("\n  <a/>\n");
        assert!(evs.iter().any(|e| matches!(e, Event::Empty { .. })));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut r = Reader::new(r#"<a x="1" x="2"/>"#);
        assert!(r.next_event().is_err());
    }

    #[test]
    fn unquoted_attribute_rejected() {
        let mut r = Reader::new("<a x=1/>");
        assert!(r.next_event().is_err());
    }

    #[test]
    fn single_quoted_attributes() {
        let evs = events("<a x='it is \"fine\"'/>");
        match &evs[0] {
            Event::Empty { attributes, .. } => {
                assert_eq!(attributes[0].value, "it is \"fine\"")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn gt_inside_attribute_value() {
        let evs = events(r#"<a x="1 > 0"/>"#);
        match &evs[0] {
            Event::Empty { attributes, .. } => assert_eq!(attributes[0].value, "1 > 0"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn namespaced_names_pass_through() {
        let evs = events("<ns:a ns:x=\"v\"></ns:a>");
        match &evs[0] {
            Event::Start { name, attributes } => {
                assert_eq!(name, "ns:a");
                assert_eq!(attributes[0].name, "ns:x");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eof_is_sticky() {
        let mut r = Reader::new("<a/>");
        r.next_event().unwrap();
        assert_eq!(r.next_event().unwrap(), Event::Eof);
        assert_eq!(r.next_event().unwrap(), Event::Eof);
    }
}
