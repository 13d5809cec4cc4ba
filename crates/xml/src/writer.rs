//! Streaming XML writer.

use crate::error::{Error, Result};
use crate::escape::{escape_attr, escape_text};

/// State of the element the writer is currently inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TagState {
    /// `<name` written, attributes may still be added.
    Open,
    /// The `>` has been written; content may follow.
    HasContent,
    /// Element has child elements (affects pretty-printing of the end tag).
    HasChildElements,
}

/// A streaming writer producing well-formed XML into any `fmt::Write` sink.
///
/// The writer enforces correct usage at runtime: attributes may only be
/// added immediately after [`Writer::begin`], every `begin` must be matched
/// by [`Writer::end`], and [`Writer::finish`] verifies the document is
/// complete.
///
/// Pretty-printing (two-space indent) is on by default; use
/// [`Writer::compact`] for single-line output.
pub struct Writer<'a> {
    out: &'a mut dyn std::fmt::Write,
    stack: Vec<(String, TagState)>,
    pretty: bool,
    wrote_root: bool,
    wrote_decl: bool,
}

impl<'a> Writer<'a> {
    /// Create a pretty-printing writer.
    pub fn new(out: &'a mut dyn std::fmt::Write) -> Self {
        Writer {
            out,
            stack: Vec::new(),
            pretty: true,
            wrote_root: false,
            wrote_decl: false,
        }
    }

    /// Create a writer that emits no insignificant whitespace.
    pub fn compact(out: &'a mut dyn std::fmt::Write) -> Self {
        let mut w = Self::new(out);
        w.pretty = false;
        w
    }

    /// Write the `<?xml version="1.0" encoding="UTF-8"?>` declaration.
    ///
    /// Must be called before any element is begun.
    pub fn declaration(&mut self) -> Result<()> {
        if self.wrote_root || !self.stack.is_empty() {
            return Err(Error::WriterMisuse(
                "declaration must precede the root element",
            ));
        }
        if self.wrote_decl {
            return Err(Error::WriterMisuse("declaration written twice"));
        }
        self.wrote_decl = true;
        self.out
            .write_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>")?;
        if self.pretty {
            self.out.write_char('\n')?;
        }
        Ok(())
    }

    fn close_pending(&mut self, child_is_element: bool) -> Result<()> {
        if let Some((_, state)) = self.stack.last_mut() {
            if *state == TagState::Open {
                self.out.write_char('>')?;
                *state = TagState::HasContent;
            }
            if child_is_element {
                *state = TagState::HasChildElements;
            }
        }
        Ok(())
    }

    fn newline_indent(&mut self) -> Result<()> {
        if self.pretty {
            self.out.write_char('\n')?;
            for _ in 0..self.stack.len() {
                self.out.write_str("  ")?;
            }
        }
        Ok(())
    }

    /// Open an element. Attributes may be added until content is written.
    pub fn begin(&mut self, name: &str) -> Result<()> {
        if self.stack.is_empty() && self.wrote_root {
            return Err(Error::WriterMisuse(
                "document may have only one root element",
            ));
        }
        self.close_pending(true)?;
        if !self.stack.is_empty() {
            self.newline_indent()?;
        }
        write!(self.out, "<{name}")?;
        self.stack.push((name.to_string(), TagState::Open));
        self.wrote_root = true;
        Ok(())
    }

    /// Add an attribute to the most recently begun element.
    pub fn attr(&mut self, name: &str, value: &str) -> Result<()> {
        match self.stack.last() {
            Some((_, TagState::Open)) => {
                write!(self.out, " {name}=\"{}\"", escape_attr(value))?;
                Ok(())
            }
            _ => Err(Error::WriterMisuse(
                "attr() must immediately follow begin() on the same element",
            )),
        }
    }

    /// Add an attribute with a `Display` value (numbers, etc.).
    pub fn attr_fmt(&mut self, name: &str, value: impl std::fmt::Display) -> Result<()> {
        self.attr(name, &value.to_string())
    }

    /// Write escaped character data inside the current element.
    pub fn text(&mut self, text: &str) -> Result<()> {
        if self.stack.is_empty() {
            return Err(Error::WriterMisuse("text outside of any element"));
        }
        self.close_pending(false)?;
        write!(self.out, "{}", escape_text(text))?;
        Ok(())
    }

    /// Write a CDATA section. `]]>` inside the payload is split safely.
    pub fn cdata(&mut self, text: &str) -> Result<()> {
        if self.stack.is_empty() {
            return Err(Error::WriterMisuse("CDATA outside of any element"));
        }
        self.close_pending(false)?;
        // A literal "]]>" cannot appear inside CDATA; split it across sections.
        let escaped = text.replace("]]>", "]]]]><![CDATA[>");
        write!(self.out, "<![CDATA[{escaped}]]>")?;
        Ok(())
    }

    /// Write a comment. `--` in the payload is rewritten to `- -`.
    pub fn comment(&mut self, text: &str) -> Result<()> {
        self.close_pending(true)?;
        if !self.stack.is_empty() {
            self.newline_indent()?;
        }
        let safe = text.replace("--", "- -");
        write!(self.out, "<!--{safe}-->")?;
        Ok(())
    }

    /// Close the most recently opened element.
    pub fn end(&mut self) -> Result<()> {
        let (name, state) = self
            .stack
            .pop()
            .ok_or(Error::WriterMisuse("end() with no open element"))?;
        match state {
            TagState::Open => {
                self.out.write_str("/>")?;
            }
            TagState::HasContent => {
                write!(self.out, "</{name}>")?;
            }
            TagState::HasChildElements => {
                self.newline_indent()?;
                write!(self.out, "</{name}>")?;
            }
        }
        Ok(())
    }

    /// Convenience: `<name>text</name>`.
    pub fn text_element(&mut self, name: &str, text: &str) -> Result<()> {
        self.begin(name)?;
        self.text(text)?;
        self.end()
    }

    /// Verify the document is complete (all elements closed, root written).
    pub fn finish(&mut self) -> Result<()> {
        if !self.stack.is_empty() {
            return Err(Error::WriterMisuse("finish() with unclosed elements"));
        }
        if !self.wrote_root {
            return Err(Error::WriterMisuse("finish() before any root element"));
        }
        if self.pretty {
            self.out.write_char('\n')?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{Event, Reader};

    fn write_sample(pretty: bool) -> String {
        let mut s = String::new();
        let mut w = if pretty {
            Writer::new(&mut s)
        } else {
            Writer::compact(&mut s)
        };
        w.declaration().unwrap();
        w.begin("trial").unwrap();
        w.attr("name", "run<1>").unwrap();
        w.attr_fmt("nodes", 16).unwrap();
        w.begin("event").unwrap();
        w.attr("group", "MPI").unwrap();
        w.text("MPI_Send()").unwrap();
        w.end().unwrap();
        w.begin("empty").unwrap();
        w.end().unwrap();
        w.end().unwrap();
        w.finish().unwrap();
        s
    }

    #[test]
    fn compact_output_exact() {
        assert_eq!(
            write_sample(false),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><trial name=\"run&lt;1&gt;\" nodes=\"16\"><event group=\"MPI\">MPI_Send()</event><empty/></trial>"
        );
    }

    #[test]
    fn pretty_output_parses_back() {
        let s = write_sample(true);
        assert!(s.contains("\n  <event"));
        let mut r = Reader::new(&s);
        let mut names = Vec::new();
        loop {
            match r.next_event().unwrap() {
                Event::Start { name, .. } | Event::Empty { name, .. } => names.push(name),
                Event::Eof => break,
                _ => {}
            }
        }
        assert_eq!(names, ["trial", "event", "empty"]);
    }

    #[test]
    fn attr_after_content_rejected() {
        let mut s = String::new();
        let mut w = Writer::new(&mut s);
        w.begin("a").unwrap();
        w.text("x").unwrap();
        assert!(w.attr("late", "no").is_err());
    }

    #[test]
    fn unbalanced_end_rejected() {
        let mut s = String::new();
        let mut w = Writer::new(&mut s);
        assert!(w.end().is_err());
    }

    #[test]
    fn finish_with_open_element_rejected() {
        let mut s = String::new();
        let mut w = Writer::new(&mut s);
        w.begin("a").unwrap();
        assert!(w.finish().is_err());
    }

    #[test]
    fn two_roots_rejected() {
        let mut s = String::new();
        let mut w = Writer::new(&mut s);
        w.begin("a").unwrap();
        w.end().unwrap();
        assert!(w.begin("b").is_err());
    }

    #[test]
    fn cdata_splitting() {
        let mut s = String::new();
        let mut w = Writer::compact(&mut s);
        w.begin("a").unwrap();
        w.cdata("x ]]> y").unwrap();
        w.end().unwrap();
        // Parse back and reassemble the CDATA pieces.
        let mut r = Reader::new(&s);
        let mut text = String::new();
        loop {
            match r.next_event().unwrap() {
                Event::CData(c) => text.push_str(&c),
                Event::Eof => break,
                _ => {}
            }
        }
        assert_eq!(text, "x ]]> y");
    }

    #[test]
    fn declaration_must_be_first() {
        let mut s = String::new();
        let mut w = Writer::new(&mut s);
        w.begin("a").unwrap();
        w.end().unwrap();
        assert!(w.declaration().is_err());
    }
}
