//! # perfdmf-xml
//!
//! A small, dependency-free XML library used by PerfDMF for its common
//! profile XML exchange format and for importing PerfSuite (`psrun`) XML
//! profiles.
//!
//! The library provides:
//!
//! * [`Reader`] — a streaming pull parser producing [`Event`]s
//!   (start/end/empty elements, text, CDATA, comments, processing
//!   instructions, and the XML declaration).
//! * [`Writer`] — a streaming writer with optional pretty-printing that
//!   guarantees well-formed output (balanced elements, escaped content).
//! * [`Element`] — a convenience DOM built on top of the pull parser for
//!   small documents where random access is more ergonomic than streaming.
//!
//! The parser is intentionally a *practical* XML subset: namespaces are
//! surfaced as plain prefixed names, DTDs are skipped rather than processed,
//! and only the five predefined entities plus numeric character references
//! are resolved. This matches what performance-tool XML (psrun output, the
//! PerfDMF exchange format) actually uses.
//!
//! ## Example
//!
//! ```
//! use perfdmf_xml::{Element, Writer};
//!
//! let mut out = String::new();
//! let mut w = Writer::new(&mut out);
//! w.begin("profile").unwrap();
//! w.attr("tool", "tau").unwrap();
//! w.text_element("event", "MPI_Send()").unwrap();
//! w.end().unwrap();
//! w.finish().unwrap();
//!
//! let doc = Element::parse(&out).unwrap();
//! assert_eq!(doc.name, "profile");
//! assert_eq!(doc.attr("tool"), Some("tau"));
//! assert_eq!(doc.child("event").unwrap().text(), "MPI_Send()");
//! ```

#![warn(unreachable_pub)]

mod dom;
mod error;
mod escape;
mod reader;
mod writer;

pub use dom::Element;
pub use error::{Error, Result};
pub use escape::{escape_attr, escape_text, unescape};
pub use reader::{Attribute, Event, Reader};
pub use writer::Writer;
