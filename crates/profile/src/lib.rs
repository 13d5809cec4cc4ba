//! # perfdmf-profile
//!
//! The common parallel profile data model at the heart of PerfDMF
//! (paper §3.1): profile data organized by **node, context, thread, metric
//! and event**, with an aggregate measurement recorded for each
//! combination.
//!
//! * [`ThreadId`] — node / context / thread addressing.
//! * [`Metric`], [`IntervalEvent`], [`AtomicEvent`] — the measured things.
//! * [`IntervalData`] — one INTERVAL_LOCATION_PROFILE record (inclusive,
//!   exclusive, percentages, per-call, calls, subroutines) with support
//!   for tool-specific undefined fields.
//! * [`AtomicData`] — one ATOMIC_LOCATION_PROFILE record (count, min, max,
//!   mean, stddev): min/max plus a [`Moments`] accumulator, the one
//!   Welford/Chan implementation behind every mean and stddev.
//! * [`Profile`] — the trial container, with total/mean summaries
//!   (INTERVAL_TOTAL_SUMMARY / INTERVAL_MEAN_SUMMARY), cross-thread event
//!   statistics ([`EventAggregate`] records, which the DBMS builds too),
//!   consistency validation, and dense storage sized for 16K-processor
//!   trials.
//! * [`MetricExpr`] / [`derive_metric`] — derived metrics
//!   (e.g. `FLOPS = PAPI_FP_OPS / TIME`).
//! * `callpath` — TAU callpath (`a => b`) parsing, call-tree
//!   reconstruction, and flat-view aggregation.

#![warn(unreachable_pub)]

mod atomic;
mod callpath;
mod derived;
mod event;
mod interval;
mod profile;
mod thread;

pub use atomic::{AtomicData, Moments};
pub use callpath::{
    build_call_tree, flatten_callpaths, is_callpath, parse_callpath, validate_call_tree, CallNode,
    CALLPATH_SEPARATOR,
};
pub use derived::{derive_metric, DerivedError, MetricExpr};
pub use event::{AtomicEvent, IntervalEvent, Metric};
pub use interval::{IntervalData, UNDEFINED};
pub use profile::{AtomicEventId, EventAggregate, EventId, IntervalField, MetricId, Profile};
pub use thread::ThreadId;
