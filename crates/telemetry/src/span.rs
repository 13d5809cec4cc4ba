//! Scoped timers.
//!
//! [`span`] starts a timer on the monotonic clock and returns a guard;
//! when the guard drops, the elapsed nanoseconds land in the histogram
//! named after the span. Nesting lives in [`crate::trace`]'s frame
//! stack, which links each span to its parent while tracing is on.

use std::time::Instant;

/// RAII guard for one span; records on drop.
pub struct SpanGuard {
    /// `None` when telemetry was disabled at entry — drop does nothing.
    armed: Option<(&'static str, Instant)>,
    /// Trace span id from [`crate::trace`], 0 when tracing is off.
    trace_span: u64,
}

/// Open a span named `name`. On drop the elapsed time is recorded into
/// histogram `name` (in nanoseconds). With causal tracing on
/// ([`crate::trace::set_tracing`]), the span also gets a trace/span id
/// linked to its parent and lands in the flight recorder on drop.
/// Disabled telemetry makes this a single atomic load.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            armed: None,
            trace_span: 0,
        };
    }
    let trace_span = crate::trace::enter_span(name);
    SpanGuard {
        armed: Some((name, Instant::now())),
        trace_span,
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some((name, start)) = self.armed.take() {
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            crate::trace::exit_span(self.trace_span);
            crate::histogram(name).record(nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{current_context, open_spans, set_tracing};

    #[test]
    fn spans_nest_and_record() {
        let _on = crate::enabled_flag_lock().read();
        {
            let _outer = span("span.test.outer");
            {
                let _inner = span("span.test.inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(crate::histogram("span.test.outer").count(), 0);
        }
        let h = crate::histogram("span.test.inner");
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 1_000_000, "slept 1ms, recorded {}ns", h.sum());
        assert_eq!(crate::histogram("span.test.outer").count(), 1);
    }

    #[test]
    fn out_of_order_drop_keeps_stack_sane() {
        let _g = crate::enabled_flag_lock().write();
        crate::set_enabled(true);
        set_tracing(true);
        let outer = span("span.order.outer");
        let inner = span("span.order.inner");
        let inner_ctx = current_context().unwrap();
        drop(outer);
        let after_outer = current_context();
        drop(inner);
        let left_open = open_spans();
        set_tracing(false);
        assert_eq!(after_outer, Some(inner_ctx));
        assert!(left_open.is_empty(), "{left_open:?}");
    }
}
