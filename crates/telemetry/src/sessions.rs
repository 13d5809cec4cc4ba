//! The network-session log of a registry.
//!
//! The network front door (`perfdmf-server`) serves many short-lived
//! client sessions; this module retains one record per session in the
//! served database's registry — live ones updated in place, closed ones
//! kept until evicted — so the population is observable after the fact.
//! [`crate::Registry::sessions`] reads it back, and `perfdmf-db` exposes
//! it as the `perfdmf_sessions` virtual system table, mirroring how
//! [`crate::regressions`] backs `perfdmf_regressions`.
//!
//! The record type lives here rather than in the server crate so the
//! database layer (which cannot depend on the server without a cycle)
//! can materialize it; any subsystem that models sessions may publish
//! into it.

use crate::registry::with_current;

/// Bound on retained session records.
pub(crate) const SESSIONS_CAPACITY: usize = 1024;

/// Lifecycle state of a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SessionState {
    /// Handshake complete; the session is serving requests.
    #[default]
    Active,
    /// The server is draining: the session answers in-flight work but
    /// accepts nothing new.
    Draining,
    /// The session ended (cleanly or not — see `close_reason`).
    Closed,
}

impl SessionState {
    /// Lower-case label used by the system table.
    pub fn as_str(self) -> &'static str {
        match self {
            SessionState::Active => "active",
            SessionState::Draining => "draining",
            SessionState::Closed => "closed",
        }
    }
}

/// One network session, updated in place over its lifetime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionRecord {
    /// Server-assigned session id (unique per process).
    pub id: u64,
    /// Tenant tag the client presented in its handshake.
    pub tenant: String,
    /// Lifecycle state.
    pub state: SessionState,
    /// Requests dispatched on this session.
    pub requests: u64,
    /// Requests shed by admission control (queue full).
    pub sheds: u64,
    /// Requests answered with an error or failure.
    pub errors: u64,
    /// Idempotent retries served from the replay cache.
    pub replays: u64,
    /// Protocol violations observed (bad frames, sequence regressions).
    pub protocol_errors: u64,
    /// Highest statement sequence number seen.
    pub last_seq: u64,
    /// Milliseconds the session has been (or was) connected.
    pub connected_ms: u64,
    /// Why the session closed, when it has (`None` while live).
    pub close_reason: Option<String>,
    /// Trace id of the request currently being served, when tracing is
    /// on and a request is in flight (`None` otherwise).
    pub trace_id: Option<u64>,
    /// Requests currently being served on this session.
    pub requests_inflight: u64,
    /// Whether the handshake presented a session token the server
    /// verified. `false` on an open server (no token configured) —
    /// nothing was checked, so nothing is claimed.
    pub authenticated: bool,
}

impl SessionRecord {
    /// A fresh active record for a newly handshaken session.
    pub fn new(id: u64, tenant: impl Into<String>) -> SessionRecord {
        SessionRecord {
            id,
            tenant: tenant.into(),
            ..Default::default()
        }
    }
}

/// Insert or update the record for `record.id` in the current
/// registry. When the log is full, closed sessions are evicted oldest-id first; live sessions are
/// never evicted to make room (the bound applies to the retained
/// history, not to concurrency).
pub fn upsert(record: SessionRecord) {
    with_current(|registry| {
        let mut sessions = registry.inner.sessions.lock();
        if !sessions.contains_key(&record.id) && sessions.len() >= SESSIONS_CAPACITY {
            if let Some(oldest_closed) = sessions
                .iter()
                .find(|(_, r)| r.state == SessionState::Closed)
                .map(|(&id, _)| id)
            {
                sessions.remove(&oldest_closed);
            }
        }
        sessions.insert(record.id, record);
    });
}

/// Run `f` on the current registry's record of session `id`, if retained.
fn update(id: u64, f: impl FnOnce(&mut SessionRecord)) {
    with_current(|registry| registry.inner.sessions.lock().get_mut(&id).map(f));
}

/// Mark a retained session as having one more request in flight,
/// carrying `trace` (when the request was traced). In-place — no
/// record clone — because it runs on every network request.
pub fn note_request_started(id: u64, trace: Option<u64>) {
    update(id, |r| {
        r.requests_inflight += 1;
        r.trace_id = trace;
    });
}

/// Undo [`note_request_started`] once the request is answered.
pub fn note_request_finished(id: u64) {
    update(id, |r| {
        r.requests_inflight = r.requests_inflight.saturating_sub(1);
        if r.requests_inflight == 0 {
            r.trace_id = None;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn upsert_updates_in_place_and_log_orders_by_id() {
        let registry = Registry::new();
        let _adopted = registry.adopt();
        upsert(SessionRecord::new(2, "b"));
        upsert(SessionRecord::new(1, "a"));
        let mut r = SessionRecord::new(2, "b");
        r.requests = 5;
        r.state = SessionState::Closed;
        r.close_reason = Some("client goodbye".into());
        upsert(r);
        note_request_started(1, Some(9));
        let log = registry.sessions();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].id, 1);
        assert_eq!((log[0].requests_inflight, log[0].trace_id), (1, Some(9)));
        assert_eq!(log[1].requests, 5);
        assert_eq!(log[1].state, SessionState::Closed);
    }

    #[test]
    fn closed_sessions_evict_before_live_ones() {
        let registry = Registry::new();
        let _adopted = registry.adopt();
        // Fill the log with closed sessions, then insert one live
        // session: it takes the oldest closed session's place.
        for id in 0..SESSIONS_CAPACITY as u64 {
            let mut r = SessionRecord::new(id, "old");
            r.state = SessionState::Closed;
            upsert(r);
        }
        upsert(SessionRecord::new(u64::MAX, "live"));
        let log = registry.sessions();
        assert_eq!(log.len(), SESSIONS_CAPACITY);
        assert_eq!(log[0].id, 1, "the oldest closed session was evicted");
        assert_eq!(log[SESSIONS_CAPACITY - 1].id, u64::MAX);
    }
}
