//! The PerfExplorer client handle.

use crate::protocol::{Request, Response};
use crate::server::{AnalysisServer, Job};
use crossbeam::channel::{bounded, Sender, TrySendError};
use perfdmf_telemetry as telemetry;
use std::time::{Duration, Instant};

/// How the network client (`perfdmf_server::NetClient`) retries
/// requests that fail transiently.
///
/// Retries apply to [`Response::Overloaded`] (the queue was full) and to
/// [`Response::Failed`] with `retryable: true` (a deadline expired in
/// the queue, or the transport dropped mid-request). Deterministic
/// failures — panics, analysis errors — are returned immediately. Delay
/// doubles after each attempt, capped at `max_delay`, plus a jitter term
/// of up to `jitter` so simultaneous retriers don't re-collide in
/// lockstep.
///
/// The jitter is **seed-deterministic**: it is a pure function of
/// `(seed, key, attempt)`, where the seed is the fixed `RETRY_SEED`
/// and `key` is the network client's per-exchange nonce (not the
/// idempotency key: reads have none). A chaos-test failure therefore
/// replays with exactly the same backoff schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = no retries).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Upper bound on the per-attempt exponential delay (jitter rides
    /// on top).
    pub max_delay: Duration,
    /// Upper bound on the additive per-attempt jitter.
    pub jitter: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            jitter: Duration::from_millis(10),
        }
    }
}

/// The jitter seed.
const RETRY_SEED: u64 = 0x5045_5246_444D_4601;

impl RetryPolicy {
    /// No retries at all: every failure is returned to the caller.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter: Duration::ZERO,
        }
    }

    /// Backoff before retry attempt `n` (0-based) of the request
    /// identified by `key`: `base_delay` doubling per attempt and
    /// saturating at `max_delay`, plus a deterministic jitter in
    /// `[0, jitter]` drawn from `(seed, key, attempt)`.
    pub fn delay(&self, attempt: u32, key: u64) -> Duration {
        self.delay_seeded(attempt, key, RETRY_SEED)
    }

    /// [`RetryPolicy::delay`] with an explicit seed (tests).
    pub(crate) fn delay_seeded(&self, attempt: u32, key: u64, seed: u64) -> Duration {
        let factor = 1u32 << attempt.min(16);
        let exp = (self.base_delay * factor).min(self.max_delay);
        let jitter_ns = self.jitter.as_nanos().min(u64::MAX as u128) as u64;
        if jitter_ns == 0 {
            return exp;
        }
        // One SplitMix64 draw, the generator the fault seams use too.
        let state = seed ^ key.rotate_left(17) ^ (u64::from(attempt) << 1);
        let draw = telemetry::mix64(state.wrapping_add(telemetry::GOLDEN_GAMMA));
        exp + Duration::from_nanos(draw % (jitter_ns + 1))
    }
}

/// The reply to a call whose `deadline` lapsed before any response
/// arrived: a retryable [`Response::Failed`] tagged with the caller's
/// trace, counted in `explorer.timeouts`. The network server's event
/// loop answers an expired wait with it.
pub fn deadline_timeout(deadline: Duration, trace_id: Option<u64>) -> Response {
    telemetry::add("explorer.timeouts", 1);
    let trace_tag = trace_id
        .map(|t| format!(" [trace {t:016x}]"))
        .unwrap_or_default();
    Response::Failed {
        reason: format!("no response within {deadline:?}{trace_tag}"),
        retryable: true,
    }
}

/// A client connected to an [`AnalysisServer`].
///
/// Cheap to clone; requests from multiple clients are served concurrently
/// by the server's worker pool.
#[derive(Clone)]
pub struct ExplorerClient {
    tx: Sender<Job>,
}

impl ExplorerClient {
    /// Connect to a server.
    pub fn connect(server: &AnalysisServer) -> ExplorerClient {
        ExplorerClient {
            tx: server.sender(),
        }
    }

    /// Send a request and block for the response.
    ///
    /// The submission never blocks: if the server's bounded queue is
    /// full the request is shed and [`Response::Overloaded`] returned.
    /// The wait for the reply is unbounded, but every accepted request
    /// is answered — workers reply even when the handler panics — so
    /// this cannot hang on a live server.
    pub fn request(&self, request: Request) -> Response {
        match self.submit(request, None) {
            Ok(rrx) => rrx
                .recv()
                .unwrap_or_else(|_| Response::Error("analysis server dropped the request".into())),
            Err(shed) => shed,
        }
    }

    /// Send a request with a deadline covering both queue time and the
    /// wait for the reply.
    ///
    /// Workers discard requests whose deadline passed while queued
    /// (returning a retryable [`Response::Failed`]); if no reply arrives
    /// by the deadline the client stops waiting and returns a retryable
    /// [`Response::Failed`] itself, so the call returns within roughly
    /// `deadline` even if the server stalls. Only tests call it; the
    /// network server waits from its event loop.
    #[cfg(test)]
    pub(crate) fn request_with_deadline(&self, request: Request, deadline: Duration) -> Response {
        match self.submit(request, Some(Instant::now() + deadline)) {
            Ok(rrx) => match rrx.recv_timeout(deadline) {
                Ok(response) => response,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    deadline_timeout(deadline, telemetry::trace::current_trace_id().map(|t| t.0))
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    Response::Error("analysis server dropped the request".into())
                }
            },
            Err(shed) => shed,
        }
    }

    /// Enqueue a request without blocking. Returns the reply channel on
    /// success, or the shed/error response the caller should return.
    fn submit(
        &self,
        request: Request,
        deadline: Option<Instant>,
    ) -> Result<crossbeam::channel::Receiver<Response>, Response> {
        self.submit_with_notify(request, deadline, None)
    }

    /// Enqueue a request without blocking, registering an optional waker
    /// that the worker invokes right after the reply is sent.
    ///
    /// This is the seam event-driven callers (the `perfdmf-server`
    /// session executor) build on: submit here, park the connection on
    /// readiness, and let the waker poke the event loop when the reply
    /// channel becomes ready — no thread blocks on `recv`. The trace
    /// context and request meter active on the *calling* thread are
    /// captured now, exactly as for the blocking paths.
    pub fn submit_with_notify(
        &self,
        request: Request,
        deadline: Option<Instant>,
        notify: Option<std::sync::Arc<dyn Fn() + Send + Sync>>,
    ) -> Result<crossbeam::channel::Receiver<Response>, Response> {
        let (rtx, rrx) = bounded(1);
        match self.tx.try_send(Job {
            request,
            reply: rtx,
            submitted: Instant::now(),
            deadline,
            trace: telemetry::trace::current_context(),
            meter: telemetry::current_meter(),
            notify,
        }) {
            Ok(()) => Ok(rrx),
            Err(TrySendError::Full(_)) => {
                telemetry::add("explorer.sheds", 1);
                Err(Response::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => {
                Err(Response::Error("analysis server is down".into()))
            }
        }
    }

    /// Convenience: cluster a trial's threads by their per-event time
    /// breakdown of one metric, with automatic k selection.
    pub fn cluster(&self, trial_id: i64, metric: &str, max_k: usize) -> Response {
        self.request(Request::ClusterTrial {
            trial_id,
            features: crate::protocol::FeatureSpace::EventsOfMetric(metric.to_string()),
            k: None,
            max_k,
            pca_components: 0,
            method: crate::protocol::ClusterMethod::KMeans,
        })
    }

    /// Convenience: cluster a trial's threads by their hardware-counter
    /// vectors at one event (the Ahn & Vetter sPPM feature space).
    pub fn cluster_counters(&self, trial_id: i64, event: &str, max_k: usize) -> Response {
        self.request(Request::ClusterTrial {
            trial_id,
            features: crate::protocol::FeatureSpace::MetricsOfEvent(event.to_string()),
            k: None,
            max_k,
            pca_components: 0,
            method: crate::protocol::ClusterMethod::KMeans,
        })
    }

    /// Convenience: hierarchical (dendrogram) clustering of counter
    /// vectors, cut at the silhouette-selected k.
    pub fn cluster_hierarchical(&self, trial_id: i64, event: &str, max_k: usize) -> Response {
        self.request(Request::ClusterTrial {
            trial_id,
            features: crate::protocol::FeatureSpace::MetricsOfEvent(event.to_string()),
            k: None,
            max_k,
            pca_components: 0,
            method: crate::protocol::ClusterMethod::Hierarchical,
        })
    }

    /// Convenience: correlation matrix of a trial's metrics at one event.
    pub fn correlate(&self, trial_id: i64, event: &str) -> Response {
        self.request(Request::CorrelateMetrics {
            trial_id,
            event: event.to_string(),
        })
    }

    /// Convenience: browse a stored result.
    pub fn fetch(&self, settings_id: i64) -> Response {
        self.request(Request::FetchResult { settings_id })
    }

    /// Convenience: server-side speedup study over an experiment's trials.
    pub fn speedup(&self, experiment_id: i64, metric: &str) -> Response {
        self.request(Request::SpeedupStudy {
            experiment_id,
            metric: metric.to_string(),
        })
    }

    /// Convenience: scan an experiment's trial history for regressions.
    pub fn regressions(&self, experiment_id: i64, threshold: f64) -> Response {
        self.request(Request::RegressionScan {
            experiment_id,
            threshold,
        })
    }

    /// Convenience: watchdog-check one trial against its experiment's
    /// archive baseline (all other trials, Chan–Welford combined).
    pub fn watchdog(
        &self,
        experiment_id: i64,
        trial_id: i64,
        metric: &str,
        min_ratio: f64,
    ) -> Response {
        self.request(Request::WatchdogCheck {
            experiment_id,
            trial_id,
            metric: metric.to_string(),
            min_ratio,
        })
    }
}
