//! Concurrent serving: a writer applies window advances while readers
//! answer batched queries from immutable published snapshots.
//!
//! The consistency model is snapshot isolation by publication: after each
//! advance the writer clones the final-layer embeddings into a fresh
//! immutable [`ServingSnapshot`] and swaps the shared `Arc` under a brief
//! write lock. Readers clone the `Arc` under a read lock and then compute
//! entirely lock-free on frozen data — a query can never observe half of
//! one window and half of the next (no torn reads), which the stress test
//! pins with a per-snapshot digest. Queries run on the PR-2 intra-rank
//! thread pool through the batched `gather_rows`/`matmul` kernels, so a
//! large batch parallelizes without extra plumbing.

use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use dgnn_stream::EdgeEvent;
use dgnn_telemetry::metrics::{Counter, Gauge, Histogram, Registry};
use dgnn_telemetry::trace;
use dgnn_tensor::Dense;

use crate::engine::{link_margins, AdvanceReport, InferenceSession};

/// Query batch-size histogram bounds: powers of two up to 64 Ki rows.
const BATCH_BOUNDS: [f64; 17] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
    16384.0, 32768.0, 65536.0,
];

/// The server's instrument handles, backed by a per-server [`Registry`].
/// Recording is a handful of relaxed atomic ops per request — always on,
/// independent of `DGNN_TRACE` (metrics never touch the numeric path).
struct ServeMetrics {
    registry: Registry,
    requests: Counter,
    request_us: Histogram,
    batch_rows: Histogram,
    advances: Counter,
    advance_us: Histogram,
    touched_rows: Counter,
    snapshot_version: Gauge,
    snapshot_age_us: Gauge,
}

impl ServeMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        Self {
            requests: registry.counter("serve_requests_total"),
            request_us: registry.histogram("serve_request_us"),
            batch_rows: registry.histogram_with("serve_batch_rows", &BATCH_BOUNDS),
            advances: registry.counter("serve_advances_total"),
            advance_us: registry.histogram("serve_advance_us"),
            touched_rows: registry.counter("serve_touched_rows_total"),
            snapshot_version: registry.gauge("serve_snapshot_version"),
            snapshot_age_us: registry.gauge("serve_snapshot_age_us"),
            registry,
        }
    }

    fn observe_request(&self, rows: usize, started: Instant) {
        self.requests.inc();
        self.batch_rows.observe(rows as f64);
        self.request_us
            .observe(started.elapsed().as_secs_f64() * 1e6);
    }
}

/// One immutable published state of the serving model.
#[derive(Clone, Debug)]
pub struct ServingSnapshot {
    /// Monotone snapshot version (one per advance).
    pub version: u64,
    /// Event clock of the underlying graph at publication.
    pub clock: u64,
    /// Final-layer embeddings (`N × emb`).
    pub embeddings: Dense,
    head_u: Dense,
    head_b: Dense,
    /// Digest over `(version, clock, embedding bits)`, written at
    /// publication; readers recompute it to prove they saw one coherent
    /// snapshot.
    pub digest: u64,
}

/// FNV-1a over the version, clock, and every embedding bit pattern.
pub fn snapshot_digest(version: u64, clock: u64, embeddings: &Dense) -> u64 {
    let mut h = dgnn_tensor::digest::Fnv1a::new();
    h.eat_u64(version);
    h.eat_u64(clock);
    h.eat_u64(embeddings.rows() as u64);
    h.eat_u64(embeddings.cols() as u64);
    for &v in embeddings.data() {
        h.eat_u64(u64::from(v.to_bits()));
    }
    h.finish()
}

impl ServingSnapshot {
    /// Recomputes the digest from the carried data (consistency probe).
    pub fn recompute_digest(&self) -> u64 {
        snapshot_digest(self.version, self.clock, &self.embeddings)
    }

    /// Batched node-embedding lookup against this frozen snapshot.
    pub fn predict_nodes(&self, nodes: &[u32]) -> Dense {
        self.embeddings.gather_rows(nodes)
    }

    /// Batched link scoring against this frozen snapshot.
    pub fn score_links(&self, pairs: &[(u32, u32)]) -> Vec<f32> {
        link_margins(&self.head_u, &self.head_b, &self.embeddings, pairs)
    }
}

/// A shareable serving endpoint: one writer mutates the session, any
/// number of readers query published snapshots.
pub struct InferenceServer {
    session: Mutex<InferenceSession>,
    published: RwLock<Arc<ServingSnapshot>>,
    metrics: ServeMetrics,
    /// When the current snapshot was published (for the age gauge).
    published_at: Mutex<Instant>,
}

impl InferenceServer {
    /// Wraps a session, publishing its current state as version 0 (or
    /// whatever the session has advanced to).
    pub fn new(session: InferenceSession) -> Self {
        let snapshot = Arc::new(Self::snapshot_of(&session));
        let metrics = ServeMetrics::new();
        metrics.snapshot_version.set(snapshot.version as f64);
        Self {
            session: Mutex::new(session),
            published: RwLock::new(snapshot),
            metrics,
            published_at: Mutex::new(Instant::now()),
        }
    }

    fn snapshot_of(session: &InferenceSession) -> ServingSnapshot {
        let embeddings = session.embeddings().clone();
        let (head_u, head_b) = session.head();
        let version = session.version();
        let clock = session.graph().clock();
        let digest = snapshot_digest(version, clock, &embeddings);
        ServingSnapshot {
            version,
            clock,
            embeddings,
            head_u: head_u.clone(),
            head_b: head_b.clone(),
            digest,
        }
    }

    /// The latest published snapshot. Cheap: clones an `Arc` under a read
    /// lock held for the duration of the clone only.
    pub fn snapshot(&self) -> Arc<ServingSnapshot> {
        Arc::clone(&self.published.read().expect("published lock poisoned"))
    }

    /// Ingests a window of events, advances the session incrementally, and
    /// publishes the new snapshot. Serialized across callers by the writer
    /// lock; readers are never blocked for longer than the `Arc` swap.
    pub fn ingest_and_advance(&self, events: &[EdgeEvent]) -> AdvanceReport {
        let started = Instant::now();
        let span = trace::span_cat("serve_advance", "serve");
        let mut session = self.session.lock().expect("session lock poisoned");
        session.ingest(events);
        let report = session.advance();
        let snapshot = Arc::new(Self::snapshot_of(&session));
        // Publish while still holding the writer lock, so versions are
        // published in order.
        *self.published.write().expect("published lock poisoned") = snapshot;
        *self.published_at.lock().expect("publish clock poisoned") = Instant::now();
        drop(span);
        self.metrics.advances.inc();
        self.metrics
            .advance_us
            .observe(started.elapsed().as_secs_f64() * 1e6);
        self.metrics.touched_rows.add(report.touched as u64);
        self.metrics.snapshot_version.set(report.version as f64);
        report
    }

    /// Convenience: batched node lookup on the latest snapshot.
    pub fn predict_nodes(&self, nodes: &[u32]) -> (Dense, u64) {
        let started = Instant::now();
        let snap = self.snapshot();
        let out = snap.predict_nodes(nodes);
        self.metrics.observe_request(nodes.len(), started);
        (out, snap.version)
    }

    /// Convenience: batched link scoring on the latest snapshot.
    pub fn score_links(&self, pairs: &[(u32, u32)]) -> (Vec<f32>, u64) {
        let started = Instant::now();
        let snap = self.snapshot();
        let out = snap.score_links(pairs);
        self.metrics.observe_request(pairs.len(), started);
        (out, snap.version)
    }

    /// Prometheus-style text exposition of the server's metrics: request
    /// latency and batch-size histograms (with p50/p99/p999 quantile
    /// lines), advance latency, touched-row and request counters, and the
    /// published snapshot's version and age.
    pub fn metrics_exposition(&self) -> String {
        let age = self
            .published_at
            .lock()
            .expect("publish clock poisoned")
            .elapsed();
        self.metrics.snapshot_age_us.set(age.as_secs_f64() * 1e6);
        self.metrics.registry.expose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::tiny_session;

    fn feats(n: usize, f: usize) -> Dense {
        Dense::from_fn(n, f, |r, c| ((r * 7 + c) % 5) as f32 / 5.0)
    }

    #[test]
    fn publishes_versions_in_order_with_valid_digests() {
        let server = InferenceServer::new(tiny_session(3, feats(8, 2)));
        assert_eq!(server.snapshot().version, 0);
        assert_eq!(
            server.snapshot().recompute_digest(),
            server.snapshot().digest
        );
        let r1 = server.ingest_and_advance(&[EdgeEvent::add(0, 0, 1, 1.0)]);
        let r2 = server.ingest_and_advance(&[EdgeEvent::add(1, 2, 3, 1.0)]);
        assert_eq!((r1.version, r2.version), (1, 2));
        let snap = server.snapshot();
        assert_eq!(snap.version, 2);
        assert_eq!(snap.recompute_digest(), snap.digest);
    }

    #[test]
    fn snapshot_queries_match_session_queries() {
        let session = {
            let mut s = tiny_session(3, feats(6, 2));
            s.ingest(&[EdgeEvent::add(0, 0, 1, 1.0), EdgeEvent::add(0, 4, 5, 2.0)]);
            s.advance();
            s
        };
        let expect_nodes = session.predict_nodes(&[0, 1, 5]);
        let expect_scores = session.score_links(&[(0, 1), (2, 3)]);
        let server = InferenceServer::new(session);
        let (nodes, v1) = server.predict_nodes(&[0, 1, 5]);
        let (scores, v2) = server.score_links(&[(0, 1), (2, 3)]);
        assert_eq!((v1, v2), (1, 1));
        assert_eq!(nodes, expect_nodes);
        assert_eq!(
            scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            expect_scores
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn metrics_exposition_reports_requests_and_snapshot_state() {
        let server = InferenceServer::new(tiny_session(3, feats(8, 2)));
        server.ingest_and_advance(&[EdgeEvent::add(0, 0, 1, 1.0)]);
        server.predict_nodes(&[0, 1, 2]);
        server.score_links(&[(0, 1)]);
        let text = server.metrics_exposition();
        assert!(text.contains("# TYPE serve_request_us histogram"), "{text}");
        assert!(text.contains("serve_request_us_count 2"), "{text}");
        for q in ["0.5", "0.99", "0.999"] {
            assert!(
                text.contains(&format!("serve_request_us{{quantile=\"{q}\"}}")),
                "missing p{q} line in:\n{text}"
            );
        }
        assert!(text.contains("serve_requests_total 2"), "{text}");
        assert!(text.contains("serve_advances_total 1"), "{text}");
        assert!(text.contains("serve_snapshot_version 1"), "{text}");
        // Batch rows: 3 + 1 = two observations summing to 4.
        assert!(text.contains("serve_batch_rows_count 2"), "{text}");
        assert!(text.contains("serve_batch_rows_sum 4"), "{text}");
    }

    #[test]
    fn old_snapshots_stay_frozen_across_advances() {
        let server = InferenceServer::new(tiny_session(3, feats(6, 2)));
        let old = server.snapshot();
        let old_digest = old.digest;
        server.ingest_and_advance(&[EdgeEvent::add(0, 0, 1, 1.0)]);
        // The handle we took before the advance is untouched.
        assert_eq!(old.version, 0);
        assert_eq!(old.recompute_digest(), old_digest);
        assert_ne!(server.snapshot().version, old.version);
    }
}
