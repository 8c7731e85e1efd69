//! Job-side publishing: how a running job hands its session diffs to the
//! daemon.
//!
//! Two transports behind one [`Publisher`] trait:
//! * [`LocalPublisher`] — same-process delivery straight into the
//!   daemon's aggregator (a simulated job and its daemon sharing one OS
//!   process, the common test/bench topology);
//! * [`TcpPublisher`] — NDJSON lines over the daemon's ingest socket,
//!   the cross-process path real jobs would use.
//!
//! [`ServeSink`] sits on top: it carries the job id, numbers each rank's
//! sessions, and also implements [`probe::ProbeSink`] so it can ride the
//! probe spine for cheap *live* op/byte gauges between session
//! publications. The `ProbeSink` impl is called on sim threads at flush
//! points and therefore only touches its own atomics — no locks, no
//! syscalls, no blocking (publishing itself happens from whatever thread
//! calls [`ServeSink::publish_session`], never from `on_events`).

use std::collections::HashMap;
use std::io::{BufWriter, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use probe::{EventKind, IoEvent, ProbeSink};
use tfdarshan::wire::SessionDiffMsg;
use tfdarshan::{JobCtx, RankSession};

use crate::daemon::ServeService;

/// A destination for session-diff messages.
pub trait Publisher: Send + Sync {
    /// Deliver one message. Errors are transport failures; the daemon
    /// dropping the message under backpressure is *not* an error (the
    /// daemon counts it).
    fn publish(&self, msg: &SessionDiffMsg) -> std::io::Result<()>;
}

/// In-process delivery into a daemon's aggregation service.
pub struct LocalPublisher {
    service: Arc<ServeService>,
}

impl LocalPublisher {
    /// Publish into `service`.
    pub fn new(service: Arc<ServeService>) -> Self {
        LocalPublisher { service }
    }
}

impl Publisher for LocalPublisher {
    fn publish(&self, msg: &SessionDiffMsg) -> std::io::Result<()> {
        self.service.offer(msg.clone());
        Ok(())
    }
}

/// NDJSON-over-TCP delivery to a daemon's ingest socket. Connects lazily
/// on first publish and retries the connection once per publish after a
/// failure (a daemon restart shows up as one lost message window, not a
/// wedged publisher).
pub struct TcpPublisher {
    addr: SocketAddr,
    conn: Mutex<Option<BufWriter<TcpStream>>>,
}

impl TcpPublisher {
    /// Publish to the ingest socket at `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        TcpPublisher {
            addr,
            conn: Mutex::new(None),
        }
    }

    fn send_line(&self, line: &str) -> std::io::Result<()> {
        let mut guard = self.conn.lock();
        if guard.is_none() {
            *guard = Some(BufWriter::new(TcpStream::connect(self.addr)?));
        }
        let w = guard.as_mut().expect("connected above");
        let wrote = w
            .write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .and_then(|()| w.flush());
        if wrote.is_err() {
            // Drop the dead connection; the next publish reconnects.
            *guard = None;
        }
        wrote
    }
}

impl Publisher for TcpPublisher {
    fn publish(&self, msg: &SessionDiffMsg) -> std::io::Result<()> {
        let line = msg.to_line();
        match self.send_line(&line) {
            Ok(()) => Ok(()),
            // One reconnect attempt per publish.
            Err(_) => self.send_line(&line),
        }
    }
}

/// Live op/byte counters folded straight off the probe spine.
#[derive(Debug, Default)]
pub struct LiveCounters {
    /// POSIX reads observed.
    pub reads: AtomicU64,
    /// POSIX writes observed.
    pub writes: AtomicU64,
    /// Bytes read.
    pub bytes_read: AtomicU64,
    /// Bytes written.
    pub bytes_written: AtomicU64,
    /// Opens observed.
    pub opens: AtomicU64,
}

/// The job-side adapter: owns the job id, per-rank sequence numbers, and
/// the transport; optionally rides the probe spine for live gauges.
pub struct ServeSink {
    job: String,
    publisher: Arc<dyn Publisher>,
    seqs: Mutex<HashMap<u32, u64>>,
    live: LiveCounters,
    publish_errors: AtomicU64,
}

impl ServeSink {
    /// A sink publishing job `job` through `publisher`.
    pub fn new(job: impl Into<String>, publisher: Arc<dyn Publisher>) -> Self {
        ServeSink {
            job: job.into(),
            publisher,
            seqs: Mutex::new(HashMap::new()),
            live: LiveCounters::default(),
            publish_errors: AtomicU64::new(0),
        }
    }

    /// The job id this sink publishes under.
    pub fn job(&self) -> &str {
        &self.job
    }

    /// Live spine-derived counters (only advance while the sink is
    /// registered on a probe bus).
    pub fn live(&self) -> &LiveCounters {
        &self.live
    }

    /// Transport failures seen so far (daemon-side drops are not
    /// errors and are counted by the daemon instead).
    pub fn publish_errors(&self) -> u64 {
        self.publish_errors.load(Ordering::Relaxed)
    }

    /// Publish one extracted session, assigning the rank's next sequence
    /// number. Returns the message actually sent (tests compare it
    /// against the daemon's rollup).
    pub fn publish_session(&self, session: &RankSession) -> SessionDiffMsg {
        let seq = {
            let mut seqs = self.seqs.lock();
            let s = seqs.entry(session.rank).or_insert(0);
            let cur = *s;
            *s += 1;
            cur
        };
        let msg = SessionDiffMsg::from_session(&self.job, seq, session);
        if self.publisher.publish(&msg).is_err() {
            self.publish_errors.fetch_add(1, Ordering::Relaxed);
        }
        msg
    }

    /// Extract and publish the current session of every rank of `job`
    /// that has one. Returns the published messages.
    pub fn publish_job(&self, job: &JobCtx) -> Vec<SessionDiffMsg> {
        job.ranks()
            .iter()
            .filter_map(|rank| rank.session())
            .map(|session| self.publish_session(&session))
            .collect()
    }
}

impl ProbeSink for ServeSink {
    fn on_events(&self, events: &[IoEvent]) {
        // Sim-thread context: own atomics only, relaxed is fine — these
        // are monotone gauges, not synchronization.
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut br = 0u64;
        let mut bw = 0u64;
        let mut opens = 0u64;
        for e in events {
            match e.kind {
                EventKind::Read { len, .. } => {
                    reads += 1;
                    br += len;
                }
                EventKind::Write { len, .. } => {
                    writes += 1;
                    bw += len;
                }
                EventKind::Open { .. } => opens += 1,
                _ => {}
            }
        }
        if reads > 0 {
            self.live.reads.fetch_add(reads, Ordering::Relaxed);
            self.live.bytes_read.fetch_add(br, Ordering::Relaxed);
        }
        if writes > 0 {
            self.live.writes.fetch_add(writes, Ordering::Relaxed);
            self.live.bytes_written.fetch_add(bw, Ordering::Relaxed);
        }
        if opens > 0 {
            self.live.opens.fetch_add(opens, Ordering::Relaxed);
        }
    }
}
