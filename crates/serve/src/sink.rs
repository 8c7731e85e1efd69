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
//! [`ServeSink`] sits on top: it carries the job id and numbers each
//! rank's sessions. A job's live op and byte totals between publications
//! come from its Darshan runtime (`DarshanRuntime::totals`).

use std::collections::HashMap;
use std::io::{BufWriter, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
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

/// The job-side adapter: owns the job id, per-rank sequence numbers, and
/// the transport.
pub struct ServeSink {
    job: String,
    publisher: Arc<dyn Publisher>,
    seqs: Mutex<HashMap<u32, u64>>,
    publish_errors: AtomicU64,
}

impl ServeSink {
    /// A sink publishing job `job` through `publisher`.
    pub fn new(job: impl Into<String>, publisher: Arc<dyn Publisher>) -> Self {
        ServeSink {
            job: job.into(),
            publisher,
            seqs: Mutex::new(HashMap::new()),
            publish_errors: AtomicU64::new(0),
        }
    }

    /// The job id this sink publishes under.
    pub fn job(&self) -> &str {
        &self.job
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
