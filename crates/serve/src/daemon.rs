//! The long-running serve daemon: sockets, threads, and routing around
//! the pure [`Aggregator`].
//!
//! Topology:
//! * one **HTTP** listener (`/metrics`, `/jobs`, `/jobs/<id>/report`,
//!   `/jobs/<id>/html`) — one thread per connection, single request,
//!   `Connection: close`;
//! * one **ingest** listener speaking newline-delimited
//!   [`SessionDiffMsg`] JSON — one thread per publisher connection;
//! * one **pump** thread draining tenant queues into the rollups on a
//!   short period.
//!
//! All aggregation state sits behind one mutex ([`ServeService`]); socket
//! threads hold it only long enough to enqueue a message or render a
//! response. Read endpoints drain pending queues first so a scrape
//! always reflects every message the daemon has *accepted* — drops only
//! ever happen at enqueue time, when a tenant outruns its queue bound.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use tfdarshan::html_escape;
use tfdarshan::wire::SessionDiffMsg;
use tfdarshan::TfDarshanReport;

use crate::aggregator::{Aggregator, AggregatorConfig, Enqueue, FleetStats, Footprint};
use crate::http::{http_get, percent_decode, read_request, respond, Request};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Aggregation-core knobs.
    pub aggregator: AggregatorConfig,
    /// Pump-thread period. Short: the pump is O(queued), and queues are
    /// bounded.
    pub pump_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            aggregator: AggregatorConfig::default(),
            pump_interval: Duration::from_millis(1),
        }
    }
}

/// One row of the `/jobs` listing.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobSummary {
    /// Job id.
    pub job: String,
    /// Sessions applied.
    pub sessions: u64,
    /// Distinct ranks seen.
    pub ranks: u64,
    /// Bytes read so far.
    pub bytes_read: u64,
    /// Bytes written so far.
    pub bytes_written: u64,
    /// Diffs dropped for this tenant by backpressure.
    pub dropped: u64,
    /// Sequence gaps observed in the stream.
    pub seq_gaps: u64,
}

/// The `/jobs` response body.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobsListing {
    /// Live tenants, sorted by id.
    pub jobs: Vec<JobSummary>,
}

/// Thread-safe facade over the aggregation core — what publishers and
/// endpoint handlers share.
pub struct ServeService {
    agg: Mutex<Aggregator>,
    parse_errors: AtomicU64,
}

impl ServeService {
    /// A fresh service.
    pub fn new(cfg: AggregatorConfig) -> Self {
        ServeService {
            agg: Mutex::new(Aggregator::new(cfg)),
            parse_errors: AtomicU64::new(0),
        }
    }

    /// Offer one message to the ingest queue (no draining — the pump or
    /// the next read endpoint applies it).
    pub fn offer(&self, msg: SessionDiffMsg) -> Enqueue {
        self.agg.lock().enqueue(msg)
    }

    /// One bounded pump round. Returns messages applied.
    pub fn pump(&self) -> usize {
        self.agg.lock().pump()
    }

    /// NDJSON lines that failed to parse on the ingest socket.
    pub fn parse_errors(&self) -> u64 {
        self.parse_errors.load(Ordering::Relaxed)
    }

    fn note_parse_error(&self) {
        self.parse_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Render the Prometheus exposition (drains pending queues first).
    pub fn metrics(&self) -> String {
        let mut agg = self.agg.lock();
        agg.pump_to_empty();
        let mut out = agg.render_metrics();
        out.push_str(
            "# HELP tfdarshan_ingest_parse_errors_total NDJSON lines that failed to parse.\n",
        );
        out.push_str("# TYPE tfdarshan_ingest_parse_errors_total counter\n");
        out.push_str(&format!(
            "tfdarshan_ingest_parse_errors_total {}\n",
            self.parse_errors()
        ));
        out
    }

    /// The `/jobs` listing.
    pub fn jobs(&self) -> JobsListing {
        let mut agg = self.agg.lock();
        agg.pump_to_empty();
        let jobs = agg
            .job_ids()
            .into_iter()
            .filter_map(|id| {
                agg.job(&id).map(|a| JobSummary {
                    job: id.clone(),
                    sessions: a.sessions,
                    ranks: a.ranks.len() as u64,
                    bytes_read: a.io.bytes_read,
                    bytes_written: a.io.bytes_written,
                    dropped: a.dropped,
                    seq_gaps: a.seq_gaps,
                })
            })
            .collect();
        JobsListing { jobs }
    }

    /// A tenant's rolled-up report, if live.
    pub fn job_report(&self, id: &str) -> Option<TfDarshanReport> {
        let mut agg = self.agg.lock();
        agg.pump_to_empty();
        agg.job(id).map(|a| a.report())
    }

    /// The live HTML page for a tenant: the standard report page with a
    /// job heading. Both the heading and everything job-supplied inside
    /// the report go through [`html_escape`].
    pub fn job_html(&self, id: &str) -> Option<String> {
        let report = self.job_report(id)?;
        let page = report.render_html();
        let heading = format!(
            "<body>\n<p><b>live job:</b> <code>{}</code></p>",
            html_escape(id)
        );
        Some(if page.contains("<body>") {
            page.replacen("<body>", &heading, 1)
        } else {
            format!("{heading}\n{page}")
        })
    }

    /// Fleet-wide counters.
    pub fn fleet(&self) -> FleetStats {
        self.agg.lock().fleet()
    }

    /// Countable memory footprint (flood tests bound this).
    pub fn footprint(&self) -> Footprint {
        self.agg.lock().footprint()
    }
}

/// A running daemon: both listeners plus the pump thread. Shuts down on
/// drop (or explicitly via [`ServeDaemon::shutdown`]).
pub struct ServeDaemon {
    service: Arc<ServeService>,
    http_addr: SocketAddr,
    ingest_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ServeDaemon {
    /// Bind both listeners on ephemeral localhost ports and start the
    /// accept and pump threads.
    pub fn start(cfg: ServeConfig) -> std::io::Result<ServeDaemon> {
        let service = Arc::new(ServeService::new(cfg.aggregator.clone()));
        let stop = Arc::new(AtomicBool::new(false));

        let http = TcpListener::bind("127.0.0.1:0")?;
        let ingest = TcpListener::bind("127.0.0.1:0")?;
        let http_addr = http.local_addr()?;
        let ingest_addr = ingest.local_addr()?;

        let mut threads = Vec::new();
        {
            let (service, stop) = (service.clone(), stop.clone());
            threads.push(std::thread::spawn(move || {
                accept_loop(http, stop, move |stream| {
                    let service = service.clone();
                    std::thread::spawn(move || handle_http(stream, &service));
                })
            }));
        }
        {
            let (service, stop) = (service.clone(), stop.clone());
            threads.push(std::thread::spawn(move || {
                accept_loop(ingest, stop, move |stream| {
                    let service = service.clone();
                    std::thread::spawn(move || handle_ingest(stream, &service));
                })
            }));
        }
        {
            let (service, stop) = (service.clone(), stop.clone());
            let interval = cfg.pump_interval;
            threads.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    service.pump();
                    // Host daemon thread ticking in real time, not sim code.
                    // simlint: allow(host-sleep)
                    std::thread::sleep(interval);
                }
            }));
        }

        Ok(ServeDaemon {
            service,
            http_addr,
            ingest_addr,
            stop,
            threads,
        })
    }

    /// The shared aggregation service (for in-process publishers).
    pub fn service(&self) -> Arc<ServeService> {
        self.service.clone()
    }

    /// Address of the HTTP endpoint.
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// Address of the NDJSON ingest socket.
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// Convenience: GET a path off this daemon's HTTP endpoint.
    pub fn get(&self, path: &str) -> std::io::Result<(u32, String)> {
        http_get(self.http_addr, path)
    }

    /// Stop both listeners and the pump thread, then join them.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loops with one throwaway connection each.
        let _ = TcpStream::connect(self.http_addr);
        let _ = TcpStream::connect(self.ingest_addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServeDaemon {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn accept_loop(listener: TcpListener, stop: Arc<AtomicBool>, mut spawn: impl FnMut(TcpStream)) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                spawn(stream);
            }
            Err(_) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

fn handle_ingest(stream: TcpStream, service: &ServeService) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        match reader.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        // A line that is not UTF-8 is one bad message, not a dead publisher.
        let Ok(text) = std::str::from_utf8(&line) else {
            service.note_parse_error();
            continue;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        match SessionDiffMsg::from_line(trimmed) {
            Ok(msg) => {
                service.offer(msg);
            }
            Err(_) => service.note_parse_error(),
        }
    }
}

fn handle_http(mut stream: TcpStream, service: &ServeService) {
    let Some(Request { method, path }) = read_request(&mut stream) else {
        respond(&mut stream, 400, "text/plain", "bad request\n");
        return;
    };
    if method != "GET" {
        respond(&mut stream, 405, "text/plain", "GET only\n");
        return;
    }
    match route(&path) {
        Route::Index => respond(
            &mut stream,
            200,
            "text/plain; charset=utf-8",
            "tf-darshan serve daemon\nendpoints: /metrics /jobs /jobs/<id>/report /jobs/<id>/html\n",
        ),
        Route::Metrics => {
            let body = service.metrics();
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        Route::Jobs => {
            let body = serde_json::to_string_pretty(&service.jobs())
                .unwrap_or_else(|_| "{\"jobs\":[]}".to_string());
            respond(&mut stream, 200, "application/json", &body);
        }
        Route::JobReport(id) => match service.job_report(&id) {
            Some(r) => respond(&mut stream, 200, "application/json", &r.to_json()),
            None => respond(&mut stream, 404, "text/plain", "no such job\n"),
        },
        Route::JobHtml(id) => match service.job_html(&id) {
            Some(page) => respond(&mut stream, 200, "text/html; charset=utf-8", &page),
            None => respond(&mut stream, 404, "text/plain", "no such job\n"),
        },
        Route::NotFound => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

enum Route {
    Index,
    Metrics,
    Jobs,
    JobReport(String),
    JobHtml(String),
    NotFound,
}

fn route(path: &str) -> Route {
    match path {
        "/" => Route::Index,
        "/metrics" => Route::Metrics,
        "/jobs" => Route::Jobs,
        _ => {
            if let Some(rest) = path.strip_prefix("/jobs/") {
                if let Some((id, verb)) = rest.rsplit_once('/') {
                    let id = percent_decode(id);
                    return match verb {
                        "report" => Route::JobReport(id),
                        "html" => Route::JobHtml(id),
                        _ => Route::NotFound,
                    };
                }
            }
            Route::NotFound
        }
    }
}
