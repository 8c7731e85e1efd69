//! # dstat-sim — background disk-activity sampler
//!
//! The paper validates tf-Darshan's bandwidth numbers by "concurrently
//! running Dstat in the background to collect disk activities" (Figs. 3,
//! 4, 12). This crate is that background process: a simulated thread that
//! samples every device's transfer counters once per virtual second and
//! reports per-interval rates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use probe::{EventKind, IoEvent, ProbeBus, ProbeSink, SinkId};
use simrt::sync::Event;
use simrt::{EventCx, EventPoll, Sim, SimTime, WakeReason};
use storage_sim::{CounterSnapshot, Device};

/// Running totals of application `read`/`write` syscall bytes, fed from the
/// process's probe spine. Folding is a pair of relaxed atomic adds, so it is
/// safe inside the context-switch flush path (never sleeps).
#[derive(Default)]
struct SyscallCounters {
    read_bytes: AtomicU64,
    write_bytes: AtomicU64,
}

impl ProbeSink for SyscallCounters {
    fn on_events(&self, events: &[IoEvent]) {
        let (mut r, mut w) = (0u64, 0u64);
        for ev in events {
            match ev.kind {
                EventKind::Read { len, .. } => r += len,
                EventKind::Write { len, .. } => w += len,
                _ => {}
            }
        }
        if r != 0 {
            self.read_bytes.fetch_add(r, Ordering::Relaxed);
        }
        if w != 0 {
            self.write_bytes.fetch_add(w, Ordering::Relaxed);
        }
    }
}

/// One sampling interval's disk activity.
#[derive(Clone, Debug)]
pub struct DstatSample {
    /// End of the sampling interval.
    pub t: SimTime,
    /// Bytes read during the interval, per device (same order as the
    /// device list given to [`Dstat::spawn`]).
    pub read_bytes: Vec<u64>,
    /// Bytes written during the interval, per device.
    pub write_bytes: Vec<u64>,
    /// Bytes moved through `read`-family syscalls during the interval
    /// (zero unless attached to a probe spine, see [`Dstat::attach_spine`]).
    /// Diffing this against the device columns separates page-cache hits
    /// from media traffic.
    pub sys_read_bytes: u64,
    /// Bytes moved through `write`-family syscalls during the interval.
    pub sys_write_bytes: u64,
    /// Keyed syscall read bytes during the interval, one `(key, bytes)`
    /// pair per column attached via [`Dstat::attach_keyed_spine`]. In a
    /// distributed job the device columns aggregate every rank's traffic;
    /// these columns attribute it back to the rank, or group of ranks
    /// (e.g. a node), that issued the syscalls.
    pub keyed_read_bytes: Vec<(u32, u64)>,
    /// Keyed syscall write bytes during the interval.
    pub keyed_write_bytes: Vec<(u32, u64)>,
}

impl DstatSample {
    /// Total read bytes across devices.
    pub fn total_read(&self) -> u64 {
        self.read_bytes.iter().sum()
    }

    /// Total written bytes across devices.
    pub fn total_write(&self) -> u64 {
        self.write_bytes.iter().sum()
    }

    /// Aggregate read rate in MiB/s given the sampling interval.
    pub fn read_mib_per_s(&self, interval: Duration) -> f64 {
        self.total_read() as f64 / (1024.0 * 1024.0) / interval.as_secs_f64()
    }

    /// This interval's syscall read bytes attributed to column `key`
    /// (zero if no spine is attached under that key).
    pub fn keyed_read(&self, key: u32) -> u64 {
        column(&self.keyed_read_bytes, key)
    }

    /// This interval's syscall write bytes attributed to column `key`.
    pub fn keyed_write(&self, key: u32) -> u64 {
        column(&self.keyed_write_bytes, key)
    }
}

fn column(cols: &[(u32, u64)], key: u32) -> u64 {
    cols.iter().find(|(k, _)| *k == key).map_or(0, |(_, b)| *b)
}

/// One attribution column: its own accumulator, fed by every bus attached
/// under `key`, so the sampler can diff its traffic independently of the
/// aggregate spine.
struct KeyedSpine {
    key: u32,
    counters: Arc<SyscallCounters>,
    /// `(read, write)` totals at the last sample; a column attached
    /// mid-run starts from zero, so its first sample covers everything it
    /// saw.
    prev: (u64, u64),
    sinks: Vec<(ProbeBus, SinkId)>,
}

/// A running dstat instance.
pub struct Dstat {
    samples: Arc<Mutex<Vec<DstatSample>>>,
    stop: Arc<Event>,
    interval: Duration,
    names: Vec<String>,
    syscalls: Arc<SyscallCounters>,
    spine: Mutex<Option<(ProbeBus, SinkId)>>,
    keyed_spines: Arc<Mutex<Vec<KeyedSpine>>>,
}

impl Dstat {
    /// Start sampling `devices` every `interval` on a background *event
    /// task* — a timer-driven state machine on the simulation calendar, so
    /// a fleet of samplers costs heap entries, not OS threads. Call
    /// [`Dstat::stop`] before the simulation ends (a sampler never stops by
    /// itself, exactly like the real tool).
    pub fn spawn(sim: &Sim, devices: Vec<Arc<Device>>, interval: Duration) -> Dstat {
        assert!(!devices.is_empty(), "dstat needs at least one device");
        assert!(!interval.is_zero());
        let samples: Arc<Mutex<Vec<DstatSample>>> = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(Event::new());
        let names = devices.iter().map(|d| d.name().to_string()).collect();
        let syscalls: Arc<SyscallCounters> = Arc::new(SyscallCounters::default());
        let keyed_spines: Arc<Mutex<Vec<KeyedSpine>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let samples = samples.clone();
            let stop = stop.clone();
            let syscalls = syscalls.clone();
            let keyed_spines = keyed_spines.clone();
            // Sampler state machine. Each poll is one wakeup of the old
            // carrier loop: a timeout firing means the interval elapsed
            // (take a sample), any other wake re-checks the stop flag. The
            // virtual-time trace is identical to the carrier version's —
            // samples land at t = k·interval until stop is set.
            let mut first = true;
            let mut prev: Option<Vec<CounterSnapshot>> = None;
            let mut prev_sys_r = 0u64;
            let mut prev_sys_w = 0u64;
            sim.spawn_event("dstat", move |cx: &mut EventCx| {
                if stop.poll_wait() {
                    return EventPoll::Done;
                }
                if first {
                    prev = Some(devices.iter().map(|d| d.snapshot()).collect());
                    prev_sys_r = syscalls.read_bytes.load(Ordering::Relaxed);
                    prev_sys_w = syscalls.write_bytes.load(Ordering::Relaxed);
                    first = false;
                } else if cx.wake_reason() == WakeReason::Timeout {
                    let cur: Vec<CounterSnapshot> = devices.iter().map(|d| d.snapshot()).collect();
                    // Emitting threads flushed their spine buffers when they
                    // descheduled (only one simulated thread runs at a time),
                    // so the accumulator is complete up to this instant.
                    let sys_r = syscalls.read_bytes.load(Ordering::Relaxed);
                    let sys_w = syscalls.write_bytes.load(Ordering::Relaxed);
                    let mut keyed_read_bytes = Vec::new();
                    let mut keyed_write_bytes = Vec::new();
                    for ks in keyed_spines.lock().iter_mut() {
                        let r = ks.counters.read_bytes.load(Ordering::Relaxed);
                        let w = ks.counters.write_bytes.load(Ordering::Relaxed);
                        keyed_read_bytes.push((ks.key, r - ks.prev.0));
                        keyed_write_bytes.push((ks.key, w - ks.prev.1));
                        ks.prev = (r, w);
                    }
                    let prev_snap = prev.as_ref().expect("initialized on first poll");
                    let sample = DstatSample {
                        t: cx.now(),
                        read_bytes: cur
                            .iter()
                            .zip(prev_snap)
                            .map(|(c, p)| c.bytes_read - p.bytes_read)
                            .collect(),
                        write_bytes: cur
                            .iter()
                            .zip(prev_snap)
                            .map(|(c, p)| c.bytes_written - p.bytes_written)
                            .collect(),
                        sys_read_bytes: sys_r - prev_sys_r,
                        sys_write_bytes: sys_w - prev_sys_w,
                        keyed_read_bytes,
                        keyed_write_bytes,
                    };
                    prev = Some(cur);
                    prev_sys_r = sys_r;
                    prev_sys_w = sys_w;
                    samples.lock().push(sample);
                }
                EventPoll::Block {
                    deadline: Some(cx.now() + interval),
                }
            });
        }
        Dstat {
            samples,
            stop,
            interval,
            names,
            syscalls,
            spine: Mutex::new(None),
            keyed_spines,
        }
    }

    /// Additionally sample syscall-level traffic from `bus` (the process's
    /// probe spine): each [`DstatSample`] then reports the interval's
    /// `read`/`write` syscall bytes alongside the device counters, without
    /// any lock on the per-syscall fast path.
    pub fn attach_spine(&self, bus: &ProbeBus) {
        let mut spine = self.spine.lock();
        if spine.is_none() {
            let id = bus.register(self.syscalls.clone());
            *spine = Some((bus.clone(), id));
        }
    }

    /// Additionally attribute syscall-level traffic from `bus` to column
    /// `key`: each [`DstatSample`] then carries a `(key, bytes)` column
    /// next to the aggregate spine columns — the distributed analog of
    /// dstat's per-CPU breakdown. A key may be fed by several buses (a
    /// node's column by each of its ranks' buses); attaching the same bus
    /// under the same key again is ignored.
    pub fn attach_keyed_spine(&self, key: u32, bus: &ProbeBus) {
        let mut spines = self.keyed_spines.lock();
        let ks = match spines.iter().position(|ks| ks.key == key) {
            Some(i) => &mut spines[i],
            None => {
                spines.push(KeyedSpine {
                    key,
                    counters: Arc::new(SyscallCounters::default()),
                    prev: (0, 0),
                    sinks: Vec::new(),
                });
                spines.last_mut().expect("just pushed")
            }
        };
        if !ks.sinks.iter().any(|(b, _)| b.same_bus(bus)) {
            let id = bus.register(ks.counters.clone());
            ks.sinks.push((bus.clone(), id));
        }
    }

    /// Stop the sampler (must be called from a simulated thread).
    pub fn stop(&self) {
        self.stop.set();
        if let Some((bus, id)) = self.spine.lock().take() {
            bus.unregister(id);
        }
        for ks in self.keyed_spines.lock().drain(..) {
            for (bus, id) in ks.sinks {
                bus.unregister(id);
            }
        }
    }

    /// The stop event, for handing to another thread.
    pub fn stop_event(&self) -> Arc<Event> {
        self.stop.clone()
    }

    /// The sampling interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Sampled device names, in column order.
    pub fn device_names(&self) -> &[String] {
        &self.names
    }

    /// All samples collected so far.
    pub fn samples(&self) -> Vec<DstatSample> {
        self.samples.lock().clone()
    }

    /// Mean aggregate read bandwidth (MiB/s) over samples in `[from, to]`.
    pub fn mean_read_mib_per_s(&self, from: SimTime, to: SimTime) -> f64 {
        let samples = self.samples.lock();
        let in_range: Vec<&DstatSample> = samples
            .iter()
            .filter(|s| s.t >= from && s.t <= to)
            .collect();
        if in_range.is_empty() {
            return 0.0;
        }
        let bytes: u64 = in_range.iter().map(|s| s.total_read()).sum();
        let secs = in_range.len() as f64 * self.interval.as_secs_f64();
        bytes as f64 / (1024.0 * 1024.0) / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage_sim::{DeviceSpec, Dir};

    #[test]
    fn samples_track_transfer_rates() {
        let sim = Sim::new();
        let dev = Device::new(DeviceSpec::optane("nvme0"));
        let dstat = Dstat::spawn(&sim, vec![dev.clone()], Duration::from_secs(1));
        let stop = dstat.stop.clone();
        sim.spawn("workload", move || {
            // ~100 MiB/s for 3 seconds: 10 MiB every ~0.1 s.
            for _ in 0..30 {
                dev.transfer(Dir::Read, 0, 10 << 20).unwrap();
                simrt::sleep(Duration::from_millis(95));
            }
            simrt::sleep(Duration::from_millis(500));
            stop.set();
        });
        sim.run();
        let samples = dstat.samples();
        assert!(samples.len() >= 3, "got {} samples", samples.len());
        let first = &samples[0];
        let mib = first.read_mib_per_s(Duration::from_secs(1));
        assert!(
            (80.0..=120.0).contains(&mib),
            "expected ~100 MiB/s, got {mib:.1}"
        );
        assert_eq!(first.total_write(), 0);
    }

    #[test]
    fn mean_bandwidth_over_window() {
        let sim = Sim::new();
        let dev = Device::new(DeviceSpec::optane("nvme0"));
        let dstat = Dstat::spawn(&sim, vec![dev.clone()], Duration::from_secs(1));
        let stop = dstat.stop.clone();
        sim.spawn("workload", move || {
            for _ in 0..4 {
                dev.transfer(Dir::Read, 0, 50 << 20).unwrap();
                simrt::sleep(Duration::from_millis(1000));
            }
            stop.set();
        });
        sim.run();
        let mean = dstat.mean_read_mib_per_s(SimTime::ZERO, SimTime::from_secs_f64(10.0));
        assert!((40.0..=60.0).contains(&mean), "got {mean:.1}");
    }

    #[test]
    fn spine_attachment_reports_syscall_bytes() {
        let sim = Sim::new();
        let bus = ProbeBus::new();
        let dev = Device::new(DeviceSpec::optane("nvme0"));
        let dstat = Dstat::spawn(&sim, vec![dev], Duration::from_secs(1));
        dstat.attach_spine(&bus);
        let stop = dstat.stop.clone();
        let bus2 = bus.clone();
        sim.spawn("workload", move || {
            // 1 MiB of syscall-level reads per 100 ms: all page-cache hits,
            // so the device columns stay at zero while the spine sees them.
            for _ in 0..25 {
                let t = simrt::now();
                bus2.emit(IoEvent {
                    task: simrt::current_task(),
                    pid: 0,
                    t0: t,
                    t1: t,
                    origin: probe::Origin::App,
                    target: probe::intern("/mnt/cached"),
                    kind: EventKind::Read {
                        fd: 3,
                        offset: 0,
                        len: 1 << 20,
                    },
                });
                simrt::sleep(Duration::from_millis(100));
            }
            stop.set();
        });
        sim.run();
        let samples = dstat.samples();
        assert!(samples.len() >= 2, "got {} samples", samples.len());
        assert_eq!(samples[0].sys_read_bytes, 10 << 20);
        assert_eq!(samples[0].sys_write_bytes, 0);
        assert_eq!(samples[0].total_read(), 0, "no media traffic");
    }

    #[test]
    fn keyed_spines_attribute_traffic_per_column() {
        let sim = Sim::new();
        let dev = Device::new(DeviceSpec::optane("nvme0"));
        let dstat = Dstat::spawn(&sim, vec![dev], Duration::from_secs(1));
        let buses: Vec<ProbeBus> = (0..3).map(|_| ProbeBus::new()).collect();
        // Column 0 is one bus, column 1 is fed by two (a two-rank node).
        dstat.attach_keyed_spine(0, &buses[0]);
        dstat.attach_keyed_spine(1, &buses[1]);
        dstat.attach_keyed_spine(1, &buses[2]);
        dstat.attach_keyed_spine(1, &buses[2]); // same bus, same key: ignored
        let stop = dstat.stop.clone();
        let emit = |bus: &ProbeBus, kind: EventKind| {
            let t = simrt::now();
            bus.emit(IoEvent {
                task: simrt::current_task(),
                pid: 0,
                t0: t,
                t1: t,
                origin: probe::Origin::App,
                target: probe::intern("/mnt/keyed"),
                kind,
            });
        };
        let read = |len| EventKind::Read {
            fd: 3,
            offset: 0,
            len,
        };
        sim.spawn("workload", move || {
            // Per interval: column 0 reads 3 MiB; column 1 reads 1 MiB on
            // each of its buses and writes 2 MiB on one.
            for _ in 0..25 {
                emit(&buses[0], read(3 << 20));
                emit(&buses[1], read(1 << 20));
                emit(&buses[2], read(1 << 20));
                emit(
                    &buses[2],
                    EventKind::Write {
                        fd: 3,
                        offset: 0,
                        len: 2 << 20,
                    },
                );
                simrt::sleep(Duration::from_millis(100));
            }
            stop.set();
        });
        sim.run();
        let samples = dstat.samples();
        assert!(samples.len() >= 2, "got {} samples", samples.len());
        let s = &samples[0];
        assert_eq!(s.keyed_read(0), 30 << 20);
        assert_eq!(s.keyed_read(1), 20 << 20, "both buses feed column 1");
        assert_eq!(s.keyed_write(0), 0);
        assert_eq!(s.keyed_write(1), 20 << 20);
        // The aggregate spine is not attached, so it stays zero while the
        // keyed columns carry the split.
        assert_eq!(s.sys_read_bytes, 0);
        assert_eq!(s.keyed_read(7), 0, "unattached key reads as zero");
    }

    #[test]
    fn stop_ends_sampler_promptly() {
        let sim = Sim::new();
        let dev = Device::new(DeviceSpec::hdd("hdd0"));
        let dstat = Dstat::spawn(&sim, vec![dev], Duration::from_secs(1));
        let stop = dstat.stop.clone();
        sim.spawn("main", move || {
            simrt::sleep(Duration::from_millis(2500));
            stop.set();
        });
        sim.run();
        assert!(sim.now() < SimTime::from_secs_f64(3.1));
        assert_eq!(dstat.samples().len(), 2);
    }
}
