//! Trace containers mirroring TensorFlow's `XSpace` protobuf
//! (`tensorflow/core/profiler/protobuf/xplane.proto`), plus the
//! chrome-trace JSON export that TensorBoard's TraceViewer consumes
//! (`trace.json.gz` in the paper's Fig. 1 — we emit uncompressed JSON).

use serde::{Deserialize, Serialize};
use serde_json::{Map, Value};

/// A key/value annotation on an event (XStat).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct XStat {
    /// Stat name (e.g. `bytes`, `offset`).
    pub name: String,
    /// Stringified value.
    pub value: String,
}

/// A timed event on a line.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct XEvent {
    /// Event name (op name, POSIX call, ...).
    pub name: String,
    /// Start, nanoseconds on the virtual clock.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Annotations.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub stats: Vec<XStat>,
}

impl XEvent {
    /// Construct with no stats.
    pub fn new(name: impl Into<String>, start_ns: u64, dur_ns: u64) -> Self {
        XEvent {
            name: name.into(),
            start_ns,
            dur_ns,
            stats: Vec::new(),
        }
    }

    /// Add a stat (builder style).
    pub fn with_stat(mut self, name: impl Into<String>, value: impl ToString) -> Self {
        self.stats.push(XStat {
            name: name.into(),
            value: value.to_string(),
        });
        self
    }
}

/// A named timeline (one thread, one file, one GPU stream, ...).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct XLine {
    /// Display name of the timeline.
    pub name: String,
    /// Events, sorted by start time on export.
    pub events: Vec<XEvent>,
}

/// A plane groups the lines of one data source (host tracer, Darshan, ...).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct XPlane {
    /// Plane name, e.g. `/host:CPU` or `/darshan:POSIX`.
    pub name: String,
    /// Timelines.
    pub lines: Vec<XLine>,
}

impl XPlane {
    /// Get (or create) a line by name.
    pub fn line_mut(&mut self, name: &str) -> &mut XLine {
        if let Some(i) = self.lines.iter().position(|l| l.name == name) {
            return &mut self.lines[i];
        }
        self.lines.push(XLine {
            name: name.to_string(),
            events: Vec::new(),
        });
        self.lines.last_mut().expect("just pushed")
    }
}

/// The whole trace of one profiling session.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct XSpace {
    /// All planes.
    pub planes: Vec<XPlane>,
}

impl XSpace {
    /// Get (or create) a plane by name.
    pub fn plane_mut(&mut self, name: &str) -> &mut XPlane {
        if let Some(i) = self.planes.iter().position(|p| p.name == name) {
            return &mut self.planes[i];
        }
        self.planes.push(XPlane {
            name: name.to_string(),
            lines: Vec::new(),
        });
        self.planes.last_mut().expect("just pushed")
    }

    /// Find a plane.
    pub fn plane(&self, name: &str) -> Option<&XPlane> {
        self.planes.iter().find(|p| p.name == name)
    }

    /// Total number of events across all planes.
    pub fn event_count(&self) -> usize {
        self.planes
            .iter()
            .flat_map(|p| &p.lines)
            .map(|l| l.events.len())
            .sum()
    }

    /// Sort all lines' events by start time (stable export order).
    pub fn normalize(&mut self) {
        for p in &mut self.planes {
            p.lines.sort_by(|a, b| a.name.cmp(&b.name));
            for l in &mut p.lines {
                l.events.sort_by(|a, b| {
                    (a.start_ns, a.dur_ns, &a.name).cmp(&(b.start_ns, b.dur_ns, &b.name))
                });
            }
        }
        self.planes.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Export in chrome trace-event format (what TraceViewer loads).
    /// Planes become processes; lines become threads. Each event object
    /// is built directly as a [`Value`] tree.
    pub fn to_chrome_trace(&self) -> Value {
        let mut events = Vec::new();
        for (pid, plane) in self.planes.iter().enumerate() {
            events.push(object([
                ("ph", "M".into()),
                ("pid", pid.into()),
                ("name", "process_name".into()),
                ("args", object([("name", plane.name.as_str().into())])),
            ]));
            for (tid, line) in plane.lines.iter().enumerate() {
                events.push(object([
                    ("ph", "M".into()),
                    ("pid", pid.into()),
                    ("tid", tid.into()),
                    ("name", "thread_name".into()),
                    ("args", object([("name", line.name.as_str().into())])),
                ]));
                for e in &line.events {
                    let args: Map<String, Value> = e
                        .stats
                        .iter()
                        .map(|s| (s.name.clone(), s.value.as_str().into()))
                        .collect();
                    events.push(object([
                        ("ph", "X".into()),
                        ("pid", pid.into()),
                        ("tid", tid.into()),
                        ("name", e.name.as_str().into()),
                        ("ts", (e.start_ns as f64 / 1e3).into()),
                        ("dur", (e.dur_ns as f64 / 1e3).into()),
                        ("args", Value::Object(args)),
                    ]));
                }
            }
        }
        object([("traceEvents", Value::Array(events))])
    }
}

/// A JSON object from its fields.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_and_line_upsert() {
        let mut s = XSpace::default();
        s.plane_mut("/host:CPU")
            .line_mut("t0")
            .events
            .push(XEvent::new("a", 10, 5));
        s.plane_mut("/host:CPU")
            .line_mut("t0")
            .events
            .push(XEvent::new("b", 0, 5));
        s.plane_mut("/host:CPU").line_mut("t1");
        assert_eq!(s.planes.len(), 1);
        assert_eq!(s.planes[0].lines.len(), 2);
        assert_eq!(s.event_count(), 2);
        s.normalize();
        assert_eq!(s.planes[0].lines[0].events[0].name, "b");
    }

    #[test]
    fn chrome_trace_shape() {
        let mut s = XSpace::default();
        s.plane_mut("/darshan:POSIX")
            .line_mut("/data/f1")
            .events
            .push(XEvent::new("pread", 1_000, 2_000).with_stat("bytes", 88_000));
        let j = s.to_chrome_trace();
        let evs = j["traceEvents"].as_array().unwrap();
        // 2 metadata + 1 X event.
        assert_eq!(evs.len(), 3);
        let x = &evs[2];
        assert_eq!(x["ph"], "X");
        assert_eq!(x["ts"], 1.0);
        assert_eq!(x["dur"], 2.0);
        assert_eq!(x["args"]["bytes"], "88000");
    }

    #[test]
    fn serde_roundtrip() {
        let mut s = XSpace::default();
        s.plane_mut("/p")
            .line_mut("l")
            .events
            .push(XEvent::new("e", 5, 6).with_stat("k", "v"));
        let text = serde_json::to_string(&s).unwrap();
        let back: XSpace = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }
}
