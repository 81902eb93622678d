//! Health-plane primitives: sliding latency windows, critical-path
//! buckets, and the post-mortem flight recorder.
//!
//! Everything here is deterministic integer math on the virtual clock. The
//! types are substrate: the runtime decides *when* to observe and *what*
//! the buckets mean; this module only stores and aggregates.

use std::collections::VecDeque;

use crate::recorder::Histogram;
use crate::TimeNs;

/// A latency histogram over a sliding virtual-time window.
///
/// Samples land in fixed-width time slices; queries merge the slices that
/// overlap `(now - window, now]`. Slice granularity bounds both memory
/// (`window / slice + 1` slices) and staleness (an expired sample lingers
/// at most one slice).
#[derive(Debug, Clone)]
pub struct SlidingHistogram {
    window_ns: u64,
    slice_ns: u64,
    slices: VecDeque<(TimeNs, Histogram)>,
}

impl SlidingHistogram {
    /// Creates a window of `window_ns` with `slice_ns` granularity.
    ///
    /// # Panics
    ///
    /// Panics if either is zero or the slice exceeds the window.
    pub fn new(window_ns: u64, slice_ns: u64) -> Self {
        assert!(slice_ns > 0, "slice must be non-zero");
        assert!(
            window_ns >= slice_ns,
            "window must cover at least one slice"
        );
        SlidingHistogram {
            window_ns,
            slice_ns,
            slices: VecDeque::new(),
        }
    }

    /// The window width in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Records one sample observed at virtual time `ts_ns`.
    pub fn observe(&mut self, ts_ns: TimeNs, value: u64) {
        let start = ts_ns - ts_ns % self.slice_ns;
        match self.slices.back_mut() {
            Some((s, h)) if *s == start => h.observe(value),
            _ => {
                let mut h = Histogram::default();
                h.observe(value);
                self.slices.push_back((start, h));
            }
        }
        self.evict(ts_ns);
    }

    fn evict(&mut self, now: TimeNs) {
        let horizon = now.saturating_sub(self.window_ns);
        while let Some(&(start, _)) = self.slices.front() {
            if start + self.slice_ns <= horizon {
                self.slices.pop_front();
            } else {
                break;
            }
        }
    }

    /// Merges every slice overlapping `(now - window, now]` into one
    /// histogram; empty when no live samples remain.
    pub fn merged(&self, now: TimeNs) -> Histogram {
        let horizon = now.saturating_sub(self.window_ns);
        let mut out = Histogram::default();
        for (start, h) in &self.slices {
            if *start + self.slice_ns > horizon && *start <= now {
                out.merge(h);
            }
        }
        out
    }
}

/// The latency bucket a span of an operation's critical path charges to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathBucket {
    /// Overlay lookups, metadata puts/gets, DHT maintenance.
    Dht,
    /// Local disk reads and writes.
    Disk,
    /// Home-network transfers (node ↔ node on the LAN).
    Lan,
    /// Wide-area transfers and remote-cloud requests.
    Wan,
    /// Service execution (the useful work).
    Service,
    /// Retry back-off waits.
    Backoff,
    /// Queueing, control, and anything not otherwise attributed.
    Other,
}

impl PathBucket {
    /// Stable lowercase label used in exports and reports.
    pub fn label(self) -> &'static str {
        match self {
            PathBucket::Dht => "dht",
            PathBucket::Disk => "disk",
            PathBucket::Lan => "lan",
            PathBucket::Wan => "wan",
            PathBucket::Service => "service",
            PathBucket::Backoff => "backoff",
            PathBucket::Other => "other",
        }
    }
}

/// Attribution of one operation's end-to-end virtual latency across
/// [`PathBucket`]s — the fold of its critical-path DAG (see
/// [`fold_critical_path`](crate::fold_critical_path)), so bucket sums equal
/// the op's total duration (`Other` absorbs the wait edges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Nanoseconds attributed to DHT / metadata work.
    pub dht_ns: u64,
    /// Nanoseconds attributed to local disk.
    pub disk_ns: u64,
    /// Nanoseconds attributed to home-network transfers.
    pub lan_ns: u64,
    /// Nanoseconds attributed to wide-area transfers.
    pub wan_ns: u64,
    /// Nanoseconds attributed to service execution.
    pub service_ns: u64,
    /// Nanoseconds attributed to retry back-off.
    pub backoff_ns: u64,
    /// Nanoseconds not otherwise attributed (queueing, control).
    pub other_ns: u64,
}

impl CriticalPath {
    /// Adds `ns` to one bucket (saturating).
    pub fn add(&mut self, bucket: PathBucket, ns: u64) {
        let slot = match bucket {
            PathBucket::Dht => &mut self.dht_ns,
            PathBucket::Disk => &mut self.disk_ns,
            PathBucket::Lan => &mut self.lan_ns,
            PathBucket::Wan => &mut self.wan_ns,
            PathBucket::Service => &mut self.service_ns,
            PathBucket::Backoff => &mut self.backoff_ns,
            PathBucket::Other => &mut self.other_ns,
        };
        *slot = slot.saturating_add(ns);
    }

    /// `(label, ns)` pairs in fixed bucket order.
    pub fn buckets(&self) -> [(&'static str, u64); 7] {
        [
            ("dht", self.dht_ns),
            ("disk", self.disk_ns),
            ("lan", self.lan_ns),
            ("wan", self.wan_ns),
            ("service", self.service_ns),
            ("backoff", self.backoff_ns),
            ("other", self.other_ns),
        ]
    }

    /// Total attributed nanoseconds.
    pub fn total(&self) -> u64 {
        self.buckets().iter().map(|&(_, ns)| ns).sum()
    }

    /// The bucket charged the most time (first in bucket order on ties).
    pub fn dominant(&self) -> (&'static str, u64) {
        let mut best = ("other", 0);
        for (label, ns) in self.buckets() {
            if ns > best.1 {
                best = (label, ns);
            }
        }
        best
    }
}

/// One post-mortem dump: everything needed to explain a failed operation
/// without replaying the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Postmortem {
    /// Deterministic dump id, `pm-<ts_ns>-<seq>`. The per-instant `seq`
    /// disambiguates dumps cut in the same virtual instant (a burst of
    /// timeouts at one deadline), which would otherwise collide on a
    /// timestamp-only id.
    pub id: String,
    /// Virtual time the failure was recorded.
    pub ts_ns: TimeNs,
    /// Failing operation's id.
    pub op_id: u64,
    /// Error label, e.g. `"Timeout"`.
    pub error: String,
    /// The failed op's critical-path DAG — kind, object, window, edges
    /// with their buckets, and causal chain — as one JSON object, rendered
    /// by the runtime's explain plane.
    pub explain: String,
    /// Recent fault events as `(ts_ns, description)`, oldest first.
    pub faults: Vec<(TimeNs, String)>,
    /// Recent gauge sample rows, oldest first: each row is the sample's
    /// timestamp plus sorted `(gauge, value)` pairs.
    pub gauges: Vec<(TimeNs, Vec<(String, i64)>)>,
}

impl Postmortem {
    /// Serializes this dump as one byte-stable JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(512);
        out.push_str("{\"id\":\"");
        crate::export::escape_into(&mut out, &self.id);
        let _ = write!(
            out,
            "\",\"ts_ns\":{},\"op\":{},\"error\":\"",
            self.ts_ns, self.op_id
        );
        crate::export::escape_into(&mut out, &self.error);
        out.push_str("\",\"explain\":");
        out.push_str(self.explain.trim_end());
        out.push_str(",\"faults\":[");
        for (i, (ts, desc)) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{ts},\"");
            crate::export::escape_into(&mut out, desc);
            out.push_str("\"]");
        }
        out.push_str("],\"gauges\":[");
        for (i, (ts, row)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{ts},{{");
            for (j, (name, value)) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                crate::export::escape_into(&mut out, name);
                let _ = write!(out, "\":{value}");
            }
            out.push_str("}]");
        }
        out.push_str("]}");
        out
    }
}

/// A bounded ring of recent health context plus the post-mortem dumps cut
/// from it when operations fail.
///
/// The recorder itself never samples anything: the runtime feeds it fault
/// notes and gauge rows as they happen, and calls [`FlightRecorder::record`]
/// on terminal op errors. All capacities are fixed so a chaotic run cannot
/// grow this without bound.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    fault_cap: usize,
    gauge_cap: usize,
    dump_cap: usize,
    faults: VecDeque<(TimeNs, String)>,
    gauges: VecDeque<(TimeNs, Vec<(String, i64)>)>,
    dumps: Vec<Postmortem>,
    dropped: u64,
    /// `(ts, next seq)` for per-instant dump-id disambiguation.
    id_cursor: (TimeNs, u32),
}

impl FlightRecorder {
    /// Creates a recorder keeping the last `fault_cap` fault notes, the
    /// last `gauge_cap` gauge rows, and at most `dump_cap` dumps.
    pub fn new(fault_cap: usize, gauge_cap: usize, dump_cap: usize) -> Self {
        FlightRecorder {
            fault_cap,
            gauge_cap,
            dump_cap,
            faults: VecDeque::new(),
            gauges: VecDeque::new(),
            dumps: Vec::new(),
            dropped: 0,
            id_cursor: (0, 0),
        }
    }

    /// Notes a fault event (crash, partition, heal, …).
    pub fn note_fault(&mut self, ts_ns: TimeNs, description: String) {
        if self.faults.len() == self.fault_cap {
            self.faults.pop_front();
        }
        self.faults.push_back((ts_ns, description));
    }

    /// Notes one gauge sample row (sorted `(gauge, value)` pairs).
    pub fn note_gauges(&mut self, ts_ns: TimeNs, row: Vec<(String, i64)>) {
        if self.gauges.len() == self.gauge_cap {
            self.gauges.pop_front();
        }
        self.gauges.push_back((ts_ns, row));
    }

    /// Cuts a post-mortem dump for a failed op, attaching its rendered
    /// critical-path DAG (`explain` yields one JSON object) and the current
    /// fault and gauge rings. Dumps beyond the cap are counted, not stored
    /// (nor rendered).
    pub fn record(
        &mut self,
        ts_ns: TimeNs,
        op_id: u64,
        error: &str,
        explain: impl FnOnce() -> String,
    ) {
        if self.dumps.len() >= self.dump_cap {
            self.dropped += 1;
            return;
        }
        let seq = if self.id_cursor.0 == ts_ns {
            self.id_cursor.1
        } else {
            0
        };
        self.id_cursor = (ts_ns, seq + 1);
        self.dumps.push(Postmortem {
            id: format!("pm-{ts_ns}-{seq}"),
            ts_ns,
            op_id,
            error: error.to_owned(),
            explain: explain(),
            faults: self.faults.iter().cloned().collect(),
            gauges: self.gauges.iter().cloned().collect(),
        });
    }

    /// The dumps recorded so far, oldest first.
    pub fn dumps(&self) -> &[Postmortem] {
        &self.dumps
    }

    /// Number of dumps dropped because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serializes every dump as one byte-stable JSON array.
    pub fn dumps_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.dumps.len() * 512);
        out.push_str("[\n");
        for (i, d) in self.dumps.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&d.to_json());
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn sliding_window_expires_old_slices() {
        let mut w = SlidingHistogram::new(10 * MS, MS);
        w.observe(0, 100);
        w.observe(8 * MS, 200);
        let m = w.merged(8 * MS);
        assert_eq!(m.count, 2);
        // At t=16ms the t=0 slice (16ms old) has left the 10ms window; the
        // t=8ms slice (8ms old) is still live.
        w.observe(16 * MS, 300);
        let m = w.merged(16 * MS);
        assert_eq!(m.count, 2);
        assert_eq!(m.min, 200);
        // Eviction also bounds the slice deque itself.
        assert!(w.slices.len() <= 11);
    }

    #[test]
    fn sliding_window_percentiles_use_live_samples_only() {
        let mut w = SlidingHistogram::new(10 * MS, MS);
        for i in 0..10u64 {
            w.observe(i * MS, 10);
        }
        w.observe(30 * MS, 5000);
        let m = w.merged(30 * MS);
        assert_eq!(m.count, 1);
        assert_eq!(m.value_at_quantile(99, 100), 5000);
    }

    #[test]
    fn critical_path_totals_and_dominant() {
        let mut p = CriticalPath::default();
        p.add(PathBucket::Wan, 700);
        p.add(PathBucket::Dht, 200);
        p.add(PathBucket::Other, 100);
        assert_eq!(p.total(), 1000);
        assert_eq!(p.dominant(), ("wan", 700));
        assert_eq!(PathBucket::Backoff.label(), "backoff");
        assert_eq!(CriticalPath::default().dominant(), ("other", 0));
    }

    #[test]
    fn flight_recorder_rings_are_bounded() {
        let mut fr = FlightRecorder::new(2, 2, 1);
        for i in 0..5u64 {
            fr.note_fault(i, format!("fault{i}"));
            fr.note_gauges(i, vec![("g".into(), i as i64)]);
        }
        fr.record(9, 1, "Timeout", || "{\"op\":1}\n".into());
        fr.record(10, 2, "Timeout", || {
            unreachable!("dropped dumps are not rendered")
        });
        assert_eq!(fr.dumps().len(), 1);
        assert_eq!(fr.dropped(), 1);
        let d = &fr.dumps()[0];
        assert_eq!(d.faults, vec![(3, "fault3".into()), (4, "fault4".into())]);
        assert_eq!(d.gauges.len(), 2);
        let json = fr.dumps_json();
        assert!(json.contains("\"error\":\"Timeout\",\"explain\":{\"op\":1},\"faults\""));
        assert!(json.starts_with("[\n{\"id\":\"pm-9-0\",\"ts_ns\":9"));
    }

    #[test]
    fn same_instant_dumps_get_distinct_ids() {
        // Regression: two ops timing out at the same virtual instant used
        // to collide on a timestamp-only post-mortem id.
        let mut fr = FlightRecorder::new(2, 2, 8);
        fr.record(100, 1, "Timeout", String::new);
        fr.record(100, 2, "Timeout", String::new);
        fr.record(100, 3, "Timeout", String::new);
        fr.record(250, 4, "Timeout", String::new);
        let ids: Vec<&str> = fr.dumps().iter().map(|d| d.id.as_str()).collect();
        assert_eq!(ids, vec!["pm-100-0", "pm-100-1", "pm-100-2", "pm-250-0"]);
        let mut uniq = ids.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len(), "post-mortem ids must be unique");
    }

    #[test]
    fn postmortem_json_is_reproducible() {
        let d = Postmortem {
            id: "pm-5-0".into(),
            ts_ns: 5,
            op_id: 3,
            error: "No\"Space".into(),
            explain: "{\"op\":3,\"edges\":[{\"label\":\"store.disk_write\"}]}\n".into(),
            faults: vec![(2, "crash node4".into())],
            gauges: vec![(3, vec![("cpu".into(), 250)])],
        };
        assert_eq!(d.to_json(), d.clone().to_json());
        assert!(d.to_json().contains("\"error\":\"No\\\"Space\""));
        assert!(d
            .to_json()
            .contains("\"explain\":{\"op\":3,\"edges\":[{\"label\":\"store.disk_write\"}]},"));
        assert!(d.to_json().contains("[3,{\"cpu\":250}]"));
    }
}
