//! The runtime half of the continuous health plane.
//!
//! `c4h-telemetry` provides the deterministic substrate (gauge series,
//! sliding histograms, the flight recorder); this module gives those
//! primitives their Cloud4Home meaning: which op kinds have latency
//! objectives, how a completed op's stage log maps onto critical-path
//! buckets, and what context a post-mortem carries. The runtime drives it
//! from the event loop — see `Event::HealthSample` in `runtime.rs`.
//!
//! Determinism rules (the same ones the rest of the telemetry stack obeys):
//! the health plane reads simulation state, it never mutates it; it draws
//! no randomness; every derived value is integer fixed-point; and every
//! collection it keeps is bounded and deterministically ordered. With
//! tracing disabled none of this code runs beyond one relaxed atomic load
//! per call site.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use c4h_simnet::{FxHashMap, SimTime};
use c4h_telemetry::{FlightRecorder, PathBucket, SlidingHistogram};

use crate::config::Config;
use crate::report::{OpId, OpReport};

/// Sliding-window slices per window (granularity of expiry).
const WINDOW_SLICES: u64 = 16;
/// Flight-recorder fault-ring depth: recent fault notes a dump carries.
const FAULT_RING: usize = 32;
/// Flight-recorder gauge-ring depth: recent gauge rows a dump carries.
const GAUGE_RING: usize = 8;
/// Maximum post-mortem dumps retained per run.
const DUMP_CAP: usize = 16;
/// How many completed reports keep their stage spans and causal chain —
/// the ring `explain` resolves detail from and `top`/`slowest` rank.
const DETAIL_RING: usize = 128;

/// An SLO breach detected at op completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SloBreach {
    /// The sliding window's p99 at completion, nanoseconds.
    pub(crate) p99_ns: u64,
    /// The configured objective, nanoseconds.
    pub(crate) slo_ns: u64,
}

/// Per-kind latency summary for the `health` surface.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KindHealth {
    pub(crate) count: u64,
    pub(crate) p50_ns: u64,
    pub(crate) p95_ns: u64,
    pub(crate) p99_ns: u64,
    /// Configured objective, if any.
    pub(crate) slo_ns: Option<u64>,
}

/// Runtime state of the health plane: SLO windows, the retained-detail
/// ring, the flight recorder, and the sampler's arming bookkeeping.
#[derive(Debug)]
pub(crate) struct HealthPlane {
    /// Gauge sampling cadence; `Duration::ZERO` disables the sampler.
    pub(crate) sample_period: Duration,
    window_ns: u64,
    slice_ns: u64,
    slo_ns: BTreeMap<String, u64>,
    /// Per-op-kind sliding latency windows, populated on first completion.
    windows: BTreeMap<&'static str, SlidingHistogram>,
    /// Post-mortem context ring + dumps.
    pub(crate) flight: FlightRecorder,
    /// Completed ops whose reports still hold their stage spans and causal
    /// chain, oldest first; bounded by [`DETAIL_RING`].
    detail: VecDeque<OpId>,
    /// Virtual time of the most recent gauge sample.
    pub(crate) last_sample: Option<SimTime>,
    /// Whether a `HealthSample` event is pending in the queue.
    pub(crate) armed: bool,
    /// Total SLO violations detected.
    pub(crate) violations: u64,
}

impl HealthPlane {
    pub(crate) fn new(config: &Config) -> Self {
        let window_ns = config.health_window_ms.saturating_mul(1_000_000).max(1);
        HealthPlane {
            sample_period: Duration::from_millis(config.health_sample_ms),
            window_ns,
            slice_ns: (window_ns / WINDOW_SLICES).max(1),
            slo_ns: config
                .slo_ms
                .iter()
                .map(|(k, ms)| (k.clone(), ms.saturating_mul(1_000_000)))
                .collect(),
            windows: BTreeMap::new(),
            flight: FlightRecorder::new(FAULT_RING, GAUGE_RING, DUMP_CAP),
            detail: VecDeque::new(),
            last_sample: None,
            armed: false,
            violations: 0,
        }
    }

    /// Feeds one completed op's latency into its kind's sliding window and
    /// checks the window p99 against the kind's objective, if configured.
    pub(crate) fn observe_latency(
        &mut self,
        kind: &'static str,
        now: SimTime,
        total_ns: u64,
    ) -> Option<SloBreach> {
        let window = self
            .windows
            .entry(kind)
            .or_insert_with(|| SlidingHistogram::new(self.window_ns, self.slice_ns));
        window.observe(now.as_nanos(), total_ns);
        let slo_ns = *self.slo_ns.get(kind)?;
        let p99_ns = window.merged(now.as_nanos()).value_at_quantile(99, 100);
        if p99_ns > slo_ns {
            self.violations += 1;
            Some(SloBreach { p99_ns, slo_ns })
        } else {
            None
        }
    }

    /// Current per-kind window summaries, in kind order.
    pub(crate) fn summaries(&self, now: SimTime) -> Vec<(&'static str, KindHealth)> {
        self.windows
            .iter()
            .map(|(kind, w)| {
                let m = w.merged(now.as_nanos());
                (
                    *kind,
                    KindHealth {
                        count: m.count,
                        p50_ns: m.value_at_quantile(1, 2),
                        p95_ns: m.value_at_quantile(95, 100),
                        p99_ns: m.value_at_quantile(99, 100),
                        slo_ns: self.slo_ns.get(*kind).copied(),
                    },
                )
            })
            .collect()
    }

    /// Admits a just-completed report into the retained-detail ring. Past
    /// [`DETAIL_RING`], the oldest report's stage spans and causal chain
    /// are released; the report itself (outcome, breakdown, bucket fold)
    /// survives.
    pub(crate) fn retain_detail(&mut self, op: OpId, reports: &mut FxHashMap<OpId, OpReport>) {
        self.detail.push_back(op);
        if self.detail.len() > DETAIL_RING {
            let old = self.detail.pop_front();
            if let Some(r) = old.and_then(|id| reports.get_mut(&id)) {
                r.stages = Vec::new();
                r.ledger = Vec::new();
            }
        }
    }

    /// The `n` slowest reports in the retained-detail ring, worst first
    /// (ties by op id, so the output is deterministic). Reports already
    /// taken by the caller are skipped.
    pub(crate) fn slowest<'a>(
        &self,
        reports: &'a FxHashMap<OpId, OpReport>,
        n: usize,
    ) -> Vec<&'a OpReport> {
        let mut rows: Vec<&OpReport> = self
            .detail
            .iter()
            .filter_map(|id| reports.get(id))
            .collect();
        rows.sort_by(|a, b| b.total().cmp(&a.total()).then(a.id.cmp(&b.id)));
        rows.truncate(n);
        rows
    }
}

/// Maps a recorded stage span onto its critical-path bucket.
///
/// `fetch.striped` pulls either from home peers or from the cloud via
/// parallel range reads; `via_cloud` disambiguates. Unknown stages charge
/// to `Other` rather than panicking so new stages degrade gracefully.
pub(crate) fn bucket_for_stage(name: &str, via_cloud: bool) -> PathBucket {
    match name {
        "store.query_peers"
        | "store.meta_put"
        | "store.dir_put"
        | "fetch.meta_get"
        | "delete.meta_get"
        | "delete.dht_delete"
        | "delete.dir_put"
        | "list.dir_get"
        | "proc.meta_svc_get"
        | "proc.query_resources" => PathBucket::Dht,
        "store.disk_write" | "delete.remove_bytes" | "fetch.disk_local" | "proc.read_arg" => {
            PathBucket::Disk
        }
        "store.flow_to_peer"
        | "store.fanout"
        | "fetch.owner_request"
        | "fetch.flow_home"
        | "proc.move_arg"
        | "proc.move_result" => PathBucket::Lan,
        "store.flow_to_cloud" | "store.cloud_put" | "fetch.cloud_request" | "fetch.flow_cloud" => {
            PathBucket::Wan
        }
        "fetch.striped" => {
            if via_cloud {
                PathBucket::Wan
            } else {
                PathBucket::Lan
            }
        }
        "fetch.retry_wait" => PathBucket::Backoff,
        "proc.exec" => PathBucket::Service,
        _ => PathBucket::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(slo_fetch_ms: u64) -> HealthPlane {
        let mut cfg = Config::paper_testbed(1);
        cfg.slo_ms = BTreeMap::from([("fetch".to_owned(), slo_fetch_ms)]);
        cfg.health_window_ms = 10_000;
        HealthPlane::new(&cfg)
    }

    #[test]
    fn breach_fires_iff_window_p99_exceeds_slo() {
        let mut hp = plane(100); // 100 ms objective
        let t = SimTime::from_secs(1);
        assert!(hp.observe_latency("fetch", t, 50_000_000).is_none());
        let breach = hp
            .observe_latency("fetch", t, 500_000_000)
            .expect("p99 is now 500ms > 100ms");
        assert_eq!(breach.slo_ns, 100_000_000);
        assert!(breach.p99_ns >= 500_000_000);
        assert_eq!(hp.violations, 1);
        // Kinds without an objective are tracked but never breach.
        assert!(hp.observe_latency("store", t, u64::MAX / 2).is_none());
        assert_eq!(hp.summaries(t).len(), 2);
    }

    #[test]
    fn stale_samples_age_out_of_the_window() {
        let mut hp = plane(100);
        let slow = 500_000_000;
        assert!(hp
            .observe_latency("fetch", SimTime::from_secs(1), slow)
            .is_some());
        // 60s later (window is 10s) the slow sample is gone; a fast op
        // completes without a breach.
        assert!(hp
            .observe_latency("fetch", SimTime::from_secs(61), 1_000_000)
            .is_none());
        let (_, h) = hp.summaries(SimTime::from_secs(61))[0];
        assert_eq!(h.count, 1);
    }

    #[test]
    fn stage_buckets_cover_every_kind_of_work() {
        assert_eq!(bucket_for_stage("fetch.meta_get", false), PathBucket::Dht);
        assert_eq!(
            bucket_for_stage("store.disk_write", false),
            PathBucket::Disk
        );
        assert_eq!(bucket_for_stage("fetch.flow_home", false), PathBucket::Lan);
        assert_eq!(bucket_for_stage("fetch.flow_cloud", true), PathBucket::Wan);
        assert_eq!(bucket_for_stage("fetch.striped", true), PathBucket::Wan);
        assert_eq!(bucket_for_stage("fetch.striped", false), PathBucket::Lan);
        assert_eq!(
            bucket_for_stage("fetch.retry_wait", false),
            PathBucket::Backoff
        );
        assert_eq!(bucket_for_stage("proc.exec", false), PathBucket::Service);
        assert_eq!(
            bucket_for_stage("fetch.channel_out", false),
            PathBucket::Other
        );
        assert_eq!(bucket_for_stage("not.a.stage", false), PathBucket::Other);
    }

    fn report(id: u64, total_ns: u64, stages: Vec<(&'static str, u64, u64)>) -> OpReport {
        let mut r = OpReport {
            id: OpId(id),
            kind: "fetch",
            object: format!("o{id}").as_str().into(),
            submitted: SimTime::ZERO,
            completed: SimTime::from_nanos(total_ns),
            breakdown: Default::default(),
            retries: 0,
            failovers: 0,
            partial_replication: 0,
            via_cloud: false,
            critical_path: Default::default(),
            stages,
            ledger: Vec::new(),
            outcome: Err(crate::report::OpError::Timeout(format!("o{id}"))),
        };
        r.critical_path = r.fold_critical_path();
        r
    }

    #[test]
    fn attribution_sums_to_total_with_other_as_remainder() {
        let r = report(
            1,
            100,
            vec![
                ("fetch.meta_get", 0, 10),
                ("fetch.flow_home", 10, 70),
                ("fetch.channel_out", 70, 80),
            ],
        );
        let cp = r.critical_path;
        assert_eq!(cp.dht_ns, 10);
        assert_eq!(cp.lan_ns, 60);
        assert_eq!(cp.other_ns, 30); // 10 charged + 20 gap
        assert_eq!(cp.total(), 100);
        assert_eq!(cp.dominant(), ("lan", 60));
        // The fold is the DAG's: bucketing its edges gives the same sums.
        let mut by_edge = c4h_telemetry::CriticalPath::default();
        for edge in r.critical_dag() {
            let bucket = if edge.wait {
                PathBucket::Other
            } else {
                bucket_for_stage(edge.label, r.via_cloud)
            };
            by_edge.add(bucket, edge.dur_ns());
        }
        assert_eq!(by_edge, cp);
    }

    #[test]
    fn slowest_ranks_retained_reports_worst_first() {
        let mut hp = plane(100);
        let mut reports = FxHashMap::default();
        let n = DETAIL_RING as u64 + 10;
        for i in 0..n {
            reports.insert(OpId(i), report(i, 1 + (i % 7) * 100, Vec::new()));
            hp.retain_detail(OpId(i), &mut reports);
        }
        let worst = hp.slowest(&reports, 3);
        assert_eq!(worst.len(), 3);
        assert!(worst[0].total() >= worst[1].total());
        // Ties rank by op id; the first ten ops left the ring.
        assert_eq!(worst[0].total().as_nanos(), 601);
        assert_eq!(worst[0].id, OpId(13));
        assert_eq!(hp.slowest(&reports, usize::MAX).len(), DETAIL_RING);
        // A report taken by the caller drops out of the ranking.
        reports.remove(&OpId(13));
        assert_eq!(hp.slowest(&reports, 1)[0].id, OpId(20));
    }

    #[test]
    fn detail_ring_releases_the_oldest_reports_detail() {
        let mut hp = plane(100);
        let mut reports = FxHashMap::default();
        for i in 0..=DETAIL_RING as u64 {
            reports.insert(OpId(i), report(i, 100, vec![("fetch.meta_get", 0, 40)]));
            hp.retain_detail(OpId(i), &mut reports);
        }
        let oldest = &reports[&OpId(0)];
        assert!(
            oldest.stages.is_empty(),
            "past the ring, detail is released"
        );
        assert_eq!(oldest.critical_path.dht_ns, 40, "the bucket fold survives");
        assert_eq!(reports[&OpId(1)].stages.len(), 1);
        assert_eq!(hp.slowest(&reports, usize::MAX).len(), DETAIL_RING);
    }
}
