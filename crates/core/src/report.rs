//! Operation reports and cost breakdowns.
//!
//! Every VStore++ operation completes with an [`OpReport`] carrying the
//! virtual-time cost breakdown the paper's Table I tabulates: total time,
//! inter-node transfer, inter-domain (XenSocket) transfer, DHT metadata
//! access — plus the decision and execution components that Figures 7–8
//! analyze.

use std::time::Duration;

use c4h_chimera::DhtError;
use c4h_simnet::{SimTime, Sym};
use c4h_telemetry::CriticalPath;
use serde::{Deserialize, Serialize};

/// Correlates a submitted operation with its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpId(pub u64);

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

/// Where time went during an operation (Table I's columns and more).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Breakdown {
    /// Guest VM ↔ dom0 shared-memory channel time ("inter domain").
    pub inter_domain: Duration,
    /// Node ↔ node and home ↔ cloud data movement ("inter node").
    pub inter_node: Duration,
    /// Metadata key-value store access time ("DHT lookup").
    pub dht: Duration,
    /// Placement decision time (resource queries + scoring).
    pub decision: Duration,
    /// Local file-system time at whichever node held the bytes.
    pub disk: Duration,
    /// Service execution time.
    pub exec: Duration,
}

impl Breakdown {
    /// The sum of all accounted components (the remainder of an operation's
    /// total is queueing plus command processing).
    pub fn accounted(&self) -> Duration {
        self.inter_domain + self.inter_node + self.dht + self.decision + self.disk + self.exec
    }
}

/// Successful operation output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpOutput {
    /// Bytes delivered to (or accepted from) the application.
    pub bytes: u64,
    /// Whether the remote cloud served or received the data.
    pub via_cloud: bool,
    /// Name of the node (or `"cloud"`) that executed a service, if any.
    pub exec_target: Option<String>,
    /// Service output summary, if a service ran.
    pub summary: Option<String>,
    /// Directory contents, for list operations.
    pub listing: Option<Vec<String>>,
}

/// Operation failures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpError {
    /// No metadata exists for the object.
    NotFound(String),
    /// No bin (nor the cloud, under the policy) could hold the object.
    NoSpace(String),
    /// No reachable node provides the requested service.
    ServiceUnavailable(u32),
    /// A metadata operation failed.
    Dht(String),
    /// The object's owner is unreachable.
    OwnerUnreachable(String),
    /// The object's access-control list rejects the requesting node.
    AccessDenied(String),
    /// The operation exhausted its retry budget or per-operation deadline.
    Timeout(String),
    /// Every candidate executor for a service crashed before completing it.
    ExecutorFailed(String),
    /// The gateway's overload-protection plane rejected the operation at
    /// admission (token bucket empty, tenant over its fair share, or the
    /// SLO-driven shed controller dropped it). Rejected operations fail
    /// fast instead of queueing toward the 60 s deadline.
    Overloaded(String),
    /// An erasure-coded object has fewer than `k` stripe holders alive, so
    /// the original bytes cannot be decoded until a repair restores them.
    StripesLost(String),
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::NotFound(n) => write!(f, "object not found: {n}"),
            OpError::NoSpace(n) => write!(f, "no storage space for {n}"),
            OpError::ServiceUnavailable(id) => write!(f, "service {id} unavailable"),
            OpError::Dht(e) => write!(f, "metadata operation failed: {e}"),
            OpError::OwnerUnreachable(n) => write!(f, "owner of {n} unreachable"),
            OpError::AccessDenied(n) => write!(f, "access to {n} denied by its ACL"),
            OpError::Timeout(n) => write!(f, "operation on {n} timed out"),
            OpError::ExecutorFailed(n) => write!(f, "every executor for {n} failed"),
            OpError::Overloaded(n) => write!(f, "operation on {n} shed by overload control"),
            OpError::StripesLost(n) => {
                write!(f, "too few surviving stripes to decode {n}")
            }
        }
    }
}

impl OpError {
    /// A stable short label for metrics and post-mortems (no payload).
    pub fn label(&self) -> &'static str {
        match self {
            OpError::NotFound(_) => "NotFound",
            OpError::NoSpace(_) => "NoSpace",
            OpError::ServiceUnavailable(_) => "ServiceUnavailable",
            OpError::Dht(_) => "Dht",
            OpError::OwnerUnreachable(_) => "OwnerUnreachable",
            OpError::AccessDenied(_) => "AccessDenied",
            OpError::Timeout(_) => "Timeout",
            OpError::ExecutorFailed(_) => "ExecutorFailed",
            OpError::Overloaded(_) => "Overloaded",
            OpError::StripesLost(_) => "StripesLost",
        }
    }
}

impl std::error::Error for OpError {}

impl From<DhtError> for OpError {
    fn from(e: DhtError) -> Self {
        OpError::Dht(e.to_string())
    }
}

/// One causal-ledger decision event attached to a completed report: a
/// serialization-friendly copy of `c4h_telemetry::LedgerEvent` with the
/// kind resolved to its stable label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalEvent {
    /// Sequence number within the op's ring (1-based; 0 never occurs).
    pub seq: u32,
    /// `seq` of the inducing event, or 0 for a root decision.
    pub cause: u32,
    /// Virtual-time instant of the decision, nanoseconds.
    pub ts_ns: u64,
    /// Stable kind label (`"backoff.wait"`, `"hedge.launch"`, …).
    pub kind: String,
    /// Kind-specific detail.
    pub a: u64,
    /// Kind-specific detail.
    pub b: u64,
}

impl From<c4h_telemetry::LedgerEvent> for CausalEvent {
    fn from(e: c4h_telemetry::LedgerEvent) -> Self {
        CausalEvent {
            seq: e.seq,
            cause: e.cause,
            ts_ns: e.ts_ns,
            kind: e.kind.label().to_owned(),
            a: e.a,
            b: e.b,
        }
    }
}

/// The completed record of one operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpReport {
    /// The operation.
    pub id: OpId,
    /// `"store"`, `"fetch"`, `"process"`, or `"fetch_process"`.
    pub kind: &'static str,
    /// The object operated on (interned name).
    pub object: Sym,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time.
    pub completed: SimTime,
    /// Cost components.
    pub breakdown: Breakdown,
    /// Metadata (DHT) request retries the operation needed.
    pub retries: u32,
    /// Failovers the operation performed: fetches redirected to another
    /// replica, process executions re-dispatched to another candidate, or
    /// store replica targets skipped after a crash.
    pub failovers: u32,
    /// Replica copies a `store` could not place because fewer live peers
    /// than `replication - 1` were available (or a replica flow failed
    /// with no substitute). Zero for fully replicated stores and for all
    /// other operation kinds.
    pub partial_replication: u32,
    /// Whether the remote cloud served or received the op's bytes. Set for
    /// failed ops too: it decides which bucket `fetch.striped` spans charge.
    pub via_cloud: bool,
    /// Where the operation's virtual time went: the bucket fold of
    /// [`OpReport::critical_dag`], taken at completion whenever tracing or
    /// the causal ledger was on (buckets then sum to [`OpReport::total`]).
    /// All-zero when both were off. Survives the release of `stages`.
    #[serde(default)]
    pub critical_path: CriticalPath,
    /// The op's completed stage spans as `(name, start_ns, end_ns)`,
    /// sequential and non-overlapping — the single record of where its
    /// time went, moved out of the op at completion while tracing or the
    /// causal ledger is on. Released (emptied) once the report leaves the
    /// retained-detail ring; empty when both were off.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub stages: Vec<(&'static str, u64, u64)>,
    /// The op's causal-ledger decision events, in `seq` order. Populated
    /// only while the causal ledger is enabled, and released with
    /// `stages`; empty otherwise.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub ledger: Vec<CausalEvent>,
    /// Success output or failure.
    pub outcome: Result<OpOutput, OpError>,
}

impl OpReport {
    /// Total operation latency.
    pub fn total(&self) -> Duration {
        self.completed - self.submitted
    }

    /// Unwraps a successful outcome.
    ///
    /// # Panics
    ///
    /// Panics with the error message if the operation failed.
    pub fn expect_ok(&self) -> &OpOutput {
        match &self.outcome {
            Ok(o) => o,
            Err(e) => panic!("{} on {} failed: {e}", self.kind, self.object),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accounts_components() {
        let b = Breakdown {
            inter_domain: Duration::from_millis(25),
            inter_node: Duration::from_millis(100),
            dht: Duration::from_millis(12),
            decision: Duration::from_millis(5),
            disk: Duration::from_millis(30),
            exec: Duration::from_millis(0),
        };
        assert_eq!(b.accounted(), Duration::from_millis(172));
    }

    #[test]
    fn report_total_is_elapsed() {
        let r = OpReport {
            id: OpId(1),
            kind: "fetch",
            object: "x".into(),
            submitted: SimTime::from_millis(100),
            completed: SimTime::from_millis(350),
            breakdown: Breakdown::default(),
            retries: 0,
            failovers: 0,
            partial_replication: 0,
            via_cloud: false,
            critical_path: CriticalPath::default(),
            stages: Vec::new(),
            ledger: Vec::new(),
            outcome: Ok(OpOutput {
                bytes: 10,
                via_cloud: false,
                exec_target: None,
                summary: None,
                listing: None,
            }),
        };
        assert_eq!(r.total(), Duration::from_millis(250));
        assert_eq!(r.expect_ok().bytes, 10);
        assert_eq!(OpId(1).to_string(), "op#1");
    }

    #[test]
    #[should_panic(expected = "object not found")]
    fn expect_ok_panics_on_failure() {
        let r = OpReport {
            id: OpId(2),
            kind: "fetch",
            object: "ghost".into(),
            submitted: SimTime::ZERO,
            completed: SimTime::ZERO,
            breakdown: Breakdown::default(),
            retries: 0,
            failovers: 1,
            partial_replication: 0,
            via_cloud: false,
            critical_path: CriticalPath::default(),
            stages: Vec::new(),
            ledger: Vec::new(),
            outcome: Err(OpError::NotFound("ghost".into())),
        };
        r.expect_ok();
    }

    #[test]
    fn path_attribution_totals_and_dominant() {
        let mut cp = CriticalPath::default();
        cp.add(c4h_telemetry::PathBucket::Wan, 700);
        cp.add(c4h_telemetry::PathBucket::Dht, 200);
        let r = OpReport {
            id: OpId(3),
            kind: "fetch",
            object: "x".into(),
            submitted: SimTime::ZERO,
            completed: SimTime::from_nanos(900),
            breakdown: Breakdown::default(),
            retries: 0,
            failovers: 0,
            partial_replication: 0,
            via_cloud: true,
            critical_path: cp,
            stages: Vec::new(),
            ledger: Vec::new(),
            outcome: Err(OpError::Timeout("x".into())),
        };
        let p = &r.critical_path;
        assert_eq!(p.wan_ns, 700);
        assert_eq!(p.total(), 900);
        assert_eq!(p.total(), r.total().as_nanos() as u64);
        assert_eq!(p.dominant(), ("wan", 700));
        assert_eq!(CriticalPath::default().dominant(), ("other", 0));
    }

    #[test]
    fn error_labels_are_stable() {
        assert_eq!(OpError::Timeout("x".into()).label(), "Timeout");
        assert_eq!(
            OpError::ExecutorFailed("x".into()).label(),
            "ExecutorFailed"
        );
        assert_eq!(
            OpError::OwnerUnreachable("x".into()).label(),
            "OwnerUnreachable"
        );
        assert_eq!(OpError::Overloaded("x".into()).label(), "Overloaded");
        assert_eq!(OpError::StripesLost("x".into()).label(), "StripesLost");
    }

    #[test]
    fn errors_display() {
        assert!(OpError::NoSpace("x".into()).to_string().contains("x"));
        assert!(OpError::ServiceUnavailable(3).to_string().contains('3'));
        let e: OpError = DhtError::Timeout.into();
        assert!(e.to_string().contains("timed out"));
        assert!(OpError::Timeout("y".into())
            .to_string()
            .contains("timed out"));
        assert!(OpError::ExecutorFailed("svc".into())
            .to_string()
            .contains("executor"));
        assert!(OpError::Overloaded("hot".into())
            .to_string()
            .contains("shed"));
    }
}
