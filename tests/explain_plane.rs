//! Acceptance tests for the causal op ledger and explain plane: the
//! exact-sum invariant of critical-path DAGs under chaos (crash mid-fetch,
//! hedge races, open breakers), byte determinism with the ledger disabled
//! and enabled, and the bounded per-op ring's chain-preserving eviction.

use std::fmt::Write as _;
use std::time::Duration;

use cloud4home::{Cloud4Home, Config, NodeId, Object, OpReport, StorePolicy, LEDGER_NONE};

const OBJ_BYTES: u64 = 256 << 10;

/// Testbed with the causal ledger recording (tracing stays off: the two
/// planes are independent and `explain` must work without the recorder).
fn ledger_config(seed: u64) -> Config {
    let mut config = Config::paper_testbed(seed);
    config.ledger = true;
    config
}

/// Asserts the exact-sum invariant on one completed report: the DAG's
/// edges are adjacent, tile `[submitted, completed]` with no gap or
/// overlap, sum to the op latency to the nanosecond, and account for
/// every recorded ledger event exactly once.
fn assert_exact_sum(report: &OpReport) {
    let dag = report.critical_dag();
    assert!(
        !dag.is_empty(),
        "{}: a ledger-enabled op must yield a critical-path DAG",
        report.id
    );
    let first = dag.first().expect("non-empty");
    let last = dag.last().expect("non-empty");
    assert_eq!(
        first.start_ns,
        report.submitted.as_nanos(),
        "{}: the DAG must start at submission",
        report.id
    );
    assert_eq!(
        last.end_ns,
        report.completed.as_nanos(),
        "{}: the DAG must end at completion",
        report.id
    );
    for pair in dag.windows(2) {
        assert_eq!(
            pair[0].end_ns, pair[1].start_ns,
            "{}: DAG edges must be adjacent (no gap, no overlap)",
            report.id
        );
    }
    let summed: u64 = dag.iter().map(|e| e.end_ns - e.start_ns).sum();
    let latency = report.total().as_nanos() as u64;
    assert_eq!(
        summed, latency,
        "{}: DAG path length must equal op latency exactly",
        report.id
    );
    let attached: usize = dag.iter().map(|e| e.causes.len()).sum();
    assert_eq!(
        attached,
        report.ledger.len(),
        "{}: every ledger event must land on exactly one edge",
        report.id
    );
}

/// Every retained event's cause link must resolve inside the same report:
/// eviction may drop events, but never a link out from under a survivor.
fn assert_chain_closed(report: &OpReport) {
    let seqs: Vec<u32> = report.ledger.iter().map(|e| e.seq).collect();
    for e in &report.ledger {
        assert!(
            e.cause == LEDGER_NONE || seqs.contains(&e.cause),
            "{}: event #{} ({}) points at evicted cause #{}",
            report.id,
            e.seq,
            e.kind,
            e.cause
        );
    }
}

#[test]
fn exact_sum_survives_crash_mid_fetch_and_open_breaker() {
    let mut config = ledger_config(999);
    config.overload.enabled = true;
    config.overload.breaker_failures = 2;
    config.overload.breaker_cooldown_ms = 10_000;
    let mut home = Cloud4Home::new(config);

    let obj = Object::synthetic("chaos/payload.bin", 5, OBJ_BYTES, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    let stored = home.run_until_complete(op);
    stored.expect_ok();
    assert_exact_sum(&stored);

    // Three concurrent fetches are mid-transfer when the holder crashes:
    // each severed path records transfer.failed and the retry/backoff
    // chain that follows, and the failures trip the path breaker.
    let pending: Vec<_> = [2usize, 3, 4]
        .iter()
        .map(|&c| home.fetch_object(NodeId(c), "chaos/payload.bin"))
        .collect();
    home.run_for(Duration::from_millis(80));
    home.crash_node(NodeId(1));
    let reports: Vec<OpReport> = pending
        .into_iter()
        .map(|id| home.run_until_complete(id))
        .collect();
    let failed = reports.iter().filter(|r| r.outcome.is_err()).count();
    assert!(
        failed >= 2,
        "crash mid-flow must fail the in-flight fetches"
    );
    for r in &reports {
        assert_exact_sum(r);
        assert_chain_closed(r);
    }
    let severed = reports
        .iter()
        .flat_map(|r| &r.ledger)
        .filter(|e| e.kind == "transfer.failed")
        .count();
    assert!(
        severed >= 2,
        "severed transfers must appear in the failed ops' ledgers"
    );
    assert!(home.stats().breaker_trips >= 1, "the breaker must trip");
    assert!(
        home.background_ledger()
            .iter()
            .any(|e| e.kind.label() == "breaker.trip"),
        "breaker trips belong to the background ring"
    );

    // The holder rejoins inside the cooldown: the open breaker fast-fails
    // the next fetch, and the skip is recorded on that op's own ring.
    home.rejoin_node(NodeId(1)).expect("a live seed exists");
    let op = home.fetch_object(NodeId(2), "chaos/payload.bin");
    let report = home.run_until_complete(op);
    assert!(report.outcome.is_err(), "open breaker must fast-fail");
    assert_exact_sum(&report);
    assert!(
        report.ledger.iter().any(|e| e.kind == "breaker.skip"),
        "the fast-failed op must carry its breaker.skip decision: {:?}",
        report.ledger
    );

    // The rendered explanation restates the invariant with real numbers.
    let text = home.explain_text(report.id);
    assert!(text.contains("exact-sum"), "{text}");
    assert!(text.contains("(ok)"), "{text}");
    assert!(!text.contains("VIOLATED"), "{text}");
}

#[test]
fn exact_sum_survives_hedge_race() {
    let mut config = ledger_config(9200);
    config.replication = 3;
    config.fetch_sources = 2;
    config.fetch_hedge = 0.01;
    let mut home = Cloud4Home::new(config);
    let obj = Object::synthetic("chaos/hedge.bin", 1, 48 << 20, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    home.run_until_idle();

    let client = (0..home.node_count())
        .map(NodeId)
        .find(|&id| home.objects_on(id) == 0)
        .expect("a non-holding client");
    let op = home.fetch_object(client, "chaos/hedge.bin");
    let report = home.run_until_complete(op);
    report.expect_ok();
    assert!(home.stats().hedged_fetches >= 1, "the hedge must fire");
    assert_exact_sum(&report);
    assert_chain_closed(&report);
    let launch = report
        .ledger
        .iter()
        .find(|e| e.kind == "hedge.launch")
        .unwrap_or_else(|| {
            panic!(
                "the raced stripe must record its launch: {:?}",
                report.ledger
            )
        });
    let cancel = report
        .ledger
        .iter()
        .find(|e| e.kind == "hedge.cancel")
        .unwrap_or_else(|| {
            panic!(
                "the losing copy must record its cancel: {:?}",
                report.ledger
            )
        });
    assert_eq!(
        cancel.cause, launch.seq,
        "the cancel must chain back to the launch that raced it"
    );
    let json = home.explain_json(report.id).expect("report is retained");
    assert!(json.contains("\"edges\":["), "{json}");
    assert!(json.contains("hedge.launch"), "{json}");
}

/// The scripted workload the determinism tests replay: stores, fetches,
/// and a delete from rotating clients, then drain to idle.
fn drive(home: &mut Cloud4Home) -> String {
    let mut transcript = String::new();
    let names: Vec<String> = (0..4).map(|i| format!("det/obj-{i}.bin")).collect();
    for (i, name) in names.iter().enumerate() {
        let obj = Object::synthetic(name, 300 + i as u64, (64 + 32 * i as u64) << 10, "doc");
        let op = home.store_object(NodeId(i % 4), obj, StorePolicy::MandatoryFirst, true);
        let r = home.run_until_complete(op);
        let _ = writeln!(transcript, "store {name} -> {:?}", r.outcome);
    }
    for (i, name) in names.iter().enumerate() {
        let op = home.fetch_object(NodeId((i + 2) % 4), name);
        let r = home.run_until_complete(op);
        let _ = writeln!(transcript, "fetch {name} -> {:?}", r.outcome);
    }
    let op = home.delete_object(NodeId(0), &names[3]);
    let r = home.run_until_complete(op);
    let _ = writeln!(transcript, "delete -> {:?}", r.outcome);
    home.run_until_idle();
    let _ = writeln!(transcript, "now_ns={}", home.now().as_nanos());
    transcript
}

#[test]
fn ledger_disabled_runs_stay_byte_identical() {
    // Tracing on, ledger at its default (off): the golden-corpus posture.
    let mut config = Config::paper_testbed(31);
    config.tracing = true;

    let mut a = Cloud4Home::new(config.clone());
    let ta = drive(&mut a);
    let mut b = Cloud4Home::new(config.clone());
    let tb = drive(&mut b);
    assert_eq!(ta, tb, "ledger-off runs must replay byte-identically");
    assert_eq!(a.metrics_json(), b.metrics_json());
    assert_eq!(a.prometheus_text(), b.prometheus_text());

    // None of the ledger-gated surfaces may leak into a default run.
    assert!(!a.ledger_enabled());
    let prom = a.prometheus_text();
    assert!(
        !prom.contains("engine_wheel") && !prom.contains("engine_ledger"),
        "engine introspection gauges must stay dark with the ledger off"
    );
    assert!(
        !a.metrics_json().contains("adaptive.action."),
        "decision counters must stay dark with the ledger off"
    );

    // The same script with the ledger on lands on the same virtual
    // instant with the same outcomes: recording draws no randomness and
    // mutates no simulated state.
    let mut lc = config;
    lc.ledger = true;
    let mut c = Cloud4Home::new(lc.clone());
    let tc = drive(&mut c);
    assert_eq!(
        ta, tc,
        "enabling the ledger must not perturb outcomes or virtual time"
    );

    // And the explain renderings themselves are deterministic per seed.
    let mut d = Cloud4Home::new(lc);
    let _ = drive(&mut d);
    for id in 1..=9u64 {
        let op = cloud4home::OpId(id);
        assert_eq!(c.explain_text(op), d.explain_text(op), "op {id}");
        assert_eq!(c.explain_json(op), d.explain_json(op), "op {id}");
    }
    assert_eq!(c.slowest_text(5), d.slowest_text(5));
    assert_eq!(c.outliers_text("fetch"), d.outliers_text("fetch"));
}

#[test]
fn tiny_ring_eviction_preserves_live_chains() {
    // A four-slot ring under an op that records five decisions across two
    // causal chains (a severed stripe reassigned mid-fetch, plus a hedge
    // race on the tail stripe): the ring must overflow, and eviction must
    // drop an unchained root rather than orphan a survivor's cause link.
    let mut config = ledger_config(999);
    config.ledger_ring = 4;
    config.replication = 3;
    config.fetch_sources = 2;
    config.fetch_hedge = 0.01;
    let mut home = Cloud4Home::new(config);

    let obj = Object::synthetic("tiny/stripe.bin", 5, 8 << 20, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    home.run_until_idle();
    let client = (0..home.node_count())
        .map(NodeId)
        .find(|&id| home.objects_on(id) == 0)
        .expect("a non-holding client");
    let op = home.fetch_object(client, "tiny/stripe.bin");
    home.run_for(Duration::from_millis(300));
    home.crash_node(NodeId(1));
    let report = home.run_until_complete(op);
    report.expect_ok();

    // seq is 1-based and monotone per ring: a max seq above the retained
    // count proves events were evicted — and every survivor's chain must
    // still close inside the report.
    assert!(
        report.ledger.len() <= 4,
        "the ring must stay within its configured bound: {:?}",
        report.ledger
    );
    let max_seq = report.ledger.iter().map(|e| e.seq).max().unwrap_or(0);
    assert!(
        max_seq as usize > report.ledger.len(),
        "five decisions through a four-slot ring must evict: {:?}",
        report.ledger
    );
    for kind in [
        "transfer.failed",
        "stripe.reassign",
        "hedge.launch",
        "hedge.cancel",
    ] {
        assert!(
            report.ledger.iter().any(|e| e.kind == kind),
            "the chained {kind} decision must survive eviction: {:?}",
            report.ledger
        );
    }
    assert_exact_sum(&report);
    assert_chain_closed(&report);
}

/// The dominant-bucket token of the line `text` prints for `report`.
fn dominant_in(text: &str, report: &OpReport) -> String {
    let prefix = format!("{} {} ", report.id, report.kind);
    let line = text
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no line for {}:\n{text}", report.id));
    line.split("dominant=")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no dominant bucket in {line:?}"))
        .to_owned()
}

#[test]
fn traced_wan_fetch_agrees_across_views_without_the_ledger() {
    // Tracing on, ledger off: every latency view must still read the same
    // causal source — the report's stage log — and agree on where a
    // WAN-bound cloud fetch spent its time.
    let mut config = Config::paper_testbed(312);
    config.tracing = true;
    let mut home = Cloud4Home::new(config);
    assert!(!home.ledger_enabled());
    let obj = Object::synthetic("cloud/archive.bin", 9, 4 << 20, "doc");
    let op = home.store_object(NodeId(0), obj, StorePolicy::ForceCloud, true);
    home.run_until_complete(op).expect_ok();
    let op = home.fetch_object(NodeId(1), "cloud/archive.bin");
    let report = home.run_until_complete(op);
    assert!(report.expect_ok().via_cloud, "the bytes live in the cloud");

    let (bucket, ns) = report.critical_path.dominant();
    assert_eq!(bucket, "wan", "{report:?}");
    assert!(ns > report.total().as_nanos() as u64 / 2);
    assert_eq!(dominant_in(&home.slowest_text(8), &report), bucket);
    assert_eq!(dominant_in(&home.top_text(), &report), bucket);

    // `explain` renders the DAG's edges, not the no-data fallback, and the
    // fold over those edges is the report's bucket split.
    let text = home.explain_text(report.id);
    assert!(!text.contains("no causal data"), "{text}");
    assert!(text.contains("[wan]"), "{text}");
    assert!(text.contains("(ok)"), "{text}");
    assert_exact_sum(&report);
    let wan_edges: u64 = report
        .critical_dag()
        .iter()
        .filter(|e| !e.wait && text.contains(&format!("{} [wan]", e.label)))
        .map(|e| e.dur_ns())
        .sum();
    assert_eq!(wan_edges, report.critical_path.wan_ns);
}
