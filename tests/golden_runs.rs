//! Golden byte-determinism corpus for the event engine.
//!
//! Every cell in the matrix below runs a scripted workload under a fixed
//! seed and folds the complete observable output — final virtual time,
//! `RunStats`, every op report line, the metrics JSON dump, and the
//! Prometheus snapshot — into one 64-bit FNV-1a digest. The digests are
//! committed in `tests/golden/digests.json`; any engine change that
//! perturbs a single byte of any run fails here.
//!
//! The committed digests were generated with the pre-wheel `BinaryHeap`
//! scheduler and must stay valid under the timer-wheel engine: this file
//! is the same-seed → same-bytes contract in executable form. See
//! `tests/golden/README.md` for when re-blessing (`C4H_BLESS=1`) is
//! legitimate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use cloud4home::{
    Cloud4Home, Config, FaultEvent, FaultPlan, NodeId, Object, RoutePolicy, ServiceKind,
    StorePolicy,
};

/// FNV-1a 64-bit, the same construction the proptest shim uses for test
/// seeds: dependency-free and stable across platforms.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/digests.json")
}

/// Testbed base config with tracing on so the metrics dump is non-trivial.
fn base(seed: u64) -> Config {
    let mut config = Config::paper_testbed(seed);
    config.tracing = true;
    config
}

/// The preferred client, or the next live node after it (chaos cells
/// crash nodes mid-script; the script routes around them like a real
/// client library would).
fn live_client(home: &Cloud4Home, preferred: usize) -> NodeId {
    let n = home.node_count();
    for k in 0..n {
        let id = NodeId((preferred + k) % n);
        if home.node_alive(id) {
            return id;
        }
    }
    panic!("no live node in the deployment");
}

/// The scripted workload every cell runs: stores from rotating clients
/// (two policies), fetches from different clients, a directory list, one
/// service invocation, and a delete — then `settle` more virtual time (if
/// any) for background planes to act, and drain to idle.
fn drive(home: &mut Cloud4Home, label: &str, settle: Duration) -> String {
    let mut transcript = format!("cell={label}\n");
    let mut names = Vec::new();
    for i in 0..6u64 {
        let name = format!("golden/{label}/obj-{i}.bin");
        let obj = Object::synthetic(&name, 100 + i, (64 + 48 * i) << 10, "doc");
        let policy = if i % 2 == 0 {
            StorePolicy::MandatoryFirst
        } else {
            StorePolicy::SizeThreshold {
                cloud_at_bytes: 160 << 10,
            }
        };
        let client = live_client(home, i as usize);
        let op = home.store_object(client, obj, policy, true);
        let report = home.run_until_complete(op);
        let _ = writeln!(transcript, "store {name} -> {:?}", report.outcome);
        names.push(name);
    }
    for (i, name) in names.iter().enumerate() {
        let client = live_client(home, i + 3);
        let op = home.fetch_object(client, name);
        let report = home.run_until_complete(op);
        let _ = writeln!(transcript, "fetch {name} -> {:?}", report.outcome);
    }
    let op = home.list_objects(live_client(home, 1), &format!("golden/{label}"));
    let report = home.run_until_complete(op);
    let _ = writeln!(transcript, "list -> {:?}", report.outcome);
    let op = home.process_object(
        live_client(home, 2),
        &names[0],
        ServiceKind::Compress,
        RoutePolicy::Performance,
    );
    let report = home.run_until_complete(op);
    let _ = writeln!(transcript, "process -> {:?}", report.outcome);
    let op = home.delete_object(live_client(home, 5), &names[5]);
    let report = home.run_until_complete(op);
    let _ = writeln!(transcript, "delete -> {:?}", report.outcome);
    if !settle.is_zero() {
        home.run_for(settle);
    }
    home.run_until_idle();
    transcript
}

/// One run of a cell: its full observable transcript, and the deployment
/// it leaves behind for the cell's own assertions.
fn run_once(
    label: &str,
    config: Config,
    plan: Option<FaultPlan>,
    settle: Duration,
) -> (String, Cloud4Home) {
    // Chaos perturbs placement enough that a fixed script can dead-end;
    // every cell keeps the same script and simply records outcomes.
    let mut home = Cloud4Home::new(config);
    if let Some(plan) = plan {
        home.inject_faults(plan);
    }
    let mut transcript = drive(&mut home, label, settle);
    let _ = writeln!(transcript, "now_ns={}", home.now().as_nanos());
    let _ = writeln!(transcript, "stats={:?}", home.stats());
    transcript.push_str(&home.metrics_json());
    transcript.push_str(&home.prometheus_text());
    (transcript, home)
}

/// Runs one cell twice and folds every observable surface into its
/// digest, handing back the first run's deployment.
fn run_cell_settled(
    label: &str,
    config: Config,
    plan: Option<FaultPlan>,
    settle: Duration,
) -> (String, Cloud4Home) {
    let (transcript, home) = run_once(label, config.clone(), plan.clone(), settle);
    // Belt and braces: the digest must also be reproducible within this
    // process — catches map-iteration-order dependence immediately rather
    // than as a cross-machine mystery.
    let (again, _) = run_once(label, config, plan, settle);
    assert!(
        transcript == again,
        "cell {label} is not self-deterministic (two in-process runs differ)"
    );
    (format!("{:016x}", fnv64(transcript.as_bytes())), home)
}

/// Runs one cell with no settling time (see [`run_cell_settled`]).
fn run_cell(label: &str, config: Config, plan: Option<FaultPlan>) -> String {
    run_cell_settled(label, config, plan, Duration::ZERO).0
}

/// A plan exercising crash, partition, bursty loss, and heal.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .at(
            Duration::from_secs(1),
            FaultEvent::BurstyLoss {
                mean_loss: 0.05,
                mean_burst_len: 4.0,
            },
        )
        .at(Duration::from_secs(3), FaultEvent::Crash(NodeId(4)))
        .at(
            Duration::from_secs(6),
            FaultEvent::Partition(vec![vec![NodeId(1)]]),
        )
        .at(Duration::from_secs(15), FaultEvent::Heal)
}

/// The seed × config matrix: every cell name maps to its digest.
fn corpus() -> BTreeMap<String, String> {
    let mut cells = BTreeMap::new();

    cells.insert(
        "defaults-s11".to_owned(),
        run_cell("defaults-s11", base(11), None),
    );
    cells.insert(
        "defaults-s12".to_owned(),
        run_cell("defaults-s12", base(12), None),
    );

    let mut config = base(11);
    config.replication = 3;
    config.replica_quorum = 2;
    cells.insert(
        "replication-quorum-s11".to_owned(),
        run_cell("replication-quorum-s11", config, None),
    );

    let mut config = base(11);
    config.replication = 3;
    config.fetch_sources = 3;
    config.fetch_hedge = 1.3;
    cells.insert(
        "striping-hedge-s11".to_owned(),
        run_cell("striping-hedge-s11", config, None),
    );

    let mut config = base(11);
    config.chunk_bytes = 64 << 10;
    config.chunk_window = 4;
    cells.insert(
        "chunked-s11".to_owned(),
        run_cell("chunked-s11", config, None),
    );

    let mut config = base(11);
    config.replication = 2;
    cells.insert(
        "chaos-s11".to_owned(),
        run_cell("chaos-s11", config, Some(chaos_plan())),
    );

    let mut config = base(11);
    config.overload.enabled = true;
    config.overload.tenant_max_inflight = 4;
    config.overload.shed_step_permille = 400;
    config.overload.shed_decay_permille = 10;
    config.overload.shed_max_permille = 900;
    cells.insert(
        "overload-s11".to_owned(),
        run_cell("overload-s11", config, None),
    );

    // Causal ledger on: pins the explain plane's completion path (stage
    // log moved into the report, bucket fold, retained-detail ring) and
    // the ledger-gated engine gauges and exemplars.
    let mut config = base(11);
    config.ledger = true;
    cells.insert(
        "ledger-s11".to_owned(),
        run_cell("ledger-s11", config, None),
    );

    // Adaptive placement with erasure coding under chaos: pins repair, EC
    // conversion and EC rebuild transfers (the last two started by no
    // other cell) under crashes, a rejoin and a partition. Lowered
    // thresholds and a settling span let cold objects convert before the
    // drain.
    let mut config = base(11);
    config.replication = 2;
    config.adaptive.enabled = true;
    config.adaptive.replication_min = 2;
    config.adaptive.interval_ms = 1_000;
    config.adaptive.ec_threshold_bytes = 128 << 10;
    let label = "adaptive-chaos-s11";
    let plan = chaos_plan()
        .at(Duration::from_secs(30), FaultEvent::Rejoin(NodeId(4)))
        .at(Duration::from_secs(45), FaultEvent::Crash(NodeId(3)));
    let (digest, home) = run_cell_settled(label, config, Some(plan), Duration::from_secs(120));
    let coded = (0..6)
        .filter(|i| home.is_erasure_coded(&format!("golden/{label}/obj-{i}.bin")))
        .count();
    assert!(coded >= 1, "{label}: no object converted to EC stripes");
    assert!(
        home.stats().repairs_started >= 1,
        "{label}: no repair started"
    );
    cells.insert(label.to_owned(), digest);

    cells
}

fn render_digests(cells: &BTreeMap<String, String>) -> String {
    let mut out = String::from("{\n");
    for (i, (name, digest)) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(out, "  \"{name}\": \"{digest}\"{comma}");
    }
    out.push_str("}\n");
    out
}

fn parse_digests(json: &str) -> BTreeMap<String, String> {
    // The file is machine-written by this test; parse the exact shape it
    // renders rather than pulling in a JSON dependency.
    let mut out = BTreeMap::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some((k, v)) = line.split_once(':') {
            let k = k.trim().trim_matches('"');
            let v = v.trim().trim_matches('"');
            if !k.is_empty() && !v.is_empty() && k != "{" {
                out.insert(k.to_owned(), v.to_owned());
            }
        }
    }
    out
}

/// The corpus gate: every cell's digest must match the committed file.
/// Run with `C4H_BLESS=1` to regenerate `tests/golden/digests.json` after
/// an *intentional* behavior change (see `tests/golden/README.md`).
#[test]
fn golden_corpus_digests_match() {
    let cells = corpus();
    let path = digest_path();
    if std::env::var_os("C4H_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create tests/golden");
        std::fs::write(&path, render_digests(&cells)).expect("write digests.json");
        eprintln!("blessed {} cells into {}", cells.len(), path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run with C4H_BLESS=1 to generate it",
            path.display()
        )
    });
    let committed = parse_digests(&committed);
    let mut failures = Vec::new();
    for (name, digest) in &cells {
        match committed.get(name) {
            Some(want) if want == digest => {}
            Some(want) => failures.push(format!("{name}: committed {want}, got {digest}")),
            None => failures.push(format!("{name}: not in committed digest file")),
        }
    }
    for name in committed.keys() {
        if !cells.contains_key(name) {
            failures.push(format!("{name}: committed but no longer generated"));
        }
    }
    assert!(
        failures.is_empty(),
        "golden corpus diverged — an engine change perturbed bytes \
         (re-bless ONLY for intentional behavior changes):\n{}",
        failures.join("\n")
    );
}
