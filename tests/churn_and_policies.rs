//! Churn handling and workload-replay integration tests.

use std::time::Duration;

use c4h_workloads::{generate, OpKind, TraceConfig};
use cloud4home::{
    Cloud4Home, Config, FaultEvent, FaultPlan, NodeId, Object, OpError, OpId, Placement,
    RoutePolicy, ServiceKind, StorePolicy,
};

fn testbed(seed: u64) -> Cloud4Home {
    Cloud4Home::new(Config::paper_testbed(seed))
}

#[test]
fn metadata_survives_graceful_leave() {
    let mut home = testbed(40);
    // Objects stored on node 1; node 3 (not the owner) leaves.
    for i in 0..4u64 {
        let obj = Object::synthetic(&format!("leave/{i}"), i, 512 << 10, "doc");
        let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
    }
    home.leave_node(NodeId(3));
    home.run_for(Duration::from_secs(3));
    for i in 0..4u64 {
        let op = home.fetch_object(NodeId(2), &format!("leave/{i}"));
        let r = home.run_until_complete(op);
        assert!(
            r.outcome.is_ok(),
            "object {i} lost after leave: {:?}",
            r.outcome
        );
    }
}

#[test]
fn replicated_objects_survive_owner_departure() {
    let mut config = Config::paper_testbed(41);
    config.replication = 2;
    let mut home = Cloud4Home::new(config);
    let obj = Object::synthetic("depart/data.bin", 1, 512 << 10, "doc");
    let op = home.store_object(NodeId(3), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    assert_eq!(home.objects_on(NodeId(3)), 1);

    home.crash_node(NodeId(3));
    home.run_for(Duration::from_secs(8));
    // The owner is gone, but a data replica still serves the fetch.
    let op = home.fetch_object(NodeId(1), "depart/data.bin");
    let r = home.run_until_complete(op);
    assert!(r.outcome.is_ok(), "replica should serve: {:?}", r.outcome);
    assert!(r.failovers >= 1, "fetch must record the failover");
    assert_eq!(r.expect_ok().bytes, 512 << 10);
}

#[test]
fn crash_is_detected_and_metadata_recovered_from_replicas() {
    let mut home = testbed(42);
    for i in 0..6u64 {
        let obj = Object::synthetic(&format!("crash/{i}"), i, 256 << 10, "doc");
        let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
    }
    // Crash a non-owner node and let the liveness detector run.
    home.crash_node(NodeId(4));
    home.run_for(Duration::from_secs(12));
    // Metadata for the objects is still resolvable (replicas promoted).
    let mut ok = 0;
    for i in 0..6u64 {
        let op = home.fetch_object(NodeId(2), &format!("crash/{i}"));
        let r = home.run_until_complete(op);
        if r.outcome.is_ok() {
            ok += 1;
        }
    }
    assert!(
        ok >= 5,
        "nearly all metadata should survive a single crash with replication, got {ok}/6"
    );
}

#[test]
fn rejoined_node_serves_again() {
    let mut home = testbed(43);
    home.leave_node(NodeId(2));
    home.run_for(Duration::from_secs(2));
    home.rejoin_node(NodeId(2)).expect("a live seed remains");
    // The rejoined node can store and fetch again.
    let obj = Object::synthetic("rejoin/x.bin", 1, 256 << 10, "doc");
    let op = home.store_object(NodeId(2), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    let op = home.fetch_object(NodeId(0), "rejoin/x.bin");
    home.run_until_complete(op).expect_ok();
}

#[test]
fn service_placement_survives_provider_departure() {
    let mut home = testbed(44);
    let obj = Object::synthetic("svc/img.jpg", 1, 512 << 10, "jpeg");
    let op = home.store_object(NodeId(2), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    // The desktop provides face detection; make it leave. netbook-0 still
    // provides it.
    home.leave_node(NodeId(5));
    home.run_for(Duration::from_secs(3));
    let op = home.process_object(
        NodeId(2),
        "svc/img.jpg",
        ServiceKind::FaceDetect,
        RoutePolicy::Performance,
    );
    let r = home.run_until_complete(op);
    let out = r.expect_ok();
    assert_ne!(out.exec_target.as_deref(), Some("desktop"));
}

#[test]
fn edonkey_trace_replays_cleanly() {
    // Keep the trace light: small objects, all four buckets scaled down.
    let mut home = testbed(45);
    let mut trace_cfg = TraceConfig::paper_default(60);
    trace_cfg.files = 40;
    trace_cfg.size_override = Some((256 << 10, 1 << 20));
    let trace = generate(&trace_cfg, 9);

    let mut pending: Vec<(OpId, usize)> = Vec::new();
    let mut stored = std::collections::HashSet::new();
    let flush = |home: &mut Cloud4Home, pending: &mut Vec<(OpId, usize)>| {
        for (op, _) in pending.drain(..) {
            let r = home.run_until_complete(op);
            assert!(r.outcome.is_ok(), "trace op failed: {:?}", r.outcome);
        }
    };
    for top in &trace.ops {
        let client = NodeId(top.client % home.node_count());
        let file = &trace.files[top.file];
        match top.op {
            OpKind::Store => {
                let obj = Object::synthetic(
                    &file.name,
                    file.content_seed,
                    file.size_bytes,
                    file.kind.content_type(),
                );
                pending.push((
                    home.store_object(client, obj, StorePolicy::MandatoryFirst, true),
                    top.file,
                ));
                stored.insert(top.file);
            }
            OpKind::Fetch => {
                assert!(stored.contains(&top.file), "trace invariant");
                // A fetch must not race its own file's in-flight store.
                if pending.iter().any(|(_, f)| *f == top.file) {
                    flush(&mut home, &mut pending);
                }
                pending.push((home.fetch_object(client, &file.name), usize::MAX));
            }
        }
        // Keep a small window of concurrent operations.
        if pending.len() >= 4 {
            let (op, _) = pending.remove(0);
            let r = home.run_until_complete(op);
            assert!(r.outcome.is_ok(), "trace op failed: {:?}", r.outcome);
        }
    }
    for (op, _) in pending {
        let r = home.run_until_complete(op);
        assert!(r.outcome.is_ok(), "trace op failed: {:?}", r.outcome);
    }
    assert_eq!(home.stats().ops_completed, 60);
}

#[test]
fn many_concurrent_operations_complete() {
    let mut home = testbed(46);
    let mut ops = Vec::new();
    for i in 0..12u64 {
        let obj = Object::synthetic(&format!("burst/{i}"), i, 1 << 20, "doc");
        ops.push(home.store_object(NodeId((i % 6) as usize), obj, StorePolicy::ForceHome, true));
    }
    for op in ops.drain(..) {
        home.run_until_complete(op).expect_ok();
    }
    for i in 0..12u64 {
        ops.push(home.fetch_object(NodeId(((i + 2) % 6) as usize), &format!("burst/{i}")));
    }
    home.run_until_idle();
    for op in ops {
        let r = home.take_report(op).expect("report present");
        assert!(r.outcome.is_ok());
    }
}

#[test]
fn dht_cache_serves_repeated_metadata_lookups() {
    let mut home = testbed(47);
    let obj = Object::synthetic("hot/popular.bin", 1, 256 << 10, "doc");
    let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    for i in 0..10 {
        let op = home.fetch_object(NodeId((i % 5) + 1), "hot/popular.bin");
        home.run_until_complete(op).expect_ok();
    }
    let (hits, misses) = home.cache_stats();
    // In a six-node overlay most routes are one hop, so cache traffic is
    // modest — but the counters must be wired up.
    assert!(hits + misses < 10_000);
}

#[test]
fn crash_mid_transfer_aborts_the_fetch() {
    let mut home = testbed(48);
    let obj = Object::synthetic("mid/large.bin", 1, 20 << 20, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();

    // Start a 20 MiB fetch (≈2 s on the LAN), then crash the owner while
    // bytes are in flight.
    let op = home.fetch_object(NodeId(2), "mid/large.bin");
    home.run_for(Duration::from_millis(500));
    home.crash_node(NodeId(1));
    let r = home.run_until_complete(op);
    assert!(
        matches!(r.outcome, Err(OpError::OwnerUnreachable(_))),
        "expected an aborted transfer, got {:?}",
        r.outcome
    );
    // The failure is prompt, not a multi-second timeout.
    assert!(r.total().as_secs_f64() < 1.0, "failed at {:?}", r.total());
}

#[test]
fn executor_crash_mid_process_redispatches() {
    let mut home = testbed(49);
    // 8 MiB of argument movement keeps the operation in flight well past
    // the crash instant below.
    let obj = Object::synthetic("proc/frames.bin", 2, 8 << 20, "jpeg");
    let op = home.store_object(NodeId(2), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();

    let op = home.process_object(
        NodeId(2),
        "proc/frames.bin",
        ServiceKind::FaceDetect,
        RoutePolicy::Performance,
    );
    home.run_for(Duration::from_millis(400));
    home.crash_node(NodeId(5));
    let r = home.run_until_complete(op);
    // Whether or not the desktop had won the decision, the operation must
    // finish — on a surviving provider.
    let out = r.expect_ok();
    assert_ne!(out.exec_target.as_deref(), Some("desktop"));
}

#[test]
fn pinned_executor_crash_fails_with_executor_failed() {
    let mut home = testbed(50);
    let obj = Object::synthetic("proc/pinned.bin", 3, 8 << 20, "jpeg");
    let op = home.store_object(NodeId(2), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();

    // Pin execution to the desktop, then kill it mid-operation: with no
    // alternative candidates allowed, the op reports the executor failure.
    let op = home.process_object_at(
        NodeId(2),
        "proc/pinned.bin",
        ServiceKind::FaceDetect,
        Placement::Pin(NodeId(5)),
    );
    home.run_for(Duration::from_millis(400));
    home.crash_node(NodeId(5));
    let r = home.run_until_complete(op);
    assert!(
        matches!(r.outcome, Err(OpError::ExecutorFailed(_))),
        "expected ExecutorFailed, got {:?}",
        r.outcome
    );
}

#[test]
fn partition_heal_lets_a_waiting_fetch_converge() {
    let mut config = Config::paper_testbed(51);
    config.replication = 2;
    let mut home = Cloud4Home::new(config);
    // 20 MiB so the transfer is still in flight when the cut lands.
    let obj = Object::synthetic("part/big.bin", 4, 20 << 20, "doc");
    let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    // The replica lands on the desktop (largest voluntary bin).
    assert_eq!(home.objects_on(NodeId(5)), 1);

    let op = home.fetch_object(NodeId(0), "part/big.bin");
    home.run_for(Duration::from_millis(500));
    // Cut both holders off from the client; heal eight seconds later. The
    // fetch must back off, outlast the cut, and converge after the heal.
    home.apply_fault(FaultEvent::Partition(vec![vec![NodeId(1), NodeId(5)]]));
    home.inject_faults(FaultPlan::new().at(Duration::from_secs(8), FaultEvent::Heal));
    let r = home.run_until_complete(op);
    assert!(
        r.outcome.is_ok(),
        "fetch should outlast the partition: {:?}",
        r.outcome
    );
    assert!(
        r.total() > Duration::from_secs(8),
        "completed only after the heal, took {:?}",
        r.total()
    );
    assert!(
        r.failovers >= 1,
        "the severed transfer counts as a failover"
    );
}

#[test]
fn repair_daemon_restores_replication_after_crash() {
    let mut config = Config::paper_testbed(52);
    config.replication = 2;
    let mut home = Cloud4Home::new(config);
    for i in 0..3u64 {
        let obj = Object::synthetic(&format!("repair/{i}"), i, 512 << 10, "doc");
        let op = home.store_object(NodeId(1), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
    }
    // All replicas land on the desktop (largest voluntary bin).
    assert_eq!(home.objects_on(NodeId(5)), 3);

    // Crash the replica holder: the failure detector fires and the repair
    // daemon re-replicates each object from its surviving primary.
    home.crash_node(NodeId(5));
    home.run_for(Duration::from_secs(20));
    let s = home.stats();
    assert!(s.repairs_started >= 3, "repair daemon never ran: {s:?}");
    assert_eq!(
        s.repairs_completed, s.repairs_started,
        "repairs aborted: {s:?}"
    );
    // Each object has two live copies again.
    let live_copies: usize = (0..home.node_count())
        .filter(|&j| j != 5)
        .map(|j| home.objects_on(NodeId(j)))
        .sum();
    assert_eq!(live_copies, 6, "3 primaries + 3 repaired replicas");
}

/// The acceptance chaos scenario: replay the eDonkey trace with replication
/// enabled while a seeded fault plan crashes a node, severs a 30 s
/// partition, and applies 10 % bursty message loss. Nearly all operations
/// must still complete, and the whole run must be deterministic.
#[test]
fn chaos_trace_replays_with_failover() {
    let (ok_a, failed_a, stats_a) = chaos_run();
    let (ok_b, failed_b, stats_b) = chaos_run();
    assert_eq!(
        (ok_a, failed_a),
        (ok_b, failed_b),
        "same-seed runs diverged"
    );
    assert_eq!(stats_a, stats_b, "same-seed stats must be byte-identical");

    let total = ok_a + failed_a;
    assert_eq!(total, 60, "every trace op must resolve, never hang");
    assert!(
        ok_a * 20 >= total * 19,
        "need >=95% of ops to complete under faults, got {ok_a}/{total}"
    );
}

fn chaos_run() -> (u32, u32, String) {
    let mut config = Config::paper_testbed(53);
    config.replication = 2;
    let mut home = Cloud4Home::new(config);
    home.inject_faults(
        FaultPlan::new()
            .at(
                Duration::ZERO,
                FaultEvent::BurstyLoss {
                    mean_loss: 0.10,
                    mean_burst_len: 8.0,
                },
            )
            .at(Duration::from_secs(5), FaultEvent::Crash(NodeId(4)))
            .at(
                Duration::from_secs(8),
                FaultEvent::Partition(vec![vec![NodeId(2)]]),
            )
            .at(Duration::from_secs(38), FaultEvent::Heal),
    );

    let mut trace_cfg = TraceConfig::paper_default(60);
    trace_cfg.files = 40;
    trace_cfg.size_override = Some((256 << 10, 1 << 20));
    let trace = generate(&trace_cfg, 9);

    // Trace clients remap onto nodes that stay up and on the majority side
    // of the cut; the faults instead hit a bystander (node 4) and whatever
    // metadata and replicas live on the isolated node 2.
    const CLIENTS: [usize; 4] = [0, 1, 3, 5];
    let mut ok = 0u32;
    let mut failed = 0u32;
    for top in &trace.ops {
        let client = NodeId(CLIENTS[top.client % CLIENTS.len()]);
        let file = &trace.files[top.file];
        let op = match top.op {
            OpKind::Store => {
                let obj = Object::synthetic(
                    &file.name,
                    file.content_seed,
                    file.size_bytes,
                    file.kind.content_type(),
                );
                home.store_object(client, obj, StorePolicy::MandatoryFirst, true)
            }
            OpKind::Fetch => home.fetch_object(client, &file.name),
        };
        let r = home.run_until_complete(op);
        if r.outcome.is_ok() {
            ok += 1;
        } else {
            failed += 1;
        }
    }
    (ok, failed, format!("{:?}", home.stats()))
}

/// An op whose own client crashes must still terminate. Every DHT request
/// an op makes is issued from its client, and a dead node's overlay is
/// never ticked or delivered to, so without an explicit failure the op
/// would wait forever. Each probe runs a bounded span of virtual time and
/// then demands a report.
#[test]
fn op_whose_client_crashes_terminates() {
    for kind in ["fetch", "store", "delete", "list"] {
        for delay_ms in [0, 10, 20, 40] {
            let mut home = testbed(11);
            let obj = Object::synthetic("a/x.bin", 1, 256 << 10, "doc");
            let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
            home.run_until_complete(op).expect_ok();

            let client = NodeId(2);
            let op = match kind {
                "fetch" => home.fetch_object(client, "a/x.bin"),
                "store" => home.store_object(
                    client,
                    Object::synthetic("a/y.bin", 2, 256 << 10, "doc"),
                    StorePolicy::ForceHome,
                    true,
                ),
                "delete" => home.delete_object(client, "a/x.bin"),
                _ => home.list_objects(client, "a"),
            };
            home.run_for(Duration::from_millis(delay_ms));
            home.crash_node(client);
            home.run_for(Duration::from_secs(300));
            assert!(
                home.take_report(op).is_some(),
                "{kind} crashed {delay_ms} ms in never terminated"
            );
        }
    }
}
