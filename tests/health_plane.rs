//! Invariant tests for the continuous health plane: gauge-sampling cadence,
//! SLO-window breach detection, critical-path attribution, and the
//! byte-determinism of every health export (Prometheus text, gauge series,
//! post-mortem dumps) across same-seed chaos runs.

use std::collections::BTreeMap;
use std::time::Duration;

use cloud4home::{Cloud4Home, Config, FaultEvent, FaultPlan, NodeId, Object, StorePolicy};

/// A config with tracing on and the default 500 ms health cadence.
fn traced_config(seed: u64) -> Config {
    let mut config = Config::paper_testbed(seed);
    config.tracing = true;
    config
}

/// Runs a small steady workload that keeps at least one operation in flight
/// for several sampling periods: four 2 MiB stores + fetches back to back.
fn steady_workload(home: &mut Cloud4Home) {
    for i in 0..4u64 {
        let name = format!("steady/obj-{i}.bin");
        let obj = Object::synthetic(&name, i + 1, 2 << 20, "doc");
        let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
        home.run_until_complete(op).expect_ok();
        let op = home.fetch_object(NodeId(3), &name);
        home.run_until_complete(op).expect_ok();
    }
    home.run_until_idle();
}

#[test]
fn gauge_samples_land_exactly_on_the_cadence() {
    let mut home = Cloud4Home::new(traced_config(310));
    let period_ns = 500 * 1_000_000u64;
    steady_workload(&mut home);

    let snap = home.telemetry().snapshot();
    let series = snap
        .series
        .get("runtime.ops_inflight")
        .expect("sampler records runtime gauges");
    let ts: Vec<u64> = series.points().iter().map(|&(t, _)| t).collect();
    assert!(
        ts.len() >= 3,
        "several sampling periods must elapse, got {} points",
        ts.len()
    );
    // While work is continuously in flight the sample chain never drops, so
    // every interior delta is exactly one period. Only the final point may
    // be off-cadence: `run_until_idle` flushes a closing sample at
    // quiescence.
    for pair in ts.windows(2).rev().skip(1) {
        assert_eq!(
            pair[1] - pair[0],
            period_ns,
            "interior samples must be exactly one period apart: {ts:?}"
        );
    }
    // Every gauge family is present and sampled at the same instants.
    for name in [
        "runtime.queue_depth",
        "runtime.flows_inflight",
        "runtime.background_jobs",
        "net.home-ethernet.util_permille",
        "node.netbook-0.cpu_milli",
        "node.netbook-0.dht_table",
        "node.desktop.disk_used_bytes",
    ] {
        let s = snap
            .series
            .get(name)
            .unwrap_or_else(|| panic!("missing gauge series `{name}`"));
        assert_eq!(
            s.points().len(),
            ts.len(),
            "`{name}` must be sampled on every row"
        );
    }
}

#[test]
fn slo_violations_fire_iff_the_window_p99_breaches() {
    // A 1 ms fetch objective is impossibly tight: every completed fetch
    // pushes the window p99 above it, so each completion breaches.
    let mut config = traced_config(311);
    config.slo_ms = BTreeMap::from([("fetch".to_owned(), 1u64)]);
    let mut home = Cloud4Home::new(config);
    steady_workload(&mut home);
    let snap = home.telemetry().snapshot();
    let fetches = snap.counter("op.fetch.ok") + snap.counter("op.fetch.err");
    assert!(fetches >= 4, "workload completed {fetches} fetches");
    assert_eq!(
        snap.counter("slo.violation.fetch"),
        fetches,
        "every fetch must breach a 1 ms objective"
    );
    assert!(
        snap.instants().any(|i| i.name == "slo.violation"),
        "breaches must leave trace instants"
    );

    // An absurdly loose objective is never breached by the same workload.
    let mut config = traced_config(311);
    config.slo_ms = BTreeMap::from([("fetch".to_owned(), 3_600_000u64)]);
    let mut home = Cloud4Home::new(config);
    steady_workload(&mut home);
    let snap = home.telemetry().snapshot();
    assert_eq!(snap.counter("slo.violation.fetch"), 0);
    assert!(
        !snap.instants().any(|i| i.name == "slo.violation"),
        "a 1-hour objective must never breach"
    );
}

#[test]
fn wan_bound_fetch_attributes_its_latency_to_the_wan() {
    let mut home = Cloud4Home::new(traced_config(312));
    let obj = Object::synthetic("cloud/archive.bin", 9, 4 << 20, "doc");
    let op = home.store_object(NodeId(0), obj, StorePolicy::ForceCloud, true);
    home.run_until_complete(op).expect_ok();

    let op = home.fetch_object(NodeId(1), "cloud/archive.bin");
    let report = home.run_until_complete(op);
    assert!(report.expect_ok().via_cloud, "the bytes live in the cloud");

    // The bucket sums account for the whole operation, exactly.
    let total_ns = report.total().as_nanos() as u64;
    assert_eq!(
        report.critical_path.total(),
        total_ns,
        "critical-path buckets must sum to the op duration"
    );
    // Pulling megabytes over a ~1.5 Mbps WAN dwarfs everything else.
    let (bucket, ns) = report.critical_path.dominant();
    assert_eq!(
        bucket, "wan",
        "cloud fetch must be WAN-dominated: {report:?}"
    );
    assert!(ns > total_ns / 2, "WAN time must exceed half the total");
    assert!(
        report.critical_path.dht_ns > 0,
        "metadata lookup was on-path"
    );

    // The aggregate RunStats mirror carries the same attribution.
    let stats = home.stats();
    assert!(stats.crit_wan_ns >= ns);
    assert_eq!(
        stats.crit_dht_ns
            + stats.crit_disk_ns
            + stats.crit_lan_ns
            + stats.crit_wan_ns
            + stats.crit_service_ns
            + stats.crit_backoff_ns
            + stats.crit_other_ns,
        home.telemetry()
            .snapshot()
            .histograms
            .iter()
            .filter(|(n, _)| n.starts_with("op.") && n.ends_with(".total_ns"))
            .map(|(_, h)| h.sum)
            .sum::<u64>(),
        "aggregate buckets must sum to aggregate op latency"
    );
}

/// A chaos run that is guaranteed to cut at least one post-mortem: both
/// holders of a replicated object crash before a fetch, on top of bursty
/// loss and a partition window.
fn chaos_run() -> Cloud4Home {
    let mut config = traced_config(313);
    config.replication = 2;
    let mut home = Cloud4Home::new(config);

    // Place an object, then find and crash every live holder.
    let obj = Object::synthetic("doomed/evidence.bin", 5, 512 << 10, "doc");
    let op = home.store_object(NodeId(0), obj, StorePolicy::ForceHome, true);
    home.run_until_complete(op).expect_ok();
    home.run_until_idle();
    let holders: Vec<usize> = (0..home.node_count())
        .filter(|&i| {
            // Client 2 stays alive to issue the doomed fetch.
            i != 2 && home.objects_on(NodeId(i)) > 0
        })
        .collect();
    assert!(!holders.is_empty(), "the store must have placed bytes");

    let mut plan = FaultPlan::new()
        .at(
            Duration::ZERO,
            FaultEvent::BurstyLoss {
                mean_loss: 0.08,
                mean_burst_len: 6.0,
            },
        )
        .at(
            Duration::from_secs(6),
            FaultEvent::Partition(vec![vec![NodeId(1)]]),
        )
        .at(Duration::from_secs(20), FaultEvent::Heal);
    for &h in &holders {
        plan = plan.at(Duration::from_secs(2), FaultEvent::Crash(NodeId(h)));
    }
    home.inject_faults(plan);
    home.run_for(Duration::from_secs(4));

    // The fetch finds every holder dead (and the cloud holds no copy):
    // a hard failure that must cut a flight-recorder dump.
    let op = home.fetch_object(NodeId(2), "doomed/evidence.bin");
    let report = home.run_until_complete(op);
    assert!(report.outcome.is_err(), "all holders are down: {report:?}");

    // More traffic through the partition window, failures tolerated. The
    // clients must be live nodes (1 is partitioned off but still up).
    let reader = (0..home.node_count())
        .find(|i| !holders.contains(i) && *i != 1 && *i != 2)
        .unwrap_or(2);
    for i in 0..6u64 {
        let name = format!("chaos/load-{i}.bin");
        let obj = Object::synthetic(&name, 40 + i, 1 << 20, "doc");
        let op = home.store_object(NodeId(2), obj, StorePolicy::MandatoryFirst, true);
        let _ = home.run_until_complete(op);
        let op = home.fetch_object(NodeId(reader), &name);
        let _ = home.run_until_complete(op);
    }
    home.run_for(Duration::from_secs(22));
    home.run_until_idle();
    home
}

#[test]
fn health_exports_are_byte_identical_across_same_seed_chaos_runs() {
    let a = chaos_run();
    let b = chaos_run();
    assert_eq!(a.now(), b.now(), "same-seed runs diverged in virtual time");

    let (prom_a, prom_b) = (a.prometheus_text(), b.prometheus_text());
    assert!(prom_a == prom_b, "Prometheus snapshots differ between runs");
    let (series_a, series_b) = (a.series_json(), b.series_json());
    assert!(series_a == series_b, "gauge series differ between runs");
    let (pm_a, pm_b) = (a.postmortem_json(), b.postmortem_json());
    assert!(pm_a == pm_b, "post-mortem dumps differ between runs");

    // The post-mortem is non-vacuous and carries the failed op's DAG and
    // its context sections.
    for needle in [
        "\"error\":\"",
        "\"explain\":{\"op\":",
        "\"edges\":[{\"label\":",
        "\"kind\":\"fetch\"",
        "\"object\":\"doomed/evidence.bin\"",
        "\"faults\":[",
        "\"gauges\":[",
        "crash",
    ] {
        assert!(pm_a.contains(needle), "post-mortem lacks {needle}: {pm_a}");
    }
    // The Prometheus snapshot exposes counters, gauges, and histograms.
    for needle in [
        "# TYPE c4h_stats_ops_completed counter",
        "# TYPE c4h_runtime_ops_inflight gauge",
        "# TYPE c4h_op_fetch_total_ns histogram",
        "c4h_health_postmortems 1",
    ] {
        assert!(prom_a.contains(needle), "Prometheus text lacks {needle}");
    }
    // The deterministic text surfaces render without panicking and agree.
    let mut a = a;
    let mut b = b;
    assert_eq!(a.health_text(), b.health_text());
    assert_eq!(a.top_text(), b.top_text());
    assert!(
        a.health_text().contains("postmortems=1"),
        "{}",
        a.health_text()
    );
}
