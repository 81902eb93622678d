//! Event-engine throughput — slab wheel vs `BinaryHeap`.
//!
//! Two sections:
//!
//! 1. **Hold model** (classic calendar-queue benchmark): pre-fill the
//!    queue with N pending events, then repeatedly pop-one/push-one so the
//!    population holds at N. Reports raw events/sec for the production
//!    slab-arena wheel (`EventQueue`) and the reference heap
//!    (`queue::reference::RefQueue`) at N = 1k / 10k / 100k / 1M. Delays
//!    span nine orders of magnitude (same splitmix64 stream for both
//!    engines), so the wheel pays its real cascade costs. Payloads are
//!    112 bytes — `size_of` of the runtime's event enum — so the heap
//!    moves what it would move in production.
//! 2. **Runtime ops/sec**: end-to-end mixed store/fetch workload on the
//!    paper testbed — how much of the engine win survives under the full
//!    stack (overlay, flows, services).
//!
//! The binary installs a counting global allocator and asserts — in smoke
//! and full mode alike, at every size including 10⁶ pending — that the
//! slab engine reaches an **allocation-free steady state**: hold chunks
//! run until an entire chunk performs zero heap acquisitions, and that
//! quiescent chunk is the reported measurement. The delay stream is
//! deterministic, so this is a hard regression gate, not a flaky timing
//! check. In full mode the speedup over the heap at 100k is also
//! asserted (≥ 2×).
//!
//! Run with: `cargo bench -p c4h-bench --bench engine_throughput`
//! (set `C4H_SMOKE=1` for the CI smoke variant: fewer hold ops, no
//! speedup assertions — the zero-alloc assertion still gates; set
//! `C4H_BENCH_DIR=<dir>` to write `BENCH_engine_throughput.json`).

use std::time::{Duration, Instant};

use c4h_bench::{allocations, banner, BenchReport, CountingAlloc};
use c4h_simnet::queue::reference::RefQueue;
use c4h_simnet::EventQueue;
use c4h_telemetry::{CauseKind, OpLedger, LEDGER_NONE};
use cloud4home::{Cloud4Home, Config, NodeId, Object, StorePolicy};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// 112-byte payload — exactly `size_of::<Event>()` for the runtime's
/// event enum, so the heap pays the sift-copy costs it would pay in
/// production.
type Payload = [u64; 14];

fn payload(seed: u64) -> Payload {
    [seed; 14]
}

fn smoke() -> bool {
    std::env::var_os("C4H_SMOKE").is_some()
}

/// Hold operations measured per size (after warmup).
fn hold_ops() -> u64 {
    if smoke() {
        200_000
    } else {
        2_000_000
    }
}

/// Deterministic splitmix64 — identical delay streams for all engines.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Delays from 1 ns to ~30 s, log-uniform-ish, with occasional exact
    /// ties — the distribution simulation timers actually draw from.
    fn delay(&mut self) -> u64 {
        let r = self.next();
        if r.is_multiple_of(16) {
            0
        } else {
            r % (1u64 << (4 + (r >> 8) % 31))
        }
    }
}

/// Chunks to try before giving up on allocator quiescence.
const MAX_CHUNKS: u64 = 40;

/// Generates a hold-model runner for one queue engine. Both engines
/// share the schedule_in/pop API, identical seeds, and identical op
/// streams; each returns (events/sec, heap acquisitions, warm chunks).
///
/// Steady state is found, not assumed: bucket vectors and the slab
/// free-list grow toward high-water marks that a fixed warmup cannot be
/// proven to reach (capacity records keep creeping, ever more rarely).
/// So the runner executes hold chunks of `max(ops, n)` events until one
/// entire chunk performs **zero** heap acquisitions, and reports that
/// chunk's throughput and allocation count. The splitmix64 stream is
/// deterministic, so the number of warm chunks — and the final verdict —
/// is reproducible, not timing-dependent. If no chunk quiesces within
/// [`MAX_CHUNKS`], the last chunk's (rate, allocs) is returned and the
/// caller's assertion reports the failure.
macro_rules! hold_model {
    ($(#[$doc:meta])* $name:ident, $queue:ty) => {
        $(#[$doc])*
        fn $name(n: usize, ops: u64) -> (f64, u64, u64) {
            let mut q: $queue = <$queue>::new();
            let mut mix = Mix(0x000e_1113 + n as u64);
            for i in 0..n as u64 {
                q.schedule_in(Duration::from_nanos(mix.delay()), payload(i));
            }
            let chunk = ops.max(n as u64);
            let mut rate = 0.0;
            let mut allocs = u64::MAX;
            let mut warm = 0;
            for c in 0..MAX_CHUNKS {
                let allocs0 = allocations();
                let started = Instant::now();
                for i in 0..chunk {
                    let (_, p) = q.pop().expect("population is held at n");
                    q.schedule_in(Duration::from_nanos(mix.delay()), payload(p[0] ^ i));
                }
                rate = chunk as f64 / started.elapsed().as_secs_f64();
                allocs = allocations() - allocs0;
                warm = c;
                if allocs == 0 {
                    break;
                }
            }
            (rate, allocs, warm)
        }
    };
}

hold_model!(
    /// The production slab-arena wheel: POD slots in buckets, payloads
    /// parked in a generational slab with free-list reuse.
    hold_slab,
    EventQueue<Payload>
);
hold_model!(
    /// The `BinaryHeap` oracle.
    hold_heap,
    RefQueue<Payload>
);

/// Causal-ledger steady-state overhead on the hold model at 100k pending.
///
/// Base chunks run pop/push plus the production *disabled* path (one
/// relaxed `enabled()` load per event). Ledger chunks additionally record
/// one causal event per [`DECISION_EVERY`] pops into a warmed working set
/// of [`LEDGER_RINGS`] op rings — still denser than production, where an
/// op records a handful of decisions across *thousands* of engine events,
/// and harsher: every warmed ring sits at capacity, so each record pays
/// the full chain-protecting eviction, the ledger's worst case. Both
/// modes run chunks until one performs zero heap acquisitions (same
/// quiescence protocol as the hold model), then report the best of three
/// quiescent chunks each, interleaved to share thermal/scheduler drift.
/// Returns (base events/sec, ledger events/sec, ledger-chunk allocs).
fn explain_overhead(ops: u64) -> (f64, f64, u64) {
    const N: usize = 100_000;
    const LEDGER_RINGS: u64 = 128;
    const DECISION_EVERY: u64 = 64;
    let chunk = ops.max(N as u64);

    let mut q: EventQueue<Payload> = EventQueue::new();
    let mut mix = Mix(0x000e_1113 + N as u64);
    for i in 0..N as u64 {
        q.schedule_in(Duration::from_nanos(mix.delay()), payload(i));
    }
    let mut ledger = OpLedger::new(64);
    // Warm every ring in the working set: the first record for an op id
    // allocates its ring; steady state then reuses it forever.
    ledger.set_enabled(true);
    for op in 0..LEDGER_RINGS {
        ledger.record(op, CauseKind::Admit, LEDGER_NONE, 0, 0, 0);
    }

    // One closure drives both modes so the instruction stream differs only
    // by the ledger work itself.
    let mut run_chunk = |ledger: &mut OpLedger, on: bool| -> (f64, u64) {
        ledger.set_enabled(on);
        let allocs0 = allocations();
        let started = Instant::now();
        for i in 0..chunk {
            let (t, p) = q.pop().expect("population is held at n");
            q.schedule_in(Duration::from_nanos(mix.delay()), payload(p[0] ^ i));
            if i.is_multiple_of(DECISION_EVERY) {
                // Disabled: this is the one-relaxed-load fast path.
                ledger.record(
                    p[0] % LEDGER_RINGS,
                    CauseKind::Backoff,
                    LEDGER_NONE,
                    t.as_nanos(),
                    i,
                    0,
                );
            }
        }
        let rate = chunk as f64 / started.elapsed().as_secs_f64();
        (rate, allocations() - allocs0)
    };

    let mut quiesce = |ledger: &mut OpLedger, on: bool| -> u64 {
        for _ in 0..MAX_CHUNKS {
            let (_, allocs) = run_chunk(ledger, on);
            if allocs == 0 {
                return 0;
            }
        }
        run_chunk(ledger, on).1
    };
    let base_allocs = quiesce(&mut ledger, false);
    let ledger_allocs = quiesce(&mut ledger, true);

    let mut base = 0.0f64;
    let mut on = 0.0f64;
    let mut on_allocs = base_allocs.max(ledger_allocs);
    for _ in 0..3 {
        let (r, _) = run_chunk(&mut ledger, false);
        base = base.max(r);
        let (r, a) = run_chunk(&mut ledger, true);
        on = on.max(r);
        on_allocs = on_allocs.max(a);
    }
    (base, on, on_allocs)
}

/// End-to-end ops/sec: a mixed store/fetch workload on the paper testbed,
/// wall-clock timed through the full stack.
fn runtime_ops_per_sec() -> (u64, f64) {
    let rounds = if smoke() { 4u64 } else { 40 };
    let mut config = Config::paper_testbed(61_803);
    config.replication = 2;
    let mut home = Cloud4Home::new(config);
    let n = home.node_count();
    let started = Instant::now();
    let mut done = 0u64;
    for r in 0..rounds {
        for i in 0..6u64 {
            let name = format!("engine/{r}/{i}.bin");
            let obj = Object::synthetic(&name, r * 6 + i, (64 + 32 * i) << 10, "doc");
            let op = home.store_object(
                NodeId((r as usize + i as usize) % n),
                obj,
                StorePolicy::MandatoryFirst,
                true,
            );
            home.run_until_complete(op).expect_ok();
            let op = home.fetch_object(NodeId((r as usize + i as usize + 3) % n), &name);
            home.run_until_complete(op).expect_ok();
            done += 2;
        }
    }
    home.run_until_idle();
    (done, done as f64 / started.elapsed().as_secs_f64())
}

fn main() {
    banner(
        "Engine throughput",
        "slab wheel vs BinaryHeap (hold model + full stack)",
    );
    let ops = hold_ops();
    println!(
        "{:>8} | {:>13} {:>13} {:>8} {:>9}",
        "pending", "slab (ev/s)", "heap (ev/s)", "vs heap", "allocs"
    );
    println!("{}", "-".repeat(58));

    let mut report = BenchReport::new("engine_throughput");
    report.config("smoke", smoke());
    report.config("hold_ops_per_point", ops);

    let mut vs_heap_100k = 0.0;
    for n in SIZES {
        let (slab, slab_allocs, warm) = hold_slab(n, ops);
        let (heap, _, _) = hold_heap(n, ops);
        let vs_heap = slab / heap;
        if n == 100_000 {
            vs_heap_100k = vs_heap;
        }
        println!("{n:>8} | {slab:>13.0} {heap:>13.0} {vs_heap:>7.2}x {slab_allocs:>9}");
        report.push_row(vec![
            ("pending", n.into()),
            ("slab_events_per_sec", slab.round().into()),
            ("heap_events_per_sec", heap.round().into()),
            ("speedup_vs_heap", vs_heap.into()),
            ("slab_allocs", slab_allocs.into()),
            ("warm_chunks", warm.into()),
        ]);
        // The tentpole contract: once warm, the slab engine never touches
        // the heap — at any population, 10⁶ included. Deterministic delay
        // stream ⇒ deterministic verdict.
        report.check(
            &format!("zero_alloc_steady_state_{n}"),
            slab_allocs == 0,
            format!(
                "slab EventQueue steady-state chunk at n={n} made {slab_allocs} \
                 allocations ({MAX_CHUNKS} chunks tried); the hot path must be \
                 allocation-free"
            ),
        );
    }

    // Causal-ledger overhead: recording decisions into warmed rings must
    // stay allocation-free and within 3% of the ledger-off rate. Hard
    // gates in smoke and full mode alike — the alloc check is exact and
    // the rate check compares two interleaved best-of-three chunk runs on
    // the same core, so it doesn't inherit shared-runner absolute-speed
    // noise the way a wall-clock bar would.
    let (base, on, ledger_allocs) = explain_overhead(ops);
    let ratio = on / base;
    println!(
        "\nexplain overhead @100k: base {base:.0} ev/s, ledger-on {on:.0} ev/s \
         ({:.1}% cost, {ledger_allocs} allocs)",
        (1.0 - ratio) * 100.0
    );
    report.push_row(vec![
        ("pending", 100_000u64.into()),
        ("ledger_off_events_per_sec", base.round().into()),
        ("ledger_on_events_per_sec", on.round().into()),
        ("ledger_on_ratio", ratio.into()),
        ("ledger_allocs", ledger_allocs.into()),
    ]);
    report.check(
        "explain_zero_alloc",
        ledger_allocs == 0,
        format!("ledger-enabled steady-state chunk made {ledger_allocs} allocations"),
    );
    report.check(
        "explain_overhead_3pct",
        ratio >= 0.97,
        format!(
            "ledger-enabled hold rate is {:.1}% of base at 100k pending \
             (must stay >= 97%)",
            ratio * 100.0
        ),
    );

    let (runtime_ops, runtime_rate) = runtime_ops_per_sec();
    println!("full stack: {runtime_ops} mixed ops at {runtime_rate:.0} ops/sec wall");
    report.push_row(vec![
        ("runtime_ops", runtime_ops.into()),
        ("runtime_ops_per_sec", runtime_rate.into()),
    ]);

    // Timing acceptance bars. Smoke runs (CI shared runners, tiny op
    // counts) print but don't gate on wall-clock ratios; the zero-alloc
    // and ledger-overhead checks above gate everywhere.
    if !smoke() {
        report.check(
            "speedup_vs_heap_100k",
            vs_heap_100k >= 2.0,
            format!(
                "slab wheel must be >=2x the BinaryHeap reference at 100k \
                 pending events; measured {vs_heap_100k:.2}x"
            ),
        );
    }
    report.finish();
}
