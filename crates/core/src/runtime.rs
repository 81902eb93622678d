//! The Cloud4Home runtime: the discrete-event loop binding the overlay,
//! network, virtualization, resource-monitoring, service, and cloud
//! substrates into one home cloud.
//!
//! [`Cloud4Home`] owns one simulated deployment: a set of virtualized home
//! nodes (each running a VStore++ daemon in dom0, a Chimera overlay node, a
//! resource monitor, and its deployed services), plus an optional public
//! cloud (S3-like storage and an EC2-like instance) behind the WAN. Client
//! operations — store, fetch, process, fetch+process — are submitted
//! against a node and advance as event-driven state machines
//! (see [`crate::ops`]); each completes with an
//! [`OpReport`](crate::report::OpReport) carrying the Table-I-style cost
//! breakdown.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use c4h_chimera::{ChimeraNode, DhtEvent, Envelope, Key, OverwritePolicy, ReqId};
use c4h_cloud::{Ec2Fleet, S3Store};
use c4h_kvstore::{
    node_resource_key, object_key, service_key, stripe_checksum, stripe_key, EcLayout, Location,
    ObjectMeta, Record, ResourceRecord, ServiceRecord, StripeRecord,
};
use c4h_resources::{Bin, BinWatcher, ResourceMonitor, ResourceSampler, SamplerConfig};
use c4h_services::{
    Compress, FaceDetect, FaceRecognize, Service, ServiceRegistry, TrainingSet, Transcode,
};
use c4h_simnet::{
    presets, Addr, ChunkSpec, DetRng, EventQueue, FlowEvent, FlowId, FlowNet, FxHashMap,
    GilbertElliott, Partition, SimTime, Sym, SymMap,
};
use c4h_telemetry::{ArgValue, CauseKind, LedgerEvent, OpLedger, Recorder, SpanId, LEDGER_NONE};
use c4h_vmm::{DiskModel, DomId, GrantTable, Machine, VmSpec, XenChannel};

use crate::adaptive::{ObjectHeat, PeerBandwidth};
use crate::config::{Config, NodeId, ServiceKind};
use crate::ec::ErasureCode;
use crate::fault::{FaultEvent, FaultPlan};
use crate::health::HealthPlane;
use crate::object::{synth_bytes, Blob, SAMPLE_WINDOW};
use crate::ops::{Op, OpInput};
use crate::overload::OverloadPlane;
use crate::policy::{adaptive_action, AdaptiveAction};
use crate::report::{OpId, OpReport};

/// Address offset of the cloud site endpoint.
pub(crate) const CLOUD_ADDR: Addr = Addr::new(10_000);

/// Ledger ring key of the background plane (breaker trips, repair
/// triggers, adaptive actions) — decisions with no single owning op.
pub(crate) const BACKGROUND_RING: u64 = u64::MAX;

/// Tick period driving overlay timers and resource publishing.
const TICK_PERIOD: Duration = Duration::from_millis(500);

/// Trace track carrying runtime-wide instants (faults, churn).
const RUNTIME_TRACK: u64 = 0;

/// Trace track base for per-node DHT request spans (base + node index).
const DHT_TRACK_BASE: u64 = 3_000_000;

/// Trace track base for background repair spans (base + flow id).
const REPAIR_TRACK_BASE: u64 = 4_000_000;

/// Trace track base for detached replica fan-out spans (base + flow id).
pub(crate) const FANOUT_TRACK_BASE: u64 = 5_000_000;

/// Trace track base for per-stripe fetch transfer spans (base + flow id).
pub(crate) const STRIPE_TRACK_BASE: u64 = 6_000_000;

/// One home node's full runtime state.
#[derive(Debug)]
pub(crate) struct NodeRt {
    pub(crate) name: String,
    /// The node name interned, so hot paths can stamp it into jobs and
    /// telemetry without cloning the `String`.
    pub(crate) name_sym: Sym,
    pub(crate) addr: Addr,
    pub(crate) key: Key,
    pub(crate) machine: Machine,
    pub(crate) service_vm: VmSpec,
    pub(crate) channel: XenChannel,
    pub(crate) grants: GrantTable,
    pub(crate) disk: DiskModel,
    pub(crate) chimera: ChimeraNode,
    pub(crate) sampler: ResourceSampler,
    pub(crate) bins: BinWatcher,
    pub(crate) monitor: ResourceMonitor,
    pub(crate) registry: ServiceRegistry,
    /// The node's object file system (one file per object, interned keys).
    pub(crate) objects: SymMap<Blob>,
    pub(crate) gateway: bool,
    pub(crate) alive: bool,
}

/// The remote public cloud's runtime state.
#[derive(Debug)]
pub(crate) struct CloudRt {
    pub(crate) addr: Addr,
    pub(crate) bucket: String,
    pub(crate) s3: S3Store<Blob>,
    pub(crate) fleet: Ec2Fleet,
    pub(crate) registry: ServiceRegistry,
    pub(crate) instance_vm: VmSpec,
    pub(crate) active_tasks: u32,
}

/// Events in the runtime's queue.
#[derive(Debug)]
pub(crate) enum Event {
    /// An overlay envelope arrives at a node.
    Deliver { to: usize, env: Envelope },
    /// Periodic timers: overlay ticks + resource publishing.
    Tick,
    /// A delayed operation continuation.
    OpWake { op: OpId },
    /// A delayed continuation of one concurrent sub-task of an operation
    /// (e.g. one replica's disk write during a store fan-out). The token
    /// identifies the sub-task to the operation's state machine.
    OpSubWake { op: OpId, token: u64 },
    /// A DHT request completed for an operation (after IPC cost).
    DhtDone { op: OpId, ev: DhtEvent },
    /// A scheduled fault-plan event fires.
    Fault(FaultEvent),
    /// The health plane's periodic gauge sample fires.
    HealthSample,
    /// A flow completion surfaced while the runtime was mid-step (the flow
    /// engine's float accrual can land a completion a hair before its
    /// predicted time). Routed through the queue so the waiter is continued
    /// at the same instant but outside the current operation's step.
    FlowReap { flow: FlowId },
    /// An operation tried to issue a DHT request from its crashed client.
    /// Routed through the queue because the op is mid-step; it fails at
    /// the same instant.
    ClientLost { op: OpId },
}

/// Who is waiting on a DHT request.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DhtWaiter {
    /// An operation continuation.
    Op(OpId),
    /// Background bookkeeping (resource publishing); result dropped.
    Ignore,
}

/// Aggregate runtime statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Completed operations.
    pub ops_completed: u64,
    /// Bulk transfer flows started.
    pub flows_started: u64,
    /// Overlay envelopes delivered.
    pub envelopes_delivered: u64,
    /// Overlay envelopes dropped by loss models or partitions.
    pub envelopes_dropped: u64,
    /// DHT requests reissued after a timeout.
    pub dht_retries: u64,
    /// Fetches redirected to another live replica holder.
    pub fetch_failovers: u64,
    /// Process operations re-dispatched after an executor failure.
    pub proc_redispatches: u64,
    /// Peer data replicas written during stores and repairs.
    pub replicas_written: u64,
    /// Background re-replication transfers started.
    pub repairs_started: u64,
    /// Background re-replication transfers completed and installed.
    pub repairs_completed: u64,
    /// Stores that placed fewer replica copies than `replication` asked
    /// for because too few live peers were available.
    pub partial_replication: u64,
    /// Bulk transfers that were split into pipelined chunks.
    pub chunked_transfers: u64,
    /// Stores whose metadata was published at quorum, before every replica
    /// flow finished (the stragglers detach and land in the background).
    pub quorum_publishes: u64,
    /// Fetches that split the read into concurrent stripes pulled from
    /// several holders (or parallel cloud range reads).
    pub striped_fetches: u64,
    /// Tail stripes re-issued from a second holder because the original
    /// source's ETA exceeded the hedging threshold.
    pub hedged_fetches: u64,
    /// Metadata lookups answered from a node-local cache instead of a
    /// remote overlay request.
    pub cache_answers: u64,
    /// Metadata-cache hits across all nodes.
    pub cache_hits: u64,
    /// Metadata-cache misses across all nodes.
    pub cache_misses: u64,
    /// Operations rejected at admission by the overload plane
    /// (`OpError::Overloaded` fast-fails).
    pub ops_shed: u64,
    /// Retries (DHT reissues, fetch backoff waits, repair starts) denied
    /// because a node's retry budget was exhausted.
    pub retry_budget_denied: u64,
    /// Circuit-breaker trips (closed/half-open → open transitions).
    pub breaker_trips: u64,
    /// Transfer attempts skipped because the path's breaker was open.
    pub breaker_fast_fails: u64,
    /// Aggregate critical-path nanoseconds on DHT/metadata work, across
    /// completed ops (collected only while tracing is enabled).
    pub crit_dht_ns: u64,
    /// Aggregate critical-path nanoseconds on local disk I/O.
    pub crit_disk_ns: u64,
    /// Aggregate critical-path nanoseconds on home-network transfers.
    pub crit_lan_ns: u64,
    /// Aggregate critical-path nanoseconds on WAN/cloud transfers.
    pub crit_wan_ns: u64,
    /// Aggregate critical-path nanoseconds executing services.
    pub crit_service_ns: u64,
    /// Aggregate critical-path nanoseconds in retry back-off.
    pub crit_backoff_ns: u64,
    /// Aggregate critical-path nanoseconds of queueing/control remainder.
    pub crit_other_ns: u64,
}

/// Why a churn action could not be carried out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnError {
    /// No live, joined node exists to bootstrap the rejoin through.
    NoLiveSeed,
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::NoLiveSeed => {
                write!(f, "no live node to rejoin through")
            }
        }
    }
}

impl std::error::Error for ChurnError {}

/// A replica transfer that detached from its store after a quorum publish
/// and now completes in the background.
#[derive(Debug, Clone)]
pub(crate) struct FanoutJob {
    /// Object being replicated.
    pub(crate) name: Sym,
    /// Destination node index (the new replica holder).
    pub(crate) dst: usize,
    /// Object size in bytes.
    pub(crate) bytes: u64,
    /// The object's bytes, carried so installation survives the primary
    /// crashing mid-flight.
    pub(crate) blob: Blob,
    /// Open trace span covering the detached transfer.
    pub(crate) span: SpanId,
}

/// A background re-replication transfer in flight.
#[derive(Debug, Clone)]
pub(crate) struct RepairJob {
    /// Object being re-replicated.
    pub(crate) name: Sym,
    /// Source node index (a surviving holder).
    pub(crate) src: usize,
    /// Destination node index (the new replica).
    pub(crate) dst: usize,
    /// Object size in bytes.
    pub(crate) bytes: u64,
    /// Open trace span covering the repair transfer.
    pub(crate) span: SpanId,
}

/// Who a bulk transfer's completion, or its abort, is routed to.
#[derive(Debug)]
pub(crate) enum FlowOwner {
    /// A foreground operation's state machine.
    Op(OpId),
    /// A background re-replication transfer.
    Repair(RepairJob),
    /// A store fan-out straggler that detached at a quorum publish.
    Fanout(FanoutJob),
    /// One stripe transfer of the named object's erasure-coding conversion.
    EcConvert(Sym),
    /// One survivor-stripe transfer of a lost-stripe rebuild (by job id).
    EcRepair(u64),
}

/// One in-flight bulk transfer: the endpoints a crash or partition cuts
/// it by, and the owner its completion or abort is routed to.
#[derive(Debug)]
pub(crate) struct FlowClaim {
    pub(crate) src: Addr,
    pub(crate) dst: Addr,
    pub(crate) owner: FlowOwner,
}

/// The per-holder object name a code row's stripe is stored under.
/// Interned: conversions are cold-path, and repeated repair scans of the
/// same stripe resolve to the same `Sym` without re-allocating.
pub(crate) fn ec_stripe_name(name: Sym, row: u32) -> Sym {
    Sym::new(&format!("{name}.ec{row}"))
}

/// A full-copy → erasure-coded conversion in flight: the owner encoded the
/// object into `k + m` shards, installed its own row locally, and is
/// shipping the remaining rows to their holders. Full copies are stripped
/// only once every row has landed, so an aborted conversion leaves the
/// object exactly as replicated as before.
#[derive(Debug, Clone)]
pub(crate) struct EcConvert {
    /// The object's home node (source of every stripe transfer).
    pub(crate) owner: usize,
    /// The target layout being installed.
    pub(crate) layout: EcLayout,
    /// Encoded shard bytes in row order (data rows then parity).
    pub(crate) stripes: Vec<Vec<u8>>,
    /// Outstanding stripe transfers: flow → code row.
    pub(crate) pending: BTreeMap<FlowId, u32>,
    /// Rows already installed on their holders.
    pub(crate) installed: Vec<u32>,
}

/// A lost-stripe rebuild in flight: the destination is pulling `k`
/// surviving stripes, and re-derives the lost row from them once all have
/// arrived.
#[derive(Debug, Clone)]
pub(crate) struct EcRepair {
    /// The erasure-coded object being repaired.
    pub(crate) name: Sym,
    /// The lost code row being rebuilt.
    pub(crate) row: u32,
    /// Destination node index (the row's new holder).
    pub(crate) dst: usize,
    /// Outstanding survivor-stripe transfers: flow → survivor row.
    pub(crate) pending: BTreeMap<FlowId, u32>,
    /// Survivor rows whose stripes have arrived.
    pub(crate) arrived: Vec<u32>,
}

/// One simulated Cloud4Home deployment.
///
/// # Examples
///
/// ```
/// use cloud4home::{Cloud4Home, Config, NodeId, Object, StorePolicy};
///
/// let mut home = Cloud4Home::new(Config::paper_testbed(42));
/// let obj = Object::synthetic("photos/door.jpg", 7, 512 * 1024, "jpeg");
/// let op = home.store_object(NodeId(0), obj, StorePolicy::MandatoryFirst, true);
/// let report = home.run_until_complete(op);
/// report.expect_ok();
/// let op = home.fetch_object(NodeId(3), "photos/door.jpg");
/// let report = home.run_until_complete(op);
/// assert_eq!(report.expect_ok().bytes, 512 * 1024);
/// ```
#[derive(Debug)]
pub struct Cloud4Home {
    pub(crate) config: Config,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) net: FlowNet,
    pub(crate) rng: DetRng,
    pub(crate) nodes: Vec<NodeRt>,
    pub(crate) cloud: Option<CloudRt>,
    pub(crate) node_of_key: FxHashMap<Key, usize>,
    pub(crate) ops: FxHashMap<OpId, Op>,
    pub(crate) reports: FxHashMap<OpId, OpReport>,
    pub(crate) dht_waiters: FxHashMap<(usize, ReqId), DhtWaiter>,
    /// Every in-flight bulk transfer the runtime started, with its owner.
    /// Keyed access only, except where aborts sort the matching ids, so
    /// `HashMap` ordering cannot perturb determinism.
    pub(crate) flows: FxHashMap<FlowId, FlowClaim>,
    pub(crate) next_op: u64,
    pub(crate) stats: RunStats,
    pub(crate) message_loss: f64,
    /// Active reachability cut over node/cloud addresses.
    pub(crate) partition: Partition,
    /// Template for per-route bursty loss chains; `None` disables them.
    pub(crate) bursty: Option<GilbertElliott>,
    /// Per-directed-route Gilbert–Elliott chains, spawned lazily from
    /// `bursty`. Keyed access only — never iterated — so `HashMap` ordering
    /// cannot perturb determinism.
    pub(crate) ge_chains: FxHashMap<(Addr, Addr), GilbertElliott>,
    /// Per-node gray-failure processing-delay multiplier (1.0 = healthy).
    pub(crate) slow_factor: Vec<f64>,
    /// Metadata of replicated home objects, indexed for the repair daemon.
    /// `BTreeMap` so repair scans are deterministic. Mutate only through
    /// [`Self::replica_meta_insert`] / [`Self::replica_meta_remove`] so the
    /// holder index below stays in sync.
    pub(crate) replica_meta: BTreeMap<Sym, ObjectMeta>,
    /// Inverse index: holder key → names of replicated objects it holds a
    /// copy of. Lets a peer-failure scan visit only the dead peer's
    /// objects instead of every entry in `replica_meta`. Keyed access
    /// only; the per-holder `BTreeSet` keeps scan order deterministic
    /// (`Sym` orders by string content, matching the old `String` order).
    pub(crate) holder_index: FxHashMap<Key, BTreeSet<Sym>>,
    /// How many objects repair scans have visited (`maybe_repair` calls);
    /// exposed so tests can assert scan narrowing.
    pub(crate) repair_scan_visits: u64,
    /// Next instant the anti-entropy sweep may run (piggybacks on the
    /// runtime tick).
    next_anti_entropy: SimTime,
    /// Reusable scratch buffer for [`FlowNet::advance_into`] — the main
    /// loop drains flow completions every step, so the allocation is paid
    /// once instead of per step. Taken (`mem::take`) while in use; a
    /// nested advance during completion handling just starts from an
    /// empty spare.
    pub(crate) flow_scratch: Vec<FlowEvent>,
    /// Reusable scratch buffer of object names for the periodic scans
    /// (anti-entropy, adaptive review, peer-failure repair). The sweeps
    /// run every tick; reusing one buffer keeps the steady-state event
    /// loop allocation-free. Same take/restore discipline as
    /// `flow_scratch`.
    names_scratch: Vec<Sym>,
    /// Peers whose failure the repair daemon has already reacted to.
    pub(crate) repaired_peers: BTreeSet<Key>,
    /// Per-peer bandwidth estimates (keyed by raw address) learned from
    /// completed transfers; drives fetch source ranking and hedging.
    pub(crate) peer_bw: PeerBandwidth,
    /// Per-object fetch-heat tracker feeding the adaptive placement pass.
    /// Only populated when `config.adaptive.enabled`.
    pub(crate) object_heat: ObjectHeat,
    /// Original blobs of erasure-coded objects: the stripes cover the
    /// content sample window, so the logical object handed back to a
    /// decoding fetch (and verified against the decode) is staged here.
    /// `BTreeMap` for deterministic iteration.
    pub(crate) ec_originals: BTreeMap<Sym, Blob>,
    /// In-flight full-copy → stripe conversions, keyed by object name.
    pub(crate) ec_converts: BTreeMap<Sym, EcConvert>,
    /// In-flight lost-stripe rebuilds, keyed by job id (`BTreeMap` so
    /// scrub-time scans are deterministic).
    pub(crate) ec_repairs: BTreeMap<u64, EcRepair>,
    /// Next lost-stripe rebuild job id.
    next_ec_repair: u64,
    /// Next instant the adaptive placement pass may run (piggybacks on
    /// the runtime tick, like anti-entropy).
    next_adaptive: SimTime,
    /// The deployment-wide telemetry collector; clones of this handle live
    /// in the flow network and every overlay node.
    pub(crate) telemetry: Recorder,
    /// SLO windows, critical-path ring, and the post-mortem flight
    /// recorder (see [`crate::health`]).
    pub(crate) health: HealthPlane,
    /// Admission control, load shedding, retry budgets, and circuit
    /// breakers (see [`crate::overload`]). Inert unless
    /// `config.overload.enabled`.
    pub(crate) overload: OverloadPlane,
    /// The causal op ledger: bounded per-op decision rings feeding the
    /// explain plane (see [`c4h_telemetry::OpLedger`]). `BACKGROUND_RING`
    /// keys the shared background-plane ring. Inert (one relaxed atomic
    /// load per decision point) unless enabled.
    pub(crate) ledger: OpLedger,
    tick_armed: bool,
    tick_horizon: SimTime,
}

impl NodeRt {
    /// Moves `bytes` across the guest ↔ dom0 shared-memory channel with the
    /// full descriptor exchange the paper describes: the receiver grants a
    /// page ring, the sender maps it, data is copied, and the grant is torn
    /// down. Returns the transfer duration.
    pub(crate) fn channel_transfer(&mut self, bytes: u64) -> Duration {
        let pages = self.channel.config().pages;
        let gref = self
            .grants
            .grant(DomId(1), pages, true)
            .expect("bounded concurrent transfers per node");
        self.grants.map(gref).expect("fresh grant maps");
        let cost = self.channel.transfer(bytes);
        self.grants.unmap(gref).expect("mapped above");
        self.grants.revoke(gref).expect("unmapped above");
        cost
    }
}

impl Cloud4Home {
    /// Builds and warms up a deployment: forms the overlay, publishes
    /// service records, and seeds initial resource records.
    ///
    /// # Panics
    ///
    /// Panics if [`Config::validate`] rejects the configuration.
    pub fn new(config: Config) -> Self {
        if let Err(why) = config.validate() {
            panic!("invalid config: {why}");
        }
        let mut rng = DetRng::seed(config.seed);

        // Topology: the paper testbed shape, one address per node.
        let mut tb = presets::paper_testbed();
        for (i, _) in config.nodes.iter().enumerate() {
            tb.topology.attach(Addr::new(i as u64), tb.home);
        }
        tb.topology.attach(CLOUD_ADDR, tb.cloud);
        let telemetry = Recorder::new();
        let mut net = FlowNet::new(tb.topology);
        net.set_recorder(telemetry.clone());

        // Shared face-recognition training set (synthetic imagery).
        let examples: Vec<Vec<u8>> = (0..16)
            .map(|i| synth_bytes(0x5EED_0000 + i, 64 * 1024))
            .collect();
        let training = TrainingSet::from_examples(examples.iter().map(Vec::as_slice));

        let build_registry = |kinds: &[ServiceKind]| {
            let mut reg = ServiceRegistry::new();
            for k in kinds {
                let svc: Arc<dyn Service> = match k {
                    ServiceKind::FaceDetect => Arc::new(FaceDetect::new()),
                    ServiceKind::FaceRecognize => Arc::new(FaceRecognize::new(training.clone())),
                    ServiceKind::Transcode => Arc::new(Transcode::new()),
                    ServiceKind::Compress => Arc::new(Compress::new()),
                };
                reg.deploy(svc);
            }
            reg
        };

        let mut nodes = Vec::new();
        let mut node_of_key = FxHashMap::default();
        for (i, spec) in config.nodes.iter().enumerate() {
            let key = Key::from_name(&spec.name);
            assert!(
                node_of_key.insert(key, i).is_none(),
                "node name collision for {}",
                spec.name
            );
            let mut machine = Machine::new(spec.platform.clone(), VmSpec::new(256, 1));
            machine
                .spawn_guest(spec.service_vm)
                .expect("service VM must fit the platform");
            nodes.push(NodeRt {
                name: spec.name.clone(),
                name_sym: Sym::new(&spec.name),
                addr: Addr::new(i as u64),
                key,
                disk: DiskModel::for_platform(&spec.platform),
                machine,
                service_vm: spec.service_vm,
                channel: XenChannel::new(spec.channel),
                grants: GrantTable::new(256),
                chimera: ChimeraNode::new(key, config.chimera.clone()),
                sampler: ResourceSampler::new(SamplerConfig {
                    baseline_load: spec.ambient_load,
                    mem_total_mib: spec.platform.ram_mib,
                    battery: spec.battery,
                    ..SamplerConfig::default()
                }),
                bins: BinWatcher::new(spec.mandatory_bytes, spec.voluntary_bytes),
                monitor: ResourceMonitor::new(config.monitor),
                registry: build_registry(&spec.services),
                objects: SymMap::default(),
                gateway: spec.gateway,
                alive: true,
            });
        }
        for (i, n) in nodes.iter_mut().enumerate() {
            n.chimera
                .set_telemetry(telemetry.clone(), DHT_TRACK_BASE + i as u64);
        }

        let cloud = config.cloud.as_ref().map(|spec| {
            let mut s3 = S3Store::new();
            s3.create_bucket(&spec.bucket).expect("fresh bucket");
            let mut fleet = Ec2Fleet::new();
            let id = fleet.launch(spec.instance_platform.clone(), spec.instance_vm);
            for k in &spec.services {
                fleet.deploy_service(id, k.id()).expect("instance exists");
            }
            CloudRt {
                addr: CLOUD_ADDR,
                bucket: spec.bucket.clone(),
                s3,
                fleet,
                registry: build_registry(&spec.services),
                instance_vm: spec.instance_vm,
                active_tasks: 0,
            }
        });

        let slow_factor = vec![1.0; nodes.len()];
        let mut home = Cloud4Home {
            rng: rng.fork(),
            queue: EventQueue::new(),
            net,
            nodes,
            cloud,
            node_of_key,
            ops: FxHashMap::default(),
            reports: FxHashMap::default(),
            dht_waiters: FxHashMap::default(),
            flows: FxHashMap::default(),
            next_op: 1,
            stats: RunStats::default(),
            message_loss: 0.0,
            partition: Partition::default(),
            bursty: None,
            ge_chains: FxHashMap::default(),
            slow_factor,
            replica_meta: BTreeMap::new(),
            holder_index: FxHashMap::default(),
            repair_scan_visits: 0,
            next_anti_entropy: SimTime::ZERO,
            flow_scratch: Vec::new(),
            names_scratch: Vec::new(),
            repaired_peers: BTreeSet::new(),
            // Prior: the LAN's nominal per-flow TCP cap. Unseen peers all
            // rank equal, so candidate order matches the metadata until
            // real transfers are observed.
            peer_bw: PeerBandwidth::new(10.3e6, 0.3),
            object_heat: ObjectHeat::new(config.adaptive.heat_alpha),
            ec_originals: BTreeMap::new(),
            ec_converts: BTreeMap::new(),
            ec_repairs: BTreeMap::new(),
            next_ec_repair: 0,
            next_adaptive: SimTime::ZERO,
            telemetry,
            health: HealthPlane::new(&config),
            overload: OverloadPlane::new(&config),
            ledger: OpLedger::new(config.ledger_ring),
            tick_armed: false,
            tick_horizon: SimTime::ZERO,
            config,
        };
        home.warmup();
        // Recording starts after warm-up so traces cover only submitted
        // work, and identically so for every run of the same seed.
        home.telemetry.set_enabled(home.config.tracing);
        home.ledger.set_enabled(home.config.ledger);
        home.ensure_health();
        home
    }

    /// Forms the overlay and publishes service + initial resource records.
    fn warmup(&mut self) {
        let now = self.queue.now();
        self.nodes[0].chimera.bootstrap(now);
        let seed_key = self.nodes[0].key;
        for i in 1..self.nodes.len() {
            self.nodes[i].chimera.join_via(seed_key, now);
        }
        self.run_for(Duration::from_secs(2));
        debug_assert!(self.nodes.iter().all(|n| n.chimera.is_joined()));
        self.publish_service_records();
        self.publish_all_resources();
        self.run_for(Duration::from_secs(2));
    }

    /// Publishes the aggregated service-availability records ("every node
    /// registers its list of services with the key-value store").
    pub(crate) fn publish_service_records(&mut self) {
        let kinds = [
            ServiceKind::FaceDetect,
            ServiceKind::FaceRecognize,
            ServiceKind::Transcode,
            ServiceKind::Compress,
        ];
        let publisher = self
            .nodes
            .iter()
            .position(|n| n.gateway && n.alive)
            .unwrap_or(0);
        for kind in kinds {
            let providers: Vec<Key> = self
                .nodes
                .iter()
                .filter(|n| n.alive && n.registry.provides(c4h_services::ServiceId(kind.id())))
                .map(|n| n.key)
                .collect();
            let cloud_available = self
                .cloud
                .as_ref()
                .is_some_and(|c| c.registry.provides(c4h_services::ServiceId(kind.id())));
            let record = Record::Service(ServiceRecord {
                name: kind.name().to_owned(),
                service_id: kind.id(),
                providers,
                cloud_available,
                policy: "performance".into(),
            });
            let now = self.queue.now();
            if let Ok(req) = self.nodes[publisher].chimera.put(
                service_key(kind.name(), kind.id()),
                record.encode(),
                OverwritePolicy::Overwrite,
                now,
            ) {
                self.dht_waiters.insert((publisher, req), DhtWaiter::Ignore);
            }
        }
    }

    /// Forces every node to publish a fresh resource record now.
    fn publish_all_resources(&mut self) {
        for i in 0..self.nodes.len() {
            self.publish_resources(i);
        }
    }

    /// Publishes node `i`'s resource record into the key-value store.
    pub(crate) fn publish_resources(&mut self, i: usize) {
        if !self.nodes[i].alive || !self.nodes[i].chimera.is_joined() {
            return;
        }
        let now = self.queue.now();
        let (up, down) = self.node_bandwidth(i);
        let n = &mut self.nodes[i];
        let record =
            n.monitor
                .publish(n.key, now, &mut n.sampler, &n.bins, up, down, &mut self.rng);
        let key = node_resource_key(&n.key.to_string());
        if let Ok(req) = n.chimera.put(
            key,
            Record::Resource(record).encode(),
            OverwritePolicy::Overwrite,
            now,
        ) {
            self.dht_waiters.insert((i, req), DhtWaiter::Ignore);
        }
    }

    /// A node's nominal (up, down) bandwidth in bytes/second.
    fn node_bandwidth(&self, i: usize) -> (f64, f64) {
        let lan = presets::home_lan_capacity_bps();
        if self.nodes[i].gateway {
            (
                presets::wan_up_capacity_bps(),
                presets::wan_down_capacity_bps(),
            )
        } else {
            (lan, lan)
        }
    }

    // ------------------------------------------------------------------
    // Public inspection API
    // ------------------------------------------------------------------

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Number of home nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A node's name.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.0].name
    }

    /// The node holding the gateway role, or `None` if the configuration
    /// deploys no gateway (a cloud-less home cloud).
    pub fn gateway(&self) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.gateway).map(NodeId)
    }

    /// Whether two home nodes can currently exchange traffic (no partition
    /// cut between them).
    pub(crate) fn node_reachable(&self, a: usize, b: usize) -> bool {
        self.partition
            .connected(self.nodes[a].addr, self.nodes[b].addr)
    }

    /// Whether a node can currently reach the remote cloud.
    pub(crate) fn cloud_reachable(&self, i: usize) -> bool {
        match &self.cloud {
            Some(c) => self.partition.connected(self.nodes[i].addr, c.addr),
            None => false,
        }
    }

    /// Runtime statistics. The metadata-cache fields are aggregated live
    /// from the per-node kvstore counters.
    pub fn stats(&self) -> RunStats {
        let mut s = self.stats;
        let (hits, misses) = self.cache_stats();
        s.cache_hits = hits;
        s.cache_misses = misses;
        s.cache_answers = self
            .nodes
            .iter()
            .map(|n| n.chimera.stats().cache_answers)
            .sum();
        s
    }

    /// The deployment's telemetry recorder (spans, instants, counters,
    /// histograms). Clones share one buffer; see [`c4h_telemetry`].
    pub fn telemetry(&self) -> &Recorder {
        &self.telemetry
    }

    /// Turns trace/metric recording on or off at runtime. Spans opened
    /// while enabled still close cleanly after a disable. Enabling also
    /// arms the health plane's gauge sampler.
    pub fn set_tracing(&mut self, on: bool) {
        self.telemetry.set_enabled(on);
        if on {
            self.ensure_health();
        }
    }

    /// Whether trace/metric recording is currently enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.telemetry.enabled()
    }

    /// Serializes everything recorded so far as Chrome `trace_event` JSON
    /// (loadable in `chrome://tracing` or Perfetto). Deterministic: the
    /// same seed and workload produce byte-identical output.
    pub fn chrome_trace_json(&self) -> String {
        self.telemetry.chrome_trace_json()
    }

    /// Serializes recorded counters and histograms as a flat, sorted JSON
    /// document, with the aggregate [`RunStats`] mirrored in under
    /// `stats.*`. Deterministic for a given seed and workload.
    pub fn metrics_json(&self) -> String {
        self.sync_stats_counters();
        self.telemetry.metrics_json()
    }

    /// Serializes counters, the latest gauge values, and histograms in the
    /// Prometheus text exposition format (metric names prefixed `c4h_`).
    /// Deterministic for a given seed and workload.
    pub fn prometheus_text(&self) -> String {
        self.sync_stats_counters();
        self.telemetry.prometheus_text()
    }

    /// Serializes every recorded gauge time series (full history, virtual
    /// timestamps in nanoseconds) as sorted JSON. Deterministic for a given
    /// seed and workload.
    pub fn series_json(&self) -> String {
        self.telemetry.series_json()
    }

    /// Serializes the flight recorder's post-mortem dumps — one JSON object
    /// per hard operation failure, carrying the op's critical-path DAG (as
    /// [`Cloud4Home::explain_json`] renders it), recent fault notes, and
    /// the last gauge samples before the failure.
    /// Deterministic for a given seed and workload.
    pub fn postmortem_json(&self) -> String {
        self.health.flight.dumps_json()
    }

    /// A human-readable health summary: per-op-kind sliding-window latency
    /// percentiles against their objectives, violation and post-mortem
    /// counts. Integer-only formatting, deterministic per seed.
    pub fn health_text(&self) -> String {
        let now = self.now();
        let mut out = String::new();
        out.push_str(&format!("health @ {} ms\n", now.as_nanos() / 1_000_000));
        let summaries = self.health.summaries(now);
        if summaries.is_empty() {
            out.push_str("no operations observed in the window\n");
        }
        for (kind, h) in summaries {
            let slo = match h.slo_ns {
                Some(slo_ns) => {
                    let status = if h.p99_ns > slo_ns { "BREACH" } else { "ok" };
                    format!("slo {} ms [{status}]", slo_ns / 1_000_000)
                }
                None => "no slo".to_owned(),
            };
            out.push_str(&format!(
                "{kind:8} n={} p50={} ms p95={} ms p99={} ms {slo}\n",
                h.count,
                h.p50_ns / 1_000_000,
                h.p95_ns / 1_000_000,
                h.p99_ns / 1_000_000,
            ));
        }
        out.push_str(&format!(
            "violations={} postmortems={} (dropped {})\n",
            self.health.violations,
            self.health.flight.dumps().len(),
            self.health.flight.dropped(),
        ));
        out
    }

    /// A `top`-style snapshot: the latest gauge sample plus the slowest
    /// operations in the retained-detail ring with their dominant
    /// critical-path bucket. Integer-only formatting, deterministic per
    /// seed.
    ///
    /// Takes a fresh gauge sample first (when recording is on and none was
    /// taken at the current instant), so the snapshot is always live.
    pub fn top_text(&mut self) -> String {
        if self.telemetry.enabled()
            && !self.health.sample_period.is_zero()
            && self.health.last_sample != Some(self.now())
        {
            self.sample_health();
        }
        let mut out = String::new();
        out.push_str(&format!("top @ {} ms\n", self.now().as_nanos() / 1_000_000));
        let snap = self.telemetry.snapshot();
        let mut latest: Vec<(String, i64)> = snap
            .series
            .iter()
            .filter_map(|(name, s)| s.last().map(|(_, v)| (name.clone(), v)))
            .collect();
        latest.sort_by(|a, b| a.0.cmp(&b.0));
        if latest.is_empty() {
            out.push_str("no gauge samples recorded\n");
        }
        for (name, v) in latest {
            out.push_str(&format!("{name} = {v}\n"));
        }
        let worst = self.health.slowest(&self.reports, 8);
        if !worst.is_empty() {
            out.push_str("slowest ops:\n");
        }
        for r in worst {
            let (bucket, ns) = r.critical_path.dominant();
            out.push_str(&format!(
                "{} {} {} total={} ms dominant={bucket} ({} ms)\n",
                r.id,
                r.kind,
                r.object,
                r.total().as_millis(),
                ns / 1_000_000,
            ));
        }
        out
    }

    /// A human-readable admission/shedding summary: whether the overload
    /// plane is active, the shed controller's current rejection
    /// probability, breach and rejection totals, and per-tenant inflight
    /// rows. Integer-only formatting, deterministic per seed.
    pub fn shed_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "shed @ {} ms\n",
            self.now().as_nanos() / 1_000_000
        ));
        if !self.overload.enabled {
            out.push_str("overload plane disabled\n");
            return out;
        }
        out.push_str(&format!(
            "drop_permille={} breaches={} shed={} inflight={}\n",
            self.overload.shed_permille(),
            self.overload.breaches(),
            self.stats.ops_shed,
            self.overload.inflight(),
        ));
        out.push_str(&format!(
            "retry_budget_denied={}\n",
            self.stats.retry_budget_denied
        ));
        for (tenant, inflight) in self.overload.tenant_rows() {
            let name = self.nodes.get(tenant).map_or("?", |n| n.name.as_str());
            out.push_str(&format!(
                "tenant {name} inflight={inflight} retry_tokens={}\n",
                self.overload.retry_tokens(tenant)
            ));
        }
        out
    }

    /// A human-readable circuit-breaker summary: one row per path that has
    /// recorded at least one failure, with its state, consecutive-failure
    /// count, and trip total. Integer-only formatting, deterministic per
    /// seed.
    pub fn breaker_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "breakers @ {} ms\n",
            self.now().as_nanos() / 1_000_000
        ));
        if !self.overload.enabled {
            out.push_str("overload plane disabled\n");
            return out;
        }
        let mut any = false;
        for (addr, b) in self.overload.breaker_rows() {
            any = true;
            let path = self.path_name(Addr::new(addr));
            out.push_str(&format!(
                "{path} state={} failures={} trips={}\n",
                b.state(),
                b.failures(),
                b.trips,
            ));
        }
        if !any {
            out.push_str("no paths have recorded failures\n");
        }
        out.push_str(&format!(
            "open={} trips_total={} fast_fails={}\n",
            self.overload.breakers_open(),
            self.stats.breaker_trips,
            self.stats.breaker_fast_fails,
        ));
        out
    }

    /// Turns the causal op ledger on or off at runtime. While off, every
    /// decision point costs one relaxed atomic load and no per-op causal
    /// state is retained, so default-config runs stay byte-identical.
    /// Engine-introspection gauges ride the health sampler's cadence and
    /// only appear while the ledger is on.
    pub fn set_ledger(&mut self, on: bool) {
        self.ledger.set_enabled(on);
    }

    /// Whether the causal op ledger is currently recording.
    pub fn ledger_enabled(&self) -> bool {
        self.ledger.enabled()
    }

    /// Renders a completed op's annotated critical-path timeline: each DAG
    /// edge with its offset, duration, and latency bucket, the causal
    /// decisions that fell inside it, the full ledger chain, and the
    /// exact-sum invariant restated with real numbers. Integer-only
    /// formatting, deterministic per seed. Reports completed with tracing
    /// and the ledger off, or released from the retained-detail ring,
    /// render a one-line fallback.
    pub fn explain_text(&self, op: OpId) -> String {
        match self.reports.get(&op) {
            Some(report) => crate::explain::explain_text(report),
            None => format!("no completed report for {op}\n"),
        }
    }

    /// Serializes a completed op's critical-path DAG and causal ledger as
    /// a byte-stable JSON object, or `None` when no report exists for
    /// `op`. Deterministic for a given seed and workload.
    pub fn explain_json(&self, op: OpId) -> Option<String> {
        self.reports.get(&op).map(crate::explain::explain_json)
    }

    /// One summary line for each of the `n` slowest operations in the
    /// retained-detail ring (the last 128 completed while tracing or the
    /// ledger was on), with the dominant bucket of each critical path.
    /// Integer-only formatting, deterministic per seed.
    pub fn slowest_text(&self, n: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "slowest @ {} ms\n",
            self.now().as_nanos() / 1_000_000
        ));
        let worst = self.health.slowest(&self.reports, n);
        if worst.is_empty() {
            out.push_str("no retained operations (run with tracing or the ledger on)\n");
        }
        for report in worst {
            out.push_str(&crate::explain::summary_line(report));
            out.push('\n');
        }
        out
    }

    /// Summary lines for completed ops of `kind` whose latency reached the
    /// p99.9 of that kind's full-run histogram — the tail the SLO plane
    /// cares about. Scans completed reports in (latency desc, op id)
    /// order, capped at eight rows. Integer-only, deterministic per seed.
    pub fn outliers_text(&self, kind: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "outliers op.{kind} @ {} ms\n",
            self.now().as_nanos() / 1_000_000
        ));
        let snap = self.telemetry.snapshot();
        let Some(h) = snap.histograms.get(&format!("op.{kind}.total_ns")) else {
            out.push_str("no latency histogram for this kind (tracing off or no ops)\n");
            return out;
        };
        let p999 = h.value_at_quantile(999, 1000);
        out.push_str(&format!("n={} p99.9={}ns\n", h.count, p999));
        let mut picks: Vec<(u64, u64, OpId)> = self
            .reports
            .iter()
            .filter(|(_, r)| r.kind == kind)
            .map(|(id, r)| {
                let lat = r.completed.as_nanos() - r.submitted.as_nanos();
                (lat, id.0, *id)
            })
            .filter(|(lat, _, _)| *lat >= p999)
            .collect();
        picks.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        picks.truncate(8);
        if picks.is_empty() {
            out.push_str("no retained reports at or above the threshold\n");
        }
        for (_, _, id) in picks {
            if let Some(report) = self.reports.get(&id) {
                out.push_str(&crate::explain::summary_line(report));
                out.push('\n');
            }
        }
        out
    }

    /// The background plane's causal events — breaker trips, repair
    /// triggers, adaptive placement actions — in record order (bounded by
    /// the configured ring size). Empty while the ledger is off.
    pub fn background_ledger(&self) -> &[LedgerEvent] {
        self.ledger.chain(BACKGROUND_RING)
    }

    /// Mirrors [`RunStats`] into the metrics registry so dumps carry the
    /// runtime aggregates alongside subsystem counters.
    fn sync_stats_counters(&self) {
        let s = self.stats();
        for (name, v) in [
            ("stats.ops_completed", s.ops_completed),
            ("stats.flows_started", s.flows_started),
            ("stats.envelopes_delivered", s.envelopes_delivered),
            ("stats.envelopes_dropped", s.envelopes_dropped),
            ("stats.dht_retries", s.dht_retries),
            ("stats.fetch_failovers", s.fetch_failovers),
            ("stats.proc_redispatches", s.proc_redispatches),
            ("stats.replicas_written", s.replicas_written),
            ("stats.repairs_started", s.repairs_started),
            ("stats.repairs_completed", s.repairs_completed),
            ("stats.partial_replication", s.partial_replication),
            ("stats.chunked_transfers", s.chunked_transfers),
            ("stats.quorum_publishes", s.quorum_publishes),
            ("stats.striped_fetches", s.striped_fetches),
            ("stats.hedged_fetches", s.hedged_fetches),
            ("stats.cache_answers", s.cache_answers),
            ("stats.cache_hits", s.cache_hits),
            ("stats.cache_misses", s.cache_misses),
            ("stats.ops_shed", s.ops_shed),
            ("stats.retry_budget_denied", s.retry_budget_denied),
            ("stats.breaker_trips", s.breaker_trips),
            ("stats.breaker_fast_fails", s.breaker_fast_fails),
            ("stats.crit_dht_ns", s.crit_dht_ns),
            ("stats.crit_disk_ns", s.crit_disk_ns),
            ("stats.crit_lan_ns", s.crit_lan_ns),
            ("stats.crit_wan_ns", s.crit_wan_ns),
            ("stats.crit_service_ns", s.crit_service_ns),
            ("stats.crit_backoff_ns", s.crit_backoff_ns),
            ("stats.crit_other_ns", s.crit_other_ns),
        ] {
            self.telemetry.set_counter(name, v);
        }
    }

    // ------------------------------------------------------------------
    // Causal-ledger hooks (one relaxed atomic load while disabled)
    // ------------------------------------------------------------------

    /// Records one causal decision event on an op's ledger ring. Returns
    /// the event's seq for chaining, or `LEDGER_NONE` while the ledger is
    /// disabled (in which case nothing is recorded).
    pub(crate) fn ledger_op(
        &mut self,
        op: OpId,
        kind: CauseKind,
        cause: u32,
        a: u64,
        b: u64,
    ) -> u32 {
        if !self.ledger.enabled() {
            return LEDGER_NONE;
        }
        let ts = self.now().as_nanos();
        self.ledger.record(op.0, kind, cause, ts, a, b)
    }

    /// Records one background-plane causal event (breaker trips, repair
    /// triggers, adaptive actions) on the shared background ring.
    pub(crate) fn ledger_bg(&mut self, kind: CauseKind, a: u64, b: u64) {
        if !self.ledger.enabled() {
            return;
        }
        let ts = self.now().as_nanos();
        self.ledger
            .record(BACKGROUND_RING, kind, LEDGER_NONE, ts, a, b);
    }

    // ------------------------------------------------------------------
    // Overload-plane hooks (all no-ops while the plane is disabled)
    // ------------------------------------------------------------------

    /// Human name of a breaker path address: a node name or the cloud
    /// uplink. Returns the interned name, so the common cases (known
    /// node, cloud) never allocate; an unknown address formats once and
    /// its interned fallback is reused from then on.
    fn path_name(&self, addr: Addr) -> Sym {
        if addr == CLOUD_ADDR {
            return Sym::new("cloud-uplink");
        }
        self.nodes
            .iter()
            .find(|n| n.addr == addr)
            .map_or_else(|| Sym::new(&format!("addr-{}", addr.raw())), |n| n.name_sym)
    }

    /// Records a successful transfer on a path, closing its breaker when a
    /// half-open probe just succeeded.
    pub(crate) fn breaker_success(&mut self, addr: Addr) {
        if !self.overload.enabled {
            return;
        }
        if self.overload.record_success(addr.raw()) {
            let path = self.path_name(addr);
            self.telemetry.add("breaker.close", 1);
            self.telemetry.instant_args(
                "overload",
                "breaker.close",
                RUNTIME_TRACK,
                self.now().as_nanos(),
                vec![("path", ArgValue::from(path.as_str()))],
            );
        }
    }

    /// Records a failed transfer on a path, tripping its breaker open after
    /// the configured consecutive-failure threshold.
    pub(crate) fn breaker_failure(&mut self, addr: Addr) {
        if !self.overload.enabled {
            return;
        }
        let now_ns = self.now().as_nanos();
        if self.overload.record_failure(addr.raw(), now_ns) {
            self.stats.breaker_trips += 1;
            self.ledger_bg(CauseKind::BreakerTrip, addr.raw(), 0);
            let path = self.path_name(addr);
            self.telemetry.add("breaker.trip", 1);
            self.telemetry.instant_args(
                "overload",
                "breaker.trip",
                RUNTIME_TRACK,
                now_ns,
                vec![("path", ArgValue::from(path.as_str()))],
            );
        }
    }

    /// Whether `addr`'s breaker currently blocks traffic for `op`. Counts
    /// and traces the fast-fail when it does (and stamps a `breaker.skip`
    /// event on the op's causal ledger); may move an open breaker to
    /// half-open (the deterministic probe path).
    pub(crate) fn breaker_blocks_path(&mut self, addr: Addr, op: OpId) -> bool {
        if !self.overload.enabled {
            return false;
        }
        let now_ns = self.now().as_nanos();
        if !self.overload.breaker_blocks(addr.raw(), now_ns) {
            return false;
        }
        self.stats.breaker_fast_fails += 1;
        self.ledger_op(op, CauseKind::BreakerSkip, LEDGER_NONE, addr.raw(), 0);
        let path = self.path_name(addr);
        self.telemetry.add("breaker.fast_fail", 1);
        self.telemetry.instant_args(
            "overload",
            "breaker.fast_fail",
            RUNTIME_TRACK,
            now_ns,
            vec![("path", ArgValue::from(path.as_str()))],
        );
        true
    }

    /// Takes one retry token from `node`'s budget, tracing the denial when
    /// the bucket is dry. Always grants while the plane is disabled.
    pub(crate) fn retry_budget_take(
        &mut self,
        node: usize,
        site: &'static str,
        object: Sym,
    ) -> bool {
        let now_ns = self.now().as_nanos();
        if self.overload.retry_allowed(node, now_ns) {
            return true;
        }
        self.stats.retry_budget_denied += 1;
        self.telemetry.add("retry.budget_denied", 1);
        self.telemetry.instant_args(
            "overload",
            "retry.budget_denied",
            RUNTIME_TRACK,
            now_ns,
            vec![
                ("site", ArgValue::from(site)),
                ("node", ArgValue::from(self.nodes[node].name.as_str())),
                ("object", ArgValue::from(object.as_str())),
            ],
        );
        false
    }

    /// Objects currently stored on a node.
    pub fn objects_on(&self, id: NodeId) -> usize {
        self.nodes[id.0].objects.len()
    }

    /// Bytes currently occupying a node's storage bins (mandatory plus
    /// voluntary). Summed across nodes this is the deployment's physical
    /// footprint — the numerator of the storage-overhead experiments.
    pub fn stored_bytes(&self, id: NodeId) -> u64 {
        let bins = &self.nodes[id.0].bins;
        bins.used_bytes(Bin::Mandatory) + bins.used_bytes(Bin::Voluntary)
    }

    /// How many objects the repair daemon's scans have visited in total.
    /// Peer-failure scans are proportional to the dead peer's holdings,
    /// not the deployment's object count; tests assert that narrowing
    /// here.
    pub fn repair_scan_visits(&self) -> u64 {
        self.repair_scan_visits
    }

    /// Bandwidth samples observed for transfers from a node's address.
    /// Zero for an untrained (or crash-reset) peer, whose estimate sits
    /// at the prior.
    pub fn peer_bw_samples(&self, id: NodeId) -> u64 {
        self.peer_bw.samples(self.nodes[id.0].addr.raw())
    }

    /// Whether `name` is currently stored as erasure-coded stripes
    /// rather than full copies.
    pub fn is_erasure_coded(&self, name: &str) -> bool {
        Sym::lookup(name)
            .and_then(|sym| self.replica_meta.get(&sym))
            .is_some_and(|meta| meta.ec.is_some())
    }

    /// The stripe holders of an erasure-coded object, in code-row order
    /// (empty when `name` is not erasure-coded or unknown).
    pub fn stripe_holders(&self, name: &str) -> Vec<NodeId> {
        Sym::lookup(name)
            .and_then(|sym| self.replica_meta.get(&sym))
            .and_then(|meta| meta.ec.as_ref())
            .map(|layout| {
                layout
                    .holders
                    .iter()
                    .filter_map(|&key| self.node_index(key).map(NodeId))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Live nodes currently holding a full copy of `name`'s bytes (the
    /// home primary plus replicas), per the repair daemon's index.
    pub fn live_copies(&self, name: &str) -> usize {
        let Some(name) = Sym::lookup(name) else {
            return 0;
        };
        let Some(meta) = self.replica_meta.get(&name) else {
            return 0;
        };
        let mut holders: Vec<usize> = Vec::new();
        let primary = match meta.location {
            Location::Home { node } => Some(node),
            _ => None,
        };
        for key in primary.into_iter().chain(meta.replicas.iter().copied()) {
            if let Some(j) = self.node_index(key) {
                if self.nodes[j].alive
                    && self.nodes[j].objects.contains_key(&name)
                    && !holders.contains(&j)
                {
                    holders.push(j);
                }
            }
        }
        holders.len()
    }

    /// Whether a node is currently up (not crashed by a fault plan).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn node_alive(&self, id: NodeId) -> bool {
        self.nodes[id.0].alive
    }

    /// Total DHT lookup hops across nodes (for overlay statistics).
    pub fn dht_lookup_hops(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.chimera.stats().lookup_hops)
            .sum()
    }

    /// Aggregate metadata-cache hit/miss counters across nodes.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.nodes
            .iter()
            .map(|n| n.chimera.cache_stats())
            .fold((0, 0), |(h, m), (nh, nm)| (h + nh, m + nm))
    }

    /// Injects overlay message loss: each control envelope is independently
    /// dropped with probability `p`. Request timeouts and the operation
    /// layer's retries recover; this models flaky home wireless links.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn set_message_loss(&mut self, p: f64) {
        assert!(
            (0.0..1.0).contains(&p),
            "loss probability must be in [0, 1)"
        );
        self.message_loss = p;
    }

    /// Scales the WAN's per-flow bandwidth availability (1.0 = nominal) to
    /// model changing network conditions — the paper's open issue (iv):
    /// "mechanisms that adapt to the changing network conditions".
    ///
    /// New transfers and the decision engine's movement estimates see the
    /// change immediately; flows already in flight keep the conditions they
    /// sampled at start.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < factor <= 1.0` (flows can never exceed the
    /// nominal TCP caps).
    pub fn set_wan_quality(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "WAN quality factor must be in (0, 1]"
        );
        let nominal = presets::wan_bandwidth_median();
        for (src, dst) in self.net.topology().route_pairs() {
            let is_wan = {
                let route = self.net.topology().route(src, dst).expect("pair listed");
                // WAN routes are the ones with variability configured.
                route.bandwidth_sigma > 0.0
            };
            if is_wan {
                let route = self
                    .net
                    .topology_mut()
                    .route_mut(src, dst)
                    .expect("pair listed");
                route.bandwidth_median = nominal * factor;
            }
        }
    }

    // ------------------------------------------------------------------
    // Churn API
    // ------------------------------------------------------------------

    /// Crashes a node: it stops responding, transfers it was part of abort
    /// (the waiting operations fail over to surviving replicas where they
    /// can), operations of its own that wait on a DHT request fail, and its
    /// unreplicated state is lost until failure detection recovers what
    /// replicas hold.
    pub fn crash_node(&mut self, id: NodeId) {
        self.nodes[id.0].alive = false;
        let addr = self.nodes[id.0].addr;
        self.telemetry.instant_args(
            "fault",
            "fault.crash",
            RUNTIME_TRACK,
            self.now().as_nanos(),
            vec![
                ("node", ArgValue::from(self.nodes[id.0].name.as_str())),
                ("addr", ArgValue::from(addr.raw())),
            ],
        );
        if self.telemetry.enabled() {
            self.health.flight.note_fault(
                self.now().as_nanos(),
                format!("crash {}", self.nodes[id.0].name),
            );
        }
        let why = format!("transfer peer {} crashed", self.nodes[id.0].name);
        self.abort_flows(|src, dst| src == addr || dst == addr, &why);
        // A dead node's overlay is never ticked or delivered to, so the DHT
        // requests it issued can neither complete nor time out: fail the
        // ops waiting on them. Sorted, since `dht_waiters` is a HashMap.
        let mut orphaned: Vec<(ReqId, OpId)> = self
            .dht_waiters
            .iter()
            .filter_map(|(&(i, req), w)| match w {
                DhtWaiter::Op(op) if i == id.0 => Some((req, *op)),
                _ => None,
            })
            .collect();
        orphaned.sort_unstable();
        for (req, op) in orphaned {
            self.dht_waiters.remove(&(id.0, req));
            self.client_lost(op);
        }
        // A rejoined instance starts cold: bandwidth observed before the
        // crash says nothing about the machine that comes back, so the
        // EWMA entry reverts to the prior instead of ranking the ghost.
        self.peer_bw.reset(addr.raw());
        self.ensure_tick();
    }

    /// Cancels every in-flight bulk transfer whose endpoints satisfy `cut`,
    /// rerouting the operations that were waiting on them. Repair transfers
    /// crossing the cut are dropped (the daemon retries on the next failure
    /// notification or anti-entropy sweep); severed fan-out stragglers
    /// route their object straight back into the repair daemon — their
    /// destination never became a holder, so no peer-failure scan would
    /// ever find the shortfall.
    fn abort_flows(&mut self, cut: impl Fn(Addr, Addr) -> bool, why: &str) {
        let mut dead_flows: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, c)| cut(c.src, c.dst))
            .map(|(f, _)| *f)
            .collect();
        // `flows` is a HashMap; sort so the abort order (and thus every
        // downstream RNG draw) is deterministic.
        dead_flows.sort();
        let mut orphaned: Vec<Sym> = Vec::new();
        let mut dead_converts: Vec<Sym> = Vec::new();
        let mut dead_ec_repairs: Vec<u64> = Vec::new();
        for flow in dead_flows {
            // An earlier abort's recovery may already have canceled it.
            let Some(claim) = self.cancel_claim(flow) else {
                continue;
            };
            let now = self.now().as_nanos();
            match claim.owner {
                FlowOwner::Op(op) => self.transfer_failed(op, flow, why),
                FlowOwner::Repair(job) => {
                    self.telemetry.end_args(
                        job.span,
                        now,
                        vec![("installed", ArgValue::from(false))],
                    );
                }
                FlowOwner::Fanout(job) => {
                    self.telemetry.end_args(
                        job.span,
                        now,
                        vec![("installed", ArgValue::from(false))],
                    );
                    orphaned.push(job.name);
                }
                FlowOwner::EcConvert(name) => dead_converts.push(name),
                FlowOwner::EcRepair(id) => dead_ec_repairs.push(id),
            }
        }
        for name in orphaned {
            self.maybe_repair(name);
        }
        // A conversion losing any stripe transfer aborts whole: the object
        // still has its full copies, so nothing of value is lost.
        dead_converts.sort();
        dead_converts.dedup();
        for name in dead_converts {
            if let Some(conv) = self.ec_converts.remove(&name) {
                self.ec_convert_abort(name, conv);
            }
        }
        // A rebuild losing a survivor transfer restarts from scratch on
        // the next repair trigger (the survivor set may have changed).
        dead_ec_repairs.sort_unstable();
        dead_ec_repairs.dedup();
        for id in dead_ec_repairs {
            if let Some(job) = self.ec_repairs.remove(&id) {
                for &f in job.pending.keys() {
                    self.cancel_claim(f);
                }
                self.maybe_repair(job.name);
            }
        }
    }

    /// Gracefully removes a node: it redistributes its DHT records and
    /// announces departure before going offline.
    pub fn leave_node(&mut self, id: NodeId) {
        let now = self.now();
        self.nodes[id.0].chimera.leave(now);
        self.pump();
        self.nodes[id.0].alive = false;
        self.publish_service_records();
    }

    /// Rejoins a previously crashed or departed node through a live peer.
    ///
    /// # Errors
    ///
    /// Returns [`ChurnError::NoLiveSeed`] (leaving the node down) when no
    /// live, joined peer exists to bootstrap through.
    pub fn rejoin_node(&mut self, id: NodeId) -> Result<(), ChurnError> {
        let seed = self
            .nodes
            .iter()
            .position(|n| n.alive && n.chimera.is_joined())
            .ok_or(ChurnError::NoLiveSeed)?;
        let seed_key = self.nodes[seed].key;
        self.nodes[id.0].alive = true;
        // The peer is back: let the repair daemon react afresh if it fails
        // again later.
        let key = self.nodes[id.0].key;
        self.repaired_peers.remove(&key);
        let now = self.now();
        self.telemetry.instant_args(
            "fault",
            "fault.rejoin",
            RUNTIME_TRACK,
            now.as_nanos(),
            vec![("node", ArgValue::from(self.nodes[id.0].name.as_str()))],
        );
        if self.telemetry.enabled() {
            self.health
                .flight
                .note_fault(now.as_nanos(), format!("rejoin {}", self.nodes[id.0].name));
        }
        self.nodes[id.0].chimera.join_via(seed_key, now);
        self.run_for(Duration::from_secs(2));
        self.publish_service_records();
        self.publish_resources(id.0);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Schedules a [`FaultPlan`]'s events relative to the current virtual
    /// time. Events fire as the clock reaches each offset, deterministically
    /// under the run seed; plans may be layered by calling this repeatedly.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        for (offset, event) in plan.into_sorted_events() {
            self.queue.schedule_in(offset, Event::Fault(event));
        }
        self.ensure_tick();
    }

    /// Applies one fault (or recovery) action immediately.
    pub fn apply_fault(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::Crash(id) => {
                if self.nodes[id.0].alive {
                    self.crash_node(id);
                }
            }
            FaultEvent::Rejoin(id) => {
                if !self.nodes[id.0].alive {
                    // Ignored when no live seed exists, per the event's
                    // documented semantics.
                    let _ = self.rejoin_node(id);
                }
            }
            FaultEvent::Partition(groups) => {
                let gateway_group = self.gateway().map(|g| self.nodes[g.0].addr).map(|addr| {
                    groups
                        .iter()
                        .position(|g| g.iter().any(|id| self.nodes[id.0].addr == addr))
                });
                let mut addr_groups: Vec<Vec<Addr>> = groups
                    .iter()
                    .map(|g| g.iter().map(|id| self.nodes[id.0].addr).collect())
                    .collect();
                // The cloud uplink runs through the gateway: the cloud
                // endpoint lands in the gateway's group (the implicit
                // remainder group when the gateway is unlisted).
                if let Some(Some(idx)) = gateway_group {
                    addr_groups[idx].push(CLOUD_ADDR);
                }
                // `groups`: explicit groups as "addr,addr|addr,..."; every
                // unlisted address forms the implicit remainder group.
                let desc: String = addr_groups
                    .iter()
                    .map(|g| {
                        g.iter()
                            .map(|a| a.raw().to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    })
                    .collect::<Vec<_>>()
                    .join("|");
                self.telemetry.instant_args(
                    "fault",
                    "fault.partition",
                    RUNTIME_TRACK,
                    self.now().as_nanos(),
                    vec![("groups", ArgValue::from(desc.clone()))],
                );
                if self.telemetry.enabled() {
                    self.health
                        .flight
                        .note_fault(self.now().as_nanos(), format!("partition {desc}"));
                }
                self.partition = Partition::new(addr_groups);
                let cut = self.partition.clone();
                self.abort_flows(
                    |src, dst| !cut.connected(src, dst),
                    "network partition severed the transfer",
                );
                self.ensure_tick();
            }
            FaultEvent::Heal => {
                self.telemetry
                    .instant("fault", "fault.heal", RUNTIME_TRACK, self.now().as_nanos());
                if self.telemetry.enabled() {
                    self.health
                        .flight
                        .note_fault(self.now().as_nanos(), "heal".to_owned());
                }
                self.partition = Partition::default();
            }
            FaultEvent::WanDegrade(factor) => {
                let factor = factor.clamp(0.05, 1.0);
                self.telemetry.instant_args(
                    "fault",
                    "fault.wan_degrade",
                    RUNTIME_TRACK,
                    self.now().as_nanos(),
                    vec![("factor_permille", ArgValue::from((factor * 1000.0) as u64))],
                );
                if self.telemetry.enabled() {
                    self.health.flight.note_fault(
                        self.now().as_nanos(),
                        format!("wan_degrade {}", (factor * 1000.0) as u64),
                    );
                }
                self.set_wan_quality(factor);
            }
            FaultEvent::BurstyLoss {
                mean_loss,
                mean_burst_len,
            } => {
                self.telemetry.instant_args(
                    "fault",
                    "fault.bursty_loss",
                    RUNTIME_TRACK,
                    self.now().as_nanos(),
                    vec![
                        (
                            "mean_loss_permille",
                            ArgValue::from((mean_loss * 1000.0) as u64),
                        ),
                        (
                            "mean_burst_len_x1000",
                            ArgValue::from((mean_burst_len * 1000.0) as u64),
                        ),
                    ],
                );
                if self.telemetry.enabled() {
                    self.health.flight.note_fault(
                        self.now().as_nanos(),
                        format!("bursty_loss {}", (mean_loss * 1000.0) as u64),
                    );
                }
                self.ge_chains.clear();
                self.bursty = if mean_loss > 0.0 {
                    Some(GilbertElliott::bursty(mean_loss, mean_burst_len))
                } else {
                    None
                };
            }
            FaultEvent::SlowNode { node, factor } => {
                let factor = factor.max(1.0);
                self.telemetry.instant_args(
                    "fault",
                    "fault.slow_node",
                    RUNTIME_TRACK,
                    self.now().as_nanos(),
                    vec![
                        ("node", ArgValue::from(self.nodes[node.0].name.as_str())),
                        ("factor_permille", ArgValue::from((factor * 1000.0) as u64)),
                    ],
                );
                if self.telemetry.enabled() {
                    self.health.flight.note_fault(
                        self.now().as_nanos(),
                        format!("slow_node {}", self.nodes[node.0].name),
                    );
                }
                self.slow_factor[node.0] = factor;
            }
        }
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Ensures the periodic tick chain is armed.
    pub(crate) fn ensure_tick(&mut self) {
        if !self.tick_armed {
            self.tick_armed = true;
            self.queue.schedule_in(TICK_PERIOD, Event::Tick);
        }
        self.ensure_health();
    }

    /// Ensures the health plane's gauge-sample chain is armed, if the
    /// sampler is configured and recording is on.
    pub(crate) fn ensure_health(&mut self) {
        if !self.health.armed && !self.health.sample_period.is_zero() && self.telemetry.enabled() {
            self.health.armed = true;
            self.queue
                .schedule_in(self.health.sample_period, Event::HealthSample);
        }
    }

    /// Runs the simulation for a fixed span of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let target = self.now() + d;
        self.tick_horizon = self.tick_horizon.max(target);
        self.ensure_tick();
        while self.next_time().is_some_and(|t| t <= target) {
            self.step();
        }
        if self.now() < target {
            self.drain_flows(target, true);
            // An early-fired completion may have scheduled follow-on work
            // at or before the horizon; drain it.
            while self.next_time().is_some_and(|t| t <= target) {
                self.step();
            }
        }
    }

    /// Advances the flow engine to `t` and routes every completion that
    /// surfaces on the way, outside any operation's step. With `park` the
    /// queue clock moves to `t` before the completions are routed;
    /// without it they are routed at the current clock, ahead of the
    /// queue event at `t` they surfaced for.
    fn drain_flows(&mut self, t: SimTime, park: bool) {
        let mut events = std::mem::take(&mut self.flow_scratch);
        self.net.advance_into(t, &mut events);
        if park {
            self.queue.advance_to(t);
        }
        for &FlowEvent::Completed { flow, .. } in &events {
            self.reap_flow(flow);
        }
        self.flow_scratch = events;
    }

    /// Advances the flow engine to `now` while mid-step (starting a new
    /// flow requires up-to-date accruals). Completions surfacing here — a
    /// float-accrual hair before their predicted time — cannot re-enter the
    /// operation machinery, so they are handed back to the event queue and
    /// reaped at the same instant, after the current step finishes.
    fn defer_flow_completions(&mut self, now: SimTime) {
        let mut events = std::mem::take(&mut self.flow_scratch);
        self.net.advance_into(now, &mut events);
        for &FlowEvent::Completed { flow, .. } in &events {
            self.queue
                .schedule_in(Duration::ZERO, Event::FlowReap { flow });
        }
        self.flow_scratch = events;
    }

    /// Routes one completed flow to whoever was waiting on it: a foreground
    /// operation, the repair daemon, or a background fan-out straggler. A
    /// flow nobody claims (canceled between completion and routing) is
    /// inert.
    fn reap_flow(&mut self, flow: FlowId) {
        let Some(claim) = self.flows.remove(&flow) else {
            return;
        };
        match claim.owner {
            FlowOwner::Op(op) => self.op_continue(op, OpInput::FlowDone { flow }),
            FlowOwner::Repair(job) => self.finish_repair(job),
            FlowOwner::Fanout(job) => self.finish_background_replica(job),
            FlowOwner::EcConvert(name) => self.ec_convert_flow_done(flow, name),
            FlowOwner::EcRepair(id) => self.ec_repair_flow_done(flow, id),
        }
    }

    /// Cancels a flow in the network and drops its claim, which is handed
    /// back (`None` when the flow was already reaped or canceled).
    pub(crate) fn cancel_claim(&mut self, flow: FlowId) -> Option<FlowClaim> {
        self.net.cancel(flow);
        self.flows.remove(&flow)
    }

    /// Claims a flow just started between nodes `src` and `dst`.
    fn claim_node_flow(&mut self, flow: FlowId, src: usize, dst: usize, owner: FlowOwner) {
        let (src, dst) = (self.nodes[src].addr, self.nodes[dst].addr);
        self.flows.insert(flow, FlowClaim { src, dst, owner });
    }

    /// Claims held by foreground operations; every other claim is
    /// background placement work.
    fn op_claims(&self) -> usize {
        self.flows
            .values()
            .filter(|c| matches!(c.owner, FlowOwner::Op(_)))
            .count()
    }

    /// Whether a repair or a detached fan-out transfer of `name` is in
    /// flight (and may yet land the copy a scan would otherwise add).
    fn replica_flow_in_flight(&self, name: Sym) -> bool {
        self.flows.values().any(|c| match &c.owner {
            FlowOwner::Repair(job) => job.name == name,
            FlowOwner::Fanout(job) => job.name == name,
            _ => false,
        })
    }

    /// Runs until the given operation completes, returning its report.
    ///
    /// Other in-flight operations keep progressing concurrently.
    ///
    /// # Panics
    ///
    /// Panics if the simulation runs out of events before the operation
    /// completes (a runtime bug) or the id is unknown.
    pub fn run_until_complete(&mut self, op: OpId) -> OpReport {
        assert!(
            self.reports.contains_key(&op) || self.ops.contains_key(&op),
            "unknown operation {op}"
        );
        loop {
            if let Some(r) = self.reports.get(&op) {
                return r.clone();
            }
            self.ensure_tick();
            assert!(self.step(), "simulation stalled while {op} pending");
        }
    }

    /// Runs until no operations remain in flight and every background
    /// transfer (detached store fan-out stragglers, repair re-replication)
    /// has landed.
    pub fn run_until_idle(&mut self) {
        while !self.ops.is_empty() || self.flows.len() > self.op_claims() {
            self.ensure_tick();
            assert!(self.step(), "simulation stalled with operations pending");
        }
        // Flush a final gauge sample at quiescence so the series always
        // ends with the settled state, even off the sampling cadence.
        if self.telemetry.enabled()
            && !self.health.sample_period.is_zero()
            && self.health.last_sample != Some(self.now())
        {
            self.sample_health();
        }
    }

    /// Takes a completed report, if present.
    pub fn take_report(&mut self, op: OpId) -> Option<OpReport> {
        self.reports.remove(&op)
    }

    /// The earliest pending instant across the queue and the flow network.
    fn next_time(&mut self) -> Option<SimTime> {
        match (self.queue.peek_time(), self.net.next_event()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advances the simulation by one event. Returns `false` when idle.
    pub(crate) fn step(&mut self) -> bool {
        // Route passive-layer metrics (kvstore codec, service kernels) to
        // this deployment's recorder for the duration of the step.
        let _dispatch = c4h_telemetry::install(&self.telemetry);
        self.pump();
        let qt = self.queue.peek_time();
        let nt = self.net.next_event();
        let t = match (qt, nt) {
            (None, None) => return false,
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
        };
        // Ties go to the network. Otherwise the flow engine predicted no
        // completion at or before `t`, but float accrual can still land one
        // a hair early — route it, or the waiter hangs forever.
        let net_first = nt == Some(t) && qt.is_none_or(|q| t <= q);
        self.drain_flows(t, net_first);
        if !net_first {
            let (_, event) = self.queue.pop().expect("queue has an event at t");
            self.dispatch(event);
        }
        self.pump();
        true
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Deliver { to, env } => {
                if self.nodes[to].alive {
                    let now = self.now();
                    self.stats.envelopes_delivered += 1;
                    self.nodes[to].chimera.handle(env, now);
                }
            }
            Event::Tick => {
                self.tick_armed = false;
                let now = self.now();
                if self.telemetry.enabled() {
                    // Queue depths sampled on event boundaries: every tick
                    // is one deterministic sample point.
                    self.telemetry
                        .observe("runtime.queue_depth", self.queue.len() as u64);
                    self.telemetry
                        .observe("runtime.ops_inflight", self.ops.len() as u64);
                    self.telemetry
                        .observe("runtime.flows_inflight", self.flows.len() as u64);
                }
                for i in 0..self.nodes.len() {
                    if self.nodes[i].alive {
                        self.nodes[i].chimera.tick(now);
                        if self.nodes[i].monitor.due(now) {
                            self.publish_resources(i);
                        }
                    }
                }
                self.anti_entropy_sweep(now);
                self.adaptive_pass(now);
                if !self.ops.is_empty() || self.now() < self.tick_horizon {
                    self.ensure_tick();
                }
            }
            Event::OpWake { op } => self.op_continue(op, OpInput::Wake),
            Event::OpSubWake { op, token } => self.op_continue(op, OpInput::SubWake { token }),
            Event::DhtDone { op, ev } => self.op_continue(op, OpInput::Dht(ev)),
            Event::Fault(ev) => self.apply_fault(ev),
            Event::FlowReap { flow } => self.reap_flow(flow),
            Event::ClientLost { op } => self.client_lost(op),
            Event::HealthSample => {
                self.health.armed = false;
                if self.telemetry.enabled() && !self.health.sample_period.is_zero() {
                    self.sample_health();
                    // Re-arm directly (not via ensure_health) so the cadence
                    // stays exactly periodic while work remains.
                    if !self.ops.is_empty() || self.now() < self.tick_horizon {
                        self.health.armed = true;
                        self.queue
                            .schedule_in(self.health.sample_period, Event::HealthSample);
                    }
                }
            }
        }
    }

    /// Records one gauge sample row: runtime queue depths, per-link
    /// utilization, and per-node resource/overlay gauges. Read-only with
    /// respect to simulation state and draws no randomness, so enabling the
    /// sampler cannot perturb event timing or the RNG stream.
    pub(crate) fn sample_health(&mut self) {
        let now = self.now();
        self.health.last_sample = Some(now);
        let ts = now.as_nanos();
        let op_claims = self.op_claims();
        let mut row: Vec<(String, i64)> = vec![
            ("runtime.queue_depth".to_owned(), self.queue.len() as i64),
            ("runtime.ops_inflight".to_owned(), self.ops.len() as i64),
            ("runtime.flows_inflight".to_owned(), op_claims as i64),
            (
                "runtime.background_jobs".to_owned(),
                (self.flows.len() - op_claims) as i64,
            ),
        ];
        for load in self.net.segment_loads() {
            row.push((
                format!("net.{}.util_permille", load.name),
                load.util_permille() as i64,
            ));
            row.push((format!("net.{}.flows", load.name), load.flows as i64));
        }
        for n in self.nodes.iter().filter(|n| n.alive) {
            let peek = n.sampler.peek();
            row.push((
                format!("node.{}.cpu_milli", n.name),
                (peek.cpu_load * 1000.0).round() as i64,
            ));
            row.push((
                format!("node.{}.mem_free_mib", n.name),
                peek.mem_free_mib as i64,
            ));
            row.push((
                format!("node.{}.disk_used_bytes", n.name),
                (n.bins.used_bytes(Bin::Mandatory) + n.bins.used_bytes(Bin::Voluntary)) as i64,
            ));
            row.push((
                format!("node.{}.dht_table", n.name),
                n.chimera.routing_table_size() as i64,
            ));
            let (hits, misses) = n.chimera.cache_stats();
            let permille = (hits * 1000).checked_div(hits + misses).unwrap_or(0);
            row.push((
                format!("node.{}.cache_hit_permille", n.name),
                permille as i64,
            ));
        }
        if self.overload.enabled {
            row.push((
                "overload.shed_permille".to_owned(),
                i64::from(self.overload.shed_permille()),
            ));
            row.push((
                "overload.breakers_open".to_owned(),
                self.overload.breakers_open() as i64,
            ));
            row.push((
                "overload.tenants_inflight".to_owned(),
                self.overload.inflight() as i64,
            ));
        }
        if self.ledger.enabled() {
            // Engine introspection rides the same cadence but only when the
            // causal ledger is on, so default-config gauge output (and with
            // it the golden corpus) stays byte-identical.
            let qs = self.queue.stats();
            row.push(("engine.wheel.len".to_owned(), qs.len as i64));
            row.push(("engine.wheel.ready".to_owned(), qs.ready as i64));
            row.push(("engine.wheel.cascades".to_owned(), qs.cascades as i64));
            row.push((
                "engine.wheel.cascaded_slots".to_owned(),
                qs.cascaded_slots as i64,
            ));
            for (lvl, occ) in qs.level_occupancy.iter().enumerate() {
                row.push((format!("engine.wheel.l{lvl}_occupied"), i64::from(*occ)));
            }
            row.push(("engine.slab.cells".to_owned(), qs.slab_cells as i64));
            row.push(("engine.slab.free".to_owned(), qs.free_cells as i64));
            row.push(("engine.spare.buckets".to_owned(), qs.spare_buckets as i64));
            row.push(("engine.spare.capacity".to_owned(), qs.spare_capacity as i64));
            row.push((
                "engine.intern.count".to_owned(),
                Sym::interned_count() as i64,
            ));
            let fc = self.net.counters();
            row.push(("engine.flows.started".to_owned(), fc.started as i64));
            row.push(("engine.flows.completed".to_owned(), fc.completed as i64));
            row.push(("engine.flows.canceled".to_owned(), fc.canceled as i64));
            row.push((
                "engine.flows.inflight".to_owned(),
                self.net.in_flight() as i64,
            ));
            row.push((
                "engine.ledger.rings".to_owned(),
                self.ledger.rings_live() as i64,
            ));
            row.push((
                "engine.ledger.recorded".to_owned(),
                self.ledger.recorded() as i64,
            ));
            row.push((
                "engine.ledger.dropped".to_owned(),
                self.ledger.dropped() as i64,
            ));
            if self.overload.enabled {
                for (kind, tokens) in self.overload.admit_token_rows() {
                    row.push((format!("overload.admit_tokens.{kind}"), tokens as i64));
                }
            }
        }
        row.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, value) in &row {
            self.telemetry.gauge(name.clone(), ts, *value);
        }
        self.health.flight.note_gauges(ts, row);
    }

    /// Drains overlay outboxes into scheduled deliveries and overlay events
    /// into operation continuations, until quiescent.
    pub(crate) fn pump(&mut self) {
        loop {
            let mut moved = false;
            for i in 0..self.nodes.len() {
                // Outgoing envelopes.
                while let Some(env) = self.nodes[i].chimera.poll_send() {
                    moved = true;
                    let Some(&dst) = self.node_of_key.get(&env.to) else {
                        continue; // stale peer
                    };
                    let (src_addr, dst_addr) = (self.nodes[i].addr, self.nodes[dst].addr);
                    if !self.partition.connected(src_addr, dst_addr) {
                        self.stats.envelopes_dropped += 1;
                        continue; // severed by the active partition
                    }
                    if self.message_loss > 0.0 && self.rng.chance(self.message_loss) {
                        self.stats.envelopes_dropped += 1;
                        continue; // lost on the wireless link
                    }
                    if let Some(template) = self.bursty {
                        let chain = self
                            .ge_chains
                            .entry((src_addr, dst_addr))
                            .or_insert(template);
                        if chain.step(&mut self.rng) {
                            self.stats.envelopes_dropped += 1;
                            continue; // lost in a burst on this route
                        }
                    }
                    let latency = self
                        .net
                        .topology()
                        .message_latency(src_addr, dst_addr, &mut self.rng)
                        .unwrap_or(Duration::from_millis(1));
                    // Gray failure: a throttled receiver processes slower.
                    let proc = self
                        .config
                        .timing
                        .chimera_proc
                        .mul_f64(self.slow_factor[dst]);
                    let delay = latency + proc;
                    self.queue
                        .schedule_in(delay, Event::Deliver { to: dst, env });
                }
                // Application-visible DHT events.
                while let Some(ev) = self.nodes[i].chimera.poll_event() {
                    moved = true;
                    let req = match &ev {
                        DhtEvent::PutCompleted { req, .. } => Some(*req),
                        DhtEvent::GetCompleted { req, .. } => Some(*req),
                        DhtEvent::DeleteCompleted { req, .. } => Some(*req),
                        DhtEvent::PeerFailed { node } => {
                            // Failure detection feeds the repair daemon.
                            let node = *node;
                            self.handle_peer_failed(node);
                            continue;
                        }
                        _ => None,
                    };
                    let Some(req) = req else { continue };
                    match self.dht_waiters.remove(&(i, req)) {
                        Some(DhtWaiter::Op(op)) => {
                            // Completion crosses the VStore++ ↔ Chimera IPC
                            // boundary.
                            self.queue.schedule_in(
                                self.config.timing.chimera_ipc,
                                Event::DhtDone { op, ev },
                            );
                        }
                        Some(DhtWaiter::Ignore) | None => {}
                    }
                }
            }
            if !moved {
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Shared helpers used by the op state machines
    // ------------------------------------------------------------------

    /// Allocates the next operation id.
    pub(crate) fn alloc_op(&mut self) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += 1;
        id
    }

    /// The chunking policy for a transfer of `bytes`, from the configured
    /// knobs: `None` leaves the transfer monolithic.
    pub(crate) fn chunk_spec(&self, bytes: u64) -> Option<ChunkSpec> {
        if self.config.chunk_bytes == 0 || bytes <= self.config.chunk_bytes {
            return None;
        }
        Some(ChunkSpec {
            chunk_bytes: self.config.chunk_bytes,
            window: self.config.chunk_window.max(2),
        })
    }

    /// Starts a bulk transfer (chunked when configured and large enough)
    /// and parks the operation on its completion. Returns the logical flow
    /// id so callers tracking several concurrent transfers can tell their
    /// completions apart.
    pub(crate) fn start_flow_for_op(
        &mut self,
        op: OpId,
        src: Addr,
        dst: Addr,
        bytes: u64,
    ) -> FlowId {
        let now = self.now();
        self.defer_flow_completions(now);
        let chunking = self.chunk_spec(bytes);
        if chunking.is_some() {
            self.stats.chunked_transfers += 1;
        }
        let id = self
            .net
            .start_transfer(now, src, dst, bytes.max(1), chunking, &mut self.rng)
            .expect("routes exist between all configured sites");
        self.stats.flows_started += 1;
        let owner = FlowOwner::Op(op);
        self.flows.insert(id, FlowClaim { src, dst, owner });
        id
    }

    /// Issues a DHT get from node `i` on behalf of an operation.
    pub(crate) fn dht_get_for_op(&mut self, op: OpId, i: usize, key: Key) {
        self.dht_for_op(op, i, |node, now| node.get(key, now));
    }

    /// Issues a DHT put from node `i` on behalf of an operation.
    pub(crate) fn dht_put_for_op(&mut self, op: OpId, i: usize, key: Key, value: Vec<u8>) {
        self.dht_for_op(op, i, |node, now| {
            node.put(key, value, OverwritePolicy::Overwrite, now)
        });
    }

    /// Issues a chained DHT put (the `Chain` overwrite policy) from node
    /// `i` on behalf of an operation — used for directory entry chains.
    pub(crate) fn dht_chain_for_op(&mut self, op: OpId, i: usize, key: Key, value: Vec<u8>) {
        self.dht_for_op(op, i, |node, now| {
            node.put(key, value, OverwritePolicy::Chain, now)
        });
    }

    /// Issues a DHT delete from node `i` on behalf of an operation.
    pub(crate) fn dht_delete_for_op(&mut self, op: OpId, i: usize, key: Key) {
        self.dht_for_op(op, i, |node, now| node.delete(key, now));
    }

    /// Issues one DHT request from node `i` and parks the operation on it.
    /// A crashed node's request would never resolve, so the operation is
    /// failed instead (through the queue: it is mid-step here).
    fn dht_for_op<E: std::fmt::Debug>(
        &mut self,
        op: OpId,
        i: usize,
        issue: impl FnOnce(&mut ChimeraNode, SimTime) -> Result<ReqId, E>,
    ) {
        if !self.nodes[i].alive {
            self.queue
                .schedule_in(Duration::ZERO, Event::ClientLost { op });
            return;
        }
        let now = self.now();
        let req = issue(&mut self.nodes[i].chimera, now).expect("node is joined");
        self.dht_waiters.insert((i, req), DhtWaiter::Op(op));
    }

    /// Schedules an operation wake after `delay`.
    pub(crate) fn wake_in(&mut self, op: OpId, delay: Duration) {
        self.queue.schedule_in(delay, Event::OpWake { op });
    }

    /// Schedules a sub-task wake (one concurrent branch of an operation)
    /// after `delay`.
    pub(crate) fn wake_sub_in(&mut self, op: OpId, token: u64, delay: Duration) {
        self.queue
            .schedule_in(delay, Event::OpSubWake { op, token });
    }

    /// Analytic single-flow transfer estimate between two endpoints,
    /// used by the decision engine for movement costs.
    pub(crate) fn estimate_transfer(&self, src: Addr, dst: Addr, bytes: u64) -> Duration {
        if src == dst {
            return Duration::ZERO;
        }
        match self.net.topology().route_between(src, dst) {
            Some(route) => {
                let bottleneck = self
                    .net
                    .topology()
                    .bottleneck_bps(src, dst)
                    .unwrap_or(f64::INFINITY);
                match self.chunk_spec(bytes) {
                    Some(spec) => route.tcp.chunked_transfer_time(
                        bytes,
                        spec.chunk_bytes,
                        spec.window,
                        bottleneck,
                        route.bandwidth_median,
                    ),
                    None => route
                        .tcp
                        .transfer_time(bytes, bottleneck, route.bandwidth_median),
                }
            }
            None => Duration::from_secs(3600),
        }
    }

    /// Looks up the node index for an overlay key.
    pub(crate) fn node_index(&self, key: Key) -> Option<usize> {
        self.node_of_key.get(&key).copied()
    }

    /// Decodes the freshest resource record bytes into a typed record.
    pub(crate) fn decode_resource(bytes: &[u8]) -> Option<ResourceRecord> {
        Record::decode(bytes)
            .ok()
            .and_then(|r| r.as_resource().cloned())
    }

    // ------------------------------------------------------------------
    // Background repair daemon
    // ------------------------------------------------------------------

    /// Reacts to the liveness detector declaring a peer failed: looks the
    /// dead peer up in the holder index and re-replicates every object the
    /// failure left under-replicated. Objects the peer never held are not
    /// visited at all — the scan is proportional to the peer's holdings,
    /// not the deployment's object count.
    pub(crate) fn handle_peer_failed(&mut self, peer: Key) {
        // With the adaptive plane on, even replication=1 deployments hold
        // repairable state (erasure-coded stripes, grown replicas).
        if self.config.replication <= 1 && !self.config.adaptive.enabled {
            return;
        }
        // Several nodes' detectors fire for the same peer; repair once.
        if self.repaired_peers.contains(&peer) {
            return;
        }
        if let Some(j) = self.node_index(peer) {
            if self.nodes[j].alive {
                // False positive (e.g. a healed partition): nothing to do,
                // and a later real failure should still trigger repair.
                return;
            }
        }
        self.repaired_peers.insert(peer);
        let mut names = std::mem::take(&mut self.names_scratch);
        names.clear();
        names.extend(
            self.holder_index
                .get(&peer)
                .into_iter()
                .flat_map(|names| names.iter().copied()),
        );
        for &name in &names {
            self.maybe_repair(name);
        }
        self.names_scratch = names;
    }

    /// Periodic catch-all for under-replication no peer death will ever
    /// surface: objects whose straggler replica flow failed after a quorum
    /// publish, or whose store placed fewer copies than asked. Walks the
    /// replicated-object index at a low cadence, riding the existing tick
    /// (no extra queue events). When every object is at target the walk is
    /// a pure read — no RNG draws, no telemetry — so healthy runs keep
    /// their event streams byte-identical.
    fn anti_entropy_sweep(&mut self, now: SimTime) {
        if self.config.anti_entropy_ms == 0
            || (self.config.replication <= 1 && !self.config.adaptive.enabled)
        {
            return;
        }
        if now < self.next_anti_entropy {
            return;
        }
        self.next_anti_entropy = now + Duration::from_millis(self.config.anti_entropy_ms);
        let mut names = std::mem::take(&mut self.names_scratch);
        names.clear();
        names.extend(self.replica_meta.keys().copied());
        for &name in &names {
            self.maybe_repair(name);
        }
        self.names_scratch = names;
    }

    /// Re-replicates one object if it has fewer live copies than the
    /// configured replication factor and a viable destination exists.
    pub(crate) fn maybe_repair(&mut self, name: Sym) {
        self.repair_scan_visits += 1;
        let Some(meta) = self.replica_meta.get(&name) else {
            return;
        };
        if meta.ec.is_some() {
            return self.ec_maybe_repair(name);
        }
        let Location::Home { node } = meta.location else {
            return;
        };
        let size = meta.size_bytes;
        // Live holders, metadata order: primary first (deterministic).
        let mut holders: Vec<usize> = Vec::new();
        for key in std::iter::once(node).chain(meta.replicas.iter().copied()) {
            if let Some(j) = self.node_index(key) {
                if self.nodes[j].alive && !holders.contains(&j) {
                    holders.push(j);
                }
            }
        }
        if holders.is_empty() {
            return; // every copy is gone; nothing to repair from
        }
        // With the adaptive plane on, the daemon defends only the
        // durability floor; copies above it are the heat tracker's call
        // (it grows hot objects back on its own cadence).
        let target = if self.config.adaptive.enabled {
            self.config.adaptive.replication_min
        } else {
            self.config.replication
        };
        if holders.len() >= target {
            return;
        }
        if self.replica_flow_in_flight(name) {
            return; // a repair or a detached store straggler may land the copy
        }
        // Source: skip holders whose path breaker is open (a read-only
        // check — background repair must not race the half-open probe),
        // then prefer the highest observed bandwidth class. Metadata order
        // breaks ties, so on a uniform LAN — where every peer shares class
        // 0 — the choice matches the old primary-first behavior exactly.
        let now_ns = self.now().as_nanos();
        let mut src: Option<(i64, usize)> = None;
        for &j in &holders {
            let addr = self.nodes[j].addr.raw();
            if self.overload.enabled && self.overload.breaker_would_block(addr, now_ns) {
                continue;
            }
            let class = self.peer_bw.class(addr);
            if src.is_none_or(|(best, _)| class > best) {
                src = Some((class, j));
            }
        }
        let Some((_, src)) = src else {
            return; // every live holder's path is tripped; retry later
        };
        // Best destination: a live, reachable non-holder with voluntary
        // space, preferring the most free space (index breaks ties).
        let dst = (0..self.nodes.len())
            .filter(|&j| {
                self.nodes[j].alive
                    && !holders.contains(&j)
                    && self.node_reachable(src, j)
                    && self.nodes[j].bins.fits(size, Bin::Voluntary)
            })
            .max_by_key(|&j| {
                (
                    self.nodes[j].bins.free_bytes(Bin::Voluntary),
                    usize::MAX - j,
                )
            });
        let Some(dst) = dst else {
            return;
        };
        if self.start_replica_flow(name, src, dst, size) {
            self.ledger_bg(CauseKind::RepairTrigger, u64::from(name.id()), 0);
        }
    }

    /// Starts one full-copy replica transfer `src` → `dst` for `name`,
    /// shared by the repair daemon and the adaptive grow path. Returns
    /// whether the flow actually started.
    fn start_replica_flow(&mut self, name: Sym, src: usize, dst: usize, size: u64) -> bool {
        // Repairs ride the source node's retry budget: a home cloud deep in
        // failure churn must not amplify itself with unbounded repair
        // traffic.
        if !self.retry_budget_take(src, "repair", name) {
            return false;
        }
        let now = self.now();
        self.defer_flow_completions(now);
        let Ok(flow) = self.net.start_flow(
            now,
            self.nodes[src].addr,
            self.nodes[dst].addr,
            size.max(1),
            &mut self.rng,
        ) else {
            return false;
        };
        self.stats.flows_started += 1;
        self.stats.repairs_started += 1;
        let span = self.telemetry.begin_args(
            "repair",
            "repair",
            REPAIR_TRACK_BASE + flow.raw(),
            now.as_nanos(),
            vec![
                ("object", ArgValue::from(name.as_str())),
                ("src", ArgValue::from(self.nodes[src].name.as_str())),
                ("dst", ArgValue::from(self.nodes[dst].name.as_str())),
                ("bytes", ArgValue::from(size)),
            ],
        );
        let job = RepairJob {
            name,
            src,
            dst,
            bytes: size,
            span,
        };
        self.claim_node_flow(flow, src, dst, FlowOwner::Repair(job));
        self.ensure_tick();
        true
    }

    /// Installs a completed repair transfer on its destination and
    /// republishes the object's metadata with the new replica set.
    fn finish_repair(&mut self, job: RepairJob) {
        let installed = self.finish_repair_inner(&job);
        self.telemetry.end_args(
            job.span,
            self.now().as_nanos(),
            vec![("installed", ArgValue::from(installed))],
        );
    }

    /// The installation step of [`Self::finish_repair`]; returns whether
    /// the replica was actually installed.
    fn finish_repair_inner(&mut self, job: &RepairJob) -> bool {
        let Some(meta) = self.replica_meta.get(&job.name).cloned() else {
            return false; // deleted while the repair was in flight
        };
        if !self.nodes[job.dst].alive {
            return false;
        }
        let Some(blob) = self.nodes[job.src].objects.get(&job.name).cloned() else {
            return false; // the source lost the bytes mid-repair
        };
        if self.nodes[job.dst].bins.lookup(job.name.as_str()).is_some() {
            self.nodes[job.dst].bins.remove(job.name.as_str());
        }
        if self.nodes[job.dst]
            .bins
            .store(job.name.as_str(), job.bytes, Bin::Voluntary)
            .is_err()
        {
            return false;
        }
        self.nodes[job.dst].objects.insert(job.name, blob);
        self.stats.replicas_written += 1;
        self.stats.repairs_completed += 1;

        // Refresh the replica set: drop dead holders, add the new one.
        let mut meta = meta;
        let dst_key = self.nodes[job.dst].key;
        meta.replicas.retain(|k| {
            self.node_index(*k)
                .is_some_and(|j| self.nodes[j].alive && j != job.dst)
        });
        if !meta.replicas.contains(&dst_key) && meta.location != (Location::Home { node: dst_key })
        {
            meta.replicas.push(dst_key);
        }
        self.replica_meta_insert(job.name, meta.clone());

        // Republish the metadata record in the background so future
        // fetches learn the new replica.
        let publisher = job.src;
        let now = self.now();
        if let Ok(req) = self.nodes[publisher].chimera.put(
            object_key(meta.name.as_str()),
            Record::Object(meta).encode(),
            OverwritePolicy::Overwrite,
            now,
        ) {
            self.dht_waiters.insert((publisher, req), DhtWaiter::Ignore);
        }
        true
    }

    // ------------------------------------------------------------------
    // Detached store fan-out
    // ------------------------------------------------------------------

    /// Installs a replica whose transfer outlived its store (the store
    /// published at quorum and completed) and republishes the object's
    /// metadata with the grown replica set. An install that falls through
    /// (destination died, bin filled) leaves the object under target with
    /// no peer-failure scan ever the wiser, so the shortfall is handed
    /// straight back to the repair daemon.
    pub(crate) fn finish_background_replica(&mut self, job: FanoutJob) {
        let (name, span) = (job.name, job.span);
        let installed = self.finish_background_replica_inner(job);
        self.telemetry.end_args(
            span,
            self.now().as_nanos(),
            vec![("installed", ArgValue::from(installed))],
        );
        if !installed {
            self.maybe_repair(name);
        }
    }

    /// Consumes the job so the carried blob moves into the destination's
    /// object file system instead of being cloned.
    fn finish_background_replica_inner(&mut self, job: FanoutJob) -> bool {
        let Some(meta) = self.replica_meta.get(&job.name).cloned() else {
            return false; // deleted while the straggler was in flight
        };
        if !self.nodes[job.dst].alive {
            return false;
        }
        if self.nodes[job.dst].bins.lookup(job.name.as_str()).is_some() {
            self.nodes[job.dst].bins.remove(job.name.as_str());
        }
        if self.nodes[job.dst]
            .bins
            .store(job.name.as_str(), job.bytes, Bin::Voluntary)
            .is_err()
        {
            return false;
        }
        self.nodes[job.dst].objects.insert(job.name, job.blob);
        self.stats.replicas_written += 1;

        let mut meta = meta;
        let dst_key = self.nodes[job.dst].key;
        if !meta.replicas.contains(&dst_key) && meta.location != (Location::Home { node: dst_key })
        {
            meta.replicas.push(dst_key);
        }
        self.replica_meta_insert(job.name, meta.clone());
        self.publish_meta_background(job.dst, meta);
        true
    }

    // ------------------------------------------------------------------
    // Replicated-object index maintenance
    // ------------------------------------------------------------------

    /// Every holder key a metadata record names: the home primary plus the
    /// replica set (dead or alive — liveness is the scan's concern).
    fn meta_holder_keys(meta: &ObjectMeta) -> impl Iterator<Item = Key> + '_ {
        let primary = match meta.location {
            Location::Home { node } => Some(node),
            _ => None,
        };
        primary
            .into_iter()
            .chain(meta.replicas.iter().copied())
            .chain(meta.ec.iter().flat_map(|l| l.holders.iter().copied()))
    }

    /// Inserts (or replaces) a replicated object's metadata, keeping the
    /// holder → objects inverse index in sync.
    pub(crate) fn replica_meta_insert(&mut self, name: Sym, meta: ObjectMeta) {
        self.holder_unindex(name);
        for key in Self::meta_holder_keys(&meta) {
            self.holder_index.entry(key).or_default().insert(name);
        }
        self.replica_meta.insert(name, meta);
    }

    /// Removes a replicated object's metadata and its index entries.
    pub(crate) fn replica_meta_remove(&mut self, name: Sym) {
        self.holder_unindex(name);
        self.replica_meta.remove(&name);
    }

    /// Drops `name` from every holder's index set (per the currently
    /// recorded metadata), pruning holders left with no objects.
    fn holder_unindex(&mut self, name: Sym) {
        let Some(old) = self.replica_meta.get(&name) else {
            return;
        };
        let keys: Vec<Key> = Self::meta_holder_keys(old).collect();
        for key in keys {
            if let Some(set) = self.holder_index.get_mut(&key) {
                set.remove(&name);
                if set.is_empty() {
                    self.holder_index.remove(&key);
                }
            }
        }
    }

    /// Best-effort background publish of an object metadata record from
    /// node `i` (result dropped; callers don't wait).
    pub(crate) fn publish_meta_background(&mut self, i: usize, meta: ObjectMeta) {
        if !self.nodes[i].alive || !self.nodes[i].chimera.is_joined() {
            return;
        }
        let now = self.now();
        if let Ok(req) = self.nodes[i].chimera.put(
            object_key(meta.name.as_str()),
            Record::Object(meta).encode(),
            OverwritePolicy::Overwrite,
            now,
        ) {
            self.dht_waiters.insert((i, req), DhtWaiter::Ignore);
        }
    }

    // ------------------------------------------------------------------
    // Adaptive placement plane (heat-driven replication + erasure coding)
    // ------------------------------------------------------------------

    /// Drops any cached copy of `name`'s metadata record on every node.
    /// Placement changes rewrite the record at its root, but bounded FIFO
    /// caches on nodes off the republish path would otherwise serve the
    /// stale pre-change record forever.
    pub(crate) fn invalidate_meta_caches(&mut self, name: Sym) {
        let key = object_key(name.as_str());
        for n in &mut self.nodes {
            n.chimera.invalidate_cached(key);
        }
    }

    /// The periodic heat review, riding the runtime tick like
    /// anti-entropy. When every object is in its band the walk is a pure
    /// read — no RNG draws, no telemetry.
    fn adaptive_pass(&mut self, now: SimTime) {
        if !self.config.adaptive.enabled {
            return;
        }
        if now < self.next_adaptive {
            return;
        }
        self.next_adaptive = now + Duration::from_millis(self.config.adaptive.interval_ms.max(1));
        let mut names = std::mem::take(&mut self.names_scratch);
        names.clear();
        names.extend(self.replica_meta.keys().copied());
        for &name in &names {
            self.adaptive_review(name);
        }
        self.names_scratch = names;
    }

    /// Reviews one replicated object against its fetch heat: grow toward
    /// recent readers when hot, drop a copy when cold, convert a cold
    /// large object to erasure-coded stripes once it is at the floor.
    fn adaptive_review(&mut self, name: Sym) {
        let Some(meta) = self.replica_meta.get(&name) else {
            return;
        };
        if meta.ec.is_some() {
            return; // already striped; the rebuild path owns it now
        }
        let Location::Home { node } = meta.location else {
            return;
        };
        if self.ec_converts.contains_key(&name) || self.replica_flow_in_flight(name) {
            return; // let in-flight placement work land first
        }
        let size = meta.size_bytes;
        let mut holders: Vec<usize> = Vec::new();
        for key in std::iter::once(node).chain(meta.replicas.iter().copied()) {
            if let Some(j) = self.node_index(key) {
                if self.nodes[j].alive && !holders.contains(&j) {
                    holders.push(j);
                }
            }
        }
        if holders.is_empty() {
            return;
        }
        let rate = self.object_heat.rate_per_min(name, self.now().as_nanos());
        let action = adaptive_action(rate, holders.len(), size, &self.config.adaptive);
        if self.ledger.enabled() && action != AdaptiveAction::Hold {
            let kind = match action {
                AdaptiveAction::Grow => CauseKind::AdaptiveGrow,
                AdaptiveAction::Shrink => CauseKind::AdaptiveShrink,
                _ => CauseKind::AdaptiveEncode,
            };
            self.ledger_bg(kind, u64::from(name.id()), holders.len() as u64);
            self.telemetry
                .add(format!("adaptive.action.{}", action.label()), 1);
        }
        match action {
            AdaptiveAction::Grow => self.adaptive_grow(name, &holders, size),
            AdaptiveAction::Shrink => self.adaptive_shrink(name, &holders),
            AdaptiveAction::Erasure => self.ec_begin_convert(name),
            AdaptiveAction::Hold => {}
        }
    }

    /// Adds one replica of a hot object, placed at the most recent reader
    /// that doesn't already hold a copy (falling back to the roomiest
    /// peer), sourced like a repair: breaker-open holders skipped, then
    /// the best observed bandwidth class.
    fn adaptive_grow(&mut self, name: Sym, holders: &[usize], size: u64) {
        let now_ns = self.now().as_nanos();
        let mut src: Option<(i64, usize)> = None;
        for &j in holders {
            let addr = self.nodes[j].addr.raw();
            if self.overload.enabled && self.overload.breaker_would_block(addr, now_ns) {
                continue;
            }
            let class = self.peer_bw.class(addr);
            if src.is_none_or(|(best, _)| class > best) {
                src = Some((class, j));
            }
        }
        let Some((_, src)) = src else {
            return;
        };
        let viable = |s: &Self, j: usize| {
            s.nodes[j].alive
                && !holders.contains(&j)
                && s.node_reachable(src, j)
                && s.nodes[j].bins.fits(size, Bin::Voluntary)
        };
        let reader = self
            .object_heat
            .recent_readers(name)
            .iter()
            .copied()
            .find(|&j| j < self.nodes.len() && viable(self, j));
        let dst = reader.or_else(|| {
            (0..self.nodes.len())
                .filter(|&j| viable(self, j))
                .max_by_key(|&j| {
                    (
                        self.nodes[j].bins.free_bytes(Bin::Voluntary),
                        usize::MAX - j,
                    )
                })
        });
        let Some(dst) = dst else {
            return;
        };
        if self.start_replica_flow(name, src, dst, size) {
            self.telemetry.add("adaptive.grow", 1);
        }
    }

    /// Drops one replica of a cooling object: the last-listed live
    /// non-primary holder that is not a recent reader. With every extra
    /// copy parked at a recent reader the object holds steady instead.
    fn adaptive_shrink(&mut self, name: Sym, holders: &[usize]) {
        let Some(meta) = self.replica_meta.get(&name).cloned() else {
            return;
        };
        let Location::Home { node } = meta.location else {
            return;
        };
        let primary = self.node_index(node);
        let readers = self.object_heat.recent_readers(name).to_vec();
        let victim = holders
            .iter()
            .rev()
            .copied()
            .find(|&j| Some(j) != primary && !readers.contains(&j));
        let Some(victim) = victim else {
            return;
        };
        let victim_key = self.nodes[victim].key;
        self.nodes[victim].objects.remove(&name);
        self.nodes[victim].bins.remove(name.as_str());
        let mut meta = meta;
        meta.replicas.retain(|&k| k != victim_key);
        self.replica_meta_insert(name, meta.clone());
        let publisher = primary
            .filter(|&j| self.nodes[j].alive)
            .or_else(|| holders.iter().copied().find(|&j| j != victim));
        if let Some(p) = publisher {
            self.publish_meta_background(p, meta);
        }
        self.telemetry.add("adaptive.shrink", 1);
    }

    /// Begins converting a cold object from full copies to `(k, m)`
    /// erasure-coded stripes: the owner encodes the content window,
    /// installs its own row locally, and ships each remaining row to a
    /// distinct peer. Full copies survive untouched until every stripe
    /// has landed.
    fn ec_begin_convert(&mut self, name: Sym) {
        let Some(meta) = self.replica_meta.get(&name).cloned() else {
            return;
        };
        let Location::Home { node } = meta.location else {
            return;
        };
        let Some(owner) = self.node_index(node).filter(|&j| self.nodes[j].alive) else {
            return;
        };
        let Some(blob) = self.nodes[owner].objects.get(&name).cloned() else {
            return;
        };
        let k = self.config.adaptive.ec_k;
        let m = self.config.adaptive.ec_m;
        let total = k + m;
        let stripe_len = meta.size_bytes.div_ceil(k as u64).max(1);
        // Sites: the owner takes row 0; the other rows go to the roomiest
        // live peers that can fit a stripe, one row per distinct node
        // (losing a node must lose at most one row).
        let mut peers: Vec<usize> = (0..self.nodes.len())
            .filter(|&j| {
                j != owner
                    && self.nodes[j].alive
                    && self.node_reachable(owner, j)
                    && self.nodes[j].bins.fits(stripe_len, Bin::Voluntary)
            })
            .collect();
        peers.sort_by_key(|&j| {
            (
                std::cmp::Reverse(self.nodes[j].bins.free_bytes(Bin::Voluntary)),
                j,
            )
        });
        if peers.len() + 1 < total {
            return; // not enough distinct sites; keep the full copies
        }
        let sites: Vec<usize> = std::iter::once(owner).chain(peers).take(total).collect();
        let code = ErasureCode::new(k, m);
        let window = blob.sample(SAMPLE_WINDOW);
        let stripes = code.encode(&window);
        let layout = EcLayout {
            k: k as u32,
            m: m as u32,
            stripe_len,
            holders: sites.iter().map(|&j| self.nodes[j].key).collect(),
        };
        let sname0 = ec_stripe_name(name, 0);
        if self.nodes[owner]
            .bins
            .store(sname0.as_str(), stripe_len, Bin::Voluntary)
            .is_err()
        {
            return;
        }
        self.nodes[owner]
            .objects
            .insert(sname0, Blob::inline(stripes[0].clone()));
        let legs: Vec<(usize, usize, u32)> = (1..total)
            .map(|row| (owner, sites[row], row as u32))
            .collect();
        let Some(pending) =
            self.start_stripe_flows(&legs, stripe_len, || FlowOwner::EcConvert(name))
        else {
            self.nodes[owner].objects.remove(&sname0);
            self.nodes[owner].bins.remove(sname0.as_str());
            return;
        };
        self.telemetry.add("adaptive.ec_converts", 1);
        self.telemetry.instant_args(
            "adaptive",
            "adaptive.ec_convert",
            RUNTIME_TRACK,
            self.now().as_nanos(),
            vec![
                ("object", ArgValue::from(name.as_str())),
                ("k", ArgValue::from(k as u64)),
                ("m", ArgValue::from(m as u64)),
                ("stripe_len", ArgValue::from(stripe_len)),
            ],
        );
        self.ec_converts.insert(
            name,
            EcConvert {
                owner,
                layout,
                stripes,
                pending,
                installed: vec![0],
            },
        );
        self.ensure_tick();
    }

    /// Starts one stripe transfer per `(src, dst, row)` leg, each claimed
    /// by `owner()`, and maps each flow to its leg's row. All or nothing:
    /// if a leg cannot start, the legs already started are canceled.
    fn start_stripe_flows(
        &mut self,
        legs: &[(usize, usize, u32)],
        stripe_len: u64,
        owner: impl Fn() -> FlowOwner,
    ) -> Option<BTreeMap<FlowId, u32>> {
        let now = self.now();
        self.defer_flow_completions(now);
        let mut pending = BTreeMap::new();
        for &(src, dst, row) in legs {
            let (a, b) = (self.nodes[src].addr, self.nodes[dst].addr);
            let Ok(flow) = self
                .net
                .start_flow(now, a, b, stripe_len.max(1), &mut self.rng)
            else {
                for &flow in pending.keys() {
                    self.cancel_claim(flow);
                }
                return None;
            };
            self.stats.flows_started += 1;
            self.claim_node_flow(flow, src, dst, owner());
            pending.insert(flow, row);
        }
        Some(pending)
    }

    /// One conversion stripe transfer landed: install the row on its
    /// holder, and finalize the conversion once every row is in place.
    /// An install that falls through (holder died, bin filled) aborts the
    /// whole conversion — the full copies are still intact.
    fn ec_convert_flow_done(&mut self, flow: FlowId, name: Sym) {
        let Some(mut conv) = self.ec_converts.remove(&name) else {
            return;
        };
        let Some(row) = conv.pending.remove(&flow) else {
            self.ec_converts.insert(name, conv);
            return;
        };
        let site = self.node_index(conv.layout.holders[row as usize]);
        let sname = ec_stripe_name(name, row);
        let installed = site.is_some_and(|j| self.nodes[j].alive) && {
            let j = site.expect("checked above");
            if self.nodes[j].bins.lookup(sname.as_str()).is_some() {
                self.nodes[j].bins.remove(sname.as_str());
            }
            self.nodes[j]
                .bins
                .store(sname.as_str(), conv.layout.stripe_len, Bin::Voluntary)
                .is_ok()
        };
        if !installed {
            self.ec_convert_abort(name, conv);
            return;
        }
        let j = site.expect("installed above");
        self.nodes[j]
            .objects
            .insert(sname, Blob::inline(conv.stripes[row as usize].clone()));
        conv.installed.push(row);
        if conv.pending.is_empty() {
            self.ec_convert_finalize(name, conv);
        } else {
            self.ec_converts.insert(name, conv);
        }
    }

    /// Abandons a conversion mid-flight: cancels its outstanding stripe
    /// transfers and removes every stripe already installed. The object
    /// keeps its full copies; a later pass may try again.
    fn ec_convert_abort(&mut self, name: Sym, conv: EcConvert) {
        for &flow in conv.pending.keys() {
            self.cancel_claim(flow);
        }
        for &row in &conv.installed {
            if let Some(j) = self.node_index(conv.layout.holders[row as usize]) {
                let sname = ec_stripe_name(name, row);
                self.nodes[j].objects.remove(&sname);
                self.nodes[j].bins.remove(sname.as_str());
            }
        }
        self.telemetry.add("adaptive.ec_converts_aborted", 1);
    }

    /// Every stripe landed: cut the object over to its erasure-coded
    /// form. Stages the original for decode verification, strips the full
    /// copies from live holders, rewrites the metadata with the layout,
    /// publishes per-row stripe records, and flushes stale caches.
    fn ec_convert_finalize(&mut self, name: Sym, conv: EcConvert) {
        let Some(meta) = self.replica_meta.get(&name).cloned() else {
            // Deleted mid-conversion; the stripes are orphans — scrub.
            self.ec_convert_abort(name, conv);
            return;
        };
        let Some(blob) = self.nodes[conv.owner].objects.get(&name).cloned() else {
            self.ec_convert_abort(name, conv);
            return;
        };
        self.ec_originals.insert(name, blob);
        // Strip full copies from live holders. A dead holder's disk can't
        // be touched; its stale copy is a harmless orphan (the metadata no
        // longer names it).
        let holder_keys: Vec<Key> = Self::meta_holder_keys(&meta).collect();
        for key in holder_keys {
            if let Some(j) = self.node_index(key) {
                if self.nodes[j].alive {
                    self.nodes[j].objects.remove(&name);
                    self.nodes[j].bins.remove(name.as_str());
                }
            }
        }
        let mut meta = meta;
        meta.replicas.clear();
        meta.ec = Some(conv.layout.clone());
        self.replica_meta_insert(name, meta.clone());
        self.publish_meta_background(conv.owner, meta);
        // Per-row stripe records, so repair tooling can audit placement
        // and checksums through the overlay.
        let now = self.now();
        if self.nodes[conv.owner].alive && self.nodes[conv.owner].chimera.is_joined() {
            for (row, shard) in conv.stripes.iter().enumerate() {
                let record = Record::Stripe(StripeRecord {
                    object: name,
                    row: row as u32,
                    len: conv.layout.stripe_len,
                    holder: conv.layout.holders[row],
                    checksum: stripe_checksum(shard),
                });
                if let Ok(req) = self.nodes[conv.owner].chimera.put(
                    stripe_key(name.as_str(), row as u32),
                    record.encode(),
                    OverwritePolicy::Overwrite,
                    now,
                ) {
                    self.dht_waiters
                        .insert((conv.owner, req), DhtWaiter::Ignore);
                }
            }
        }
        self.invalidate_meta_caches(name);
        // Heat restarts from scratch in the new form; the EWMA of the
        // replicated life says nothing about the striped one.
        self.object_heat.forget(name);
        self.telemetry.add("adaptive.ec_converted", 1);
    }

    /// The repair path for an erasure-coded object: rebuild every lost
    /// row for which `k` survivor stripes are still live. Below `k`
    /// survivors nothing can be rebuilt — fetches back off until holders
    /// rejoin.
    fn ec_maybe_repair(&mut self, name: Sym) {
        let Some(meta) = self.replica_meta.get(&name) else {
            return;
        };
        let Some(layout) = meta.ec.clone() else {
            return;
        };
        let holder_idx: Vec<Option<usize>> = layout
            .holders
            .iter()
            .map(|&key| self.node_index(key))
            .collect();
        let holds = |s: &Self, j: usize, row: u32| {
            s.nodes[j].alive && s.nodes[j].objects.contains_key(&ec_stripe_name(name, row))
        };
        let survivors: Vec<u32> = (0..holder_idx.len() as u32)
            .filter(|&r| holder_idx[r as usize].is_some_and(|j| holds(self, j, r)))
            .collect();
        if survivors.len() >= holder_idx.len() {
            return; // fully intact
        }
        if survivors.len() < layout.k as usize {
            return; // unrecoverable until holders rejoin
        }
        for row in 0..holder_idx.len() as u32 {
            if survivors.contains(&row) {
                continue;
            }
            if self
                .ec_repairs
                .values()
                .any(|j| j.name == name && j.row == row)
            {
                continue;
            }
            self.ec_start_row_repair(name, &layout, row, &survivors);
        }
    }

    /// Starts rebuilding one lost code row: a destination with space pulls
    /// `k` surviving stripes and re-derives the row from them on arrival.
    fn ec_start_row_repair(&mut self, name: Sym, layout: &EcLayout, row: u32, survivors: &[u32]) {
        let stripe_len = layout.stripe_len;
        let holder_idx: Vec<Option<usize>> = layout
            .holders
            .iter()
            .map(|&key| self.node_index(key))
            .collect();
        let live_holders: Vec<usize> = survivors
            .iter()
            .filter_map(|&r| holder_idx[r as usize])
            .collect();
        let srcs: Vec<(u32, usize)> = survivors
            .iter()
            .filter_map(|&r| holder_idx[r as usize].map(|j| (r, j)))
            .take(layout.k as usize)
            .collect();
        if srcs.len() < layout.k as usize {
            return;
        }
        let holds_any = |s: &Self, j: usize| {
            (0..layout.holders.len() as u32)
                .any(|r| s.nodes[j].objects.contains_key(&ec_stripe_name(name, r)))
        };
        let dst = (0..self.nodes.len())
            .filter(|&j| {
                self.nodes[j].alive
                    && !live_holders.contains(&j)
                    && !holds_any(self, j)
                    && srcs.iter().all(|&(_, s)| self.node_reachable(s, j))
                    && self.nodes[j].bins.fits(stripe_len, Bin::Voluntary)
            })
            .max_by_key(|&j| {
                (
                    self.nodes[j].bins.free_bytes(Bin::Voluntary),
                    usize::MAX - j,
                )
            });
        let Some(dst) = dst else {
            return;
        };
        // Rebuilds ride the destination's retry budget (it sinks k
        // concurrent transfers), bounding repair amplification in churn.
        if !self.retry_budget_take(dst, "repair", name) {
            return;
        }
        let id = self.next_ec_repair;
        let legs: Vec<(usize, usize, u32)> = srcs.iter().map(|&(r, s)| (s, dst, r)).collect();
        let Some(pending) = self.start_stripe_flows(&legs, stripe_len, || FlowOwner::EcRepair(id))
        else {
            return;
        };
        self.next_ec_repair += 1;
        self.stats.repairs_started += 1;
        self.telemetry.add("adaptive.ec_repairs", 1);
        self.ec_repairs.insert(
            id,
            EcRepair {
                name,
                row,
                dst,
                pending,
                arrived: Vec::new(),
            },
        );
        self.ensure_tick();
    }

    /// One survivor stripe arrived at a rebuild destination; re-derive
    /// the lost row once all `k` are in.
    fn ec_repair_flow_done(&mut self, flow: FlowId, id: u64) {
        let Some(mut job) = self.ec_repairs.remove(&id) else {
            return;
        };
        let Some(row) = job.pending.remove(&flow) else {
            self.ec_repairs.insert(id, job);
            return;
        };
        job.arrived.push(row);
        if job.pending.is_empty() {
            self.ec_repair_finish(job);
        } else {
            self.ec_repairs.insert(id, job);
        }
    }

    /// All survivor stripes are in: invert the code to re-derive the lost
    /// row, install it on the destination, re-home the row in the layout,
    /// and republish metadata and the row's stripe record.
    fn ec_repair_finish(&mut self, job: EcRepair) {
        let Some(meta) = self.replica_meta.get(&job.name).cloned() else {
            return; // deleted while the rebuild was in flight
        };
        let Some(mut layout) = meta.ec.clone() else {
            return;
        };
        if !self.nodes[job.dst].alive {
            return;
        }
        let code = ErasureCode::new(layout.k as usize, layout.m as usize);
        let mut shards: Vec<(usize, Vec<u8>)> = Vec::with_capacity(job.arrived.len());
        for &r in &job.arrived {
            let Some(bytes) = self
                .node_index(layout.holders[r as usize])
                .filter(|&j| self.nodes[j].alive)
                .and_then(|j| self.nodes[j].objects.get(&ec_stripe_name(job.name, r)))
                .map(|b| b.sample(usize::MAX))
            else {
                return; // a survivor vanished mid-rebuild; retry later
            };
            shards.push((r as usize, bytes));
        }
        let refs: Vec<(usize, &[u8])> = shards.iter().map(|(r, s)| (*r, s.as_slice())).collect();
        let Some(rebuilt) = code.reconstruct_row(job.row as usize, &refs) else {
            return;
        };
        let sname = ec_stripe_name(job.name, job.row);
        if self.nodes[job.dst].bins.lookup(sname.as_str()).is_some() {
            self.nodes[job.dst].bins.remove(sname.as_str());
        }
        if self.nodes[job.dst]
            .bins
            .store(sname.as_str(), layout.stripe_len, Bin::Voluntary)
            .is_err()
        {
            return;
        }
        let checksum = stripe_checksum(&rebuilt);
        self.nodes[job.dst]
            .objects
            .insert(sname, Blob::inline(rebuilt));
        self.stats.repairs_completed += 1;
        self.telemetry.add("adaptive.ec_rebuilt", 1);
        let dst_key = self.nodes[job.dst].key;
        layout.holders[job.row as usize] = dst_key;
        let mut meta = meta;
        meta.ec = Some(layout.clone());
        self.replica_meta_insert(job.name, meta.clone());
        self.publish_meta_background(job.dst, meta);
        let now = self.now();
        if self.nodes[job.dst].alive && self.nodes[job.dst].chimera.is_joined() {
            let record = Record::Stripe(StripeRecord {
                object: job.name,
                row: job.row,
                len: layout.stripe_len,
                holder: dst_key,
                checksum,
            });
            if let Ok(req) = self.nodes[job.dst].chimera.put(
                stripe_key(job.name.as_str(), job.row),
                record.encode(),
                OverwritePolicy::Overwrite,
                now,
            ) {
                self.dht_waiters.insert((job.dst, req), DhtWaiter::Ignore);
            }
        }
        self.invalidate_meta_caches(job.name);
    }

    /// Expunges every trace of an object's erasure-coded form: in-flight
    /// conversions and rebuilds, installed stripes, the staged original,
    /// and stale cached metadata. Called when the object is deleted or
    /// re-stored (the new bytes supersede the old stripes).
    pub(crate) fn ec_scrub(&mut self, name: Sym) {
        if let Some(conv) = self.ec_converts.remove(&name) {
            self.ec_convert_abort(name, conv);
        }
        let ids: Vec<u64> = self
            .ec_repairs
            .iter()
            .filter(|(_, j)| j.name == name)
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            if let Some(job) = self.ec_repairs.remove(&id) {
                for &flow in job.pending.keys() {
                    self.cancel_claim(flow);
                }
            }
        }
        if let Some(layout) = self.replica_meta.get(&name).and_then(|m| m.ec.clone()) {
            for row in 0..layout.holders.len() as u32 {
                let sname = ec_stripe_name(name, row);
                for j in 0..self.nodes.len() {
                    if self.nodes[j].alive {
                        self.nodes[j].objects.remove(&sname);
                        self.nodes[j].bins.remove(sname.as_str());
                    }
                }
            }
            self.invalidate_meta_caches(name);
        }
        self.ec_originals.remove(&name);
    }
}

#[cfg(test)]
mod step_order_tests {
    //! Pins the same-instant tie-break in [`Cloud4Home::step`]: when a flow
    //! completion and a queued event land on the identical virtual
    //! nanosecond, the completion is reaped *first* and the queue event is
    //! delivered after it, within the same instant.
    //!
    //! Audit of the two routines that advance the flow engine, which this
    //! ordering rests on (see DESIGN.md §12 for the full notes):
    //!
    //! * `drain_flows` — the one advance-and-reap routine, with three
    //!   callers. `step`'s net branch (taken when `net_t <= queue_t`, so
    //!   the tie goes to the network by construction; this test pins it)
    //!   parks the queue clock at the instant first. `step`'s queue branch
    //!   reaps any float-accrual-early completions before dispatching, so
    //!   a completion can never be processed *after* a queue event of a
    //!   strictly earlier instant. `run_for`'s horizon drain parks the
    //!   queue at the target and reaps before stepping again.
    //! * `defer_flow_completions` — the only deferring site, for
    //!   mid-dispatch advances; completions surfacing here become
    //!   `Event::FlowReap` at `Duration::ZERO`, which seq-orders *after*
    //!   everything already queued at the current instant (the wheel
    //!   preserves exactly this).

    use super::*;

    /// Discovers the completion instant of a raw flow via a twin run, then
    /// schedules an inert queue event at exactly that instant and asserts
    /// the step at the tie reaps the network completion while the queue
    /// event stays pending.
    #[test]
    fn net_completion_wins_same_instant_tie_against_queue_event() {
        let config = Config::paper_testbed(9);
        let bytes = 256 << 10;

        // Twin run: learn the exact completion instant. Drain the
        // construction-time overlay join traffic first so the raw flow is
        // the only thing in flight (the drain consumes rng identically in
        // both runs, keeping them in lockstep).
        let mut twin = Cloud4Home::new(config.clone());
        while twin.step() {}
        let (src, dst) = (twin.nodes[0].addr, twin.nodes[1].addr);
        let now = twin.now();
        let flow = twin
            .net
            .start_flow(now, src, dst, bytes, &mut twin.rng)
            .expect("route exists");
        let done_at = loop {
            let t = twin.net.next_event().expect("flow must complete");
            if twin
                .net
                .advance(t)
                .iter()
                .any(|FlowEvent::Completed { flow: f, .. }| *f == flow)
            {
                break t;
            }
        };

        // Main run: identical flow, plus a queue event at the completion
        // instant. `FlowReap` for this raw flow is inert (no waiter), so
        // it observes ordering without perturbing state.
        let mut home = Cloud4Home::new(config);
        while home.step() {}
        let now = home.now();
        let flow = home
            .net
            .start_flow(now, src, dst, bytes, &mut home.rng)
            .expect("route exists");
        home.queue.schedule_at(done_at, Event::FlowReap { flow });

        // Drain the flow engine's internal rate-change instants, all
        // strictly before the completion; the marker must stay pending.
        while home.net.next_event().is_some_and(|t| t < done_at) {
            assert!(home.step());
            assert_eq!(home.queue.peek_time(), Some(done_at));
        }
        assert_eq!(home.net.next_event(), Some(done_at), "twin diverged");
        assert_eq!(home.queue.peek_time(), Some(done_at));
        assert!(home.net.progress(flow).is_some());

        // The tie step: net completion reaped, queue event still pending,
        // clock parked on the shared instant.
        assert!(home.step());
        assert_eq!(home.now(), done_at);
        assert!(
            home.net.progress(flow).is_none(),
            "the step at the tie must consume the flow completion"
        );
        assert_eq!(
            home.queue.peek_time(),
            Some(done_at),
            "the same-instant queue event must be delivered after the completion"
        );
        assert_eq!(home.queue.len(), 1);

        // The queue event drains at the same instant; nothing remains.
        assert!(home.step());
        assert_eq!(home.now(), done_at);
        assert!(home.queue.is_empty());
        assert_eq!(home.net.next_event(), None);
    }
}

#[cfg(test)]
mod flow_registry_tests {
    //! The flow-claim table agrees with the flow engine: every claim names
    //! a transfer the engine still has in flight (or whose early completion
    //! is queued for reaping), and a drained deployment holds no claims
    //! and no transfers.

    use super::*;
    use crate::object::Object;
    use crate::policy::{RoutePolicy, StorePolicy};

    /// Every claim's flow is live in the engine, unless its completion
    /// surfaced mid-step and a `FlowReap` for it is queued.
    fn assert_claims_live(home: &Cloud4Home, label: &str) {
        for (&flow, claim) in &home.flows {
            assert!(
                home.net.progress(flow).is_some() || home.queue.peek_time() == Some(home.now()),
                "{label}: claim {flow:?} ({:?}) has no live flow at {}",
                claim.owner,
                home.now()
            );
        }
    }

    /// Steps until `op` has a report, checking the table after every step.
    fn step_until_done(home: &mut Cloud4Home, op: OpId, label: &str) {
        while !home.reports.contains_key(&op) {
            home.ensure_tick();
            assert!(home.step(), "{label}: stalled while {op} pending");
            assert_claims_live(home, label);
        }
    }

    /// A store/fetch/list/process/delete script under a crash, a partition
    /// and bursty loss, then a settling span and a drain — all stepped by
    /// hand so the table is checked after every single step.
    fn check_run(label: &str, config: Config) {
        let mut home = Cloud4Home::new(config);
        home.inject_faults(
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
                .at(Duration::from_secs(30), FaultEvent::Rejoin(NodeId(4)))
                .at(Duration::from_secs(45), FaultEvent::Crash(NodeId(3))),
        );
        let live = |home: &Cloud4Home, i: usize| {
            (0..home.nodes.len())
                .map(|k| (i + k) % home.nodes.len())
                .find(|&j| home.nodes[j].alive)
                .map(NodeId)
                .expect("a live node")
        };
        let names: Vec<String> = (0..6).map(|i| format!("reg/{label}/{i}.bin")).collect();
        for (i, name) in names.iter().enumerate() {
            let obj = Object::synthetic(name, i as u64, (64 + 96 * i as u64) << 10, "doc");
            let client = live(&home, i);
            let op = home.store_object(client, obj, StorePolicy::ForceHome, true);
            step_until_done(&mut home, op, label);
        }
        for (i, name) in names.iter().enumerate() {
            let client = live(&home, i + 3);
            let op = home.fetch_object(client, name);
            step_until_done(&mut home, op, label);
        }
        let op = home.list_objects(live(&home, 1), &format!("reg/{label}"));
        step_until_done(&mut home, op, label);
        let op = home.process_object(
            live(&home, 2),
            &names[0],
            ServiceKind::Compress,
            RoutePolicy::Performance,
        );
        step_until_done(&mut home, op, label);
        let op = home.delete_object(live(&home, 5), &names[5]);
        step_until_done(&mut home, op, label);

        let settle = home.now() + Duration::from_secs(90);
        home.tick_horizon = home.tick_horizon.max(settle);
        home.ensure_tick();
        while home.next_time().is_some_and(|t| t <= settle) {
            assert!(home.step());
            assert_claims_live(&home, label);
        }
        home.run_until_idle();
        assert!(
            home.flows.is_empty(),
            "{label}: claims left after the drain: {:?}",
            home.flows.values().map(|c| &c.owner).collect::<Vec<_>>()
        );
        assert_eq!(home.net.in_flight(), 0, "{label}: transfers left");
    }

    #[test]
    fn claims_track_live_flows_and_drain_empty() {
        let mut config = Config::paper_testbed(11);
        config.replication = 3;
        config.replica_quorum = 2;
        check_run("quorum", config);

        let mut config = Config::paper_testbed(11);
        config.replication = 3;
        config.fetch_sources = 3;
        config.fetch_hedge = 1.3;
        check_run("striping", config);

        let mut config = Config::paper_testbed(11);
        config.replication = 2;
        config.chunk_bytes = 64 << 10;
        config.chunk_window = 4;
        config.adaptive.enabled = true;
        config.adaptive.replication_min = 2;
        config.adaptive.interval_ms = 1_000;
        config.adaptive.ec_threshold_bytes = 128 << 10;
        check_run("adaptive-ec", config);
    }
}
