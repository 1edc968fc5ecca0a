//! Replaying homes through the public API: one home runner shared by
//! every pass, the benchmark's own sharded runner for workloads that
//! `fiat_fleet::run_sharded` cannot express (proofs, strangers,
//! migrations), and the reference each pass is checked against.
//!
//! The runner is generic over a [`Ledger`], which wraps every public
//! call. The fleet passes use [`Untimed`], whose wrappers inline to the
//! bare call; the latency and traced passes use `ledger::Timed`.

use crate::workload::{classifier, provision, validator, ActKind, Bench, SECRET};
use fiat_control::{enroll_home, restore_home, snapshot_home};
use fiat_core::audit::AuditVerdict;
use fiat_core::pipeline::AuthError;
use fiat_core::{AllowReason, DropReason, FiatProxy, ProxyDecision, ProxyStats, ProxyTelemetry};
use fiat_fingerprint::{FingerprintEngine, MatcherConfig};
use fiat_fleet::{home_cost, PartitionPlan};
use fiat_net::PacketRecord;
use fiat_probe::{FleetProfile, ShardProfile, Stage};
use fiat_telemetry::{ManualClock, MetricRegistry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The public calls a ledger attributes time to, besides `on_packet`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `MetricRegistry::new` + `ProxyTelemetry::new`.
    TelemetryNew,
    /// `enroll_home` (plus installing the fingerprint gate).
    Enroll,
    /// `MetricRegistry::merge_from` of one home's registries.
    Merge,
    /// `snapshot_home`.
    Snapshot,
    /// `restore_home` (plus reinstalling the fingerprint gate).
    Restore,
    /// `on_auth_zero_rtt`.
    Proof,
}

/// Wraps every public call a home run makes.
pub trait Ledger {
    /// Run one non-packet call.
    fn call<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T;
    /// Run one `on_packet`; `stranger` marks an unregistered MAC.
    fn packet(&mut self, stranger: bool, f: impl FnOnce() -> ProxyDecision) -> ProxyDecision;
    /// Run one whole migration (snapshot, fresh telemetry, restore).
    fn migration<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T;
    /// The home's own trace is done; what follows is its probe tail.
    fn tail_start(&mut self) {}
}

/// The fleet passes' ledger: every wrapper is the bare call.
pub struct Untimed;

impl Ledger for Untimed {
    #[inline(always)]
    fn call<T>(&mut self, _: Call, f: impl FnOnce() -> T) -> T {
        f()
    }
    #[inline(always)]
    fn packet(&mut self, _: bool, f: impl FnOnce() -> ProxyDecision) -> ProxyDecision {
        f()
    }
    #[inline(always)]
    fn migration<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        f(self)
    }
}

/// What to do besides replaying the home's trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mode {
    /// Apply the inline migrations (off for `migrate`'s reference).
    pub migrate: bool,
    /// Record every decision and check the per-decision properties.
    pub record: bool,
}

/// What one home run produced.
#[derive(Default)]
pub struct HomeOut {
    /// Final decision counters of the home's own trace.
    pub stats: ProxyStats,
    /// Its registries (one per proxy incarnation), to fold.
    pub registries: Vec<MetricRegistry>,
    /// Proofs delivered (inline and tail).
    pub proofs: u64,
    /// Proofs that did not verify.
    pub proofs_failed: u64,
    /// Migrations run (inline and tail).
    pub migrations: u64,
    /// Migrations whose restore failed.
    pub migrations_failed: u64,
    /// Snapshot bytes written by all migrations.
    pub snapshot_bytes: u64,
    /// Broken per-decision properties (stranger verdicts, expired
    /// quarantines whose proof arrived in time). Counted only where
    /// checked: recorded runs and the probe tail.
    pub violations: u64,
    /// The decision sequence of the home's own trace, when recorded.
    pub decisions: Vec<ProxyDecision>,
    /// The enrollment failed; nothing else ran.
    pub enroll_failed: bool,
}

fn fresh_telemetry() -> (MetricRegistry, ProxyTelemetry) {
    let registry = MetricRegistry::new();
    let telemetry = ProxyTelemetry::new(registry.clone(), Arc::new(ManualClock::new()));
    (registry, telemetry)
}

/// Checks stranger packets: each must reach one of the gate's three
/// outcomes (pending, allowed while evidence accumulates; matched; or
/// quarantined), and with the gate on no stranger may stay pending past
/// its evidence window (at most `window - 1` packets pass before the
/// verdict seals). With the gate off, pending is the fail-open allow.
struct StrangerCheck {
    limit: Option<u32>,
    pending: Vec<(u16, u32)>,
}

impl StrangerCheck {
    fn new(bench: &Bench) -> Self {
        StrangerCheck {
            limit: bench
                .sigs
                .as_ref()
                .map(|_| MatcherConfig::default().evidence_window - 1),
            pending: Vec::new(),
        }
    }

    fn ok(&mut self, device: u16, d: ProxyDecision) -> bool {
        match d {
            ProxyDecision::Allow(AllowReason::UnknownDevice) => {
                let Some(limit) = self.limit else {
                    return true;
                };
                let i = match self.pending.iter().position(|p| p.0 == device) {
                    Some(i) => i,
                    None => {
                        self.pending.push((device, 0));
                        self.pending.len() - 1
                    }
                };
                self.pending[i].1 += 1;
                self.pending[i].1 <= limit
            }
            ProxyDecision::Allow(AllowReason::FingerprintMatched)
            | ProxyDecision::Drop(DropReason::UnknownQuarantined) => true,
            _ => false,
        }
    }
}

fn install_gate(bench: &Bench, proxy: &mut FiatProxy) {
    if let Some(sigs) = &bench.sigs {
        let engine = FingerprintEngine::new(sigs.clone(), MatcherConfig::default());
        proxy.set_fingerprinter(Box::new(engine));
    }
}

fn deliver<L: Ledger>(
    ledger: &mut L,
    proxy: &mut FiatProxy,
    proof: &(fiat_quic::ZeroRttPacket, fiat_net::SimTime),
    out: &mut HomeOut,
) {
    let r: Result<bool, AuthError> =
        ledger.call(Call::Proof, || proxy.on_auth_zero_rtt(&proof.0, proof.1));
    out.proofs += 1;
    if r != Ok(true) {
        out.proofs_failed += 1;
    }
}

fn migrate<L: Ledger>(
    ledger: &mut L,
    bench: &Bench,
    h: usize,
    proxy: &mut FiatProxy,
    out: &mut HomeOut,
) {
    let capture = &bench.homes[h].capture;
    out.migrations += 1;
    ledger.migration(|l| {
        let bytes = l.call(Call::Snapshot, || snapshot_home(proxy, None));
        out.snapshot_bytes += bytes.len() as u64;
        let (registry, telemetry) = l.call(Call::TelemetryNew, fresh_telemetry);
        let restored = l.call(Call::Restore, || {
            let p = restore_home(
                &bytes,
                bench.config.clone(),
                &SECRET,
                validator(),
                telemetry,
                |d| classifier(capture, d),
                None,
            );
            p.map(|mut p| {
                install_gate(bench, &mut p);
                p
            })
        });
        match restored {
            Ok(p) => {
                *proxy = p;
                out.registries.push(registry);
            }
            Err(_) => out.migrations_failed += 1,
        }
    });
}

/// Replay home `h` of `bench`: enroll, then decide every packet with
/// the inline proofs and migrations interleaved. Returns the outcome
/// and the live proxy (for [`run_tail`]); folding the returned
/// registries is the caller's job, and must come before the tail.
pub fn run_home<L: Ledger>(
    bench: &Bench,
    h: usize,
    mode: Mode,
    ledger: &mut L,
) -> (HomeOut, Option<FiatProxy>) {
    let capture = &bench.homes[h].capture;
    let plan = &bench.plans[h];
    let mut out = HomeOut::default();
    let (registry, telemetry) = ledger.call(Call::TelemetryNew, fresh_telemetry);
    let enrolled = ledger.call(Call::Enroll, || {
        let e = enroll_home(
            provision(capture, &bench.config),
            &SECRET,
            validator(),
            telemetry,
            None,
        );
        e.map(|mut e| {
            install_gate(bench, &mut e.proxy);
            e.proxy
        })
    });
    let Ok(mut proxy) = enrolled else {
        out.enroll_failed = true;
        return (out, None);
    };
    out.registries.push(registry);

    let packets = &capture.trace.packets;
    let registered = capture.devices.len();
    let mut acts = plan.acts.iter().peekable();
    let mut strangers = StrangerCheck::new(bench);
    for (i, pkt) in packets.iter().enumerate() {
        while let Some(act) = acts.next_if(|a| a.at == i) {
            run_act(act.kind, bench, h, mode, ledger, &mut proxy, &mut out);
        }
        let stranger = pkt.device as usize >= registered;
        let d = ledger.packet(stranger, || proxy.on_packet(pkt));
        if mode.record {
            out.decisions.push(d);
            if stranger && !strangers.ok(pkt.device, d) {
                out.violations += 1;
            }
        }
    }
    for act in acts {
        run_act(act.kind, bench, h, mode, ledger, &mut proxy, &mut out);
    }
    out.stats = proxy.stats();
    if mode.record {
        out.violations += missed_releases(bench, h, &proxy);
    }
    (out, Some(proxy))
}

fn run_act<L: Ledger>(
    kind: ActKind,
    bench: &Bench,
    h: usize,
    mode: Mode,
    ledger: &mut L,
    proxy: &mut FiatProxy,
    out: &mut HomeOut,
) {
    match kind {
        ActKind::Proof(k) => deliver(ledger, proxy, &bench.plans[h].proofs[k], out),
        ActKind::Migrate if mode.migrate => migrate(ledger, bench, h, proxy, out),
        ActKind::Migrate => {}
    }
}

/// Quarantines that expired although a proof arrived before their
/// deadline. A verified proof releases every pending quarantine of the
/// home, so an expiry at `t` is wrong if any proof landed in
/// `(t - deadline, t]`.
fn missed_releases(bench: &Bench, h: usize, proxy: &FiatProxy) -> u64 {
    let Some(deadline) = bench.config.proof_deadline else {
        return 0;
    };
    let proofs = &bench.plans[h].proofs;
    proxy
        .audit()
        .entries()
        .iter()
        .filter(|e| e.verdict == AuditVerdict::QuarantineExpired)
        .filter(|e| {
            let after = proofs.partition_point(|p| p.1 + deadline <= e.ts);
            proofs.get(after).is_some_and(|p| p.1 <= e.ts)
        })
        .count() as u64
}

/// Run home `h`'s probe tail on its live proxy: stranger packets (each
/// must reach a gate outcome), proofs, then migrations of the final
/// state.
pub fn run_tail<L: Ledger>(
    bench: &Bench,
    h: usize,
    ledger: &mut L,
    proxy: &mut FiatProxy,
    out: &mut HomeOut,
) {
    ledger.tail_start();
    let plan = &bench.plans[h];
    let tail: &[PacketRecord] = &plan.tail_packets;
    let mut strangers = StrangerCheck::new(bench);
    for pkt in tail {
        let d = ledger.packet(true, || proxy.on_packet(pkt));
        if !strangers.ok(pkt.device, d) {
            out.violations += 1;
        }
    }
    for proof in &plan.tail_proofs {
        deliver(ledger, proxy, proof, out);
    }
    for _ in 0..plan.tail_migrations {
        migrate(ledger, bench, h, proxy, out);
    }
}

/// A fleet run's merged view plus each home's outcome.
pub struct FleetRun {
    /// Merged decision counters.
    pub stats: ProxyStats,
    /// Merged registry.
    pub registry: MetricRegistry,
    /// Each home's outcome, by home index (registries already folded).
    pub homes: Vec<HomeOut>,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Stage accounting, when asked for.
    pub profile: Option<FleetProfile>,
}

/// The benchmark's own plan/claim/decide/merge loop over `shards`
/// threads, mirroring `fiat_fleet::run_sharded` (same partition plan,
/// same additive fold) for workloads with acts. With `profile`, each
/// shard times its claim, decide and merge stages from outside the
/// calls, as `run_sharded_probed` does.
pub fn run_fleet(bench: &Bench, shards: usize, profile: bool) -> FleetRun {
    let start = Instant::now();
    let shards = shards.clamp(1, bench.homes.len().max(1));
    let mode = Mode {
        migrate: true,
        ..Mode::default()
    };
    let mut coordinator = ShardProfile::new(0);
    let t = Instant::now();
    let costs: Vec<u64> = bench.homes.iter().map(home_cost).collect();
    let plan = PartitionPlan::build(&costs, shards);
    coordinator.add(Stage::Dispatch, t.elapsed());

    let results: Vec<_> = std::thread::scope(|s| {
        let plan = &plan;
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                s.spawn(move || {
                    let shard_start = Instant::now();
                    let mut prof = ShardProfile::new(shard);
                    let registry = MetricRegistry::new();
                    let mut stats = ProxyStats::default();
                    let mut homes = Vec::new();
                    loop {
                        let t = profile.then(Instant::now);
                        let claim = plan.claim(shard);
                        if let Some(t) = t {
                            prof.add(Stage::Recv, t.elapsed());
                        }
                        let Some(c) = claim else { break };
                        prof.steals += u64::from(c.stolen);
                        let t = profile.then(Instant::now);
                        let (mut out, proxy) = run_home(bench, c.home, mode, &mut Untimed);
                        drop(proxy);
                        let t = t.map(|t| {
                            prof.add(Stage::Decide, t.elapsed());
                            Instant::now()
                        });
                        for r in out.registries.drain(..) {
                            registry.merge_from(&r);
                        }
                        stats += out.stats;
                        if let Some(t) = t {
                            prof.add(Stage::Merge, t.elapsed());
                        }
                        homes.push((c.home, out));
                    }
                    prof.wall_nanos = shard_start.elapsed().as_nanos() as u64;
                    prof.homes = homes.len() as u64;
                    (registry, stats, homes, prof)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });

    let registry = MetricRegistry::new();
    let mut stats = ProxyStats::default();
    let mut homes: Vec<Option<HomeOut>> = (0..bench.homes.len()).map(|_| None).collect();
    let mut profiles = Vec::with_capacity(shards);
    let t = Instant::now();
    for (r, s, outs, prof) in results {
        registry.merge_from(&r);
        stats += s;
        for (h, out) in outs {
            homes[h] = Some(out);
        }
        profiles.push(prof);
    }
    let fold_nanos = t.elapsed().as_nanos() as u64;
    let homes = homes
        .into_iter()
        .map(|o| o.expect("every home is claimed exactly once"))
        .collect();
    let wall = start.elapsed();
    let profile = profile.then(|| {
        let max = profiles.iter().map(|p| p.wall_nanos).max().unwrap_or(0);
        let min = profiles.iter().map(|p| p.wall_nanos).min().unwrap_or(0);
        coordinator.add(Stage::MergeWait, Duration::from_nanos(max - min));
        coordinator.wall_nanos =
            coordinator.stage_nanos(Stage::Dispatch) + coordinator.stage_nanos(Stage::MergeWait);
        FleetProfile {
            shards: profiles,
            coordinator,
            wall_nanos: wall.as_nanos() as u64,
            fold_nanos,
            recorder_events: None,
        }
    });
    FleetRun {
        stats,
        registry,
        homes,
        wall,
        profile,
    }
}

/// The expected outcome every pass is checked against, computed once
/// per run, untimed.
pub struct Reference {
    /// Merged decision counters.
    pub stats: ProxyStats,
    /// Merged Prometheus exposition.
    pub prometheus: String,
    /// Per-home final counters (workloads the benchmark runs itself).
    pub homes: Vec<ProxyStats>,
    /// Per-home decision sequences of an unmigrated replay (`migrate`).
    pub decisions: Vec<Vec<ProxyDecision>>,
    /// Homes, proofs and migrations the reference replay attempted.
    pub attempted: u64,
    /// Those that failed a check.
    pub failed: u64,
}

/// Build the reference. Plain workloads take `fiat_fleet::run_sequential`
/// as it stands; the others replay every home in order on this thread
/// with every decision recorded and checked, and without migrations, so
/// a migrated run is compared with an unmigrated one.
pub fn reference(bench: &Bench) -> Reference {
    if bench.spec.plain() {
        let seq = fiat_fleet::run_sequential(&bench.homes);
        return Reference {
            stats: seq.stats,
            prometheus: seq.registry.render_prometheus(),
            homes: Vec::new(),
            decisions: Vec::new(),
            attempted: seq.homes as u64,
            failed: 0,
        };
    }
    let mode = Mode {
        record: true,
        ..Mode::default()
    };
    let registry = MetricRegistry::new();
    let mut r = Reference {
        stats: ProxyStats::default(),
        prometheus: String::new(),
        homes: Vec::new(),
        decisions: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for h in 0..bench.homes.len() {
        let (out, _) = run_home(bench, h, mode, &mut Untimed);
        for reg in &out.registries {
            registry.merge_from(reg);
        }
        r.stats += out.stats;
        r.attempted += 1 + out.proofs;
        r.failed += out.proofs_failed + u64::from(out.enroll_failed || out.violations > 0);
        r.homes.push(out.stats);
        if bench.spec.migrations > 0 {
            r.decisions.push(out.decisions);
        }
    }
    r.prometheus = registry.render_prometheus();
    r
}

/// Attempted and failed operations of one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Homes, proofs and migrations attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// Check a pass of the benchmark's own runner against the reference:
/// per-home counters (and decisions, when the pass recorded them), the
/// merged exposition, every proof and every migration.
pub fn check_homes(
    reference: &Reference,
    homes: &[&HomeOut],
    registry: &MetricRegistry,
    stats: ProxyStats,
) -> Tally {
    let mut t = Tally::default();
    let mut bad_homes = 0u64;
    for (h, out) in homes.iter().enumerate() {
        t.attempted += 1 + out.proofs + out.migrations;
        t.failed += out.proofs_failed + out.migrations_failed;
        let stats_ok = reference.homes.is_empty() || reference.homes[h] == out.stats;
        let decisions_ok = out.decisions.is_empty()
            || reference.decisions.is_empty()
            || reference.decisions[h] == out.decisions;
        if out.enroll_failed || out.violations > 0 || !stats_ok || !decisions_ok {
            bad_homes += 1;
        }
    }
    // A merged view that differs cannot be pinned on one home.
    if stats != reference.stats || registry.render_prometheus() != reference.prometheus {
        bad_homes = homes.len() as u64;
    }
    t.failed += bad_homes;
    t
}
