//! The IoT proxy's access-control procedure (Figure 4).
//!
//! Every packet destined to (or originating from) an IoT device passes
//! through:
//!
//! 1. **Bootstrap** — for the first 20 minutes all traffic is allowed
//!    while the rule table learns predictable flows (§5.4 "Rules
//!    Creation"; 20 min = 2× the maximum predictable interval, Fig 1c).
//! 2. **Rule match** — a hit means predictable: allow.
//! 3. **Event grouping** — misses accumulate into unpredictable events
//!    (5 s gap); the first N packets of each event are allowed, N capped
//!    by the device's command-completion threshold so an unauthorized
//!    command cannot finish before the verdict.
//! 4. **Classification** — at packet N the event is classified (size rule
//!    or BernoulliNB). Non-manual ⇒ allow the rest. Manual ⇒ allowed only
//!    if a humanness proof arrived recently; otherwise the event's
//!    remaining packets drop and the user is alerted.
//! 5. **Lockout** — repeated unverified manual events within a short
//!    window disconnect the device until manually cleared (brute-force
//!    protection). The threshold is a tolerance: up to
//!    `lockout_threshold` unverified events are absorbed, the next one
//!    locks.
//!
//! Events that end *below* the first-N window (an attacker feeding
//! fragments and pausing past the event gap) are classified
//! retrospectively when they close: their packets already left, but an
//! unverified manual episode still reaches the audit log and counts
//! toward the lockout, so gap evasion trips the brute-force protection
//! instead of flying under the classifier.

use crate::audit::{AuditEntry, AuditLog, AuditVerdict, AUDIT_PROXY_DEVICE};
use crate::classifier::{EventClass, EventClassifier};
use crate::client::{AuthMessage, FiatApp};
use crate::events::UnpredictableEvent;
use crate::interactions::InteractionGraph;
use crate::pairing::{pair, Paired};
use crate::predict::{PredictabilityEngine, RuleTable, RuleTelemetry, DEFAULT_TOLERANCE};
use crate::snapshot::{
    DeviceSnapshot, EventFateSnapshot, GhostSnapshot, HomeSnapshot, OpenEventSnapshot,
    QuarantineSnapshot, SnapshotError, SNAPSHOT_VERSION,
};
use fiat_crypto::TeeKeystore;
use fiat_net::{DnsTable, FlowDef, FlowKey, PacketRecord, SimDuration, SimTime};
use fiat_quic::{ClientHello, Server as QuicServer, ServerHello, ZeroRttPacket};
use fiat_sensors::HumannessValidator;
use fiat_telemetry::{Clock, Counter, Gauge, Histogram, MetricRegistry, Span, WallClock};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Maximum packets allowed (and used as features) before classifying:
/// a device's first-N allowance is `min(N, CLASSIFY_AT_CAP)`.
pub const CLASSIFY_AT_CAP: usize = 5;

/// Proxy configuration (paper defaults).
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Flow definition for rules (PortLess per §5.4).
    pub flow_def: FlowDef,
    /// Interval tolerance bin for the predictability engine.
    pub tolerance: SimDuration,
    /// Bootstrap window during which all traffic is allowed and learned.
    pub bootstrap: SimDuration,
    /// Unpredictable-event gap threshold.
    pub event_gap: SimDuration,
    /// How long a humanness proof stays fresh.
    pub human_valid_window: SimDuration,
    /// Unverified manual events *tolerated* within
    /// [`ProxyConfig::lockout_window`]: exactly this many do not lock
    /// the device, one more does.
    pub lockout_threshold: u32,
    /// Sliding window for the lockout counter.
    pub lockout_window: SimDuration,
    /// Pending-verdict quarantine: how long a manual-classified event
    /// whose humanness proof has not arrived is *held* (not dropped)
    /// awaiting the proof. `None` (the default) disables quarantine and
    /// reproduces the immediate-demotion path bit for bit — a lost proof
    /// then means a dropped event, the false-drop friction the chaos
    /// harness measures.
    pub proof_deadline: Option<SimDuration>,
    /// Maximum packets held per quarantine record. Packets past the cap
    /// are dropped as `ManualUnverified` (no audit entry, no lockout
    /// credit — the episode is already pending a verdict) so a chatty
    /// event cannot grow proxy memory without bound.
    pub quarantine_capacity: usize,
    /// Rule-table cap: past it the least-recently-matched rule is
    /// evicted into a ghost with a re-learn path (see
    /// [`RuleTable::set_capacity`]). The default is generous — far above
    /// what any home learns — so it only exists to bound hostile or
    /// pathological growth; `None` disables the cap.
    pub max_rules: Option<usize>,
    /// Cap on *concurrent* quarantine records across the home (one
    /// record per device already bounds each device, but not the number
    /// of devices with one pending). Admitting a record past the cap
    /// demotes the record with the oldest deadline first, as if its
    /// deadline had just passed. `None` disables the cap.
    pub max_quarantine_records: Option<usize>,
    /// In-memory audit-chain cap with checkpointed truncation (see
    /// [`crate::audit::AuditLog::set_max_entries`]). `None` keeps every
    /// entry in memory.
    pub max_audit_entries: Option<usize>,
    /// Route unknown-MAC traffic through the behavioral fingerprint gate
    /// (when one is installed with [`FiatProxy::set_fingerprinter`])
    /// instead of the legacy fail-open. Off by default so existing
    /// deployments keep the incremental-deployment behavior until the
    /// operator flips the knob.
    pub fingerprint_unknown: bool,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            flow_def: FlowDef::PortLess,
            tolerance: DEFAULT_TOLERANCE,
            bootstrap: SimDuration::from_mins(20),
            event_gap: SimDuration::from_secs(5),
            human_valid_window: SimDuration::from_secs(30),
            lockout_threshold: 3,
            lockout_window: SimDuration::from_secs(60),
            proof_deadline: None,
            quarantine_capacity: 64,
            max_rules: Some(65_536),
            max_quarantine_records: Some(64),
            max_audit_entries: Some(65_536),
            fingerprint_unknown: false,
        }
    }
}

/// Why a packet was allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllowReason {
    /// Still in the bootstrap window.
    Bootstrap,
    /// Rule table hit: predictable traffic.
    RuleHit,
    /// Within the first-N allowance of an undecided event.
    FirstN,
    /// Event classified non-manual.
    NonManual,
    /// Manual event with a fresh humanness proof.
    ManualVerified,
    /// Manual event covered by a device-interaction cascade (§7).
    Cascade,
    /// Unregistered device: fail open during incremental deployment.
    UnknownDevice,
    /// Remainder of a quarantined manual event whose humanness proof
    /// arrived (late) before the proof deadline.
    QuarantineReleased,
    /// Unregistered device whose traffic behaviorally matched its
    /// claimed class (fingerprint gate): provisional allow with audit.
    FingerprintMatched,
}

impl AllowReason {
    /// All variants, in [`ProxyStats`] field order.
    pub const ALL: [AllowReason; 9] = [
        AllowReason::Bootstrap,
        AllowReason::RuleHit,
        AllowReason::FirstN,
        AllowReason::NonManual,
        AllowReason::ManualVerified,
        AllowReason::Cascade,
        AllowReason::UnknownDevice,
        AllowReason::QuarantineReleased,
        AllowReason::FingerprintMatched,
    ];

    /// Stable snake_case name used as the telemetry `reason` label.
    pub fn as_str(self) -> &'static str {
        match self {
            AllowReason::Bootstrap => "bootstrap",
            AllowReason::RuleHit => "rule_hit",
            AllowReason::FirstN => "first_n",
            AllowReason::NonManual => "non_manual",
            AllowReason::ManualVerified => "manual_verified",
            AllowReason::Cascade => "cascade",
            AllowReason::UnknownDevice => "unknown_device",
            AllowReason::QuarantineReleased => "quarantine_released",
            AllowReason::FingerprintMatched => "fingerprint_matched",
        }
    }
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// Manual event without humanness proof.
    ManualUnverified,
    /// Device is locked out.
    LockedOut,
    /// Remainder of a quarantined manual event whose proof deadline
    /// passed without a humanness proof.
    QuarantineExpired,
    /// Unregistered device quarantined by the fingerprint gate: its
    /// evidence window sealed on spoof-suspected or no-confident-match.
    UnknownQuarantined,
}

impl DropReason {
    /// All variants, in [`ProxyStats`] field order.
    pub const ALL: [DropReason; 4] = [
        DropReason::ManualUnverified,
        DropReason::LockedOut,
        DropReason::QuarantineExpired,
        DropReason::UnknownQuarantined,
    ];

    /// Stable snake_case name used as the telemetry `reason` label.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::ManualUnverified => "manual_unverified",
            DropReason::LockedOut => "locked_out",
            DropReason::QuarantineExpired => "quarantine_expired",
            DropReason::UnknownQuarantined => "unknown_quarantined",
        }
    }
}

/// Packet counters per decision reason (operator dashboard material).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProxyStats {
    /// Packets allowed during bootstrap.
    pub bootstrap: u64,
    /// Packets allowed by a rule hit.
    pub rule_hit: u64,
    /// Packets allowed under the first-N allowance.
    pub first_n: u64,
    /// Packets of events classified non-manual.
    pub non_manual: u64,
    /// Packets of human-verified manual events.
    pub manual_verified: u64,
    /// Packets allowed via an interaction cascade.
    pub cascade: u64,
    /// Packets of unregistered devices allowed fail-open.
    pub unknown_device: u64,
    /// Packets dropped as unverified manual.
    pub dropped_unverified: u64,
    /// Packets dropped because the device is locked out.
    pub dropped_lockout: u64,
    /// Unverified manual *episodes* detected retrospectively at event
    /// closure (their packets had already been forwarded under the
    /// first-N allowance; counts events, not packets, so it is not part
    /// of [`ProxyStats::total`]).
    pub retro_unverified: u64,
    /// Packets held in pending-verdict quarantine at decision time
    /// (each held packet is decided exactly once, as `Quarantine`).
    pub quarantined: u64,
    /// Live packets allowed because their event's quarantine was
    /// released by a late-arriving proof.
    pub quarantine_released: u64,
    /// Live packets dropped because their event's quarantine expired.
    pub dropped_quarantine: u64,
    /// Held packets demoted when a quarantine expired. Those packets
    /// were already decided (and counted) as `quarantined`, so this is a
    /// secondary count like `retro_unverified` and not part of
    /// [`ProxyStats::total`].
    pub quarantine_expired: u64,
    /// Packets of unregistered devices allowed because the fingerprint
    /// gate matched the claimed class.
    pub fingerprint_matched: u64,
    /// Packets of unregistered devices dropped by the fingerprint gate
    /// (spoof suspected or no confident match after the window).
    pub dropped_unknown: u64,
}

impl ProxyStats {
    /// Total packets decided.
    pub fn total(&self) -> u64 {
        self.bootstrap
            + self.rule_hit
            + self.first_n
            + self.non_manual
            + self.manual_verified
            + self.cascade
            + self.unknown_device
            + self.dropped_unverified
            + self.dropped_lockout
            + self.quarantined
            + self.quarantine_released
            + self.dropped_quarantine
            + self.fingerprint_matched
            + self.dropped_unknown
    }

    /// Total packets dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped_unverified
            + self.dropped_lockout
            + self.dropped_quarantine
            + self.dropped_unknown
    }

    /// Fraction of (post-bootstrap) traffic handled by rules alone — the
    /// paper's headline predictability payoff.
    pub fn rule_fraction(&self) -> f64 {
        let post = self.total() - self.bootstrap;
        if post == 0 {
            0.0
        } else {
            self.rule_hit as f64 / post as f64
        }
    }
}

impl std::ops::AddAssign for ProxyStats {
    /// Field-wise addition, for folding per-proxy (or per-shard) stats
    /// into one fleet-wide view. Commutative and associative, so the
    /// merged result does not depend on shard order.
    fn add_assign(&mut self, rhs: ProxyStats) {
        self.bootstrap += rhs.bootstrap;
        self.rule_hit += rhs.rule_hit;
        self.first_n += rhs.first_n;
        self.non_manual += rhs.non_manual;
        self.manual_verified += rhs.manual_verified;
        self.cascade += rhs.cascade;
        self.unknown_device += rhs.unknown_device;
        self.dropped_unverified += rhs.dropped_unverified;
        self.dropped_lockout += rhs.dropped_lockout;
        self.retro_unverified += rhs.retro_unverified;
        self.quarantined += rhs.quarantined;
        self.quarantine_released += rhs.quarantine_released;
        self.dropped_quarantine += rhs.dropped_quarantine;
        self.quarantine_expired += rhs.quarantine_expired;
        self.fingerprint_matched += rhs.fingerprint_matched;
        self.dropped_unknown += rhs.dropped_unknown;
    }
}

impl std::iter::Sum for ProxyStats {
    fn sum<I: Iterator<Item = ProxyStats>>(iter: I) -> ProxyStats {
        let mut acc = ProxyStats::default();
        for s in iter {
            acc += s;
        }
        acc
    }
}

/// Point-in-time entry counts of every growable state surface one home's
/// proxy owns — what the long-horizon soak's accountant samples against
/// its budget (DESIGN §18). Counts are *entries*, not bytes: each surface
/// has a fixed-size record, so entry caps are what bound memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateSize {
    /// Live rule-table entries.
    pub rules: usize,
    /// Evicted-rule ghosts awaiting re-learn.
    pub rule_ghosts: usize,
    /// Open unpredictable events.
    pub open_events: usize,
    /// Packets buffered across open events (≤ [`CLASSIFY_AT_CAP`] each).
    pub open_packets: usize,
    /// Pending-verdict quarantine records.
    pub quarantine_records: usize,
    /// Packets held across all quarantine records.
    pub quarantine_held: usize,
    /// In-memory audit chain entries (post-truncation suffix).
    pub audit_entries: usize,
    /// 0-RTT session tickets tracked by the replay store.
    pub replay_tickets: usize,
    /// Replayed-packet-number entries across all live epochs.
    pub replay_entries: usize,
    /// Live (unretired) ticket epochs.
    pub replay_epochs: usize,
    /// Packets buffered during bootstrap (empty once rules are learned).
    pub bootstrap_buffered: usize,
    /// Released quarantine packets not yet drained by the interceptor.
    pub released_pending: usize,
    /// Fingerprint-gate entries: unknown devices under an open evidence
    /// window plus cached sealed verdicts (both FIFO-capped).
    pub fingerprint_evidence: usize,
}

impl StateSize {
    /// Sum of every surface — the single number compared against the
    /// soak's per-home budget.
    pub fn total(&self) -> usize {
        self.rules
            + self.rule_ghosts
            + self.open_events
            + self.open_packets
            + self.quarantine_records
            + self.quarantine_held
            + self.audit_entries
            + self.replay_tickets
            + self.replay_entries
            + self.replay_epochs
            + self.bootstrap_buffered
            + self.released_pending
            + self.fingerprint_evidence
    }

    /// Field-wise maximum — fold per-sample sizes into a high-water
    /// mark (each surface peaks independently, so the result may not
    /// correspond to any single instant).
    pub fn max_fields(self, rhs: StateSize) -> StateSize {
        StateSize {
            rules: self.rules.max(rhs.rules),
            rule_ghosts: self.rule_ghosts.max(rhs.rule_ghosts),
            open_events: self.open_events.max(rhs.open_events),
            open_packets: self.open_packets.max(rhs.open_packets),
            quarantine_records: self.quarantine_records.max(rhs.quarantine_records),
            quarantine_held: self.quarantine_held.max(rhs.quarantine_held),
            audit_entries: self.audit_entries.max(rhs.audit_entries),
            replay_tickets: self.replay_tickets.max(rhs.replay_tickets),
            replay_entries: self.replay_entries.max(rhs.replay_entries),
            replay_epochs: self.replay_epochs.max(rhs.replay_epochs),
            bootstrap_buffered: self.bootstrap_buffered.max(rhs.bootstrap_buffered),
            released_pending: self.released_pending.max(rhs.released_pending),
            fingerprint_evidence: self.fingerprint_evidence.max(rhs.fingerprint_evidence),
        }
    }
}

impl std::ops::AddAssign for StateSize {
    /// Field-wise addition, for fleet-wide aggregation.
    fn add_assign(&mut self, rhs: StateSize) {
        self.rules += rhs.rules;
        self.rule_ghosts += rhs.rule_ghosts;
        self.open_events += rhs.open_events;
        self.open_packets += rhs.open_packets;
        self.quarantine_records += rhs.quarantine_records;
        self.quarantine_held += rhs.quarantine_held;
        self.audit_entries += rhs.audit_entries;
        self.replay_tickets += rhs.replay_tickets;
        self.replay_entries += rhs.replay_entries;
        self.replay_epochs += rhs.replay_epochs;
        self.bootstrap_buffered += rhs.bootstrap_buffered;
        self.released_pending += rhs.released_pending;
        self.fingerprint_evidence += rhs.fingerprint_evidence;
    }
}

/// Per-packet verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyDecision {
    /// Forward the packet.
    Allow(AllowReason),
    /// Drop it.
    Drop(DropReason),
    /// Hold the packet in pending-verdict quarantine: it is neither
    /// forwarded nor discarded until the event's proof deadline resolves
    /// it. Held packets surface through
    /// [`FiatProxy::take_quarantine_releases`] when released.
    Quarantine,
}

impl ProxyDecision {
    /// Whether the packet is forwarded *now*. Quarantined packets are
    /// not — a held command must not reach the device before its
    /// verdict, which is what keeps quarantine from weakening the
    /// first-N completion bound.
    pub fn is_allow(self) -> bool {
        matches!(self, ProxyDecision::Allow(_))
    }

    /// Stable snake_case reason label (`"rule_hit"`, `"locked_out"`,
    /// `"pending_proof"`) — the same strings the telemetry `reason`
    /// label uses.
    pub fn reason_str(self) -> &'static str {
        match self {
            ProxyDecision::Allow(r) => r.as_str(),
            ProxyDecision::Drop(r) => r.as_str(),
            ProxyDecision::Quarantine => "pending_proof",
        }
    }
}

/// One decision-path transition: a packet verdict, a proof arrival, or
/// a lockout or quarantine change. Every transition the proxy makes is
/// emitted exactly once, and that one emission updates [`ProxyStats`],
/// the telemetry counters and gauges, and the installed [`ProxyHook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyEvent {
    /// A packet was decided (once per [`FiatProxy::on_packet`]).
    Decided(ProxyDecision),
    /// A humanness proof arrived and was validated (`verified` is the
    /// outcome). Proofs are not tied to a device: reported as device 0,
    /// after the quarantine releases they caused.
    Proof {
        /// Whether the validator accepted the proof.
        verified: bool,
    },
    /// The device entered brute-force lockout (at packet time, retro
    /// event end, or quarantine deadline — whichever triggered it).
    LockoutEntered,
    /// A lockout was manually cleared. The §5.4 user action happens
    /// outside packet time, so it is reported at [`SimTime::ZERO`].
    LockoutCleared,
    /// A quarantine record was released by a late proof.
    QuarantineReleased {
        /// Held packets forwarded.
        packets: u64,
    },
    /// A quarantine record expired at its deadline (or was demoted by
    /// the record cap).
    QuarantineExpired {
        /// Held packets discarded.
        packets: u64,
    },
}

/// Observer for decision-path transitions, installed with
/// [`FiatProxy::set_hook`].
///
/// Hooks exist for the flight recorder (`fiat-probe`), which needs a
/// causal timeline for post-mortems. The proxy calls them with the
/// *simulated* packet clock, so a recorded timeline is deterministic
/// across runs of the same trace.
///
/// With no hook installed (the default), each emission costs one branch
/// on an `Option` — the allocation-regression test in `fiat-probe`
/// (`tests/overhead.rs`) pins the hook-free decide path at zero
/// allocations.
pub trait ProxyHook: Send {
    /// `device` made transition `ev` at `ts`.
    fn on_event(&self, ts: SimTime, device: u16, ev: ProxyEvent);
}

/// Behavioral identity verdict for one unknown device, produced by a
/// [`FingerprintGate`] once its evidence window seals (and cached for
/// every later packet of the same device).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintVerdict {
    /// Still accumulating evidence: the window has not sealed yet.
    Pending,
    /// Behavior confidently matched the signature at this index, and it
    /// is consistent with the class the device claims (or the device
    /// claims nothing recognizable).
    Match(u16),
    /// Behavior confidently matched a *different* signature than the
    /// class the device claims by its destinations — spoof suspected.
    Spoof {
        /// Signature index of the claimed class.
        claimed: u16,
        /// Signature index the behavior actually matched.
        matched: u16,
    },
    /// No signature within the confidence threshold (or the margin to
    /// the runner-up was too thin): explicit no-confident-match.
    NoMatch,
}

/// One [`FingerprintGate::observe`] result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FingerprintObservation {
    /// The verdict as of this packet.
    pub verdict: FingerprintVerdict,
    /// `true` exactly once per device: on the packet that sealed its
    /// evidence window. The proxy writes the audit entry on this edge.
    pub just_sealed: bool,
}

/// Online behavioral device-identity matcher, installed with
/// [`FiatProxy::set_fingerprinter`] and consulted for every packet of an
/// *unregistered* device when [`ProxyConfig::fingerprint_unknown`] is
/// set. The concrete matcher lives in `fiat-fingerprint`; the trait keeps
/// the dependency arrow pointing into `fiat-core`, mirroring
/// [`ProxyHook`].
pub trait FingerprintGate: Send {
    /// Fold one packet of an unknown device into its evidence window and
    /// report the current verdict. Must be deterministic and, once a
    /// device's window has sealed, allocation-free.
    fn observe(&mut self, pkt: &PacketRecord, dns: &DnsTable) -> FingerprintObservation;
    /// Entries currently held (open evidence windows + cached sealed
    /// verdicts) for [`FiatProxy::state_size`] accounting.
    fn state_size(&self) -> usize;
}

/// Pre-resolved telemetry handles for the proxy decision path.
///
/// Every handle is looked up in the [`MetricRegistry`] once, at
/// construction, so the per-packet hot path never touches the registry
/// lock — each update is a single relaxed atomic operation. The clock is
/// pluggable so real deployments time stages with the OS monotonic clock
/// while deterministic experiments drive a [`fiat_telemetry::ManualClock`].
///
/// Per-call stages (`rule_learn`, `humanness`) are timed on every call.
/// Per-packet stages (`decide`, `rule_match`, `event_grouping`,
/// `classification`) are timed on one decision in
/// [`ProxyTelemetry::STAGE_SAMPLE_EVERY`]; the rest never read the clock.
pub struct ProxyTelemetry {
    registry: MetricRegistry,
    clock: Arc<dyn Clock>,
    stage_rule_learn: Histogram,
    stage_rule_match: Histogram,
    stage_event_grouping: Histogram,
    stage_classification: Histogram,
    stage_humanness: Histogram,
    stage_decide: Histogram,
    allow_total: [Counter; AllowReason::ALL.len()],
    drop_total: [Counter; DropReason::ALL.len()],
    quarantine_total: Counter,
    quarantine_released_ctr: Counter,
    quarantine_expired_ctr: Counter,
    quarantine_depth: Gauge,
    rules_gauge: Gauge,
    open_events_gauge: Gauge,
    locked_devices_gauge: Gauge,
    devices_gauge: Gauge,
    auth_verified: Counter,
    auth_rejected: Counter,
    auth_errors: Counter,
    lockouts: Counter,
    retro_unverified: Counter,
    degraded_gauge: Gauge,
    degraded_decisions: Counter,
}

impl ProxyTelemetry {
    /// A decision's per-packet stages are timed when its index — the
    /// proxy's [`ProxyStats::total`] before it is counted — is a multiple
    /// of this. The count travels in snapshots, so a restored proxy
    /// samples the same decisions an uninterrupted one would.
    pub const STAGE_SAMPLE_EVERY: u64 = 64;

    /// Register the proxy's metrics in `registry` and time spans with
    /// `clock`.
    pub fn new(registry: MetricRegistry, clock: Arc<dyn Clock>) -> Self {
        registry.describe(
            "fiat_proxy_stage_us",
            "Decision-path stage latency in microseconds.",
        );
        registry.describe(
            "fiat_proxy_decisions_total",
            "Packets decided, by decision and reason.",
        );
        registry.describe("fiat_proxy_rules", "Learned predictability rules.");
        registry.describe(
            "fiat_proxy_open_events",
            "Unpredictable events currently open.",
        );
        registry.describe("fiat_proxy_locked_devices", "Devices currently locked out.");
        registry.describe("fiat_proxy_devices", "Registered devices.");
        registry.describe(
            "fiat_proxy_auth_total",
            "Humanness auth messages processed, by result.",
        );
        registry.describe(
            "fiat_proxy_lockouts_total",
            "Lockout episodes entered (once per episode, not per dropped packet).",
        );
        registry.describe(
            "fiat_proxy_retro_unverified_total",
            "Unverified manual episodes detected retrospectively at event closure.",
        );
        registry.describe(
            "fiat_quarantine_released_total",
            "Held packets released by a late-arriving humanness proof.",
        );
        registry.describe(
            "fiat_quarantine_expired_total",
            "Held packets demoted at their proof deadline.",
        );
        registry.describe(
            "fiat_quarantine_depth",
            "Packets currently held in quarantine.",
        );
        registry.describe(
            "fiat_proxy_degraded",
            "1 while the proxy runs in control-plane degraded mode.",
        );
        registry.describe(
            "fiat_proxy_degraded_decisions_total",
            "Packets decided while in control-plane degraded mode.",
        );
        let stage = |s: &str| registry.histogram("fiat_proxy_stage_us", &[("stage", s)]);
        let allow_total = AllowReason::ALL.map(|r| {
            registry.counter(
                "fiat_proxy_decisions_total",
                &[("decision", "allow"), ("reason", r.as_str())],
            )
        });
        let drop_total = DropReason::ALL.map(|r| {
            registry.counter(
                "fiat_proxy_decisions_total",
                &[("decision", "drop"), ("reason", r.as_str())],
            )
        });
        ProxyTelemetry {
            stage_rule_learn: stage("rule_learn"),
            stage_rule_match: stage("rule_match"),
            stage_event_grouping: stage("event_grouping"),
            stage_classification: stage("classification"),
            stage_humanness: stage("humanness"),
            stage_decide: stage("decide"),
            allow_total,
            drop_total,
            quarantine_total: registry.counter(
                "fiat_proxy_decisions_total",
                &[("decision", "quarantine"), ("reason", "pending_proof")],
            ),
            quarantine_released_ctr: registry.counter("fiat_quarantine_released_total", &[]),
            quarantine_expired_ctr: registry.counter("fiat_quarantine_expired_total", &[]),
            quarantine_depth: registry.gauge("fiat_quarantine_depth", &[]),
            rules_gauge: registry.gauge("fiat_proxy_rules", &[]),
            open_events_gauge: registry.gauge("fiat_proxy_open_events", &[]),
            locked_devices_gauge: registry.gauge("fiat_proxy_locked_devices", &[]),
            devices_gauge: registry.gauge("fiat_proxy_devices", &[]),
            auth_verified: registry.counter("fiat_proxy_auth_total", &[("result", "verified")]),
            auth_rejected: registry.counter("fiat_proxy_auth_total", &[("result", "rejected")]),
            auth_errors: registry.counter("fiat_proxy_auth_total", &[("result", "error")]),
            lockouts: registry.counter("fiat_proxy_lockouts_total", &[]),
            retro_unverified: registry.counter("fiat_proxy_retro_unverified_total", &[]),
            degraded_gauge: registry.gauge("fiat_proxy_degraded", &[]),
            degraded_decisions: registry.counter("fiat_proxy_degraded_decisions_total", &[]),
            registry,
            clock,
        }
    }

    /// Packets decided while the proxy was in degraded mode.
    pub fn degraded_decision_count(&self) -> u64 {
        self.degraded_decisions.get()
    }

    /// Lockout episodes entered so far (one per episode).
    pub fn lockout_count(&self) -> u64 {
        self.lockouts.get()
    }

    /// The registry backing these handles (for exposition).
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// The span clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Current value of the decision counter matching `d`.
    pub fn decision_count(&self, d: ProxyDecision) -> u64 {
        match d {
            ProxyDecision::Allow(r) => self.allow_total[r as usize].get(),
            ProxyDecision::Drop(r) => self.drop_total[r as usize].get(),
            ProxyDecision::Quarantine => self.quarantine_total.get(),
        }
    }

    /// Stage-latency histogram for a decision-path stage name (as used in
    /// the `stage` label), if it is one of the proxy's stages.
    pub fn stage(&self, name: &str) -> Option<&Histogram> {
        match name {
            "rule_learn" => Some(&self.stage_rule_learn),
            "rule_match" => Some(&self.stage_rule_match),
            "event_grouping" => Some(&self.stage_event_grouping),
            "classification" => Some(&self.stage_classification),
            "humanness" => Some(&self.stage_humanness),
            "decide" => Some(&self.stage_decide),
            _ => None,
        }
    }

    fn note_decision(&self, decision: ProxyDecision) {
        match decision {
            ProxyDecision::Allow(r) => self.allow_total[r as usize].inc(),
            ProxyDecision::Drop(r) => self.drop_total[r as usize].inc(),
            ProxyDecision::Quarantine => self.quarantine_total.inc(),
        }
    }

    /// Record the microseconds since `start` into `stage`, for stages
    /// timed by hand (a [`Span`] would hold a borrow of the telemetry
    /// across calls that need the whole [`EventSink`]). `None` means the
    /// decision was not sampled.
    fn record_since(&self, stage: &Histogram, start: Option<u64>) {
        if let Some(start) = start {
            stage.record(self.clock.now_micros().saturating_sub(start));
        }
    }
}

/// Where every decision-path transition lands: the counters, the
/// telemetry, the optional hook, and the audit chain. A field of its own
/// so the decision path can [`EventSink::emit`] while it holds a device
/// borrowed.
struct EventSink {
    stats: ProxyStats,
    telemetry: ProxyTelemetry,
    hook: Option<Box<dyn ProxyHook>>,
    audit: AuditLog,
}

impl EventSink {
    /// Record one transition. The only code that maps a [`ProxyEvent`]
    /// to its [`ProxyStats`] field, counter, gauge and hook call.
    #[inline]
    fn emit(&mut self, ts: SimTime, device: u16, ev: ProxyEvent) {
        let tel = &self.telemetry;
        let s = &mut self.stats;
        match ev {
            ProxyEvent::Decided(d) => {
                tel.note_decision(d);
                match d {
                    ProxyDecision::Allow(AllowReason::Bootstrap) => s.bootstrap += 1,
                    ProxyDecision::Allow(AllowReason::RuleHit) => s.rule_hit += 1,
                    ProxyDecision::Allow(AllowReason::FirstN) => s.first_n += 1,
                    ProxyDecision::Allow(AllowReason::NonManual) => s.non_manual += 1,
                    ProxyDecision::Allow(AllowReason::ManualVerified) => s.manual_verified += 1,
                    ProxyDecision::Allow(AllowReason::Cascade) => s.cascade += 1,
                    ProxyDecision::Allow(AllowReason::UnknownDevice) => s.unknown_device += 1,
                    ProxyDecision::Allow(AllowReason::QuarantineReleased) => {
                        s.quarantine_released += 1
                    }
                    ProxyDecision::Allow(AllowReason::FingerprintMatched) => {
                        s.fingerprint_matched += 1
                    }
                    ProxyDecision::Drop(DropReason::ManualUnverified) => s.dropped_unverified += 1,
                    ProxyDecision::Drop(DropReason::LockedOut) => s.dropped_lockout += 1,
                    ProxyDecision::Drop(DropReason::QuarantineExpired) => s.dropped_quarantine += 1,
                    ProxyDecision::Drop(DropReason::UnknownQuarantined) => s.dropped_unknown += 1,
                    ProxyDecision::Quarantine => {
                        s.quarantined += 1;
                        tel.quarantine_depth.inc();
                    }
                }
            }
            ProxyEvent::Proof { verified: true } => tel.auth_verified.inc(),
            ProxyEvent::Proof { verified: false } => tel.auth_rejected.inc(),
            ProxyEvent::LockoutEntered => {
                tel.locked_devices_gauge.inc();
                tel.lockouts.inc();
            }
            ProxyEvent::LockoutCleared => tel.locked_devices_gauge.dec(),
            ProxyEvent::QuarantineReleased { packets } => {
                tel.quarantine_released_ctr.add(packets);
                tel.quarantine_depth.add(-(packets as i64));
            }
            ProxyEvent::QuarantineExpired { packets } => {
                s.quarantine_expired += packets;
                tel.quarantine_expired_ctr.add(packets);
                tel.quarantine_depth.add(-(packets as i64));
            }
        }
        if let Some(h) = &self.hook {
            h.on_event(ts, device, ev);
        }
    }
}

impl Default for ProxyTelemetry {
    /// A private registry timed by a [`WallClock`] — the configuration a
    /// real deployment wants when nothing else is specified.
    fn default() -> Self {
        Self::new(MetricRegistry::new(), Arc::new(WallClock::new()))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventFate {
    // Carries the original verdict's reason so every later packet of the
    // event is attributed to it (NonManual / ManualVerified / Cascade /
    // QuarantineReleased) or to the demotion that sealed it, not lumped
    // under a single label.
    AllowRest(AllowReason),
    DropRest(DropReason),
    // Verdict pending: hold further packets with the quarantine record.
    Quarantine,
}

struct OpenEvent {
    packets: Vec<PacketRecord>,
    last: SimTime,
    fate: Option<EventFate>,
}

/// A manual-classified event held pending its humanness proof. At most
/// one per device: the proxy quarantines the first unproven manual
/// event and demotes concurrent ones immediately, bounding held memory
/// to `quarantine_capacity` packets per device. The record outlives its
/// open event (the proof may arrive after the event-gap closes it) and
/// resolves lazily — released when a proof lands before `deadline`,
/// expired by the first operation that observes `now > deadline`.
struct QuarantineRecord {
    packets: Vec<PacketRecord>,
    class: EventClass,
    deadline: SimTime,
}

struct DeviceState {
    classifier: EventClassifier,
    classify_at: usize,
    open: Option<OpenEvent>,
    drops: VecDeque<SimTime>,
    locked: bool,
    quarantine: Option<QuarantineRecord>,
}

/// The FIAT proxy.
pub struct FiatProxy {
    config: ProxyConfig,
    store: TeeKeystore,
    keys: Paired,
    quic: QuicServer,
    validator: HumannessValidator,
    devices: HashMap<u16, DeviceState>,
    dns: DnsTable,
    started_at: Option<SimTime>,
    bootstrap_buffer: Vec<PacketRecord>,
    rules: Option<RuleTable>,
    human_valid_until: SimTime,
    server_random_counter: u64,
    interactions: Option<InteractionGraph>,
    unknown_seen: HashSet<u16>,
    sink: EventSink,
    released_packets: Vec<PacketRecord>,
    fingerprinter: Option<Box<dyn FingerprintGate>>,
    degraded: bool,
}

impl FiatProxy {
    /// Build a proxy paired via `ceremony_secret`, using `validator` for
    /// humanness decisions. Telemetry goes to a private wall-clock
    /// registry; use [`FiatProxy::with_telemetry`] to share one.
    pub fn new(
        config: ProxyConfig,
        ceremony_secret: &[u8; 32],
        validator: HumannessValidator,
    ) -> Self {
        Self::with_telemetry(
            config,
            ceremony_secret,
            validator,
            ProxyTelemetry::default(),
        )
    }

    /// Build a proxy reporting into externally supplied telemetry — a
    /// shared [`MetricRegistry`] for exposition alongside other
    /// subsystems, or a simulated clock for deterministic experiments.
    pub fn with_telemetry(
        config: ProxyConfig,
        ceremony_secret: &[u8; 32],
        validator: HumannessValidator,
        telemetry: ProxyTelemetry,
    ) -> Self {
        let store = TeeKeystore::new();
        let (keys, psk) = pair(&store, ceremony_secret);
        let mut quic = QuicServer::new(psk);
        quic.set_telemetry(fiat_quic::ServerTelemetry::registered(&telemetry.registry));
        let mut audit = AuditLog::new();
        audit.set_max_entries(config.max_audit_entries);
        FiatProxy {
            config,
            store,
            keys,
            quic,
            validator,
            devices: HashMap::new(),
            dns: DnsTable::new(),
            started_at: None,
            bootstrap_buffer: Vec::new(),
            rules: None,
            human_valid_until: SimTime::ZERO,
            server_random_counter: 0,
            interactions: None,
            unknown_seen: HashSet::new(),
            sink: EventSink {
                stats: ProxyStats::default(),
                telemetry,
                hook: None,
                audit,
            },
            released_packets: Vec::new(),
            fingerprinter: None,
            degraded: false,
        }
    }

    /// Install a decision-path observer (see [`ProxyHook`]). Probing is
    /// opt-in: without this call every emission's hook call is a single
    /// branch on `None`.
    pub fn set_hook(&mut self, hook: Box<dyn ProxyHook>) {
        self.sink.hook = Some(hook);
    }

    /// Install a behavioral fingerprint gate for unknown-MAC traffic
    /// (see [`FingerprintGate`]). The gate only takes effect when
    /// [`ProxyConfig::fingerprint_unknown`] is also set, so installing
    /// one under the default config changes nothing.
    pub fn set_fingerprinter(&mut self, gate: Box<dyn FingerprintGate>) {
        self.fingerprinter = Some(gate);
    }

    /// Decision counters accumulated since start.
    pub fn stats(&self) -> ProxyStats {
        self.sink.stats
    }

    /// The proxy's telemetry handles (registry, decision counters, stage
    /// histograms).
    pub fn telemetry(&self) -> &ProxyTelemetry {
        &self.sink.telemetry
    }

    /// Install a device-interaction DAG (§7 "Complex Scenarios"): manual
    /// traffic toward a target device is allowed while one of its
    /// triggers has a recently authorized event.
    pub fn set_interactions(&mut self, graph: InteractionGraph) {
        self.interactions = Some(graph);
    }

    /// Register a device: its classifier and command-completion threshold
    /// N (the first-N allowance is `min(N, CLASSIFY_AT_CAP)`; for N = 1
    /// devices the very first packet is held for an instant verdict).
    pub fn register_device(
        &mut self,
        device: u16,
        classifier: EventClassifier,
        min_packets_to_complete: usize,
    ) {
        let classify_at = min_packets_to_complete.clamp(1, CLASSIFY_AT_CAP);
        let prev = self.devices.insert(
            device,
            DeviceState {
                classifier,
                classify_at,
                open: None,
                drops: VecDeque::new(),
                locked: false,
                quarantine: None,
            },
        );
        let tel = &self.sink.telemetry;
        if prev.as_ref().is_some_and(|d| d.locked) {
            tel.locked_devices_gauge.dec();
        }
        if prev.as_ref().is_some_and(|d| d.open.is_some()) {
            tel.open_events_gauge.dec();
        }
        if let Some(q) = prev.as_ref().and_then(|d| d.quarantine.as_ref()) {
            // Re-registration discards any pending quarantine with the
            // rest of the device state; keep the depth gauge honest.
            tel.quarantine_depth.add(-(q.packets.len() as i64));
        }
        tel.devices_gauge.set(self.devices.len() as i64);
    }

    /// Provide DNS knowledge (the proxy observes DNS responses on-path).
    pub fn set_dns(&mut self, dns: DnsTable) {
        self.dns = dns;
    }

    /// Begin operation: bootstrap runs until `now + config.bootstrap`.
    pub fn start(&mut self, now: SimTime) {
        self.started_at = Some(now);
    }

    /// Learned rule count (0 until bootstrap completes).
    pub fn rule_count(&self) -> usize {
        self.rules.as_ref().map_or(0, |r| r.len())
    }

    /// The audit log.
    pub fn audit(&self) -> &AuditLog {
        &self.sink.audit
    }

    /// Sample the entry count of every growable state surface — the
    /// long-horizon soak's accountant calls this on a simulated-time
    /// cadence and asserts [`StateSize::total`] against a hard budget.
    pub fn state_size(&self) -> StateSize {
        let mut size = StateSize {
            rules: self.rules.as_ref().map_or(0, |r| r.len()),
            rule_ghosts: self.rules.as_ref().map_or(0, |r| r.ghost_len()),
            audit_entries: self.sink.audit.entries().len(),
            replay_tickets: self.quic.replay_store().tickets(),
            replay_entries: self.quic.replay_store().total_entries(),
            replay_epochs: self.quic.replay_store().live_epochs().len(),
            bootstrap_buffered: self.bootstrap_buffer.len(),
            released_pending: self.released_packets.len(),
            fingerprint_evidence: self.fingerprinter.as_ref().map_or(0, |g| g.state_size()),
            ..StateSize::default()
        };
        for dev in self.devices.values() {
            if let Some(open) = &dev.open {
                size.open_events += 1;
                size.open_packets += open.packets.len();
            }
            if let Some(q) = &dev.quarantine {
                size.quarantine_records += 1;
                size.quarantine_held += q.packets.len();
            }
        }
        size
    }

    /// Whether a device is locked out.
    pub fn is_locked(&self, device: u16) -> bool {
        self.devices.get(&device).is_some_and(|d| d.locked)
    }

    /// Manually clear a lockout (the §5.4 user verification). Also closes
    /// the device's open event: its fate was `DropRest`, and leaving it
    /// open would keep dropping traffic as `ManualUnverified` until the
    /// event gap expires — the user just vouched for the device.
    ///
    /// A pending quarantine record is deliberately *not* touched: the
    /// user vouched for the device being safe to re-enable, not for the
    /// specific held command, which still needs its proof (or expires at
    /// its deadline as usual).
    pub fn clear_lockout(&mut self, device: u16) {
        if let Some(d) = self.devices.get_mut(&device) {
            if d.locked {
                self.sink
                    .emit(SimTime::ZERO, device, ProxyEvent::LockoutCleared);
            }
            d.locked = false;
            d.drops.clear();
            if d.open.take().is_some() {
                self.sink.telemetry.open_events_gauge.dec();
            }
        }
    }

    /// Enter or leave control-plane degraded mode. While degraded the
    /// proxy keeps deciding against its last-known-good key epochs
    /// (rotation and retirement are the control plane's job, so the
    /// epoch window simply freezes), but every decision is flagged in
    /// telemetry and the transition itself is committed to the audit
    /// chain under the [`AUDIT_PROXY_DEVICE`] sentinel. Idempotent:
    /// repeating the current state records nothing.
    pub fn set_degraded(&mut self, now: SimTime, degraded: bool) {
        if self.degraded == degraded {
            return;
        }
        self.degraded = degraded;
        if degraded {
            self.sink.telemetry.degraded_gauge.inc();
        } else {
            self.sink.telemetry.degraded_gauge.dec();
        }
        self.sink.audit.append(AuditEntry {
            ts: now,
            device: AUDIT_PROXY_DEVICE,
            // The transition is proxy-wide; Control is the neutral class
            // for non-event audit entries.
            class: EventClass::Control,
            verdict: if degraded {
                AuditVerdict::DegradedModeEntered
            } else {
                AuditVerdict::DegradedModeExited
            },
        });
    }

    /// Whether the proxy is in control-plane degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Epoch new session tickets are issued under.
    pub fn ticket_epoch(&self) -> u32 {
        self.quic.current_epoch()
    }

    /// Oldest ticket epoch still accepted for 0-RTT.
    pub fn oldest_live_epoch(&self) -> u32 {
        self.quic.oldest_live_epoch()
    }

    /// Rotate to a fresh ticket epoch (a control-plane action). Old
    /// epochs keep working until retired, so rotation alone never
    /// breaks a client's 0-RTT.
    pub fn rotate_ticket_epoch(&mut self) -> u32 {
        self.quic.rotate_epoch()
    }

    /// Retire ticket epochs below `min_live`, dropping their replay
    /// state wholesale (bounded memory). A 0-RTT proof under a retired
    /// epoch is answered `RetiredEpoch`, which the app treats as
    /// fall-back-to-1-RTT. Returns how many epochs were newly retired.
    pub fn retire_ticket_epochs_below(&mut self, min_live: u32) -> u32 {
        self.quic.retire_epochs_below(min_live)
    }

    /// Export the proxy's full decision state as a versioned
    /// [`HomeSnapshot`] (see `crate::snapshot` for format guarantees).
    /// Every collection is emitted sorted, so the same state always
    /// serializes to the same bytes.
    pub fn snapshot(&self) -> HomeSnapshot {
        let mut devices: Vec<DeviceSnapshot> = self
            .devices
            .iter()
            .map(|(&id, d)| DeviceSnapshot {
                device: id,
                classify_at: d.classify_at,
                open: d.open.as_ref().map(|e| OpenEventSnapshot {
                    packets: e.packets.clone(),
                    last: e.last,
                    fate: e.fate.map(|f| match f {
                        EventFate::AllowRest(r) => EventFateSnapshot::AllowRest(r),
                        EventFate::DropRest(r) => EventFateSnapshot::DropRest(r),
                        EventFate::Quarantine => EventFateSnapshot::Quarantine,
                    }),
                }),
                drops: d.drops.iter().copied().collect(),
                locked: d.locked,
                quarantine: d.quarantine.as_ref().map(|q| QuarantineSnapshot {
                    packets: q.packets.clone(),
                    class: q.class,
                    deadline: q.deadline,
                }),
            })
            .collect();
        devices.sort_by_key(|d| d.device);
        // LRU order (not sorted): eviction order is semantic state.
        let rules = self.rules.as_ref().map(|table| {
            table
                .export_lru()
                .into_iter()
                .map(|(dev, key)| (dev, key.resolve(&self.dns)))
                .collect::<Vec<(u16, FlowKey)>>()
        });
        let rule_ghosts = self
            .rules
            .as_ref()
            .map(|table| {
                table
                    .export_ghosts()
                    .into_iter()
                    .map(|g| GhostSnapshot {
                        device: g.device,
                        key: g.key.resolve(&self.dns),
                        last_ts: g.last_ts,
                        last_bin: g.last_bin,
                    })
                    .collect::<Vec<GhostSnapshot>>()
            })
            .unwrap_or_default();
        let mut unknown_seen: Vec<u16> = self.unknown_seen.iter().copied().collect();
        unknown_seen.sort_unstable();
        let audit = &self.sink.audit;
        HomeSnapshot {
            version: SNAPSHOT_VERSION,
            started_at: self.started_at,
            human_valid_until: self.human_valid_until,
            server_random_counter: self.server_random_counter,
            degraded: self.degraded,
            dns: self.dns.clone(),
            bootstrap_buffer: self.bootstrap_buffer.clone(),
            rules,
            rule_ghosts,
            unknown_seen,
            devices,
            released_packets: self.released_packets.clone(),
            stats: self.sink.stats,
            audit_entries: audit.entries().to_vec(),
            audit_hashes: audit.hashes().iter().map(|h| h.to_vec()).collect(),
            audit_checkpoint: audit.checkpoint().map(|c| c.to_vec()),
            audit_truncated: audit.truncated(),
            quic: (&self.quic.to_image()).into(),
        }
    }

    /// Rebuild a proxy from a [`HomeSnapshot`] and resume deciding.
    ///
    /// `ceremony_secret` must be the secret the snapshotted proxy was
    /// paired with: the pairing PSK (and with it the per-epoch ticket
    /// secrets clients hold) is re-derived, so issued 0-RTT tickets keep
    /// working across the restore. The 1-RTT session key is deliberately
    /// not part of a snapshot — clients re-handshake for 1-RTT.
    /// `classifiers` re-supplies each device's classifier (model weights
    /// are provisioning data, not state).
    ///
    /// Restore is telemetry-silent: gauges and counters in `telemetry`
    /// are *not* replayed, because the registry that witnessed the
    /// pre-snapshot traffic already counted it. A fleet that folds the
    /// old and new registries additively gets totals byte-identical to
    /// an uninterrupted run — the invariant the fleet rebalance tests
    /// pin. The interaction graph and any hook are not captured in v1;
    /// re-install them after restore if the home uses them.
    pub fn restore(
        config: ProxyConfig,
        ceremony_secret: &[u8; 32],
        validator: HumannessValidator,
        telemetry: ProxyTelemetry,
        snap: &HomeSnapshot,
        mut classifiers: impl FnMut(u16) -> EventClassifier,
    ) -> Result<Self, SnapshotError> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(snap.version));
        }
        let hashes: Vec<[u8; 32]> = snap
            .audit_hashes
            .iter()
            .map(|h| <[u8; 32]>::try_from(h.as_slice()))
            .collect::<Result<_, _>>()
            .map_err(|_| SnapshotError::AuditChainInvalid)?;
        let checkpoint = snap
            .audit_checkpoint
            .as_ref()
            .map(|c| <[u8; 32]>::try_from(c.as_slice()))
            .transpose()
            .map_err(|_| SnapshotError::AuditChainInvalid)?;
        let mut audit = AuditLog::from_parts_at(
            checkpoint,
            snap.audit_truncated,
            snap.audit_entries.clone(),
            hashes,
        )
        .ok_or(SnapshotError::AuditChainInvalid)?;
        audit.set_max_entries(config.max_audit_entries);
        let store = TeeKeystore::new();
        let (keys, psk) = pair(&store, ceremony_secret);
        let mut quic = QuicServer::new(psk);
        quic.set_telemetry(fiat_quic::ServerTelemetry::registered(&telemetry.registry));
        quic.restore_image(&(&snap.quic).into());
        let mut dns = snap.dns.clone();
        let rules = snap.rules.as_ref().map(|list| {
            let mut table =
                RuleTable::with_telemetry(RuleTelemetry::registered(&telemetry.registry));
            table.set_tolerance(config.tolerance);
            // LRU order: inserts re-assign fresh stamps 0..n, preserving
            // the snapshotted relative eviction order. Ghosts restored
            // before the cap is applied so nothing is spuriously evicted.
            for (device, key) in list {
                let ikey = key.intern(&mut dns);
                table.insert(*device, ikey);
            }
            for g in &snap.rule_ghosts {
                let ikey = g.key.intern(&mut dns);
                table.insert_ghost(crate::predict::GhostState {
                    device: g.device,
                    key: ikey,
                    last_ts: g.last_ts,
                    last_bin: g.last_bin,
                });
            }
            table.set_capacity(config.max_rules);
            table
        });
        let devices = snap
            .devices
            .iter()
            .map(|d| {
                (
                    d.device,
                    DeviceState {
                        classifier: classifiers(d.device),
                        classify_at: d.classify_at,
                        open: d.open.as_ref().map(|e| OpenEvent {
                            packets: e.packets.clone(),
                            last: e.last,
                            fate: e.fate.map(|f| match f {
                                EventFateSnapshot::AllowRest(r) => EventFate::AllowRest(r),
                                EventFateSnapshot::DropRest(r) => EventFate::DropRest(r),
                                EventFateSnapshot::Quarantine => EventFate::Quarantine,
                            }),
                        }),
                        drops: d.drops.iter().copied().collect(),
                        locked: d.locked,
                        quarantine: d.quarantine.as_ref().map(|q| QuarantineRecord {
                            packets: q.packets.clone(),
                            class: q.class,
                            deadline: q.deadline,
                        }),
                    },
                )
            })
            .collect();
        Ok(FiatProxy {
            config,
            store,
            keys,
            quic,
            validator,
            devices,
            dns,
            started_at: snap.started_at,
            bootstrap_buffer: snap.bootstrap_buffer.clone(),
            rules,
            human_valid_until: snap.human_valid_until,
            server_random_counter: snap.server_random_counter,
            interactions: None,
            unknown_seen: snap.unknown_seen.iter().copied().collect(),
            sink: EventSink {
                stats: snap.stats,
                telemetry,
                hook: None,
                audit,
            },
            released_packets: snap.released_packets.clone(),
            // Like the hook and interaction graph, the fingerprint gate
            // is runtime wiring, not snapshotted state — re-install it
            // after restore. Its evidence windows restart from empty.
            fingerprinter: None,
            degraded: snap.degraded,
        })
    }

    /// Accept the app's handshake and issue a ticket.
    pub fn accept_handshake(&mut self, hello: &ClientHello) -> ServerHello {
        self.server_random_counter += 1;
        let mut random = [0u8; 32];
        random[..8].copy_from_slice(&self.server_random_counter.to_be_bytes());
        self.quic.accept(hello, random)
    }

    /// Process a 0-RTT auth message; returns `Ok(true)` if humanness was
    /// verified (and the validity window refreshed).
    pub fn on_auth_zero_rtt(
        &mut self,
        pkt: &ZeroRttPacket,
        now: SimTime,
    ) -> Result<bool, AuthError> {
        let payload = match self.quic.accept_zero_rtt(pkt) {
            Ok(p) => p,
            Err(e) => {
                self.sink.telemetry.auth_errors.inc();
                return Err(AuthError::Transport(e));
            }
        };
        self.verify_and_validate(&payload, now)
    }

    /// Process a 1-RTT auth message.
    pub fn on_auth_one_rtt(
        &mut self,
        pkt: &fiat_quic::Packet,
        now: SimTime,
    ) -> Result<bool, AuthError> {
        let payload = match self.quic.open(pkt) {
            Ok(p) => p,
            Err(e) => {
                self.sink.telemetry.auth_errors.inc();
                return Err(AuthError::Transport(e));
            }
        };
        self.verify_and_validate(&payload, now)
    }

    fn verify_and_validate(&mut self, payload: &[u8], now: SimTime) -> Result<bool, AuthError> {
        let Some((msg_bytes, tag)) = FiatApp::split_payload(payload) else {
            self.sink.telemetry.auth_errors.inc();
            return Err(AuthError::Malformed);
        };
        if !self
            .store
            .verify(self.keys.sign_key, msg_bytes, tag)
            .expect("sealed sign key")
        {
            self.sink.telemetry.auth_errors.inc();
            return Err(AuthError::BadSignature);
        }
        let Some(msg) = AuthMessage::decode(msg_bytes) else {
            self.sink.telemetry.auth_errors.inc();
            return Err(AuthError::Malformed);
        };
        let tel = &self.sink.telemetry;
        let span = Span::enter(&tel.stage_humanness, &*tel.clock);
        let human = self.validator.validate_features(&msg.features, msg.truth);
        span.exit();
        if human {
            self.human_valid_until = now + self.config.human_valid_window;
            if self.config.proof_deadline.is_some() {
                self.resolve_quarantines(now);
            }
        }
        self.sink
            .emit(now, 0, ProxyEvent::Proof { verified: human });
        Ok(human)
    }

    /// A fresh humanness proof just landed: resolve every pending
    /// quarantine — release records still within their deadline, expire
    /// the ones the proof missed. Devices are visited in sorted id order
    /// so the audit trail is deterministic.
    fn resolve_quarantines(&mut self, now: SimTime) {
        let mut ids: Vec<u16> = self
            .devices
            .iter()
            .filter(|(_, d)| d.quarantine.is_some())
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            let dev = self.devices.get_mut(&id).expect("id from keys()");
            let deadline = dev.quarantine.as_ref().expect("filtered above").deadline;
            if now > deadline {
                dev.expire_quarantine(id, now, &self.config, &mut self.sink);
                continue;
            }
            let q = dev.quarantine.take().expect("filtered above");
            let packets = q.packets.len() as u64;
            self.sink
                .emit(now, id, ProxyEvent::QuarantineReleased { packets });
            self.released_packets.extend(q.packets);
            self.sink.audit.append(AuditEntry {
                ts: now,
                device: id,
                class: q.class,
                verdict: AuditVerdict::QuarantineReleased,
            });
            if let Some(g) = &mut self.interactions {
                g.record_authorized(id, now);
            }
            if let Some(open) = &mut dev.open {
                if open.fate == Some(EventFate::Quarantine) {
                    open.fate = Some(EventFate::AllowRest(AllowReason::QuarantineReleased));
                }
            }
        }
    }

    /// Drain packets released from quarantine since the last call, in
    /// release order. The caller (the interception layer) forwards them:
    /// a released command reaches the device late, but reaches it.
    pub fn take_quarantine_releases(&mut self) -> Vec<PacketRecord> {
        std::mem::take(&mut self.released_packets)
    }

    /// Whether a humanness proof is currently fresh.
    pub fn human_fresh(&self, now: SimTime) -> bool {
        now <= self.human_valid_until
    }

    /// Decide one intercepted packet (timestamped by its `ts`).
    pub fn on_packet(&mut self, pkt: &PacketRecord) -> ProxyDecision {
        let sampled = self
            .sink
            .stats
            .total()
            .is_multiple_of(ProxyTelemetry::STAGE_SAMPLE_EVERY);
        let start = sampled.then(|| self.sink.telemetry.clock.now_micros());
        let d = self.decide(pkt, sampled);
        let tel = &self.sink.telemetry;
        tel.record_since(&tel.stage_decide, start);
        if self.degraded {
            tel.degraded_decisions.inc();
        }
        self.sink.emit(pkt.ts, pkt.device, ProxyEvent::Decided(d));
        d
    }

    /// Decide `pkt`; `sampled` times its per-packet stages.
    fn decide(&mut self, pkt: &PacketRecord, sampled: bool) -> ProxyDecision {
        let now = pkt.ts;
        let started = self.started_at.expect("proxy not started");

        if self.devices.get(&pkt.device).is_some_and(|d| d.locked) {
            return ProxyDecision::Drop(DropReason::LockedOut);
        }

        // Bootstrap: allow and learn.
        if now - started < self.config.bootstrap {
            self.bootstrap_buffer.push(pkt.clone());
            return ProxyDecision::Allow(AllowReason::Bootstrap);
        }
        if self.rules.is_none() {
            let tel = &self.sink.telemetry;
            let span = Span::enter(&tel.stage_rule_learn, &*tel.clock);
            let engine = PredictabilityEngine::new(self.config.flow_def)
                .with_tolerance(self.config.tolerance);
            let mut rules = RuleTable::learn_instrumented(
                &engine,
                &self.bootstrap_buffer,
                &self.dns,
                RuleTelemetry::registered(&self.sink.telemetry.registry),
            );
            rules.set_capacity(self.config.max_rules);
            span.exit();
            self.sink.telemetry.rules_gauge.set(rules.len() as i64);
            self.rules = Some(rules);
            self.bootstrap_buffer.clear();
            self.bootstrap_buffer.shrink_to_fit();
        }

        // Rule hit: predictable. The touch variant refreshes the rule's
        // LRU stamp (bounded mode evicts least-recently-matched) and
        // advances the ghost re-learn path on misses of evicted keys.
        let hit = {
            let tel = &self.sink.telemetry;
            let _span = sampled.then(|| Span::enter(&tel.stage_rule_match, &*tel.clock));
            self.rules.as_mut().expect("rules learned").matches_touch(
                self.config.flow_def,
                pkt,
                &self.dns,
            )
        };
        if hit {
            return ProxyDecision::Allow(AllowReason::RuleHit);
        }

        // Unpredictable: event path.
        let human_fresh = now <= self.human_valid_until;
        let gap = self.config.event_gap;
        let Some(dev) = self.devices.get_mut(&pkt.device) else {
            // Unknown device. With the fingerprint gate enabled its
            // traffic is identified behaviorally: packets are allowed
            // while evidence accumulates (bounded window, so an attacker
            // cannot complete a long command before the verdict), then
            // the sealed verdict — matched / spoof-suspected / no match
            // — decides every later packet. One audit entry per device,
            // written on the sealing edge.
            if self.config.fingerprint_unknown {
                if let Some(gate) = self.fingerprinter.as_mut() {
                    let obs = gate.observe(pkt, &self.dns);
                    if obs.just_sealed {
                        let verdict = match obs.verdict {
                            FingerprintVerdict::Match(_) => AuditVerdict::FingerprintMatched,
                            FingerprintVerdict::Spoof { .. } => AuditVerdict::SpoofSuspected,
                            _ => AuditVerdict::UnknownQuarantined,
                        };
                        self.sink.audit.append(AuditEntry {
                            ts: now,
                            device: pkt.device,
                            class: EventClass::Control,
                            verdict,
                        });
                    }
                    return match obs.verdict {
                        FingerprintVerdict::Pending => {
                            ProxyDecision::Allow(AllowReason::UnknownDevice)
                        }
                        FingerprintVerdict::Match(_) => {
                            ProxyDecision::Allow(AllowReason::FingerprintMatched)
                        }
                        FingerprintVerdict::Spoof { .. } | FingerprintVerdict::NoMatch => {
                            ProxyDecision::Drop(DropReason::UnknownQuarantined)
                        }
                    };
                }
            }
            // Legacy path: fail open during incremental deployment,
            // attributed to its own reason (not FirstN) so the stat and
            // per-reason counter stay honest. Audited once per device at
            // first sighting so the operator can see which devices
            // bypass enforcement entirely; per-packet entries would let
            // an unenrolled chatty device flood the hash chain.
            if self.unknown_seen.insert(pkt.device) {
                self.sink.audit.append(AuditEntry {
                    ts: now,
                    device: pkt.device,
                    // No classifier to consult; Control is the neutral
                    // placeholder class for unclassified traffic.
                    class: EventClass::Control,
                    verdict: AuditVerdict::AllowedUnknownDevice,
                });
            }
            return ProxyDecision::Allow(AllowReason::UnknownDevice);
        };

        // Lazily expire this device's quarantine before anything else
        // observes `now`: the packet that reveals the deadline has passed
        // must see the post-expiry world (sealed fate, lockout credit),
        // exactly as if a timer had fired at the deadline.
        if dev.quarantine.as_ref().is_some_and(|q| now > q.deadline) {
            dev.expire_quarantine(pkt.device, now, &self.config, &mut self.sink);
            if dev.locked {
                return ProxyDecision::Drop(DropReason::LockedOut);
            }
        }

        // Close a stale event. If it ended below the first-N window it
        // never met the classifier; give it its retrospective verdict.
        let grouping = sampled.then(|| self.sink.telemetry.clock.now_micros());
        if dev.open.as_ref().is_some_and(|e| now - e.last >= gap) {
            let stale = dev.open.take().expect("presence checked above");
            self.sink.telemetry.open_events_gauge.dec();
            if stale.fate.is_none() {
                dev.retro_close(
                    pkt.device,
                    stale,
                    &self.config,
                    self.human_valid_until,
                    self.interactions.as_ref(),
                    &mut self.sink,
                );
                // The retrospective episode may have been the one that
                // locked the device; the packet that exposed it must not
                // open a fresh event.
                if dev.locked {
                    let tel = &self.sink.telemetry;
                    tel.record_since(&tel.stage_event_grouping, grouping);
                    return ProxyDecision::Drop(DropReason::LockedOut);
                }
            }
        }
        if dev.open.is_none() {
            self.sink.telemetry.open_events_gauge.inc();
        }
        let open = dev.open.get_or_insert_with(|| OpenEvent {
            packets: Vec::new(),
            last: now,
            fate: None,
        });
        // Record the packet only while the verdict is pending: packets
        // are read exactly at the classification point (or at a retro
        // close, both fate-`None` paths), so accumulating them after the
        // fate is sealed was pure unbounded growth — a single long-lived
        // chatty event would hold every packet it ever sent (and a
        // quarantined one stored each held packet twice). Found by the
        // long-horizon soak's state accountant.
        if open.fate.is_none() {
            open.packets.push(pkt.clone());
        }
        // High-water mark, mirroring `events::group_events`: a backwards
        // (reordered) packet joins the open event — its saturating gap is
        // zero — but must not rewind `last`, or the next in-order packet
        // measures an inflated gap and spuriously closes the event.
        open.last = open.last.max(now);
        let tel = &self.sink.telemetry;
        tel.record_since(&tel.stage_event_grouping, grouping);

        if let Some(fate) = open.fate {
            return match fate {
                EventFate::AllowRest(reason) => ProxyDecision::Allow(reason),
                EventFate::DropRest(reason) => ProxyDecision::Drop(reason),
                EventFate::Quarantine => {
                    let q = dev
                        .quarantine
                        .as_mut()
                        .expect("quarantine fate implies a live record");
                    if q.packets.len() < self.config.quarantine_capacity {
                        q.packets.push(pkt.clone());
                        ProxyDecision::Quarantine
                    } else {
                        // Capacity overflow: shed the packet. No audit
                        // entry and no lockout credit — the episode is
                        // already pending exactly one verdict.
                        ProxyDecision::Drop(DropReason::ManualUnverified)
                    }
                }
            };
        }

        if open.packets.len() < dev.classify_at {
            return ProxyDecision::Allow(AllowReason::FirstN);
        }

        // Classification point reached.
        let ev = UnpredictableEvent {
            device: pkt.device,
            packets: (0..open.packets.len()).collect(),
            start: open.packets[0].ts,
            end: open.last,
        };
        let class = {
            let tel = &self.sink.telemetry;
            let _span = sampled.then(|| Span::enter(&tel.stage_classification, &*tel.clock));
            dev.classifier.classify_event(&ev, &open.packets)
        };
        if !class.is_manual() {
            open.fate = Some(EventFate::AllowRest(AllowReason::NonManual));
            self.sink.audit.append(AuditEntry {
                ts: now,
                device: pkt.device,
                class,
                verdict: AuditVerdict::AllowedNonManual,
            });
            return ProxyDecision::Allow(AllowReason::NonManual);
        }

        if human_fresh {
            open.fate = Some(EventFate::AllowRest(AllowReason::ManualVerified));
            if let Some(g) = &mut self.interactions {
                g.record_authorized(pkt.device, now);
            }
            self.sink.audit.append(AuditEntry {
                ts: now,
                device: pkt.device,
                class,
                verdict: AuditVerdict::AllowedManualVerified,
            });
            return ProxyDecision::Allow(AllowReason::ManualVerified);
        }

        // No direct humanness proof: an interaction-graph cascade (Alexa
        // -> light) can still vouch for this device.
        if self
            .interactions
            .as_ref()
            .is_some_and(|g| g.cascade_covers(pkt.device, now))
        {
            open.fate = Some(EventFate::AllowRest(AllowReason::Cascade));
            if let Some(g) = &mut self.interactions {
                g.record_authorized(pkt.device, now);
            }
            self.sink.audit.append(AuditEntry {
                ts: now,
                device: pkt.device,
                class,
                verdict: AuditVerdict::AllowedCascade,
            });
            return ProxyDecision::Allow(AllowReason::Cascade);
        }

        // Unverified manual event. With quarantine enabled the proof may
        // merely be late (lost frame, retry in flight): hold the event
        // pending its deadline instead of demoting it — unless this
        // device already has a verdict pending, which bounds held state
        // to one record per device and keeps a concurrent second event
        // on today's immediate-demotion path.
        let quarantine_slot_free = dev.quarantine.is_none();
        if let Some(deadline) = self.config.proof_deadline {
            if quarantine_slot_free {
                // Admission ends the per-device borrow: the home-wide
                // record cap is counted (and enforced) across *all*
                // devices before this record joins.
                if let Some(cap) = self.config.max_quarantine_records {
                    let live = self
                        .devices
                        .values()
                        .filter(|d| d.quarantine.is_some())
                        .count();
                    if live >= cap.max(1) {
                        self.demote_oldest_quarantine(now);
                    }
                }
                let dev = self.devices.get_mut(&pkt.device).expect("registered above");
                dev.quarantine = Some(QuarantineRecord {
                    packets: vec![pkt.clone()],
                    class,
                    deadline: now + deadline,
                });
                if let Some(open) = &mut dev.open {
                    open.fate = Some(EventFate::Quarantine);
                }
                return ProxyDecision::Quarantine;
            }
        }

        // Drop and count toward lockout.
        open.fate = Some(EventFate::DropRest(DropReason::ManualUnverified));
        let locked = dev.credit_unverified(pkt.device, now, &self.config, &mut self.sink);
        self.sink.audit.append(AuditEntry {
            ts: now,
            device: pkt.device,
            class,
            verdict: if locked {
                AuditVerdict::LockedOut
            } else {
                AuditVerdict::DroppedUnverified
            },
        });
        ProxyDecision::Drop(DropReason::ManualUnverified)
    }

    /// Enforce [`ProxyConfig::max_quarantine_records`]: demote the live
    /// record with the oldest deadline (ties: lowest device id) exactly
    /// as if its deadline had passed. The episode is credited at
    /// `min(now, deadline)` — early demotion must never stamp a *future*
    /// time into the monotone lockout window.
    fn demote_oldest_quarantine(&mut self, now: SimTime) {
        let mut victim: Option<(SimTime, u16)> = None;
        for (&id, d) in &self.devices {
            if let Some(q) = &d.quarantine {
                let cand = (q.deadline, id);
                if victim.is_none_or(|v| cand < v) {
                    victim = Some(cand);
                }
            }
        }
        let Some((_, id)) = victim else { return };
        let dev = self.devices.get_mut(&id).expect("victim from scan");
        dev.expire_quarantine(id, now, &self.config, &mut self.sink);
    }

    /// Close every open event whose gap has expired by `now`, applying
    /// the same retrospective classification as the packet path. Call at
    /// the end of a capture so trailing sub-window events still reach
    /// the audit log and the lockout counter.
    pub fn flush(&mut self, now: SimTime) {
        let gap = self.config.event_gap;
        let mut ids: Vec<u16> = self.devices.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let dev = self.devices.get_mut(&id).expect("id from keys()");
            // Expire overdue quarantines first, for the same reason the
            // packet path does: the expiry (and any lockout it causes)
            // happened at the deadline, before this flush.
            if dev.quarantine.as_ref().is_some_and(|q| now > q.deadline) {
                dev.expire_quarantine(id, now, &self.config, &mut self.sink);
            }
            if dev.open.as_ref().is_some_and(|e| now - e.last >= gap) {
                let stale = dev.open.take().expect("presence checked above");
                self.sink.telemetry.open_events_gauge.dec();
                if stale.fate.is_none() {
                    dev.retro_close(
                        id,
                        stale,
                        &self.config,
                        self.human_valid_until,
                        self.interactions.as_ref(),
                        &mut self.sink,
                    );
                }
            }
        }
    }
}

impl DeviceState {
    /// Record an unverified-manual episode at `at` into the sliding
    /// lockout window, prune expired entries, and lock the device when
    /// the window exceeds the tolerance — the one place a lockout is
    /// entered. Returns whether the window is over the tolerance.
    ///
    /// Episode times are clamped to a monotone high-water mark — with
    /// reordered packets (or a retro closure of an old event) `at` can
    /// precede the newest recorded episode, and a non-monotone deque
    /// would break the front-pruning: `SimTime` subtraction saturates, so
    /// an old `at` reads every gap as zero and stale episodes would never
    /// expire.
    fn credit_unverified(
        &mut self,
        device: u16,
        at: SimTime,
        config: &ProxyConfig,
        sink: &mut EventSink,
    ) -> bool {
        let drops = &mut self.drops;
        let at = drops.back().map_or(at, |&newest| newest.max(at));
        drops.push_back(at);
        while drops
            .front()
            .is_some_and(|&t| at - t > config.lockout_window)
        {
            drops.pop_front();
        }
        let over = drops.len() as u32 > config.lockout_threshold;
        if over && !self.locked {
            self.locked = true;
            sink.emit(at, device, ProxyEvent::LockoutEntered);
        }
        over
    }

    /// Demote an expired (or cap-demoted) quarantine record: the held
    /// packets are discarded, the episode counts toward the lockout
    /// window, and the open event (if still this one) seals as
    /// `QuarantineExpired`. The episode time is `min(now, deadline)`:
    /// for a lazy expiry (`now` past the deadline) that is the deadline
    /// itself — resolution is lazy, the outcome must not depend on when
    /// it is observed — while a record-cap demotion lands before its
    /// deadline and is credited at the demotion time, never a future
    /// timestamp that would poison the monotone lockout clamp.
    fn expire_quarantine(
        &mut self,
        device: u16,
        now: SimTime,
        config: &ProxyConfig,
        sink: &mut EventSink,
    ) {
        let q = self.quarantine.take().expect("caller checked presence");
        let at = now.min(q.deadline);
        let packets = q.packets.len() as u64;
        sink.emit(at, device, ProxyEvent::QuarantineExpired { packets });
        self.credit_unverified(device, at, config, sink);
        sink.audit.append(AuditEntry {
            ts: at,
            device,
            class: q.class,
            verdict: AuditVerdict::QuarantineExpired,
        });
        if let Some(open) = &mut self.open {
            if open.fate == Some(EventFate::Quarantine) {
                open.fate = Some(EventFate::DropRest(DropReason::QuarantineExpired));
            }
        }
    }

    /// Retrospective verdict for an event that closed before reaching
    /// its classification point. The packets already left the proxy, so
    /// an unverified manual outcome cannot drop anything — but it is
    /// audited at the event's end time and counts toward the brute-force
    /// lockout, which is what defeats fragment-and-pause evasion.
    /// (Verified/cascade outcomes deliberately do not refresh the
    /// interaction graph: the event is already over.)
    fn retro_close(
        &mut self,
        device: u16,
        event: OpenEvent,
        config: &ProxyConfig,
        human_valid_until: SimTime,
        interactions: Option<&InteractionGraph>,
        sink: &mut EventSink,
    ) {
        let end = event.last;
        let ev = UnpredictableEvent {
            device,
            packets: (0..event.packets.len()).collect(),
            start: event.packets[0].ts,
            end,
        };
        let class = self.classifier.classify_event(&ev, &event.packets);
        let verdict = if !class.is_manual() {
            AuditVerdict::AllowedNonManual
        } else if end <= human_valid_until
            || interactions.is_some_and(|g| g.cascade_covers(device, end))
        {
            AuditVerdict::AllowedManualVerified
        } else {
            sink.telemetry.retro_unverified.inc();
            sink.stats.retro_unverified += 1;
            if self.credit_unverified(device, end, config, sink) {
                AuditVerdict::LockedOut
            } else {
                AuditVerdict::DroppedUnverified
            }
        };
        sink.audit.append(AuditEntry {
            ts: end,
            device,
            class,
            verdict,
        });
    }
}

/// Errors from the auth-message path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthError {
    /// QUIC-level failure (replay, unknown ticket, decrypt).
    Transport(fiat_quic::QuicError),
    /// Payload failed HMAC verification (unauthorized device, §5.4).
    BadSignature,
    /// Payload did not parse.
    Malformed,
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthError::Transport(e) => write!(f, "transport: {e}"),
            AuthError::BadSignature => write!(f, "signature verification failed"),
            AuthError::Malformed => write!(f, "malformed auth message"),
        }
    }
}

impl std::error::Error for AuthError {}

#[cfg(test)]
mod tests {
    use super::*;
    use fiat_net::{Direction, TcpFlags, TlsVersion, TrafficClass, Transport};
    use fiat_sensors::{ImuTrace, MotionKind};
    use std::net::Ipv4Addr;

    const SECRET: [u8; 32] = [0x77; 32];

    fn pkt(ts_ms: u64, size: u16) -> PacketRecord {
        PacketRecord {
            ts: SimTime::from_millis(ts_ms),
            device: 0,
            direction: Direction::ToDevice,
            local_ip: Ipv4Addr::new(192, 168, 1, 10),
            remote_ip: Ipv4Addr::new(34, 0, 0, 1),
            local_port: 5000,
            remote_port: 443,
            transport: Transport::Tcp,
            tcp_flags: TcpFlags::psh_ack(),
            tls: TlsVersion::Tls12,
            size,
            label: TrafficClass::Control,
        }
    }

    fn proxy_with_plug() -> FiatProxy {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        // Plug: simple rule on size 235, N = 1 (decide on first packet).
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        proxy
    }

    /// Run the proxy through bootstrap with a periodic 100 B flow.
    fn bootstrap(proxy: &mut FiatProxy) -> u64 {
        // 100 B packets every 10 s for 20 min.
        let mut t = 0;
        while t < 20 * 60 * 1000 {
            assert_eq!(
                proxy.on_packet(&pkt(t, 100)),
                ProxyDecision::Allow(AllowReason::Bootstrap)
            );
            t += 10_000;
        }
        t
    }

    #[test]
    fn bootstrap_learns_rules_then_enforces() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        // Post-bootstrap: the periodic flow hits the learned rule.
        assert_eq!(
            proxy.on_packet(&pkt(t, 100)),
            ProxyDecision::Allow(AllowReason::RuleHit)
        );
        assert!(proxy.rule_count() >= 1);
        // A never-seen size misses and enters the event path.
        let d = proxy.on_packet(&pkt(t + 1000, 999));
        assert!(matches!(d, ProxyDecision::Allow(AllowReason::NonManual)));
    }

    #[test]
    fn manual_command_without_human_dropped() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        // A 235 B command packet: classified manual at packet 1, no human.
        assert_eq!(
            proxy.on_packet(&pkt(t, 235)),
            ProxyDecision::Drop(DropReason::ManualUnverified)
        );
        // The event's second packet also drops.
        assert_eq!(
            proxy.on_packet(&pkt(t + 100, 235)),
            ProxyDecision::Drop(DropReason::ManualUnverified)
        );
        assert_eq!(proxy.audit().len(), 1);
        assert_eq!(
            proxy.audit().entries()[0].verdict,
            AuditVerdict::DroppedUnverified
        );
    }

    #[test]
    fn manual_command_with_human_allowed() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);

        // The phone sends valid evidence first (0-RTT after handshake).
        prove_human(&mut proxy, 1, t);

        // The command arrives moments later: allowed.
        assert_eq!(
            proxy.on_packet(&pkt(t + 500, 235)),
            ProxyDecision::Allow(AllowReason::ManualVerified)
        );
        assert_eq!(
            proxy.audit().entries()[0].verdict,
            AuditVerdict::AllowedManualVerified
        );
    }

    #[test]
    fn humanness_proof_expires() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        prove_human(&mut proxy, 1, t);
        // 31 s later (window is 30 s) the command is no longer covered.
        assert_eq!(
            proxy.on_packet(&pkt(t + 31_000, 235)),
            ProxyDecision::Drop(DropReason::ManualUnverified)
        );
    }

    #[test]
    fn attacker_touch_evidence_rejected() {
        // Software-injected command with a resting phone: the evidence
        // fails humanness, so the command drops.
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        assert_eq!(send_proof(&mut proxy, 1, t, MotionKind::Resting), Ok(false));
        assert_eq!(
            proxy.on_packet(&pkt(t + 100, 235)),
            ProxyDecision::Drop(DropReason::ManualUnverified)
        );
    }

    #[test]
    fn unauthorized_device_evidence_rejected() {
        // An app paired with a *different* secret cannot validate: the
        // QUIC layer itself refuses (different PSK).
        let mut proxy = proxy_with_plug();
        bootstrap(&mut proxy);
        let mut evil = FiatApp::new(&[0x66; 32], 1);
        let ch = evil.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        // Handshake "completes" locally but keys mismatch.
        evil.complete_handshake(&sh).unwrap();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
        let z = evil
            .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, 0)
            .unwrap();
        assert!(matches!(
            proxy.on_auth_zero_rtt(&z, SimTime::from_secs(1300)),
            Err(AuthError::Transport(_))
        ));
    }

    #[test]
    fn replayed_evidence_rejected() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        let mut app = FiatApp::new(&SECRET, 1);
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).unwrap();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
        let z = app
            .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, t)
            .unwrap();
        assert_eq!(
            proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t)),
            Ok(true)
        );
        // A LAN attacker who captured the packet replays it later.
        assert!(matches!(
            proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t + 60_000)),
            Err(AuthError::Transport(fiat_quic::QuicError::Replayed))
        ));
    }

    #[test]
    fn brute_force_triggers_lockout() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        // Threshold 3 tolerates three unverified manual events within
        // 60 s; the fourth locks the device.
        for k in 0..4u64 {
            let d = proxy.on_packet(&pkt(t + k * 10_000, 235));
            assert_eq!(d, ProxyDecision::Drop(DropReason::ManualUnverified));
        }
        assert!(proxy.is_locked(0));
        // Everything on the device now drops, even predictable traffic.
        assert_eq!(
            proxy.on_packet(&pkt(t + 40_000, 100)),
            ProxyDecision::Drop(DropReason::LockedOut)
        );
        // Manual clearing restores service.
        proxy.clear_lockout(0);
        assert_eq!(
            proxy.on_packet(&pkt(t + 50_000, 100)),
            ProxyDecision::Allow(AllowReason::RuleHit)
        );
    }

    #[test]
    fn spaced_drops_do_not_lock() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        // Three drops spread over 5 minutes (outside the 60 s window):
        // each event needs a fresh gap (>= 5 s) to be a new event.
        for k in 0..3u64 {
            proxy.on_packet(&pkt(t + k * 120_000, 235));
        }
        assert!(!proxy.is_locked(0));
    }

    #[test]
    fn lockout_boundary_exactly_at_threshold_tolerated() {
        // Regression for the tolerance semantics: with threshold 3,
        // exactly three unverified episodes within the window must NOT
        // lock; the fourth must. The episode counter increments once
        // per lockout, not once per dropped packet.
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        for k in 0..3u64 {
            assert_eq!(
                proxy.on_packet(&pkt(t + k * 10_000, 235)),
                ProxyDecision::Drop(DropReason::ManualUnverified)
            );
        }
        assert!(!proxy.is_locked(0), "exactly-at-threshold must not lock");
        assert_eq!(proxy.telemetry().lockout_count(), 0);

        // One more unverified event crosses the tolerance.
        proxy.on_packet(&pkt(t + 30_000, 235));
        assert!(proxy.is_locked(0));
        assert_eq!(proxy.telemetry().lockout_count(), 1);

        // Packets dropped while locked do not start new episodes.
        for k in 0..5u64 {
            assert_eq!(
                proxy.on_packet(&pkt(t + 31_000 + k * 100, 100)),
                ProxyDecision::Drop(DropReason::LockedOut)
            );
        }
        assert_eq!(proxy.telemetry().lockout_count(), 1);

        // After an operator clears it, a fresh run of four unverified
        // events is a second episode — the counter reaches exactly 2.
        proxy.clear_lockout(0);
        for k in 0..4u64 {
            proxy.on_packet(&pkt(t + 40_000 + k * 10_000, 235));
        }
        assert!(proxy.is_locked(0));
        assert_eq!(proxy.telemetry().lockout_count(), 2);
        assert!(proxy.audit().verify());
    }

    #[test]
    fn gap_fragments_are_classified_retrospectively() {
        // Gap evasion: a command split into fragments shorter than the
        // classify point, separated by > 5 s of silence, rides the
        // first-N allowance packet by packet. Retrospective
        // classification audits each fragment when it closes and counts
        // it toward the lockout, so the fourth closure locks the device
        // and the fifth fragment is dead on arrival.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 5);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        let frag_spacing = 6_000u64; // > 5 s event gap -> new event
        for frag in 0..4u64 {
            for j in 0..4u64 {
                // 4 packets per fragment: below classify_at = 5.
                let d = proxy.on_packet(&pkt(t + frag * frag_spacing + j * 50, 235));
                assert_eq!(
                    d,
                    ProxyDecision::Allow(AllowReason::FirstN),
                    "frag {frag} pkt {j}"
                );
            }
        }
        // Fragments 0..2 closed retrospectively (3 episodes: tolerated).
        assert!(!proxy.is_locked(0));
        // The next packet closes fragment 3 -> 4th unverified episode
        // -> lockout; the packet itself must not open a fresh event.
        assert_eq!(
            proxy.on_packet(&pkt(t + 4 * frag_spacing, 235)),
            ProxyDecision::Drop(DropReason::LockedOut)
        );
        assert!(proxy.is_locked(0));
        assert_eq!(proxy.stats().retro_unverified, 4);
        assert_eq!(proxy.telemetry().lockout_count(), 1);
        // Every retro episode reached the audit log, chain intact.
        assert_eq!(proxy.audit().len(), 4);
        assert!(proxy.audit().verify());
    }

    #[test]
    fn flush_closes_trailing_events_retrospectively() {
        // A trailing fragment with no follow-up traffic is only seen by
        // `flush`, which must classify it like a stale-close would.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 5);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        for j in 0..3u64 {
            proxy.on_packet(&pkt(t + j * 50, 235));
        }
        assert_eq!(proxy.audit().len(), 0);
        proxy.flush(SimTime::from_millis(t + 60_000));
        assert_eq!(proxy.stats().retro_unverified, 1);
        assert_eq!(proxy.audit().len(), 1);
        assert_eq!(
            proxy.audit().entries()[0].verdict,
            AuditVerdict::DroppedUnverified
        );
        // Non-manual trailing events are audited as allowed, not drops.
        proxy.clear_lockout(0);
        for j in 0..3u64 {
            proxy.on_packet(&pkt(t + 120_000 + j * 50, 999));
        }
        proxy.flush(SimTime::from_millis(t + 180_000));
        assert_eq!(proxy.stats().retro_unverified, 1);
        assert_eq!(
            proxy.audit().entries()[1].verdict,
            AuditVerdict::AllowedNonManual
        );
        assert!(proxy.audit().verify());
    }

    #[test]
    fn first_n_allowance_for_complex_device() {
        // An ML device with classify point 5: four packets pass before
        // the verdict.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        // Train a BernoulliNB on a toy dataset where events like ours are
        // manual.
        let (packets, events) = toy_training();
        let data = crate::classifier::event_dataset(&events, &packets);
        proxy.register_device(0, EventClassifier::train_bernoulli(&data), 41);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        for k in 0..4u64 {
            assert_eq!(
                proxy.on_packet(&pkt(t + k * 100, 900)),
                ProxyDecision::Allow(AllowReason::FirstN),
                "packet {k}"
            );
        }
        // Fifth packet: classification fires (manual, no human -> drop).
        assert_eq!(
            proxy.on_packet(&pkt(t + 400, 900)),
            ProxyDecision::Drop(DropReason::ManualUnverified)
        );
    }

    /// Toy training data: 900 B TLS bursts are manual, 150 B no-TLS are
    /// control.
    fn toy_training() -> (Vec<PacketRecord>, Vec<UnpredictableEvent>) {
        let mut packets = Vec::new();
        let mut events = Vec::new();
        let mut t = 0u64;
        for k in 0..40 {
            let manual = k % 2 == 0;
            let start = packets.len();
            for j in 0..5 {
                let mut p = pkt(t + j * 100, if manual { 900 } else { 150 });
                p.tls = if manual {
                    TlsVersion::Tls12
                } else {
                    TlsVersion::None
                };
                p.label = if manual {
                    TrafficClass::Manual
                } else {
                    TrafficClass::Control
                };
                packets.push(p);
            }
            events.push(UnpredictableEvent {
                device: 0,
                packets: (start..start + 5).collect(),
                start: SimTime::from_millis(t),
                end: SimTime::from_millis(t + 400),
            });
            t += 60_000;
        }
        (packets, events)
    }

    #[test]
    fn unknown_device_fails_open() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        let mut p = pkt(t, 999);
        p.device = 42; // never registered
                       // Fail-open, but attributed to its own reason — not FirstN.
        assert_eq!(
            proxy.on_packet(&p),
            ProxyDecision::Allow(AllowReason::UnknownDevice)
        );
        let mut p2 = pkt(t + 100, 999);
        p2.device = 42;
        proxy.on_packet(&p2);
        let s = proxy.stats();
        assert_eq!(s.unknown_device, 2);
        assert_eq!(s.first_n, 0);
        assert_eq!(s.total(), s.bootstrap + 2);
        // Audited once per device (first sighting), not per packet.
        assert_eq!(proxy.audit().len(), 1);
        let e = &proxy.audit().entries()[0];
        assert_eq!(e.device, 42);
        assert_eq!(e.verdict, AuditVerdict::AllowedUnknownDevice);
        // A second unknown device gets its own entry.
        let mut p3 = pkt(t + 200, 999);
        p3.device = 43;
        proxy.on_packet(&p3);
        assert_eq!(proxy.audit().len(), 2);
        assert!(proxy.audit().verify());
    }

    #[test]
    fn backwards_packet_joins_event_without_rewinding_high_water_mark() {
        // Reordered trace through `decide()`: an in-order rule-miss
        // packet, a reordered packet 3 s in its past, then one 4 s after
        // the first. All three are one event — pre-fix, the backwards
        // packet rewound `last`, the third packet read a 7 s gap, closed
        // the event early and recorded a phantom retro episode.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 5);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);
        let base = t + 60_000; // clear of the bootstrap boundary

        proxy.on_packet(&pkt(base, 235));
        proxy.on_packet(&pkt(base - 3_000, 235)); // reordered: joins
        proxy.on_packet(&pkt(base + 4_000, 235)); // 4 s < gap: still joins
        assert_eq!(proxy.stats().retro_unverified, 0, "no spurious closure");
        assert_eq!(proxy.stats().first_n, 3);

        // Closing the (single) event yields exactly one retro episode.
        proxy.flush(SimTime::from_millis(base + 60_000));
        assert_eq!(proxy.stats().retro_unverified, 1);
        assert_eq!(proxy.audit().len(), 1);
    }

    #[test]
    fn flush_then_older_packet_starts_fresh_event() {
        // Interplay: flush at `now`, then feed a packet older than the
        // flush time (but newer than the closed event). It must open a
        // fresh event rather than resurrect the flushed one's state.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 5);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);
        let base = t + 60_000;

        for j in 0..3u64 {
            proxy.on_packet(&pkt(base + j * 50, 235));
        }
        proxy.flush(SimTime::from_millis(base + 60_000));
        assert_eq!(proxy.stats().retro_unverified, 1);

        // 30 s before the flush time, 30 s after the closed event.
        assert_eq!(
            proxy.on_packet(&pkt(base + 30_000, 235)),
            ProxyDecision::Allow(AllowReason::FirstN)
        );
        proxy.flush(SimTime::from_millis(base + 120_000));
        assert_eq!(proxy.stats().retro_unverified, 2);
        assert!(proxy.audit().verify());
    }

    #[test]
    fn flush_is_idempotent() {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 5);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        for j in 0..3u64 {
            proxy.on_packet(&pkt(t + j * 50, 235));
        }
        let flush_at = SimTime::from_millis(t + 60_000);
        proxy.flush(flush_at);
        let stats = proxy.stats();
        let audit_len = proxy.audit().len();
        let head = proxy.audit().head();
        // Double flush (same time and later) changes nothing: the event
        // is gone and no state regenerates it.
        proxy.flush(flush_at);
        proxy.flush(SimTime::from_millis(t + 120_000));
        assert_eq!(proxy.stats(), stats);
        assert_eq!(proxy.audit().len(), audit_len);
        assert_eq!(proxy.audit().head(), head);
    }

    #[test]
    #[should_panic(expected = "proxy not started")]
    fn packets_before_start_panic() {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        proxy.on_packet(&pkt(0, 100));
    }

    #[test]
    fn cascade_requires_fresh_trigger_authorization() {
        // Edge Alexa(1) -> plug(0) with a 10 s cascade window: once the
        // Alexa authorization goes stale, downstream commands drop again.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            human_valid_window: SimDuration::from_secs(1),
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.register_device(1, EventClassifier::simple_rule(235), 1);
        let mut graph = crate::interactions::InteractionGraph::new(SimDuration::from_secs(10));
        graph.add_edge(1, 0).unwrap();
        proxy.set_interactions(graph);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        prove_human(&mut proxy, 1, t);
        let mut alexa_cmd = pkt(t + 500, 235);
        alexa_cmd.device = 1;
        assert!(proxy.on_packet(&alexa_cmd).is_allow());

        // Within the 10 s cascade window: allowed.
        assert_eq!(
            proxy.on_packet(&pkt(t + 8_000, 235)),
            ProxyDecision::Allow(AllowReason::Cascade)
        );
        // Past it (and past the human window): dropped.
        assert_eq!(
            proxy.on_packet(&pkt(t + 30_000, 235)),
            ProxyDecision::Drop(DropReason::ManualUnverified)
        );
    }

    #[test]
    fn cascade_reason_surfaces_when_human_window_expired() {
        // Direct check of the Cascade allow reason using a short human
        // window.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            human_valid_window: SimDuration::from_secs(1),
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.register_device(1, EventClassifier::simple_rule(235), 1);
        let mut graph = crate::interactions::InteractionGraph::new(SimDuration::from_secs(60));
        graph.add_edge(1, 0).unwrap();
        proxy.set_interactions(graph);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        prove_human(&mut proxy, 1, t);
        // Alexa's command rides the (1 s) human window.
        let mut alexa_cmd = pkt(t + 500, 235);
        alexa_cmd.device = 1;
        assert_eq!(
            proxy.on_packet(&alexa_cmd),
            ProxyDecision::Allow(AllowReason::ManualVerified)
        );
        // 10 s later the human window is gone, but the cascade covers the
        // plug via the authorized Alexa event.
        let plug_cmd = pkt(t + 10_000, 235);
        assert_eq!(
            proxy.on_packet(&plug_cmd),
            ProxyDecision::Allow(AllowReason::Cascade)
        );
        assert!(proxy
            .audit()
            .entries()
            .iter()
            .any(|e| e.verdict == AuditVerdict::AllowedCascade));
        // Without the edge (device 5 unconfigured), the same command
        // drops: check via a device with no incoming edges.
        proxy.register_device(5, EventClassifier::simple_rule(235), 1);
        let mut other = pkt(t + 11_000, 235);
        other.device = 5;
        assert_eq!(
            proxy.on_packet(&other),
            ProxyDecision::Drop(DropReason::ManualUnverified)
        );
    }

    #[test]
    fn stats_account_for_every_packet() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        proxy.on_packet(&pkt(t, 100)); // rule hit
        proxy.on_packet(&pkt(t + 1000, 235)); // manual drop
        let s = proxy.stats();
        assert_eq!(s.rule_hit, 1);
        assert_eq!(s.dropped_unverified, 1);
        assert!(s.bootstrap > 0);
        assert_eq!(s.total(), s.bootstrap + 2);
        assert_eq!(s.dropped(), 1);
        assert!((s.rule_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_invariant_sum_of_reasons_equals_total() {
        // Drive every decision path, then check the counters partition
        // the packet count exactly.
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        let mut sent = proxy.stats().bootstrap;

        proxy.on_packet(&pkt(t, 100)); // rule hit
        proxy.on_packet(&pkt(t + 6_000, 999)); // non-manual
        sent += 2;
        for k in 0..4u64 {
            proxy.on_packet(&pkt(t + 20_000 + k * 10_000, 235)); // drops -> lockout
            sent += 1;
        }
        proxy.on_packet(&pkt(t + 55_000, 100)); // locked out
        sent += 1;

        let mut unknown = pkt(t + 56_000, 999);
        unknown.device = 9; // never registered
        proxy.on_packet(&unknown);
        sent += 1;

        let s = proxy.stats();
        let by_reason: u64 = all_decisions().map(|d| stat_for(&s, d)).sum();
        assert_eq!(s.total(), by_reason);
        assert_eq!(s.unknown_device, 1);
        assert_eq!(s.total(), sent);
        assert_eq!(
            s.dropped(),
            s.dropped_unverified + s.dropped_lockout + s.dropped_quarantine
        );
        // Quarantine is off by default: every quarantine counter is zero.
        assert_eq!(s.quarantined, 0);
        assert_eq!(s.quarantine_released, 0);
        assert_eq!(s.dropped_quarantine, 0);
        assert_eq!(s.quarantine_expired, 0);
    }

    #[test]
    fn telemetry_counters_agree_with_stats() {
        use fiat_telemetry::{ManualClock, MetricRegistry};

        // A proxy on a shared registry and simulated clock, driven through
        // predictable, manual-verified, unverified, and lockout traffic.
        let registry = MetricRegistry::new();
        let telemetry = ProxyTelemetry::new(registry.clone(), Arc::new(ManualClock::new()));
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy =
            FiatProxy::with_telemetry(ProxyConfig::default(), &SECRET, validator, telemetry);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        let mut t = bootstrap(&mut proxy);

        // Rule hits up to the next sampled decision index, so that the
        // manual command below is sampled and runs every per-packet stage.
        while !proxy
            .stats()
            .total()
            .is_multiple_of(ProxyTelemetry::STAGE_SAMPLE_EVERY)
        {
            proxy.on_packet(&pkt(t, 100)); // rule hit
            t += 10_000;
        }

        // Verified manual command.
        prove_human(&mut proxy, 1, t);
        proxy.on_packet(&pkt(t + 500, 235));

        // Four unverified manual events (well past the human window)
        // exceed the tolerance of three and lock the device; one more
        // packet drops as locked out.
        for k in 0..4u64 {
            proxy.on_packet(&pkt(t + 60_000 + k * 10_000, 235));
        }
        proxy.on_packet(&pkt(t + 95_000, 100));

        // One packet from a device the proxy never registered.
        let mut stranger = pkt(t + 96_000, 100);
        stranger.device = 7;
        proxy.on_packet(&stranger);

        // Every per-reason counter matches the ProxyStats field.
        let s = proxy.stats();
        let tel = proxy.telemetry();
        for d in all_decisions() {
            assert_eq!(tel.decision_count(d), stat_for(&s, d), "{d:?}");
        }
        assert!(s.manual_verified > 0);
        assert!(s.dropped_unverified > 0);
        assert!(s.dropped_lockout > 0);

        // Per-packet stages were timed on decisions 0, 64 and 128 only:
        // two bootstrap packets, then the manual command, which missed the
        // rules, joined an event and was classified. Per-call stages were
        // timed on every call.
        assert_eq!(
            tel.stage("decide").unwrap().count(),
            s.total().div_ceil(ProxyTelemetry::STAGE_SAMPLE_EVERY)
        );
        assert_eq!(tel.stage("decide").unwrap().count(), 3);
        assert_eq!(tel.stage("rule_match").unwrap().count(), 1);
        assert_eq!(tel.stage("event_grouping").unwrap().count(), 1);
        assert_eq!(tel.stage("classification").unwrap().count(), 1);
        assert_eq!(tel.stage("rule_learn").unwrap().count(), 1);
        assert_eq!(tel.stage("humanness").unwrap().count(), 1);

        // Gauges reflect the end state: one device, locked, stale event
        // still open, rules learned.
        assert_eq!(registry.gauge("fiat_proxy_devices", &[]).get(), 1);
        assert_eq!(registry.gauge("fiat_proxy_locked_devices", &[]).get(), 1);
        assert_eq!(
            registry.gauge("fiat_proxy_rules", &[]).get(),
            proxy.rule_count() as i64
        );
        proxy.clear_lockout(0);
        assert_eq!(registry.gauge("fiat_proxy_locked_devices", &[]).get(), 0);

        // QUIC counters flowed into the same registry.
        assert_eq!(registry.counter("fiat_quic_handshakes_total", &[]).get(), 1);
        assert_eq!(
            registry
                .counter("fiat_quic_zero_rtt_total", &[("result", "accepted")])
                .get(),
            1
        );
        assert_eq!(
            registry
                .counter("fiat_proxy_auth_total", &[("result", "verified")])
                .get(),
            1
        );

        // Exposition carries the whole picture.
        let text = registry.render_prometheus();
        assert!(text.contains("fiat_proxy_stage_us_bucket"));
        assert!(
            text.contains("fiat_proxy_decisions_total{decision=\"drop\",reason=\"locked_out\"}")
        );
        let json = registry.render_json();
        assert!(json.contains("\"fiat_proxy_decisions_total\""));
    }

    #[test]
    fn post_verdict_packets_keep_manual_verified_reason() {
        // Regression: the open event's fate used to discard *why* it was
        // allowed, so every post-verdict packet of a verified manual event
        // was counted as NonManual in stats.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy = FiatProxy::new(ProxyConfig::default(), &SECRET, validator);
        // N = 5: packets 1-4 ride the first-N allowance, packet 5 is the
        // verdict, packets 6+ are post-verdict.
        proxy.register_device(0, EventClassifier::simple_rule(235), 5);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        prove_human(&mut proxy, 1, t);

        for k in 0..4u64 {
            assert_eq!(
                proxy.on_packet(&pkt(t + k * 100, 235)),
                ProxyDecision::Allow(AllowReason::FirstN),
                "packet {k}"
            );
        }
        assert_eq!(
            proxy.on_packet(&pkt(t + 400, 235)),
            ProxyDecision::Allow(AllowReason::ManualVerified)
        );
        // Packets 6 and 7 of the same event keep the verdict's reason.
        assert_eq!(
            proxy.on_packet(&pkt(t + 500, 235)),
            ProxyDecision::Allow(AllowReason::ManualVerified)
        );
        assert_eq!(
            proxy.on_packet(&pkt(t + 600, 235)),
            ProxyDecision::Allow(AllowReason::ManualVerified)
        );
        assert_eq!(proxy.stats().manual_verified, 3);
        assert_eq!(proxy.stats().non_manual, 0);
    }

    #[test]
    fn clear_lockout_closes_open_event() {
        use fiat_telemetry::{ManualClock, MetricRegistry};

        // Regression: clearing a lockout left the device's open event
        // with fate DropRest, so traffic inside the 5 s event gap kept
        // dropping as ManualUnverified right after the user unlocked.
        let registry = MetricRegistry::new();
        let telemetry = ProxyTelemetry::new(registry.clone(), Arc::new(ManualClock::new()));
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut proxy =
            FiatProxy::with_telemetry(ProxyConfig::default(), &SECRET, validator, telemetry);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        for k in 0..4u64 {
            assert_eq!(
                proxy.on_packet(&pkt(t + k * 10_000, 235)),
                ProxyDecision::Drop(DropReason::ManualUnverified)
            );
        }
        assert!(proxy.is_locked(0));

        proxy.clear_lockout(0);
        assert!(!proxy.is_locked(0));
        assert_eq!(registry.gauge("fiat_proxy_open_events", &[]).get(), 0);
        // 1 s after the last drop — still inside the 5 s event gap, so
        // pre-fix this packet rejoined the DropRest event and dropped.
        let d = proxy.on_packet(&pkt(t + 31_000, 999));
        assert!(d.is_allow(), "{d:?}");
    }

    #[test]
    fn audit_chain_stays_valid() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        for k in 0..5u64 {
            proxy.on_packet(&pkt(t + k * 10_000, 235));
        }
        assert!(proxy.audit().verify());
        assert!(proxy.audit().len() >= 3);
    }

    // ---- pending-verdict quarantine ------------------------------------

    /// A proxy with quarantine enabled: manual-unproven events are held
    /// for `deadline_ms` instead of dropped.
    fn quarantine_proxy(deadline_ms: u64) -> FiatProxy {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            proof_deadline: Some(SimDuration::from_millis(deadline_ms)),
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        proxy
    }

    /// Deliver a 0-RTT proof carrying `motion` at `t_ms`.
    fn send_proof(
        proxy: &mut FiatProxy,
        seed: u64,
        t_ms: u64,
        motion: MotionKind,
    ) -> Result<bool, AuthError> {
        let mut app = FiatApp::new(&SECRET, seed);
        let sh = proxy.accept_handshake(&app.handshake_request());
        app.complete_handshake(&sh).unwrap();
        let imu = ImuTrace::synthesize(motion, 500, 3);
        let z = app.authorize_zero_rtt("app", &imu, motion, t_ms).unwrap();
        proxy.on_auth_zero_rtt(&z, SimTime::from_millis(t_ms))
    }

    /// Deliver a genuine 0-RTT humanness proof at `t_ms`.
    fn prove_human(proxy: &mut FiatProxy, seed: u64, t_ms: u64) {
        let verified = send_proof(proxy, seed, t_ms, MotionKind::HumanTouch);
        assert_eq!(verified, Ok(true));
    }

    #[test]
    fn quarantine_holds_then_releases_on_late_proof() {
        let mut proxy = quarantine_proxy(10_000);
        let t = bootstrap(&mut proxy);

        // The command's first two packets are held, not dropped.
        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        assert_eq!(
            proxy.on_packet(&pkt(t + 100, 235)),
            ProxyDecision::Quarantine
        );
        assert!(proxy.take_quarantine_releases().is_empty());
        let depth = proxy
            .telemetry()
            .registry()
            .gauge("fiat_quarantine_depth", &[]);
        assert_eq!(depth.get(), 2);

        // The proof lands 2 s late (well inside the 10 s deadline): the
        // held packets are released and the live remainder is allowed.
        prove_human(&mut proxy, 1, t + 2_000);
        let released = proxy.take_quarantine_releases();
        assert_eq!(released.len(), 2);
        assert_eq!(released[0].ts, SimTime::from_millis(t));
        assert_eq!(depth.get(), 0);
        assert_eq!(
            proxy.on_packet(&pkt(t + 2_500, 235)),
            ProxyDecision::Allow(AllowReason::QuarantineReleased)
        );

        let s = proxy.stats();
        assert_eq!(s.quarantined, 2);
        assert_eq!(s.quarantine_released, 1);
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.quarantine_expired, 0);
        assert!(!proxy.is_locked(0));
        let last = proxy.audit().entries().last().unwrap();
        assert_eq!(last.verdict, AuditVerdict::QuarantineReleased);
        assert_eq!(last.ts, SimTime::from_millis(t + 2_000));
        assert!(proxy.audit().verify());
    }

    #[test]
    fn quarantine_expires_at_deadline_and_audits_at_deadline() {
        let mut proxy = quarantine_proxy(10_000);
        let t = bootstrap(&mut proxy);

        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        // A packet past the deadline reveals the expiry: the held packet
        // is demoted (audited at the *deadline*, not at observation
        // time) and the live packet drops as QuarantineExpired. It is
        // still within the event gap of nothing — 11 s > 5 s gap closes
        // the event — but the expiry seals the fate first, so the
        // sealed DropRest travels with the closed event, and the new
        // event re-quarantines.
        assert_eq!(
            proxy.on_packet(&pkt(t + 10_500, 235)),
            ProxyDecision::Quarantine,
            "expiry closed the old event; the new event opens a fresh quarantine"
        );
        let s = proxy.stats();
        assert_eq!(s.quarantine_expired, 1);
        assert_eq!(s.quarantined, 2);
        let expired = proxy
            .audit()
            .entries()
            .iter()
            .find(|e| e.verdict == AuditVerdict::QuarantineExpired)
            .unwrap();
        assert_eq!(expired.ts, SimTime::from_millis(t + 10_000));

        // Within the gap, the sealed fate governs the live remainder.
        let mut proxy = quarantine_proxy(2_000);
        let t = bootstrap(&mut proxy);
        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        assert_eq!(
            proxy.on_packet(&pkt(t + 3_000, 235)),
            ProxyDecision::Drop(DropReason::QuarantineExpired),
            "3 s is past the 2 s deadline but inside the 5 s event gap"
        );
        assert_eq!(proxy.stats().dropped_quarantine, 1);
    }

    #[test]
    fn quarantine_release_at_exact_deadline_still_releases() {
        let mut proxy = quarantine_proxy(10_000);
        let t = bootstrap(&mut proxy);
        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        // `now > deadline` expires; at exactly the deadline the proof
        // still counts (boundary mirrors the humanness window's `<=`).
        prove_human(&mut proxy, 1, t + 10_000);
        assert_eq!(proxy.take_quarantine_releases().len(), 1);
        assert_eq!(proxy.stats().quarantine_expired, 0);
    }

    #[test]
    fn proof_after_deadline_expires_instead_of_releasing() {
        let mut proxy = quarantine_proxy(10_000);
        let t = bootstrap(&mut proxy);
        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        prove_human(&mut proxy, 1, t + 10_001);
        assert!(proxy.take_quarantine_releases().is_empty());
        let s = proxy.stats();
        assert_eq!(s.quarantine_expired, 1);
        let last = proxy.audit().entries().last().unwrap();
        assert_eq!(last.verdict, AuditVerdict::QuarantineExpired);
        assert_eq!(last.ts, SimTime::from_millis(t + 10_000));
    }

    #[test]
    fn second_concurrent_manual_event_demotes_immediately() {
        let mut proxy = quarantine_proxy(60_000);
        let t = bootstrap(&mut proxy);

        // Event A quarantines, then closes via the event gap (its record
        // survives: the proof may still arrive).
        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        // Event B (6 s later, past the 5 s gap) finds the device's one
        // quarantine slot taken: immediate demotion, today's path.
        assert_eq!(
            proxy.on_packet(&pkt(t + 6_000, 235)),
            ProxyDecision::Drop(DropReason::ManualUnverified)
        );
        // The late proof still releases event A's held packet.
        prove_human(&mut proxy, 1, t + 8_000);
        assert_eq!(proxy.take_quarantine_releases().len(), 1);
        let s = proxy.stats();
        assert_eq!(s.quarantined, 1);
        assert_eq!(s.dropped_unverified, 1);
    }

    #[test]
    fn quarantine_capacity_overflow_sheds_packets() {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            proof_deadline: Some(SimDuration::from_secs(10)),
            quarantine_capacity: 2,
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        assert_eq!(
            proxy.on_packet(&pkt(t + 100, 235)),
            ProxyDecision::Quarantine
        );
        assert_eq!(
            proxy.on_packet(&pkt(t + 200, 235)),
            ProxyDecision::Drop(DropReason::ManualUnverified),
            "past the capacity the event sheds packets"
        );
        let s = proxy.stats();
        assert_eq!(s.quarantined, 2);
        assert_eq!(s.dropped_unverified, 1);
        // Release hands back exactly the capped record.
        prove_human(&mut proxy, 1, t + 1_000);
        assert_eq!(proxy.take_quarantine_releases().len(), 2);
    }

    #[test]
    fn repeated_quarantine_expiries_feed_lockout() {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            proof_deadline: Some(SimDuration::from_secs(2)),
            // Episodes must land inside one 60 s lockout window.
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        // Four expiring quarantines within the window exceed the
        // tolerance of three, exactly like four immediate demotions:
        // episodes land at t+2 s, +12 s, +22 s, +32 s, and the fourth
        // expiry (seen by the last flush) locks the device.
        for k in 0..4u64 {
            assert_eq!(
                proxy.on_packet(&pkt(t + k * 10_000, 235)),
                ProxyDecision::Quarantine,
                "k={k}"
            );
            // Let each quarantine expire before the next event opens.
            proxy.flush(SimTime::from_millis(t + k * 10_000 + 9_000));
        }
        assert!(proxy.is_locked(0));
        assert_eq!(proxy.stats().quarantine_expired, 4);
        assert_eq!(proxy.telemetry().lockout_count(), 1);
        // And the revealing packet drops.
        assert_eq!(
            proxy.on_packet(&pkt(t + 40_000, 235)),
            ProxyDecision::Drop(DropReason::LockedOut)
        );
    }

    #[test]
    fn flush_expires_overdue_quarantine() {
        let mut proxy = quarantine_proxy(2_000);
        let t = bootstrap(&mut proxy);
        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        proxy.flush(SimTime::from_millis(t + 30_000));
        let s = proxy.stats();
        assert_eq!(s.quarantine_expired, 1);
        let last = proxy.audit().entries().last().unwrap();
        assert_eq!(last.verdict, AuditVerdict::QuarantineExpired);
        assert_eq!(last.ts, SimTime::from_millis(t + 2_000));
        // Idempotent: the record resolved once.
        proxy.flush(SimTime::from_millis(t + 31_000));
        assert_eq!(proxy.stats().quarantine_expired, 1);
    }

    #[test]
    fn clear_lockout_preserves_pending_quarantine() {
        let mut proxy = quarantine_proxy(60_000);
        let t = bootstrap(&mut proxy);

        // Event A holds; four concurrent demotions lock the device.
        assert_eq!(proxy.on_packet(&pkt(t, 235)), ProxyDecision::Quarantine);
        for k in 1..5u64 {
            proxy.on_packet(&pkt(t + k * 6_000, 235));
        }
        assert!(proxy.is_locked(0));

        // The user clears the lockout; the held command still needs its
        // proof — and gets it, within the deadline.
        proxy.clear_lockout(0);
        prove_human(&mut proxy, 1, t + 40_000);
        assert_eq!(proxy.take_quarantine_releases().len(), 1);
        assert_eq!(proxy.stats().quarantined, 1);
    }

    /// Every event a hook saw, keyed by decision reason or transition
    /// name; quarantine resolutions add their packet counts.
    #[derive(Default)]
    struct Tally {
        counts: HashMap<&'static str, u64>,
        log: Vec<&'static str>,
    }

    struct TallyHook(Arc<std::sync::Mutex<Tally>>);

    impl ProxyHook for TallyHook {
        fn on_event(&self, ts: SimTime, device: u16, ev: ProxyEvent) {
            let (key, n) = match ev {
                ProxyEvent::Decided(d) => (d.reason_str(), 1),
                ProxyEvent::Proof { verified } => {
                    assert_eq!(device, 0, "proofs are reported as device 0");
                    (if verified { "verified" } else { "rejected" }, 1)
                }
                ProxyEvent::LockoutEntered => ("lockout", 1),
                ProxyEvent::LockoutCleared => {
                    assert_eq!(ts, SimTime::ZERO, "clears happen outside packet time");
                    ("cleared", 1)
                }
                ProxyEvent::QuarantineReleased { packets } => ("released", packets),
                ProxyEvent::QuarantineExpired { packets } => ("expired", packets),
            };
            let mut t = self.0.lock().unwrap();
            *t.counts.entry(key).or_default() += n;
            t.log.push(key);
        }
    }

    /// Every decision a proxy can make.
    fn all_decisions() -> impl Iterator<Item = ProxyDecision> {
        AllowReason::ALL
            .map(ProxyDecision::Allow)
            .into_iter()
            .chain(DropReason::ALL.map(ProxyDecision::Drop))
            .chain([ProxyDecision::Quarantine])
    }

    /// The `ProxyStats` field counting decision `d`.
    fn stat_for(s: &ProxyStats, d: ProxyDecision) -> u64 {
        match d {
            ProxyDecision::Allow(AllowReason::Bootstrap) => s.bootstrap,
            ProxyDecision::Allow(AllowReason::RuleHit) => s.rule_hit,
            ProxyDecision::Allow(AllowReason::FirstN) => s.first_n,
            ProxyDecision::Allow(AllowReason::NonManual) => s.non_manual,
            ProxyDecision::Allow(AllowReason::ManualVerified) => s.manual_verified,
            ProxyDecision::Allow(AllowReason::Cascade) => s.cascade,
            ProxyDecision::Allow(AllowReason::UnknownDevice) => s.unknown_device,
            ProxyDecision::Allow(AllowReason::QuarantineReleased) => s.quarantine_released,
            ProxyDecision::Allow(AllowReason::FingerprintMatched) => s.fingerprint_matched,
            ProxyDecision::Drop(DropReason::ManualUnverified) => s.dropped_unverified,
            ProxyDecision::Drop(DropReason::LockedOut) => s.dropped_lockout,
            ProxyDecision::Drop(DropReason::QuarantineExpired) => s.dropped_quarantine,
            ProxyDecision::Drop(DropReason::UnknownQuarantined) => s.dropped_unknown,
            ProxyDecision::Quarantine => s.quarantined,
        }
    }

    #[test]
    fn hook_stats_and_telemetry_agree_on_every_transition() {
        use fiat_telemetry::{ManualClock, MetricRegistry};
        use ProxyDecision::{Allow, Drop, Quarantine};

        let registry = MetricRegistry::new();
        let telemetry = ProxyTelemetry::new(registry.clone(), Arc::new(ManualClock::new()));
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            proof_deadline: Some(SimDuration::from_secs(60)),
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::with_telemetry(config, &SECRET, validator, telemetry);
        // Devices 0, 2, 3 decide on their first packet; device 1 only at
        // its fifth, so 4-packet fragments close retrospectively.
        for (device, n) in [(0, 1), (1, 5), (2, 1), (3, 1)] {
            proxy.register_device(device, EventClassifier::simple_rule(235), n);
        }
        let tally = Arc::new(std::sync::Mutex::new(Tally::default()));
        proxy.set_hook(Box::new(TallyHook(Arc::clone(&tally))));
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);
        let on =
            |p: &mut FiatProxy, ms: u64, device: u16| p.on_packet(&pkt_dev(t + ms, 235, device));

        // Device 0: two packets held, released by a late proof; the live
        // remainder is allowed as released. Then a rejected proof.
        assert_eq!(on(&mut proxy, 0, 0), Quarantine);
        assert_eq!(on(&mut proxy, 100, 0), Quarantine);
        prove_human(&mut proxy, 1, t + 2_000);
        assert_eq!(
            on(&mut proxy, 2_500, 0),
            Allow(AllowReason::QuarantineReleased)
        );
        assert_eq!(
            send_proof(&mut proxy, 2, t + 40_000, MotionKind::Resting),
            Ok(false)
        );

        // Device 0: one quarantine expired by the packet that reveals
        // its deadline (which re-quarantines), the next by a flush.
        assert_eq!(on(&mut proxy, 100_000, 0), Quarantine);
        assert_eq!(on(&mut proxy, 161_000, 0), Quarantine);
        proxy.flush(SimTime::from_millis(t + 300_000));

        // Device 3: three demotions while a record is pending, then its
        // expiry is the fourth episode and locks the device.
        assert_eq!(on(&mut proxy, 400_000, 3), Quarantine);
        for k in 1..4u64 {
            let d = on(&mut proxy, 400_000 + k * 6_000, 3);
            assert_eq!(d, Drop(DropReason::ManualUnverified));
        }
        proxy.flush(SimTime::from_millis(t + 461_000));
        assert!(proxy.is_locked(3));

        // Device 2: four demotions lock it on the packet path; the user
        // clears both lockouts (and a no-op clear on an unlocked device),
        // then a proof releases device 2's pending record.
        assert_eq!(on(&mut proxy, 600_000, 2), Quarantine);
        for k in 1..6u64 {
            on(&mut proxy, 600_000 + k * 6_000, 2);
        }
        assert!(proxy.is_locked(2));
        proxy.clear_lockout(2);
        proxy.clear_lockout(3);
        proxy.clear_lockout(0);
        prove_human(&mut proxy, 3, t + 640_000);

        // Device 1: four fragments below its classify point close
        // retrospectively; the fourth close locks it. Then an unknown
        // device and a final flush.
        for frag in 0..4u64 {
            for j in 0..4u64 {
                let d = on(&mut proxy, 800_000 + frag * 6_000 + j * 50, 1);
                assert_eq!(d, Allow(AllowReason::FirstN));
            }
        }
        assert_eq!(on(&mut proxy, 824_000, 1), Drop(DropReason::LockedOut));
        on(&mut proxy, 830_000, 9);
        proxy.flush(SimTime::from_millis(t + 900_000));

        let s = proxy.stats();
        let tel = proxy.telemetry();
        let tally = tally.lock().unwrap();
        let n = |key: &str| tally.counts.get(key).copied().unwrap_or(0);
        let counter = |name: &str, labels: &[(&str, &str)]| registry.counter(name, labels).get();
        let gauge = |name: &str| registry.gauge(name, &[]).get();
        for d in all_decisions() {
            assert_eq!(n(d.reason_str()), stat_for(&s, d), "{d:?}");
            assert_eq!(n(d.reason_str()), tel.decision_count(d), "{d:?}");
        }
        let decided: u64 = all_decisions().map(|d| n(d.reason_str())).sum();
        assert_eq!(decided, s.total());
        assert_eq!((n("verified"), n("rejected")), (2, 1));
        let auth = |result| counter("fiat_proxy_auth_total", &[("result", result)]);
        assert_eq!((auth("verified"), auth("rejected")), (2, 1));
        // One lockout per path: quarantine expiry, packet, retro close.
        assert_eq!((n("lockout"), n("cleared")), (3, 2));
        assert_eq!(tel.lockout_count(), 3);
        assert_eq!(gauge("fiat_proxy_locked_devices"), 1);
        assert_eq!(n("pending_proof"), 6);
        assert_eq!(n("released"), 3);
        assert_eq!(counter("fiat_quarantine_released_total", &[]), 3);
        assert_eq!(n("expired"), 3);
        assert_eq!(s.quarantine_expired, 3);
        assert_eq!(counter("fiat_quarantine_expired_total", &[]), 3);
        assert_eq!(gauge("fiat_quarantine_depth"), 0);
        assert_eq!(s.retro_unverified, 4);
        assert_eq!(counter("fiat_proxy_retro_unverified_total", &[]), 4);
        // A proof fires after the releases it caused.
        for (i, key) in tally.log.iter().enumerate() {
            if *key == "released" {
                assert_eq!(tally.log[i + 1], "verified");
            }
        }
        assert!(proxy.audit().verify());
    }

    #[test]
    fn quarantine_disabled_keeps_decisions_and_audit_identical() {
        // Belt-and-braces for the zero-cost default: a run with the
        // default config and one with quarantine explicitly disabled
        // produce identical decisions, stats, and audit chains.
        let drive = |mut proxy: FiatProxy| {
            let t = bootstrap(&mut proxy);
            let mut decisions = Vec::new();
            for k in 0..6u64 {
                decisions.push(proxy.on_packet(&pkt(t + k * 7_000, 235)));
            }
            proxy.flush(SimTime::from_millis(t + 120_000));
            (decisions, proxy.stats(), proxy.audit().head())
        };
        let a = drive(proxy_with_plug());
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            proof_deadline: None,
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        let b = drive(proxy);
        assert_eq!(a, b);
    }

    /// Restore a snapshot with the standard plug setup (fresh telemetry,
    /// same ceremony secret, same classifier).
    fn restore_plug(snap: &crate::snapshot::HomeSnapshot) -> FiatProxy {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        FiatProxy::restore(
            ProxyConfig::default(),
            &SECRET,
            validator,
            ProxyTelemetry::default(),
            snap,
            |_| EventClassifier::simple_rule(235),
        )
        .unwrap()
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        // Twin proxies share a prefix; one is snapshotted and restored
        // mid-trace. Suffix decisions, stats, rule counts, and the audit
        // chain must be indistinguishable from the uninterrupted twin.
        let drive_prefix = |proxy: &mut FiatProxy| {
            let t = bootstrap(proxy);
            // A sealed-fate non-manual event left open...
            proxy.on_packet(&pkt(t, 999));
            // ...an unverified manual drop (audited, lockout credit)...
            let mut p = pkt(t + 10_000, 235);
            p.device = 0;
            proxy.on_packet(&p);
            // ...and an unknown device seen once.
            let mut u = pkt(t + 11_000, 50);
            u.device = 7;
            proxy.on_packet(&u);
            t
        };
        let mut uninterrupted = proxy_with_plug();
        let mut snapshotted = proxy_with_plug();
        let t = drive_prefix(&mut uninterrupted);
        drive_prefix(&mut snapshotted);

        let snap = snapshotted.snapshot();
        let mut restored = restore_plug(&snap);
        assert_eq!(restored.rule_count(), uninterrupted.rule_count());
        assert_eq!(restored.audit().head(), uninterrupted.audit().head());

        // Resume: rule hits, the still-open event, a second manual drop,
        // and a flush must all replay identically.
        let suffix = [
            pkt(t + 11_500, 100), // rule hit
            pkt(t + 12_000, 999), // still within the open event's gap
            pkt(t + 20_000, 235), // fresh manual drop
        ];
        for p in &suffix {
            assert_eq!(uninterrupted.on_packet(p), restored.on_packet(p));
        }
        uninterrupted.flush(SimTime::from_millis(t + 120_000));
        restored.flush(SimTime::from_millis(t + 120_000));
        assert_eq!(uninterrupted.stats(), restored.stats());
        assert_eq!(uninterrupted.audit().head(), restored.audit().head());
        assert!(restored.audit().verify());
    }

    #[test]
    fn stage_sampling_survives_snapshot_restore() {
        // Stage histograms sample by decision index, which travels in the
        // snapshot. A proxy snapshotted off a sampling boundary and
        // restored into fresh telemetry must, summed with its pre-move
        // histograms, time exactly the decisions an uninterrupted proxy
        // times.
        const STAGES: [&str; 4] = ["decide", "rule_match", "event_grouping", "classification"];
        let counts = |p: &FiatProxy| STAGES.map(|n| p.telemetry().stage(n).unwrap().count());
        // Rule hits with a non-manual event every third packet.
        let suffix = |t: u64| {
            (0..300u64).map(move |k| pkt(t + k * 10_000, if k % 3 == 0 { 999 } else { 100 }))
        };
        let mut uninterrupted = proxy_with_plug();
        let t = bootstrap(&mut uninterrupted);
        for p in suffix(t) {
            uninterrupted.on_packet(&p);
        }

        let mut moved = proxy_with_plug();
        bootstrap(&mut moved);
        let split = 30;
        for p in suffix(t).take(split) {
            moved.on_packet(&p);
        }
        assert_ne!(
            moved.stats().total() % ProxyTelemetry::STAGE_SAMPLE_EVERY,
            0
        );
        let before = counts(&moved);
        let mut restored = restore_plug(&moved.snapshot());
        for p in suffix(t).skip(split) {
            restored.on_packet(&p);
        }
        let after = counts(&restored);

        assert_eq!(restored.stats(), uninterrupted.stats());
        let whole = counts(&uninterrupted);
        assert_eq!(
            whole[0],
            uninterrupted
                .stats()
                .total()
                .div_ceil(ProxyTelemetry::STAGE_SAMPLE_EVERY)
        );
        assert!(whole[3] > 0, "no sampled decision reached classification");
        for (i, stage) in STAGES.iter().enumerate() {
            assert_eq!(before[i] + after[i], whole[i], "{stage}");
        }
    }

    #[test]
    fn snapshot_preserves_zero_rtt_tickets_across_restore() {
        // A ticket issued before the snapshot keeps working after the
        // restore (the PSK-derived ticket secrets are re-derivable), and
        // its replay protection survives too.
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        let mut app = FiatApp::new(&SECRET, 11);
        let ch = app.handshake_request();
        let sh = proxy.accept_handshake(&ch);
        app.complete_handshake(&sh).unwrap();
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, 3);
        let z0 = app
            .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, t)
            .unwrap();
        proxy
            .on_auth_zero_rtt(&z0, SimTime::from_millis(t))
            .unwrap();

        let mut restored = restore_plug(&proxy.snapshot());
        // A replay of the pre-snapshot proof is still caught.
        assert_eq!(
            restored.on_auth_zero_rtt(&z0, SimTime::from_millis(t + 1)),
            Err(AuthError::Transport(fiat_quic::QuicError::Replayed))
        );
        // A fresh proof under the old ticket verifies.
        let z1 = app
            .authorize_zero_rtt("app", &imu, MotionKind::HumanTouch, t + 1000)
            .unwrap();
        assert_eq!(
            restored.on_auth_zero_rtt(&z1, SimTime::from_millis(t + 1000)),
            Ok(true)
        );
    }

    #[test]
    fn snapshot_serde_round_trips_byte_identically() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        proxy.on_packet(&pkt(t, 235));
        proxy.set_degraded(SimTime::from_millis(t + 1), true);
        let snap = proxy.snapshot();
        let bytes = serde_json::to_vec(&snap).unwrap();
        let back: crate::snapshot::HomeSnapshot = serde_json::from_slice(&bytes).unwrap();
        let again = serde_json::to_vec(&back).unwrap();
        assert_eq!(bytes, again);
        // And two snapshots of the same state serialize identically.
        assert_eq!(bytes, serde_json::to_vec(&proxy.snapshot()).unwrap());
    }

    #[test]
    fn restore_rejects_foreign_versions_and_tampered_audit() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        proxy.on_packet(&pkt(t, 235));
        let good = proxy.snapshot();

        let mut wrong_version = good.clone();
        wrong_version.version = crate::snapshot::SNAPSHOT_VERSION + 1;
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        assert_eq!(
            FiatProxy::restore(
                ProxyConfig::default(),
                &SECRET,
                validator,
                ProxyTelemetry::default(),
                &wrong_version,
                |_| EventClassifier::simple_rule(235),
            )
            .err(),
            Some(crate::snapshot::SnapshotError::UnsupportedVersion(
                crate::snapshot::SNAPSHOT_VERSION + 1
            ))
        );

        let mut tampered = good.clone();
        tampered.audit_entries[0].verdict = AuditVerdict::AllowedManualVerified;
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        assert_eq!(
            FiatProxy::restore(
                ProxyConfig::default(),
                &SECRET,
                validator,
                ProxyTelemetry::default(),
                &tampered,
                |_| EventClassifier::simple_rule(235),
            )
            .err(),
            Some(crate::snapshot::SnapshotError::AuditChainInvalid)
        );
    }

    // ---- bounded state (DESIGN §18) ------------------------------------

    fn pkt_dev(ts_ms: u64, size: u16, device: u16) -> PacketRecord {
        PacketRecord {
            device,
            ..pkt(ts_ms, size)
        }
    }

    #[test]
    fn record_cap_demotes_oldest_deadline_record() {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            proof_deadline: Some(SimDuration::from_secs(60)),
            max_quarantine_records: Some(2),
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config, &SECRET, validator);
        for d in 0..3 {
            proxy.register_device(d, EventClassifier::simple_rule(235), 1);
        }
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);

        assert_eq!(
            proxy.on_packet(&pkt_dev(t, 235, 0)),
            ProxyDecision::Quarantine
        );
        assert_eq!(
            proxy.on_packet(&pkt_dev(t + 1_000, 235, 1)),
            ProxyDecision::Quarantine
        );
        // A third concurrent record is over the cap: device 0's record
        // (oldest deadline) is demoted first, then the new one is held.
        assert_eq!(
            proxy.on_packet(&pkt_dev(t + 2_000, 235, 2)),
            ProxyDecision::Quarantine
        );
        assert_eq!(proxy.state_size().quarantine_records, 2);
        let s = proxy.stats();
        assert_eq!(s.quarantined, 3);
        assert_eq!(s.quarantine_expired, 1);
        let demoted = proxy
            .audit()
            .entries()
            .iter()
            .find(|e| e.verdict == AuditVerdict::QuarantineExpired)
            .unwrap();
        assert_eq!(demoted.device, 0);
        assert_eq!(
            demoted.ts,
            SimTime::from_millis(t + 2_000),
            "credited at demotion time, never the future deadline"
        );
        // A proof still releases the surviving records (devices 1, 2).
        prove_human(&mut proxy, 1, t + 3_000);
        assert_eq!(proxy.take_quarantine_releases().len(), 2);
        assert!(proxy.audit().verify());
    }

    #[test]
    fn sealed_event_stops_buffering_packets() {
        // Drop-fated event: after the verdict the open event must not
        // keep buffering every in-gap packet (the unbounded-state bug
        // the soak accountant caught).
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        proxy.on_packet(&pkt(t, 235));
        assert_eq!(proxy.state_size().open_packets, 1);
        for k in 1..5u64 {
            proxy.on_packet(&pkt(t + k * 1_000, 235));
        }
        assert_eq!(
            proxy.state_size().open_packets,
            1,
            "a sealed event no longer buffers"
        );

        // Quarantine-fated event: held packets live in the record only,
        // never a second copy in the open event.
        let mut proxy = quarantine_proxy(10_000);
        let t = bootstrap(&mut proxy);
        for k in 0..4u64 {
            assert_eq!(
                proxy.on_packet(&pkt(t + k * 500, 235)),
                ProxyDecision::Quarantine
            );
        }
        let size = proxy.state_size();
        assert_eq!(size.quarantine_held, 4);
        assert_eq!(size.open_packets, 1);
    }

    #[test]
    fn snapshot_restores_truncated_audit_chain() {
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            max_audit_entries: Some(8),
            ..ProxyConfig::default()
        };
        let mut proxy = FiatProxy::new(config.clone(), &SECRET, validator);
        proxy.register_device(0, EventClassifier::simple_rule(235), 1);
        proxy.start(SimTime::ZERO);
        let t = bootstrap(&mut proxy);
        // Spaced manual drops stay under the lockout tolerance but push
        // the audit log past its cap several times over.
        for k in 0..12u64 {
            proxy.on_packet(&pkt(t + k * 40_000, 235));
        }
        assert!(proxy.audit().truncated() > 0);
        assert!(proxy.audit().checkpoint().is_some());
        assert!(proxy.audit().verify());

        // The snapshot round-trips the truncated chain byte-identically
        // and the restored log still verifies (from the checkpoint).
        let snap = proxy.snapshot();
        let bytes = serde_json::to_vec(&snap).unwrap();
        let back: crate::snapshot::HomeSnapshot = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(bytes, serde_json::to_vec(&back).unwrap());
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let mut restored = FiatProxy::restore(
            config,
            &SECRET,
            validator,
            ProxyTelemetry::default(),
            &back,
            |_| EventClassifier::simple_rule(235),
        )
        .unwrap();
        assert!(restored.audit().verify());
        assert_eq!(restored.audit().head(), proxy.audit().head());
        assert_eq!(restored.audit().truncated(), proxy.audit().truncated());

        // Resume both: the chains stay in lockstep across further
        // truncations.
        for k in 12..20u64 {
            let p = pkt(t + k * 40_000, 235);
            assert_eq!(proxy.on_packet(&p), restored.on_packet(&p));
        }
        assert_eq!(restored.audit().head(), proxy.audit().head());
        assert!(restored.audit().verify());
    }

    #[test]
    fn snapshot_round_trips_lru_order_and_ghosts() {
        // Two periodic flows learned, cap 1: the older one is evicted to
        // a ghost, then touched once so the ghost carries re-learn state.
        let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
        let config = ProxyConfig {
            max_rules: Some(1),
            ..ProxyConfig::default()
        };
        let build = || {
            let validator = HumannessValidator::with_operating_point(1.0, 1.0, 0);
            let mut proxy = FiatProxy::new(
                ProxyConfig {
                    max_rules: Some(1),
                    ..ProxyConfig::default()
                },
                &SECRET,
                validator,
            );
            proxy.register_device(0, EventClassifier::simple_rule(235), 1);
            proxy.start(SimTime::ZERO);
            let mut t = 0;
            while t < 20 * 60 * 1000 {
                proxy.on_packet(&pkt(t, 100));
                proxy.on_packet(&pkt(t + 5_000, 150));
                t += 10_000;
            }
            // The size-100 flow (earlier last-seen) was evicted; touch
            // its ghost so last_ts/last_bin round-trip too.
            proxy.on_packet(&pkt(t, 100));
            (proxy, t)
        };
        let (mut uninterrupted, t) = build();
        let (snapshotted, _) = build();
        assert_eq!(snapshotted.rule_count(), 1);
        assert_eq!(snapshotted.state_size().rule_ghosts, 1);

        let snap = snapshotted.snapshot();
        assert_eq!(snap.rule_ghosts.len(), 1);
        assert!(snap.rule_ghosts[0].last_ts.is_some());
        let bytes = serde_json::to_vec(&snap).unwrap();
        let mut restored = FiatProxy::restore(
            config,
            &SECRET,
            validator,
            ProxyTelemetry::default(),
            &snap,
            |_| EventClassifier::simple_rule(235),
        )
        .unwrap();
        // Restore → snapshot reproduces the exact bytes (LRU order and
        // ghost state are semantic, not incidental).
        assert_eq!(bytes, serde_json::to_vec(&restored.snapshot()).unwrap());

        // Resume: the ghost re-promotes identically in both twins (two
        // more qualifying repeats at the same cadence).
        for k in 1..4u64 {
            let p = pkt(t + k * 10_000, 100);
            assert_eq!(uninterrupted.on_packet(&p), restored.on_packet(&p));
        }
        assert_eq!(uninterrupted.rule_count(), restored.rule_count());
        assert_eq!(
            uninterrupted.state_size().rule_ghosts,
            restored.state_size().rule_ghosts
        );
    }

    #[test]
    fn degraded_mode_is_audited_and_counted() {
        let mut proxy = proxy_with_plug();
        let t = bootstrap(&mut proxy);
        assert!(!proxy.is_degraded());
        proxy.set_degraded(SimTime::from_millis(t), true);
        proxy.set_degraded(SimTime::from_millis(t), true); // idempotent
        assert!(proxy.is_degraded());
        proxy.on_packet(&pkt(t, 100));
        proxy.on_packet(&pkt(t + 100, 100));
        proxy.set_degraded(SimTime::from_millis(t + 200), false);
        proxy.on_packet(&pkt(t + 300, 100));

        assert_eq!(proxy.telemetry().degraded_decision_count(), 2);
        let transitions: Vec<_> = proxy
            .audit()
            .entries()
            .iter()
            .filter(|e| e.device == AUDIT_PROXY_DEVICE)
            .map(|e| e.verdict)
            .collect();
        assert_eq!(
            transitions,
            vec![
                AuditVerdict::DegradedModeEntered,
                AuditVerdict::DegradedModeExited
            ]
        );
        assert!(proxy.audit().verify());
        let g = proxy
            .telemetry()
            .registry()
            .gauge("fiat_proxy_degraded", &[]);
        assert_eq!(g.get(), 0);
    }
}
