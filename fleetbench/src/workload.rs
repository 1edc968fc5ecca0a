//! The four workloads and their seeded set-up: corpus generation,
//! stranger traffic, fingerprint signature learning and proof
//! pre-sealing. Nothing here is timed by the measured passes; the whole
//! of [`setup`] is what `setup_s` reports.

use fiat_control::{enroll_home, DeviceSpec, HomeProvision};
use fiat_core::{EventClassifier, ProxyConfig, ProxyTelemetry};
use fiat_fingerprint::{MatcherConfig, SignatureSet};
use fiat_fleet::HomeWorkload;
use fiat_net::{PacketRecord, SimDuration, SimTime, Trace, TrafficClass};
use fiat_quic::ZeroRttPacket;
use fiat_sensors::{HumannessValidator, ImuTrace, MotionKind};
use fiat_trace::{
    fingerprint_corpus, spoofed_trace, testbed_devices, Location, TestbedConfig, TestbedTrace,
};

/// Pairing secret of every simulated home, as in `fiat-fleet`.
pub const SECRET: [u8; 32] = [0xF1; 32];
/// Enrollment nonce seed, as in `fiat-fleet`.
const ENROLL_SEED: u64 = 0xF1EE;
/// First device id given to strangers: no testbed device uses it.
const STRANGER_ID: u16 = 1000;
/// Phone-side delay between a manual event starting and its proof.
const PROOF_DELAY: SimDuration = SimDuration::from_millis(300);
/// How long one inline stranger keeps talking.
const STRANGER_SPAN: SimDuration = SimDuration::from_mins(30);
/// How long one probe-tail stranger keeps talking.
const TAIL_STRANGER_SPAN: SimDuration = SimDuration::from_mins(5);
/// Spacing of probe-tail proofs.
const TAIL_PROOF_GAP: SimDuration = SimDuration::from_millis(100);
/// `(claimed, behaved)` testbed indices of the spoofing strangers.
const SPOOF_PAIRS: [(usize, usize); 3] = [(3, 2), (2, 0), (0, 3)];

/// Calls a workload adds after each home's own trace, in the latency
/// and traced passes only, so that every layer is timed on every
/// workload. The fleet passes never run them.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// Strangers whose packets follow the trace.
    pub strangers: usize,
    /// 0-RTT proofs delivered after the trace.
    pub proofs: usize,
    /// Snapshot-and-restore migrations of the final state.
    pub migrations: usize,
}

/// One workload: a seeded multi-home corpus and what happens to it.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Homes at scale 1.
    pub homes: usize,
    /// Simulated days per home.
    pub days: f64,
    /// Manual events per device per day in the testbed generator.
    pub manual_per_day: f64,
    /// Every ground-truth manual event gets a 0-RTT proof.
    pub proofs: bool,
    /// Spoofing strangers per home, arriving after bootstrap.
    pub strangers: usize,
    /// Migrations per home at evenly spaced packet indices.
    pub migrations: usize,
    /// Quarantine and the fingerprint gate on.
    pub guarded: bool,
    /// Probe calls after each home's trace.
    pub tail: Tail,
}

impl Spec {
    /// Whether the fleet passes run through `fiat_fleet::run_sharded`
    /// unchanged (no proofs, strangers or migrations to interleave).
    pub fn plain(&self) -> bool {
        !self.proofs && self.strangers == 0 && self.migrations == 0 && !self.guarded
    }

    /// The proxy configuration every home of this workload runs.
    pub fn config(&self) -> ProxyConfig {
        if self.guarded {
            ProxyConfig {
                proof_deadline: Some(SimDuration::from_secs(10)),
                fingerprint_unknown: true,
                ..ProxyConfig::default()
            }
        } else {
            ProxyConfig::default()
        }
    }
}

/// Every workload `--workload` accepts. `BENCHMARK.json` lists `steady`
/// and `guarded`; `README.md` says why.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "steady",
        homes: 32,
        days: 1.0,
        manual_per_day: 12.0,
        proofs: false,
        strangers: 0,
        migrations: 0,
        guarded: false,
        tail: Tail {
            strangers: 2,
            proofs: 32,
            migrations: 4,
        },
    },
    Spec {
        name: "onboard",
        homes: 2000,
        days: 0.02,
        manual_per_day: 12.0,
        proofs: false,
        strangers: 0,
        migrations: 0,
        guarded: false,
        tail: Tail {
            strangers: 1,
            proofs: 1,
            migrations: 1,
        },
    },
    Spec {
        name: "guarded",
        homes: 64,
        days: 0.25,
        manual_per_day: 200.0,
        proofs: true,
        strangers: 2,
        migrations: 0,
        guarded: true,
        tail: Tail {
            strangers: 0,
            proofs: 0,
            migrations: 2,
        },
    },
    Spec {
        name: "migrate",
        homes: 128,
        days: 0.25,
        manual_per_day: 12.0,
        proofs: false,
        strangers: 0,
        migrations: 8,
        guarded: false,
        tail: Tail {
            strangers: 2,
            proofs: 8,
            migrations: 0,
        },
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Something that happens between two packets of a home's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ActKind {
    /// Deliver `proofs[i]`.
    Proof(usize),
    /// Snapshot the proxy, restore it into a fresh registry, go on.
    Migrate,
}

/// An [`ActKind`] scheduled before packet index `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Act {
    /// Index of the packet the act precedes (`len` = after the last).
    pub at: usize,
    /// What happens.
    pub kind: ActKind,
}

/// Everything one home needs beyond its capture.
pub struct HomePlan {
    /// Inline acts, sorted by `at`.
    pub acts: Vec<Act>,
    /// Pre-sealed proofs and their delivery times.
    pub proofs: Vec<(ZeroRttPacket, SimTime)>,
    /// Probe-tail stranger packets, after the trace.
    pub tail_packets: Vec<PacketRecord>,
    /// Probe-tail proofs, after the tail packets.
    pub tail_proofs: Vec<(ZeroRttPacket, SimTime)>,
    /// Probe-tail migrations.
    pub tail_migrations: usize,
}

/// A set-up workload: the fleet corpus plus each home's plan.
pub struct Bench {
    /// The workload.
    pub spec: &'static Spec,
    /// The homes, in the form `fiat-fleet` takes them.
    pub homes: Vec<HomeWorkload>,
    /// Per-home plans, index-aligned with `homes`.
    pub plans: Vec<HomePlan>,
    /// Learned fingerprint signatures (guarded workloads).
    pub sigs: Option<SignatureSet>,
    /// The configuration every proxy runs.
    pub config: ProxyConfig,
}

impl Bench {
    /// Packets in the workload's own traces.
    pub fn packets(&self) -> u64 {
        self.homes
            .iter()
            .map(|w| w.capture.trace.packets.len() as u64)
            .sum()
    }

    /// Inline proofs across the fleet.
    pub fn proofs(&self) -> u64 {
        self.plans.iter().map(|p| p.proofs.len() as u64).sum()
    }

    /// Inline migrations across the fleet.
    pub fn migrations(&self) -> u64 {
        let per_home = self.spec.migrations as u64;
        per_home * self.homes.len() as u64
    }
}

/// The fleet's simple-rule classifier for one device (as `fiat-fleet`
/// builds it): command size for simple-rule devices, size 0 otherwise.
pub fn classifier(capture: &TestbedTrace, device: u16) -> EventClassifier {
    let size = capture
        .devices
        .get(device as usize)
        .and_then(|d| d.simple_rule_size)
        .unwrap_or(0);
    EventClassifier::simple_rule(size)
}

/// The control-plane provisioning request for one home.
pub fn provision(capture: &TestbedTrace, config: &ProxyConfig) -> HomeProvision {
    HomeProvision {
        config: config.clone(),
        ceremony_secret: SECRET,
        seed: ENROLL_SEED,
        dns: capture.trace.dns.clone(),
        devices: (0..capture.devices.len() as u16)
            .map(|i| DeviceSpec {
                device: i,
                classifier: classifier(capture, i),
                min_packets_to_complete: capture.devices[i as usize].min_packets_to_complete,
            })
            .collect(),
        start_at: SimTime::ZERO,
    }
}

/// The validator every proxy runs (the fleet's: every human trace
/// verifies, so a failed proof is a defect, not a coin flip).
pub fn validator() -> HumannessValidator {
    HumannessValidator::with_operating_point(1.0, 1.0, 0)
}

/// Home `h`'s capture seed, as `fiat_fleet::build_workloads` derives it.
fn home_seed(seed: u64, h: usize) -> u64 {
    seed.wrapping_add((h as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A spoofing stranger with device id `id`, talking for `span` from
/// `start`: its packets, and the DNS answers that resolve the endpoints
/// it claims.
fn stranger(id: u16, pick: usize, start: SimTime, span: SimDuration, seed: u64) -> Trace {
    let devices = testbed_devices();
    let (claimed, behaved) = SPOOF_PAIRS[pick % SPOOF_PAIRS.len()];
    let mut trace = spoofed_trace(&devices[claimed], &devices[behaved], id, span, seed);
    let offset = start - SimTime::ZERO;
    for p in &mut trace.packets {
        p.ts += offset;
    }
    trace
}

/// Build workload `spec` at `scale` (a share of its homes, at least 2)
/// from `seed`. The same arguments give the same inputs.
pub fn setup(spec: &'static Spec, seed: u64, scale: f64) -> Bench {
    let n = ((spec.homes as f64 * scale).round() as usize).max(2);
    let config = spec.config();
    let sigs = spec.guarded.then(|| {
        let window = MatcherConfig::default().evidence_window;
        SignatureSet::learn(&fingerprint_corpus(seed), window)
    });
    let bootstrap_end = SimTime::ZERO + config.bootstrap;
    let mut homes = Vec::with_capacity(n);
    let mut plans = Vec::with_capacity(n);
    for h in 0..n {
        let hseed = home_seed(seed, h);
        let mut capture = TestbedTrace::generate(TestbedConfig {
            location: Location::Us,
            days: spec.days,
            seed: hseed,
            manual_per_day: spec.manual_per_day,
            routines_per_day: 10.0,
            confusion_scale: 0.15,
        });
        // Inline strangers arrive after bootstrap, evenly spread over
        // the enforcement period: one arriving during bootstrap would be
        // learned as rules and never reach the gate.
        let end = SimTime::ZERO + SimDuration::from_secs((spec.days * 86_400.0) as u64);
        let gap = (end - bootstrap_end).as_micros() / (spec.strangers as u64 + 1);
        for s in 0..spec.strangers {
            let start = bootstrap_end + SimDuration::from_micros(gap * (s as u64 + 1));
            let id = STRANGER_ID + s as u16;
            capture
                .trace
                .merge(stranger(id, h + s, start, STRANGER_SPAN, hseed ^ s as u64));
        }
        let plan = plan_home(spec, &config, &capture, hseed);
        homes.push(HomeWorkload {
            home: h as u32,
            capture,
        });
        plans.push(plan);
    }
    Bench {
        spec,
        homes,
        plans,
        sigs,
        config,
    }
}

/// Schedule one home's inline acts and probe tail, pre-sealing every
/// proof with the home's own phone app.
fn plan_home(spec: &Spec, config: &ProxyConfig, capture: &TestbedTrace, hseed: u64) -> HomePlan {
    let packets = &capture.trace.packets;
    let mut acts = Vec::new();
    let mut proofs = Vec::new();
    let mut tail_proofs = Vec::new();
    let tail_start = packets.last().map_or(SimTime::ZERO, |p| p.ts) + SimDuration::from_secs(1);

    let mut tail_packets = Vec::new();
    for s in 0..spec.tail.strangers {
        let id = STRANGER_ID + (spec.strangers + s) as u16;
        let seed = hseed ^ 0x7a11 ^ s as u64;
        tail_packets.extend(stranger(id, s, tail_start, TAIL_STRANGER_SPAN, seed).packets);
    }
    tail_packets.sort_by_key(|p| p.ts);

    if spec.proofs || spec.tail.proofs > 0 {
        // The phone app a home's enrollment pairs: the proxy side is
        // rebuilt identically in every pass, and a fresh proxy's replay
        // store has seen none of these nonces.
        let telemetry = ProxyTelemetry::default();
        let mut app = enroll_home(
            provision(capture, config),
            &SECRET,
            validator(),
            telemetry,
            None,
        )
        .expect("set-up enrollment: shared ceremony secret always verifies")
        .app;
        let imu = ImuTrace::synthesize(MotionKind::HumanTouch, 500, hseed);
        let mut seal = |t: SimTime| {
            let z = app
                .authorize_zero_rtt("fiat.app", &imu, MotionKind::HumanTouch, t.as_micros())
                .expect("enrolled app can seal 0-RTT");
            (z, t)
        };
        if spec.proofs {
            // Sealed in delivery order, so nonces and validity windows
            // both advance with time.
            let mut times: Vec<SimTime> = capture
                .events
                .iter()
                .filter(|e| e.class == TrafficClass::Manual)
                .map(|e| e.start + PROOF_DELAY)
                .collect();
            times.sort();
            for t in times {
                acts.push(Act {
                    at: packets.partition_point(|p| p.ts < t),
                    kind: ActKind::Proof(proofs.len()),
                });
                proofs.push(seal(t));
            }
        }
        let first = tail_packets.last().map_or(tail_start, |p| p.ts) + SimDuration::from_secs(1);
        for i in 0..spec.tail.proofs {
            tail_proofs.push(seal(
                first + SimDuration::from_micros(TAIL_PROOF_GAP.as_micros() * i as u64),
            ));
        }
    }
    for k in 1..=spec.migrations {
        acts.push(Act {
            at: packets.len() * k / (spec.migrations + 1),
            kind: ActKind::Migrate,
        });
    }
    acts.sort();
    HomePlan {
        acts,
        proofs,
        tail_packets,
        tail_proofs,
        tail_migrations: spec.tail.migrations,
    }
}
