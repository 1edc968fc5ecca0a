//! The timed ledger: times every public call of one home's run from
//! outside, attributes it to a layer, and (in the traced binary) counts
//! its allocations. The latency pass keeps the per-call samples for the
//! end-to-end percentiles; the traced pass turns the layer sums into
//! the per-layer metrics.
//!
//! Each home is timed once per round. The shared host slows
//! single-thread work by about 1.4× in phases of a fraction of a second
//! to a few seconds, so a run keeps the least disturbed timings: each
//! call's fastest of the rounds for the end-to-end latencies
//! ([`CallMins`]; the replay is deterministic, so a home's k-th call is
//! the same work every round), and each home's fastest whole run for the
//! per-layer ledger ([`BestHomes`]), whose layer times must reconcile
//! with that run's wall time.

use crate::fleet::{Call, HomeOut, Ledger};
use fiat_core::{AllowReason, ProxyDecision};
use fiat_probe::AllocScope;
use std::time::{Duration, Instant};

/// A layer of the per-layer ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `MetricRegistry::new` + `ProxyTelemetry::new`.
    TelemetryNew,
    /// Folding a home's registries.
    TelemetryMerge,
    /// `enroll_home`.
    Enroll,
    /// `snapshot_home`.
    Snapshot,
    /// `restore_home`.
    Restore,
    /// `on_packet` returning `RuleHit`.
    RuleHit,
    /// `on_packet` returning `Bootstrap`.
    Bootstrap,
    /// The first post-bootstrap `on_packet` of a home (learns rules).
    Learn,
    /// Every other `on_packet` of a registered device: the event path.
    Event,
    /// `on_auth_zero_rtt`.
    Proof,
    /// `on_packet` of an unregistered MAC.
    Fingerprint,
}

/// Number of [`Layer`]s.
const LAYERS: usize = 11;

/// One layer's totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Calls.
    pub calls: u64,
    /// Busy nanoseconds.
    pub nanos: u64,
    /// Allocations (0 unless the counting allocator is installed).
    pub allocs: u64,
}

impl Acc {
    /// Mean nanoseconds per call (0 with no calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.nanos as f64 / self.calls as f64
        }
    }
}

/// Per-layer totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers([Acc; LAYERS]);

impl Layers {
    /// One layer's totals.
    pub fn get(&self, layer: Layer) -> Acc {
        self.0[layer as usize]
    }

    /// Busy nanoseconds across every layer.
    pub fn busy_nanos(&self) -> u64 {
        self.0.iter().map(|a| a.nanos).sum()
    }

    fn record(&mut self, layer: Layer, nanos: u64, allocs: u64) {
        let a = &mut self.0[layer as usize];
        a.calls += 1;
        a.nanos += nanos;
        a.allocs += allocs;
    }
}

impl std::ops::AddAssign<&Layers> for Layers {
    fn add_assign(&mut self, o: &Layers) {
        for (a, b) in self.0.iter_mut().zip(&o.0) {
            a.calls += b.calls;
            a.nanos += b.nanos;
            a.allocs += b.allocs;
        }
    }
}

/// Times every call of one home's run; see the module docs.
pub struct Timed {
    count_allocs: bool,
    in_tail: bool,
    learned: bool,
    /// Per-layer totals.
    pub layers: Layers,
    /// `on_packet` latencies of the home's own trace, ns.
    pub decide: Vec<u32>,
    /// `on_auth_zero_rtt` latencies, ns (inline and tail).
    pub proof: Vec<u32>,
    /// Snapshot-plus-restore pauses, ns (inline and tail).
    pub migrate: Vec<u32>,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Timed {
    /// A fresh ledger; `count_allocs` only in the traced binary.
    pub fn new(count_allocs: bool) -> Self {
        Timed {
            count_allocs,
            in_tail: false,
            learned: false,
            layers: Layers::default(),
            decide: Vec::new(),
            proof: Vec::new(),
            migrate: Vec::new(),
        }
    }

    fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, u64, u64) {
        let scope = self.count_allocs.then(AllocScope::enter);
        let t = Instant::now();
        let out = f();
        let nanos = ns(t);
        let allocs = scope.map_or(0, |s| s.delta());
        (out, nanos, allocs)
    }
}

impl Ledger for Timed {
    fn call<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        let (out, nanos, allocs) = self.timed(f);
        let layer = match call {
            Call::TelemetryNew => Layer::TelemetryNew,
            Call::Enroll => Layer::Enroll,
            Call::Merge => Layer::TelemetryMerge,
            Call::Snapshot => Layer::Snapshot,
            Call::Restore => Layer::Restore,
            Call::Proof => {
                self.proof.push(nanos as u32);
                Layer::Proof
            }
        };
        self.layers.record(layer, nanos, allocs);
        out
    }

    fn packet(&mut self, stranger: bool, f: impl FnOnce() -> ProxyDecision) -> ProxyDecision {
        let (d, nanos, allocs) = self.timed(f);
        let layer = if d == ProxyDecision::Allow(AllowReason::Bootstrap) {
            Layer::Bootstrap
        } else if !self.learned {
            self.learned = true;
            Layer::Learn
        } else if stranger {
            Layer::Fingerprint
        } else if d == ProxyDecision::Allow(AllowReason::RuleHit) {
            Layer::RuleHit
        } else {
            Layer::Event
        };
        if !self.in_tail {
            self.decide.push(nanos as u32);
        }
        self.layers.record(layer, nanos, allocs);
        d
    }

    fn migration<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let t = Instant::now();
        let out = f(self);
        self.migrate.push(ns(t) as u32);
        out
    }

    fn tail_start(&mut self) {
        self.in_tail = true;
    }
}

/// One home's timed run.
pub struct HomeTiming {
    /// Wall time of the home's own trace, its registry fold included.
    pub wall: Duration,
    /// Wall time of its probe tail.
    pub tail: Duration,
    /// What the home produced (registries already folded).
    pub out: HomeOut,
    /// Its calls, timed.
    pub ledger: Timed,
}

/// Each home's fastest timing across the rounds of a run.
#[derive(Default)]
pub struct BestHomes {
    homes: Vec<Option<HomeTiming>>,
}

impl BestHomes {
    /// Keep every home of `pass` that beat its best so far.
    pub fn offer(&mut self, pass: Vec<HomeTiming>) {
        self.homes.resize_with(pass.len(), || None);
        for (best, t) in self.homes.iter_mut().zip(pass) {
            if best
                .as_ref()
                .is_none_or(|b| t.wall + t.tail < b.wall + b.tail)
            {
                *best = Some(t);
            }
        }
    }

    /// The kept timings, one per home.
    pub fn homes(&self) -> impl Iterator<Item = &HomeTiming> {
        self.homes.iter().flatten()
    }
}

/// Each timed call's fastest time across the rounds of a run, per home
/// and per call index, for the three latency families.
#[derive(Default)]
pub struct CallMins {
    homes: Vec<[Vec<u32>; 3]>,
}

impl CallMins {
    /// Fold one pass in. Every pass replays the same calls in the same
    /// order, so the families line up index by index.
    pub fn offer(&mut self, pass: &[HomeTiming]) {
        if self.homes.is_empty() {
            self.homes = pass
                .iter()
                .map(|t| {
                    let l = &t.ledger;
                    [l.decide.clone(), l.proof.clone(), l.migrate.clone()]
                })
                .collect();
            return;
        }
        for (mins, t) in self.homes.iter_mut().zip(pass) {
            let l = &t.ledger;
            for (m, new) in mins.iter_mut().zip([&l.decide, &l.proof, &l.migrate]) {
                assert_eq!(
                    m.len(),
                    new.len(),
                    "a replay made a different number of calls"
                );
                for (a, &b) in m.iter_mut().zip(new) {
                    *a = (*a).min(b);
                }
            }
        }
    }

    /// One family (0 decide, 1 proof, 2 migrate), pooled across homes.
    pub fn pooled(&self, family: usize) -> Vec<u32> {
        self.homes
            .iter()
            .flat_map(|h| h[family].iter().copied())
            .collect()
    }
}
