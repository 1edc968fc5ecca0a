//! # fleetbench — the FIAT fleet benchmark
//!
//! Replays seeded multi-home corpora through the public API of
//! `fiat-control`, `fiat-core` and `fiat-fleet` in a closed loop (each
//! home's trace is decided as fast as the proxy goes; corpus timestamps
//! are simulated time, not a send schedule) and prints one JSON result
//! line. `README.md` in this directory says why each workload exists
//! and which end-to-end metric each layer metric should move.
//!
//! One run (`--trace 0`) sets the workload up several times (`setup_s`
//! is the median), builds the reference outcome once, then repeats
//! rounds for `--seconds`: the fleet at 2 shards and at 1 shard (no
//! timing inside the calls), and a single-thread latency pass that
//! times every call. Throughput is the fastest fleet run; latencies
//! pool each home's fastest timed run (see [`ledger`] for why). A traced
//! run (`--trace 1`, the traced binary) repeats rounds of the untraced
//! single-shard fleet, the traced pass with allocation counting, and a
//! stage-profiled 2-shard fleet, and reports the per-layer ledger.
//! Every pass is checked against the reference; failures are counted.

pub mod cpus;
pub mod fleet;
pub mod ledger;
pub mod workload;

use fiat_core::ProxyStats;
use fiat_fingerprint::{MatcherConfig, SignatureSet};
use fiat_probe::{FleetProfile, ProbeConfig, Stage};
use fiat_telemetry::MetricRegistry;
use fleet::{
    check_homes, reference, run_fleet, run_home, run_tail, Call, HomeOut, Ledger, Mode, Reference,
    Tally,
};
use ledger::{BestHomes, CallMins, HomeTiming, Layer, Timed};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workload::{Bench, Spec};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Largest share of the traced pass's wall time that may fall outside
/// every layer span before the ledger counts as not reconciled.
const LEDGER_TOLERANCE: f64 = 0.15;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

const USAGE: &str = "usage: fleetbench --workload <steady|onboard|guarded|migrate> \
--seed <n> --seconds <s> --trace <0|1> [--scale <share of homes>]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = 1.0;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err(format!("--trace {value}: expected 0 or 1")),
            },
            "--scale" => scale = value.parse::<f64>().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("missing --workload")?;
    let spec = workload::find(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && scale > 0.0 && scale <= 1.0) {
        return Err("--seconds must be > 0 and --scale in (0, 1]".into());
    }
    Ok(Args {
        spec,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        scale,
    })
}

/// Entry point of both binaries; `count_allocs` says whether the
/// counting allocator is installed. Returns the exit code.
pub fn main_with(count_allocs: bool) -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    if args.trace != count_allocs {
        eprintln!("--trace 1 runs need the fleetbench-traced binary, --trace 0 runs fleetbench");
        return 2;
    }
    let result = if args.trace {
        traced_run(&args)
    } else {
        end_to_end_run(&args)
    };
    println!("{}", result.json());
    0
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a run prints last.
struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.failed == 0,
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

/// Percentile `q` (0..1] of `samples` (sorted in place), interpolated
/// within the tied values at the nearest rank: the samples are whole
/// nanoseconds with many ties, and the interpolation keeps a shift of
/// the distribution visible below one nanosecond.
fn percentile(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let v = samples[rank - 1];
    let below = samples.partition_point(|&x| x < v);
    let ties = samples.partition_point(|&x| x <= v) - below;
    f64::from(v) - 0.5 + (rank - below) as f64 / ties as f64
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One untimed-inside fleet pass at `shards`; returns its wall time and
/// the checks' tally.
fn fleet_pass(bench: &Bench, reference: &Reference, shards: usize) -> (Duration, Tally) {
    if bench.spec.plain() {
        let t = Instant::now();
        let fleet = fiat_fleet::run_sharded(&bench.homes, shards);
        let wall = t.elapsed();
        (
            wall,
            check_plain(bench, reference, fleet.stats, &fleet.registry),
        )
    } else {
        let run = run_fleet(bench, shards, false);
        let outs: Vec<&HomeOut> = run.homes.iter().collect();
        (
            run.wall,
            check_homes(reference, &outs, &run.registry, run.stats),
        )
    }
}

/// A `fiat_fleet` run checks only as a whole: merged counters and
/// exposition equal to `run_sequential`, as `experiments fleet` checks.
fn check_plain(
    bench: &Bench,
    reference: &Reference,
    stats: ProxyStats,
    registry: &MetricRegistry,
) -> Tally {
    let homes = bench.homes.len() as u64;
    let same = stats == reference.stats && registry.render_prometheus() == reference.prometheus;
    Tally {
        attempted: homes,
        failed: if same { 0 } else { homes },
    }
}

/// The single-thread pass that times every public call, home by home,
/// checked against the reference.
fn timed_pass(
    bench: &Bench,
    reference: &Reference,
    count_allocs: bool,
) -> (Vec<HomeTiming>, Tally) {
    let mode = Mode {
        migrate: true,
        record: !reference.decisions.is_empty(),
    };
    let registry = MetricRegistry::new();
    let mut stats = ProxyStats::default();
    let mut homes = Vec::with_capacity(bench.homes.len());
    for h in 0..bench.homes.len() {
        let mut ledger = Timed::new(count_allocs);
        let start = Instant::now();
        let (mut out, proxy) = run_home(bench, h, mode, &mut ledger);
        ledger.call(Call::Merge, || {
            for r in &out.registries {
                registry.merge_from(r);
            }
        });
        let wall = start.elapsed();
        let start = Instant::now();
        if let Some(mut proxy) = proxy {
            run_tail(bench, h, &mut ledger, &mut proxy, &mut out);
        }
        let tail = start.elapsed();
        stats += out.stats;
        out.registries.clear();
        homes.push(HomeTiming {
            wall,
            tail,
            out,
            ledger,
        });
    }
    let outs: Vec<&HomeOut> = homes.iter().map(|t| &t.out).collect();
    let tally = check_homes(reference, &outs, &registry, stats);
    (homes, tally)
}

/// Deterministic counts that fix what a workload does at a seed.
fn shape(bench: &Bench, reference: &Reference, pass: &[HomeTiming]) -> String {
    let strangers: u64 = bench.homes.len() as u64 * bench.spec.strangers as u64;
    let stranger_packets: u64 = bench
        .homes
        .iter()
        .map(|w| {
            let registered = w.capture.devices.len();
            w.capture
                .trace
                .packets
                .iter()
                .filter(|p| p.device as usize >= registered)
                .count() as u64
        })
        .sum();
    let tail_packets: u64 = bench
        .plans
        .iter()
        .map(|p| p.tail_packets.len() as u64)
        .sum();
    let sum = |f: fn(&HomeOut) -> u64| pass.iter().map(|t| f(&t.out)).sum::<u64>();
    format!(
        "{{\"workload\": \"{}\", \"homes\": {}, \"packets\": {}, \"proofs\": {}, \
         \"migrations\": {}, \"strangers\": {strangers}, \"stranger_packets\": {stranger_packets}, \
         \"tail_packets\": {tail_packets}, \"timed_proofs\": {}, \"timed_migrations\": {}, \
         \"snapshot_bytes\": {}, \"stats\": {}}}",
        bench.spec.name,
        bench.homes.len(),
        bench.packets(),
        bench.proofs(),
        bench.migrations(),
        sum(|o| o.proofs),
        sum(|o| o.migrations),
        sum(|o| o.snapshot_bytes),
        serde_json::to_string(&reference.stats).expect("stats serialize"),
    )
}

/// Whether a run that started at `start` has measured its `seconds`:
/// it stops when another round like the one started at `round` would
/// end further past them than this one ends short of them.
fn done(start: Instant, round: Instant, seconds: f64) -> bool {
    let half_round = round.elapsed().as_secs_f64() / 2.0;
    start.elapsed().as_secs_f64() + half_round >= seconds
}

fn end_to_end_run(args: &Args) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(workload::setup(args.spec, args.seed, args.scale));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let bench = bench.expect("at least one set-up");
    let reference = reference(&bench);
    let mut tally = Tally {
        attempted: reference.attempted,
        failed: reference.failed,
    };
    let packets = bench.packets() as f64;
    let mut pps = [0.0f64; 2];
    let mut mins = CallMins::default();
    let cpus = cpus::Cpus::allowed();
    let mut rounds = 0usize;
    let start = Instant::now();
    loop {
        let round = Instant::now();
        // Alternate which shard count goes first, so drift within a
        // run does not favour one of them, and which CPU the
        // single-thread passes run on (see `cpus`).
        let order = if rounds.is_multiple_of(2) {
            [2, 1]
        } else {
            [1, 2]
        };
        for shards in order {
            if shards == 1 {
                cpus.pin(rounds);
            }
            let (wall, t) = fleet_pass(&bench, &reference, shards);
            cpus.unpin();
            tally += t;
            pps[shards - 1] = pps[shards - 1].max(packets / wall.as_secs_f64());
        }
        cpus.pin(rounds + 1);
        let (pass, t) = timed_pass(&bench, &reference, false);
        cpus.unpin();
        tally += t;
        if rounds == 0 {
            println!("shape {}", shape(&bench, &reference, &pass));
        }
        mins.offer(&pass);
        rounds += 1;
        if done(start, round, args.seconds) {
            break;
        }
    }
    let mut decide = mins.pooled(0);
    let mut proof = mins.pooled(1);
    let mut migrate = mins.pooled(2);
    let metrics = vec![
        metric("pps", "1/s", pps[1]),
        metric("pps_1shard", "1/s", pps[0]),
        metric("decide_p50_ns", "ns", percentile(&mut decide, 0.50)),
        metric("decide_p99_ns", "ns", percentile(&mut decide, 0.99)),
        metric("proof_p50_us", "us", percentile(&mut proof, 0.50) / 1e3),
        metric("proof_p99_us", "us", percentile(&mut proof, 0.99) / 1e3),
        metric("migrate_p50_us", "us", percentile(&mut migrate, 0.50) / 1e3),
        metric("migrate_p90_us", "us", percentile(&mut migrate, 0.90) / 1e3),
        metric("setup_s", "s", median(&setup_s)),
        metric("peak_rss_mb", "MiB", peak_rss_mb()),
    ];
    println!(
        "workload {} seed {} scale {}: {} homes, {} packets, {rounds} rounds in {:.1} s",
        args.spec.name,
        args.seed,
        args.scale,
        bench.homes.len(),
        bench.packets(),
        start.elapsed().as_secs_f64()
    );
    let how = |name: &str| match name.split('_').next() {
        Some("pps") => format!("fastest of {rounds} fleet runs"),
        Some("decide") => format!(
            "{} samples: each call's fastest of {rounds} rounds",
            decide.len()
        ),
        Some("proof") => format!(
            "{} samples: each call's fastest of {rounds} rounds",
            proof.len()
        ),
        Some("migrate") => format!(
            "{} samples: each call's fastest of {rounds} rounds",
            migrate.len()
        ),
        Some("setup") => format!("median of {SETUP_REPEATS} set-ups"),
        _ => "at the end of the run".to_string(),
    };
    for m in &metrics {
        println!(
            "  {:<16} {:>14.3} {:<4} ({})",
            m.name,
            m.value,
            m.unit,
            how(m.name)
        );
    }
    println!(
        "  error_rate {} ({} failed of {} attempted)",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    Outcome { tally, metrics }
}

/// The profiled 2-shard fleet run's stage accounting, checked.
fn profiled_pass(bench: &Bench, reference: &Reference) -> (FleetProfile, Tally) {
    if bench.spec.plain() {
        let run = fiat_fleet::run_sharded_probed(&bench.homes, 2, &ProbeConfig::default());
        let t = check_plain(bench, reference, run.fleet.stats, &run.fleet.registry);
        (run.profile, t)
    } else {
        let run = run_fleet(bench, 2, true);
        let t = check_homes(
            reference,
            &run.homes.iter().collect::<Vec<_>>(),
            &run.registry,
            run.stats,
        );
        (run.profile.expect("profiled run"), t)
    }
}

fn traced_run(args: &Args) -> Outcome {
    let bench = workload::setup(args.spec, args.seed, args.scale);
    let reference = reference(&bench);
    let mut tally = Tally {
        attempted: reference.attempted,
        failed: reference.failed,
    };
    let corpus = fiat_trace::fingerprint_corpus(args.seed);
    let window = MatcherConfig::default().evidence_window;
    let mut wall_1shard = Duration::MAX;
    let mut profile: Option<FleetProfile> = None;
    let mut learn_s = f64::MAX;
    // Fastest whole traced pass (without the probe tails), compared with
    // the fastest whole untraced 1-shard run for the overhead ratio.
    let mut traced_wall = Duration::MAX;
    let mut best = BestHomes::default();
    let cpus = cpus::Cpus::allowed();
    let mut rounds = 0usize;
    let start = Instant::now();
    loop {
        let round = Instant::now();
        cpus.pin(rounds);
        let (wall, t) = fleet_pass(&bench, &reference, 1);
        tally += t;
        wall_1shard = wall_1shard.min(wall);
        let (pass, t) = timed_pass(&bench, &reference, true);
        cpus.unpin();
        tally += t;
        traced_wall = traced_wall.min(pass.iter().map(|t| t.wall).sum());
        best.offer(pass);
        let (p, t) = profiled_pass(&bench, &reference);
        tally += t;
        if profile.as_ref().is_none_or(|q| p.wall_nanos < q.wall_nanos) {
            profile = Some(p);
        }
        let t = Instant::now();
        let sigs = SignatureSet::learn(&corpus, window);
        learn_s = learn_s.min(t.elapsed().as_secs_f64());
        drop(sigs);
        rounds += 1;
        if done(start, round, args.seconds) {
            break;
        }
    }
    let profile = profile.expect("at least one round");
    let overhead = ratio(traced_wall.as_secs_f64(), wall_1shard.as_secs_f64());
    let metrics = layer_metrics(&best, &profile, overhead, learn_s);
    println!(
        "workload {} seed {} scale {} traced: {rounds} rounds in {:.1} s; each home's fastest traced run",
        args.spec.name,
        args.seed,
        args.scale,
        start.elapsed().as_secs_f64()
    );
    for m in &metrics {
        println!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let unaccounted = metrics
        .iter()
        .find(|m| m.name == "trace.unaccounted_share")
        .map_or(0.0, |m| m.value);
    if unaccounted > LEDGER_TOLERANCE {
        println!("  ledger NOT reconciled: {unaccounted:.3} of the traced wall time is outside every layer (tolerance {LEDGER_TOLERANCE})");
        tally.failed += 1;
    } else {
        println!("  ledger reconciled: layer busy time covers all but {unaccounted:.3} of the traced wall time (tolerance {LEDGER_TOLERANCE})");
    }
    Outcome { tally, metrics }
}

/// The per-layer ledger of each home's fastest traced run, summed over
/// the fleet, against the same homes' wall time.
fn layer_metrics(
    best: &BestHomes,
    profile: &FleetProfile,
    overhead: f64,
    learn_s: f64,
) -> Vec<Metric> {
    let mut layers = ledger::Layers::default();
    let (mut wall, mut tail) = (Duration::ZERO, Duration::ZERO);
    let mut s = ProxyStats::default();
    let (mut proofs, mut verified, mut migrations, mut snapshot_bytes) = (0, 0, 0, 0);
    for h in best.homes() {
        layers += &h.ledger.layers;
        wall += h.wall;
        tail += h.tail;
        s += h.out.stats;
        proofs += h.out.proofs;
        verified += h.out.proofs - h.out.proofs_failed;
        migrations += h.out.migrations;
        snapshot_bytes += h.out.snapshot_bytes;
    }
    let l = |layer| layers.get(layer);
    let us = |layer| l(layer).mean_ns() / 1e3;
    let per_call_allocs = |layer: Layer| ratio(l(layer).allocs as f64, l(layer).calls as f64);
    let packet_layers = [
        Layer::RuleHit,
        Layer::Bootstrap,
        Layer::Learn,
        Layer::Event,
        Layer::Fingerprint,
    ];
    let packet_calls: u64 = packet_layers.iter().map(|&x| l(x).calls).sum();
    let packet_allocs: u64 = packet_layers.iter().map(|&x| l(x).allocs).sum();
    let total = (wall + tail).as_secs_f64();
    let unaccounted = total - layers.busy_nanos() as f64 / 1e9;
    let steals: u64 = profile.shards.iter().map(|p| p.steals).sum();
    vec![
        metric("telemetry.new_us", "us", us(Layer::TelemetryNew)),
        metric("telemetry.merge_us", "us", us(Layer::TelemetryMerge)),
        metric("control.enroll_us", "us", us(Layer::Enroll)),
        metric(
            "control.enroll_allocs",
            "count",
            per_call_allocs(Layer::Enroll),
        ),
        metric("control.snapshot_us", "us", us(Layer::Snapshot)),
        metric("control.restore_us", "us", us(Layer::Restore)),
        metric(
            "control.snapshot_bytes",
            "bytes",
            ratio(snapshot_bytes as f64, migrations as f64),
        ),
        metric("core.rule_hit_ns", "ns", l(Layer::RuleHit).mean_ns()),
        metric(
            "core.rule_hit_share",
            "ratio",
            ratio(s.rule_hit as f64, s.total() as f64),
        ),
        metric("core.bootstrap_ns", "ns", l(Layer::Bootstrap).mean_ns()),
        metric("core.learn_us", "us", us(Layer::Learn)),
        metric("core.event_ns", "ns", l(Layer::Event).mean_ns()),
        metric("core.event_busy_s", "s", l(Layer::Event).nanos as f64 / 1e9),
        metric(
            "core.allocs_per_kpkt",
            "count",
            ratio(packet_allocs as f64 * 1e3, packet_calls as f64),
        ),
        metric(
            "auth.verify_busy_s",
            "s",
            l(Layer::Proof).nanos as f64 / 1e9,
        ),
        metric(
            "auth.verified_ratio",
            "ratio",
            ratio(verified as f64, proofs as f64),
        ),
        metric(
            "auth.release_ratio",
            "ratio",
            ratio(
                (s.quarantined - s.quarantine_expired) as f64,
                s.quarantined as f64,
            ),
        ),
        metric(
            "auth.allocs_per_proof",
            "count",
            per_call_allocs(Layer::Proof),
        ),
        metric("fingerprint.gate_ns", "ns", l(Layer::Fingerprint).mean_ns()),
        metric(
            "fingerprint.busy_s",
            "s",
            l(Layer::Fingerprint).nanos as f64 / 1e9,
        ),
        metric("fingerprint.learn_s", "s", learn_s),
        metric(
            "fleet.decide_share",
            "ratio",
            profile.stage_share(Stage::Decide),
        ),
        metric(
            "fleet.merge_share",
            "ratio",
            profile.stage_share(Stage::Merge),
        ),
        metric(
            "fleet.merge_wait_share",
            "ratio",
            profile.stage_share(Stage::MergeWait),
        ),
        metric("fleet.steals", "count", steals as f64),
        metric("trace.overhead_ratio", "ratio", overhead),
        metric(
            "trace.unaccounted_share",
            "ratio",
            ratio(unaccounted, total),
        ),
    ]
}
