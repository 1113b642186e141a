//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <replay_evdo|flood_ctrlc|idle_fleet> --seed <n>
//!           --seconds <s> --trace <0|1> [--scale full|tiny]
//! ```
//!
//! Each workload drives real `mosh_core` endpoints on a two-shard
//! `ShardedHub` over the discrete-event emulator, in *rounds*: a fleet
//! built from the seed, driven to the end of its script, checked and
//! dropped. Virtual-time metrics pool the first few rounds (a fixed
//! amount of work, so they depend on the seed alone); wall-clock metrics
//! are medians over every round that fits in `--seconds`.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs one round
//! untraced and the same round again with every seam recorded, checks
//! that the two schedules are identical, and prints the per-layer
//! metrics. The last stdout line is the result object; the line before
//! it carries host and run metadata.

mod fleet;
mod flood;
mod idle;
mod layers;
mod probe;
mod replay;
mod rng;
mod round;
mod span;

use round::Round;
use span::Layer;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Workload size: the benchmark's own, or a tiny one for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// A few sessions and keystrokes.
    Tiny,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ReplayEvdo,
    FloodCtrlc,
    IdleFleet,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "replay_evdo" => Some(Workload::ReplayEvdo),
            "flood_ctrlc" => Some(Workload::FloodCtrlc),
            "idle_fleet" => Some(Workload::IdleFleet),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ReplayEvdo => "replay_evdo",
            Workload::FloodCtrlc => "flood_ctrlc",
            Workload::IdleFleet => "idle_fleet",
        }
    }

    /// Rounds whose virtual-time results the metrics pool: enough for
    /// about ten samples beyond each reported percentile.
    fn virtual_rounds(self) -> usize {
        match self {
            Workload::ReplayEvdo => 2,
            Workload::FloodCtrlc => 6,
            Workload::IdleFleet => 4,
        }
    }

    /// Fleet set-ups `setup_s` takes the median of.
    fn setups(self) -> usize {
        match self {
            Workload::ReplayEvdo | Workload::FloodCtrlc => 15,
            Workload::IdleFleet => 5,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad("workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("scale")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        scale,
    })
}

/// Runs round `index` of a workload; with `setup_only` the fleet is
/// built and dropped without being driven.
fn run_round(
    args: &Args,
    scripts: &[replay::Script],
    index: u64,
    capture: bool,
    setup_only: bool,
) -> Round {
    let mut rng = rng::Rng::new(args.seed, index);
    match args.workload {
        Workload::ReplayEvdo => replay::round(scripts, &mut rng, capture, setup_only),
        Workload::FloodCtrlc => flood::round(args.scale, &mut rng, capture, setup_only),
        Workload::IdleFleet => idle::round(args.scale, &mut rng, capture, setup_only),
    }
}

/// Linear-interpolated percentile of `values` (`p` in 0..=100); 0 when
/// empty.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process, in KiB (`VmHWM`).
fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Named metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(rounds: &[Round], virtual_rounds: usize, setups: &[f64], peak_kb: f64) -> Metrics {
    let pooled = &rounds[..virtual_rounds.min(rounds.len())];
    let latencies: Vec<f64> = pooled.iter().flat_map(|r| r.latencies.clone()).collect();
    let waited: Vec<f64> = latencies.iter().copied().filter(|&l| l > 0.0).collect();
    let instant: u64 = pooled.iter().map(|r| r.instant).sum();
    let mispredicted: u64 = pooled.iter().map(|r| r.mispredicted).sum();
    let measured = latencies.len() as f64;
    // Wall-clock figures skip the first, cold round (thread start-up,
    // first-touch page faults) once there are enough rounds without it,
    // and divide the warm rounds' total work by their total wall.
    let warm = if rounds.len() >= 3 {
        &rounds[1..]
    } else {
        rounds
    };
    let wall: f64 = warm.iter().map(|r| r.wall_s).sum();
    let per_wall = |f: &dyn Fn(&Round) -> f64| warm.iter().map(f).sum::<f64>() / wall;

    let mut m = Metrics::default();
    m.put(
        "keys_per_s",
        per_wall(&|r| r.layers.client_keys as f64),
        "1/s",
    );
    m.put(
        "keystroke_mean_ms",
        latencies.iter().sum::<f64>() / measured.max(1.0),
        "ms",
    );
    m.put("echo_p50_ms", median(&waited), "ms");
    m.put("keystroke_p90_ms", percentile(&latencies, 90.0), "ms");
    m.put("keystroke_p99_ms", percentile(&latencies, 99.0), "ms");
    m.put(
        "wait_frac",
        ratio(measured - instant as f64 + mispredicted as f64, measured).min(1.0),
        "ratio",
    );
    m.put(
        "output_mb_per_s",
        per_wall(&|r| r.layers.app_bytes as f64 / 1e6),
        "MB/s",
    );
    m.put(
        "session_s_per_s",
        per_wall(&|r| r.session_ms as f64 / 1e3),
        "s/s",
    );
    // Each warm round's own percentile, then the median over rounds: a
    // host hiccup during one round moves only that round's tail.
    let sends = |p: f64| {
        median(
            &warm
                .iter()
                .map(|r| percentile(&r.send_us, p))
                .collect::<Vec<_>>(),
        )
    };
    m.put("send_p50_us", sends(50.0), "us");
    m.put("send_p99_us", sends(99.0), "us");
    m.put(
        "rss_kb_per_session",
        peak_kb / rounds[0].sessions as f64,
        "KB",
    );
    m.put("setup_s", median(setups), "s");
    m
}

/// How far the layer self times may fall from the traced wall.
const RECONCILE_TOLERANCE: f64 = 0.02;

/// The per-layer metrics of a traced run, plus its extra checks.
fn per_layer(
    untraced: [&Round; 2],
    traced: &Round,
    spans: &[span::Span],
    checks: &mut Round,
) -> Metrics {
    // The wrappers must not perturb the schedule: hub work, deliveries
    // and every virtual-time result identical with and without spans.
    for u in untraced {
        checks.check(u.hub == traced.hub);
        checks.check(u.layers == traced.layers);
        checks.check(u.latencies == traced.latencies);
        checks.check(u.instant == traced.instant && u.session_ms == traced.session_ms);
    }
    let untraced_ms = (untraced[0].wall_s + untraced[1].wall_s) / 2.0 * 1e3;

    let main = spans
        .iter()
        .find(|s| s.layer == Layer::Bench)
        .map_or(0, |s| s.thread);
    let attr = span::attribute(spans, main);
    let ms = |layer: Layer| attr.self_ns[layer as usize] / 1e6;
    let wall_ms = traced.wall_s * 1e3;
    let reconcile = ratio(
        (attr.total_ns() / 1e6 - wall_ms).abs() + attr.stray_ns / 1e6,
        wall_ms,
    );
    checks.check(reconcile <= RECONCILE_TOLERANCE);

    let capture = traced.capture.as_ref().expect("traced rounds capture");
    let crypto = layers::crypto(&capture.sizes);
    checks.check(crypto.failed == 0);
    let terminal = layers::terminal(&capture.output);

    let h = &traced.hub;
    let c = &traced.layers;
    let mut m = Metrics::default();
    m.put("hub.self_ms", ms(Layer::Pump), "ms");
    m.put("hub.lease_ms", ms(Layer::Lease), "ms");
    m.put("hub.pumps", h.pumps as f64, "count");
    m.put("hub.wakeups", h.wakeups as f64, "count");
    m.put("hub.delivered", h.delivered as f64, "count");
    m.put("hub.dropped", h.dropped as f64, "count");
    m.put("hub.auth_routed", h.auth_routed as f64, "count");
    m.put("hub.shard_skew", h.shard_skew, "ratio");
    m.put("server.tick_ms", ms(Layer::ServerTick), "ms");
    m.put("server.ticks", c.server_ticks as f64, "count");
    m.put("server.recv_ms", ms(Layer::ServerRecv), "ms");
    m.put("server.recvs", c.server_recvs as f64, "count");
    m.put("server.dgrams_out", c.server_dgrams as f64, "count");
    m.put("server.bytes_out", c.server_bytes as f64, "B");
    m.put("client.recv_ms", ms(Layer::ClientRecv), "ms");
    m.put("client.recvs", c.client_recvs as f64, "count");
    m.put("client.tick_ms", ms(Layer::ClientTick), "ms");
    m.put("client.ticks", c.client_ticks as f64, "count");
    m.put("client.keystroke_ms", ms(Layer::ClientKey), "ms");
    m.put("client.keystrokes", c.client_keys as f64, "count");
    m.put("terminal.act_ns_per_kb", terminal.act_ns_per_kb, "ns/KB");
    m.put("terminal.diff_ns", terminal.diff_ns, "ns");
    m.put("crypto.seal_ns", crypto.seal_ns, "ns");
    m.put("crypto.open_ns", crypto.open_ns, "ns");
    m.put("crypto.dgrams", crypto.dgrams as f64, "count");
    m.put("ssp.data", c.ssp.data as f64, "count");
    m.put("ssp.retransmits", c.ssp.retransmits as f64, "count");
    m.put("ssp.pure_acks", c.ssp.pure_acks as f64, "count");
    m.put("ssp.heartbeats", c.ssp.heartbeats as f64, "count");
    m.put(
        "ssp.piggyback_ratio",
        ratio(
            c.ssp.piggybacked_acks as f64,
            (c.ssp.piggybacked_acks + c.ssp.pure_acks) as f64,
        ),
        "ratio",
    );
    m.put(
        "ssp.bytes_per_dgram",
        ratio(h.net_bytes as f64, h.net_dgrams as f64),
        "B",
    );
    let p = &c.prediction;
    m.put("prediction.predicted", p.predicted as f64, "count");
    m.put("prediction.confirmed", p.confirmed as f64, "count");
    m.put("prediction.mispredicted", p.mispredicted as f64, "count");
    m.put(
        "prediction.confirm_ratio",
        ratio(p.confirmed as f64, (p.confirmed + p.mispredicted) as f64),
        "ratio",
    );
    m.put(
        "prediction.instant_frac",
        ratio(traced.instant as f64, traced.latencies.len() as f64),
        "ratio",
    );
    m.put(
        "prediction.mispredict_frac",
        ratio(p.mispredicted as f64, c.client_keys as f64),
        "ratio",
    );
    m.put("net.self_ms", ms(Layer::Net), "ms");
    m.put("net.dgrams", h.net_dgrams as f64, "count");
    m.put("net.bytes", h.net_bytes as f64, "B");
    m.put("net.queue_drops", h.queue_drops as f64, "count");
    m.put("apps.self_ms", ms(Layer::Apps), "ms");
    m.put("apps.output_bytes", c.app_bytes as f64, "B");
    m.put("bench.self_ms", ms(Layer::Bench), "ms");
    m.put("trace.wall_ms", wall_ms, "ms");
    m.put("trace.untraced_wall_ms", untraced_ms, "ms");
    m.put("trace.overhead_ms", wall_ms - untraced_ms, "ms");
    m.put(
        "trace.overhead_pct",
        ratio(wall_ms - untraced_ms, untraced_ms) * 100.0,
        "%",
    );
    m.put("trace.reconcile_err_pct", reconcile * 100.0, "%");
    m.put("trace.spans", spans.len() as f64, "count");
    m
}

/// Writes the traced round's spans after a one-line text header that
/// describes the fixed 44-byte little-endian records following it.
fn write_spans(path: &Path, spans: &[span::Span]) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(path.parent().expect("spans file has a directory"))?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "perfbench spans v1: records of u64 id, u64 parent, u64 start_ns, u64 end_ns, \
         u32 session, u32 key, u8 layer, u8 thread, 2 pad (little-endian); layers 0..10 = \
         bench lease pump client.keystroke client.recv client.tick server.recv server.tick \
         apps net"
    )?;
    for s in spans {
        out.write_all(&s.id.to_le_bytes())?;
        out.write_all(&s.parent.to_le_bytes())?;
        out.write_all(&s.start.to_le_bytes())?;
        out.write_all(&s.end.to_le_bytes())?;
        out.write_all(&s.sid.to_le_bytes())?;
        out.write_all(&s.key.to_le_bytes())?;
        out.write_all(&[s.layer as u8, s.thread as u8, 0, 0])?;
    }
    out.flush()
}

/// 64-bit FNV-1a over the sources the benchmark builds (paths and
/// contents of `crates/`, sorted), identifying the code measured when
/// no commit id is at hand.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if e.file_name() != "target" {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The checked-out commit, read from `.git` when there is one.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(git.join("packed-refs"))
                    .ok()?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l[..40.min(l.len())].to_string())
            })
            .map_or("unknown".into(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn meta(args: &Args, root: &Path, rounds: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let hw = mosh_crypto::aes::Aes128::new(&[0; 16]).hardware_accelerated();
    #[cfg(target_arch = "x86_64")]
    let vaes = std::arch::is_x86_feature_detected!("vaes")
        && std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    let vaes = false;
    let aes = match (hw, vaes) {
        (true, true) => "hardware (AES-NI + VAES)",
        (true, false) => "hardware (AES-NI)",
        (false, _) => "software (bitsliced)",
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"scale\": \"{:?}\", \"rounds\": {rounds}, \"shards\": {}, \"cores\": {cores}, \
         \"aes\": \"{aes}\", \"profile\": \"{profile}\", \"commit\": \"{}\", \
         \"source_digest\": \"{}\"}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale,
        round::SHARDS,
        commit(root),
        source_digest(root),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf();
    let scripts = match args.workload {
        Workload::ReplayEvdo => replay::scripts(args.scale),
        _ => Vec::new(),
    };

    let (metrics, attempted, failed, rounds) = if args.trace {
        // Untraced, traced, untraced again: the traced round's overhead
        // is measured against both neighbours, so neither a cold first
        // round nor a warm last one biases it.
        let before = run_round(&args, &scripts, 0, false, false);
        span::set_enabled(true);
        probe::capture_sizes(true);
        let traced = run_round(&args, &scripts, 0, true, false);
        span::set_enabled(false);
        probe::capture_sizes(false);
        let after = run_round(&args, &scripts, 0, false, false);
        let spans = span::drain();
        let mut checks = Round::default();
        let metrics = per_layer([&before, &after], &traced, &spans, &mut checks);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.spans", args.workload.name()));
        if let Err(e) = write_spans(&path, &spans) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        (
            metrics,
            traced.attempted + checks.attempted,
            traced.failed + checks.failed,
            3,
        )
    } else {
        let budget = Duration::from_secs_f64(args.seconds);
        let start = Instant::now();
        let mut rounds: Vec<Round> = Vec::new();
        let mut last = Duration::ZERO;
        while rounds.len() < args.workload.virtual_rounds() || start.elapsed() + last <= budget {
            let t = Instant::now();
            let mut r = run_round(&args, &scripts, rounds.len() as u64, false, false);
            r.latencies.shrink_to_fit();
            eprintln!(
                "round {}: setup {:.4} s, wall {:.4} s, {} sessions",
                rounds.len(),
                r.setup_s,
                r.wall_s,
                r.sessions
            );
            rounds.push(r);
            last = t.elapsed();
        }
        let peak_kb = peak_rss_kb();
        let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
        let mut extra = rounds.len() as u64;
        while setups.len() < args.workload.setups() {
            setups.push(run_round(&args, &scripts, extra, false, true).setup_s);
            extra += 1;
        }
        let metrics = end_to_end(&rounds, args.workload.virtual_rounds(), &setups, peak_kb);
        (
            metrics,
            rounds.iter().map(|r| r.attempted).sum(),
            rounds.iter().map(|r| r.failed).sum(),
            rounds.len(),
        )
    };

    for (name, value, unit) in &metrics.0 {
        eprintln!("  {name:<28} {value:>16.4} {unit}");
    }
    println!("{}", meta(&args, &root, rounds));
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.json()
    );
    ExitCode::SUCCESS
}
