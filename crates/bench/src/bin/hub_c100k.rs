//! The C100K fleet bench: wakeup-to-send latency when one sharded hub
//! carries 1k / 10k / 100k mostly-idle Mosh sessions with a small bursty
//! active subset — the workload SSP is designed for
//! (conf_usenix_WinsteinB12 §2: a server holds state, not connections,
//! so an idle session costs nothing on the wire).
//!
//! Every session is a full client↔server pair in its own emulated
//! world; only a fixed subset (spread evenly through the fleet) types,
//! in bursts. For each burst keystroke we measure **wall-clock**
//! wakeup-to-send latency: from the keystroke's injection until the
//! client endpoint's next tick actually emits a datagram, across the
//! persistent shard runtime's dispatch, the lease sweep over the whole
//! (mostly idle) fleet, and the session's own send scheduling. p50/p99
//! land in `BENCH_hub_scaling.json` (section `"c100k"`, merged alongside
//! `hub_scaling`'s axes) so the trajectory captures tail latency under
//! fleet growth, not just throughput.
//!
//! Beside the latency sits the standing cost of a session: bytes per
//! idle session, the process's peak resident set (`VmHWM`) divided by
//! the fleet size, read while the fleet is alive. The peak is
//! process-wide, so a row is exact for the largest fleet run so far
//! (fleets run smallest first) and includes the process baseline, which
//! dominates small fleets. In a release build the 10k row is gated: the
//! run fails when it exceeds [`IDLE_BUDGET_BYTES`].
//!
//! `--quick` runs 1k and 10k; the full run adds 100k (~2.6 GB of session
//! state at the 10k tier's per-session cost). `MOSH_C100K_SESSIONS`
//! (comma-separated) overrides the fleet sizes outright.

use mosh_bench::{merge_bench_json, percentile_us};
use mosh_core::{
    Endpoint, HubSession, LineShell, MoshClient, MoshServer, Party, SessionEvent, SessionId,
    ShardedHub,
};
use mosh_crypto::Base64Key;
use mosh_net::{Addr, LinkConfig, Millis, Network, Side, SimChannel, SimPoller};
use mosh_prediction::DisplayPreference;
use mosh_ssp::datagram::Opened;
use std::time::Instant;

const C: Addr = Addr::new(1, 1000);
const S: Addr = Addr::new(2, 60001);

/// Bytes per idle session the 10k fleet may use in a release build.
/// Five runs on a 2-core x86-64 host read 25.4–25.6 KB (median 25.6);
/// the margin leaves room for the allocator arenas of up to 8 shard
/// threads on larger runners. Storage-owning blank rows (85.4 KB) fail it.
const IDLE_BUDGET_BYTES: u64 = 40 * 1024;

/// Wraps an active client endpoint to clock keystroke-to-wire latency:
/// `keystroke` arms a wall-clock timer, and the first subsequent tick
/// that emits a datagram stops it. What accumulates in `samples_us` is
/// exactly the runtime's wakeup-to-send path as the session experiences
/// it.
struct SendTimer {
    inner: MoshClient,
    armed: Option<Instant>,
    samples_us: Vec<f64>,
}

impl SendTimer {
    fn new(inner: MoshClient) -> Self {
        SendTimer {
            inner,
            armed: None,
            samples_us: Vec::new(),
        }
    }

    fn keystroke(&mut self, now: Millis, bytes: &[u8]) {
        self.inner.keystroke(now, bytes);
        self.armed = Some(Instant::now());
    }
}

// `MoshClient` has inherent methods shadowing the trait's, so the
// delegation is spelled with fully qualified calls.
impl Endpoint for SendTimer {
    fn receive(&mut self, now: Millis, from: Addr, wire: &[u8], events: &mut Vec<SessionEvent>) {
        <MoshClient as Endpoint>::receive(&mut self.inner, now, from, wire, events);
    }

    fn tick(
        &mut self,
        now: Millis,
        out: &mut Vec<(Addr, Vec<u8>)>,
        events: &mut Vec<SessionEvent>,
    ) {
        let before = out.len();
        <MoshClient as Endpoint>::tick(&mut self.inner, now, out, events);
        if out.len() > before {
            if let Some(armed) = self.armed.take() {
                self.samples_us.push(armed.elapsed().as_secs_f64() * 1e6);
            }
        }
    }

    fn next_wakeup(&self, now: Millis) -> Millis {
        <MoshClient as Endpoint>::next_wakeup(&self.inner, now)
    }

    fn last_heard(&self) -> Option<Millis> {
        <MoshClient as Endpoint>::last_heard(&self.inner)
    }

    fn authenticates(&self, wire: &[u8]) -> bool {
        <MoshClient as Endpoint>::authenticates(&self.inner, wire)
    }

    fn try_open(&mut self, wire: &[u8]) -> Option<Opened> {
        <MoshClient as Endpoint>::try_open(&mut self.inner, wire)
    }

    fn receive_opened(
        &mut self,
        now: Millis,
        from: Addr,
        opened: Opened,
        events: &mut Vec<SessionEvent>,
    ) {
        <MoshClient as Endpoint>::receive_opened(&mut self.inner, now, from, opened, events);
    }
}

struct FleetResult {
    sessions: usize,
    wall_ms: f64,
    p50_us: f64,
    p99_us: f64,
    samples: usize,
    wakeups: u64,
    checkpoint_bytes: u64,
    bytes_per_session: u64,
}

/// Peak resident set of this process in bytes (`VmHWM`), 0 where
/// `/proc` is unavailable.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

fn key(i: usize) -> Base64Key {
    let mut bytes = [0u8; 16];
    bytes[..4].copy_from_slice(&(i as u32).to_le_bytes());
    bytes[15] = 0xc1;
    Base64Key::from_bytes(bytes)
}

fn run_fleet(
    n: usize,
    shards: usize,
    active: usize,
    horizon: u64,
    cadence: Option<Millis>,
) -> FleetResult {
    let mut hub = ShardedHub::with_shards(shards, SimPoller::new);
    if let Some(cadence) = cadence {
        hub.enable_checkpointing(cadence);
    }
    let mut sids: Vec<SessionId> = Vec::with_capacity(n);
    // Active sessions spread evenly through the fleet, so a lease sweep
    // meets them where a real fleet would — not conveniently up front.
    let stride = n / active;
    let is_active = |i: usize| i.is_multiple_of(stride) && i / stride < active;
    let mut actives: Vec<(usize, SendTimer)> = Vec::with_capacity(active);
    let mut idles: Vec<(MoshClient, MoshServer)> = Vec::with_capacity(n - active);
    let mut servers: Vec<MoshServer> = Vec::with_capacity(active);
    for i in 0..n {
        let mut net = Network::new(LinkConfig::lan(), LinkConfig::lan(), i as u64 + 1);
        net.register(C, Side::Client);
        net.register(S, Side::Server);
        sids.push(hub.add_session(SimChannel::new(net)));
        let key = key(i);
        let client = MoshClient::new(key.clone(), S, 80, 24, DisplayPreference::Never);
        let server = MoshServer::new(key, Box::new(LineShell::new()));
        if is_active(i) {
            actives.push((i, SendTimer::new(client)));
            servers.push(server);
        } else {
            idles.push((client, server));
        }
    }

    let start = Instant::now();
    let mut now = 0u64;
    let mut key_no = 0u64;
    while now < horizon {
        let target = (now + 1_000).min(horizon);
        // Lease the whole fleet every pump, as a front end leasing its
        // registry would: the idle sweep is part of what's measured.
        let mut active_it = actives.iter_mut().zip(servers.iter_mut());
        let mut idle_it = idles.iter_mut();
        let mut leases: Vec<[Party<'_>; 2]> = (0..n)
            .map(|i| {
                if is_active(i) {
                    let ((_, timer), server) = active_it.next().expect("active lease");
                    [Party::new(C, timer), Party::new(S, server)]
                } else {
                    let (client, server) = idle_it.next().expect("idle lease");
                    [Party::new(C, client), Party::new(S, server)]
                }
            })
            .collect();
        let mut sessions: Vec<HubSession<'_, '_>> = leases
            .iter_mut()
            .zip(sids.iter())
            .map(|(parties, sid)| HubSession::new(*sid, parties, target))
            .collect();
        hub.pump(&mut sessions);
        drop(sessions);
        drop(leases);
        now = target;
        if now < horizon && (now / 1_000) % 2 == 1 {
            // Odd seconds burst, even seconds idle: the active subset is
            // bursty, not a steady drip.
            let byte = b'a' + (key_no % 26) as u8;
            for (_, timer) in actives.iter_mut() {
                timer.keystroke(now, &[byte]);
            }
            key_no += 1;
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let bytes_per_session = peak_rss_bytes() / n as u64;

    let mut samples: Vec<f64> = actives
        .iter()
        .flat_map(|(_, t)| t.samples_us.iter().copied())
        .collect();
    let stats = hub.stats();
    assert_eq!(stats.shard_panics, 0, "no shard lost during the bench");
    FleetResult {
        sessions: n,
        wall_ms,
        p50_us: percentile_us(&mut samples, 50.0),
        p99_us: percentile_us(&mut samples, 99.0),
        samples: samples.len(),
        wakeups: stats.wakeups,
        checkpoint_bytes: stats.checkpoint_bytes,
        bytes_per_session,
    }
}

fn fleet_sizes(quick: bool) -> Vec<usize> {
    if let Ok(v) = std::env::var("MOSH_C100K_SESSIONS") {
        let sizes: Vec<usize> = v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
        if !sizes.is_empty() {
            return sizes;
        }
    }
    if quick {
        vec![1_000, 10_000]
    } else {
        vec![1_000, 10_000, 100_000]
    }
}

fn main() {
    let quick =
        std::env::args().any(|a| a == "--quick") || std::env::var("MOSH_BENCH_QUICK").is_ok();
    let horizon: u64 = 8_000;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Always at least two shards: the persistent worker runtime is the
    // thing under test, not the inline fast path.
    let shards = cores.clamp(2, 8);

    println!("=== hub_c100k: mostly-idle fleets, bursty active subset ===");
    println!("  ({horizon} virtual ms per fleet, LAN links, {shards} shard(s), {cores} core(s))\n");
    println!(
        "  {:>8}  {:>12}  {:>10}  {:>14}  {:>14}  {:>12}  {:>10}",
        "sessions",
        "wall ms",
        "bursts",
        "p50 send (us)",
        "p99 send (us)",
        "wakeups/user",
        "KB/session"
    );

    let mut results = Vec::new();
    for n in fleet_sizes(quick) {
        let active = 64.min(n);
        let r = run_fleet(n, shards, active, horizon, None);
        println!(
            "  {:>8}  {:>12.1}  {:>10}  {:>14.1}  {:>14.1}  {:>12.1}  {:>10.1}",
            r.sessions,
            r.wall_ms,
            r.samples,
            r.p50_us,
            r.p99_us,
            r.wakeups as f64 / r.sessions as f64,
            r.bytes_per_session as f64 / 1024.0,
        );
        assert!(
            r.samples > 0 && r.p50_us > 0.0 && r.p99_us > 0.0,
            "bursts must produce latency samples"
        );
        if n == 10_000 && !cfg!(debug_assertions) {
            assert!(
                r.bytes_per_session <= IDLE_BUDGET_BYTES,
                "{} bytes per idle session at 10k exceeds the {IDLE_BUDGET_BYTES}-byte budget",
                r.bytes_per_session
            );
        }
        results.push(r);
    }

    // Checkpoint cadence/bytes trade-off: the same mostly-idle fleet at
    // the smallest size, with crash recovery on at several cadences. A
    // shorter cadence buys a fresher resurrection point; what it costs
    // is cumulative framed snapshot bytes (`HubStats::checkpoint_bytes`).
    // Only sessions that made progress re-checkpoint, so the mostly-idle
    // fleet keeps the byte count proportional to the *active* subset.
    let sweep_n = fleet_sizes(quick).into_iter().min().expect("fleet sizes");
    let cadences: [Millis; 4] = [500, 1_000, 2_000, 4_000];
    println!("\n  checkpoint cadence sweep ({sweep_n} sessions, {horizon} virtual ms):");
    println!(
        "  {:>12}  {:>18}  {:>12}",
        "cadence ms", "checkpoint bytes", "wall ms"
    );
    let mut sweep = Vec::new();
    for cadence in cadences {
        let r = run_fleet(sweep_n, shards, 64.min(sweep_n), horizon, Some(cadence));
        println!(
            "  {:>12}  {:>18}  {:>12.1}",
            cadence, r.checkpoint_bytes, r.wall_ms
        );
        assert!(
            r.checkpoint_bytes > 0,
            "checkpoint cadence must write snapshots"
        );
        sweep.push((cadence, r));
    }
    for pair in sweep.windows(2) {
        assert!(
            pair[0].1.checkpoint_bytes >= pair[1].1.checkpoint_bytes,
            "a shorter cadence never writes fewer checkpoint bytes"
        );
    }

    let mut rows = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        rows.push_str(&format!(
            "      {{\"sessions\": {}, \"wall_ms\": {:.3}, \"p50_wakeup_to_send_us\": {:.3}, \
             \"p99_wakeup_to_send_us\": {:.3}, \"latency_samples\": {}, \
             \"wakeups_per_session\": {:.1}, \"bytes_per_idle_session\": {}}}{}\n",
            r.sessions,
            r.wall_ms,
            r.p50_us,
            r.p99_us,
            r.samples,
            r.wakeups as f64 / r.sessions as f64,
            r.bytes_per_session,
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    rows.push_str("    ]");
    let section = format!(
        "{{\n    \"horizon_ms\": {horizon},\n    \"cores\": {cores},\n    \
         \"shards\": {shards},\n    \"active_sessions\": 64,\n    \"results\": {rows}\n  }}"
    );
    let mut sweep_rows = String::from("[\n");
    for (i, (cadence, r)) in sweep.iter().enumerate() {
        sweep_rows.push_str(&format!(
            "      {{\"cadence_ms\": {}, \"checkpoint_bytes\": {}, \"wall_ms\": {:.3}}}{}\n",
            cadence,
            r.checkpoint_bytes,
            r.wall_ms,
            if i + 1 == sweep.len() { "" } else { "," },
        ));
    }
    sweep_rows.push_str("    ]");
    let sweep_section = format!(
        "{{\n    \"sessions\": {sweep_n},\n    \"horizon_ms\": {horizon},\n    \
         \"active_sessions\": {},\n    \"results\": {sweep_rows}\n  }}",
        64.min(sweep_n)
    );

    let path = std::path::Path::new("BENCH_hub_scaling.json");
    match merge_bench_json(
        path,
        &[("c100k", section), ("checkpoint_cadence", sweep_section)],
    ) {
        Ok(()) => println!(
            "\nmerged sections \"c100k\" and \"checkpoint_cadence\" into BENCH_hub_scaling.json"
        ),
        Err(e) => println!("\ncould not write BENCH_hub_scaling.json: {e}"),
    }

    let last = results.last().expect("at least one fleet");
    println!(
        "largest fleet: {} sessions, p50 {:.0} us / p99 {:.0} us wakeup-to-send, \
         {:.1} KB per idle session ({})",
        last.sessions,
        last.p50_us,
        last.p99_us,
        last.bytes_per_session as f64 / 1024.0,
        if last.p99_us < 1e6 {
            "sub-second tail under full-fleet sweeps"
        } else {
            "tail above 1 s: investigate"
        }
    );
}
