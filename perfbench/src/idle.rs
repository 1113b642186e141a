//! `idle_fleet`: the paper's §2 claim that a server holds state, not
//! connections. Ten thousand sessions on LAN links, 64 of them bursty
//! typists spread through the fleet (the `hub_c100k` shape); every pump
//! leases the whole fleet. Prediction is off.
//!
//! A burst keystroke's response latency is the arrival of the first
//! server frame whose echo ack covers it. Its wall-clock wakeup-to-send
//! is timed the way `hub_c100k` does it.

use crate::fleet::Fleet;
use crate::rng::Rng;
use crate::round::{self, Round};
use crate::Scale;
use mosh_core::{LineShell, Millis, SessionEvent};
use mosh_net::LinkConfig;
use mosh_prediction::DisplayPreference;

/// Virtual ms each pump advances every session.
const STEP: Millis = 1_000;

/// A LAN link with a seed-drawn 1–20 ms propagation delay and 5 ms of
/// jitter, so that keystroke latencies differ between sessions and seeds
/// (with fixed delays every seed reads the same tail percentiles).
fn lan(rng: &mut Rng) -> LinkConfig {
    LinkConfig {
        delay_ms: 1 + rng.below(20),
        jitter_ms: 5,
        ..LinkConfig::lan()
    }
}

/// Runs one round: the fleet for `horizon` virtual ms, bursting in odd
/// seconds.
pub fn round(scale: Scale, rng: &mut Rng, capture: bool, setup_only: bool) -> Round {
    let (n, active, horizon) = match scale {
        Scale::Full => (10_000, 64, 8_000),
        Scale::Tiny => (200, 4, 4_000),
    };
    let stride = n / active;
    let mut offsets: Vec<Millis> = Vec::with_capacity(n);
    let mut typists: Vec<usize> = Vec::with_capacity(active);
    let (mut fleet, mut round) = round::setup(|fleet: &mut Fleet| {
        for k in 0..active {
            typists.push(k * stride + rng.below(stride as u64) as usize);
        }
        for i in 0..n {
            // Each session's clock runs a seed-drawn phase ahead, so the
            // fleet's timers do not line up on pump boundaries.
            offsets.push(rng.below(STEP));
            let up = lan(rng);
            let down = LinkConfig {
                delay_ms: up.delay_ms,
                ..up.clone()
            };
            fleet.add(
                up,
                down,
                rng.next_u64(),
                Box::new(LineShell::new()),
                DisplayPreference::Never,
                capture && i == typists[0],
            );
        }
    });
    if setup_only {
        return round;
    }

    // Unresolved burst keystroke per typist: (input index, typed at).
    let mut pending: Vec<Option<(u64, Millis)>> = vec![None; n];
    let mut unresolved = 0u64;
    let mut key_id = 0u32;
    let mut now = 0;
    let wall_s = round::timed(|| {
        while now < horizon {
            now = (now + STEP).min(horizon);
            let targets: Vec<Option<Millis>> = offsets.iter().map(|o| Some(now + o)).collect();
            for (i, ev) in fleet.pump(&targets) {
                if let (SessionEvent::FrameAdvanced { at, echo_ack, .. }, Some((idx, typed))) =
                    (ev, pending[i])
                {
                    if echo_ack >= idx {
                        round.latencies.push((at - typed) as f64);
                        pending[i] = None;
                    }
                }
            }
            if now < horizon && (now / STEP) % 2 == 1 {
                let byte = b'a' + (key_id / active as u32 % 26) as u8;
                for &i in &typists {
                    let at = now + offsets[i];
                    let client = fleet.client(i);
                    client.keystroke(at, &[byte], key_id);
                    key_id += 1;
                    if pending[i].is_some() {
                        unresolved += 1;
                    }
                    pending[i] = Some((client.inner().input_end_index(), at));
                }
            }
        }
    });
    round.wall_s = wall_s;

    // Every burst keystroke produced a send and was echoed.
    for &i in &typists {
        let client = &fleet.sessions()[i].client;
        round.failed += client.unsent + u64::from(client.awaiting_send());
        unresolved += u64::from(pending[i].is_some());
    }
    round.attempted += u64::from(key_id);
    round.failed += unresolved;
    round.session_ms = offsets.iter().map(|o| horizon + o).sum();
    round::finish(fleet, &mut round, capture);
    round
}
