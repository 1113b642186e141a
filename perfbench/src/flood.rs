//! `flood_ctrlc`: the paper's §2.3 Control-C claim under load. Sessions
//! on a narrow, deep-buffered, lossy downlink run repeated cycles of
//! `yes` → flood → `^C`. The measured keystroke is the `^C`; its response
//! latency is the virtual time until `^C` shows in the client's copy of
//! the screen. Prediction is off.

use crate::fleet::Fleet;
use crate::rng::Rng;
use crate::round::{self, Round};
use crate::Scale;
use mosh_core::{LineShell, Millis};
use mosh_net::LinkConfig;
use mosh_prediction::DisplayPreference;

/// Virtual ms between the starts of two cycles.
const CYCLE: Millis = 2_500;
/// Virtual ms between the keystrokes of `yes\r`.
const TYPE_GAP: Millis = 30;
/// Shortest flood before `^C`; each cycle adds a seed-drawn 0–199 ms.
const FLOOD: Millis = 700;
/// Most virtual ms one pump drives a session, so a keystroke never waits
/// behind a long stretch of other sessions' floods (pump boundaries do
/// not change the schedule, only the wall-clock granularity).
const MAX_STEP: Millis = 20;

/// The uplink: a 50 ms path with jitter.
fn uplink() -> LinkConfig {
    LinkConfig {
        delay_ms: 50,
        jitter_ms: 10,
        ..LinkConfig::lan()
    }
}

/// The downlink: 320 kbit/s behind a 256 KiB droptail buffer (about six
/// seconds at line rate, so a flood could fill it), with 3 % loss.
fn downlink() -> LinkConfig {
    LinkConfig {
        delay_ms: 50,
        jitter_ms: 10,
        loss: 0.03,
        rate_bytes_per_ms: Some(40),
        queue_bytes: 256 * 1024,
        ..LinkConfig::lan()
    }
}

/// Longest a `^C` waits for the client to show the flood first.
const MAX_WAIT: Millis = 1_000;

/// What a session does at a scripted instant.
#[derive(Clone, Copy)]
enum Action {
    Type(u8),
    /// `^C`, planned for the given instant.
    CtrlC(Millis),
    End,
}

/// Runs one round: every session floods and interrupts `cycles` times.
pub fn round(scale: Scale, rng: &mut Rng, capture: bool, setup_only: bool) -> Round {
    let (sessions, cycles) = match scale {
        Scale::Full => (16, 6),
        Scale::Tiny => (2, 1),
    };
    let mut scripts: Vec<Vec<(Millis, Action)>> = Vec::new();
    let (mut fleet, mut round) = round::setup(|fleet: &mut Fleet| {
        for i in 0..sessions {
            // Starts spread evenly over one cycle, each jittered by the
            // seed, so about the same number of sessions flood at once
            // whatever the seed.
            let mut t = 1_000 + i as Millis * CYCLE / sessions as Millis + rng.below(40);
            let mut script = Vec::new();
            for _ in 0..cycles {
                for (k, &b) in b"yes\r".iter().enumerate() {
                    script.push((t + k as Millis * TYPE_GAP, Action::Type(b)));
                }
                let at = t + 3 * TYPE_GAP + FLOOD + rng.below(200);
                script.push((at, Action::CtrlC(at)));
                t += CYCLE;
            }
            script.push((t, Action::End));
            fleet.add(
                uplink(),
                downlink(),
                rng.next_u64(),
                Box::new(LineShell::new()),
                DisplayPreference::Never,
                capture && i == 0,
            );
            scripts.push(script);
        }
    });
    if setup_only {
        return round;
    }

    let mut next = vec![0usize; sessions];
    let mut clock: Vec<Millis> = vec![0; sessions];
    let mut key_id = 0u32;
    let mut stale = 0u64;
    let mut unseen = 0u64;
    let wall_s = round::timed(|| loop {
        let targets: Vec<Option<Millis>> = scripts
            .iter()
            .zip(&next)
            .zip(&clock)
            .map(|((s, &n), &c)| s.get(n).map(|a| a.0.min(c + MAX_STEP)))
            .collect();
        if targets.iter().all(Option::is_none) {
            break;
        }
        fleet.pump(&targets);
        for (i, target) in targets.iter().enumerate() {
            let Some(now) = *target else { continue };
            clock[i] = now;
            while let Some(&(_, action)) = scripts[i].get(next[i]).filter(|a| a.0 <= now) {
                let client = fleet.client(i);
                // A cycle ends when the next one starts: its ^C must have
                // shown by then.
                if matches!(action, Action::Type(b'y') | Action::End) && client.cancel_watch() {
                    unseen += 1;
                }
                match action {
                    Action::Type(b) => {
                        client.keystroke(now, &[b], key_id);
                    }
                    Action::CtrlC(planned) => {
                        if !client.watch_ctrlc(now) {
                            // The screen still shows the last cycle's ^C:
                            // the user waits to see the flood first.
                            if now < planned + MAX_WAIT {
                                scripts[i][next[i]].0 = now + 10;
                                continue;
                            }
                            stale += 1;
                        }
                        client.keystroke(now, &[0x03], key_id);
                    }
                    Action::End => {}
                }
                key_id += 1;
                next[i] += 1;
            }
        }
    });
    round.wall_s = wall_s;

    // Every ^C visible on its session before the next cycle.
    for s in fleet.sessions() {
        round.latencies.extend_from_slice(&s.client.ctrlc_ms);
    }
    round.attempted += (sessions * cycles) as u64;
    round.failed += stale + unseen;
    round.session_ms = scripts.iter().map(|s| s.last().map_or(0, |a| a.0)).sum();
    round::finish(fleet, &mut round, capture);
    round
}
