//! Probes for the layers below the endpoint seam. Crypto and terminal
//! work happens inside `MoshClient`/`MoshServer` calls, so instead of
//! spans these time the layers' public functions on the inputs the
//! traced round captured: its datagram sizes, and one session's
//! application output cut at the server's ticks.

use crate::probe::OutputCapture;
use mosh_crypto::{Base64Key, Direction, Session};
use mosh_ssp::SyncState;
use mosh_states::CompleteTerminal;
use std::time::{Duration, Instant};

/// Each probe repeats its pass until at least this much time has gone.
const MIN_PROBE: Duration = Duration::from_millis(40);
/// Most frame pairs the diff probe keeps.
const MAX_PAIRS: usize = 4_000;

/// Times `pass` (which does `units` of work) until [`MIN_PROBE`] has
/// gone, returning nanoseconds per unit.
fn per_unit(units: usize, mut pass: impl FnMut()) -> f64 {
    if units == 0 {
        return 0.0;
    }
    let start = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || start.elapsed() < MIN_PROBE {
        pass();
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (f64::from(passes) * units as f64)
}

/// What the crypto probe measured.
pub struct CryptoProbe {
    /// Nanoseconds per `Session::encrypt_into`.
    pub seal_ns: f64,
    /// Nanoseconds per `Session::decrypt_into`.
    pub open_ns: f64,
    /// Datagrams in the mix.
    pub dgrams: usize,
    /// Datagrams that failed to open (must be 0).
    pub failed: usize,
}

/// Seals and opens one datagram per captured wire size.
pub fn crypto(sizes: &[u16]) -> CryptoProbe {
    let key = Base64Key::from_bytes([0x42; 16]);
    let mut sealer = Session::new(key.clone(), Direction::ToClient);
    let opener = Session::new(key, Direction::ToServer);
    let overhead = sealer.encrypt(&[]).len();
    let payloads: Vec<Vec<u8>> = sizes
        .iter()
        .map(|&s| vec![0x5a; usize::from(s).saturating_sub(overhead)])
        .collect();
    let mut wires: Vec<Vec<u8>> = vec![Vec::new(); payloads.len()];
    let seal_ns = per_unit(payloads.len(), || {
        for (p, w) in payloads.iter().zip(wires.iter_mut()) {
            sealer.encrypt_into(p, w);
        }
    });
    let mut plain = Vec::new();
    let mut failed = 0;
    let open_ns = per_unit(wires.len(), || {
        failed = 0;
        for w in &wires {
            if opener.decrypt_into(w, &mut plain).is_err() {
                failed += 1;
            }
        }
    });
    CryptoProbe {
        seal_ns,
        open_ns,
        dgrams: sizes.len(),
        failed,
    }
}

/// What the terminal probe measured.
pub struct TerminalProbe {
    /// Nanoseconds of `CompleteTerminal::act` per KiB of output.
    pub act_ns_per_kb: f64,
    /// Nanoseconds per `diff_from` between consecutive tick states.
    pub diff_ns: f64,
}

fn chunks(output: &OutputCapture) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut from = 0;
    for &cut in output
        .cuts
        .iter()
        .chain(std::iter::once(&output.bytes.len()))
    {
        let cut = cut.min(output.bytes.len());
        if cut > from {
            out.push(&output.bytes[from..cut]);
            from = cut;
        }
    }
    out
}

/// Replays the captured output into a fresh terminal, tick by tick,
/// timing the parse/apply and the frame diff between consecutive ticks.
pub fn terminal(output: &OutputCapture) -> TerminalProbe {
    let chunks = chunks(output);
    let act_ns = per_unit(1, || {
        let mut term = CompleteTerminal::initial();
        for c in &chunks {
            term.act(c);
        }
    });
    let kib = output.bytes.len() as f64 / 1024.0;

    let mut term = CompleteTerminal::initial();
    let mut pairs = Vec::new();
    for c in chunks.iter().take(MAX_PAIRS) {
        let before = term.clone();
        term.act(c);
        pairs.push((before, term.clone()));
    }
    let diff_ns = per_unit(pairs.len(), || {
        for (before, after) in &pairs {
            std::hint::black_box(after.diff_from(before));
        }
    });
    TerminalProbe {
        act_ns_per_kb: if kib > 0.0 { act_ns / kib } else { 0.0 },
        diff_ns,
    }
}
