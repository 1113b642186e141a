//! Byte-stream strategies shared by the terminal's property tests: the
//! integration suite (`tests/proptests.rs`) and the crate's own unit
//! tests, which include this file by path.

use proptest::prelude::*;

/// Bytes biased toward terminal-relevant content: printable ASCII, escape
/// sequences, UTF-8 fragments, and control characters.
pub fn terminal_bytes() -> impl Strategy<Value = Vec<u8>> {
    let chunk = prop_oneof![
        // Plain words.
        "[ -~]{1,12}".prop_map(|s| s.into_bytes()),
        // Cursor movement and erase sequences.
        (0u16..30, 0u16..90).prop_map(|(a, b)| format!("\x1b[{a};{b}H").into_bytes()),
        (1u16..5).prop_map(|n| format!("\x1b[{n}A").into_bytes()),
        (1u16..5).prop_map(|n| format!("\x1b[{n}B").into_bytes()),
        (1u16..9).prop_map(|n| format!("\x1b[{n}C").into_bytes()),
        (1u16..9).prop_map(|n| format!("\x1b[{n}D").into_bytes()),
        (0u16..3).prop_map(|n| format!("\x1b[{n}J").into_bytes()),
        (0u16..3).prop_map(|n| format!("\x1b[{n}K").into_bytes()),
        (1u16..4).prop_map(|n| format!("\x1b[{n}L").into_bytes()),
        (1u16..4).prop_map(|n| format!("\x1b[{n}M").into_bytes()),
        (1u16..6).prop_map(|n| format!("\x1b[{n}@").into_bytes()),
        (1u16..6).prop_map(|n| format!("\x1b[{n}P").into_bytes()),
        (1u16..6).prop_map(|n| format!("\x1b[{n}X").into_bytes()),
        // Renditions.
        (0u16..110).prop_map(|n| format!("\x1b[{n}m").into_bytes()),
        (0u8..=255u8).prop_map(|n| format!("\x1b[38;5;{n}m").into_bytes()),
        // Scroll regions and scrolling.
        (1u16..10, 1u16..24).prop_map(|(t, b)| format!("\x1b[{t};{b}r").into_bytes()),
        (1u16..4).prop_map(|n| format!("\x1b[{n}S").into_bytes()),
        (1u16..4).prop_map(|n| format!("\x1b[{n}T").into_bytes()),
        // Controls.
        Just(b"\r".to_vec()),
        Just(b"\n".to_vec()),
        Just(b"\r\n".to_vec()),
        Just(b"\t".to_vec()),
        Just(b"\x08".to_vec()),
        Just(b"\x07".to_vec()),
        // Index / reverse index / save / restore.
        Just(b"\x1bD".to_vec()),
        Just(b"\x1bM".to_vec()),
        Just(b"\x1b7".to_vec()),
        Just(b"\x1b8".to_vec()),
        // Modes.
        Just(b"\x1b[?25l".to_vec()),
        Just(b"\x1b[?25h".to_vec()),
        Just(b"\x1b[?1049h".to_vec()),
        Just(b"\x1b[?1049l".to_vec()),
        Just(b"\x1b[4h".to_vec()),
        Just(b"\x1b[4l".to_vec()),
        Just(b"\x1b[?6h".to_vec()),
        Just(b"\x1b[?6l".to_vec()),
        Just(b"\x1b[?7l".to_vec()),
        Just(b"\x1b[?7h".to_vec()),
        // Wide and accented characters.
        Just("漢字".as_bytes().to_vec()),
        Just("héllo wörld".as_bytes().to_vec()),
        Just("🎉".as_bytes().to_vec()),
        // Titles.
        Just(b"\x1b]0;title\x07".to_vec()),
        // Line drawing.
        Just(b"\x1b(0lqqk\x1b(B".to_vec()),
    ];
    proptest::collection::vec(chunk, 0..40).prop_map(|chunks| chunks.concat())
}
