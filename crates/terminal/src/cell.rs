//! Character cells and their graphic renditions.
//!
//! A terminal screen is a grid of cells; each holds one displayed character
//! (or the continuation of a double-width character) plus its *renditions* —
//! the ECMA-48 "Select Graphic Rendition" attributes: intensity, underline,
//! colors, and so on.

/// A color as selectable by SGR sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Color {
    /// The terminal's default foreground or background.
    #[default]
    Default,
    /// One of the 256 indexed colors (0–7 classic, 8–15 bright, 16–255 cube).
    Indexed(u8),
    /// 24-bit direct color (SGR 38;2;r;g;b / 48;2;r;g;b).
    Rgb(u8, u8, u8),
}

/// Graphic renditions applied to a cell (ECMA-48 SGR).
///
/// The eight on/off renditions are packed into one flags byte, bit 0 to
/// bit 7 in SGR code order: bold, faint, italic, underline, blink,
/// inverse, invisible, strikethrough (the `Attrs::BOLD`..
/// `Attrs::STRIKETHROUGH` masks). That byte is also the wire and
/// snapshot layout of the renditions ([`Attrs::bits`] /
/// [`Attrs::from_bits`]), so frames and checkpoints written by any
/// version decode the same way, and a [`Cell`] stays 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Attrs {
    flags: u8,
    /// Foreground color.
    pub fg: Color,
    /// Background color.
    pub bg: Color,
}

/// The on/off renditions with their SGR "set" codes, in flag-bit order.
const FLAG_CODES: [(u8, &str); 8] = [
    (Attrs::BOLD, "1"),
    (Attrs::FAINT, "2"),
    (Attrs::ITALIC, "3"),
    (Attrs::UNDERLINE, "4"),
    (Attrs::BLINK, "5"),
    (Attrs::INVERSE, "7"),
    (Attrs::INVISIBLE, "8"),
    (Attrs::STRIKETHROUGH, "9"),
];

impl Attrs {
    /// Bold / increased intensity (SGR 1).
    pub const BOLD: u8 = 1;
    /// Faint / decreased intensity (SGR 2).
    pub const FAINT: u8 = 1 << 1;
    /// Italicized (SGR 3).
    pub const ITALIC: u8 = 1 << 2;
    /// Underlined (SGR 4). Mosh uses this to flag unconfirmed predictions.
    pub const UNDERLINE: u8 = 1 << 3;
    /// Blinking (SGR 5).
    pub const BLINK: u8 = 1 << 4;
    /// Negative image / reverse video (SGR 7).
    pub const INVERSE: u8 = 1 << 5;
    /// Concealed (SGR 8).
    pub const INVISIBLE: u8 = 1 << 6;
    /// Crossed-out (SGR 9).
    pub const STRIKETHROUGH: u8 = 1 << 7;

    /// Renditions with the given flags byte and default colors.
    pub const fn from_bits(flags: u8) -> Attrs {
        Attrs {
            flags,
            fg: Color::Default,
            bg: Color::Default,
        }
    }

    /// What an erase leaves behind: the background color, nothing else.
    pub const fn background(bg: Color) -> Attrs {
        Attrs {
            flags: 0,
            fg: Color::Default,
            bg,
        }
    }

    /// The flags byte (the wire layout; see the type docs).
    pub const fn bits(self) -> u8 {
        self.flags
    }

    /// True when every rendition in `flags` is on.
    pub const fn has(self, flags: u8) -> bool {
        self.flags & flags == flags
    }

    /// Turns the renditions in `flags` on or off.
    pub fn set(&mut self, flags: u8, on: bool) {
        if on {
            self.flags |= flags;
        } else {
            self.flags &= !flags;
        }
    }

    /// Appends to `out` the minimal SGR sequence that switches renditions
    /// from `self` to `target` (nothing when they are equal).
    ///
    /// Used by the display differ: it tracks the renditions the receiving
    /// terminal currently has and emits only what must change. Falls back to
    /// a full reset-and-set when clearing individual attributes would be
    /// longer.
    pub fn sgr_update(&self, target: &Attrs, out: &mut String) {
        if self == target {
            return;
        }
        // If any attribute must be turned *off*, a reset-and-set is simplest
        // and never longer than issuing individual "off" codes.
        let needs_reset = self.flags & !target.flags != 0
            || (self.fg != target.fg && target.fg == Color::Default)
            || (self.bg != target.bg && target.bg == Color::Default);
        let base = if needs_reset { Attrs::default() } else { *self };
        let start = out.len();
        out.push_str("\x1b[");
        let mut sep = "";
        if needs_reset {
            out.push('0');
            sep = ";";
        }
        let turned_on = target.flags & !base.flags;
        for (flag, code) in FLAG_CODES {
            if turned_on & flag != 0 {
                out.push_str(sep);
                out.push_str(code);
                sep = ";";
            }
        }
        if target.fg != base.fg {
            out.push_str(sep);
            push_color(out, target.fg, 30, 90, 38);
            sep = ";";
        }
        if target.bg != base.bg {
            out.push_str(sep);
            push_color(out, target.bg, 40, 100, 48);
            sep = ";";
        }
        if sep.is_empty() {
            out.truncate(start);
        } else {
            out.push('m');
        }
    }
}

/// Appends the SGR code selecting color `c` in one plane: `base` is 30
/// (foreground) or 40 (background), `bright` 90 or 100, and `extended`
/// 38 or 48.
fn push_color(out: &mut String, c: Color, base: u16, bright: u16, extended: u16) {
    use std::fmt::Write as _;
    // Writing to a `String` cannot fail.
    let _ = match c {
        Color::Default => write!(out, "{}", base + 9),
        Color::Indexed(n @ 0..=7) => write!(out, "{}", base + u16::from(n)),
        Color::Indexed(n @ 8..=15) => write!(out, "{}", bright + u16::from(n) - 8),
        Color::Indexed(n) => write!(out, "{extended};5;{n}"),
        Color::Rgb(r, g, b) => write!(out, "{extended};2;{r};{g};{b}"),
    };
}

/// One character cell of the screen grid: 16 bytes (a `char`, two flag
/// `bool`s, and the 9-byte [`Attrs`]), pinned below because every screen
/// row of every session is a vector of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    /// The displayed character. A blank cell holds a space.
    pub ch: char,
    /// True for the trailing half of a double-width character; such a cell
    /// displays nothing of its own.
    pub wide_continuation: bool,
    /// True when `ch` occupies two columns.
    pub wide: bool,
    /// Graphic renditions.
    pub attrs: Attrs,
}

const _: () = assert!(std::mem::size_of::<Cell>() == 16);

impl Default for Cell {
    fn default() -> Self {
        Cell::blank(Attrs::default())
    }
}

impl Cell {
    /// A blank (space) cell carrying the given renditions; erase operations
    /// use the current background color (BCE semantics, like xterm).
    pub const fn blank(attrs: Attrs) -> Self {
        Cell {
            ch: ' ',
            wide_continuation: false,
            wide: false,
            attrs,
        }
    }

    /// A cell holding a single narrow character.
    pub fn narrow(ch: char, attrs: Attrs) -> Self {
        Cell {
            ch,
            wide_continuation: false,
            wide: false,
            attrs,
        }
    }

    /// True if the cell displays as a plain space (possibly colored).
    pub fn is_blank(&self) -> bool {
        !self.wide_continuation && !self.wide && self.ch == ' '
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SGR sequence taking `from` to `to`.
    fn sgr(from: &Attrs, to: &Attrs) -> String {
        let mut out = String::new();
        from.sgr_update(to, &mut out);
        out
    }

    #[test]
    fn default_cell_is_blank_space() {
        let c = Cell::default();
        assert!(c.is_blank());
        assert_eq!(c.ch, ' ');
        assert_eq!(c.attrs, Attrs::default());
    }

    #[test]
    fn sgr_update_identity_is_empty() {
        let a = Attrs {
            flags: Attrs::BOLD,
            fg: Color::Indexed(2),
            ..Attrs::default()
        };
        assert_eq!(sgr(&a, &a), "");
    }

    #[test]
    fn sgr_update_sets_single_attribute() {
        let plain = Attrs::default();
        let bold = Attrs::from_bits(Attrs::BOLD);
        assert_eq!(sgr(&plain, &bold), "\x1b[1m");
    }

    #[test]
    fn sgr_update_resets_when_turning_off() {
        let bold = Attrs::from_bits(Attrs::BOLD);
        assert_eq!(sgr(&bold, &Attrs::default()), "\x1b[0m");
    }

    #[test]
    fn sgr_update_basic_colors() {
        let plain = Attrs::default();
        let red = Attrs {
            fg: Color::Indexed(1),
            ..Attrs::default()
        };
        assert_eq!(sgr(&plain, &red), "\x1b[31m");
        let bright = Attrs {
            fg: Color::Indexed(9),
            ..Attrs::default()
        };
        assert_eq!(sgr(&plain, &bright), "\x1b[91m");
        let indexed = Attrs {
            fg: Color::Indexed(200),
            ..Attrs::default()
        };
        assert_eq!(sgr(&plain, &indexed), "\x1b[38;5;200m");
        let rgb = Attrs {
            bg: Color::Rgb(1, 2, 3),
            ..Attrs::default()
        };
        assert_eq!(sgr(&plain, &rgb), "\x1b[48;2;1;2;3m");
    }

    #[test]
    fn sgr_update_combines_codes() {
        let plain = Attrs::default();
        let fancy = Attrs {
            flags: Attrs::BOLD | Attrs::UNDERLINE,
            fg: Color::Indexed(4),
            ..Attrs::default()
        };
        assert_eq!(sgr(&plain, &fancy), "\x1b[1;4;34m");
    }

    #[test]
    fn sgr_update_reset_then_set() {
        let from = Attrs {
            flags: Attrs::INVERSE,
            fg: Color::Indexed(1),
            ..Attrs::default()
        };
        let to = Attrs::from_bits(Attrs::BOLD);
        // Inverse must go off -> reset, then bold on.
        assert_eq!(sgr(&from, &to), "\x1b[0;1m");
    }
}
