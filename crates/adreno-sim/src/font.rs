//! A compact vector stroke font.
//!
//! Every character the paper's Figure 18 evaluates is defined as a small set
//! of line segments on an 8×8 design grid (x to the right, y down, baseline
//! near y = 7, descenders to y = 8). The renderer scales the segments into a
//! destination rectangle and rasterises them as stroked primitives.
//!
//! The font is deliberately a *stroke* font rather than a bitmap font: each
//! stroke is one GPU primitive, so characters differ in primitive count
//! (VPC counters), rasterised pixel coverage (RAS counters) and occlusion
//! footprint (LRZ counters) — the exact per-key differences the side channel
//! measures. Visual fidelity is irrelevant; only the relative geometry
//! matters.
//!
//! Punctuation such as `'`, `:` and `;` is intentionally tiny, mirroring the
//! paper's observation that those keys produce the minimum amount of GPU
//! overdraw and are hardest to infer (Fig 18).

use crate::geom::{Rect, Segment};

/// The design grid extent: glyph coordinates live in `0.0..=GRID`.
pub const GRID: f32 = 8.0;

macro_rules! segs {
    ($(($x0:expr, $y0:expr, $x1:expr, $y1:expr)),* $(,)?) => {
        &[$(Segment { x0: $x0 as f32, y0: $y0 as f32, x1: $x1 as f32, y1: $y1 as f32 }),*]
    };
}

/// Fallback glyph (a hollow box) used for characters outside the supported
/// set, so that rendering never silently drops a primitive.
pub const FALLBACK: &[Segment] = segs![(2, 2, 6, 2), (6, 2, 6, 6), (6, 6, 2, 6), (2, 6, 2, 2)];

/// Returns the stroke segments of `c`, or `None` if the character is not in
/// the supported set (use [`FALLBACK`] or skip, at the caller's choice).
///
/// # Examples
///
/// ```
/// use adreno_sim::font::glyph_strokes;
///
/// let w = glyph_strokes('w').unwrap();
/// let l = glyph_strokes('l').unwrap();
/// assert!(w.len() > l.len(), "'w' is strokier than 'l'");
/// ```
pub fn glyph_strokes(c: char) -> Option<&'static [Segment]> {
    let s: &'static [Segment] = match c {
        // --- lowercase ---------------------------------------------------
        'a' => segs![(2, 4, 6, 4), (2, 4, 2, 7), (2, 7, 6, 7), (6, 7, 6, 4), (6, 3, 6, 7)],
        'b' => segs![(2, 1, 2, 7), (2, 4, 6, 4), (6, 4, 6, 7), (6, 7, 2, 7)],
        'c' => segs![(6, 3, 2, 3), (2, 3, 2, 7), (2, 7, 6, 7)],
        'd' => segs![(6, 1, 6, 7), (6, 4, 2, 4), (2, 4, 2, 7), (2, 7, 6, 7)],
        'e' => segs![(2, 3, 6, 3), (6, 3, 6, 5), (6, 5, 2, 5), (2, 3, 2, 7), (2, 7, 6, 7)],
        'f' => segs![(4, 1, 4, 7), (4, 1, 6, 1), (2, 4, 6, 4)],
        'g' => segs![(2, 3, 6, 3), (2, 3, 2, 6), (2, 6, 6, 6), (6, 3, 6, 8), (6, 8, 2, 8)],
        'h' => segs![(2, 1, 2, 7), (2, 4, 6, 4), (6, 4, 6, 7)],
        'i' => segs![(4, 1.2, 4, 2), (4, 3, 4, 7)],
        'j' => segs![(5, 1.2, 5, 2), (5, 3, 5, 8), (5, 8, 3, 8)],
        'k' => segs![(2, 1, 2, 7), (6, 3, 2, 5), (3, 4.6, 6, 7)],
        'l' => segs![(4, 1, 4, 7)],
        'm' => segs![(2, 3, 2, 7), (2, 3, 4, 3), (4, 3, 4, 7), (4, 3, 6, 3), (6, 3, 6, 7)],
        'n' => segs![(2, 3, 2, 7), (2, 3, 6, 3), (6, 3, 6, 7)],
        'o' => segs![(2, 3, 6, 3), (6, 3, 6, 7), (6, 7, 2, 7), (2, 7, 2, 3)],
        'p' => segs![(2, 3, 2, 8), (2, 3, 6, 3), (6, 3, 6, 6), (6, 6, 2, 6)],
        // 'q' carries an angled tail so it is not a perfect mirror image of
        // 'p' — mirror-symmetric glyphs on mirror-symmetric keys would
        // produce byte-identical counter deltas and be indistinguishable.
        'q' => segs![(6, 3, 2, 3), (2, 3, 2, 6), (2, 6, 6, 6), (6, 3, 6, 7.2), (6, 7.2, 7, 8)],
        'r' => segs![(2, 3, 2, 7), (2, 4.2, 5, 3)],
        's' => segs![(6, 3, 2, 3), (2, 3, 2, 5), (2, 5, 6, 5), (6, 5, 6, 7), (6, 7, 2, 7)],
        't' => segs![(4, 1, 4, 7), (2, 3, 6, 3), (4, 7, 6, 7)],
        'u' => segs![(2, 3, 2, 7), (2, 7, 6, 7), (6, 7, 6, 3)],
        'v' => segs![(2, 3, 4, 7), (4, 7, 6, 3)],
        'w' => segs![(2, 3, 3, 7), (3, 7, 4, 4), (4, 4, 5, 7), (5, 7, 6, 3)],
        'x' => segs![(2, 3, 6, 7), (6, 3, 2, 7)],
        'y' => segs![(2, 3, 4, 5.7), (6, 3, 3, 8)],
        'z' => segs![(2, 3, 6, 3), (6, 3, 2, 7), (2, 7, 6, 7)],
        // --- uppercase ---------------------------------------------------
        'A' => segs![(2, 7, 4, 1), (4, 1, 6, 7), (3, 5, 5, 5)],
        'B' => segs![
            (2, 1, 2, 7),
            (2, 1, 5, 1),
            (5, 1, 5, 4),
            (2, 4, 5, 4),
            (5, 4, 6, 5.5),
            (6, 5.5, 5, 7),
            (5, 7, 2, 7)
        ],
        'C' => segs![(6, 1, 2, 1), (2, 1, 2, 7), (2, 7, 6, 7)],
        'D' => segs![(2, 1, 2, 7), (2, 1, 5, 1), (5, 1, 6, 4), (6, 4, 5, 7), (5, 7, 2, 7)],
        'E' => segs![(2, 1, 2, 7), (2, 1, 6, 1), (2, 4, 5, 4), (2, 7, 6, 7)],
        'F' => segs![(2, 1, 2, 7), (2, 1, 6, 1), (2, 4, 5, 4)],
        'G' => segs![(6, 1, 2, 1), (2, 1, 2, 7), (2, 7, 6, 7), (6, 7, 6, 4), (6, 4, 4, 4)],
        'H' => segs![(2, 1, 2, 7), (6, 1, 6, 7), (2, 4, 6, 4)],
        'I' => segs![(4, 1, 4, 7), (2, 1, 6, 1), (2, 7, 6, 7)],
        'J' => segs![(6, 1, 6, 7), (6, 7, 2, 7), (2, 7, 2, 5)],
        'K' => segs![(2, 1, 2, 7), (6, 1, 2, 4.2), (3, 4, 6, 7)],
        'L' => segs![(2, 1, 2, 7), (2, 7, 6, 7)],
        'M' => segs![(2, 7, 2, 1), (2, 1, 4, 4.5), (4, 4.5, 6, 1), (6, 1, 6, 7)],
        'N' => segs![(2, 7, 2, 1), (2, 1, 6, 7), (6, 7, 6, 1)],
        'O' => segs![(2, 1, 6, 1), (6, 1, 6, 7), (6, 7, 2, 7), (2, 7, 2, 1)],
        'P' => segs![(2, 1, 2, 7), (2, 1, 6, 1), (6, 1, 6, 4), (6, 4, 2, 4)],
        'Q' => segs![(2, 1, 6, 1), (6, 1, 6, 7), (6, 7, 2, 7), (2, 7, 2, 1), (4.6, 5.4, 7, 8)],
        'R' => segs![(2, 1, 2, 7), (2, 1, 6, 1), (6, 1, 6, 4), (6, 4, 2, 4), (3.2, 4, 6, 7)],
        'S' => segs![(6, 1, 2, 1), (2, 1, 2, 4), (2, 4, 6, 4), (6, 4, 6, 7), (6, 7, 2, 7)],
        'T' => segs![(2, 1, 6, 1), (4, 1, 4, 7)],
        'U' => segs![(2, 1, 2, 7), (2, 7, 6, 7), (6, 7, 6, 1)],
        'V' => segs![(2, 1, 4, 7), (4, 7, 6, 1)],
        'W' => segs![(2, 1, 3, 7), (3, 7, 4, 3), (4, 3, 5, 7), (5, 7, 6, 1)],
        'X' => segs![(2, 1, 6, 7), (6, 1, 2, 7)],
        'Y' => segs![(2, 1, 4, 4), (6, 1, 4, 4), (4, 4, 4, 7)],
        'Z' => segs![(2, 1, 6, 1), (6, 1, 2, 7), (2, 7, 6, 7)],
        // --- digits ------------------------------------------------------
        '0' => segs![(2, 1, 6, 1), (6, 1, 6, 7), (6, 7, 2, 7), (2, 7, 2, 1), (2, 6, 6, 2)],
        '1' => segs![(3, 2, 4, 1), (4, 1, 4, 7), (2, 7, 6, 7)],
        '2' => segs![(2, 2, 2, 1), (2, 1, 6, 1), (6, 1, 6, 3.5), (6, 3.5, 2, 7), (2, 7, 6, 7)],
        '3' => segs![(2, 1, 6, 1), (6, 1, 6, 7), (6, 7, 2, 7), (3.2, 4, 6, 4)],
        '4' => segs![(5, 1, 2, 5), (2, 5, 6.6, 5), (5, 1, 5, 7)],
        '5' => segs![(6, 1, 2, 1), (2, 1, 2, 4), (2, 4, 6, 4), (6, 4, 6, 7), (6, 7, 2, 7)],
        '6' => segs![(6, 1, 2, 1), (2, 1, 2, 7), (2, 7, 6, 7), (6, 7, 6, 4), (6, 4, 2, 4)],
        '7' => segs![(2, 1, 6, 1), (6, 1, 3, 7)],
        '8' => segs![(2, 1, 6, 1), (6, 1, 6, 7), (6, 7, 2, 7), (2, 7, 2, 1), (2, 4, 6, 4)],
        '9' => segs![(6, 7, 6, 1), (6, 1, 2, 1), (2, 1, 2, 4), (2, 4, 6, 4)],
        // --- symbols -----------------------------------------------------
        ',' => segs![(4, 6, 4, 7), (4, 7, 3.2, 8)],
        '.' => segs![(4, 6.4, 4, 7)],
        '@' => segs![
            (1, 2, 7, 2),
            (7, 2, 7, 6),
            (7, 6, 1, 6),
            (1, 6, 1, 2),
            (3, 3.4, 5, 3.4),
            (5, 3.4, 5, 5),
            (5, 5, 3, 5),
            (3, 5, 3, 3.4),
            (5, 5, 6, 5)
        ],
        '#' => segs![(3, 1, 3, 7), (5, 1, 5, 7), (2, 3, 6, 3), (2, 5, 6, 5)],
        '$' => segs![
            (6, 1.5, 2, 1.5),
            (2, 1.5, 2, 4),
            (2, 4, 6, 4),
            (6, 4, 6, 6.5),
            (6, 6.5, 2, 6.5),
            (4, 0.6, 4, 7.4)
        ],
        '&' => segs![
            (6, 7, 3, 3),
            (3, 3, 3.8, 1.2),
            (3.8, 1.2, 5.2, 2.4),
            (2.2, 4.6, 2, 7),
            (2, 7, 6, 4.6)
        ],
        '-' => segs![(2, 4, 6, 4)],
        '+' => segs![(2, 4, 6, 4), (4, 2, 4, 6)],
        '(' => segs![(5, 1, 3.4, 3), (3.4, 3, 3.4, 5), (3.4, 5, 5, 7)],
        ')' => segs![(3, 1, 4.6, 3), (4.6, 3, 4.6, 5), (4.6, 5, 3, 7)],
        '/' => segs![(2, 7, 6, 1)],
        '*' => segs![(4, 1.6, 4, 6.4), (2, 2.8, 6, 5.2), (6, 2.8, 2, 5.2)],
        '"' => segs![(3.2, 1, 3.2, 2.4), (4.8, 1, 4.8, 2.4)],
        '\'' => segs![(4, 1, 4, 2.2)],
        ':' => segs![(4, 2.8, 4, 3.5), (4, 5.8, 4, 6.5)],
        ';' => segs![(4, 2.8, 4, 3.5), (4, 6, 4, 6.8), (4, 6.8, 3.4, 7.8)],
        '!' => segs![(4, 1, 4, 5), (4, 6.3, 4, 7)],
        '?' => segs![
            (2, 2, 2, 1.2),
            (2, 1.2, 6, 1.2),
            (6, 1.2, 6, 3),
            (6, 3, 4, 4.2),
            (4, 4.2, 4, 5),
            (4, 6.3, 4, 7)
        ],
        ' ' => segs![],
        _ => return None,
    };
    Some(s)
}

/// The full character set evaluated in the paper's Figure 18, in the order
/// the figure lists it.
pub const FIG18_CHARSET: &str =
    "abcdefghijklmnopqrstuvwxyz1234567890,.ABCDEFGHIJKLMNOPQRSTUVWXYZ@#$&-+()/*\"':;!?";

/// The number of stroke primitives in `c` (0 for space, [`FALLBACK`] length
/// for unsupported characters).
pub fn stroke_count(c: char) -> usize {
    glyph_strokes(c).unwrap_or(FALLBACK).len()
}

/// Design-grid bounding box of a glyph's strokes, or `None` for strokeless
/// glyphs (space).
#[derive(Debug, Clone, Copy)]
enum GridBbox {
    Empty,
    Box { x0: f32, y0: f32, x1: f32, y1: f32 },
}

fn bbox_of(strokes: &[Segment]) -> GridBbox {
    let mut it = strokes.iter();
    let Some(first) = it.next() else { return GridBbox::Empty };
    let (mut x0, mut x1) = (first.x0.min(first.x1), first.x0.max(first.x1));
    let (mut y0, mut y1) = (first.y0.min(first.y1), first.y0.max(first.y1));
    for s in it {
        x0 = x0.min(s.x0.min(s.x1));
        x1 = x1.max(s.x0.max(s.x1));
        y0 = y0.min(s.y0.min(s.y1));
        y1 = y1.max(s.y0.max(s.y1));
    }
    GridBbox::Box { x0, y0, x1, y1 }
}

/// Per-glyph design-grid bounding boxes for the printable ASCII range,
/// computed once per process. Every supported glyph lives in this range;
/// anything else falls back to the [`FALLBACK`] box.
fn bbox_table() -> &'static [GridBbox; 96] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[GridBbox; 96]> = OnceLock::new();
    TABLE.get_or_init(|| {
        std::array::from_fn(|i| {
            let ch = char::from_u32(0x20 + i as u32).expect("printable ASCII");
            bbox_of(glyph_strokes(ch).unwrap_or(FALLBACK))
        })
    })
}

/// Screen-space bounding box of the glyph `ch` drawn into `dest` at the
/// given stroke thickness: identical to the union of every stroke's
/// [`Segment::screen_bounds`] (the grid→screen mapping is monotone per
/// coordinate, so min/max commute with it), but computed from the cached
/// per-glyph design-grid bounding box instead of a per-call fold over the
/// stroke table.
pub(crate) fn glyph_screen_bounds(ch: char, dest: &Rect, thickness: i32) -> Rect {
    let code = ch as u32;
    let bbox = if (0x20..0x80).contains(&code) {
        bbox_table()[(code - 0x20) as usize]
    } else {
        bbox_of(glyph_strokes(ch).unwrap_or(FALLBACK))
    };
    match bbox {
        GridBbox::Empty => Rect::EMPTY,
        GridBbox::Box { x0, y0, x1, y1 } => {
            Segment { x0, y0, x1, y1 }.screen_bounds(dest, GRID, thickness)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_fig18_characters_have_glyphs() {
        for c in FIG18_CHARSET.chars() {
            assert!(glyph_strokes(c).is_some(), "missing glyph for {c:?}");
        }
    }

    #[test]
    fn fig18_charset_has_no_duplicates() {
        let mut seen = HashSet::new();
        for c in FIG18_CHARSET.chars() {
            assert!(seen.insert(c), "duplicate char {c:?} in FIG18_CHARSET");
        }
        // 26 lower + 10 digits + ',' '.' + 26 upper + 16 symbols
        assert_eq!(seen.len(), 80);
    }

    #[test]
    fn glyph_coordinates_stay_on_grid() {
        for c in FIG18_CHARSET.chars() {
            for s in glyph_strokes(c).unwrap() {
                for v in [s.x0, s.y0, s.x1, s.y1] {
                    assert!((0.0..=GRID).contains(&v), "{c:?} has out-of-grid coord {v}");
                }
            }
        }
    }

    #[test]
    fn no_zero_length_strokes() {
        for c in FIG18_CHARSET.chars() {
            for s in glyph_strokes(c).unwrap() {
                assert!(s.length() > 0.0, "{c:?} has a zero-length stroke");
            }
        }
    }

    #[test]
    fn tiny_punctuation_has_minimal_ink() {
        // The paper observes ';' and '\'' cause the minimum overdraw; our
        // font must preserve that ranking against average letters.
        let ink = |c: char| -> f32 { glyph_strokes(c).unwrap().iter().map(|s| s.length()).sum() };
        assert!(ink('\'') < ink('a'));
        assert!(ink(';') < ink('a'));
        assert!(ink('.') < ink(','));
        assert!(ink('@') > ink('o'), "'@' should be the busiest glyph");
    }

    #[test]
    fn unknown_chars_fall_back() {
        assert_eq!(glyph_strokes('€'), None);
        assert_eq!(stroke_count('€'), FALLBACK.len());
    }

    #[test]
    fn space_has_no_strokes() {
        assert_eq!(stroke_count(' '), 0);
    }

    #[test]
    fn glyph_bounds_cover_strokes() {
        let dest = Rect::from_xywh(100, 200, 80, 80);
        let b = glyph_screen_bounds('o', &dest, 4);
        // 'o' spans grid 2..=7 in both axes; bounds must sit inside a
        // slightly padded dest and be non-empty.
        assert!(!b.is_empty());
        assert!(b.x0 >= dest.x0 - 4 && b.x1 <= dest.x1 + 4);
    }

    #[test]
    fn space_glyph_has_empty_bounds() {
        assert!(glyph_screen_bounds(' ', &Rect::from_xywh(0, 0, 50, 50), 4).is_empty());
    }
}
