//! Functional dependencies `X → A`.

use depminer_relation::{AttrSet, Schema};
use std::fmt;
use std::io::{self, Write};

/// A functional dependency `X → A` with a single right-hand attribute (§2).
///
/// Any FD `X → Y` with composite rhs decomposes into `{X → A | A ∈ Y}`
/// (Armstrong's decomposition rule), so single-rhs form loses no generality
/// and is what every discovery algorithm emits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd {
    /// Left-hand side `X`.
    pub lhs: AttrSet,
    /// Right-hand attribute `A`.
    pub rhs: usize,
}

impl Fd {
    /// Creates `lhs → rhs`.
    pub fn new(lhs: AttrSet, rhs: usize) -> Self {
        Fd { lhs, rhs }
    }

    /// `true` iff `A ∈ X` (the FD holds in every relation).
    pub fn is_trivial(&self) -> bool {
        self.lhs.contains(self.rhs)
    }

    /// All attributes mentioned by the FD.
    pub fn attrs(&self) -> AttrSet {
        self.lhs.with(self.rhs)
    }

    /// Renders with schema names, e.g. `depnum -> depname`.
    pub fn display_with(&self, schema: &Schema) -> String {
        self.named(schema).to_string()
    }

    /// The FD with schema names, as a [`Display`](fmt::Display) value:
    /// `write!(out, "{}", fd.named(schema))` renders `display_with`'s text
    /// straight into `out`, with no intermediate `String`.
    pub fn named<'s>(&self, schema: &'s Schema) -> NamedFd<'s> {
        NamedFd { fd: *self, schema }
    }
}

/// An [`Fd`] rendered with schema names; see [`Fd::named`].
///
/// The lhs names are separated by one space, an empty lhs renders as `∅`.
/// A width or precision in the format spec applies to the whole text and
/// counts chars, as it does for a `String`.
pub struct NamedFd<'s> {
    fd: Fd,
    schema: &'s Schema,
}

impl NamedFd<'_> {
    fn write_to(&self, w: &mut impl fmt::Write) -> fmt::Result {
        let mut names = self.fd.lhs.iter().map(|a| self.schema.name(a));
        match names.next() {
            None => w.write_str("∅")?,
            Some(first) => {
                w.write_str(first)?;
                for name in names {
                    w.write_str(" ")?;
                    w.write_str(name)?;
                }
            }
        }
        w.write_str(" -> ")?;
        w.write_str(self.schema.name(self.fd.rhs))
    }
}

impl fmt::Display for NamedFd<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if f.width().is_none() && f.precision().is_none() {
            return self.write_to(f);
        }
        // Padding needs the rendered length, so render once and pad.
        let mut text = String::new();
        self.write_to(&mut text)?;
        f.pad(&text)
    }
}

impl fmt::Debug for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.lhs, AttrSet::singleton(self.rhs))
    }
}

/// How many bytes of lines [`write_fd_lines`] gathers before it writes
/// them out.
const BLOCK: usize = 1 << 16;

/// Writes one line per FD, `x y -> z`, with schema names and straight into
/// bytes: each line is appended to one reused buffer, which goes to `out`
/// in blocks that end at a line end. The lines are [`Fd::named`]'s text
/// when `empty_lhs` is `"∅ "`, which stands in for an empty lhs's names
/// and the space after them; the FD-file format passes `""`, so its line
/// reads `-> z`.
pub fn write_fd_lines(
    out: &mut (impl Write + ?Sized),
    schema: &Schema,
    fds: &[Fd],
    empty_lhs: &str,
) -> io::Result<()> {
    let names: Vec<&[u8]> = schema.names().iter().map(|n| n.as_bytes()).collect();
    let mut buf = Vec::with_capacity(BLOCK + 256);
    for fd in fds {
        if fd.lhs.is_empty() {
            buf.extend_from_slice(empty_lhs.as_bytes());
        }
        for a in fd.lhs.iter() {
            buf.extend_from_slice(names[a]);
            buf.push(b' ');
        }
        buf.extend_from_slice(b"-> ");
        buf.extend_from_slice(names[fd.rhs]);
        buf.push(b'\n');
        if buf.len() >= BLOCK {
            out.write_all(&buf)?;
            buf.clear();
        }
    }
    out.write_all(&buf)
}

/// Sorts and deduplicates a set of FDs in place (canonical listing order:
/// by rhs, then lhs).
pub fn normalize_fds(fds: &mut Vec<Fd>) {
    fds.sort_unstable_by_key(|f| (f.rhs, f.lhs));
    fds.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[usize]) -> AttrSet {
        AttrSet::from_indices(v.iter().copied())
    }

    #[test]
    fn triviality() {
        assert!(Fd::new(s(&[0, 1]), 1).is_trivial());
        assert!(!Fd::new(s(&[0, 1]), 2).is_trivial());
        assert!(!Fd::new(AttrSet::empty(), 0).is_trivial());
    }

    #[test]
    fn attrs_and_display() {
        let fd = Fd::new(s(&[1, 3]), 0);
        assert_eq!(fd.attrs(), s(&[0, 1, 3]));
        assert_eq!(fd.to_string(), "BD -> A");
        let schema = Schema::new(["x", "y", "z", "w"]).unwrap();
        let cases = [
            (fd, "y w -> x"),
            (Fd::new(AttrSet::empty(), 2), "∅ -> z"),
            (Fd::new(s(&[3]), 0), "w -> x"),
        ];
        for (fd, text) in cases {
            assert_eq!(fd.display_with(&schema), text);
            assert_eq!(fd.named(&schema).to_string(), text);
        }
    }

    #[test]
    fn named_pads_the_whole_text() {
        let schema = Schema::new(["x", "y", "z", "w"]).unwrap();
        let short = Fd::new(s(&[0, 1]), 2);
        assert_eq!(
            format!("{:<40}|", short.named(&schema)),
            "x y -> z                                |"
        );
        let names: Vec<String> = (0..12).map(|i| format!("attr{i:02}")).collect();
        let wide = Schema::new(names).unwrap();
        let long = Fd::new(s(&[0, 1, 2, 3, 4, 5, 6]), 11);
        let text = "attr00 attr01 attr02 attr03 attr04 attr05 attr06 -> attr11";
        assert!(text.chars().count() > 40);
        assert_eq!(format!("{:<40}|", long.named(&wide)), format!("{text}|"));
    }

    #[test]
    fn named_pads_by_chars_not_bytes() {
        let schema = Schema::new(["städte", "ü", "zip"]).unwrap();
        let fd = Fd::new(s(&[0, 1]), 2);
        // 15 chars in 17 bytes: a byte count would pad with 3 spaces, not 5.
        assert_eq!(
            format!("{:<20}|", fd.named(&schema)),
            "städte ü -> zip     |"
        );
        assert_eq!(
            format!("{:<20}|", fd.named(&schema)),
            format!("{:<20}|", fd.display_with(&schema))
        );
        assert_eq!(
            format!("{:<10}|", Fd::new(AttrSet::empty(), 1).named(&schema)),
            "∅ -> ü    |"
        );
    }

    #[test]
    fn fd_lines_are_named_text() {
        let schema = Schema::new(["x", "städte", "ü", "zip", "日本"]).unwrap();
        let mut rng = depminer_relation::Prng::seed_from_u64(0xFD);
        let mut fds = vec![Fd::new(AttrSet::empty(), 2)];
        // Enough lines to fill several blocks.
        while fds.len() < 20_000 {
            let lhs = AttrSet::from_indices((0..5).filter(|_| rng.gen_bool(0.4)));
            fds.push(Fd::new(lhs, rng.gen_range(0..5usize)));
        }
        let mut out = Vec::new();
        write_fd_lines(&mut out, &schema, &fds, "∅ ").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.len() > 2 * BLOCK);
        assert_eq!(text.lines().count(), fds.len());
        for (line, fd) in text.lines().zip(&fds) {
            assert_eq!(line, fd.named(&schema).to_string());
        }
        assert!(text.starts_with("∅ -> ü\n"));
    }

    #[test]
    fn normalize_orders_and_dedups() {
        let mut v = vec![
            Fd::new(s(&[1]), 2),
            Fd::new(s(&[0]), 0),
            Fd::new(s(&[1]), 2),
            Fd::new(s(&[0, 1]), 0),
        ];
        normalize_fds(&mut v);
        assert_eq!(
            v,
            vec![
                Fd::new(s(&[0]), 0),
                Fd::new(s(&[0, 1]), 0),
                Fd::new(s(&[1]), 2)
            ]
        );
    }
}
