//! A plain-text interchange format for FD sets.
//!
//! ```text
//! # comments start with '#'
//! attributes: city street zip
//! city street -> zip
//! zip -> city
//! ```
//!
//! The header names the schema; each following line is one FD, with a
//! whitespace-separated lhs (empty lhs allowed: `-> country` means
//! `∅ → country`) and one or more rhs attributes (expanded to one [`Fd`]
//! per rhs). The CLI's `design`/`prove` commands read this format, and
//! `fds --save` writes it, so mined covers round-trip into the
//! design-by-example workflow.

use crate::fd::{write_fd_lines, Fd};
use depminer_relation::Schema;

/// Parses the FD-file format. Returns the schema and the FDs.
///
/// # Errors
///
/// Returns a human-readable message naming the offending line.
pub fn parse(text: &str) -> Result<(Schema, Vec<Fd>), String> {
    let mut lines = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let header = lines.next().ok_or("empty FD file")?;
    let names = header
        .strip_prefix("attributes:")
        .ok_or("first line must be `attributes: <name> <name> …`")?;
    let schema = Schema::new(names.split_whitespace()).map_err(|e| e.to_string())?;
    let mut fds = Vec::new();
    for line in lines {
        let (lhs_txt, rhs_txt) = line
            .split_once("->")
            .ok_or_else(|| format!("missing `->` in {line:?}"))?;
        let lhs = schema
            .attr_set(lhs_txt.split_whitespace())
            .map_err(|e| e.to_string())?;
        let mut any_rhs = false;
        for rhs_name in rhs_txt.split_whitespace() {
            let rhs = schema
                .index_of(rhs_name)
                .ok_or_else(|| format!("unknown attribute {rhs_name:?}"))?;
            fds.push(Fd::new(lhs, rhs));
            any_rhs = true;
        }
        if !any_rhs {
            return Err(format!("missing right-hand side in {line:?}"));
        }
    }
    Ok((schema, fds))
}

/// Renders a schema and FD set in the FD-file format; [`parse`] inverts it.
pub fn render(schema: &Schema, fds: &[Fd]) -> String {
    let mut out = String::from("attributes:");
    for name in schema.names() {
        out.push(' ');
        out.push_str(name);
    }
    out.push('\n');
    let mut out = out.into_bytes();
    write_fd_lines(&mut out, schema, fds, "").expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("names and separators are UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use depminer_relation::AttrSet;

    #[test]
    fn parse_basic() {
        let (schema, fds) =
            parse("# classic\nattributes: city street zip\ncity street -> zip\nzip -> city\n")
                .unwrap();
        assert_eq!(schema.arity(), 3);
        assert_eq!(fds.len(), 2);
        assert_eq!(fds[0], Fd::new(AttrSet::from_indices([0, 1]), 2));
        assert_eq!(fds[1], Fd::new(AttrSet::singleton(2), 0));
    }

    #[test]
    fn parse_compound_rhs_and_empty_lhs() {
        let (_, fds) = parse("attributes: a b c\na -> b c\n-> a\n").unwrap();
        assert_eq!(fds.len(), 3);
        assert_eq!(fds[2], Fd::new(AttrSet::empty(), 0));
    }

    #[test]
    fn parse_errors() {
        assert!(parse("").is_err());
        assert!(parse("a -> b\n").is_err()); // missing header
        assert!(parse("attributes: a b\na b\n").is_err()); // missing ->
        assert!(parse("attributes: a b\na -> z\n").is_err()); // unknown attr
        assert!(parse("attributes: a b\na ->\n").is_err()); // empty rhs
        assert!(parse("attributes: a a\n").is_err()); // duplicate attr
    }

    #[test]
    fn render_parse_roundtrip() {
        let schema = Schema::new(["x", "y", "z"]).unwrap();
        let fds = vec![
            Fd::new(AttrSet::empty(), 1),
            Fd::new(AttrSet::from_indices([0, 2]), 1),
            Fd::new(AttrSet::singleton(1), 2),
        ];
        let text = render(&schema, &fds);
        assert_eq!(text, "attributes: x y z\n-> y\nx z -> y\ny -> z\n");
        let (schema2, fds2) = parse(&text).unwrap();
        assert_eq!(schema2.names(), schema.names());
        assert_eq!(fds2, fds);
    }

    #[test]
    fn roundtrip_of_mined_cover() {
        let r = depminer_relation::datasets::employee();
        let fds = crate::mine::mine_minimal_fds(&r);
        let text = render(r.schema(), &fds);
        let (_, back) = parse(&text).unwrap();
        assert_eq!(back, fds);
    }
}
