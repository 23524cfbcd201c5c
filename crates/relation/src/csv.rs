//! Minimal CSV import/export for relations.
//!
//! Supports the RFC-4180 subset needed to load benchmark datasets: comma
//! separation, double-quoted fields with `""` escapes, LF or CRLF line
//! ends, blank lines (skipped) and an optional trailing newline. The first
//! record is the header (attribute names); one leading UTF-8 byte-order
//! mark, as spreadsheet exports write, is not part of the first name.
//! Hand-rolled to keep the dependency set to the approved list.
//!
//! [`read_csv`] streams: it reads one line at a time into one reused
//! buffer, cuts it into fields in place with the one splitter the header
//! and the rows share, and interns each field straight into its column.
//! No row matrix and no `String` per line or per field is built. A field
//! is interned as [`Value::parse`] classifies it, so `7`, `07` and `+7`
//! are one value, and codes follow each value's first occurrence in its
//! column.

use crate::error::RelationError;
use crate::relation::{ColumnBuilder, Relation};
use crate::schema::Schema;
use crate::value::{Value, ValueRef};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// The UTF-8 byte-order mark.
const BOM: &[u8] = b"\xEF\xBB\xBF";

/// Cuts one record into its fields and hands each to `field`, in order;
/// returns how many there were. A quoted field's `""` escapes are undone
/// in `unescaped`, a buffer kept across calls; every other field is a
/// slice of `line`.
///
/// `line` must not contain the record terminator. Embedded newlines inside
/// quotes are not supported (none of the supported datasets need them).
fn split_fields(
    line: &str,
    line_no: usize,
    unescaped: &mut String,
    mut field: impl FnMut(&str),
) -> Result<usize, RelationError> {
    let mut n = 0;
    let mut rest = line;
    loop {
        n += 1;
        let Some(quoted) = rest.strip_prefix('"') else {
            match rest.find(',') {
                Some(comma) => {
                    field(&rest[..comma]);
                    rest = &rest[comma + 1..];
                    continue;
                }
                None => {
                    field(rest);
                    return Ok(n);
                }
            }
        };
        // The closing quote is the first quote not doubled.
        let mut close = 0;
        let mut escaped = false;
        loop {
            let Some(q) = quoted[close..].find('"') else {
                return Err(RelationError::Csv {
                    line: line_no,
                    message: "unterminated quoted field".into(),
                });
            };
            close += q;
            if quoted[close + 1..].starts_with('"') {
                escaped = true;
                close += 2;
            } else {
                break;
            }
        }
        if escaped {
            unescaped.clear();
            let mut text = &quoted[..close];
            while let Some(q) = text.find('"') {
                unescaped.push_str(&text[..=q]);
                text = &text[q + 2..];
            }
            unescaped.push_str(text);
            field(unescaped);
        } else {
            field(&quoted[..close]);
        }
        rest = &quoted[close + 1..];
        match rest.chars().next() {
            None => return Ok(n),
            Some(',') => rest = &rest[1..],
            Some(c) => {
                return Err(RelationError::Csv {
                    line: line_no,
                    message: format!("unexpected {c:?} after closing quote"),
                })
            }
        }
    }
}

/// The record a line holds: the line without its `\n` and any `\r`s
/// before it, checked to be UTF-8.
fn record(line: &[u8], line_no: usize) -> Result<&str, RelationError> {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    match std::str::from_utf8(line) {
        Ok(text) => Ok(text.trim_end_matches('\r')),
        Err(_) => Err(RelationError::Csv {
            line: line_no,
            message: "invalid UTF-8: stream did not contain valid UTF-8".into(),
        }),
    }
}

/// Reads a relation from CSV text. The first record is the header.
///
/// Malformed input — ragged rows, an empty or over-wide header, duplicate
/// or blank attribute names, unterminated quotes, invalid UTF-8 — is
/// reported as an `Err` carrying the 1-based line (and where relevant,
/// column) it was found at, never a panic.
pub fn read_csv<R: Read>(reader: R) -> Result<Relation, RelationError> {
    let mut input = BufReader::new(reader);
    let mut line = Vec::new();
    let mut unescaped = String::new();
    // An input that is only a byte-order mark holds no text either.
    if input.read_until(b'\n', &mut line)? == 0 || line == BOM {
        return Err(RelationError::Csv {
            line: 1,
            message: "empty input".into(),
        });
    }
    let header = record(line.strip_prefix(BOM).unwrap_or(&line), 1)?;
    let mut names = Vec::new();
    split_fields(header, 1, &mut unescaped, |name| {
        names.push(name.to_string())
    })?;
    for (col, name) in names.iter().enumerate() {
        if name.trim().is_empty() {
            return Err(RelationError::Csv {
                line: 1,
                message: format!("empty attribute name in header (column {})", col + 1),
            });
        }
    }
    let schema = Schema::new(names).map_err(|e| RelationError::Csv {
        line: 1,
        message: format!("invalid header: {e}"),
    })?;
    let arity = schema.arity();
    let mut columns: Vec<ColumnBuilder> = (0..arity).map(|_| ColumnBuilder::default()).collect();
    let mut rows = 0;
    let mut line_no = 1;
    loop {
        line_no += 1;
        line.clear();
        if input.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        let text = record(&line, line_no)?;
        if text.is_empty() {
            continue;
        }
        // A ragged row is an error, so the codes a row interns before its
        // field count is known never reach a relation.
        let mut columns_left = columns.iter_mut();
        let fields = split_fields(text, line_no, &mut unescaped, |field| {
            if let Some(column) = columns_left.next() {
                column.push(ValueRef::parse(field));
            }
        })?;
        rows += 1;
        if fields != arity {
            return Err(RelationError::Csv {
                line: line_no,
                message: format!("row {rows} has {fields} fields, the header declares {arity}"),
            });
        }
    }
    Ok(Relation::from_builders(schema, columns))
}

/// Reads a relation from a CSV file.
pub fn read_csv_file<P: AsRef<Path>>(path: P) -> Result<Relation, RelationError> {
    read_csv(std::fs::File::open(path)?)
}

/// Writes `field`, quoted if it contains a comma, quote, or line break.
fn write_field(w: &mut impl Write, field: &str) -> std::io::Result<()> {
    if !field.contains([',', '"', '\n', '\r']) {
        return w.write_all(field.as_bytes());
    }
    w.write_all(b"\"")?;
    let mut rest = field;
    while let Some(q) = rest.find('"') {
        w.write_all(rest[..=q].as_bytes())?;
        w.write_all(b"\"")?;
        rest = &rest[q + 1..];
    }
    w.write_all(rest.as_bytes())?;
    w.write_all(b"\"")
}

/// Writes a relation as CSV (header + one record per tuple).
///
/// A single-column NULL tuple would serialize to an empty line, which the
/// reader (like most CSV readers) skips as blank; such records are written
/// as `""` instead, which reads back as the empty field.
pub fn write_csv<W: Write>(r: &Relation, mut w: W) -> Result<(), RelationError> {
    for (a, name) in r.schema().names().iter().enumerate() {
        if a > 0 {
            w.write_all(b",")?;
        }
        write_field(&mut w, name)?;
    }
    w.write_all(b"\n")?;
    for t in 0..r.len() {
        for a in 0..r.arity() {
            if a > 0 {
                w.write_all(b",")?;
            }
            match r.value(t, a) {
                Value::Null => {}
                Value::Int(i) => write!(w, "{i}")?,
                Value::Text(s) => write_field(&mut w, s)?,
            }
        }
        let lone_empty_field = r.arity() == 1
            && match r.value(t, 0) {
                Value::Null => true,
                Value::Text(s) => s.is_empty(),
                Value::Int(_) => false,
            };
        if lone_empty_field {
            w.write_all(b"\"\"")?;
        }
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Writes a relation to a CSV file.
///
/// The file is written through a buffer that is flushed before returning,
/// so a failed write (a full disk) is an `Err`, never a short file.
pub fn write_csv_file<P: AsRef<Path>>(r: &Relation, path: P) -> Result<(), RelationError> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write_csv(r, &mut w)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrset::AttrSet;
    use crate::prng::Prng;

    /// The reader as it was before it streamed, kept as the oracle of
    /// `streaming_reader_matches_the_line_reader`: whole lines through
    /// `BufRead::lines`, a `String` per field from `parse_line`, and
    /// `Value::parse` per cell. Returns the header and the cells.
    fn oracle_read(input: &[u8]) -> Result<(Vec<String>, Vec<Vec<Value>>), RelationError> {
        fn read_line_err(line_no: usize, e: std::io::Error) -> RelationError {
            if e.kind() == std::io::ErrorKind::InvalidData {
                RelationError::Csv {
                    line: line_no,
                    message: format!("invalid UTF-8: {e}"),
                }
            } else {
                RelationError::Io(e.to_string())
            }
        }
        let mut lines = BufReader::new(input).lines().enumerate();
        let (_, header) = lines.next().ok_or(RelationError::Csv {
            line: 1,
            message: "empty input".into(),
        })?;
        let header = header.map_err(|e| read_line_err(1, e))?;
        let names = oracle_parse_line(header.trim_end_matches('\r'), 1)?;
        for (col, name) in names.iter().enumerate() {
            if name.trim().is_empty() {
                return Err(RelationError::Csv {
                    line: 1,
                    message: format!("empty attribute name in header (column {})", col + 1),
                });
            }
        }
        let schema = Schema::new(names.clone()).map_err(|e| RelationError::Csv {
            line: 1,
            message: format!("invalid header: {e}"),
        })?;
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for (i, line) in lines {
            let line = line.map_err(|e| read_line_err(i + 1, e))?;
            let line = line.trim_end_matches('\r');
            if line.is_empty() {
                continue;
            }
            let fields = oracle_parse_line(line, i + 1)?;
            if fields.len() != schema.arity() {
                return Err(RelationError::Csv {
                    line: i + 1,
                    message: format!(
                        "row {} has {} fields, the header declares {}",
                        rows.len() + 1,
                        fields.len(),
                        schema.arity()
                    ),
                });
            }
            rows.push(fields.iter().map(|f| Value::parse(f)).collect());
        }
        Ok((names, rows))
    }

    /// The oracle's field splitter, char by char.
    fn oracle_parse_line(line: &str, line_no: usize) -> Result<Vec<String>, RelationError> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        loop {
            match chars.peek() {
                None => {
                    fields.push(std::mem::take(&mut cur));
                    break;
                }
                Some('"') => {
                    chars.next();
                    loop {
                        match chars.next() {
                            Some('"') => {
                                if chars.peek() == Some(&'"') {
                                    chars.next();
                                    cur.push('"');
                                } else {
                                    break;
                                }
                            }
                            Some(c) => cur.push(c),
                            None => {
                                return Err(RelationError::Csv {
                                    line: line_no,
                                    message: "unterminated quoted field".into(),
                                })
                            }
                        }
                    }
                    match chars.next() {
                        Some(',') => fields.push(std::mem::take(&mut cur)),
                        None => {
                            fields.push(std::mem::take(&mut cur));
                            break;
                        }
                        Some(c) => {
                            return Err(RelationError::Csv {
                                line: line_no,
                                message: format!("unexpected {c:?} after closing quote"),
                            })
                        }
                    }
                }
                _ => {
                    loop {
                        match chars.next() {
                            Some(',') | None => {
                                fields.push(std::mem::take(&mut cur));
                                break;
                            }
                            Some(c) => cur.push(c),
                        }
                    }
                    if chars.peek().is_none() && line.ends_with(',') {
                        fields.push(String::new());
                        break;
                    }
                    if chars.peek().is_none() {
                        break;
                    }
                }
            }
        }
        Ok(fields)
    }

    /// A random CSV text built to reach every branch of both readers:
    /// quoted fields with `""` escapes and stray text after the closing
    /// quote, unterminated quotes, CRLF and stray `\r`, blank lines, the
    /// integer spellings `i64` parsing folds together, overflow, empty
    /// fields, ragged rows and, now and then, a byte that is not UTF-8.
    fn random_csv(rng: &mut Prng) -> Vec<u8> {
        const NAMES: &[&str] = &["a", "b", "städte", "\"q\"", "\"x,y\"", "", " ", "a"];
        const FIELDS: &[&str] = &[
            "7",
            "07",
            "+7",
            "-7",
            "-0",
            "0",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775809",
            "x",
            "x y",
            "é",
            "",
            " ",
            "a\"b",
            "a\rb",
            "\"\"",
            "\"7\"",
            "\"x,y\"",
            "\"say \"\"hi\"\"\"",
            "\"\"\"\"",
            "\"ok\"x",
            "\"open",
            "\"é\"\r",
        ];
        const ENDS: &[&str] = &["\n", "\r\n", "\r\r\n", "\r"];
        let mut text = Vec::new();
        let arity = rng.gen_range(1..=4usize);
        for a in 0..arity {
            if a > 0 {
                text.push(b',');
            }
            let name = if rng.gen_range(0..8u32) == 0 {
                NAMES[rng.gen_range(0..NAMES.len())]
            } else {
                ["a", "b", "c", "d"][a]
            };
            text.extend_from_slice(name.as_bytes());
        }
        for _ in 0..rng.gen_range(0..=8usize) {
            text.extend_from_slice(ENDS[rng.gen_range(0..ENDS.len())].as_bytes());
            if rng.gen_range(0..8u32) == 0 {
                continue; // a blank line
            }
            let width = match rng.gen_range(0..16u32) {
                0 => arity + 1,
                1 => arity.saturating_sub(1),
                _ => arity,
            };
            for f in 0..width {
                if f > 0 {
                    text.push(b',');
                }
                let field = if rng.gen_range(0..6u32) == 0 {
                    FIELDS[rng.gen_range(0..FIELDS.len())]
                } else {
                    FIELDS[rng.gen_range(0..6usize)]
                };
                text.extend_from_slice(field.as_bytes());
            }
        }
        if rng.gen_bool(0.5) {
            text.extend_from_slice(ENDS[rng.gen_range(0..ENDS.len())].as_bytes());
        }
        if rng.gen_range(0..32u32) == 0 {
            let at = rng.gen_range(0..=text.len());
            text.insert(at, 0xFF);
        }
        text
    }

    #[test]
    fn streaming_reader_matches_the_line_reader() {
        let mut rng = Prng::seed_from_u64(0xC5F0);
        let (mut loaded, mut refused) = (0, 0);
        for case in 0..20_000 {
            let text = random_csv(&mut rng);
            // A leading byte-order mark is dropped, so it changes nothing.
            let input = if case % 8 == 0 {
                [BOM, &text].concat()
            } else {
                text.clone()
            };
            let shown = String::from_utf8_lossy(&input);
            match (read_csv(input.as_slice()), oracle_read(&text)) {
                (Ok(r), Ok((names, rows))) => {
                    loaded += 1;
                    assert_eq!(r.schema().names(), names.as_slice(), "{shown:?}");
                    assert_eq!(r.len(), rows.len(), "{shown:?}");
                    for a in 0..r.arity() {
                        let mut first_seen: Vec<Value> = Vec::new();
                        for (t, row) in rows.iter().enumerate() {
                            assert_eq!(r.value(t, a), &row[a], "{shown:?}");
                            if !first_seen.contains(&row[a]) {
                                first_seen.push(row[a].clone());
                            }
                        }
                        assert_eq!(r.column(a).distinct_values(), first_seen, "{shown:?}");
                    }
                }
                (Err(got), Err(want)) => {
                    refused += 1;
                    assert_eq!(got, want, "{shown:?}");
                }
                (got, want) => panic!("{shown:?}: read {got:?}, the oracle {want:?}"),
            }
        }
        // Both outcomes are common, so both comparisons ran often.
        assert!(
            loaded > 5_000 && refused > 5_000,
            "{loaded} loaded, {refused} refused"
        );
    }

    #[test]
    fn a_leading_byte_order_mark_is_not_part_of_the_first_name() {
        let r = read_csv("\u{feff}city,zip\nLyon,69001\n".as_bytes()).unwrap();
        assert_eq!(r.schema().names(), ["city", "zip"]);
        // One mark, at the start of the input, is dropped; no other is.
        let r = read_csv("\u{feff}\u{feff}a\n\u{feff}\n".as_bytes()).unwrap();
        assert_eq!(r.schema().name(0), "\u{feff}a");
        assert_eq!(r.value(0, 0), &Value::from("\u{feff}"));
        // A mark alone is an empty input, as no input at all is.
        match read_csv(BOM) {
            Err(RelationError::Csv { line, message }) => {
                assert_eq!((line, message.as_str()), (1, "empty input"));
            }
            other => panic!("expected Csv error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_simple() {
        let csv = "a,b,c\n1,x,10\n2,y,20\n";
        let r = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(r.arity(), 3);
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(0, 1), &Value::from("x"));
        assert_eq!(r.value(1, 2), &Value::Int(20));
        let mut out = Vec::new();
        write_csv(&r, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), csv);
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let csv = "name,quote\nalice,\"hello, world\"\nbob,\"she said \"\"hi\"\"\"\n";
        let r = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(r.value(0, 1), &Value::from("hello, world"));
        assert_eq!(r.value(1, 1), &Value::from("she said \"hi\""));
        let mut out = Vec::new();
        write_csv(&r, &mut out).unwrap();
        assert_eq!(String::from_utf8(out.clone()).unwrap(), csv);
        let r2 = read_csv(out.as_slice()).unwrap();
        assert_eq!(r2.value(0, 1), r.value(0, 1));
        assert_eq!(r2.value(1, 1), r.value(1, 1));
    }

    #[test]
    fn empty_fields_become_null() {
        let csv = "a,b\n1,\n,2\n";
        let r = read_csv(csv.as_bytes()).unwrap();
        assert!(r.value(0, 1).is_null());
        assert!(r.value(1, 0).is_null());
        // Nulls intern like any other value: the two nulls in column a/b
        // are each a single dictionary entry.
        assert_eq!(r.column(0).distinct_count(), 2);
    }

    #[test]
    fn crlf_and_blank_lines_are_tolerated() {
        let csv = "a,b\r\n1,2\r\n\r\n3,4\r\n";
        let r = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(1, 1), &Value::Int(4));
    }

    #[test]
    fn errors_on_ragged_rows() {
        let csv = "a,b\n1\n";
        match read_csv(csv.as_bytes()) {
            Err(RelationError::Csv { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("1 fields"), "{message}");
                assert!(message.contains("declares 2"), "{message}");
            }
            other => panic!("expected positioned Csv error, got {other:?}"),
        }
    }

    #[test]
    fn errors_on_blank_or_empty_header_names() {
        // A fully blank first line is not a usable header.
        match read_csv("\n1,2\n".as_bytes()) {
            Err(RelationError::Csv { line, message }) => {
                assert_eq!(line, 1);
                assert!(message.contains("column 1"), "{message}");
            }
            other => panic!("expected Csv error, got {other:?}"),
        }
        // So is one with a blank name in the middle.
        match read_csv("a,,c\n1,2,3\n".as_bytes()) {
            Err(RelationError::Csv { line, message }) => {
                assert_eq!(line, 1);
                assert!(message.contains("column 2"), "{message}");
            }
            other => panic!("expected Csv error, got {other:?}"),
        }
    }

    #[test]
    fn header_schema_errors_carry_line_context() {
        // Duplicate names.
        match read_csv("a,a\n1,2\n".as_bytes()) {
            Err(RelationError::Csv { line, message }) => {
                assert_eq!(line, 1);
                assert!(message.contains("invalid header"), "{message}");
            }
            other => panic!("expected Csv error, got {other:?}"),
        }
        // More attributes than AttrSet supports.
        let wide: Vec<String> = (0..crate::attrset::MAX_ATTRS + 1)
            .map(|i| format!("c{i}"))
            .collect();
        let csv = format!("{}\n", wide.join(","));
        match read_csv(csv.as_bytes()) {
            Err(RelationError::Csv { line, message }) => {
                assert_eq!(line, 1);
                assert!(message.contains("invalid header"), "{message}");
            }
            other => panic!("expected Csv error, got {other:?}"),
        }
    }

    #[test]
    fn invalid_utf8_reports_its_line() {
        let mut bytes = b"a,b\n1,2\n".to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFE, b',', b'x', b'\n']);
        match read_csv(bytes.as_slice()) {
            Err(RelationError::Csv { line, message }) => {
                assert_eq!(line, 3);
                assert!(message.contains("UTF-8"), "{message}");
            }
            other => panic!("expected Csv error, got {other:?}"),
        }
        // … including in the header itself.
        match read_csv(&[0xFF, 0xFE, b'\n'][..]) {
            Err(RelationError::Csv { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected Csv error, got {other:?}"),
        }
    }

    #[test]
    fn errors_on_unterminated_quote() {
        let csv = "a\n\"oops\n";
        assert!(matches!(
            read_csv(csv.as_bytes()),
            Err(RelationError::Csv { .. })
        ));
    }

    #[test]
    fn errors_on_empty_input() {
        assert!(read_csv("".as_bytes()).is_err());
    }

    #[test]
    fn single_column_null_rows_roundtrip() {
        // Regression: a single-column NULL tuple must not vanish as a
        // blank line (found by the csv_fuzz property test).
        let r = Relation::from_rows(
            Schema::new(["a"]).unwrap(),
            vec![vec![Value::Null], vec![Value::Int(3)], vec![Value::Null]],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&r, &mut buf).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 3);
        assert!(back.value(0, 0).is_null());
        assert_eq!(back.value(1, 0), &Value::Int(3));
        assert!(back.value(2, 0).is_null());
    }

    #[test]
    fn loaded_relation_supports_fd_checks() {
        let csv = "city,zip\nLyon,69001\nLyon,69002\nParis,75001\n";
        let r = read_csv(csv.as_bytes()).unwrap();
        // zip → city holds, city → zip does not.
        assert!(r.satisfies(AttrSet::singleton(1), 0));
        assert!(!r.satisfies(AttrSet::singleton(0), 1));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("depminer_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let r = read_csv("a,b\n1,2\n".as_bytes()).unwrap();
        write_csv_file(&r, &path).unwrap();
        let r2 = read_csv_file(&path).unwrap();
        assert_eq!(r2.len(), 1);
        assert_eq!(r2.value(0, 0), &Value::Int(1));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn file_write_to_a_full_disk_is_an_error() {
        // Every write to /dev/full fails with ENOSPC; a buffered writer
        // dropped without a flush would swallow that and report success.
        let r = read_csv("a,b\n1,2\n3,4\n5,6\n".as_bytes()).unwrap();
        assert_eq!(r.len(), 3);
        assert!(write_csv_file(&r, "/dev/full").is_err());
    }
}
