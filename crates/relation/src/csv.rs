//! Minimal CSV import/export for relations.
//!
//! Supports the RFC-4180 subset needed to load benchmark datasets: comma
//! separation, double-quoted fields with `""` escapes, and an optional
//! trailing newline. The first record is the header (attribute names).
//! Hand-rolled to keep the dependency set to the approved list.

use crate::error::RelationError;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::Value;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Parses one CSV line into fields, handling quoted fields and `""` escapes.
///
/// `line` must not contain the record terminator. Embedded newlines inside
/// quotes are not supported (none of the supported datasets need them).
fn parse_line(line: &str, line_no: usize) -> Result<Vec<String>, RelationError> {
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
                // Unquoted field: read until comma or end of line.
                loop {
                    match chars.next() {
                        Some(',') => {
                            fields.push(std::mem::take(&mut cur));
                            break;
                        }
                        None => {
                            fields.push(std::mem::take(&mut cur));
                            break;
                        }
                        Some(c) => cur.push(c),
                    }
                }
                if chars.peek().is_none() && line.ends_with(',') {
                    // trailing comma ⇒ final empty field
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

/// Converts a line-read failure into a positioned error: invalid UTF-8 is
/// a malformed-input problem the user can fix at a specific line, while
/// genuine I/O failures (disk, pipe) stay [`RelationError::Io`].
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

/// Reads a relation from CSV text. The first record is the header.
///
/// Malformed input — ragged rows, an empty or over-wide header, duplicate
/// or blank attribute names, unterminated quotes, invalid UTF-8 — is
/// reported as an `Err` carrying the 1-based line (and where relevant,
/// column) it was found at, never a panic.
pub fn read_csv<R: Read>(reader: R) -> Result<Relation, RelationError> {
    let buf = BufReader::new(reader);
    let mut lines = buf.lines().enumerate();
    let (_, header) = lines.next().ok_or(RelationError::Csv {
        line: 1,
        message: "empty input".into(),
    })?;
    let header = header.map_err(|e| read_line_err(1, e))?;
    let names = parse_line(header.trim_end_matches('\r'), 1)?;
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
    let mut rows = Vec::new();
    for (i, line) in lines {
        let line = line.map_err(|e| read_line_err(i + 1, e))?;
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        let fields = parse_line(line, i + 1)?;
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
    Relation::from_rows(schema, rows)
}

/// Reads a relation from a CSV file.
pub fn read_csv_file<P: AsRef<Path>>(path: P) -> Result<Relation, RelationError> {
    read_csv(std::fs::File::open(path)?)
}

/// Quotes a field if it contains a comma, quote, or newline.
fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Writes a relation as CSV (header + one record per tuple).
///
/// A single-column NULL tuple would serialize to an empty line, which the
/// reader (like most CSV readers) skips as blank; such records are written
/// as `""` instead, which reads back as the empty field.
pub fn write_csv<W: Write>(r: &Relation, mut w: W) -> Result<(), RelationError> {
    let header: Vec<String> = r.schema().names().iter().map(|n| escape(n)).collect();
    writeln!(w, "{}", header.join(","))?;
    for t in 0..r.len() {
        let rec: Vec<String> = (0..r.arity())
            .map(|a| escape(&r.value(t, a).to_string()))
            .collect();
        let line = rec.join(",");
        if line.is_empty() {
            writeln!(w, "\"\"")?;
        } else {
            writeln!(w, "{line}")?;
        }
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
