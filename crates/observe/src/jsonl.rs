//! JSONL event-stream sink: every span enter/exit, counter add and
//! memory sample becomes one JSON object on its own line.
//!
//! The stream is intended for `--trace` runs and for post-hoc tools;
//! [`validate_events`] re-reads a stream and checks the span-tree
//! invariants (per-thread balanced enter/exit, monotone timestamps),
//! which is also what the property tests drive.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{self, Value};
use crate::{current_thread_key, Counter, Observer, SpanId, ThreadTag};

/// An [`Observer`] that serialises every event as one JSON line.
///
/// Timestamps are taken *inside* the writer lock, so `t_ns` is
/// monotone in file order — a property [`validate_events`] relies on.
pub struct JsonlSink<W: Write + Send> {
    epoch: Instant,
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps `writer`; the epoch for `t_ns` is the moment of creation.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            epoch: Instant::now(),
            writer: Mutex::new(writer),
        }
    }

    /// Flushes and returns the inner writer.
    pub fn into_inner(self) -> W {
        let mut w = self
            .writer
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner());
        let _ = w.flush();
        w
    }

    fn emit(&self, line_sans_time: &str) {
        // Lock first, then read the clock: concurrent writers serialise
        // here, so timestamps increase in file order. The whole line goes
        // out in one `write_all`, so an unbuffered writer (stderr) makes
        // one write per event, not one per format piece. Writes are
        // best-effort — a broken trace pipe must not fail the mining run.
        let mut guard = match self.writer.lock() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        };
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let line = format!("{line_sans_time},\"t_ns\":{t_ns}}}\n");
        let _ = guard.write_all(line.as_bytes());
    }
}

impl<W: Write + Send> Observer for JsonlSink<W> {
    fn span_enter(&self, id: SpanId, name: &'static str, thread: ThreadTag) {
        self.emit(&format!(
            "{{\"ev\":\"enter\",\"id\":{id},\"name\":\"{}\",\"thread\":\"{}\",\"tid\":{}",
            json::escape(name),
            thread.label(),
            current_thread_key()
        ));
    }

    fn span_exit(&self, id: SpanId, thread: ThreadTag) {
        self.emit(&format!(
            "{{\"ev\":\"exit\",\"id\":{id},\"thread\":\"{}\",\"tid\":{}",
            thread.label(),
            current_thread_key()
        ));
    }

    fn add_counter(&self, counter: Counter, n: u64, thread: ThreadTag) {
        self.emit(&format!(
            "{{\"ev\":\"count\",\"counter\":\"{}\",\"n\":{n},\"thread\":\"{}\"",
            counter.name(),
            thread.label()
        ));
    }

    fn mem_sample(&self, current_bytes: u64) {
        self.emit(&format!("{{\"ev\":\"mem\",\"bytes\":{current_bytes}"));
    }
}

/// One decoded trace event, as re-read by [`validate_events`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Span opened.
    Enter {
        /// Process-unique span id.
        id: SpanId,
        /// Span name.
        name: String,
        /// Emitting thread label (`driver` / `wN`).
        thread: String,
        /// Emitting thread's process-unique key, when recorded.
        tid: Option<u64>,
        /// Nanoseconds since the sink's epoch.
        t_ns: u64,
    },
    /// Span closed.
    Exit {
        /// Id of the span being closed.
        id: SpanId,
        /// Emitting thread label.
        thread: String,
        /// Emitting thread's process-unique key, when recorded.
        tid: Option<u64>,
        /// Nanoseconds since the sink's epoch.
        t_ns: u64,
    },
    /// Counter increment.
    Count {
        /// Stable counter name (see [`Counter::name`]).
        counter: String,
        /// Increment amount.
        n: u64,
        /// Nanoseconds since the sink's epoch.
        t_ns: u64,
    },
    /// Memory sample.
    Mem {
        /// Reserved bytes at sample time.
        bytes: u64,
        /// Nanoseconds since the sink's epoch.
        t_ns: u64,
    },
}

impl Event {
    /// The event's timestamp.
    pub fn t_ns(&self) -> u64 {
        match self {
            Event::Enter { t_ns, .. }
            | Event::Exit { t_ns, .. }
            | Event::Count { t_ns, .. }
            | Event::Mem { t_ns, .. } => *t_ns,
        }
    }
}

fn field_u64(v: &Value, key: &str, line_no: usize) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("line {line_no}: missing numeric `{key}`"))
}

fn field_str(v: &Value, key: &str, line_no: usize) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("line {line_no}: missing string `{key}`"))
}

/// Parses a JSONL trace back into events.
pub fn parse_events(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        let ev = field_str(&v, "ev", line_no)?;
        let t_ns = field_u64(&v, "t_ns", line_no)?;
        events.push(match ev.as_str() {
            "enter" => Event::Enter {
                id: field_u64(&v, "id", line_no)?,
                name: field_str(&v, "name", line_no)?,
                thread: field_str(&v, "thread", line_no)?,
                tid: v.get("tid").and_then(Value::as_u64),
                t_ns,
            },
            "exit" => Event::Exit {
                id: field_u64(&v, "id", line_no)?,
                thread: field_str(&v, "thread", line_no)?,
                tid: v.get("tid").and_then(Value::as_u64),
                t_ns,
            },
            "count" => Event::Count {
                counter: field_str(&v, "counter", line_no)?,
                n: field_u64(&v, "n", line_no)?,
                t_ns,
            },
            "mem" => Event::Mem {
                bytes: field_u64(&v, "bytes", line_no)?,
                t_ns,
            },
            other => return Err(format!("line {line_no}: unknown event `{other}`")),
        });
    }
    Ok(events)
}

/// Checks the span-tree invariants over a raw JSONL trace:
///
/// 1. every line parses and has a monotone non-decreasing `t_ns`;
/// 2. per thread, enter/exit form a balanced stack (an exit always
///    matches that thread's innermost open span). A thread is its label
///    plus its `tid`: two threads with one label — the `w0` workers of
///    two fan-outs, or the drivers of two runs — keep separate stacks;
/// 3. every span that is opened is also closed, on the same thread.
///
/// Returns the parsed events on success so callers can assert further.
pub fn validate_events(text: &str) -> Result<Vec<Event>, String> {
    let events = parse_events(text)?;
    let mut last_t = 0u64;
    // Per-thread stacks of open span ids, keyed by label and tid.
    type Thread<'a> = (&'a str, Option<u64>);
    let mut stacks: Vec<(Thread<'_>, Vec<SpanId>)> = Vec::new();
    for (idx, ev) in events.iter().enumerate() {
        let line_no = idx + 1;
        if ev.t_ns() < last_t {
            return Err(format!(
                "line {line_no}: timestamp {} regressed below {last_t}",
                ev.t_ns()
            ));
        }
        last_t = ev.t_ns();
        match ev {
            Event::Enter {
                id, thread, tid, ..
            } => {
                let key = (thread.as_str(), *tid);
                match stacks.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, stack)) => stack.push(*id),
                    None => stacks.push((key, vec![*id])),
                }
            }
            Event::Exit {
                id, thread, tid, ..
            } => {
                let key = (thread.as_str(), *tid);
                let stack = stacks
                    .iter_mut()
                    .find(|(k, _)| *k == key)
                    .map(|(_, s)| s)
                    .ok_or_else(|| {
                        format!("line {line_no}: exit on thread `{thread}` with no open span")
                    })?;
                match stack.pop() {
                    Some(top) if top == *id => {}
                    Some(top) => {
                        return Err(format!(
                            "line {line_no}: exit of span {id} crosses open span {top}"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "line {line_no}: exit on thread `{thread}` with no open span"
                        ))
                    }
                }
            }
            Event::Count { .. } | Event::Mem { .. } => {}
        }
    }
    for ((thread, _), stack) in &stacks {
        if let Some(id) = stack.last() {
            return Err(format!("span {id} on thread `{thread}` never closed"));
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{current_thread_tag, Obs};
    use std::sync::Arc;

    fn trace_of(f: impl FnOnce(&Obs)) -> String {
        let sink = Arc::new(JsonlSink::new(Vec::new()));
        let obs = Obs::new(sink.clone());
        f(&obs);
        drop(obs);
        let sink = Arc::try_unwrap(sink).ok().expect("all Obs handles dropped");
        String::from_utf8(sink.into_inner()).expect("trace is utf-8")
    }

    #[test]
    fn emits_balanced_monotone_stream() {
        let text = trace_of(|obs| {
            let _root = obs.span("depminer");
            {
                let _child = obs.span("agree-sets");
                obs.add(Counter::CouplesScanned, 10);
            }
            obs.mem_sample(4096);
        });
        let events = validate_events(&text).expect("trace should validate");
        assert_eq!(events.len(), 6);
        assert!(matches!(&events[0], Event::Enter { name, .. } if name == "depminer"));
        assert!(matches!(
            &events[2],
            Event::Count { counter, n: 10, .. } if counter == "couples_scanned"
        ));
        assert!(matches!(&events[3], Event::Exit { .. }));
        assert!(matches!(&events[4], Event::Mem { bytes: 4096, .. }));
    }

    /// Records each `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_write_per_event() {
        let sink = Arc::new(JsonlSink::new(CountingWriter::default()));
        let obs = Obs::new(sink.clone());
        for _ in 0..10 {
            let _span = obs.span("level");
        }
        drop(obs);
        let sink = Arc::try_unwrap(sink).ok().expect("all Obs handles dropped");
        let writer = sink.into_inner();
        let text = String::from_utf8(writer.bytes).expect("trace is utf-8");
        assert_eq!(text.lines().count(), 20);
        assert_eq!(writer.writes, 20, "one write per line");
        assert_eq!(validate_events(&text).expect("valid").len(), 20);
    }

    #[test]
    fn rejects_unbalanced_and_crossing_streams() {
        // Hand-built traces: a dangling enter, a crossing exit, and a
        // timestamp regression.
        let dangling =
            "{\"ev\":\"enter\",\"id\":1,\"name\":\"a\",\"thread\":\"driver\",\"t_ns\":1}";
        assert!(validate_events(dangling).is_err());

        let crossing = concat!(
            "{\"ev\":\"enter\",\"id\":1,\"name\":\"a\",\"thread\":\"driver\",\"t_ns\":1}\n",
            "{\"ev\":\"enter\",\"id\":2,\"name\":\"b\",\"thread\":\"driver\",\"t_ns\":2}\n",
            "{\"ev\":\"exit\",\"id\":1,\"thread\":\"driver\",\"t_ns\":3}\n",
            "{\"ev\":\"exit\",\"id\":2,\"thread\":\"driver\",\"t_ns\":4}\n",
        );
        assert!(validate_events(crossing).unwrap_err().contains("crosses"));

        let regressed = concat!(
            "{\"ev\":\"mem\",\"bytes\":1,\"t_ns\":5}\n",
            "{\"ev\":\"mem\",\"bytes\":1,\"t_ns\":4}\n",
        );
        assert!(validate_events(regressed)
            .unwrap_err()
            .contains("regressed"));
    }

    #[test]
    fn two_driver_threads_keep_separate_stacks() {
        // Two driver-tagged threads with interleaved spans: `a` opens on
        // this thread, `b` on another, then `a` closes while `b` is still
        // open. Keyed by label alone, both would share one "driver" stack
        // and `a`'s exit would cross `b`.
        use std::sync::mpsc::channel;
        let text = trace_of(|obs| {
            let a = obs.span("a");
            let (opened_tx, opened_rx) = channel();
            let (closed_tx, closed_rx) = channel::<()>();
            let other = obs.clone();
            let b = std::thread::spawn(move || {
                let _b = other.span("b");
                opened_tx.send(()).unwrap();
                closed_rx.recv().unwrap();
            });
            opened_rx.recv().unwrap();
            drop(a);
            closed_tx.send(()).unwrap();
            b.join().unwrap();
        });
        let events = validate_events(&text).expect("separate stacks per thread");
        let tids: Vec<Option<u64>> = events
            .iter()
            .filter_map(|e| match e {
                Event::Enter { tid, .. } | Event::Exit { tid, .. } => Some(*tid),
                _ => None,
            })
            .collect();
        assert_eq!(tids.len(), 4);
        assert!(tids.iter().all(Option::is_some));
        assert_ne!(
            tids[0], tids[1],
            "the two enters come from different threads"
        );
    }

    #[test]
    fn thread_label_matches_current_tag() {
        let text = trace_of(|obs| {
            let _s = obs.span("x");
        });
        let events = validate_events(&text).expect("valid");
        let label = current_thread_tag().label();
        assert!(matches!(&events[0], Event::Enter { thread, .. } if *thread == label));
    }

    #[test]
    fn parse_rejects_garbage_lines() {
        assert!(parse_events("not json").is_err());
        assert!(parse_events("{\"ev\":\"bogus\",\"t_ns\":1}").is_err());
        assert!(parse_events("{\"ev\":\"mem\",\"t_ns\":1}").is_err()); // missing bytes
    }
}
