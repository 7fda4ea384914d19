//! Chrome trace-event export: turns recorded thread rings into the JSON
//! Trace Event Format that Perfetto and `chrome://tracing` load directly.
//!
//! Each recorded thread becomes one track: a `"M"` thread-name metadata
//! record, `"X"` complete events for matched open/close span pairs (nested
//! spans nest on the track), and `"i"` instant events. Timestamps are the
//! recorder's arm-epoch nanoseconds converted to the format's microseconds.
//!
//! Matching is a per-thread stack — guards are `!Send`, so a well-formed
//! ring closes spans in LIFO order on the thread that opened them.
//! [`wellformedness`] reports any violation; the nesting tests assert zero.

use crate::json::{nu, obj, s, Json};
use crate::recorder::{Event, EventKind, ThreadTrace};

/// Nesting audit of one thread's ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Wellformedness {
    /// Spans still open at the end of the ring (snapshot mid-span).
    pub unmatched_opens: usize,
    /// Closes with no matching open, or closing a different span than the
    /// innermost open one — impossible unless guards leak across threads.
    pub mismatched_closes: usize,
}

impl Wellformedness {
    /// No violations.
    pub fn is_clean(&self) -> bool {
        self.unmatched_opens == 0 && self.mismatched_closes == 0
    }
}

/// Audits span nesting on one thread: every `Close` must match the
/// innermost open span of the same name, and a quiescent snapshot must
/// leave the stack empty.
pub fn wellformedness(trace: &ThreadTrace) -> Wellformedness {
    let mut stack: Vec<&Event> = Vec::new();
    let mut report = Wellformedness::default();
    for event in &trace.events {
        match event.kind {
            EventKind::Open => stack.push(event),
            EventKind::Close => match stack.pop() {
                Some(open) if open.name == event.name => {}
                _ => report.mismatched_closes += 1,
            },
            EventKind::Instant => {}
        }
    }
    report.unmatched_opens = stack.len();
    report
}

/// Counts spans (open events) named `name` across all threads.
pub fn span_count(threads: &[ThreadTrace], name: &str) -> usize {
    threads
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.kind == EventKind::Open && e.name.as_str() == name)
        .count()
}

/// The close-event details of every span named `name`, across threads (the
/// kernel names of `lift.kernel` spans, the hit/miss of cache lookups…).
pub fn span_details(threads: &[ThreadTrace], name: &str) -> Vec<&'static str> {
    threads
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.kind == EventKind::Close && e.name.as_str() == name)
        .filter_map(|e| e.detail.map(|d| d.as_str()))
        .collect()
}

/// The `args` object of a complete or instant event.
fn args(detail: Option<&str>, arg: u64) -> Json {
    let mut fields = Vec::new();
    if let Some(detail) = detail {
        fields.push(("detail", s(detail)));
    }
    if arg != 0 {
        fields.push(("arg", Json::Num(arg as f64)));
    }
    obj(fields)
}

/// Renders thread traces as a Chrome trace-event JSON document. Spans left
/// open by a mid-run snapshot are emitted as `"B"` begin events so the
/// trace still loads; a quiescent export has none.
pub fn trace_json(threads: &[ThreadTrace]) -> String {
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    let mut events = Vec::new();
    for thread in threads {
        let tid = Json::Num(thread.tid as f64);
        events.push(obj(vec![
            ("ph", s("M")),
            ("pid", nu(1)),
            ("tid", tid.clone()),
            ("name", s("thread_name")),
            ("args", obj(vec![("name", s(thread.thread.as_str()))])),
        ]));
        // Match open/close pairs into "X" complete events. The completes
        // are emitted at close time; Perfetto sorts by ts, so order in the
        // array does not matter.
        let mut stack: Vec<&Event> = Vec::new();
        for event in &thread.events {
            let detail = event.detail.map(|d| d.as_str());
            match event.kind {
                EventKind::Open => stack.push(event),
                EventKind::Close => {
                    let Some(open) = stack.pop().filter(|o| o.name == event.name) else {
                        continue; // audited separately by `wellformedness`
                    };
                    events.push(obj(vec![
                        ("ph", s("X")),
                        ("pid", nu(1)),
                        ("tid", tid.clone()),
                        ("ts", us(open.ts_ns)),
                        ("dur", us(event.ts_ns.saturating_sub(open.ts_ns))),
                        ("name", s(event.name.as_str())),
                        ("args", args(detail, event.arg)),
                    ]));
                }
                EventKind::Instant => events.push(obj(vec![
                    ("ph", s("i")),
                    ("pid", nu(1)),
                    ("tid", tid.clone()),
                    ("ts", us(event.ts_ns)),
                    ("s", s("t")),
                    ("name", s(event.name.as_str())),
                    ("args", args(detail, event.arg)),
                ])),
            }
        }
        for open in stack {
            events.push(obj(vec![
                ("ph", s("B")),
                ("pid", nu(1)),
                ("tid", tid.clone()),
                ("ts", us(open.ts_ns)),
                ("name", s(open.name.as_str())),
            ]));
        }
    }
    obj(vec![("traceEvents", Json::Arr(events))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Event, EventKind, ThreadTrace};
    use stng_intern::Symbol;

    fn ev(name: &str, kind: EventKind, ts_ns: u64) -> Event {
        Event {
            name: Symbol::intern(name),
            kind,
            ts_ns,
            detail: None,
            arg: 0,
        }
    }

    fn trace(events: Vec<Event>) -> ThreadTrace {
        ThreadTrace {
            thread: "t".to_string(),
            tid: 0,
            events,
            dropped: 0,
        }
    }

    /// The `traceEvents` array of an exported trace, parsed back.
    fn exported(threads: &[ThreadTrace]) -> Vec<Json> {
        let doc = Json::parse(&trace_json(threads)).expect("trace is valid JSON");
        doc.get("traceEvents").unwrap().as_arr().unwrap().to_vec()
    }

    fn phases(events: &[Json]) -> Vec<&str> {
        events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect()
    }

    #[test]
    fn matched_spans_export_as_complete_events() {
        let t = trace(vec![
            ev("outer", EventKind::Open, 1_000),
            ev("inner", EventKind::Open, 2_000),
            ev("inner", EventKind::Close, 3_000),
            ev("ping", EventKind::Instant, 3_500),
            ev("outer", EventKind::Close, 4_000),
        ]);
        assert!(wellformedness(&t).is_clean());
        let events = exported(&[t]);
        assert_eq!(phases(&events), vec!["M", "X", "i", "X"]);
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("thread_name"));
        let inner = &events[1];
        assert_eq!(inner.get("name").unwrap().as_str(), Some("inner"));
        assert_eq!(inner.get("ts").unwrap().as_f64(), Some(2.0));
        assert_eq!(inner.get("dur").unwrap().as_f64(), Some(1.0));
        assert_eq!(events[3].get("dur").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn unmatched_events_are_audited_and_still_load() {
        let t = trace(vec![
            ev("a", EventKind::Open, 1_000),
            ev("b", EventKind::Close, 2_000),
        ]);
        let audit = wellformedness(&t);
        assert_eq!(audit.mismatched_closes, 1);
        assert_eq!(audit.unmatched_opens, 0);
        let open_only = trace(vec![ev("a", EventKind::Open, 1_000)]);
        assert_eq!(wellformedness(&open_only).unmatched_opens, 1);
        assert_eq!(phases(&exported(&[open_only])), vec!["M", "B"]);
    }

    #[test]
    fn details_and_args_round_trip_through_the_parser() {
        let mut close = ev("cache.lookup", EventKind::Close, 2_500);
        close.detail = Some(Symbol::intern("say \"hit\"\n"));
        close.arg = 7;
        let t = trace(vec![ev("cache.lookup", EventKind::Open, 1_000), close]);
        let events = exported(&[t]);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("detail").unwrap().as_str(), Some("say \"hit\"\n"));
        assert_eq!(args.get("arg").unwrap().as_u64(), Some(7));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn helpers_count_and_collect_details() {
        let mut close = ev("lift.kernel", EventKind::Close, 2_000);
        close.detail = Some(Symbol::intern("heat3d"));
        let t = trace(vec![ev("lift.kernel", EventKind::Open, 1_000), close]);
        let threads = [t];
        assert_eq!(span_count(&threads, "lift.kernel"), 1);
        assert_eq!(span_details(&threads, "lift.kernel"), vec!["heat3d"]);
    }
}
