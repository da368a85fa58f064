//! Benchmark-owned spans around calls into each layer.
//!
//! Spans live in memory until the run ends and are then written as Chrome
//! `trace_event` JSON. A span records its name, start, end, the span that
//! caused it (`parent`) and the op it belongs to; a layer's *self time* is
//! its span minus the part its children cover. Nothing here reaches into
//! the program: the spans wrap public functions from the outside.

use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<u32>,
    /// The op (index into the workload's op list) this span belongs to.
    pub op: u32,
    /// The traced pass the span was recorded in.
    pub pass: u32,
}

impl SpanRecord {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<u32>,
    op: u32,
    pass: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            pass: 0,
        }
    }

    /// Sets the traced pass that subsequent spans are attributed to.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Sets the op that subsequent spans are attributed to.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whatever span is
    /// currently open, and returns `f`'s result. `f` gets the tracer back
    /// so it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
            pass: self.pass,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(SpanRecord::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Per pass and op, the summed duration of spans named `name`:
    /// `out[pass][op]` in nanoseconds. Ops without such a span read 0.
    pub fn per_op_ns(&self, name: &str, n_passes: usize, n_ops: usize) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; n_ops]; n_passes];
        for s in self.spans.iter().filter(|s| s.name == name) {
            out[s.pass as usize][s.op as usize] += s.dur_ns() as f64;
        }
        out
    }

    /// Chrome `trace_event` JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"ph":"X"`) event per span, microsecond timestamps, with
    /// the op, pass, parent index and self time in `args`.
    pub fn chrome_trace_json(&self, process_name: &str) -> String {
        let own = self.self_times_ns();
        let mut out = String::with_capacity(128 * self.spans.len() + 256);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"{process_name}\"}}}}"
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{},\
                 \"pass\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(""),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
                s.pass,
                own[i] as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_pass(2);
        t.set_op(7);
        t.span("op", |t| {
            t.span("core.prepare", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("core.forward", |t| {
                t.span("gnn.pair", |_| ());
            });
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|r| r.op == 7 && r.pass == 2));
        let own = t.self_times_ns();
        let children: u64 = s[1].dur_ns() + s[2].dur_ns();
        assert_eq!(own[0], s[0].dur_ns() - children);
        assert!(s[1].dur_ns() >= 2_000_000);
    }

    #[test]
    fn per_op_sums_spans_of_one_name() {
        let mut t = Tracer::new();
        for (pass, op) in [(0, 0), (0, 1), (1, 1)] {
            t.set_pass(pass);
            t.set_op(op);
            t.span("gnn.pair", |_| ());
            t.span("gnn.pair", |_| ());
        }
        let m = t.per_op_ns("gnn.pair", 2, 2);
        assert!(m[0][0] >= 0.0 && m[1][0] == 0.0);
        assert_eq!(t.spans().len(), 6);
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let mut t = Tracer::new();
        t.span("op", |t| t.span("match.refine", |_| ()));
        let text = t.chrome_trace_json("unit");
        let parsed = neursc_serve::json::parse(&text).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 3); // metadata + 2 spans
        assert_eq!(
            events[2].get("name").and_then(|n| n.as_str()),
            Some("match.refine")
        );
        assert_eq!(
            events[2]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_f64()),
            Some(0.0)
        );
    }
}
