//! In-memory spans of a traced run.
//!
//! Spans cover the coarse calls into a layer (an exploration, a Theorem-1
//! run and its pieces, a runtime start, wait or shutdown). Calls that
//! happen thousands of times per op — algorithm handlers, canonical text,
//! property checks — are kept as one count and total per op instead. The
//! timer runs in untraced runs too, since op times come from it; only the
//! recording is off.

use std::time::Instant;

use serde::Json;

struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    op: Option<usize>,
}

struct Aggregate {
    op: Option<usize>,
    name: &'static str,
    count: u64,
    total_s: f64,
}

/// An open span, closed by [`Tracer::end`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: Option<usize>,
    stack: Vec<usize>,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            op: None,
            stack: Vec::new(),
            spans: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with op `op` (`None` outside the ops).
    pub fn set_op(&mut self, op: Option<usize>) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_s: (started - self.origin).as_secs_f64(),
                end_s: f64::NAN,
                parent: self.stack.last().copied(),
                op: self.op,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, started }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let ended = Instant::now();
        if let Some(index) = open.index {
            self.spans[index].end_s = (ended - self.origin).as_secs_f64();
            self.stack.retain(|&i| i != index);
        }
        (ended - open.started).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; returns its value and duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let value = f();
        (value, self.end(open))
    }

    /// Records `count` calls totalling `total_s` seconds under the current op.
    pub fn aggregate(&mut self, name: &'static str, count: u64, total_s: f64) {
        if self.enabled && count > 0 {
            self.aggregates.push(Aggregate {
                op: self.op,
                name,
                count,
                total_s,
            });
        }
    }

    /// Writes the spans and aggregates as JSON to `path`.
    pub fn write(&self, path: &std::path::Path, workload: &str, seed: u64) -> Result<(), String> {
        let op = |op: Option<usize>| op.map_or(Json::Null, |i| Json::Int(i as i128));
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Object(vec![
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    ("start_s".to_string(), Json::Float(s.start_s)),
                    ("end_s".to_string(), Json::Float(s.end_s)),
                    ("parent".to_string(), op(s.parent)),
                    ("op".to_string(), op(s.op)),
                ])
            })
            .collect();
        let aggregates = self
            .aggregates
            .iter()
            .map(|a| {
                Json::Object(vec![
                    ("op".to_string(), op(a.op)),
                    ("name".to_string(), Json::Str(a.name.to_string())),
                    ("count".to_string(), Json::Int(i128::from(a.count))),
                    ("total_s".to_string(), Json::Float(a.total_s)),
                ])
            })
            .collect();
        let doc = Json::Object(vec![
            ("workload".to_string(), Json::Str(workload.to_string())),
            ("seed".to_string(), Json::Int(i128::from(seed))),
            ("spans".to_string(), Json::Array(spans)),
            ("aggregates".to_string(), Json::Array(aggregates)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let text = serde_json::to_string_pretty(&doc).expect("the Json model always renders");
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }
}
