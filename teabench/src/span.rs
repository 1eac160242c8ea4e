//! In-memory spans around the benchmark's calls into each layer,
//! written out as a Chrome trace-event file when the traced run ends.

use std::time::Instant;

use tea_exp::json::Json;

/// One timed call: its name, what it ran on, the span that caused it,
/// and its start and end in nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run`.
    pub name: &'static str,
    /// What the call ran on (a kernel name, a run name).
    pub detail: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder started.
    pub start_ns: u64,
    /// End, in ns since the recorder started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder. Spans nest: a span opened while another is open
/// becomes its child.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span.
    pub fn enter(&mut self, name: &'static str, detail: impl Into<String>) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            detail: detail.into(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in
    /// seconds.
    ///
    /// # Panics
    ///
    /// If no span is open (a bug in the benchmark).
    pub fn exit(&mut self) -> f64 {
        let at = self.open.pop().expect("a span is open");
        self.spans[at].end_ns = self.now_ns();
        self.spans[at].secs()
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        detail: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        self.enter(name, detail);
        let out = f();
        (out, self.exit())
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus its children's.
    #[must_use]
    pub fn self_secs(&self, at: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(at))
            .map(Span::secs)
            .sum();
        self.spans[at].secs() - children
    }

    /// The spans as a Chrome trace-event document (complete events on
    /// one lane, loadable in Perfetto), with `extra` fields appended at
    /// the top level.
    #[must_use]
    pub fn to_chrome_json(&self, extra: Vec<(&str, Json)>) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("cat", Json::Str(layer_of(s.name).to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::UInt(1)),
                    ("tid", Json::UInt(1)),
                    (
                        "args",
                        Json::obj(vec![
                            ("id", Json::UInt(i as u64)),
                            ("detail", Json::Str(s.detail.clone())),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                            ),
                            ("self_s", Json::Num(self.self_secs(i))),
                        ]),
                    ),
                ])
            })
            .collect();
        let mut fields = vec![("traceEvents", Json::Arr(events))];
        fields.extend(extra);
        Json::obj(fields)
    }
}

/// The layer a span name belongs to: the text before its first dot.
#[must_use]
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}
