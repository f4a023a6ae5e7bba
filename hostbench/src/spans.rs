//! In-memory spans recorded around the calls into each layer during the
//! layer run, written out once the run ends.

use std::time::Instant;

use ksr_core::Json;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary: `job`, `setup`, `run`, `drain`, `check`, or a
    /// microbenchmark name.
    pub name: &'static str,
    /// The job (or microbenchmark) the span belongs to.
    pub job: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, or `None` while open.
    pub end_ns: Option<u64>,
}

/// Span recorder; spans stay in memory until [`Spans::to_json`].
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; returns its index for [`Spans::close`].
    pub fn open(&mut self, name: &'static str, job: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job: job.to_string(),
            parent,
            start_ns,
            end_ns: None,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = Some(end);
    }

    /// Duration minus the part covered by direct children, in seconds,
    /// summed over every closed span called `name`.
    #[must_use]
    pub fn self_seconds(&self, name: &str) -> f64 {
        let dur = |s: &Span| s.end_ns.map_or(0, |e| e.saturating_sub(s.start_ns));
        let total: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let children: u64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(dur)
                    .sum();
                dur(s).saturating_sub(children)
            })
            .sum();
        total as f64 * 1e-9
    }

    /// Every span, as a JSON array.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::arr(self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::from(s.name)),
                ("job", Json::from(s.job.as_str())),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", s.end_ns.map_or(Json::Null, Json::from)),
            ])
        }))
    }
}
