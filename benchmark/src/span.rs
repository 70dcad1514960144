//! The benchmark's clock and its in-memory spans.
//!
//! Every clock read of the harness goes through [`Clock`]; this is the only
//! module that touches `Instant`. A [`Tracer`] records one span around each
//! call the benchmark makes into a layer, keeps the spans in memory, and
//! writes them out once, at exit. A span's *self time* is its duration minus
//! the part of its interval that its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A monotonic clock started at construction.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// Starts the clock.
    pub fn start() -> Self {
        Clock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the clock started.
    pub fn ns(&self) -> u64 {
        // u64 nanoseconds overflow after ~584 years.
        self.origin.elapsed().as_nanos() as u64
    }

    /// Seconds since the clock started.
    pub fn secs(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let clock = Clock::start();
    let out = f();
    (out, clock.secs())
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in its tracer.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// The traced job this span belongs to; spans of one job share it.
    pub job: usize,
    /// Layer name, e.g. `core.construct`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: usize,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            clock: Clock::start(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
            on: true,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing: [`span`](Self::span) only runs its
    /// closure, so untraced jobs can share code with traced ones.
    pub fn off() -> Self {
        Tracer {
            on: false,
            ..Tracer::default()
        }
    }

    /// Runs `f` inside a span named `name`. Spans opened by `f` (through the
    /// tracer it receives) become children of this one. A span opened with no
    /// span open starts a new job.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        if parent.is_none() && !self.spans.is_empty() {
            self.job += 1;
        }
        self.spans.push(Span {
            id,
            parent,
            job: self.job,
            name,
            start_ns: self.clock.ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.clock.ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(self_ns) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"job\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.job, s.id, parent, s.name, s.start_ns, s.end_ns, own
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own interval. Children may overlap (parallel
/// callees) or nest; each covered nanosecond is subtracted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` within `[start, end)`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            job: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root [0,100) with overlapping children [10,40) and [30,60), a
        // disjoint child [70,80), and a grandchild [15,25) nested in the
        // first child. The root's children cover [10,60) ∪ [70,80) = 60 ns.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 70, 80),
            span(4, Some(1), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10, 10]);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![
            span(0, None, 10, 50),
            span(1, Some(0), 0, 20),
            span(2, Some(0), 45, 90),
            span(3, Some(0), 12, 18),
        ];
        // Covered within [10,50): [10,20) ∪ [45,50) = 15 ns.
        assert_eq!(self_times(&spans)[0], 25);
    }

    #[test]
    fn tracer_nests_spans_and_numbers_jobs() {
        let mut t = Tracer::default();
        t.span("a", |t| {
            t.span("b", |t| t.span("c", |_| ()));
            t.span("d", |_| ());
        });
        t.span("e", |_| ());
        let s = t.spans();
        let parents: Vec<Option<usize>> = s.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0), None]);
        let jobs: Vec<usize> = s.iter().map(|s| s.job).collect();
        assert_eq!(jobs, vec![0, 0, 0, 0, 1]);
        for s in s {
            assert!(s.end_ns >= s.start_ns);
        }
    }
}
