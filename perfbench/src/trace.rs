//! In-memory spans of a traced run, written out as JSON lines when the run
//! ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::probe::StepMarks;

/// One timed interval. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `flow.write_through`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Run-wide step id (0 for episode spans).
    pub step: u64,
}

/// The spans of one run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    /// Recorded spans, parents before children.
    pub spans: Vec<Span>,
    next_step: u64,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            next_step: 1,
        }
    }

    /// Nanoseconds since the log's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Offset of an episode clock started at `episode_origin`.
    pub fn offset(&self, episode_origin: Instant) -> u64 {
        episode_origin.duration_since(self.origin).as_nanos() as u64
    }

    /// Appends a span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        step: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            step,
        });
        self.spans.len() - 1
    }

    /// Claims the next run-wide step id.
    pub fn next_step(&mut self) -> u64 {
        let id = self.next_step;
        self.next_step += 1;
        id
    }

    /// Adds one training episode: the `train` call, each step, and each
    /// step's phases, from hook marks taken on a clock that started
    /// `offset` ns after this log's.
    pub fn add_train_episode(&mut self, marks: &[StepMarks], offset: u64, start: u64, end: u64) {
        let episode = self.push("flow.train_call", offset + start, offset + end, None, 0);
        for (i, m) in marks.iter().enumerate() {
            let next = marks.get(i + 1).map_or(end, |n| n.pre.0);
            let id = self.next_step();
            let step = self.push(
                "flow.step",
                offset + m.pre.0,
                offset + next,
                Some(episode),
                id,
            );
            let child = |log: &mut Self, name, a: u64, b: u64| {
                log.push(name, offset + a, offset + b, Some(step), id);
            };
            child(self, "strategy.pre_iteration", m.pre.0, m.pre.1);
            child(self, "flow.reload_fwd_bwd", m.pre.1, m.grad.0);
            child(self, "strategy.gradient", m.grad.0, m.grad.1);
            child(self, "flow.write_through", m.grad.1, m.post.0);
            child(self, "strategy.post_iteration", m.post.0, m.post.1);
            if m.side_ns > 0 {
                child(self, "obs.side_calls", m.post.1 - m.side_ns, m.post.1);
            }
            child(self, "flow.eval", m.post.1, next);
        }
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error as text.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"step\":{}}}",
                s.name, s.start_ns, s.end_ns, s.step
            );
        }
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        file.write_all(text.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}
