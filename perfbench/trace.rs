//! The traced run's span recorder. Spans are taken in the benchmark's
//! own code, around calls into each layer's public functions, kept in
//! memory, and written out as JSON lines when the run ends. The
//! per-layer metrics are computed from the recorded spans.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` 0 means a root span; ids start at 1.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// An in-memory span log sharing one time origin.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// Timestamp to pass to [`Trace::end`].
    pub fn start(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span that began at `start`; the name may depend on what
    /// the call returned. Returns the span id for children.
    pub fn end(&mut self, start: u64, name: &'static str, parent: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: self.start().max(start),
        });
        id
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let t = self.start();
        let r = f();
        self.end(t, name, parent);
        r
    }

    /// Open a span whose children need its id; close it with
    /// [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let t = self.start();
        self.end(t, name, parent)
    }

    pub fn close(&mut self, id: u32) {
        let t = self.start();
        self.spans[id as usize - 1].end_ns = t;
    }

    /// Append another log taken against the same origin, renumbering its
    /// ids after this log's.
    pub fn absorb(&mut self, other: Trace) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += shift;
            if s.parent != 0 {
                s.parent += shift;
            }
            s
        }));
    }

    /// Durations in ns of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Total duration in seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum::<f64>() * 1e-9
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns - s.start_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_point_at_their_root_and_absorb_renumbers() {
        let origin = Instant::now();
        let mut a = Trace::new(origin);
        let id = a.open("outer", 0);
        a.time("inner", id, || ());
        a.close(id);
        let mut b = Trace::new(origin);
        let id = b.open("outer", 0);
        b.time("inner", id, || ());
        b.close(id);
        a.absorb(b);
        assert_eq!(a.len(), 4);
        let parents: Vec<(u32, u32)> = a.spans.iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(parents, vec![(1, 0), (2, 1), (3, 0), (4, 3)]);
        assert_eq!(a.durations("inner").len(), 2);
        assert_eq!(a.to_jsonl().lines().count(), 4);
    }
}
