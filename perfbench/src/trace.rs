//! In-memory spans recorded from the benchmark's side of each layer call.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began. Spans stay in memory until the round ends; a layer's self time
//! is its spans' durations minus the parts their child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder for one traced round.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Open-span depth, to restore after a caught panic.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened below `depth` (a panic skipped their
    /// exits).
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let id = *self.open.last().expect("depth checked");
            self.exit(id);
        }
    }

    /// Self time per span name, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        assert!(self.open.is_empty(), "self times need every span closed");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let root = t.enter("root");
        t.span("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.exit(root);
        let times = t.self_times();
        assert!(times["leaf"] >= 0.02);
        assert!(times["root"] < times["leaf"]);
    }
}
