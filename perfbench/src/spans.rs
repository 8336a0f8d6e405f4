//! The benchmark's own spans for the traced run: one span per timed call
//! into a crate's public API, each with a name, its layer, start, end and
//! parent. Spans stay in memory and are written out once at exit; self time
//! per layer is a span's duration minus its children's.

use std::fmt::Write as _;
use std::time::Instant;

/// Layers a span can be attributed to, in report order.
pub const LAYERS: [&str; 10] = [
    "bench", "serve", "delta", "core", "absint", "lp", "monitor", "shard", "nn", "scenegen",
];

#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder (single-threaded: the client loop).
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Spans::close`].
    pub fn open(&mut self, layer: &'static str, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in seconds.
    pub fn close(&mut self) -> f64 {
        let end = self.now_ns();
        let index = self.open.pop().expect("close without open");
        let span = &mut self.spans[index];
        span.end_ns = end;
        (span.end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a leaf span and returns its result and duration (s).
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        self.open(layer, name);
        let value = f();
        let seconds = self.close();
        (value, seconds)
    }

    /// Self time per layer in seconds, in [`LAYERS`] order.
    pub fn self_seconds(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        LAYERS
            .iter()
            .map(|&layer| {
                let ns: u64 = self
                    .spans
                    .iter()
                    .zip(&child_ns)
                    .filter(|(span, _)| span.layer == layer)
                    .map(|(span, child)| (span.end_ns - span.start_ns).saturating_sub(*child))
                    .sum();
                (layer, ns as f64 * 1e-9)
            })
            .collect()
    }

    /// All spans as a JSON array of `{name, layer, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{}",
                span.name,
                span.layer,
                span.start_ns,
                span.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::default();
        spans.open("core", "outer");
        spans.time("lp", "inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        spans.close();
        let totals = spans.self_seconds();
        let lp = totals.iter().find(|(l, _)| *l == "lp").unwrap().1;
        let core = totals.iter().find(|(l, _)| *l == "core").unwrap().1;
        assert!(lp >= 0.005);
        assert!(core < lp);
        assert!(spans.to_json().contains("\"parent\": 0"));
    }
}
