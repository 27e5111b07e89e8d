//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a layer name, a start and an end; its parent is the span
//! open when it began. A layer's self time is the sum of its spans'
//! durations minus the time their child spans cover. The traced wall is
//! measured separately, so time no span covers (loop overhead, clock
//! reads) shows as the closure error.

use shalom_trace::now_ns;

pub struct Spans {
    names: Vec<&'static str>,
    self_ns: Vec<u64>,
    /// Open spans: (layer index, start, time covered by children).
    stack: Vec<(usize, u64, u64)>,
    last_ns: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            names: Vec::new(),
            self_ns: Vec::new(),
            stack: Vec::new(),
            last_ns: 0,
        }
    }

    fn layer(&mut self, name: &'static str) -> usize {
        match self.names.iter().position(|&n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.self_ns.push(0);
                self.names.len() - 1
            }
        }
    }

    pub fn begin(&mut self, name: &'static str) {
        // Clock first: the lookup is the span's own cost, not a gap
        // between spans.
        let start = now_ns();
        let id = self.layer(name);
        self.stack.push((id, start, 0));
    }

    pub fn end(&mut self) {
        let end = now_ns();
        let (id, start, children) = self.stack.pop().expect("end without begin");
        let dur = end.saturating_sub(start);
        self.last_ns = dur;
        self.self_ns[id] += dur.saturating_sub(children);
        if let Some(parent) = self.stack.last_mut() {
            parent.2 += dur;
        }
    }

    /// Runs `f` inside a span of layer `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Duration of the span that ended last, ns.
    pub fn last_ns(&self) -> u64 {
        self.last_ns
    }

    /// Self time of one layer, ns.
    #[cfg(test)]
    pub fn self_ns(&self, name: &str) -> u64 {
        self.names
            .iter()
            .position(|&n| n == name)
            .map_or(0, |i| self.self_ns[i])
    }

    /// `|sum of self times - wall| / wall`.
    pub fn closure_err(&self, wall_ns: u64) -> f64 {
        assert!(self.stack.is_empty(), "unclosed span");
        let total: u64 = self.self_ns.iter().sum();
        (total as f64 - wall_ns as f64).abs() / wall_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_exclude_children_and_close() {
        let spin = |ns: u64| {
            let t = now_ns();
            while now_ns() - t < ns {}
        };
        let mut s = Spans::new();
        let t0 = now_ns();
        s.begin("outer");
        spin(100_000);
        s.time("inner", || spin(200_000));
        s.end();
        let wall = now_ns() - t0;
        assert!(s.self_ns("inner") >= 200_000);
        let outer = s.self_ns("outer");
        assert!((100_000..200_000).contains(&outer), "outer self {outer}");
        assert!(s.closure_err(wall) < 0.05);
    }
}
