//! Percentiles, spans and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Equal-count windows a phase's completions are split into for
/// [`windowed_rate`].
const RATE_WINDOWS: usize = 10;

/// Completions per second as the median over [`RATE_WINDOWS`] consecutive
/// equal-count windows of the sorted completion times `done` (seconds from
/// the phase start): a stall of the shared host that covers a few windows
/// does not move it.
pub fn windowed_rate(done: &[f64]) -> f64 {
    let size = done.len().div_ceil(RATE_WINDOWS).max(1);
    let mut from = 0.0;
    let mut rates = Vec::new();
    for window in done.chunks(size) {
        let to = window[window.len() - 1];
        if to > from {
            rates.push(window.len() as f64 / (to - from));
        }
        from = to;
    }
    median(&rates)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` and returns its result with its wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed())
}

/// One traced interval: a layer call made by the benchmark's own code.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// An in-memory span recorder; spans are written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a parent span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, op)
    }

    pub fn close(&mut self, index: usize) {
        let end = self.ns(Instant::now());
        self.spans[index].end_ns = end;
    }

    /// Times `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        self.record(name, start, end, parent, op);
        (result, end - start)
    }

    /// Self time per span name, in nanoseconds: each span's duration minus
    /// the union of its children's intervals.  Sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut totals: std::collections::BTreeMap<&'static str, u64> = Default::default();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *totals.entry(span.name).or_default() += own;
        }
        totals.into_iter().collect()
    }

    /// The spans as tab-separated lines: name, start, end, parent, op.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("name\tstart_ns\tend_ns\tparent\top\n");
        for span in &self.spans {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                span.name, span.start_ns, span.end_ns, parent, span.op
            );
        }
        out
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The named metrics of a run, printed as the final JSON line.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut body = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                body,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage() {
        let mut tracer = Tracer::new();
        let t0 = tracer.epoch;
        let at = |ns: u64| t0 + Duration::from_nanos(ns);
        let root = tracer.record("op", at(0), at(100), None, 1);
        tracer.record("parse", at(10), at(30), Some(root), 1);
        tracer.record("engine", at(20), at(60), Some(root), 1);
        let times = tracer.self_times();
        assert_eq!(times, vec![("engine", 40), ("op", 50), ("parse", 20)]);
    }

    #[test]
    fn windowed_rate_ignores_a_stalled_window() {
        let mut done: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        // A one-second stall before the last ten completions.
        done[90..].iter_mut().for_each(|t| *t += 1.0);
        assert!((windowed_rate(&done) - 100.0).abs() < 1e-6);
        assert_eq!(windowed_rate(&[]), 0.0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&values), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
