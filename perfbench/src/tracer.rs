//! The benchmark's own spans: recorded in memory around each call it makes
//! into the program, written once at the end as a Chrome trace (loads in
//! Perfetto) with the self time of every span.
//!
//! A span's parent is the innermost span on the same thread that encloses
//! it; its self time is its duration minus the time its direct children
//! cover. Spans that belong to one served request carry the request id.

use qdp_telemetry::json;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Rec {
    cat: &'static str,
    name: String,
    tid: u64,
    start_us: f64,
    dur_us: f64,
    request: Option<u64>,
}

/// Span recorder; a disabled tracer hands out inert guards.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    recs: Mutex<Vec<Rec>>,
}

/// Records its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    cat: &'static str,
    name: String,
    request: Option<u64>,
    start: Instant,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            recs: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn span(&self, cat: &'static str, name: impl Into<String>) -> Option<SpanGuard<'_>> {
        self.request_span(cat, name, None)
    }

    /// A span tagged with the id of the request it serves.
    pub fn request_span(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        request: Option<u64>,
    ) -> Option<SpanGuard<'_>> {
        self.on.then(|| SpanGuard {
            tracer: self,
            cat,
            name: name.into(),
            request,
            start: Instant::now(),
        })
    }

    /// Record a span whose interval was measured elsewhere (e.g. a served
    /// job timed from its scheduled send instant).
    pub fn record(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        request: Option<u64>,
    ) {
        if !self.on {
            return;
        }
        let rec = Rec {
            cat,
            name: name.into(),
            tid: TID.with(|t| *t),
            start_us: start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
            request,
        };
        self.recs.lock().expect("tracer lock poisoned").push(rec);
    }

    pub fn len(&self) -> usize {
        self.recs.lock().expect("tracer lock poisoned").len()
    }

    /// Write every recorded span as Chrome trace-event JSON.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let recs = self.recs.lock().expect("tracer lock poisoned");
        let selfs = self_times(&recs);
        let mut out = String::from("{\"traceEvents\": [\n");
        out.push_str(
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
             \"args\": {\"name\": \"perfbench\"}}",
        );
        for (r, (self_us, parent)) in recs.iter().zip(&selfs) {
            let mut args = format!("\"self_us\": {}", json::number(*self_us));
            if let Some(p) = parent {
                args.push_str(&format!(
                    ", \"parent\": \"{}/{}\"",
                    recs[*p].cat,
                    json::escape(&recs[*p].name)
                ));
            }
            if let Some(id) = r.request {
                args.push_str(&format!(", \"request\": {id}"));
            }
            out.push_str(&format!(
                ",\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{{}}}}}",
                json::escape(&r.name),
                r.cat,
                r.tid,
                json::number(r.start_us),
                json::number(r.dur_us),
                args
            ));
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        std::fs::write(path, out)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.record(
            self.cat,
            std::mem::take(&mut self.name),
            self.start,
            Instant::now(),
            self.request,
        );
    }
}

/// `(self time, parent index)` of every span: the parent is the innermost
/// enclosing span on the same thread.
fn self_times(recs: &[Rec]) -> Vec<(f64, Option<usize>)> {
    let mut order: Vec<usize> = (0..recs.len()).collect();
    // outer spans first when two start together
    order.sort_by(|&a, &b| {
        (recs[a].tid, recs[a].start_us, -recs[a].dur_us)
            .partial_cmp(&(recs[b].tid, recs[b].start_us, -recs[b].dur_us))
            .expect("span times are finite")
    });
    let mut out: Vec<(f64, Option<usize>)> = recs.iter().map(|r| (r.dur_us, None)).collect();
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let r = &recs[i];
        while let Some(&top) = stack.last() {
            let t = &recs[top];
            if t.tid == r.tid && r.start_us + r.dur_us <= t.start_us + t.dur_us {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            out[i].1 = Some(parent);
            out[parent].0 -= r.dur_us;
        }
        stack.push(i);
    }
    for o in &mut out {
        o.0 = o.0.max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tid: u64, start_us: f64, dur_us: f64) -> Rec {
        Rec {
            cat: "t",
            name: String::new(),
            tid,
            start_us,
            dur_us,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let recs = vec![
            rec(1, 0.0, 100.0),
            rec(1, 10.0, 50.0),
            rec(1, 20.0, 10.0),
            rec(1, 70.0, 20.0),
            rec(2, 10.0, 500.0),
        ];
        let st = self_times(&recs);
        assert_eq!(st[0], (30.0, None));
        assert_eq!(st[1], (40.0, Some(0)));
        assert_eq!(st[2], (10.0, Some(1)));
        assert_eq!(st[3], (20.0, Some(0)));
        assert_eq!(st[4], (500.0, None));
    }
}
