//! In-memory span recorder for the traced run.
//!
//! A span covers one call into a layer, made from the benchmark's own code:
//! it has a name (`layer.entry`), a start and end on the host clock, the
//! span that was open when it started (its parent) and a request id. When a
//! span closes its duration is charged to its parent as child time, so every
//! span name's *self* time (duration minus the part its children cover) is
//! known exactly without keeping every span. Spans are kept in memory up to
//! [`KEEP`] and written out once, when the run ends; the rest are counted.
//!
//! Recording is off unless [`start`] turned it on, and then costs one
//! thread-local flag test per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the dump; later ones still count towards the totals.
const KEEP: usize = 100_000;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.entry` name.
    pub name: &'static str,
    /// Host nanoseconds since recording started.
    pub start_ns: u64,
    /// Host nanoseconds since recording started.
    pub end_ns: u64,
    /// Index of the enclosing span in the dump, if it was kept.
    pub parent: Option<usize>,
    /// Request the span served (trace record, victim family or command).
    pub req: u64,
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus child time, ns.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    start_ns: u64,
    child_ns: u64,
    kept: Option<usize>,
}

#[derive(Default)]
struct Recorder {
    epoch: Option<Instant>,
    open: Vec<Open>,
    kept: Vec<Span>,
    dropped: u64,
    totals: BTreeMap<&'static str, Total>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turns recording on and clears everything recorded before.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Recorder {
            epoch: Some(Instant::now()),
            ..Recorder::default()
        }
    });
}

/// Turns recording off, returning the per-name totals and the kept spans
/// with the count of spans not kept.
pub fn stop() -> (BTreeMap<&'static str, Total>, Vec<Span>, u64) {
    REC.with(|r| {
        let rec = std::mem::take(&mut *r.borrow_mut());
        debug_assert!(rec.open.is_empty(), "span left open");
        (rec.totals, rec.kept, rec.dropped)
    })
}

/// Per-name totals recorded so far.
pub fn totals() -> BTreeMap<&'static str, Total> {
    REC.with(|r| r.borrow().totals.clone())
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct Guard(bool);

/// Opens a span named `name` for request `req`, a child of the innermost
/// open span.
pub fn enter(name: &'static str, req: u64) -> Guard {
    REC.with(|r| {
        let mut rec = r.borrow_mut();
        let Some(epoch) = rec.epoch else {
            return Guard(false);
        };
        let start = Instant::now();
        let start_ns = start.duration_since(epoch).as_nanos() as u64;
        let parent = rec.open.last().and_then(|o| o.kept);
        let kept = if rec.kept.len() < KEEP {
            rec.kept.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                req,
            });
            Some(rec.kept.len() - 1)
        } else {
            rec.dropped += 1;
            None
        };
        rec.open.push(Open {
            name,
            start,
            start_ns,
            child_ns: 0,
            kept,
        });
        Guard(true)
    })
}

/// Runs `f` inside a span.
pub fn timed<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    let _g = enter(name, req);
    f()
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        REC.with(|r| {
            let mut rec = r.borrow_mut();
            let open = rec.open.pop().expect("guard without open span");
            let dur = open.start.elapsed().as_nanos() as u64;
            if let Some(i) = open.kept {
                rec.kept[i].end_ns = open.start_ns + dur;
            }
            rec.close(open.name, dur, open.child_ns);
        });
    }
}

impl Recorder {
    fn close(&mut self, name: &'static str, dur: u64, child_ns: u64) {
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns);
    }
}

/// Records a span without children that the caller already timed — the
/// device wrapper's per-operation spans, which time themselves.
pub fn leaf(name: &'static str, req: u64, start: Instant, dur_ns: u64) {
    REC.with(|r| {
        let mut rec = r.borrow_mut();
        let Some(epoch) = rec.epoch else {
            return;
        };
        if rec.kept.len() < KEEP {
            let start_ns = start.saturating_duration_since(epoch).as_nanos() as u64;
            let parent = rec.open.last().and_then(|o| o.kept);
            rec.kept.push(Span {
                name,
                start_ns,
                end_ns: start_ns + dur_ns,
                parent,
                req,
            });
        } else {
            rec.dropped += 1;
        }
        rec.close(name, dur_ns, 0);
    });
}

/// Writes the kept spans as tab-separated `index name start_ns end_ns
/// parent req` rows, then a comment line with the number not kept.
pub fn dump(path: &Path, spans: &[Span], dropped: u64) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# index\tname\tstart_ns\tend_ns\tparent\treq")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    writeln!(out, "# spans not kept: {dropped}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start();
        {
            let _outer = enter("outer", 1);
            std::thread::sleep(std::time::Duration::from_millis(2));
            timed("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        }
        let (totals, spans, dropped) = stop();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!((outer.count, inner.count, dropped), (1, 1, 0));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.self_ns >= 4_000_000);
        assert_eq!(spans[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let _ = stop();
        timed("x", 0, || ());
        let (totals, spans, _) = stop();
        assert!(totals.is_empty() && spans.is_empty());
    }
}
