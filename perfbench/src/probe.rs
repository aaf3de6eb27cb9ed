//! Pass-through device wrapper: forwards every call to the device unchanged
//! and records what the benchmark measures about it.
//!
//! Always recorded (plain and traced runs): each operation's simulated
//! response from its scheduled arrival (`finish - now`), folded per host
//! request. In the traced run also: host time per operation kind, a span
//! per call, and which calls ran garbage collection or idle compression —
//! read off [`DeviceStats`](almanac_core::DeviceStats) before and after the
//! call (`gc_runs` and `bg_compressions` advancing).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::Instant;

use almanac_core::{Completion, Result, SsdDevice, SsdReadOps, SsdReadView};
use almanac_flash::{Lpa, Nanos, PageData};

use crate::{calib, spans};

/// Operation kinds, in the order of [`Names`].
pub const KINDS: [&str; 4] = ["write", "read", "trim", "flush"];

/// Span names of one device's four operation kinds.
pub type Names = [&'static str; 4];

/// Span names of a TimeSSD.
pub const TIMESSD: Names = [
    "core.timessd.write",
    "core.timessd.read",
    "core.timessd.trim",
    "core.timessd.flush",
];
/// Span names of a regular SSD.
pub const REGULAR: Names = [
    "core.regular.write",
    "core.regular.read",
    "core.regular.trim",
    "core.regular.flush",
];
/// Span names of a FlashGuard SSD.
pub const FLASHGUARD: Names = [
    "core.flashguard.write",
    "core.flashguard.read",
    "core.flashguard.trim",
    "core.flashguard.flush",
];

/// Calls and host time of a class of calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    /// Calls.
    pub calls: u64,
    /// Host nanoseconds spent in them.
    pub ns: u64,
}

/// What a [`Probe`] recorded, handed over by [`Probe::finish`].
#[derive(Debug, Default)]
pub struct Record {
    /// Span names of the probed device.
    pub names: Names,
    /// Simulated response of every host request, ns, in arrival order.
    pub responses: Vec<Nanos>,
    /// Calls and host time per kind (traced run only).
    pub busy: [Busy; 4],
    /// Host ns of each call, per kind (traced run only).
    pub host_ns: [Vec<u64>; 4],
    /// Calls during which the device ran garbage collection.
    pub gc: Busy,
    /// Calls during which the device ran idle-time compression.
    pub bgc: Busy,
    /// Acknowledged byte-page writes `(lpa, arrival, data)`, when asked for.
    pub log: Vec<(Lpa, Nanos, PageData)>,
}

impl Record {
    /// The content each logged page held at `at`: the last byte-page write
    /// acknowledged at or before it.
    pub fn logged_as_of(&self, at: Nanos) -> HashMap<Lpa, &PageData> {
        let mut state = HashMap::new();
        for (lpa, t, data) in &self.log {
            if *t <= at {
                state.insert(*lpa, data);
            }
        }
        state
    }
}

impl Busy {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }
}

/// The wrapper. See the module docs.
pub struct Probe<D> {
    inner: D,
    traced: bool,
    /// Fold operations into host requests closed by [`Probe::end_request`]
    /// (trace replay: one record, many pages); otherwise every operation is
    /// its own request.
    grouped: bool,
    logging: bool,
    pending: Cell<Option<Nanos>>,
    responses: RefCell<Vec<Nanos>>,
    req: Cell<u64>,
    rec: Record,
}

impl<D: SsdDevice> Probe<D> {
    /// Wraps `inner`; `traced` turns on host timing and spans.
    pub fn new(inner: D, names: Names, traced: bool) -> Self {
        Probe {
            inner,
            traced,
            grouped: false,
            logging: false,
            pending: Cell::new(None),
            responses: RefCell::new(Vec::new()),
            req: Cell::new(0),
            rec: Record {
                names,
                ..Record::default()
            },
        }
    }

    /// Folds operations into requests closed by [`Probe::end_request`].
    pub fn grouped(mut self) -> Self {
        self.grouped = true;
        self
    }

    /// Keeps a log of acknowledged byte-page writes, the reference the
    /// benchmark checks restored content against.
    pub fn logging_writes(mut self) -> Self {
        self.logging = true;
        self
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps the device, handing over what was recorded.
    pub fn finish(self) -> (D, Record) {
        let mut rec = self.rec;
        rec.responses = self.responses.into_inner();
        (self.inner, rec)
    }

    /// Closes the current host request (grouped mode).
    pub fn end_request(&self) {
        if let Some(r) = self.pending.take() {
            self.responses.borrow_mut().push(r);
        }
        self.req.set(self.req.get() + 1);
    }

    fn respond(&self, now: Nanos, finish: Nanos) {
        let r = finish.saturating_sub(now);
        if self.grouped {
            self.pending
                .set(Some(self.pending.get().map_or(r, |p| p.max(r))));
        } else {
            self.responses.borrow_mut().push(r);
            self.req.set(self.req.get() + 1);
        }
    }

    fn call<T>(
        &mut self,
        kind: usize,
        now: Nanos,
        f: impl FnOnce(&mut D) -> Result<T>,
        completion: impl Fn(&T) -> Completion,
    ) -> Result<T> {
        let out = if self.traced {
            let (gc0, bg0) = {
                let s = self.inner.stats();
                (s.gc_runs, s.bg_compressions)
            };
            let t0 = Instant::now();
            let out = f(&mut self.inner);
            let ns = t0.elapsed().as_nanos() as u64;
            let rec = &mut self.rec;
            spans::leaf(rec.names[kind], self.req.get(), t0, ns);
            rec.host_ns[kind].push(ns);
            rec.busy[kind].add(ns);
            let s = self.inner.stats();
            if s.gc_runs != gc0 {
                rec.gc.add(ns);
            }
            if s.bg_compressions != bg0 {
                rec.bgc.add(ns);
            }
            out
        } else {
            f(&mut self.inner)
        };
        if let Ok(v) = &out {
            self.respond(now, completion(v).finish);
        }
        calib::tick();
        out
    }
}

impl<D: SsdDevice> SsdReadOps for Probe<D> {
    fn stats(&self) -> &almanac_core::DeviceStats {
        self.inner.stats()
    }

    fn exported_pages(&self) -> u64 {
        self.inner.exported_pages()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn read_view(&self) -> Option<SsdReadView<'_>> {
        self.inner.read_view()
    }
}

impl<D: SsdDevice> SsdDevice for Probe<D> {
    fn write(&mut self, lpa: Lpa, data: PageData, now: Nanos) -> Result<Completion> {
        let logged = match &data {
            PageData::Bytes(_) if self.logging => Some(data.clone()),
            _ => None,
        };
        let out = self.call(0, now, |d| d.write(lpa, data, now), |c| *c);
        if let (Ok(_), Some(data)) = (&out, logged) {
            self.rec.log.push((lpa, now, data));
        }
        out
    }

    fn read(&mut self, lpa: Lpa, now: Nanos) -> Result<(PageData, Completion)> {
        self.call(1, now, |d| d.read(lpa, now), |(_, c)| *c)
    }

    fn trim(&mut self, lpa: Lpa, now: Nanos) -> Result<Completion> {
        self.call(2, now, |d| d.trim(lpa, now), |c| *c)
    }

    fn flush(&mut self, now: Nanos) -> Result<Completion> {
        self.call(3, now, |d| d.flush(now), |c| *c)
    }
}
