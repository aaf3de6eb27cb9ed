//! Host-speed calibration.
//!
//! The speed of a shared host drifts by tens of percent over seconds (other
//! tenants on the core, frequency changes), and the drift is largely common
//! to all CPU-bound work on one core. So while a workload runs, a fixed
//! kernel that uses none of the repository's code — a *slice* — runs on the
//! same thread every [`INTERVAL`] of host time, at the points where the
//! workload calls [`tick`] or [`check`]. Slice time is left out of every
//! time the benchmark measures, and the gated host times are reported in
//! reference seconds: measured seconds × [`REFERENCE_SLICE_S`] / the mean
//! slice time over the same iteration. On a host as fast as the reference
//! they equal the measured seconds; when the host slows down, slices and
//! workload slow down together and the ratio stays put.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::spans;

/// Host time between slices.
const INTERVAL: Duration = Duration::from_millis(20);
/// [`tick`] calls between looks at the clock.
const CHECK_EVERY: u32 = 64;
/// Entries of the slice's table (4 MiB, larger than the core's L2).
const TABLE: usize = 1 << 19;
/// Table updates per slice; a tenth as many hash-map inserts and sorted keys.
const UPDATES: usize = 1 << 13;
/// Mean slice time on the reference host, a 2-core Intel Xeon VM.
pub const REFERENCE_SLICE_S: f64 = 350e-6;

struct Cal {
    table: Vec<u64>,
    x: u64,
    calls: u32,
    last: Instant,
    sliced: Duration,
    slices: u64,
}

thread_local! {
    static CAL: RefCell<Cal> = RefCell::new(Cal {
        table: vec![0; TABLE],
        x: 0x9e37_79b9_7f4a_7c15,
        calls: 0,
        last: Instant::now(),
        sliced: Duration::ZERO,
        slices: 0,
    });
}

impl Cal {
    /// One slice: random table updates, hash-map inserts and a sort, the
    /// kind of work an FTL's mapping and GC bookkeeping does.
    fn slice(&mut self) {
        let _span = spans::enter("calib.slice", self.slices);
        let t = Instant::now();
        let mut map: HashMap<u64, u64> = HashMap::new();
        let mut keys = Vec::with_capacity(UPDATES / 10);
        for i in 0..UPDATES {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let slot = (self.x % TABLE as u64) as usize;
            self.table[slot] = self.table[slot].wrapping_add(self.x);
            if i % 10 == 0 {
                *map.entry(self.x >> 40).or_insert(0) += 1;
                keys.push(self.x);
            }
        }
        keys.sort_unstable();
        black_box((&map, &keys));
        let now = Instant::now();
        self.sliced += now - t;
        self.slices += 1;
        self.last = now;
    }
}

/// Runs a slice now.
pub fn slice() {
    CAL.with(|c| c.borrow_mut().slice());
}

/// Runs a slice if [`INTERVAL`] has passed since the last one. For call
/// sites reached at most every few milliseconds.
pub fn check() {
    CAL.with(|c| {
        let mut c = c.borrow_mut();
        if c.last.elapsed() >= INTERVAL {
            c.slice();
        }
    });
}

/// Like [`check`], but looks at the clock only every [`CHECK_EVERY`] calls.
/// For call sites reached up to millions of times a second.
pub fn tick() {
    CAL.with(|c| {
        let mut c = c.borrow_mut();
        c.calls += 1;
        if c.calls >= CHECK_EVERY {
            c.calls = 0;
            if c.last.elapsed() >= INTERVAL {
                c.slice();
            }
        }
    });
}

/// A point in host time, to measure from.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    at: Instant,
    sliced: Duration,
    slices: u64,
}

/// The current point.
pub fn mark() -> Mark {
    CAL.with(|c| {
        let c = c.borrow();
        Mark {
            at: Instant::now(),
            sliced: c.sliced,
            slices: c.slices,
        }
    })
}

impl Mark {
    /// Host seconds since the mark, slices left out.
    pub fn host_s(&self) -> f64 {
        let sliced = CAL.with(|c| c.borrow().sliced) - self.sliced;
        self.at.elapsed().saturating_sub(sliced).as_secs_f64()
    }

    /// Mean seconds of the slices run since the mark.
    pub fn slice_s(&self) -> f64 {
        CAL.with(|c| {
            let c = c.borrow();
            (c.sliced - self.sliced).as_secs_f64() / (c.slices - self.slices).max(1) as f64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_left_out_of_host_time() {
        let m = mark();
        for _ in 0..3 {
            slice();
        }
        std::thread::sleep(Duration::from_millis(5));
        let host = m.host_s();
        assert!((0.005..0.05).contains(&host), "{host}");
        assert!(m.slice_s() > 0.0);
    }
}
