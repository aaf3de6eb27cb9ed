//! The benchmark's metric names, what one workload iteration reports, and
//! how iterations combine into a run's result.

use std::collections::BTreeMap;

use almanac_flash::Nanos;

/// End-to-end metrics `(name, unit)`, the order `BENCHMARK.json` lists
/// them: those every workload has and none reports as a constant. The
/// virtual response percentiles, the workload's own virtual result and
/// `op_fail_ratio` are printed on the lines above the JSON result instead:
/// a closed-loop or lightly loaded device answers at its flash service time
/// (610 µs) whatever the seed, and the failure ratio is 0 when all is well.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_kops_s", "kops/s"),
    ("peak_rss_mb", "MB"),
    ("write_amp", "ratio"),
];

/// Per-layer metrics `(name, unit)` of the traced run, the order
/// `BENCHMARK.json` lists them. A layer a workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace_overhead_pct", "%"),
    ("workloads.tracegen_s", "s"),
    ("workloads.attack_self_s", "s"),
    ("trace.replay_self_s", "s"),
    ("core.timessd.write.calls", "count"),
    ("core.timessd.write.busy_s", "s"),
    ("core.timessd.write.host_p50_ns", "ns"),
    ("core.timessd.write.host_p99_ns", "ns"),
    ("core.timessd.read.calls", "count"),
    ("core.timessd.read.busy_s", "s"),
    ("core.timessd.read.host_p50_ns", "ns"),
    ("core.timessd.read.host_p99_ns", "ns"),
    ("core.timessd.trim.calls", "count"),
    ("core.timessd.trim.busy_s", "s"),
    ("core.timessd.trim.host_p50_ns", "ns"),
    ("core.timessd.trim.host_p99_ns", "ns"),
    ("core.timessd.flush.calls", "count"),
    ("core.timessd.flush.busy_s", "s"),
    ("core.timessd.flush.host_p50_ns", "ns"),
    ("core.timessd.flush.host_p99_ns", "ns"),
    ("core.timessd.gc_calls", "count"),
    ("core.timessd.gc_busy_s", "s"),
    ("core.timessd.bgc_calls", "count"),
    ("core.timessd.bgc_busy_s", "s"),
    ("core.timessd.retention_sample_s", "s"),
    ("core.timessd.rebuild_s", "s"),
    ("core.gc_runs", "count"),
    ("core.gc_programs", "count"),
    ("core.gc_erases", "count"),
    ("core.delta_programs", "count"),
    ("core.flush_pages", "count"),
    ("core.aging_flushes", "count"),
    ("core.map_cache_faults", "count"),
    ("core.gc_time_ns", "ns"),
    ("core.regular.write.calls", "count"),
    ("core.regular.write.busy_s", "s"),
    ("core.regular.read.calls", "count"),
    ("core.regular.read.busy_s", "s"),
    ("core.regular.trim.calls", "count"),
    ("core.regular.trim.busy_s", "s"),
    ("core.regular.flush.calls", "count"),
    ("core.regular.flush.busy_s", "s"),
    ("core.flashguard.write.calls", "count"),
    ("core.flashguard.write.busy_s", "s"),
    ("core.flashguard.read.calls", "count"),
    ("core.flashguard.read.busy_s", "s"),
    ("core.flashguard.trim.calls", "count"),
    ("core.flashguard.trim.busy_s", "s"),
    ("core.flashguard.flush.calls", "count"),
    ("core.flashguard.flush.busy_s", "s"),
    ("compress.encodes", "count"),
    ("compress.decodes", "count"),
    ("compress.ns_per_encode", "ns"),
    ("bloom.filters_dropped", "count"),
    ("bloom.live_filters", "count"),
    ("flash.reads", "count"),
    ("flash.programs", "count"),
    ("flash.erases", "count"),
    ("kits.snapshot_s", "s"),
    ("kits.rollback_s", "s"),
    ("kits.time_query_s", "s"),
    ("kits.addr_query.all.t1_s", "s"),
    ("kits.addr_query.all.t2_s", "s"),
    ("kits.addr_query.as_of.t1_s", "s"),
    ("kits.addr_query.as_of.t2_s", "s"),
    ("kits.addr_query.range.t1_s", "s"),
    ("kits.addr_query.range.t2_s", "s"),
    ("kits.t2_speedup", "ratio"),
    ("kits.hits", "count"),
    ("kits.virt_makespan_ms", "ms"),
    ("nvme.submit_s", "s"),
    ("nvme.poll_s", "s"),
    ("nvme.wire_query_s", "s"),
    ("nvme.commands", "count"),
    ("nvme.queue_full_waits", "count"),
    ("nvme.ooo_completions", "count"),
    ("nvme.peak_outstanding", "count"),
    ("nvme.submit_lag_us", "us"),
];

/// The virtual (simulated-time) results of one iteration. Deterministic for
/// a seed: every iteration of a run, plain or traced, must produce the same.
#[derive(Debug, Clone, PartialEq)]
pub struct Virt {
    /// Simulated response per host request from its scheduled arrival, ns,
    /// sorted.
    pub responses: Vec<Nanos>,
    /// All flash programs over host programs on the TimeSSD.
    pub write_amp: f64,
    /// The workload's own virtual result: `(name, unit, value)`.
    pub headline: (&'static str, &'static str, f64),
}

impl Virt {
    /// Nearest-rank quantile of the responses, µs.
    pub fn resp_us(&self, q: f64) -> f64 {
        let n = self.responses.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
        self.responses[rank - 1] as f64 / 1_000.0
    }
}

/// What one iteration of a workload produced.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Host seconds building the starting state, calibration slices left
    /// out.
    pub setup_s: f64,
    /// Host seconds of the timed phase, calibration slices left out.
    pub wall_s: f64,
    /// Mean calibration slice seconds over the iteration (set by the
    /// caller), the host speed its host times are scaled by.
    pub slice_s: f64,
    /// Host page operations the devices served in the timed phase.
    pub page_ops: u64,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Of those, failed or refused; each failure is also in `failures`.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Virtual results.
    pub virt: Virt,
    /// Digest of the TimeSSD flash state(s) at the end.
    pub digest: u64,
    /// Per-layer metrics (traced iterations only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Iteration {
    /// Records an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Median of `v` (mean of the middle pair for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of unsorted integer samples.
pub fn quantile(v: &[u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((s.len() as f64 * q).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Host peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Formats a metric value for JSON: a finite number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5), 500);
        assert_eq!(quantile(&v, 0.999), 999);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let names = |section: &str| -> Vec<String> {
            let body = text.split(&format!("\"{section}\"")).nth(1).expect(section);
            let body = &body[..body.find(']').expect("list end")];
            body.split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("name").to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layers);
    }
}
