//! The Almanac benchmark: end-to-end and per-layer metrics of the TimeSSD
//! simulator and TimeKits on three workloads.
//!
//! ```text
//! perfbench --workload <retention-replay|ransomware-recovery|live-audit|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats its workload from the seed while another repetition
//! (iteration) fits in `--seconds`, each building its starting state afresh
//! (set-up) and then running the timed phase. It reports host metrics as
//! medians over the iterations, in reference seconds scaled by the host
//! speed measured around them (see [`calib`]), and checks that every
//! iteration produced the same virtual results. With `--trace 1` the
//! iterations alternate plain and traced; the traced ones give the
//! per-layer metrics and the spans, which are written to
//! `perfbench/out/spans-<workload>.tsv` when the run ends.
//! The last line of standard output is the JSON result. See `README.md`.

mod audit;
mod calib;
mod layers;
mod metrics;
mod probe;
mod ransom;
mod retention;
mod spans;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{json_num, median, peak_rss_mb, Iteration, END_TO_END, PER_LAYER};

/// One iteration of a workload: `(seed, traced)`.
type Iterate = fn(u64, bool) -> Iteration;

/// A workload: its command-line name, one iteration of it, and whether
/// its flash state must repeat bit for bit.
///
/// It does not on ransomware-recovery and live-audit: their flush barriers
/// drain several filters' delta buffers at once, and
/// `DeltaManager::flush_all` drains them in `HashMap` order, which differs
/// between maps and processes. Virtual results still repeat; the flash
/// placement of the drained pages does not. Until that is fixed, those
/// workloads print their digests without checking them.
type Workload = (&'static str, Iterate, bool);

/// The workloads.
const WORKLOADS: [Workload; 3] = [
    ("retention-replay", retention::iterate, true),
    ("ransomware-recovery", ransom::iterate, false),
    ("live-audit", audit::iterate, false),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.iter().any(|w| w.0 == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// A run's result: what the last JSON line reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, &'static str, f64)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "all" {
        run_all(&args)
    } else {
        let workload = WORKLOADS
            .iter()
            .find(|w| w.0 == args.workload)
            .expect("validated");
        run(workload, &args, args.trace)
    };
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Every workload, plain then traced, each for `--seconds`; metric names
/// are prefixed with the workload.
fn run_all(args: &Args) -> Outcome {
    let mut all = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let o = run(workload, args, trace);
            all.correct &= o.correct;
            all.attempted += o.attempted;
            all.failed += o.failed;
            all.metrics.extend(
                o.metrics
                    .into_iter()
                    .map(|(n, u, v)| (format!("{}.{n}", workload.0), u, v)),
            );
        }
    }
    all
}

/// Calibration slices run before and after an iteration, besides those its
/// workload runs.
const BRACKET_SLICES: usize = 8;

/// Runs one iteration between bursts of calibration slices and records
/// their mean time as the iteration's host speed.
fn calibrated(iterate: Iterate, seed: u64, traced: bool) -> Iteration {
    let mark = calib::mark();
    (0..BRACKET_SLICES).for_each(|_| calib::slice());
    let mut it = iterate(seed, traced);
    (0..BRACKET_SLICES).for_each(|_| calib::slice());
    it.slice_s = mark.slice_s();
    it
}

/// Host seconds in reference seconds: scaled by the reference slice time
/// over the slice time measured around them.
fn reference_s(host_s: f64, it: &Iteration) -> f64 {
    host_s * calib::REFERENCE_SLICE_S / it.slice_s
}

/// Runs one workload for `args.seconds` and prints its report.
fn run(workload: &Workload, args: &Args, trace: bool) -> Outcome {
    let &(name, iterate, digest_repeats) = workload;
    // Repeat while another round fits in the time left, at least once.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut plain: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let mut kept_spans = (Vec::new(), 0);
    let mut rss = None;
    loop {
        plain.push(calibrated(iterate, args.seed, false));
        // Peak memory as of the first iteration: later ones add allocator
        // fragmentation that differs from run to run.
        rss.get_or_insert_with(peak_rss_mb);
        if trace {
            spans::start();
            traced.push(calibrated(iterate, args.seed, true));
            let (_, kept, dropped) = spans::stop();
            kept_spans = (kept, dropped);
        }
        let spent = start.elapsed();
        if spent + spent / plain.len() as u32 > budget {
            break;
        }
    }

    let all: Vec<&Iteration> = plain.iter().chain(&traced).collect();
    let mut failures: Vec<String> = all.iter().flat_map(|i| i.failures.clone()).collect();
    let mut attempted: u64 = all.iter().map(|i| i.attempted).sum();
    let mut failed: u64 = all.iter().map(|i| i.failed).sum();
    // Every iteration, plain or traced, must reproduce the virtual results.
    let reference = &plain[0].virt;
    attempted += 1;
    if let Some(i) = all.iter().position(|i| i.virt != *reference) {
        failed += 1;
        failures.push(format!(
            "iteration {i}: virtual results differ from iteration 0"
        ));
    }
    let mut digests: Vec<u64> = all.iter().map(|i| i.digest).collect();
    digests.sort_unstable();
    digests.dedup();
    if digest_repeats {
        attempted += 1;
        if digests.len() > 1 {
            failed += 1;
            failures.push(format!(
                "flash state differs between iterations: {} digests over {} iterations",
                digests.len(),
                all.len()
            ));
        }
    }
    let med = |its: &[Iteration], f: fn(&Iteration) -> f64| {
        median(&its.iter().map(f).collect::<Vec<_>>())
    };
    let wall_s = med(&plain, |i| reference_s(i.wall_s, i));

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {name}: seed {} · {} plain + {} traced iterations in {} s · {cpus} CPUs",
        args.seed,
        plain.len(),
        traced.len(),
        args.seconds
    );
    let v = reference;
    let e2e: BTreeMap<&str, f64> = [
        ("setup_s", med(&plain, |i| reference_s(i.setup_s, i))),
        ("wall_s", wall_s),
        (
            "sim_kops_s",
            med(&plain, |i| {
                i.page_ops as f64 / reference_s(i.wall_s, i) / 1e3
            }),
        ),
        ("peak_rss_mb", rss.unwrap_or_default()),
        ("write_amp", v.write_amp),
    ]
    .into_iter()
    .collect();
    let host = format!("host, reference seconds, median of {}", plain.len());
    for (metric, unit) in END_TO_END {
        let note = match metric {
            "peak_rss_mb" => "host, VmHWM after the first iteration",
            "write_amp" => "virtual",
            _ => &host,
        };
        println!("  {metric:<24} {:>14.4} {unit:<7} ({note})", e2e[metric]);
    }
    let walls: Vec<String> = plain
        .iter()
        .map(|i| format!("{:.3}", reference_s(i.wall_s, i)))
        .collect();
    println!("  {:<24} {}", "wall_s per iteration", walls.join(" "));
    println!(
        "  {:<24} setup {:.4} s, wall {:.4} s, calibration slice {:.1} us (reference {:.1} us)",
        "measured, median",
        med(&plain, |i| i.setup_s),
        med(&plain, |i| i.wall_s),
        med(&plain, |i| i.slice_s) * 1e6,
        calib::REFERENCE_SLICE_S * 1e6
    );
    let requests = format!("virtual, {} requests", v.responses.len());
    let (h_name, h_unit, h_value) = v.headline;
    for (metric, value, unit, note) in [
        ("virt_resp_p50_us", v.resp_us(0.50), "us", requests.as_str()),
        ("virt_resp_p999_us", v.resp_us(0.999), "us", &requests),
        (h_name, h_value, h_unit, "virtual"),
    ] {
        println!("  {metric:<24} {value:>14.4} {unit:<7} ({note})");
    }
    let ratio = failed as f64 / attempted.max(1) as f64;
    println!(
        "  {:<24} {ratio:>14.4} {:<7} ({failed} of {attempted} operations and checks)",
        "op_fail_ratio", "ratio"
    );
    let checked = if digest_repeats {
        "checked".to_string()
    } else {
        format!(
            "not checked, known defect: {} digests over {} iterations",
            digests.len(),
            all.len()
        )
    };
    println!(
        "  {:<24} {:>14x} {:<7} (virtual, {checked})",
        "flash.state_digest", plain[0].digest, "hash"
    );
    for f in &failures {
        println!("  FAILED: {f}");
    }

    let mut metrics: Vec<(String, &'static str, f64)> = Vec::new();
    if trace {
        let traced_wall = med(&traced, |i| reference_s(i.wall_s, i));
        let mut layer: BTreeMap<&str, f64> = BTreeMap::new();
        for (metric, _) in PER_LAYER {
            let values: Vec<f64> = traced
                .iter()
                .map(|i| i.layers.get(metric).copied().unwrap_or(0.0))
                .collect();
            layer.insert(metric, median(&values));
        }
        layer.insert("trace_overhead_pct", (traced_wall / wall_s - 1.0) * 100.0);
        let encodes = layer["compress.encodes"];
        if encodes > 0.0 {
            layer.insert(
                "compress.ns_per_encode",
                layer["core.timessd.bgc_busy_s"] * 1e9 / encodes,
            );
        }
        let sum = |suffix: &str| -> f64 {
            ["all", "as_of", "range"]
                .iter()
                .map(|k| layer[format!("kits.addr_query.{k}.{suffix}").as_str()])
                .sum()
        };
        let (t1, t2) = (sum("t1_s"), sum("t2_s"));
        if t2 > 0.0 {
            layer.insert("kits.t2_speedup", t1 / t2);
        }
        println!("  per layer (traced, median of {}):", traced.len());
        for (metric, unit) in PER_LAYER {
            println!("    {metric:<36} {:>16.6} {unit}", layer[metric]);
            metrics.push((metric.to_string(), unit, layer[metric]));
        }
        let path = Path::new("perfbench/out").join(format!("spans-{name}.tsv"));
        match spans::dump(&path, &kept_spans.0, kept_spans.1) {
            Ok(()) => println!(
                "  spans: {} kept, {} not kept -> {}",
                kept_spans.0.len(),
                kept_spans.1,
                path.display()
            ),
            Err(e) => println!("  spans: not written to {}: {e}", path.display()),
        }
    } else {
        for (metric, unit) in END_TO_END {
            metrics.push((metric.to_string(), unit, e2e[metric]));
        }
    }
    Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
    }
}
