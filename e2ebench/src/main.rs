//! `e2ebench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload sweep_tgn|serve_fleet|serve_bulk --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around each layer's public calls and reports the
//! per-layer metrics. Every output is checked; a failed check prints the
//! reason, marks the result `"correct": false` and exits non-zero. The
//! last line of standard output is the result object.

mod loadgen;
mod replay;
mod report;
mod serve;
mod spec;
mod stats;
mod sweep;
mod sys;
mod trace;

use report::Report;
use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload sweep_tgn|serve_fleet|serve_bulk --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    usage("--seconds must be positive");
                }
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let spec = spec::load();
    if !spec.workloads.contains(&args.workload) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={} threads={threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut report = Report::default();
    match args.workload.as_str() {
        "sweep_tgn" => sweep::run(args.seed, args.seconds, threads, args.trace, &mut report),
        "serve_fleet" => serve::run(
            serve::Kind::Fleet,
            args.seed,
            args.seconds,
            threads,
            args.trace,
            &mut report,
        ),
        "serve_bulk" => serve::run(
            serve::Kind::Bulk,
            args.seed,
            args.seconds,
            threads,
            args.trace,
            &mut report,
        ),
        other => usage(&format!("workload {other} has no implementation")),
    }
    if let Some(spans) = report.spans.take() {
        let path = PathBuf::from(".bench_out")
            .join(format!("{}-seed{}.spans.csv", args.workload, args.seed));
        match spans.write_csv(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => report.fail(format!("writing {}: {e}", path.display())),
        }
    }
    let declared = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let result = report.finish(declared, !args.trace);
    println!("{}", serde::json::to_string(&result));
    if !report.correct() {
        std::process::exit(1);
    }
}
