//! `perfbench` — the repository's discovery benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-mix|serve-churn> --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run walks the whole path a user pays for, three times over
//! (rounds), through the public API of `tsfm_table::csv`, `tsfm_sketch`,
//! `tsfm_store` and `tsfm_search`, on inputs generated from `--seed` by
//! `tsfm_lake`. Each round:
//!
//! 1. **set-up** — generate the lake (the Wiki-Join, SANTOS-style union
//!    and Eurostat subset benchmarks plus filler) as a directory of CSV
//!    files and render the request lines;
//! 2. **ingest** — `Catalog::ingest_dir_with_threads(dir, 2)` into a
//!    fresh, durably committed catalog (on `serve-mix` followed by
//!    `Catalog::compact`);
//! 3. **index build** — the cold `Catalog::searcher()`;
//! 4. **reopen** — fresh processes run `Catalog::open` → `searcher()`
//!    (index-cache hit) → first answer;
//! 5. **capacity** — an in-process `Server` with shipped defaults,
//!    offered equal thirds join (keyed on the benchmark's key column),
//!    union and subset requests far past what two connections carry; the
//!    completed rate is the sustained capacity. It runs before any churn,
//!    so it sees the lake every seed shares;
//! 6. **serve** — the same traffic, driven open-loop at a fixed rate; the
//!    served answers are checked against the in-process `Searcher` and
//!    scored against the gold sets;
//! 7. **churn** — a batch of new tables: `ingest_tables` → `commit` →
//!    `searcher()` → `swap_searcher`, then probed by id over the wire.
//!
//! Every metric is the median round (latencies and capacity: the median
//! window over all rounds), since a shared host's slowdowns last seconds.
//!
//! The two workloads hold the same 3,000-table lake and differ in what
//! the behaviour depends on: `serve-mix` compacts its catalog into shards
//! and its queries carry their table inline as CSV; `serve-churn` keeps
//! loose segments, and its queries name a stored table by id while the
//! churn writer rebuilds the index beside them.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` tracing is enabled, the benchmark records a span
//! around each public call, and the line carries the per-layer metrics
//! instead. The line before it is a report with the host stamp, flush
//! policy, sample counts, request tallies and layer partitions. The exit
//! code is non-zero when any correctness check fails.

mod journey;
mod lake;
mod layers;
mod load;
mod serve;
mod stats;

use stats::{median, percentile};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use tsfm_obs::trace::{self, Span};
use tsfm_store::wire;

/// Tables in the lake, and those the gold-labelled search suites
/// contribute to it; the rest is filler.
const LAKE_TABLES: usize = 3000;
const BENCH_TABLES: usize = 462;
/// Tables in each round's churn batch.
const CHURN_TABLES: usize = 50;
/// Ingest worker threads: the benchmark is sized for a two-core host.
const INGEST_THREADS: usize = 2;
/// A run repeats the whole journey — set-up included — this many times,
/// each round on a fresh catalog, and reports the median round of every
/// metric: a shared host's slowdowns last seconds, so samples spread over the
/// run are steadier than the same samples taken back to back.
const ROUNDS: usize = 3;
/// Ingests and reopening processes per round.
const INGEST_REPEATS: usize = 2;
const OPEN_REPEATS: usize = 3;
/// A run holds at least this many replies of each mode, so the p99 in
/// the report has ten samples past it.
const MIN_PER_MODE: usize = 1000;
/// Latencies are taken per window of reads (by due time) and reported as
/// the median window, so a host stall spoils the windows it falls in
/// rather than the run; a window needs this many replies of a mode.
const WINDOW_US: u64 = 500_000;
const MIN_PER_WINDOW: usize = 100;
/// The capacity steps: a fixed offered rate far past what two connections
/// can carry, held for each of several short steps per round.
const OVERLOAD_RATE: f64 = 100_000.0;
const CAPACITY_STEPS: usize = 5;
const CAPACITY_STEP_US: u64 = 250_000;
/// Per-thread span capacity for the traced run.
const TRACE_CAPACITY: usize = 1 << 19;
/// Tracing-overhead A/B: pairs run, the minimum that may be reported,
/// and requests per block.
const OVERHEAD_PAIRS: usize = 12;
const OVERHEAD_MIN_PAIRS: usize = 10;
const OVERHEAD_BLOCK: usize = 96;
/// In-process passes over the query set for the engine and wire timings.
const MICRO_PASSES: usize = 3;

/// One workload: the inputs and traffic of a run.
struct Workload {
    name: &'static str,
    /// Ingest ends with `Catalog::compact`, folding the loose segments
    /// into shards, so the catalog is served from the shard layer.
    compact: bool,
    /// Queries name their table by stored id instead of carrying it as CSV.
    by_id: bool,
    /// The measured reads run beside the churn writer.
    churn_with_reads: bool,
    /// Offered read rate (requests per second) and connections.
    read_rate: f64,
    read_conns: usize,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "serve-mix",
        compact: true,
        by_id: false,
        churn_with_reads: false,
        read_rate: 1000.0,
        read_conns: 2,
    },
    Workload {
        name: "serve-churn",
        compact: false,
        by_id: true,
        churn_with_reads: true,
        read_rate: 1200.0,
        read_conns: 1,
    },
];

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_tables_per_s", "1/s"),
    ("index_build_s", "s"),
    ("open_ready_ms", "ms"),
    ("store_bytes_per_input_byte", "ratio"),
    ("join_p50_us", "us"),
    ("union_p50_us", "us"),
    ("subset_p50_us", "us"),
    ("serve_max_qps", "1/s"),
    ("join_p_at_10", "ratio"),
    ("union_p_at_10", "ratio"),
    ("subset_p_at_10", "ratio"),
    ("freshness_ms", "ms"),
];

/// Per-layer metrics, printed with `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("table.csv_parse_us", "us"),
    ("sketch.build_us", "us"),
    ("sketch.columns", "count"),
    ("catalog.add_record_us", "us"),
    ("catalog.commit_ms", "ms"),
    ("catalog.compact_ms", "ms"),
    ("catalog.compactions", "count"),
    ("catalog.segments_written", "count"),
    ("catalog.segment_bytes_written", "bytes"),
    ("io.write_bytes", "bytes"),
    ("io.write_syscalls", "count"),
    ("catalog.open_ms", "ms"),
    ("catalog.load_records_ms", "ms"),
    ("catalog.index_cache_load_ms", "ms"),
    ("catalog.index_cache_hits", "count"),
    ("engine.build_ms", "ms"),
    ("hnsw.insert_ms", "ms"),
    ("catalog.index_cache_write_ms", "ms"),
    ("catalog.index_rebuilds", "count"),
    ("hnsw.nodes", "count"),
    ("engine.search_us.join", "us"),
    ("engine.search_us.union", "us"),
    ("engine.search_us.subset", "us"),
    ("engine.features_us", "us"),
    ("engine.beam_us", "us"),
    ("engine.rank_us", "us"),
    ("engine.lsh_us", "us"),
    ("engine.other_us", "us"),
    ("engine.query_columns", "count"),
    ("wire.parse_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.request_bytes", "bytes"),
    ("wire.reply_bytes", "bytes"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.requests_ok", "count"),
    ("serve.swaps", "count"),
    ("serve.swap_ms", "ms"),
    ("gen.sent", "count"),
    ("gen.lateness_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("layers.other_pct", "%"),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What the child process of the reopen step is asked to do.
struct ChildArgs {
    catalog: PathBuf,
    probe: String,
    trace: bool,
}

enum Mode {
    Run(Args),
    Child(ChildArgs),
}

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}"))
    };
    let trace = match flags.get("--trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    if let Some(dir) = flags.get("--open-child") {
        return Ok(Mode::Child(ChildArgs {
            catalog: PathBuf::from(dir),
            probe: get("--probe")?.to_string(),
            trace,
        }));
    }
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Everything a run measured and checked.
#[derive(Default)]
struct Report {
    /// Every metric's value in each round, with its sample count.
    rounds: BTreeMap<&'static str, Vec<(f64, usize)>>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Request tallies per phase: (sent, failed).
    tallies: BTreeMap<&'static str, (usize, usize)>,
    /// Layer partitions of the traced phases (JSON) and the unattributed
    /// share of each.
    partitions: Vec<String>,
    other_shares: Vec<f64>,
    /// Read latencies by mode, one entry per [`WINDOW_US`] of reads.
    windows: Vec<[Vec<f64>; 3]>,
    /// Completions per second of each capacity step.
    capacity: Vec<f64>,
}

impl Report {
    /// Record this round's value of a metric.
    fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.rounds.entry(name).or_default().push((value, samples));
    }

    /// The median round's value and the samples behind all rounds.
    fn value(&self, name: &str) -> Option<(f64, usize)> {
        let rounds = self.rounds.get(name)?;
        let values: Vec<f64> = rounds.iter().map(|r| r.0).collect();
        Some((median(&values), rounds.iter().map(|r| r.1).sum()))
    }

    /// Full windows of mode `m`, and the mode's replies in all windows.
    fn windows_of(&self, m: usize) -> (usize, usize) {
        let full = self
            .windows
            .iter()
            .filter(|w| w[m].len() >= MIN_PER_WINDOW)
            .count();
        (full, self.windows.iter().map(|w| w[m].len()).sum())
    }

    /// The median over full windows of mode `m`'s `q` latency percentile.
    fn window_percentile(&self, m: usize, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w[m].len() >= MIN_PER_WINDOW)
            .map(|w| percentile(&w[m], q))
            .collect();
        median(&per_window)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    fn tally(&mut self, phase: &'static str, out: &load::Outcome) {
        self.count(phase, out.shots.len(), out.failed());
    }

    fn count(&mut self, phase: &'static str, sent: usize, failed: usize) {
        self.attempted += sent as u64;
        self.failed += failed as u64;
        let t = self.tallies.entry(phase).or_default();
        t.0 += sent;
        t.1 += failed;
    }
}

/// A working directory under the current one, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let mode = match parse_args() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve-mix|serve-churn> --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Child(c) => match journey::open_child(&c) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench child: {e}");
                ExitCode::FAILURE
            }
        },
        Mode::Run(args) => {
            let work = WorkDir(PathBuf::from(".perfbench_work").join(format!(
                "{}-{}",
                args.workload.name,
                std::process::id()
            )));
            let result = run(&args, &work.0);
            drop(work);
            match result {
                Ok(report) => finish(&args, &report),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

/// Print the report line and the result line; non-zero exit on any
/// failed check.
fn finish(args: &Args, report: &Report) -> ExitCode {
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    let mut samples = Vec::new();
    let mut missing = Vec::new();
    for &(name, unit) in wanted {
        match report.value(name) {
            Some((v, n)) if v.is_finite() => {
                metrics.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
                samples.push(format!("\"{name}\":{n}"));
            }
            _ => missing.push(name),
        }
    }
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not measured: {}", missing.join(", "));
        return ExitCode::FAILURE;
    }
    let tallies: Vec<String> = report
        .tallies
        .iter()
        .map(|(p, (sent, failed))| {
            format!(
                "\"{p}\":{{\"sent\":{sent},\"ok\":{},\"failed\":{failed}}}",
                sent - failed
            )
        })
        .collect();
    let rounds: Vec<String> = wanted
        .iter()
        .filter_map(|&(name, _)| {
            let values: Vec<String> = report
                .rounds
                .get(name)?
                .iter()
                .map(|(v, _)| format!("{v}"))
                .collect();
            Some(format!("\"{name}\":[{}]", values.join(",")))
        })
        .collect();
    // Tails, reported but not gated: on a shared two-core host they track
    // the host's scheduling stalls more than the program.
    let tails: Vec<String> = ["join", "union", "subset"]
        .iter()
        .enumerate()
        .map(|(m, mode)| {
            let all: Vec<f64> = report
                .windows
                .iter()
                .flat_map(|w| w[m].iter().copied())
                .collect();
            format!(
                "\"{mode}_p90_us\":{},\"{mode}_p99_us\":{},\"{mode}_replies\":{}",
                report.window_percentile(m, 0.90),
                percentile(&all, 0.99),
                all.len()
            )
        })
        .collect();
    let failures: Vec<String> = report
        .failures
        .iter()
        .map(|f| format!("\"{}\"", wire::escape_json(f)))
        .collect();
    println!(
        "{{\"report\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host\":{},\"flush\":\"fsync on: batched segment fsync + durable manifest commit (shipped policy)\",\
         \"samples\":{{{}}},\"rounds\":{{{}}},\"tails\":{{{}}},\"tallies\":{{{}}},\"partitions\":[{}],\"failures\":[{}]}}}}",
        args.workload.name,
        args.seed,
        args.seconds,
        args.trace,
        stats::host_stamp(),
        samples.join(","),
        rounds.join(","),
        tails.join(","),
        tallies.join(","),
        report.partitions.join(","),
        failures.join(",")
    );
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Time `f` under a span named `name`, pushing its wall time (µs).
fn timed<T>(name: &'static str, samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let _span = Span::enter(name);
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_secs_f64() * 1e6);
    out
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let w = args.workload;
    let mut report = Report::default();
    eprintln!(
        "perfbench: {} seed {} ({} tables)",
        w.name, args.seed, LAKE_TABLES
    );
    let clock = Instant::now();
    for r in 0..ROUNDS {
        // 1. Set-up: inputs generated from the seed.
        let lake_dir = work.join("lake");
        if r > 0 {
            std::fs::remove_dir_all(&lake_dir).map_err(err)?;
        }
        let t = Instant::now();
        let lake = lake::generate(
            args.seed,
            LAKE_TABLES - BENCH_TABLES,
            CHURN_TABLES,
            &lake_dir,
        )
        .map_err(err)?;
        let traffic = serve::traffic(&lake, w, args.seed, args.trace);
        report.put("setup_s", t.elapsed().as_secs_f64(), 1);
        report.check(lake.files == LAKE_TABLES, || {
            format!("lake has {} tables", lake.files)
        });
        // Put the inputs on disk before anything is timed, so the ingest's
        // fsyncs do not also pay for writing back the set-up's files.
        let synced = std::process::Command::new("sync").status().map_err(err)?;
        report.check(synced.success(), || "sync after set-up failed".into());

        let dir = work.join(format!("catalog{r}"));
        if args.trace {
            trace::enable_with_capacity(TRACE_CAPACITY);
        }
        journey::journey(args, &lake, &traffic, &dir, &mut report)?;
        if args.trace {
            trace::disable();
            trace::drain();
        }
        std::fs::remove_dir_all(&dir).map_err(err)?;
        eprintln!(
            "perfbench: round {} done at {:.1} s",
            r + 1,
            clock.elapsed().as_secs_f64()
        );
    }
    // Latencies and the sustained rate: median windows over all rounds.
    for (m, p50) in ["join_p50_us", "union_p50_us", "subset_p50_us"]
        .into_iter()
        .enumerate()
    {
        let (windows, replies) = report.windows_of(m);
        report.check(replies >= MIN_PER_MODE && windows >= ROUNDS, || {
            format!("{p50}: {replies} replies in {windows} full windows")
        });
        report.put(p50, report.window_percentile(m, 0.50), replies);
    }
    if !args.trace {
        let capacity = report.capacity.clone();
        report.put("serve_max_qps", median(&capacity), capacity.len());
    }
    if args.trace {
        let dropped = trace::dropped();
        report.check(dropped == 0, || {
            format!("{dropped} spans dropped: layer attribution incomplete")
        });
    }
    Ok(report)
}
