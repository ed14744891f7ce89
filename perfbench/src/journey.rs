//! One round of the user journey on a fresh catalog: ingest, the cold
//! index build and the reopen in fresh processes, then the serve steps of
//! [`crate::serve`].

use crate::lake::{self, Lake};
use crate::layers::{self, Partition};
use crate::serve::{serve, Traffic};
use crate::stats::{self, median};
use crate::{
    err, timed, Args, ChildArgs, Report, INGEST_REPEATS, INGEST_THREADS, OPEN_REPEATS,
    TRACE_CAPACITY,
};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tsfm_obs::trace::{self, Span};
use tsfm_sketch::{MinHasher, TableSketch};
use tsfm_store::{
    wire, Catalog, DiscoveryRequest, QueryMode, Searcher, ServeConfig, Server, TableRecord,
};
use tsfm_table::csv;
use tsfm_table::hash::hash_str;

/// Steps 2–7 on a fresh catalog in `dir`.
pub(crate) fn journey(
    args: &Args,
    lake: &Lake,
    traffic: &Traffic,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    // 2. Ingest; the earlier catalogs are timing samples only, since the
    // fsync-bound ingest is the noisiest step on a shared disk.
    for i in 1..INGEST_REPEATS {
        let sample = dir.with_extension(format!("sample{i}"));
        drop(ingest(args, lake, &sample, report)?);
        std::fs::remove_dir_all(&sample).map_err(err)?;
    }
    let mut cat = ingest(args, lake, dir, report)?;

    // 3. Cold index build.
    let rebuilds0 = stats::counter("tsfm_catalog_index_rebuilds_total");
    let t = Instant::now();
    let built = {
        let _phase = Span::enter("phase.index_build");
        cat.searcher().map_err(err)?
    };
    let build_s = t.elapsed().as_secs_f64();
    report.put("index_build_s", build_s, 1);
    report.put(
        "catalog.index_rebuilds",
        (stats::counter("tsfm_catalog_index_rebuilds_total") - rebuilds0) as f64,
        1,
    );
    report.put(
        "hnsw.nodes",
        (built.engine().join_index().len() + built.engine().union_index().len()) as f64,
        1,
    );
    if args.trace {
        let records = trace::drain();
        let agg = layers::totals_us(&records);
        let ms = |name: &str| agg.get(name).map_or(0.0, |&us| us as f64 / 1e3);
        report.put("engine.build_ms", ms("engine.build"), 1);
        report.put("hnsw.insert_ms", ms("hnsw.insert"), 1);
        report.put(
            "catalog.index_cache_write_ms",
            ms("catalog.index_cache.write"),
            1,
        );
        partition(report, &records, "phase.index_build", build_s * 1e6);
    }

    // 4. Reopen in fresh processes; answers must match the pre-drop searcher.
    drop(cat);
    reopen(args, lake, dir, &built, report)?;
    let mut cat = Catalog::open(dir).map_err(err)?;
    let serving = cat.searcher().map_err(err)?;
    report.check(serving.len() == lake.files, || {
        format!(
            "reopened catalog holds {} of {} tables",
            serving.len(),
            lake.files
        )
    });

    // 5–7. Capacity, serve, churn.
    let server =
        Server::bind("127.0.0.1:0", serving.clone(), ServeConfig::default()).map_err(err)?;
    let addr = server.local_addr();
    let handle = server.handle();
    let (served, stopped) = std::thread::scope(|scope| {
        let runner = scope.spawn(move || server.run());
        let served = serve(
            args, lake, traffic, &mut cat, serving, &handle, addr, report,
        );
        handle.shutdown();
        (served, runner.join())
    });
    served?;
    match stopped {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("server: {e}")),
        Err(_) => return Err("server thread panicked".into()),
    }
    if args.trace {
        let other = report.other_shares.iter().copied().fold(0.0, f64::max);
        report.put("layers.other_pct", other * 100.0, report.other_shares.len());
    }
    Ok(())
}

/// Step 2: CSV directory → durably committed catalog. The untraced run
/// calls `ingest_dir_with_threads`; the traced run performs the same
/// steps serially through the public calls underneath it, each under its
/// own span, so the phase partitions into layers.
fn ingest(args: &Args, lake: &Lake, dir: &Path, report: &mut Report) -> Result<Catalog, String> {
    let counters = [
        "tsfm_store_compactions_total",
        "tsfm_catalog_segments_written_total",
        "tsfm_catalog_segment_bytes_written_total",
    ];
    let before: Vec<u64> = counters.iter().map(|c| stats::counter(c)).collect();
    let (sys0, bytes0) = stats::process_writes();
    let t = Instant::now();
    let cat = if args.trace {
        ingest_decomposed(args, lake, dir, report)?
    } else {
        let mut cat = Catalog::open(dir).map_err(err)?;
        let rep = cat
            .ingest_dir_with_threads(&lake.dir, INGEST_THREADS)
            .map_err(err)?;
        report.check(
            rep.failed.is_empty() && rep.sketched() == lake.files,
            || {
                format!(
                    "ingest sketched {} of {} files, {} failed",
                    rep.sketched(),
                    lake.files,
                    rep.failed.len()
                )
            },
        );
        if args.workload.compact {
            cat.compact().map_err(err)?;
        }
        cat
    };
    let secs = t.elapsed().as_secs_f64();
    report.attempted += lake.files as u64;
    report.put("ingest_tables_per_s", lake.files as f64 / secs, lake.files);
    report.put(
        "store_bytes_per_input_byte",
        stats::tree_bytes(dir) as f64 / lake.csv_bytes as f64,
        1,
    );
    let (sys1, bytes1) = stats::process_writes();
    report.put("io.write_syscalls", (sys1 - sys0) as f64, 1);
    report.put("io.write_bytes", (bytes1 - bytes0) as f64, 1);
    let after: Vec<u64> = counters.iter().map(|c| stats::counter(c)).collect();
    report.put("catalog.compactions", (after[0] - before[0]) as f64, 1);
    report.put("catalog.segments_written", (after[1] - before[1]) as f64, 1);
    report.put(
        "catalog.segment_bytes_written",
        (after[2] - before[2]) as f64,
        1,
    );
    if args.trace {
        let records = trace::drain();
        let agg = layers::totals_us(&records);
        let compact = agg
            .get("catalog.compact")
            .map_or(0.0, |&us| us as f64 / 1e3);
        report.put("catalog.compact_ms", compact, 1);
        partition(report, &records, "phase.ingest", secs * 1e6);
    }
    Ok(cat)
}

fn ingest_decomposed(
    args: &Args,
    lake: &Lake,
    dir: &Path,
    report: &mut Report,
) -> Result<Catalog, String> {
    let _phase = Span::enter("phase.ingest");
    let mut cat = {
        let _s = Span::enter("call.catalog_open");
        Catalog::open(dir).map_err(err)?
    };
    let cfg = cat.sketch_config().clone();
    let hasher = MinHasher::new(cfg.minhash_k, cfg.seed);
    let mut files: Vec<PathBuf> = {
        let _s = Span::enter("call.list_dir");
        std::fs::read_dir(&lake.dir)
            .map_err(err)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "csv"))
            .collect()
    };
    files.sort();
    let (mut read_us, mut parse_us, mut sketch_us, mut add_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut columns = 0usize;
    for path in &files {
        let id = path
            .file_stem()
            .unwrap_or_default()
            .to_string_lossy()
            .to_string();
        let (text, content_hash) = timed("call.read_file", &mut read_us, || {
            std::fs::read_to_string(path).map(|t| {
                let h = hash_str(&t);
                (t, h)
            })
        })
        .map_err(err)?;
        let table = timed("call.csv_parse", &mut parse_us, || {
            csv::table_from_csv(&id, &id, &text)
        });
        let sketch = timed("call.sketch_build", &mut sketch_us, || {
            TableSketch::build_with_hasher(&table, &hasher, cfg.max_rows)
        });
        columns += sketch.columns.len();
        let record = TableRecord::from_sketch(sketch, content_hash);
        timed("call.add_record", &mut add_us, || cat.add_record(&record)).map_err(err)?;
    }
    let mut commit_us = Vec::new();
    timed("call.commit", &mut commit_us, || cat.commit()).map_err(err)?;
    if args.workload.compact {
        let _s = Span::enter("call.compact");
        cat.compact().map_err(err)?;
    }
    report.put("table.csv_parse_us", median(&parse_us), parse_us.len());
    report.put("sketch.build_us", median(&sketch_us), sketch_us.len());
    report.put("sketch.columns", columns as f64, 1);
    report.put("catalog.add_record_us", median(&add_us), add_us.len());
    report.put("catalog.commit_ms", commit_us[0] / 1e3, 1);
    Ok(cat)
}

fn partition(
    report: &mut Report,
    records: &[trace::SpanRecord],
    phase: &'static str,
    wall_us: f64,
) {
    match Partition::of(records, phase, wall_us) {
        Some(p) => {
            if let Err(e) = p.check() {
                report.check(false, || e);
            }
            report.other_shares.push(p.other_share());
            report.partitions.push(p.json());
        }
        None => report.check(false, || format!("no {phase} span recorded")),
    }
}

/// Step 4: `OPEN_REPEATS` fresh processes open the catalog, take a
/// searcher through the index cache and answer a probe; each must hold
/// every table and answer exactly as the searcher built before the drop.
fn reopen(
    args: &Args,
    lake: &Lake,
    dir: &Path,
    built: &Searcher,
    report: &mut Report,
) -> Result<(), String> {
    let probe = &lake.suites[0].queries[0].id;
    let expected: Vec<Vec<String>> = QueryMode::ALL
        .iter()
        .map(|&m| {
            let req = DiscoveryRequest::builder(m)
                .k(lake::K)
                .build()
                .map_err(err)?;
            let resp = built.search_id(probe, &req).map_err(err)?;
            Ok(resp.hits.into_iter().map(|h| h.table_id).collect())
        })
        .collect::<Result<_, String>>()?;
    let exe = std::env::current_exe().map_err(err)?;
    let mut ready = Vec::new();
    let (mut open, mut load, mut cache_load, mut hits) = (Vec::new(), Vec::new(), Vec::new(), 0.0);
    for _ in 0..OPEN_REPEATS {
        let out = std::process::Command::new(&exe)
            .arg("--open-child")
            .arg(dir)
            .args([
                "--probe",
                probe,
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output()
            .map_err(err)?;
        if !out.status.success() {
            return Err(format!(
                "reopen child failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines = text.lines();
        let json = wire::parse_json(lines.next().unwrap_or_default())
            .map_err(|e| format!("reopen child: {e}"))?;
        report.partitions.extend(lines.next().map(str::to_string));
        let num = |k: &str| json.get(k).and_then(wire::Json::as_f64).unwrap_or(f64::NAN);
        ready.push(num("ready_us") / 1e3);
        report.check(num("len") as usize == lake.files, || {
            format!(
                "reopened catalog holds {} of {} tables",
                num("len"),
                lake.files
            )
        });
        report.check(ranked_lists(json.get("answers")) == expected, || {
            "reopened catalog answers differently from the pre-drop searcher".into()
        });
        if args.trace {
            open.push(num("open_us") / 1e3);
            load.push(num("load_records_us") / 1e3);
            cache_load.push(num("index_cache_load_us") / 1e3);
            hits = num("cache_hits");
            if let Some(e) = json.get("partition_error").and_then(wire::Json::as_str) {
                report.check(false, || e.to_string());
            }
            if let Some(share) = json.get("other_share").and_then(wire::Json::as_f64) {
                report.other_shares.push(share);
            }
        }
    }
    report.put("open_ready_ms", median(&ready), ready.len());
    if args.trace {
        report.put("catalog.open_ms", median(&open), open.len());
        report.put("catalog.load_records_ms", median(&load), load.len());
        report.put(
            "catalog.index_cache_load_ms",
            median(&cache_load),
            cache_load.len(),
        );
        report.put("catalog.index_cache_hits", hits, 1);
    }
    Ok(())
}

/// `[["id",..],..]` → nested vectors.
fn ranked_lists(v: Option<&wire::Json>) -> Vec<Vec<String>> {
    let Some(wire::Json::Arr(lists)) = v else {
        return Vec::new();
    };
    lists
        .iter()
        .map(|l| match l {
            wire::Json::Arr(ids) => ids
                .iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect(),
            _ => Vec::new(),
        })
        .collect()
}

/// The reopen child: open → searcher → first answer, timed in-process.
pub(crate) fn open_child(c: &ChildArgs) -> Result<String, String> {
    if c.trace {
        trace::enable_with_capacity(TRACE_CAPACITY);
    }
    let hits0 = stats::counter("tsfm_catalog_index_cache_hits_total");
    let join = DiscoveryRequest::builder(QueryMode::Join)
        .k(lake::K)
        .build()
        .map_err(err)?;
    let t = Instant::now();
    let searcher = {
        let _phase = Span::enter("phase.open");
        let mut cat = {
            let _s = Span::enter("call.catalog_open");
            Catalog::open(&c.catalog).map_err(err)?
        };
        let searcher = {
            let _s = Span::enter("call.searcher");
            cat.searcher().map_err(err)?
        };
        let _s = Span::enter("call.search_id");
        searcher.search_id(&c.probe, &join).map_err(err)?;
        searcher
    };
    let ready_us = t.elapsed().as_secs_f64() * 1e6;
    trace::disable();
    let mut answers = Vec::new();
    for m in QueryMode::ALL {
        let req = DiscoveryRequest::builder(m)
            .k(lake::K)
            .build()
            .map_err(err)?;
        let ids: Vec<String> = searcher
            .search_id(&c.probe, &req)
            .map_err(err)?
            .hits
            .iter()
            .map(|h| format!("\"{}\"", wire::escape_json(&h.table_id)))
            .collect();
        answers.push(format!("[{}]", ids.join(",")));
    }
    let mut line = format!(
        "{{\"ready_us\":{ready_us},\"len\":{},\"answers\":[{}]",
        searcher.len(),
        answers.join(",")
    );
    let mut partition = None;
    if c.trace {
        let records = trace::drain();
        let agg = layers::totals_us(&records);
        let us = |n: &str| agg.get(n).copied().unwrap_or(0);
        let part = Partition::of(&records, "phase.open", ready_us).ok_or("no open span")?;
        line.push_str(&format!(
            ",\"open_us\":{},\"load_records_us\":{},\"index_cache_load_us\":{},\"cache_hits\":{},\
             \"other_share\":{}",
            us("catalog.open"),
            us("catalog.load_records"),
            us("catalog.index_cache.load"),
            stats::counter("tsfm_catalog_index_cache_hits_total") - hits0,
            part.other_share(),
        ));
        if let Err(e) = part.check() {
            line.push_str(&format!(
                ",\"partition_error\":\"{}\"",
                wire::escape_json(&e)
            ));
        }
        partition = Some(part.json());
    }
    line.push('}');
    // The partition, when traced, follows on a line of its own.
    if let Some(p) = partition {
        line.push('\n');
        line.push_str(&p);
    }
    Ok(line)
}
