//! The serve steps of a round — the sustained rate, scheduled reads and
//! churn — and the checks and scores of what the server answered.

use crate::lake::{Lake, Suite};
use crate::load;
use crate::stats::{median, percentile};
use crate::{
    err, timed, Args, Report, Workload, CAPACITY_STEPS, CAPACITY_STEP_US, INGEST_THREADS,
    MICRO_PASSES, MIN_PER_MODE, OVERHEAD_BLOCK, OVERHEAD_MIN_PAIRS, OVERHEAD_PAIRS, OVERLOAD_RATE,
    ROUNDS, TRACE_CAPACITY, WINDOW_US,
};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use tsfm_obs::trace::{self, Span};
use tsfm_store::{wire, Catalog, QueryMode, Searcher, ServeCommand, ServerHandle};
use tsfm_table::csv;
use tsfm_table::hash::splitmix64;

/// A seeded permutation of `0..n` (Fisher–Yates over splitmix64).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        s = splitmix64(s);
        v.swap(i, (s % (i as u64 + 1)) as usize);
    }
    v
}

/// The run's request lines: one per (mode, query), plus the slot order
/// of the read schedule (equal thirds join, union, subset).
pub(crate) struct Traffic {
    lines: Vec<String>,
    /// `(mode index, query index)` of each line.
    meta: Vec<(usize, usize)>,
    order: Vec<u32>,
}

pub(crate) fn traffic(lake: &Lake, w: &Workload, seed: u64, profile: bool) -> Traffic {
    let mut lines = Vec::new();
    let mut meta = Vec::new();
    let mut first = Vec::new();
    for (m, suite) in lake.suites.iter().enumerate() {
        first.push(lines.len());
        for (q, query) in suite.queries.iter().enumerate() {
            lines.push(query.line(suite.mode, w.by_id, profile));
            meta.push((m, q));
        }
    }
    let perms: Vec<Vec<usize>> = lake
        .suites
        .iter()
        .enumerate()
        .map(|(m, s)| shuffled(s.queries.len(), splitmix64(seed ^ (m as u64 + 11))))
        .collect();
    // Long enough that every query of every mode recurs many times.
    let slots = 3 * 4096;
    let order = (0..slots)
        .map(|j| {
            let m = j % 3;
            (first[m] + perms[m][(j / 3) % perms[m].len()]) as u32
        })
        .collect();
    Traffic { lines, meta, order }
}

/// The ranked ids and corpus size of a served reply.
fn reply_hits(reply: &str) -> Option<(usize, Vec<String>)> {
    let json = wire::parse_json(reply).ok()?;
    let corpus = json.get("corpus")?.as_f64()? as usize;
    let wire::Json::Arr(hits) = json.get("hits")? else {
        return None;
    };
    let ids = hits
        .iter()
        .filter_map(|h| h.get("table")?.as_str().map(str::to_string))
        .collect();
    Some((corpus, ids))
}

/// The reference answer: the same request against an in-process
/// `Searcher`.
fn reference(
    searcher: &Searcher,
    suite: &Suite,
    q: usize,
    by_id: bool,
) -> Result<Vec<String>, String> {
    let query = &suite.queries[q];
    let req = query.request(suite.mode);
    let resp = if by_id {
        searcher.search_id(&query.id, &req)
    } else {
        searcher.search_table(&csv::table_from_csv(&query.id, &query.id, &query.csv), &req)
    }
    .map_err(err)?;
    Ok(resp.hits.into_iter().map(|h| h.table_id).collect())
}

/// Steps 5–7 against the running server.
#[allow(clippy::too_many_arguments)]
pub(crate) fn serve(
    args: &Args,
    lake: &Lake,
    traffic: &Traffic,
    cat: &mut Catalog,
    serving: Searcher,
    handle: &ServerHandle,
    addr: SocketAddr,
    report: &mut Report,
) -> Result<(), String> {
    let w = args.workload;
    let mut generations = vec![serving.clone()];
    let rate = w.read_rate;
    let count = ((rate * args.seconds / ROUNDS as f64) as usize).max(3 * MIN_PER_MODE / ROUNDS + 3);
    let plan = load::Plan {
        rate,
        conns: w.read_conns,
        count,
        order: &traffic.order,
        deadline: None,
    };

    // Unrecorded warm-up: every distinct request once, so lazy set-up in
    // the server and the client is done before anything is timed.
    let mut warm = load::Client::new(addr);
    let cold = traffic
        .lines
        .iter()
        .filter(|l| warm.send(l).is_none())
        .count();
    report.check(cold == 0, || format!("{cold} warm-up requests failed"));
    drop(warm);

    // 5. Sustained rate (untraced runs: its number is end-to-end only). It
    // comes before any churn, on the lake every seed shares: the seeded
    // churn batch moves what a union query costs by a third.
    if !args.trace {
        capacity(traffic, addr, report);
    }

    // 6. Scheduled reads, beside the churn writer when the workload says so.
    let reads = if w.churn_with_reads {
        let done = AtomicBool::new(false);
        let (reads, churned) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let r = churn(lake, cat, handle, addr);
                done.store(true, Ordering::SeqCst);
                r
            });
            let reads = load::run(addr, &traffic.lines, &plan, Some(&done), true);
            (reads, writer.join())
        });
        let churned = churned.map_err(|_| "churn writer panicked")??;
        generations.push(record_churn(churned, report));
        reads
    } else {
        load::run(addr, &traffic.lines, &plan, None, true)
    };
    report.tally("read", &reads);
    score_reads(args, lake, traffic, &reads, &generations, addr, report)?;
    if args.trace {
        micro(lake, traffic, &serving, report)?;
        overhead(addr, traffic, report)?;
    }

    // 7. Churn on its own when it did not run beside the reads.
    if !w.churn_with_reads {
        record_churn(churn(lake, cat, handle, addr)?, report);
    }
    Ok(())
}

/// What the churn writer did with its batch.
struct Churned {
    /// The snapshot it swapped in.
    generation: Searcher,
    /// From the start of the ingest to the first successful by-id reply.
    freshness_ms: Option<f64>,
    swap_ms: f64,
    probes: usize,
    probe_failures: usize,
}

/// Step 7: append the churn batch, hot-swap the new snapshot in, and
/// probe each new table by id over the wire.
fn churn(
    lake: &Lake,
    cat: &mut Catalog,
    handle: &ServerHandle,
    addr: SocketAddr,
) -> Result<Churned, String> {
    let _span = Span::enter("phase.churn_batch");
    let t0 = Instant::now();
    {
        let _s = Span::enter("call.ingest_tables");
        cat.ingest_tables(&lake.churn, &lake.churn_hashes, INGEST_THREADS)
            .map_err(err)?;
    }
    {
        let _s = Span::enter("call.commit");
        cat.commit().map_err(err)?;
    }
    let generation = {
        let _s = Span::enter("call.searcher");
        cat.searcher().map_err(err)?
    };
    let ts = Instant::now();
    handle.swap_searcher(generation.clone());
    let swap_ms = ts.elapsed().as_secs_f64() * 1e3;
    let mut client = load::Client::new(addr);
    let mut freshness_ms = None;
    let mut probe_failures = 0;
    for t in &lake.churn {
        let line = format!(
            "{{\"mode\":\"subset\",\"k\":1,\"id\":\"{}\"}}",
            wire::escape_json(&t.id)
        );
        match client.send(&line) {
            Some(reply) if reply_hits(&reply).is_some() => {
                freshness_ms.get_or_insert_with(|| t0.elapsed().as_secs_f64() * 1e3);
            }
            _ => probe_failures += 1,
        }
    }
    Ok(Churned {
        generation,
        freshness_ms,
        swap_ms,
        probes: lake.churn.len(),
        probe_failures,
    })
}

/// Report what the churn writer did; returns the snapshot it swapped in.
fn record_churn(c: Churned, report: &mut Report) -> Searcher {
    report.count("churn_probe", c.probes, c.probe_failures);
    report.check(c.probe_failures == 0, || {
        format!(
            "{} churn tables did not answer by id after their swap",
            c.probe_failures
        )
    });
    if let Some(ms) = c.freshness_ms {
        report.put("freshness_ms", ms, 1);
    }
    report.put("serve.swaps", 1.0, 1);
    report.put("serve.swap_ms", c.swap_ms, 1);
    c.generation
}

/// Check every served read against the in-process searcher of the
/// generation that answered it, score precision against the gold sets,
/// and report latencies per mode.
fn score_reads(
    args: &Args,
    lake: &Lake,
    traffic: &Traffic,
    reads: &load::Outcome,
    generations: &[Searcher],
    addr: SocketAddr,
    report: &mut Report,
) -> Result<(), String> {
    let w = args.workload;
    let mut refs: HashMap<(usize, u32), Vec<String>> = HashMap::new();
    let mut first: HashMap<u32, Vec<String>> = HashMap::new();
    let mut mismatches = 0usize;
    let mut unparsed = 0usize;
    let mut windows: BTreeMap<u64, [Vec<f64>; 3]> = BTreeMap::new();
    let mut profile: BTreeMap<(usize, String), (f64, usize)> = BTreeMap::new();
    for (shot, reply) in reads.shots.iter().zip(&reads.replies) {
        let (m, q) = traffic.meta[shot.req as usize];
        windows.entry(shot.due_ns / (WINDOW_US * 1000)).or_default()[m].push(shot.latency_us());
        if !shot.ok {
            continue;
        }
        let Some((corpus, ids)) = reply_hits(reply) else {
            unparsed += 1;
            continue;
        };
        let Some(g) = generations.iter().position(|s| s.len() == corpus) else {
            mismatches += 1;
            continue;
        };
        let expected = match refs.entry((g, shot.req)) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(reference(&generations[g], &lake.suites[m], q, w.by_id)?)
            }
        };
        if *expected != ids {
            mismatches += 1;
        }
        if args.trace {
            collect_profile(reply, m, &mut profile);
        }
        first.entry(shot.req).or_insert(ids);
    }
    report.check(mismatches == 0 && unparsed == 0, || {
        format!("{mismatches} served answers differ from the in-process searcher, {unparsed} unparsable")
    });
    for (m, (suite, name)) in lake
        .suites
        .iter()
        .zip(["join", "union", "subset"])
        .enumerate()
    {
        let pat = match name {
            "join" => "join_p_at_10",
            "union" => "union_p_at_10",
            _ => "subset_p_at_10",
        };
        let mut precisions = Vec::new();
        for (req, (mm, q)) in traffic.meta.iter().enumerate() {
            if *mm != m {
                continue;
            }
            match first.get(&(req as u32)) {
                Some(ids) => precisions.push(suite.precision(*q, ids)),
                None => report.check(false, || format!("{name} query {q} never answered")),
            }
        }
        let mean = precisions.iter().sum::<f64>() / precisions.len().max(1) as f64;
        report.put(pat, mean, precisions.len());
    }
    report.windows.extend(windows.into_values());
    let lateness: Vec<f64> = reads.shots.iter().map(load::Shot::lateness_us).collect();
    report.put("gen.sent", reads.shots.len() as f64, 1);
    report.put(
        "gen.lateness_ms",
        percentile(&lateness, 0.99) / 1e3,
        lateness.len(),
    );

    if args.trace {
        let mean = |stage: &str, modes: &[usize]| {
            let (sum, n) = modes.iter().fold((0.0, 0usize), |(s, n), m| {
                let (ps, pn) = profile
                    .get(&(*m, stage.to_string()))
                    .copied()
                    .unwrap_or((0.0, 0));
                (s + ps, n + pn)
            });
            sum / n.max(1) as f64
        };
        report.put(
            "engine.features_us",
            mean("features", &[0, 1]),
            reads.shots.len(),
        );
        report.put("engine.beam_us", mean("beam", &[0, 1]), reads.shots.len());
        report.put("engine.rank_us", mean("rank", &[0, 1]), reads.shots.len());
        report.put("engine.lsh_us", mean("lsh", &[2]), reads.shots.len());
        report.put(
            "engine.other_us",
            mean("other", &[0, 1, 2]),
            reads.shots.len(),
        );
        let req_bytes: f64 = reads
            .shots
            .iter()
            .map(|s| traffic.lines[s.req as usize].len() as f64 + 1.0)
            .sum();
        let reply_bytes: f64 = reads.replies.iter().map(|r| r.len() as f64 + 1.0).sum();
        let n = reads.shots.len().max(1) as f64;
        report.put("wire.request_bytes", req_bytes / n, reads.shots.len());
        report.put("wire.reply_bytes", reply_bytes / n, reads.shots.len());
        // Query columns the engine searches per request: the key column
        // for join, every column for union, none (table level) for subset.
        let per_line: Vec<f64> = traffic
            .meta
            .iter()
            .map(|&(m, q)| match lake.suites[m].mode {
                QueryMode::Join => 1.0,
                QueryMode::Union => {
                    let query = &lake.suites[m].queries[q];
                    csv::table_from_csv(&query.id, &query.id, &query.csv).num_cols() as f64
                }
                QueryMode::Subset => 0.0,
            })
            .collect();
        let cols: f64 = reads.shots.iter().map(|s| per_line[s.req as usize]).sum();
        report.put("engine.query_columns", cols / n, reads.shots.len());
        let stats = load::Client::new(addr)
            .send("{\"op\":\"stats\"}")
            .ok_or("stats verb failed")?;
        let json = wire::parse_json(&stats).map_err(err)?;
        let num = |path: &[&str]| {
            path.iter()
                .try_fold(&json, |j, k| j.get(k))
                .and_then(wire::Json::as_f64)
                .unwrap_or(0.0)
        };
        let server_p50 = num(&["stats", "latency_us", "p50"]);
        report.put("serve.server_p50_us", server_p50, reads.shots.len());
        report.put(
            "serve.server_p99_us",
            num(&["stats", "latency_us", "p99"]),
            reads.shots.len(),
        );
        report.put("serve.requests_ok", num(&["stats", "requests", "ok"]), 1);
        let rtt: Vec<f64> = reads
            .shots
            .iter()
            .filter(|s| s.ok)
            .map(load::Shot::rtt_us)
            .collect();
        report.put("serve.transport_us", median(&rtt) - server_p50, rtt.len());
    }
    Ok(())
}

/// Accumulate a reply's `"profile"` stages by (mode, stage).
fn collect_profile(reply: &str, m: usize, acc: &mut BTreeMap<(usize, String), (f64, usize)>) {
    let Ok(json) = wire::parse_json(reply) else {
        return;
    };
    let Some(wire::Json::Arr(stages)) = json.get("profile") else {
        return;
    };
    for st in stages {
        if let wire::Json::Arr(pair) = st {
            if let (Some(name), Some(us)) = (
                pair.first().and_then(wire::Json::as_str),
                pair.get(1).and_then(wire::Json::as_f64),
            ) {
                let e = acc.entry((m, name.to_string())).or_insert((0.0, 0));
                e.0 += us;
                e.1 += 1;
            }
        }
    }
}

/// In-process timings of the engine and wire calls over the query set.
fn micro(
    lake: &Lake,
    traffic: &Traffic,
    searcher: &Searcher,
    report: &mut Report,
) -> Result<(), String> {
    let mut responses = Vec::new();
    for (suite, name) in lake.suites.iter().zip([
        "engine.search_us.join",
        "engine.search_us.union",
        "engine.search_us.subset",
    ]) {
        let sketches: Vec<_> = suite
            .queries
            .iter()
            .map(|q| searcher.sketch(&csv::table_from_csv(&q.id, &q.id, &q.csv)))
            .collect();
        let mut us = Vec::new();
        for _ in 0..MICRO_PASSES {
            for (q, sketch) in suite.queries.iter().zip(&sketches) {
                let req = q.request(suite.mode);
                let resp = timed("call.search_sketch", &mut us, || {
                    searcher.search_sketch(sketch, &req)
                })
                .map_err(err)?;
                responses.push(resp);
            }
        }
        report.put(name, median(&us), us.len());
    }
    let mut parse_us = Vec::new();
    for _ in 0..MICRO_PASSES {
        for line in &traffic.lines {
            timed("call.parse_line", &mut parse_us, || {
                ServeCommand::parse_line(line)
            })
            .map_err(err)?;
        }
    }
    report.put("wire.parse_us", median(&parse_us), parse_us.len());
    let mut encode_us = Vec::new();
    for resp in &responses {
        let s = timed("call.response_json", &mut encode_us, || {
            wire::response_json(resp)
        });
        std::hint::black_box(s);
    }
    report.put("wire.encode_us", median(&encode_us), encode_us.len());
    trace::drain();
    Ok(())
}

/// Tracing overhead over the wire path: alternating blocks of the same
/// requests with tracing off and on, one closed-loop connection. The
/// median of the per-pair differences is reported, and only from at
/// least [`OVERHEAD_MIN_PAIRS`] pairs.
fn overhead(addr: SocketAddr, traffic: &Traffic, report: &mut Report) -> Result<(), String> {
    let mut client = load::Client::new(addr);
    let mut block = |on: bool| -> Result<f64, String> {
        if on {
            trace::enable_with_capacity(TRACE_CAPACITY);
        } else {
            trace::disable();
        }
        let t = Instant::now();
        for j in 0..OVERHEAD_BLOCK {
            let line = &traffic.lines[traffic.order[j] as usize];
            client.send(line).ok_or("overhead request failed")?;
        }
        let s = t.elapsed().as_secs_f64();
        trace::disable();
        trace::drain();
        Ok(s)
    };
    let mut pct = Vec::new();
    for pair in 0..OVERHEAD_PAIRS {
        let (off, on) = if pair % 2 == 0 {
            let off = block(false)?;
            (off, block(true)?)
        } else {
            let on = block(true)?;
            (block(false)?, on)
        };
        pct.push((on - off) / off * 100.0);
    }
    if pct.len() < OVERHEAD_MIN_PAIRS {
        return Err(format!(
            "tracing overhead from {} pairs, fewer than {OVERHEAD_MIN_PAIRS}",
            pct.len()
        ));
    }
    report.put("trace.overhead_pct", median(&pct), pct.len());
    trace::enable_with_capacity(TRACE_CAPACITY);
    Ok(())
}

/// Step 5: the sustained rate. The same traffic is offered at a fixed
/// rate far past what the two connections can carry; with one request in
/// flight per connection the generator falls behind at once, and the
/// rate it still completes is the highest offered rate it could have kept
/// up with. Each round runs [`CAPACITY_STEPS`] short steps on fresh
/// connections, since how the scheduler places a connection's client and
/// server threads on the two cores moves the rate and holds for a step.
fn capacity(traffic: &Traffic, addr: SocketAddr, report: &mut Report) {
    let step = std::time::Duration::from_micros(CAPACITY_STEP_US);
    for _ in 0..CAPACITY_STEPS {
        let plan = load::Plan {
            rate: OVERLOAD_RATE,
            conns: 2,
            count: usize::MAX,
            order: &traffic.order,
            deadline: Some(step),
        };
        let out = load::run(addr, &traffic.lines, &plan, None, false);
        report.tally("capacity", &out);
        report.check(out.failed() == 0, || {
            format!("{} capacity requests failed", out.failed())
        });
        let step_ns = CAPACITY_STEP_US * 1000;
        let done = out
            .shots
            .iter()
            .filter(|s| s.ok && s.done_ns <= step_ns)
            .count();
        report.capacity.push(done as f64 / step.as_secs_f64());
    }
}
