//! Seeded workload inputs: a directory of CSV tables holding the paper's
//! three search benchmarks (Wiki-Join, SANTOS-style union, Eurostat
//! subset) plus filler, the request lines that query it, and the table
//! batch the churn writer appends. The lake is the same on every seed:
//! the benchmark suites are the fixed instances the paper-reproduction
//! harness scores (`exp_table5/6/8`), and the filler is a fixed draw from
//! a second world, so answer quality is a property of the program alone
//! and comparable with the harness. The seed draws the churn batch and
//! (in `serve`) the request order. The program under test only ever sees
//! the generated files and request lines.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use tsfm_lake::{
    gen_eurostat_subset, gen_join_search, gen_pretrain_corpus, gen_union_search, JoinSearchConfig,
    SearchBenchmark, UnionSearchConfig, World, WorldConfig,
};
use tsfm_store::{wire, DiscoveryRequest, QueryMode};
use tsfm_table::hash::{hash_str, splitmix64};
use tsfm_table::{csv, Table};

/// Hits asked for per request; precision is scored at the same depth.
pub const K: usize = 10;
/// Eurostat base tables (each brings 11 variants) and the suite's seed,
/// as in the paper-reproduction harness.
const EUROSTAT_QUERIES: usize = 16;
const EUROSTAT_SEED: u64 = 5;
/// Seeds of the world filler tables are drawn from (the suites' world
/// uses the default seed) and of the lake's filler draw.
const FILLER_WORLD_SEED: u64 = 0xf111;
const FILLER_SEED: u64 = 0xf112;

/// One benchmark query: the table, how it is asked for, and its gold set.
pub struct Query {
    pub id: String,
    pub csv: String,
    /// Join only: the key column the request names (§IV-C1).
    pub key_column: Option<String>,
    pub gold: BTreeSet<usize>,
}

impl Query {
    /// The discovery request this query sends, built through the public
    /// request builder (the in-process reference answers exactly this).
    pub fn request(&self, mode: QueryMode) -> DiscoveryRequest {
        let mut b = DiscoveryRequest::builder(mode).k(K);
        if let Some(col) = &self.key_column {
            b = b.columns([col.clone()]);
        }
        b.build()
            .expect("benchmark requests are valid by construction")
    }

    /// The same request as one serve-protocol line: the query table
    /// inline as CSV, or named by its stored id.
    pub fn line(&self, mode: QueryMode, by_id: bool, profile: bool) -> String {
        let mut s = format!("{{\"mode\":\"{}\",\"k\":{K}", mode.name());
        if let Some(col) = &self.key_column {
            s.push_str(&format!(",\"columns\":[\"{}\"]", wire::escape_json(col)));
        }
        if profile {
            s.push_str(",\"profile\":true");
        }
        if by_id {
            s.push_str(&format!(",\"id\":\"{}\"}}", wire::escape_json(&self.id)));
        } else {
            s.push_str(&format!(
                ",\"query_id\":\"{}\",\"csv\":\"{}\"}}",
                wire::escape_json(&self.id),
                wire::escape_json(&self.csv)
            ));
        }
        s
    }
}

/// One benchmark's queries plus the id → benchmark-index map that scores
/// served hits against the gold sets.
pub struct Suite {
    pub mode: QueryMode,
    pub index_of: HashMap<String, usize>,
    pub queries: Vec<Query>,
}

impl Suite {
    /// Precision@K of a ranked id list for query `q`. Hits outside this
    /// benchmark (filler, churn tables) count as misses.
    pub fn precision(&self, q: usize, ranked: &[String]) -> f64 {
        let mapped: Vec<usize> = ranked
            .iter()
            .map(|id| self.index_of.get(id).copied().unwrap_or(usize::MAX))
            .collect();
        tsfm_search::metrics::precision_at_k(&mapped, &self.queries[q].gold, K)
    }
}

/// The generated inputs of one run.
pub struct Lake {
    pub dir: PathBuf,
    pub files: usize,
    pub csv_bytes: u64,
    /// Join, union, subset — in [`QueryMode::ALL`] order.
    pub suites: Vec<Suite>,
    /// The batch of tables the churn writer appends, and their content
    /// hashes.
    pub churn: Vec<Table>,
    pub churn_hashes: Vec<u64>,
}

fn suite(mode: QueryMode, bench: &SearchBenchmark, texts: &HashMap<String, String>) -> Suite {
    let index_of = bench
        .tables
        .iter()
        .enumerate()
        .map(|(i, t)| (t.id.clone(), i))
        .collect();
    let queries = bench
        .queries
        .iter()
        .zip(&bench.gold)
        .map(|(&qi, gold)| {
            let t = &bench.tables[qi];
            let csv = texts[&t.id].clone();
            // Name the key column as the CSV reader will see it.
            let key_column = bench.key_column.as_ref().map(|keys| {
                csv::table_from_csv(&t.id, &t.id, &csv).columns[keys[qi]]
                    .name
                    .clone()
            });
            Query {
                id: t.id.clone(),
                csv,
                key_column,
                gold: gold.clone(),
            }
        })
        .collect();
    Suite {
        mode,
        index_of,
        queries,
    }
}

/// Generate the lake into `dir`, which must not exist: the 462
/// gold-labelled benchmark tables plus `filler` filler tables, written one
/// CSV file per table, and a churn batch of `churn` tables drawn by `seed`
/// from the filler world.
pub fn generate(seed: u64, filler: usize, churn: usize, dir: &Path) -> std::io::Result<Lake> {
    std::fs::create_dir_all(dir)?;
    let world = World::generate(WorldConfig::default());
    let join = gen_join_search(&world, &JoinSearchConfig::default());
    let union = gen_union_search(&world, "santos", &UnionSearchConfig::santos_style());
    let subset = gen_eurostat_subset(&world, EUROSTAT_QUERIES, EUROSTAT_SEED);
    let filler_world = World::generate(WorldConfig {
        seed: FILLER_WORLD_SEED,
        ..WorldConfig::default()
    });
    let extra = gen_pretrain_corpus(&filler_world, filler, FILLER_SEED);
    // Churn ids must not collide with the filler's `pre<i>` ids.
    let churn: Vec<Table> = gen_pretrain_corpus(&filler_world, churn, splitmix64(seed))
        .into_iter()
        .map(|mut t| {
            t.id = format!("churn{}", &t.id[3..]);
            t
        })
        .collect();

    let mut texts = HashMap::new();
    let mut csv_bytes = 0u64;
    let lake_tables = join
        .tables
        .iter()
        .chain(&union.tables)
        .chain(&subset.tables)
        .chain(&extra);
    for t in lake_tables {
        let text = csv::table_to_csv(t);
        csv_bytes += text.len() as u64;
        std::fs::write(dir.join(format!("{}.csv", t.id)), &text)?;
        if !t.id.starts_with("pre") {
            texts.insert(t.id.clone(), text);
        }
    }
    let files = join.tables.len() + union.tables.len() + subset.tables.len() + extra.len();
    let suites = vec![
        suite(QueryMode::Join, &join, &texts),
        suite(QueryMode::Union, &union, &texts),
        suite(QueryMode::Subset, &subset, &texts),
    ];
    let churn_hashes = churn
        .iter()
        .map(|t| hash_str(&csv::table_to_csv(t)))
        .collect();
    Ok(Lake {
        dir: dir.to_path_buf(),
        files,
        csv_bytes,
        suites,
        churn,
        churn_hashes,
    })
}
