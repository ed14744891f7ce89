//! Small measurement helpers: order statistics, the host stamp, process
//! I/O counters, store sizes and the program's own registry counters.

use std::path::Path;

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `write` syscalls and bytes handed to them by this process so far
/// (`/proc/self/io` `syscw` and `wchar`); zeros where the file is absent.
pub fn process_writes() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    (field("syscw:"), field("wchar:"))
}

/// Total bytes of regular files under `dir`.
pub fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => tree_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Current value of one of the program's `tsfm_obs` registry counters.
pub fn counter(name: &str) -> u64 {
    tsfm_obs::metrics::global()
        .counter(name, "read by perfbench")
        .get()
}

/// Host stamp carried by every result: cores, kernel, source revision.
pub fn host_stamp() -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    // Only a checkout that is itself a git work tree names its commit; an
    // exported tree must not pick up the revision of an enclosing one.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"cores\":{cores},\"kernel\":\"{}\",\"commit\":\"{commit}\",\"sources\":\"{:016x}\"}}",
        tsfm_store::wire::escape_json(&kernel),
        source_hash(Path::new("crates"))
    )
}

/// Order-independent hash of every file under `dir`, so a result from a
/// checkout without git history still names the code it measured.
fn source_hash(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut acc = 0u64;
    for e in entries.flatten() {
        let path = e.path();
        let h = if path.is_dir() {
            source_hash(&path)
        } else {
            let bytes = std::fs::read(&path).unwrap_or_default();
            tsfm_table::hash::hash_str(&path.to_string_lossy())
                ^ tsfm_table::hash::splitmix64(tsfm_table::hash::hash_str(
                    &String::from_utf8_lossy(&bytes),
                ))
        };
        acc = acc.wrapping_add(tsfm_table::hash::splitmix64(h));
    }
    acc
}
