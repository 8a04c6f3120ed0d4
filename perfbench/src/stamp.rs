//! The run stamp: what built and ran the numbers.

use std::fs;
use std::path::Path;

/// `release` or `debug`, from how this binary was compiled.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Refuses to report timings from anything but a release build: debug
/// timings are off by an order of magnitude and mislead every
/// comparison.
pub fn require_release(profile: &str) -> Result<(), String> {
    if profile == "release" {
        Ok(())
    } else {
        Err(format!(
            "refusing to report timings from a {profile} build; run with `cargo run --release`"
        ))
    }
}

/// Target features the binary was compiled with (of a fixed list).
fn target_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    macro_rules! probe {
        ($($name:tt),*) => {$(
            if cfg!(target_feature = $name) {
                f.push($name);
            }
        )*};
    }
    probe!("sse2", "sse4.1", "sse4.2", "avx", "avx2", "fma", "avx512f", "neon");
    f
}

/// The git revision of `root`, read from `.git` without running git;
/// `None` when `root` is not a git checkout.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split(' ').next())
        .map(str::to_string)
}

/// FNV-64 over the workspace sources (`Cargo.toml`, `Cargo.lock` and
/// every file under `crates/`, in sorted path order) — identifies the
/// code under test where there is no git revision.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut acc = Vec::new();
    for f in files {
        if let Ok(bytes) = fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            acc.extend_from_slice(rel.to_string_lossy().as_bytes());
            acc.extend_from_slice(&crate::rng::fnv64(&bytes).to_le_bytes());
        }
    }
    format!("{:016x}", crate::rng::fnv64(&acc))
}

/// The stamp as one JSON object.
pub fn stamp_json(root: &Path, workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features = target_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect::<Vec<_>>()
        .join(",");
    let rev = git_rev(root).unwrap_or_else(|| "none".to_string());
    format!(
        "{{\"build_profile\":\"{}\",\"rustc\":\"{}\",\"host_threads\":{threads},\
         \"target_arch\":\"{}\",\"target_features\":[{features}],\"git_rev\":\"{rev}\",\
         \"source_digest\":\"{}\",\"workload\":\"{workload}\",\"seed\":{seed},\
         \"seconds\":{seconds},\"trace\":{trace}}}",
        build_profile(),
        env!("PERFBENCH_RUSTC"),
        std::env::consts::ARCH,
        source_digest(root),
    )
}
