//! Golden-output pins for `busnet sweep`: fixed, deterministic sweeps
//! must stream byte for byte the rows committed under `tests/golden/`,
//! and a committed cache journal must still replay as cache hits.
//!
//! The chaos grid kills half of all first attempts with retries off,
//! so one run covers ok, failed (`skip`) or degraded (`degrade`) rows
//! and out-of-domain skips; the bursty run covers the MMPP `windows`
//! and `window_ebw` columns. The journal pins the cache-key grammar,
//! including both bus-policy tokens.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `busnet` with a whitespace-separated argument line.
fn busnet(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_busnet"))
        .args(args.split_whitespace())
        .env_remove("BUSNET_FAULT_PLAN")
        .output()
        .expect("spawns")
}

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn assert_rows(name: &str, out: &Output) {
    assert!(
        out.stdout == fixture(name),
        "{name} drifted from its fixture; got:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

const SMALL_BUDGET: &str = "--cycles 2000 --warmup 200 --replications 2 --serial";

#[test]
fn sweep_rows_match_the_golden_fixtures() {
    let chaos = format!(
        "sweep --n 2,4 --m 4 --r 4 --p 0.5,1 --policy both --evaluator sim,exact,pfqn \
         --fault-plan seed=7:rate=0.5 --max-retries 0 {SMALL_BUDGET}"
    );
    for (name, extra) in [
        ("chaos_skip.csv", "--on-failure skip --format csv"),
        ("chaos_skip.json", "--on-failure skip --format json"),
        ("chaos_degrade.csv", "--on-failure degrade"),
    ] {
        assert_rows(name, &busnet(&format!("{chaos} {extra}")));
    }
    let burst = format!(
        "sweep --n 4 --m 4 --r 4 --evaluator sim --burst 1:0.1:0.9:200 --format json \
         {SMALL_BUDGET}"
    );
    assert_rows("burst.json", &busnet(&burst));
}

#[test]
fn committed_journal_replays_as_cache_hits() {
    let dir = std::env::temp_dir().join(format!("busnet-golden-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cache dir");
    std::fs::write(dir.join("evalcache.jsonl"), fixture("evalcache.jsonl")).expect("journal");
    let out = busnet(&format!(
        "sweep --n 2 --m 4 --r 4 --policy both --evaluator sim --cache-dir {} {SMALL_BUDGET}",
        dir.to_str().expect("utf-8 temp dir")
    ));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("2 hit(s), 0 miss(es)"), "journal lines must still hit: {stderr}");
    assert_rows("journal_replay.csv", &out);
    let _ = std::fs::remove_dir_all(&dir);
}
