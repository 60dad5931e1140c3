//! Data-plane bench: compact CSR arenas vs the legacy nested-`Vec` layout.
//!
//! Swept over user counts, the bench builds the same deduped interaction
//! data into the CSR `Dataset` and into an in-bench replica of the
//! pre-refactor nested model (one `Vec` per profile, one `Vec` per item's
//! users), then scans both ways. It reports peak RSS (`VmHWM`) and
//! build/scan throughput.
//!
//! `VmHWM` is monotone over a process's lifetime, so every scenario runs
//! in its own subprocess (`--scenario=`) and reports one `RESULT {json}`
//! line; the parent collects them into `results/BENCH_dataplane.json`.
//! Its one table is `layout`. The `datagen` table and `threads` key of
//! earlier files left the schema with the chunk-seeded generator they
//! measured; EXPERIMENTS.md keeps their last values.
//!
//! ```text
//! cargo run --release -p copyattack-bench --bin dataplane
//! cargo run --release -p copyattack-bench --bin dataplane -- --smoke=1
//! ```
//!
//! `--smoke=1` builds only the 1M-user CSR `Dataset` of the layout sweep and
//! checks its user count and structural consistency — the CI guard that the
//! data plane every pipeline builds on stays sane at scale.

use std::process::Command;
use std::time::Instant;

use copyattack::recsys::{Dataset, DatasetBuilder, ItemId, UserId};
use copyattack_bench::{json_str, print_table, write_json, Args};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Catalog for the layout comparison; profiles are short (2..=10 items) so
/// per-profile overhead — where nested layouts pay — is in proportion.
const LAYOUT_CATALOG: usize = 2_000;

fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status")
}

fn fill_profile(rng: &mut StdRng, buf: &mut Vec<ItemId>) {
    buf.clear();
    let len = rng.gen_range(2..=10);
    for _ in 0..len {
        buf.push(ItemId(rng.gen_range(0..LAYOUT_CATALOG as u32)));
    }
}

/// In-bench replica of the pre-CSR data model: nested profiles, nested
/// insertion-order inverted index, linear-scan dedup. Kept verbatim so the
/// bench keeps measuring the layout this refactor replaced.
struct NestedModel {
    profiles: Vec<Vec<ItemId>>,
    item_profiles: Vec<Vec<UserId>>,
}

impl NestedModel {
    fn new(n_items: usize) -> Self {
        Self { profiles: Vec::new(), item_profiles: vec![Vec::new(); n_items] }
    }

    fn add(&mut self, raw: &[ItemId]) {
        let uid = UserId(self.profiles.len() as u32);
        let mut kept: Vec<ItemId> = Vec::new();
        for &v in raw {
            if !kept.contains(&v) {
                kept.push(v);
                self.item_profiles[v.idx()].push(uid);
            }
        }
        self.profiles.push(kept);
    }
}

/// One `RESULT` line for the parent to collect.
fn emit(fields: &str) {
    println!("RESULT {{{fields}}}");
}

/// Builds the layout sweep's `n_users` CSR `Dataset`.
fn build_csr(n_users: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(0xDA7A);
    let mut buf = Vec::new();
    let mut b = DatasetBuilder::new(LAYOUT_CATALOG);
    for _ in 0..n_users {
        fill_profile(&mut rng, &mut buf);
        b.user(&buf);
    }
    b.build()
}

fn scenario_layout_csr(n_users: usize) {
    let t = Instant::now();
    let ds = build_csr(n_users);
    let build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut sink = 0u64;
    for u in ds.users() {
        for &v in ds.profile(u) {
            sink += u64::from(v.0);
        }
    }
    for v in ds.items() {
        sink += ds.item_profile(v).len() as u64;
    }
    let scan_s = t.elapsed().as_secs_f64();
    assert!(sink > 0);
    emit(&format!(
        "\"interactions\": {}, \"build_s\": {build_s:.4}, \"scan_s\": {scan_s:.4}, \"hwm_kb\": {}",
        ds.n_interactions(),
        vm_hwm_kb()
    ));
}

fn scenario_layout_nested(n_users: usize) {
    let mut rng = StdRng::seed_from_u64(0xDA7A);
    let mut buf = Vec::new();
    let t = Instant::now();
    let mut m = NestedModel::new(LAYOUT_CATALOG);
    for _ in 0..n_users {
        fill_profile(&mut rng, &mut buf);
        m.add(&buf);
    }
    let build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut sink = 0u64;
    for p in &m.profiles {
        for &v in p {
            sink += u64::from(v.0);
        }
    }
    for ip in &m.item_profiles {
        sink += ip.len() as u64;
    }
    let scan_s = t.elapsed().as_secs_f64();
    assert!(sink > 0);
    emit(&format!(
        "\"interactions\": {}, \"build_s\": {build_s:.4}, \"scan_s\": {scan_s:.4}, \"hwm_kb\": {}",
        m.profiles.iter().map(Vec::len).sum::<usize>(),
        vm_hwm_kb()
    ));
}

/// Spawns this binary on one scenario and returns the parsed `RESULT`
/// fields as (key, value) pairs.
fn run_child(scenario: &str, n_users: usize) -> Vec<(String, f64)> {
    let exe = std::env::current_exe().expect("current exe");
    let out = Command::new(exe)
        .arg(format!("--scenario={scenario}"))
        .arg(format!("--users={n_users}"))
        .output()
        .expect("spawn scenario subprocess");
    assert!(out.status.success(), "scenario {scenario} ({n_users} users) failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("RESULT "))
        .unwrap_or_else(|| panic!("no RESULT line from {scenario}: {stdout}"));
    line.trim_matches(['{', '}'])
        .split(", ")
        .filter_map(|kv| {
            let (k, v) = kv.split_once(": ")?;
            Some((k.trim_matches('"').to_string(), v.parse().ok()?))
        })
        .collect()
}

fn get(fields: &[(String, f64)], key: &str) -> f64 {
    fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("missing field {key}")).1
}

fn main() {
    let args = Args::parse();
    let scenario = args.get("scenario", "");
    let n_users: usize = args.get_parse("users", 10_000);
    match scenario.as_str() {
        "layout-csr" => return scenario_layout_csr(n_users),
        "layout-nested" => return scenario_layout_nested(n_users),
        "" => {}
        other => panic!("unknown scenario {other:?}"),
    }

    if args.get_parse("smoke", 0u32) == 1 {
        // CI guard: the 1M-user CSR dataset must build and stay consistent.
        let t = Instant::now();
        let ds = build_csr(1_000_000);
        assert_eq!(ds.n_users(), 1_000_000);
        ds.check_consistency().unwrap_or_else(|e| panic!("1M-user dataset inconsistent: {e}"));
        println!(
            "smoke: 1M-user CSR dataset ({} interactions) ok in {:.1}s",
            ds.n_interactions(),
            t.elapsed().as_secs_f64()
        );
        return;
    }

    let layout_sizes = [10_000usize, 100_000, 1_000_000];

    let mut rows = Vec::new();
    let mut layout_cases = Vec::new();
    for &n in &layout_sizes {
        let csr = run_child("layout-csr", n);
        let nested = run_child("layout-nested", n);
        assert_eq!(
            get(&csr, "interactions"),
            get(&nested, "interactions"),
            "layouts must store identical data"
        );
        let reduction = get(&nested, "hwm_kb") / get(&csr, "hwm_kb");
        rows.push(vec![
            n.to_string(),
            format!("{:.0}", get(&csr, "interactions")),
            format!("{:.0}", get(&csr, "hwm_kb")),
            format!("{:.0}", get(&nested, "hwm_kb")),
            format!("{reduction:.2}x"),
            format!("{:.0}", get(&csr, "interactions") / get(&csr, "build_s")),
            format!("{:.0}", get(&csr, "interactions") / get(&csr, "scan_s")),
        ]);
        layout_cases.push(vec![
            ("users", n.to_string()),
            ("interactions", format!("{:.0}", get(&csr, "interactions"))),
            ("csr_hwm_kb", format!("{:.0}", get(&csr, "hwm_kb"))),
            ("nested_hwm_kb", format!("{:.0}", get(&nested, "hwm_kb"))),
            ("rss_reduction", format!("{reduction:.3}")),
            ("csr_build_s", format!("{:.4}", get(&csr, "build_s"))),
            ("nested_build_s", format!("{:.4}", get(&nested, "build_s"))),
            ("csr_scan_s", format!("{:.4}", get(&csr, "scan_s"))),
            ("nested_scan_s", format!("{:.4}", get(&nested, "scan_s"))),
        ]);
    }
    print_table(
        "layout: CSR arenas vs nested Vec (per-process VmHWM)",
        &["users", "inter", "csr_kb", "nested_kb", "rss_x", "build_ips", "scan_ips"],
        &rows,
    );

    write_json(
        "BENCH_dataplane.json",
        &[("bench", json_str("dataplane"))],
        "layout",
        &layout_cases,
    );
}
