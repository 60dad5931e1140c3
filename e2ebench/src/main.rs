//! End-to-end, layer-attributed benchmark of the CopyAttack protocol
//! (Fan et al., ICDE 2021, §5.1 and Table 2): build the cross-domain
//! world, train the attacker's MF and the victim, then attack cold target
//! items and evaluate HR/NDCG.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload attacks-ml10m --seed 1 --seconds 26 --trace 0
//! ```
//!
//! One invocation runs one workload ([`workload::WORKLOADS`]) in one
//! process, as a closed loop: one caller runs the attack runs back to
//! back, each starting when the previous one ends. A run is one (attack,
//! victim, cold target) triple: attacker build, training episodes, the
//! evaluation episode, then HR/NDCG.
//!
//! - `--trace 0` measures the end-to-end metrics with tracing off, in a
//!   run boxed into `--seconds`. Set-up runs several times (`setup_s` is
//!   the median), each followed by whole attack passes, each the
//!   workload's fixed list of runs, until its share of the window has
//!   passed. `attack_runs_per_s` is the runs completed over the passes'
//!   total time, and `protocol_s` is the mean set-up time plus the mean
//!   pass time.
//! - `--trace 1` runs one untraced set-up and untraced passes for the
//!   first half of `--seconds`, then a traced replica of both (set-up and
//!   one pass), and reports per-layer self times and counts from the spans.
//!
//! Every invocation checks the program's outputs and exits with code 1
//! when a check fails: repeated set-ups and passes must agree; the traced
//! set-up must reproduce `Pipeline::build`, and the traced pass the
//! untraced output digest; `copyattack-ml20m-t2` must give the same digest
//! at `CA_THREADS=1`, and `Pipeline::run_spec_over_items` the same row; on
//! a reliable platform each run's metered queries must equal pretend users
//! × the batched rounds the traced wrapper answered. A failed run (a
//! panic, an `AttackError`, an aborted episode) is counted, not fatal.
//!
//! The last line of standard output is the result; the line before it is
//! the run's provenance. Both, and a traced run's spans, are also kept in
//! `e2ebench-results/` in the build directory.

#![forbid(unsafe_code)]

mod protocol;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use copyattack::par;
use protocol::{
    aggregate, attack_pass, build_digest, digest, metering_mismatch, pass_targets, setup,
    setup_traced, FaultCounts, RunRecord, World,
};
use trace::{Span, Tracer};
use workload::{Kind, Workload, WORKLOADS};

/// The end-to-end metrics (`--trace 0`) in report order, with units.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("attack_runs_per_s", "runs/s"), ("protocol_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics (`--trace 1`) in report order, with units. The
/// self times (`_s`) cover the traced run, set-up plus one pass, and add
/// up to its wall time.
const PER_LAYER: [(&str, &str); 38] = [
    ("datagen.generate_s", "s"),
    ("datagen.interactions", "count"),
    ("train.source_mf_s", "s"),
    ("train.target_mf_s", "s"),
    ("train.gnn_s", "s"),
    ("train.gnn_epochs", "count"),
    ("train.victims_s", "s"),
    ("core.build_s", "s"),
    ("core.builds", "count"),
    ("core.policy_self_s", "s"),
    ("core.episodes", "count"),
    ("engine.round_s", "s"),
    ("engine.rounds", "count"),
    ("engine.round_p50_us", "us"),
    ("engine.round_p99_us", "us"),
    ("engine.score_cells", "count"),
    ("engine.touched_col_share", "ratio"),
    ("engine.single_s", "s"),
    ("engine.single_calls", "count"),
    ("platform.inject_s", "s"),
    ("platform.injects", "count"),
    ("platform.inject_p99_us", "us"),
    ("platform.clone_s", "s"),
    ("platform.clones", "count"),
    ("faults.query_attempts", "count"),
    ("faults.queries_failed", "count"),
    ("faults.inject_attempts", "count"),
    ("faults.injects_failed", "count"),
    ("faults.reestablished", "count"),
    ("faults.rounds_skipped", "count"),
    ("faults.answered_ratio", "ratio"),
    ("eval.promotion_s", "s"),
    ("eval.calls", "count"),
    ("par.threads", "count"),
    ("par.efficiency", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_s", "s"),
    ("failed_run_share", "ratio"),
];

/// The command line.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    let wl = Workload::find(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?;
                    workload = Some(wl);
                }
                "--seed" => {
                    let s = value.parse::<u64>().map_err(|e| format!("--seed {value:?}: {e}"))?;
                    seed = Some(s);
                }
                "--seconds" => {
                    let s =
                        value.parse::<f64>().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {value:?} is outside (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value:?} is neither 0 nor 1")),
                    });
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is missing")?,
            seed: seed.ok_or("--seed is missing")?,
            seconds: seconds.ok_or("--seconds is missing")?,
            trace: trace.ok_or("--trace is missing")?,
        })
    }
}

/// What one invocation measured and checked.
struct Report {
    values: BTreeMap<&'static str, f64>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    /// Provenance entries: key and JSON value.
    provenance: Vec<(&'static str, String)>,
}

impl Report {
    fn new(a: &Args) -> Self {
        let wl = a.workload;
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let provenance = vec![
            ("workload", json_str(wl.name)),
            ("why", json_str(wl.why)),
            ("preset", json_str(wl.preset)),
            ("seed", a.seed.to_string()),
            ("seconds", a.seconds.to_string()),
            ("trace", u8::from(a.trace).to_string()),
            ("ca_threads", par::threads().to_string()),
            ("available_parallelism", parallelism.to_string()),
            ("targets_per_pass", wl.targets.to_string()),
            ("gnn_epochs", workload::GNN_EPOCHS.to_string()),
        ];
        Self { values: BTreeMap::new(), attempted: 0, failed: 0, errors: Vec::new(), provenance }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn note(&mut self, key: &'static str, json: String) {
        self.provenance.push((key, json));
    }

    fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(failure());
        }
    }

    fn count(&mut self, runs: &[RunRecord]) {
        self.attempted += runs.len();
        for r in runs {
            if let Some(why) = &r.failure {
                self.failed += 1;
                eprintln!(
                    "e2ebench: {} on {} target {} failed: {why}",
                    r.attack, r.victim, r.target
                );
            }
        }
    }

    /// The result line: every metric of `spec`, in order, with its unit.
    fn result_json(&mut self, spec: &[(&'static str, &'static str)]) -> String {
        let mut metrics = Vec::with_capacity(spec.len());
        for &(name, unit) in spec {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.errors.push(format!("{name} is {v}"));
                    0.0
                }
                None => {
                    self.errors.push(format!("{name} was not measured"));
                    0.0
                }
            };
            metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        if self.attempted == 0 {
            self.errors.push("no run was attempted".into());
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn provenance_json(&self) -> String {
        let fields: Vec<String> =
            self.provenance.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "e2ebench: {e}\nusage: e2ebench --workload <{}> --seed <n> --seconds <s> \
                 --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    par::set_threads(Some(args.workload.threads));
    let (mut report, spans) =
        if args.trace { traced(&args) } else { (untraced(&args), Vec::new()) };
    let spec: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let result = report.result_json(spec);
    let provenance = report.provenance_json();
    save(&args, &provenance, &result, &spans);
    for e in &report.errors {
        eprintln!("e2ebench: check failed: {e}");
    }
    println!("{{\"provenance\": {provenance}}}");
    println!("{result}");
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--trace 0`: set-ups alternating with measured attack passes, the
/// whole run boxed into `--seconds`. The machine's speed drifts over tens
/// of seconds, so each set-up is followed by passes up to its share of the
/// window, and both metrics sample the whole run, not one end of it.
fn untraced(a: &Args) -> Report {
    let wl = a.workload;
    let mut rep = Report::new(a);
    let mut setup_secs = Vec::with_capacity(wl.setups);
    let mut phase = Phase::default();
    let mut first_build = None;
    let run_start = Instant::now();
    for round in 1..=wl.setups {
        // One world alive at a time, so peak memory is one protocol's.
        let start = Instant::now();
        let world = setup(wl, a.seed);
        setup_secs.push(start.elapsed().as_secs_f64());
        let d = build_digest(&world.pipe);
        let first = *first_build.get_or_insert(d);
        rep.check(d == first, || format!("set-up build digest {d:016x} differs from {first:016x}"));
        let share = a.seconds * round as f64 / wl.setups as f64;
        phase.run_until(&world, a, run_start + Duration::from_secs_f64(share), &mut rep);
    }
    rep.set("setup_s", median(&setup_secs));
    rep.set("attack_runs_per_s", phase.runs_per_sec());
    // Means, like the attack rate: see `Phase::mean_pass_secs`.
    rep.set("protocol_s", mean(&setup_secs) + phase.mean_pass_secs());
    match peak_rss_mb() {
        Some(mb) => rep.set("peak_rss_mb", mb),
        None => rep.errors.push("VmHWM is missing from /proc/self/status".into()),
    }
    phase.note(&mut rep);
    rep.note("setup_samples_s", json_array(&setup_secs));
    rep
}

/// `--trace 1`: the untraced set-up and passes for the first half of
/// `--seconds` as the reference, then the traced replica of both, one
/// pass.
fn traced(a: &Args) -> (Report, Vec<Span>) {
    let wl = a.workload;
    let mut rep = Report::new(a);
    let run_start = Instant::now();
    let world = setup(wl, a.seed);
    let mut phase = Phase::default();
    phase.run_until(&world, a, run_start + Duration::from_secs_f64(a.seconds / 2.0), &mut rep);
    phase.note(&mut rep);
    if wl.kind == Kind::FanOut {
        fan_out_checks(&world, a, &phase, &mut rep);
    }

    let tracer = Tracer::new();
    let (traced_world, runs) = tracer.span("traced", || {
        let w = tracer.span("setup", || setup_traced(wl, a.seed, &tracer));
        let runs = tracer.span("attack_phase", || attack_pass(&w, wl, a.seed, Some(&tracer)));
        (w, runs)
    });
    rep.count(&runs);
    let (want, got) = (build_digest(&world.pipe), build_digest(&traced_world.pipe));
    rep.check(want == got, || {
        format!(
            "traced set-up differs from Pipeline::build (build digest {got:016x} vs {want:016x})"
        )
    });
    let d = digest(&runs);
    rep.check(d == phase.digest, || {
        format!("traced digest {d:016x} differs from untraced {:016x}", phase.digest)
    });
    if wl.kind != Kind::Chaos {
        if let Some(e) = metering_mismatch(&runs, world.pipe.pretend.len()) {
            rep.errors.push(e);
        }
    }
    let spans = tracer.spans();
    layer_metrics(&mut rep, a, &tracer, &spans, &traced_world, &runs, &phase);
    (rep, spans)
}

/// The measured attack phase: whole untraced passes, each the workload's
/// fixed list of runs.
#[derive(Default)]
struct Phase {
    /// Wall time of each pass.
    pass_secs: Vec<f64>,
    /// The first pass's output digest; every later pass must repeat it.
    digest: u64,
    /// The first pass's runs.
    first: Vec<RunRecord>,
}

impl Phase {
    /// Runs passes back to back, at least one, until `deadline`.
    fn run_until(&mut self, world: &World, a: &Args, deadline: Instant, rep: &mut Report) {
        loop {
            let start = Instant::now();
            let runs = attack_pass(world, a.workload, a.seed, None);
            self.pass_secs.push(start.elapsed().as_secs_f64());
            rep.count(&runs);
            let d = digest(&runs);
            if self.pass_secs.len() == 1 {
                (self.digest, self.first) = (d, runs);
            } else {
                let first = self.digest;
                rep.check(d == first, || {
                    format!("a pass's digest {d:016x} differs from the first pass's {first:016x}")
                });
            }
            if Instant::now() >= deadline {
                return;
            }
        }
    }

    /// Mean wall time of one pass: the phase's time over its passes. The
    /// machine's speed switches between a fast and a slow state, and the
    /// mean follows the mix of the two where a median jumps between them.
    fn mean_pass_secs(&self) -> f64 {
        mean(&self.pass_secs)
    }

    /// Attack runs completed per second of the phase.
    fn runs_per_sec(&self) -> f64 {
        self.first.len() as f64 / self.mean_pass_secs()
    }

    fn note(&self, rep: &mut Report) {
        rep.note("runs_per_pass", self.first.len().to_string());
        rep.note("pass_samples_s", json_array(&self.pass_secs));
        rep.note("output_digest", json_str(&format!("{:016x}", self.digest)));
    }
}

/// The fan-out must not change results: one pass at `CA_THREADS=1`
/// repeats the digest, and the program's own fan-out,
/// `Pipeline::run_spec_over_items`, aggregates to the same row.
fn fan_out_checks(world: &World, a: &Args, phase: &Phase, rep: &mut Report) {
    let wl = a.workload;
    par::set_threads(Some(1));
    let serial = attack_pass(world, wl, a.seed, None);
    par::set_threads(Some(wl.threads));
    rep.count(&serial);
    let d = digest(&serial);
    rep.check(d == phase.digest, || {
        format!(
            "digest at CA_THREADS=1 ({d:016x}) differs from CA_THREADS={} ({:016x})",
            wl.threads, phase.digest
        )
    });

    let pipe = &world.pipe;
    let targets = pass_targets(pipe, wl);
    let row =
        catch_unwind(AssertUnwindSafe(|| pipe.run_spec_over_items(&pipe.config.attack, targets)));
    let Ok(row) = row else {
        rep.errors.push("Pipeline::run_spec_over_items panicked".into());
        return;
    };
    let (metrics, avg_items) = aggregate(&phase.first);
    let same = row.metrics.hr(20).to_bits() == metrics.hr(20).to_bits()
        && row.metrics.ndcg(20).to_bits() == metrics.ndcg(20).to_bits()
        && row.avg_items_per_profile.to_bits() == avg_items.to_bits();
    rep.check(same, || {
        format!(
            "run_spec_over_items gives HR@20 {} NDCG@20 {} items {}; the benchmark's runs {} {} {}",
            row.metrics.hr(20),
            row.metrics.ndcg(20),
            row.avg_items_per_profile,
            metrics.hr(20),
            metrics.ndcg(20),
            avg_items
        )
    });
}

/// The per-layer metrics of the traced run, from its spans and runs.
fn layer_metrics(
    rep: &mut Report,
    a: &Args,
    tracer: &Tracer,
    spans: &[Span],
    world: &World,
    runs: &[RunRecord],
    phase: &Phase,
) {
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let count = |name: &'static str| named(name).count() as f64;
    let Some(root) = named("traced").next() else {
        rep.errors.push("the traced run left no root span".into());
        return;
    };
    let wall = root.secs();
    let self_secs = trace::self_times(spans);
    let attributed: f64 = self_secs.values().sum();
    rep.check((attributed - wall).abs() <= 1e-6 * wall, || {
        format!("layer self times add up to {attributed} s, not the traced wall time {wall} s")
    });
    for (layer, secs) in self_secs {
        rep.set(layer, secs);
    }

    let pipe = &world.pipe;
    let interactions = pipe.world.source.n_interactions() + pipe.world.target.n_interactions();
    rep.set("datagen.interactions", interactions as f64);
    rep.set("train.gnn_epochs", pipe.train_report.epochs_run as f64);
    rep.set("core.builds", count("core.build"));
    rep.set("core.episodes", runs.iter().map(|r| r.episodes).sum::<u64>() as f64);

    let rounds = trace::durations_us(spans, "engine.round");
    let injects = trace::durations_us(spans, "platform.inject");
    let rc = tracer.round_counts();
    rep.set("engine.rounds", rounds.len() as f64);
    rep.set("engine.round_p50_us", percentile(&rounds, 50.0));
    rep.set("engine.round_p99_us", percentile(&rounds, 99.0));
    rep.set("engine.score_cells", rc.score_cells as f64);
    rep.set("engine.touched_col_share", ratio(rc.touched, rc.catalog));
    rep.set("engine.single_calls", count("engine.single"));
    rep.set("platform.injects", injects.len() as f64);
    rep.set("platform.inject_p99_us", percentile(&injects, 99.0));
    rep.set("platform.clones", count("platform.clone"));
    rep.note(
        "percentile_samples",
        format!("{{\"engine.round\": {}, \"platform.inject\": {}}}", rounds.len(), injects.len()),
    );

    // Fault counters come from each chaos run's evaluation episode: the
    // training episodes' environments belong to the attack.
    let faults = if a.workload.kind == Kind::Chaos {
        runs.iter().fold(FaultCounts::default(), |sum, r| sum + r.faults)
    } else {
        FaultCounts::default()
    };
    rep.set("faults.query_attempts", faults.query_attempts as f64);
    rep.set("faults.queries_failed", faults.queries_failed as f64);
    rep.set("faults.inject_attempts", faults.inject_attempts as f64);
    rep.set("faults.injects_failed", faults.injects_failed as f64);
    rep.set("faults.reestablished", faults.reestablished as f64);
    rep.set("faults.rounds_skipped", faults.rounds_skipped as f64);
    let answered = faults.query_attempts - faults.queries_failed;
    rep.set("faults.answered_ratio", ratio(answered, faults.query_attempts));
    rep.set("eval.calls", count("eval.promotion"));

    let phase_secs: f64 = named("attack_phase").map(Span::secs).sum();
    let run_secs: f64 = named("run").map(Span::secs).sum();
    let threads = par::threads() as f64;
    rep.set("par.threads", threads);
    rep.set("par.efficiency", run_secs / (phase_secs * threads));
    rep.set("trace.overhead", phase_secs / phase.mean_pass_secs() - 1.0);
    rep.set("failed_run_share", ratio(rep.failed as u64, rep.attempted as u64));
    rep.note("traced_wall_s", wall.to_string());
    rep.note("spans", spans.len().to_string());
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of ascending `sorted`; 0 when empty.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_array(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// Keeps the provenance, the result and a traced run's spans in
/// `e2ebench-results/` beside the build's `release/` directory. Failing to
/// write them is reported, not fatal.
fn save(a: &Args, provenance: &str, result: &str, spans: &[Span]) {
    let exe = std::env::current_exe().ok();
    let Some(dir) = exe.as_deref().and_then(|e| e.parent()?.parent()) else {
        eprintln!("e2ebench: no build directory to keep results in");
        return;
    };
    let dir = dir.join("e2ebench-results");
    let stem = format!("{}-seed{}-trace{}", a.workload.name, a.seed, u8::from(a.trace));
    let kept = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            let body = format!("{{\"provenance\": {provenance}, \"result\": {result}}}\n");
            std::fs::write(dir.join(format!("{stem}.json")), body)
        })
        .and_then(|()| {
            if spans.is_empty() {
                Ok(())
            } else {
                trace::write_jsonl(spans, &dir.join(format!("{stem}-spans.jsonl")))
            }
        });
    if let Err(e) = kept {
        eprintln!("e2ebench: could not keep results in {}: {e}", dir.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists every metric under the unit the binary
    /// prints, and every workload with the reason the binary records.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"unit\":").count(), END_TO_END.len() + PER_LAYER.len());
        for wl in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": {}}}", wl.name, json_str(wl.why));
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn args_need_every_flag_and_reject_bad_values() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        assert!(parse("--workload victims-small --seed 3 --seconds 8 --trace 1").is_ok());
        for bad in [
            "--workload victims-small --seed 3 --seconds 8",
            "--workload nope --seed 3 --seconds 8 --trace 0",
            "--workload victims-small --seed -1 --seconds 8 --trace 0",
            "--workload victims-small --seed 3 --seconds NaN --trace 0",
            "--workload victims-small --seed 3 --seconds 8 --trace 2",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
