//! Shared plumbing for the experiment binaries: tiny CLI parsing, aligned
//! table printing, timing, and the one writer per results format in
//! `results/` ([`write_csv`], [`write_json`]).
//!
//! Every table and figure of the paper has a `src/bin/*.rs` binary here;
//! run them with e.g.
//!
//! ```text
//! cargo run --release -p copyattack-bench --bin table2 -- --preset=ml10m --items=50
//! ```

#![allow(
    clippy::print_stdout,
    reason = "printing result tables is this crate's purpose; the widened library clippy pass in \
              CI bans println! everywhere else"
)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use copyattack::detect::features::PopularityIndex;
use copyattack::detect::{extract_features, ZScoreDetector};
use copyattack::pipeline::{Pipeline, PipelineConfig};
use copyattack::recsys::{ItemId, UserId};
use copyattack::tensor::Matrix;

pub mod budget_sweep;

/// `--key=value` argument bag with typed getters.
pub struct Args {
    map: HashMap<String, String>,
}

impl Args {
    /// Parses the process arguments (ignores anything not `--key=value`).
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn from_args(iter: impl IntoIterator<Item = String>) -> Self {
        let mut map = HashMap::new();
        for arg in iter {
            if let Some(rest) = arg.strip_prefix("--") {
                if let Some((k, v)) = rest.split_once('=') {
                    map.insert(k.to_string(), v.to_string());
                }
            }
        }
        Self { map }
    }

    /// String value with default.
    pub fn get(&self, key: &str, default: &str) -> String {
        self.map.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Parsed value with default.
    pub fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.map.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }
}

/// Resolves a `--preset=` name into a pipeline configuration.
///
/// # Panics
/// Panics on an unknown preset name.
pub fn preset(name: &str, seed: u64) -> PipelineConfig {
    match name {
        "tiny" => PipelineConfig::tiny(seed),
        "small" => PipelineConfig::small(seed),
        "ml10m" => PipelineConfig::ml10m_fx(seed),
        "ml20m" => PipelineConfig::ml20m_nf(seed),
        other => panic!("unknown preset {other:?} (expected tiny|small|ml10m|ml20m)"),
    }
}

/// The z-score detector screen fitted on the genuine population: the one
/// fit the arena and `detect_evasion` share.
pub struct GenuineScreen {
    /// The detector, fitted on every clean user's features.
    pub detector: ZScoreDetector,
    /// Item popularity on the clean split.
    pub pop: PopularityIndex,
    /// Item embeddings of a 10-epoch MF on the clean split.
    pub item_emb: Matrix,
    /// The detector's score of every clean user, in user order.
    pub genuine_scores: Vec<f32>,
}

impl GenuineScreen {
    /// Fits the screen on `pipe`'s clean training split; the MF is seeded
    /// `seed ^ 9`.
    pub fn fit(pipe: &Pipeline, seed: u64) -> Self {
        let clean = &pipe.split.train;
        let pop = PopularityIndex::build(clean);
        let item_emb = copyattack::mf::train(
            clean,
            &copyattack::mf::BprConfig { max_epochs: 10, seed: seed ^ 9, ..Default::default() },
        )
        .item_emb;
        let feats: Vec<_> = (0..clean.n_users() as u32)
            .map(|u| extract_features(clean.profile(UserId(u)), &pop, &item_emb))
            .collect();
        let detector = ZScoreDetector::fit(&feats);
        let genuine_scores = feats.iter().map(|f| detector.score(f)).collect();
        Self { detector, pop, item_emb, genuine_scores }
    }

    /// The detector's score of one profile.
    pub fn score(&self, profile: &[ItemId]) -> f32 {
        self.detector.score(&extract_features(profile, &self.pop, &self.item_emb))
    }
}

/// Prints an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut line = String::new();
    for (h, w) in header.iter().zip(&widths) {
        let _ = write!(line, "{h:>w$}  ", w = w);
    }
    println!("{line}");
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{cell:>w$}  ", w = w);
        }
        println!("{line}");
    }
}

/// Where results files go (workspace `results/`).
fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a CSV file into `results/` and reports the path.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let path = results_dir().join(name);
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    std::fs::write(&path, out).expect("write csv");
    println!("wrote {}", path.display());
}

/// Quotes `s` as a JSON string: the bench crate's one copy of string
/// escaping.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A JSON array of values already formatted as JSON text.
pub fn json_list(values: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", values.into_iter().collect::<Vec<_>>().join(", "))
}

/// Renders the layout every `BENCH_*.json` shares: top-level
/// `"key": value` lines, then the array `name` with one object per line.
/// Values are JSON text the caller has already formatted, so each file
/// keeps its own number format; [`json_str`] quotes strings.
pub fn json_doc(top: &[(&str, String)], name: &str, rows: &[Vec<(&str, String)>]) -> String {
    let mut out = String::from("{\n");
    for (key, value) in top {
        let _ = writeln!(out, "  {}: {value},", json_str(key));
    }
    let _ = writeln!(out, "  {}: [", json_str(name));
    for (i, row) in rows.iter().enumerate() {
        let fields: Vec<String> =
            row.iter().map(|(key, value)| format!("{}: {value}", json_str(key))).collect();
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(out, "    {{{}}}{comma}", fields.join(", "));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes [`json_doc`] as `file` into `results/` and reports the path.
pub fn write_json(file: &str, top: &[(&str, String)], name: &str, rows: &[Vec<(&str, String)>]) {
    let path = results_dir().join(file);
    std::fs::write(&path, json_doc(top, name, rows)).expect("write json");
    println!("wrote {}", path.display());
}

/// Runs `f` and returns its value with the wall-clock seconds it took.
/// The pipeline reads no clock; each binary times its own calls.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Formats an f32 with 4 decimals (Table 2 style).
pub fn f4(x: f32) -> String {
    format!("{x:.4}")
}

/// Formats an f32 with 1 decimal.
pub fn f1(x: f32) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_key_values() {
        let a =
            Args::from_args(["--preset=ml10m", "--items=7", "junk", "--flag"].map(String::from));
        assert_eq!(a.get("preset", "tiny"), "ml10m");
        assert_eq!(a.get_parse("items", 0usize), 7);
        assert_eq!(a.get_parse("missing", 42u64), 42);
    }

    #[test]
    fn presets_resolve() {
        assert_eq!(preset("tiny", 1).n_target_items, 4);
        assert_eq!(preset("ml10m", 1).attack.config.tree_depth, 3);
        assert_eq!(preset("ml20m", 1).attack.config.tree_depth, 6);
    }

    #[test]
    #[should_panic(expected = "unknown preset")]
    fn unknown_preset_panics() {
        let _ = preset("nope", 1);
    }

    #[test]
    fn json_doc_writes_the_shared_layout_byte_for_byte() {
        let rows = vec![
            vec![("name", json_str(r#"say "hi" \ bye"#)), ("hr", 0.5f32.to_string())],
            vec![("name", json_str("plain")), ("curve", json_list(["1.0".into(), "2.5".into()]))],
        ];
        let doc =
            json_doc(&[("bench", json_str("demo")), ("seed", 42.to_string())], "cells", &rows);
        assert_eq!(
            doc,
            concat!(
                "{\n",
                "  \"bench\": \"demo\",\n",
                "  \"seed\": 42,\n",
                "  \"cells\": [\n",
                "    {\"name\": \"say \\\"hi\\\" \\\\ bye\", \"hr\": 0.5},\n",
                "    {\"name\": \"plain\", \"curve\": [1.0, 2.5]}\n",
                "  ]\n",
                "}\n",
            )
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f4(0.12341), "0.1234");
        assert_eq!(f1(3.26), "3.3");
    }
}
