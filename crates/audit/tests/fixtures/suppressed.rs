//! Known-good fixture: every violation here carries a reasoned pragma, so
//! the file must produce zero findings — a token rule and a cross-file
//! family alike.

fn reduce_above(xs: &[f32]) -> f32 {
    // ca-audit: allow(unordered-reduce) — fixture exercising line-above suppression
    ca_par::map(xs, |_, &x| x * x).iter().sum::<f32>()
}

fn reduce_inline(xs: &[f32]) -> f32 {
    ca_par::map(xs, |_, &x| x).iter().sum::<f32>() // ca-audit: allow(unordered-reduce) — same line
}

fn pinned() -> StdRng {
    // ca-audit: allow(seed-discipline) — a cross-file family suppresses the same way
    StdRng::seed_from_u64(42)
}
