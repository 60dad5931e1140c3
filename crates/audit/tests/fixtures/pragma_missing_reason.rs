//! Known-bad fixture: a reasonless pragma is itself a finding and
//! suppresses nothing — the reduction below it must still fire.

fn sneaky(xs: &[f32]) -> f32 {
    // ca-audit: allow(unordered-reduce)
    ca_par::map(xs, |_, &x| x * x).iter().sum::<f32>() // MARK: still fires
}
