//! Known-bad fixture: exact-scan must fire on every direct
//! `.score_batch(` call outside the shared retrieval path (the engine
//! module), where a full-catalog scan bypasses the Top-k entry points that
//! own seen-item exclusion, the deterministic tie-break and the pooled
//! buffers.

fn rank_everything(engine: &Engine, users: &[UserId], out: &mut Matrix) {
    engine.score_batch(users, out) // MARK: method call fires
}

fn rank_chained(engine: &Engine, users: &[UserId]) -> Matrix {
    let mut out = Matrix::zeros(users.len(), engine.n_items());
    engine.as_ref().score_batch(users, &mut out); // MARK: chained call fires
    out
}

// A definition is the implementation, not a bypass: no leading dot.
fn score_batch(users: &[UserId], out: &mut Matrix) {
    out.fill(0.0);
}

trait Scoring {
    // Trait declarations must stay silent too.
    fn score_batch(&self, users: &[UserId], out: &mut Matrix);
}

fn ranked_properly(engine: &Engine, users: &[UserId]) -> Vec<Vec<ItemId>> {
    // The blessed entry point: must stay silent.
    batch_top_k(engine, users, 20)
}

fn mentioned_in_prose() {
    // score_batch( in a comment never fires, nor does "score_batch(" here:
    let _doc = "call engine.score_batch(users, &mut out) at your peril";
}
