//! §4.2 — groups: Table 2 and Figure 3.

use std::collections::HashSet;

use steam_model::GroupKind;

use crate::context::Ctx;

/// Table 2: kind breakdown of the top-N largest groups.
#[derive(Clone, Debug)]
pub struct GroupTypeBreakdown {
    pub top_n: usize,
    /// `(kind, count, share)` sorted by count descending.
    pub rows: Vec<(GroupKind, usize, f64)>,
}

/// Sizes of all groups (member counts), indexed like the groups section.
pub fn group_sizes(ctx: &Ctx) -> Vec<u64> {
    let mut sizes = vec![0u64; ctx.world.groups().len()];
    ctx.visit_memberships(&mut |_, ms| {
        for &g in ms {
            sizes[g as usize] += 1;
        }
    });
    sizes
}

/// Computes Table 2 over the `top_n` largest groups.
pub fn group_type_breakdown(ctx: &Ctx, top_n: usize) -> GroupTypeBreakdown {
    let sizes = group_sizes(ctx);
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&g| std::cmp::Reverse(sizes[g]));
    let top_n = top_n.min(order.len());
    let mut counts = [0usize; 6];
    for &g in &order[..top_n] {
        counts[ctx.world.groups()[g].kind.tag() as usize] += 1;
    }
    let mut rows: Vec<(GroupKind, usize, f64)> = GroupKind::ALL
        .into_iter()
        .map(|k| {
            let c = counts[k.tag() as usize];
            (k, c, c as f64 / top_n.max(1) as f64)
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    GroupTypeBreakdown { top_n, rows }
}

/// Figure 3's underlying data: for each group with at least `min_members`
/// members, the number of distinct games its members have played.
#[derive(Clone, Debug)]
pub struct GroupGameDiversity {
    pub min_members: u64,
    /// `(group index, members, distinct games played by members)`.
    pub rows: Vec<(u32, u64, u32)>,
    /// §4.2: share of these groups whose members devote ≥90% of their
    /// collective playtime to a single game.
    pub single_game_focus_share: f64,
}

/// Computes Figure 3's data.
pub fn group_game_diversity(ctx: &Ctx, min_members: u64) -> GroupGameDiversity {
    let sizes = group_sizes(ctx);
    let qualifying: Vec<u32> = (0..sizes.len() as u32)
        .filter(|&g| sizes[g as usize] >= min_members)
        .collect();
    // For each qualifying group accumulate distinct played games and
    // playtime concentration.
    let mut distinct: Vec<HashSet<u32>> = vec![HashSet::new(); qualifying.len()];
    let mut top_game_minutes: Vec<std::collections::HashMap<u32, u64>> =
        vec![std::collections::HashMap::new(); qualifying.len()];
    let slot_of_group: std::collections::HashMap<u32, usize> = qualifying
        .iter()
        .enumerate()
        .map(|(slot, &g)| (g, slot))
        .collect();

    ctx.visit_membership_libs(&mut |_, ms, lib| {
        if ms.is_empty() {
            return;
        }
        for &g in ms {
            if let Some(&slot) = slot_of_group.get(&g) {
                for o in lib {
                    if o.played() {
                        if let Some(&gi) = ctx.app_index.get(&o.app_id) {
                            distinct[slot].insert(gi);
                            *top_game_minutes[slot].entry(gi).or_insert(0) +=
                                u64::from(o.playtime_forever_min);
                        }
                    }
                }
            }
        }
    });

    let mut focused = 0usize;
    let rows: Vec<(u32, u64, u32)> = qualifying
        .iter()
        .enumerate()
        .map(|(slot, &g)| {
            let minutes = &top_game_minutes[slot];
            let total: u64 = minutes.values().sum();
            let top = minutes.values().copied().max().unwrap_or(0);
            if total > 0 && top as f64 / total as f64 >= 0.9 {
                focused += 1;
            }
            (g, sizes[g as usize], distinct[slot].len() as u32)
        })
        .collect();
    let share = focused as f64 / rows.len().max(1) as f64;
    GroupGameDiversity { min_members, rows, single_game_focus_share: share }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testworld;

    fn ctx() -> Ctx<'static> {
        Ctx::new(&testworld::world().snapshot)
    }

    #[test]
    fn sizes_sum_to_membership_records() {
        let ctx = ctx();
        let sizes = group_sizes(&ctx);
        let total: u64 = sizes.iter().sum();
        assert_eq!(total, ctx.n_memberships());
    }

    #[test]
    fn table2_game_servers_lead() {
        let ctx = ctx();
        let t = group_type_breakdown(&ctx, 250);
        assert_eq!(t.top_n, 250);
        let shares: f64 = t.rows.iter().map(|r| r.2).sum();
        assert!((shares - 1.0).abs() < 1e-9);
        // Game Server should be the (or near the) largest category — it is
        // 45.6% of the universe by construction.
        let top_kind = t.rows[0].0;
        assert!(
            matches!(top_kind, GroupKind::GameServer | GroupKind::SingleGame),
            "top kind = {top_kind:?}"
        );
    }

    #[test]
    fn figure3_large_groups_play_many_games() {
        let ctx = ctx();
        // The 30k test world has smaller groups than the paper's 100-member
        // threshold would suggest; use a lower threshold with the same code
        // path.
        let d = group_game_diversity(&ctx, 20);
        assert!(!d.rows.is_empty(), "no qualifying groups");
        for &(_, members, _) in &d.rows {
            assert!(members >= 20);
        }
        // Most sizeable groups' members collectively play many games.
        let median_distinct = {
            let mut v: Vec<u32> = d.rows.iter().map(|r| r.2).collect();
            v.sort_unstable();
            v[v.len() / 2]
        };
        assert!(median_distinct > 10, "median distinct games = {median_distinct}");
        // Only a small minority are single-game focused (§4.2: 4.97%).
        assert!(
            d.single_game_focus_share < 0.25,
            "focus share = {}",
            d.single_game_focus_share
        );
    }

    #[test]
    fn figure3_min_members_filter() {
        let ctx = ctx();
        let strict = group_game_diversity(&ctx, 1_000_000);
        assert!(strict.rows.is_empty());
        assert_eq!(strict.single_game_focus_share, 0.0);
    }
}
