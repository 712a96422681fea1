//! The seeded, skewed read mix of the `routed` workload.
//!
//! Traffic to Steam concentrates on a few popular players and games (the
//! popularity skew De Luisa et al. report), so users, apps and groups are
//! drawn with Zipf weights over their popularity in the served world:
//! users by friend count, apps by owner count, groups by member count. The
//! mix is a finite set of distinct targets with weights, so every target
//! can be fetched once from both front doors and compared before timing.
//!
//! Ranking by popularity, not by a random draw, also keeps the mix's cost
//! steady across seeds: the Zipf head is always the most connected users,
//! where a random head would be a few arbitrary users whose list sizes
//! decide the cost of the whole mix.

/// Deterministic splitmix64 stream: the mix must not depend on a platform
/// RNG.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `0..n` ordered by `key` descending, ties in seeded order.
    pub fn rank_by(&mut self, key: &[usize]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..key.len()).collect();
        for i in (1..idx.len()).rev() {
            idx.swap(i, self.below(i + 1));
        }
        idx.sort_by_key(|&i| std::cmp::Reverse(key[i]));
        idx
    }
}

/// Zipf weights `1 / rank` over `n` ranks, normalized to sum to 1.
fn zipf(n: usize) -> Vec<f64> {
    let raw: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// The entities of a served world the mix draws from, each ranked most
/// popular first.
pub struct Universe {
    /// Steam ids with the shard (of 2) that owns each.
    pub users: Vec<(u64, usize)>,
    pub apps: Vec<u32>,
    pub groups: Vec<u32>,
}

impl Universe {
    /// Ranks a snapshot's users, apps and groups; `shard` names the shard
    /// that owns a user.
    pub fn rank(
        snap: &steam_model::Snapshot,
        seed: u64,
        shard: impl Fn(steam_model::SteamId) -> usize,
    ) -> Universe {
        let mut rng = Rng::new(seed ^ 0x7261_6e6b_5f73_6565);
        let mut degree = vec![0usize; snap.n_users()];
        for f in &snap.friendships {
            degree[f.a as usize] += 1;
            degree[f.b as usize] += 1;
        }
        let app_index = snap.catalog_index();
        let mut owners = vec![0usize; snap.catalog.len()];
        for g in snap.ownerships.iter().flatten() {
            if let Some(&i) = app_index.get(&g.app_id) {
                owners[i as usize] += 1;
            }
        }
        let mut members = vec![0usize; snap.groups.len()];
        for &g in snap.memberships.iter().flatten() {
            members[g as usize] += 1;
        }
        Universe {
            users: rng
                .rank_by(&degree)
                .into_iter()
                .map(|i| (snap.accounts[i].id.as_u64(), shard(snap.accounts[i].id)))
                .collect(),
            apps: rng
                .rank_by(&owners)
                .into_iter()
                .map(|i| snap.catalog[i].app_id.0)
                .collect(),
            groups: rng
                .rank_by(&members)
                .into_iter()
                .map(|i| snap.groups[i].id.0)
                .collect(),
        }
    }
}

/// Shares of the mix, in request counts.
const SHARE_BATCH: f64 = 0.15;
const SHARE_USER: f64 = 0.60;
const SHARE_APP: f64 = 0.20;
const SHARE_GROUP: f64 = 0.04;
const SHARE_APPLIST: f64 = 0.01;

/// Ranked universe sizes: small enough that the shards' wire caches
/// (8,192 entries each) hold every target, so the timed loop mostly hits.
const HOT_USERS: usize = 2000;
const HOT_APPS: usize = 500;
const HOT_GROUPS: usize = 128;
const BATCHES: usize = 128;
/// API keys per run: twice the limiter's default key bound, so its key
/// map fills and evicts.
pub const KEYS: usize = 8192;

pub struct Mix {
    /// Distinct request targets, without the `key` parameter.
    pub targets: Vec<String>,
    /// Cumulative weights over `targets`, ending at 1.
    cdf: Vec<f64>,
    pub keys: Vec<String>,
}

impl Mix {
    pub fn new(u: &Universe, seed: u64) -> Mix {
        let mut rng = Rng::new(seed ^ 0x6d69_785f_7365_6564);
        let mut targets = Vec::new();
        let mut weights = Vec::new();

        let hot_users = &u.users[..HOT_USERS.min(u.users.len())];
        for (&(id, _), w) in hot_users.iter().zip(zipf(hot_users.len())) {
            for path in [
                "/ISteamUser/GetFriendList/v1?steamid=",
                "/IPlayerService/GetOwnedGames/v1?steamid=",
                "/ISteamUser/GetUserGroupList/v1?steamid=",
            ] {
                targets.push(format!("{path}{id}"));
                weights.push(SHARE_USER * w / 3.0);
            }
        }
        let hot_apps = &u.apps[..HOT_APPS.min(u.apps.len())];
        for (&app, w) in hot_apps.iter().zip(zipf(hot_apps.len())) {
            targets.push(format!("/api/appdetails?appids={app}"));
            targets.push(format!(
                "/ISteamUserStats/GetGlobalAchievementPercentagesForApp/v2?gameid={app}"
            ));
            weights.extend([SHARE_APP * w / 2.0; 2]);
        }
        let hot_groups = &u.groups[..HOT_GROUPS.min(u.groups.len())];
        for (&gid, w) in hot_groups.iter().zip(zipf(hot_groups.len())) {
            targets.push(format!("/community/group/{gid}"));
            weights.push(SHARE_GROUP * w);
        }
        // Batches of 2–100 ids, sizes spread evenly over that range, that
        // always name both shards, so the router splits, fans out and
        // merges every one of them.
        let by_shard: [Vec<u64>; 2] = [0, 1].map(|s| {
            u.users
                .iter()
                .filter(|&&(_, shard)| shard == s)
                .map(|&(id, _)| id)
                .collect()
        });
        for b in 0..BATCHES {
            let size = 2 + b * 98 / (BATCHES - 1);
            let mut ids = vec![
                by_shard[0][rng.below(by_shard[0].len())],
                by_shard[1][rng.below(by_shard[1].len())],
            ];
            while ids.len() < size {
                ids.push(u.users[rng.below(u.users.len())].0);
            }
            let joined: Vec<String> = ids.iter().map(u64::to_string).collect();
            targets.push(format!(
                "/ISteamUser/GetPlayerSummaries/v2?steamids={}",
                joined.join(",")
            ));
            weights.push(SHARE_BATCH / BATCHES as f64);
        }
        targets.push("/ISteamApps/GetAppList/v2".into());
        weights.push(SHARE_APPLIST);

        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        let keys = (0..KEYS)
            .map(|_| format!("{:016x}", rng.next_u64()))
            .collect();
        Mix { targets, cdf, keys }
    }

    /// The request sequence of connection `conn`: the same seed and
    /// connection always give the same sequence.
    pub fn stream(&self, seed: u64, conn: u64) -> Stream<'_> {
        Stream {
            mix: self,
            rng: Rng::new(seed ^ conn.wrapping_add(1).wrapping_mul(0xa076_1d64_78bd_642f)),
        }
    }

    /// The full request target for target `t` under key `k`.
    pub fn request(&self, t: usize, k: usize) -> String {
        let target = &self.targets[t];
        let sep = if target.contains('?') { '&' } else { '?' };
        format!("{target}{sep}key={}", self.keys[k])
    }
}

pub struct Stream<'a> {
    mix: &'a Mix,
    rng: Rng,
}

impl Iterator for Stream<'_> {
    /// `(target index, key index)`.
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let u = self.rng.unit();
        let t = self
            .mix
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.mix.cdf.len() - 1);
        Some((t, self.rng.below(self.mix.keys.len())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> Universe {
        Universe {
            users: (0..5000u64)
                .map(|i| (76_561_197_960_265_728 + i, (i % 2) as usize))
                .collect(),
            apps: (10..900).collect(),
            groups: (1..300).collect(),
        }
    }

    fn sequence(mix: &Mix, seed: u64, conn: u64) -> Vec<String> {
        mix.stream(seed, conn)
            .take(2000)
            .map(|(t, k)| mix.request(t, k))
            .collect()
    }

    #[test]
    fn same_seed_same_sequence() {
        let u = universe();
        let (a, b) = (Mix::new(&u, 2016), Mix::new(&u, 2016));
        assert_eq!(a.targets, b.targets);
        assert_eq!(sequence(&a, 2016, 0), sequence(&b, 2016, 0));
        assert_eq!(sequence(&a, 2016, 1), sequence(&b, 2016, 1));
    }

    #[test]
    fn different_seed_or_connection_different_sequence() {
        let u = universe();
        let (a, b) = (Mix::new(&u, 2016), Mix::new(&u, 2017));
        assert_ne!(a.targets, b.targets);
        assert_ne!(sequence(&a, 2016, 0), sequence(&b, 2017, 0));
        assert_ne!(sequence(&a, 2016, 0), sequence(&a, 2016, 1));
    }

    #[test]
    fn shares_and_batches_match_the_design() {
        let u = universe();
        let mix = Mix::new(&u, 7);
        let n = 200_000;
        let mut counts = [0usize; 5];
        for (t, _) in mix.stream(7, 0).take(n) {
            let target = &mix.targets[t];
            let class = if target.contains("GetPlayerSummaries") {
                0
            } else if target.contains("steamid=") {
                1
            } else if target.contains("appid") || target.contains("gameid") {
                2
            } else if target.starts_with("/community/group/") {
                3
            } else {
                4
            };
            counts[class] += 1;
        }
        let shares = [
            SHARE_BATCH,
            SHARE_USER,
            SHARE_APP,
            SHARE_GROUP,
            SHARE_APPLIST,
        ];
        for (c, want) in counts.iter().zip(shares) {
            let got = *c as f64 / n as f64;
            assert!((got - want).abs() < 0.01, "share {got} vs {want}");
        }
        for t in mix.targets.iter().filter(|t| t.contains("steamids=")) {
            let ids: Vec<u64> = t
                .split("steamids=")
                .nth(1)
                .unwrap()
                .split(',')
                .map(|s| s.parse().unwrap())
                .collect();
            assert!((2..=100).contains(&ids.len()));
            let shards: Vec<usize> = ids.iter().map(|id| (id % 2) as usize).collect();
            assert!(
                shards.contains(&0) && shards.contains(&1),
                "batch must span both shards"
            );
        }
    }

    #[test]
    fn popular_targets_dominate() {
        let u = universe();
        let mix = Mix::new(&u, 3);
        let mut hits = vec![0usize; mix.targets.len()];
        for (t, _) in mix.stream(3, 0).take(100_000) {
            hits[t] += 1;
        }
        // The top-ranked user's three reads outdraw a mid-ranked user's.
        let top: usize = hits[0..3].iter().sum();
        let mid: usize = hits[3000..3003].iter().sum();
        assert!(top > 20 * mid.max(1), "top {top} vs mid {mid}");
    }
}
