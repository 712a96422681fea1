//! Friendship-graph evolution over time (Figures 1 and 2).
//!
//! Steam records friendship creation timestamps since September 2008. The
//! paper plots (i) cumulative users and friendships per year and (ii) the
//! friend-degree distribution both per-year ("2011 only") and cumulatively
//! ("through 2011").

use steam_model::{Friendship, SimTime};

/// One row of Figure 1: the state of the network at the end of a year.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct YearPoint {
    pub year: i32,
    /// Accounts created on or before Dec 31 of `year`.
    pub cumulative_users: u64,
    /// Friendships (with recorded timestamps) formed on or before that date.
    pub cumulative_friendships: u64,
    /// Friendships formed during `year` alone.
    pub new_friendships: u64,
}

/// Computes Figure 1's series from account creation times and timestamped
/// edges, for years `first..=last` inclusive. The edges come from a visitor
/// instead of a slice, so a streamed world feeds them chunk by chunk
/// without materializing the edge list.
pub fn yearly_evolution_with<F>(
    account_created: &[SimTime],
    visit_edges: F,
    first: i32,
    last: i32,
) -> Vec<YearPoint>
where
    F: Fn(&mut dyn FnMut(&Friendship)),
{
    assert!(first <= last);
    let n_years = (last - first + 1) as usize;
    let mut users = vec![0u64; n_years];
    let mut edges_new = vec![0u64; n_years];
    let mut users_before = 0u64;
    let mut edges_before = 0u64;

    for t in account_created {
        let y = t.year();
        if y < first {
            users_before += 1;
        } else if y <= last {
            users[(y - first) as usize] += 1;
        }
    }
    visit_edges(&mut |e| {
        let y = e.created_at.year();
        if y < first {
            edges_before += 1;
        } else if y <= last {
            edges_new[(y - first) as usize] += 1;
        }
    });

    let mut out = Vec::with_capacity(n_years);
    let mut cu = users_before;
    let mut ce = edges_before;
    for i in 0..n_years {
        cu += users[i];
        ce += edges_new[i];
        out.push(YearPoint {
            year: first + i as i32,
            cumulative_users: cu,
            cumulative_friendships: ce,
            new_friendships: edges_new[i],
        });
    }
    out
}

/// Per-node degree counting only edges created in `[from, to]` (inclusive,
/// by calendar year). Passing `i32::MIN` as `from` gives the "through year"
/// cumulative variant of Figure 2. The reference for [`YearlyDegrees`],
/// which answers every such window from one pass.
pub fn degrees_in_years(
    n_nodes: usize,
    friendships: &[Friendship],
    from: i32,
    to: i32,
) -> Vec<u32> {
    let mut deg = vec![0u32; n_nodes];
    for e in friendships {
        let y = e.created_at.year();
        if y >= from && y <= to {
            deg[e.a as usize] += 1;
            deg[e.b as usize] += 1;
        }
    }
    deg
}

/// Per-node friendship counts by creation year: every "Y only" and every
/// "through Y" degree vector of Figure 2 and Table 4 for `first..=last`,
/// built by [`yearly_degrees_with`] in one pass over the edges.
#[derive(Clone, Debug, PartialEq)]
pub struct YearlyDegrees {
    first: i32,
    /// Friendships created before `first`, per node.
    before: Vec<u32>,
    /// `per_year[i][u]`: friendships of `u` created in year `first + i`;
    /// every vector is as long as `before`.
    per_year: Vec<Vec<u32>>,
}

impl YearlyDegrees {
    fn index(&self, year: i32) -> usize {
        let i = year - self.first;
        assert!(
            (0..self.per_year.len() as i32).contains(&i),
            "year {year} outside the counted years"
        );
        i as usize
    }

    /// Degrees counting only friendships created in `year`.
    pub fn year_only(&self, year: i32) -> &[u32] {
        &self.per_year[self.index(year)]
    }

    /// Degrees counting friendships created in or before `year`: the
    /// running sum of the yearly counts.
    pub fn through(&self, year: i32) -> Vec<u32> {
        let mut deg = self.before.clone();
        for counts in &self.per_year[..=self.index(year)] {
            for (d, &c) in deg.iter_mut().zip(counts) {
                *d += c;
            }
        }
        deg
    }
}

/// Counts each node's friendships created before `first` and in each year
/// `first..=last` (edges after `last` are skipped), with edges supplied by
/// a visitor (see [`yearly_evolution_with`]) — one pass for every yearly
/// degree vector instead of one pass per window.
pub fn yearly_degrees_with<F>(
    n_nodes: usize,
    visit_edges: F,
    first: i32,
    last: i32,
) -> YearlyDegrees
where
    F: Fn(&mut dyn FnMut(&Friendship)),
{
    assert!(first <= last);
    let mut before = vec![0u32; n_nodes];
    let mut per_year = vec![vec![0u32; n_nodes]; (last - first + 1) as usize];
    visit_edges(&mut |e| {
        let y = e.created_at.year();
        let deg = if y < first {
            &mut before
        } else if y <= last {
            &mut per_year[(y - first) as usize]
        } else {
            return;
        };
        deg[e.a as usize] += 1;
        deg[e.b as usize] += 1;
    });
    YearlyDegrees { first, before, per_year }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(y: i32) -> SimTime {
        SimTime::from_ymd(y, 6, 15)
    }

    #[test]
    fn cumulative_counts() {
        let created = vec![t(2008), t(2009), t(2009), t(2011)];
        let edges = [
            Friendship::new(0, 1, t(2009)),
            Friendship::new(0, 2, t(2010)),
            Friendship::new(1, 2, t(2010)),
            Friendship::new(0, 3, t(2011)),
        ];
        let ev = yearly_evolution_with(&created, |f| edges.iter().for_each(f), 2008, 2011);
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0], YearPoint { year: 2008, cumulative_users: 1, cumulative_friendships: 0, new_friendships: 0 });
        assert_eq!(ev[1].cumulative_users, 3);
        assert_eq!(ev[1].cumulative_friendships, 1);
        assert_eq!(ev[2].cumulative_friendships, 3);
        assert_eq!(ev[2].new_friendships, 2);
        assert_eq!(ev[3].cumulative_users, 4);
        assert_eq!(ev[3].cumulative_friendships, 4);
    }

    #[test]
    fn pre_window_counts_roll_in() {
        let created = vec![t(2005), t(2010)];
        let edges = [Friendship::new(0, 1, t(2006))];
        let ev = yearly_evolution_with(&created, |f| edges.iter().for_each(f), 2009, 2010);
        assert_eq!(ev[0].cumulative_users, 1);
        assert_eq!(ev[0].cumulative_friendships, 1);
        assert_eq!(ev[0].new_friendships, 0);
        assert_eq!(ev[1].cumulative_users, 2);
    }

    #[test]
    fn degrees_filtered_by_year() {
        let edges = vec![
            Friendship::new(0, 1, t(2009)),
            Friendship::new(0, 2, t(2010)),
            Friendship::new(1, 2, t(2012)),
        ];
        // 2010 only.
        assert_eq!(degrees_in_years(3, &edges, 2010, 2010), vec![1, 0, 1]);
        // Through 2010.
        assert_eq!(degrees_in_years(3, &edges, i32::MIN, 2010), vec![2, 1, 1]);
        // Everything.
        assert_eq!(degrees_in_years(3, &edges, i32::MIN, i32::MAX), vec![2, 2, 2]);
    }

    #[test]
    fn one_pass_yearly_degrees_match_every_window() {
        let edges: Vec<Friendship> = (0..60u32)
            .map(|i| Friendship::new(i % 7, (i * 3 + 1) % 11, t(2006 + (i as i32 % 10))))
            .collect();
        let passes = std::cell::Cell::new(0);
        let yearly = yearly_degrees_with(
            11,
            |f| {
                passes.set(passes.get() + 1);
                for e in &edges {
                    f(e);
                }
            },
            2009,
            2013,
        );
        assert_eq!(passes.get(), 1);
        for year in 2009..=2013 {
            let only = degrees_in_years(11, &edges, year, year);
            assert_eq!(yearly.year_only(year), only, "{year} only");
            let through = degrees_in_years(11, &edges, i32::MIN, year);
            assert_eq!(yearly.through(year), through, "through {year}");
        }
        assert_eq!(yearly.before, degrees_in_years(11, &edges, i32::MIN, 2008));
    }

    #[test]
    fn monotone_cumulative_series() {
        let created: Vec<SimTime> = (0..50).map(|i| t(2008 + (i % 6))).collect();
        let edges: Vec<Friendship> = (0..40u32)
            .map(|i| Friendship::new(i, i + 1, t(2008 + (i as i32 % 6))))
            .collect();
        let ev = yearly_evolution_with(&created, |f| edges.iter().for_each(f), 2008, 2013);
        for w in ev.windows(2) {
            assert!(w[1].cumulative_users >= w[0].cumulative_users);
            assert!(w[1].cumulative_friendships >= w[0].cumulative_friendships);
        }
        assert_eq!(ev.last().unwrap().cumulative_friendships, 40);
    }
}
