//! Teams: groups of ranks with their own collectives and group `async`.
//!
//! The paper's `async(place)` accepts "a single thread ID or a group of
//! threads" (§III-G); production UPC++ grew this into first-class teams
//! with `team_split`. A [`Team`] is an ordered subset of the world's
//! ranks; members can run team-scoped barriers, broadcasts, reductions
//! and gathers that touch only team members, and spawn asyncs on every
//! member at once.
//!
//! Teams are created collectively by [`Ctx::team_world`] /
//! [`Team::split`] and hold a private mailbox domain, so concurrent
//! collectives on disjoint teams never interfere. This file is the
//! handle; the collective algorithms are `collectives.rs`'s.

use crate::ctx::Ctx;
use rupcxx_net::Rank;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An ordered group of ranks (a per-rank handle; each member holds one).
pub struct Team {
    /// World ranks of the members, in team order.
    pub(crate) members: Arc<[Rank]>,
    /// This rank's index within `members`.
    pub(crate) my_index: usize,
    /// Private mailbox domain (0 is the world's).
    pub(crate) domain: u64,
    /// Team-local collective sequence counter.
    pub(crate) seq: AtomicU64,
    /// Counter for ids of teams split off this one.
    next_child: AtomicU64,
}

fn mix(a: u64, b: u64) -> u64 {
    // SplitMix-style mixing for child-domain ids.
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1 // never 0 (the world domain)
}

impl Ctx {
    /// The team of all ranks, in rank order. Cheap; not collective.
    pub fn team_world(&self) -> Team {
        // A fixed private domain, distinct from the Ctx collectives'
        // domain 0. NOTE: as with MPI communicators, create one handle
        // per team per rank and reuse it; interleaving collectives of
        // two handles to the same team is unsupported.
        let domain = mix(0x57_4F_52_4C_44, 0); // "WORLD"
        Team::new(self.world().members.clone(), self.rank(), domain)
    }
}

impl Team {
    /// A fresh handle: no collective run, no team split off yet. Domain 0
    /// is the world team's, the one [`Ctx`]'s own collectives run over
    /// (every rank in rank order; built once per rank at launch, never
    /// handed out).
    pub(crate) fn new(members: Arc<[Rank]>, my_index: usize, domain: u64) -> Team {
        Team {
            members,
            my_index,
            domain,
            seq: AtomicU64::new(0),
            next_child: AtomicU64::new(0),
        }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// My index within the team (the team-relative rank).
    pub fn my_index(&self) -> usize {
        self.my_index
    }

    /// World rank of team member `i`.
    pub fn member(&self, i: usize) -> Rank {
        self.members[i]
    }

    /// All members, in team order.
    pub fn members(&self) -> &[Rank] {
        &self.members
    }

    /// Collectively split this team by `color`: members with equal colors
    /// form new sub-teams, ordered by `(key, world rank)`. Every member of
    /// `self` must call. Mirrors `MPI_Comm_split` / UPC++ `team::split`.
    pub fn split(&self, ctx: &Ctx, color: u64, key: u64) -> Team {
        // Gather (color, key, world_rank) from every member via the
        // team's own collective machinery.
        let triples = self.allgatherv(ctx, &[color, key, ctx.rank() as u64]);
        let mut mine: Vec<(u64, u64)> = triples
            .chunks_exact(3)
            .filter(|c| c[0] == color)
            .map(|c| (c[1], c[2]))
            .collect();
        mine.sort_unstable();
        let members: Vec<Rank> = mine.iter().map(|&(_, r)| r as Rank).collect();
        let my_index = members
            .iter()
            .position(|&r| r == ctx.rank())
            .expect("caller is in its own color class");
        // Child domain: deterministic on (parent domain, split#, color) —
        // identical on every member because all members see the same
        // parent split counter value.
        let split_no = self.next_child.fetch_add(1, Ordering::Relaxed);
        let domain = mix(mix(self.domain, split_no), color);
        Team::new(members.into(), my_index, domain)
    }

    /// Spawn `task` on every member (the group-`place` form of the
    /// paper's `async`); completion is awaited by the surrounding
    /// `finish` scope.
    pub fn spawn_all(
        &self,
        fs: &crate::FinishScope<'_>,
        task: impl Fn(&Ctx) + Clone + Send + 'static,
    ) {
        for &m in self.members.iter() {
            let t = task.clone();
            fs.spawn(m, move |c| t(c));
        }
    }
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("size", &self.size())
            .field("my_index", &self.my_index)
            .field("domain", &self.domain)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::spmd;
    use crate::RuntimeConfig;
    use std::sync::atomic::AtomicUsize;

    fn cfg(n: usize) -> RuntimeConfig {
        RuntimeConfig::new(n).segment_bytes(1 << 14)
    }

    #[test]
    fn world_team_mirrors_ranks() {
        spmd(cfg(4), |ctx| {
            let w = ctx.team_world();
            assert_eq!(w.size(), 4);
            assert_eq!(w.my_index(), ctx.rank());
            assert_eq!(w.members(), &[0, 1, 2, 3]);
        });
    }

    #[test]
    fn split_key_reorders_members() {
        let out = spmd(cfg(4), |ctx| {
            let w = ctx.team_world();
            // Reverse order via descending keys.
            let t = w.split(ctx, 0, (ctx.ranks() - ctx.rank()) as u64);
            (t.my_index(), t.members().to_vec())
        });
        for (r, (idx, members)) in out.into_iter().enumerate() {
            assert_eq!(members, vec![3, 2, 1, 0]);
            assert_eq!(idx, 3 - r);
        }
    }

    #[test]
    fn concurrent_collectives_on_disjoint_teams_do_not_interfere() {
        // Two disjoint teams hammer allreduce concurrently; domains keep
        // their mailboxes separate.
        let out = spmd(cfg(6), |ctx| {
            let w = ctx.team_world();
            let t = w.split(ctx, (ctx.rank() % 3) as u64, 0);
            let mut acc = 0u64;
            for i in 0..50 {
                acc = acc.wrapping_add(t.allreduce(ctx, ctx.rank() as u64 + i, |a, b| a + b));
            }
            acc
        });
        // Teams: {0,3}, {1,4}, {2,5}. Σ_i (r + r' + 2i) for i in 0..50.
        let expect = |a: u64, b: u64| (0..50u64).map(|i| a + b + 2 * i).sum::<u64>();
        assert_eq!(out[0], expect(0, 3));
        assert_eq!(out[3], expect(0, 3));
        assert_eq!(out[1], expect(1, 4));
        assert_eq!(out[2], expect(2, 5));
    }

    #[test]
    fn nested_splits() {
        let out = spmd(cfg(8), |ctx| {
            let w = ctx.team_world();
            let half = w.split(ctx, (ctx.rank() / 4) as u64, ctx.rank() as u64);
            let quarter = half.split(ctx, (ctx.rank() % 4 / 2) as u64, ctx.rank() as u64);
            quarter.allreduce(ctx, 1u64, |a, b| a + b)
        });
        assert!(out.iter().all(|&v| v == 2), "{out:?}");
    }

    #[test]
    fn team_spawn_all_runs_on_each_member() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        spmd(cfg(4), move |ctx| {
            let w = ctx.team_world();
            let t = w.split(ctx, u64::from(ctx.rank() < 2), 0);
            if ctx.rank() == 0 {
                let h = h.clone();
                ctx.finish(|fs| {
                    t.spawn_all(fs, move |tctx| {
                        assert!(tctx.rank() < 2);
                        h.fetch_add(1, Ordering::SeqCst);
                    });
                });
            }
            ctx.barrier();
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn singleton_team_operations() {
        spmd(cfg(3), |ctx| {
            let w = ctx.team_world();
            let solo = w.split(ctx, ctx.rank() as u64, 0);
            assert_eq!(solo.size(), 1);
            solo.barrier(ctx);
            assert_eq!(solo.broadcast(ctx, 0, 7u64), 7);
            assert_eq!(solo.allreduce(ctx, 5u64, |a, b| a + b), 5);
            assert_eq!(
                solo.allgatherv(ctx, &[ctx.rank() as u64]),
                vec![ctx.rank() as u64]
            );
        });
    }
}
