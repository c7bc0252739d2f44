//! Conduit #0: in-process loopback.
//!
//! All "processes" share one address space; a link is a mutexed queue.
//! The default fabric never constructs this — in-process jobs deliver
//! `AmMessage`s directly, with no wire encoding — but the loopback
//! conduit gives conformance tests and benches a baseline implementation
//! of the exact trait contract the shm and socket backends must match.

use super::{Conduit, ConduitEvent, Inbound};
use crate::Rank;
use std::sync::Arc;

struct Mesh {
    /// One inbound event queue per rank.
    inbound: Vec<Inbound>,
}

/// One rank's attach point to an in-process loopback mesh.
pub struct LoopbackConduit {
    mesh: Arc<Mesh>,
    me: Rank,
}

impl LoopbackConduit {
    /// Build a fully-connected `n`-rank mesh; element `r` is rank `r`'s
    /// conduit.
    pub fn mesh(n: usize) -> Vec<LoopbackConduit> {
        let mesh = Arc::new(Mesh {
            inbound: (0..n).map(|_| Inbound::default()).collect(),
        });
        (0..n)
            .map(|me| LoopbackConduit {
                mesh: Arc::clone(&mesh),
                me,
            })
            .collect()
    }
}

impl Conduit for LoopbackConduit {
    fn ranks(&self) -> usize {
        self.mesh.inbound.len()
    }

    fn my_rank(&self) -> Rank {
        self.me
    }

    fn send(&self, dst: Rank, frame: &[u8]) {
        self.mesh.inbound[dst]
            .lock()
            .push_back(ConduitEvent::Frame(self.me, frame.to_vec()));
    }

    fn try_recv(&self) -> Option<ConduitEvent> {
        self.mesh.inbound[self.me].lock().pop_front()
    }

    fn flush(&self, _dst: Rank) {
        // A send lands in the destination queue before `send` returns;
        // every frame has already "left this process".
    }

    fn shutdown(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_arrive_in_order_exactly_once() {
        let mesh = LoopbackConduit::mesh(3);
        for i in 0..10u8 {
            mesh[0].send(2, &[i]);
            mesh[1].send(2, &[100 + i]);
        }
        let mut from0 = Vec::new();
        let mut from1 = Vec::new();
        while let Some(ev) = mesh[2].try_recv() {
            match ev {
                ConduitEvent::Frame(0, f) => from0.push(f[0]),
                ConduitEvent::Frame(1, f) => from1.push(f[0]),
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(from0, (0..10).collect::<Vec<u8>>());
        assert_eq!(from1, (100..110).collect::<Vec<u8>>());
        assert!(mesh[2].try_recv().is_none(), "exactly once");
        assert!(mesh[0].try_recv().is_none(), "no self-delivery");
    }
}
