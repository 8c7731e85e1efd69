//! Data-carrying collectives with tolerant membership.
//!
//! The world [`crate::Comm`] collectives model *cost only* and require all
//! ranks to participate in every call — correct for an SPMD application,
//! deadlock-prone for background services whose members stop at different
//! virtual times (a prefetch daemon blocked in a barrier while a peer has
//! already shut down would hang the simulation). [`SumAllreduce`] is the
//! service-grade alternative: an element-wise sum allreduce over string-keyed
//! `u64` vectors whose membership can shrink mid-flight — a member that
//! leaves can complete a round its peers are already waiting on.

use std::collections::HashMap;
use std::sync::Arc;

use simrt::sync::{Condvar, Mutex};
use simrt::{dur, sleep};

use crate::comm::NetworkModel;

/// Communication shape a [`SumAllreduce`] charges its contributors for.
///
/// The fusion *result* is identical for every topology — contributions are
/// merged element-wise under one lock either way — and so are the
/// Signal/Wait happens-before edges the wait emits (the sanitizer stays
/// flavor-blind). Only the per-round virtual-time cost differs: how many
/// exchange rounds a real implementation of that shape would take.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FusionTopology {
    /// Classic ring allreduce: `2(n−1)` latency steps, bandwidth-optimal
    /// volume. Linear in the member count — fine for a handful of peers.
    #[default]
    Ring,
    /// Recursive doubling (butterfly): `⌈log2 n⌉` rounds, each moving the
    /// full vector. Latency grows with the *log* of the member count —
    /// the fleet-scale choice.
    RecursiveDoubling,
    /// NoPFS-shaped two-level hierarchy: recursive doubling inside each
    /// node group of `ranks_per_node` members, then recursive doubling
    /// across the group leaders. `⌈log2 r⌉ + ⌈log2 ⌈n/r⌉⌉` rounds.
    Hierarchical {
        /// Members per node group (the per-node fan-in).
        ranks_per_node: usize,
    },
}

impl FusionTopology {
    /// Exchange rounds a real implementation would take for `n` members.
    fn rounds(&self, n: f64) -> f64 {
        match *self {
            FusionTopology::Ring => 2.0 * (n - 1.0),
            FusionTopology::RecursiveDoubling => n.log2().ceil(),
            FusionTopology::Hierarchical { ranks_per_node } => {
                let r = (ranks_per_node.max(1) as f64).min(n);
                let nodes = (n / r).ceil();
                r.log2().ceil() + nodes.log2().ceil()
            }
        }
    }
}

struct SumState {
    /// Members still participating; a round completes when `arrived == live`.
    live: usize,
    /// Completed-round counter (contributors wait for it to advance).
    round: u64,
    /// Contributions merged into `acc` this round.
    arrived: usize,
    /// Element-wise sum of this round's contributions.
    acc: HashMap<String, u64>,
    /// Result of the last completed round.
    result: Arc<HashMap<String, u64>>,
}

/// An element-wise sum allreduce over `HashMap<String, u64>` with tolerant
/// membership: created for `members` participants, each call to
/// [`SumAllreduce::allreduce`] contributes one vector and blocks (in virtual
/// time) until every *live* member has contributed, then all contributors
/// observe the identical fused vector. [`SumAllreduce::leave`] removes a
/// member permanently and, if the remaining members are all waiting,
/// completes the pending round — shutdown can never deadlock a peer.
///
/// Cost model: the ring-allreduce formula of [`crate::Comm::allreduce_bytes`]
/// applied to the serialized size of the fused vector, charged to every
/// contributor of the round. Built on virtual-time primitives, so the wait
/// also emits the Signal/Wait sync events that give `iosan` cross-member
/// happens-before edges.
#[derive(Clone)]
pub struct SumAllreduce {
    net: NetworkModel,
    topology: FusionTopology,
    state: Arc<Mutex<SumState>>,
    cv: Arc<Condvar>,
}

impl SumAllreduce {
    /// A collective for `members` participants over interconnect `net`,
    /// with the default [`FusionTopology::Ring`] cost shape.
    pub fn new(net: NetworkModel, members: usize) -> Self {
        Self::with_topology(net, members, FusionTopology::default())
    }

    /// [`SumAllreduce::new`] with an explicit cost topology. Fusion
    /// semantics and happens-before edges are topology-independent; only
    /// the per-round charge changes.
    pub fn with_topology(net: NetworkModel, members: usize, topology: FusionTopology) -> Self {
        assert!(members > 0);
        SumAllreduce {
            net,
            topology,
            state: Arc::new(Mutex::named(
                SumState {
                    live: members,
                    round: 0,
                    arrived: 0,
                    acc: HashMap::new(),
                    result: Arc::new(HashMap::new()),
                },
                Some("mpi:sum-allreduce"),
            )),
            cv: Arc::new(Condvar::named(Some("mpi:sum-allreduce"))),
        }
    }

    /// Members that have not left yet.
    pub fn live(&self) -> usize {
        self.state.lock().live
    }

    /// Contribute `local` to the current round and block (virtual time)
    /// until the round completes; returns the fused element-wise sum over
    /// all live members' contributions.
    pub fn allreduce(&self, local: &HashMap<String, u64>) -> Arc<HashMap<String, u64>> {
        let mut progress = SumProgress::default();
        loop {
            if let Some((result, cost)) = self.poll_allreduce(local, &mut progress) {
                if !cost.is_zero() {
                    sleep(cost);
                }
                return result;
            }
            // simlint: allow(raw-block) the poll registered this member with the state Mutex or the Condvar
            simrt::block(None);
        }
    }

    /// The state machine of [`SumAllreduce::allreduce`], which event tasks
    /// drive directly with a [`SumProgress`] (one per in-flight round; it
    /// resets itself on completion). Returns `None` while the round is
    /// incomplete — the event task should return
    /// `EventPoll::Block { deadline: None }` and re-poll when woken. On
    /// completion it returns the fused vector plus the network cost to
    /// charge; the event task charges it by returning
    /// `EventPoll::Sleep(cost)`. Interoperates with carrier contributors
    /// and with [`SumAllreduce::leave`].
    pub fn poll_allreduce(
        &self,
        local: &HashMap<String, u64>,
        p: &mut SumProgress,
    ) -> Option<(Arc<HashMap<String, u64>>, std::time::Duration)> {
        if p.waiting {
            // Woken by the condvar: its acquire edge precedes re-taking the
            // state lock, as in `Condvar::wait`. Once per wake, so a poll
            // queued on the lock does not ack again.
            self.cv.ack_wait();
            p.waiting = false;
        }
        // `None`: queued on the state lock; re-poll when woken.
        let mut st = self.state.poll_lock()?;
        if !p.contributed {
            for (k, v) in local {
                *st.acc.entry(k.clone()).or_insert(0) += *v;
            }
            st.arrived += 1;
            p.my_round = st.round;
            p.contributed = true;
            if st.arrived >= st.live {
                Self::complete_round(&mut st, &self.cv);
            }
        }
        if st.round == p.my_round {
            // Round still pending (or a spurious wake): wait on the condvar.
            self.cv.register_waiter();
            p.waiting = true;
            return None;
        }
        let result = st.result.clone();
        let peers = st.live;
        drop(st);
        *p = SumProgress::default();
        let cost = self.cost_of(&result, peers);
        Some((result, cost))
    }

    /// Leave the collective. If the remaining members are all blocked in
    /// the current round, the round completes now with their contributions.
    pub fn leave(&self) {
        let mut st = self.state.lock();
        if st.live == 0 {
            return;
        }
        st.live -= 1;
        if st.live > 0 && st.arrived >= st.live {
            Self::complete_round(&mut st, &self.cv);
        }
    }

    fn complete_round(st: &mut SumState, cv: &Condvar) {
        st.result = Arc::new(std::mem::take(&mut st.acc));
        st.round += 1;
        st.arrived = 0;
        cv.notify_all();
    }

    /// The configured cost topology.
    pub fn topology(&self) -> FusionTopology {
        self.topology
    }

    /// Per-contributor cost of fusing `result` across `peers` members
    /// under the configured topology. Ring moves the bandwidth-optimal
    /// `2(n−1)/n` of the vector; the log-depth shapes move the full
    /// vector each round.
    fn cost_of(&self, result: &HashMap<String, u64>, peers: usize) -> std::time::Duration {
        let n = peers as f64;
        if n <= 1.0 {
            return std::time::Duration::ZERO;
        }
        let bytes: usize = result.keys().map(|k| k.len() + 8).sum();
        let steps = self.topology.rounds(n);
        let volume = match self.topology {
            FusionTopology::Ring => 2.0 * (n - 1.0) / n * bytes as f64,
            _ => steps * bytes as f64,
        };
        dur::secs_f64(self.net.latency.as_secs_f64() * steps + volume / self.net.bandwidth)
    }
}

/// Progress of one member through a polled [`SumAllreduce`] round. Create
/// with `default()`; resets itself when the round completes.
#[derive(Default)]
pub struct SumProgress {
    contributed: bool,
    my_round: u64,
    /// Registered on the condvar; the next poll acks the wake.
    waiting: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrt::Sim;

    fn map(pairs: &[(&str, u64)]) -> HashMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn fuses_contributions_elementwise() {
        let sim = Sim::new();
        let all = SumAllreduce::new(NetworkModel::default(), 3);
        let results = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for rank in 0..3u64 {
            let all = all.clone();
            let results = results.clone();
            sim.spawn(format!("m{rank}"), move || {
                let local = map(&[("shared", rank + 1), (&format!("own{rank}"), 10)]);
                let fused = all.allreduce(&local);
                results.lock().push(fused);
            });
        }
        sim.run();
        let results = results.lock();
        assert_eq!(results.len(), 3);
        for fused in results.iter() {
            assert_eq!(fused["shared"], 1 + 2 + 3);
            assert_eq!(fused["own0"], 10);
            assert_eq!(fused["own2"], 10);
            assert_eq!(fused.len(), 4);
        }
    }

    #[test]
    fn leave_completes_pending_round() {
        // Member 0 contributes and waits; member 1 leaves without ever
        // contributing. The round must complete with member 0's vector
        // alone instead of deadlocking the simulation.
        let sim = Sim::new();
        let all = SumAllreduce::new(NetworkModel::default(), 2);
        let got = Arc::new(parking_lot::Mutex::new(None));
        {
            let all = all.clone();
            let got = got.clone();
            sim.spawn("contributor", move || {
                *got.lock() = Some(all.allreduce(&map(&[("h", 7)])));
            });
        }
        {
            let all = all.clone();
            sim.spawn("leaver", move || {
                simrt::sleep(std::time::Duration::from_millis(5));
                all.leave();
            });
        }
        sim.run();
        let fused = got.lock().clone().expect("round completed");
        assert_eq!(fused["h"], 7);
        assert_eq!(all.live(), 1);
    }

    #[test]
    fn single_member_rounds_are_immediate() {
        let sim = Sim::new();
        let all = SumAllreduce::new(NetworkModel::default(), 1);
        sim.spawn("solo", move || {
            let f1 = all.allreduce(&map(&[("a", 1)]));
            assert_eq!(f1["a"], 1);
            // Rounds do not accumulate across calls.
            let f2 = all.allreduce(&map(&[("a", 2)]));
            assert_eq!(f2["a"], 2);
            assert_eq!(simrt::now().as_secs_f64(), 0.0, "n=1 costs nothing");
        });
        sim.run();
    }

    #[test]
    fn event_members_fuse_with_carrier_members() {
        use simrt::{EventCx, EventPoll};
        let sim = Sim::new();
        let all = SumAllreduce::new(NetworkModel::default(), 3);
        let results = Arc::new(parking_lot::Mutex::new(Vec::new()));
        // Two event members and one carrier member contribute to one round.
        for rank in 0..2u64 {
            let all = all.clone();
            let results = results.clone();
            let mut prog = SumProgress::default();
            let mut charged = false;
            sim.spawn_event(format!("e{rank}"), move |_cx: &mut EventCx| {
                if charged {
                    return EventPoll::Done;
                }
                let local = map(&[("shared", rank + 1)]);
                match all.poll_allreduce(&local, &mut prog) {
                    None => EventPoll::Block { deadline: None },
                    Some((fused, cost)) => {
                        results.lock().push(fused);
                        charged = true;
                        EventPoll::Sleep(cost)
                    }
                }
            });
        }
        {
            let all = all.clone();
            let results = results.clone();
            sim.spawn("carrier", move || {
                let fused = all.allreduce(&map(&[("shared", 3)]));
                results.lock().push(fused);
            });
        }
        sim.run();
        let results = results.lock();
        assert_eq!(results.len(), 3);
        for fused in results.iter() {
            assert_eq!(fused["shared"], 1 + 2 + 3);
        }
        assert!(sim.now().as_secs_f64() > 0.0, "cost was charged");
    }

    #[test]
    fn leave_during_fusion_tree_topology_ws8() {
        // Regression (fleet refactor): under the log-depth topology, a
        // member that leaves mid-round — after some peers contributed,
        // before the round completed — must neither deadlock the seven
        // waiters nor corrupt the partial sum. The leaver never
        // contributes; the fused vector is exactly the seven live
        // contributions.
        let sim = Sim::new();
        let all = SumAllreduce::with_topology(
            NetworkModel::default(),
            8,
            FusionTopology::RecursiveDoubling,
        );
        let results = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for rank in 0..7u64 {
            let all = all.clone();
            let results = results.clone();
            sim.spawn(format!("m{rank}"), move || {
                // Stagger arrivals so the leave lands strictly between the
                // first and last contribution.
                simrt::sleep(std::time::Duration::from_millis(rank));
                let fused = all.allreduce(&map(&[("heat", 1 << rank)]));
                results.lock().push(fused);
            });
        }
        {
            let all = all.clone();
            sim.spawn("leaver", move || {
                simrt::sleep(std::time::Duration::from_millis(3));
                all.leave();
            });
        }
        sim.run();
        let results = results.lock();
        assert_eq!(results.len(), 7, "no waiter deadlocked");
        for fused in results.iter() {
            assert_eq!(fused["heat"], 0x7f, "sum of exactly the 7 live members");
            assert_eq!(fused.len(), 1);
        }
        assert_eq!(all.live(), 7);
    }

    #[test]
    fn tree_topology_latency_is_log_depth() {
        // Same vector, same membership: ring charges 2(n-1) latency steps,
        // recursive doubling ceil(log2 n) — at n=64 that is 126 vs 6.
        let run = |topo: FusionTopology| {
            let sim = Sim::new();
            let all = SumAllreduce::with_topology(NetworkModel::default(), 64, topo);
            for rank in 0..64 {
                let all = all.clone();
                sim.spawn(format!("m{rank}"), move || {
                    all.allreduce(&map(&[("h", 1)]));
                });
            }
            sim.run();
            sim.now().as_secs_f64()
        };
        let ring = run(FusionTopology::Ring);
        let tree = run(FusionTopology::RecursiveDoubling);
        let hier = run(FusionTopology::Hierarchical { ranks_per_node: 8 });
        assert!(
            tree < ring / 4.0,
            "tree ({tree}) should be far below ring ({ring}) at n=64"
        );
        assert!(
            hier < ring / 4.0,
            "hierarchical ({hier}) should be far below ring ({ring}) at n=64"
        );
    }

    #[test]
    fn cost_scales_with_vector_size() {
        let run = |entries: usize| {
            let sim = Sim::new();
            let all = SumAllreduce::new(NetworkModel::default(), 4);
            for rank in 0..4 {
                let all = all.clone();
                sim.spawn(format!("m{rank}"), move || {
                    let local: HashMap<String, u64> =
                        (0..entries).map(|i| (format!("file-{i:08}"), 1)).collect();
                    all.allreduce(&local);
                });
            }
            sim.run();
            sim.now().as_secs_f64()
        };
        assert!(run(10_000) > run(10), "bigger fused vector costs more");
    }
}
