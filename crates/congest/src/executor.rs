//! The one entry point of the simulator.

use congest_graph::{Graph, NodeId};

use crate::backend::Backend;
use crate::core::{run_sequential, Meters};
use crate::cut::CutMeter;
use crate::error::SimError;
use crate::metrics::RunReport;
use crate::pool::run_pooled;
use crate::program::Program;
use crate::trace::Trace;

/// Executes a [`Program`] on every vertex of a network in synchronous
/// supersteps, charging CONGEST rounds from per-edge word loads.
///
/// One superstep = one algorithm step at every live node. A superstep in
/// which the most loaded directed edge carries `w` words costs
/// `max(1, ⌈w/B⌉)` rounds, where `B` is the bandwidth
/// ([`Executor::bandwidth`], default 1 word = one `O(log n)`-bit
/// message per edge per round, the classical CONGEST budget).
///
/// A by-value builder: set the optional [`bandwidth`](Self::bandwidth),
/// [`backend`](Self::backend), [`cut`](Self::cut) and
/// [`trace`](Self::trace), then [`run`](Self::run). Every backend
/// drives the same superstep core, so the report, the final node
/// states, the cut count and the trace are byte-identical whatever the
/// backend or thread count.
///
/// See the crate-level docs for a complete example.
#[derive(Debug)]
pub struct Executor<'a> {
    graph: &'a Graph,
    seed: u64,
    bandwidth: u64,
    backend: Backend,
    cut: Option<CutMeter>,
    trace: Option<&'a mut Trace>,
}

impl<'a> Executor<'a> {
    /// An executor on `graph`: bandwidth 1, [`Backend::Sequential`], no
    /// cut, no trace. All node randomness derives from `seed`.
    pub fn new(graph: &'a Graph, seed: u64) -> Self {
        Executor {
            graph,
            seed,
            bandwidth: 1,
            backend: Backend::Sequential,
            cut: None,
            trace: None,
        }
    }

    /// Sets the per-edge bandwidth in words per round (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth == 0`.
    pub fn bandwidth(mut self, bandwidth: u64) -> Self {
        assert!(bandwidth > 0, "bandwidth must be positive");
        self.bandwidth = bandwidth;
        self
    }

    /// Selects how the node-step phase runs (default
    /// [`Backend::Sequential`]); results never depend on it.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Installs a [`CutMeter`]; the run report will include the words that
    /// crossed it.
    pub fn cut(mut self, cut: CutMeter) -> Self {
        self.cut = Some(cut);
        self
    }

    /// Records every delivered message into `trace`, replacing its
    /// events, sorted by `(superstep, from, to)`.
    pub fn trace(mut self, trace: &'a mut Trace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Runs the program to completion (all nodes halted) and returns the
    /// report with the final per-node program states, indexed by node
    /// id.
    ///
    /// `factory(v, n)` builds the program instance for vertex `v`;
    /// capture per-node inputs (set memberships, colorings, …) in the
    /// closure. It is called in ascending node order on the calling
    /// thread.
    ///
    /// # Errors
    ///
    /// [`SimError::NotANeighbor`] if a node sends to a non-neighbor;
    /// [`SimError::StepLimitExceeded`] if any node is still running after
    /// `max_supersteps`. A trace then holds the messages up to the
    /// failure.
    pub fn run<P, F>(
        mut self,
        factory: F,
        max_supersteps: u64,
    ) -> Result<(RunReport, Vec<P>), SimError>
    where
        P: Program + Send,
        P::Msg: Send,
        F: FnMut(NodeId, usize) -> P,
    {
        let meters = Meters {
            bandwidth: self.bandwidth,
            cut: self.cut.as_ref(),
            trace: self.trace.as_deref_mut().map(|t| {
                t.events.clear();
                &mut t.events
            }),
        };
        let result = match self.backend.effective_threads(self.graph.node_count()) {
            0 | 1 => run_sequential(self.graph, self.seed, meters, factory, max_supersteps),
            threads => run_pooled(
                self.graph,
                self.seed,
                meters,
                threads,
                factory,
                max_supersteps,
            ),
        };
        if let Some(trace) = self.trace {
            trace.events.sort_by_key(|e| (e.superstep, e.from, e.to));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Control, Ctx, Decision, Outbox};
    use congest_graph::generators;
    use rand::Rng;

    /// Every node broadcasts its id once, then halts after hearing all
    /// neighbors.
    struct HelloOnce {
        heard: Vec<NodeId>,
    }

    impl Program for HelloOnce {
        type Msg = u32;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u32>) {
            out.broadcast(ctx.node.raw());
        }
        fn step(
            &mut self,
            _ctx: &mut Ctx,
            _s: usize,
            inbox: &[(NodeId, u32)],
            _out: &mut Outbox<u32>,
        ) -> Control {
            self.heard.extend(inbox.iter().map(|&(f, _)| f));
            Control::Halt
        }
    }

    #[test]
    fn hello_exchanges_with_all_neighbors() {
        let g = generators::cycle(5);
        let (report, nodes) = Executor::new(&g, 1)
            .run(|_, _| HelloOnce { heard: vec![] }, 10)
            .unwrap();
        assert_eq!(report.supersteps, 1);
        assert_eq!(report.rounds, 2, "init round + one silent step round");
        assert_eq!(report.congestion.max_words_per_edge_step, 1);
        assert_eq!(report.congestion.total_messages, 10); // 5 nodes × 2 nbrs
        for (v, p) in nodes.iter().enumerate() {
            let mut heard: Vec<u32> = p.heard.iter().map(|x| x.raw()).collect();
            heard.sort_unstable();
            let mut expected: Vec<u32> = g
                .neighbors(NodeId::new(v as u32))
                .iter()
                .map(|x| x.raw())
                .collect();
            expected.sort_unstable();
            assert_eq!(heard, expected);
        }
    }

    /// Sends a `size`-word message to the first neighbor, once.
    struct BigSend {
        size: usize,
    }

    impl Program for BigSend {
        type Msg = Vec<u32>;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<Vec<u32>>) {
            if ctx.node.raw() == 0 {
                out.send(ctx.neighbors[0], vec![7; self.size]);
            }
        }
        fn step(
            &mut self,
            _ctx: &mut Ctx,
            _s: usize,
            _inbox: &[(NodeId, Vec<u32>)],
            _out: &mut Outbox<Vec<u32>>,
        ) -> Control {
            Control::Halt
        }
    }

    #[test]
    fn round_cost_scales_with_message_size() {
        let g = generators::path(3);
        let (report, _) = Executor::new(&g, 0)
            .run(|_, _| BigSend { size: 10 }, 10)
            .unwrap();
        // init superstep costs ceil(10/1) = 10 rounds, final silent step 1.
        assert_eq!(report.rounds, 11);
        assert_eq!(report.congestion.max_words_per_edge_step, 10);

        let (report, _) = Executor::new(&g, 0)
            .bandwidth(4)
            .run(|_, _| BigSend { size: 10 }, 10)
            .unwrap();
        assert_eq!(report.rounds, 3 + 1, "ceil(10/4) + silent step");
    }

    /// Illegally sends to a fixed non-neighbor.
    #[derive(Debug)]
    struct BadSender;

    impl Program for BadSender {
        type Msg = u32;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u32>) {
            if ctx.node.raw() == 0 {
                out.send(NodeId::new(2), 1); // 0-2 is not an edge of P3
            }
        }
        fn step(
            &mut self,
            _ctx: &mut Ctx,
            _s: usize,
            _inbox: &[(NodeId, u32)],
            _out: &mut Outbox<u32>,
        ) -> Control {
            Control::Halt
        }
    }

    #[test]
    fn sending_to_non_neighbor_errors() {
        let g = generators::path(3); // edges 0-1, 1-2
        let err = Executor::new(&g, 0).run(|_, _| BadSender, 10).unwrap_err();
        assert_eq!(
            err,
            SimError::NotANeighbor {
                from: NodeId::new(0),
                to: NodeId::new(2)
            }
        );
    }

    /// Never halts.
    #[derive(Debug)]
    struct Forever;

    impl Program for Forever {
        type Msg = u32;
        fn init(&mut self, _ctx: &mut Ctx, _out: &mut Outbox<u32>) {}
        fn step(
            &mut self,
            _ctx: &mut Ctx,
            _s: usize,
            _inbox: &[(NodeId, u32)],
            _out: &mut Outbox<u32>,
        ) -> Control {
            Control::Continue
        }
    }

    #[test]
    fn step_limit_trips_on_every_backend() {
        let g = generators::path(4);
        for backend in [Backend::Sequential, Backend::Parallel { threads: 2 }] {
            let err = Executor::new(&g, 0)
                .backend(backend)
                .run(|_, _| Forever, 5)
                .unwrap_err();
            assert_eq!(err, SimError::StepLimitExceeded { limit: 5 }, "{backend}");
        }
    }

    /// Rejects iff the node id is odd.
    struct OddRejects {
        me: u32,
    }

    impl Program for OddRejects {
        type Msg = u32;
        fn init(&mut self, _ctx: &mut Ctx, _out: &mut Outbox<u32>) {}
        fn step(
            &mut self,
            _ctx: &mut Ctx,
            _s: usize,
            _inbox: &[(NodeId, u32)],
            _out: &mut Outbox<u32>,
        ) -> Control {
            Control::Halt
        }
        fn decision(&self) -> Decision {
            if self.me % 2 == 1 {
                Decision::Reject
            } else {
                Decision::Accept
            }
        }
    }

    #[test]
    fn decisions_aggregate() {
        let g = generators::path(4);
        let (report, _) = Executor::new(&g, 0)
            .run(|v, _| OddRejects { me: v.raw() }, 10)
            .unwrap();
        assert!(report.rejected());
        assert_eq!(report.rejecting_nodes, vec![1, 3]);
    }

    #[test]
    fn determinism_across_runs() {
        /// Broadcasts a random coin for three steps.
        struct Coins {
            log: Vec<u32>,
        }
        impl Program for Coins {
            type Msg = u32;
            fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u32>) {
                out.broadcast(ctx.rng.gen_range(0..1000));
            }
            fn step(
                &mut self,
                ctx: &mut Ctx,
                s: usize,
                inbox: &[(NodeId, u32)],
                out: &mut Outbox<u32>,
            ) -> Control {
                self.log.extend(inbox.iter().map(|&(_, m)| m));
                if s < 2 {
                    out.broadcast(ctx.rng.gen_range(0..1000));
                    Control::Continue
                } else {
                    Control::Halt
                }
            }
        }

        let g = generators::erdos_renyi(20, 0.2, 3);
        let run = |seed: u64| {
            let (_, nodes) = Executor::new(&g, seed)
                .run(|_, _| Coins { log: vec![] }, 20)
                .unwrap();
            nodes.into_iter().map(|p| p.log).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5), "same seed, same transcript");
        assert_ne!(run(5), run(6), "different seed, different transcript");
    }

    #[test]
    fn cut_meter_counts() {
        let g = generators::path(4); // 0-1-2-3, cut between 1 and 2
        let (report, _) = Executor::new(&g, 0)
            .cut(CutMeter::new(&g, vec![false, false, true, true]))
            .run(|_, _| HelloOnce { heard: vec![] }, 10)
            .unwrap();
        // Each endpoint of edge 1-2 broadcast 1 word across the cut.
        assert_eq!(report.cut_words, Some(2));
        assert_eq!(report.cut_bits(2), Some(4));
    }

    /// Gossip a random token for a few steps (exercises rng, inboxes,
    /// and halting).
    #[derive(Debug)]
    struct Gossip {
        steps: usize,
        log: Vec<(u32, u32)>,
    }

    impl Program for Gossip {
        type Msg = u32;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u32>) {
            out.broadcast(ctx.rng.gen_range(0..1_000_000));
        }
        fn step(
            &mut self,
            ctx: &mut Ctx,
            s: usize,
            inbox: &[(NodeId, u32)],
            out: &mut Outbox<u32>,
        ) -> Control {
            for &(from, m) in inbox {
                self.log.push((from.raw(), m));
            }
            if s + 1 < self.steps {
                out.broadcast(ctx.rng.gen_range(0..1_000_000));
                Control::Continue
            } else {
                Control::Halt
            }
        }
    }

    fn gossip(steps: usize) -> impl Fn(NodeId, usize) -> Gossip + Copy {
        move |_, _| Gossip { steps, log: vec![] }
    }

    fn logs(nodes: Vec<Gossip>) -> Vec<Vec<(u32, u32)>> {
        nodes.into_iter().map(|p| p.log).collect()
    }

    #[test]
    fn parallel_matches_sequential_transcripts() {
        for seed in 0..4u64 {
            let g = generators::erdos_renyi(60, 0.1, seed);
            let (sr, sn) = Executor::new(&g, seed).run(gossip(5), 16).unwrap();
            let sl = logs(sn);
            for threads in [1usize, 2, 4] {
                let (pr, pn) = Executor::new(&g, seed)
                    .backend(Backend::Parallel { threads })
                    .run(gossip(5), 16)
                    .unwrap();
                assert_eq!(sr, pr, "seed {seed}, {threads} threads");
                assert_eq!(sl, logs(pn), "transcripts must match bit for bit");
            }
        }
    }

    #[test]
    fn parallel_with_single_thread() {
        let g = generators::cycle(12);
        let (r, _) = Executor::new(&g, 1)
            .backend(Backend::Parallel { threads: 1 })
            .run(gossip(3), 8)
            .unwrap();
        assert_eq!(r.supersteps, 3);
    }

    #[test]
    fn cut_meter_matches_sequential() {
        // Broadcast gossip across a bisected ER graph: the words that
        // cross the cut must agree at every thread count (delivery is
        // sequential on every backend).
        for seed in 0..3u64 {
            let g = generators::erdos_renyi(40, 0.15, seed);
            let side: Vec<bool> = (0..g.node_count()).map(|v| v >= 20).collect();
            let (sr, _) = Executor::new(&g, seed)
                .cut(CutMeter::new(&g, side.clone()))
                .run(gossip(4), 16)
                .unwrap();
            assert!(sr.cut_words.is_some_and(|w| w > 0), "cut must be crossed");
            for threads in [1usize, 2, 4] {
                let (pr, _) = Executor::new(&g, seed)
                    .backend(Backend::Parallel { threads })
                    .cut(CutMeter::new(&g, side.clone()))
                    .run(gossip(4), 16)
                    .unwrap();
                assert_eq!(sr.cut_words, pr.cut_words, "seed {seed}, {threads} threads");
                assert_eq!(sr, pr, "full reports must agree");
            }
        }
    }

    #[test]
    fn every_backend_matches_the_sequential_run() {
        let g = generators::erdos_renyi(50, 0.12, 9);
        let (sr, sn) = Executor::new(&g, 9).run(gossip(5), 16).unwrap();
        let sl = logs(sn);
        for backend in [
            Backend::Sequential,
            Backend::Parallel { threads: 2 },
            Backend::Parallel { threads: 5 },
            Backend::Auto { node_threshold: 1 },
            Backend::Auto {
                node_threshold: usize::MAX,
            },
        ] {
            let (report, nodes) = Executor::new(&g, 9)
                .backend(backend)
                .run(gossip(5), 16)
                .unwrap();
            assert_eq!(report, sr, "{backend}");
            assert_eq!(
                logs(nodes),
                sl,
                "{backend}: transcripts must match bit for bit"
            );
        }
    }
}
