//! Execution tracing for protocol debugging.
//!
//! A [`Trace`] records, per superstep, every message with its endpoints
//! and word size. Traces are collected by [`crate::Executor::trace`] —
//! recorded where delivery charges each message, so a traced run has
//! identical semantics and costs on every backend — and support the
//! queries protocol debugging actually needs: per-edge load over time,
//! a node's conversation history, and wire-dump rendering.

use congest_graph::NodeId;

/// One recorded message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Superstep at which the message was *sent*.
    pub superstep: u64,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Size in words.
    pub words: usize,
}

/// A full message trace of one execution.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub(crate) events: Vec<TraceEvent>,
}

impl Trace {
    /// All events, in send order (superstep, then sender id).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events involving `v` (as sender or receiver).
    pub fn involving(&self, v: NodeId) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.from == v || e.to == v)
            .collect()
    }

    /// Total words sent during `superstep` over the directed edge
    /// `from → to`.
    pub fn edge_load(&self, superstep: u64, from: NodeId, to: NodeId) -> usize {
        self.events
            .iter()
            .filter(|e| e.superstep == superstep && e.from == from && e.to == to)
            .map(|e| e.words)
            .sum()
    }

    /// The heaviest directed edge load in any single superstep — must
    /// equal the executor's congestion statistic (asserted in tests).
    pub fn peak_edge_load(&self) -> usize {
        use std::collections::HashMap;
        let mut loads: HashMap<(u64, NodeId, NodeId), usize> = HashMap::new();
        for e in &self.events {
            *loads.entry((e.superstep, e.from, e.to)).or_insert(0) += e.words;
        }
        loads.values().copied().max().unwrap_or(0)
    }

    /// Renders a human-readable dump (one line per event), for debugging
    /// sessions and golden tests.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "[step {:>3}] {} -> {} ({} word{})\n",
                e.superstep,
                e.from,
                e.to,
                e.words,
                if e.words == 1 { "" } else { "s" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Control, Ctx, Executor, Outbox, Program, RunReport};
    use congest_graph::{generators, Graph};
    use rand::Rng;

    struct Ping {
        hops: usize,
    }

    impl Program for Ping {
        type Msg = Vec<u32>;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<Vec<u32>>) {
            if ctx.node.raw() == 0 {
                out.send(ctx.neighbors[0], vec![7; 3]);
            }
        }
        fn step(
            &mut self,
            ctx: &mut Ctx,
            s: usize,
            inbox: &[(NodeId, Vec<u32>)],
            out: &mut Outbox<Vec<u32>>,
        ) -> Control {
            if s < self.hops {
                for (_, msg) in inbox {
                    // forward down the path
                    if let Some(&next) = ctx.neighbors.iter().find(|&&w| w > ctx.node) {
                        out.send(next, msg.clone());
                    }
                }
                Control::Continue
            } else {
                Control::Halt
            }
        }
    }

    fn ping_trace(n: usize, hops: usize) -> (RunReport, Trace) {
        let g = generators::path(n);
        let mut trace = Trace::default();
        let (report, _) = Executor::new(&g, 1)
            .trace(&mut trace)
            .run(|_, _| Ping { hops }, 10)
            .unwrap();
        (report, trace)
    }

    #[test]
    fn trace_records_the_relay() {
        let (report, trace) = ping_trace(5, 4);
        // Message relayed 0→1→2→3→4: 4 events of 3 words.
        assert_eq!(trace.events().len(), 4);
        for (i, e) in trace.events().iter().enumerate() {
            assert_eq!(e.from, NodeId::new(i as u32));
            assert_eq!(e.to, NodeId::new(i as u32 + 1));
            assert_eq!(e.words, 3);
        }
        assert_eq!(
            trace.peak_edge_load() as u64,
            report.congestion.max_words_per_edge_step,
            "trace must agree with the executor's accounting"
        );
        assert_eq!(trace.edge_load(0, NodeId::new(0), NodeId::new(1)), 3);
        assert_eq!(trace.edge_load(0, NodeId::new(1), NodeId::new(2)), 0);
    }

    #[test]
    fn relay_render_matches_the_golden_dump() {
        let (_, trace) = ping_trace(5, 4);
        assert_eq!(
            trace.render(),
            "[step   0] 0 -> 1 (3 words)\n\
             [step   1] 1 -> 2 (3 words)\n\
             [step   2] 2 -> 3 (3 words)\n\
             [step   3] 3 -> 4 (3 words)\n"
        );
    }

    #[test]
    fn involving_filters_by_endpoint() {
        let (_, trace) = ping_trace(4, 3);
        assert_eq!(trace.involving(NodeId::new(0)).len(), 1);
        assert_eq!(trace.involving(NodeId::new(1)).len(), 2);
        assert_eq!(trace.involving(NodeId::new(3)).len(), 1);
    }

    #[test]
    fn render_is_line_per_event() {
        let (_, trace) = ping_trace(3, 2);
        let dump = trace.render();
        assert_eq!(dump.lines().count(), trace.events().len());
        assert!(dump.contains("->"));
    }

    /// Broadcasts and point-to-point sends of random sizes to random
    /// neighbors, so one sender's messages reach the trace out of
    /// receiver order.
    struct Chatter {
        steps: usize,
    }

    impl Program for Chatter {
        type Msg = Vec<u32>;
        fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<Vec<u32>>) {
            if ctx.node.raw().is_multiple_of(3) {
                out.broadcast(vec![1; 2]);
            }
        }
        fn step(
            &mut self,
            ctx: &mut Ctx,
            s: usize,
            _inbox: &[(NodeId, Vec<u32>)],
            out: &mut Outbox<Vec<u32>>,
        ) -> Control {
            if s + 1 >= self.steps {
                return Control::Halt;
            }
            if (ctx.node.index() + s).is_multiple_of(2) {
                out.broadcast(vec![s as u32]);
            }
            let degree = ctx.neighbors.len();
            for _ in 0..3.min(degree) {
                let i = ctx.rng.gen_range(0..degree);
                out.send(ctx.neighbors[degree - 1 - i], vec![7; i % 4]);
            }
            Control::Continue
        }
    }

    fn chatter_trace(g: &Graph, backend: Backend) -> (RunReport, Trace) {
        let mut trace = Trace::default();
        let (report, _) = Executor::new(g, 11)
            .backend(backend)
            .trace(&mut trace)
            .run(|_, _| Chatter { steps: 5 }, 10)
            .unwrap();
        (report, trace)
    }

    #[test]
    fn pooled_traces_equal_the_sequential_trace() {
        let g = generators::erdos_renyi(300, 0.03, 3);
        let (sr, seq) = chatter_trace(&g, Backend::Sequential);
        let total: usize = seq.events().iter().map(|e| e.words).sum();
        assert_eq!(total as u64, sr.congestion.total_words);
        assert_eq!(
            seq.peak_edge_load() as u64,
            sr.congestion.max_words_per_edge_step
        );
        for threads in [2usize, 4] {
            let (pr, par) = chatter_trace(&g, Backend::Parallel { threads });
            assert_eq!(pr, sr, "{threads} threads");
            assert_eq!(par.events(), seq.events(), "{threads} threads");
        }
    }
}
