//! A deterministic simulator for the CONGEST model of distributed
//! computing.
//!
//! In the CONGEST model (Peleg [32]), a network is a simple connected
//! `n`-vertex graph whose vertices are processors. Computation proceeds in
//! synchronous rounds; in each round every node may send one message of
//! `O(log n)` bits along each incident edge. This crate simulates that
//! model faithfully enough for the algorithms of the even-cycle paper:
//!
//! * **Node programs** ([`Program`]) see only their local state: their id,
//!   their degree and neighbor ids, `n`, and a private seeded RNG. They
//!   communicate exclusively through [`Outbox::send`] /
//!   [`Outbox::broadcast`]. Sending to a non-neighbor is a simulation
//!   error — the model physically forbids it.
//! * **Message accounting is in words**: one *word* is one `O(log n)`-bit
//!   unit (a node identifier). A superstep in which some edge carries `w`
//!   words is charged `⌈w/B⌉` rounds, where `B` is the bandwidth in words
//!   per edge per round (`B = 1` is classical CONGEST). The
//!   [`logical`](Executor::run) executor — the one entry point every
//!   detector runs through, on any [`Backend`] — charges this cost
//!   directly; the [`strict`](strict::StrictExecutor) executor actually
//!   chops messages into `B`-word chunks and iterates rounds, and tests
//!   assert both give identical totals and decisions.
//! * **Everything is replayable**: all randomness derives from a master
//!   seed via per-node independent streams.
//! * **Cut metering** ([`CutMeter`]) counts the bits crossing a vertex
//!   bipartition, which is what the Set-Disjointness lower-bound
//!   reductions of the paper's §3.3 measure.
//!
//! # Example: distributed maximum finding
//!
//! ```
//! use congest_graph::{generators, NodeId};
//! use congest_sim::{Control, Ctx, Executor, Outbox, Program};
//!
//! /// Flood the maximum id for a fixed number of steps.
//! struct MaxFlood { best: u32, rounds: usize }
//!
//! impl Program for MaxFlood {
//!     type Msg = u32;
//!     fn init(&mut self, ctx: &mut Ctx, out: &mut Outbox<u32>) {
//!         self.best = ctx.node.raw();
//!         out.broadcast(self.best);
//!     }
//!     fn step(
//!         &mut self,
//!         _ctx: &mut Ctx,
//!         step: usize,
//!         inbox: &[(NodeId, u32)],
//!         out: &mut Outbox<u32>,
//!     ) -> Control {
//!         let incoming = inbox.iter().map(|(_, m)| *m).max().unwrap_or(0);
//!         if incoming > self.best {
//!             self.best = incoming;
//!             out.broadcast(self.best);
//!         }
//!         if step + 1 >= self.rounds { Control::Halt } else { Control::Continue }
//!     }
//! }
//!
//! let g = generators::cycle(8);
//! let build = |_, _| MaxFlood { best: 0, rounds: 8 };
//! let (report, nodes) = Executor::new(&g, 99).run(build, 16)?;
//! assert!(nodes.iter().all(|p| p.best == 7));
//! assert!(report.rounds >= 4);
//!
//! // The same run on a two-thread pool, with a message trace: the
//! // report and final states do not depend on the backend.
//! let mut trace = congest_sim::trace::Trace::default();
//! let (pooled, _) = Executor::new(&g, 99)
//!     .backend(congest_sim::Backend::Parallel { threads: 2 })
//!     .trace(&mut trace)
//!     .run(build, 16)?;
//! assert_eq!(pooled, report);
//! assert_eq!(trace.events().len() as u64, report.congestion.total_messages);
//! # Ok::<(), congest_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod core;
mod cut;
mod error;
mod executor;
mod message;
mod metrics;
mod pool;
mod program;
pub mod strict;
pub mod trace;
pub mod wire;

pub use backend::Backend;
pub use cut::CutMeter;
pub use error::SimError;
pub use executor::Executor;
pub use message::MessageSize;
pub use metrics::{CongestionStats, RunReport};
pub use program::{Control, Ctx, Decision, Outbox, Program};

/// Derives a stream-specific 64-bit seed from a master seed and a stream
/// label, via SplitMix64 finalization. Used everywhere a sub-component
/// needs its own independent randomness.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_stream() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(1, 0), "deterministic");
    }
}
