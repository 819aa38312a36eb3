//! Metering of communication across a vertex bipartition.

use congest_graph::{Graph, NodeId};

/// A two-sided vertex labelling used to meter the words crossing a cut.
///
/// The Set-Disjointness reductions (paper §3.3) argue: if a CONGEST
/// algorithm runs in `T` rounds on the gadget graph, then Alice and Bob
/// can simulate it exchanging only the messages that cross the
/// Alice/Bob cut — `O(T · cut_size · log n)` bits. A `CutMeter` installed
/// with [`crate::Executor::cut`] counts exactly those words, on every
/// backend: the words are charged in the single-threaded delivery pass.
#[derive(Debug, Clone)]
pub struct CutMeter {
    side: Vec<bool>,
    cut_edges: usize,
}

impl CutMeter {
    /// Creates a meter from a labelling: `side[v] == false` puts `v` on
    /// Alice's side, `true` on Bob's.
    ///
    /// # Panics
    ///
    /// Panics if `side.len() != g.node_count()`.
    pub fn new(g: &Graph, side: Vec<bool>) -> Self {
        assert_eq!(side.len(), g.node_count(), "labelling length mismatch");
        let cut_edges = g
            .edges()
            .filter(|&(u, v)| side[u.index()] != side[v.index()])
            .count();
        CutMeter { side, cut_edges }
    }

    /// The number of edges crossing the cut (Alice↔Bob matching size).
    pub fn cut_size(&self) -> usize {
        self.cut_edges
    }

    /// Whether the directed edge `from → to` crosses the cut.
    pub fn crosses(&self, from: NodeId, to: NodeId) -> bool {
        self.side[from.index()] != self.side[to.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;

    #[test]
    fn counts_cut_edges() {
        let g = generators::cycle(6);
        // Alternating sides: every edge crosses.
        let side: Vec<bool> = (0..6).map(|i| i % 2 == 1).collect();
        let m = CutMeter::new(&g, side);
        assert_eq!(m.cut_size(), 6);
        assert!(m.crosses(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn half_split() {
        let g = generators::cycle(6);
        let side: Vec<bool> = (0..6).map(|i| i >= 3).collect();
        let m = CutMeter::new(&g, side);
        assert_eq!(m.cut_size(), 2); // edges 2-3 and 5-0
        assert!(!m.crosses(NodeId::new(0), NodeId::new(1)));
        assert!(m.crosses(NodeId::new(2), NodeId::new(3)));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let g = generators::cycle(4);
        CutMeter::new(&g, vec![false; 3]);
    }
}
