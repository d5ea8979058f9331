//! Push-order PPR power iteration, the test oracle for
//! `kucnet_ppr::PprGraph::scores`: every round visits the sources in
//! ascending id order and scatters each one's share `(1 - alpha) * r / deg`
//! to the tail of every out-edge, then adds `alpha` at the source. The
//! pull-order kernel must return these bits exactly.

use kucnet_graph::{GraphView, NodeId};
use kucnet_ppr::PprConfig;

/// PPR scores of `source` over `graph` by push-order power iteration.
pub fn push_ppr_scores<G: GraphView>(graph: &G, source: NodeId, config: &PprConfig) -> Vec<f32> {
    let n = graph.n_nodes();
    let mut r = vec![0.0f32; n];
    let mut next = vec![0.0f32; n];
    r[source.0 as usize] = 1.0;
    for _ in 0..config.iterations {
        next.iter_mut().for_each(|x| *x = 0.0);
        for (node, &mass) in r.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            let node = NodeId(node as u32);
            let deg = graph.degree(node);
            if deg == 0 {
                continue;
            }
            let share = (1.0 - config.alpha) * mass / deg as f32;
            graph.visit_out_edges(node, |e| {
                next[e.tail.0 as usize] += share;
            });
        }
        next[source.0 as usize] += config.alpha;
        std::mem::swap(&mut r, &mut next);
    }
    r
}
