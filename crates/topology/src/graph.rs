//! Compact undirected graphs in CSR form, with BFS utilities.
//!
//! Every graph family in this crate ([`crate::Mesh`], [`crate::Torus`],
//! [`crate::Hypercube`], Cartesian products) lowers to this representation
//! for generic algorithms: metric verification, subgraph checks, and the
//! direct-embedding search. Nodes are `0..n`; edges are stored once as
//! `(min, max)` pairs plus a CSR adjacency for traversal.

/// An undirected graph on nodes `0..nodes()` in CSR form.
#[derive(Clone, Debug)]
pub struct Graph {
    /// CSR row offsets, length `n + 1`.
    offsets: Vec<u32>,
    /// CSR column indices (each undirected edge appears twice).
    adjacency: Vec<u32>,
    /// Each undirected edge once, as `(u, v)` with `u < v`.
    edges: Vec<(u32, u32)>,
}

/// Why an edge list cannot form a [`Graph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// More nodes than `u32` adjacency ids can address.
    TooManyNodes { nodes: usize },
    /// An edge endpoint is outside `0..n`.
    EndpointOutOfRange { a: usize, b: usize, nodes: usize },
    /// An edge joins a node to itself.
    SelfLoop { node: usize },
    /// The same undirected edge appears more than once.
    DuplicateEdge { a: u32, b: u32 },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::TooManyNodes { nodes } => {
                write!(f, "graph too large: {nodes} nodes exceed u32 ids")
            }
            GraphError::EndpointOutOfRange { a, b, nodes } => {
                write!(f, "edge ({a}, {b}) has an endpoint outside 0..{nodes}")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::DuplicateEdge { a, b } => write!(f, "duplicate edge ({a}, {b})"),
        }
    }
}

impl std::error::Error for GraphError {}

impl Graph {
    /// Build a graph from an undirected edge list over nodes `0..n`.
    ///
    /// Self-loops and duplicate edges are rejected with a typed error, so
    /// untrusted edge lists (file loads, query inputs) can be validated by
    /// construction.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "n <= u32::MAX is checked above, and every endpoint is below n"
    )]
    pub fn from_edges(n: usize, edge_list: &[(usize, usize)]) -> Result<Self, GraphError> {
        if n > u32::MAX as usize {
            return Err(GraphError::TooManyNodes { nodes: n });
        }
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(edge_list.len());
        for &(a, b) in edge_list {
            if a >= n || b >= n {
                return Err(GraphError::EndpointOutOfRange { a, b, nodes: n });
            }
            if a == b {
                return Err(GraphError::SelfLoop { node: a });
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            edges.push((lo as u32, hi as u32));
        }
        edges.sort_unstable();
        if let Some(w) = edges.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::DuplicateEdge {
                a: w[0].0,
                b: w[0].1,
            });
        }
        Ok(Self::from_canonical(n, edges))
    }

    /// Build the CSR form from an edge list that is correct by
    /// construction: every edge `(u, v)` with `u < v < n`, no duplicates.
    /// The mesh/torus/cube/product lowerings emit exactly such lists, so
    /// they skip [`Self::from_edges`] validation (debug builds re-check).
    pub(crate) fn from_canonical(n: usize, mut edges: Vec<(u32, u32)>) -> Self {
        edges.sort_unstable();
        debug_assert!(
            edges.iter().all(|&(a, b)| a < b && (b as usize) < n),
            "non-canonical edge"
        );
        debug_assert!(
            edges.windows(2).all(|w| w[0] != w[1]),
            "duplicate canonical edge"
        );
        let mut degree = vec![0u32; n];
        for &(a, b) in &edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut adjacency = vec![0u32; edges.len() * 2];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &(a, b) in &edges {
            adjacency[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            adjacency[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        }
        Graph {
            offsets,
            adjacency,
            edges,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The undirected edge list, each edge once as `(u, v)` with `u < v`,
    /// sorted lexicographically.
    #[inline]
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adjacency[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// BFS distances from `src`; unreachable nodes get `u32::MAX`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a Graph has at most u32::MAX nodes (from_edges rejects more), so src fits u32"
    )]
    pub fn bfs_distances(&self, src: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.nodes()];
        let mut queue = std::collections::VecDeque::new();
        dist[src] = 0;
        queue.push_back(src as u32);
        while let Some(v) = queue.pop_front() {
            let d = dist[v as usize];
            for &w in self.neighbors(v as usize) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = d + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// A BFS ordering of all nodes starting from `src` (connected component
    /// first, then remaining nodes in index order). Used to order placement
    /// decisions in the direct-embedding search.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a Graph has at most u32::MAX nodes (from_edges rejects more), so node ids fit u32"
    )]
    pub fn bfs_order(&self, src: usize) -> Vec<u32> {
        let mut seen = vec![false; self.nodes()];
        let mut order = Vec::with_capacity(self.nodes());
        let mut queue = std::collections::VecDeque::new();
        seen[src] = true;
        queue.push_back(src as u32);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &w in self.neighbors(v as usize) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
        for (v, &was_seen) in seen.iter().enumerate() {
            if !was_seen {
                order.push(v as u32);
            }
        }
        order
    }

    /// `true` if the graph is connected (the empty graph on one node is).
    pub fn is_connected(&self) -> bool {
        self.nodes() <= 1 || self.bfs_distances(0).iter().all(|&d| d != u32::MAX)
    }

    /// Graph diameter (max finite BFS distance over all pairs); `None` if
    /// disconnected. Quadratic — intended for small graphs and tests.
    pub fn diameter(&self) -> Option<u32> {
        let mut best = 0;
        for v in 0..self.nodes() {
            let dist = self.bfs_distances(v);
            for &d in &dist {
                if d == u32::MAX {
                    return None;
                }
                best = best.max(d);
            }
        }
        Some(best)
    }

    /// `true` if `(a, b)` is an edge.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a Graph has at most u32::MAX nodes (from_edges rejects more); a larger b is never a neighbor either way"
    )]
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.neighbors(a).contains(&(b as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn csr_construction() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(g.nodes(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 2);
        let mut nb: Vec<u32> = g.neighbors(0).to_vec();
        nb.sort_unstable();
        assert_eq!(nb, vec![1, 3]);
        assert!(g.has_edge(0, 3));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn bfs_on_path() {
        let g = path(5);
        assert_eq!(g.bfs_distances(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(g.bfs_distances(2), vec![2, 1, 0, 1, 2]);
        assert_eq!(g.diameter(), Some(4));
        assert!(g.is_connected());
    }

    #[test]
    fn disconnected_graph() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.diameter(), None);
        assert_eq!(g.bfs_distances(0)[2], u32::MAX);
    }

    #[test]
    fn bfs_order_visits_all() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let order = g.bfs_order(0);
        assert_eq!(order.len(), 5);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn duplicate_edges_rejected() {
        assert_eq!(
            Graph::from_edges(3, &[(0, 1), (1, 0)]).unwrap_err(),
            GraphError::DuplicateEdge { a: 0, b: 1 }
        );
    }

    #[test]
    fn self_loop_rejected() {
        assert_eq!(
            Graph::from_edges(3, &[(1, 1)]).unwrap_err(),
            GraphError::SelfLoop { node: 1 }
        );
    }

    #[test]
    fn out_of_range_endpoint_rejected() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 2)]).unwrap_err(),
            GraphError::EndpointOutOfRange {
                a: 0,
                b: 2,
                nodes: 2
            }
        );
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(0));
    }
}
