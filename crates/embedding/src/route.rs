//! Flattened storage for edge routes.
//!
//! A route is the host-cube path assigned to one guest edge, stored as the
//! full node sequence *including both endpoints* (so a dilation-`d` route
//! has `d + 1` nodes and a dilation-1 route has 2). Routes for millions of
//! edges are kept in one arena (`nodes`) with an offsets table, avoiding a
//! heap allocation per edge — the pattern recommended for hot containers in
//! the workspace performance guide.

/// An arena of routes, indexed densely by guest-edge number.
#[derive(Clone, Debug)]
pub struct RouteSet {
    offsets: Vec<u32>,
    nodes: Vec<u64>,
    /// Maintained incrementally by the `push*` methods and derived once by
    /// [`RouteSet::from_parts`]: `true` while every stored route has
    /// exactly two nodes. Lets metrics/verify take the pair fast paths
    /// (reading `nodes` as `(u, v)` lanes) without scanning `offsets` —
    /// `nodes.len() == 2 * len()` alone would not prove it (a 3-node
    /// route plus a 1-node route has the same totals).
    pairs_only: bool,
}

/// Why [`RouteSet::from_parts`] rejected an arena.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteSetError {
    /// The offsets table is empty or does not start at 0.
    OffsetsStart { found: Option<u32> },
    /// Route `route` has no nodes: its end offset does not exceed its start.
    EmptyRoute { route: usize },
    /// The last offset `end` is not the arena length `arena`.
    EndMismatch { end: u32, arena: usize },
}

impl std::fmt::Display for RouteSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteSetError::OffsetsStart { found: Some(o) } => {
                write!(f, "route offsets start at {o}, not 0")
            }
            RouteSetError::OffsetsStart { found: None } => write!(f, "route offsets are empty"),
            RouteSetError::EmptyRoute { route } => write!(f, "route {route} is empty"),
            RouteSetError::EndMismatch { end, arena } => {
                write!(f, "route offsets end at {end}, arena holds {arena} nodes")
            }
        }
    }
}

impl std::error::Error for RouteSetError {}

impl Default for RouteSet {
    /// Same as [`RouteSet::new`]. (A derived `Default` would leave
    /// `offsets` empty, violating the `offsets[0] == 0` invariant every
    /// accessor relies on.)
    fn default() -> Self {
        RouteSet::new()
    }
}

impl RouteSet {
    /// An empty route set.
    pub fn new() -> Self {
        RouteSet {
            offsets: vec![0],
            nodes: Vec::new(),
            pairs_only: true,
        }
    }

    /// Pre-allocate for `edges` routes totalling about `total_nodes` path
    /// nodes.
    pub fn with_capacity(edges: usize, total_nodes: usize) -> Self {
        let mut offsets = Vec::with_capacity(edges + 1);
        offsets.push(0);
        RouteSet {
            offsets,
            nodes: Vec::with_capacity(total_nodes),
            pairs_only: true,
        }
    }

    /// Append a route (full node path, endpoints included). Returns its
    /// index.
    ///
    /// # Panics
    /// Panics if the path has fewer than 1 node (a route for a self-loop of
    /// length 0 is not a thing — guest graphs have no self-loops).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "route arenas store u32 offsets by layout; an arena past 2^32 nodes (32 GiB of u64) exceeds every constructible embedding"
    )]
    pub fn push(&mut self, path: &[u64]) -> usize {
        assert!(!path.is_empty(), "empty route");
        self.pairs_only &= path.len() == 2;
        self.nodes.extend_from_slice(path);
        self.offsets.push(self.nodes.len() as u32);
        self.offsets.len() - 2
    }

    /// Append a two-node route (the dilation-1 case every Gray-code edge
    /// hits); cheaper than going through a slice.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "route arenas store u32 offsets by layout; an arena past 2^32 nodes (32 GiB of u64) exceeds every constructible embedding"
    )]
    pub fn push_pair(&mut self, a: u64, b: u64) -> usize {
        self.nodes.push(a);
        self.nodes.push(b);
        self.offsets.push(self.nodes.len() as u32);
        self.offsets.len() - 2
    }

    /// Assemble a route set from a finished arena: `offsets[i]..offsets[i+1]`
    /// is route `i`'s slice of `nodes`. This is how parallel builders hand
    /// over an arena they filled in place, chunk by chunk. The layout is
    /// validated in one pass over `offsets`, which also derives
    /// [`RouteSet::all_pairs`].
    ///
    /// # Errors
    /// [`RouteSetError`] if `offsets` does not start at 0, a route is
    /// empty (offsets not strictly increasing), or the last offset is not
    /// `nodes.len()`.
    pub fn from_parts(offsets: Vec<u32>, nodes: Vec<u64>) -> Result<Self, RouteSetError> {
        match offsets.first() {
            Some(0) => {}
            first => {
                return Err(RouteSetError::OffsetsStart {
                    found: first.copied(),
                })
            }
        }
        let mut pairs_only = true;
        for (route, w) in offsets.windows(2).enumerate() {
            if w[1] <= w[0] {
                return Err(RouteSetError::EmptyRoute { route });
            }
            pairs_only &= w[1] - w[0] == 2;
        }
        let end = offsets[offsets.len() - 1];
        if end as usize != nodes.len() {
            return Err(RouteSetError::EndMismatch {
                end,
                arena: nodes.len(),
            });
        }
        Ok(RouteSet {
            offsets,
            nodes,
            pairs_only,
        })
    }

    /// Append a route given as an iterator.
    ///
    /// # Panics
    /// Panics if `path` yields no node.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "route arenas store u32 offsets by layout; an arena past 2^32 nodes (32 GiB of u64) exceeds every constructible embedding"
    )]
    pub fn push_iter(&mut self, path: impl IntoIterator<Item = u64>) -> usize {
        let before = self.nodes.len();
        self.nodes.extend(path);
        assert!(self.nodes.len() > before, "empty route");
        self.pairs_only &= self.nodes.len() - before == 2;
        self.offsets.push(self.nodes.len() as u32);
        self.offsets.len() - 2
    }

    /// Number of routes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if no routes stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node path of route `i` (endpoints included).
    #[inline]
    pub fn route(&self, i: usize) -> &[u64] {
        &self.nodes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Dilation of route `i`: number of host edges on the path.
    #[inline]
    pub fn dilation(&self, i: usize) -> u32 {
        self.offsets[i + 1] - self.offsets[i] - 1
    }

    /// Total number of host-edge traversals over all routes (the numerator
    /// of both average dilation and average congestion).
    #[inline]
    pub fn total_length(&self) -> u64 {
        (self.nodes.len() - self.len()) as u64
    }

    /// Total host-edge traversals of the route range `lo..hi` — lets
    /// parallel metric workers pre-size their scratch exactly.
    #[inline]
    pub fn span_length(&self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi && hi <= self.len());
        (self.offsets[hi] - self.offsets[lo]) as usize - (hi - lo)
    }

    /// `true` while every stored route has exactly two nodes (the
    /// dilation-1 shape all Gray-code embeddings produce). Gates the
    /// metrics/verify pair fast paths.
    #[inline]
    pub fn all_pairs(&self) -> bool {
        self.pairs_only
    }

    /// The raw node arena viewed as `(u, v)` endpoint lanes. Only
    /// meaningful when [`RouteSet::all_pairs`] is `true`: lane `i` is
    /// `(pairs[2i], pairs[2i+1])` — route `i` without the offsets
    /// indirection.
    #[inline]
    pub fn pair_lanes(&self) -> &[u64] {
        debug_assert!(self.pairs_only);
        &self.nodes
    }

    /// Iterate over all routes.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> + '_ {
        (0..self.len()).map(move |i| self.route(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut rs = RouteSet::new();
        assert!(rs.is_empty());
        let a = rs.push(&[0, 1]);
        let b = rs.push(&[3, 2, 6]);
        let c = rs.push_iter([5u64]);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.route(0), &[0, 1]);
        assert_eq!(rs.route(1), &[3, 2, 6]);
        assert_eq!(rs.route(2), &[5]);
        assert_eq!(rs.dilation(0), 1);
        assert_eq!(rs.dilation(1), 2);
        assert_eq!(rs.dilation(2), 0);
        assert_eq!(rs.total_length(), 3);
    }

    #[test]
    fn iter_matches_indexing() {
        let mut rs = RouteSet::with_capacity(2, 5);
        rs.push(&[1, 0]);
        rs.push(&[2, 3, 7]);
        let collected: Vec<Vec<u64>> = rs.iter().map(|r| r.to_vec()).collect();
        assert_eq!(collected, vec![vec![1, 0], vec![2, 3, 7]]);
    }

    #[test]
    #[should_panic]
    fn empty_route_rejected() {
        RouteSet::new().push(&[]);
    }

    #[test]
    fn default_is_usable() {
        let rs = RouteSet::default();
        assert!(rs.is_empty());
        assert_eq!(rs.len(), 0);
        assert_eq!(rs.total_length(), 0);
    }

    #[test]
    fn pairs_only_tracks_route_shapes() {
        let mut rs = RouteSet::new();
        assert!(rs.all_pairs());
        rs.push_pair(0, 1);
        rs.push(&[2, 3]);
        rs.push_iter([4u64, 5]);
        assert!(rs.all_pairs());
        assert_eq!(rs.pair_lanes(), &[0, 1, 2, 3, 4, 5]);
        // A 3-node route plus a 1-node route keeps nodes.len() == 2·len()
        // but must clear the flag.
        rs.push(&[6, 7, 7]);
        rs.push(&[9]);
        assert!(!rs.all_pairs());
    }

    #[test]
    fn from_parts_derives_the_pairs_flag() {
        let pairs = RouteSet::from_parts(vec![0, 2, 4, 6], vec![0, 1, 2, 3, 8, 9]).unwrap();
        assert!(pairs.all_pairs());
        assert_eq!(pairs.pair_lanes(), &[0, 1, 2, 3, 8, 9]);
        // Same totals as three pairs, but a 3-node and a 1-node route.
        let mixed = RouteSet::from_parts(vec![0, 2, 5, 6], vec![0, 1, 6, 7, 7, 9]).unwrap();
        assert!(!mixed.all_pairs());
        // An empty arena is all pairs, like `RouteSet::new`.
        let empty = RouteSet::from_parts(vec![0], Vec::new()).unwrap();
        assert!(empty.is_empty() && empty.all_pairs());
    }

    #[test]
    fn from_parts_splices_in_order() {
        // Two chunks' routes laid end to end in one arena, the way parallel
        // builders fill it.
        let rs = RouteSet::from_parts(vec![0, 2, 5, 7, 8], vec![0, 1, 4, 5, 7, 2, 3, 9]).unwrap();
        assert_eq!(rs.len(), 4);
        assert_eq!(rs.route(0), &[0, 1]);
        assert_eq!(rs.route(1), &[4, 5, 7]);
        assert_eq!(rs.route(2), &[2, 3]);
        assert_eq!(rs.route(3), &[9]);
        assert_eq!(rs.total_length(), 4);
        assert!(!rs.all_pairs());
    }

    #[test]
    fn from_parts_rejects_offsets_not_starting_at_zero() {
        assert_eq!(
            RouteSet::from_parts(vec![1, 3], vec![0, 1, 2]).unwrap_err(),
            RouteSetError::OffsetsStart { found: Some(1) }
        );
        assert_eq!(
            RouteSet::from_parts(Vec::new(), Vec::new()).unwrap_err(),
            RouteSetError::OffsetsStart { found: None }
        );
    }

    #[test]
    fn from_parts_rejects_an_empty_route() {
        assert_eq!(
            RouteSet::from_parts(vec![0, 2, 2, 4], vec![0, 1, 2, 3]).unwrap_err(),
            RouteSetError::EmptyRoute { route: 1 }
        );
        // A decreasing offset is an empty (negative-length) route too.
        assert_eq!(
            RouteSet::from_parts(vec![0, 3, 2], vec![0, 1, 2]).unwrap_err(),
            RouteSetError::EmptyRoute { route: 1 }
        );
    }

    #[test]
    fn from_parts_rejects_an_end_that_is_not_the_arena_length() {
        assert_eq!(
            RouteSet::from_parts(vec![0, 2], vec![0, 1, 3]).unwrap_err(),
            RouteSetError::EndMismatch { end: 2, arena: 3 }
        );
        assert_eq!(
            RouteSet::from_parts(vec![0, 4], vec![0, 1, 3]).unwrap_err(),
            RouteSetError::EndMismatch { end: 4, arena: 3 }
        );
    }
}
