"""Pairwise independent 2-paths: greedy certification and exact search.

Two 2-paths are independent when they share at most one vertex, that is,
no vertex pair.  The greedy count and the independence check keep one set
of covered pairs and accept a path iff none of its three pairs is covered,
O(d^2) set lookups at worst for a center of degree d.  The greedy count
certifies a lower bound on the maximum; the exact search is reserved for
tiny instances and backs the tests.  ``verify_lower_bounds`` checks a
graph against the structural floors used to size the sampling threshold:
ceil(|V|/2)-1 for connected graphs, floor(m/9) for connected bipartite
graphs, floor(m/18) in general.  It walks one BFS spanning tree: pairing
its vertices bottom-up meets the ceil(|V|/2)-1 floor exactly, and its depth
parities decide bipartiteness.
"""

from dataclasses import dataclass

import numpy as np

TwoPath = tuple[int, int, int]  # (u, center, w) with u < w


class BudgetExceededError(ValueError):
    """Exact search requested on an instance above its size budget."""


class NotConnectedError(ValueError):
    pass


class HasIsolatedEdgesError(ValueError):
    pass


def _pairs(u: int, v: int, w: int) -> tuple[tuple[int, int], ...]:
    """The three vertex pairs of 2-path (u, v, w), each as (low, high)."""
    return (
        (u, v) if u < v else (v, u),
        (v, w) if v < w else (w, v),
        (u, w) if u < w else (w, u),
    )


def greedy_independent_count(indptr, indices, target: int | None = None) -> int:
    """Size of a maximal independent set of 2-paths, built greedily.

    The graph comes as CSR adjacency over vertices 0..V-1: row ``v`` is
    ``indices[indptr[v]:indptr[v+1]]``, sorted ascending (``csr_from_adj``
    converts a dict of neighbor sets).  Centers are visited in ascending
    order and neighbor pairs in lexicographic order; a candidate (u, v, w)
    is kept iff none of its pairs is covered by a selected path.  Once
    {u, v} is covered no (u, v, w) can be kept, so ``u`` is skipped or its
    scan ends: O(d^2) set lookups at worst per center of degree d, O(d) on
    a star.  Stops early at ``target``.  The estimator calls it only for a
    several-color copy whose verdict the degree bounds leave open, and
    passes that copy's own CSR, so only its centers of degree 2 or more are
    visited.
    """
    indptr, indices = np.asarray(indptr), np.asarray(indices)
    covered: set[tuple[int, int]] = set()
    count = 0
    for v in np.flatnonzero(np.diff(indptr) >= 2).tolist():
        ordered = indices[indptr[v]:indptr[v + 1]].tolist()
        for i in range(len(ordered) - 1):
            u = ordered[i]
            uv = (u, v) if u < v else (v, u)
            if uv in covered:
                continue
            for j in range(i + 1, len(ordered)):
                # {u, v} is not covered, and u < w since the row is ascending
                w = ordered[j]
                vw = (v, w) if v < w else (w, v)
                if vw not in covered and (u, w) not in covered:
                    covered.update((uv, vw, (u, w)))
                    count += 1
                    if target is not None and count >= target:
                        return count
                    break
    return count


def csr_from_adj(adj: dict[int, set[int]]) -> tuple[np.ndarray, np.ndarray]:
    """CSR form of a dict of neighbor sets, vertices renumbered 0..V-1 by id.

    Renumbering keeps the order of ids, so sorted rows stay sorted and
    ``greedy_independent_count`` visits the same paths in the same order.
    """
    vertices = sorted(adj)
    pos = {x: i for i, x in enumerate(vertices)}
    degrees = np.array([len(adj[x]) for x in vertices], dtype=np.int64)
    indptr = np.zeros(degrees.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.array([pos[y] for x in vertices for y in sorted(adj[x])], dtype=np.int64)
    return indptr, indices


def enumerate_two_paths(adj: dict[int, set[int]]) -> list[TwoPath]:
    """All 2-paths of a graph, center in the middle, endpoints ascending."""
    paths = []
    for v in sorted(adj):
        ordered = sorted(adj[v])
        for i in range(len(ordered) - 1):
            for j in range(i + 1, len(ordered)):
                paths.append((ordered[i], v, ordered[j]))
    return paths


def max_independent_two_paths(adj: dict[int, set[int]], budget: int = 24) -> int:
    """Exact maximum via branch and bound over the conflict graph."""
    paths = enumerate_two_paths(adj)
    k = len(paths)
    if k > budget:
        raise BudgetExceededError(f"{k} 2-paths exceed the exact-search budget of {budget}")
    vsets = [frozenset(p) for p in paths]
    conflict = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if len(vsets[i] & vsets[j]) >= 2:
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    best = 0

    def rec(avail: int, size: int) -> None:
        nonlocal best
        if size + avail.bit_count() <= best:
            return
        if avail == 0:
            best = max(best, size)
            return
        low = avail & -avail
        i = low.bit_length() - 1
        rec((avail ^ low) & ~conflict[i], size + 1)  # take path i
        rec(avail ^ low, size)  # skip path i

    rec((1 << k) - 1, 0)
    return best


def _bfs_tree(adj: dict[int, set[int]]) -> tuple[list[int], dict[int, int]]:
    """A BFS spanning tree as (visit order, parent of each vertex).

    The root is the smallest id and its own parent.  Each neighbor set is
    visited in ascending order, so the tree depends on the graph alone, not
    on the order of its sets.
    """
    root = min(adj)
    parent = {root: root}
    order = [root]
    for x in order:  # grows as it is walked: a FIFO queue
        for y in sorted(adj[x]):
            if y not in parent:
                parent[y] = x
                order.append(y)
    if len(order) != len(adj):
        raise NotConnectedError("graph is not connected")
    return order, parent


def _tree_two_paths(order: list[int], parent: dict[int, int]) -> list[TwoPath]:
    """Independent 2-paths of a BFS tree, paired bottom-up.

    Deeper vertices come first in reversed BFS order.  Each vertex v pairs
    its unpaired children two at a time as (a, v, b).  A child c left over
    gives (c, v, parent(v)), which uses up v as well; otherwise v joins its
    parent's unpaired children.  Every path uses up two vertices, and at
    most the root and one child are left, so there are (n-1)//2 paths.
    """
    root = order[0]
    unpaired: dict[int, list[int]] = {v: [] for v in order}
    paths: list[TwoPath] = []
    for v in reversed(order):
        kids = unpaired.pop(v)
        if len(kids) % 2 and v != root:
            kids.append(parent[v])  # (c, v, parent(v)) uses up v too
        elif v != root:
            unpaired[parent[v]].append(v)
        for a, b in zip(kids[::2], kids[1::2]):
            paths.append((a, v, b) if a < b else (b, v, a))
    _assert_independent(paths)
    return paths


def spanning_tree_two_paths(adj: dict[int, set[int]]) -> list[TwoPath]:
    """Constructive independent set of size ceil(n/2) - 1 (connected input).

    The bottom-up pairing of ``_tree_two_paths`` over the BFS tree of
    ``_bfs_tree``; any two of its paths share at most one vertex.
    """
    return _tree_two_paths(*_bfs_tree(adj)) if adj else []


def _assert_independent(paths: list[TwoPath]) -> None:
    """Raise unless each vertex pair belongs to at most one path."""
    owner: dict[tuple[int, int], int] = {}
    for i, path in enumerate(paths):
        for pair in _pairs(*path):
            j = owner.setdefault(pair, i)
            if j != i:
                raise RuntimeError(f"paths {(j, i)} share two vertices")


@dataclass(frozen=True)
class LowerBoundReport:
    n: int
    m: int
    greedy_count: int
    tree_witness: int             # size of the spanning-tree construction
    bound_connected: int          # ceil(n/2) - 1
    bound_general: int            # floor(m/18)
    bound_bipartite: int | None   # floor(m/9), only for bipartite graphs
    connected_ok: bool
    general_ok: bool
    bipartite_ok: bool | None


def verify_lower_bounds(adj: dict[int, set[int]]) -> LowerBoundReport:
    """Check the greedy witness against the structural floors.

    Requires a connected graph without isolated edges; a shortfall is
    reported in the flags, never raised, so sweeps can surface candidate
    counterexamples.
    """
    if not adj:
        raise NotConnectedError("empty graph")
    order, parent = _bfs_tree(adj)
    for u, nbrs in adj.items():
        if len(nbrs) == 1:
            v = next(iter(nbrs))
            if len(adj[v]) == 1:
                raise HasIsolatedEdgesError(f"edge ({u}, {v}) is an isolated edge")
    # depth parity down the tree; bipartite iff every edge joins opposite parities
    side = {order[0]: 0}
    for v in order[1:]:
        side[v] = side[parent[v]] ^ 1
    bipartite = all(side[u] != side[w] for u, nbrs in adj.items() for w in nbrs)
    n = len(adj)
    m = sum(len(s) for s in adj.values()) // 2
    greedy = greedy_independent_count(*csr_from_adj(adj))
    tree_witness = len(_tree_two_paths(order, parent))
    # greedy builds a maximal set, which meets the m/9 and m/18 floors on
    # its own; the ceil(n/2)-1 floor needs the spanning-tree construction.
    best = max(greedy, tree_witness)
    bound_conn = (n + 1) // 2 - 1
    bound_gen = m // 18
    bound_bip = m // 9 if bipartite else None
    return LowerBoundReport(
        n=n,
        m=m,
        greedy_count=greedy,
        tree_witness=tree_witness,
        bound_connected=bound_conn,
        bound_general=bound_gen,
        bound_bipartite=bound_bip,
        connected_ok=best >= bound_conn,
        general_ok=best >= bound_gen,
        bipartite_ok=(best >= bound_bip) if bipartite else None,
    )
