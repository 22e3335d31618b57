"""Pairwise independent 2-paths: greedy certification and exact search.

Two 2-paths are independent when they share at most one vertex, that is,
no vertex pair.  The greedy count and the independence check keep one set
of covered pairs and accept a path iff none of its three pairs is covered,
O(d^2) set lookups at worst for a center of degree d.  The greedy count
certifies a lower bound on the maximum; the exact search is reserved for
tiny instances and backs the tests.  ``verify_lower_bounds`` checks a
graph against the structural floors used to size the sampling threshold:
ceil(|V|/2)-1 for connected graphs, floor(m/9) for connected bipartite
graphs, floor(m/18) in general.
"""

import heapq
from collections import deque
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
    a star.  Stops early at ``target``.
    """
    indptr, indices = np.asarray(indptr), np.asarray(indices)
    covered: set[tuple[int, int]] = set()
    count = 0
    for v in np.flatnonzero(np.diff(indptr) >= 2).tolist():
        ordered = indices[indptr[v]:indptr[v + 1]].tolist()
        for i in range(len(ordered) - 1):
            u = ordered[i]
            if (min(u, v), max(u, v)) in covered:
                continue
            for j in range(i + 1, len(ordered)):
                pairs = _pairs(u, v, ordered[j])
                if covered.isdisjoint(pairs):
                    covered.update(pairs)
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


def spanning_tree_two_paths(adj: dict[int, set[int]]) -> list[TwoPath]:
    """Constructive independent set of size >= ceil(n/2) - 1 (connected input).

    Root a BFS spanning tree, then repeatedly take a deepest leaf u with
    parent v: pair u with a sibling leaf w (removing u and w) when one
    exists, otherwise with v's parent w (removing u and v).  Every round
    consumes two vertices and emits one 2-path, and any two emitted paths
    share at most the one retained vertex.
    """
    if not adj:
        return []
    root = min(adj)
    parent: dict[int, int] = {root: 0}
    depth = {root: 0}
    children: dict[int, list[int]] = {v: [] for v in adj}
    order = deque([root])
    while order:
        x = order.popleft()
        for y in adj[x]:
            if y not in depth:
                depth[y] = depth[x] + 1
                parent[y] = x
                children[x].append(y)
                order.append(y)
    if len(depth) != len(adj):
        raise NotConnectedError("graph is not connected")

    # Each child list stays sorted and its dead entries are skipped lazily:
    # first[v] indexes the smallest child of v that may still be alive, and
    # left[v] counts v's alive children.
    for kids in children.values():
        kids.sort()
    first = dict.fromkeys(adj, 0)
    left = {v: len(kids) for v, kids in children.items()}
    alive = set(adj)
    heap = [(-depth[v], v) for v in adj if not children[v]]
    heapq.heapify(heap)
    paths: list[TwoPath] = []
    while len(alive) >= 3 and heap:
        _, u = heapq.heappop(heap)
        if u not in alive or left[u] or u == root:
            continue
        v = parent[u]
        if left[v] > 1:
            # the smallest alive child of v other than u; the deepest-leaf
            # rule makes every sibling a leaf
            kids, i = children[v], first[v]
            while kids[i] not in alive:
                i += 1
            first[v] = i
            if kids[i] == u:
                i += 1
                while kids[i] not in alive:
                    i += 1
            w = kids[i]
            paths.append((min(u, w), v, max(u, w)))
            alive.discard(u)
            alive.discard(w)
            left[v] -= 2
            if not left[v]:
                heapq.heappush(heap, (-depth[v], v))
        else:
            if v == root:
                break  # only root and u left on this branch
            w = parent[v]
            a, b = sorted((u, w))
            paths.append((a, v, b))
            alive.discard(u)
            alive.discard(v)
            left[w] -= 1
            if not left[w]:
                heapq.heappush(heap, (-depth[w], w))
    _assert_independent(paths)
    return paths


def _assert_independent(paths: list[TwoPath]) -> None:
    """Raise unless each vertex pair belongs to at most one path."""
    owner: dict[tuple[int, int], int] = {}
    for i, path in enumerate(paths):
        for pair in _pairs(*path):
            j = owner.setdefault(pair, i)
            if j != i:
                raise RuntimeError(f"paths {(j, i)} share two vertices")


def _bfs_parity(adj: dict[int, set[int]], start: int) -> tuple[dict[int, int], bool]:
    """Depth parity of each vertex reached from ``start``, and whether no
    edge among them joins two vertices of equal parity (bipartite)."""
    side = {start: 0}
    bipartite = True
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in side:
                side[y] = side[x] ^ 1
                queue.append(y)
            elif side[y] == side[x]:
                bipartite = False
    return side, bipartite


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
    side, bipartite = _bfs_parity(adj, next(iter(adj)))
    if len(side) != len(adj):
        raise NotConnectedError("graph is not connected")
    for u, nbrs in adj.items():
        if len(nbrs) == 1:
            v = next(iter(nbrs))
            if len(adj[v]) == 1:
                raise HasIsolatedEdgesError(f"edge ({u}, {v}) is an isolated edge")
    n = len(adj)
    m = sum(len(s) for s in adj.values()) // 2
    greedy = greedy_independent_count(*csr_from_adj(adj))
    tree_witness = len(spanning_tree_two_paths(adj))
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
