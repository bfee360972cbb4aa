"""Social graphs: who knows whom, and how much they trust each other.

A thin, typed wrapper over ``networkx`` undirected graphs with per-edge
trust weights in [0, 1].  Generators cover the topologies used by the
misinformation experiment (E7): scale-free (Barabási–Albert, like real
follower graphs), small-world (Watts–Strogatz), and Erdős–Rényi.

For population-scale traversal the graph compiles to an immutable CSR
snapshot (:class:`CsrSnapshot`): members sorted lexicographically,
``int32`` ``indptr``/``indices`` adjacency with neighbours in index
order, and ``float64`` trust weights.  The snapshot — like the cached
tuple views ``members_view``/``neighbors_view``/``sorted_neighbors`` —
is invalidated by any mutation (``add_member``/``connect``/
``set_trust``), so hot loops never observe stale topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.errors import ReproError

__all__ = ["CsrSnapshot", "SocialGraph"]


@dataclass(frozen=True)
class CsrSnapshot:
    """Compiled read-only adjacency of a :class:`SocialGraph`.

    ``ids`` is the member roster sorted lexicographically, so array
    index order *is* sorted-id order — the order the cascade loop
    already iterates in.  Row ``i`` holds the neighbours of
    ``ids[i]`` as ``indices[indptr[i]:indptr[i + 1]]`` (ascending, i.e.
    lexicographic by id) with tie trust in the matching ``weights``
    slots, and ``rows`` names each entry's row, so the entries in order
    are the (member, neighbour) pairs in sorted-member-then-neighbour
    order.  The undirected graph stores each edge in both rows.
    """

    ids: Tuple[str, ...]
    index: Dict[str, int]
    indptr: np.ndarray  # int32, shape (n + 1,)
    indices: np.ndarray  # int32, shape (2 * edges,)
    weights: np.ndarray  # float64, shape (2 * edges,)
    rows: np.ndarray  # intp, shape (2 * edges,)

    @property
    def n_members(self) -> int:
        return len(self.ids)

    def neighbors_of(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def weights_of(self, i: int) -> np.ndarray:
        return self.weights[self.indptr[i] : self.indptr[i + 1]]


class SocialGraph:
    """An undirected trust-weighted social graph."""

    def __init__(self) -> None:
        self._graph = nx.Graph()
        # Mutation epoch: every cached view checks it instead of being
        # eagerly rebuilt (mutations are bursts, reads are hot loops).
        self._version = 0
        self._members_view: Optional[Tuple[str, ...]] = None
        self._sorted_members: Optional[Tuple[str, ...]] = None
        self._neighbor_views: Dict[str, Tuple[str, ...]] = {}
        self._sorted_neighbor_views: Dict[str, Tuple[str, ...]] = {}
        self._csr: Optional[CsrSnapshot] = None

    def _invalidate(self) -> None:
        self._version += 1
        self._members_view = None
        self._sorted_members = None
        self._neighbor_views.clear()
        self._sorted_neighbor_views.clear()
        self._csr = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_member(self, member_id: str) -> None:
        self._graph.add_node(member_id)
        self._invalidate()

    def connect(self, a: str, b: str, trust: float = 0.5) -> None:
        """Create (or update) a tie with the given trust weight."""
        if a == b:
            raise ReproError(f"{a} cannot befriend themselves")
        if not 0 <= trust <= 1:
            raise ReproError(f"trust must be in [0, 1], got {trust}")
        self._graph.add_edge(a, b, trust=float(trust))
        self._invalidate()

    def set_trust(self, a: str, b: str, trust: float) -> None:
        if not self._graph.has_edge(a, b):
            raise ReproError(f"no tie between {a} and {b}")
        if not 0 <= trust <= 1:
            raise ReproError(f"trust must be in [0, 1], got {trust}")
        self._graph[a][b]["trust"] = float(trust)
        self._invalidate()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter; bumps whenever topology or weights change."""
        return self._version

    def members(self) -> List[str]:
        return list(self.members_view())

    def members_view(self) -> Tuple[str, ...]:
        """Cached member tuple (insertion order); no per-call copy."""
        if self._members_view is None:
            self._members_view = tuple(self._graph.nodes)
        return self._members_view

    def sorted_members(self) -> Tuple[str, ...]:
        """Cached lexicographically sorted member tuple."""
        if self._sorted_members is None:
            self._sorted_members = tuple(sorted(self._graph.nodes))
        return self._sorted_members

    def neighbors(self, member_id: str) -> List[str]:
        return list(self.neighbors_view(member_id))

    def neighbors_view(self, member_id: str) -> Tuple[str, ...]:
        """Cached neighbour tuple (adjacency order); no per-call copy."""
        view = self._neighbor_views.get(member_id)
        if view is None:
            if member_id not in self._graph:
                raise ReproError(f"{member_id} not in graph")
            view = tuple(self._graph.neighbors(member_id))
            self._neighbor_views[member_id] = view
        return view

    def sorted_neighbors(self, member_id: str) -> Tuple[str, ...]:
        """Cached lexicographically sorted neighbour tuple — the order
        deterministic traversals (the cascade loop) visit ties in."""
        view = self._sorted_neighbor_views.get(member_id)
        if view is None:
            view = tuple(sorted(self.neighbors_view(member_id)))
            self._sorted_neighbor_views[member_id] = view
        return view

    def trust(self, a: str, b: str) -> float:
        if not self._graph.has_edge(a, b):
            return 0.0
        return float(self._graph[a][b].get("trust", 0.5))

    def degree(self, member_id: str) -> int:
        return int(self._graph.degree(member_id))

    def edges(self) -> Iterator[Tuple[str, str, float]]:
        for a, b, data in self._graph.edges(data=True):
            yield a, b, float(data.get("trust", 0.5))

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._graph

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def edge_count(self) -> int:
        return self._graph.number_of_edges()

    @property
    def nx_graph(self) -> nx.Graph:
        """The underlying networkx graph (read-mostly escape hatch)."""
        return self._graph

    # ------------------------------------------------------------------
    # Compiled adjacency
    # ------------------------------------------------------------------
    def csr(self) -> CsrSnapshot:
        """The compiled CSR snapshot (cached until the next mutation)."""
        if self._csr is None:
            self._csr = self._compile_csr()
        return self._csr

    def _compile_csr(self) -> CsrSnapshot:
        ids = self.sorted_members()
        index = {member: i for i, member in enumerate(ids)}
        n = len(ids)
        m = self._graph.number_of_edges()
        src = np.empty(2 * m, dtype=np.int32)
        dst = np.empty(2 * m, dtype=np.int32)
        wts = np.empty(2 * m, dtype=np.float64)
        pos = 0
        for a, b, data in self._graph.edges(data=True):
            ia, ib = index[a], index[b]
            w = float(data.get("trust", 0.5))
            src[pos], dst[pos], wts[pos] = ia, ib, w
            src[pos + 1], dst[pos + 1], wts[pos + 1] = ib, ia, w
            pos += 2
        order = np.lexsort((dst, src))
        src, dst, wts = src[order], dst[order], wts[order]
        indptr = np.zeros(n + 1, dtype=np.int32)
        indptr[1:] = np.cumsum(np.bincount(src, minlength=n))
        return CsrSnapshot(
            ids=ids, index=index, indptr=indptr, indices=dst, weights=wts,
            rows=src.astype(np.intp),
        )

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------
    @classmethod
    def scale_free(
        cls, n: int, attachment: int, rng: np.random.Generator,
        prefix: str = "m",
    ) -> "SocialGraph":
        """Barabási–Albert preferential attachment (hub-heavy, like real
        social platforms); trust weights ~ U(0.2, 0.9)."""
        raw = nx.barabasi_albert_graph(n, attachment, seed=int(rng.integers(2**31)))
        return cls._from_nx(raw, rng, prefix)

    @classmethod
    def small_world(
        cls, n: int, k: int, rewire_p: float, rng: np.random.Generator,
        prefix: str = "m",
    ) -> "SocialGraph":
        """Watts–Strogatz ring with rewiring (high clustering)."""
        raw = nx.watts_strogatz_graph(
            n, k, rewire_p, seed=int(rng.integers(2**31))
        )
        return cls._from_nx(raw, rng, prefix)

    @classmethod
    def random(
        cls, n: int, edge_p: float, rng: np.random.Generator,
        prefix: str = "m",
    ) -> "SocialGraph":
        """Erdős–Rényi G(n, p)."""
        raw = nx.gnp_random_graph(n, edge_p, seed=int(rng.integers(2**31)))
        return cls._from_nx(raw, rng, prefix)

    @classmethod
    def _from_nx(
        cls, raw: nx.Graph, rng: np.random.Generator, prefix: str
    ) -> "SocialGraph":
        graph = cls()
        mapping = {node: f"{prefix}{node:05d}" for node in raw.nodes}
        graph._graph.add_nodes_from(mapping[node] for node in raw.nodes)
        graph._graph.add_edges_from(
            (mapping[a], mapping[b], {"trust": float(rng.uniform(0.2, 0.9))})
            for a, b in raw.edges
        )
        graph._invalidate()
        return graph
