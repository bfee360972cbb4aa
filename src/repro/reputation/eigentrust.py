"""EigenTrust (Kamvar, Schlosser & Garcia-Molina, WWW 2003).

Global trust as the stationary distribution of a walk over normalised
local trust: peers who are trusted by trusted peers become trusted.
The pre-trusted set both seeds the walk and damps Sybil clusters —
fake identities that only endorse each other receive no inbound trust
from the pre-trusted core, so their global trust stays near zero.  This
is exactly the "counterbalance attacks during decision-making" property
the paper wants from a reputation layer (§IV-C).

Scaling: the solver **warm-starts** each recompute from the previous
converged vector, so a single new rating costs a few refinement sweeps
instead of a full from-scratch iteration (the teleport term makes the
fixed point unique, so the warm start changes the path, not the
destination).  Past a density threshold the local-trust matrix is never
materialised — sweeps run over a sparse edge list with
``numpy.bincount``, making per-sweep cost O(identities + edges) instead
of O(identities²).  ``compute_count`` / ``sweep_count`` /
``last_sweep_count`` expose how much work each recompute actually did.

Identities are any sortable, hashable values, and trust rows follow
their sorted order.  A population registered as ``range(n)`` — the load
workload's agent indices — is held as that range: identity ``i`` is row
``i``, so no identity set, sort or identity→row dict is ever built for
it.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ReputationError

__all__ = ["EigenTrust"]

# The dense path materialises an n x n matrix; past either bound the
# sparse edge-list path is used instead (above _SPARSE_MIN_IDS the
# matrix build itself is the bottleneck; between 64 and that bound
# sparsity decides).
_SPARSE_MIN_IDS = 512
_SPARSE_DENSITY = 0.25


def _is_prefix_range(identities: Iterable[Hashable]) -> bool:
    """``identities`` is ``range(n)``: 0, 1, …, n - 1."""
    return (
        isinstance(identities, range)
        and identities.start == 0
        and identities.step == 1
    )


class _RangeIndex:
    """identity → row for the identities ``range(n)``: each is its own
    row."""

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = n

    def get(self, identity: Hashable, default: Optional[int] = None):
        if type(identity) is int and 0 <= identity < self._n:
            return identity
        return default

    def __getitem__(self, identity: Hashable) -> int:
        row = self.get(identity)
        if row is None:
            raise KeyError(identity)
        return row

    def __contains__(self, identity: Hashable) -> bool:
        return self.get(identity) is not None


class EigenTrust:
    """Accumulates pairwise trust observations and computes global trust.

    Parameters
    ----------
    pretrusted:
        Identities assumed honest (platform founders, audited operators).
    alpha:
        Probability mass teleported to the pre-trusted set each step
        (the damping that bounds Sybil influence).
    warm_start:
        Start each recompute from the previous converged vector
        (default).  Disable to reproduce the cold-start behaviour, e.g.
        as a benchmark reference.
    """

    def __init__(
        self,
        pretrusted: Optional[Iterable[Hashable]] = None,
        alpha: float = 0.15,
        warm_start: bool = True,
    ):
        if not 0 <= alpha <= 1:
            raise ReputationError(f"alpha must be in [0, 1], got {alpha}")
        self._alpha = alpha
        self._pretrusted: Set[Hashable] = set(pretrusted or [])
        # local[(i, j)] = accumulated satisfaction of i with j (>= 0)
        self._local: Dict[Tuple[Hashable, Hashable], float] = {}
        # The known identities are ``range(self._dense)`` while it is
        # non-zero (``_identities`` then stays empty), else the set.
        self._dense = len(pretrusted) if _is_prefix_range(pretrusted) else 0
        self._identities: Set[Hashable] = (
            set() if self._dense else set(self._pretrusted)
        )
        self._warm_start = warm_start
        # Cached converged trust vector; valid while ``_dirty`` is False
        # and the solver parameters match ``_cache_params``.  Every
        # observation that actually changes the graph invalidates it.
        self._cached_trust: Optional[Dict[Hashable, float]] = None
        self._cache_params: Optional[Tuple[int, float]] = None
        self._dirty = True
        # Sorted identity list, rebuilt only when identities change (at
        # population scale re-sorting per recompute dominates).
        self._sorted_ids: Optional[Sequence[Hashable]] = None
        # Identity-set version: bumped whenever the identity set (and
        # therefore the sorted index mapping) changes; keys every
        # index-aligned cache below.
        self._ids_version = 0
        self._index_cache: Optional[Tuple[int, Dict[Hashable, int]]] = None
        # Edge arrays aligned to the current index mapping, maintained
        # incrementally between identity changes: value updates write in
        # place, fresh edges buffer in pending lists and are concatenated
        # at the next solve.  A write between existing identities
        # therefore costs O(1) bookkeeping, not an O(edges) rebuild.
        self._edge_pos: Dict[Tuple[Hashable, Hashable], int] = {}
        self._mat_version: Optional[int] = None
        self._rows_np = self._cols_np = self._vals_np = None
        self._pend_rows: List[int] = []
        self._pend_cols: List[int] = []
        self._pend_vals: List[float] = []
        # Previous converged vector as an index-aligned array (warm
        # start without a per-identity Python loop), plus the identity
        # list it was aligned to (for re-mapping after the set changes).
        self._prev_trust_np: Optional[np.ndarray] = None
        self._prev_ids: Sequence[Hashable] = []
        self._prev_trust_version: Optional[int] = None
        # Identity-sized work arrays, kept between solves (_work_arrays).
        self._work: Optional[np.ndarray] = None
        #: Number of full recomputes executed (exposed so tests and
        #: benchmarks can assert cache hits do not re-iterate).
        self.compute_count = 0
        #: Total refinement sweeps across all recomputes, and the sweeps
        #: the most recent recompute needed — warm starts show up as
        #: ``last_sweep_count`` collapsing after the first compute.
        self.sweep_count = 0
        self.last_sweep_count = 0

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def record_interaction(
        self, truster: Hashable, trustee: Hashable, satisfaction: float
    ) -> None:
        """Record that ``truster`` rated an interaction with ``trustee``.

        ``satisfaction`` is clamped at 0 from below (EigenTrust local
        trust is non-negative; negative experiences simply add nothing,
        per the original paper's ``max(sat, 0)`` rule).
        """
        if truster == trustee:
            raise ReputationError("self-trust is not recordable")
        if not (self._known(truster) and self._known(trustee)):
            self._add_identities((truster, trustee))
        if satisfaction > 0:
            key = (truster, trustee)
            existing = self._local.get(key)
            if existing is None:
                self._local[key] = satisfaction
                self._edge_pos[key] = len(self._local) - 1
                if self._mat_version == self._ids_version:
                    cache = self._index_cache
                    if cache is not None and cache[0] == self._ids_version:
                        index = cache[1]
                        self._pend_rows.append(index[truster])
                        self._pend_cols.append(index[trustee])
                        self._pend_vals.append(satisfaction)
                    else:  # pragma: no cover - defensive: force rebuild
                        self._mat_version = None
            else:
                self._local[key] = existing + satisfaction
                if self._mat_version == self._ids_version:
                    pos = self._edge_pos[key]
                    base = 0 if self._vals_np is None else len(self._vals_np)
                    if pos < base:
                        self._vals_np[pos] += satisfaction
                    else:
                        self._pend_vals[pos - base] += satisfaction
            self._dirty = True

    def add_identity(self, identity: Hashable) -> None:
        """Make an identity known even before any interactions."""
        if not self._known(identity):
            self._add_identities((identity,))

    def add_identities(self, identities: Iterable[Hashable]) -> None:
        """Bulk :meth:`add_identity`: one set update and one index
        invalidation for the whole batch, so registering a million-agent
        society triggers one sorted-index rebuild instead of one per
        agent.  ``range(n)`` is kept as a range (see the module
        docstring)."""
        if _is_prefix_range(identities) and all(
            type(i) is int and 0 <= i < len(identities)
            for i in self._identities
        ):
            # Every known identity is in the range: it holds them all.
            if len(identities) > self._dense + len(self._identities):
                self._dense = len(identities)
                self._identities = set()
                self._dirty = True
                self._invalidate_index()
            return
        new = set(identities) - self._identities
        if self._dense:
            new = {i for i in new if not self._known(i)}
        if new:
            self._add_identities(new)

    def _known(self, identity: Hashable) -> bool:
        if self._dense:
            return type(identity) is int and 0 <= identity < self._dense
        return identity in self._identities

    def _add_identities(self, identities: Iterable[Hashable]) -> None:
        """Add identities, at least one of them unknown."""
        if self._dense:
            # Leaving the range: hold every identity in the set.
            self._identities = set(range(self._dense))
            self._dense = 0
        self._identities.update(identities)
        self._dirty = True
        self._invalidate_index()

    def _invalidate_index(self) -> None:
        """The identity set changed: the sorted index mapping (and every
        array aligned to it) is stale."""
        self._sorted_ids = None
        self._ids_version += 1

    @property
    def identities(self) -> List[Hashable]:
        return list(self._ids())

    def _ids(self) -> Sequence[Hashable]:
        """The cached sorted identities themselves (callers must not
        mutate them): internal reads skip :attr:`identities`' copy, which
        at population scale is a fresh 100k-entry list per call."""
        if self._sorted_ids is None:
            self._sorted_ids = (
                range(self._dense) if self._dense else sorted(self._identities)
            )
        return self._sorted_ids

    # ------------------------------------------------------------------
    # Global trust
    # ------------------------------------------------------------------
    def compute(
        self, max_iterations: int = 100, tolerance: float = 1e-9
    ) -> Dict[Hashable, float]:
        """Iterate to the global trust vector.

        Returns identity → trust, summing to 1 over all identities.
        With no identities the result is empty; with no pre-trusted
        identities the teleport distribution is uniform.

        The converged vector is cached: repeated calls with no new
        observations (and the same solver parameters) return the cached
        result without re-iterating.  When observations did arrive, the
        previous vector seeds the new iteration (warm start), so an
        incremental update costs a few sweeps, not a cold solve.
        """
        self._ensure_solved(max_iterations, tolerance)
        if self._cached_trust is None:
            # Built lazily: single-identity reads (``trust_of``) are
            # served straight from the solved array and never pay the
            # O(n) dict materialisation.
            trust = self._prev_trust_np
            if trust is None:
                self._cached_trust = {}
            else:
                self._cached_trust = {
                    identity: float(trust[i])
                    for i, identity in enumerate(self._ids())
                }
        return dict(self._cached_trust)

    def _ensure_solved(self, max_iterations: int, tolerance: float) -> None:
        """Recompute the trust vector only when stale."""
        params = (max_iterations, tolerance)
        if not self._dirty and self._cache_params == params:
            return
        self._solve(max_iterations, tolerance)
        self._cached_trust = None
        self._cache_params = params
        self._dirty = False

    def _index(self, ids: Sequence[Hashable]) -> Dict[Hashable, int]:
        """identity → row index, cached until the identity set changes."""
        cache = self._index_cache
        if cache is not None and cache[0] == self._ids_version:
            return cache[1]
        if self._dense:
            index = _RangeIndex(self._dense)
        else:
            index = {identity: i for i, identity in enumerate(ids)}
        self._index_cache = (self._ids_version, index)
        return index

    def _solve(self, max_iterations: int, tolerance: float) -> None:
        ids = self._ids()
        if not ids:
            self._prev_trust_np = None
            self._prev_ids = []
            self._prev_trust_version = self._ids_version
            return
        self.compute_count += 1
        index = self._index(ids)
        n = len(ids)
        n_edges = len(self._local)

        # Teleport vector p: uniform over pre-trusted, else uniform.
        p = self._work_arrays(n)[0]
        pretrusted = [i for i in self._pretrusted if i in index]
        if pretrusted:
            p.fill(0.0)
            p[[index[identity] for identity in pretrusted]] = 1.0 / len(pretrusted)
        else:
            p.fill(1.0 / n)

        trust = self._start_vector(ids, index, p)
        use_sparse = n >= _SPARSE_MIN_IDS or (
            n >= 64 and n_edges < _SPARSE_DENSITY * n * n
        )
        if use_sparse:
            trust, sweeps = self._iterate_sparse(
                trust, p, index, max_iterations, tolerance
            )
        else:
            trust, sweeps = self._iterate_dense(
                trust, p, index, max_iterations, tolerance
            )
        self.sweep_count += sweeps
        self.last_sweep_count = sweeps

        total = trust.sum()
        # A new array either way: ``trust`` may be a work array.
        trust = trust / total if total > 0 else trust.copy()
        self._prev_trust_np = trust
        self._prev_ids = ids
        self._prev_trust_version = self._ids_version

    def _start_vector(
        self,
        ids: Sequence[Hashable],
        index: Dict[Hashable, int],
        p: np.ndarray,
    ) -> np.ndarray:
        """Warm start from the previous converged vector when possible.

        While the identity set is unchanged the previous solution is
        already index-aligned and is reused directly.  After an identity
        change, surviving identities keep their old mass (new ones start
        at 0) and the vector is renormalised onto the simplex.  Falls
        back to the teleport distribution on a cold start (or when warm
        starting is disabled).  The sweeps only read their start vector,
        so ``p`` and the previous solution are returned as they are.
        """
        if not self._warm_start:
            return p
        previous = self._prev_trust_np
        if previous is None:
            return p
        if (
            self._prev_trust_version == self._ids_version
            and len(previous) == len(ids)
        ):
            return previous
        trust = np.zeros(len(ids))
        for identity, value in zip(self._prev_ids, previous):
            i = index.get(identity)
            if i is not None:
                trust[i] = value
        total = trust.sum()
        if total <= 0:
            return p
        return trust / total

    def _work_arrays(self, n: int) -> np.ndarray:
        """Six rows of ``n`` floats, kept between solves of ``n``
        identities: the teleport vector and the sparse sweeps' work.

        A population-sized temporary per array operation is a fresh
        block from the allocator, and glibc maps blocks above its
        adaptive mmap threshold freshly each time, so every such
        temporary costs one page fault per 4 KiB page: at 100k
        identities that doubled the time of the sweeps."""
        if self._work is None or self._work.shape[1] != n:
            self._work = np.empty((6, n))
        return self._work

    def _iterate_dense(
        self,
        trust: np.ndarray,
        p: np.ndarray,
        index: Dict[Hashable, int],
        max_iterations: int,
        tolerance: float,
    ) -> Tuple[np.ndarray, int]:
        """Materialised-matrix sweeps (small, dense graphs).

        Local trust matrix C (row i = who i trusts) is built with one
        fancy-indexed assignment instead of a Python loop per edge.
        """
        n = len(p)
        matrix = np.zeros((n, n))
        if self._local:
            rows, cols, vals = self._edge_arrays(index)
            matrix[rows, cols] = vals
        row_sums = matrix.sum(axis=1, keepdims=True)

        # Row-normalise; rows with no outgoing trust fall back to p.
        has_out = row_sums[:, 0] > 0
        stochastic = np.where(
            has_out[:, None],
            matrix / np.where(row_sums > 0, row_sums, 1.0),
            p[None, :],
        )
        sweeps = 0
        for _ in range(max_iterations):
            updated = (1 - self._alpha) * stochastic.T.dot(trust) + self._alpha * p
            sweeps += 1
            if np.abs(updated - trust).sum() < tolerance:
                trust = updated
                break
            trust = updated
        return trust, sweeps

    def _iterate_sparse(
        self,
        trust: np.ndarray,
        p: np.ndarray,
        index: Dict[Hashable, int],
        max_iterations: int,
        tolerance: float,
    ) -> Tuple[np.ndarray, int]:
        """Edge-list sweeps: O(identities + edges) per sweep, no n x n
        matrix.  Semantically identical to the dense path — rows with no
        outgoing trust distribute their mass over the teleport vector.

        Each sweep computes ``(1 - alpha) * (propagated + dangling_mass
        * p) + alpha * p`` into the work arrays (:meth:`_work_arrays`),
        operation by operation in that order, so the values are those of
        the array expression; ``np.add.at`` accumulates each row in edge
        order, as ``np.bincount`` does."""
        _, teleport, even, odd, scratch, gathered = self._work
        np.multiply(p, self._alpha, out=teleport)
        if self._local:
            rows, cols, vals = self._edge_arrays(index)
            scratch.fill(0.0)
            np.add.at(scratch, rows, vals)  # row sums
            weights = vals / scratch[rows]
            dangling = np.flatnonzero(scratch <= 0)
        else:
            rows = None
            dangling = np.arange(len(p))
        dangling_trust = gathered[: dangling.size]
        one_minus_alpha = 1 - self._alpha
        sweeps = 0
        for _ in range(max_iterations):
            updated = odd if sweeps % 2 else even
            updated.fill(0.0)
            if rows is not None:
                np.add.at(updated, cols, trust[rows] * weights)
            np.take(trust, dangling, out=dangling_trust)
            np.multiply(p, dangling_trust.sum(), out=scratch)
            updated += scratch
            updated *= one_minus_alpha
            updated += teleport
            sweeps += 1
            np.subtract(updated, trust, out=scratch)
            np.abs(scratch, out=scratch)
            converged = scratch.sum() < tolerance
            trust = updated
            if converged:
                break
        return trust, sweeps

    def _edge_arrays(
        self, index: Dict[Hashable, int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of accumulated local trust, in stable
        insertion order (deterministic across same-history instances).

        Rebuilt from scratch only when the identity set changed since
        the previous solve; otherwise pending same-identity writes are
        folded in with one concatenate (O(pending + memcpy), no Python
        iteration over the whole edge dict).
        """
        if self._mat_version != self._ids_version:
            count = len(self._local)
            self._rows_np = np.fromiter(
                (index[truster] for truster, _ in self._local),
                dtype=np.intp,
                count=count,
            )
            self._cols_np = np.fromiter(
                (index[trustee] for _, trustee in self._local),
                dtype=np.intp,
                count=count,
            )
            self._vals_np = np.fromiter(
                self._local.values(), dtype=np.float64, count=count
            )
            self._pend_rows.clear()
            self._pend_cols.clear()
            self._pend_vals.clear()
            self._mat_version = self._ids_version
        elif self._pend_rows:
            self._rows_np = np.concatenate(
                [self._rows_np, np.asarray(self._pend_rows, dtype=np.intp)]
            )
            self._cols_np = np.concatenate(
                [self._cols_np, np.asarray(self._pend_cols, dtype=np.intp)]
            )
            self._vals_np = np.concatenate(
                [self._vals_np, np.asarray(self._pend_vals, dtype=np.float64)]
            )
            self._pend_rows.clear()
            self._pend_cols.clear()
            self._pend_vals.clear()
        return self._rows_np, self._cols_np, self._vals_np

    def trust_of(self, identity: Hashable, **kwargs) -> float:
        """Single lookup served from the cached vector — O(1) between
        observations instead of a full power iteration per call."""
        max_iterations = kwargs.pop("max_iterations", 100)
        tolerance = kwargs.pop("tolerance", 1e-9)
        if kwargs:
            raise TypeError(f"unexpected arguments: {sorted(kwargs)}")
        self._ensure_solved(max_iterations, tolerance)
        trust = self._prev_trust_np
        if trust is None:
            return 0.0
        i = self._index(self._ids()).get(identity)
        return float(trust[i]) if i is not None else 0.0

    def max_trust(self, **kwargs) -> float:
        """Largest global-trust value, read off the solved vector.

        Unlike :meth:`compute` this never materialises the per-identity
        dict — the columnar load path reads it once per epoch, which at
        1M agents is the difference between an O(1) array max and
        building a million-entry dict to throw away."""
        max_iterations = kwargs.pop("max_iterations", 100)
        tolerance = kwargs.pop("tolerance", 1e-9)
        if kwargs:
            raise TypeError(f"unexpected arguments: {sorted(kwargs)}")
        self._ensure_solved(max_iterations, tolerance)
        trust = self._prev_trust_np
        if trust is None or trust.size == 0:
            return 0.0
        return float(trust.max())
