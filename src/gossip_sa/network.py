"""Random gossip matrices over a weighted communication graph.

At each step a single edge wakes up with some probability and its two
endpoints average their values; otherwise nothing happens.  Every matrix
realized this way is doubly stochastic, so the network-wide average is
invariant under mixing.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Tolerance applied to every double-stochasticity check.
DOUBLY_STOCHASTIC_TOL = 1e-12


def pairwise_matrix(i: int, j: int, n_agents: int) -> np.ndarray:
    """Mixing matrix for one exchange between agents ``i`` and ``j`` (1-based).

    The two participating agents replace their values with the pair average
    while everyone else keeps theirs.  The result is symmetric, idempotent
    and doubly stochastic.
    """
    if not (1 <= i <= n_agents) or not (1 <= j <= n_agents):
        raise ValueError(f"agent indices must lie in [1, {n_agents}], got ({i}, {j})")
    if i == j:
        raise ValueError("a pairwise exchange needs two distinct agents")
    w = np.eye(n_agents)
    a, b = i - 1, j - 1
    w[a, a] = w[b, b] = 0.5
    w[a, b] = w[b, a] = 0.5
    return w


def check_doubly_stochastic(w: np.ndarray, tol: float = DOUBLY_STOCHASTIC_TOL) -> None:
    """Raise ``ValueError`` unless ``w`` is doubly stochastic within ``tol``.

    The matrix must be square; NaN entries fail.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"mixing matrix must be square, got shape {w.shape}")
    low = float(np.min(w))
    if not low >= -tol:
        raise ValueError(f"mixing matrix has a negative or NaN entry: {low:.3e}")
    row_err = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
    col_err = float(np.max(np.abs(w.sum(axis=0) - 1.0)))
    if not (row_err <= tol and col_err <= tol):
        raise ValueError(
            "matrix is not doubly stochastic: "
            f"max row-sum error {row_err:.3e}, max column-sum error {col_err:.3e}"
        )


@dataclass(frozen=True)
class Graph:
    """Undirected communication graph with a selection probability per edge.

    Agents are numbered ``1..n_agents``; edges are ``(i, j)`` pairs with
    ``i < j``.  ``pair_probs`` must be positive and sum to one: they are the
    probabilities of each pair being the one that communicates, conditioned
    on some exchange happening at all.
    """

    n_agents: int
    edges: tuple[tuple[int, int], ...]
    pair_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n_agents < 2:
            raise ValueError("a gossip graph needs at least two agents")
        if not self.edges:
            raise ValueError("a gossip graph needs at least one edge")
        if len(self.edges) != len(self.pair_probs):
            raise ValueError("edges and pair_probs must have equal length")
        seen: set[tuple[int, int]] = set()
        for i, j in self.edges:
            if not (1 <= i < j <= self.n_agents):
                raise ValueError(
                    f"edge ({i}, {j}) must satisfy 1 <= i < j <= {self.n_agents}"
                )
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
        probs = np.asarray(self.pair_probs, dtype=float)
        if np.any(probs <= 0.0):
            raise ValueError("every edge probability must be positive")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"edge probabilities must sum to 1, got {total!r}")

    @classmethod
    def from_edges(cls, n_agents, edges, weights=None) -> "Graph":
        """Build a graph from edge pairs, normalizing ``weights``.

        Edge orientation is canonicalized to ``i < j``.  When ``weights`` is
        omitted the edges are weighted uniformly.
        """
        canon = tuple((min(i, j), max(i, j)) for i, j in edges)
        if weights is None:
            probs = np.full(len(canon), 1.0 / len(canon)) if canon else np.zeros(0)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (len(canon),):
                raise ValueError("weights must match the number of edges")
            if np.any(w <= 0.0):
                raise ValueError("edge weights must be positive")
            probs = w / w.sum()
        return cls(n_agents=n_agents, edges=canon, pair_probs=tuple(float(p) for p in probs))


@dataclass(frozen=True)
class GossipModel:
    """Distribution over mixing matrices: at most one edge exchange per step.

    At step ``n`` an exchange happens with probability
    ``min(1, activation_scale * n**-activation_decay)``; with the remaining
    probability the realized matrix is the identity (a lazy step).  The edge
    taking part in an exchange is drawn from ``graph.pair_probs``.
    """

    graph: Graph
    activation_scale: float = 1.0
    activation_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.activation_scale <= 0.0:
            raise ValueError("activation_scale must be positive")
        if self.activation_decay < 0.0:
            raise ValueError("activation_decay must be nonnegative")

    def activation_probability(self, n: int) -> float:
        """Probability that some exchange takes place at step ``n`` (n >= 1)."""
        if n < 1:
            raise ValueError("iteration index starts at 1")
        return min(1.0, self.activation_scale * float(n) ** (-self.activation_decay))

    @cached_property
    def _edge_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """0-based endpoint arrays plus the cumulative edge distribution."""
        i = np.array([e[0] - 1 for e in self.graph.edges], dtype=np.intp)
        j = np.array([e[1] - 1 for e in self.graph.edges], dtype=np.intp)
        cum = np.cumsum(np.asarray(self.graph.pair_probs, dtype=float))
        cum[-1] = 1.0  # guard against rounding in the final bin
        return i, j, cum

    @cached_property
    def _edge_cdf(self) -> list[float]:
        """The cumulative edge distribution as a Python list.

        ``bisect.bisect_right`` on it picks the same index as
        ``np.searchsorted(cum, u, side="right")`` for every float ``u``, at a
        fraction of the call cost on a handful of edges.
        """
        return self._edge_table[2].tolist()

    def pick_edges(self, draws: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """0-based edge index for each uniform draw in ``draws``.

        Counts the inner thresholds ``cum[:-1]`` each draw has reached, one
        vectorized comparison per edge.  For every float this equals
        ``min(np.searchsorted(cum, draws, side="right"), n_edges - 1)``,
        including at each ``cum`` entry and its neighbours.  The cost grows
        linearly with the number of edges.  For 4000 draws on a 2-CPU VM
        (numpy 2.4) it beats ``searchsorted`` about 3x on 5 edges (8-13
        against 27-29 µs) and 1.5-2x on 20 edges, breaks even near 60 edges
        and is about 2x slower on 200 (420-560 against 205-225 µs).
        ``out`` may be any integer array that holds ``n_edges - 1``.
        """
        if out is None:
            out = np.empty(draws.shape, dtype=np.min_scalar_type(len(self._edge_cdf)))
        # A single edge has no inner threshold: every draw picks edge 0.
        first, *rest = self._edge_cdf[:-1] or [np.inf]
        np.greater_equal(draws, first, out=out)
        for c in rest:
            out += draws >= c
        return out

    @cached_property
    def _alphabet(self) -> tuple[np.ndarray, ...]:
        """Every realizable mixing matrix, read-only: the identity, then one
        pairwise exchange per edge in edge order.

        Each is checked doubly stochastic here, once per model; this is what
        lets the engine mix with them unchecked.
        """
        n_agents = self.graph.n_agents
        matrices = (np.eye(n_agents),) + tuple(
            pairwise_matrix(i, j, n_agents) for i, j in self.graph.edges
        )
        for w in matrices:
            check_doubly_stochastic(w)
            w.setflags(write=False)
        return matrices


def sample_gossip(model: GossipModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the mixing matrix for step ``n`` from ``model``.

    Given the same seeded stream and call order, the sequence of draws is
    fully reproducible.  The returned matrix is shared and read-only.
    """
    p = model.activation_probability(n)
    if rng.random() >= p:
        return model._alphabet[0]
    cdf = model._edge_cdf
    k = min(bisect.bisect_right(cdf, rng.random()), len(cdf) - 1)
    return model._alphabet[k + 1]


def expected_mixing_matrix(model: GossipModel, n: int) -> np.ndarray:
    """Exact expectation of the step-``n`` mixing matrix over its finite alphabet."""
    identity, *exchanges = model._alphabet
    avg = np.zeros_like(identity)
    for w, q in zip(exchanges, model.graph.pair_probs):
        avg += q * w
    p = model.activation_probability(n)
    return p * avg + (1.0 - p) * identity


def spectral_gap(model: GossipModel, n: int = 1) -> float:
    """Spectral radius of ``E[W W^T] - 11^T/N`` at step ``n``.

    Pairwise exchange matrices are symmetric idempotent, so
    ``E[W W^T] = E[W]`` and the expectation is enumerated exactly over the
    alphabet rather than sampled.  Values below one certify that mixing
    contracts the disagreement between agents.
    """
    n_agents = model.graph.n_agents
    m = expected_mixing_matrix(model, n) - np.full((n_agents, n_agents), 1.0 / n_agents)
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def is_connected(graph: Graph) -> bool:
    """True when the positively weighted edges connect all agents."""
    adjacency: dict[int, set[int]] = {v: set() for v in range(1, graph.n_agents + 1)}
    for (i, j), q in zip(graph.edges, graph.pair_probs):
        if q > 0.0:
            adjacency[i].add(j)
            adjacency[j].add(i)
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for u in adjacency[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == graph.n_agents
