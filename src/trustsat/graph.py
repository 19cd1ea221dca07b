"""Directed weighted trust graphs in compressed sparse-row form.

Nodes are dense zero-based integers. An edge (i, j, t) means user i places
trust t in user j's judgement, with t in (0, 1]; a missing edge means i has
no knowledge of j. Zero-trust edges are rejected at construction: storing
them would change the averaging denominators downstream, and a trust of zero
is indistinguishable from no edge. Graphs are immutable once built and safe
to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    DuplicateEdge,
    NodeOutOfRange,
    ParseError,
    SelfLoop,
    TrustOutOfRange,
    ValidationError,
)


@dataclass(frozen=True)
class ConstantTrust:
    """Every generated edge carries the same trust value."""

    value: float

    def __post_init__(self):
        if not (0.0 < self.value <= 1.0):
            raise ValidationError(f"constant trust must lie in (0, 1], got {self.value}")


@dataclass(frozen=True)
class UniformTrust:
    """Trust drawn uniformly from the half-open interval (low, high]."""

    low: float = 0.0
    high: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.low <= self.high <= 1.0) or self.high <= 0.0:
            raise ValidationError(
                f"uniform trust bounds must satisfy 0 <= low <= high <= 1, high > 0, "
                f"got ({self.low}, {self.high})"
            )


TrustDist = Union[ConstantTrust, UniformTrust]


@dataclass(frozen=True)
class ErdosRenyiSpec:
    """Seeded G(n, p) generation recipe for a directed trust graph."""

    n_nodes: int
    edge_prob: float
    trust_dist: TrustDist
    seed: int

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValidationError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if not (0.0 <= self.edge_prob <= 1.0):
            raise ValidationError(f"edge_prob must lie in [0, 1], got {self.edge_prob}")


class TrustGraph:
    """Immutable directed graph with trust weights in CSR form.

    ``out_*`` arrays list, per node, whom it trusts (sorted by neighbor) and
    with what trust; ``in_indptr``/``in_indices`` give the transpose adjacency
    (who trusts it, sorted by truster). Trust is stored once, on the
    out-edges. All arrays are marked read-only after construction.
    """

    __slots__ = (
        "n_nodes",
        "out_indptr",
        "out_indices",
        "out_trust",
        "in_indptr",
        "in_indices",
    )

    def __init__(self, n_nodes, out_indptr, out_indices, out_trust, in_indptr, in_indices):
        self.n_nodes = int(n_nodes)
        self.out_indptr = out_indptr
        self.out_indices = out_indices
        self.out_trust = out_trust
        self.in_indptr = in_indptr
        self.in_indices = in_indices
        for arr in (out_indptr, out_indices, out_trust, in_indptr, in_indices):
            arr.flags.writeable = False

    @property
    def n_edges(self) -> int:
        return int(self.out_indices.shape[0])

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_indptr)

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_indptr)

    def out_rows(self) -> np.ndarray:
        """Source node of every out-edge, aligned with ``out_indices``."""
        return np.repeat(np.arange(self.n_nodes, dtype=np.int64), self.out_degrees())

    def out_neighbors(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        s, e = self.out_indptr[node], self.out_indptr[node + 1]
        return self.out_indices[s:e], self.out_trust[s:e]

    def edge_trust(self, src: int, dst: int) -> float | None:
        """Trust on the edge src -> dst, or None when absent."""
        s, e = self.out_indptr[src], self.out_indptr[src + 1]
        pos = s + np.searchsorted(self.out_indices[s:e], dst)
        if pos < e and self.out_indices[pos] == dst:
            return float(self.out_trust[pos])
        return None

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All edges as (src, dst, trust) arrays in CSR order."""
        return self.out_rows(), self.out_indices.copy(), self.out_trust.copy()

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrustGraph):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and np.array_equal(self.out_indptr, other.out_indptr)
            and np.array_equal(self.out_indices, other.out_indices)
            and np.array_equal(self.out_trust, other.out_trust)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"TrustGraph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


def _from_edge_arrays(n_nodes: int, src: np.ndarray, dst: np.ndarray, trust: np.ndarray) -> TrustGraph:
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    trust = np.asarray(trust, dtype=np.float64)

    if src.size:
        if src.min() < 0 or src.max() >= n_nodes or dst.min() < 0 or dst.max() >= n_nodes:
            bad = np.flatnonzero((src < 0) | (src >= n_nodes) | (dst < 0) | (dst >= n_nodes))[0]
            raise NodeOutOfRange(
                f"edge ({src[bad]}, {dst[bad]}) references a node outside [0, {n_nodes})"
            )
        loops = src == dst
        if loops.any():
            raise SelfLoop(f"self-loop on node {src[np.flatnonzero(loops)[0]]}")
        bad_t = ~((trust > 0.0) & (trust <= 1.0))
        if bad_t.any():
            i = np.flatnonzero(bad_t)[0]
            raise TrustOutOfRange(
                f"trust {trust[i]} on edge ({src[i]}, {dst[i]}) must lie in (0, 1]"
            )

    order = np.lexsort((dst, src))
    src, dst, trust = src[order], dst[order], trust[order]
    if src.size > 1:
        dup = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
        if dup.any():
            i = np.flatnonzero(dup)[0]
            raise DuplicateEdge(f"duplicate edge ({src[i]}, {dst[i]})")

    out_indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_nodes), out=out_indptr[1:])

    t_order = np.lexsort((src, dst))
    in_indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n_nodes), out=in_indptr[1:])

    return TrustGraph(n_nodes, out_indptr, dst, trust, in_indptr, src[t_order])


def build_graph(n_nodes: int, edges: Iterable[tuple[int, int, float]]) -> TrustGraph:
    """Validate and build a graph from (src, dst, trust) triples."""
    if n_nodes < 0:
        raise ValidationError(f"n_nodes must be >= 0, got {n_nodes}")
    edges = list(edges)
    if not edges:
        return _from_edge_arrays(
            n_nodes, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.float64)
        )
    arr = np.asarray(edges, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError("edges must be (src, dst, trust) triples")
    return _from_edge_arrays(n_nodes, arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2])


def _sample_pair_indices(rng: np.random.Generator, n_pairs: int, p: float) -> np.ndarray:
    """Indices of a Bernoulli(p) subset of range(n_pairs), by geometric skips.

    O(expected hits) rather than O(n_pairs), which matters for sparse graphs
    on large node counts.
    """
    if n_pairs == 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n_pairs, dtype=np.int64)
    log_q = np.log1p(-p)
    chunks = []
    cur = -1
    while True:
        budget = max(1024, int((n_pairs - cur) * p * 1.2) + 64)
        u = 1.0 - rng.random(budget)  # in (0, 1]
        skips = np.floor(np.log(u) / log_q).astype(np.int64)
        pos = cur + np.cumsum(skips + 1)
        hit = pos[pos < n_pairs]
        chunks.append(hit)
        if hit.shape[0] < pos.shape[0]:
            break
        cur = int(pos[-1])
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def _draw_trust(dist: TrustDist, m: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(dist, ConstantTrust):
        return np.full(m, dist.value, dtype=np.float64)
    u = rng.random(m)
    return dist.high - u * (dist.high - dist.low)


def generate_erdos_renyi(spec: ErdosRenyiSpec) -> TrustGraph:
    """Directed G(n, p): each ordered pair is an edge independently with
    probability p, trust drawn from the spec's distribution. Deterministic
    for a given seed."""
    n = spec.n_nodes
    rng = np.random.default_rng(spec.seed)
    idx = _sample_pair_indices(rng, n * (n - 1), spec.edge_prob)
    src = idx // (n - 1) if n > 1 else idx
    off = idx % (n - 1) if n > 1 else idx
    dst = off + (off >= src)
    trust = _draw_trust(spec.trust_dist, idx.shape[0], rng)
    return _from_edge_arrays(n, src, dst, trust)


def mean_out_degree(g: TrustGraph) -> float:
    return g.n_edges / g.n_nodes if g.n_nodes else 0.0


def save_graph(g: TrustGraph, path) -> None:
    src, dst, trust = g.edge_arrays()
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"nodes,{g.n_nodes}\n")
        for s, d, t in zip(src, dst, trust):
            f.write(f"{s},{d},{float(t)!r}\n")


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def _parse_header(lineno: int, line: str) -> int:
    parts = line.split(",")
    if len(parts) != 2 or parts[0].strip() != "nodes":
        raise ParseError(f"expected header 'nodes,<N>', got {line!r}", lineno)
    try:
        return int(parts[1])
    except ValueError:
        raise ParseError(f"node count {parts[1]!r} is not an integer", lineno) from None


def load_graph(path) -> TrustGraph:
    """Read the edge-list format written by save_graph."""
    n_nodes = None
    edges = []
    for lineno, line in _data_lines(path):
        if n_nodes is None:
            n_nodes = _parse_header(lineno, line)
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"expected 'src,dst,trust', got {line!r}", lineno)
        try:
            edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError:
            raise ParseError(f"malformed edge fields {line!r}", lineno) from None
    if n_nodes is None:
        raise ParseError("missing 'nodes,<N>' header")
    return build_graph(n_nodes, edges)


def save_thresholds(thresholds: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"nodes,{thresholds.shape[0]}\n")
        for i, b in enumerate(thresholds):
            f.write(f"{i},{float(b)!r}\n")


def load_thresholds(path) -> np.ndarray:
    """Read a per-node threshold file; every node must appear exactly once."""
    n_nodes = None
    vals = None
    seen = None
    for lineno, line in _data_lines(path):
        if n_nodes is None:
            n_nodes = _parse_header(lineno, line)
            vals = np.zeros(n_nodes)
            seen = np.zeros(n_nodes, dtype=bool)
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 'node,threshold', got {line!r}", lineno)
        try:
            node, b = int(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"malformed threshold fields {line!r}", lineno) from None
        if not 0 <= node < n_nodes:
            raise ParseError(f"node {node} outside [0, {n_nodes})", lineno)
        if seen[node]:
            raise ParseError(f"duplicate threshold for node {node}", lineno)
        if not (0.0 <= b <= 1.0):
            raise ParseError(f"threshold {b} must lie in [0, 1]", lineno)
        seen[node] = True
        vals[node] = b
    if n_nodes is None:
        raise ParseError("missing 'nodes,<N>' header")
    if not seen.all():
        raise ParseError(f"missing threshold for node {int(np.flatnonzero(~seen)[0])}")
    return vals


def validate_thresholds(thresholds: Sequence[float], n_nodes: int) -> np.ndarray:
    b = np.asarray(thresholds, dtype=np.float64)
    if b.shape != (n_nodes,):
        raise ValidationError(f"thresholds must have length {n_nodes}, got shape {b.shape}")
    if not np.all((b >= 0.0) & (b <= 1.0)):
        raise ValidationError("thresholds must lie in [0, 1]")
    return b
