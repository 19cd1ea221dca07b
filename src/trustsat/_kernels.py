"""Hot numeric kernels, vectorised with numpy.

Graphs arrive as raw CSR arrays (indptr, indices, per-edge values). Every
kernel that walks a subset of rows gathers their edges with ``row_edges``,
which keeps CSR order, so sums accumulate in the same order as a plain
row-by-row loop.
"""
from __future__ import annotations

import numpy as np


def row_edges(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge offsets of the CSR rows ``rows``, in row order then CSR order,
    with the edge count of each row."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    offs = np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(total, dtype=np.int64)
    return offs, counts


# --------------------------------------------------------------------------
# Fixed-point score propagation: scores[i] <- sum_j w_ij * scores[j] for the
# rows listed in `update` (ascending); every other coordinate is pinned.
# Synchronous sweeps (the full right-hand side is evaluated before any
# write), stopping when no updated coordinate moved by more than `tol`.
# Returns (iterations, last_max_change, converged, monotone_ok); the
# monotone check is active when monotone_eps >= 0.
# --------------------------------------------------------------------------


def propagate_scores(indptr, indices, weights, update, scores, tol, max_iters, monotone_eps=-1.0):
    n_upd = update.shape[0]
    if n_upd == 0:
        return 0, 0.0, True, True
    offs, counts = row_edges(indptr, update)
    sub_idx = indices[offs]
    sub_w = weights[offs]
    sub_pos = np.repeat(np.arange(n_upd, dtype=np.int64), counts)
    it = 0
    resid = 0.0
    converged = False
    monotone_ok = True
    while it < max_iters:
        it += 1
        new = np.bincount(sub_pos, weights=sub_w * scores[sub_idx], minlength=n_upd)
        old = scores[update]
        if monotone_eps >= 0.0 and np.any(new < old - monotone_eps):
            monotone_ok = False
        resid = float(np.max(np.abs(new - old)))
        scores[update] = new
        if resid <= tol:
            converged = True
            break
    return it, resid, converged, monotone_ok


# --------------------------------------------------------------------------
# Reachability on the transpose graph: nodes with a directed path (following
# out-edges) into `sources`, by breadth-first frontiers. in_indptr/in_indices
# give, per node, the nodes that trust it.
# --------------------------------------------------------------------------


def reachable_mask(in_indptr, in_indices, sources, n):
    mask = np.zeros(n, dtype=bool)
    frontier = np.unique(sources)
    mask[frontier] = True
    while frontier.size:
        offs, _ = row_edges(in_indptr, frontier)
        cand = in_indices[offs]
        frontier = np.unique(cand[~mask[cand]])
        mask[frontier] = True
    return mask


# --------------------------------------------------------------------------
# Influence table: row c holds the limit scores of a unit injection pinned at
# free[c], with every node outside `free` held at zero and the rows
# free \ {free[c]} iterated to convergence.
# --------------------------------------------------------------------------


def influence_columns(indptr, indices, weights, free, tol, max_iters):
    n = indptr.shape[0] - 1
    n_free = free.shape[0]
    out = np.zeros((n_free, n_free))
    for c in range(n_free):
        src = free[c]
        scores = np.zeros(n)
        scores[src] = 1.0
        update = free[free != src]
        propagate_scores(indptr, indices, weights, update, scores, tol, max_iters)
        out[c, :] = scores[free]
        out[c, c] = 1.0
    return out


# --------------------------------------------------------------------------
# Candidate scan for the greedy fast path: for each free node c, form the
# hypothetical scores s + (rating - s_c) * influence[c] (with c itself pinned
# to the rating), count entries above threshold, and return the first
# candidate position with the largest gain over the current count.
# --------------------------------------------------------------------------


def injection_scan(delta, s_free, b_free, rating, chunk=256):
    n_free = s_free.shape[0]
    cur = int(np.count_nonzero(s_free > b_free))
    best = -1
    best_cnt = -1
    for lo in range(0, n_free, chunk):
        hi = min(lo + chunk, n_free)
        block = s_free[None, :] + (rating - s_free[lo:hi])[:, None] * delta[lo:hi, :]
        block[np.arange(hi - lo), np.arange(lo, hi)] = rating
        counts = (block > b_free[None, :]).sum(axis=1)
        c = int(np.argmax(counts))
        if int(counts[c]) > best_cnt:
            best_cnt = int(counts[c])
            best = lo + c
    return best, best_cnt - cur
