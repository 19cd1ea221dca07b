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
# Each step is one synchronous sweep g(x) (the full right-hand side is
# evaluated before any write). The weights are nonnegative with row sums of
# at most one, so a sweep maps scores in [0, 1] into [0, 1]; g caps its
# output at 1 to drop the rounding of a row whose weights sum to one (a
# trust-1 row next to raters at 1 can otherwise sum to 1 + 2^-52).
# Type-II Anderson acceleration mixes the next iterate from the last
# `window` steps: with residuals f = g(x) - x and their differences dF, dG
# of f and g(x) between steps,
#
#     x <- clip(g(x) - dG gamma, 0, 1),    (dF^T dF) gamma = dF^T f.
#
# The clip keeps every swept iterate in [0, 1]. A singular system or a
# non-finite mix takes the plain step x <- g(x), and window = 0 is the plain
# sweep throughout. The solve stops when one sweep moves no updated
# coordinate by more than `tol` and leaves that sweep's output in `scores`;
# iterations count sweeps. Returns (iterations, last_max_change, converged).
# --------------------------------------------------------------------------

ANDERSON_WINDOW = 5


def propagate_scores(indptr, indices, weights, update, scores, tol, max_iters, window=ANDERSON_WINDOW):
    n_upd = update.shape[0]
    if n_upd == 0:
        return 0, 0.0, True
    offs, counts = row_edges(indptr, update)
    sub_idx = indices[offs]
    sub_w = weights[offs]
    sub_pos = np.repeat(np.arange(n_upd, dtype=np.int64), counts)
    d_f = np.empty((window, n_upd))  # ring buffers: step differences of f and g(x)
    d_g = np.empty((window, n_upd))
    gram = np.empty((window, window))  # d_f d_f^T, one row and column per step
    x = scores[update]
    it = 0
    resid = 0.0
    converged = False
    while it < max_iters:
        it += 1
        gx = np.bincount(sub_pos, weights=sub_w * scores[sub_idx], minlength=n_upd)
        np.minimum(gx, 1.0, out=gx)
        f = gx - x
        resid = float(np.max(np.abs(f)))
        if resid <= tol:
            converged = True
            break
        x = gx
        if window and it > 1:
            slot, used = (it - 2) % window, min(it - 1, window)
            np.subtract(f, f_prev, out=d_f[slot])
            np.subtract(gx, gx_prev, out=d_g[slot])
            gram[slot, :used] = gram[:used, slot] = d_f[:used] @ d_f[slot]
            x = _anderson_step(gram[:used, :used], d_f[:used], d_g[:used], f, gx)
        f_prev, gx_prev = f, gx
        scores[update] = x
    scores[update] = gx
    return it, resid, converged


def _anderson_step(gram, d_f, d_g, f, gx):
    """The mixed iterate clipped to [0, 1], or the plain step gx when the
    normal equations are singular or the mix is not finite."""
    try:
        gamma = np.linalg.solve(gram, d_f @ f)
    except np.linalg.LinAlgError:
        return gx
    mixed = gx - gamma @ d_g
    if not np.all(np.isfinite(mixed)):
        return gx
    return np.clip(mixed, 0.0, 1.0, out=mixed)


# --------------------------------------------------------------------------
# Reachability on the transpose graph: nodes with a directed path (following
# out-edges) into `sources`, by breadth-first frontiers. in_indptr/in_indices
# give, per node, the nodes that trust it. Each level marks its candidates
# in a boolean array and drops those already reached, so the next frontier
# (np.flatnonzero of that array) comes out sorted and free of repeats
# without a sort.
# --------------------------------------------------------------------------


def reachable_mask(in_indptr, in_indices, sources, n):
    mask = np.zeros(n, dtype=bool)
    level = np.zeros(n, dtype=bool)
    level[sources] = True
    frontier = np.flatnonzero(level)
    while frontier.size:
        mask[frontier] = True
        level[in_indices[row_edges(in_indptr, frontier)[0]]] = True
        level &= ~mask  # also clears the frontier just reached
        frontier = np.flatnonzero(level)
    return mask


# --------------------------------------------------------------------------
# In-place inverse by blocked Gauss-Jordan elimination without pivoting.
# Each step inverts one diagonal block and updates every other row chunk
# with one matmul; the only temporaries are block-sized. Without pivoting it
# suits matrices whose diagonal blocks and Schur complements stay invertible,
# such as the nonsingular M-matrices I - W of the influence table. Raises
# numpy.linalg.LinAlgError when a diagonal block is exactly singular.
# --------------------------------------------------------------------------


def invert_in_place(a, block=128):
    n = a.shape[0]
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        piv = np.linalg.inv(a[k0:k1, k0:k1])
        top = piv @ a[k0:k1, :]
        top[:, k0:k1] = piv
        for r0 in range(0, n, block):
            if r0 == k0:
                continue
            r1 = min(r0 + block, n)
            f = a[r0:r1, k0:k1].copy()
            a[r0:r1, k0:k1] = 0.0
            a[r0:r1, :] -= f @ top
        a[k0:k1, :] = top
    return a


# --------------------------------------------------------------------------
# Candidate scan for the greedy fast path over the influence buffer m, where
# free node i sits at row and column free_pos[i]. For each candidate c, form
# the hypothetical scores s + (rating - s_c) * m[:, c] / m[c, c] (with c
# itself pinned to the rating), count entries above threshold, and return
# the first candidate position with the largest gain over the current count.
# m >= 0, so a candidate at or below the rating lifts every score and only
# the unsatisfied rows are read for it; one above the rating reads them all.
# --------------------------------------------------------------------------


def injection_scan(m, s_free, b_free, rating, free_pos, chunk=64):
    sat = s_free > b_free
    cur = int(np.count_nonzero(sat))
    scale = np.zeros(m.shape[0])  # per buffer column; 0 where no node is free
    scale[free_pos] = (rating - s_free) / m[free_pos, free_pos]
    rising = scale[free_pos] >= 0.0
    counts = np.where(rising, cur, 0)
    for rows, cand in ((np.flatnonzero(~sat), rising), (np.arange(s_free.shape[0]), ~rising)):
        if not cand.any():
            continue
        hits = np.zeros(m.shape[0], dtype=np.int64)  # columns of other candidates are not read back
        for lo in range(0, rows.size, chunk):
            r = rows[lo:lo + chunk]
            block = m.take(free_pos[r], axis=0)
            block *= scale
            block += s_free[r, None]
            block[np.arange(r.size), free_pos[r]] = rating
            hits += np.count_nonzero(block > b_free[r, None], axis=0)
        counts[cand] += hits[free_pos[cand]]
    best = int(np.argmax(counts))
    return best, int(counts[best]) - cur
