"""Hot numeric kernels, vectorised with numpy.

Graphs arrive as raw CSR arrays (indptr, indices, per-edge values). Every
kernel that sums over a row's edges adds them in CSR order, the order of a
plain row-by-row loop.
"""
from __future__ import annotations

import contextlib
import ctypes

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
#
# A sweep sums rows in a jagged-diagonal layout built once per solve. The
# `update` rows are ordered by descending out-degree (a stable sort, so ties
# keep node order), and their edges are laid out slot by slot: slot j holds
# the j-th edge of every row with more than j edges, and those rows are a
# prefix of the ordered rows. A sweep gathers and multiplies all edges at
# once, adds each slot in place into a prefix of one zeroed accumulator and
# scatters the sums back to `update` order. Each row thus adds its products
# to 0.0 one at a time in CSR order, the order of a row-by-row loop, so its
# sum is that loop's sum bit for bit; a row with no edges sums to 0.
#
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
# iterations count sweeps, and `max_iters` must be at least 1. Returns
# (iterations, last_max_change, converged).
# --------------------------------------------------------------------------

ANDERSON_WINDOW = 5


def propagate_scores(indptr, indices, weights, update, scores, tol, max_iters, window=ANDERSON_WINDOW):
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    n_upd = update.shape[0]
    if n_upd == 0:
        return 0, 0.0, True
    starts = indptr[update]
    deg = indptr[update + 1] - starts
    order = np.argsort(-deg, kind="stable")
    starts, deg = starts[order], deg[order]
    widths = n_upd - np.cumsum(np.bincount(deg))[:-1]  # rows in each slot
    firsts = np.cumsum(widths) - widths  # each slot's first position
    edge_slot = np.repeat(np.arange(widths.size), widths)
    offs = starts[np.arange(edge_slot.size) - np.repeat(firsts, widths)] + edge_slot
    sub_idx = indices[offs]
    sub_w = weights[offs]
    prod = np.empty(offs.size)
    acc = np.empty(n_upd)
    slots = [(acc[:w], prod[f:f + w]) for w, f in zip(widths.tolist(), firsts.tolist())]
    back = np.empty_like(order)  # accumulator position of each update row
    back[order] = np.arange(n_upd)
    d_f = np.empty((window, n_upd))  # ring buffers: step differences of f and g(x)
    d_g = np.empty((window, n_upd))
    gram = np.empty((window, window))  # d_f d_f^T, one row and column per step
    x = scores[update]
    it = 0
    resid = 0.0
    converged = False
    while it < max_iters:
        it += 1
        # mode "raise" would copy through a buffer; no index is out of range
        np.take(scores, sub_idx, out=prod, mode="clip")
        np.multiply(prod, sub_w, out=prod)
        acc.fill(0.0)
        for acc_rows, slot_prod in slots:
            acc_rows += slot_prod
        gx = acc[back]
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
# BLAS on one thread for the greedy fast path. A session runs thousands of
# small products (a 64-row chunk times the pending rank, about 2M
# multiply-adds each) and one inversion. OpenBLAS spreads products of that
# size over its worker threads, which gains little and makes each call
# wait for every worker: when another process keeps a core busy, a call
# stalls until its descheduled worker runs again. On two CPUs with one of
# them kept busy, a marginal session on G(1000, 10/1000) took 1.4 s in the
# median (up to 1.9 s) with two BLAS threads and 0.6-0.7 s with one, about
# its time with both CPUs idle. The inversion gains from a
# second thread on idle CPUs (54 against 77 ms at n = 1000) and loses more
# on busy ones (105-205 ms), so it runs on one as well. `serial_blas`
# sets the thread count of the OpenBLAS that numpy calls to one for the
# block it wraps and restores it afterwards; the count is process-wide.
# Where no OpenBLAS symbols resolve through numpy's core module it does
# nothing.
# --------------------------------------------------------------------------


def _openblas_thread_calls():
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)  # its BLAS resolves through it
    except OSError:
        return None
    # numpy 2 wheels, numpy 1 wheels, a system OpenBLAS
    for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
        get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.restype = ctypes.c_int
            put.argtypes = [ctypes.c_int]
            put.restype = None
            return get, put
    return None


_OPENBLAS_THREADS = _openblas_thread_calls()


@contextlib.contextmanager
def serial_blas():
    threads = _OPENBLAS_THREADS[0]() if _OPENBLAS_THREADS else 1
    if threads == 1:
        yield
        return
    _OPENBLAS_THREADS[1](1)
    try:
        yield
    finally:
        _OPENBLAS_THREADS[1](threads)


# --------------------------------------------------------------------------
# Candidate scan for the greedy fast path over the influence table
# M = m - u @ v, where free node i sits at row and column free_pos[i] of the
# buffer m and u, v are the pending low-rank factors (rank 0 when nothing is
# pending: subtracting the zero product leaves every bit unchanged). For
# each candidate c, form the hypothetical scores s + (rating - s_c) *
# M[:, c] / M[c, c] (with c itself pinned to the rating), count entries
# above threshold, and return the first candidate position with the largest
# gain over the current count. Each chunk of rows is taken from m and has
# the factors applied before it is scanned; M is never formed. M >= 0, so
# when no candidate sits above the rating every score can only rise and one
# pass over the unsatisfied rows suffices; otherwise the pass reads every
# row. A candidate's count is its hits plus the rows not read.
# --------------------------------------------------------------------------


def injection_scan(m, s_free, b_free, rating, free_pos, u, v, chunk=64):
    sat = s_free > b_free
    cur = int(np.count_nonzero(sat))
    diag = m[free_pos, free_pos] - np.einsum("ij,ji->i", u[free_pos], v[:, free_pos])
    scale = np.zeros(m.shape[0])  # per buffer column; 0 where no node is free
    scale[free_pos] = (rating - s_free) / diag
    rows = np.flatnonzero(~sat) if np.all(scale >= 0.0) else np.arange(s_free.shape[0])
    hits = np.zeros(m.shape[0], dtype=np.int32)
    flags = np.empty((chunk, m.shape[0]), dtype=bool)
    for lo in range(0, rows.size, chunk):
        r = rows[lo:lo + chunk]
        at = free_pos[r]
        block = m.take(at, axis=0)
        block -= u[at] @ v
        block *= scale
        block += s_free[r, None]
        block[np.arange(r.size), at] = rating
        above = np.greater(block, b_free[r, None], out=flags[:r.size])
        hits += np.add.reduce(above.view(np.uint8), axis=0, dtype=np.int32)
    counts = hits[free_pos] + (s_free.shape[0] - rows.size)
    best = int(np.argmax(counts))
    return best, int(counts[best]) - cur
