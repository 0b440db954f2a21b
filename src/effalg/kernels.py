"""Brute-force law scans over dense tables and stacked map tables.

The scans take the dense sum table ``S`` where ``S[a, b] = a + b`` and
``-1`` marks an undefined sum (and, where needed, the difference and
order tables), and return the first violating witness in lexicographic
scan order, or ``None``.  Associativity and map additivity walk the list
of defined pairs (``DefinedPairs``) instead of the full table.  The
associativity, normality and composition scans gather in chunks whose
transient memory stays within ``CHUNK_BYTES``.
"""

from __future__ import annotations

import numpy as np

CHUNK_BYTES = 8 << 20  # transient bytes of one step of a chunked gather


class DefinedPairs:
    """The defined entries of a dense sum table, in row-major order.

    ``a[t] + b[t] = s[t]`` for each defined pair ``t``; the pairs of row
    ``x`` are ``indptr[x]:indptr[x + 1]`` (CSR layout), so ``b`` over that
    range lists the ``y`` with ``x + y`` defined, in ascending order.
    """

    def __init__(self, S):
        defined = S >= 0
        self.a, self.b = np.nonzero(defined)
        self.s = S[self.a, self.b].astype(np.int64)
        self.indptr = np.zeros(S.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(defined, axis=1), out=self.indptr[1:])

    def __len__(self) -> int:
        return self.a.size


# ---------------------------------------------------------------------------
# associativity: (a+b)+c defined  =>  b+c defined and a+(b+c) == (a+b)+c


def associativity_violation(S, pairs=None):
    S = np.ascontiguousarray(S)
    if pairs is None:
        pairs = DefinedPairs(S)
    # walk the defined triples (a, b, c) in lexicographic order: each defined
    # pair (a, b) is joined with the defined entries c of row a+b
    width = np.diff(pairs.indptr)[pairs.s]
    ends = np.cumsum(width)
    step = max(1, CHUNK_BYTES // 64)  # triples; about 64 bytes of gathers each
    start = 0
    while start < len(pairs):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + step, side="right")))
        w = width[start:stop]
        t = np.repeat(np.arange(start, stop), w)
        offs = np.repeat(pairs.indptr[pairs.s[start:stop]] - (np.cumsum(w) - w), w)
        pos = np.arange(t.size) + offs
        c = pairs.b[pos]
        abc = pairs.s[pos]
        bc = S[pairs.b[t], c]
        bad = (bc < 0) | (S[pairs.a[t], np.maximum(bc, 0)] != abc)
        if bad.any():
            i = int(np.argmax(bad))
            return int(pairs.a[t[i]]), int(pairs.b[t[i]]), int(c[i])
        start = stop
    return None


# ---------------------------------------------------------------------------
# cancellation: a+c == b+c (both defined)  =>  a == b


def cancellation_violation(S):
    S = np.ascontiguousarray(S)
    for c in range(S.shape[0]):
        col = S[:, c]
        defined = np.flatnonzero(col >= 0)
        vals = col[defined]
        order = np.argsort(vals, kind="stable")
        dup = np.flatnonzero(np.diff(vals[order]) == 0)
        if dup.size:
            i = dup[0]
            return int(defined[order[i]]), int(defined[order[i + 1]]), c
    return None


# ---------------------------------------------------------------------------
# normality of a subset P: e+f+d defined, e+d in P, f+d in P  =>  d in P.
# Scan runs over pairs (p, q) in P and d <= p, q with e = p-d, f = q-d.


def normality_violation(S, ominus, leq, pidx, in_p):
    """First ``(p, q, d)`` in the order of ``pidx`` for p, then q, then
    ascending d, with d outside P, d <= p, d <= q and (p - d) + q defined."""
    pidx = np.asarray(pidx, dtype=np.int64)
    m = pidx.size
    below = leq[:, pidx] & ~in_p[:, None]  # [d, i]: d <= pidx[i], d outside P
    ends = np.cumsum(np.count_nonzero(below, axis=0))
    step = max(1, CHUNK_BYTES // (8 * m))  # rows (p, d); about 8 bytes per (row, q)
    i = 0
    while i < m:
        # a run of p's with at most `step` rows between them, or one p alone
        base = ends[i - 1] if i else 0
        j = max(i + 1, int(np.searchsorted(ends, base + step, side="right")))
        pi, d = np.nonzero(below[:, i:j].T)
        pi += i
        best = None
        for r in range(0, d.size, step):
            pr, dr = pi[r:r + step], d[r:r + step]
            e = ominus[pidx[pr], dr]
            bad = leq[dr[:, None], pidx] & (S[e[:, None], pidx] >= 0)
            rows, qs = np.nonzero(bad)
            if rows.size:
                k = np.lexsort((dr[rows], qs, pr[rows]))[0]
                hit = (int(pr[rows[k]]), int(qs[k]), int(dr[rows[k]]))
                best = hit if best is None else min(best, hit)
        if best is not None:
            return int(pidx[best[0]]), int(pidx[best[1]]), best[2]
        i = j
    return None


# ---------------------------------------------------------------------------
# composition of stacked map tables: M[outer] o M[inner] == M[target]


def composition_violation(M, outer, inner, target, cols=None):
    """First ``t`` at which ``outer[t]``, ``inner[t]`` or ``target[t]`` is -1,
    or ``M[outer[t]][M[inner[t]]]`` differs from ``M[target[t]]``; ``None``
    when there is none.

    ``M`` is a ``(k, n)`` stack of map tables, each sending ``0..n-1`` into
    itself, and the other arguments index its rows.  With ``cols`` the maps
    are compared on those elements only.
    """
    n = M.shape[1]
    flat = M.ravel()
    width = n if cols is None else cols.size
    # per compared entry: an int64 flat index, two int32 gathers and a mask
    step = max(1, CHUNK_BYTES // (24 * max(width, 1)))
    for start in range(0, len(outer), step):
        o, i, t = (np.asarray(a[start:start + step], dtype=np.int64)
                   for a in (outer, inner, target))
        missing = (o < 0) | (i < 0) | (t < 0)
        if missing.any():
            o, i, t = (np.where(missing, 0, a) for a in (o, i, t))
        if cols is None:
            inner_vals, want = M[i], M[t]
        else:
            inner_vals, want = M[i[:, None], cols], M[t[:, None], cols]
        bad = missing | (flat[o[:, None] * n + inner_vals] != want).any(axis=1)
        if bad.any():
            return start + int(np.argmax(bad))
    return None


# ---------------------------------------------------------------------------
# additivity of a map table: J[a + b] == J[a] + J[b] on defined pairs


def map_additivity_violation(S, J, pairs=None):
    S = np.ascontiguousarray(S)
    J = np.asarray(J)
    if pairs is None:
        pairs = DefinedPairs(S)
    bad = np.flatnonzero(J[pairs.s] != S[J[pairs.a], J[pairs.b]])
    if bad.size == 0:
        return None
    return int(pairs.a[bad[0]]), int(pairs.b[bad[0]])


# ---------------------------------------------------------------------------
# Mackey witness: c with c <= a, c <= b, (a-c)+(b-c)+c defined


def mackey_witness(S, ominus, leq, a, b):
    cand = np.flatnonzero(leq[:, a] & leq[:, b])
    if cand.size == 0:
        return None
    a1 = ominus[a, cand]
    b1 = ominus[b, cand]
    s = S[a1, b1]
    ok = s >= 0
    ok[ok] = S[s[ok], cand[ok]] >= 0
    hits = np.flatnonzero(ok)
    return int(cand[hits[0]]) if hits.size else None


def mackey_matrix(S, ominus, leq, pidx):
    """Boolean ``(m, m)`` Mackey compatibility of the elements ``pidx``.

    Entry ``[i, j]`` holds iff ``mackey_witness(S, ominus, leq, pidx[i],
    pidx[j])`` finds a witness; one batched search per row.
    """
    pidx = np.asarray(pidx, dtype=np.int64)
    out = np.zeros((pidx.size, pidx.size), dtype=bool)
    for i, p in enumerate(pidx):
        c = np.flatnonzero(leq[:, p])  # lower bounds of p; one row each below
        ok = leq[c[:, None], pidx]  # c <= q
        s = S[ominus[p, c][:, None], ominus[pidx, c[:, None]]]  # (p - c) + (q - c)
        ok &= s >= 0
        r, j = np.nonzero(ok)
        ok[r, j] = S[s[r, j], c[r]] >= 0
        out[i] = ok.any(axis=0)
    return out
