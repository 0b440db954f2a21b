"""Compression bases: projection-indexed families of compressions.

A compression with focus p is an additive idempotent map with range
[0, p] and kernel [0, p'].  A base assigns one compression to every
member of a normal sub-effect-algebra P and is closed under composition
on Mackey-compatible pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from . import kernels
from .core import (
    Check,
    FiniteAlgebra,
    GridAlgebra,
    Report,
    TRIPLE_BUDGET,
    PAIR_BUDGET,
    SAMPLE_SIZE,
    is_principal,
    mackey_compatible,
    sharp_elements,
)
from .errors import DomainMismatch, InternalConsistencyError, NoCover, NotEnumerable

MAP_CACHE_ENTRIES = 48_000_000  # stack J tables only while |P|*n stays below


class CompressionBase:
    """Finite compression base: projections plus their map tables.

    ``maps`` may hold explicit ``(n,)`` tables or zero-argument builders
    that produce them; builders keep memory bounded on large carriers.
    While ``|P| * n <= MAP_CACHE_ENTRIES`` every table is built once into
    one read-only int32 ``(|P|, n)`` stack, and ``map_table`` returns its
    rows; past that bound each call builds its table afresh.
    """

    enumerable = True

    def __init__(self, algebra: FiniteAlgebra, projections: Iterable[int], maps: Dict):
        self.algebra = algebra
        self.projections = sorted(int(p) for p in projections)
        self.p_set = frozenset(self.projections)
        self.p_pos = {p: i for i, p in enumerate(self.projections)}
        self._maps = dict(maps)
        self.caches_maps = len(self.projections) * algebra.size <= MAP_CACHE_ENTRIES
        self._stack = None
        self._pcompat = None
        self._pc_matrix = None
        self._elem_leq_proj = None
        self._cover_vec = None
        self._spectral = None
        self._p_meet = None

    # -- maps ----------------------------------------------------------------

    def _build(self, p: int) -> np.ndarray:
        entry = self._maps[p]
        return np.asarray(entry() if callable(entry) else entry, dtype=np.int32)

    def map_stack(self) -> np.ndarray:
        """int32 ``(|P|, n)`` table whose row ``i`` is J at ``projections[i]``.

        Cached while ``caches_maps``; otherwise built afresh on each call.
        """
        if self._stack is not None:
            return self._stack
        stack = np.empty((len(self.projections), self.algebra.size), dtype=np.int32)
        for i, p in enumerate(self.projections):
            stack[i] = self._build(p)
        if self.caches_maps:
            stack.flags.writeable = False
            self._stack = stack
            self._maps = None  # every table now lives in the stack
        return stack

    def map_table(self, p: int) -> np.ndarray:
        if self.caches_maps:
            return self.map_stack()[self.p_pos[p]]
        return self._build(p)

    def map_values(self, ps, xs=None) -> np.ndarray:
        """int32 ``(len(ps), len(xs))`` table of J_p(x), p in ``ps``, x in
        ``xs`` (default: the whole carrier)."""
        if self.caches_maps:
            rows = [self.p_pos[int(p)] for p in ps]
            stack = self.map_stack()
            return stack[rows] if xs is None else stack[np.ix_(rows, xs)]
        cols = slice(None) if xs is None else xs
        out = np.empty((len(ps), self.algebra.size if xs is None else len(xs)), dtype=np.int32)
        for i, p in enumerate(ps):
            out[i] = self._build(int(p))[cols]
        return out

    def apply(self, p: int, a: int) -> int:
        return int(self.map_table(p)[a])

    def p_ortho(self, p: int) -> int:
        return self.algebra.ortho(p)

    # -- commutants ------------------------------------------------------------

    def commutant_mask(self, p: int) -> np.ndarray:
        """a in C(p) iff a = J_p(a) + J_p'(a)."""
        E = self.algebra
        jp = self.map_table(p)
        jq = self.map_table(self.p_ortho(p))
        return E.sum_pairs(jp, jq) == np.arange(E.size)

    def in_commutant(self, a: int, p: int) -> bool:
        E = self.algebra
        s = E.sum(self.apply(p, a), self.apply(self.p_ortho(p), a))
        return s is not None and s == a

    def pc_matrix(self) -> np.ndarray:
        """Boolean (n, |P|) table of commutant membership."""
        if self._pc_matrix is None:
            cols = [self.commutant_mask(p) for p in self.projections]
            self._pc_matrix = np.stack(cols, axis=1)
        return self._pc_matrix

    def pcompat(self) -> np.ndarray:
        """(|P|, |P|) Mackey compatibility, via q in C(p)."""
        if self._pcompat is None:
            P = np.array(self.projections)
            self._pcompat = self.pc_matrix()[P, :]
            # symmetry is a theorem for valid bases; keep the conjunction so
            # diagnostics on broken bases stay order-independent
            self._pcompat = self._pcompat & self._pcompat.T
        return self._pcompat

    def pc_set(self, a: int) -> np.ndarray:
        """PC(a): projections whose compressions decompose a."""
        return np.array(self.projections)[self.pc_matrix()[a]]

    def bicommutant_set(self, a: int) -> np.ndarray:
        """P(a) = PC(PC(a) u {a}): projections in PC(a) compatible with all of it."""
        mask = self.pc_matrix()[a]
        ok = mask & ~((~self.pcompat()) & mask[None, :]).any(axis=1)
        return np.array(self.projections)[ok]

    def bicommutant_mask_all(self) -> np.ndarray:
        """(n, |P|) membership table of P(a) for every element."""
        pc = self.pc_matrix()
        # a projection p fails for a iff some q in PC(a) is incompatible with p
        misses = pc.astype(np.int16) @ (~self.pcompat()).astype(np.int16)
        return pc & (misses == 0)

    # -- covers ------------------------------------------------------------------

    def elem_leq_proj(self) -> np.ndarray:
        if self._elem_leq_proj is None:
            E = self.algebra
            P = np.array(self.projections)
            n, m = E.size, P.size
            out = np.empty((n, m), dtype=bool)
            for i, p in enumerate(P):
                out[:, i] = E.lower_bounds(p)
            self._elem_leq_proj = out
        return self._elem_leq_proj

    def proj_leq(self) -> np.ndarray:
        return self.elem_leq_proj()[np.array(self.projections), :]

    def cover_vec(self) -> np.ndarray:
        """Least projection above each element; -1 where none exists."""
        if self._cover_vec is None:
            cand = self.elem_leq_proj()
            strictly_above = (~self.proj_leq()).astype(np.int32)
            misses = cand.astype(np.int32) @ strictly_above.T  # candidates not above P[i]
            ok = cand & (misses == 0)
            P = np.array(self.projections)
            have = ok.any(axis=1)
            self._cover_vec = np.where(have, P[np.argmax(ok, axis=1)], -1)
        return self._cover_vec

    def cover(self, a: int) -> int:
        c = int(self.cover_vec()[a])
        if c < 0:
            raise NoCover(self.algebra.label(a))
        return c

    def has_pcp(self) -> bool:
        return bool((self.cover_vec() >= 0).all())

    # -- lattice structure of P ----------------------------------------------------

    def p_meet_table(self) -> np.ndarray:
        """Pairwise meets inside P (as a sub-poset); -1 where none."""
        if self._p_meet is None:
            # the meet, when it exists, is the common lower bound with the
            # most members of P below it, and every common lower bound is
            # below it
            down = self.proj_leq().T  # down[i, k]: P[k] <= P[i]
            m = down.shape[0]
            height = down.sum(axis=1)
            P = np.array(self.projections, dtype=np.int64)
            out = np.full((m, m), -1, dtype=np.int64)
            step = max(1, kernels.CHUNK_BYTES // (16 * m * m))
            for i in range(0, m, step):
                common = down[i:i + step, None, :] & down[None, :, :]  # [i, j, k]
                top = np.argmax(np.where(common, height, -1), axis=2)
                found = common.any(axis=2) & ~(common & ~down[top]).any(axis=2)
                out[i:i + step][found] = P[top[found]]
            self._p_meet = out
        return self._p_meet

    def meet_proj(self, p: int, q: int) -> Optional[int]:
        v = int(self.p_meet_table()[self.p_pos[p], self.p_pos[q]])
        return None if v < 0 else v

    def join_proj(self, p: int, q: int) -> Optional[int]:
        v = self.meet_proj(self.p_ortho(p), self.p_ortho(q))
        return None if v is None else self.p_ortho(v)

    # spectrality verdict is computed in the comparability module and cached here
    def is_spectral(self) -> bool:
        if self._spectral is None:
            from . import comparability

            rep = comparability.check_b_comparability(self)
            self._spectral = rep.passed and self.has_pcp()
        return self._spectral


# ---------------------------------------------------------------------------
# map classification


@dataclass
class MapClassification:
    kind: str  # not_additive | retraction | compression
    focus: Optional[int]
    witness: object = None

    @property
    def is_compression(self) -> bool:
        return self.kind == "compression"


def classify_map(E: FiniteAlgebra, J, budget: int = PAIR_BUDGET,
                 seed: int = 0) -> MapClassification:
    """Decide whether a function table is additive / a retraction / a compression.

    Oversized carriers are checked on a seeded sample of elements (plus
    the boundary elements), matching the budgeted validation policy.
    """
    return MapSample(E, budget, seed).classify(J)


class MapSample:
    """The pairs and elements ``classify_map`` examines on one carrier.

    They depend on the carrier, the budget and the seed only, so a base
    draws them once and classifies each of its maps against them.
    """

    def __init__(self, E: FiniteAlgebra, budget: int = PAIR_BUDGET, seed: int = 0):
        self.E = E
        n = E.size
        self.all_pairs = E.dense and n * n <= budget
        if not self.all_pairs:
            rng = np.random.default_rng(0)
            self.xs = rng.integers(0, n, size=SAMPLE_SIZE)
            self.ys = rng.integers(0, n, size=SAMPLE_SIZE)
            self.ss = E.sum_pairs(self.xs, self.ys)
            self.defined = self.ss >= 0
        if n <= min(budget, 4 * SAMPLE_SIZE):
            self.idx, self.drawn = np.arange(n), False
        else:
            rng = np.random.default_rng(seed)
            self.idx = np.unique(np.concatenate([
                rng.integers(0, n, size=SAMPLE_SIZE), [E.zero, E.one]]))
            self.drawn = True

    def classify(self, J) -> MapClassification:
        E = self.E
        J = np.asarray(J)
        if J.dtype != np.int32:  # the rows of a map stack are used as they are
            J = J.astype(np.int64)
        n = E.size
        if J.shape != (n,) or J.min() < 0 or J.max() >= n:
            raise DomainMismatch("map table must send the carrier into itself")

        witness = self._additivity_violation(J)
        if witness is not None:
            return MapClassification("not_additive", None, witness)

        focus = int(J[E.one])
        idx = _with_elements(self.idx, [focus, E.ortho(focus)]) if self.drawn else self.idx

        def below(b):  # over idx; lower_bounds builds no product order table
            return E.leq_pairs(idx, b) if self.drawn else E.lower_bounds(b)

        lower = idx[below(focus)]
        fixed = J[lower] == lower
        if not fixed.all():
            return MapClassification("not_additive", None, int(lower[np.argmin(fixed)]))

        kernel = J[idx] == E.zero
        should = below(E.ortho(focus))
        if (kernel == should).all():
            return MapClassification("compression", focus)
        return MapClassification("retraction", focus, int(idx[np.argmax(kernel != should)]))

    def _additivity_violation(self, J):
        E = self.E
        if self.all_pairs:
            return kernels.map_additivity_violation(E.sum_table, J, E.defined_pairs)
        xs, ys, ok = self.xs, self.ys, self.defined
        lhs = np.where(ok, J[np.maximum(self.ss, 0)], -1)
        rhs = np.where(ok, E.sum_pairs(J[xs], J[ys]), -1)
        bad = np.flatnonzero(ok & (lhs != rhs))
        return (int(xs[bad[0]]), int(ys[bad[0]])) if bad.size else None


def _with_elements(idx: np.ndarray, extra) -> np.ndarray:
    """The sorted union of the sorted unique ``idx`` with ``extra``."""
    extra = np.unique(extra)
    at = np.searchsorted(idx, extra)
    new = extra[(at == idx.size) | (idx[np.minimum(at, idx.size - 1)] != extra)]
    return np.insert(idx, np.searchsorted(idx, new), new) if new.size else idx


# ---------------------------------------------------------------------------
# base validation


def validate_base(E: FiniteAlgebra, cb: CompressionBase,
                  budget: int = TRIPLE_BUDGET, seed: int = 0) -> Report:
    """Verify the compression-base laws.

    Checks: P is a sub-effect algebra, every map is a compression focused
    at its index (C1), composites on Mackey-compatible pairs stay in the
    family (C2), P is normal, supplements pair up, and the triple law
    J_{p+q} o J_{q+r} = J_q holds on summable triples.

    C1 classifies each map against one ``MapSample`` of the carrier; C2
    and the triple law compare composites of the stacked map tables in
    chunked gathers (``kernels.composition_violation``).
    """
    rep = Report(f"compression base on {E.kind} (|P|={len(cb.projections)})")
    n = E.size
    P = cb.projections
    pa = np.array(P, dtype=np.int64)
    m = pa.size
    in_p = np.zeros(n, dtype=bool)
    in_p[pa] = True
    ppos = np.full(n, -1, dtype=np.int64)  # position in P, -1 outside P
    ppos[pa] = np.arange(m)

    # sub-effect algebra: contains 1, closed under ' and partial sums
    ok = E.one in cb.p_set and E.zero in cb.p_set
    closure_w = None
    for p in P:
        if E.ortho(p) not in cb.p_set:
            ok, closure_w = False, ("ortho", p)
            break
    if ok:
        sums = E.sum_pairs(pa[:, None], pa)
        sums = sums[sums >= 0]
        outside = np.flatnonzero(~in_p[sums])
        if outside.size:
            ok, closure_w = False, ("sum", int(sums[outside[0]]))
    rep.add("P-sub-effect-algebra", ok, witness=closure_w)

    # (C1): each map is a compression with the right focus
    check_projs = list(P)
    proj_mode = "full"
    if m * n > budget // 4:
        rng0 = np.random.default_rng(seed + 7)
        keep = rng0.choice(m, size=min(m, 256), replace=False)
        check_projs = sorted({P[i] for i in keep} | {E.zero, E.one})
        proj_mode = "sampled"
    pair_budget = max(budget // max(len(check_projs), 1), 4 * SAMPLE_SIZE)
    c1_ok, c1_w = True, None
    sample = MapSample(E, budget=pair_budget)
    for p in check_projs:
        cls = sample.classify(cb.map_table(p))
        if not (cls.is_compression and cls.focus == p):
            c1_ok, c1_w = False, (p, cls.kind, cls.witness)
            break
    mode = "full" if (proj_mode == "full" and E.dense and n * n <= pair_budget) else "sampled"
    rep.add("C1-compressions", c1_ok, mode=mode, witness=c1_w,
            detail=f"{len(check_projs)} of {m} maps checked")
    if not c1_ok:
        return rep

    # supplements: kernel of J_p is the range [0, p'] of J_p'
    supp_ok = True
    supp_w = None
    full_supp = n <= budget // max(len(check_projs), 1)
    supp_idx = None if full_supp else \
        np.random.default_rng(seed + 5).integers(0, n, size=SAMPLE_SIZE)
    for p in check_projs:
        if full_supp:
            kernel = cb.map_table(p) == E.zero
            rng_mask = E.lower_bounds(E.ortho(p))
        else:
            kernel = cb.map_table(p)[supp_idx] == E.zero
            rng_mask = E.leq_pairs(supp_idx, E.ortho(p))
        if not (kernel == rng_mask).all():
            supp_ok, supp_w = False, p
            break
    rep.add("supplement-pairing", supp_ok, mode=proj_mode, witness=supp_w)

    # (C2): composite of a Mackey-compatible pair is in the family
    c2_ok, c2_w, c2_mode = True, None, "full"
    rng = np.random.default_rng(seed)
    full_c2 = E.dense and m ** 2 * n <= budget
    cols = None if full_c2 else rng.integers(0, n, size=min(n, 2000))
    if full_c2:
        compat = kernels.mackey_matrix(E.sum_table, E.ominus_table, E.leq_table, P)
        ii, jj = np.nonzero(compat)  # row-major: p-major order
    else:
        c2_mode = "sampled"
        drawn = list({(int(i), int(j))
                      for i, j in zip(rng.integers(0, m, 128), rng.integers(0, m, 128))})
        pairs = np.array([ij for ij in drawn if _mackey_pair(E, P[ij[0]], P[ij[1]])],
                         dtype=np.int64).reshape(-1, 2)
        ii, jj = pairs[:, 0], pairs[:, 1]
    firsts, at = np.unique(ii, return_inverse=True)
    focus = cb.map_values(pa[firsts], pa)[at, jj]  # candidate focus J_p(J_q(1)) = J_p(q)
    t = _composition_failure(cb, ii, jj, ppos[focus], cols)
    if t is not None:
        kind = "focus" if ppos[focus[t]] < 0 else "table"
        c2_ok, c2_w = False, (P[ii[t]], P[jj[t]], kind, int(focus[t]))
    rep.add("C2-composition", c2_ok, mode=c2_mode, witness=c2_w)

    # normality of P
    if E.dense and m ** 2 * n <= budget:
        w = kernels.normality_violation(E.sum_table, E.ominus_table, E.leq_table, pa, in_p)
        rep.add("P-normal", w is None, witness=w)
    else:
        rng = np.random.default_rng(seed + 1)
        ds = rng.integers(0, n, size=SAMPLE_SIZE)
        ok_n, w_n = True, None
        ps = pa[rng.integers(0, m, size=SAMPLE_SIZE)]
        qs = pa[rng.integers(0, m, size=SAMPLE_SIZE)]
        good = E.leq_pairs(ds, ps) & E.leq_pairs(ds, qs) & ~in_p[ds]
        es = np.where(good, E.ominus_pairs(ps, np.where(good, ds, 0)), -1)
        viol = good & (np.where(good, E.sum_pairs(np.maximum(es, 0), qs), -1) >= 0)
        if viol.any():
            i = int(np.argmax(viol))
            ok_n, w_n = False, (int(ps[i]), int(qs[i]), int(ds[i]))
        rep.add("P-normal", ok_n, mode="sampled", witness=w_n)

    # triple law on summable triples from P: the composite fixes exactly
    # the shared summand, J_{p+q} o J_{q+r} = J_q.  A triple is
    # (p+q, q, q+r, r); a sum outside P has no map and fails the law.
    if m * m <= 1 << 22:
        pq = E.sum_pairs(pa[:, None], pa)

        def chunks():
            for i, j, k in _summable_triples(E, pa, pq):
                yield pq[i, j], pa[j], pq[j, k], pa[k]
    else:
        rng2 = np.random.default_rng(seed + 2)
        drawn = []
        for _ in range(2048):
            p, q, r = (int(pa[rng2.integers(m)]) for _ in range(3))
            s1, s2 = E.sum(p, q), E.sum(q, r)
            if s1 is not None and s2 is not None and E.sum(s1, r) is not None:
                drawn.append((s1, q, s2, r))

        def chunks():
            yield tuple(np.array(drawn, dtype=np.int64).reshape(-1, 4).T)
    count = sum(chunk[0].size for chunk in chunks())
    tl_mode = "full" if (count * n <= budget and full_c2) else "sampled"
    cap = 512 if n <= 100_000 else 192
    triples = chunks()
    if tl_mode == "sampled" and count > cap:
        keep = np.random.default_rng(seed + 3).choice(count, size=cap, replace=False)
        triples = [_select(triples, keep)]
    tl_cols = cols if tl_mode == "sampled" else None
    tl_ok, tl_w = True, None
    for spq, q, sqr, r in triples:
        t = _composition_failure(cb, ppos[spq], ppos[sqr], ppos[q], tl_cols)
        if t is not None:
            tl_ok, tl_w = False, (int(spq[t]), int(q[t]), int(sqr[t]), int(r[t]))
            break
    rep.add("triple-law", tl_ok, mode=tl_mode, witness=tl_w)
    return rep


def _summable_triples(E: FiniteAlgebra, pa: np.ndarray, pq: np.ndarray):
    """Chunks ``(i, j, k)`` of positions in P with ``pa[i] + pa[j]``,
    ``pa[j] + pa[k]`` and ``(pa[i] + pa[j]) + pa[k]`` defined, in the order
    of (i, j) row-major and then k; ``pq`` holds the sums of pairs of P."""
    m = pa.size
    ii, jj = np.nonzero(pq >= 0)
    step = max(1, kernels.CHUNK_BYTES // (64 * m))  # (i, j) pairs; ~64 bytes per candidate
    for start in range(0, ii.size, step):
        i2 = np.repeat(ii[start:start + step], m)
        j2 = np.repeat(jj[start:start + step], m)
        k2 = np.tile(np.arange(m), min(step, ii.size - start))
        ok = pq[j2, k2] >= 0
        good = np.flatnonzero(ok & (E.sum_pairs(pq[i2, j2], pa[k2]) >= 0))
        yield i2[good], j2[good], k2[good]


def _select(chunks, keep: np.ndarray) -> tuple:
    """The entries at the positions ``keep`` of a run of chunks, each a
    tuple of equally long arrays, in the order of ``keep``."""
    order = np.sort(keep)
    parts, seen = [], 0
    for chunk in chunks:
        size = chunk[0].size
        at = order[(order >= seen) & (order < seen + size)] - seen
        parts.append([a[at] for a in chunk])
        seen += size
    back = np.searchsorted(order, keep)
    return tuple(np.concatenate(a)[back] for a in zip(*parts))


def _composition_failure(cb: CompressionBase, outer, inner, target, cols=None):
    """``kernels.composition_violation`` over the maps of P; the indices
    are positions in P.  Past ``MAP_CACHE_ENTRIES`` the maps are not
    stacked, and each batch builds the rows it compares."""
    if cb.caches_maps:
        return kernels.composition_violation(cb.map_stack(), outer, inner, target, cols)
    step = max(1, kernels.CHUNK_BYTES // (12 * cb.algebra.size))
    for start in range(0, len(outer), step):
        flat = np.concatenate([a[start:start + step] for a in (outer, inner, target)])
        need = np.unique(flat[flat >= 0])
        local = np.where(flat >= 0, np.searchsorted(need, flat), -1)
        rows = cb.map_values([cb.projections[i] for i in need])
        t = kernels.composition_violation(rows, *np.split(local, 3), cols)
        if t is not None:
            return start + t
    return None


def _mackey_pair(E: FiniteAlgebra, p: int, q: int) -> bool:
    # direct witness search; validation must not trust the maps under test.
    # For projections the shared summand, when it exists, is the meet.
    c = E.meet(p, q)
    if c is not None:
        a1, b1 = E.ominus(p, c), E.ominus(q, c)
        if a1 is not None and b1 is not None:
            s = E.sum(a1, b1)
            if s is not None and E.sum(s, c) is not None:
                return True
    ok, _ = mackey_compatible(E, p, q)
    return ok


# ---------------------------------------------------------------------------
# the central base


def _central_candidates(E: FiniteAlgebra) -> np.ndarray:
    sharp = sharp_elements(E)
    if isinstance(E, GridAlgebra):
        return sharp  # zero-one vectors are principal and complemented
    keep = [p for p in sharp
            if is_principal(E, int(p)) and is_principal(E, E.ortho(int(p)))]
    return np.array(keep, dtype=np.int64)


def meet_with_all(E: FiniteAlgebra, p: int) -> Optional[np.ndarray]:
    """Vector of meets a ^ p over the carrier; None when some meet fails."""
    out = E.meet_pairs(np.arange(E.size), p)
    return None if (out < 0).any() else out


def central_base(E: FiniteAlgebra) -> CompressionBase:
    """The base of central projections, with U_p(a) = a ^ p.

    An element is central when it is sharp, it and its orthosupplement are
    principal, and every a splits as (a ^ p) + (a ^ p').
    """
    centre = []
    maps = {}
    arange = np.arange(E.size)
    for p in _central_candidates(E):
        p = int(p)
        mp = meet_with_all(E, p)
        mq = None if mp is None else meet_with_all(E, E.ortho(p))
        if mp is None or mq is None:
            continue
        if (E.sum_pairs(mp, mq) == arange).all():
            centre.append(p)
            maps[p] = mp
    return CompressionBase(E, centre, maps)


# ---------------------------------------------------------------------------
# commutants, blocks, covers


def commutant(cb: CompressionBase, p: int) -> np.ndarray:
    """C(p) as an array of element indices.

    Lazy carriers cannot list C(p); use ``cb.in_commutant(a, p)`` (which
    matrix bases decide by commutation of matrices) instead.
    """
    if not cb.enumerable:
        raise NotEnumerable("C(p) is not listable; use cb.in_commutant(a, p)")
    return np.flatnonzero(cb.commutant_mask(p))


def pc(cb: CompressionBase, a: int) -> np.ndarray:
    if not cb.enumerable:
        raise NotEnumerable("PC(a) is not listable on a lazy carrier")
    return cb.pc_set(a)


def bicommutant(cb: CompressionBase, a: int):
    """P(a); checked to be a Boolean subalgebra of P."""
    if not cb.enumerable:
        return cb.bicommutant(a)  # sums of eigenprojections
    out = cb.bicommutant_set(a)
    pos = [cb.p_pos[int(p)] for p in out]
    compat = cb.pcompat()[np.ix_(pos, pos)]
    if not compat.all():
        raise InternalConsistencyError("bicommutant is not pairwise compatible")
    for p in out:
        if cb.p_ortho(int(p)) not in set(int(x) for x in out):
            raise InternalConsistencyError("bicommutant not closed under orthosupplement")
    return out


def blocks(cb: CompressionBase) -> list:
    """Maximal pairwise-compatible subsets of P, each checked Boolean."""
    compat = cb.pcompat()
    adj = []
    for i, row in enumerate(compat):
        bits = int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        adj.append(bits & ~(1 << i))
    out = []
    for clique in maximal_cliques(adj):
        block = sorted(cb.projections[i] for i in _members(clique))
        _check_boolean_block(cb, block)
        out.append(block)
    return sorted(out)


def maximal_cliques(adj) -> list:
    """Maximal cliques of a simple graph, each as a bitset of vertices.

    ``adj[v]`` is the neighbour bitset of vertex ``v`` (without ``v``).
    Bron and Kerbosch's search with pivoting (CACM 16(9), 1973), run on an
    explicit stack so that a large clique does not nest calls.
    """
    out = []
    stack = [(0, (1 << len(adj)) - 1, 0)]  # (clique so far, candidates, excluded)
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                out.append(r)
            continue
        # branch only on candidates outside the pivot's neighbourhood
        pivot = max(_members(p | x), key=lambda u: (adj[u] & p).bit_count())
        for v in _members(p & ~adj[pivot]):
            stack.append((r | 1 << v, p & adj[v], x & adj[v]))
            p &= ~(1 << v)
            x |= 1 << v
    return out


def _members(bits: int):
    """Vertices of a bitset, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _check_boolean_block(cb: CompressionBase, block) -> None:
    """Raise InternalConsistencyError unless the block is closed under '
    and under the meets J_p(q), and those meets distribute over the joins
    q v r = (q' ^ r')'."""
    E = cb.algebra
    block = np.asarray(block, dtype=np.int64)
    b = block.size
    where = np.full(E.size, -1, dtype=np.int64)  # position in the block
    where[block] = np.arange(b)
    ortho = where[E.ortho_all()[block]]
    if (ortho < 0).any():
        raise InternalConsistencyError(f"block not closed under ': {block.tolist()}")
    # meets of compatible projections are J_p(q), as block positions
    meet = where[cb.map_values(block, block)]
    if (meet < 0).any():
        raise InternalConsistencyError("block not closed under meets")
    join = ortho[meet[np.ix_(ortho, ortho)]]
    # p ^ (q v r) == (p ^ q) v (p ^ r), for a run of p's at a time
    step = max(1, kernels.CHUNK_BYTES // (24 * b * b))
    for i in range(0, b, step):
        mp = meet[i:i + step]
        if (mp[:, join] != join[mp[:, :, None], mp[:, None, :]]).any():
            raise InternalConsistencyError("block fails distributivity")


def c_block(cb: CompressionBase, block) -> np.ndarray:
    """C(B): elements compatible with every projection in the block."""
    mask = np.ones(cb.algebra.size, dtype=bool)
    for p in block:
        mask &= cb.pc_matrix()[:, cb.p_pos[p]]
    return np.flatnonzero(mask)


def projection_cover(cb: CompressionBase, a: int) -> int:
    """Least projection above a; raises NoCover when the set has no minimum."""
    return cb.cover(a)


def has_pcp(cb: CompressionBase) -> bool:
    return cb.has_pcp()


def check_oml(cb: CompressionBase, closure_limit: int = 3) -> Report:
    """P under the cover property: an orthomodular lattice, sup/inf-closed in E."""
    if not cb.enumerable:
        raise NotEnumerable("the projection lattice of a lazy carrier is not listable")
    if not cb.has_pcp():
        missing = int(np.argmax(cb.cover_vec() < 0))
        raise NoCover(cb.algebra.label(missing))
    E = cb.algebra
    rep = Report(f"OML structure of P (|P|={len(cb.projections)})")
    m = len(cb.projections)
    meets = cb.p_meet_table()
    rep.add("pairwise-meets-exist", bool((meets >= 0).all()))
    joins_ok = all(cb.join_proj(p, q) is not None
                   for p in cb.projections for q in cb.projections)
    rep.add("pairwise-joins-exist", joins_ok)

    om_ok, om_w = True, None
    Pleq = cb.proj_leq()
    for i, p in enumerate(cb.projections):
        for j, q in enumerate(cb.projections):
            if not Pleq[i, j]:
                continue
            inner = cb.meet_proj(q, cb.p_ortho(p))
            rhs = None if inner is None else cb.join_proj(p, inner)
            if rhs != q:
                om_ok, om_w = False, (p, q)
                break
        if not om_ok:
            break
    rep.add("orthomodular-law", om_ok, witness=om_w)

    # sup/inf closure in E for small subsets
    import itertools

    cl_ok, cl_w = True, None
    for size in range(2, closure_limit + 1):
        for subset in itertools.combinations(cb.projections, size):
            mv = E.meet_many(subset)
            if mv is not None and mv not in cb.p_set:
                cl_ok, cl_w = False, ("meet", subset, mv)
                break
            jv = E.meet_many([E.ortho(p) for p in subset])
            if jv is not None and E.ortho(jv) not in cb.p_set:
                cl_ok, cl_w = False, ("join", subset, E.ortho(jv))
                break
        if not cl_ok:
            break
    rep.add(f"sup-inf-closed-(subsets ≤ {closure_limit})", cl_ok, witness=cl_w)
    return rep
