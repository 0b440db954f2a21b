"""Commuting pairs, separating projections, positive parts and splittings.

Two elements commute when their bicommutants are pairwise Mackey
compatible.  Comparability asks, for every commuting pair (e, f), for a
projection p with J_p(e) <= J_p(f) and J_p'(f) <= J_p'(e); positive
parts and the halving decomposition used by the spectral construction
both come from such projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compbase import CompressionBase, validate_base
from .core import (
    FiniteAlgebra,
    Report,
    TableAlgebra,
    PAIR_BUDGET,
    sharp_elements,
)
from .errors import (
    ComparabilityMissing,
    InternalConsistencyError,
    NotCommuting,
    NotSpectral,
)


@dataclass
class SplitResult:
    """Halving of c inside [0, q]: c = J_u0(c) + J_u1(c) with 2*J_u0(c) and
    2*J_u1(q - c) both defined."""

    u0: object
    u1: object
    c0: object
    c1: object
    ambient_unit: object


# ---------------------------------------------------------------------------
# b-property and commuting


def has_b_property(cb, a) -> bool:
    """True when membership of a in C(p) is decided by its bicommutant."""
    if not cb.enumerable:
        return cb.has_b_property(a)
    pcm = cb.pc_matrix()[a]
    bic = cb.bicommutant_set(a)
    pos = np.array([cb.p_pos[int(p)] for p in bic])
    contained = ~((~cb.pcompat()[:, pos]).any(axis=1))  # P(a) subset of C(p)?
    return bool((contained == pcm).all())


def all_b(cb, budget: int = PAIR_BUDGET, seed: int = 0) -> bool:
    if not cb.enumerable:
        return cb.all_b()
    n = cb.algebra.size
    m = len(cb.projections)
    if n * m * m <= budget:
        pcm = cb.pc_matrix()
        bic = cb.bicommutant_mask_all()
        miss = bic.astype(np.int16) @ (~cb.pcompat()).astype(np.int16)
        contained = miss == 0
        return bool((contained == pcm).all())
    rng = np.random.default_rng(seed)
    return all(has_b_property(cb, int(a)) for a in rng.integers(0, n, size=512))


def commute(cb, e, f) -> bool:
    """e C f: the bicommutants P(e) and P(f) are pairwise compatible."""
    if not cb.enumerable:
        return cb.commute(e, f)
    if not (has_b_property(cb, e) and has_b_property(cb, f)):
        from .errors import BPropertyMissing

        raise BPropertyMissing("commuting is defined for b-elements only")
    pe = np.array([cb.p_pos[int(p)] for p in cb.bicommutant_set(e)])
    pf = np.array([cb.p_pos[int(p)] for p in cb.bicommutant_set(f)])
    return bool(cb.pcompat()[np.ix_(pe, pf)].all())


def p_le_set(cb, e, f) -> np.ndarray:
    """P_<=(e, f): p in P(e, f) with J_p(e) <= J_p(f) and J_p'(f) <= J_p'(e)."""
    if not cb.enumerable:
        return cb.p_le_set(e, f)
    if not commute(cb, e, f):
        raise NotCommuting(f"{cb.algebra.label(e)} and {cb.algebra.label(f)} do not commute")
    E = cb.algebra
    pcm = cb.pc_matrix()
    smask = pcm[e] & pcm[f]  # PC({e, f})
    cand = smask & ~((~cb.pcompat()) & smask[None, :]).any(axis=1)
    out = []
    for pos in np.flatnonzero(cand):
        p = cb.projections[pos]
        jp = cb.map_table(p)
        jo = cb.map_table(cb.p_ortho(p))
        if E.leq(int(jp[e]), int(jp[f])) and E.leq(int(jo[f]), int(jo[e])):
            out.append(p)
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# whole-algebra comparability


def check_b_comparability(cb, budget: int = PAIR_BUDGET, seed: int = 0) -> Report:
    """b-property plus nonempty P_<= for every commuting pair.

    On success the structural consequences are verified as extra rows:
    sharp elements all lie in P, and each C-block is an MV effect algebra.
    """
    if not cb.enumerable:
        return cb.check_b_comparability()
    E = cb.algebra
    n = E.size
    m = len(cb.projections)
    rep = Report(f"b-comparability on {E.kind} ({n} elements, |P|={m})")

    full = E.dense and n * n * m <= budget
    # all_b scans every element whenever this check is full, as m <= n
    ok_b = all_b(cb, budget=budget, seed=seed)
    rep.add("b-property", ok_b, mode="full" if full else "sampled")
    if not ok_b:
        return rep
    if full:
        pcm = cb.pc_matrix().astype(np.int16)
        ncomp = (~cb.pcompat()).astype(np.int16)
        bic16 = cb.bicommutant_mask_all().astype(np.int16)
        comm = (bic16 @ ncomp @ bic16.T) == 0  # commuting pairs
        smask = pcm[:, None, :] & pcm[None, :, :]
        padmiss = np.einsum("efp,pq->efq", smask.astype(np.int16), ncomp)
        cand = smask.astype(bool) & (padmiss == 0)
        leq = E.leq_table
        nonempty = np.zeros((n, n), dtype=bool)
        for pos, p in enumerate(cb.projections):
            jp = cb.map_table(p)
            jo = cb.map_table(cb.p_ortho(p))
            ple = leq[np.ix_(jp, jp)] & leq[np.ix_(jo, jo)].T
            nonempty |= cand[:, :, pos] & ple
        bad = comm & ~nonempty
        ok = not bad.any()
        witness = None
        if not ok:
            e, f = map(int, np.argwhere(bad)[0])
            witness = (E.label(e), E.label(f))
        rep.add("comparability", ok, witness=witness)
    else:
        rng = np.random.default_rng(seed)
        ok, witness = True, None
        for _ in range(1024):
            e, f = int(rng.integers(n)), int(rng.integers(n))
            if commute(cb, e, f) and p_le_set(cb, e, f).size == 0:
                ok, witness = False, (E.label(e), E.label(f))
                break
        rep.add("comparability", ok, mode="sampled", witness=witness)

    sharp = set(int(s) for s in sharp_elements(E))
    rep.add("sharp-elements-are-projections", sharp == set(cb.projections),
            witness=None if sharp == set(cb.projections)
            else sorted(sharp - set(cb.projections))[:3])
    if rep.passed:
        from .compbase import blocks, c_block

        mv_ok, mv_w = True, None
        for block in blocks(cb):
            cbk = c_block(cb, block)
            good, w = _is_mv_subalgebra(E, cbk, seed=seed)
            if not good:
                mv_ok, mv_w = False, w
                break
        rep.add("C-blocks-are-MV", mv_ok, witness=mv_w,
                mode="full" if E.dense else "sampled")
    return rep


def _is_mv_subalgebra(E: FiniteAlgebra, elems: np.ndarray, seed: int = 0):
    """Lattice + the MV identity (a v b) - a = b - (a ^ b); RDP spot check."""
    k = elems.size
    if k * k <= 4_000_000:
        xs, ys = np.repeat(elems, k), np.tile(elems, k)
    else:
        rng = np.random.default_rng(seed)
        xs = elems[rng.integers(0, k, size=2000)]
        ys = elems[rng.integers(0, k, size=2000)]
    meets = E.meet_pairs(xs, ys)
    if (meets < 0).any():
        i = int(np.argmax(meets < 0))
        return False, ("meet-missing", E.label(int(xs[i])), E.label(int(ys[i])))
    joins = E.meet_pairs(E.ortho_all()[xs], E.ortho_all()[ys])
    if (joins < 0).any():
        return False, ("join-missing",)
    joins = E.ortho_all()[joins]
    if not np.isin(np.concatenate([meets, joins]), elems).all():
        return False, ("not-closed",)
    lhs = E.ominus_pairs(joins, xs)
    rhs = E.ominus_pairs(ys, meets)
    if (lhs != rhs).any():
        i = int(np.argmax(lhs != rhs))
        return False, ("mv-identity", E.label(int(xs[i])), E.label(int(ys[i])))
    # RDP spot check: a <= b + c splits along b using the lattice structure
    rng = np.random.default_rng(seed + 1)
    for _ in range(256):
        a, b, c = (int(elems[rng.integers(k)]) for _ in range(3))
        s = E.sum(b, c)
        if s is None or not E.leq(a, s):
            continue
        b1 = E.meet(a, b)
        c1 = E.ominus(a, b1)
        if c1 is None or not E.leq(c1, c):
            return False, ("rdp", E.label(a), E.label(b), E.label(c))
    return True, None


def is_spectral(cb) -> bool:
    """Projection covers plus b-comparability."""
    return cb.is_spectral()


def require_spectral(cb):
    if not cb.is_spectral():
        raise NotSpectral("algebra is not spectral for this compression base")


# ---------------------------------------------------------------------------
# positive part and splitting


def positive_part(cb, b, a):
    """(b - a)_+ = J_p(b) - J_p(a), independent of the chosen p in P_<=(a, b).

    Every admissible projection is evaluated; disagreement is an internal
    consistency failure of the base.
    """
    if not cb.enumerable:
        return cb.positive_part(b, a)
    E = cb.algebra
    pl = p_le_set(cb, a, b)
    if pl.size == 0:
        raise ComparabilityMissing(
            f"no separating projection for ({E.label(a)}, {E.label(b)})")
    vals = []
    for p in pl:
        jp = cb.map_table(int(p))
        v = E.ominus(int(jp[b]), int(jp[a]))
        if v is None:
            raise InternalConsistencyError("J_p(b) - J_p(a) undefined on P_<=")
        vals.append(v)
    if len(set(vals)) != 1:
        raise InternalConsistencyError(
            f"positive part depends on the projection: {sorted(set(vals))}")
    return vals[0]


def split(cb, c, q) -> SplitResult:
    """Halve c inside [0, q]: the two-sided decomposition driving the
    dyadic refinement.

    u0 carries 'c below half of q', u1 = q - u0 the rest; boundary mass
    (where c equals its interval complement) lands on the u0 side.
    """
    if not cb.enumerable:
        return cb.split(c, q)
    E = cb.algebra
    if not E.leq(c, q):
        raise ValueError("split needs c <= q")
    cq = E.ominus(q, c)  # interval orthosupplement of c in [0, q]
    pp = positive_part(cb, c, cq)  # (c - c'_q)_+, supported inside q
    u1 = cb.cover(pp)
    u0 = E.ominus(q, u1)
    if u0 is None:
        raise InternalConsistencyError("cover of the positive part escapes [0, q]")
    j0 = cb.apply(u0, c)
    c0 = E.sum(j0, j0)
    j1 = cb.apply(u1, cq)
    twice = E.sum(j1, j1)
    c1 = None if twice is None else E.ominus(u1, twice)
    if c0 is None or c1 is None:
        raise InternalConsistencyError("halving failed: doubled compression undefined")
    if c1 != pp:
        raise InternalConsistencyError("split cross-check failed: c1 != (c - c'_q)_+")
    if E.sum(u0, u1) != q or not (E.leq(c0, u0) and E.leq(c1, u1)):
        raise InternalConsistencyError("split invariants violated")
    return SplitResult(u0=u0, u1=u1, c0=c0, c1=c1, ambient_unit=q)


# ---------------------------------------------------------------------------
# interval restriction


def restrict(cb: CompressionBase, q: int, validate: bool = True):
    """The interval algebra [0, q] with the inherited compression base.

    Returns (algebra, base); the new carrier re-indexes elements below q,
    and ``algebra.parent_index`` maps new indices back to the original.
    """
    E = cb.algebra
    if q not in cb.p_set:
        raise ValueError("restriction requires a projection")
    idx = np.flatnonzero(E.lower_bounds(q))
    pos = {int(g): i for i, g in enumerate(idx)}
    n2 = idx.size
    S2 = -np.ones((n2, n2), dtype=np.int64)
    sums = E.sum_pairs(np.repeat(idx, n2), np.tile(idx, n2)).reshape(n2, n2)
    for i in range(n2):
        for j in range(n2):
            s = int(sums[i, j])
            if s >= 0 and s in pos:  # q principal: sums below q stay below q
                S2[i, j] = pos[s]
    sub = TableAlgebra(S2, pos[E.zero], pos[q],
                       labels=[E.label(int(g)) for g in idx])
    sub.parent_index = idx
    projs = [p for p in cb.projections if E.leq(p, q)]
    maps = {}
    for p in projs:
        table = cb.map_table(p)[idx]
        maps[pos[p]] = np.array([pos[int(v)] for v in table], dtype=np.int64)
    sub_cb = CompressionBase(sub, [pos[p] for p in projs], maps)
    if validate:
        rep = validate_base(sub, sub_cb)
        if not rep.passed:
            raise InternalConsistencyError(
                f"inherited base on [0, {E.label(q)}] is invalid:\n{rep.summary()}")
    return sub, sub_cb
