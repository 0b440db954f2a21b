"""Commuting pairs, separating projections, positive parts and splittings.

Two elements commute when their bicommutants are pairwise Mackey
compatible.  Comparability asks, for every commuting pair (e, f), for a
projection p with J_p(e) <= J_p(f) and J_p'(f) <= J_p'(e); positive
parts and the halving decomposition used by the spectral construction
both come from such projections.

The b-property, commuting and P(e, f) depend on the sets PC(e) and PC(f)
only, so they are read from the base's class table
(``CompressionBase.class_table``), built once per base: O(1) lookups for
the first two, two class rows for the third.  A split is then a fixed
number of gathers however large P is: one of J_p and J_p' at e and f with
one order test for P_<=(e, f), and one of J_p for the positive part.

``check_b_comparability`` decides the rows of the spectrality verdict
once per base: through the factor bases on a product base
(``structural``), by one exact scan of the carrier otherwise (``full``).
The MV check of the C-blocks reads ``k^2`` pairs of each C-block of
``k`` elements, each meet an order row of ``n/8`` bytes; past
``core.TRIPLE_BUDGET`` it draws the pairs of each C-block of more than
``core.SAMPLE_SIZE`` pairs, like every other scan, and the row says
``sampled`` with the work and the budget in its detail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, kernels
from .compbase import CompressionBase, blocks, c_block, validate_base
from .core import (
    FiniteAlgebra,
    Report,
    TableAlgebra,
    product_report,
    remembered,
    sharp_elements,
)
from .errors import (
    BPropertyMissing,
    ComparabilityMissing,
    InternalConsistencyError,
    MalformedInput,
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


# ---------------------------------------------------------------------------
# b-property and commuting


def has_b_property(cb, a) -> bool:
    """True when membership of a in C(p) is decided by its bicommutant."""
    if not cb.enumerable:
        return cb.has_b_property(a)
    t = cb.class_table()
    return bool(t.b[t.cls[a]])


def all_b(cb) -> bool:
    """Every element has the b-property; decided once per distinct PC(a)."""
    if not cb.enumerable:
        return cb.all_b()
    return bool(cb.class_table().b.all())


def commute(cb, e, f) -> bool:
    """e C f: the bicommutants P(e) and P(f) are pairwise compatible."""
    if not cb.enumerable:
        return cb.commute(e, f)
    t = cb.class_table()
    ce, cf = t.cls[e], t.cls[f]
    if not (t.b[ce] and t.b[cf]):
        raise BPropertyMissing("commuting is defined for b-elements only")
    return bool(t.commuting[ce, cf])


def p_le_set(cb, e, f) -> np.ndarray:
    """P_<=(e, f): p in P(e, f) with J_p(e) <= J_p(f) and J_p'(f) <= J_p'(e).

    P(e, f), the members of PC({e, f}) compatible with all of it, comes
    from the two class rows; the order tests are one ``map_pairs`` over
    every candidate and its orthosupplement.
    """
    if not cb.enumerable:
        return cb.p_le_set(e, f)
    return _p_le(cb, e, f)


def _p_le(cb, e, f, diffs: bool = False):
    """``p_le_set(cb, e, f)``; with ``diffs``, also the difference
    J_p(f) - J_p(e) for each of its members p."""
    if not commute(cb, e, f):
        raise NotCommuting(f"{cb.algebra.label(e)} and {cb.algebra.label(f)} do not commute")
    t = cb.class_table()
    both = t.pc[t.cls[e]] & t.pc[t.cls[f]]  # PC({e, f})
    rows = np.flatnonzero(both & ~(~cb.pcompat() @ both))  # P(e, f), as positions in P
    ps = cb.p_array[rows]
    k = ps.size
    rows = np.concatenate([rows, cb.ortho_rows()[rows]])  # each candidate p, then each p'
    lo = np.full(2 * k, e)
    lo[k:] = f
    hi = lo[::-1]  # f for each p, e for each p'
    if not diffs:  # the order alone, which a product base decides with one & per node
        return ps[cb.map_pairs("leq_pairs", rows, lo, hi).reshape(2, k).all(axis=0)]
    out = cb.map_pairs("ominus_pairs", rows, hi, lo)  # -1 where lo is not below hi
    ok = (out >= 0).reshape(2, k).all(axis=0)
    return ps[ok], out[:k][ok]


# ---------------------------------------------------------------------------
# whole-algebra comparability


def check_b_comparability(cb) -> Report:
    """b-property plus nonempty P_<= for every commuting pair.

    On success the structural consequences are verified as extra rows:
    sharp elements all lie in P, and each C-block is an MV effect algebra.
    ``cb`` keeps the report, and ``cb.is_spectral()`` reads it.

    A base with ``factors`` (``compbase.product_base``: ``P = P1 x P2`` and
    ``J_(p1, p2) = J_p1 x J_p2``) is not scanned: its rows are
    ``structural``, from the reports of the factor bases
    (``core.product_report``).  That covers products, and grids and Boolean
    algebras with more than one coordinate.  Sums, differences and the
    order are componentwise, so a ``(p1, p2)``-decomposition
    ``a = J_p(a) + J_p'(a)`` is a pair of factor decompositions, and so is
    a Mackey witness: ``PC(a) = PC(a1) x PC(a2)``, compatibility of pairs
    is componentwise and ``P(a) = P(a1) x P(a2)``.  Each of these contains
    0, and 1 is compatible with every projection, so no product of them is
    empty and each row holds in the product iff it holds in both factors.
    A factor witness lifts by pairing its elements with the other factor's
    zero:

    * b-property: ``P(a) <= C(p)`` and ``a in C(p)`` are conjunctions of
      their factor statements, which agree for every ``(a, p)`` iff they
      agree in each factor (take ``p2 = 1`` and ``a2 = 0``).
    * comparability: ``e C f`` iff ``e1 C f1`` and ``e2 C f2``, and
      ``P_<=(e, f) = P_<=(e1, f1) x P_<=(e2, f2)``, empty iff one factor set
      is.  ``0 C 0`` holds in any base, as ``P(0)`` is the set of
      projections compatible with all of P.
    * sharp-elements-are-projections: ``a ^ a' = 0`` is componentwise, so
      the sharp elements are the pairs of sharp elements; that set equals
      ``P1 x P2`` iff the factor sets equal their P (all contain 0 and 1).
    * C-blocks-are-MV: the compatibility graph on ``P1 x P2`` is the
      product of the two reflexive factor graphs, whose maximal cliques are
      the blocks ``B1 x B2``, with ``C(B1 x B2) = C(B1) x C(B2)``.  Meets,
      joins and differences are componentwise, so such a set is an MV
      effect algebra inside E iff both factor sets are.

    Where a factor report stops early, at a failing b-property or before
    the C-block row, the product's stops at the same row, as the scan does.

    A base without ``factors`` is scanned (``_scan_spectral``).  Every
    carrier past ``core.DENSE_LIMIT`` has factors, so the scan sees dense
    carriers only, and each of its rows is exact within ``core.TRIPLE_BUDGET``.
    """
    if not cb.enumerable:
        return cb.check_b_comparability()

    def make():
        if cb.factors is None:
            return _scan_spectral(cb)
        E = cb.algebra
        return product_report(
            f"b-comparability on {E.kind} ({E.size} elements, |P|={len(cb.projections)})",
            *map(check_b_comparability, cb.factors),
            "componentwise on P1 x P2", lambda name, side, w: _lift(E, name, side, w))
    return remembered(cb, "b-comparability", make)


def _lift(E: FiniteAlgebra, name: str, side: int, w):
    """A factor's witness for the row ``name`` as a witness in the product
    ``E``, each element paired with the other factor's zero (see
    ``check_b_comparability``).  The scan names elements by label, except in
    the list of sharp elements outside P."""
    if name == "sharp-elements-are-projections":
        return [E.embed(side, x) for x in w]
    F = E.factors[side]
    index = {F.label(x): x for x in range(F.size)}

    def up(label):
        return E.label(E.embed(side, index[label]))

    if name == "comparability":
        return tuple(map(up, w))
    kind, *labels = w  # C-blocks-are-MV
    return (kind, *map(up, labels))


def _scan_spectral(cb) -> Report:
    """The rows of ``check_b_comparability`` over the whole carrier, which
    must be dense; every base without ``factors`` gets them, and the tests
    take them as the reference for products.

    The b-property, commuting and ``P(e, f)`` are read from the base's
    class table, the one that every split reads; comparability is one gather
    (``_comparability_failure``).  The MV row checks every pair of every
    C-block while its work, ``k^2`` pairs of each C-block of ``k`` elements
    times the ``ceil(n/8)`` order-row bytes that each meet reads, fits
    ``core.TRIPLE_BUDGET``; past it each C-block of more than
    ``core.SAMPLE_SIZE`` pairs is checked on seeded draws (``core._draws``)
    and the row is ``sampled``, with the work and the budget in its detail.
    """
    E = cb.algebra
    rep = Report(f"b-comparability on {E.kind} ({E.size} elements, |P|={len(cb.projections)})")
    if not rep.add("b-property", all_b(cb)).passed:
        return rep
    bad = _comparability_failure(cb)
    rep.add("comparability", bad is None,
            witness=None if bad is None else (E.label(bad[0]), E.label(bad[1])))

    sharp = set(int(s) for s in sharp_elements(E))
    rep.add("sharp-elements-are-projections", sharp == set(cb.projections),
            witness=None if sharp == set(cb.projections)
            else sorted(sharp - set(cb.projections))[:3])
    if rep.passed:
        cblocks = [c_block(cb, block) for block in blocks(cb)]
        pairs = sum(c.size ** 2 for c in cblocks)
        over = core._over_budget("pairs x n/8", pairs * -(-E.size // 8))  # n/8 rounded up
        # past the budget, a C-block of at most SAMPLE_SIZE pairs is still read whole
        w = next(filter(None, (_mv_violation(E, c, over is None or c.size ** 2 <= core.SAMPLE_SIZE)
                               for c in cblocks)), None)
        rep.add("C-blocks-are-MV", w is None, witness=w, mode="full" if over is None
                else "sampled", detail=over or "")
    return rep


def _comparability_failure(cb):
    """The first commuting pair (e, f) in row-major order with P_<=(e, f)
    empty, or None.

    ``P(e, f)`` and commuting are taken per pair of classes of the base's
    class table (``CompressionBase.class_table``).  The open pairs are a
    bit matrix, one row of ``n`` bits per e.  For each p in turn the pairs
    with p in P(e, f), ``J_p(e) <= J_p(f)`` and ``J_p'(f) <= J_p'(e)`` are
    closed.  Each test gathers the order table at the distinct values of
    the map only, which are found for every map at once, in steps of
    ``kernels.CHUNK_BYTES``; the bit matrices take ``n^2 / 8`` bytes each.
    """
    E = cb.algebra
    n = E.size
    leq = E.leq_table
    t = cb.class_table()
    rows, cls, ncomp = t.pc, t.cls, ~cb.pcompat()
    u, m = rows.shape
    both = (rows[:, None, :] & rows[None, :, :]).reshape(-1, m)  # PC({e, f})
    p_ef = (both & ~(both @ ncomp)).reshape(u, u, m)  # P(e, f)
    step = max(1, kernels.CHUNK_BYTES // n)
    J = cb.map_stack()
    seen = np.zeros(J.shape, dtype=bool)  # seen[k, v]: J at P[k] takes the value v
    seen[np.arange(m)[:, None], J] = True

    def order_rows(table, k):
        """Row e holds the bits ``table[j[e], j[f]]`` over f for the map
        ``j = J[k]``, gathered at its distinct values only."""
        values = np.flatnonzero(seen[k])
        out = np.empty((values.size, (n + 7) // 8), dtype=np.uint8)
        for i in range(0, values.size, step):
            out[i:i + step] = np.packbits(table[values[i:i + step]][:, J[k]], axis=1)
        return out[(np.cumsum(seen[k]) - 1)[J[k]]]

    open_pairs = np.packbits(t.commuting[:, cls], axis=1)[cls]
    for k, k_ortho in enumerate(cb.ortho_rows()):
        if not open_pairs.any():
            return None
        # p in P(e, f), J_p(e) <= J_p(f) and J_p'(f) <= J_p'(e)
        open_pairs &= ~(np.packbits(p_ef[:, cls, k], axis=1)[cls] & order_rows(
            leq, k) & order_rows(leq.T, k_ortho))
    bits = np.unpackbits(open_pairs, axis=1, count=n).ravel()
    i = int(np.argmax(bits))
    return (i // n, i % n) if bits[i] else None


def _mv_violation(E: FiniteAlgebra, elems: np.ndarray, exact: bool = True):
    """A witness that ``elems`` is not an MV effect algebra inside E, or
    None: meets and joins exist in E and stay in ``elems``, and the MV
    identity (a v b) - a = b - (a ^ b) holds, on every pair of ``elems``,
    or, unless ``exact``, on the seeded pairs of ``core._draws``: the first
    failing law, in this order, at its first pair in row-major order (in
    the order drawn).

    The Riesz decomposition property needs no check of its own: a
    lattice-ordered effect algebra in which (a v b) - a = b - (a ^ b) holds
    for all a, b is an MV-effect algebra, and every MV-effect algebra has
    the Riesz decomposition property (Dvurecenskij and Pulmannova, *New
    Trends in Quantum Structures*, Kluwer 2000, ch. 1).
    """
    ortho = E.ortho_all()
    first = None  # (law, place, witness) of the first failing law past the meets
    for xs, ys, place in _mv_pairs(elems.size, exact):
        a, b = elems[xs], elems[ys]
        meets = E.meet_pairs(a, b)
        if (meets < 0).any():  # mirrors follow their pairs: this one is first row-major
            i = int(np.argmax(meets < 0))
            return "meet-missing", E.label(int(a[i])), E.label(int(b[i]))
        joins = E.meet_pairs(ortho[a], ortho[b])
        if (joins < 0).any():
            here = (1, 0, ("join-missing",))
        elif not np.isin(np.concatenate([meets, ortho[joins]]), elems).all():
            here = (2, 0, ("not-closed",))
        else:
            bad = np.flatnonzero(E.ominus_pairs(ortho[joins], a) != E.ominus_pairs(b, meets))
            if not bad.size:
                continue
            i = bad[np.argmin(place[bad])]
            here = (3, int(place[i]), ("mv-identity", E.label(int(a[i])), E.label(int(b[i]))))
        first = min(first or here, here)
    return first and first[2]


def _mv_pairs(k: int, exact: bool):
    """Runs ``(xs, ys, place)`` of pairs of positions in a C-block of ``k``
    elements.  If ``exact``, about ``kernels.CHUNK_BYTES`` at a time: the
    pairs ``xs <= ys`` of a run of rows and their mirrors, at their
    row-major places.  Else one run of seeded pairs, at their places as
    drawn."""
    if not exact:
        xs, ys = core._draws(0, k, k)
        yield xs, ys, np.arange(xs.size)
        return
    step = max(1, kernels.CHUNK_BYTES // (256 * k))  # rows; ~128 bytes per pair and mirror
    for start in range(0, k, step):
        xs, ys = np.nonzero(np.arange(k) >= np.arange(start, min(start + step, k))[:, None])
        xs, ys = np.concatenate([xs + start, ys]), np.concatenate([ys, xs + start])
        yield xs, ys, xs * k + ys


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
    pl, vals = _p_le(cb, a, b, diffs=True)
    if pl.size == 0:
        raise ComparabilityMissing(
            f"no separating projection for ({E.label(a)}, {E.label(b)})")
    if (vals != vals[0]).any():
        raise InternalConsistencyError(
            f"positive part depends on the projection: {np.unique(vals).tolist()}")
    return int(vals[0])


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
        raise MalformedInput("split needs c <= q")
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
    return SplitResult(u0=u0, u1=u1, c0=c0, c1=c1)


# ---------------------------------------------------------------------------
# interval restriction


def restrict(cb: CompressionBase, q: int, validate: bool = True):
    """The interval algebra [0, q] with the inherited compression base.

    Returns (algebra, base); the new carrier re-indexes elements below q,
    and ``algebra.parent_index`` maps new indices back to the original.
    """
    E = cb.algebra
    if q not in cb.p_set:
        raise MalformedInput("restriction requires a projection")
    idx = np.flatnonzero(E.lower_bounds(q))
    # position in [0, q] of each element, -1 outside it; where[-1] reads the
    # -1 of an undefined sum.  q is principal: sums below q stay below q.
    where = np.full(E.size + 1, -1, dtype=np.int64)
    where[idx] = np.arange(idx.size)
    sub = TableAlgebra(where[E.sum_pairs(idx[:, None], idx)], where[E.zero], where[q],
                       labels=[E.label(int(g)) for g in idx])
    sub.parent_index = idx
    ps = cb.p_array[E.leq_pairs(cb.p_array, q)]  # the projections below q
    maps = dict(zip(where[ps].tolist(), where[cb.map_values(ps, idx)]))
    sub_cb = CompressionBase(sub, maps.keys(), maps)
    if validate:
        rep = validate_base(sub, sub_cb)
        if not rep.passed:
            raise InternalConsistencyError(
                f"inherited base on [0, {E.label(q)}] is invalid:\n{rep.summary()}")
    return sub, sub_cb
