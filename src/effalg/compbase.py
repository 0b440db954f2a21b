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

from . import core, kernels
from .core import (
    Check,
    FiniteAlgebra,
    Report,
    mackey_compatible,
    product_report,
    remembered,
    sharp_elements,
)
from .errors import (
    DomainMismatch,
    IncompleteBase,
    InternalConsistencyError,
    NoCover,
    NotEnumerable,
)


class CompressionBase:
    """Finite compression base: projections plus their map tables.

    A base without ``factors`` takes one ``(n,)`` table per projection in
    ``maps`` and stacks them when it is built into one read-only int32
    ``(|P|, n)`` array, whose rows ``map_table`` returns; its carrier has
    at most ``core.DENSE_LIMIT`` elements.

    ``factors`` holds the two factor bases of a product base, whose
    projections are the pairs ``P1 x P2`` and whose maps are
    ``J_(p1, p2) = J_p1 x J_p2`` (``product_base``).  Such a base keeps
    no maps: ``map_table``, ``_map_at`` and ``apply`` read them through
    the factor bases, ``map_values`` and ``map_pairs`` through
    ``_map_at``, ``map_stack`` composes the factors' stacks for the
    reference scans, and ``validate_base`` validates it through them.
    """

    enumerable = True

    def __init__(self, algebra: FiniteAlgebra, projections: Iterable[int],
                 maps: Optional[Dict] = None, factors: Optional[tuple] = None):
        self.algebra = algebra
        self.factors = factors
        self._reports = {}  # "base": validate_base; "b-comparability"
        self.projections = sorted(int(p) for p in projections)
        self.p_array = np.array(self.projections, dtype=np.int64)
        self.p_set = frozenset(self.projections)
        self.p_pos = {p: i for i, p in enumerate(self.projections)}
        if factors is None:
            self._stack = np.empty((len(self.projections), algebra.size), dtype=np.int32)
            for i, p in enumerate(self.projections):
                self._stack[i] = maps[p]
            self._stack.flags.writeable = False
        else:
            self._stack = None
        self._pcompat = None
        self._pc_matrix = None
        self._classes = None
        self._elem_leq_proj = None
        self._cover_vec = None
        self._pcp = None  # has_pcp(), read off cover_vec once
        self._spectral = None  # is_spectral(), decided once
        self._ortho_rows = None
        self._p_meet = None
        # spectral: per element, the layers of its splitting tree; no factors
        self._trees = {} if factors is None else None
        # built on first use: cover_vec as a list, the leaf_layout of a product
        # base, and per projection the commutant_row and doubling_rows
        self._covers = self._layout = self._commutant_rows = self._doubling = None

    @property
    def leaf_layout(self) -> tuple:
        """The bases without factors below this one, left to right, as
        ``(leaf, size, stride)``: x's coordinate there is x // stride % size.
        A base without factors is its own one leaf, in a tuple made on each
        read so that the base holds no reference to itself."""
        if self.factors is None:
            return ((self, self.algebra.size, 1),)
        if self._layout is None:
            left, right = self.factors
            r = right.algebra.size
            self._layout = tuple((leaf, size, stride * r) for leaf, size, stride
                                 in left.leaf_layout) + right.leaf_layout
        return self._layout

    # -- maps ----------------------------------------------------------------
    # A product base splits a projection, and an element, into the indices
    # of its factors (``(x1, x2)`` at ``x1 * n2 + x2``, as on the carrier),
    # asks each factor base and pairs the answers.  P is ``P1 x P2`` in the
    # same layout, so the position of ``(p1, p2)`` in P is
    # ``i1 * |P2| + i2``.

    def map_stack(self) -> np.ndarray:
        """int32 ``(|P|, n)`` table whose row ``i`` is J at ``projections[i]``.

        A base without factors returns its stack; a product base composes
        its factors' stacks afresh on each call (``core._product_table``),
        for the whole-family scans that read it.
        """
        if self.factors is None:
            return self._stack
        left, right = self.factors
        return core._product_table(left.map_stack(), right.map_stack(), right.algebra.size)

    def map_table(self, p: int) -> np.ndarray:
        """J_p as an int32 ``(n,)`` table; KeyError unless p is in P."""
        if self.factors is None:
            return self._stack[self.p_pos[p]]
        left, right = self.factors
        r = right.algebra.size
        p1, p2 = divmod(p, r)
        return (left.map_table(p1)[:, None] * r + right.map_table(p2)).ravel()

    def map_values(self, ps, xs) -> np.ndarray:
        """int32 ``(len(ps), len(xs))`` table of J_p(x), p in ``ps``, x in
        ``xs``; KeyError unless every p is in P."""
        ps = np.asarray(ps, dtype=np.int64)
        rows = np.searchsorted(self.p_array, ps)
        top = self.p_array.size - 1
        if ps.size and (top < 0 or (self.p_array[np.minimum(rows, top)] != ps).any()):
            raise KeyError(f"not all of {ps.tolist()} are projections")
        return self._map_at(rows[:, None], xs)

    def map_pairs(self, op: str, rows, xs, ys) -> np.ndarray:
        """``E.op(J_p(x), J_p(y))`` entrywise, for p at the positions ``rows``
        of P and x, y in the equally long ``xs`` and ``ys``, with ``op`` one
        of ``sum_pairs``, ``leq_pairs`` and ``ominus_pairs``: the carrier's
        pair operation on two gathers of map values."""
        return getattr(self.algebra, op)(self._map_at(rows, xs), self._map_at(rows, ys))

    def _map_at(self, rows, xs) -> np.ndarray:
        """J_p(x) for p at the positions ``rows`` of P and x in ``xs``, which
        broadcast against each other; unchecked."""
        if self.factors is None:
            return self._stack[rows, xs]
        left, right = self.factors
        r = right.algebra.size
        i1, i2 = np.divmod(rows, len(right.projections))
        x1, x2 = np.divmod(xs, r)
        return left._map_at(i1, x1) * r + right._map_at(i2, x2)

    def apply(self, p: int, a: int) -> int:
        if self.factors is None:
            return self._stack.item(self.p_pos[p], a)
        left, right = self.factors
        r = right.algebra.size
        return left.apply(p // r, a // r) * r + right.apply(p % r, a % r)

    def p_ortho(self, p: int) -> int:
        """p', for p in P: ``IncompleteBase`` (from ``ortho_rows``) where P
        misses it, as no map J_p' exists then."""
        q = self.algebra.ortho(p)
        if q not in self.p_set:
            self.ortho_rows()
        return q

    def is_projection(self, p) -> bool:
        """Is p an index in P?"""
        return isinstance(p, (int, np.integer)) and int(p) in self.p_set

    def ortho_rows(self) -> np.ndarray:
        """The position in P of the orthosupplement of each member, in the
        order of ``projections``; IncompleteBase unless P is closed under '."""
        if self._ortho_rows is None:
            self._require_projections(closed=True)
            self._ortho_rows = np.searchsorted(self.p_array, self.algebra.ortho_all()[self.p_array])
        return self._ortho_rows

    # -- commutants ------------------------------------------------------------

    def commutant_mask(self, p: int) -> np.ndarray:
        """a in C(p) iff a = J_p(a) + J_p'(a)."""
        E = self.algebra
        jp = self.map_table(p)
        jq = self.map_table(self.p_ortho(p))
        return E.sum_pairs(jp, jq) == np.arange(E.size)

    def in_commutant(self, a: int, p: int) -> bool:
        """a = J_p(a) + J_p'(a), through ``apply`` and the carrier's sum."""
        E = self.algebra
        s = E.sum(self.apply(p, a), self.apply(self.p_ortho(p), a))
        return s is not None and s == a

    def commutant_row(self, p: int) -> list:
        """``commutant_mask(p)`` as a list, built once per p and kept, for
        scalar reads on a leaf base (``spectral.verify_resolution``)."""
        if self._commutant_rows is None:
            self._commutant_rows = {}
        row = self._commutant_rows.get(p)
        if row is None:
            row = self._commutant_rows[p] = self.commutant_mask(p).tolist()
        return row

    def doubling_rows(self, u: int) -> tuple:
        """``(J_u, f_0, f_1, inside)`` as lists over the carrier, built once
        per u from the pair operations and kept, for the walks of clause (iv)
        on a leaf base (``spectral._pair_walk``).  ``f_bit(x)`` is
        ``spectral._fw_step`` inside [0, u], -1 where that is None, and
        ``inside`` whether x <= u; the last three have an entry appended
        that the dead value -1 reads (-1, False)."""
        if self._doubling is None:
            self._doubling = {}
        rows = self._doubling.get(u)
        if rows is None:
            E, xs = self.algebra, np.arange(self.algebra.size)
            comp = E.ominus_pairs(u, xs)  # u - x, -1 unless x <= u
            c = np.maximum(comp, 0)
            double = E.sum_pairs(c, c)
            f0 = np.where((comp >= 0) & E.leq_pairs(xs, c), E.sum_pairs(xs, xs), -1)
            f1 = np.where((comp >= 0) & E.leq_pairs(c, xs) & (double >= 0),
                          E.ominus_pairs(u, np.maximum(double, 0)), -1)
            rows = self._doubling[u] = (self.map_table(u).tolist(),
                                        *(np.maximum(f, -1).tolist() + [-1] for f in (f0, f1)),
                                        E.leq_pairs(xs, u).tolist() + [False])
        return rows

    def _ortho_gap(self) -> Optional[int]:
        """The position in P of the first member whose orthosupplement is
        not in P (or undefined, -1), or None: P's closure test under '."""
        ortho = self.algebra.ortho_all()  # a loop: cheaper than a vector test for a leaf's small P
        return next((k for k, p in enumerate(self.projections) if ortho.item(p) not in self.p_set),
                    None)

    def _require_projections(self, closed=False):
        """Raise IncompleteBase if P is empty or, with ``closed``, if it
        misses the orthosupplement of a member (an unchecked base can)."""
        E = self.algebra
        if not self.projections:
            raise IncompleteBase(f"the compression base on {E.kind} has no projections")
        k = self._ortho_gap() if closed else None
        if k is not None:
            p, q = self.projections[k], E.ortho(self.projections[k])
            raise IncompleteBase(
                f"the member {E.label(p)} of the compression base on {E.kind} has no "
                f"orthosupplement" if q < 0 else
                f"the compression base on {E.kind} has no map at {E.label(q)}")

    def pc_matrix(self) -> np.ndarray:
        """Boolean (n, |P|) table of commutant membership."""
        if self._pc_matrix is None:
            self._require_projections(closed=True)
            cols = [self.commutant_mask(p) for p in self.projections]
            self._pc_matrix = np.stack(cols, axis=1)
        return self._pc_matrix

    def pcompat(self) -> np.ndarray:
        """(|P|, |P|) Mackey compatibility, via q in C(p).  On a product
        base it is the Kronecker product of the factors' tables, as
        ``(q1, q2)`` lies in ``C((p1, p2))`` iff ``q1`` lies in ``C(p1)`` and
        ``q2`` in ``C(p2)``."""
        if self._pcompat is None and self.factors is not None:
            left, right = self.factors
            self._pcompat = core._product_table(left.pcompat(), right.pcompat())
        if self._pcompat is None:
            P = np.array(self.projections)
            self._pcompat = self.pc_matrix()[P, :]
            # symmetry is a theorem for valid bases; keep the conjunction so
            # diagnostics on broken bases stay order-independent
            self._pcompat = self._pcompat & self._pcompat.T
        return self._pcompat

    def class_table(self) -> "ClassTable":
        """The elements grouped by their set PC(a), which decides the
        b-property, commuting and P(e, f); built once and kept.  On a
        product base it is composed from the factors' tables
        (``_composed_classes``) and reads no product-sized ``pc_matrix``."""
        if self._classes is None:
            self._classes = (_pc_classes(self) if self.factors is None
                             else _composed_classes(self))
        return self._classes

    def pc_set(self, a: int) -> np.ndarray:
        """PC(a): projections whose compressions decompose a."""
        t = self.class_table()
        return self.p_array[t.pc[t.cls[a]]]

    def bicommutant_set(self, a: int) -> np.ndarray:
        """P(a) = PC(PC(a) u {a}): projections in PC(a) compatible with all of it."""
        t = self.class_table()
        return self.p_array[t.bic[t.cls[a]]]

    def bicommutant_test(self, a: int):
        """Membership of P(a), or zero, as a predicate on projections."""
        members = set(int(p) for p in self.bicommutant_set(a))
        return lambda p: int(p) in members or p == self.algebra.zero

    def bicommutant_mask_all(self) -> np.ndarray:
        """(n, |P|) membership table of P(a) for every element."""
        t = self.class_table()
        return t.bic[t.cls]

    # -- covers ------------------------------------------------------------------

    def elem_leq_proj(self) -> np.ndarray:
        if self._elem_leq_proj is None:
            self._require_projections()
            E = self.algebra
            self._elem_leq_proj = E.leq_pairs(np.arange(E.size)[:, None], self.p_array)
        return self._elem_leq_proj

    def proj_leq(self) -> np.ndarray:
        return self.elem_leq_proj()[np.array(self.projections), :]

    def cover_vec(self) -> np.ndarray:
        """Least projection above each element; -1 where none exists.  On a
        product base it is the pair of the factors' covers, as the
        projections above (a1, a2) are the pairs of those above a1 and a2."""
        if self._cover_vec is None and self.factors is not None:
            left, right = self.factors
            ia, ib = self.algebra.split_index(np.arange(self.algebra.size))
            c1, c2 = left.cover_vec()[ia], right.cover_vec()[ib]
            self._cover_vec = np.where((c1 < 0) | (c2 < 0), -1, c1 * right.algebra.size + c2)
        if self._cover_vec is None:
            cand = self.elem_leq_proj()
            strictly_above = (~self.proj_leq()).astype(np.float32)  # exact below 2^24
            misses = cand.astype(np.float32) @ strictly_above.T  # candidates not above P[i]
            ok = cand & (misses == 0)
            P = np.array(self.projections)
            have = ok.any(axis=1)
            self._cover_vec = np.where(have, P[np.argmax(ok, axis=1)], -1)
        return self._cover_vec

    def cover(self, a: int) -> int:
        """The least projection above a (NoCover where none), read from a list."""
        if self._covers is None:
            self._covers = self.cover_vec().tolist()
        c = self._covers[a]
        if c < 0:
            raise NoCover(self.algebra.label(a))
        return c

    def has_pcp(self) -> bool:
        if self._pcp is None:
            self._pcp = bool((self.cover_vec() >= 0).all())
        return self._pcp

    # -- lattice structure of P ----------------------------------------------------

    def p_meet_table(self) -> np.ndarray:
        """Pairwise meets inside P (as a sub-poset); -1 where none:
        ``core.meet_search`` on the order of P (``proj_leq``) over each
        unordered pair of positions once, in the bands of
        ``core.meet_table``, which map the positions found to members of P
        band by band.  On a product base
        they are the pairs of the factors' meets, -1 where either is
        missing: P is ``P1 x P2`` in the product order, so the common lower
        bounds of two pairs are the pairs of common lower bounds, and they
        have a greatest iff both factor sets do."""
        if self._p_meet is None and self.factors is not None:
            self._require_projections()
            left, right = self.factors
            self._p_meet = core._product_table(left.p_meet_table(), right.p_meet_table(),
                                               right.algebra.size)
        if self._p_meet is None:
            below = self.proj_leq()
            bits = core.order_bits(below)

            def meets(i, j):
                pos = core.meet_search(below, bits, i, j)
                return np.where(pos < 0, -1, self.p_array[pos])
            self._p_meet = core.meet_table(meets, np.arange(below.shape[0]))
        return self._p_meet

    def meet_proj(self, p: int, q: int) -> Optional[int]:
        """The meet of p and q in P, or None: one entry of ``p_meet_table``."""
        v = self.p_meet_table().item(self.p_pos[p], self.p_pos[q])
        return None if v < 0 else v

    def is_spectral(self) -> bool:
        """Projection covers plus b-comparability, whose report the base
        keeps (``comparability.check_b_comparability``); the base keeps the
        verdict too."""
        if self._spectral is None:
            from . import comparability

            self._spectral = comparability.check_b_comparability(self).passed and self.has_pcp()
        return self._spectral


@dataclass(frozen=True)
class ClassTable:
    """The elements of a base grouped by their set PC(a).

    ``cls[a]`` is the class of element ``a``.  Per class, over positions in
    P: ``pc`` is PC(a), ``bic`` the bicommutant P(a) (the members of PC(a)
    compatible with all of it) and ``compat`` the projections compatible
    with every member of P(a); ``b`` says that a has the b-property
    (``compat`` equals ``pc``).  ``commuting[c, d]`` says that P(c) and P(d)
    are pairwise compatible.  All of these depend on PC(a) only, so the
    table holds ``u x |P|`` bits per row kind and ``u x u`` commuting bits for
    ``u`` classes; every element of a central base has PC(a) = P, so
    ``u = 1`` there.
    """

    cls: np.ndarray
    pc: np.ndarray
    bic: np.ndarray
    compat: np.ndarray
    b: np.ndarray
    commuting: np.ndarray


def _class_table(cls, pc, bic, compat) -> ClassTable:
    """The table of these class rows, with ``b`` and ``commuting`` read
    off them."""
    return ClassTable(cls, pc, bic, compat, (compat == pc).all(axis=1),
                      ~((~compat) @ bic.T))


def _pc_classes(cb: CompressionBase) -> ClassTable:
    """The class table from the distinct rows of ``cb.pc_matrix()``."""
    rows, cls = np.unique(cb.pc_matrix(), axis=0, return_inverse=True)
    ncomp = ~cb.pcompat()
    bic = rows & ~(rows @ ncomp)
    return _class_table(cls.ravel(), rows, bic, ~(bic @ ncomp))


def _composed_classes(cb: CompressionBase) -> ClassTable:
    """The class table of a product base from its factors' tables.

    Element ``(a1, a2)`` gets class ``(c1, c2)`` and projection ``(p1, p2)``
    position ``(i1, i2)``, both in the product's row-major layout.
    ``PC(a) = PC(a1) x PC(a2)`` and compatibility is componentwise
    (``pcompat``), so ``P(a) = P(a1) x P(a2)``, and a projection is
    compatible with all of a nonempty P(a) iff its components are
    compatible with all of P(a1) and of P(a2); with every projection when
    P(a) is empty.  Distinct classes may share their rows where a factor
    row is empty, which only a broken base allows.
    """
    left, right = (f.class_table() for f in cb.factors)
    ia, ib = cb.algebra.split_index(np.arange(cb.algebra.size))
    bic = core._product_table(left.bic, right.bic)
    compat = core._product_table(left.compat, right.compat) | ~bic.any(axis=1)[:, None]
    return _class_table(left.cls[ia] * right.pc.shape[0] + right.cls[ib],
                        core._product_table(left.pc, right.pc), bic, compat)


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


def classify_map(E: FiniteAlgebra, J) -> MapClassification:
    """Decide whether a function table is additive / a retraction / a compression.

    The map is checked on the pairs and elements of ``MapSample(E)``.
    """
    return MapSample(E).classify(J)


class MapSample:
    """The pairs and elements on which ``maps`` maps of one carrier are
    classified; a base draws them once for all of its maps.

    Every defined pair of a dense carrier when ``maps`` times their count
    fits ``core.TRIPLE_BUDGET``, else ``core.SAMPLE_SIZE`` seeded pairs,
    with ``over`` the sampled row's detail (also on a carrier past
    ``core.DENSE_LIMIT``, which only a product can be); past ``4 *
    core.SAMPLE_SIZE`` elements, a seeded sample of elements plus the
    boundary ones.  Each order test is one ``leq_pairs`` call over them.  A
    map whose focus has no p' is no compression, as its kernel should be
    the empty ``[0, p']``."""

    def __init__(self, E: FiniteAlgebra, maps: int = 1):
        self.E = E
        n = E.size
        self.over = (core._over_budget("m x defined pairs", maps * len(E.defined_pairs))
                     if E.dense else core._no_tables(n))
        if self.over:
            self.xs, self.ys = core._draws(0, n, n)
            self.ss = E.sum_pairs(self.xs, self.ys)
            self.defined = self.ss >= 0
        if n <= 4 * core.SAMPLE_SIZE:
            self.idx, self.drawn = np.arange(n), False
        else:
            self.idx = np.unique(np.concatenate([core._draws(0, n)[0], [E.zero, E.one]]))
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
        q = E.ortho(focus)  # -1: no p'
        idx = np.union1d(self.idx, [focus, q] if q >= 0 else [focus]) if self.drawn else self.idx
        lower = idx[E.leq_pairs(idx, focus)]
        fixed = J[lower] == lower
        if not fixed.all():
            return MapClassification("not_additive", None, int(lower[np.argmin(fixed)]))

        should = E.leq_pairs(idx, q) if q >= 0 else False  # the kernel is [0, p'], empty without p'
        bad = (J[idx] == E.zero) != should
        if q >= 0 and not bad.any():
            return MapClassification("compression", focus)
        return MapClassification("retraction", focus,
                                 int(idx[np.argmax(bad)]) if bad.any() else None)

    def _additivity_violation(self, J):
        E = self.E
        if not self.over:
            return kernels.map_additivity_violation(E.sum_table, J, E.defined_pairs)
        xs, ys, ok = self.xs, self.ys, self.defined
        lhs = np.where(ok, J[np.maximum(self.ss, 0)], -1)
        rhs = np.where(ok, E.sum_pairs(J[xs], J[ys]), -1)
        bad = np.flatnonzero(ok & (lhs != rhs))
        return (int(xs[bad[0]]), int(ys[bad[0]])) if bad.size else None


# ---------------------------------------------------------------------------
# base validation


def validate_base(E: FiniteAlgebra, cb: CompressionBase) -> Report:
    """Verify the compression-base laws.

    Checks: P is a sub-effect algebra, every map is a compression focused
    at its index (C1), composites on Mackey-compatible pairs stay in the
    family (C2), P is normal, supplements pair up, and the triple law
    J_{p+q} o J_{q+r} = J_q holds on summable triples.  ``cb`` keeps its
    one report, under ``"base"``.

    A base with ``factors`` (built by ``product_base``) is not scanned:
    the factor bases are validated and the rows are ``structural``
    (``core.product_report``).  That covers the bases of products and of
    grids ``{0..k}^d`` with ``d > 1``, Boolean algebras included: a grid is
    the direct product of the chain of its top coordinate and the grid of
    the others, in the same index layout, with tables built by
    ``core._product_table``, and its base is the product of the chain's
    central base and the base of the rest, so the argument below applies
    as written.  Its projections are the pairs
    ``P = P1 x P2`` and its maps ``J_(p1, p2) = J_p1 x J_p2``; sums,
    differences and the order are componentwise, so each law holds for
    the product iff it holds in both factors.  A factor witness lifts by
    pairing projections with the other factor's one (``J_1`` is the
    identity) and elements with its zero, except where a law says else:

    * P-sub-effect-algebra: ``0`` and ``1`` lie in ``P1 x P2`` iff they lie
      in both; ``(p1, p2)' = (p1', p2')`` and a defined sum of pairs is the
      pair of the sums, so P is closed iff both are.  A sum ``s = p + q``
      outside P1 lifts with zero, as ``(p, 0) + (q, 0)``.
    * C1: ``J_p1 x J_p2`` is additive iff both maps are, as sums are
      componentwise; it sends 1 to ``(J_p1(1), J_p2(1))``, fixes
      ``[0, p1] x [0, p2]`` pointwise and has kernel ``ker J_p1 x
      ker J_p2``, so it is a compression focused at ``(p1, p2)`` iff both
      are compressions focused at ``p1`` and ``p2``.
    * supplement pairing: the kernel ``ker J_p1 x ker J_p2`` equals the
      range ``[0, p1'] x [0, p2']`` of ``J_(p1, p2)'`` iff the factor
      kernels equal their ranges (all of them contain 0).
    * C2: Mackey compatibility is componentwise, as a witness
      ``p = a + c``, ``q = b + c`` with ``a + b + c`` defined is a pair of
      factor witnesses; the composite ``J_p o J_q`` is the pair of the
      factor composites, in the family iff both are.  ``1`` is compatible
      with itself, so ``(p, 1)`` and ``(q, 1)`` lift a factor pair.
    * P-normal: ``d`` lies outside P iff a component lies outside its
      factor's P, and ``d <= p, q`` with ``(p - d) + q`` defined holds iff
      it holds componentwise.  All three of ``(p, q, d)`` lift with one:
      ``(p - d, 0) + (q, 1)`` is defined.
    * triple law: ``p, q, r`` in P are summable iff they are componentwise,
      and ``J_{p+q} o J_{q+r} = J_q`` holds iff it does in each component.
      ``q`` lifts with one and ``p``, ``r`` with zero, so the witness
      ``(p + q, q, q + r, r)`` lifts to one, one, one and zero.

    Where a factor's report stops early (a failing C1), the product's
    stops at the same row.
    """
    return _base(E, cb)


def _base(E: FiniteAlgebra, cb: CompressionBase) -> Report:
    """``validate_base``, kept on ``cb``."""
    def make():
        if cb.factors is None:
            return _scan_base(E, cb)
        left, right = cb.factors
        return product_report(
            f"compression base on {E.kind} (|P|={len(cb.projections)})",
            _base(left.algebra, left), _base(right.algebra, right),
            "product base J_(p1,p2) = J_p1 x J_p2",
            lambda name, side, w: _lift_base_witness(E, name, side, w))
    return remembered(cb, "base", make)


def _lift_base_witness(E, name: str, side: int, w):
    """A factor's witness for the law ``name`` as a product witness; see
    ``validate_base`` for why each part lifts with zero or with one."""
    def elem(x):
        return E.embed(side, x)

    def proj(x):
        return E.embed(side, x, at_one=True)

    if name == "P-sub-effect-algebra":
        what, x = w
        return what, proj(x) if what == "ortho" else elem(x)
    if name == "C1-compressions":
        p, kind, inner = w
        if isinstance(inner, tuple):
            inner = tuple(elem(x) for x in inner)
        elif inner is not None:
            inner = elem(inner)
        return proj(p), kind, inner
    if name == "supplement-pairing":
        return proj(w)
    if name == "C2-composition":
        p, q, kind, focus = w
        return proj(p), proj(q), kind, proj(focus)
    if name == "P-normal":
        return tuple(proj(x) for x in w)
    spq, q, sqr, r = w  # triple-law
    return proj(spq), proj(q), proj(sqr), elem(r)


def _scan_base(E: FiniteAlgebra, cb: CompressionBase) -> Report:
    """The base-law scans over the whole carrier and family; ``validate_base``
    runs them on every base without ``factors``, and the tests take them as
    the reference for products.

    C1 classifies each map against one ``MapSample`` of the carrier; C2
    and the triple law compare composites of the stacked map tables in
    chunked gathers (``kernels.composition_violation``), on the pairs of P
    that ``kernels.mackey_matrix`` finds compatible, or when sampled on the
    128 drawn pairs that ``core.mackey_compatible`` does.  Each row but the
    exact supplement pairing counts the work of its exact scan (``m =
    |P|``): C1 ``m`` times the defined pairs, C2 ``m^2 n``, P-normal ``m``
    times the rows ``(d, p)`` with ``d <= p`` outside P, the triple law
    ``n`` times the summable triples.  Past ``core.TRIPLE_BUDGET``, or on
    a carrier past ``core.DENSE_LIMIT``, a row runs on seeded draws and is
    ``sampled``, with a detail that says why.  The library builds every base
    past the limit with factors, so only direct calls (criterion 01's on
    large products) and bases built by hand read the limit's detail.
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
    pq = E.sum_pairs(pa[:, None], pa)  # sums of pairs of P, -1 where undefined

    def add(name, passed, witness, over, detail=""):
        """A row, ``sampled`` with ``over`` for its detail unless that is None."""
        rep.add(name, passed, "sampled" if over else "full", witness, over or detail)

    # sub-effect algebra: contains 1, closed under ' and partial sums
    bounds, gap = E.one in cb.p_set and E.zero in cb.p_set, cb._ortho_gap()
    ok = bounds and gap is None
    closure_w = ("ortho", P[gap]) if bounds and gap is not None else None
    if ok:
        sums = pq[pq >= 0]
        outside = np.flatnonzero(~in_p[sums])
        if outside.size:
            ok, closure_w = False, ("sum", int(sums[outside[0]]))
    rep.add("P-sub-effect-algebra", ok, witness=closure_w)
    if not m:  # nothing below has a map to check
        return rep

    # (C1): each map is a compression with the right focus
    c1_ok, c1_w = True, None
    sample = MapSample(E, m)
    for p in P:
        cls = sample.classify(cb.map_table(p))
        if not (cls.is_compression and cls.focus == p):
            c1_ok, c1_w = False, (p, cls.kind, cls.witness)
            break
    add("C1-compressions", c1_ok, c1_w, sample.over, f"{m} of {m} maps checked")
    if not c1_ok:
        return rep

    # supplements: kernel of J_p is the range [0, p'] of J_p' (empty without p')
    supp_w = None
    for p in P:
        q = E.ortho(p)
        if q < 0 or not ((cb.map_table(p) == E.zero) == E.lower_bounds(q)).all():
            supp_w = p
            break
    rep.add("supplement-pairing", supp_w is None, witness=supp_w)

    # (C2): composite of a Mackey-compatible pair is in the family
    c2_w = None
    c2_over = core._over_budget("m^2 n", m * m * n) if E.dense else core._no_tables(n)
    cols = None
    if c2_over is None:
        compat = kernels.mackey_matrix(E.sum_table, E.ominus_table, E.leq_table, P)
        ii, jj = np.nonzero(compat)  # row-major: p-major order
    else:
        # made on this branch only, so that a full scan imports no numpy.random
        rng = np.random.default_rng(0)
        cols = rng.integers(0, n, size=min(n, 2000))
        drawn = list({(int(i), int(j))
                      for i, j in zip(rng.integers(0, m, 128), rng.integers(0, m, 128))})
        pairs = np.array([ij for ij in drawn if mackey_compatible(E, P[ij[0]], P[ij[1]])[0]],
                         dtype=np.int64).reshape(-1, 2)
        ii, jj = pairs[:, 0], pairs[:, 1]
    stack = cb.map_stack()
    focus = stack[ii, pa[jj]]  # candidate focus J_p(J_q(1)) = J_p(q)
    t = kernels.composition_violation(stack, ii, jj, ppos[focus], cols)
    if t is not None:
        kind = "focus" if ppos[focus[t]] < 0 else "table"
        c2_w = (P[ii[t]], P[jj[t]], kind, int(focus[t]))
    add("C2-composition", c2_w is None, c2_w, c2_over)

    # normality of P
    if E.dense:
        rows = np.count_nonzero(E.leq_table[:, pa] & ~in_p[:, None])
        over = core._over_budget("m x (d, p) rows", m * rows)
    else:
        over = core._no_tables(n)
    if over is None:
        w = kernels.normality_violation(E.sum_table, E.ominus_table, E.leq_table, pa, in_p)
    else:
        ds, ps, qs = core._draws(1, n, m, m)
        ps, qs = pa[ps], pa[qs]
        w = None
        good = E.leq_pairs(ds, ps) & E.leq_pairs(ds, qs) & ~in_p[ds]
        es = np.where(good, E.ominus_pairs(ps, np.where(good, ds, 0)), -1)
        viol = good & (np.where(good, E.sum_pairs(np.maximum(es, 0), qs), -1) >= 0)
        if viol.any():
            i = int(np.argmax(viol))
            w = (int(ps[i]), int(qs[i]), int(ds[i]))
    add("P-normal", w is None, w, over)

    # triple law on summable triples from P: the composite fixes exactly
    # the shared summand, J_{p+q} o J_{q+r} = J_q.  A triple is
    # (p+q, q, q+r, r); a sum outside P has no map and fails the law.
    # Sampled: the triples of 128 seeded summable pairs, on C2's columns
    # (all of them when C2 is exact).
    ii, jj = np.nonzero(pq >= 0)
    if E.dense:
        triples = _count_triples(E.sum_table, pa, pq, ii, jj)
        over = core._over_budget("n x summable triples", n * triples)
    else:
        over = core._no_tables(n)
    if over is not None:
        keep = np.sort(np.random.default_rng(3).choice(ii.size, min(ii.size, 128), replace=False))
        ii, jj = ii[keep], jj[keep]
    tl_w = None
    for i, j, k in _summable_triples(E, pa, pq, ii, jj):
        spq, q, sqr = pq[i, j], pa[j], pq[j, k]
        t = kernels.composition_violation(stack, ppos[spq], ppos[sqr], ppos[q],
                                          None if over is None else cols)
        if t is not None:
            tl_w = (int(spq[t]), int(q[t]), int(sqr[t]), int(pa[k[t]]))
            break
    add("triple-law", tl_w is None, tl_w, over)
    return rep


def _count_triples(S, pa: np.ndarray, pq: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> int:
    """The number of summable triples of P, listed by ``_summable_triples``
    over the summable pairs ``(ii, jj)``, without listing them: pair (i, j)
    adds the popcount of the packed rows ``pa[j]`` and ``pa[i] + pa[j]`` of
    ``S[:, pa] >= 0``, whose common bits are the k of its triples."""
    rows = np.packbits(S[:, pa] >= 0, axis=1)
    step = max(1, kernels.CHUNK_BYTES // (2 * rows.shape[1]))  # pairs; two gathered rows each
    total = 0
    for start in range(0, ii.size, step):
        i, j = ii[start:start + step], jj[start:start + step]
        total += int(np.bitwise_count(rows[pa[j]] & rows[pq[i, j]]).sum())
    return total


def _summable_triples(E: FiniteAlgebra, pa: np.ndarray, pq: np.ndarray,
                      ii: np.ndarray, jj: np.ndarray):
    """Chunks ``(i, j, k)`` of positions in P with ``pa[i] + pa[j]``,
    ``pa[j] + pa[k]`` and ``(pa[i] + pa[j]) + pa[k]`` defined, for the
    summable pairs ``(ii, jj)`` in their order and then ascending k;
    ``pq`` holds the sums of pairs of P."""
    m = pa.size
    step = max(1, kernels.CHUNK_BYTES // (64 * m))  # (i, j) pairs; ~64 bytes per candidate
    for start in range(0, ii.size, step):
        i2 = np.repeat(ii[start:start + step], m)
        j2 = np.repeat(jj[start:start + step], m)
        k2 = np.tile(np.arange(m), min(step, ii.size - start))
        ok = pq[j2, k2] >= 0
        good = np.flatnonzero(ok & (E.sum_pairs(pq[i2, j2], pa[k2]) >= 0))
        yield i2[good], j2[good], k2[good]


# ---------------------------------------------------------------------------
# the central base


def central_base(E: FiniteAlgebra) -> CompressionBase:
    """The base of central projections, with U_p(a) = a ^ p.

    An element is central when it is sharp, it and its orthosupplement are
    principal, and every a splits as (a ^ p) + (a ^ p').  Each of these is
    componentwise in a direct product, and so is ``a ^ p``, so the central
    base of an algebra with ``factors`` is the product base of the factors'
    central bases; that covers grids, through their chains.  ``E`` keeps
    its central base, so all the grids of one chain share the chain's.
    """
    if E._central is None:
        E._central = _central_base(E)
    return E._central


def _central_base(E: FiniteAlgebra) -> CompressionBase:
    """``central_base``, built.  Without factors, one pass per test, each
    element tested once though p and p' are both sharp: principality, the
    meets with every element (``meet_pairs`` calls of 2048 pairs) and
    a = (a ^ p) + (a ^ p').  A sharp p has its p', so no -1 is read as an index."""
    if E.factors is not None:
        left, right = E.factors
        return product_base(E, central_base(left), central_base(right))
    n = E.size
    p = sharp_elements(E)
    q = E.ortho_all()[p]
    tested = np.zeros(n, dtype=bool)
    tested[p] = tested[q] = True
    principal = _principal(E, tested)
    p, q = p[principal[p] & principal[q]], q[principal[p] & principal[q]]
    tested[:] = False
    tested[p] = tested[q] = True
    elems, row = np.flatnonzero(tested), np.cumsum(tested) - 1  # row[x]: x's row in `meets`
    meets = np.empty((elems.size, n), dtype=np.int32)
    step = max(1, kernels.CHUNK_BYTES // 4096 // n)  # elements; calls of 2048 pairs or one element
    for i in range(0, elems.size, step):
        meets[i:i + step] = E.meet_pairs(elems[i:i + step, None], np.arange(n))
    whole = (meets >= 0).all(axis=1)  # a ^ x exists for every a
    centre = []
    for i in range(0, p.size, step):
        rp, rq = row[p[i:i + step]], row[q[i:i + step]]
        split = (E.sum_table[meets[rp], meets[rq]] == np.arange(n)).all(axis=1)
        centre += p[i:i + step][whole[rp] & whole[rq] & split].tolist()
    return CompressionBase(E, centre, {x: meets[row[x]] for x in centre})


def _principal(E: FiniteAlgebra, tested: np.ndarray) -> np.ndarray:
    """``core.is_principal`` where ``tested`` holds, else False: a fails iff
    a defined x + y has x, y <= a and x + y not <= a, read off the packed
    order bits of the tested columns for the defined pairs of a run of rows."""
    cols = np.flatnonzero(tested)
    below = np.packbits(E.leq_table[:, cols], axis=1)  # below[x]: x <= a, a in cols
    S, n = E.sum_table, E.size
    bad = np.zeros(below.shape[1], dtype=np.uint8)
    step = max(1, kernels.CHUNK_BYTES // (16 * max(1, below.shape[1]) * n))  # rows; 1/4 of it
    for i in range(0, n, step):
        x, y = np.nonzero(S[i:i + step] >= 0)
        x += i
        bad |= np.bitwise_or.reduce(below[x] & below[y] & ~below[S[x, y]], axis=0)
    out = np.zeros(n, dtype=bool)
    out[cols] = ~np.unpackbits(bad, count=cols.size).astype(bool)
    return out


def product_base(E: FiniteAlgebra, left: CompressionBase,
                 right: CompressionBase) -> CompressionBase:
    """The base ``J_(p1, p2) = J_p1 x J_p2`` over ``P1 x P2`` on the direct
    product ``E`` of ``left.algebra`` and ``right.algebra``.  It keeps no
    maps: its map reads go through ``left`` and ``right``."""
    projections = left.p_array[:, None] * right.algebra.size + right.p_array
    return CompressionBase(E, projections.ravel(), factors=(left, right))


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
    pos = np.searchsorted(cb.p_array, out)
    if not cb.pcompat()[np.ix_(pos, pos)].all():
        raise InternalConsistencyError("bicommutant is not pairwise compatible")
    if not np.isin(cb.algebra.ortho_all()[out], out).all():
        raise InternalConsistencyError("bicommutant not closed under orthosupplement")
    return out


def blocks(cb: CompressionBase) -> list:
    """Maximal pairwise-compatible subsets of P, each checked Boolean.

    Compatibility on a product base is componentwise, so its graph is the
    product of the two reflexive factor graphs, whose maximal cliques are
    the products ``B1 x B2`` of factor blocks; those are Boolean iff both
    factor blocks are.
    """
    if cb.factors is not None:
        left, right = cb.factors
        return sorted([cb.algebra.pair_index(p, q) for p in b1 for q in b2]
                      for b1 in blocks(left) for b2 in blocks(right))
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
    and under the meets J_p(q), and is a Boolean algebra under them.

    The order is read off the meets: ``i <= j`` iff ``J_i(j) = i``.  The
    atoms are the members with exactly two members below them, and each
    member maps to the bitmask of the atoms below it.  The block is Boolean
    iff that map is a bijection onto the ``2^m`` subsets of its ``m`` atoms
    that sends the meets to intersections and ' to complements: then
    ``(B, ^, ')`` is isomorphic to ``(2^m, ∩, complement)``, so the meets
    also distribute over the joins ``q v r = (q' ^ r')'``.
    """
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
    below = meet == np.arange(b)[:, None]  # below[i, j]: i <= j
    atoms = np.flatnonzero(np.count_nonzero(below, axis=0) == 2)
    m = atoms.size
    not_boolean = InternalConsistencyError(
        f"block of {b} members is not Boolean over its {m} atoms")
    if b != 1 << m:
        raise not_boolean
    mask = (1 << np.arange(m, dtype=np.int64)) @ below[atoms]
    # distinct masks; np.unique would import numpy.ma
    if (np.bincount(mask, minlength=b) != 1).any() or (mask[ortho] != (b - 1) ^ mask).any():
        raise not_boolean
    step = max(1, kernels.CHUNK_BYTES // (24 * b))  # rows; ~24 bytes per pair
    for i in range(0, b, step):
        if (mask[meet[i:i + step]] != mask[i:i + step, None] & mask).any():
            raise not_boolean


def c_block(cb: CompressionBase, block) -> np.ndarray:
    """C(B): elements compatible with every projection in the block.

    On a product base ``C((p1, p2)) = C(p1) x C(p2)``, so C(B) is the
    product of the factor sets C(B1) and C(B2) over the components of B.
    """
    if cb.factors is not None:
        left, right = cb.factors
        ia, ib = cb.algebra.split_index(np.asarray(block, dtype=np.int64))
        # the distinct factor indices, ascending; np.unique would import numpy.ma
        c1 = c_block(left, np.flatnonzero(np.bincount(ia, minlength=left.algebra.size)))
        c2 = c_block(right, np.flatnonzero(np.bincount(ib, minlength=right.algebra.size)))
        return (c1[:, None] * right.algebra.size + c2).ravel()
    mask = np.ones(cb.algebra.size, dtype=bool)
    for p in block:
        mask &= cb.pc_matrix()[:, cb.p_pos[p]]
    return np.flatnonzero(mask)


def projection_cover(cb: CompressionBase, a: int) -> int:
    """Least projection above a; raises NoCover when the set has no minimum."""
    return cb.cover(a)


def has_pcp(cb: CompressionBase) -> bool:
    return cb.has_pcp()


def check_oml(cb: CompressionBase) -> Report:
    """P under the cover property: an orthomodular lattice, sup/inf-closed in E.

    Meets in P come from ``p_meet_table``, joins are (p' ^ q')' through
    ``ortho_rows`` (``IncompleteBase`` unless P is closed under '), and the
    orthomodular law is one gather over the pairs of ``proj_leq``.  The
    closure row reads one table of E-meets of pairs of P
    (``_closure_witness``); its witness is the first failing subset of two
    or three, the join's -1 where the meet of the orthosupplements has none."""
    if not cb.enumerable:
        raise NotEnumerable("the projection lattice of a lazy carrier is not listable")
    if not cb.has_pcp():
        missing = int(np.argmax(cb.cover_vec() < 0))
        raise NoCover(cb.algebra.label(missing))
    P = cb.p_array
    rep = Report(f"OML structure of P (|P|={P.size})")
    meets = cb.p_meet_table()
    rep.add("pairwise-meets-exist", bool((meets >= 0).all()))
    o = cb.ortho_rows()
    at = np.where(meets < 0, -1, np.searchsorted(P, meets).astype(np.int32))  # positions in P
    rep.add("pairwise-joins-exist", bool((at[o[:, None], o] >= 0).all()))

    # q = p v (q ^ p') for p <= q, read off ``at`` (at -1 too, masked)
    i, j = np.nonzero(cb.proj_leq())
    inner = at[j, o[i]]
    dual = at[o[i], o[inner]]
    bad = np.flatnonzero((inner < 0) | (dual < 0) | (o[dual] != j))
    om_w = (int(P[i[bad[0]]]), int(P[j[bad[0]]])) if bad.size else None
    rep.add("orthomodular-law", om_w is None, witness=om_w)
    cl_w = _closure_witness(cb.algebra, P, o)
    rep.add("sup-inf-closed-(subsets ≤ 3)", cl_w is None, witness=cl_w)
    return rep


def _closure_witness(E: FiniteAlgebra, P: np.ndarray, o: np.ndarray):
    """``(kind, subset, value)`` of the first subset of two or three members
    of P, in ``itertools.combinations`` order, whose E-meet, folded left to
    right, lies outside P (``meet``, checked first), or the meet of whose
    orthosupplements has its orthosupplement outside P (``join``).  A fold's
    step ``x ^ p_k`` is row ``pos(x)`` of W, the E-meets of members of P, or
    a fresh row for x outside P, so a suffix minimum per row gives the least
    failing k > j: a pair reads it at ``(p_i, i)``, a subset of three at
    ``(p_i ^ p_j, j)``.  W is ``core.meet_table`` of ``E.meet_pairs`` on P,
    and the passes over it run in the same bands of rows."""
    m, n, cols = P.size, E.size, np.arange(P.size)
    step = max(1, kernels.CHUNK_BYTES // (64 * m))
    W = core.meet_table(E.meet_pairs, P)
    inside = np.isin(np.arange(n + 1), P)  # index -1, no meet, is outside
    orth = np.append(E.ortho_all(), -1)

    def folds(size):
        """Per band of rows i, the meet and join side's fold values before k:
        p_i at column i for pairs, p_i ^ p_j at j > i for three; else -1."""
        for i in range(0, m, step):
            rows = np.arange(i, min(i + step, m))
            mask = rows[:, None] == cols if size == 2 else rows[:, None] < cols
            xm, xj = (P[rows, None], P[o[rows], None]) if size == 2 else (W[rows], W[o[rows]][:, o])
            yield rows, np.where(mask, xm, -1), np.where(mask, xj, -1)

    fresh = np.unique(np.concatenate([x[(x >= 0) & ~inside[x]] for _, *xs in folds(3) for x in xs]))
    W = np.concatenate([W, E.meet_pairs(fresh[:, None], P), np.full((1, m), -1)], dtype=np.int32)
    rowof = np.full(n + 1, len(W) - 1)  # -1 reads the last row, of no meets
    rowof[P], rowof[fresh] = cols, m + np.arange(fresh.size)
    first = np.full((2, len(W), m), m, dtype=np.int32)  # least failing k > j, meet and join
    for i in range(0, len(W), step):
        V, Vo = W[i:i + step], W[i:i + step, o]
        F = np.stack([(V >= 0) & ~inside[V], (Vo >= 0) & ~inside[orth[Vo]]])
        K = np.where(F[..., 1:], np.arange(1, m), m)
        first[:, i:i + step, :-1] = np.minimum.accumulate(K[..., ::-1], axis=2)[..., ::-1]

    for size in (2, 3):
        for rows, xm, xj in folds(size):
            km, kj = first[0][rowof[xm], cols], first[1][rowof[xj], cols]
            k = np.minimum(km, kj)
            if (k < m).any():
                r, j = divmod(int(np.argmax(k < m)), m)
                meet, k = km[r, j] == k[r, j], k[r, j]
                value = W[rowof[xm[r, j]], k] if meet else orth[W[rowof[xj[r, j]], o[k]]]
                subset = P[[rows[r], j][:size - 1] + [k]]
                return ("meet" if meet else "join", tuple(subset.tolist()), int(value))
    return None
