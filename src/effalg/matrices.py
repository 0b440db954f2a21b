"""Real symmetric matrix effects 0 <= a <= I, compressions a -> p a p.

The carrier is not enumerable; order and equality are decided by
eigenvalue bounds within a fixed tolerance, tol in [1e-12, 1e-6], covers
and positive parts by eigendecomposition, and boundary eigenvalues (|mu|
<= tol) always land on the 'below' side of a split.  The order tests are
one stacked ``eigvalsh`` (``leq_pairs``; ``leq`` is one pair), and the
projection and commutation tests one stack (``projection_tests``; e.g.
``is_projection`` is one entry).  A splitting tree is read off one
eigendecomposition of its element (``MatrixCompressionBase.tree_nodes``):
each split keeps a's eigenvectors and halves their eigenvalues, so the
tree's cells are the binary digits of a's spectrum, and the nodes come
from one stack of rank-one projectors.  Likewise the verifier reads the
doubling maps on all its cells off one stacked eigenvalue computation of
b + 2u with one entry per cell, u the difference of the runs on either
side of a jump of the family and b = u a u, no meet formed
(``MatrixCompressionBase.doubling_cells``): the least and the greatest
eigenvalue of b walk the cell's binary digits to its verdict, each step
exact in floats where a verdict can turn on it.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations

import numpy as np

from .comparability import SplitResult
from .core import EffectAlgebra, Report
from .errors import (
    ElementNotInCarrier,
    InternalConsistencyError,
    InvalidState,
    MalformedInput,
    NotCommuting,
    NotEnumerable,
)

CLUSTER_GAP = 1e-7  # eigenvalues closer than this count as one spectral point


def sym(x: np.ndarray) -> np.ndarray:
    """The symmetric part of a matrix, or of each matrix of a stack."""
    return (x + x.mT) / 2.0


class MatrixEffectAlgebra(EffectAlgebra):
    kind = "matrix"
    enumerable = False

    def __init__(self, dim: int, tol: float = 1e-9):
        if dim not in (2, 3, 4):
            raise MalformedInput("matrix algebras are supported for dimensions 2..4")
        # Below 1e-12 the rounding of an eigendecomposition, about 32 * dim *
        # eps * 2^depth at depth 9, is no longer small against tol, and the
        # verifier fails computed resolutions; above 1e-6 the order is
        # coarser than the fixed 1e-6 thresholds of ``meet_proj`` and
        # ``bicommutant_test``.  NaN fails both comparisons.
        if not 1e-12 <= tol <= 1e-6:
            raise MalformedInput(f"tol must lie in [1e-12, 1e-6], not {tol!r}")
        self.dim = dim
        self.tol = tol
        # the units, made once and read-only: every caller shares them
        self.zero = np.zeros((dim, dim))
        self.one = np.eye(dim)
        self.zero.flags.writeable = self.one.flags.writeable = False
        self._limits = np.array([[tol], [tol], [100 * tol]])  # of ``projection_tests``

    def check_element(self, a) -> np.ndarray:
        a = self.check_symmetric(a)
        self.check_spectrum(np.linalg.eigvalsh(a))
        return a

    def check_symmetric(self, a) -> np.ndarray:
        """sym(a) for a finite matrix a of the carrier's dimension that is
        symmetric within tol; ``ElementNotInCarrier`` else.  ``check_element``
        adds ``check_spectrum`` on an ``eigvalsh`` of it; ``tree_nodes`` runs
        that check on its own ``eigh``."""
        try:
            a = np.asarray(a, dtype=float)
        except (TypeError, ValueError):
            raise ElementNotInCarrier("need a matrix of numbers") from None
        if a.shape != (self.dim, self.dim) or not np.isfinite(a).all() \
                or np.abs(a - a.T).max() > self.tol:
            raise ElementNotInCarrier("need a finite symmetric matrix of the right dimension")
        return sym(a)

    def check_spectrum(self, vals) -> None:
        """``ElementNotInCarrier`` unless the ascending eigenvalues ``vals``
        lie in [-tol, 1 + tol]."""
        if vals[0] < -self.tol or vals[-1] > 1 + self.tol:
            raise ElementNotInCarrier("eigenvalues must lie in [0, 1]")

    def eq(self, a, b) -> bool:
        return bool(self.eq_pairs(a, b))

    def eq_pairs(self, xs, ys) -> np.ndarray:
        """``eq`` on each pair of the stacks xs and ys: the greatest entry of
        |x - y| within tol."""
        return np.abs(np.asarray(xs) - np.asarray(ys)).max(axis=(-2, -1)) <= self.tol

    def leq(self, a, b) -> bool:
        return bool(self.leq_pairs(a, b))

    def leq_pairs(self, xs, ys) -> np.ndarray:
        """``leq`` on each pair of the stacks xs and ys, which broadcast
        against each other, from one stacked ``eigvalsh``: each entry
        has the bits of its own ``leq``."""
        return np.linalg.eigvalsh(sym(np.asarray(ys) - np.asarray(xs))).min(axis=-1) >= -self.tol

    def running_sums(self, start, terms) -> list | None:
        """start, then each sum of it and the terms up to one, added in
        order as ``sum`` adds them, sym(acc + t); None if one is undefined.
        Each sum is tested below the unit in one ``leq_pairs`` call."""
        out, raw = [start], []
        for t in terms:
            raw.append(out[-1] + t)
            out.append(sym(raw[-1]))
        return out if not raw or self.leq_pairs(np.array(raw), self.one).all() else None

    def sum(self, a, b):
        s = a + b
        return sym(s) if self.leq(s, self.one) else None

    def sum_pairs(self, xs, ys) -> tuple:
        """``sum`` on each pair of the stacks xs and ys: ``(sums, defined)``,
        the symmetric parts of the raw sums and whether each raw sum lies
        below the unit, from one ``leq_pairs`` call.  Each entry has the
        bits of its own ``sum``, which is None where it is not defined."""
        s = np.asarray(xs) + np.asarray(ys)
        return sym(s), self.leq_pairs(s, self.one)

    def ominus(self, b, a):
        return sym(b - a) if self.leq(a, b) else None

    def ortho(self, a) -> np.ndarray:
        return self.one - a

    def label(self, a) -> str:
        """The entries to six significant digits, row by row, formatted as
        Python numbers (``tolist``), which print as numpy's do."""
        return "[" + ", ".join(["[" + ", ".join([f"{x:.6g}" for x in row]) + "]"
                                for row in np.asarray(a).tolist()]) + "]"

    def sample_elements(self, rng, count):
        """``count`` effects, each from a normal matrix and then its
        eigenvalues, uniform on [0, 1], drawn from rng in turn: the
        eigenvalues rotated by the Q of the normal matrix, in one stacked QR
        and one stacked product, which give each effect its own bits."""
        d = self.dim
        draws = [(rng.standard_normal((d, d)), rng.uniform(0, 1, d)) for _ in range(count)]
        q = np.linalg.qr(np.array([g for g, _ in draws]).reshape(count, d, d))[0]
        diag = np.array([v for _, v in draws]).reshape(count, d, 1) * self.one
        return list(sym(q @ diag @ q.mT))

    def random_effect(self, rng, eigenvalues=None) -> np.ndarray:
        """An effect drawn as ``sample_elements`` draws each, or with the
        given eigenvalues in a random eigenbasis."""
        if eigenvalues is None:
            return self.sample_elements(rng, 1)[0]
        q = np.linalg.qr(rng.standard_normal((self.dim, self.dim)))[0]
        return sym(q @ np.diag(np.asarray(eigenvalues)) @ q.T)

    def random_projection(self, rng, rank=None) -> np.ndarray:
        if rank is None:
            rank = int(rng.integers(1, self.dim))
        q = np.linalg.qr(rng.standard_normal((self.dim, self.dim)))[0]
        return sym(q[:, :rank] @ q[:, :rank].T)

    def is_projection(self, p) -> bool:
        return bool(self.projection_tests([p], self.zero)[0][0])

    def projection_tests(self, ps, a) -> tuple:
        """``(projection, commutes)``, boolean per entry of ``ps``: whether it
        is symmetric and idempotent within tol, and whether it commutes with
        a within 100 tol.  An entry that is not a numeric dim x dim array
        (``_matrix_or_none``) fails both.  The entries are one float stack,
        the zero matrix standing in for each malformed one, and the three
        differences p - p^T, p p - p and p a - a p one stack, whose
        absolute maxima are read and compared with their bounds
        (``_limits``) at once."""
        arrays = [self._matrix_or_none(p) for p in ps]
        s = np.array([self.zero if x is None else x for x in arrays],
                     dtype=float).reshape(-1, self.dim, self.dim)
        diffs = np.empty((3,) + s.shape)
        np.subtract(s, s.mT, out=diffs[0])
        np.subtract(s @ s, s, out=diffs[1])
        np.subtract(s @ a, a @ s, out=diffs[2])
        ok = np.abs(diffs, out=diffs).max(axis=(2, 3)) <= self._limits
        good = [x is not None for x in arrays]
        if not all(good):
            ok &= good
        return ok[0] & ok[1], ok[2]

    def _matrix_or_none(self, p):
        """p as an array if it is a dim x dim array of numbers (a float, int or
        unsigned dtype), else None: a wrong shape, text, complex or bool
        entries, objects, or nested lists that make no array (ragged)."""
        try:
            x = np.asarray(p)
        except ValueError:
            return None
        return x if x.shape == self.one.shape and x.dtype.kind in "fiu" else None

    def mackey_compatible(self, a, b):
        """Projection case only: a <-> p iff a = p a p + p' a p'."""
        for x, y in ((a, b), (b, a)):
            if self.is_projection(y):
                yc = self.ortho(y)
                ok = self.eq(y @ x @ y + yc @ x @ yc, x)
                return ok, None
        raise NotEnumerable("compatibility search needs a projection argument")


# ---------------------------------------------------------------------------
# eigenstructure helpers


def eig_clusters(a):
    """[(eigenvalue, projector)] with eigenvalues within ``CLUSTER_GAP`` merged."""
    return _clusters(*np.linalg.eigh(sym(np.asarray(a, dtype=float))))


def _clusters(vals, vecs):
    """(mean, projector) per run of ascending eigenvalues ``vals`` (of the
    columns of ``vecs``) whose neighbours lie within ``CLUSTER_GAP``."""
    gaps = [i for i in range(1, len(vals)) if vals[i] - vals[i - 1] > CLUSTER_GAP]
    cuts = [0] + gaps + [len(vals)]
    return [(float(vals[i:j].mean()), sym(vecs[:, i:j] @ vecs[:, i:j].T))
            for i, j in zip(cuts, cuts[1:]) if i < j]


def support_projection(a, tol: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(sym(np.asarray(a, dtype=float)))
    keep = vals > tol
    block = vecs[:, keep]
    return sym(block @ block.T)


def chi_leq(a, lam, tol: float) -> np.ndarray:
    """Spectral indicator: projector onto eigenvalues <= lam (+tol)."""
    vals, vecs = np.linalg.eigh(sym(np.asarray(a, dtype=float)))
    keep = vals <= lam + tol
    block = vecs[:, keep]
    return sym(block @ block.T)


def joint_eigenprojections(e, f):
    """Common eigenprojections of a commuting symmetric pair."""
    out = []
    for _, p in eig_clusters(e):
        vals, vecs = np.linalg.eigh(sym(p @ f @ p + 2.0 * (np.eye(len(p)) - p)))
        inside = vals < 1.5  # eigenvectors inside range(p)
        out += [q for _, q in _clusters(vals[inside], vecs[:, inside])]
    return out


# ---------------------------------------------------------------------------
# states


class DensityState:
    """a -> trace(rho a) for a density matrix rho."""

    def __init__(self, algebra: MatrixEffectAlgebra, rho):
        self.algebra = algebra
        self.rho = sym(np.asarray(rho, dtype=float))
        self._validated = False

    def __call__(self, a) -> float:
        return float(np.trace(self.rho @ a))

    def validate(self) -> Report:
        rep = Report("density state")
        vals = np.linalg.eigvalsh(self.rho)
        finite = bool(np.isfinite(self.rho).all())
        rep.add("positive", finite and vals.min() >= -self.algebra.tol)
        rep.add("unit-trace", abs(np.trace(self.rho) - 1) <= 10 * self.algebra.tol)
        self._validated = rep.passed
        return rep

    def require_valid(self):
        if not self._validated and not self.validate().passed:
            raise InvalidState("density matrix is not positive with unit trace")


def separating_states(E: MatrixEffectAlgebra):
    """A finite family separating symmetric matrices via their moments."""
    d = E.dim
    out = []
    for i in range(d):
        rho = np.zeros((d, d))
        rho[i, i] = 1.0
        out.append(DensityState(E, rho))
    for i, j in combinations(range(d), 2):
        v = np.zeros(d)
        v[i] = v[j] = 1.0
        out.append(DensityState(E, np.outer(v, v) / 2.0))
    return out


# ---------------------------------------------------------------------------
# the canonical compression base


class MatrixCompressionBase:
    """All projections p with J_p(a) = p a p; lazy analogue of the finite base.

    ``split`` halves one node by two eigendecompositions; ``tree_nodes``
    gives a whole splitting tree from one eigendecomposition of its
    element, and ``spectral.splitting_tree`` reads it from there.  The
    generic loop over ``split`` stays as ``spectral._splitting_tree``, the
    reference the tests hold ``tree_nodes`` to.
    """

    enumerable = False

    def __init__(self, algebra: MatrixEffectAlgebra):
        self.algebra = algebra
        self._spectral = None

    # shared surface with the finite base -----------------------------------

    def apply(self, p, a) -> np.ndarray:
        return sym(p @ a @ p)

    def is_projection(self, p) -> bool:
        return self.algebra.is_projection(p)

    def in_commutant(self, a, p) -> bool:
        return self.commute(p, a)

    def commuting_projections(self, a, ps) -> list:
        """Whether each p of ``ps`` is a projection that commutes with a: one
        ``projection_tests`` call, as ``is_projection`` and ``commute`` are."""
        proj, comm = self.algebra.projection_tests(ps, a)
        return (proj & comm).tolist()

    def commute(self, e, f) -> bool:
        return bool(self.algebra.projection_tests([e], f)[1][0])

    def has_b_property(self, a) -> bool:
        return True  # a's double commutant is spanned by its eigenprojections

    def all_b(self) -> bool:
        return True

    def bicommutant(self, a):
        """Sums of eigenprojections of a (including 0 and 1)."""
        projs = [p for _, p in eig_clusters(a)]
        return [self.algebra.zero] + [sym(np.sum(sub, axis=0)) for r in range(1, len(projs) + 1)
                                      for sub in combinations(projs, r)]

    def bicommutant_test(self, a):
        """Membership of the bicommutant of a, as a predicate on
        projections p: p is the sum of the eigenprojections of a that it
        contains.  The eigenprojections are computed once, here."""
        clusters = [q for _, q in eig_clusters(a)]

        def member(p) -> bool:
            total = np.zeros_like(np.asarray(p, dtype=float))
            for q in clusters:
                if np.abs(q @ p @ q - q).max() <= 1e-6:
                    total = total + q
            return self.algebra.eq(total, p)

        return member

    def cover(self, a) -> np.ndarray:
        return support_projection(a, self.algebra.tol)

    def has_pcp(self) -> bool:
        return True  # support projections cover; spot-checked in is_spectral

    def meet_proj(self, p, q) -> np.ndarray:
        """Projector onto range(p) n range(q): on the eigenvectors of p + q
        whose eigenvalue is above 2 - 1e-6."""
        vals, vecs = np.linalg.eigh(sym(np.asarray(p) + np.asarray(q)))
        kept = vecs[:, vals > 2 - 1e-6]
        return sym(kept @ kept.T)

    def doubling_cells(self, a, ws, us) -> list:
        """Clause (iv) of ``spectral.verify_resolution`` on its depth-n cells
        ``ws``: one verdict per cell, for a in the carrier, the cell of
        ``ws[i]`` being u = sym(us[i]), where ``us`` stacks the differences
        p_{t+1} - p_t of the runs on either side of each jump.  b = J_u(a)
        = u a u and b + 2u are one stack, and one stacked ``eigvalsh`` of it
        gives each cell its eigenvalues, which it walks once, along its w,
        to one verdict (``_verdict``): "fail" where f_w maps b out of [0,
        u], "cover" where the image's cover is not u, else "pass".  The
        stacked calls give each cell the bits of its own calls.

        Where u is a projection, b and u commute, and 0 <= b <= u, so every
        iterate of f_w is diagonal in their joint eigenbasis.  On range(u),
        of dimension trace(u), the eigenvalues of b + 2u are b's plus 2, and
        off it they are 0; so the ones above 1, less 2, are b's on range(u).
        A step sends an eigenvalue y of b on range(u) to 2y - bit, and each
        order test of ``spectral.apply_fw`` is the least eigenvalue of a
        matrix that reads, on range(u), 1 - y at every iterate (``cur <=
        q``, ``cur <= q - cur`` and ``2 cur <= 1`` on a 0-step, the final
        img <= u) or y after a 1-step (``q - cur <= cur`` and the two tests
        on 2(q - cur)); off range(u) it reads 0 or 1.  The image's cover is
        u iff every image eigenvalue on range(u) is above tol.

        Why the difference will do.  u = q - p for projections p <= q that
        (i) and (ii) accepted within tol.  For exact ones its spectrum is 1
        (on range(q) n ker(p)), 0 and pairs +-sin t, one per principal angle
        t between the ranges: -1, on range(p) n ker(q), fails (ii)'s q - p
        >= -tol, which also bounds each sin t by tol.  (i)'s tolerance moves
        these by O(tol).  So u = U + R with U a projection and |R| = O(tol),
        b + 2u is U a U + 2U up to O(tol), and by Weyl's inequality the
        eigenvalues above 1, less 2, are b's on the 1-eigenspace of u within
        O(tol), which the walk tests against tol like any other.

        Why the walk decides.  It reads b's spectrum once, and a step y -> 2y
        - bit is exact in floats wherever a verdict can turn on it (doubling
        is exact, and so is 2y - 1 for 2y in [1/2, 2], by Sterbenz): the
        verdict is clause (iv) in exact arithmetic on the computed spectrum,
        tol applied once per test, as ``leq`` applies it.  The scalar
        reference, ``spectral._doubling_cell``, forms matrices at every step,
        and its tests at step m err by up to beta = 32 * dim * eps * 2^m:
        within beta of -tol that rounding, not a, decides, and its cover of an
        image with a small eigenvalue can miss u by more than tol (Davis-Kahan).
        """
        us = sym(us)
        spectra = np.linalg.eigvalsh(sym(us @ a @ us) + 2.0 * us).tolist()
        return [self._verdict(w, ys[bisect_right(ys, 1.0):]) for w, ys in zip(ws, spectra)]

    def _verdict(self, w, ys) -> str:
        """``doubling_cells``' verdict on the cell w, from the eigenvalues ys
        of b + 2u on range(u), ascending: b's plus 2, none where u = 0.

        A step y -> 2y - bit keeps the order of the eigenvalues, in floats
        too, as doubling is exact and rounding is monotone.  So every test
        is read off the walks of the least and the greatest, lo and hi,
        alone: 1 - hi at every iterate, and lo after a 1-step.  The cell
        fails at the first test below -tol, where ``apply_fw`` stops, and
        falls short of its cover where the last lo is at most tol."""
        if not ys:
            return "pass"  # u = 0: f_w(0) = 0, whose cover is 0 = u
        tol = self.algebra.tol
        lo, hi = ys[0] - 2.0, ys[-1] - 2.0
        if 1.0 - hi < -tol:
            return "fail"
        for bit in w:
            lo = 2.0 * lo - bit
            hi = 2.0 * hi - bit
            if 1.0 - hi < -tol or bit and lo < -tol:
                return "fail"
        return "cover" if lo <= tol else "pass"

    def p_le_set(self, e, f):
        """Joint spectral projections separating e below f."""
        if not self.commute(e, f):
            raise NotCommuting("matrix pair does not commute")
        E = self.algebra
        joint = joint_eigenprojections(e, f)
        out = []
        for r in range(len(joint) + 1):
            for sub in combinations(joint, r):
                p = sym(np.sum(sub, axis=0)) if sub else E.zero
                pc = E.ortho(p)
                if E.leq(self.apply(p, e), self.apply(p, f)) and \
                   E.leq(self.apply(pc, f), self.apply(pc, e)):
                    out.append(p)
        return out

    def positive_part(self, b, a) -> np.ndarray:
        """(b - a)_+ by clamping negative eigenvalues at zero."""
        vals, vecs = np.linalg.eigh(sym(np.asarray(b) - np.asarray(a)))
        return sym(vecs @ np.diag(np.maximum(vals, 0.0)) @ vecs.T)

    def split(self, c, q) -> SplitResult:
        """Spectral halving of c inside [0, q]; boundary (|mu| <= tol) goes below.

        Diagonalizes 2c - q on range(q): the nonpositive eigenspace is u0,
        its complement in q is u1.
        """
        E = self.algebra
        tol = E.tol
        vals, vecs = np.linalg.eigh(sym(np.asarray(q, dtype=float)))
        basis = vecs[:, vals > 0.5]
        if basis.shape[1] == 0:
            z = E.zero
            return SplitResult(u0=z, u1=z, c0=z, c1=z)
        m = basis.T @ (2.0 * c - q) @ basis
        mv, mw = np.linalg.eigh(sym(m))
        w0 = basis @ mw[:, mv <= tol]
        u0 = sym(w0 @ w0.T)
        u1 = sym(q - u0)
        c0 = sym(2.0 * (u0 @ c @ u0))
        c1 = sym(u1 - 2.0 * (u1 @ (q - c) @ u1))
        return SplitResult(u0=u0, u1=u1, c0=c0, c1=c1)

    def tree_nodes(self, a, n: int, levels):
        """``(u, c)``: the nonzero nodes of a's depth-n splitting tree at the
        given levels, from one eigendecomposition of a, which also checks
        that a lies in the carrier (``ElementNotInCarrier``), as
        ``check_element`` does.

        The root is the cover, spanned by the eigenvectors v of a with
        eigenvalue x > tol, and c_() = a.  A node's c_w has the eigenvalue
        y on each v of its cell, and ``split`` sends v below iff 2y - 1 <=
        tol, where its eigenvalue becomes 2y - bit.  So each v walks its
        bits in scalar arithmetic: u_w is the sum of the rank-one
        projectors of the cell w, and c_w (w nonempty) their sum weighted by
        the walked values.  The projectors are one stack, and the weighted
        ones one stacked product at the levels asked for; a node adds its
        members' in eigenvector order, so it has the same bits whichever
        levels are asked for.  The checks of ``spectral._grow`` run on the
        same eigendecomposition, on the depth-n paths, whatever the levels:

        * the eigenbasis is orthonormal within tol, so each layer is
          orthogonal and adds up to the cover;
        * no eigenvalue cluster (``eig_clusters``) is split across the cells
          of depth n, with the eigenvalues <= tol as one more cell, so each
          u_w is a sum of eigenprojections: it lies in P(a).

        A failure raises ``InternalConsistencyError`` with ``_grow``'s
        messages, naming the first u_w, by level and then by w, that holds
        part of a cluster.
        """
        E = self.algebra
        tol = E.tol
        a = E.check_symmetric(a)
        vals, vecs = np.linalg.eigh(a)
        E.check_spectrum(vals)
        if np.abs(vecs.T @ vecs - E.one).max() > tol:
            raise InternalConsistencyError(f"layer {n} is not orthogonal")
        wanted = set(levels)
        paths = []  # per eigenvector: its depth-n cell w, or None at or below tol
        cells, walks = [], []  # per eigenvector above tol: its cell w and value y per wanted level
        for x in vals.tolist():
            if x <= tol:
                paths.append(None)
                continue
            w, y, ws, ys = (), x, [], []
            for level in range(n + 1):
                if level in wanted:
                    ws.append(w)
                    ys.append(y)
                if level < n:
                    bit = int(2.0 * y - 1.0 > tol)
                    w, y = w + (bit,), 2.0 * y - bit
            paths.append(w)
            cells.append(ws)
            walks.append(ys)
        u, c = {}, {}
        if cells:
            kept = vecs.T[len(vals) - len(cells):]  # the eigenvalues above tol come last
            projs = kept[:, :, None] * kept[:, None, :]  # np.outer(v, v) per v
            weighted = np.array(walks)[:, :, None, None] * projs[:, None]  # y * proj per level
            for ws, proj, ys in zip(cells, projs, weighted):
                for w, y_proj in zip(ws, ys):
                    if w in u:
                        u[w] = u[w] + proj
                        c[w] = c[w] + y_proj
                    else:
                        u[w] = proj
                        c[w] = y_proj
            if 0 in wanted:
                c[()] = a
        # Cells follow the eigenvalues' order, so a cluster is cut iff two
        # neighbours in it lie in different cells, and the lowest cell that
        # holds part of a cut cluster is the lower neighbour's.
        escaped = None  # (level, w) of the first u_w that holds part of a cluster
        for i in range(1, len(vals)):
            low, high = paths[i - 1], paths[i]
            if vals[i] - vals[i - 1] <= CLUSTER_GAP and low != high:
                if low is None:
                    cut = (0, ())
                else:
                    level = next(k for k in range(1, n + 1) if low[:k] != high[:k])
                    cut = (level, low[:level])
                escaped = cut if escaped is None else min(escaped, cut)
        if escaped is not None:
            raise InternalConsistencyError(
                f"u_{escaped[1]} escaped the bicommutant of {E.label(a)}")
        return u, c

    def check_b_comparability(self) -> Report:
        """Spot checks of the operator-interval laws on 25 seeded pairs."""
        E = self.algebra
        rep = Report(f"b-comparability on {E.kind} dim {E.dim}")
        rep.add("b-property", True, mode="structural",
                detail="double commutant of a symmetric matrix")
        rng = np.random.default_rng(0)

        def commuting_pair():  # e, then f, drawn on one random eigenbasis
            q = np.linalg.qr(rng.standard_normal((E.dim, E.dim)))[0]
            return (sym(q @ np.diag(rng.uniform(0, 1, E.dim)) @ q.T) for _ in range(2))

        ok = all(self.p_le_set(*commuting_pair()) for _ in range(25))
        rep.add("comparability", ok, mode="sampled")
        # sharp means idempotent here; the order-theoretic scan is not available
        ok_sharp = all(E.is_projection(E.random_projection(rng)) for _ in range(8))
        rep.add("sharp-elements-are-projections", ok_sharp, mode="sampled")
        return rep

    def is_spectral(self) -> bool:
        if self._spectral is None:
            rng = np.random.default_rng(7)
            covers_ok = all(self.algebra.leq(a, self.cover(a))
                            for a in (self.algebra.random_effect(rng) for _ in range(8)))
            self._spectral = covers_ok and self.check_b_comparability().passed
        return self._spectral


def make_matrix_instance(dim: int, tol: float = 1e-9):
    E = MatrixEffectAlgebra(dim, tol=tol)
    return E, MatrixCompressionBase(E)
