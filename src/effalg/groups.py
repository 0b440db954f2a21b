"""Lattice-ordered groups Z^X with an order unit.

Independent oracle for the dyadic constructions: orthogonal
decompositions, the Rickart mapping g* (largest annihilating
projection), rational spectral projections ((n*g - m*u)_+)^* and the
step-function approximation with its norm bound.  Everything here is
exact integer/rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GridTooNarrow, InternalConsistencyError, MalformedInput


def _vec(x) -> np.ndarray:
    """int64 vector; an object array of Python ints passes unchanged."""
    if isinstance(x, np.ndarray) and x.dtype == object:
        return x
    return np.asarray(x, dtype=np.int64)


@dataclass(frozen=True)
class ZGroup:
    """Z^X ordered coordinatewise, with unit u (all coordinates >= 1).

    Projections are the sharp elements of [0, u]: vectors with
    coordinates u_i or 0.  J_p masks coordinates to the support of p.
    """

    u: tuple

    def __init__(self, u):
        u = _vec(u)
        if (u < 1).any():
            raise MalformedInput("order unit needs every coordinate >= 1")
        object.__setattr__(self, "u", tuple(int(x) for x in u))

    @property
    def unit(self) -> np.ndarray:
        return _vec(self.u)

    @property
    def dim(self) -> int:
        return len(self.u)

    def projection(self, mask) -> np.ndarray:
        return np.where(np.asarray(mask, dtype=bool), self.unit, 0)

    def support(self, p) -> np.ndarray:
        return _vec(p) > 0

    def compress(self, p, g) -> np.ndarray:
        return np.where(self.support(p), _vec(g), 0)

    def proj_complement(self, p) -> np.ndarray:
        return self.unit - _vec(p)

    def in_commutant(self, g, p) -> bool:
        g = _vec(g)
        return np.array_equal(self.compress(p, g) + self.compress(self.proj_complement(p), g), g)

    def norm(self, g) -> Fraction:
        """Order-unit norm: max |g_i| / u_i, as an exact rational."""
        g = _vec(g)
        return max((Fraction(int(abs(x)), int(ui)) for x, ui in zip(g, self.u)),
                   default=Fraction(0))


def orthogonal_decomposition(G: ZGroup, g):
    """Unique split g = g_+ - g_- through a projection: (g_+, g_-, p)."""
    g = _vec(g)
    gp = np.maximum(g, 0)
    gm = np.maximum(-g, 0)
    p = G.projection(g > 0)
    if not (np.array_equal(G.compress(p, g), gp)
            and np.array_equal(G.compress(G.proj_complement(p), g), -gm)
            and np.minimum(gp, gm).max(initial=0) == 0):
        raise InternalConsistencyError(f"orthogonal decomposition of {g} fails")
    return gp, gm, p


def rickart(G: ZGroup, g) -> np.ndarray:
    """g*: the largest projection p with g in C(p) and J_p(g) = 0, the unit
    on the coordinates where g is zero (every g lies in every C(p), as J_p
    and J_p' split the coordinates)."""
    return G.projection(_vec(g) == 0)


def positive_part_rickart(G: ZGroup, g) -> np.ndarray:
    """((g)_+)^*, the projection annihilating the positive part."""
    gp, _, _ = orthogonal_decomposition(G, g)
    return rickart(G, gp)


def group_spectral(G: ZGroup, g, m: int, n: int) -> np.ndarray:
    """Spectral projection at m/n: ((n*g - m*u)_+)^*.

    Well-definedness in the fraction m/n is checked by evaluating the
    doubled representation 2m/2n as well.
    """
    if n <= 0:
        raise MalformedInput("need n > 0")
    g, u = _vec(g), G.unit
    if 2 * max(abs(m), n) * (int(np.abs(g).max(initial=0)) + max(G.u)) >= 2 ** 62:
        g, u = g.astype(object), u.astype(object)  # exact past int64
    p = positive_part_rickart(G, n * g - m * u)
    p2 = positive_part_rickart(G, 2 * n * g - 2 * m * u)
    if not np.array_equal(p, p2):
        raise InternalConsistencyError("spectral projection depends on the fraction form")
    return p


def bounds(G: ZGroup, g):
    """(l_g, u_g): extremal rational slopes m/n with m*u <= n*g resp. >=."""
    g = _vec(g)
    fracs = [Fraction(int(x), int(ui)) for x, ui in zip(g, G.u)]
    return min(fracs), max(fracs)


def dyadic_approximation(G: ZGroup, g, grid, scale: int):
    """Partition u along a slope grid so that n*g is close to sum(m_i u_i).

    ``grid`` is a nondecreasing list m_0 <= ... <= m_N of integers with
    m_0 * u <= scale * g <= m_N * u (otherwise GridTooNarrow).  Returns
    (pieces u_1..u_N, achieved_error, max_gap) with
    ||scale*g - sum_i m_i u_i|| <= max_i (m_i - m_{i-1}).
    """
    g, unit = _vec(g), G.unit
    grid = [int(m) for m in grid]
    if any(grid[i] > grid[i + 1] for i in range(len(grid) - 1)):
        raise MalformedInput("grid must be nondecreasing")
    if len(grid) < 2:
        raise MalformedInput("grid needs at least two points")
    if 2 * max(abs(scale), abs(grid[0]), abs(grid[-1])) * (
            int(np.abs(g).max(initial=0)) + max(G.u)) >= 2 ** 62:
        g, unit = g.astype(object), unit.astype(object)  # exact past int64
    ng = scale * g
    if (ng - grid[0] * unit < 0).any() or (ng - grid[-1] * unit > 0).any():
        lg, ug = bounds(G, g)
        raise GridTooNarrow(
            f"grid [{grid[0]}, {grid[-1]}] does not bracket scale*g "
            f"(needs m_0 <= {scale * lg}, m_N >= {scale * ug})")
    N = len(grid) - 1
    # nonincreasing chain q_i with q_i in P_+-(n*g - m_i*u); q_0 = u, q_N = 0
    qs = [unit]
    for i in range(1, N):
        r = G.projection(ng - grid[i] * unit > 0)
        qs.append(np.minimum(r, qs[-1]))
    qs.append(np.zeros(G.dim, dtype=unit.dtype))
    pieces = [qs[i - 1] - qs[i] for i in range(1, N + 1)]
    if not np.array_equal(np.sum(pieces, axis=0), unit):
        raise InternalConsistencyError("approximation pieces do not add up to the unit")
    for i, ui in enumerate(pieces, start=1):
        x = G.compress(ui, ng)
        if not ((grid[i - 1] * ui <= x).all() and (x <= grid[i] * ui).all()):
            raise InternalConsistencyError(f"piece {i} leaves its slope bracket")
    combo = sum(grid[i] * pieces[i - 1] for i in range(1, N + 1))
    err = G.norm(ng - combo)
    max_gap = max(grid[i] - grid[i - 1] for i in range(1, N + 1))
    if err > max_gap:
        raise InternalConsistencyError("approximation bound violated")
    return pieces, err, Fraction(max_gap)


def general_comparability_holds(G: ZGroup, g) -> bool:
    """P_+-(g) is nonempty (witnessed by the positive-support projection)."""
    g = _vec(g)
    p = G.projection(g > 0)
    return (G.compress(p, g) >= 0).all() and (G.compress(G.proj_complement(p), g) <= 0).all()


def check_comparability_equivalence(instance, cb):
    """Finite grid algebras vs their integer group: comparability agrees.

    Evaluates b-comparability on the algebra, and general comparability in
    ``Z^X``: P_+-(g) is nonempty for every g.  The group row is
    ``structural``.  The positive-support projection p = [g > 0] keeps the
    coordinates where g is positive, so J_p(g) >= 0 and J_p'(g) <= 0 for
    every g (``general_comparability_holds``).
    """
    from .comparability import check_b_comparability
    from .core import GridAlgebra, Report

    if not isinstance(instance, GridAlgebra):
        raise MalformedInput("equivalence check needs a grid algebra with a known "
                             "integer universal group")
    rep = Report(f"comparability equivalence on {instance.kind} "
                 f"(k={instance.k}, d={instance.d})")
    alg = check_b_comparability(cb).passed
    rep.add("algebra-b-comparability", alg)
    rep.add("group-general-comparability", True, mode="structural",
            detail="the positive-support projection [g > 0] separates every g in Z^X")
    rep.add("verdicts-agree", alg)
    return rep
