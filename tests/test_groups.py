import itertools

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from effalg import groups, instances
from effalg.errors import ElementNotInCarrier, GridTooNarrow, MalformedInput
from effalg.groups import (
    ZGroup,
    bounds,
    dyadic_approximation,
    group_spectral,
    orthogonal_decomposition,
    rickart,
)

G22 = ZGroup([2, 2])

vectors = st.lists(st.integers(-6, 6), min_size=2, max_size=2).map(np.array)
units = st.lists(st.integers(1, 4), min_size=3, max_size=3).map(np.array)


def test_orthogonal_decomposition_example():
    gp, gm, p = orthogonal_decomposition(G22, [3, -1])
    assert list(gp) == [3, 0] and list(gm) == [0, 1] and list(p) == [2, 0]
    gp, gm, p = orthogonal_decomposition(G22, [0, 0])
    assert not gp.any() and not gm.any() and not p.any()
    gp, gm, _ = orthogonal_decomposition(G22, [1, 2])
    assert list(gp) == [1, 2] and not gm.any()


def test_rickart_examples():
    assert list(rickart(G22, [3, -1])) == [0, 0]
    assert list(rickart(G22, [3, 0])) == [0, 2]
    p = G22.projection([True, False])
    assert list(rickart(G22, p)) == list(G22.proj_complement(p))  # p* = p'


@pytest.mark.parametrize("G", [G22, ZGroup([1, 3, 2])], ids=["G22", "G132"])
def test_rickart_is_the_largest_annihilating_projection(G):
    """The defining biconditional p <= g*  <=>  (g in C(p) and J_p(g) = 0),
    over every projection p of G and every g with coordinates in -3..3."""
    projections = [G.projection(bits) for bits in itertools.product((False, True), repeat=G.dim)]
    for g in itertools.product(range(-3, 4), repeat=G.dim):
        star = rickart(G, g)
        assert any(np.array_equal(star, p) for p in projections), g
        for p in projections:
            rhs = G.in_commutant(g, p) and not G.compress(p, g).any()
            assert (p <= star).all() == rhs, (g, p)


def test_bad_group_input_is_malformed_input():
    """A unit with a coordinate below 1, a spectral projection at m/0 and
    an equivalence check on a carrier that is no grid raise
    ``MalformedInput``."""
    with pytest.raises(MalformedInput, match="order unit"):
        ZGroup([2, 0])
    with pytest.raises(MalformedInput, match="need n > 0"):
        group_spectral(G22, [3, -1], 1, 0)
    with pytest.raises(MalformedInput, match="needs a grid algebra"):
        groups.check_comparability_equivalence(*instances.make_matrix(2))


def test_group_spectral_examples():
    assert list(group_spectral(G22, [3, -1], 1, 2)) == [0, 2]
    lg, ug = bounds(G22, [3, -1])
    assert (lg, ug) == (Fraction(-1, 2), Fraction(3, 2))
    # lambda beyond the bounds collapses to 0 or u
    assert list(group_spectral(G22, [3, -1], 2, 1)) == [2, 2]   # >= u_g
    assert list(group_spectral(G22, [3, -1], -1, 1)) == [0, 0]  # < l_g


def test_bounds_edges():
    assert bounds(G22, [2, 2]) == (Fraction(1), Fraction(1))
    assert bounds(G22, [0, 0]) == (Fraction(0), Fraction(0))


def test_dyadic_approximation():
    pieces, err, gap = dyadic_approximation(G22, [3, -1], range(-2, 3), 1)
    assert sum(np.asarray(p) for p in pieces).tolist() == [2, 2]
    assert err <= gap == 1
    _, err2, gap2 = dyadic_approximation(G22, [3, -1], range(-2, 4, 2), 1)
    assert err2 <= gap2 == 2
    pieces0, err0, _ = dyadic_approximation(G22, [0, 0], [-1, 0, 1], 1)
    assert err0 == 0
    with pytest.raises(GridTooNarrow):
        dyadic_approximation(G22, [3, -1], [0, 1], 1)


def test_dyadic_approximation_is_exact_past_int64():
    # 3 * 2^62 is past int64: the grid [-2^60, 2^60] does not bracket it
    L4 = ZGroup([4])
    with pytest.raises(GridTooNarrow):
        dyadic_approximation(L4, [3], [-2 ** 60, 0, 2 ** 60], 2 ** 62)
    # the same approximation scaled by 2^68 has the same pieces, and its
    # error and gap scale with it
    G = ZGroup([4, 3])
    grid = [m * 2 ** 68 for m in range(-8, 13, 2)]
    big, err, gap = dyadic_approximation(G, [3, -1], grid, 2 ** 70)
    small, err1, gap1 = dyadic_approximation(G, [3, -1], [m // 2 ** 68 for m in grid], 4)
    assert [list(p) for p in big] == [list(p) for p in small]
    assert (err, gap) == (err1 * 2 ** 68, gap1 * 2 ** 68)


@settings(deadline=None)
@given(vectors)
def test_rickart_laws(g):
    star = rickart(G22, g)
    # g** = (g*)'
    gss = rickart(G22, star)
    assert list(gss) == list(G22.proj_complement(star))


@settings(deadline=None)
@given(vectors, vectors)
def test_rickart_monotone(g, h):
    g = np.abs(g)
    h = g + np.abs(h)  # 0 <= g <= h
    gss = G22.proj_complement(rickart(G22, g))
    hss = G22.proj_complement(rickart(G22, h))
    assert (gss <= hss).all()


@settings(deadline=None)
@given(vectors, st.booleans())
def test_compression_respects_positive_part(g, first):
    q = G22.projection([first, not first])
    gp, gm, _ = orthogonal_decomposition(G22, g)
    jq = G22.compress(q, g)
    jp, jm, _ = orthogonal_decomposition(G22, jq)
    assert list(jp) == list(G22.compress(q, gp))
    assert list(jm) == list(G22.compress(q, gm))


@settings(deadline=None)
@given(units, st.lists(st.integers(-8, 8), min_size=3, max_size=3).map(np.array))
def test_spectral_family_clauses(u, g):
    """The four clauses of the rational family on an integer group."""
    G = ZGroup(u)
    lg, ug = bounds(G, g)
    spectrum = sorted({Fraction(int(x), int(ui)) for x, ui in zip(g, u)})
    lams = sorted({Fraction(m, n) for n in (1, 2, 3) for m in range(-9, 10)})
    fam = {lam: group_spectral(G, g, lam.numerator, lam.denominator) for lam in lams}
    prev = None
    for lam in lams:
        p = fam[lam]
        if lam < lg:
            assert not p.any()
        if lam >= ug:
            assert (p == G.unit).all()
        if prev is not None:
            assert (prev <= p).all()  # monotone
        prev = p
        # right continuity via an explicit witness mu > lam with equality
        above = [s for s in spectrum if s > lam]
        mu = (lam + above[0]) / 2 if above else lam + 1
        assert (group_spectral(G, g, mu.numerator, mu.denominator) == p).all()
        # compressions sit on the correct side of lam
        n_, m_ = lam.denominator, lam.numerator
        jp = G.compress(p, g)
        jm = G.compress(G.proj_complement(p), g)
        assert (n_ * jp <= m_ * p).all()
        assert (m_ * G.proj_complement(p) <= n_ * jm).all()


def test_norm_matches_inf_definition():
    G = ZGroup([1, 2, 3])
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = rng.integers(-5, 6, 3)
        direct = G.norm(g)
        # inf over n/k with -n u <= k g <= n u, scanned on a small window
        best = None
        for k in range(1, 13):
            for n in range(0, 61):
                if (-n * G.unit <= k * g).all() and (k * g <= n * G.unit).all():
                    cand = Fraction(n, k)
                    best = cand if best is None or cand < best else best
                    break
        assert direct == best


def test_equivalence_check(mv83, mv42, bool3):
    for E, cb in (mv83, mv42, bool3):
        rep = groups.check_comparability_equivalence(E, cb)
        assert rep.passed, rep.summary()


def test_group_comparability_row_is_structural(mv42):
    """The group row is decided without sampling: the positive-support
    projection separates every g.  The 200 seeded g in [-2u, 2u] that the
    row once drew are the reference."""
    E, cb = mv42
    row = next(c for c in groups.check_comparability_equivalence(E, cb).checks
               if c.name == "group-general-comparability")
    assert (row.passed, row.mode, row.witness) == (True, "structural", None)
    G = ZGroup(E.group_unit)
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert groups.general_comparability_holds(G, rng.integers(-2 * G.unit, 2 * G.unit + 1))


def test_torsion_pasting_has_no_group(hsum_l8):
    E, cb = hsum_l8
    e, f = instances.torsion_witness(E)
    assert e != f
    assert E.sum(e, e) == E.one and E.sum(f, f) == E.one
    with pytest.raises(ElementNotInCarrier):
        instances.universal_group(E)


def test_chain_equivalence():
    E, cb = instances.make_mv_product(4, 1)
    rep = groups.check_comparability_equivalence(E, cb)
    assert rep.passed
