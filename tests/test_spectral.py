import itertools
import operator

import numpy as np
import pytest
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

from effalg import comparability, compbase, core, instances, spectral
from effalg.compbase import central_base
from effalg.errors import (EffalgError, ElementNotInCarrier, IncompleteBase,
                           InternalConsistencyError, InvalidDepth, NoCover, NotSpectral,
                           Unstable)
from effalg.matrices import CLUSTER_GAP, DensityState, sym
from effalg.spectral import (
    apply_fw,
    binary_resolution,
    expectation_bounds,
    k_of,
    lam_of,
    rational_resolution,
    splitting_tree,
    string_of,
    verify_resolution,
)
from test_structural import _criterion_01_instances


def _lam_next(w) -> Fraction:
    """lambda(w) + 2^-l(w): the right end of the cell of w."""
    return Fraction(k_of(w) + 1, 2 ** len(w))


def test_tree_matches_closed_form(mv83):
    E, cb = mv83
    a = E.index_of([2, 4, 7])
    tree = splitting_tree(cb, a, 2)
    oracle = instances.closed_form_mv_resolution(E, a, 2)
    assert instances.trees_equal(tree, oracle)
    assert tree.u((0, 0)) == E.index_of([8, 0, 0])
    assert tree.u((0, 1)) == E.index_of([0, 8, 0])
    assert tree.u((1, 0)) == E.zero
    assert tree.u((1, 1)) == E.index_of([0, 0, 8])
    assert tree.c((0, 1)) == E.index_of([0, 8, 0])  # 4*(4/8) - 1 = 1


def test_tree_of_zero_and_one(mv42):
    E, cb = mv42
    t0 = splitting_tree(cb, E.zero, 3)
    assert t0.layer(3) == []  # only nonzero nodes are stored
    t1 = splitting_tree(cb, E.one, 3)
    layer = t1.layer(3)
    assert layer == [((1, 1, 1), E.one)]


def test_layer_partition_and_nesting(mv42):
    E, cb = mv42
    rng = np.random.default_rng(5)
    for a in rng.integers(0, E.size, 8):
        tree = splitting_tree(cb, int(a), 4)
        cover = cb.cover(int(a))
        for level in range(5):
            total = E.zero
            for w, u in tree.layer(level):
                total = E.sum(total, u)
                assert total is not None
            assert total == cover
        for w, u in tree._u.items():
            for k in range(len(w)):
                assert E.leq(u, tree.u(w[:k]))  # nesting u_{wv} <= u_w


def test_binary_resolution_values(mv83):
    E, cb = mv83
    a = E.index_of([2, 4, 7])
    res = binary_resolution(cb, a, 2)
    assert res.at(Fraction(1, 4)) == E.index_of([8, 0, 0])
    assert res.at(Fraction(1, 2)) == E.index_of([8, 8, 0])
    assert res.at(Fraction(3, 4)) == E.index_of([8, 8, 0])
    assert res.at(0) == E.zero and res.at(1) == E.one


def test_boolean_resolution_is_complement(bool3):
    E, cb = bool3
    a = 0b101
    res = binary_resolution(cb, a, 3)
    for lam, p in res.items():
        assert p == (E.ortho(a) if lam < 1 else E.one)


def test_step_lemma(mv42):
    """p_{lam(w1)} ^ u_w = u_{w0} and consecutive entries differ by u_w."""
    E, cb = mv42
    for a in range(0, E.size, 3):
        n = 3
        res = binary_resolution(cb, a, n)
        tree = res.tree
        for level in range(n):
            for w, u in tree.layer(level):
                mid = Fraction(2 * k_of(w) + 1, 2 ** (level + 1))
                assert E.meet(res.entries[mid], u) == tree.u(w + (0,))
                # p_{lam(w+1)} = p_{lam(w)} + u_w
                assert E.sum(res.entries[lam_of(w)], u) == res.entries[_lam_next(w)]


def test_group_identity(mv42):
    """c_w agrees with the compressed integer combination 2^l a - k(w) u."""
    E, cb = mv42
    u = E.group_unit
    for a in range(E.size):
        tree = splitting_tree(cb, a, 4)
        g = E.coords[a].astype(np.int64)
        for w, uw in tree._u.items():
            mask = E.coords[uw] > 0
            expected = np.where(mask, (2 ** len(w)) * g - k_of(w) * u, 0)
            assert (E.coords[tree.c(w)] == expected).all()


def test_rational_resolution(mv83):
    E, cb = mv83
    a = E.index_of([2, 4, 7])
    res = binary_resolution(cb, a, 6)
    for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(5, 8)):
        assert rational_resolution(cb, a, lam, 6) == res.at(lam)
    assert rational_resolution(cb, a, Fraction(1, 3), 8) == E.index_of([8, 0, 0])
    assert rational_resolution(cb, a, 1, 4) == E.one
    rv = rational_resolution(cb, a, Fraction(1, 3), 8, details=True)
    assert rv.stable_from <= 8


def test_rational_refuses_non_spectral(mo2):
    E, cb = mo2
    with pytest.raises(NotSpectral):
        rational_resolution(cb, 2, Fraction(1, 2), 4)


def test_rational_unstable_meet(l8):
    """A meet that still moves between the last two depths is reported."""
    from effalg.errors import Unstable

    E, cb = l8
    a = 5  # the grid first out-resolves 31/50 vs 5/8 at depth 8
    with pytest.raises(Unstable):
        rational_resolution(cb, a, Fraction(31, 50), 8)
    assert rational_resolution(cb, a, Fraction(31, 50), 10) == E.zero


def test_rational_unstable_inside_a_cell(l8):
    """3/8 at lambda = 1/3: up to depth 4 the points above lambda at the
    last two depths coincide (3/8 at depths 3 and 4), where p jumps to 1,
    but the depth-n cell around 1/3 holds that jump, so the grid cannot
    decide p at 1/3; at depth 5 the two points differ.  From depth 6 the
    cell lies below 3/8."""
    from effalg.errors import Unstable

    E, cb = l8
    for n in range(1, 6):
        with pytest.raises(Unstable):
            rational_resolution(cb, 3, Fraction(1, 3), n)
    for n in (6, 7, 8):
        assert rational_resolution(cb, 3, Fraction(1, 3), n) == E.zero
    assert E.label(E.zero) == "0/8"


def test_apply_fw(l8):
    E, cb = l8
    assert apply_fw(cb, (0,), 3, E.one) == 6
    assert apply_fw(cb, (1,), 3, E.one) is None  # 5/8 > 3/8
    assert apply_fw(cb, (0, 1), 2, E.one) == 0
    assert apply_fw(cb, (), 5, E.one) == 5


def test_verify_accepts_computed_family(mv42, mv83):
    E, cb = mv42
    for a in range(0, E.size, 2):
        res = binary_resolution(cb, a, 4)
        rep = verify_resolution(cb, a, res.entries, 4)
        assert rep.passed, (E.label(a), rep.summary())
    G, gcb = mv83
    a = G.index_of([2, 4, 7])
    res = binary_resolution(gcb, a, 5)
    assert verify_resolution(gcb, a, res.entries, 5).passed


def test_verify_rejects_perturbations(mv42):
    E, cb = mv42
    a = E.index_of([1, 3])
    res = binary_resolution(cb, a, 4)
    for lam in res.grid():
        for p in cb.projections:
            if p == res.entries[lam]:
                continue
            fam = dict(res.entries)
            fam[lam] = p
            assert not verify_resolution(cb, a, fam, 4).passed, (lam, E.label(p))


def test_verify_rejects_wrong_element(mv42):
    E, cb = mv42
    a, b = E.index_of([1, 3]), E.index_of([2, 3])
    res_b = binary_resolution(cb, b, 4)
    assert not verify_resolution(cb, a, res_b.entries, 4).passed


def test_verify_premature_unit_fails_doubling(mv42):
    E, cb = mv42
    a = E.index_of([2, 1])
    res = binary_resolution(cb, a, 4)
    fam = dict(res.entries)
    fam[Fraction(1, 4)] = E.one  # jump to the unit too early
    rep = verify_resolution(cb, a, fam, 4)
    assert not rep.passed
    assert not rep.checks[-1].passed or not rep.checks[-2].passed


def test_expectation_bounds(mv83):
    E, cb = mv83
    a = E.index_of([2, 4, 7])
    s = instances.weighted_state(E, [Fraction(1, 3)] * 3)
    lo, hi = expectation_bounds(cb, a, s, 2)
    assert lo == Fraction(1, 3) and hi == Fraction(1, 3) + Fraction(1, 4)
    assert lo <= s(a) <= hi
    lo0, hi0 = expectation_bounds(cb, E.zero, s, 3)
    assert lo0 == 0 and hi0 == Fraction(1, 8)
    lo1, hi1 = expectation_bounds(cb, E.one, s, 3)
    assert lo1 == 1 - Fraction(1, 8) and hi1 == 1


def test_commutes_iff_spectrum(mv83):
    E, cb = mv83
    a = E.index_of([2, 4, 7])
    q = E.index_of([8, 8, 0])
    s = instances.weighted_state(E, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    rep = spectral.commutes_iff_spectrum(cb, a, q, 3, states=[s])
    assert rep.passed


# ---------------------------------------------------------------------------
# jumps against the dense grid construction


def dense_reference(E, tree, n):
    """The grid built point by point from a splitting tree: p_0 = (cover a)',
    then the prefix sums of the depth-n layer at every j / 2^n."""
    by_k = {k_of(w): u for w, u in tree.layer(n)}
    acc = E.ortho(tree.u(()) if tree._u else E.zero)
    out = {Fraction(0): acc}
    for j in range(1, 2 ** n + 1):
        if j - 1 in by_k:
            acc = E.sum(acc, by_k[j - 1])
        out[Fraction(j, 2 ** n)] = acc
    return out


def dense_rational(cb, a, lam, n, dense):
    """rational_resolution read off the dense grid, with the depth it is
    stable from: the entry at the first point above lam per depth, stable
    over the last two depths and equal at both ends of the depth-n cell
    around an off-grid lam, which is also the meet of every entry above
    lam; stable from the least depth m whose entry and every later one
    equal the depth-n entry."""
    from effalg.errors import Unstable

    E = cb.algebra
    if lam == 1:
        return dense[Fraction(1)], 0
    j0 = int(lam * 2 ** n)
    if lam * 2 ** n != j0 and not E.eq(dense[Fraction(j0, 2 ** n)], dense[Fraction(j0 + 1, 2 ** n)]):
        raise Unstable(n)  # p_lam changes inside the depth-n cell around lam
    values = [dense[min(Fraction(int(lam * 2 ** m) + 1, 2 ** m), Fraction(1))]
              for m in range(1, n + 1)]
    if len(values) >= 2 and not E.eq(values[-1], values[-2]):
        raise Unstable(n)
    tail = [p for mu, p in sorted(dense.items()) if mu > lam]
    meet = tail[0]
    for p in tail[1:]:
        meet = cb.meet_proj(meet, p)
    assert E.eq(meet, values[-1])
    stable_from = n
    for m in range(len(values) - 1, 0, -1):
        if not E.eq(values[m - 1], values[-1]):
            break
        stable_from = m
    return values[-1], stable_from


def worked_elements(bool3, mv42, matrix2):
    """(name, cb, element, same) over grid, product, boolean and matrix(2)."""
    E, cb = mv42
    P, pcb = instances.make_product(instances.make_boolean(2), mv42)
    M, mcb = matrix2
    rng = np.random.default_rng(11)
    out = [("grid", cb, int(x), lambda p, q: p == q) for x in rng.choice(E.size, 4)]
    out += [("product", pcb, int(x), lambda p, q: p == q) for x in rng.choice(P.size, 2)]
    out += [("boolean", bool3[1], x, lambda p, q: p == q) for x in (0, 0b101, 0b111)]
    for vals in ([5 / 16, 11 / 16], [1 / 4, 1 / 4], [0.0, 3 / 8]):
        q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        a = q @ np.diag(vals) @ q.T
        out.append(("matrix(2)", mcb, (a + a.T) / 2, np.array_equal))
    return out


def test_jumps_match_dense_grid(bool3, mv42, matrix2):
    from effalg.errors import Unstable

    lams = (Fraction(0), Fraction(1, 3), Fraction(5, 8), Fraction(1))
    for name, cb, a, same in worked_elements(bool3, mv42, matrix2):
        for n in range(11):
            res = binary_resolution(cb, a, n)
            dense = dense_reference(cb.algebra, res.tree, n)
            assert len(res.entries) == len(dense) == 2 ** n + 1
            assert list(res.entries) == sorted(dense)
            assert all(same(res.entries[lam], p) for lam, p in dense.items()), (name, n)
            assert [lam for lam, _ in res.items()] == sorted(dense)
            assert all(same(p, dense[lam]) for lam, p in res.items())
            assert all(same(p, q) for (_, p), q in zip(res.items(), dict(res.entries).values()))
            if n == 0 or name == "matrix(2)" and n > 8:
                continue  # the rational extension starts at depth 1
            for lam in lams:
                try:
                    want, stable_from = dense_rational(cb, a, lam, n, dense)
                except Unstable:
                    with pytest.raises(Unstable):
                        rational_resolution(cb, a, lam, n)
                    continue
                got = rational_resolution(cb, a, lam, n, details=True)
                assert same(got.projection, want), (name, n, lam)
                assert (got.stable_from, got.depth) == (stable_from, n), (name, n, lam)


def test_grid_view_is_a_read_only_mapping(mv83):
    E, cb = mv83
    res = binary_resolution(cb, E.index_of([2, 4, 7]), 3)
    view = res.entries
    assert Fraction(3, 8) in view and Fraction(1, 3) not in view and 2 not in view
    assert view[Fraction(1, 4)] == view["1/4"] == E.index_of([8, 0, 0])
    with pytest.raises(KeyError):
        view[Fraction(1, 16)]
    with pytest.raises(TypeError):
        view[Fraction(1, 4)] = E.one
    assert view == dict(view) and len(view) == 9
    # coordinate i joins p_lambda from lambda = a_i on: 2/8, 4/8, 7/8
    assert res.jumps == ((0, E.zero), (2, E.index_of([8, 0, 0])),
                         (4, E.index_of([8, 8, 0])), (7, E.one))


@pytest.mark.parametrize("k, d", [(8, 3), (16, 2)])
def test_deep_jumps_match_oracles(k, d):
    """Depths 24, 32, 64 against the closed-form tree and the Z^X group
    oracle, reading only the jumps (the grid is never listed)."""
    from effalg import groups

    E, cb = instances.make_mv_product(k, d, validate=False)
    G = instances.universal_group(E)
    rng = np.random.default_rng(k)
    elements = [E.index_of(list(rng.integers(0, k + 1, d))) for _ in range(3)]

    def oracle(a, j, n):
        p = groups.group_spectral(G, instances.embed_element(E, a), j, 2 ** n)
        return instances.projection_from_group(E, p)

    for a in elements:
        for n in (24, 32, 64):
            res = binary_resolution(cb, a, n)
            assert len(res.jumps) <= d + 1
            closed = instances.closed_form_mv_resolution(E, a, n)
            assert instances.trees_equal(res.tree, closed)
            coords = E.coords
            acc = E.ortho(closed.u(()) if closed._u else E.zero)
            want = [(0, acc)]
            for w, u in closed.layer(n):
                acc = E.index_of(coords[acc] + coords[u])
                want.append((k_of(w) + 1, acc))
            assert list(res.jumps) == want
            for (j, p), (nxt, _) in zip(res.jumps, res.jumps[1:] + ((2 ** n + 1, None),)):
                assert oracle(a, j, n) == p == res.at(Fraction(j, 2 ** n))
                assert oracle(a, nxt - 1, n) == p == res.at_index(nxt - 1)
            lam = Fraction(1, 3)
            want_lam = instances.projection_from_group(E, groups.group_spectral(
                G, instances.embed_element(E, a), lam.numerator, lam.denominator))
            assert rational_resolution(cb, a, lam, n) == want_lam
            if n <= 32:
                assert verify_resolution(cb, a, res.entries, n).passed
            assert res.entries.grid_size == 2 ** n + 1


def test_grid_size_past_len(mv42):
    """len() of the grid view is Python's up to depth 62 and a named error
    past it; grid_size counts the points at any depth."""
    from effalg.errors import EffalgError, InvalidDepth

    E, cb = mv42
    a = E.index_of([1, 3])
    assert len(binary_resolution(cb, a, 62).entries) == 2 ** 62 + 1
    for n in (63, 64, 70):
        view = binary_resolution(cb, a, n).entries
        assert view.grid_size == 2 ** n + 1
        with pytest.raises(InvalidDepth, match="grid_size"):
            len(view)
    assert issubclass(InvalidDepth, EffalgError)


def test_depth_must_be_a_nonnegative_integer(mv42):
    from effalg.errors import EffalgError, InvalidDepth

    E, cb = mv42
    for bad in (-3, 2.5, 2.0, "4", None):
        for call in (lambda n: binary_resolution(cb, 1, n),
                     lambda n: splitting_tree(cb, 1, n),
                     lambda n: rational_resolution(cb, 1, Fraction(1, 3), n),
                     lambda n: verify_resolution(cb, 1, {}, n)):
            with pytest.raises(InvalidDepth):
                call(bad)
    assert issubclass(InvalidDepth, EffalgError)
    assert binary_resolution(cb, 1, np.int64(3)).depth == 3


def test_depth_past_the_bound_fails_fast(mv42, matrix2):
    """Every route refuses a depth past ``MAX_DEPTH = 512`` with
    ``InvalidDepth`` naming the bound, before it resolves anything; a
    matrix verify at the bound returns a report."""
    assert spectral.MAX_DEPTH == 512
    for E, cb in (mv42, matrix2):
        a = E.one if E.enumerable else E.one / 4
        state = instances.weighted_state(E, [Fraction(1, 2)] * 2) if E.enumerable \
            else DensityState(E, E.one / 2)
        for call in (lambda n: binary_resolution(cb, a, n),
                     lambda n: splitting_tree(cb, a, n),
                     lambda n: spectral._splitting_tree(cb, a, n),
                     lambda n: rational_resolution(cb, a, Fraction(1, 3), n),
                     lambda n: verify_resolution(cb, a, {}, n),
                     lambda n: expectation_bounds(cb, a, state, n),
                     lambda n: spectral.commutes_iff_spectrum(cb, a, E.one, n)):
            assert call(4) is not None
            for n in (513, 1030, 64000, 2 ** 70):
                with pytest.raises(InvalidDepth, match=f"depth {n} is past the bound "
                                                       "MAX_DEPTH = 512"):
                    call(n)
    E, cb = matrix2
    a = sym(np.array([[0.3, 0.1], [0.1, 0.6]]))
    res = binary_resolution(cb, a, 512)
    rep = verify_resolution(cb, a, res.entries, 512)
    assert [c.name for c in rep.checks][-1] == "(iv)-doubling-maps-exist"


# ---------------------------------------------------------------------------
# the verifier against a point-by-point scan


def reference_verify(cb, a, family, n):
    """Every clause checked at every grid point and every depth-n cell, as
    a list of (name, passed, witness) rows.  Clauses (i), (ii) and (iv) on
    the depth-n cells decide the family, and the (iii) row carries (iv)'s
    verdict with no witness."""
    E = cb.algebra
    want = [Fraction(j, 2 ** n) for j in range(2 ** n + 1)]
    family = {Fraction(k): v for k, v in family.items()}
    rows = [("grid-complete", sorted(family) == want, None)]
    if not rows[0][1]:
        return rows
    w_i = next((lam for lam in want if not (cb.is_projection(family[lam])
                                            and cb.in_commutant(a, family[lam]))), None)
    rows.append(("(i)-projections-commuting-with-a", w_i is None, w_i))
    ok_ii = (E.leq(family[want[0]], E.ortho(a)) and E.eq(family[want[-1]], E.one)
             and all(E.leq(family[lo], family[hi]) for lo, hi in zip(want, want[1:])))
    rows.append(("(ii)-boundary-and-monotone", ok_ii, None))
    if not (w_i is None and ok_ii):
        return rows + [("(iii)-right-continuous", False, None),
                       ("(iv)-doubling-maps-exist", False, None)]
    w_iv = None
    for j in range(2 ** n):
        w = string_of(j, n)
        u_w = cb.meet_proj(family[_lam_next(w)], E.ortho(family[lam_of(w)]))
        img = apply_fw(cb, w, cb.apply(u_w, a), u_w)
        if img is None or not E.leq(img, u_w):
            w_iv = w
        elif not E.eq(cb.cover(img), u_w):
            w_iv = (w, "cover")
        if w_iv is not None:
            break
    rows.append(("(iii)-right-continuous", w_iv is None, None))
    rows.append(("(iv)-doubling-maps-exist", w_iv is None, w_iv))
    return rows


def verdict_rows(rep):
    return [(c.name, c.passed, c.witness) for c in rep.checks][:2] + \
        [(c.name, c.passed, c.witness if c.passed or "skipped" not in c.detail else None)
         for c in rep.checks[2:]]


def perturbed_families(E, cb, a, n, same):
    """The perturbations the test suite and the benchmark build: every
    single-entry substitution by a projection, the first two distinct
    neighbours swapped, the entry at 0 set to zero, the unit too early."""
    res = binary_resolution(cb, a, n)
    base = dict(res.entries)
    out = []
    for lam in base:
        for p in cb.projections:
            if not same(p, base[lam]):
                out.append({**base, lam: p})
    grid = sorted(base)
    for lo, hi in zip(grid, grid[1:]):
        if not same(base[lo], base[hi]):
            out.append({**base, lo: base[hi], hi: base[lo]})
            break
    for lam, p in ((Fraction(0), E.zero), (Fraction(1, 4), E.one)):
        if not same(base[lam], p):
            out.append({**base, lam: p})
    sharp = set(int(p) for p in cb.projections)
    unsharp = next((x for x in range(E.size) if x not in sharp), None)
    if unsharp is not None:  # not a projection: fails (i) at its first point
        out += [{**base, lam: unsharp} for lam in (Fraction(1, 16), Fraction(1, 2))]
    return res, out


def test_verify_matches_pointwise_scan(mv42, bool3):
    for E, cb, elements in ((mv42[0], mv42[1], [mv42[0].index_of(c)
                                                for c in ([1, 3], [2, 1], [0, 4], [4, 4])]),
                            (bool3[0], bool3[1], [0b101, 0])):
        for a in elements:
            res, families = perturbed_families(E, cb, a, 4, lambda p, q: p == q)
            rep = verify_resolution(cb, a, res.entries, 4)
            assert rep.passed and verdict_rows(rep) == reference_verify(cb, a, res.entries, 4)
            for fam in families:
                rep = verify_resolution(cb, a, fam, 4)
                assert not rep.passed
                assert verdict_rows(rep) == reference_verify(cb, a, fam, 4), fam
    E, cb = mv42
    a, b = E.index_of([1, 3]), E.index_of([2, 3])
    wrong = binary_resolution(cb, b, 4).entries
    rep = verify_resolution(cb, a, wrong, 4)
    assert not rep.passed and verdict_rows(rep) == reference_verify(cb, a, wrong, 4)
    off_grid = dict(binary_resolution(cb, a, 3).entries)
    assert verdict_rows(verify_resolution(cb, a, off_grid, 4)) == \
        reference_verify(cb, a, off_grid, 4) == [("grid-complete", False, None)]


def test_verify_matrix_families(matrix2):
    E, cb = matrix2
    rng = np.random.default_rng(9)
    q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    a = q @ np.diag([5 / 16, 11 / 16]) @ q.T
    a = (a + a.T) / 2
    res = binary_resolution(cb, a, 6)
    bad = dict(res.entries)
    bad[Fraction(1, 2)] = E.one
    for fam, ok in ((res.entries, True), (dict(res.entries), True), (bad, False)):
        rep = verify_resolution(cb, a, fam, 6)
        assert rep.passed is ok
        assert verdict_rows(rep) == reference_verify(cb, a, fam, 6)


OUTSIDE_THE_CARRIER = {
    "mv(4,2) None": (lambda: instances.make_mv_product(4, 2), 7, None),
    "mv(4,2) 10**6": (lambda: instances.make_mv_product(4, 2), 7, 10 ** 6),
    "mv(8,1) 'x'": (lambda: instances.make_mv_product(8, 1), 3, "x"),
    "mv(8,1) 2.5": (lambda: instances.make_mv_product(8, 1), 3, 2.5),
    "matrix(2) 3x3 identity": (lambda: instances.make_matrix(2), np.diag([3 / 16, 11 / 16]),
                               np.eye(3)),
}


@pytest.mark.parametrize("name", list(OUTSIDE_THE_CARRIER))
def test_an_entry_outside_the_carrier_fails_clause_i(name, monkeypatch):
    """An entry that is no element of the carrier fails (i) at its first
    grid point, and the later clauses fail as skipped, with no exception;
    the matrix base stacks no cell of such a family."""
    make, a, entry = OUTSIDE_THE_CARRIER[name]
    E, cb = make()
    if not cb.enumerable:
        monkeypatch.setattr(cb, "doubling_cells", lambda *args: pytest.fail("stacked"),
                            raising=False)
    family = {**binary_resolution(cb, a, 3).entries, Fraction(1, 4): entry}
    rows = [(c.name, c.passed, c.witness, c.detail) for c in
            verify_resolution(cb, a, family, 3).checks]
    assert rows[:2] == [("grid-complete", True, None, ""),
                        ("(i)-projections-commuting-with-a", False, Fraction(1, 4), "")]
    assert [(c[0], c[1], c[2]) for c in rows[2:]] == [
        ("(ii)-boundary-and-monotone", False, None), ("(iii)-right-continuous", False, None),
        ("(iv)-doubling-maps-exist", False, None)]
    assert all(c[3].startswith("skipped") for c in rows[2:])


def test_rational_resolution_at_depth_zero(l8):
    """Depth 0 lists only lambda = 0 and 1: the value at 1 is the unit, and
    below 1 no grid point lies above lambda, which is refused, not indexed."""
    _, cb = l8
    assert spectral.rational_resolution(cb, 3, Fraction(1), 0) == cb.algebra.one
    for lam in (Fraction(0), Fraction(1, 2)):
        with pytest.raises(InvalidDepth):
            spectral.rational_resolution(cb, 3, lam, 0)


# ---------------------------------------------------------------------------
# the fourth oracle: a product's resolution is the pair of its factors'

ORACLE_LAMBDAS = (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2))


def _factor_outcome(fn):
    """What ``fn`` returns, or the class of the error it raised."""
    try:
        return fn()
    except EffalgError as exc:
        return type(exc)


def _mv42_times(left):
    """``left`` x mv(4,2): (the product, its two factors, the grids whose
    weighted states are the factor states)."""
    right = instances.make_mv_product(4, 2)
    return instances.make_product(left, right), left, right, (left[0], right[0])


def _grid_as_its_factors():
    """mv(4,3) as the chain of its top coordinate x mv(4,2), its own factors."""
    G, gcb = instances.make_mv_product(4, 3)
    pairs = tuple(zip(G.factors, gcb.factors))
    return (G, gcb), *pairs, G.factors


def _table_copy(E):
    """A ``table`` carrier with E's sums and indices, and its central base:
    a leaf base, with several projections per layer when E has them."""
    sums = [(int(x), int(y), int(E.sum_table[x, y])) for x, y in np.argwhere(E.sum_table >= 0)]
    T = instances.make_table(sums, E.size, E.zero, E.one)
    return T, central_base(T)


def _table_times_boolean():
    """A table copy of mv(4,1) with its central base, x boolean(1)."""
    L, _ = instances.make_mv_product(4, 1)
    left, right = _table_copy(L), instances.make_boolean(1)
    return instances.make_product(left, right), left, right, (L, right[0])


ORACLE_CASES = {"boolean(2)": lambda: _mv42_times(instances.make_boolean(2)),
                "mv(4,2)": lambda: _mv42_times(instances.make_mv_product(4, 2)),
                "mv(4,3) as chain x mv(4,2)": _grid_as_its_factors,
                "table mv(4,1) x boolean(1)": _table_times_boolean}
ORACLE_DEPTH = 8


def _top(tree, n):
    """The nodes of ``tree`` down to level n, as ``(u, c)`` dicts."""
    return ({w: u for w, u in tree._u.items() if len(w) <= n},
            {w: c for w, c in tree._c.items() if len(w) <= n})


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_product_resolutions_are_pairs_of_factor_resolutions(name):
    """On every element of the product ``name`` (``x mv(4,2)`` where only
    the left factor is named).

    The pair of the factors' spectral families meets the defining clauses
    in E1 x E2 componentwise, and the rational spectral resolution of an
    element of a spectral archimedean effect algebra is unique, so the
    product's family is that pair.  ``splitting_tree`` and
    ``binary_resolution`` build it from the factor trees; here they are
    held to the generic loop run on the product itself
    (``spectral._splitting_tree``): one depth-8 tree per element, whose
    top layers and layer jumps give every depth from 0 to 8.  The
    rational resolution and the expectation bounds of a product state are
    held to the factors' own.  A grid is its own product of its chain and
    the rest, and a table factor has no structure for the product to read.
    """
    (P, cb), left, right, grids = ORACLE_CASES[name]()
    rng = np.random.default_rng(12)
    mix = Fraction(int(rng.integers(1, 8)), 8)
    states = []
    for (E, _), G in zip((left, right), grids):
        raw = [int(x) for x in rng.integers(1, 9, G.d)]
        s = instances.weighted_state(G, [Fraction(x, sum(raw)) for x in raw])
        states.append(core.State(E, s.values))  # a table copy keeps the indices
    ia, ib = P.split_index(np.arange(P.size))
    state = core.State(P, [mix * states[0](int(x)) + (1 - mix) * states[1](int(y))
                           for x, y in zip(ia, ib)])
    factor = {}

    def of(side, x, what, *args):
        key = (side, x, what) + args
        if key not in factor:
            fcb = (left, right)[side][1]
            fn = {"rational": rational_resolution,
                  "expect": lambda cb, x, n: expectation_bounds(cb, x, states[side], n)}[what]
            factor[key] = _factor_outcome(lambda: fn(fcb, x, *args))
        return factor[key]

    for a in range(P.size):
        x, y = int(ia[a]), int(ib[a])
        generic = spectral._splitting_tree(cb, a, ORACLE_DEPTH)
        for n in range(ORACLE_DEPTH + 1):
            res = binary_resolution(cb, a, n)
            assert (res.tree._u, res.tree._c) == _top(generic, n), (a, n)
            assert res.tree.depth == n
            assert list(res.jumps) == spectral._layer_jumps(P, generic._u, n), (a, n)
        for lam in ORACLE_LAMBDAS:
            got = _factor_outcome(lambda: rational_resolution(cb, a, lam, ORACLE_DEPTH))
            v1 = of(0, x, "rational", lam, ORACLE_DEPTH)
            v2 = of(1, y, "rational", lam, ORACLE_DEPTH)
            assert got == (v1 if isinstance(v1, type) else v2 if isinstance(v2, type)
                           else P.pair_index(v1, v2)), (a, lam)
        (lo1, hi1), (lo2, hi2) = of(0, x, "expect", ORACLE_DEPTH), of(1, y, "expect", ORACLE_DEPTH)
        assert expectation_bounds(cb, a, state, ORACLE_DEPTH) == (
            mix * lo1 + (1 - mix) * lo2, mix * hi1 + (1 - mix) * hi2), a


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_product_meets_in_p_are_the_meet_table(name):
    """A product base composes its meet table in P from its factors' tables;
    it equals ``core.meet_search`` on the order of P of a table copy of the
    base, which has no factors, and ``meet_proj`` reads it on every pair."""
    from test_compbase import _table_copy as base_copy

    (P, cb), _, _, _ = ORACLE_CASES[name]()
    table = cb.p_meet_table()
    below = base_copy(P, cb)[1].proj_leq()
    m = below.shape[0]
    pos = core.meet_search(below, core.order_bits(below), np.arange(m)[:, None], np.arange(m))
    assert np.array_equal(table, np.where(pos < 0, -1, cb.p_array[pos]))
    ps = cb.projections
    got = [[cb.meet_proj(p, q) for q in ps] for p in ps]
    assert got == [[None if v < 0 else v for v in row] for row in table.tolist()]


def _leaf_route_cases():
    """(name, (E, cb)) of the carriers the leaf route is held to: grids
    and products, MO2 and L8+L8 times boolean(1), and the 20 seeded broken
    tables of ``test_structural`` times boolean(1), in both orders."""
    from test_structural import GRIDS, MUTATIONS, _broken_table

    named = _criterion_01_instances()
    b1 = instances.make_boolean(1)
    mv83 = instances.make_mv_product(8, 3)
    yield "boolean(2) x mv(8,3)", instances.make_product(instances.make_boolean(2), mv83)
    yield "mv(4,2) x mv(4,2)", instances.make_product(instances.make_mv_product(4, 2),
                                                      instances.make_mv_product(4, 2))
    yield "mv(8,3)", mv83
    yield "MO2 x boolean(1)", instances.make_product(named["MO2"], b1, validate=False)
    yield "L8+L8 x boolean(1)", instances.make_product(named["L8+L8"], b1, validate=False)
    rng = np.random.default_rng(8)
    for i in range(4 * len(GRIDS)):
        broken = _broken_table(rng, *GRIDS[i % len(GRIDS)], MUTATIONS[i % len(MUTATIONS)])
        yield f"broken {i} x boolean(1)", instances.make_product(broken, b1, validate=False)
        yield f"boolean(1) x broken {i}", instances.make_product(b1, broken, validate=False)


LEAF_ROUTE_STRINGS = [w for n in range(5) for w in itertools.product((0, 1), repeat=n)]


def test_leaf_cells_decide_the_product_cell():
    """``spectral._cell_verdict`` on the ``_pair_walk`` of a's and u's
    leaves along w gives what ``_doubling_cell`` gives on the product
    itself, or raises the same error: on every (a, u in P, w) with len(w)
    <= 4, and one seeded w of 6 bits, of the carriers of at most 100
    elements, and on 600 seeded triples with len(w) <= 6 of the others.
    The broken tables reach all three verdicts and ``NoCover``, which the
    product raises only once no leaf cell fails."""
    rng = np.random.default_rng(44)
    outcomes = set()
    for name, (E, cb) in _leaf_route_cases():
        if E.size <= 100:
            triples = [(a, u, w) for a in range(E.size) for u in cb.projections
                       for w in LEAF_ROUTE_STRINGS + [tuple(rng.integers(0, 2, 6).tolist())]]
        else:
            triples = [(int(rng.integers(E.size)), int(rng.choice(cb.projections)),
                        tuple(rng.integers(0, 2, int(rng.integers(0, 7))).tolist()))
                       for _ in range(600)]
        for a, u, w in triples:
            want = _factor_outcome(lambda: spectral._doubling_cell(cb, w, a, u))
            got = _factor_outcome(lambda: spectral._cell_verdict(spectral._pair_walk(
                spectral._leaves(cb, a), spectral._leaves(cb, u), w)))
            assert got == want, (name, a, u, w)
            outcomes.add(want)
    assert outcomes == {"pass", "fail", "cover", NoCover}, outcomes


def test_leaf_rows_are_the_scalar_path():
    """Every leaf base below the carriers of ``_leaf_route_cases``, the
    seeded broken tables among them, keeps rows that equal the scalar path
    entry by entry.  For every u in P and x, ``leaf.doubling_rows(u)``
    holds ``J_u(x)``, ``_fw_step`` of each bit (-1 for None) and ``x <=
    u``, with the dead entry -1 (False) appended.  For every p in P and
    x, ``commutant_row(p)[x]`` is ``in_commutant(x, p)``, or both raise
    the same error: ``IncompleteBase`` where p' is not in P.  Every base
    there is central, so the seeded changed bases of ``test_structural`` on
    ``boolean(2)`` and ``mv(4,1)`` join them for commutants that fail."""
    from test_structural import _changed_bases

    rng = np.random.default_rng(48)
    changed = [(f"changed {i}", (None, broken)) for i, (E, cb) in enumerate(
        (instances.make_boolean(2), instances.make_mv_product(4, 1)))
        for broken in _changed_bases(rng, E, cb)]
    leaves, outcomes = {}, set()
    for name, (_, cb) in itertools.chain(_leaf_route_cases(), changed):
        for leaf, size, _ in cb.leaf_layout:
            if leaves.setdefault(id(leaf), leaf) is not leaf:
                continue
            L, xs = leaf.algebra, range(size)
            for u in leaf.projections:
                ju, f0, f1, inside = leaf.doubling_rows(u)
                assert ju == [leaf.apply(u, x) for x in xs], (name, u)
                for bit, row in ((0, f0), (1, f1)):
                    steps = [spectral._fw_step(L, bit, x, u) for x in xs]
                    assert row == [-1 if v is None else v for v in steps] + [-1], (name, u, bit)
                assert inside == [L.leq(x, u) for x in xs] + [False], (name, u)
            for p in leaf.projections:
                for x in xs:
                    want = _outcome_or_error(lambda: leaf.in_commutant(x, p))
                    assert _outcome_or_error(lambda: leaf.commutant_row(p)[x]) == want, \
                        (name, p, x)
                    outcomes.add(want)
    assert outcomes == {True, False, IncompleteBase}, outcomes


def _outcome_or_error(fn):
    """What ``fn`` returns, or the class of whatever it raised."""
    try:
        return fn()
    except Exception as exc:  # a broken table can raise KeyError too
        return type(exc)


def test_leaf_differences_are_the_product_difference():
    """Clause (ii) reads each pair of runs leaf by leaf as the difference
    ``leaf.algebra.ominus``, and clause (iv) tests each difference of
    neighbouring runs against the leaves' P: on every pair (p, q) of P of
    the carriers of ``_leaf_route_cases``, the seeded broken tables among
    them, the differences of the ``_leaves`` of p and q are the ``_leaves``
    of the product's ``ominus(q, p)``, with None at some leaf exactly where
    that is None, or both raise the same error; and where it is defined,
    every leaf lies in its leaf's P iff the product's difference lies in
    P.  The broken tables reach differences outside P."""
    outcomes = set()
    for name, (E, cb) in _leaf_route_cases():
        for p in cb.projections:
            for q in cb.projections:
                want = _outcome_or_error(lambda: E.ominus(q, p))
                got = _outcome_or_error(lambda: [
                    (leaf, leaf.algebra.ominus(y, x), stride) for (leaf, x, stride), (_, y, _)
                    in zip(spectral._leaves(cb, p), spectral._leaves(cb, q))])
                if isinstance(want, type):
                    assert got == want, (name, p, q)
                    outcomes.add(want)
                elif want is None:
                    assert any(d is None for _, d, _ in got), (name, p, q)
                    outcomes.add(None)
                else:
                    assert got == spectral._leaves(cb, want), (name, p, q)
                    inside = all(d in leaf.p_set for leaf, d, _ in got)
                    assert inside == cb.is_projection(want), (name, p, q)
                    outcomes.add("P" if inside else "not P")
    assert outcomes == {"P", "not P", None}, outcomes


def _clause_iv_per_cell(cb, a, fam):
    """Clause (iv) one depth-n cell across a jump at a time, in grid order,
    each cell's u_w from ``meet_proj`` of its own ends and decided by
    ``_doubling_cell`` on the carrier itself: ``(passed, witness)``."""
    E, n = cb.algebra, fam.depth
    for k in [j - 1 for j, _ in fam.jumps[1:]]:
        w = string_of(k, n)
        u = cb.meet_proj(fam.at_index(k + 1), E.ortho(fam.at_index(k)))
        if u is None:
            return False, (w, "meet")
        verdict = spectral._doubling_cell(cb, w, a, u)
        if verdict != "pass":
            return False, w if verdict == "fail" else (w, "cover")
    return True, None


def test_clause_iv_per_pair_gives_the_per_cell_witness():
    """Clause (iv) reads one difference per jump, leaf by leaf, and walks
    each cell's leaves; its row equals the one that forms ``meet_proj`` of the
    carrier and runs ``_doubling_cell`` on every depth-n cell, or both
    raise the same error.  Families: on each carrier of
    ``_leaf_route_cases`` (at most 20 elements each), every chain p <= q <=
    1 of P cut at seeded points of the depth-3 grid, and each element's
    resolution where it has one.  No family there that passes (i) and (ii)
    has a cell without a meet (where P holds 0 and 1, a chain's meets
    exist) or a difference outside P;
    ``test_a_difference_outside_p_fails_its_cell`` reaches that case."""
    rng = np.random.default_rng(46)
    witnesses = set()
    for name, (E, cb) in _leaf_route_cases():
        elements = range(E.size) if E.size <= 20 else rng.permutation(E.size)[:20].tolist()
        chains = [(p, q) for p in cb.projections for q in cb.projections
                  if _outcome_or_error(lambda: E.leq(p, q)) is True]
        for a in elements:
            families = []
            for p, q in chains:
                j1, j2 = sorted(rng.integers(1, 9, 2).tolist())
                families.append({Fraction(j, 8): p if j < j1 else q if j < j2 else E.one
                                 for j in range(9)})
            res = _outcome_or_error(lambda: binary_resolution(cb, a, 3))
            if not isinstance(res, type):
                families.append(res.entries)
            for family in families:
                rep = _outcome_or_error(lambda: verify_resolution(cb, a, family, 3))
                fam = spectral._as_resolution(E, a, family, 3)
                if isinstance(rep, type):
                    got = rep
                elif rep.checks[-1].detail:  # skipped: (i) or (ii) failed
                    continue
                else:
                    got = rep.checks[-1].passed, rep.checks[-1].witness
                want = _outcome_or_error(lambda: _clause_iv_per_cell(cb, a, fam))
                if want is KeyError:  # p' outside P, where clause (i) raises first
                    want = IncompleteBase
                assert got == want, (name, a)
                witnesses.add(want if isinstance(want, type) else "pass" if want[0] else
                              want[1][1] if isinstance(want[1][-1], str) else "w")
    assert witnesses == {"pass", "w", "cover", IncompleteBase}, witnesses


# ---------------------------------------------------------------------------
# the factor route, and the trees a leaf base keeps

DEPTH_ORDER = (4, 0, 8, 2, 6, 1, 7, 3, 5)  # shallower and deeper than what is kept


def _bases_below(cb):
    """``cb`` and every base it reaches through its factors."""
    return [cb] + ([] if cb.factors is None else
                   [b for f in cb.factors for b in _bases_below(f)])


@pytest.mark.parametrize("name", ["mv(8,3)", "boolean(2) x mv(8,3)"])
def test_composed_trees_equal_the_generic_loop(name):
    mv = instances.make_mv_product(8, 3)
    E, cb = mv if name == "mv(8,3)" else instances.make_product(instances.make_boolean(2), mv)
    for a in np.random.default_rng(31).permutation(E.size)[:25].tolist():
        generic = spectral._splitting_tree(cb, a, 8)
        for n in DEPTH_ORDER:
            tree = splitting_tree(cb, a, n)
            assert (tree._u, tree._c) == _top(generic, n), (a, n)
            assert (tree.algebra, tree.element, tree.depth) == (E, a, n)
            jumps = spectral._layer_jumps(E, generic._u, n)
            assert list(binary_resolution(cb, a, n).jumps) == jumps


def test_both_paths_refuse_a_product_that_is_not_spectral():
    E, cb = instances.make_product(instances.make_mo2(), instances.make_boolean(1))
    for a in range(E.size):
        for path in (splitting_tree, spectral._splitting_tree, binary_resolution):
            with pytest.raises(NotSpectral):
                path(cb, a, 3)


def test_a_kept_tree_grows_to_the_generic_tree():
    """Asked deeper than the tree it keeps, a leaf base splits on from the
    kept tree's deepest layer; asked shallower, it reads the kept tree."""
    T, cb = _table_copy(instances.make_mv_product(4, 2)[0])
    assert cb.factors is None and len(cb.projections) == 4
    for a in range(T.size):
        splitting_tree(cb, a, 4)
        assert len(cb._trees[a]) == 5
        deep = splitting_tree(cb, a, 8)
        kept = cb._trees[a]
        generic = spectral._splitting_tree(cb, a, 8)
        assert len(kept) == 9
        assert all(level == [(w, generic.u(w), generic.c(w)) for w, _ in generic.layer(i)]
                   for i, level in enumerate(kept)), a
        assert (deep._u, deep._c) == (generic._u, generic._c), a
        assert (splitting_tree(cb, a, 3)._u, splitting_tree(cb, a, 3)._c) == _top(generic, 3)
        assert cb._trees[a] is kept
    assert sorted(cb._trees) == list(range(T.size))


def test_a_returned_tree_is_the_callers():
    T, tcb = _table_copy(instances.make_mv_product(4, 2)[0])
    mv = instances.make_mv_product(8, 3)
    P, pcb = instances.make_product(instances.make_boolean(2), mv)
    for cb, a in ((tcb, 13), (mv[1], 300), (pcb, 1500)):
        want = {n: _top(spectral._splitting_tree(cb, a, 6), n) for n in (4, 6)}
        for n in (6, 4, 6):
            tree = splitting_tree(cb, a, n)
            assert (tree._u, tree._c) == want[n]
            tree._u[(0,) * n] = tree._u[()] = cb.algebra.one
            tree._c.clear()
            res = binary_resolution(cb, a, n)
            assert (res.tree._u, res.tree._c) == want[n]
            res.tree._u.clear()


def test_trees_are_kept_on_leaf_bases_only(matrix2):
    mv = instances.make_mv_product(8, 3)
    E, cb = instances.make_product(instances.make_boolean(2), mv)
    for a in range(E.size):
        binary_resolution(cb, a, 3 + a % 3)
    below = {id(b): b for b in _bases_below(cb)}.values()
    products = [b for b in below if b.factors is not None]
    leaves = [b for b in below if b.factors is None]
    # the product, boolean(2), mv(8,3) and mv(8,2); boolean(1) and the chain
    # {0..8}, which every grid of the tower shares
    assert [p._trees for p in products] == [None] * 4
    assert len(leaves) == 2
    for leaf in leaves:
        assert sorted(leaf._trees) == list(range(leaf.algebra.size))
        assert {len(layers) for layers in leaf._trees.values()} == {6}
    M, mcb = matrix2
    binary_resolution(mcb, M.random_effect(np.random.default_rng(3)), 4)
    assert not hasattr(mcb, "_trees")


# ---------------------------------------------------------------------------
# the layer route: resolutions compose the root and the depth-n layer only


def _levels(nodes, levels):
    """The entries of a node dict at the given levels."""
    return {w: v for w, v in nodes.items() if len(w) in levels}


LAYER_ROUTE_BASES = {  # name -> (E, cb), elements
    "mv(4,2)": lambda: _every_element(instances.make_mv_product(4, 2)),
    "boolean(3)": lambda: _every_element(instances.make_boolean(3)),
    "table mv(4,2)": lambda: _every_element(_table_copy(instances.make_mv_product(4, 2)[0])),
    "boolean(2) x mv(8,3)": lambda: _some_elements(instances.make_product(
        instances.make_boolean(2), instances.make_mv_product(8, 3)), 300),
}


def _every_element(inst):
    return inst, range(inst[0].size)


def _some_elements(inst, count):
    return inst, np.random.default_rng(28).permutation(inst[0].size)[:count].tolist()


@pytest.mark.parametrize("name", list(LAYER_ROUTE_BASES))
def test_levels_0_and_n_are_the_full_trees(name):
    """``_nodes(cb, a, n, (0, n))``, which the resolutions compose, holds
    levels 0 and n of the full tree, at depths 0 to 8 asked in an order
    that is both shallower and deeper than the trees kept."""
    (E, cb), elements = LAYER_ROUTE_BASES[name]()
    for a in elements:
        for n in DEPTH_ORDER:
            full = splitting_tree(cb, a, n)
            u, c = spectral._nodes(cb, a, n, (0, n))
            assert (u, c) == (_levels(full._u, (0, n)), _levels(full._c, (0, n))), (name, a, n)


def test_a_grown_tree_checks_each_new_layer(monkeypatch):
    """A resolution that grows a kept depth-2 tree to depth 4 checks the
    layers the kept tree did not hold, from level 3 on: with a bicommutant
    test that refuses every node it fails naming a level-3 node, and the
    base keeps the depth-2 tree."""
    T, cb = _table_copy(instances.make_mv_product(4, 2)[0])
    for a in range(1, T.size):
        binary_resolution(cb, a, 2)
        kept = cb._trees[a]
        with monkeypatch.context() as m:
            m.setattr(cb, "bicommutant_test", lambda x: lambda u: False)
            with pytest.raises(InternalConsistencyError, match=r"^u_\(\d, \d, \d\) escaped"):
                binary_resolution(cb, a, 4)
        assert cb._trees[a] is kept and len(kept) == 3


def test_a_resolutions_tree_is_built_when_read(matrix2, monkeypatch):
    """``binary_resolution`` builds no tree; ``res.tree`` calls
    ``splitting_tree`` on its first read and keeps what it returns, which
    is the caller's to change: a later resolution reads a tree of its own."""
    mv = instances.make_mv_product(8, 3)
    P = instances.make_product(instances.make_boolean(2), mv)
    built = []
    real = spectral.splitting_tree
    monkeypatch.setattr(spectral, "splitting_tree",
                        lambda cb, a, n: built.append((a, n)) or real(cb, a, n))
    rng = np.random.default_rng(12)
    for (E, cb), a in ((mv, 300), (P, 1500), (_table_copy(mv[0]), 13),
                       (matrix2, matrix2[0].random_effect(rng))):
        for n in (0, 3, 6):
            res = binary_resolution(cb, a, n)
            assert built == []
            tree = res.tree
            assert len(built) == 1 and res.tree is tree and len(built) == 1
            built.clear()
            want = real(cb, a, n)
            assert (tree.algebra, tree.depth, sorted(tree._u), sorted(tree._c)) == \
                (E, n, sorted(want._u), sorted(want._c))
            assert all(np.array_equal(tree._u[w], want._u[w]) and
                       np.array_equal(tree._c[w], want._c[w]) for w in want._u)
            tree._u.clear()
            again = binary_resolution(cb, a, n)
            assert again.tree is not tree and sorted(again.tree._u) == sorted(want._u)
            built.clear()
    family = dict(binary_resolution(mv[1], 300, 3).entries)  # no base resolved it
    assert spectral._as_resolution(mv[0], 300, family, 3).tree is None
    assert built == []


def test_resolutions_compose_levels_0_and_n_only(matrix3, monkeypatch):
    """``binary_resolution``, ``rational_resolution`` and
    ``expectation_bounds`` call no ``splitting_tree``, and each composes
    its tree once, at levels 0 and n: through ``_nodes`` on a grid, a
    product and a table, through ``tree_nodes`` on the matrix base."""
    mv = instances.make_mv_product(8, 3)
    P = instances.make_product(instances.make_boolean(2), mv)
    M, mcb = matrix3
    states = {id(mv[1]): instances.weighted_state(mv[0], [Fraction(1, 2), Fraction(1, 3),
                                                           Fraction(1, 6)]),
              id(mcb): DensityState(M, np.eye(3) / 3)}

    def no_tree(cb, a, n):
        raise AssertionError("splitting_tree called")

    composed = []
    nodes, tree_nodes = spectral._nodes, type(mcb).tree_nodes
    monkeypatch.setattr(spectral, "splitting_tree", no_tree)
    monkeypatch.setattr(spectral, "_nodes", lambda cb, a, n, levels: composed.append(
        (n, sorted(set(levels)))) or nodes(cb, a, n, levels))
    monkeypatch.setattr(type(mcb), "tree_nodes", lambda self, a, n, levels: composed.append(
        (n, sorted(set(levels)))) or tree_nodes(self, a, n, levels))
    rng = np.random.default_rng(4)
    for (E, cb), a in ((mv, 300), (P, 1500), (_table_copy(mv[0]), 13),
                       (matrix3, M.random_effect(rng))):
        for n in (0, 1, 5, 8):
            routes = [lambda: binary_resolution(cb, a, n)]
            if n:
                routes.append(lambda: rational_resolution(cb, a, Fraction(1, 3), n))
            if id(cb) in states:
                routes.append(lambda: expectation_bounds(cb, a, states[id(cb)], n))
            for route in routes:
                try:
                    route()
                except Unstable:
                    pass
                assert composed == [(n, sorted({0, n}))], (E.kind, n)
                composed.clear()


def test_each_route_requires_spectrality_once(matrix3, monkeypatch):
    """A compression base keeps its spectral verdict, and each resolution
    route asks for it once."""
    mv = instances.make_mv_product(8, 3)
    P = instances.make_product(instances.make_boolean(2), mv)
    M, mcb = matrix3
    state = instances.weighted_state(mv[0], [Fraction(1, 3)] * 3)
    for E, cb in (mv, P):
        assert cb.is_spectral() and cb._spectral is True
    monkeypatch.setattr(spectral.comparability, "check_b_comparability",
                        lambda cb: pytest.fail("the kept verdict is not read"))
    for E, cb in (mv, P, matrix3):
        assert cb.is_spectral()
    asked = []
    for cb in (mv[1], P[1], mcb):
        monkeypatch.setattr(cb, "is_spectral", lambda real=cb.is_spectral: asked.append(1) or
                            real())
    a_m = M.random_effect(np.random.default_rng(9))
    calls = [lambda: binary_resolution(mv[1], 300, 6),
             lambda: rational_resolution(mv[1], 300, Fraction(2, 5), 6, details=True),
             lambda: rational_resolution(P[1], 1500, Fraction(1, 5), 6),
             lambda: rational_resolution(mcb, a_m, Fraction(1, 3), 6),
             lambda: expectation_bounds(mv[1], 300, state, 6),
             lambda: expectation_bounds(mcb, a_m, DensityState(M, np.eye(3) / 3), 6)]
    for call in calls:
        try:
            call()
        except Unstable:
            pass
        assert asked == [1]
        asked.clear()


# ---------------------------------------------------------------------------
# the doubling maps on matrices: each order relation tested once


def _apply_fw_testing_twice(cb, w, b, q):
    """``apply_fw`` as it was: ``cur <= q`` tested before each ``ominus``
    of the first step, which tests it again."""
    E = cb.algebra
    cur = b
    if not E.leq(cur, q):
        return None
    for bit in w:
        comp = E.ominus(q, cur)
        if bit == 0:
            if not E.leq(cur, comp):
                return None
            cur = E.sum(cur, cur)
        else:
            if not E.leq(comp, cur):
                return None
            cur = E.ominus(q, E.sum(comp, comp))
        if cur is None:
            return None
    return cur


def test_apply_fw_tests_each_order_relation_once(matrix3, monkeypatch):
    """Per step of f_w: ``cur <= q`` inside ``ominus``, the step's own
    condition, ``2x <= 1`` inside the sum, and for a 1-step ``2(q - cur) <=
    q`` inside the last ``ominus``; one test alone for the empty string."""
    E, cb = matrix3
    calls = []
    leq = E.leq
    monkeypatch.setattr(E, "leq", lambda a, b: calls.append(1) or leq(a, b))
    rng = np.random.default_rng(4)
    b = E.random_effect(rng, [0.30, 0.305, 0.31])  # all in the cell (0, 1, 0, 0, 1)
    w = (0, 1, 0, 0, 1)
    for k in range(len(w) + 1):
        calls.clear()
        img = apply_fw(cb, w[:k], b, E.one)
        assert img is not None
        assert len(calls) == (1 if k == 0 else sum(3 if bit == 0 else 4 for bit in w[:k])), k
        assert np.array_equal(img, _apply_fw_testing_twice(cb, w[:k], b, E.one))


def _matrix_families(E, cb, rng, count, n):
    """Seeded (a, family) pairs: a's resolution, and families that break
    it: an entry set to the unit or to a random projection, the entry at
    0 set to zero, two neighbours swapped, and the resolution of an
    element with the same eigenvectors and one eigenvalue moved."""
    for _ in range(count):
        vals = np.sort(rng.choice(17, size=E.dim, replace=False)) / 16.0
        q = np.linalg.qr(rng.standard_normal((E.dim, E.dim)))[0]
        a = sym(q @ np.diag(vals) @ q.T)
        base = dict(binary_resolution(cb, a, n).entries)
        grid = sorted(base)
        yield a, base
        yield a, {**base, grid[len(grid) // 2]: E.one}
        yield a, {**base, grid[int(rng.integers(len(grid)))]: E.random_projection(rng)}
        yield a, {**base, Fraction(0): E.zero}
        j = int(rng.integers(len(grid) - 1))
        yield a, {**base, grid[j]: base[grid[j + 1]], grid[j + 1]: base[grid[j]]}
        moved = vals.copy()
        moved[0] = min(moved[0] + 1 / 16, 1.0)
        yield sym(q @ np.diag(moved) @ q.T), base


def _edge_matrix_families(E, cb, rng, n):
    """Seeded (a, family) pairs at the tolerance edges of clause (iv): one
    eigenvalue at j/2^k +- 5e-10, 1e-9, 2e-9, 1e-8, 1e-7 or 1e-6, one at
    ``tol`` or ``2 tol`` against one at 0 or ``tol / 2``, and pairs
    ``CLUSTER_GAP`` apart against pairs twice as far.  The other
    eigenvalues are odd sixteenths.  Each spectrum and its neighbour share their eigenvectors;
    each element comes with its own resolution and with its neighbour's
    (a neighbour whose tree cuts a cluster has none)."""
    def rest(k):
        return list(np.sort(rng.choice([1, 3, 5, 13, 15], size=k, replace=False)) / 16)

    pairs = []
    for point in (1 / 4, 3 / 8, 1 / 2, 5 / 8):
        for off in (5e-10, 1e-9, 2e-9, 1e-8, 1e-7, 1e-6):
            others = rest(E.dim - 1)
            pairs.append(([point + off] + others, [point - off] + others))
    others = rest(E.dim - 1)
    pairs += [([E.tol] + others, [0.0] + others), ([2 * E.tol] + others, [E.tol / 2] + others)]
    for x in (0.3, 0.5 - CLUSTER_GAP, 0.5 + 2e-9):
        others = rest(E.dim - 2)
        pairs.append(([x, x + CLUSTER_GAP] + others, [x, x + 2 * CLUSTER_GAP] + others))
    for spectra in pairs:
        q = np.linalg.qr(rng.standard_normal((E.dim, E.dim)))[0]
        elements = [sym(q @ np.diag(vals) @ q.T) for vals in spectra]
        families = []
        for a in elements:
            try:
                families.append(dict(binary_resolution(cb, a, n).entries))
            except InternalConsistencyError:
                pass
        for a in elements:
            for family in families:
                yield a, family


def _is_own(cb, a, fam, n) -> bool:
    """Whether the family is, bit for bit, a's resolution at depth n."""
    own = dict(binary_resolution(cb, a, n).entries)
    fam = dict(fam)
    return own.keys() == fam.keys() and all(
        np.asarray(own[k]).tobytes() == np.asarray(fam[k]).tobytes() for k in own)


def test_matrix_verdicts_do_not_change(matrix2, matrix3, monkeypatch):
    """``verify_resolution`` gives the rows and witnesses of a verify whose
    cells of clause (iv) all run the scalar ``_doubling_cell`` on the same
    cells, the symmetric parts of the differences of neighbouring runs, on
    seeded good and broken families, on the tolerance edges and on
    ``perfbench``'s verify families, but where a cell lies in the band
    where rounding may tip the scalar path
    (``test_matrices._rounding_may_tip``).  A family that differs there
    keeps the rows of (i) and (ii), and the scalar path fails it short of
    its cover where the walk passes it (the element's own resolution among
    them), or fails it at a step where the walk fails it short of its
    cover, at that cell or a later one, or short of its cover at the cell
    where the walk fails it at a step."""
    from test_matrices import _cell_spectrum, _rounding_may_tip

    rng = np.random.default_rng(17)
    seen, verdicts, differ = set(), set(), set()
    for E, cb in (matrix2, matrix3):
        doubling_cells = cb.doubling_cells
        tipped = []

        def recording(a, ws, us):
            out = doubling_cells(a, ws, us)
            verdicts.update(out)
            tipped.extend(_rounding_may_tip(E, w, _cell_spectrum(E, u, a))
                          for w, u in zip(ws, sym(us)))
            return out

        def scalar(a, ws, us):
            return [spectral._doubling_cell(cb, w, a, u) for w, u in zip(ws, sym(us))]

        cases = [(a, fam, 5) for a, fam in _matrix_families(E, cb, rng, 5, 5)]
        cases += [(a, fam, n) for n in (3, 5) for a, fam in _edge_matrix_families(E, cb, rng, n)]
        if E.dim == 3:
            cases += [(a, fam, 5) for a, fam in _perfbench_families(monkeypatch, cb, 12)]
        for a, fam, n in cases:
            def rows():
                rep = verify_resolution(cb, a, fam, n)
                return [(c.name, c.passed, c.mode, c.witness, c.detail) for c in rep.checks]
            tipped.clear()
            with monkeypatch.context() as m:
                m.setattr(cb, "doubling_cells", recording)
                got = rows()
            with monkeypatch.context() as m:
                m.setattr(cb, "doubling_cells", scalar)
                want = rows()
            _, passed, _, witness, detail = got[-1]
            if got != want:
                assert any(tipped) and got[:3] == want[:3], (E.label(a), n)
                by_scalar = want[-1][3]
                if passed:
                    assert by_scalar[1:] == ("cover",), (E.label(a), n)
                    differ.add("own" if _is_own(cb, a, fam, n) else "pass")
                elif witness[1:] == ("cover",):
                    assert by_scalar[1:] != ("cover",) and witness[0] >= by_scalar, \
                        (E.label(a), n)
                    differ.add("cover")
                else:
                    assert by_scalar == (witness, "cover"), (E.label(a), n)
                    differ.add("step")
            seen.add("pass" if passed else "skipped" if "skipped" in detail
                     else "cover" if witness[1:] == ("cover",) else "w")
    assert verdicts == {"pass", "fail", "cover"}, verdicts
    assert seen == {"pass", "skipped", "w", "cover"}, seen
    assert differ == {"own", "pass", "cover", "step"}, differ


def _chain_base(k, members):
    """The chain ``GridAlgebra(k, 1)`` with P = ``members`` and the maps
    J_p(x) = min(x, p): an unchecked base, which need not be closed under
    ' or differences."""
    E = core.GridAlgebra(k, 1)
    return E, compbase.CompressionBase(E, members,
                                       {p: np.minimum(np.arange(k + 1), p) for p in members})


def test_a_difference_outside_p_fails_its_cell():
    """Where P is not closed under differences, clause (iv) fails at the
    cell whose difference of runs lies outside P, with witness ``(w,
    "P")``: on the chain 0..4 with P = {0, 1, 3, 4} and maps min(x, p),
    the depth-1 family {0: 1, 1/2: 3, 1: 4} of 0 passes (i) and (ii), and
    its first cell, w = (0,), is 3 - 1 = 2.  With P = {0, 1, 2, 3, 4}
    the family fails that cell by its cover.  ``validate_base`` rejects
    both bases: min(x, p) is not additive."""
    family = {Fraction(0): 1, Fraction(1, 2): 3, Fraction(1): 4}
    for members, witness in (([0, 1, 3, 4], ((0,), "P")), (range(5), ((0,), "cover"))):
        E, cb = _chain_base(4, members)
        rep = verify_resolution(cb, 0, family, 1)
        assert [(c.name, c.passed, c.witness) for c in rep.checks] == [
            ("grid-complete", True, None), ("(i)-projections-commuting-with-a", True, None),
            ("(ii)-boundary-and-monotone", True, None), ("(iii)-right-continuous", False, None),
            ("(iv)-doubling-maps-exist", False, witness)]
        assert not compbase.validate_base(E, cb).passed


def test_a_base_that_misses_an_orthosupplement_raises_incomplete_base():
    """On the chain 0..4 with P = {0, 1, 4}, whose member 1 has the
    orthosupplement 3 outside P, a commutant of 1 raises
    ``IncompleteBase`` (as ``ortho_rows`` does), not a bare ``KeyError``:
    ``commutant_mask``, ``commutant_row``, ``in_commutant`` and clause (i)
    of ``verify_resolution``, on the chain and on its product with
    ``boolean(1)``."""
    E, cb = _chain_base(4, [0, 1, 4])
    with pytest.raises(IncompleteBase, match="no map at 3/4"):
        cb.ortho_rows()
    for call in (lambda: cb.commutant_mask(1), lambda: cb.commutant_row(1),
                 lambda: cb.in_commutant(0, 1),
                 lambda: verify_resolution(cb, 0, {Fraction(0): 1, Fraction(1, 2): 1,
                                                   Fraction(1): 4}, 1)):
        with pytest.raises(IncompleteBase, match="no map at 3/4"):
            call()
    B, bcb = instances.make_boolean(1)
    P = core.ProductAlgebra(E, B)
    pcb = compbase.product_base(P, cb, bcb)
    p = P.pair_index(1, 1)
    with pytest.raises(IncompleteBase):
        pcb.in_commutant(P.zero, p)
    assert cb.in_commutant(0, 4) and pcb.in_commutant(P.zero, P.one)


def test_a_one_step_whose_double_is_undefined_fails(matrix2):
    """f_1 needs q - cur <= cur, and then 2(q - cur) <= 1 for the sum: both
    read 2y - 1 on the eigenvalue y of cur, and rounding can put them on
    either side of -tol.  Where the first holds and the second fails, the
    scalar step fails; ``apply_fw`` passed ``None`` on to ``ominus``
    before.  Here a's eigenvalue sits tol/2 below 1/2, at the 1-step of the
    depth-3 cell (1, 0, 0) of the family of its neighbour tol/2 above 1/2:
    the walk reads both tests as exactly -tol and passes them, and the
    image, about -4 tol after two 0-steps, fails the cover test there."""
    E, cb = matrix2
    t = np.radians(14)
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    a, b = (sym(rot @ np.diag([3 / 16, 0.5 + d]) @ rot.T) for d in (-5e-10, 5e-10))
    u = cb.meet_proj(sym(np.outer(rot[:, 1], rot[:, 1])), E.one)
    cur = cb.apply(u, a)
    comp = E.ominus(u, cur)
    assert E.leq(comp, cur) and E.sum(comp, comp) is None
    assert apply_fw(cb, (1,), cur, u) is None
    rep = verify_resolution(cb, a, binary_resolution(cb, b, 3).entries, 3)
    assert [(c.passed, c.witness) for c in rep.checks[3:]] == [(False, None),
                                                               (False, ((1, 0, 0), "cover"))]


def _perfbench_matrices(monkeypatch, count):
    """The first ``count`` effects of ``perfbench``'s matrix stream, seed 7."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.wl_resolve import matrix_stream

    stream = matrix_stream(np.random.default_rng(7), 3)
    return [next(stream)[0] for _ in range(count)]


def _perfbench_families(monkeypatch, cb, count):
    """``perfbench``'s depth-5 verify families on its matrix stream: each
    effect's resolution, and the same perturbed as the benchmark does."""
    effects = _perfbench_matrices(monkeypatch, count)
    from perfbench import checks

    def same(p, q):
        return np.allclose(p, q, atol=1e-9)

    for a in effects:
        family = binary_resolution(cb, a, 5).entries
        yield a, family
        yield a, checks.perturb(family, cb.algebra.zero, same)


def test_clause_iv_on_matrices_is_one_stacked_eigvalsh(monkeypatch):
    """On a depth-5 verify of ``perfbench``'s matrix stream, clause (iv)
    hands its cells to one ``doubling_cells`` call, one depth-n cell per
    jump of the family, as one stack of differences of runs.  It makes one
    stacked ``eigvalsh`` of one matrix per cell, no ``eigh`` and no scalar
    ``_doubling_cell``: 142 cells on 50 effects.  The whole verify makes
    three ``eigvalsh`` calls (the element's check, clause (ii) and clause
    (iv)) and no ``eigh``."""
    E, cb = instances.make_matrix(3)
    effects = _perfbench_matrices(monkeypatch, 50)
    calls = {"doubling_cells": 0, "cells": 0, "eigh": 0, "eigvalsh": 0, "scalar": 0}
    stacks, inside, whole = [], [], []

    def counting(name, fn):
        def call(*args):
            whole.append(name)
            if inside or name == "scalar":
                calls[name] += 1
                if name != "scalar":
                    stacks.append(len(args[0]))
            return fn(*args)
        return call

    def doubling_cells(a, ws, us, real=cb.doubling_cells):
        calls["doubling_cells"] += 1
        calls["cells"] += len(ws)
        assert len(us) == len(ws)
        inside.append(1)
        try:
            return real(a, ws, us)
        finally:
            inside.clear()

    monkeypatch.setattr(cb, "doubling_cells", doubling_cells)
    monkeypatch.setattr(spectral, "_doubling_cell", counting("scalar", spectral._doubling_cell))
    total = 0
    for a in effects:
        res = binary_resolution(cb, a, 5)
        calls.update(doubling_cells=0, cells=0, eigh=0, eigvalsh=0, scalar=0)
        stacks.clear()
        whole.clear()
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
            m.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
            assert verify_resolution(cb, a, res.entries, 5).passed
        cells = _jumps(res)
        assert calls == {"doubling_cells": 1, "cells": cells, "eigh": 0, "eigvalsh": 1,
                         "scalar": 0}, calls
        assert stacks == [cells]
        assert whole == ["eigvalsh"] * 3, whole
        total += cells
    assert total == 142


def test_a_matrix_verify_makes_no_unit(monkeypatch):
    """The matrix carrier makes its units once: depth-5 verifies of
    ``perfbench``'s matrix stream, the computed families and the perturbed
    ones, call no ``np.eye``.  A unit made on each access cost 3.4 calls
    per verify here."""
    E, cb = instances.make_matrix(3)
    eyes = []
    real = np.eye
    monkeypatch.setattr(np, "eye", lambda *args, **kw: eyes.append(args) or real(*args, **kw))
    families = list(_perfbench_families(monkeypatch, cb, 20))
    eyes.clear()
    verdicts = [verify_resolution(cb, a, family, 5).passed for a, family in families]
    assert verdicts == [True, False] * 20
    assert eyes == []


def test_clause_iv_on_a_product_makes_no_scalar_op_on_the_product():
    """On ``boolean(2) x mv(8,3)`` clauses (ii) and (iv) are decided on the
    leaf bases: a verify calls no ``sum``, ``leq`` or ``ominus`` of the
    product carrier and no ``meet_proj`` of any base, and each leaf forms
    one difference (``ominus`` of its carrier) per pair of clause (ii),
    one for p_0 <= a' and one per jump, which clause (iv) reads."""
    E, cb = instances.make_product(instances.make_boolean(2), instances.make_mv_product(8, 3))
    calls = {"meet": 0, "sum": 0, "leq": 0, "ominus": 0, "leaf ominus": 0}

    def counting(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    bases = {id(b): b for b in _bases_below(cb)}.values()
    carriers = {id(leaf.algebra): leaf.algebra for leaf, _, _ in cb.leaf_layout}.values()
    for a in np.random.default_rng(6).permutation(E.size)[:25].tolist():
        res = binary_resolution(cb, a, 4)
        with pytest.MonkeyPatch.context() as m:
            for base in bases:
                m.setattr(base, "meet_proj", counting("meet", base.meet_proj))
            for name in ("sum", "leq", "ominus"):
                m.setattr(E, name, counting(name, getattr(E, name)))
            for leaf in carriers:
                m.setattr(leaf, "ominus", counting("leaf ominus", leaf.ominus))
            calls.update({name: 0 for name in calls})
            assert verify_resolution(cb, a, res.entries, 4).passed
        assert calls == {"meet": 0, "sum": 0, "leq": 0, "ominus": 0,
                         "leaf ominus": len(res.jumps) * len(cb.leaf_layout)}, a


def test_prefix_sums_test_no_order_past_the_sum(monkeypatch):
    """A defined sum lies above its summands, so ``_layer_jumps`` tests no
    order of its own, and on matrices it tests all its prefix sums below
    the unit in one stacked ``eigvalsh``.  A depth-8 ``rational_resolution``
    of each of 50 effects of ``perfbench``'s matrix stream makes one
    ``eigh``, its tree's, which also checks the element, and one
    ``eigvalsh`` of one matrix per cell of the depth-8 layer: 142 in all.
    On ``boolean(2) x mv(8,3)`` ``_layer_jumps`` calls no ``leq`` of the
    product or of a leaf carrier."""
    E, cb = instances.make_matrix(3)
    calls, cells = {"eigh": [], "eigvalsh": []}, 0
    for name in calls:
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda m, name=name, real=real: calls[name].append(len(m)) or real(m))
    for a in _perfbench_matrices(monkeypatch, 50):
        layer = len(splitting_tree(cb, a, 8).layer(8))
        calls["eigh"].clear()
        calls["eigvalsh"].clear()
        rational_resolution(cb, a, Fraction(1, 3), 8)
        assert calls == {"eigh": [E.dim], "eigvalsh": [layer]}
        cells += layer
    assert cells == 142

    P, pcb = instances.make_product(instances.make_boolean(2), instances.make_mv_product(8, 3))
    leqs = []
    for algebra in {id(b.algebra): b.algebra for b in _bases_below(pcb)}.values():
        monkeypatch.setattr(algebra, "leq", lambda x, y, real=algebra.leq: leqs.append(1) or
                            real(x, y))
    for a in np.random.default_rng(6).permutation(P.size)[:25].tolist():
        res = binary_resolution(pcb, a, 4)
        leqs.clear()
        assert spectral._layer_jumps(P, res.tree._u, 4) == list(res.jumps)
        assert leqs == [], a


def test_clause_ii_on_matrices_is_one_stacked_eigvalsh(monkeypatch):
    """Clause (ii) tests the boundary p_0 <= a' and each run below the
    next in one ``leq_pairs`` call: on depth-5 verifies of ``perfbench``'s
    matrix stream, one ``eigvalsh`` with one matrix per run.  The verify
    makes three in all: the element's check, clause (ii) and clause (iv)."""
    E, cb = instances.make_matrix(3)
    stacks = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: stacks.append(np.shape(m)) or real(m))
    pairs = []
    leq_pairs = E.leq_pairs
    monkeypatch.setattr(E, "leq_pairs", lambda xs, ys: pairs.append(len(xs)) or leq_pairs(xs, ys))
    for a in _perfbench_matrices(monkeypatch, 50):
        res = binary_resolution(cb, a, 5)
        stacks.clear()
        pairs.clear()
        assert verify_resolution(cb, a, res.entries, 5).passed
        runs = len(res.jumps)
        assert pairs == [runs]
        assert stacks == [(3, 3), (runs, 3, 3), (_jumps(res), 3, 3)]


def test_clause_ii_on_an_enumerable_base_reads_the_leaves(monkeypatch):
    """Clause (ii) on an enumerable base reads each pair leaf by leaf, from
    the splits that (i) made (an entry that is no projection splits on its
    own), and makes no ``leq_pairs`` call on the carrier: on the carriers
    of ``_leaf_route_cases``, seeded broken tables among them, its row is
    what ``E.leq_pairs`` over the pairs (p_0, a'), (p_t, p_t+1) gives, on
    seeded families of projections and of other elements, ending in 1 or
    not, in the depth-3 grid."""
    outcomes = set()
    rng = np.random.default_rng(52)
    for name, (E, cb) in _leaf_route_cases():
        P = cb.projections
        for _ in range(12):
            a = int(rng.integers(0, E.size))
            pool = P if P and rng.random() < 0.5 else range(E.size)
            ps = sorted(int(pool[k]) for k in rng.integers(0, len(pool), int(rng.integers(1, 4))))
            if rng.random() < 0.8:
                ps.append(E.one)
            starts = [0] + sorted(rng.choice(np.arange(1, 9), len(ps) - 1, replace=False).tolist())
            family = {Fraction(j, 8): ps[bisect_right(starts, j) - 1] for j in range(9)}
            runs = [family[Fraction(j, 8)] for j in starts]
            want = E.eq(runs[-1], E.one) and bool(E.leq_pairs(
                np.array(runs[:1] + runs[:-1]), np.array([E.ortho(a)] + runs[1:])).all())
            with monkeypatch.context() as m:
                m.setattr(E, "leq_pairs", lambda xs, ys: pytest.fail("leq_pairs"))
                rep = _outcome_or_error(lambda: verify_resolution(cb, a, family, 3))
            if isinstance(rep, type):  # (i) read a commutant that raised: p' not in P
                outcomes.add(rep)
                continue
            row = rep.checks[2]
            assert (row.name, row.passed, row.witness, row.detail) == \
                ("(ii)-boundary-and-monotone", want, None, ""), (name, a, family)
            outcomes.add((rep.checks[1].passed, want))
    assert {(True, True), (True, False), (False, True), (False, False)} <= outcomes, outcomes


def _leaf_bases():
    """The chain ``mv(16,1)`` and the 81-element table of ``[0, (8,8,0)]``
    in ``mv(8,3)``: two bases without factors."""
    E, cb = instances.make_mv_product(8, 3)
    yield "mv(16,1)", instances.make_mv_product(16, 1)
    yield "restrict(mv(8,3), (8,8,0))", comparability.restrict(cb, E.index_of([8, 8, 0]))


def _clause_iv_cells(cb, fam):
    """``(w, u_w)`` for every cell that clause (iv) lists on the family
    ``fam``, one per jump, as ``verify_resolution`` lists them, where
    ``meet_proj`` finds ``u_w``."""
    E, n = cb.algebra, fam.depth
    for j, _ in fam.jumps[1:]:
        hi, lo = fam.at_index(j), E.ortho(fam.at_index(j - 1))
        if cb.is_projection(hi) and cb.is_projection(lo):
            u = cb.meet_proj(hi, lo)
            if u is not None:
                yield string_of(j - 1, n), u


def test_a_leaf_base_is_its_own_one_leaf(monkeypatch):
    """On a base without factors clause (iv) decides each cell by
    ``_cell_verdict`` on one leaf.  On every cell of the computed,
    perturbed and neighbour families of every element at depths 3 and 5
    of the chain ``mv(16,1)`` and of the table ``restrict(mv(8,3),
    (8,8,0))``, it gives what ``_doubling_cell`` gives, or raises the
    same error."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import checks

    outcomes = set()
    for name, (E, cb) in _leaf_bases():
        assert cb.factors is None
        for n in (3, 5):
            own = [binary_resolution(cb, a, n).entries for a in range(E.size)]
            for a in range(E.size):
                for family in (own[a], checks.perturb(own[a], E.zero, operator.eq),
                               own[(a + 1) % E.size]):
                    fam = spectral._as_resolution(E, a, family, n)
                    for w, u in _clause_iv_cells(cb, fam):
                        want = _factor_outcome(lambda: spectral._doubling_cell(cb, w, a, u))
                        got = _factor_outcome(lambda: spectral._cell_verdict(
                            spectral._pair_walk([(cb, a, 1)], [(cb, u, 1)], w)))
                        assert got == want, (name, n, a, w, u)
                        outcomes.add(want)
    assert outcomes == {"pass", "fail", "cover"}, outcomes


@pytest.mark.parametrize("name", ["mv(8,1)", "mv(8,3)", "boolean(2) x mv(8,3)"])
def test_verify_refuses_an_element_outside_the_carrier(name):
    """``verify_resolution`` checks its element on an enumerable base, as
    ``splitting_tree`` does: a negative index does not wrap round to the
    last element, and an index past the end, a float or None is no
    element, on a chain, a grid and a product."""
    mv83 = instances.make_mv_product(8, 3)
    E, cb = {"mv(8,1)": instances.make_mv_product(8, 1), "mv(8,3)": mv83,
             "boolean(2) x mv(8,3)": instances.make_product(instances.make_boolean(2), mv83)}[name]
    family = binary_resolution(cb, E.size - 1, 3).entries
    assert verify_resolution(cb, E.size - 1, family, 3).passed
    for a in (-1, E.size, 2.5, None):
        with pytest.raises(ElementNotInCarrier):
            verify_resolution(cb, a, family, 3)


def test_scalar_tests_lie_within_the_rounding_bound(matrix2, matrix3):
    """The premise of ``test_matrices._rounding_may_tip``, the band where
    the tests let the scalar ``_doubling_cell`` differ from the walk of
    ``doubling_cells``, on seeded cells: each eigenvalue of every matrix
    whose least eigenvalue ``apply_fw`` or the test img <= u reads, formed
    by the same arithmetic, and of the image, lies within beta = 32 * dim *
    eps * 2^len(w) of the value that the walk of the eigenvalues of b + 2u
    gives it; and above the cover band the image's cover lies within the
    Davis-Kahan distance of u, inside tol.  Each w is the cell of b's least
    eigenvalue on range(u), and the walk stops once an eigenvalue leaves
    [-tol, 1 + tol]."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(41)
    for E, cb in (matrix2, matrix3, instances.make_matrix(4)):
        for _ in range(60):
            a = E.random_effect(rng)
            u = cb.meet_proj(E.random_projection(rng), E.one)
            rank = round(float(np.trace(u)))
            ys = np.linalg.eigvalsh(cb.apply(u, a) + 2 * u)[E.dim - rank:] - 2
            w, y = [], ys[0]
            for _ in range(int(rng.integers(0, 12))):
                w.append(int(2 * y - 1 > E.tol))
                y = 2 * y - w[-1]
            beta = 32 * E.dim * eps * 2.0 ** len(w)

            def near(matrix, on_range, off_range):
                want = np.concatenate([np.full(E.dim - rank, float(off_range)), on_range])
                return np.abs(np.linalg.eigvalsh(sym(matrix)) - np.sort(want)).max() <= beta

            cur = cb.apply(u, a)
            for bit in w:
                comp = sym(u - cur)
                assert near(u - cur, 1 - ys, 0)
                if bit == 0:
                    assert near(comp - cur, 1 - 2 * ys, 0)
                    assert near(E.one - (cur + cur), 1 - 2 * ys, 1)
                    cur = sym(cur + cur)
                else:
                    double = sym(comp + comp)
                    assert near(cur - comp, 2 * ys - 1, 0)
                    assert near(E.one - (comp + comp), 2 * ys - 1, 1)
                    assert near(u - double, 2 * ys - 1, 0)
                    cur = sym(u - double)
                ys = 2 * ys - bit
                if ys.min() < -E.tol or ys.max() > 1 + E.tol:
                    break
            else:
                assert near(u - cur, 1 - ys, 0) and near(cur, ys, 0)
                if ys.min() > beta + beta / (E.tol - beta):
                    dk = beta / (ys.min() - beta) + beta
                    assert np.abs(cb.cover(cur) - u).max() <= dk <= E.tol


def test_stacked_calls_give_each_cell_its_own_bits(monkeypatch):
    """The premise of ``doubling_cells``: on the cells that clause (iv)
    lists for seeded, perturbed and edge families of matrix(2..4), the
    stack of differences of runs, its symmetric part, u a u and
    ``eigvalsh`` of b + 2u, with one entry per cell, are bit for bit the
    calls on one cell.  Each cell's difference is the one of the entries
    that the cell reads off the family."""
    rng = np.random.default_rng(47)
    checked = 0
    for dim in (2, 3, 4):
        E, cb = instances.make_matrix(dim)
        seen = []
        real = cb.doubling_cells
        monkeypatch.setattr(cb, "doubling_cells", lambda *args: seen.append(args) or real(*args))
        for a, fam in _bit_families(E, cb, rng, monkeypatch):
            n = max(f.denominator for f in fam).bit_length() - 1
            seen.clear()
            verify_resolution(cb, a, fam, n)
            if not seen:
                continue
            (_, ws, ds), = seen
            us = sym(ds)
            bs = sym(us @ a @ us)
            spectra = np.linalg.eigvalsh(bs + 2.0 * us)
            res = spectral._as_resolution(E, a, fam, n)
            for i, (w, d) in enumerate(zip(ws, ds)):
                assert len(w) == n
                hi, lo = res.at_index(k_of(w) + 1), res.at_index(k_of(w))
                assert np.array_equal(d, np.asarray(hi) - np.asarray(lo)), w
                u = sym(d)
                assert np.array_equal(us[i], u)
                assert np.array_equal(bs[i], cb.apply(u, a))
                assert np.array_equal(spectra[i], np.linalg.eigvalsh(cb.apply(u, a) + 2.0 * u))
                checked += 1
    assert checked > 1000, checked


def _bit_families(E, cb, rng, monkeypatch):
    """Seeded and broken families (``_matrix_families``), ``perfbench``'s
    perturbation of stream effects' resolutions, and edge families."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import checks
    from perfbench.wl_resolve import matrix_stream

    yield from _matrix_families(E, cb, rng, 4, 5)
    stream = matrix_stream(rng, E.dim)
    for _ in range(6):
        a = next(stream)[0]
        for n in (4, 6):
            family = binary_resolution(cb, a, n).entries
            yield a, dict(family)
            yield a, checks.perturb(family, E.zero, lambda p, q: np.allclose(p, q, atol=1e-9))
    yield from _edge_matrix_families(E, cb, rng, 6)


# Effects of ``scripts/verify_digest.py``'s edge spectra: one eigenvalue
# 1e-8 above 1/2, where a cell's image has a least eigenvalue of 2^n 1e-8
EDGE_EFFECTS = {
    "matrix(3)": [[0.23981025302557563, 0.09896054282891015, 0.25209314854818954],
                  [0.09896054282891015, 0.7125257765623197, 0.1084606859106203],
                  [0.25209314854818954, 0.1084606859106203, 0.42266398041210457]],
    "matrix(4)": [[0.17320704477241006, -0.06244510121044114, 0.09224043483263696,
                   -0.15572487131305152],
                  [-0.06244510121044114, 0.31563195035214764, 0.022604768497971293,
                   0.24860184008661262],
                  [0.09224043483263696, 0.022604768497971293, 0.5330306229714252,
                   0.23792387326872882],
                  [-0.15572487131305152, 0.24860184008661262, 0.23792387326872882,
                   0.6656303919040172]],
}


def test_own_resolutions_of_non_dyadic_spectra_verify(matrix2, matrix3):
    """A matrix effect's own resolution passes at every depth, whether or
    not the depth resolves its spectrum: 50 seeded ``random_effect``s of
    matrix(2) and of matrix(3) at depths 1 to 12, and the 3-4-5 rotations
    of the spectra (0.6, 0.9), (0.3, 0.7) and (0.1, 0.8), none of whose
    eigenvalues is dyadic.  So do the edge effects with spectrum (1/16,
    (3/16,) 1/2 + 1e-8, 13/16 or 15/16) at depths 3 to 6, where a cell of
    level 1 would read an image eigenvalue of only 2e-8, and 20 seeded
    rotations each of (1/16, 1/2 + 1e-8, 13/16), (1/16, 1/2 + 1e-8), (1/16,
    1/4 + 2e-9, 1/2 + 1e-8, 15/16) and (0.3, 3/4 + 5e-9) at depths 3 to 6,
    whose cell above the grid point reads an image eigenvalue of 2^n
    times the offset: the scalar cover of such an image misses u by more
    than tol."""
    rng = np.random.default_rng(37)
    cases = [(cb, E.random_effect(rng), n) for E, cb in (matrix2, matrix3)
             for _ in range(50) for n in range(1, 13)]
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    cases += [(matrix2[1], sym(rot @ np.diag(vals) @ rot.T), n)
              for vals in ((0.6, 0.9), (0.3, 0.7), (0.1, 0.8)) for n in range(1, 13)]
    for name, a in EDGE_EFFECTS.items():
        cb = instances.make_matrix(len(a))[1]
        cases += [(cb, np.array(a), n) for n in range(3, 7)]
    rng = np.random.default_rng(5)
    for vals in ((1 / 16, 1 / 2 + 1e-8, 13 / 16), (1 / 16, 1 / 2 + 1e-8),
                 (1 / 16, 1 / 4 + 2e-9, 1 / 2 + 1e-8, 15 / 16), (0.3, 3 / 4 + 5e-9)):
        E, cb = instances.make_matrix(len(vals))
        cases += [(cb, a, n) for a in [E.random_effect(rng, vals) for _ in range(20)]
                  for n in range(3, 7)]
    for cb, a, n in cases:
        rep = verify_resolution(cb, a, binary_resolution(cb, a, n), n)
        assert rep.passed, (cb.algebra.label(a), n, rep.summary())


def test_a_family_of_one_run_verifies_on_matrices(matrix2, matrix3):
    """The resolution of 0 is one run, p = 1 throughout: it has no jump and
    clause (iv) no cell, so no p' and no meet are formed, on matrices as
    on finite bases.  Its rows, and those of 1 and 1/2 at depths 0 to 3,
    as a resolution and as a dict, are the point-by-point scan's, and each
    passes: 1 at depth 0 too, whose one cell () is the whole of [0, 1]."""
    for E, cb in (matrix2, matrix3):
        for a in (E.zero, E.one, 0.5 * E.one):
            for n in range(4):
                res = binary_resolution(cb, a, n)
                assert (len(res.jumps) == 1) == (a is E.zero)
                for fam in (res.entries, dict(res.entries)):
                    rep = verify_resolution(cb, a, fam, n)
                    assert rep.passed, (E.label(a), n)
                    assert verdict_rows(rep) == reference_verify(cb, a, fam, n), (E.label(a), n)


def test_verify_matches_pointwise_scan_on_matrix_families(matrix2, matrix3):
    """Rows and witnesses equal the point-by-point scan, whose clause (iii)
    forms the meets in P, on seeded good and broken matrix families."""
    rng = np.random.default_rng(23)
    for E, cb in (matrix2, matrix3):
        for a, fam in _matrix_families(E, cb, rng, 3, 5):
            assert verdict_rows(verify_resolution(cb, a, fam, 5)) == \
                reference_verify(cb, a, fam, 5)


# ---------------------------------------------------------------------------
# resolutions are chains, and cells are differences: no meet in P


def _counting_meets(cb, monkeypatch) -> list:
    """Every meet from now on, by name: each ``meet_proj`` call of ``cb``
    and, on an enumerable base, each ``p_meet_table`` call of it and of
    every base below it, and each ``meet_pairs`` call of their carriers."""
    calls = []

    def counting(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    for base in _bases_below(cb) if cb.enumerable else [cb]:
        names = ("meet_proj", "p_meet_table") if cb.enumerable else ("meet_proj",)
        for name in names:
            monkeypatch.setattr(base, name, counting(name, getattr(base, name)))
    if cb.enumerable:
        for E in {id(b.algebra): b.algebra for b in _bases_below(cb)}.values():
            monkeypatch.setattr(E, "meet_pairs", counting("meet_pairs", E.meet_pairs))
    return calls


def _jumps(res) -> int:
    """The jumps of ``res``: one depth-n cell of clause (iv) each."""
    return len(res.jumps) - 1


def _seeded_matrices(E, rng, count):
    """Effects with distinct eigenvalues j/16, randomly rotated."""
    for _ in range(count):
        vals = np.sort(rng.choice(17, size=E.dim, replace=False)) / 16.0
        q = np.linalg.qr(rng.standard_normal((E.dim, E.dim)))[0]
        yield sym(q @ np.diag(vals) @ q.T)


def _seeded_elements(E, rng, count):
    return rng.permutation(E.size)[:count].tolist()


def _a_state(E):
    """A state of E: equal weights on a grid, the even mixture of the
    factors' states on a product, and the maximally mixed density matrix."""
    if not E.enumerable:
        return DensityState(E, E.one / E.dim)
    if isinstance(E, core.ProductAlgebra):
        left, right = _a_state(E.left), _a_state(E.right)
        ia, ib = E.split_index(np.arange(E.size))
        return core.State(E, [(left(x) + right(y)) / 2 for x, y in zip(ia.tolist(), ib.tolist())])
    return instances.weighted_state(E, [Fraction(1, E.d)] * E.d)


RESOLVE_CASES = {
    "mv(8,3)": lambda: (*instances.make_mv_product(8, 3), _seeded_elements),
    "boolean(2) x mv(8,3)": lambda: (*instances.make_product(
        instances.make_boolean(2), instances.make_mv_product(8, 3)), _seeded_elements),
    "matrix(3)": lambda: (*instances.make_matrix(3), _seeded_matrices),
}


@pytest.mark.parametrize("name", list(RESOLVE_CASES))
def test_no_meet_in_p_once_the_base_is_spectral(name, monkeypatch):
    """On a base already judged spectral (the spectrality scan reads meets
    in E), ``binary_resolution``, ``rational_resolution``,
    ``expectation_bounds`` and ``verify_resolution`` make no
    ``meet_proj``, ``p_meet_table`` or ``meet_pairs`` call, and a matrix
    verify makes no ``eigh``: a resolution is a chain, so the meet of its
    entries above a point is the next entry, and each cell of clause (iv)
    is the difference of neighbouring runs.  Every family passes, at depth
    2 too, short of the spectral values."""
    E, cb, elements = RESOLVE_CASES[name]()
    comparability.require_spectral(cb)
    state = _a_state(E)
    state.require_valid()
    calls = _counting_meets(cb, monkeypatch)
    eighs, eigh = [], np.linalg.eigh
    rng = np.random.default_rng(5)
    for a in elements(E, rng, 12):
        for n in (2, 5, 6):  # short of the eigenvalues j/16 and the grids' 1/8, and past
            for lam in (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(1)):
                _factor_outcome(lambda: rational_resolution(cb, a, lam, n))
            expectation_bounds(cb, a, state, n)
            res = binary_resolution(cb, a, n)
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigh", lambda *args: eighs.append(args) or eigh(*args))
                for family in (res.entries, dict(res.entries)):
                    assert verify_resolution(cb, a, family, n).passed, (a, n)
            assert calls == [] and eighs == [], (a, n)


VERIFY_CASES = {  # the instances of perfbench's resolve workload, at its verify depths
    "mv(8,3)": (RESOLVE_CASES["mv(8,3)"], 5),
    "mv(16,2)": (lambda: (*instances.make_mv_product(16, 2), _seeded_elements), 5),
    "boolean(2) x mv(8,3)": (RESOLVE_CASES["boolean(2) x mv(8,3)"], 4),
    "matrix(3)": (RESOLVE_CASES["matrix(3)"], 5),
}


@pytest.mark.parametrize("name", list(VERIFY_CASES))
def test_verify_reads_a_resolution_by_its_jumps(name, monkeypatch):
    """``verify_resolution`` handed a resolution reports row for row what it
    reports on its ``entries`` and on the same family as a plain dict, for
    the element's own resolution (every row passes) and for another
    element's (some row fails), and it converts no grid point to do so."""
    make, n = VERIFY_CASES[name]
    E, cb, elements = make()
    rng = np.random.default_rng(32)
    picked = list(elements(E, rng, 13))
    calls = []
    real = spectral.grid_index

    def counted(lam, depth):
        calls.append(lam)
        return real(lam, depth)

    monkeypatch.setattr(spectral, "grid_index", counted)
    failing = 0
    for a, b in zip(picked, picked[1:] + picked[:1]):
        for own, x in ((True, a), (False, b)):
            res = binary_resolution(cb, x, n)
            rows = [[(c.name, c.passed, c.mode, c.witness, c.detail)
                     for c in verify_resolution(cb, a, family, n).checks]
                    for family in (res, res.entries, dict(res.items()))]
            assert rows[0] == rows[1] == rows[2], (name, own)
            passed = all(ok for _, ok, *_ in rows[0])
            assert passed or not own, name
            failing += not passed
        assert calls, name  # the dict is read point by point
        calls.clear()
        verify_resolution(cb, a, binary_resolution(cb, b, n), n)
        assert calls == [], name
    assert failing


def test_verify_refuses_a_resolution_of_another_depth_at_once():
    """A resolution, or its ``entries``, of another depth than the one
    verified fails ``grid-complete`` alone, without expanding its grid:
    a depth-40 family has 2^40 + 1 points."""
    E, cb = instances.make_mv_product(8, 3)
    a = E.index_of((3, 5, 1))
    for depth in (40, 2):
        res = binary_resolution(cb, a, depth)
        for family in (res, res.entries):
            rep = verify_resolution(cb, a, family, 4)
            assert [(c.name, c.passed) for c in rep.checks] == [("grid-complete", False)]


@pytest.mark.parametrize("name", list(_criterion_01_instances()))
def test_meet_of_a_comparable_pair_is_its_lesser(name):
    """The lemma that lets resolutions skip their meets: for p <= q in P,
    p ^ q = p, on criterion 01's bases, each alone and times each."""
    named = _criterion_01_instances()
    cases = [named[name]] + [instances.make_product(named[name], named[other], validate=False)
                             for other in named]
    for E, cb in cases:
        comparable = 0
        for p in cb.projections:
            for q in cb.projections:
                if E.leq(p, q):
                    assert cb.meet_proj(p, q) == cb.meet_proj(q, p) == p, (E.label(p),
                                                                           E.label(q))
                    comparable += 1
        assert comparable >= len(cb.projections)


def test_meet_of_comparable_matrix_projections_is_the_lesser(matrix2, matrix3):
    """The same lemma on seeded pairs p <= q of matrix projections, both
    spanned by leading columns of one random orthogonal matrix: equal
    within ``tol``."""
    rng = np.random.default_rng(29)
    for E, cb in (matrix2, matrix3):
        for _ in range(40):
            basis = np.linalg.qr(rng.standard_normal((E.dim, E.dim)))[0]
            i, j = sorted(rng.integers(0, E.dim + 1, 2).tolist())
            p, q = (sym(basis[:, :r] @ basis[:, :r].T) for r in (i, j))
            assert E.leq(p, q) and cb.is_projection(p) and cb.is_projection(q)
            assert E.eq(cb.meet_proj(p, q), p) and E.eq(cb.meet_proj(q, p), p), (i, j)


def test_is_projection_is_membership_of_p(mv42, matrix2):
    E, cb = mv42
    for x in range(E.size):
        assert cb.is_projection(x) is (x in cb.p_set)
        assert cb.is_projection(np.int64(x)) is (x in cb.p_set)
    assert not cb.is_projection(float(cb.projections[0]))
    assert not cb.is_projection(np.array(cb.projections[0]))
    M, mcb = matrix2
    assert mcb.is_projection(M.one) and not mcb.is_projection(M.one / 2)
