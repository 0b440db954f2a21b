import numpy as np
import pytest
from fractions import Fraction

from effalg import comparability as cmp
from effalg import core, instances
from effalg.errors import ComparabilityMissing, MalformedInput


def test_a_restriction_to_no_projection_is_malformed_input(mv83):
    E, cb = mv83
    with pytest.raises(MalformedInput, match="restriction requires a projection"):
        cmp.restrict(cb, E.index_of([4, 8, 0]))


def test_projections_are_b_elements(mv83, bool3, mo2):
    for E, cb in (mv83, bool3, mo2):
        for p in cb.projections:
            assert cmp.has_b_property(cb, p)


def test_all_b(mv83, mv42, mo2, hsum_l8):
    for E, cb in (mv83, mv42, mo2, hsum_l8):
        assert cmp.all_b(cb)


def test_everything_commutes_in_one_c_block(mv83):
    E, cb = mv83
    rng = np.random.default_rng(2)
    for _ in range(20):
        e, f = (int(x) for x in rng.integers(0, E.size, 2))
        assert cmp.commute(cb, e, f)
    a = E.index_of([2, 4, 7])
    assert cmp.commute(cb, a, E.ortho(a))


def test_p_le_set_examples(mv83, bool3):
    E, cb = mv83
    e = E.index_of([2, 4, 7])
    f = E.index_of([4, 4, 4])
    pl = set(int(p) for p in cmp.p_le_set(cb, e, f))
    assert E.index_of([8, 8, 0]) in pl
    assert E.index_of([8, 0, 0]) in pl  # coordinate 2 ties are free
    assert E.index_of([0, 0, 8]) not in pl

    B, bcb = bool3
    p, q = 0b001, 0b011
    assert q in set(int(x) for x in cmp.p_le_set(bcb, p, q))
    # e = f admits the whole bicommutant
    assert set(int(x) for x in cmp.p_le_set(bcb, p, p)) == \
        set(int(x) for x in bcb.bicommutant_set(p))


def test_positive_part(mv83, bool3):
    E, cb = mv83
    a = E.index_of([2, 4, 7])
    b = E.index_of([4, 4, 4])
    assert cmp.positive_part(cb, b, a) == E.index_of([2, 0, 0])
    assert cmp.positive_part(cb, a, a) == E.zero
    # zero positive part exactly when b <= a
    rng = np.random.default_rng(3)
    for _ in range(40):
        x, y = (int(v) for v in rng.integers(0, E.size, 2))
        assert (cmp.positive_part(cb, y, x) == E.zero) == E.leq(y, x)

    B, bcb = bool3
    p, q = 0b101, 0b011
    assert cmp.positive_part(bcb, q, p) == (q & ~p) & (B.size - 1)


def test_split_examples(mv83):
    E, cb = mv83
    c = E.index_of([2, 4, 7])
    sr = cmp.split(cb, c, E.one)
    assert sr.u0 == E.index_of([8, 8, 0])
    assert sr.u1 == E.index_of([0, 0, 8])
    assert sr.c0 == E.index_of([4, 8, 0])
    assert sr.c1 == E.index_of([0, 0, 6])
    z = cmp.split(cb, E.zero, E.one)
    assert (z.u0, z.u1, z.c0, z.c1) == (E.one, E.zero, E.zero, E.zero)
    f = cmp.split(cb, E.one, E.one)
    assert (f.u0, f.u1, f.c0, f.c1) == (E.zero, E.one, E.zero, E.one)


def test_split_result_invariants(mv42):
    E, cb = mv42
    rng = np.random.default_rng(4)
    for _ in range(30):
        q = int(rng.choice(cb.projections))
        below = np.flatnonzero(E.lower_bounds(q))
        c = int(rng.choice(below))
        sr = cmp.split(cb, c, q)
        assert E.sum(sr.u0, sr.u1) == q
        assert E.leq(sr.c0, sr.u0) and E.leq(sr.c1, sr.u1)
        # doubled compressions exist
        j0 = cb.apply(sr.u0, c)
        assert E.sum(j0, j0) is not None
        j1 = cb.apply(sr.u1, E.ominus(q, c))
        assert E.sum(j1, j1) is not None


def test_splitting_projections(mv42):
    """q splits a iff q is in P_<=(a, a'); the complement splits a'."""
    E, cb = mv42
    for a in range(E.size):
        splits = set(int(p) for p in cmp.p_le_set(cb, a, E.ortho(a)))
        for q in splits:
            assert E.ortho(q) in set(int(p) for p in cmp.p_le_set(cb, E.ortho(a), a))
        # the largest splitting projection dominates the set
        pp = cmp.positive_part(cb, a, E.ortho(a))  # (a - a')_+
        largest = E.ortho(cb.cover(pp))
        assert largest in splits
        for q in splits:
            assert E.leq(q, largest)


def test_interval_positive_part(mv42):
    """(a - a')_+ ^ q equals the positive part computed inside [0, q]."""
    E, cb = mv42
    for q in cb.projections:
        sub, subcb = cmp.restrict(cb, q, validate=False)
        back = sub.parent_index
        for a_sub in range(sub.size):
            a = int(back[a_sub])
            if not cb.in_commutant(a, q):
                continue
            inner = cmp.positive_part(subcb, a_sub, sub.ortho(a_sub))
            outer = cmp.positive_part(cb, a, E.ortho(a))
            assert int(back[inner]) == E.meet(outer, q)


def test_restrict(mv83, bool3):
    E, cb = mv83
    sub, subcb = cmp.restrict(cb, E.index_of([8, 8, 0]))
    assert sub.size == 81  # an 8-chain square
    assert core.validate_axioms(sub).passed
    assert subcb.is_spectral()
    full, fullcb = cmp.restrict(cb, E.one)
    assert full.size == E.size
    B, bcb = bool3
    sub2, _ = cmp.restrict(bcb, 0b011)
    assert sub2.size == 4


@pytest.mark.parametrize("build", [
    lambda: instances.make_mv_product(4, 2),
    lambda: instances.make_product(instances.make_boolean(2), instances.make_mv_product(4, 1)),
])
def test_restricted_tables_are_the_parents(build):
    """Every sum and map of [0, q], checked in plain Python against the
    parent's, for every projection q."""
    E, cb = build()
    S = E.sum_table.tolist()
    for q in cb.projections:
        sub, subcb = cmp.restrict(cb, q, validate=False)
        back = [int(x) for x in sub.parent_index]
        assert back == [x for x in range(E.size) if E.leq(x, q)]
        pos = {x: i for i, x in enumerate(back)}
        sums = sub.sum_table.tolist()
        for i, x in enumerate(back):
            for j, y in enumerate(back):
                assert sums[i][j] == pos.get(S[x][y], -1), (q, x, y)
        assert [back[p] for p in subcb.projections] == [p for p in cb.projections
                                                        if E.leq(p, q)]
        for p in subcb.projections:
            J = cb.map_table(back[p]).tolist()
            assert [back[v] for v in subcb.map_table(p).tolist()] == [J[x] for x in back]


def test_large_c_block_is_sampled_and_says_so():
    """[0, 1] of boolean(2) x mv(8,3) is a table without factors whose one
    C-block has 2916 elements: the exact MV row would read 2916^2 pairs
    times 365 order-row bytes, past the budget, so it samples pairs and its
    detail names that work and the budget."""
    E, cb = instances.make_product(instances.make_boolean(2), instances.make_mv_product(8, 3))
    sub, subcb = cmp.restrict(cb, E.one, validate=False)
    rep = cmp.check_b_comparability(subcb)
    assert rep.passed and [c.name for c in rep.checks] == [
        c.name for c in cmp.check_b_comparability(cb).checks]
    modes = {c.name: (c.mode, c.detail) for c in rep.checks}
    assert modes.pop("C-blocks-are-MV") == (
        "sampled", "pairs x n/8 = 3103615440 over the budget 2000000000")
    assert set(modes.values()) == {("full", "")}


def test_comparability_scan_matches_the_definition(mo2, hsum_l8, bool3, mv42):
    """The gathered comparability row against commute and P_<= per pair."""
    left = instances.make_mv_product(2, 1)
    hsum = instances.make_horizontal_sum(left, left, ["0", "1/2", "1"], ["0", "1/2", "1"])
    for E, cb in (mo2, hsum_l8, bool3, mv42, hsum, cmp.restrict(mv42[1], mv42[0].one)):
        want = next(((e, f) for e in range(E.size) for f in range(E.size)
                     if cmp.commute(cb, e, f) and not cmp.p_le_set(cb, e, f).size), None)
        assert cmp._comparability_failure(cb) == want, E.kind


def test_b_comparability_verdicts(bool3, mv42, mv83, mo2, hsum_l8):
    for E, cb in (bool3, mv42, mv83):
        rep = cmp.check_b_comparability(cb)
        assert rep.passed, rep.summary()
        assert cmp.is_spectral(cb)
    for E, cb in (mo2, hsum_l8):
        rep = cmp.check_b_comparability(cb)
        assert not rep.passed
        assert not cmp.is_spectral(cb)


def test_mo2_failure_details(mo2):
    E, cb = mo2
    rep = cmp.check_b_comparability(cb)
    failing = {c.name for c in rep.checks if not c.passed}
    # sharp atoms sit outside P = {0, 1}, and cross atoms are incomparable
    assert "sharp-elements-are-projections" in failing


def test_comparability_missing_reported():
    """On the trivial base of a paste, incomparable cross pairs commute but
    admit no separating projection."""
    from effalg import instances

    left = instances.make_mv_product(4, 1, validate=False)
    right = instances.make_mv_product(4, 1, validate=False)
    ident = [Fraction(i, 4) for i in range(5)]
    E, cb = instances.make_horizontal_sum(left, right, ident, ident, validate=False)
    la = E.part_index[("L", 1)]
    ra = E.part_index[("R", 1)]
    assert cmp.commute(cb, la, ra)
    assert cmp.p_le_set(cb, la, ra).size == 0
    with pytest.raises(ComparabilityMissing):
        cmp.positive_part(cb, ra, la)


def test_free_functions_on_a_matrix_base_are_its_methods(matrix2):
    """Each free function hands a base that cannot be enumerated to the
    base's own method, and returns what the method returns."""
    M, mcb = matrix2
    rng = np.random.default_rng(4)
    q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    e, f = (q @ np.diag(v) @ q.T for v in ([0.25, 0.75], [0.5, 0.125]))  # one eigenbasis
    g = M.random_effect(rng)
    assert cmp.has_b_property(mcb, g) == mcb.has_b_property(g)
    assert cmp.all_b(mcb) == mcb.all_b()
    for x, y in ((e, f), (e, g)):
        assert cmp.commute(mcb, x, y) == mcb.commute(x, y)
    got, want = cmp.p_le_set(mcb, e, f), mcb.p_le_set(e, f)
    assert len(got) == len(want) > 0 and all(np.array_equal(x, y) for x, y in zip(got, want))
    assert np.array_equal(cmp.positive_part(mcb, f, e), mcb.positive_part(f, e))
    rows = [[(c.name, c.passed, c.mode, c.detail) for c in rep.checks]
            for rep in (cmp.check_b_comparability(mcb), mcb.check_b_comparability())]
    assert rows[0] == rows[1]
