import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from effalg import core, instances, kernels
from effalg.core import (BooleanAlgebra, FiniteAlgebra, GridAlgebra, ProductAlgebra,
                         TableAlgebra)


@pytest.fixture()
def grid_tables():
    E = GridAlgebra(4, 2)
    return E.sum_table, E.ominus_table, E.leq_table


def test_clean_tables_have_no_violations(grid_tables):
    S, omi, leq = grid_tables
    assert kernels.associativity_violation(S) is None
    assert kernels.cancellation_violation(S) is None
    assert kernels.mackey_witness(S, omi, leq, 3, 7) is not None


def test_map_additivity_flags_a_broken_map():
    E = GridAlgebra(4, 2)
    S = E.sum_table
    good = np.minimum(E.coords, E.coords[E.index_of([4, 0])]) @ E.strides
    bad = good.copy()
    bad[7] = E.one
    assert kernels.map_additivity_violation(S, good) is None
    assert kernels.map_additivity_violation(S, bad) is not None


def test_normality_kernel(grid_tables):
    S, omi, leq = grid_tables
    n = S.shape[0]
    projections = np.array([0, n - 1])
    in_p = np.zeros(n, dtype=bool)
    in_p[[0, n - 1]] = True
    assert kernels.normality_violation(S, omi, leq, projections, in_p) is None
    # dropping the unit from P makes d = 1 a violation witness
    smaller = np.zeros(n, dtype=bool)
    smaller[0] = True
    assert kernels.normality_violation(
        S, omi, leq, np.array([0, n - 1]), smaller) is not None


# ---------------------------------------------------------------------------
# numpy scans against plain-Python reference scans on random broken tables


def _ref_associativity(S):
    n = len(S)
    for a in range(n):
        for b in range(n):
            ab = S[a][b]
            if ab < 0:
                continue
            for c in range(n):
                abc = S[ab][c]
                if abc < 0:
                    continue
                bc = S[b][c]
                if bc < 0 or S[a][bc] != abc:
                    return a, b, c
    return None


def _ref_map_additivity(S, J):
    n = len(S)
    for a in range(n):
        for b in range(n):
            s = S[a][b]
            if s >= 0 and J[s] != S[J[a]][J[b]]:
                return a, b
    return None


def _ref_mackey(S, omi, leq, a, b):
    for c in range(len(S)):
        if leq[c][a] and leq[c][b]:
            s = S[omi[a][c]][omi[b][c]]
            if s >= 0 and S[s][c] >= 0:
                return c
    return None


@pytest.fixture(scope="module")
def reference_algebras():
    l8 = instances.make_mv_product(8, 1, validate=False)
    ident = [Fraction(i, 8) for i in range(9)]
    hsum, hcb = instances.make_horizontal_sum(l8, l8, ident, ident, validate=False)
    mo2, mcb = instances.make_mo2(validate=False)
    grid, gcb = instances.make_mv_product(2, 2, validate=False)
    prod, pcb = instances.make_product(
        instances.make_boolean(1, validate=False),
        instances.make_mv_product(2, 2, validate=False), validate=False)
    return {"grid": (grid, gcb), "product": (prod, pcb),
            "table": (hsum, hcb), "mo2": (mo2, mcb)}


def _broken(S, rng, edits):
    bad = S.copy()
    n = S.shape[0]
    for _ in range(edits):
        i, j = rng.integers(0, n, 2)
        bad[i, j] = rng.integers(-1, n)
    return bad


@pytest.mark.parametrize("kind", ["grid", "product", "table", "mo2"])
def test_associativity_matches_reference(reference_algebras, kind):
    E, _ = reference_algebras[kind]
    S = E.sum_table
    assert kernels.associativity_violation(S, E.defined_pairs) is None
    rng = np.random.default_rng(11)
    found = 0
    for trial in range(60):
        bad = _broken(S, rng, 1 + trial % 4)
        expected = _ref_associativity(bad.tolist())
        assert kernels.associativity_violation(bad) == expected
        found += expected is not None
    assert found >= 20  # the edits do break the law, not only pass it


def test_associativity_scan_crosses_chunks(monkeypatch):
    # a step of seven triples, far fewer than the scan covers, must not
    # change the witness
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 7 * 64)
    E = GridAlgebra(4, 2)
    rng = np.random.default_rng(12)
    for _ in range(10):
        bad = _broken(E.sum_table, rng, 2)
        expected = _ref_associativity(bad.tolist())
        assert kernels.associativity_violation(bad) == expected


@pytest.mark.parametrize("kind", ["grid", "product", "table", "mo2"])
def test_map_additivity_matches_reference(reference_algebras, kind):
    E, cb = reference_algebras[kind]
    S = E.sum_table
    n = E.size
    rng = np.random.default_rng(13)
    found = 0
    for p in cb.projections:
        J = cb.map_table(p)
        assert kernels.map_additivity_violation(S, J, E.defined_pairs) is None
        for trial in range(8):
            badJ = J.copy()
            badJ[rng.integers(0, n, 1 + trial % 3)] = rng.integers(0, n)
            badS = _broken(S, rng, 1) if trial % 2 else S
            expected = _ref_map_additivity(badS.tolist(), badJ.tolist())
            assert kernels.map_additivity_violation(badS, badJ) == expected
            found += expected is not None
    assert found >= 10


@pytest.mark.parametrize("kind", ["grid", "product", "table", "mo2"])
def test_mackey_matrix_matches_reference(reference_algebras, kind):
    E, _ = reference_algebras[kind]
    S, omi, leq = E.sum_table, E.ominus_table, E.leq_table
    elems = np.arange(E.size)
    rng = np.random.default_rng(14)
    for trial in range(6):
        bad = S if trial == 0 else _broken(S, rng, 2 * trial)
        lists = bad.tolist(), omi.tolist(), leq.tolist()
        got = kernels.mackey_matrix(bad, omi, leq, elems)
        for a in range(E.size):
            for b in range(E.size):
                c = _ref_mackey(*lists, a, b)
                assert got[a, b] == (c is not None), (kind, trial, a, b)
                assert kernels.mackey_witness(bad, omi, leq, a, b) == c
    # a subset of rows and columns is the matching submatrix
    sub = rng.choice(E.size, size=E.size // 2, replace=False)
    full = kernels.mackey_matrix(S, omi, leq, elems)
    assert (kernels.mackey_matrix(S, omi, leq, sub) == full[np.ix_(sub, sub)]).all()


SMALL_PRODUCTS = {
    "mv(2,2) x boolean(2)": lambda: ProductAlgebra(GridAlgebra(2, 2), BooleanAlgebra(2)),
    "MO2 x L4": lambda: ProductAlgebra(_mo2(), GridAlgebra(4, 1)),
    "(boolean(1) x L2) x MO2": lambda: ProductAlgebra(
        ProductAlgebra(BooleanAlgebra(1), GridAlgebra(2, 1)), _mo2()),
    "MO2 x mv(4,2)": lambda: ProductAlgebra(_mo2(), GridAlgebra(4, 2)),
    "mv(3,3)": lambda: GridAlgebra(3, 3),
    "boolean(4)": lambda: BooleanAlgebra(4),
}


def _mo2():
    return instances.make_mo2(validate=False)[0]


@pytest.mark.parametrize("name", list(SMALL_PRODUCTS))
def test_broadcast_tables_equal_row_by_row(name):
    """The tables a grid or product composes from its factors' tables
    equal the row-by-row reference through its factors, and its lower
    bounds, taken through the factors before any table exists, are the
    columns of its order table."""
    E = SMALL_PRODUCTS[name]()
    bounds = [E.lower_bounds(a) for a in range(E.size)]
    fast = {op: getattr(E, f"{op}_table") for op in ("sum", "leq", "ominus")}
    for op in ("sum", "leq", "ominus"):
        slow = FiniteAlgebra._tabulate(E, op)
        assert fast[op].dtype == slow.dtype, op
        assert np.array_equal(fast[op], slow), op
    for a in range(E.size):
        assert np.array_equal(bounds[a], fast["leq"][:, a])


# ---------------------------------------------------------------------------
# pair operations: dense-table gathers against the structural path

def _even_subsets(atoms):
    """The even subsets of ``atoms`` atoms under disjoint union: a
    sub-effect algebra of a Boolean algebra that is not a lattice once
    ``atoms >= 6`` (1234 and 1235 have the three maximal common lower
    bounds 12, 13 and 23)."""
    elems = [x for x in range(1 << atoms) if bin(x).count("1") % 2 == 0]
    pos = {x: i for i, x in enumerate(elems)}
    S = np.full((len(elems), len(elems)), -1, dtype=np.int32)
    for x in elems:
        for y in elems:
            if not x & y:
                S[pos[x], pos[y]] = pos[x | y]
    return TableAlgebra(S, 0, len(elems) - 1)


def _hsum_l8():
    l8 = instances.make_mv_product(8, 1, validate=False)
    ident = [Fraction(i, 8) for i in range(9)]
    return instances.make_horizontal_sum(l8, l8, ident, ident, validate=False)[0]


CRITERION_CARRIERS = {
    "boolean(1)": lambda: BooleanAlgebra(1),
    "boolean(2)": lambda: BooleanAlgebra(2),
    "boolean(3)": lambda: BooleanAlgebra(3),
    "boolean(4)": lambda: BooleanAlgebra(4),
    "mv(4,2)": lambda: GridAlgebra(4, 2),
    "mv(8,3)": lambda: GridAlgebra(8, 3),
    "MO2": _mo2,
    "L8+L8": _hsum_l8,
}


@functools.lru_cache(maxsize=None)
def _named_carrier(name):
    if name == "even(6)":
        return _even_subsets(6)
    return CRITERION_CARRIERS[name]()


def _carrier(name):
    """A carrier by name; ``A x B`` is a fresh product of cached factors."""
    if " x " in name:
        left, right = name.split(" x ")
        return ProductAlgebra(_named_carrier(left), _named_carrier(right))
    return _named_carrier(name)


# the criterion-01 carriers that keep dense tables: tables, grids and
# products, among them products with table factors
DENSE_CRITERION = list(CRITERION_CARRIERS) + [
    f"{a} x {b}" for a, b in itertools.combinations_with_replacement(sorted(CRITERION_CARRIERS), 2)
    if _named_carrier(a).size * _named_carrier(b).size <= core.DENSE_LIMIT]


@pytest.mark.parametrize("name", DENSE_CRITERION)
def test_grid_pair_operations_read_the_tables(name):
    """Every dense carrier answers its pair operations with the values of
    its tables (through its factors for grids and products, from the
    stored tables for a table carrier and a chain).  A grid or product
    answers through its factors, so its own tables, built from the
    factors' tables whole, are the reference for it, and its factor route
    is checked once its tables exist too; the scalar operations are
    checked on the same pairs."""
    E = _carrier(name)
    assert E.dense
    rng = np.random.default_rng(15)
    xs = rng.integers(0, E.size, size=(40, 1))
    ys = rng.integers(0, E.size, size=(1, 50))  # broadcast to 40 x 50
    ops = ("sum_pairs", "leq_pairs", "ominus_pairs")
    dense = {op: getattr(E, op)(xs, ys) for op in ops}
    pairs = list(zip(xs.ravel().tolist(), ys.ravel()[:40].tolist()))
    pairs += [(3 % E.size, E.one), (E.one, E.zero), (E.zero, E.one), (int(xs[0, 0]), E.zero)]
    scalar = [(E.sum(x, y), E.ominus(x, y), E.leq(x, y)) for x, y in pairs]
    for op in ops:
        table = getattr(E, op.replace("pairs", "table"))
        assert np.array_equal(dense[op], table[xs, ys]), op
    for op in ops if E.factors is not None else ():
        routed = E._through_factors(op, xs, ys)
        assert dense[op].shape == (40, 50), op
        assert dense[op].dtype == routed.dtype, op
        assert np.array_equal(dense[op], routed), op

    # the scalar operations of a carrier with factors answer through the
    # factors' scalar operations, independently of the pair operations
    def value(v):
        return None if v < 0 else int(v)

    assert scalar == [(value(E.sum_pairs(x, y)), value(E.ominus_pairs(x, y)),
                       bool(E.leq_pairs(x, y))) for x, y in pairs]
    # the draws hit both defined and undefined sums and differences
    for op in ("sum_pairs", "ominus_pairs"):
        assert (dense[op] < 0).any() and (dense[op] >= 0).any(), op


MEET_CARRIERS = ["even(6)", "MO2", "L8+L8", "mv(4,2)", "boolean(3)", "MO2 x boolean(2)",
                 "even(6) x boolean(1)", "mv(4,2) x MO2", "boolean(2) x L8+L8"]


def _search_meet(L, x, y):
    """The first common lower bound of x and y in the order table L that
    every common lower bound lies below, or None."""
    cand = np.flatnonzero(L[:, x] & L[:, y])
    top = [int(c) for c in cand if L[cand, c].all()]
    return top[0] if top else None


@pytest.mark.parametrize("name", MEET_CARRIERS)
def test_meet_pairs_matches_the_lower_bound_search(name):
    """meet_pairs gives -1 exactly where the generic search finds no meet,
    and the meet everywhere else."""
    E = _carrier(name)
    rng = np.random.default_rng(17)
    xs = rng.integers(0, E.size, size=(30, 1))
    ys = rng.integers(0, E.size, size=(1, 40))
    got = E.meet_pairs(xs, ys)
    want = [[_search_meet(E.leq_table, int(x), int(y)) for y in ys[0]] for x in xs[:, 0]]
    assert np.array_equal(got, np.array([[-1 if m is None else m for m in row]
                                         for row in want]))
    a, b = int(xs[0, 0]), int(ys[0, 0])
    assert E.meet(a, b) == want[0][0]
    if name.startswith("even"):
        assert (got < 0).any() and (got >= 0).any()


def _table_carriers():
    """Dense carriers without factors: MO2, L8+L8, even(6), the horizontal
    sum of two 3-element chains and 20 seeded broken grid tables, whose
    orders are not all antisymmetric or transitive."""
    from test_structural import GRIDS, MUTATIONS, _broken_table

    left = instances.make_mv_product(2, 1, validate=False)
    half = ["0", "1/2", "1"]
    out = {name: _named_carrier(name) for name in ("MO2", "L8+L8", "even(6)")}
    out["C3+C3"] = instances.make_horizontal_sum(left, left, half, half, validate=False)[0]
    rng = np.random.default_rng(8)
    for i in range(20):
        out[f"broken {i}"] = _broken_table(rng, *GRIDS[i % len(GRIDS)],
                                           MUTATIONS[i % len(MUTATIONS)])[0]
    return out


def _random_relations(rng, count):
    """Seeded boolean relations of 1-40 elements, ``below[c, x]`` read as
    c <= x: partial orders (transitive closures of random DAGs on a
    shuffled index), the same with diagonal entries dropped, with a cycle
    of two added or with a covering pair of a chain removed, and relations
    drawn entry by entry."""
    for t in range(count):
        n = int(rng.integers(1, 41))
        perm = rng.permutation(n)
        below = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.5)) | np.eye(n, dtype=bool)
        for _ in range(n):  # transitive closure
            below = below | ((below.astype(np.int32) @ below.astype(np.int32)) > 0)
        below = below[np.ix_(perm, perm)]
        kind = t % 5
        if kind == 1:
            below[np.diag_indices(n)] &= rng.random(n) < 0.5
        elif kind == 2 and n > 1:
            x, y = rng.choice(n, 2, replace=False)
            below[x, y] = below[y, x] = True
        elif kind == 3 and n > 2:
            chain = rng.choice(n, 3, replace=False)
            below[np.ix_(chain, chain)] = np.triu(np.ones((3, 3), dtype=bool))
            below[chain[0], chain[1]] = False
        elif kind == 4:
            below = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        yield below


def test_meet_search_is_the_scalar_meet_on_any_relation(monkeypatch):
    """On every pair of seeded random relations ``core.meet_search`` equals
    ``core.scalar_meet``, in one chunk and in chunks of 64 bytes; the
    relations include ones that are not reflexive, not antisymmetric or
    not transitive, and pairs with a meet and with none.  On a partial
    order the search decides every pair that has a meet: only the pairs
    without one reach the scalar search."""
    rng = np.random.default_rng(32)
    flaws, answers = set(), set()
    real, scalar = core.scalar_meet, []
    monkeypatch.setattr(core, "scalar_meet", lambda *args: scalar.append(args) or real(*args))
    for below in _random_relations(rng, 150):
        n = below.shape[0]
        I, L = np.eye(n, dtype=bool), below.astype(np.int32)
        found = {name for name, flawed in (("reflexive", (below & I).sum() < n),
                                           ("antisymmetric", (below & below.T & ~I).any()),
                                           ("transitive", ((L @ L > 0) & ~below).any()))
                 if flawed}
        xs, ys = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        want = np.array([-1 if (m := real(below, int(x), int(y))) is None else m
                         for x, y in zip(xs, ys)])
        bits = core.order_bits(below)
        assert all(b.flags.c_contiguous for b in bits[1:])
        scalar.clear()
        assert np.array_equal(core.meet_search(below, bits, xs, ys), want), below.tolist()
        if not found:
            assert len(scalar) == ((want < 0).sum() + (np.diag(want.reshape(n, n)) < 0).sum()) // 2
        with monkeypatch.context() as m:
            m.setattr(kernels, "CHUNK_BYTES", 64)
            assert np.array_equal(core.meet_search(below, bits, xs, ys), want), below.tolist()
        flaws |= found
        answers |= {bool(v >= 0) for v in want}
    assert flaws == {"reflexive", "antisymmetric", "transitive"} and answers == {True, False}


def test_dense_meets_match_the_scalar_search(monkeypatch):
    """On every pair of each carrier the chunked meets of the order table
    equal ``core.scalar_meet``, ties and missing meets included, in one
    step and in steps of a few pairs; the carriers reach pairs with no
    meet and pairs that only the scalar search decides (the ties of an
    order that is not antisymmetric)."""
    missing = ties = 0
    for name, E in _table_carriers().items():
        assert E.factors is None and E.dense, name
        n = E.size
        xs, ys = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        want = np.array([-1 if (m := core.scalar_meet(E.leq_table, int(x), int(y))) is None
                         else m for x, y in zip(xs, ys)])
        assert np.array_equal(E.meet_pairs(xs, ys), want), name
        assert [E.meet(int(x), int(y)) for x, y in zip(xs, ys)] == \
            [None if m < 0 else m for m in want.tolist()], name
        with monkeypatch.context() as m:
            m.setattr(kernels, "CHUNK_BYTES", 64)
            assert np.array_equal(E.meet_pairs(xs, ys), want), name
        L = E.leq_table
        if ((L & L.T) & ~np.eye(n, dtype=bool)).any():
            common = L[:, xs] & L[:, ys]  # [c, pair]
            greatest = common & ~(common[:, None, :] & ~L[:, :, None]).any(axis=0)
            ties += int((greatest.sum(axis=0) > 1).sum())
        missing += int((want < 0).sum())
    assert missing and ties


def _ref_normality(S, omi, leq, pidx, in_p):
    n = len(S)
    for p in pidx:
        for q in pidx:
            for d in range(n):
                if in_p[d] or not (leq[d][p] and leq[d][q]):
                    continue
                if S[omi[p][d]][q] >= 0:
                    return p, q, d
    return None


@pytest.mark.parametrize("kind", ["grid", "product", "table", "mo2"])
def test_normality_matches_reference(reference_algebras, kind, monkeypatch):
    E, cb = reference_algebras[kind]
    S, omi, leq = E.sum_table, E.ominus_table, E.leq_table
    lists = S.tolist(), omi.tolist(), leq.tolist()
    rng = np.random.default_rng(16)
    found = 0
    for trial in range(36):
        # P minus a few members is no longer normal in general
        pidx = np.array(cb.projections)
        drop = rng.choice(pidx.size, size=trial % 3, replace=False)
        in_p = np.zeros(E.size, dtype=bool)
        in_p[np.delete(pidx, drop)] = True
        if trial % 4 == 3:
            in_p[rng.integers(0, E.size, 3)] = True
        if trial >= 24:  # any subset, scanned in any order
            pidx = rng.permutation(E.size)[:int(rng.integers(1, E.size))]
            in_p = rng.random(E.size) < 0.5
        expected = _ref_normality(*lists, pidx.tolist(), in_p.tolist())
        assert kernels.normality_violation(S, omi, leq, pidx, in_p) == expected
        # a tiny chunk splits the rows of one p across several gathers
        with monkeypatch.context() as m:
            m.setattr(kernels, "CHUNK_BYTES", 8 * pidx.size)
            assert kernels.normality_violation(S, omi, leq, pidx, in_p) == expected
        found += expected is not None
    assert found >= 6


def _ref_composition(M, outer, inner, target, cols):
    for t, (o, i, g) in enumerate(zip(outer, inner, target)):
        if min(o, i, g) < 0:
            return t
        if any(M[o][M[i][x]] != M[g][x] for x in cols):
            return t
    return None


def test_composition_matches_reference(monkeypatch):
    rng = np.random.default_rng(17)
    for trial in range(40):
        k, n = 1 + trial % 5, 2 + trial % 7
        M = rng.integers(0, n, size=(k, n)).astype(np.int32)
        M[0] = np.arange(n)  # the identity composes without a mismatch
        size = int(rng.integers(0, 30))
        idx = [rng.integers(0, k, size) for _ in range(3)]
        if trial % 3 == 0:  # mostly identities; a few composites that hold
            idx = [np.where(rng.random(size) < 0.9, 0, a) for a in idx]
            idx[2] = np.where((idx[0] == 0) & (idx[1] == 0), 0, idx[2])
        if trial % 4 == 1 and size:
            idx[int(rng.integers(3))][int(rng.integers(size))] = -1
        cols = None if trial % 2 else np.unique(rng.integers(0, n, 3))
        expected = _ref_composition(M.tolist(), *(a.tolist() for a in idx),
                                    range(n) if cols is None else cols.tolist())
        assert kernels.composition_violation(M, *idx, cols) == expected
        with monkeypatch.context() as m:
            m.setattr(kernels, "CHUNK_BYTES", 1)  # one item per gather
            assert kernels.composition_violation(M, *idx, cols) == expected
