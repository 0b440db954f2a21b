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
def test_broadcast_tables_equal_row_by_row(name, monkeypatch):
    E = SMALL_PRODUCTS[name]()
    fast = {op: getattr(E, f"{op}_table") for op in ("sum", "leq", "ominus")}
    bounds = [E.lower_bounds(a) for a in range(E.size)]
    # dense carriers read their pair operations from these very tables, so
    # the row-by-row reference runs on the structural path
    monkeypatch.setattr(core, "DENSE_LIMIT", 0)
    for op in ("sum", "leq", "ominus"):
        slow = FiniteAlgebra._tabulate(E, op)
        assert fast[op].dtype == slow.dtype, op
        assert np.array_equal(fast[op], slow), op
    allv = np.arange(E.size)
    for a in range(E.size):
        assert np.array_equal(bounds[a], E.leq_pairs(allv, np.full(E.size, a)))


# ---------------------------------------------------------------------------
# pair operations: dense-table gathers against the structural path

def _even_subsets(atoms):
    """The even subsets of ``atoms`` atoms under disjoint union: a
    sub-effect algebra of a Boolean algebra that is not a lattice once
    ``atoms >= 6`` (1234 and 1235 have the three maximal common lower
    bounds 12, 13 and 23)."""
    elems = [x for x in range(1 << atoms) if bin(x).count("1") % 2 == 0]
    pos = {x: i for i, x in enumerate(elems)}
    triples = [(pos[x], pos[y], pos[x | y]) for x in elems for y in elems if not x & y]
    return TableAlgebra.from_triples(len(elems), triples, 0, len(elems) - 1, symmetrize=False)


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
def test_grid_pair_operations_read_the_tables(name, monkeypatch):
    """Every dense carrier answers its pair operations from its tables,
    with the values and dtypes of its structural path (coordinates for
    grids, factors for products, the stored tables for a table carrier)."""
    E = _carrier(name)
    assert E.dense
    rng = np.random.default_rng(15)
    xs = rng.integers(0, E.size, size=(40, 1))
    ys = rng.integers(0, E.size, size=(1, 50))  # broadcast to 40 x 50
    ops = ("sum_pairs", "leq_pairs", "ominus_pairs")
    dense = {op: getattr(E, op)(xs, ys) for op in ops}
    scalar = (E.sum(3 % E.size, E.one), E.ominus(E.one, E.zero), E.leq(E.zero, E.one))
    monkeypatch.setattr(core, "DENSE_LIMIT", 0)
    assert not E.dense
    for op in ops:
        structural = getattr(E, op)(xs, ys)
        assert dense[op].shape == (40, 50), op
        assert dense[op].dtype == structural.dtype, op
        assert np.array_equal(dense[op], structural), op
    assert scalar == (E.sum(3 % E.size, E.one), E.ominus(E.one, E.zero), E.leq(E.zero, E.one))
    # the draws hit both defined and undefined sums and differences
    for op in ("sum_pairs", "ominus_pairs"):
        assert (dense[op] < 0).any() and (dense[op] >= 0).any(), op


MEET_CARRIERS = ["even(6)", "MO2", "L8+L8", "mv(4,2)", "boolean(3)", "MO2 x boolean(2)",
                 "even(6) x boolean(1)", "mv(4,2) x MO2", "boolean(2) x L8+L8"]


@pytest.mark.parametrize("name", MEET_CARRIERS)
def test_meet_pairs_matches_the_lower_bound_search(name):
    """meet_pairs gives -1 exactly where the generic search finds no meet,
    and the meet everywhere else."""
    E = _carrier(name)
    rng = np.random.default_rng(17)
    xs = rng.integers(0, E.size, size=(30, 1))
    ys = rng.integers(0, E.size, size=(1, 40))
    got = E.meet_pairs(xs, ys)
    want = [[FiniteAlgebra.meet(E, int(x), int(y)) for y in ys[0]] for x in xs[:, 0]]
    assert np.array_equal(got, np.array([[-1 if m is None else m for m in row]
                                         for row in want]))
    a, b = int(xs[0, 0]), int(ys[0, 0])
    assert E.meet(a, b) == want[0][0]
    if name.startswith("even"):
        assert (got < 0).any() and (got >= 0).any()


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
