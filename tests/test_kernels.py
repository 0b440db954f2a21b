from fractions import Fraction

import numpy as np
import pytest

from effalg import instances, kernels
from effalg.core import BooleanAlgebra, FiniteAlgebra, GridAlgebra, ProductAlgebra


@pytest.fixture()
def grid_tables():
    E = GridAlgebra(4, 2)
    return E.sum_table, E.ominus_table, E.leq_table


@pytest.mark.parametrize("backend", ["numpy", "numba"])
def test_clean_tables_have_no_violations(grid_tables, backend, monkeypatch):
    if backend == "numba" and not kernels.HAS_NUMBA:
        pytest.skip("numba unavailable")
    monkeypatch.setenv("EA_KERNELS", backend)
    S, omi, leq = grid_tables
    assert kernels.backend() == backend
    assert kernels.associativity_violation(S) is None
    assert kernels.cancellation_violation(S) is None
    assert kernels.mackey_witness(S, omi, leq, 3, 7) is not None


def test_backends_agree_on_broken_tables(grid_tables, monkeypatch):
    if not kernels.HAS_NUMBA:
        pytest.skip("numba unavailable")
    S, omi, leq = grid_tables
    rng = np.random.default_rng(1)
    for _ in range(10):
        bad = S.copy()
        i, j = rng.integers(0, S.shape[0], 2)
        bad[i, j] = int(rng.integers(0, S.shape[0]))
        results = {}
        for backend in ("numpy", "numba"):
            monkeypatch.setenv("EA_KERNELS", backend)
            results[backend] = (
                kernels.associativity_violation(bad) is None,
                kernels.cancellation_violation(bad) is None,
            )
        assert results["numpy"] == results["numba"]


def test_map_additivity_backends_agree(grid_tables, monkeypatch):
    E = GridAlgebra(4, 2)
    S = E.sum_table
    good = np.minimum(E.coords, E.coords[E.index_of([4, 0])]) @ E.strides
    bad = good.copy()
    bad[7] = E.one
    for backend in ("numpy", "numba") if kernels.HAS_NUMBA else ("numpy",):
        monkeypatch.setenv("EA_KERNELS", backend)
        assert kernels.map_additivity_violation(S, good) is None
        assert kernels.map_additivity_violation(S, bad) is not None


def test_env_flag_rejects_unknown(monkeypatch):
    monkeypatch.setenv("EA_KERNELS", "cuda")
    with pytest.raises(ValueError):
        kernels.backend()


def test_normality_kernel(grid_tables, monkeypatch):
    S, omi, leq = grid_tables
    n = S.shape[0]
    projections = np.array([0, n - 1])
    in_p = np.zeros(n, dtype=bool)
    in_p[[0, n - 1]] = True
    for backend in ("numpy", "numba") if kernels.HAS_NUMBA else ("numpy",):
        monkeypatch.setenv("EA_KERNELS", backend)
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
def test_associativity_matches_reference(reference_algebras, kind, monkeypatch):
    monkeypatch.setenv("EA_KERNELS", "numpy")
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
    # a chunk far smaller than the triple count must not change the witness
    monkeypatch.setenv("EA_KERNELS", "numpy")
    monkeypatch.setattr(kernels, "CHUNK", 7)
    E = GridAlgebra(4, 2)
    rng = np.random.default_rng(12)
    for _ in range(10):
        bad = _broken(E.sum_table, rng, 2)
        expected = _ref_associativity(bad.tolist())
        assert kernels.associativity_violation(bad) == expected


@pytest.mark.parametrize("kind", ["grid", "product", "table", "mo2"])
def test_map_additivity_matches_reference(reference_algebras, kind, monkeypatch):
    monkeypatch.setenv("EA_KERNELS", "numpy")
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
    E = SMALL_PRODUCTS[name]()
    for op in ("sum", "leq", "ominus"):
        fast = getattr(E, f"{op}_table")
        slow = FiniteAlgebra._tabulate(E, op)
        assert fast.dtype == slow.dtype, op
        assert np.array_equal(fast, slow), op
    allv = np.arange(E.size)
    for a in range(E.size):
        assert np.array_equal(E.lower_bounds(a), E.leq_pairs(allv, np.full(E.size, a)))
