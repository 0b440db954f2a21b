import numpy as np
import pytest
from fractions import Fraction

from effalg import core
from effalg.core import GridAlgebra, ProductAlgebra, TableAlgebra
from effalg.errors import ElementNotInCarrier, MalformedInput, SizeLimit


def test_boolean_sum_is_disjoint_union(bool3):
    E, _ = bool3
    assert E.sum(0b001, 0b010) == 0b011
    assert E.sum(0b001, 0b011) is None  # overlapping atoms
    assert E.label(0b101) == "{1,3}"


def test_a_carrier_of_bad_shape_is_malformed_input():
    """A sum table that is not square and a grid with k or d below 1 raise
    ``MalformedInput``."""
    with pytest.raises(MalformedInput, match="sum table must be square"):
        TableAlgebra(np.zeros((2, 3), dtype=int), 0, 1)
    for k, d in ((0, 1), (2, 0)):
        with pytest.raises(MalformedInput, match="need k >= 1 and d >= 1"):
            GridAlgebra(k, d)


def test_chain_sum_overflows(l8):
    E, _ = l8
    assert E.sum(3, 6) is None  # 9/8 > 1
    assert E.sum(3, 5) == E.one


def test_orthosupplement_is_coordinatewise(mv83):
    E, _ = mv83
    a = E.index_of([2, 4, 7])
    assert E.ortho(a) == E.index_of([6, 4, 1])
    assert E.sum(a, E.ortho(a)) == E.one


def test_leq_and_ominus_on_chain(l8):
    E, _ = l8
    assert E.leq(2, 5)
    assert E.ominus(5, 2) == 3
    assert E.ominus(2, 5) is None
    assert E.leq(4, 4)  # reflexive


def test_validate_axioms_passes(bool3, mv42, mv83, mo2, hsum_l8):
    for E, _ in (bool3, mv42, mv83, mo2, hsum_l8):
        rep = core.validate_axioms(E)
        assert rep.passed, rep.summary()


def test_axiom_violations_are_witnessed():
    # three-element "algebra" where a + 1 is defined for a != 0
    S = np.array([
        [0, 1, 2],
        [1, 2, 2],  # 1 + 1 = "2" and 1 + 2 defined: breaks E4 (and more)
        [2, 2, -1],
    ], dtype=np.int32)
    E = TableAlgebra(S, 0, 2)
    rep = core.validate_axioms(E)
    failed = {c.name for c in rep.checks if not c.passed}
    assert "E4-unit-maximal" in failed
    e4 = next(c for c in rep.checks if c.name == "E4-unit-maximal")
    assert e4.witness is not None


def test_broken_associativity_detected():
    # L2 x L2 with one sum redirected
    G = GridAlgebra(2, 1)
    S = G.sum_table.copy()
    S[1, 1] = 1  # 1/2 + 1/2 "=" 1/2
    E = TableAlgebra(S, 0, 2)
    rep = core.validate_axioms(E)
    assert not rep.passed


def test_order_dualities(mv42):
    E, _ = mv42
    n = E.size
    leq = E.leq_table
    ortho = E.ortho_all()
    # a <= b iff b' <= a'; a'' = a
    assert (leq == leq[ortho][:, ortho].T).all()
    assert (ortho[ortho] == np.arange(n)).all()
    # orthogonality: a + b defined iff a <= b'
    S = E.sum_table
    assert ((S >= 0) == leq[:, ortho]).all()
    # partial order: antisymmetry and transitivity
    assert not (leq & leq.T & ~np.eye(n, dtype=bool)).any()
    closure = (leq.astype(int) @ leq.astype(int)) > 0
    assert (closure <= leq).all()


def test_sharp_elements(mv83, bool3, mo2):
    E, _ = mv83
    sharp = core.sharp_elements(E)
    assert sorted(sharp) == sorted(
        E.index_of(np.array(v) * 8) for v in
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    B, _ = bool3
    assert len(core.sharp_elements(B)) == B.size  # every boolean element
    M, _ = mo2
    assert len(core.sharp_elements(M)) == 6


def test_principal_implies_sharp(mv42, mo2):
    for E, _ in (mv42, mo2):
        sharp = set(int(s) for s in core.sharp_elements(E))
        for a in range(E.size):
            if core.is_principal(E, a):
                assert a in sharp


def test_mackey_compatibility(mv83, mo2):
    E, _ = mv83
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.integers(0, E.size, 2)
        ok, witness = core.mackey_compatible(E, int(a), int(b))
        assert ok  # everything is compatible in a product of chains
        a1, b1, c = witness
        assert E.sum(a1, c) == a and E.sum(b1, c) == b
        s = E.sum(a1, b1)
        assert s is not None and E.sum(s, c) is not None
    # a and a' are compatible with c = 0
    a = E.index_of([2, 4, 7])
    assert core.mackey_compatible(E, a, E.ortho(a))[0]

    M, _ = mo2
    atoms = [i for i in range(M.size) if i > 1]
    left, right = atoms[0], atoms[2]
    assert not core.mackey_compatible(M, left, right)[0]


def test_archimedean(bool3, mv83):
    for E, _ in (bool3, mv83):
        assert core.is_archimedean(E)


def test_state_validation(mv83):
    E, _ = mv83
    vals = [sum(Fraction(int(c), 8) for c in E.coords[i]) / 3 for i in range(E.size)]
    s = core.State(E, vals)
    assert s.validate().passed
    assert s(E.index_of([2, 4, 7])) == Fraction(13, 24)
    bad = list(vals)
    bad[E.index_of([1, 0, 0])] = Fraction(1, 2)
    assert not core.State(E, bad).validate().passed


def test_state_additivity_is_exact(l8):
    """A defect far below float resolution is still a defect."""
    E, _ = l8
    for eps in (Fraction(1, 10 ** 14), Fraction(1, 10 ** 40)):
        vals = [Fraction(i, 8) for i in range(9)]
        vals[2] += eps  # s(2/8) raised: 1/8 + 1/8 is the first pair off
        rep = core.State(E, vals).validate()
        additive = next(c for c in rep.checks if c.name == "additive")
        assert not additive.passed and additive.witness == (1, 1)
        assert additive.mode == "full"
    vals = [Fraction(i, 8) for i in range(9)]
    assert core.State(E, vals).validate().passed
    # numerators past int64: additive on every pair whose sum is not the unit
    big = 8 * 10 ** 30 + 1
    vals = [Fraction(i * 10 ** 30, big) for i in range(8)] + [Fraction(1)]
    additive = core.State(E, vals).validate().checks[-1]
    assert not additive.passed and additive.witness == (1, 7)


def test_product_algebra_is_componentwise(mv42, bool3):
    E = ProductAlgebra(mv42[0], bool3[0])
    rep = core.validate_axioms(E)
    assert rep.passed
    a = E.pair_index(3, 0b101)
    ia, ib = E.split_index(a)
    assert (int(ia), int(ib)) == (3, 0b101)
    assert E.ortho(a) == E.pair_index(mv42[0].ortho(3), bool3[0].ortho(0b101))


def test_element_bounds_checked(mv42):
    E, _ = mv42
    with pytest.raises(ElementNotInCarrier):
        E.index_of([9, 0])
    with pytest.raises(ElementNotInCarrier):
        E.check_element(E.size)


def test_oversized_carriers_are_refused_before_their_tower(monkeypatch):
    """Every finite carrier refuses more than ``MAX_CARRIER`` elements with
    one message: a product at once, and a grid after its ``k``/``d`` check
    but before it builds a level of its tower."""
    def no_tower(self, d):
        raise AssertionError("a tower level was built")

    monkeypatch.setattr(GridAlgebra, "_with_arity", no_tower)
    monkeypatch.setattr(core.BooleanAlgebra, "_with_arity", no_tower)
    cap = f"exceeds MAX_CARRIER={core.MAX_CARRIER}"
    with pytest.raises(SizeLimit, match=f"carrier of size 1419857 {cap}"):
        GridAlgebra(16, 5)
    with pytest.raises(SizeLimit, match=f"carrier of size 1048576 {cap}"):
        core.BooleanAlgebra(20)
    with pytest.raises(ValueError, match="need k >= 1 and d >= 1"):
        GridAlgebra(0, 100)
    monkeypatch.undo()
    grid = GridAlgebra(16, 3)
    with pytest.raises(SizeLimit, match=f"carrier of size 24137569 {cap}"):
        ProductAlgebra(grid, grid)
    assert ProductAlgebra(GridAlgebra(8, 3), GridAlgebra(8, 3)).size == 531441
