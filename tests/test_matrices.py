import numpy as np
import pytest
from fractions import Fraction

from effalg import core, matrices, spectral
from effalg.errors import ElementNotInCarrier, NotCommuting, NotEnumerable
from effalg.matrices import (
    DensityState,
    chi_leq,
    eig_clusters,
    joint_eigenprojections,
    separating_states,
    sym,
)


def rotated(rng, vals):
    q = np.linalg.qr(rng.standard_normal((len(vals), len(vals))))[0]
    return sym(q @ np.diag(vals) @ q.T)


def test_carrier_membership(matrix2):
    E, _ = matrix2
    E.check_element(np.eye(2) * 0.5)
    with pytest.raises(ElementNotInCarrier):
        E.check_element(np.eye(2) * 1.5)
    with pytest.raises(ElementNotInCarrier):
        E.check_element(np.array([[0.5, 0.2], [0.3, 0.5]]))  # not symmetric


def test_axioms_sampled(matrix2):
    E, _ = matrix2
    rep = core.validate_axioms(E)
    assert rep.passed and rep.sampled


def test_compression_idempotent(matrix2):
    E, cb = matrix2
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = E.random_projection(rng)
        a = E.random_effect(rng)
        once = cb.apply(p, a)
        assert E.eq(cb.apply(p, once), once)


def test_cover_is_support(matrix2):
    E, cb = matrix2
    assert E.eq(cb.cover(np.diag([0.5, 0.0])), np.diag([1.0, 0.0]))
    a = np.array([[0.5, 0.25], [0.25, 0.5]])
    assert E.eq(cb.cover(a), np.eye(2))  # both eigenvalues positive


def test_diagonal_embedding_matches_chain(matrix2, l8):
    """Diagonal effects behave exactly like coordinate pairs."""
    E, cb = matrix2
    L8, lcb = l8
    a = np.diag([2 / 8, 7 / 8])
    res = spectral.binary_resolution(cb, a, 3)
    for lam, p in res.items():
        diag = np.diag(p).round(9)
        expected = np.array([1.0 if Fraction(k, 8) <= lam else 0.0 for k in (2, 7)])
        assert np.allclose(diag, expected, atol=1e-9)


def test_bicommutant_is_eigenstructure(matrix2):
    E, cb = matrix2
    rng = np.random.default_rng(1)
    a = rotated(rng, [0.3, 0.7])
    bic = cb.bicommutant(a)
    assert len(bic) == 4  # 0, two eigenprojections, identity
    for p in bic:
        assert cb.bicommutant_test(a)(p)
    foreign = E.random_projection(np.random.default_rng(2))
    assert not cb.bicommutant_test(a)(foreign)


def test_commutant_is_commutation(matrix2):
    E, cb = matrix2
    rng = np.random.default_rng(3)
    a = rotated(rng, [0.2, 0.9])
    p = sum(q for v, q in eig_clusters(a) if v > 0.5)
    assert cb.in_commutant(a, p)
    assert not cb.in_commutant(a, np.array([[1.0, 0.0], [0.0, 0.0]])
                               if abs(a[0, 1]) > 1e-6 else E.random_projection(rng))


def test_mackey_needs_a_projection(matrix2):
    E, _ = matrix2
    rng = np.random.default_rng(4)
    a, b = E.random_effect(rng), E.random_effect(rng)
    with pytest.raises(NotEnumerable):
        E.mackey_compatible(a, b)
    p = E.random_projection(rng)
    ok, _ = E.mackey_compatible(p @ a @ p + (np.eye(2) - p) @ a @ (np.eye(2) - p), p)
    assert ok


def test_positive_part_clamps(matrix2):
    E, cb = matrix2
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    b = sym(q @ np.diag([0.6, 0.2]) @ q.T)
    a = sym(q @ np.diag([0.1, 0.5]) @ q.T)
    pp = cb.positive_part(b, a)
    expected = sym(q @ np.diag([0.5, 0.0]) @ q.T)
    assert E.eq(pp, expected)


def test_p_le_set_commuting_pair(matrix2):
    E, cb = matrix2
    rng = np.random.default_rng(6)
    q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    e = sym(q @ np.diag([0.2, 0.8]) @ q.T)
    f = sym(q @ np.diag([0.4, 0.3]) @ q.T)
    pl = cb.p_le_set(e, f)
    assert pl  # nonempty
    for p in pl:
        assert E.leq(cb.apply(p, e), cb.apply(p, f))
    g = E.random_effect(rng)
    while cb.commute(e, g):
        g = E.random_effect(rng)
    with pytest.raises(NotCommuting):
        cb.p_le_set(e, g)


def test_resolution_matches_eigenprojections(matrix2, matrix3):
    for (E, cb), dim in ((matrix2, 2), (matrix3, 3)):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            vals = rng.uniform(0.05, 0.95, dim)
            while np.diff(np.sort(vals)).min(initial=1) < 0.03:
                vals = rng.uniform(0.05, 0.95, dim)
            a = rotated(rng, vals)
            res = spectral.binary_resolution(cb, a, 8)
            for lam, p in res.items():
                if min(abs(float(lam) - v) for v in vals) <= 2 ** -8:
                    continue
                assert np.abs(p - chi_leq(a, float(lam), E.tol)).max() <= 1e-9


def test_verify_uniqueness_fixture(matrix2):
    E, cb = matrix2
    rng = np.random.default_rng(9)
    a = rotated(rng, [5 / 16, 11 / 16])
    res = spectral.binary_resolution(cb, a, 8)
    assert spectral.verify_resolution(cb, a, res.entries, 8).passed
    fam = dict(res.entries)
    fam[Fraction(1, 2)] = E.one
    assert not spectral.verify_resolution(cb, a, fam, 8).passed


def test_commutes_iff_spectrum_matrix(matrix2):
    E, cb = matrix2
    rng = np.random.default_rng(10)
    a = rotated(rng, [0.25, 0.75])
    commuting = sum(q for v, q in eig_clusters(a) if v > 0.5)
    rep = spectral.commutes_iff_spectrum(cb, a, sym(commuting), 4,
                                         states=separating_states(E))
    assert rep.passed
    non_commuting = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep2 = spectral.commutes_iff_spectrum(cb, a, non_commuting, 4)
    assert rep2.passed  # both sides false still agree
    assert "element-commutes=False" in rep2.checks[0].detail


def test_density_state(matrix2):
    E, _ = matrix2
    s = DensityState(E, np.eye(2) / 2)
    assert s.validate().passed
    assert abs(s(np.diag([0.5, 0.25])) - 0.375) < 1e-12
    bad = DensityState(E, np.diag([0.9, 0.9]))
    assert not bad.validate().passed


def test_joint_eigenprojections_resolve_identity(matrix3):
    E, _ = matrix3
    rng = np.random.default_rng(11)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    e = sym(q @ np.diag([0.1, 0.5, 0.5]) @ q.T)
    f = sym(q @ np.diag([0.2, 0.2, 0.8]) @ q.T)
    joint = joint_eigenprojections(e, f)
    assert len(joint) == 3
    assert np.allclose(sum(joint), np.eye(3), atol=1e-9)


def test_spectral_verdict(matrix2):
    _, cb = matrix2
    assert cb.is_spectral()
    rep = cb.check_b_comparability()
    assert rep.passed and any(c.mode != "full" for c in rep.checks)


def test_whole_carrier_scans_refuse(matrix2):
    from effalg import compbase

    E, cb = matrix2
    with pytest.raises(NotEnumerable):
        core.sharp_elements(E)
    with pytest.raises(NotEnumerable):
        compbase.commutant(cb, E.one)
    with pytest.raises(NotEnumerable):
        compbase.check_oml(cb)
    # the bicommutant stays available through the eigenstructure
    a = rotated(np.random.default_rng(12), [0.2, 0.6])
    assert len(compbase.bicommutant(cb, a)) == 4
