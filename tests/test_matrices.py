import itertools

import numpy as np
import pytest
from fractions import Fraction

from effalg import core, matrices, spectral
from effalg.errors import (
    ElementNotInCarrier,
    InternalConsistencyError,
    InvalidState,
    MalformedInput,
    NotCommuting,
    NotEnumerable,
)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_not_in_the_carrier(matrix2, bad):
    """Every comparison with NaN is false, so no eigenvalue bound can
    refuse it: a diagonal or off-diagonal NaN or infinity is refused by its
    entries."""
    E, _ = matrix2
    for a in ([[bad, 0.0], [0.0, 0.5]], [[0.5, bad], [bad, 0.5]]):
        with pytest.raises(ElementNotInCarrier):
            E.check_element(a)


@pytest.mark.parametrize("rho", [[[np.nan, 0.0], [0.0, 1.0]], [[0.5, np.nan], [np.nan, 0.5]],
                                 [[1.0, 0.0], [0.0, np.nan]], [[0.5, np.inf], [np.inf, 0.5]]])
def test_density_state_with_a_non_finite_rho_is_invalid(matrix2, rho):
    """Its validation fails on the row "positive" (LAPACK may return
    finite eigenvalues for a NaN matrix), and ``require_valid`` raises."""
    E, _ = matrix2
    s = DensityState(E, rho)
    rep = s.validate()
    assert not rep.passed and not rep.checks[0].passed, rep.checks
    with pytest.raises(InvalidState):
        s.require_valid()


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


# ---------------------------------------------------------------------------
# the splitting tree from one eigendecomposition of a


def _tree_or_error(fn):
    """The tree ``fn()`` returns, or the message of the
    ``InternalConsistencyError`` it raises."""
    try:
        return fn()
    except InternalConsistencyError as err:
        return str(err)


def _assert_same_tree(got, want, where):
    """One node set, u within 1e-9 and c within 1e-6."""
    assert sorted(got._u) == sorted(want._u), where
    assert sorted(got._c) == sorted(want._c), where
    for w in want._u:
        assert np.abs(got._u[w] - want._u[w]).max() <= 1e-9, (where, w)
        assert np.abs(np.asarray(got._c[w]) - np.asarray(want._c[w])).max() <= 1e-6, (where, w)


def _tree_cases(E, rng):
    """Seeded effects, eigenvalues on dyadic points (j/16, 0, 1/2, 1),
    repeated eigenvalues, 0, I and a rank-1 projection."""
    d = E.dim
    for _ in range(6):
        yield "seeded", E.random_effect(rng)
    for _ in range(3):
        yield "j/16", rotated(rng, rng.integers(0, 17, d) / 16)
    yield "0, 1/2, 1", rotated(rng, ([0.0, 0.5, 1.0] * 2)[:d])
    yield "all 1/2", rotated(rng, [0.5] * d)
    vals = rng.uniform(0, 1, d)
    vals[-1] = vals[0]
    yield "repeated", rotated(rng, vals)
    yield "0", E.zero
    yield "I", E.one
    yield "rank 1", E.random_projection(rng, rank=1)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_eigen_trees_equal_the_generic_loop(dim):
    """``splitting_tree`` on the matrix base, read off one eigendecomposition,
    equals the split loop ``spectral._splitting_tree`` at depths 0 to 16."""
    E, cb = matrices.make_matrix_instance(dim)
    rng = np.random.default_rng(190 + dim)
    for name, a in _tree_cases(E, rng):
        for n in range(17):
            want = spectral._splitting_tree(cb, a, n)
            _assert_same_tree(spectral.splitting_tree(cb, a, n), want, (name, n))


@pytest.mark.parametrize("centre, level, escaping", [
    (0.5, 1, "u_(0,)"),  # the level-1 cut
    (0.25, 2, "u_(0, 0)"),  # a level-2 cut
    (0.0, 0, "u_()"),  # the cover's cut at tol
])
def test_a_split_cluster_raises_on_both_paths(matrix3, centre, level, escaping):
    """Two eigenvalues within CLUSTER_GAP on either side of a cut: the cell
    below and the cell above each hold part of one eigenprojection, so no
    u_w of that level lies in P(a).  Both paths raise the same error, naming
    the first u_w that escapes; above the cut's level both give one tree."""
    E, cb = matrix3
    gap = 0.3 * matrices.CLUSTER_GAP
    low = 0.0 if centre == 0 else centre - gap
    a = rotated(np.random.default_rng(5), [low, centre + gap, 0.7])
    for n in range(level, 9):
        got = _tree_or_error(lambda: spectral.splitting_tree(cb, a, n))
        want = _tree_or_error(lambda: spectral._splitting_tree(cb, a, n))
        assert got == want == f"{escaping} escaped the bicommutant of {E.label(a)}", n
    for n in range(level):
        _assert_same_tree(spectral.splitting_tree(cb, a, n), spectral._splitting_tree(cb, a, n), n)


def test_a_boundary_eigenvalue_goes_below():
    """A split sends v below iff 2x - 1 <= tol: with tol a power of two, an
    eigenvalue x with 2x - 1 = tol exactly lies on the cut, and goes to u_(0,)
    on both paths; 1/2 does too, and then walks 1 -> 1 in the cells (0, 1, ...).
    The eigenvalue tol itself lies below the cover's cut.  Rotating nothing
    keeps the eigenvalues exact."""
    tol = 2.0 ** -30
    E, cb = matrices.make_matrix_instance(4, tol=tol)
    x = 0.5 + tol / 2
    assert 2 * x - 1 == tol
    a = np.diag([x, 0.5, 0.75, tol])
    tree = spectral.splitting_tree(cb, a, 4)
    _assert_same_tree(tree, spectral._splitting_tree(cb, a, 4), "boundary")
    assert np.array_equal(tree.u(()), np.diag([1.0, 1.0, 1.0, 0.0]))
    assert np.array_equal(tree.u((0,)), np.diag([1.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(tree.u((0, 1, 1, 1)), np.diag([1.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(tree.u((1, 0, 1, 1)), np.diag([0.0, 0.0, 1.0, 0.0]))


def test_a_basis_that_is_not_orthonormal_raises(matrix3, monkeypatch):
    """The eigenbasis is checked to be orthonormal within tol, which makes
    every layer orthogonal and adds it up to the cover."""
    E, cb = matrix3
    a = rotated(np.random.default_rng(6), [0.2, 0.4, 0.9])
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (eigh(m)[0], 1.001 * eigh(m)[1]))
    with pytest.raises(InternalConsistencyError, match="layer 8 is not orthogonal"):
        spectral.splitting_tree(cb, a, 8)


def test_a_matrix_tree_makes_one_eigh_and_no_split(matrix3, monkeypatch):
    """A depth-8 tree makes one eigendecomposition and no split; nor does
    a depth-8 binary resolution split."""
    E, cb = matrix3
    cb.is_spectral()  # the verdict is kept; its spot checks are not counted
    a = rotated(np.random.default_rng(8), [0.1, 0.35, 0.8])
    calls = {"eigh": 0, "split": 0}
    eigh = np.linalg.eigh

    def counted_eigh(m):
        calls["eigh"] += 1
        return eigh(m)

    def no_split(self, c, q):
        calls["split"] += 1
        raise AssertionError("split called")

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(matrices.MatrixCompressionBase, "split", no_split)
    spectral.splitting_tree(cb, a, 8)
    assert calls == {"eigh": 1, "split": 0}
    spectral.binary_resolution(cb, a, 8)
    assert calls["split"] == 0


# ---------------------------------------------------------------------------
# stacked order tests and trees, bit for bit against one matrix at a time


def _bytes(x) -> bytes:
    """The bits of a float array: unlike ``np.array_equal``, -0.0 is not 0.0."""
    return np.ascontiguousarray(x, dtype=float).tobytes()


def _effects(E, rng):
    """Seeded effects (``_tree_cases``), edge spectra with one eigenvalue at
    j/32 +- 5e-10..1e-6 or at tol, and effects perturbed by symmetric
    noise of 1e-12 to 1e-9 (eigenvalues kept inside [0.01, 0.99])."""
    yield from (a for _, a in _tree_cases(E, rng))
    others = list(np.linspace(0.1, 0.9, E.dim - 1))
    for j in (8, 12, 16, 20):
        for off in (5e-10, -5e-10, 1e-9, -1e-9, 1e-8, 1e-7, -1e-6):
            yield rotated(rng, [j / 32 + off] + others)
    yield rotated(rng, [E.tol] + others)
    yield rotated(rng, [2 * E.tol] + others)
    for size in (1e-12, 1e-11, 1e-10, 1e-9):
        noise = sym(rng.standard_normal((E.dim, E.dim))) * size
        yield rotated(rng, rng.uniform(0.01, 0.99, E.dim)) + noise


def _edge_pairs(E, rng):
    """(x, y) with y - x's least eigenvalue at -tol + d, d = +-1e-12..1e-9:
    ``leq`` holds on one side of the edge and fails on the other."""
    for d in (1e-12, -1e-12, 1e-11, -1e-11, 1e-10, -1e-10, 1e-9, -1e-9):
        x = rotated(rng, rng.uniform(0.2, 0.4, E.dim))
        gap = rotated(rng, [-E.tol + d] + list(rng.uniform(0.1, 0.5, E.dim - 1)))
        yield x, x + gap


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_leq_pairs_is_scalar_leq_bit_for_bit(dim):
    """``leq_pairs`` on a stack is ``leq`` on each pair: on the boundary
    and neighbouring runs of resolutions at depths 3 to 6 of seeded, edge
    and perturbed effects, on each element against the unit (a broadcast
    one), and on pairs at the ``-tol`` edge, where both answers occur."""
    E, cb = matrices.make_matrix_instance(dim)
    rng = np.random.default_rng(230 + dim)
    pairs = list(_edge_pairs(E, rng))
    effects = list(_effects(E, rng))
    for a in effects:
        for n in (3, 6):
            try:
                ps = [p for _, p in spectral.binary_resolution(cb, a, n).jumps]
            except InternalConsistencyError:
                continue
            pairs += [(ps[0], E.ortho(a))] + list(zip(ps, ps[1:])) + list(zip(ps[1:], ps))
    xs, ys = (np.array([pair[i] for pair in pairs]) for i in (0, 1))
    got = E.leq_pairs(xs, ys)
    assert got.tolist() == [E.leq(x, y) for x, y in pairs]
    assert set(got[:8].tolist()) == {True, False}
    assert set(got.tolist()) == {True, False}
    xs = np.array(effects)
    assert E.leq_pairs(xs, E.one).tolist() == [E.leq(x, E.one) for x in effects]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_running_sums_are_the_sequential_sums_bit_for_bit(dim):
    """``running_sums`` on matrices adds in order as ``sum`` does, sym(acc +
    u), and tests every sum below the unit in one call: on the depth-3 to
    depth-9 layers of seeded, edge and perturbed effects each sum has the
    bits of the sequential ``sum``.  Where one sequential ``sum`` is
    undefined, so is the whole."""
    E, cb = matrices.make_matrix_instance(dim)
    rng = np.random.default_rng(240 + dim)
    checked = 0
    for a in _effects(E, rng):
        for n in (3, 6, 9):
            try:
                tree = spectral.splitting_tree(cb, a, n)
            except InternalConsistencyError:
                continue
            start = E.ortho(tree.u(()))
            terms = [u for _, u in tree.layer(n)]
            got = E.running_sums(start, terms)
            want, acc = [start], start
            for u in terms:
                acc = E.sum(acc, u)
                assert acc is not None and _bytes(acc) == _bytes(sym(want[-1] + u))
                want.append(acc)
            assert [_bytes(x) for x in got] == [_bytes(x) for x in want]
            checked += len(terms)
    assert checked > 200
    p = E.random_projection(rng, rank=1)
    half = E.one / 2
    for start, terms in ((E.one, [p]), (E.zero, [half, half, p]), (half, [p, half])):
        acc = start
        for u in terms:
            acc = None if acc is None else E.sum(acc, u)
        assert acc is None and E.running_sums(start, terms) is None


def _tree_nodes_per_eigenvector(E, a, n):
    """The nodes of ``tree_nodes`` as it formed them one eigenvector and
    level at a time, with one ``np.outer`` and one product ``y * proj``
    each: the reference for its stacked projectors."""
    tol = E.tol
    vals, vecs = np.linalg.eigh(sym(np.asarray(a, dtype=float)))
    u, c = {}, {}
    for x, v in zip(vals.tolist(), vecs.T):
        if x <= tol:
            continue
        proj = np.outer(v, v)
        w, y = (), x
        for _ in range(n + 1):
            u[w] = u[w] + proj if w in u else proj
            c[w] = c[w] + y * proj if w in c else y * proj
            bit = int(2.0 * y - 1.0 > tol)
            w, y = w + (bit,), 2.0 * y - bit
    if u:
        c[()] = a
    return u, c


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_tree_nodes_match_the_per_eigenvector_loop(dim):
    """``tree_nodes`` forms its nodes from one stack of rank-one projectors
    and one stacked ``y * proj``: every node of every tree of seeded, edge
    and perturbed effects at depths 0 to 10 has the bits of the loop that
    formed them one eigenvector and level at a time."""
    E, cb = matrices.make_matrix_instance(dim)
    rng = np.random.default_rng(250 + dim)
    nodes = 0
    for a in _effects(E, rng):
        for n in range(11):
            try:
                u, c = cb.tree_nodes(a, n, range(n + 1))
            except InternalConsistencyError:
                continue
            want_u, want_c = _tree_nodes_per_eigenvector(E, a, n)
            assert list(u) == list(want_u) and list(c) == list(want_c)
            assert all(_bytes(u[w]) == _bytes(want_u[w]) for w in u)
            assert all(_bytes(c[w]) == _bytes(want_c[w]) for w in c)
            nodes += len(u)
    assert nodes > 2000


def _nodes_or_error(fn):
    """``(u, c)`` with each node as its bytes, or the class and message of
    the error ``fn`` raised."""
    try:
        u, c = fn()
    except (InternalConsistencyError, ElementNotInCarrier) as exc:
        return type(exc), str(exc)
    return [{w: _bytes(v) for w, v in nodes.items()} for nodes in (u, c)]


def _cut_and_foreign(E, rng):
    """Effects with an eigenvalue cluster cut at the cover, at level 1 or at
    level 2, and matrices outside the carrier."""
    gap = 0.3 * matrices.CLUSTER_GAP
    others = list(np.linspace(0.6, 0.9, E.dim - 2))
    for centre in (0.0, 0.5, 0.25):
        yield rotated(rng, [max(centre - gap, 0.0), centre + gap] + others)
    yield rotated(rng, [1.5] + [0.5] * (E.dim - 1))
    yield rotated(rng, [-0.1] + [0.5] * (E.dim - 1))
    yield np.triu(np.full((E.dim, E.dim), 0.2))  # not symmetric


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_tree_nodes_at_levels_0_and_n_are_the_full_calls_bits(dim):
    """``tree_nodes(a, n, (0, n))``, which the resolutions call, gives
    levels 0 and n of the full call bit for bit, on seeded, edge, perturbed
    and cluster-cutting effects at depths 0 to 10; where the full call
    raises, it raises the same error with the same message, and so does
    ``binary_resolution``."""
    E, cb = matrices.make_matrix_instance(dim)
    rng = np.random.default_rng(280 + dim)
    raised = 0
    for a in [*_effects(E, rng), *_cut_and_foreign(E, rng)]:
        for n in range(11):
            full = _nodes_or_error(lambda: cb.tree_nodes(a, n, range(n + 1)))
            got = _nodes_or_error(lambda: cb.tree_nodes(a, n, (0, n)))
            if isinstance(full, tuple):
                raised += 1
                assert got == full
                with pytest.raises(full[0]) as exc:
                    spectral.binary_resolution(cb, a, n)
                assert str(exc.value) == full[1]
                continue
            assert got == [{w: v for w, v in nodes.items() if len(w) in (0, n)}
                           for nodes in full], n
    assert raised > 50


def test_the_units_are_fixed_and_read_only(matrix3):
    """``zero`` and ``one`` are made once; writing into either raises
    ``ValueError``, so no caller can change what every other reads."""
    E, _ = matrix3
    assert E.zero is E.zero and E.one is E.one
    assert np.array_equal(E.zero, np.zeros((3, 3))) and np.array_equal(E.one, np.eye(3))
    for unit in (E.zero, E.one):
        with pytest.raises(ValueError):
            unit[0, 0] = 0.5
        with pytest.raises(ValueError):
            np.add(unit, 1.0, out=unit)
    assert np.array_equal(E.zero, np.zeros((3, 3))) and np.array_equal(E.one, np.eye(3))


@pytest.mark.parametrize("tol", [-1.0, 0.0, 1e-15, 1e-13, 2e-6, 1e-3, 1e300, np.inf, np.nan])
def test_a_tol_outside_its_range_is_refused(tol):
    """A tolerance below 1e-12 lets rounding tip verdicts on computed
    resolutions (0 made every resolution raise ``NotCommuting``, 1e-15
    broke the orthogonality of trees), and one above 1e-6 is coarser than
    the fixed thresholds of ``meet_proj``; -1 and NaN leaked a ``TypeError``."""
    with pytest.raises(ValueError, match=r"tol must lie in \[1e-12, 1e-6\]"):
        matrices.MatrixEffectAlgebra(3, tol)
    from effalg import instances
    from effalg.errors import MalformedInput

    with pytest.raises(MalformedInput, match="tol"):
        instances.parse_document({"kind": "matrix", "dim": 3, "tol": tol})


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
def test_a_tol_inside_its_range_resolves(tol):
    E, cb = matrices.make_matrix_instance(3, tol)
    a = rotated(np.random.default_rng(9), [1 / 8, 3 / 8, 13 / 16])
    res = spectral.binary_resolution(cb, a, 6)
    assert spectral.verify_resolution(cb, a, res.entries, 6).passed


MALFORMED_EFFECTS = {
    "NaN": np.full((3, 3), np.nan),
    "2x2": np.eye(2) / 2,
    "text": "x",
    "eigenvalue 2": np.diag([2.0, 0.5, 0.1]),
    "not symmetric": np.array([[0.5, 0.1, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]),
}


@pytest.mark.parametrize("name", list(MALFORMED_EFFECTS))
def test_resolutions_refuse_a_matrix_outside_the_carrier(matrix3, name):
    """``verify_resolution``, ``splitting_tree``, ``binary_resolution`` and
    ``rational_resolution`` check their element on the matrix base as on
    every base: a NaN matrix raised ``LinAlgError``, a 2x2 one a numpy
    ``ValueError``, text a ``TypeError``, and an eigenvalue of 2 or a
    matrix that is not symmetric gave a report or a resolution."""
    E, cb = matrix3
    a = MALFORMED_EFFECTS[name]
    family = spectral.binary_resolution(cb, rotated(np.random.default_rng(3), [0.2, 0.5, 0.7]),
                                        4).entries
    for run in (lambda: spectral.verify_resolution(cb, a, family, 4),
                lambda: spectral.splitting_tree(cb, a, 4),
                lambda: spectral.binary_resolution(cb, a, 4),
                lambda: spectral.rational_resolution(cb, a, Fraction(1, 3), 4)):
        with pytest.raises(ElementNotInCarrier):
            run()


def _rotations(rng, dim, angles=(1e-8, 1e-7, 1e-6, 1e-5)):
    """Rotations by angles of about 1e-8 to 1e-5, or ``angles``, from the
    Cayley transform of a seeded skew matrix: a projection rotated by one
    stays a projection and commutes with less."""
    for angle in angles:
        g = rng.standard_normal((dim, dim))
        skew = angle * (g - g.T) / 2
        yield np.linalg.solve(np.eye(dim) - skew, np.eye(dim) + skew)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_commuting_projections_is_the_per_run_test_bit_for_bit(dim):
    """Clause (i) tests every run of a family in one stacked pass:
    ``commuting_projections`` equals ``is_projection`` and ``in_commutant``
    on each entry, and each stacked product has the bits of the product of
    one matrix.  Entries: the runs of resolutions at depths 3 and 6 of
    seeded, edge and perturbed effects, each also moved by symmetric noise
    of 1e-10 to 1e-6, rotated by 1e-8 to 1e-5, or moved off symmetry by
    about tol, where both answers occur; then a non-finite, an int and a
    list entry beside a projection."""
    E, cb = matrices.make_matrix_instance(dim)
    rng = np.random.default_rng(260 + dim)
    outcomes = set()
    for a in _effects(E, rng):
        for n in (3, 6):
            try:
                ps = [p for _, p in spectral.binary_resolution(cb, a, n).jumps]
            except InternalConsistencyError:
                continue
            ps += [p + s * sym(rng.standard_normal((dim, dim)))
                   for p in ps for s in (1e-10, 1e-8, 1e-7, 1e-6)] + \
                [sym(r @ p @ r.T) for p in ps for r in _rotations(rng, dim)] + \
                [p + s * np.triu(rng.standard_normal((dim, dim)))
                 for p in ps for s in (1e-9, 3e-9)]
            a = E.check_element(a)
            got = cb.commuting_projections(a, ps)
            assert got == [cb.is_projection(p) and cb.in_commutant(a, p) for p in ps]
            stack = np.array(ps)
            for p, pp, pa, ap in zip(ps, stack @ stack, stack @ a, a @ stack):
                assert _bytes(pp) == _bytes(p @ p)
                assert _bytes(pa) == _bytes(p @ a) and _bytes(ap) == _bytes(a @ p)
            outcomes.update(got)
    assert outcomes == {True, False}
    p = E.random_projection(rng)
    for odd in (np.full((dim, dim), np.nan), np.eye(dim, dtype=int), p.tolist()):
        assert cb.commuting_projections(p, [p, odd]) == \
            [True, cb.is_projection(odd) and cb.in_commutant(p, odd)]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_one_entry_tests_are_the_stacked_test(dim):
    """``is_projection``, ``in_commutant`` and ``commute`` are
    ``projection_tests`` of one entry, and ``commuting_projections`` one
    call of it over all entries: on seeded projections and effects, near
    misses, a's eigenprojections rotated by 1e-8 to 1e-5, edge entries (0, 1, an int identity, a list) and malformed ones
    (NaN, a wrong shape, a bool array, text, None), the
    one-entry forms give the stacked bits, and on a float matrix those are
    the matrix expressions of one entry.  ``leq`` is ``leq_pairs`` of one
    pair."""
    E, cb = matrices.make_matrix_instance(dim)
    rng = np.random.default_rng(300 + dim)
    tol = E.tol
    for a in list(_effects(E, rng))[:12]:
        a = E.check_element(a)
        ps = [E.random_projection(rng) for _ in range(3)]
        ps += [p + s * sym(rng.standard_normal((dim, dim))) for p in ps for s in (1e-10, 1e-7)]
        clusters = [c for _, c in eig_clusters(a)]
        ps += clusters + [sym(r @ c @ r.T) for c in clusters for r in _rotations(rng, dim)]
        ps += [a, a @ a, E.zero, E.one]
        floats = list(ps)
        ps += [np.eye(dim, dtype=int), np.diag(np.arange(dim) % 2), ps[0].tolist(),
               np.full((dim, dim), np.nan), np.eye(dim + 1), np.eye(dim, dtype=bool), "x",
               None]
        proj, comm = E.projection_tests(ps, a)
        assert [E.is_projection(p) for p in ps] == [cb.is_projection(p) for p in ps] \
            == proj.tolist()
        assert [cb.in_commutant(a, p) for p in ps] == [cb.commute(p, a) for p in ps] \
            == comm.tolist()
        assert cb.commuting_projections(a, ps) == (proj & comm).tolist()
        assert proj[len(floats):].tolist() == [True, True, True] + [False] * 5
        diag = ps[len(floats) + 1]
        assert comm[len(floats):].tolist() == \
            [True, np.abs(diag @ a - a @ diag).max() <= 100 * tol, comm[0]] + [False] * 5
        for p, is_p, commutes in zip(floats, proj, comm):
            assert is_p == (np.abs(p - p.T).max() <= tol and np.abs(p @ p - p).max() <= tol)
            assert commutes == (np.abs(p @ a - a @ p).max() <= 100 * tol)
        for b in floats[-4:]:
            assert E.leq(a, b) is bool(E.leq_pairs(a, b)) \
                is bool(np.linalg.eigvalsh(sym(b - a)).min() >= -tol)


def test_a_dimension_or_tol_out_of_range_is_malformed_input():
    """The carrier's arguments are checked with ``MalformedInput``, which is
    a ``ValueError`` too: a dimension outside 2..4 and a tol outside [1e-12,
    1e-6]."""
    for dim in (1, 5):
        with pytest.raises(MalformedInput, match="dimensions 2..4"):
            matrices.MatrixEffectAlgebra(dim)
    with pytest.raises(MalformedInput, match="tol must lie"):
        matrices.MatrixEffectAlgebra(3, 1e-3)


def test_an_idempotent_within_tol_is_its_own_meet():
    """Idempotence is decided at ``tol``, the precision of ``eq`` and the
    meets: ``p = (1 - e) P`` for a rank-2 projection P of ``matrix(3)`` is
    refused at ``e = 3 tol`` and ``7 tol``, whose ``meet_proj(p, p)`` is P
    and not ``eq`` to p, and accepted at ``e = tol / 4``, where it is; the
    stacked check of ``commuting_projections`` gives the same bits."""
    for tol in (1e-12, 1e-9, 1e-6):
        E, cb = matrices.make_matrix_instance(3, tol=tol)
        rng = np.random.default_rng(29)
        for _ in range(50):
            P = E.random_projection(rng, rank=2)
            for e, accepted in ((3 * tol, False), (7 * tol, False), (tol / 4, True)):
                p = (1 - e) * P
                assert E.is_projection(p) is accepted
                assert E.eq(cb.meet_proj(p, p), p) is accepted
                assert cb.commuting_projections(P, [P, p]) == [True, accepted]


# ---------------------------------------------------------------------------
# the stacked kernels of the matrix verifier against the loops they replaced


def _meets_per_rank(ps, qs):
    """The meets as a loop over ranks formed them: per rank r, the last r
    eigenvectors of p + q of the pairs of that rank, times their transpose."""
    vals, vecs = np.linalg.eigh(sym(ps + qs))
    ranks = (vals > 2 - 1e-6).sum(axis=1)
    out = np.empty_like(vecs)
    for r in set(ranks.tolist()):
        block = vecs[ranks == r][..., vecs.shape[-1] - r:]
        out[ranks == r] = sym(block @ np.swapaxes(block, -1, -2))
    return out


def _basis_projection(q, columns):
    """The projection onto the given columns of the orthogonal q."""
    block = q[:, sorted(columns)]
    return sym(block @ block.T)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_meets_are_the_per_rank_products_bit_for_bit(dim):
    """``meet_proj`` (the kept eigenvectors of one pair times their
    transpose) gives each pair the bits, signs of zero included, of the
    stacked loop over ranks: on seeded stacks of projections
    onto columns of one rotation, whose meets have every rank from 0 to
    dim, the same rotated by 1e-8 to 1e-5 (near misses) and by 1e-3 to
    3e-2 (eigenvalues of p + q about 2 - angle^2 / 2, on both sides of the
    mask's 2 - 1e-6), and pairs of a projection with itself, 0 and 1."""
    E, cb = matrices.make_matrix_instance(dim)
    rng = np.random.default_rng(360 + dim)
    ranks = set()
    for _ in range(30):
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        subsets = [set(np.flatnonzero(rng.integers(0, 2, dim)).tolist()) for _ in range(8)]
        ps = [_basis_projection(q, s) for s in subsets]
        qs = [_basis_projection(q, set(range(dim)) - s if k % 3 == 0 else s | {k % dim})
              for k, s in enumerate(subsets)]
        wide = _rotations(rng, dim, (1e-3, 3e-3, 1e-2, 3e-2))
        qs += [sym(r @ p @ r.T) for p, r in zip(ps, itertools.chain(_rotations(rng, dim), wide))]
        ps += ps[:8]
        ps += [ps[0], ps[1], E.zero, E.one]
        qs += [ps[0], E.zero, E.one, E.one]
        ps, qs = np.array(ps), np.array(qs)
        got = np.array([cb.meet_proj(p, q) for p, q in zip(ps, qs)])
        assert _bytes(got) == _bytes(_meets_per_rank(ps, qs))
        ranks.update(np.rint(np.trace(got, axis1=1, axis2=2)).astype(int).tolist())
    assert ranks == set(range(dim + 1)), ranks


def _walk_per_eigenvalue(E, w, ys):
    """The walk of every eigenvalue ys of b on range(u) along w: per step,
    the least test value so far and the least image eigenvalue."""
    lows, leasts = [1.0] * (len(w) + 1), [1.0] * (len(w) + 1)
    for y in ys:
        low = 1.0 - y
        lows[0], leasts[0] = min(lows[0], low), min(leasts[0], y)
        for m, bit in enumerate(w, 1):
            y = 2.0 * y - bit
            low = min(low, 1.0 - y, y) if bit else min(low, 1.0 - y)
            lows[m], leasts[m] = min(lows[m], low), min(leasts[m], y)
    return list(zip(lows, leasts))


def _verdict_per_cell(E, walk):
    """One cell's verdict from its walk: "fail" once a test lies below
    -tol, as ``apply_fw`` stops there, else "cover" where the least image
    eigenvalue is at most tol, else "pass"."""
    if any(low < -E.tol for low, _ in walk):
        return "fail"
    return "cover" if walk[-1][1] <= E.tol else "pass"


def _rounding_may_tip(E, w, ys):
    """Whether two float computations of clause (iv) on the cell w, the walk
    of the eigenvalues ys of b on range(u) and the scalar
    ``spectral._doubling_cell``, may differ: a test of step m of the scalar
    path lies within beta = 32 * dim * eps * 2^m of the walk's
    (``test_spectral.test_scalar_tests_lie_within_the_rounding_bound``).
    So they may where b is no effect of [0, u] within tol, where beta
    reaches tol before a step surely fails, where the last test lies
    within beta of -tol, or where the least image eigenvalue lies in (tol -
    beta, beta + beta / (tol - beta)): above that the scalar cover lies
    within the Davis-Kahan distance beta / (m - beta) + beta <= tol of u."""
    tol = E.tol
    if ys and (ys[0] < -tol or ys[-1] > 1.0 + tol):
        return True
    for m, (low, least) in enumerate(_walk_per_eigenvalue(E, w, ys)):
        beta = 32 * E.dim * np.finfo(float).eps * 2.0 ** m
        if beta >= tol:
            return True
        if low < -tol - beta:
            return False
    return low < -tol + beta or tol - beta < least < beta + beta / (tol - beta)


def _cell_spectrum(E, u, a):
    """The eigenvalues of b = u a u on range(u), ascending, as
    ``doubling_cells`` reads them off b + 2u, the rank read off trace(u)."""
    rank = round(float(np.trace(u)))
    return (np.linalg.eigvalsh(sym(u @ a @ u) + 2.0 * u) - 2.0).tolist()[E.dim - rank:]


def _doubling_cells_per_cell(cb, a, ws, us):
    """``doubling_cells`` one cell at a time: every eigenvalue of b on the
    cell u, the symmetric part of a difference of ``us``, walked along w."""
    E = cb.algebra
    return [_verdict_per_cell(E, _walk_per_eigenvalue(E, w, _cell_spectrum(E, sym(u), a)))
            for u, w in zip(us, ws)]


def _bits_of(y, length, tol):
    """The first bits of y as ``split`` reads them: 1 where 2y - 1 > tol."""
    w = []
    for _ in range(length):
        w.append(int(2.0 * y - 1.0 > tol))
        y = 2.0 * y - w[-1]
    return tuple(w)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_doubling_cells_are_the_per_cell_walk(dim):
    """``doubling_cells`` (one verdict per cell, from the walks of the
    least and the greatest eigenvalue) gives every cell the verdict of the
    walk of every eigenvalue it replaced, and wherever rounding cannot tip
    the scalar ``_doubling_cell`` (``_rounding_may_tip``) that is its
    verdict too.  Effects with edge spectra j/32 +- d (d from 5e-10 to
    1e-6, some eigenvalues just outside [0, 1]), differences hi - lo of
    nested projections onto columns of their eigenbasis (u of every rank,
    0 included) and the same with hi rotated by 1e-8 to 1e-5, so that u is
    no projection; each pair gives cells for the prefixes, from a seeded
    shortest length, of the bits of one of a's eigenvalues (one that lies
    on a boundary goes below or above it) or of a seeded string of up to
    12 bits, handed over in a seeded order.  At tol =
    1e-12 the scalar path's rounding reaches tol before 12 bits.  Cells of
    every verdict lie off the band, and cells that pass or fall short of
    their cover inside it.  On every cell the eigenvalues walked lie within
    5 |u - U| of those of U a U on range(U), U the projection onto u's
    eigenvalues near 1 (Weyl's inequality)."""
    rng = np.random.default_rng(380 + dim)
    seen = set()
    for k in range(30):
        E, cb = matrices.make_matrix_instance(dim, tol=1e-12 if k % 3 == 2 else 1e-9)
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        offsets = rng.choice([0.0, 5e-10, 1e-9, 2e-9, 1e-8, 1e-7, 1e-6], dim)
        vals = np.sort(rng.integers(0, 33, dim) / 32 + offsets * rng.choice([-1, 1], dim))
        a = sym(q @ np.diag(vals) @ q.T)
        pairs, strings = [], []
        for _ in range(6):
            hi = set(np.flatnonzero(rng.integers(0, 2, dim)).tolist())
            lo = {i for i in hi if rng.random() < 0.5}
            pairs.append((_basis_projection(q, hi), _basis_projection(q, lo)))
            length = int(rng.integers(0, 13))
            inside = sorted(hi - lo) or list(range(dim))  # a's eigenvalues on range(u)
            edge = E.tol if rng.random() < 0.5 else -E.tol  # a boundary goes below, or above
            strings.append(_bits_of(vals[rng.choice(inside)], length, edge)
                           if rng.random() < 0.7 else tuple(rng.integers(0, 2, length).tolist()))
        for (p, lo), r in zip(pairs[:2], _rotations(rng, dim)):
            pairs.append((sym(r @ p @ r.T), lo))
            strings.append(strings[len(pairs) % 6])
        cells = [(w[:m], i) for i, w in enumerate(strings)
                 for m in range(int(rng.integers(0, len(w) + 1)), len(w) + 1)]
        cells = [cells[k] for k in rng.permutation(len(cells))]
        ws = [w for w, _ in cells]
        us = np.array([pairs[i][0] - pairs[i][1] for _, i in cells])
        got = cb.doubling_cells(a, ws, us)
        assert got == _doubling_cells_per_cell(cb, a, ws, us)
        for w, (_, i), u, verdict in zip(ws, cells, sym(us), got):
            vals_u, vecs_u = np.linalg.eigh(u)
            top = vecs_u[:, vals_u > 0.5]
            off = np.abs(vals_u - np.rint(vals_u)).max()
            walked = _cell_spectrum(E, u, a)
            assert np.abs(np.array(walked) - np.linalg.eigvalsh(top.T @ a @ top)).max(
                initial=0.0) <= 5 * off + 1e-12, (vals, w)
            if i >= 6:  # rotated: u is no projection, which the scalar path reads as one
                continue
            tipped = _rounding_may_tip(E, w, walked)
            if not tipped:
                assert verdict == spectral._doubling_cell(cb, w, a, u), (vals, w)
            seen.add((verdict, tipped))
    assert {v for v, tipped in seen if not tipped} == {"pass", "fail", "cover"}, seen
    assert {v for v, tipped in seen if tipped} >= {"pass", "cover"}, seen


def _projection_tests_of_the_good(E, ps, a):
    """``projection_tests`` as it was: the well-formed entries alone as one
    float stack, the others failing both tests (an entry that makes no
    array is malformed here too, where ``np.asarray`` raised before)."""
    d = E.dim

    def array(p):
        try:
            return np.asarray(p)
        except ValueError:
            return None

    arrays = [array(p) for p in ps]
    good = np.array([x is not None and x.shape == (d, d) and x.dtype.kind in "fiu"
                     for x in arrays], dtype=bool)
    s = np.array([x for x, ok in zip(arrays, good) if ok], dtype=float).reshape(-1, d, d)
    proj, comm = np.zeros((2, good.size), dtype=bool)
    proj[good] = (np.abs(s - np.swapaxes(s, 1, 2)).max(axis=(1, 2)) <= E.tol) \
        & (np.abs(s @ s - s).max(axis=(1, 2)) <= E.tol)
    comm[good] = np.abs(s @ a - a @ s).max(axis=(1, 2)) <= 100 * E.tol
    return proj, comm


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_projection_tests_read_each_entry_of_a_mixed_stack_alone(dim):
    """``projection_tests`` on stacks that mix well-formed entries (runs of
    resolutions, the same moved off by 1e-10 to 1e-6 or rotated by 1e-8 to
    1e-5, int and list matrices) with malformed ones (ragged, text, text matrices, complex,
    bool, object, NaN, wrong shapes, None), in seeded orders: each entry
    has the bits it has alone and the bits of the stack of the
    well-formed entries only, and the malformed fail both tests.  A
    family with a ragged run fails clause (i) at that run."""
    E, cb = matrices.make_matrix_instance(dim)
    rng = np.random.default_rng(400 + dim)
    malformed = [[[1.0] * dim] * (dim - 1) + [[1.0]], "x", [["1"] * dim] * dim,
                 np.eye(dim, dtype=complex), np.eye(dim, dtype=bool),
                 np.full((dim, dim), Fraction(1, 2), dtype=object), np.eye(dim + 1),
                 np.eye(dim)[:, :1], None, 3.0, [[np.nan] * dim] * dim]
    outcomes = set()
    for a in list(_effects(E, rng))[:10]:
        a = E.check_element(a)
        runs = [p for _, p in spectral.binary_resolution(cb, a, 4).jumps]
        good = runs + [p + s * sym(rng.standard_normal((dim, dim))) for p in runs
                       for s in (1e-10, 1e-7, 1e-6)]
        good += [sym(r @ p @ r.T) for p in runs for r in _rotations(rng, dim)]
        good += [np.eye(dim, dtype=int), runs[0].tolist()]
        ps = good + malformed
        ps = [ps[k] for k in rng.permutation(len(ps))]
        proj, comm = E.projection_tests(ps, a)
        want_proj, want_comm = _projection_tests_of_the_good(E, ps, a)
        assert proj.tolist() == want_proj.tolist() and comm.tolist() == want_comm.tolist()
        for p, is_p, commutes in zip(ps, proj, comm):
            one_p, one_c = E.projection_tests([p], a)
            assert (one_p.tolist(), one_c.tolist()) == ([is_p], [commutes])
            if any(p is m for m in malformed):
                assert not is_p and not commutes
            outcomes.add((bool(is_p), bool(commutes)))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}, outcomes
    a = rotated(rng, np.linspace(0.2, 0.8, dim))
    family = dict(spectral.binary_resolution(cb, a, 3).entries)
    family[Fraction(1, 2)] = malformed[0]
    rep = spectral.verify_resolution(cb, a, family, 3)
    assert [(c.passed, c.witness) for c in rep.checks[1:3]] == [(False, Fraction(1, 2)),
                                                                 (False, None)]


def _drawn_effect(dim, rng):
    """An effect drawn one at a time: a normal matrix, then its eigenvalues,
    rotated by the Q of the matrix."""
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return sym(q @ np.diag(rng.uniform(0, 1, dim)) @ q.T)


def _sampled_axioms_per_sample(E):
    """The spot checks as a loop over the samples, through the scalar
    ``sum``, ``eq`` and ``ortho``; a sum that a later step reads but that is
    undefined fails its law (the loop raised ``TypeError`` there)."""
    def eq(x, y):
        return x is not None and y is not None and E.eq(x, y)

    rng = np.random.default_rng(0)
    m = 200
    elems = [_drawn_effect(E.dim, rng) for _ in range(m)]
    ok_comm = ok_assoc = True
    w_comm = w_assoc = None
    for i in range(m):
        a, b, c = elems[i], elems[(i * 7 + 1) % m], elems[(i * 13 + 2) % m]
        ab, ba = E.sum(a, b), E.sum(b, a)
        if (ab is None) != (ba is None) or (ab is not None and not eq(ab, ba)):
            ok_comm, w_comm = False, i
        if ab is not None:
            abc = E.sum(ab, c)
            if abc is not None:
                bc = E.sum(b, c)
                if bc is None or not eq(E.sum(a, bc), abc):
                    ok_assoc, w_assoc = False, i
    ok3 = all(eq(E.sum(a, E.ortho(a)), E.one) for a in elems[:50])
    ok4 = all(E.sum(a, E.one) is None for a in elems[:50] if not E.eq(a, E.zero))
    return [("E1-commutative", ok_comm, "sampled", w_comm, ""),
            ("E2-associative", ok_assoc, "sampled", w_assoc, ""),
            ("E3-orthosupplement-valid", ok3, "sampled", None, ""),
            ("E4-unit-maximal", ok4, "sampled", None, "")]


class _BandedOrder(matrices.MatrixEffectAlgebra):
    """A matrix carrier whose order also asks, or with ``loose`` only asks,
    that seven times the corner entry of y - x, plus 1/2, lie in a band mod
    1: sums fall undefined, or defined past the unit, by a rule of their
    bits, and x <= x fails."""

    def __init__(self, dim, tol, loose):
        super().__init__(dim, tol)
        self.loose = loose

    def leq_pairs(self, xs, ys):
        band = ((np.asarray(ys) - np.asarray(xs))[..., 0, 0] * 7 + 0.5) % 1 < 0.4
        return band if self.loose else super().leq_pairs(xs, ys) & band


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_sampled_axioms_are_the_loop_over_samples(dim):
    """The stacked spot checks give the rows and witnesses (the last
    failing i) of the loop over the 200 samples, on matrix carriers at
    three tolerances and on carriers whose order fails sums by a band of
    their bits, where E2, E3 and E4 fail; the samples are
    drawn one at a time from the same stream, bit for bit, and leave the
    stream where that leaves it; ``random_effect`` is one such draw."""
    outcomes = set()
    for tol in (1e-12, 1e-9, 1e-6):
        for E in (matrices.MatrixEffectAlgebra(dim, tol), _BandedOrder(dim, tol, False),
                  _BandedOrder(dim, tol, True)):
            rep = core.validate_axioms(E)
            rows = [(c.name, c.passed, c.mode, c.witness, c.detail) for c in rep.checks]
            assert rows == _sampled_axioms_per_sample(E)
            outcomes.update((name, passed) for name, passed, *_ in rows)
    assert {name for name, passed in outcomes if not passed} == \
        {"E2-associative", "E3-orthosupplement-valid", "E4-unit-maximal"}, outcomes
    E = matrices.MatrixEffectAlgebra(dim)
    stacked, one_by_one = np.random.default_rng(9), np.random.default_rng(9)
    got = E.sample_elements(stacked, 40) + [E.random_effect(stacked)]
    assert len(got) == 41
    assert all(_bytes(x) == _bytes(_drawn_effect(dim, one_by_one)) for x in got)
    assert stacked.random() == one_by_one.random()


def test_labels_are_numpy_formatted_entries():
    """``label`` prints each entry as numpy's own scalars print with
    ``:.6g``, row by row, on seeded matrices and on int, bool, NaN and
    infinite entries, and on stacks of any shape."""
    def numpy_label(a):
        rows = ["[" + ", ".join(f"{x:.6g}" for x in row) + "]" for row in np.asarray(a)]
        return "[" + ", ".join(rows) + "]"

    rng = np.random.default_rng(4)
    for dim in (2, 3, 4):
        E = matrices.MatrixEffectAlgebra(dim)
        cases = [E.random_effect(rng) for _ in range(50)]
        cases += [rng.standard_normal((dim, dim)) * 10.0 ** rng.integers(-9, 9, (dim, dim)),
                  rng.integers(-5, 5, (dim, dim)), rng.integers(0, 3, (dim, dim)).astype(np.uint8),
                  np.full((dim, dim), np.nan), np.full((dim, dim), -np.inf),
                  np.eye(dim).astype(np.float32) / 3, np.eye(dim, dtype=bool),
                  rng.random((dim + 1, dim))]
        for a in cases:
            assert E.label(a) == numpy_label(a), a
    assert matrices.MatrixEffectAlgebra(2).label([[True, False], [0.5, -0.0]]) == \
        "[[1, 0], [0.5, -0]]"
