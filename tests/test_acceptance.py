"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines live.
"""

import itertools
import time

import numpy as np
import pytest
from fractions import Fraction

from effalg import cli, comparability, compbase, core, groups, instances, matrices, spectral
from effalg.errors import NotFaithful
from effalg.matrices import chi_leq, sym
from effalg.spectral import k_of


def _verdict(num, ok, detail, elapsed):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def named_instances():
    ident = [Fraction(i, 8) for i in range(9)]
    l8 = instances.make_mv_product(8, 1, validate=False)
    out = {
        "boolean(1)": instances.make_boolean(1, validate=False),
        "boolean(2)": instances.make_boolean(2, validate=False),
        "boolean(3)": instances.make_boolean(3, validate=False),
        "boolean(4)": instances.make_boolean(4, validate=False),
        "mv(4,2)": instances.make_mv_product(4, 2, validate=False),
        "mv(8,3)": instances.make_mv_product(8, 3, validate=False),
        "MO2": instances.make_mo2(validate=False),
        "L8+L8": instances.make_horizontal_sum(l8, l8, ident, ident, validate=False),
    }
    return out


def test_criterion_01_axiom_suites(named_instances):
    t0 = time.perf_counter()
    worst = 0.0
    suites = dict(named_instances)
    for (na, a), (nb, b) in itertools.combinations_with_replacement(
            sorted(named_instances.items()), 2):
        suites[f"{na} x {nb}"] = instances.make_product(a, b, validate=False)
    structural = spectral_rows = 0
    for name, (E, cb) in suites.items():
        t1 = time.perf_counter()
        # the brute-force scans on every suite, products included
        ax = core._scan_axioms(E)
        assert ax.passed, f"{name}: {ax.summary()}"
        bs = compbase._scan_base(E, cb)
        assert bs.passed, f"{name}: {bs.summary()}"
        # the public verdict: products, grids and Booleans through their factors
        for scan, rep in ((ax, core.validate_axioms(E)), (bs, compbase.validate_base(E, cb))):
            assert rep.passed, f"{name}: {rep.summary()}"
            assert [c.name for c in rep.checks] == [c.name for c in scan.checks], name
            if E.factors is not None:
                assert {c.mode for c in rep.checks} == {"structural"}, f"{name}: {rep.summary()}"
                structural += len(rep.checks)
        # the spectrality verdict: through the factors too
        rep = comparability.check_b_comparability(cb)
        if E.factors is not None:
            assert {c.mode for c in rep.checks} == {"structural"}, f"{name}: {rep.summary()}"
            spectral_rows += len(rep.checks)
        took = time.perf_counter() - t1
        worst = max(worst, took)
        assert took < 10.0, f"{name} suite took {took:.2f} s, over 10 s"
        # the archimedean verdict is the cancellation row just computed
        assert core.is_archimedean(E) == core._cancellation_check(E).passed
    _verdict(1, True, f"{len(suites)} suites, slowest {worst:.2f}s < 10s, "
             f"{structural} rows structural, {spectral_rows} spectrality rows structural",
             time.perf_counter() - t0)


def test_criterion_02_closed_form_oracle():
    t0 = time.perf_counter()
    checked = 0
    for (k, d), depth in (((4, 1), 4), ((4, 2), 4), ((4, 4), 4)):
        E, cb = instances.make_mv_product(k, d, validate=False)
        for a in range(E.size):
            tree = spectral.splitting_tree(cb, a, depth)
            oracle = instances.closed_form_mv_resolution(E, a, depth)
            assert instances.trees_equal(tree, oracle), (k, d, E.label(a))
            checked += 1
    E, cb = instances.make_mv_product(8, 3, validate=False)
    rng = np.random.default_rng(2024)
    for a in rng.integers(0, E.size, 100):
        tree = spectral.splitting_tree(cb, int(a), 5)
        oracle = instances.closed_form_mv_resolution(E, int(a), 5)
        assert instances.trees_equal(tree, oracle), E.label(int(a))
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _verdict(2, True, f"{checked} elements, zero mismatches", elapsed)


def test_criterion_03_group_oracle():
    t0 = time.perf_counter()
    E, cb = instances.make_mv_product(8, 3, validate=False)
    G = instances.universal_group(E)
    rng = np.random.default_rng(33)
    n = 2 ** 5
    for a in rng.integers(0, E.size, 100):
        res = spectral.binary_resolution(cb, int(a), 5)
        g = instances.embed_element(E, int(a))
        for m in range(n + 1):
            expected = instances.projection_from_group(
                E, groups.group_spectral(G, g, m, n))
            assert res.at(Fraction(m, n)) == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _verdict(3, True, "100 elements x 33 dyadic levels, exact equality", elapsed)


def test_criterion_04_matrix_oracle():
    t0 = time.perf_counter()
    checked = 0
    for dim, count in ((2, 50), (3, 20)):
        E, cb = instances.make_matrix(dim)
        rng = np.random.default_rng(dim * 7)
        for _ in range(count):
            vals = rng.uniform(0.0, 1.0, dim)
            while dim > 1 and np.diff(np.sort(vals)).min() <= 0.02:
                vals = rng.uniform(0.0, 1.0, dim)
            q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            a = sym(q @ np.diag(vals) @ q.T)
            res = spectral.binary_resolution(cb, a, 8)
            for lam, p in res.items():
                if min(abs(float(lam) - v) for v in vals) <= 2 ** -8:
                    continue
                assert np.abs(p - chi_leq(a, float(lam), E.tol)).max() <= 1e-9
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _verdict(4, True, f"{checked} random effects vs eigenprojections at 1e-9", elapsed)


def test_criterion_05_structural_lemmas():
    t0 = time.perf_counter()
    E, cb = instances.make_mv_product(4, 2, validate=False)
    u_vec = E.group_unit
    depth = 4
    for a in range(E.size):
        tree = spectral.splitting_tree(cb, a, depth)
        res = spectral.binary_resolution(cb, a, depth)
        cover = cb.cover(a)
        g = instances.embed_element(E, a)
        for level in range(depth + 1):
            layer = tree.layer(level)
            total = E.zero
            for w, u in layer:
                s = E.sum(total, u)
                assert s is not None  # pairwise orthogonal
                total = s
            assert total == cover  # layer partition
        for w, uw in tree._u.items():
            for j in range(len(w)):
                assert E.leq(uw, tree.u(w[:j]))  # nesting
            mask = E.coords[uw] > 0
            expect = np.where(mask, 2 ** len(w) * g - k_of(w) * u_vec, 0)
            assert (E.coords[tree.c(w)] == expect).all()  # group identity
        grid = res.grid()
        for lo, hi in zip(grid, grid[1:]):
            assert E.leq(res.entries[lo], res.entries[hi])  # monotone
        for level in range(depth):
            for w, u in tree.layer(level):
                mid = Fraction(2 * k_of(w) + 1, 2 ** (level + 1))
                assert E.meet(res.entries[mid], u) == tree.u(w + (0,))
    elapsed = time.perf_counter() - t0
    _verdict(5, True, f"all {E.size} elements at depth {depth}, zero failures", elapsed)


def _perturbation_run(cb, E, a, depth, pool, rng, trials=200):
    res = spectral.binary_resolution(cb, a, depth)
    assert spectral.verify_resolution(cb, a, res.entries, depth).passed
    grid = res.grid()
    rejected = identities = 0
    for t in range(trials):
        lam = grid[rng.integers(len(grid))]
        cand = pool[rng.integers(len(pool))]
        if t % 100 != 0:  # keep a deliberate identity draw per hundred
            for _ in range(8):
                if not E.eq(cand, res.entries[lam]):
                    break
                cand = pool[rng.integers(len(pool))]
        fam = dict(res.entries)
        fam[lam] = cand
        if E.eq(cand, res.entries[lam]):
            identities += 1
            assert spectral.verify_resolution(cb, a, fam, depth).passed
            continue
        if not spectral.verify_resolution(cb, a, fam, depth).passed:
            rejected += 1
    assert rejected + identities == trials  # every non-identity change refused
    assert rejected >= 0.99 * trials - identities
    return rejected, identities


def test_criterion_06_unique_family():
    t0 = time.perf_counter()
    E, cb = instances.make_mv_product(4, 2, validate=False)
    rng = np.random.default_rng(66)
    a = E.index_of([1, 3])
    r1, i1 = _perturbation_run(cb, E, a, 4, list(cb.projections), rng)

    M, mcb = instances.make_matrix(2)
    q = np.linalg.qr(np.random.default_rng(5).standard_normal((2, 2)))[0]
    am = sym(q @ np.diag([5 / 16, 11 / 16]) @ q.T)
    eig = [p for _, p in matrices.eig_clusters(am)]
    pool = [M.zero, M.one, sym(eig[0]), sym(eig[1]),
            M.random_projection(np.random.default_rng(8))]
    r2, i2 = _perturbation_run(mcb, M, am, 8, pool, rng)
    elapsed = time.perf_counter() - t0
    _verdict(6, True,
             f"grid: {r1} rejected/{i1} identity; matrix: {r2} rejected/{i2} identity",
             elapsed)


def test_criterion_07_expectation_sandwich():
    t0 = time.perf_counter()
    E, cb = instances.make_mv_product(8, 3, validate=False)
    rng = np.random.default_rng(77)
    trials = 0
    for s_idx in range(5):
        raw = rng.integers(1, 9, 3)
        weights = [Fraction(int(x), int(raw.sum())) for x in raw]
        s = instances.weighted_state(E, weights)
        for depth in (2, 4, 8):
            for a in rng.integers(0, E.size, 4):
                lo, hi = spectral.expectation_bounds(cb, int(a), s, depth)
                assert hi - lo == Fraction(1, 2 ** depth)  # exact width
                assert lo <= s(int(a)) <= hi
                trials += 1
    _verdict(7, True, f"{trials} trials, exact sandwich", time.perf_counter() - t0)


def test_criterion_08_right_continuity():
    t0 = time.perf_counter()
    for k, d, depth in ((4, 2, 6), (8, 3, 6)):
        E, cb = instances.make_mv_product(k, d, validate=False)
        G = instances.universal_group(E)
        rng = np.random.default_rng(88)
        sample = rng.integers(0, E.size, 12)
        for a in sample:
            a = int(a)
            res = spectral.binary_resolution(cb, a, depth)
            for lam in (Fraction(1, 2), Fraction(3, 4), Fraction(5, 8)):
                assert spectral.rational_resolution(cb, a, lam, depth) == res.at(lam)
            g = instances.embed_element(E, a)
            for lam in (Fraction(1, 3), Fraction(2, 3), Fraction(1, 5)):
                got = spectral.rational_resolution(cb, a, lam, 8)
                expected = instances.projection_from_group(
                    E, groups.group_spectral(G, g, lam.numerator, lam.denominator))
                assert got == expected
    _verdict(8, True, "dyadic entries and 1/3, 2/3, 1/5 match the group oracle",
             time.perf_counter() - t0)


def test_criterion_09_negative_paths(tmp_path):
    t0 = time.perf_counter()
    import json

    mo2_doc = tmp_path / "mo2.json"
    mo2_doc.write_text(json.dumps({"kind": "mo2"}))
    code = cli.main(["check-spectral", str(mo2_doc)])
    assert code == 1  # sharp atoms outside P

    l8 = instances.make_mv_product(8, 1, validate=False)
    ident = [Fraction(i, 8) for i in range(9)]
    bad = list(ident)
    bad[3] = Fraction(0)
    with pytest.raises(NotFaithful):
        instances.make_horizontal_sum(l8, l8, ident, bad)

    E, _ = instances.make_horizontal_sum(l8, l8, ident, ident, validate=False)
    witness = instances.torsion_witness(E)
    assert witness is not None
    e, f = witness
    assert e != f and E.sum(e, e) == E.one and E.sum(f, f) == E.one
    _verdict(9, True,
             f"MO2 exit 1; non-faithful state rejected; 2e=2f=1 at "
             f"({E.label(e)}, {E.label(f)})", time.perf_counter() - t0)


def test_criterion_10_group_characterization():
    t0 = time.perf_counter()
    G = groups.ZGroup([1, 2, 3, 4])
    rng = np.random.default_rng(1010)
    lams = sorted({Fraction(m, n) for n in (1, 2, 3, 4, 8)
                   for m in range(-3 * n, 3 * n + 1)})
    for _ in range(200):
        g = rng.integers(-2 * G.unit, 2 * G.unit + 1)
        lg, ug = groups.bounds(G, g)
        spectrum = sorted({Fraction(int(x), int(u)) for x, u in zip(g, G.u)})
        fam = {lam: groups.group_spectral(G, g, lam.numerator, lam.denominator)
               for lam in lams}
        prev = None
        for lam in lams:
            p = fam[lam]
            if lam < lg:
                assert not p.any()                      # clause (i) low
            if lam >= ug:
                assert (p == G.unit).all()              # clause (i) high
            if prev is not None:
                assert (prev <= p).all()                # clause (ii)
            prev = p
            above = [s for s in spectrum if s > lam]
            mu = (lam + above[0]) / 2 if above else lam + 1
            wit = groups.group_spectral(G, g, mu.numerator, mu.denominator)
            assert (wit == p).all()                     # clause (iii) witness
            n_, m_ = lam.denominator, lam.numerator
            jp = G.compress(p, g)
            jm = G.compress(G.proj_complement(p), g)
            assert (n_ * jp <= m_ * p).all()            # clause (iv)
            assert (m_ * G.proj_complement(p) <= n_ * jm).all()
        pieces, err, gap = groups.dyadic_approximation(
            G, g, range(-3, 4), 1)
        assert err <= gap
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _verdict(10, True, "200 elements in Z^4: all four clauses + approximation bound",
             elapsed)


def _monotone_families(E, P, length):
    """Every monotone sequence of ``length`` members of P, as tuples."""
    above = {p: [q for q in P if E.leq(p, q)] for p in P}

    def extend(seq):
        if len(seq) == length:
            yield tuple(seq)
            return
        for q in above[seq[-1]] if seq else P:
            seq.append(q)
            yield from extend(seq)
            seq.pop()

    yield from extend([])


def _chain(k):
    """The chain {0..k} as a table, i + j defined while it is at most k,
    with its central base."""
    E = instances.make_table([(i, j, i + j) for i in range(k + 1) for j in range(k + 1 - i)],
                             k + 1, 0, k)
    return E, compbase.central_base(E)


def test_criterion_11_unique_resolution_at_every_depth():
    """The paper's uniqueness theorem, checked exhaustively: for every
    element and depth, of all the monotone families of members of P on the
    depth-n grid exactly one passes ``verify_resolution``, and it is the
    element's ``binary_resolution``, at depths short of the element's
    spectral values too (the chains' 1/3, 1/5 and 1/6 at every depth)."""
    t0 = time.perf_counter()
    cases = [("mv(4,2)", instances.make_mv_product(4, 2, validate=False), range(1, 5)),
             ("boolean(3)", instances.make_boolean(3, validate=False), range(0, 3)),
             ("boolean(2) x mv(4,1)", instances.make_product(
                 instances.make_boolean(2, validate=False),
                 instances.make_mv_product(4, 1, validate=False), validate=False), range(2, 4))]
    cases += [(f"chain {{0..{k}}}", _chain(k), range(2, 6)) for k in (3, 5, 6)]
    verifies, wrong = 0, []
    for name, (E, cb), depths in cases:
        P = list(cb.projections)
        for n in depths:
            grid = [Fraction(j, 2 ** n) for j in range(2 ** n + 1)]
            families = list(_monotone_families(E, P, len(grid)))
            for a in range(E.size):
                res = spectral.binary_resolution(cb, a, n)
                own = tuple(res.at_index(j) for j in range(len(grid)))
                passed = [fam for fam in families
                          if spectral.verify_resolution(cb, a, dict(zip(grid, fam)), n).passed]
                verifies += len(families)
                if passed != [own]:
                    wrong.append((name, E.label(a), n))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _verdict(11, not wrong, f"{verifies} families on {len(cases)} instances: one passes per "
             f"element and depth, its own" if not wrong else
             f"{len(wrong)} element-depth cases without exactly their own family: {wrong[:4]}",
             elapsed)
