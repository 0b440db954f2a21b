import numpy as np
import pytest

from effalg import compbase, core, instances, kernels
from effalg.compbase import (
    CompressionBase,
    blocks,
    c_block,
    central_base,
    check_oml,
    classify_map,
    commutant,
    bicommutant,
    pc,
    projection_cover,
    validate_base,
)
from effalg.core import GridAlgebra
from effalg.errors import DomainMismatch, IncompleteBase, NoCover


def test_classify_meet_map_is_compression(bool3):
    E, cb = bool3
    p = 0b011
    cls = classify_map(E, cb.map_table(p))
    assert cls.is_compression and cls.focus == p


def test_classify_constant_zero(bool3):
    E, _ = bool3
    cls = classify_map(E, np.zeros(E.size, dtype=int))
    assert cls.is_compression and cls.focus == E.zero


def test_classify_rejects_bad_domain(bool3):
    E, _ = bool3
    with pytest.raises(DomainMismatch):
        classify_map(E, np.zeros(E.size - 1, dtype=int))


def test_horizontal_sum_retraction_not_compression(mo2):
    """A zero-one pasting map built from an unfaithful morphism keeps the
    retraction law but its kernel spills past [0, p']."""
    E, _ = mo2
    # atoms of the left square are indices 2, 3; of the right square 4, 5
    la, lb = 2, 3
    ra, rb = 4, 5
    J = np.zeros(E.size, dtype=int)
    J[la], J[1] = la, la            # own-part compression onto [0, la]
    J[ra] = la                      # phi(ra) = 1, phi(rb) = 0: not faithful
    cls = classify_map(E, J)
    assert cls.kind == "retraction"
    assert cls.focus == la


def test_validate_base_passes(bool3, mv42, mv83, mo2, hsum_l8):
    for E, cb in (bool3, mv42, mv83, mo2, hsum_l8):
        rep = validate_base(E, cb)
        assert rep.passed, rep.summary()


def test_validate_base_catches_focus_swap(bool3):
    E, cb = bool3
    p = 0b001
    maps = {q: cb.map_table(q) for q in cb.projections}
    maps[p] = cb.map_table(E.ortho(p))  # J_p replaced by J_{p'}
    broken = CompressionBase(E, cb.projections, maps)
    rep = validate_base(E, broken)
    assert not rep.passed
    assert any(c.name == "C1-compressions" and not c.passed for c in rep.checks)


def test_central_base_members(bool3, mv83, mo2):
    E, _ = bool3
    assert len(central_base(E).projections) == E.size
    G, _ = mv83
    assert sorted(central_base(G).projections) == sorted(core.sharp_elements(G))
    M, _ = mo2
    assert central_base(M).projections == [M.zero, M.one]


def test_commutants_in_boolean(bool3):
    E, cb = bool3
    for p in cb.projections:
        assert len(commutant(cb, p)) == E.size
    for a in range(E.size):
        assert len(bicommutant(cb, a)) == len(cb.projections)


def test_commutant_on_paste(mo2):
    E, cb = mo2
    atom = 2
    assert sorted(pc(cb, atom)) == [E.zero, E.one]


def test_five_way_lemma(mv42):
    """The five characterizations of 'a commutes with p' agree pointwise."""
    E, cb = mv42
    for p in cb.projections:
        jp = cb.map_table(p)
        jo = cb.map_table(E.ortho(p))
        for a in range(E.size):
            c1 = E.leq(int(jp[a]), a)
            c2 = E.sum(int(jp[a]), int(jo[a])) == a
            c3 = any(E.leq(x, p) and E.leq(E.ominus(a, x), E.ortho(p))
                     for x in range(E.size)
                     if E.leq(x, a) and E.ominus(a, x) is not None)
            c4 = core.mackey_compatible(E, a, p)[0]
            c5 = E.meet(a, p) == int(jp[a])
            assert c1 == c2 == c3 == c4 == c5


def test_compatible_iff_composition_commutes(mv42):
    E, cb = mv42
    for p in cb.projections:
        jp = cb.map_table(p)
        for q in cb.projections:
            jq = cb.map_table(q)
            compatible = core.mackey_compatible(E, p, q)[0]
            commutes = (jp[jq] == jq[jp]).all()
            assert compatible == commutes
            if compatible:
                m = E.meet(p, q)
                assert (jp[jq] == cb.map_table(m)).all()


def test_blocks(bool3, mv83, mo2):
    E, cb = bool3
    assert blocks(cb) == [sorted(cb.projections)]
    G, gcb = mv83
    bl = blocks(gcb)
    assert len(bl) == 1 and len(bl[0]) == 8
    assert len(c_block(gcb, bl[0])) == G.size
    M, mcb = mo2
    assert blocks(mcb) == [[M.zero, M.one]]
    assert len(c_block(mcb, [M.zero, M.one])) == M.size


def _brute_force_cliques(adj):
    """Every maximal clique, by testing all vertex subsets."""
    m = len(adj)
    full = (1 << m) - 1
    out = []
    for mask in range(1 << m):
        members = [v for v in range(m) if mask >> v & 1]
        if any(mask & ~(1 << v) & ~adj[v] for v in members):
            continue  # two members are not adjacent
        if any(all(adj[u] >> v & 1 for v in members)
               for u in range(m) if not (mask | ~full) >> u & 1):
            continue  # an outside vertex extends it
        out.append(mask)
    return out


def test_maximal_cliques_match_brute_force():
    rng = np.random.default_rng(11)
    graphs = 0
    for m in range(1, 13):
        for density in (0.0, 0.2, 0.5, 0.8, 1.0):
            for _ in range(3):
                upper = np.triu(rng.random((m, m)) < density, 1)
                compat = upper | upper.T
                adj = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in compat]
                assert sorted(compbase.maximal_cliques(adj)) == _brute_force_cliques(adj), \
                    (m, density, adj)
                graphs += 1
    assert graphs == 180
    assert compbase.maximal_cliques([]) == [0]  # the empty clique of the null graph
    # a clique far larger than the recursion limit
    big = 1500
    full = (1 << big) - 1
    assert compbase.maximal_cliques([full & ~(1 << v) for v in range(big)]) == [full]


_L8 = {"kind": "mv_product", "denominator": 8, "arity": 1}
_HSUM = {"kind": "horizontal_sum", "parts": [_L8, _L8],
         "states": [[f"{i}/8" for i in range(9)]] * 2}
_MO2 = {"kind": "mo2"}
_B2 = {"kind": "boolean", "n_atoms": 2}
_MV42 = {"kind": "mv_product", "denominator": 4, "arity": 2}
PINNED_BLOCKS = {  # as the networkx clique search gave them
    "boolean(3)": ({"kind": "boolean", "n_atoms": 3}, [[0, 1, 2, 3, 4, 5, 6, 7]]),
    "mv(4,2)": (_MV42, [[0, 4, 20, 24]]),
    "mv(8,3)": ({"kind": "mv_product", "denominator": 8, "arity": 3},
                [[0, 8, 72, 80, 648, 656, 720, 728]]),
    "MO2": (_MO2, [[0, 1]]),
    "L8+L8": (_HSUM, [[0, 1]]),
    "MO2 x MO2": ({"kind": "product", "factors": [_MO2, _MO2]}, [[0, 1, 6, 7]]),
    "L8+L8 x boolean(2)": ({"kind": "product", "factors": [_HSUM, _B2]},
                           [[0, 1, 2, 3, 4, 5, 6, 7]]),
    "boolean(2) x mv(4,2)": ({"kind": "product", "factors": [_B2, _MV42]},
                             [[0, 4, 20, 24, 25, 29, 45, 49, 50, 54, 70, 74, 75, 79, 95, 99]]),
}


@pytest.mark.parametrize("name", list(PINNED_BLOCKS))
def test_blocks_pinned(name):
    from effalg import instances

    doc, want = PINNED_BLOCKS[name]
    _, cb = instances.parse_document(doc, validate=False)
    assert blocks(cb) == want


def test_import_leaves_networkx_out():
    import os
    import subprocess
    import sys

    import effalg

    src = os.path.dirname(os.path.dirname(os.path.abspath(effalg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, effalg.cli; print('networkx' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_block_invariants_raise_named_errors(bool3):
    """Broken invariants raise InternalConsistencyError, which -O keeps."""
    from effalg.errors import EffalgError, InternalConsistencyError

    E, cb = bool3
    with pytest.raises(InternalConsistencyError):
        compbase._check_boolean_block(cb, [E.zero, 0b001, E.one])  # 001' missing
    with pytest.raises(InternalConsistencyError):  # 011 ^ 110 = 010 missing
        compbase._check_boolean_block(cb, [E.zero, 0b011, 0b100, 0b110, 0b001, E.one])
    assert issubclass(InternalConsistencyError, EffalgError)


def test_projection_cover(mv83, bool3):
    E, cb = mv83
    a = E.index_of([2, 4, 7])
    assert projection_cover(cb, a) == E.one
    assert projection_cover(cb, E.index_of([0, 0, 3])) == E.index_of([0, 0, 8])
    B, bcb = bool3
    for a in range(B.size):
        assert projection_cover(bcb, a) == a  # boolean: a is its own cover
    assert cb.has_pcp()


def test_cover_minimality(mv42):
    E, cb = mv42
    Pleq = cb.proj_leq()
    for a in range(E.size):
        cov = projection_cover(cb, a)
        assert E.leq(a, cov)
        for q in cb.projections:
            if E.leq(a, q):
                assert E.leq(cov, q)


def test_cover_in_bicommutant(mv42):
    E, cb = mv42
    for a in range(E.size):
        assert projection_cover(cb, a) in set(int(p) for p in cb.bicommutant_set(a))


def test_no_cover_detected():
    # trivial base {0, 1} on a 3-chain: 1/2 has no least projection above...
    # it does (the unit); drop to the two-element projection set on MO2 minus
    # the unit instead: remove 1 from P and covering breaks
    E = GridAlgebra(2, 1)
    cb = CompressionBase(E, [0, 2], {0: np.zeros(3, dtype=int), 2: np.arange(3)})
    assert projection_cover(cb, 1) == 2
    lonely = CompressionBase(E, [0], {0: np.zeros(3, dtype=int)})
    with pytest.raises(NoCover):
        projection_cover(lonely, 1)


def test_interval_cover_identity(mv42):
    """(b ^ q) cover = (b cover) ^ q for b commuting with q."""
    E, cb = mv42
    for q in cb.projections:
        jq = cb.map_table(q)
        for b in range(E.size):
            if not cb.in_commutant(b, q):
                continue
            lhs = projection_cover(cb, E.meet(b, q))
            rhs = E.meet(projection_cover(cb, b), q)
            assert lhs == rhs


def test_check_oml(bool3, mv83, mv42, hsum_l8):
    for E, cb in (bool3, mv83, mv42, hsum_l8):
        rep = check_oml(cb)
        assert rep.passed, rep.summary()


def test_non_distributive_block_raises(mo2):
    """MO2 with J_p(x) = p ^ x is closed under ' and these meets, but
    a ^ (b v b') = a while (a ^ b) v (a ^ b') = 0, which the ``b^3``
    reference finds; its six members are no power of its four atoms."""
    from test_structural import _distributive_block

    from effalg.errors import InternalConsistencyError

    E, _ = mo2
    elems = list(range(E.size))
    maps = {p: np.array([E.meet(p, x) for x in elems]) for p in elems}
    cb = CompressionBase(E, elems, maps)
    with pytest.raises(InternalConsistencyError, match="distributivity"):
        _distributive_block(cb, elems)
    with pytest.raises(InternalConsistencyError, match="6 members is not Boolean over its 4"):
        compbase._check_boolean_block(cb, elems)


# ---------------------------------------------------------------------------
# stacked scans against the per-map and per-pair loops they replace


def _ref_p_meet_table(cb):
    Pleq = cb.proj_leq()
    m = len(cb.projections)
    out = -np.ones((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            idx = np.flatnonzero(Pleq[:, i] & Pleq[:, j])
            if not idx.size:
                continue
            ranks = Pleq[np.ix_(idx, idx)].sum(axis=0)
            k = int(np.argmax(ranks))
            if ranks[k] == idx.size:
                out[i, j] = cb.projections[idx[k]]
    return out


def _bases():
    from fractions import Fraction

    from effalg import instances

    l8 = instances.make_mv_product(8, 1, validate=False)
    ident = [Fraction(i, 8) for i in range(9)]
    return {
        "boolean(3)": instances.make_boolean(3, validate=False),
        "mv(4,2)": instances.make_mv_product(4, 2, validate=False),
        "MO2": instances.make_mo2(validate=False),
        "L8+L8": instances.make_horizontal_sum(l8, l8, ident, ident, validate=False),
        "boolean(2) x mv(4,2)": instances.make_product(
            instances.make_boolean(2, validate=False),
            instances.make_mv_product(4, 2, validate=False), validate=False),
        "MO2 x boolean(2)": instances.make_product(
            instances.make_mo2(validate=False),
            instances.make_boolean(2, validate=False), validate=False),
        "boolean(3) x boolean(3)": instances.make_product(
            instances.make_boolean(3, validate=False),
            instances.make_boolean(3, validate=False), validate=False),
    }


@pytest.fixture(scope="module")
def bases():
    return _bases()


def _broken_table_products(rng):
    """Products, both ways round, of boolean(1) and MO2 with a grid's table
    that has one entry off the zero row and column changed."""
    from effalg import instances

    partners = instances.make_boolean(1, validate=False), instances.make_mo2(validate=False)
    for k, d in ((2, 1), (1, 2), (3, 1), (2, 2)):
        S = core.GridAlgebra(k, d).sum_table.copy()
        a, b = np.argwhere(S[1:, 1:] >= 0)[rng.integers(np.count_nonzero(S[1:, 1:] >= 0))] + 1
        S[a, b] = S[b, a] = -1 if rng.integers(2) else rng.integers(S.shape[0])
        T = core.TableAlgebra(S, 0, S.shape[0] - 1)
        T.document = {"kind": "table"}
        broken = T, compbase.central_base(T)
        for partner in partners:
            yield instances.make_product(broken, partner, validate=False)
            yield instances.make_product(partner, broken, validate=False)


def test_p_meet_table_matches_pairwise():
    """The search, and on product bases the pairs of the factors' meets,
    which read no order table of the product's P."""
    from effalg import instances

    cases = list(_bases().items()) + [
        ("boolean(2) x mv(8,3)", instances.make_product(
            instances.make_boolean(2, validate=False),
            instances.make_mv_product(8, 3, validate=False), validate=False))]
    cases += [(f"boolean({n})", instances.make_boolean(n, validate=False)) for n in (5, 6, 7, 8)]
    cases += [("broken", case) for case in _broken_table_products(np.random.default_rng(24))]
    for name, (E, cb) in cases:
        if not cb.projections:  # a broken table can leave its central base empty
            with pytest.raises(IncompleteBase, match=f"on {E.kind} has no projections"):
                cb.p_meet_table()
            continue
        got = cb.p_meet_table()
        assert cb.factors is None or cb._elem_leq_proj is None, name
        assert np.array_equal(got, _ref_p_meet_table(cb)), name
    # no lattice: 0111 and 1011 have the lower bounds 0001 and 0010 but no meet
    E = core.BooleanAlgebra(4)
    subset = [0b0000, 0b0001, 0b0010, 0b0111, 0b1011]
    sub = CompressionBase(E, subset, {p: np.arange(E.size) for p in subset})
    got = sub.p_meet_table()
    assert np.array_equal(got, _ref_p_meet_table(sub)) and (got < 0).any()
    # without 0 two atoms have no common lower bound in P at all
    atoms = CompressionBase(E, [0b0001, 0b0010], {p: np.arange(E.size) for p in (1, 2)})
    assert atoms.p_meet_table().tolist() == [[1, -1], [-1, 2]]


def test_p_meet_table_of_a_broken_table_with_all_of_it_in_p(monkeypatch):
    """With P the whole carrier of a broken grid table, whose order is
    reflexive but not always antisymmetric or transitive, the meets in P
    are the reference's on every pair, and the carrier's ``meet_pairs``,
    in one band of rows and in bands of one to three rows; the tables
    reach pairs with no meet in P.  So does the meet table of the table
    copy of ``boolean(3) x boolean(3)`` in bands of five rows."""
    from test_structural import GRIDS, MUTATIONS, _broken_table

    rng = np.random.default_rng(29)
    missing = 0
    for i in range(400):
        T = _broken_table(rng, *GRIDS[i % len(GRIDS)], MUTATIONS[i % len(MUTATIONS)])[0]
        n = T.size
        want = _ref_p_meet_table(CompressionBase(T, range(n), {p: np.arange(n) for p in range(n)}))
        assert np.array_equal(want, T.meet_pairs(np.arange(n)[:, None], np.arange(n))), i
        for rows in (n, 1 + i % 3):
            with monkeypatch.context() as m:
                m.setattr(kernels, "CHUNK_BYTES", 64 * n * rows)
                cb = CompressionBase(T, range(n), {p: np.arange(n) for p in range(n)})
                assert np.array_equal(cb.p_meet_table(), want), (i, rows)
        missing += int((want < 0).sum())
    assert missing
    flat = _table_copy(*_bases()["boolean(3) x boolean(3)"])[1]
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 64 * 64 * 5)
    assert np.array_equal(flat.p_meet_table(), _ref_p_meet_table(flat))


def _ref_classify(E, J, maps, seed=0):
    """classify_map as one call per map, with its own draws, for a sample
    shared by ``maps`` maps: every defined pair when ``maps`` times their
    count is within the budget, every element up to 4 * SAMPLE_SIZE."""
    from effalg import kernels
    from effalg.core import SAMPLE_SIZE, TRIPLE_BUDGET

    J = np.asarray(J, dtype=np.int64)
    n = E.size
    if E.dense and maps * np.count_nonzero(E.sum_table >= 0) <= TRIPLE_BUDGET:
        witness = kernels.map_additivity_violation(E.sum_table, J)
    else:
        rng = np.random.default_rng(0)
        xs = rng.integers(0, n, size=SAMPLE_SIZE)
        ys = rng.integers(0, n, size=SAMPLE_SIZE)
        ss = E.sum_pairs(xs, ys)
        ok = ss >= 0
        lhs = np.where(ok, J[np.maximum(ss, 0)], -1)
        rhs = np.where(ok, E.sum_pairs(J[xs], J[ys]), -1)
        bad = np.flatnonzero(ok & (lhs != rhs))
        witness = (int(xs[bad[0]]), int(ys[bad[0]])) if bad.size else None
    if witness is not None:
        return ("not_additive", None, witness)
    focus = int(J[E.one])
    if n <= 4 * SAMPLE_SIZE:
        idx = np.arange(n)
    else:
        rng = np.random.default_rng(seed)
        idx = np.unique(np.concatenate([
            rng.integers(0, n, size=SAMPLE_SIZE), [E.zero, E.one, focus, E.ortho(focus)]]))
    below = idx[E.leq_pairs(idx, np.full(idx.size, focus))]
    fixed = J[below] == below
    if not fixed.all():
        return ("not_additive", None, int(below[np.argmin(fixed)]))
    kernel = J[idx] == E.zero
    should = E.leq_pairs(idx, np.full(idx.size, E.ortho(focus)))
    if (kernel == should).all():
        return ("compression", focus, None)
    return ("retraction", focus, int(idx[np.argmax(kernel != should)]))


@pytest.mark.parametrize("budget", [200_000_000, 50])
def test_shared_map_sample_matches_per_map_classify(bases, budget, monkeypatch):
    """One MapSample per base classifies like a fresh classify per map,
    also when pairs and elements are drawn (budget 50 below the defined
    pairs, elements past 4 * SAMPLE_SIZE = 48), from samples small enough
    to miss the focus of a map; ``classify_map`` is the sample of one map."""
    monkeypatch.setattr(core, "TRIPLE_BUDGET", budget)  # MapSample reads it
    if budget == 50:
        monkeypatch.setattr(core, "SAMPLE_SIZE", 12)
    rng = np.random.default_rng(21)
    kinds, shared, single = set(), set(), set()
    for name, (E, cb) in bases.items():
        m = len(cb.projections)
        sample = compbase.MapSample(E, m)
        shared.add((sample.over is None, sample.drawn))  # (every pair, elements drawn)
        single.add(compbase.MapSample(E).over is None)
        maps = []
        for p in cb.projections:
            J = np.array(cb.map_table(p))
            for trial in range(3):
                bad = J.copy()
                if trial:
                    bad[rng.integers(0, E.size, trial)] = rng.integers(0, E.size)
                maps.append(bad)
            if p != E.zero:  # J_p(p) = p fails, seen only if p is examined
                bad = J.copy()
                bad[p] = E.zero
                maps.append(bad)
        if name == "MO2":  # see test_horizontal_sum_retraction_not_compression
            retraction = np.zeros(E.size, dtype=int)
            retraction[[2, 1, 4]] = 2
            maps.append(retraction)
        for bad in maps:
            got = sample.classify(bad)
            assert (got.kind, got.focus, got.witness) == _ref_classify(E, bad, m), name
            cls = classify_map(E, bad)
            assert (cls.kind, cls.focus, cls.witness) == _ref_classify(E, bad, 1), name
            kinds.add(got.kind)
    assert kinds == {"compression", "not_additive", "retraction"}
    if budget == 50:
        assert shared == {(True, False), (False, False), (False, True)}
        assert single == {True, False}
    else:
        assert shared == {(True, False)} and single == {True}


def _ref_triples(E, pa):
    """The summable triples of P as ``(p+q, q, q+r, r)``, by (p, q) in
    row-major order and then r, in plain loops."""
    m = pa.size
    pq = E.sum_pairs(np.repeat(pa, m), np.tile(pa, m)).reshape(m, m)
    out = []
    for i, j in zip(*np.nonzero(pq >= 0)):
        third = (pq[j] >= 0) & (E.sum_pairs(np.full(m, pq[i, j]), pa) >= 0)
        out.append([(int(pq[i, j]), int(pa[j]), int(pq[j, k]), int(pa[k]))
                    for k in np.flatnonzero(third)])
    return out  # one list per summable pair (p, q)


def _normality_rows(E, cb):
    """The (d, p) with d <= p and d outside P, which the exact P-normal
    scan walks: each against every q in P."""
    return sum(1 for p in cb.projections for d in range(E.size)
               if E.leq(d, p) and d not in cb.p_set)


def _ref_base_laws(E, cb, budget, seed=0):
    """The supplement, C2, P-normal and triple-law rows of validate_base as
    per-projection, per-pair and per-triple loops over single map tables;
    a sum outside P has no map and fails the triple law."""
    from effalg import kernels

    n, P = E.size, cb.projections
    pa = np.array(P)
    m = pa.size
    rows = {}
    w = next((p for p in P if not all((cb.map_table(p)[x] == E.zero) == E.leq(x, E.ortho(p))
                                      for x in range(n))), None)
    rows["supplement-pairing"] = (w is None, "full", w)
    # C2
    rng = np.random.default_rng(seed)
    full_c2 = E.dense and m ** 2 * n <= budget
    sample = None if full_c2 else rng.integers(0, n, size=min(n, 2000))
    if full_c2:
        compat = kernels.mackey_matrix(E.sum_table, E.ominus_table, E.leq_table, P)
        pairs = [(P[i], P[j]) for i, j in np.argwhere(compat)]
    else:
        drawn = list({(int(pa[i]), int(pa[j]))
                      for i, j in zip(rng.integers(0, m, 128), rng.integers(0, m, 128))})
        pairs = [pq for pq in drawn if core.mackey_compatible(E, *pq)[0]]
    w = None
    for p, q in pairs:
        jp, jq = cb.map_table(p), cb.map_table(q)
        r = int(jp[q])
        if r not in cb.p_set:
            w = (p, q, "focus", r)
            break
        jr = cb.map_table(r)
        cols = slice(None) if sample is None else sample
        if not (jp[jq[cols]] == jr[cols]).all():
            w = (p, q, "table", r)
            break
    rows["C2-composition"] = (w is None, "full" if full_c2 else "sampled", w)
    # P-normal, the dense scan: one (p, q) pair at a time
    in_p = np.zeros(n, dtype=bool)
    in_p[pa] = True
    if E.dense and m * _normality_rows(E, cb) <= budget:
        S, omi, leq = E.sum_table, E.ominus_table, E.leq_table
        w = None
        for p in pa:
            for q in pa:
                d = np.flatnonzero(leq[:, p] & leq[:, q] & ~in_p)
                bad = S[omi[p, d], q] >= 0
                if bad.any():
                    w = (int(p), int(q), int(d[np.argmax(bad)]))
                    break
            if w:
                break
        rows["P-normal"] = (w is None, "full", w)
    # triple law: every triple, or those of 128 seeded summable pairs on
    # C2's columns
    by_pair = _ref_triples(E, pa)
    mode = "full" if (E.dense and sum(map(len, by_pair)) * n <= budget) else "sampled"
    if mode == "sampled":
        keep = np.random.default_rng(seed + 3).choice(len(by_pair), min(len(by_pair), 128),
                                                      replace=False)
        by_pair = [by_pair[t] for t in sorted(keep)]
    cols = slice(None) if (mode == "full" or sample is None) else sample
    w = None
    for spq, q, sqr, r in (t for triples in by_pair for t in triples):
        if spq not in cb.p_set or sqr not in cb.p_set:
            w = (spq, q, sqr, r)
            break
        jpq, jqr, jq = cb.map_table(spq), cb.map_table(sqr), cb.map_table(q)
        if not (jpq[jqr[cols]] == jq[cols]).all():
            w = (spq, q, sqr, r)
            break
    rows["triple-law"] = (w is None, mode, w)
    return rows


def _broken_bases(E, cb, rng):
    """Seeded breaks that keep every J_p(1) = p: one changed map entry, and
    P without one of its members (composite foci outside P, P not normal)."""
    P = cb.projections
    out = []
    for _ in range(3):
        maps = {q: np.array(cb.map_table(q)) for q in P}
        p = P[int(rng.integers(len(P)))]
        a = int(rng.integers(E.size - 1))
        a += a >= E.one
        maps[p][a] = (maps[p][a] + 1 + rng.integers(E.size - 1)) % E.size
        out.append(("entry", CompressionBase(E, P, maps)))
    inner = [q for q in P if q not in (E.zero, E.one)]
    for q in rng.choice(inner, size=min(2, len(inner)), replace=False):
        keep = [x for x in P if x != q]
        out.append(("drop", CompressionBase(E, keep, {x: cb.map_table(x) for x in keep})))
    return out


@pytest.mark.parametrize("budget", [core.TRIPLE_BUDGET, 200_000])
def test_stacked_laws_match_pairwise_loops(bases, budget, monkeypatch):
    # let every map through C1 so that broken maps reach C2 and the triple law
    monkeypatch.setattr(compbase.MapSample, "classify", lambda self, J: compbase.MapClassification(
        "compression", int(np.asarray(J)[self.E.one])))
    default = budget == core.TRIPLE_BUDGET
    monkeypatch.setattr(core, "TRIPLE_BUDGET", budget)
    rng = np.random.default_rng(22)
    failed = set()
    modes = set()
    for name, (E, cb) in bases.items():
        for kind, broken in [("valid", cb)] + _broken_bases(E, cb, rng):
            rep = compbase._scan_base(E, broken)
            want = _ref_base_laws(E, broken, budget)
            got = {c.name: (c.passed, c.mode, c.witness) for c in rep.checks if c.name in want}
            assert got == want, (name, kind)
            if kind == "valid":
                assert rep.passed, rep.summary()
            failed |= {(k, kind) for k, v in got.items() if not v[0]}
            modes |= {v[1] for v in got.values()}
    assert {("C2-composition", "entry"), ("triple-law", "entry"), ("C2-composition", "drop"),
            ("P-normal", "drop"), ("triple-law", "drop")} <= failed
    assert modes == ({"full"} if default else {"full", "sampled"})


def _table_copy(E, cb):
    """E as a ``TableAlgebra`` of its sum table, and cb's maps on it as a
    base without factors, in the same index layout."""
    T = core.TableAlgebra(E.sum_table, E.zero, E.one)
    return T, CompressionBase(T, cb.projections, {p: cb.map_table(p) for p in cb.projections})


MOVE_CASES = {
    "boolean(4)": lambda: instances.make_boolean(4, validate=False),
    "mv(4,2)": lambda: instances.make_mv_product(4, 2, validate=False),
    "boolean(2) x mv(4,1)": lambda: instances.make_product(
        instances.make_boolean(2, validate=False), instances.make_mv_product(4, 1, validate=False),
        validate=False),
}


@pytest.mark.parametrize("name", list(MOVE_CASES))
def test_rows_only_move_from_sampled_to_full(name, monkeypatch):
    """Each row is gated on the work of its exact scan, which is at most
    the size proxy that gated it before: at a budget between the two the
    row is ``full`` now, with the verdict and witness of the plain loops.
    The earlier proxies: supplement pairing sampled with C1's projection
    draw, past m n > budget / 4; P-normal past m^2 n; the triple law past
    m^2 n or n x summable triples.  C1's earlier gate kept 4 * SAMPLE_SIZE
    pairs per map at any budget, so on carriers this small C1 has no
    budget between its count and that gate."""
    monkeypatch.setattr(compbase.MapSample, "classify", lambda self, J: compbase.MapClassification(
        "compression", int(np.asarray(J)[self.E.one])))  # broken maps reach the later rows
    E, cb = _table_copy(*MOVE_CASES[name]())
    rng = np.random.default_rng(26)
    moved = set()
    for kind, base in [("valid", cb)] + _broken_bases(E, cb, rng):
        n, m = E.size, len(base.projections)
        triples = sum(map(len, _ref_triples(E, base.p_array)))
        gates = {"supplement-pairing": (m * n, 4 * m * n),
                 "P-normal": (m * _normality_rows(E, base), m * m * n),
                 "triple-law": (n * triples, max(n * triples, m * m * n))}
        exact = _ref_base_laws(E, base, 10 ** 18)
        assert {row[1] for row in exact.values()} == {"full"}
        for row, (work, proxy) in gates.items():
            if work >= proxy:
                continue
            monkeypatch.setattr(core, "TRIPLE_BUDGET", work)
            got = next(c for c in compbase._scan_base(E, base).checks if c.name == row)
            assert (got.passed, got.mode, got.witness) == exact[row], (name, kind, row)
            moved.add((row, got.passed))
    # a Boolean P of m members has m^2 summable triples, at its proxy m^2 n;
    # only a P short of a member, on mv(4,2), has fewer
    want = {"supplement-pairing", "P-normal"} | ({"triple-law"} if name == "mv(4,2)" else set())
    assert {row for row, _ in moved} == want
    assert ("supplement-pairing", False) in moved  # a failing row moves with its witness


def _plain_stack(cb):
    """The maps of ``cb`` as a ``(|P|, n)`` array: a leaf base's stack, and
    on a product base, for each pair of factor rows in row-major order, the
    outer sum ``J1(x1) * n2 + J2(x2)`` of the two rows."""
    if cb.factors is None:
        return np.array(cb.map_stack())
    left, right = (_plain_stack(f) for f in cb.factors)
    n2 = cb.factors[1].algebra.size
    rows = [np.add.outer(J1 * n2, J2).ravel() for J1 in left for J2 in right]
    return np.array(rows, dtype=np.int64).reshape(len(cb.projections), cb.algebra.size)


def _factor_bases(cb):
    """``cb`` and every base below it in its tree of factor bases."""
    yield cb
    for f in cb.factors or ():
        yield from _factor_bases(f)


def _map_route_cases():
    from effalg import instances

    def product(left, right):
        return lambda: instances.make_product(left(), right(), validate=False)

    cases = {name: lambda name=name: _bases()[name] for name in _bases() if " x " in name}
    cases["boolean(3)"] = lambda: instances.make_boolean(3, validate=False)
    cases["mv(4,2)"] = lambda: instances.make_mv_product(4, 2, validate=False)
    cases["boolean(2) x mv(8,3)"] = product(lambda: instances.make_boolean(2, validate=False),
                                            lambda: instances.make_mv_product(8, 3, validate=False))
    return cases


MAP_ROUTE_CASES = _map_route_cases()


def _outcome(fn):
    """The report of ``fn()`` as a dict, or the class and message of the
    error it raises."""
    try:
        return fn().to_dict()
    except Exception as err:  # noqa: BLE001 - the outcome compared is the error
        return type(err), str(err)


@pytest.mark.parametrize("name", list(MAP_ROUTE_CASES))
def test_product_maps_answer_through_the_factors(name, monkeypatch):
    """A product base reads its maps through its factor bases: every read
    equals a plain composition of the factors' stacks (``map_pairs``: the
    carrier's operation on it), a non-projection raises KeyError, no
    product base keeps a stack, and each leaf keeps its maps as one
    read-only int32 stack.  The base-law scan and ``restrict`` give what
    they give on the same maps without factors, also where one factor
    base is broken."""
    from test_structural import _unfactored

    from effalg import comparability

    E, cb = MAP_ROUTE_CASES[name]()
    assert cb.factors is not None
    want = _plain_stack(cb)
    rng = np.random.default_rng(24)
    xs = rng.integers(0, E.size, 40)
    assert np.array_equal(cb.map_stack(), want)
    for i, p in enumerate(cb.projections):
        assert np.array_equal(cb.map_table(p), want[i]), (name, p)
        assert [cb.apply(p, int(x)) for x in xs] == want[i, xs].tolist(), (name, p)
    rows = rng.permutation(len(cb.projections))[:9]
    ps = cb.p_array[rows]
    assert np.array_equal(cb.map_values(ps, xs), want[rows][:, xs])
    assert np.array_equal(cb.map_values(ps, [int(xs[0]), int(xs[1])]), want[rows][:, xs[:2]])
    at, x2, y2 = rng.integers(0, len(cb.projections), 60), *rng.integers(0, E.size, (2, 60))
    for op in ("sum_pairs", "leq_pairs", "ominus_pairs"):
        got = cb.map_pairs(op, at, x2, y2)
        assert np.array_equal(got, getattr(E, op)(want[at, x2], want[at, y2])), op
    bad = [x for x in range(E.size) if x not in cb.p_set][:3] + [E.size, -1]
    for p in bad:
        with pytest.raises(KeyError):
            cb.map_table(p)
        with pytest.raises(KeyError):
            cb.apply(p, 0)
        with pytest.raises(KeyError):
            cb.map_values([cb.projections[0], p], xs)
    for f in _factor_bases(cb):
        if f.factors is not None:
            assert f._stack is None
        else:
            assert f._stack.dtype == np.int32 and not f._stack.flags.writeable
            assert all(f.map_table(p).base is f._stack for p in f.projections)

    def broken_twins():
        yield "valid", cb
        if E.size > 500:  # the scans below build the product's dense tables
            return
        left, right = cb.factors
        for side, (F, fcb) in enumerate(((left.algebra, left), (right.algebra, right))):
            for kind, broken in _broken_bases(F, fcb, np.random.default_rng(25 + side)):
                pair = (broken, right) if side == 0 else (left, broken)
                yield f"{kind} {side}", compbase.product_base(E, *pair)

    for kind, prod in broken_twins():
        twin = _unfactored(prod)
        assert (_outcome(lambda: compbase._scan_base(E, prod))
                == _outcome(lambda: compbase._scan_base(E, twin))), (name, kind)
        with monkeypatch.context() as m:  # broken maps through C1 reach C2 and the triple law
            m.setattr(compbase.MapSample, "classify", lambda self, J: compbase.MapClassification(
                "compression", int(np.asarray(J)[self.E.one])))
            assert (_outcome(lambda: compbase._scan_base(E, prod))
                    == _outcome(lambda: compbase._scan_base(E, twin))), (name, kind)
        for q in sorted({E.one, *rng.choice(prod.projections, 3).tolist()}):
            (sub, scb), (tsub, tcb) = (comparability.restrict(b, q, validate=False)
                                        for b in (prod, twin))
            assert np.array_equal(sub.sum_table, tsub.sum_table), (name, kind, q)
            assert scb.projections == tcb.projections, (name, kind, q)
            assert np.array_equal(scb.map_stack(), tcb.map_stack()), (name, kind, q)
            assert (_outcome(lambda: validate_base(sub, scb))
                    == _outcome(lambda: validate_base(tsub, tcb))), (name, kind, q)


def _in_commutant_through_factors(cb, a, p):
    """The conjunction of the factor bases' answers about a's and p's
    coordinates, down to the leaf bases: the route a product base took
    before ``in_commutant`` read through ``apply`` and the carrier's sum."""
    if cb.factors is None:
        return cb.in_commutant(a, p)
    left, right = cb.factors
    r = right.algebra.size
    return (_in_commutant_through_factors(left, a // r, p // r)
            and _in_commutant_through_factors(right, a % r, p % r))


def _answer(fn):
    """``fn()``, or the class of the error it raises (a broken table's
    projection can miss its orthosupplement in P: ``IncompleteBase``)."""
    try:
        return fn()
    except (KeyError, IncompleteBase) as err:
        return type(err)


def test_product_in_commutant_is_componentwise():
    """``in_commutant`` on a product base, a = J_p(a) + J_p'(a) through
    ``apply`` and the carrier's sum, answers what its factor bases answer
    together: on every pair of ``boolean(3)``, ``mv(4,2) x boolean(1)``,
    ``boolean(2) x mv(4,1)`` and the grids of criterion 01, and on 2000
    seeded pairs of ``boolean(2) x mv(8,3)``.  Their projections are
    central, so every answer there is yes; products with broken grid
    tables add their central bases, products with a base on the
    ``boolean(2)`` table whose P misses the orthosupplement of an atom add
    projections without an orthosupplement in P (IncompleteBase), and products
    with a base whose map at an atom is zero add pairs that do not
    commute."""
    from test_structural import _criterion_01_instances

    mv42, b1 = instances.make_mv_product(4, 2), instances.make_boolean(1)
    T = core.TableAlgebra(GridAlgebra(1, 2).sum_table, 0, 3)
    T.document = {"kind": "table"}
    maps = {p: np.arange(4) & p for p in range(4)}
    maps[1] = np.zeros(4, dtype=np.int64)
    zero_at_atom = T, CompressionBase(T, range(4), maps)
    no_ortho = T, CompressionBase(T, (0, 1, 3), {p: np.arange(4) & p for p in (0, 1, 3)})
    grids = [g for name, g in _criterion_01_instances().items()
             if name.startswith(("boolean", "mv")) and g[1].factors is not None]
    seen = set()
    for E, cb in (instances.make_boolean(3), instances.make_product(mv42, b1),
                  instances.make_product(instances.make_boolean(2),
                                         instances.make_mv_product(4, 1)),
                  *grids, *_broken_table_products(np.random.default_rng(19)),
                  instances.make_product(zero_at_atom, b1, validate=False),
                  instances.make_product(b1, zero_at_atom, validate=False),
                  instances.make_product(no_ortho, b1, validate=False),
                  instances.make_product(b1, no_ortho, validate=False)):
        assert cb.factors is not None
        for a in range(E.size):
            for p in cb.projections:
                got = _answer(lambda: cb.in_commutant(a, p))
                assert got == _answer(lambda: _in_commutant_through_factors(cb, a, p)), (a, p)
                seen.add(got)
    assert {True, False, IncompleteBase} <= seen, seen
    E, cb = instances.make_product(instances.make_boolean(2), instances.make_mv_product(8, 3))
    rng = np.random.default_rng(19)
    for a, i in zip(rng.integers(0, E.size, 2000), rng.integers(0, len(cb.projections), 2000)):
        p = cb.projections[i]
        assert cb.in_commutant(int(a), p) == _in_commutant_through_factors(cb, int(a), p), (a, p)


def test_a_sum_outside_p_is_the_closure_witness():
    """On the chain {0..4} with P = {0, 1, 3, 4}, P holds every
    orthosupplement but not 1 + 1: the closure row names that sum."""
    E, _ = instances.make_mv_product(4, 1)
    P = (0, 1, 3, 4)
    rep = compbase._scan_base(E, CompressionBase(E, P, {p: np.arange(E.size) for p in P}))
    row = rep.checks[0]
    assert (row.name, row.passed, row.witness) == ("P-sub-effect-algebra", False, ("sum", 2))
