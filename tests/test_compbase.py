import numpy as np
import pytest

from effalg import compbase, core
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
from effalg.errors import DomainMismatch, NoCover


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
