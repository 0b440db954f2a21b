"""Fresh table carriers in one pass, against the plain loops they replace.

``TableAlgebra._derive_order``, ``kernels.cancellation_violation``,
``instances._hsum_carrier`` and ``compbase._central_base`` each read a
table in one numpy pass.  The loops below, one Python iteration per row,
column, pair or element, are the references: the new code must give the
same tables, witnesses, labels, projections and maps bit for bit, on
valid carriers, on the seeded broken tables of ``test_structural`` (a
broken row can hold one sum twice) and on random tables.
"""

from fractions import Fraction

import numpy as np

from effalg import compbase, core, instances, kernels
from effalg.core import BooleanAlgebra, TableAlgebra
from test_structural import GRIDS, MUTATIONS, _broken_table, _criterion_01_instances, \
    _plain_central


def _plain_order(S):
    """The order and difference tables, one row at a time."""
    n = S.shape[0]
    leq = np.zeros((n, n), dtype=bool)
    omi = -np.ones((n, n), dtype=np.int32)
    for a in range(n):
        row = S[a]
        idx = np.flatnonzero(row >= 0)
        leq[a, row[idx]] = True
        for b in idx:  # the last b with a + b = s wins
            omi[row[b], a] = b
    return leq, omi


def _plain_cancellation(S):
    """The first column c with x + c = y + c for x < y, one column at a time."""
    for c in range(S.shape[0]):
        col = S[:, c]
        defined = np.flatnonzero(col >= 0)
        vals = col[defined]
        order = np.argsort(vals, kind="stable")
        dup = np.flatnonzero(np.diff(vals[order]) == 0)
        if dup.size:
            i = dup[0]
            return int(defined[order[i]]), int(defined[order[i + 1]]), c
    return None


def _plain_hsum(E1, E2):
    """The pasting as explicit triples, one pair of each part at a time."""
    labels, index = ["0", "1"], {}
    for side, F in (("L", E1), ("R", E2)):
        for x in range(F.size):
            if x not in (F.zero, F.one):
                index[(side, x)] = len(labels)
                labels.append(f"{side}:{F.label(x)}")

    def glob(side, x, F):
        return 0 if x == F.zero else 1 if x == F.one else index[(side, x)]

    triples = [(0, 0, 0), (0, 1, 1)]
    for side, F in (("L", E1), ("R", E2)):
        for x in range(F.size):
            for y in range(F.size):
                s = F.sum(x, y)
                if s is None:
                    continue
                gx, gy, gs = (glob(side, v, F) for v in (x, y, s))
                if (gx, gy) == (0, 0) or gx == 1 or gy == 1:
                    continue
                triples.append((gx, gy, gs))
    return TableAlgebra.from_triples(len(labels), triples, 0, 1, labels=labels), index


def _random_tables(count, seed):
    """Square tables of 1 to 12 elements with entries in -1..n-1, some with
    their rows' sums repeated and some symmetric."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(1, 13))
        S = rng.integers(-1, n, size=(n, n)).astype(np.int32)
        if i % 3 == 1:
            S = np.where(rng.random((n, n)) < 0.5, S, S[:, :1])  # repeated sums per row
        if i % 3 == 2:
            S = np.triu(S) + np.triu(S, 1).T
        yield S


def _near_valid_tables(count, seed):
    """Tables of small valid carriers, pastings among them, with one to
    three entries changed symmetrically."""
    four = [Fraction(i, 4) for i in range(5)]
    l4 = instances.make_mv_product(4, 1)
    valid = [instances.make_boolean(2)[0], instances.make_boolean(3)[0],
             instances.make_mv_product(2, 2)[0], instances.make_mo2()[0], l4[0],
             instances.make_horizontal_sum(l4, l4, four, four)[0]]
    rng = np.random.default_rng(seed)
    for t in range(count):
        E = valid[t % len(valid)]
        S = E.sum_table.copy()
        for _ in range(1 + t % 3):
            i, j = rng.integers(0, E.size, 2)
            S[i, j] = S[j, i] = rng.integers(-1, E.size)
        yield TableAlgebra(S, E.zero, E.one)


def _broken_tables():
    rng = np.random.default_rng(8)
    return [_broken_table(rng, *GRIDS[i % len(GRIDS)], MUTATIONS[i % len(MUTATIONS)])[0]
            for i in range(4 * len(GRIDS))]


def _tables():
    """Every table compared below: criterion 01's carriers as table copies,
    the seeded broken tables and random tables."""
    valid = [E for E, _ in _criterion_01_instances().values()]
    out = [TableAlgebra(E.sum_table, E.zero, E.one) for E in valid]
    out += _broken_tables() + list(_near_valid_tables(300, 3))
    out += [TableAlgebra(S, 0, S.shape[0] - 1) for S in _random_tables(300, 4)]
    return out


def test_order_and_difference_tables_match_the_row_loop():
    repeated = 0
    for T in _tables():
        leq, omi = _plain_order(T.sum_table)
        assert np.array_equal(T.leq_table, leq) and np.array_equal(T.ominus_table, omi)
        assert T.ominus_table.dtype == np.int32
        assert np.array_equal(T.ortho_all(), omi[T.one])
        S = T.sum_table
        repeated += any(np.unique(row[row >= 0]).size < np.count_nonzero(row >= 0) for row in S)
    assert repeated > 50  # rows that hold one sum twice are among them


def test_cancellation_witness_matches_the_column_loop():
    found = 0
    for T in _tables():
        want = _plain_cancellation(T.sum_table)
        assert kernels.cancellation_violation(T.sum_table) == want
        found += want is not None
    assert found > 100


def test_cancellation_across_column_runs(monkeypatch):
    """Runs of one column, and of 32 // n columns, give the same witnesses."""
    tables = [T.sum_table for T in _broken_tables()] + list(_random_tables(60, 5))
    want = [kernels.cancellation_violation(S) for S in tables]
    for budget in (1, 768 * 32):
        monkeypatch.setattr(kernels, "CHUNK_BYTES", budget)
        assert [kernels.cancellation_violation(S) for S in tables] == want


def test_order_tables_across_row_runs(monkeypatch):
    tables = [T.sum_table for T in _broken_tables()] + list(_random_tables(60, 6))
    for budget in (1, 768 * 32):  # runs of one row, and of 32 // n rows
        monkeypatch.setattr(kernels, "CHUNK_BYTES", budget)
        for S in tables:
            T = TableAlgebra(S, 0, S.shape[0] - 1)
            leq, omi = _plain_order(S)
            assert np.array_equal(T.leq_table, leq) and np.array_equal(T.ominus_table, omi)


def _pastings():
    """Pairs of parts, with the instance each pasting belongs to."""
    ident = {k: [Fraction(i, k) for i in range(k + 1)] for k in (4, 8)}
    l4, l8 = (instances.make_mv_product(k, 1) for k in (4, 8))
    yield "MO2", BooleanAlgebra(2), BooleanAlgebra(2)
    yield "L8+L8", l8[0], l8[0]
    yield "L4+L4", l4[0], l4[0]
    yield "mv(4,2)+L4", instances.make_mv_product(4, 2)[0], l4[0]
    broken = _broken_tables()
    for i in range(0, len(broken), 2):  # non-commutative parts take the later pair's sum
        yield None, broken[i], broken[i + 1]
    for pasted in (instances.make_mo2(validate=False), instances.make_horizontal_sum(
            l8, l8, ident[8], ident[8], validate=False), instances.make_horizontal_sum(
            l4, l4, ident[4], ident[4], validate=False)):
        yield None, pasted[0], BooleanAlgebra(1)


def test_pasted_tables_and_labels_match_the_triple_loop():
    named = {}
    for name, E1, E2 in _pastings():
        E, glob = instances._hsum_carrier(E1, E2)
        want, index = _plain_hsum(E1, E2)
        assert np.array_equal(E.sum_table, want.sum_table), name
        assert E.sum_table.dtype == np.int32
        assert E.labels == want.labels and E.part_index == index
        assert np.array_equal(E.leq_table, want.leq_table)
        assert np.array_equal(E.ominus_table, want.ominus_table)
        for side, F in (("L", E1), ("R", E2)):
            assert [int(g) for g in glob[side]] == [
                0 if x == F.zero else 1 if x == F.one else index[(side, x)] for x in range(F.size)]
        if name:
            named[name] = E
    ident = [Fraction(i, 8) for i in range(9)]
    l8 = instances.make_mv_product(8, 1)
    for name, (E, _) in (("MO2", instances.make_mo2()),
                         ("L8+L8", instances.make_horizontal_sum(l8, l8, ident, ident))):
        assert np.array_equal(E.sum_table, named[name].sum_table) and \
            E.labels == named[name].labels


def _central_hosts():
    valid = [E for E, _ in _criterion_01_instances().values()]
    hosts = [TableAlgebra(E.sum_table, E.zero, E.one) for E in valid]
    hosts += [instances.make_mv_product(8, 1)[0], instances.make_mv_product(16, 1)[0]]
    hosts += _broken_tables() + list(_near_valid_tables(600, 2))
    hosts += [TableAlgebra(S, 0, S.shape[0] - 1) for S in _random_tables(200, 7)]
    return hosts


def test_central_projections_and_maps_match_the_element_loop():
    """Among the hosts are sharp elements that are principal while their
    p' is not, and p whose p' lacks a meet with some element."""
    sizes, lone, partial = set(), 0, 0
    for E in _central_hosts():
        base = compbase._central_base(E)
        centre, maps = _plain_central(E)
        assert base.projections == centre
        for p in centre:
            assert np.array_equal(base.map_table(p), maps[p]), p
        sizes.add(len(centre))
        principal = [core.is_principal(E, a) for a in range(E.size)]
        for p in map(int, core.sharp_elements(E)):
            lone += principal[p] and not principal[E.ortho(p)]
            partial += principal[p] and principal[E.ortho(p)] and \
                (E.meet_pairs(np.arange(E.size), E.ortho(p)) < 0).any()
    assert len(sizes) > 3 and lone > 50 and partial > 10


def test_central_base_across_runs(monkeypatch):
    """Runs of one element per meet_pairs call and one pair per principality
    gather give the same base."""
    hosts = _broken_tables()[:10] + [TableAlgebra(E.sum_table, E.zero, E.one) for E in (
        instances.make_mo2(validate=False)[0], instances.make_boolean(3, validate=False)[0])]
    want = [compbase._central_base(E) for E in hosts]
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 1)
    for E, base in zip(hosts, want):
        got = compbase._central_base(E)
        assert got.projections == base.projections
        assert np.array_equal(got.map_stack(), base.map_stack())


def test_principality_matches_is_principal():
    for E in _central_hosts():
        mask = compbase._principal(E, np.ones(E.size, dtype=bool))
        assert mask.tolist() == [core.is_principal(E, a) for a in range(E.size)]


def test_mo2_builds_no_other_carrier_checks(monkeypatch):
    """``make_mo2(validate=False)`` validates nothing and builds the central
    base of its own carrier only; its Boolean squares are bare carriers."""
    seen = []
    for module in (instances, compbase, core):
        for name in ("validate_axioms", "validate_base", "central_base", "_central_base"):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(module, name, lambda E, *rest, real=real, name=name: (
                    seen.append((name, E)), real(E, *rest))[1])
    E, cb = instances.make_mo2(validate=False)
    assert {id(carrier) for _, carrier in seen} == {id(E)}
    assert [name for name, _ in seen] == ["central_base", "_central_base"]
    assert cb.projections == [E.zero, E.one]


# an undefined orthosupplement (-1) names no element


def _five_element_layouts():
    """The table 0, u, a, b, c with 0 + x = x for every x and a + b = u, in
    three layouts: the unit last, a last and c last.  c has no
    orthosupplement; the layouts are relabelings of each other."""
    out = []
    for order in ("0abcu", "0ubca", "0uabc"):
        at = {x: i for i, x in enumerate(order)}
        triples = [(at["0"], at[x], at[x]) for x in order] + [(at["a"], at["b"], at["u"])]
        out.append(TableAlgebra.from_triples(5, triples, at["0"], at["u"], labels=list(order)))
    return out


def _relabeled(T, perm):
    """The table T with element x renamed perm[x]."""
    S = T.sum_table
    out = np.full_like(S, -1)
    out[np.ix_(perm, perm)] = np.where(S >= 0, perm[S], -1)
    return TableAlgebra(out, int(perm[T.zero]), int(perm[T.one]))


def _meet_base(E):
    """The maps x -> x ^ p at every p whose meets with all elements exist,
    focus without orthosupplement included: a base that validation rejects
    somewhere when P is not closed under '."""
    meets = E.meet_pairs(np.arange(E.size)[:, None], np.arange(E.size))
    P = np.flatnonzero((meets >= 0).all(axis=0))
    return compbase.CompressionBase(E, P, {int(p): meets[:, p] for p in P})


def _layout_free(E):
    """What must not depend on the index layout, with elements named by
    index: the sharp elements, the central projections and maps, and the
    verdicts of ``validate_base`` on the central base and on ``_meet_base``."""
    cb = compbase._central_base(E)
    rows = [[(c.name, c.passed) for c in compbase._scan_base(E, base).checks]
            for base in (cb, _meet_base(E))]
    return (set(core.sharp_elements(E).tolist()), set(cb.projections),
            {p: cb.map_table(p).tolist() for p in cb.projections}, rows)


def _renamed(found, perm):
    """``_layout_free``'s answer on T, in the names of ``_relabeled(T, perm)``."""
    sharp, centre, maps, rows = found
    inv = np.argsort(perm)
    return ({int(perm[x]) for x in sharp}, {int(perm[p]) for p in centre},
            {int(perm[p]): perm[np.asarray(J)[inv]].tolist() for p, J in maps.items()}, rows)


def _layout_free_table(T):
    """No row of T holds one sum twice, and its order is antisymmetric:
    else ``a' `` and some meets are the last or first of several candidates
    in index order, which a relabeling may change."""
    S, L = T.sum_table, T.leq_table
    repeated = any(np.unique(row[row >= 0]).size < np.count_nonzero(row >= 0) for row in S)
    return not repeated and not (L & L.T & ~np.eye(T.size, dtype=bool)).any()


def test_verdicts_do_not_depend_on_the_index_layout():
    """An element without orthosupplement is neither sharp nor central,
    and a map focused there is no compression, wherever the table puts its
    last index: on the five-element table in its three layouts, and on
    the hosts of the central base tests relabeled so that the unit is not
    last.  Read as index -1, its missing p' was the last element."""
    first, *others = _five_element_layouts()
    perms = [np.array([o.labels.index(x) for x in first.labels]) for o in others]
    found = _layout_free(first)
    assert found[0] == {0, 1, 2, 4} and 3 not in found[1]  # c, at index 3, is neither
    for other, perm in zip(others, perms):
        assert _layout_free(other) == _renamed(found, perm)
    rng = np.random.default_rng(34)
    moved = 0
    for E in _central_hosts():
        n = E.size
        if n < 2 or not _layout_free_table(E):
            continue
        perm = rng.permutation(n)
        while perm[E.one] == n - 1:
            perm = rng.permutation(n)
        moved += bool((E.ortho_all() < 0).any())
        assert _layout_free(_relabeled(E, perm)) == _renamed(_layout_free(E), perm)
    assert moved > 20
