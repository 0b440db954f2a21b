"""The class table of a compression base (``CompressionBase.class_table``).

``has_b_property``, ``commute``, ``p_le_set`` and ``positive_part`` read it;
``PlainBase`` holds their definitions as plain-Python loops over the sum,
order and difference tables and the maps, and the tests compare the two
on every pair of elements.  A product base composes its table from the
factors' tables; the tests compare that with the table read off the
product's own ``pc_matrix`` (``compbase._pc_classes``).
"""

import collections

import numpy as np
import pytest

from effalg import comparability as cmp
from effalg import compbase, core, instances, spectral
from effalg.errors import (
    BPropertyMissing,
    ComparabilityMissing,
    EffalgError,
    InternalConsistencyError,
    NotCommuting,
)
from test_structural import (
    GRIDS,
    MUTATIONS,
    _both_orders,
    _broken_table,
    _criterion_01_instances,
    _meet_bases,
    _partners,
)


class PlainBase:
    """The b-property, commuting, P_<=(e, f) and positive parts of a base,
    from its tables and maps read entry by entry."""

    def __init__(self, cb):
        E = cb.algebra
        self.S, self.L, self.O = (t.tolist() for t in (E.sum_table, E.leq_table,
                                                       E.ominus_table))
        self.P = list(cb.projections)
        self.J = {p: cb.map_table(p).tolist() for p in self.P}
        self.ortho = {p: E.ortho(p) for p in self.P}
        self.pc = [[p for p in self.P if self.in_c(a, p)] for a in range(E.size)]
        self.compat = {(p, q): self.in_c(p, q) and self.in_c(q, p)
                       for p in self.P for q in self.P}

    def in_c(self, a, p):  # a = J_p(a) + J_p'(a)
        return self.S[self.J[p][a]][self.J[self.ortho[p]][a]] == a

    def closed(self, ps):
        """The members of ``ps`` compatible with all of ``ps``."""
        return [p for p in ps if all(self.compat[p, q] for q in ps)]

    def has_b_property(self, a):
        bic = self.closed(self.pc[a])
        return all(all(self.compat[p, q] for q in bic) == (p in self.pc[a]) for p in self.P)

    def commute(self, e, f):
        if not (self.has_b_property(e) and self.has_b_property(f)):
            raise BPropertyMissing
        return all(self.compat[p, q] for p in self.closed(self.pc[e])
                   for q in self.closed(self.pc[f]))

    def p_le_set(self, e, f):
        if not self.commute(e, f):
            raise NotCommuting
        both = [p for p in self.pc[e] if p in self.pc[f]]
        return [p for p in self.closed(both)
                if self.L[self.J[p][e]][self.J[p][f]]
                and self.L[self.J[self.ortho[p]][f]][self.J[self.ortho[p]][e]]]

    def positive_part(self, b, a):
        pl = self.p_le_set(a, b)
        if not pl:
            raise ComparabilityMissing
        vals = [self.O[self.J[p][b]][self.J[p][a]] for p in pl]
        if min(vals) < 0 or len(set(vals)) != 1:
            raise InternalConsistencyError
        return vals[0]


def _outcome(fn, *args):
    """What ``fn`` returns, as plain ints, or the class of what it raised."""
    try:
        out = fn(*args)
    except EffalgError as exc:
        return type(exc)
    return [int(p) for p in out] if isinstance(out, (list, np.ndarray)) else out


def _reference_bases():
    named = _criterion_01_instances()
    mv42 = instances.make_mv_product(4, 2, validate=False)
    bases = {name: named[name] for name in ("mv(4,2)", "boolean(3)", "MO2", "L8+L8")}
    bases["restrict(mv(4,2), 1)"] = cmp.restrict(mv42[1], mv42[0].one)
    rng = np.random.default_rng(11)
    for i in range(4):
        for j, base in enumerate(_meet_bases(rng)):
            bases[f"moved maps {i}.{j} on {base[0].kind}"] = base
    return bases


REFERENCE_BASES = _reference_bases()


@pytest.mark.parametrize("name", list(REFERENCE_BASES))
def test_class_table_matches_the_loops(name):
    """Same set, same value or same exception class on every pair."""
    E, cb = REFERENCE_BASES[name]
    plain = PlainBase(cb)
    for a in range(E.size):
        assert cmp.has_b_property(cb, a) == plain.has_b_property(a), a
        assert [int(p) for p in cb.bicommutant_set(a)] == plain.closed(plain.pc[a])
    assert cmp.all_b(cb) == all(plain.has_b_property(a) for a in range(E.size))
    for e in range(E.size):
        for f in range(E.size):
            for fn in ("commute", "p_le_set", "positive_part"):
                got = _outcome(getattr(cmp, fn), cb, e, f)
                assert got == _outcome(getattr(plain, fn), e, f), (fn, e, f)


def test_reference_bases_reach_every_outcome():
    """The bases above leave elements without the b-property, pairs that
    do not commute, commuting pairs without a separating projection, and
    P(e, f) that varies from pair to pair."""
    outcomes, varies = set(), False
    for E, cb in REFERENCE_BASES.values():
        plain = PlainBase(cb)
        sizes = set()
        for e in range(E.size):
            for f in range(E.size):
                got = _outcome(plain.positive_part, f, e)
                outcomes.add(got if isinstance(got, type) else int)
                if _outcome(plain.commute, e, f) is True:
                    sizes.add(len(plain.closed([p for p in plain.pc[e] if p in plain.pc[f]])))
        varies |= len(sizes) > 1
    assert {BPropertyMissing, NotCommuting, ComparabilityMissing, int} <= outcomes
    assert varies


def _composed_cases():
    named = _criterion_01_instances()
    yield "MO2 x boolean(1)", instances.make_product(named["MO2"], named["boolean(1)"],
                                                       validate=False)
    yield "boolean(1) x L8+L8", instances.make_product(named["boolean(1)"], named["L8+L8"],
                                                         validate=False)
    rng = np.random.default_rng(8)
    partners = _partners()
    for i in range(20):
        broken = _broken_table(rng, *GRIDS[i % len(GRIDS)], MUTATIONS[i % len(MUTATIONS)])
        for k, base in enumerate(_both_orders(broken, partners[i % 2])):
            yield f"broken table {i}.{k}", base
    rng = np.random.default_rng(11)
    moved = [base for _ in range(4) for base in _meet_bases(rng)]
    for i, base in enumerate(moved):
        # P(a) is empty for some elements of these, and their P holds
        # incompatible projections
        for k, prod in enumerate(_both_orders(base, partners[0])):
            yield f"moved maps {i}.{k}", prod
        yield f"moved maps {i} x {i + 1}", instances.make_product(
            base, moved[(i + 1) % len(moved)], validate=False)


def test_composed_table_matches_the_product_pc_matrix():
    """Per element: the same PC row, bicommutant, compatible projections,
    b-property and commuting as the table read off the product's own
    ``pc_matrix``, and the composed compatibility of P equals the scan's;
    or the same exception class where a factor's P is incomplete."""
    compared, raised = 0, 0
    for name, (E, cb) in _composed_cases():
        try:
            scan = compbase._pc_classes(cb)
        except EffalgError as exc:
            with pytest.raises(type(exc)):
                cb.class_table()
            raised += 1
            continue
        table = cb.class_table()
        assert cb.factors is not None and table is cb.class_table()
        for row in ("pc", "bic", "compat", "b"):
            assert np.array_equal(getattr(table, row)[table.cls],
                                  getattr(scan, row)[scan.cls]), (name, row)
        assert np.array_equal(table.commuting[np.ix_(table.cls, table.cls)],
                              scan.commuting[np.ix_(scan.cls, scan.cls)]), name
        pcm = cb.pc_matrix()[cb.p_array]
        assert np.array_equal(cb.pcompat(), pcm & pcm.T), name
        compared += 1
    assert raised and compared > 2 * raised


def test_resolution_on_a_product_builds_no_pc_matrix():
    E, cb = instances.make_product(instances.make_boolean(2), instances.make_mv_product(8, 3))
    for a in (0, E.size // 2, E.size - 1, 1234):
        spectral.binary_resolution(cb, a, 6)
    assert cb._pc_matrix is None
    assert cb.class_table().pc.shape == (1, len(cb.projections))  # u = 1


def _scalar_calls(monkeypatch):
    """The scalar ``sum``/``leq``/``ominus`` calls made from here on, counted
    per carrier: a product answers them through its factors, whose calls
    count for the factors, not for the product."""
    calls = collections.Counter()
    for name in ("sum", "leq", "ominus"):
        def counted(self, *args, scalar=core.FiniteAlgebra.__dict__[name]):
            calls[self] += 1
            return scalar(self, *args)
        monkeypatch.setattr(core.FiniteAlgebra, name, counted)
    return calls


def _split_counts(monkeypatch, cb, pairs):
    """Scalar calls made on the carrier of ``cb`` by each split."""
    E = cb.algebra
    out = []
    with monkeypatch.context() as m:
        calls = _scalar_calls(m)
        for c, q in pairs:
            before = calls[E]
            cmp.split(cb, c, q)
            out.append(calls[E] - before)
    return out


def _split_pairs(E, cb, rng, count=40):
    """Seeded ``(c, q)``: q a projection, c below q."""
    out = []
    for _ in range(count):
        q = int(rng.choice(cb.projections))
        out.append((int(rng.choice(np.flatnonzero(E.lower_bounds(q)))), q))
    return out


def test_split_scalar_calls_do_not_grow_with_p(monkeypatch):
    """The scalar calls of a split are no more on boolean(2) x mv(8,3)
    (|P| = 32) than on mv(8,3) (|P| = 8): no loop over the projections."""
    mv = instances.make_mv_product(8, 3)
    prod = instances.make_product(instances.make_boolean(2), mv)
    rng = np.random.default_rng(13)
    per_split = {}
    for name, (E, cb) in (("mv(8,3)", mv), ("product", prod)):
        pairs = _split_pairs(E, cb, rng)
        for c, q in pairs:  # build the tables first
            cmp.split(cb, c, q)
        counts = _split_counts(monkeypatch, cb, pairs)
        per_split[name] = sum(counts) / len(counts)
    assert len(prod[1].projections) == 4 * len(mv[1].projections) == 32
    assert per_split["product"] <= per_split["mv(8,3)"], per_split


def _tree_nodes(E):
    """How often each carrier stands as a node of E's factor tree, E
    included: the two factors of a grid of arity 2 are one chain."""
    nodes = collections.Counter([E])
    for F in E.factors or ():
        nodes.update(_tree_nodes(F))
    return nodes


def test_product_scalar_call_makes_one_call_per_factor(monkeypatch):
    """A scalar operation on a product makes at most one scalar call per
    node of its factor tree, grids included, and a node without factors
    answers from its tables with no further scalar call."""
    mv = instances.make_mv_product(8, 3)
    E, _ = instances.make_product(instances.make_boolean(2), mv)
    nodes = _tree_nodes(E)
    # E, boolean(2), its chain (twice), mv(8,3), mv(8,2) and their chain (three times)
    assert len(nodes) == 6 and sum(nodes.values()) == 9
    rng = np.random.default_rng(15)
    pairs = rng.integers(0, E.size, size=(100, 2)).tolist()
    pairs += [[E.one, E.one], [E.zero, E.one], [E.one, E.zero]]
    calls = _scalar_calls(monkeypatch)
    for name in ("sum", "leq", "ominus"):
        for a, b in pairs:
            calls.clear()
            getattr(E, name)(a, b)
            assert calls[E] == 1 and set(calls) <= set(nodes), (name, a, b)
            assert all(calls[F] <= nodes[F] for F in calls), (name, a, b)
