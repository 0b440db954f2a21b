"""Products validated through their factors, against the brute-force scans.

``core.validate_axioms`` and ``compbase.validate_base`` decide a product
from its factors' reports; ``core._scan_axioms`` and ``compbase._scan_base``
scan the product itself and are the reference here.  The spectrality
report of ``comparability.check_b_comparability`` is checked the same way
against ``comparability._scan_spectral``, and ``central_base``,
``cover_vec``, ``blocks`` and ``c_block`` against their scans.  Each
failing structural row's witness is checked in plain Python on the
product's tables.  Grids and Boolean algebras are products of their
chains, built by the same route.  (Criterion 01 compares the two on every
valid suite.)
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from effalg import comparability, compbase, core, instances, kernels, spectral
from effalg.compbase import CompressionBase, central_base
from effalg.errors import (EffalgError, IncompleteBase, InternalConsistencyError,
                           NotSpectral, Unstable)
from test_compbase import _table_copy

GRIDS = ((2, 1), (1, 2), (3, 1), (2, 2), (4, 1))  # (k, d) of the tables broken below
MUTATIONS = ("retarget", "undefine", "define", "one-sided")


def _broken_table(rng, k, d, kind):
    """A grid's sum table with one entry off the zero row and column changed."""
    S = core.GridAlgebra(k, d).sum_table.copy()
    n = S.shape[0]
    inner = S[1:, 1:]
    cells = np.argwhere(inner < 0) if kind == "define" else np.argwhere(inner >= 0)
    a, b = cells[rng.integers(len(cells))] + 1
    value = -1 if kind == "undefine" else int(rng.choice([s for s in range(n) if s != S[a, b]]))
    S[a, b] = value
    if kind != "one-sided":
        S[b, a] = value
    T = core.TableAlgebra(S, 0, n - 1)
    T.document = {"kind": "table"}  # make_product records its factors' documents
    return T, central_base(T)


def _partners():
    """Valid factors to pair a broken one with; the one of MO2 is index 1."""
    return instances.make_boolean(1), instances.make_mo2()


def _both_orders(broken, partner):
    yield instances.make_product(broken, partner, validate=False)
    yield instances.make_product(partner, broken, validate=False)


def _outline(rep):
    """(verdict, first failing row, the rows present)."""
    return (rep.passed, next((c.name for c in rep.checks if not c.passed), None),
            [c.name for c in rep.checks])


class Plain:
    """A product's sum table and maps as Python lists, and for each law a
    test that one witness breaks it."""

    def __init__(self, E, cb=None):
        self.S = E.sum_table.tolist()
        self.n, self.zero, self.one = E.size, E.zero, E.one
        self.P = set(cb.projections) if cb is not None else set()
        self.J = {p: cb.map_table(p).tolist() for p in self.P}

    def leq(self, x, y):
        return y in self.S[x]

    def ominus(self, y, x):
        """The last z with x + z = y, as the difference table holds it."""
        hits = [z for z, s in enumerate(self.S[x]) if s == y]
        return hits[-1] if hits else -1

    def ortho(self, x):
        return self.ominus(self.one, x)

    def mackey(self, p, q):
        S = self.S
        for c in range(self.n):
            if self.leq(c, p) and self.leq(c, q):
                a, b = self.ominus(p, c), self.ominus(q, c)
                if S[a][b] >= 0 and S[S[a][b]][c] >= 0:
                    return True
        return False

    def breaks(self, name, w):
        S, zero, one, P = self.S, self.zero, self.one, self.P
        if name == "E1-commutative":
            a, b = w
            return S[a][b] != S[b][a]
        if name == "E2-associative":
            a, b, c = w
            ab, bc = S[a][b], S[b][c]
            return ab >= 0 and S[ab][c] >= 0 and (bc < 0 or S[a][bc] != S[ab][c])
        if name == "E3-orthosupplement-exists":
            return one not in S[w]
        if name == "E3-orthosupplement-unique":
            return S[w].count(one) != 1
        if name == "E4-unit-maximal":
            return w != zero and S[w][one] >= 0
        if name == "cancellation":
            x, y, c = w
            return x != y and S[x][c] >= 0 and S[x][c] == S[y][c]
        if name == "P-sub-effect-algebra":
            what, x = w
            if what == "ortho":
                return x in P and self.ortho(x) not in P
            return x not in P and any(S[p][q] == x for p in P for q in P)
        if name == "C1-compressions":
            p, kind, inner = w
            J = self.J[p]
            focus = J[one]
            if isinstance(inner, tuple):
                x, y = inner
                return S[x][y] >= 0 and J[S[x][y]] != S[J[x]][J[y]]
            if inner is None:
                return focus != p
            if kind == "not_additive":
                return self.leq(inner, focus) and J[inner] != inner
            return (J[inner] == zero) != self.leq(inner, self.ortho(focus))
        if name == "supplement-pairing":
            J, q = self.J[w], self.ortho(w)
            return any((J[x] == zero) != self.leq(x, q) for x in range(self.n))
        if name == "C2-composition":
            p, q, kind, f = w
            if not (p in P and q in P and self.mackey(p, q) and self.J[p][q] == f):
                return False
            return f not in P or [self.J[p][x] for x in self.J[q]] != self.J[f]
        if name == "P-normal":
            p, q, d = w
            return (p in P and q in P and d not in P and self.leq(d, p) and self.leq(d, q)
                    and S[self.ominus(p, d)][q] >= 0)
        if name == "triple-law":
            spq, q, sqr, r = w
            if not (q in P and r in P and S[q][r] == sqr and S[spq][r] >= 0
                    and any(S[p][q] == spq for p in P)):
                return False
            if spq not in P or sqr not in P:
                return True
            return [self.J[spq][x] for x in self.J[sqr]] != self.J[q]
        raise AssertionError(f"no witness test for {name}")


def _check_witnesses(rep, plain):
    for c in rep.checks:
        if not c.passed and c.witness is not None:
            assert plain.breaks(c.name, c.witness), (c.name, c.witness)


def test_broken_table_factors_match_the_scans():
    rng = np.random.default_rng(8)
    partners = _partners()
    failed = set()
    for i in range(4 * len(GRIDS)):
        broken = _broken_table(rng, *GRIDS[i % len(GRIDS)], MUTATIONS[i % len(MUTATIONS)])
        for partner in partners:
            for E, cb in _both_orders(broken, partner):
                plain = Plain(E, cb)
                for structural, scan in ((core.validate_axioms(E), core._scan_axioms(E)),
                                         (compbase.validate_base(E, cb),
                                          compbase._scan_base(E, cb))):
                    assert _outline(structural) == _outline(scan), (i, structural.summary())
                    assert {c.mode for c in structural.checks} == {"structural"}
                    _check_witnesses(structural, plain)
                    failed |= {c.name for c in structural.checks if not c.passed}
    assert failed == {"E1-commutative", "E2-associative", "E3-orthosupplement-exists",
                      "E3-orthosupplement-unique", "E4-unit-maximal", "cancellation",
                      "P-sub-effect-algebra", "C1-compressions", "C2-composition", "P-normal",
                      "triple-law"}


def _changed_bases(rng, E, cb):
    """``cb`` with one entry of one map (off the unit) moved, three times,
    and ``cb`` without one of its members other than 0 and 1."""
    out = []
    for _ in range(3):
        maps = {q: np.array(cb.map_table(q)) for q in cb.projections}
        p = cb.projections[rng.integers(len(cb.projections))]
        a = int(rng.integers(E.size - 1))
        a += a >= E.one
        maps[p][a] = (maps[p][a] + 1 + rng.integers(E.size - 1)) % E.size
        out.append(CompressionBase(E, cb.projections, maps))
    inner = [q for q in cb.projections if q not in (E.zero, E.one)]
    if inner:
        q = inner[rng.integers(len(inner))]
        keep = [x for x in cb.projections if x != q]
        out.append(CompressionBase(E, keep, {x: cb.map_table(x) for x in keep}))
    return out


@pytest.mark.parametrize("through_c1", [False, True])
def test_changed_bases_match_the_scans(through_c1, monkeypatch):
    if through_c1:  # let every map through C1 so that broken maps reach the later laws
        monkeypatch.setattr(compbase.MapSample, "classify", lambda self, J: (
            compbase.MapClassification("compression", int(np.asarray(J)[self.E.one]))))
    rng = np.random.default_rng(9)
    partners = _partners()
    factors = [instances.make_boolean(2), instances.make_mv_product(2, 2), instances.make_mo2(),
               instances.make_mv_product(4, 1)]
    cases = [(E1, broken) for E1, cb1 in factors for broken in _changed_bases(rng, E1, cb1)]
    # an additive J_1 onto [0, atom] whose kernel spills past [0, 0]: a retraction
    M, mcb = factors[2]
    retraction = np.zeros(M.size, dtype=int)
    retraction[[2, 1, 4]] = 2  # see test_horizontal_sum_retraction_not_compression
    cases.append((M, CompressionBase(M, mcb.projections, {0: mcb.map_table(0), 1: retraction})))
    failed, c1_kinds = set(), set()
    for E1, broken in cases:
        for partner in partners:
            for E, cb in _both_orders((E1, broken), partner):
                structural = compbase.validate_base(E, cb)
                assert _outline(structural) == _outline(compbase._scan_base(E, cb))
                _check_witnesses(structural, Plain(E, cb))
                failed |= {c.name for c in structural.checks if not c.passed}
                c1_kinds |= {c.witness[1] for c in structural.checks
                             if c.name == "C1-compressions" and not c.passed}
    # through C1 the retraction still has its focus off 1
    assert c1_kinds == ({"compression"} if through_c1 else {"not_additive", "retraction"})
    assert failed == ({"P-sub-effect-algebra", "C1-compressions", "supplement-pairing",
                       "C2-composition", "triple-law"} if through_c1 else
                      {"P-sub-effect-algebra", "C1-compressions"})


def _nested_product(validate=True):
    """(b1 x mv(4,1)) x b1, built afresh, and its inner product and b1."""
    b1, mv = instances.make_boolean(1, validate), instances.make_mv_product(4, 1, validate)
    inner = instances.make_product(b1, mv, validate=False)
    return instances.make_product(inner, b1, validate=False), inner, b1


def test_nested_products_and_sampled_factors(monkeypatch):
    """A factor's rows stay ``structural`` through nesting; a sampled factor
    row makes the product row ``sampled``; memoised reports are reused."""
    (E, cb), inner, b1 = _nested_product()
    rep = core.validate_axioms(E)
    assert rep.passed and {c.mode for c in rep.checks} == {"structural"}
    assert rep.parts[0] is core.validate_axioms(inner[0])
    assert rep.parts[1] is core.validate_axioms(b1[0])
    assert core.validate_axioms(E) is rep
    assert compbase.validate_base(E, cb).parts[0] is compbase.validate_base(*inner)
    # a budget below mv(4,1)'s 35 defined triples samples its associativity,
    # and only that row
    monkeypatch.setattr(core, "TRIPLE_BUDGET", 30)
    small = core.validate_axioms(_nested_product(validate=False)[0][0])
    sampled = {c.name for c in small.checks if c.mode == "sampled"}
    assert small.passed and sampled == {"E2-associative"}
    assert small.sampled and not rep.sampled


# ---------------------------------------------------------------------------
# grids and Boolean algebras through their chains

# the dense grids and Boolean algebras of criterion 01 and of the cli
# documents, the chains among them
DENSE_GRIDS = {
    **{f"boolean({n})": lambda n=n: instances.make_boolean(n, validate=False)
       for n in (1, 2, 3, 4)},
    **{f"mv({k},{d})": lambda k=k, d=d: instances.make_mv_product(k, d, validate=False)
       for k, d in ((4, 1), (8, 1), (4, 2), (16, 2), (8, 3))},
}


def _tower(E):
    """The grids of E's tower, E first and its chain last."""
    out = [E]
    while out[-1].factors is not None:
        out.append(out[-1].factors[1])
    return out


@pytest.mark.parametrize("name", list(DENSE_GRIDS))
def test_grid_base_is_the_central_base(name):
    E, cb = DENSE_GRIDS[name]()
    assert cb is central_base(E)  # the constructors take the central base E keeps
    assert (cb.factors is None) == (E.d == 1)
    for G, base in zip(_tower(E), _tower(cb)):  # every level is its grid's product base
        assert base.algebra is G and (base.factors is None) == (G.factors is None)
        if base.factors is not None:
            assert tuple(f.algebra for f in base.factors) == G.factors
    levels = _tower(cb)
    assert all(base.factors[0] is levels[-1] for base in levels[:-1])  # one chain base


def _plain_grid_tables(k, d, rows):
    """Rows ``rows`` of the sum, order and difference tables of {0..k}^d,
    coordinate 0 least significant, in plain Python on coordinate lists
    (as ``perfbench/wl_validate.grid_table`` builds the sum table)."""
    n = (k + 1) ** d
    coords = [[(x // (k + 1) ** i) % (k + 1) for i in range(d)] for x in range(n)]

    def index(c):
        return sum(v * (k + 1) ** i for i, v in enumerate(c)) if 0 <= min(c) <= max(c) <= k else -1

    out = {"sum": [], "leq": [], "ominus": []}
    for a in rows:
        out["sum"].append([index([x + y for x, y in zip(coords[a], c)]) for c in coords])
        out["leq"].append([all(x <= y for x, y in zip(coords[a], c)) for c in coords])
        out["ominus"].append([index([x - y for x, y in zip(coords[a], c)]) for c in coords])
    return out


@pytest.mark.parametrize("name", list(DENSE_GRIDS))
def test_grid_tables_are_product_tables_of_the_chain(name):
    """A grid is its chain times the grid of one coordinate less, sharing
    the chain, and its tables, the chain's included, are those of
    coordinatewise truncated arithmetic: every row of grids up to 100
    elements and 60 seeded rows of the others, against plain Python."""
    E, _ = DENSE_GRIDS[name]()
    if E.factors is not None:
        chain, rest = E.factors
        assert chain is E.chain and rest.chain is chain and chain.d == 1 and chain.k == E.k
        assert type(chain) is type(E) and rest.d == E.d - 1 and chain.factors is None
    rows = (range(E.size) if E.size <= 100
            else np.random.default_rng(16).choice(E.size, 60, replace=False).tolist())
    want = _plain_grid_tables(E.k, E.d, rows)
    for op in ("sum", "leq", "ominus"):
        table = getattr(E, f"{op}_table")
        assert table.dtype == (bool if op == "leq" else np.int32), op
        assert table[list(rows)].tolist() == want[op], op


@pytest.mark.parametrize("name", list(DENSE_GRIDS))
def test_grid_index_layout_agrees_with_coords(name):
    E, _ = DENSE_GRIDS[name]()
    if E.factors is None:
        return
    chain, rest = E.factors
    idx = np.arange(E.size)
    x, y = E.split_index(idx)
    assert np.array_equal(E.coords[:, -1], chain.coords[x, 0])
    assert np.array_equal(E.coords[:, :-1], rest.coords[y])
    assert all(E.pair_index(a, b) == i for i, a, b in zip(idx[::7], x[::7], y[::7]))
    for a in range(chain.size):
        top = [0] * (E.d - 1) + [a]
        assert E.embed(0, a) == E.index_of(top)
        assert E.embed(0, a, at_one=True) == E.index_of([E.k] * (E.d - 1) + [a])
    for b in range(0, rest.size, 5):
        low = list(rest.coords[b])
        assert E.embed(1, b) == E.index_of(low + [0])
        assert E.embed(1, b, at_one=True) == E.index_of(low + [E.k])


@pytest.mark.parametrize("name", list(DENSE_GRIDS))
def test_grid_verdicts_match_the_scans(name):
    E, cb = DENSE_GRIDS[name]()
    for structural, scan in ((core.validate_axioms(E), core._scan_axioms(E)),
                             (compbase.validate_base(E, cb), compbase._scan_base(E, cb))):
        assert structural.passed and scan.passed
        assert _outline(structural) == _outline(scan)
        modes = {c.mode for c in structural.checks}
        assert modes == ({"full"} if E.d == 1 else {"structural"})
    # the chain is validated once, through every level of the tower
    if E.factors is not None:
        chain_report = core.validate_axioms(E.chain)
        parts = core.validate_axioms(E).parts
        assert parts[0] is chain_report


def test_grids_past_the_dense_limit_are_structural():
    """Grids too large for tables are exact through their chains too."""
    for E, cb in (instances.make_mv_product(16, 4, validate=False),
                  instances.make_boolean(13, validate=False)):
        assert not E.dense
        for rep in (core.validate_axioms(E), compbase.validate_base(E, cb)):
            assert rep.passed and {c.mode for c in rep.checks} == {"structural"}
        assert core.is_archimedean(E)


def _cancellation_breaker():
    """0, a, b, 1 with a + a = b + a = 1: a != b, so cancellation fails."""
    sums = [(0, x, x) for x in range(4)] + [(1, 1, 3), (1, 2, 3)]
    return core.TableAlgebra.from_triples(4, sums, 0, 3)


def test_archimedean_reads_the_cancellation_row(monkeypatch):
    def build():
        return [_cancellation_breaker(), instances.make_mv_product(8, 3, validate=False)[0],
                instances.make_product(instances.make_boolean(2),
                                       instances.make_mv_product(4, 2), validate=False)[0],
                instances.make_mo2(validate=False)[0]]

    want = [core._cancellation_check(E).passed for E in build()]  # on copies of their own
    assert want == [False, True, True, True]
    hosts = build()
    for E in hosts:
        core.validate_axioms(E)

    def scanned(*args):
        raise AssertionError("is_archimedean rescanned cancellation")

    monkeypatch.setattr(kernels, "cancellation_violation", scanned)
    assert [core.is_archimedean(E) for E in hosts] == want
    assert not hasattr(hosts[0], "_archimedean")


def test_archimedean_without_a_report_scans_cancellation_only(monkeypatch):
    """With no kept axiom report, ``is_archimedean`` reads a product's
    factors and runs ``_cancellation_check`` alone on any other carrier: no
    associativity scan, on a table copy of ``boolean(2) x mv(8,3)`` and on
    the seeded broken tables.  The carrier keeps the row, and a later axiom
    scan appends that same check."""
    from test_table_passes import _broken_tables

    E = instances.make_product(instances.make_boolean(2), instances.make_mv_product(8, 3),
                               validate=False)[0]

    def build():
        return [core.TableAlgebra(E.sum_table, E.zero, E.one)] + _broken_tables()

    want = [core._cancellation_check(T).passed for T in build()]  # on copies of their own
    tables = build()
    assert want[0] and not all(want)
    product = instances.make_product(instances.make_boolean(2), instances.make_mv_product(4, 2),
                                     validate=False)[0]

    def scanned(*args):
        raise AssertionError("is_archimedean ran the associativity scan")

    with monkeypatch.context() as m:
        m.setattr(kernels, "associativity_violation", scanned)
        assert [core.is_archimedean(T) for T in tables] == want
        assert core.is_archimedean(product) and "cancellation" not in product._reports
    for T in tables[1:]:  # the copy's associativity scan alone takes most of a second
        rows = [c for c in core.validate_axioms(T).checks if c.name == "cancellation"]
        assert len(rows) == 1 and rows[0] is T._reports["cancellation"]


# ---------------------------------------------------------------------------
# spectrality through factors

def _criterion_01_instances():
    """The named instances of criterion 01, built unchecked."""
    ident = [Fraction(i, 8) for i in range(9)]
    l8 = instances.make_mv_product(8, 1, validate=False)
    return {
        **{f"boolean({n})": instances.make_boolean(n, validate=False) for n in (1, 2, 3, 4)},
        "mv(4,2)": instances.make_mv_product(4, 2, validate=False),
        "mv(8,3)": instances.make_mv_product(8, 3, validate=False),
        "MO2": instances.make_mo2(validate=False),
        "L8+L8": instances.make_horizontal_sum(l8, l8, ident, ident, validate=False),
    }


def _dense_products():
    """Criterion 01's products (the cli product document among them) that
    have dense tables, and MO2 and L8+L8 after boolean(1) as well."""
    named = _criterion_01_instances()
    pairs = [(a, b) for a, b in itertools.combinations_with_replacement(sorted(named), 2)
             if named[a][0].size * named[b][0].size <= core.DENSE_LIMIT]
    pairs += [("boolean(1)", "MO2"), ("boolean(1)", "L8+L8")]
    return {f"{a} x {b}": (lambda a=a, b=b: instances.make_product(named[a], named[b],
                                                                  validate=False))
            for a, b in pairs}


SPECTRAL_CASES = {
    **DENSE_GRIDS,
    **{f"boolean({n})": lambda n=n: instances.make_boolean(n, validate=False)
       for n in (5, 6, 7, 8)},
    **_dense_products(),
}


class PlainSpectral:
    """A carrier's sum and order tables and its base's maps, read entry by
    entry, and for each spectrality row a test that one witness breaks it."""

    def __init__(self, E, cb):
        self.S, self.L = E.sum_table, E.leq_table
        self.n, self.zero, self.one = E.size, E.zero, E.one
        self.P = list(cb.projections)
        self.J = {p: cb.map_table(p) for p in self.P}
        self.index = {E.label(x): x for x in range(E.size)}

    def ominus(self, y, x):
        """The last z with x + z = y, as the difference table holds it; -1
        when there is none."""
        hits = [z for z, s in enumerate(self.S[x].tolist()) if s == y]
        return hits[-1] if hits else -1

    def ortho(self, x):
        return self.ominus(self.one, x)

    def meet(self, x, y):
        common = [c for c in range(self.n) if self.L[c, x] and self.L[c, y]]
        top = [c for c in common if all(self.L[d, c] for d in common)]
        return top[0] if top else None

    def in_c(self, a, p):  # a = J_p(a) + J_p'(a)
        return int(self.S[self.J[p][a], self.J[self.ortho(p)][a]]) == a

    def compatible(self, p, q):
        return self.in_c(p, q) and self.in_c(q, p)

    def closed(self, ps):
        """The members of ``ps`` compatible with all of ``ps``."""
        return [p for p in ps if all(self.compatible(p, q) for q in ps)]

    def pc(self, a):
        return [p for p in self.P if self.in_c(a, p)]

    def breaks(self, name, w):
        if name == "comparability":
            e, f = (self.index[x] for x in w)
            if not all(self.compatible(p, q) for p in self.closed(self.pc(e))
                       for q in self.closed(self.pc(f))):
                return False  # e and f do not commute
            both = [p for p in self.pc(e) if p in self.pc(f)]
            return not any(self.L[self.J[p][e], self.J[p][f]]
                           and self.L[self.J[self.ortho(p)][f], self.J[self.ortho(p)][e]]
                           for p in self.closed(both))
        if name == "sharp-elements-are-projections":
            return all(x not in self.P and self.meet(x, self.ortho(x)) == self.zero for x in w)
        kind, *labels = w  # C-blocks-are-MV
        x, y = (self.index[v] for v in labels) if labels else (None, None)
        if kind == "meet-missing":
            return self.meet(x, y) is None
        if kind == "mv-identity":
            m, j = self.meet(x, y), self.ortho(self.meet(self.ortho(x), self.ortho(y)))
            return self.ominus(j, x) != self.ominus(y, m)
        return kind in ("join-missing", "not-closed")  # these name no elements


def _spectral_outcome(report):
    """The outline of a report, or the class of what making it raised."""
    try:
        return _outline(report())
    except EffalgError as exc:
        return type(exc)


def _check_spectral_witnesses(E, cb, rep):
    failing = [c for c in rep.checks if not c.passed and c.witness is not None]
    if failing:
        plain = PlainSpectral(E, cb)
        for c in failing:
            assert plain.breaks(c.name, c.witness), (c.name, c.witness)


@pytest.mark.parametrize("name", list(SPECTRAL_CASES))
def test_spectrality_matches_the_scan(name):
    E, cb = SPECTRAL_CASES[name]()
    rep = comparability.check_b_comparability(cb)
    assert _outline(rep) == _outline(comparability._scan_spectral(cb)), rep.summary()
    assert cb.is_spectral() == (rep.passed and cb.has_pcp())
    if E.factors is not None:
        assert {c.mode for c in rep.checks} == {"structural"}
        assert rep.parts == [comparability.check_b_comparability(f) for f in cb.factors]
    _check_spectral_witnesses(E, cb, rep)
    # MO2 and L8+L8 are not comparable, and neither is a product with one
    assert rep.passed == ("MO2" not in name and "L8+L8" not in name)


def _unfactored(cb):
    """A base with the projections and maps of ``cb`` and no factors, on
    the same carrier: its covers, blocks and C-blocks are scanned."""
    return CompressionBase(cb.algebra, cb.projections,
                           {p: cb.map_table(p) for p in cb.projections})


@pytest.mark.parametrize("name", list(SPECTRAL_CASES))
def test_factor_routes_match_the_scans(name):
    """``cover_vec``, ``blocks``, ``c_block`` and ``central_base`` of a base
    with factors against the scans; ``central_base`` is scanned on a table
    copy of the carrier where it has at most 20 000 pairs of an element and
    a sharp element."""
    E, cb = SPECTRAL_CASES[name]()
    if E.factors is None:
        return
    twin = _unfactored(cb)
    assert np.array_equal(cb.cover_vec(), twin.cover_vec())
    assert compbase.blocks(cb) == compbase.blocks(twin)
    for block in compbase.blocks(cb):
        assert np.array_equal(compbase.c_block(cb, block), compbase.c_block(twin, block))
    odd = cb.projections[::5]  # a set of projections that is no block
    assert np.array_equal(compbase.c_block(cb, odd), compbase.c_block(twin, odd))
    centre = central_base(E)
    assert centre.factors is not None
    if E.size * len(core.sharp_elements(E)) <= 20_000:
        scan = central_base(core.TableAlgebra(E.sum_table, E.zero, E.one))
        assert centre.projections == scan.projections
        assert np.array_equal(centre.map_stack(), scan.map_stack())


def test_broken_table_factors_match_the_spectral_scan():
    rng = np.random.default_rng(8)
    partners = _partners()
    failed, raised = set(), set()
    for i in range(4 * len(GRIDS)):
        broken = _broken_table(rng, *GRIDS[i % len(GRIDS)], MUTATIONS[i % len(MUTATIONS)])
        for partner in partners:
            for E, cb in _both_orders(broken, partner):
                structural = _spectral_outcome(lambda: comparability.check_b_comparability(cb))
                assert structural == _spectral_outcome(lambda: comparability._scan_spectral(cb))
                if isinstance(structural, type):
                    raised.add(structural)
                    continue
                rep = comparability.check_b_comparability(cb)
                assert {c.mode for c in rep.checks} == {"structural"}
                _check_spectral_witnesses(E, cb, rep)
                failed |= {c.name for c in rep.checks if not c.passed}
    assert failed == {"comparability", "sharp-elements-are-projections", "C-blocks-are-MV"}
    assert raised == {IncompleteBase}


def _distributive_block(cb, block):
    """The reference Boolean-block check: closure under ' and under the
    meets J_p(q), then ``p ^ (q v r) == (p ^ q) v (p ^ r)`` on all ``b^3``
    triples.  It passes blocks that are distributive but not Boolean."""
    E = cb.algebra
    block = np.asarray(block, dtype=np.int64)
    b = block.size
    where = np.full(E.size, -1, dtype=np.int64)
    where[block] = np.arange(b)
    ortho = where[E.ortho_all()[block]]
    if (ortho < 0).any():
        raise InternalConsistencyError(f"block not closed under ': {block.tolist()}")
    meet = where[cb.map_values(block, block)]
    if (meet < 0).any():
        raise InternalConsistencyError("block not closed under meets")
    join = ortho[meet[np.ix_(ortho, ortho)]]
    for i in range(b):
        if (meet[i][join] != join[meet[i][:, None], meet[i][None, :]]).any():
            raise InternalConsistencyError("block fails distributivity")


def _blocks_outcome(cb, check=None):
    """``compbase.blocks(cb)``, with ``check`` as its Boolean-block check
    if given, or the class of what it raised."""
    with pytest.MonkeyPatch.context() as patch:
        if check is not None:
            patch.setattr(compbase, "_check_boolean_block", check)
        try:
            return compbase.blocks(cb)
        except EffalgError as exc:
            return type(exc)


def _raises(check, cb, block):
    """The message of the ``InternalConsistencyError`` that ``check``
    raises on the block, or None."""
    try:
        check(cb, block)
    except InternalConsistencyError as exc:
        return str(exc)
    return None


def test_blocks_match_the_distributive_reference():
    """On every valid base of criterion 01, its dense table copies and the
    Boolean algebras up to boolean(8), the atom map finds the blocks that
    the ``b^3`` distributivity check finds."""
    named = _criterion_01_instances()
    suites = dict(named)
    for a, b in itertools.combinations_with_replacement(sorted(named), 2):
        suites[f"{a} x {b}"] = instances.make_product(named[a], named[b], validate=False)
    suites.update({f"boolean({k})": instances.make_boolean(k, validate=False)
                   for k in (5, 6, 7, 8)})
    copied = 0
    for name, (E, cb) in suites.items():
        assert compbase.validate_base(E, cb).passed, name
        bases = [cb]
        if E.dense:
            bases.append(_table_copy(E, cb)[1])
            copied += 1
        if E.dense and E.factors is not None:
            bases.append(_unfactored(cb))
        for base in bases:
            got = _blocks_outcome(base)
            assert isinstance(got, list) and got == _blocks_outcome(base, _distributive_block), name
    assert copied >= 20


def test_broken_blocks_raise_as_the_reference():
    """On the seeded broken tables, alone and times boolean(1) and MO2 (with
    and without factors), ``blocks`` raises iff the ``b^3`` reference does,
    and finds the same blocks when neither raises."""
    rng = np.random.default_rng(8)
    outcomes = set()
    for i in range(4 * len(GRIDS)):
        broken = _broken_table(rng, *GRIDS[i % len(GRIDS)], MUTATIONS[i % len(MUTATIONS)])
        bases = [broken[1]]
        for partner in _partners():
            bases += [cb for _, cb in _both_orders(broken, partner)]
            bases += [_unfactored(cb) for _, cb in _both_orders(broken, partner)]
        for cb in bases:
            got = _blocks_outcome(cb)
            assert got == _blocks_outcome(cb, _distributive_block)
            outcomes.add(got if isinstance(got, type) else list)
    assert outcomes == {list, IncompleteBase, InternalConsistencyError}


def _plain_boolean(meet, ortho) -> bool:
    """Whether positions ``0..b-1`` with the meet table ``meet`` and the
    complement ``ortho`` form a Boolean algebra, by its axioms read entry by
    entry: ' an involution, ^ commutative, associative and idempotent,
    absorption and distributivity with ``q v r = (q' ^ r')'``, and one
    ``p ^ p'`` for all p, below every member."""
    b = len(meet)
    members = range(b)

    def join(q, r):
        return ortho[meet[ortho[q]][ortho[r]]]

    zero = meet[0][ortho[0]]
    return (all(ortho[ortho[p]] == p and meet[p][p] == p and meet[p][ortho[p]] == zero
                and meet[zero][p] == zero for p in members)
            and all(meet[p][q] == meet[q][p] and meet[p][join(p, q)] == p
                    for p in members for q in members)
            and all(meet[meet[p][q]][r] == meet[p][meet[q][r]]
                    and meet[p][join(q, r)] == join(meet[p][q], meet[p][r])
                    for p in members for q in members for r in members))


def test_moved_meets_raise_iff_the_block_is_not_boolean():
    """The block of a Boolean or MV table copy, with one or two of its
    meets J_p(q) moved to another member: the atom map raises iff the block
    is no Boolean algebra under its axioms, checked entry by entry.  The
    ``b^3`` reference passes some of these, never one that the atom map
    passes."""
    rng = np.random.default_rng(1)
    sources = [_table_copy(*instances.make_boolean(k, validate=False)) for k in (1, 2, 3)]
    sources.append(_table_copy(*instances.make_mv_product(4, 2, validate=False)))
    seen = set()
    for t in range(400):
        E, cb = sources[t % len(sources)]
        (block,) = compbase.blocks(cb)
        maps = {p: cb.map_table(p).copy() for p in cb.projections}
        for _ in range(int(rng.integers(1, 3))):
            p, q, r = (block[i] for i in rng.integers(len(block), size=3))
            maps[p][q] = r
        moved = CompressionBase(E, cb.projections, maps)
        where = {x: i for i, x in enumerate(block)}
        meet = [[where[int(moved.apply(p, q))] for q in block] for p in block]
        boolean = _plain_boolean(meet, [where[E.ortho(p)] for p in block])
        passed, reference = (_raises(check, moved, block) is None
                             for check in (compbase._check_boolean_block, _distributive_block))
        assert passed == boolean
        assert reference or not passed
        seen.add((passed, reference))
    assert seen == {(True, True), (False, True), (False, False)}


def _hand_block(meet, ortho):
    """A base whose block is ``0..b-1`` with the meet table ``meet`` and
    ``x' = ortho[x]``, on a carrier of ``b + 1`` elements whose unit ``b``
    is the only sum defined."""
    b = len(meet)
    S = np.full((b + 1, b + 1), -1)
    S[np.arange(b), ortho] = b
    E = core.TableAlgebra(S, 0, b)
    return CompressionBase(E, range(b), {p: np.array([*meet[p], 0]) for p in range(b)})


@pytest.mark.parametrize("meet, ortho, want, reference", [
    # the chain 0 < h < 1 with h' = h and the meets its minimum: closed
    # under ' and the meets, and distributive, but three members over one atom
    ([[0, 0, 0], [0, 1, 1], [0, 1, 2]], [2, 1, 0], "3 members is not Boolean over its 1", None),
    # the square 0 < a, b < 1 with a' = a and b' = b: the meets are the
    # square's, so only ' breaks the atom map
    ([[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]], [3, 1, 2, 0],
     "4 members is not Boolean over its 2", None),
    # two atoms and four members, where members 0 and 3 both map to the
    # atom set {1}: only the test that the masks are distinct fails
    ([[1, 1, 1, 0], [1, 0, 0, 1], [1, 3, 2, 3], [0, 1, 3, 1]], [2, 2, 1, 2],
     "4 members is not Boolean over its 2", "block fails distributivity"),
], ids=["chain", "complement", "distinct"])
def test_blocks_that_are_not_boolean(meet, ortho, want, reference):
    """Hand-built blocks closed under ' and their meets that are no Boolean
    algebra, each caught by one clause of the atom check.  The ``b^3``
    reference passes the first two."""
    assert not _plain_boolean(meet, ortho)
    cb = _hand_block(meet, ortho)
    assert _raises(compbase._check_boolean_block, cb, range(len(meet))) == \
        f"block of {want} atoms"
    assert _raises(_distributive_block, cb, range(len(meet))) == reference


def _mv_one_step(E, elems, exact=True):
    """``comparability._mv_violation`` with every pair in one array: each
    law on all pairs before the next, the first failing pair in row-major
    order (or, unless ``exact``, in the order of the seeded draws)."""
    k = elems.size
    if exact:
        xs, ys = np.repeat(elems, k), np.tile(elems, k)
    else:
        xs, ys = (elems[d] for d in core._draws(0, k, k))
    meets = E.meet_pairs(xs, ys)
    if (meets < 0).any():
        i = int(np.argmax(meets < 0))
        return "meet-missing", E.label(int(xs[i])), E.label(int(ys[i]))
    joins = E.meet_pairs(E.ortho_all()[xs], E.ortho_all()[ys])
    if (joins < 0).any():
        return "join-missing",
    joins = E.ortho_all()[joins]
    if not np.isin(np.concatenate([meets, joins]), elems).all():
        return "not-closed",
    lhs = E.ominus_pairs(joins, xs)
    rhs = E.ominus_pairs(ys, meets)
    if (lhs != rhs).any():
        i = int(np.argmax(lhs != rhs))
        return "mv-identity", E.label(int(xs[i])), E.label(int(ys[i]))
    return None


def _mv_cases():
    """(algebra, elements): the C-blocks of the central bases of the
    criterion-01 instances (as tables) and of the broken tables, which
    raise where the base has no blocks; the broken carriers whole; and
    seeded subsets of them, which fail every law in turn; and the carriers
    of their products with MO2."""
    named = _criterion_01_instances()
    tables = [core.TableAlgebra(named[k][0].sum_table, named[k][0].zero, named[k][0].one)
              for k in ("boolean(3)", "mv(4,2)", "MO2", "L8+L8")]
    rng = np.random.default_rng(8)
    broken = [_broken_table(rng, *GRIDS[i % len(GRIDS)], MUTATIONS[i % len(MUTATIONS)])[0]
              for i in range(4 * len(GRIDS))]
    cases = []
    for T in tables + broken:
        cb = central_base(T)
        try:
            cases += [(T, compbase.c_block(cb, b)) for b in compbase.blocks(cb)]
        except EffalgError:
            pass
    rng = np.random.default_rng(12)
    for T in broken:
        cases.append((T, np.arange(T.size)))
        for E, _ in _both_orders((T, central_base(T)), instances.make_mo2()):
            cases.append((E, np.arange(E.size)))
        for size in (2, 3, 4, 6):
            for _ in range(4):
                pick = rng.choice(T.size, size=min(size, T.size), replace=False)
                cases.append((T, np.sort(pick)))
    return cases


def test_chunked_mv_check_matches_one_step(monkeypatch):
    """The MV row read in runs of rows of pairs (one row a run at a small
    ``CHUNK_BYTES``) gives the verdict and witness of the one-step check,
    and so do the seeded draws of a row past the budget (40 of them here)."""
    cases = _mv_cases()
    want = [_mv_one_step(E, elems) for E, elems in cases]
    assert [comparability._mv_violation(E, elems) for E, elems in cases] == want
    kinds = {None if w is None else w[0] for w in want}
    assert kinds == {None, "meet-missing", "join-missing", "not-closed", "mv-identity"}
    # a witness (b, a) with b after a: the pair read as the mirror of (a, b)
    assert any(w and w[0] == "mv-identity" and int(w[1]) > int(w[2]) for w in want)
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 64)
    assert [comparability._mv_violation(E, elems) for E, elems in cases] == want
    monkeypatch.setattr(core, "SAMPLE_SIZE", 40)
    sampled = [_mv_one_step(E, elems, exact=False) for E, elems in cases]
    assert [comparability._mv_violation(E, elems, exact=False) for E, elems in cases] == sampled
    assert sampled != want


def _mv_rows(E, cb):
    """The MV row of ``_scan_spectral`` on ``cb`` as the one-step check gives
    it: ``(passed, mode, witness, detail)`` under the current
    ``TRIPLE_BUDGET`` and ``SAMPLE_SIZE``."""
    cblocks = [compbase.c_block(cb, b) for b in compbase.blocks(cb)]
    work = sum(c.size ** 2 for c in cblocks) * ((E.size + 7) // 8)
    exact = work <= core.TRIPLE_BUDGET
    w = next(filter(None, (_mv_one_step(E, c, exact or c.size ** 2 <= core.SAMPLE_SIZE)
                           for c in cblocks)), None)
    detail = "" if exact else f"pairs x n/8 = {work} over the budget {core.TRIPLE_BUDGET}"
    return w is None, "full" if exact else "sampled", w, detail


def test_mv_row_is_gated_on_its_work(monkeypatch):
    """``_scan_spectral``'s MV row on every base of the broken tables, alone
    and with their unfactored products, that reaches it: exact within the
    budget, past it seeded draws on each C-block of more than
    ``SAMPLE_SIZE`` pairs and every pair of the smaller ones, each with the
    one-step check's witness, and a sampled row's detail names the work and
    the budget."""
    rng = np.random.default_rng(8)
    bases = []
    for i in range(4 * len(GRIDS)):
        broken = _broken_table(rng, *GRIDS[i % len(GRIDS)], MUTATIONS[i % len(MUTATIONS)])
        bases.append(broken)
        for partner in _partners():
            bases += [(E, _unfactored(cb)) for E, cb in _both_orders(broken, partner)]
    for budget, samples in ((core.TRIPLE_BUDGET, core.SAMPLE_SIZE), (40, 81)):
        monkeypatch.setattr(core, "TRIPLE_BUDGET", budget)
        monkeypatch.setattr(core, "SAMPLE_SIZE", samples)
        rows, drawn = set(), set()
        for E, cb in bases:
            try:
                row = comparability._scan_spectral(cb).checks[-1]
            except EffalgError:
                continue
            if row.name != "C-blocks-are-MV":
                continue
            assert (row.passed, row.mode, row.witness, row.detail) == _mv_rows(E, cb)
            rows.add((row.passed, row.mode))
            if row.mode == "sampled":
                drawn |= {compbase.c_block(cb, b).size ** 2 > samples
                          for b in compbase.blocks(cb)}
        if budget == 40:  # the rows of the larger carriers are sampled
            assert {(True, "sampled"), (False, "sampled")} <= rows
            assert drawn == {True, False}  # drawn blocks and blocks read whole
        else:
            assert rows == {(True, "full"), (False, "full")}


def test_lattice_c_blocks_that_are_not_mv():
    """MO2 and L8+L8 under their central bases: one C-block, the whole
    carrier, with every meet and join in it, that breaks only the MV
    identity.  The row's witness is the one-step check's, and it breaks the
    identity read entry by entry."""
    named = _criterion_01_instances()
    for name in ("MO2", "L8+L8"):
        T = core.TableAlgebra(named[name][0].sum_table, named[name][0].zero, named[name][0].one)
        cb = central_base(T)
        (block,) = compbase.blocks(cb)
        elems = compbase.c_block(cb, block)
        assert np.array_equal(elems, np.arange(T.size))
        w = comparability._mv_violation(T, elems)
        assert w == _mv_one_step(T, elems) and w[0] == "mv-identity", name
        assert PlainSpectral(T, cb).breaks("C-blocks-are-MV", w)
        assert comparability._mv_violation(T, elems, exact=False) == \
            _mv_one_step(T, elems, exact=False)


def test_spectral_product_builds_no_product_table():
    """The verdict on boolean(2) x mv(8,3) reads factor reports only."""
    E, cb = instances.make_product(instances.make_boolean(2), instances.make_mv_product(8, 3))
    assert cb.is_spectral()
    assert (E._sum_table, E._leq_table, E._ominus_table, cb._pc_matrix) == (None,) * 4
    rep = comparability.check_b_comparability(cb)
    assert not rep.sampled and {c.mode for c in rep.checks} == {"structural"}
    assert comparability.check_b_comparability(cb) is rep  # kept on the base


def _meet_bases(rng):
    """Bases whose P is every sharp element, with J_p(a) = a ^ p (0 where
    the meet is missing), some entries then moved at random: P holds
    incompatible projections, so PC(a) and P(e, f) vary from pair to pair."""
    for E, _ in (instances.make_mo2(), instances.make_mo2(), instances.make_boolean(2),
                 instances.make_mv_product(4, 1), _criterion_01_instances()["L8+L8"]):
        P = [int(p) for p in core.sharp_elements(E)]
        maps = {p: np.array([E.meet(a, p) or 0 for a in range(E.size)]) for p in P}
        for _ in range(int(rng.integers(0, 3))):
            p = P[rng.integers(len(P))]
            maps[p][rng.integers(E.size)] = rng.integers(E.size)
        yield E, CompressionBase(E, P, maps)


def test_comparability_gather_matches_plain_python():
    """The first commuting pair without a separating projection in P(e, f),
    against the definition read entry by entry (``PlainSpectral``)."""
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(4):
        for E, cb in _meet_bases(rng):
            plain = PlainSpectral(E, cb)
            want = next(((e, f) for e in range(E.size) for f in range(E.size)
                         if plain.breaks("comparability", (E.label(e), E.label(f)))), None)
            assert comparability._comparability_failure(cb) == want, E.kind
            found += want is not None
    assert found


# ---------------------------------------------------------------------------
# states through their factors

def _additive_states(E, rng):
    """Additive value lists on E: a grid's coordinate states and a seeded
    weighted state; on a product each factor state through its projection
    and a mix of the last of each; on a horizontal sum the state that gives
    an element x of a part the value x / (the part's unit), which is a
    state of both parts of MO2 and of L8+L8."""
    if isinstance(E, core.GridAlgebra):
        raw = [int(x) for x in rng.integers(1, 9, E.d)]
        weighted = instances.weighted_state(E, [Fraction(x, sum(raw)) for x in raw])
        return [s.values for s in instances.coordinate_states(E)] + [weighted.values]
    if E.factors is not None:
        left, right = (_additive_states(F, rng) for F in E.factors)
        ia, ib = (v.tolist() for v in E.split_index(np.arange(E.size)))
        mix = Fraction(int(rng.integers(1, 8)), 8)
        return ([[s[x] for x in ia] for s in left] + [[s[y] for y in ib] for s in right]
                + [[mix * left[-1][x] + (1 - mix) * right[-1][y] for x, y in zip(ia, ib)]])
    values = [Fraction(0), Fraction(1)] + [None] * (E.size - 2)
    for (side, x), g in E.part_index.items():
        values[g] = Fraction(x, E.part_units[side][1])
    return [values]


def _moved_states(E, states, rng, count=21):
    """``count`` copies of the states, each with one value moved by a seeded
    rational; on a product the moved element is in turn mixed ``(x, y)``,
    left-only ``(x, 0)`` and right-only ``(0, y)``."""
    out = []
    for i in range(count):
        values = list(states[i % len(states)])
        if E.factors is None:
            a = int(rng.integers(E.size))
        else:
            left, right = E.factors
            x = int(rng.choice([v for v in range(left.size) if v != left.zero]))
            y = int(rng.choice([v for v in range(right.size) if v != right.zero]))
            a = E.pair_index(*((x, y), (x, right.zero), (left.zero, y))[i % 3])
        values[a] += Fraction(int(rng.choice([-1, 1])), int(rng.integers(2, 10 ** 6)))
        out.append(values)
    return out


def _breaks_additivity(S, values, w):
    """Is ``w`` a defined pair (a, b) with values[a + b] != values[a] + values[b]?"""
    a, b = w
    s = S[a][b]
    return s >= 0 and values[s] != values[a] + values[b]


STATE_CASES = {**DENSE_GRIDS, **_dense_products(),
               **{name: (lambda name=name: _criterion_01_instances()[name])
                  for name in ("MO2", "L8+L8")}}


@pytest.mark.parametrize("name", list(STATE_CASES))
def test_states_match_the_scan(name):
    """The additive row of ``State.validate`` against ``_scan_additivity`` on
    additive states and on states with one value moved; a product's row is
    ``structural``, and each failing witness breaks additivity on the
    product's own table."""
    E, _ = STATE_CASES[name]()
    rng = np.random.default_rng(14)
    states = _additive_states(E, rng)
    S = None
    verdicts = []
    for values in states + _moved_states(E, states, rng):
        row = core.State(E, values).validate().checks[-1]
        want = core._scan_additivity(E, core._common_numerators(values))
        assert (row.name, row.passed, row.mode) == (
            "additive", want is None, "full" if E.factors is None else "structural")
        if not row.passed:
            S = E.sum_table.tolist() if S is None else S
            assert _breaks_additivity(S, values, row.witness), row.witness
        verdicts.append(row.passed)
    assert all(verdicts[:len(states)]) and not all(verdicts[len(states):])


def test_states_past_the_dense_limit_are_structural():
    """One value moved by 10^-6 on a carrier too large for tables fails an
    exact ``structural`` row; the coordinate state passes one."""
    for E, _ in (instances.make_mv_product(16, 4, validate=False),
                 instances.make_boolean(13, validate=False)):
        assert not E.dense
        state = instances.coordinate_states(E)[-1]
        values = list(state.values)
        a = E.size // 2 + 3
        values[a] += Fraction(1, 10 ** 6)
        row = core.State(E, values).validate().checks[-1]
        assert (row.name, row.passed, row.mode) == ("additive", False, "structural")
        x, y = row.witness
        s = E.sum(x, y)
        assert s is not None and values[s] != values[x] + values[y]
        rep = state.validate()
        assert rep.passed and {c.mode for c in rep.checks} == {"full", "structural"}


def _zero_without_unit():
    """0 and 1 with 0 + 0 = 0 the only sum: its zero is no unit of it."""
    return core.TableAlgebra([[0, -1], [-1, -1]], 0, 1)


def test_states_on_a_product_whose_zero_is_no_unit(monkeypatch):
    """A product with a factor whose zero is no unit is scanned over the
    pairs of its factors' defined pairs, in chunks, and its witness is the
    product table scan's (``_scan_additivity``): checked times mv(4,2) in
    both orders, on additive values and on values with one moved.  Past
    DENSE_LIMIT, times mv(16,3), it still gives an exact report."""
    monkeypatch.setattr(kernels, "CHUNK_BYTES", 1 << 10)  # many chunks
    rng = np.random.default_rng(21)
    mv = instances.make_mv_product(4, 2, validate=False)[0]
    weights = instances.weighted_state(mv, [Fraction(1, 3), Fraction(2, 3)]).values
    witnesses = set()
    for Z in (_zero_without_unit(), core.TableAlgebra(np.full((2, 2), -1), 0, 1)):
        for E in (core.ProductAlgebra(Z, mv), core.ProductAlgebra(mv, Z)):
            assert not core._zero_is_unit(E)
            ia, ib = E.split_index(np.arange(E.size))
            inner = ib if E.factors[1] is mv else ia
            base = [weights[y] for y in inner.tolist()]
            for moved in [None] + rng.integers(0, E.size, 12).tolist():
                values = list(base)
                if moved is not None:
                    values[moved] += Fraction(1, 7)
                row = core.State(E, values).validate().checks[-1]
                want = core._scan_additivity(E, core._common_numerators(values))
                assert (row.passed, row.mode, row.witness) == (want is None, "full", want)
                witnesses.add(want)
    assert None in witnesses and len(witnesses) > 2
    monkeypatch.undo()
    big = core.ProductAlgebra(_zero_without_unit(), instances.make_mv_product(16, 3, False)[0])
    assert not big.dense
    inner = big.split_index(np.arange(big.size))[1]
    state = instances.coordinate_states(big.factors[1])[0]
    values = [state(int(y)) for y in inner]
    values[big.one] = Fraction(1)
    rep = core.State(big, values).validate()
    assert rep.passed and rep.checks[-1].mode == "full"
    values[big.pair_index(0, 5)] += Fraction(1, 10 ** 6)
    row = core.State(big, values).validate().checks[-1]
    assert not row.passed
    a, b = row.witness
    assert values[big.sum(a, b)] != values[a] + values[b]
    assert big._sum_table is None


def test_product_state_builds_no_product_table():
    """The state of the resolve benchmark's product reads its factors only."""
    E, _ = instances.make_product(instances.make_boolean(2), instances.make_mv_product(8, 3))
    for values in _additive_states(E, np.random.default_rng(7)):
        assert core.State(E, values).validate().passed
    assert (E._sum_table, E._defined_pairs) == (None, None)


def _factor_route_cases():
    named = _criterion_01_instances()
    cases = {
        "MO2 x boolean(1)": (named["MO2"], named["boolean(1)"]),
        "boolean(1) x L8+L8": (named["boolean(1)"], named["L8+L8"]),
        "mv(4,2) x mv(4,2)": (named["mv(4,2)"], named["mv(4,2)"]),
    }
    rng = np.random.default_rng(8)
    partners = _partners()
    for i in range(20):
        broken = _broken_table(rng, *GRIDS[i % len(GRIDS)], MUTATIONS[i % len(MUTATIONS)])
        for j, partner in enumerate(partners):
            cases[f"broken table {i} x partner {j}"] = (broken, partner)
            cases[f"partner {j} x broken table {i}"] = (partner, broken)
    return cases


FACTOR_ROUTE_CASES = _factor_route_cases()
# grids: every pair of the dense ones, seeded pairs past DENSE_LIMIT
GRID_ROUTE_CASES = {"mv(4,2)": (4, 2), "mv(8,3)": (8, 3), "boolean(3)": (1, 3),
                    "boolean(13)": (1, 13), "mv(16,4)": (16, 4)}


def _tabled(E):
    """The carriers with factors, E and those below it, that keep a sum,
    order or difference table."""
    if E.factors is None:
        return []
    own = [E] if any(t is not None for t in (E._sum_table, E._leq_table, E._ominus_table)) else []
    return own + [G for F in E.factors for G in _tabled(F)]


def _grid_operations_are_coordinatewise(E):
    """A grid's pair operations, meets and scalar operations against
    truncated arithmetic on ``coords``, with no table built for any grid
    that has factors: on every pair of a dense grid and on 60 x 70 seeded
    pairs past DENSE_LIMIT, the scalars on 5000 of them past 10^4 pairs."""
    rng = np.random.default_rng(19)
    if E.dense:
        xs, ys = np.arange(E.size)[:, None], np.arange(E.size)[None, :]
    else:
        xs, ys = rng.integers(0, E.size, (60, 1)), rng.integers(0, E.size, (1, 70))
        xs[0], ys[0, 0] = E.zero, E.one  # defined sums and differences among them
    cx, cy = E.coords[xs].astype(np.int64), E.coords[ys].astype(np.int64)
    up, down = cx + cy, cx - cy

    def index(c, ok):
        return np.where(ok.all(axis=-1), np.clip(c, 0, E.k) @ E.strides, -1)

    want = {"sum": index(up, up <= E.k), "leq": (down <= 0).all(axis=-1),
            "ominus": index(down, down >= 0), "meet": np.minimum(cx, cy) @ E.strides}
    for op, table in want.items():
        assert np.array_equal(getattr(E, f"{op}_pairs")(xs, ys), table), op
    pairs = np.argwhere(np.ones(want["sum"].shape, dtype=bool))
    if pairs.shape[0] > 100 ** 2:
        pairs = pairs[rng.choice(pairs.shape[0], 5000, replace=False)]
    for op in ("sum", "leq", "ominus"):
        scalar = getattr(E, op)
        got = [scalar(int(xs[i, 0]), int(ys[0, j])) for i, j in pairs.tolist()]
        expected = want[op][pairs[:, 0], pairs[:, 1]].tolist()
        assert got == (expected if op == "leq" else [None if v < 0 else v for v in expected]), op
    assert _tabled(E) == []


@pytest.mark.parametrize("name", list(FACTOR_ROUTE_CASES) + list(GRID_ROUTE_CASES))
def test_product_operations_are_the_product_tables(name):
    """Pair and scalar sums, order and differences of a product equal the
    product of its factors' tables (``core._product_table``) on every pair,
    undefined entries included, and build none of the product's tables.
    A grid's equal arithmetic on its coordinates."""
    if name in GRID_ROUTE_CASES:
        k, d = GRID_ROUTE_CASES[name]
        return _grid_operations_are_coordinatewise(
            core.BooleanAlgebra(d) if k == 1 else core.GridAlgebra(k, d))
    E, _ = instances.make_product(*FACTOR_ROUTE_CASES[name], validate=False)
    left, right = E.factors
    xs, ys = np.arange(E.size)[:, None], np.arange(E.size)
    pairs = [(x, y) for x in range(E.size) for y in range(E.size)]
    for op in ("sum", "leq", "ominus"):
        want = core._product_table(getattr(left, f"{op}_table"), getattr(right, f"{op}_table"))
        assert np.array_equal(getattr(E, f"{op}_pairs")(xs, ys), want), op
        scalar = getattr(E, op)
        got = [scalar(x, y) for x, y in pairs]
        if op == "leq":
            assert got == want.ravel().tolist(), op
        else:
            assert got == [None if v < 0 else v for v in want.ravel().tolist()], op
    assert (E._sum_table, E._leq_table, E._ominus_table) == (None,) * 3


def _bases_with_factors(cb):
    """cb and every base with factors below it."""
    if cb.factors is None:
        return []
    return [cb] + [b for f in cb.factors for b in _bases_with_factors(f)]


RESOLVED = {  # an instance and a depth that out-resolves its denominators
    "mv(8,3)": (lambda: instances.make_mv_product(8, 3), 4),
    "mv(16,2)": (lambda: instances.make_mv_product(16, 2), 5),
    "boolean(12)": (lambda: instances.make_boolean(12), 4),
    "boolean(2) x mv(8,3)": (lambda: instances.make_product(instances.make_boolean(2),
                                                             instances.make_mv_product(8, 3)), 4),
}


def test_resolutions_on_a_product_build_no_product_table():
    """Binary and rational resolutions, expectation bounds and the verifier
    answer through the factors: no carrier with factors builds a table,
    and no product base its meet table in P."""
    for name, (make, n) in RESOLVED.items():
        E, cb = make()
        rng = np.random.default_rng(15)
        state = core.State(E, _additive_states(E, rng)[-1])  # a mix of the factors
        for a in (0, E.one, E.size // 2, *rng.integers(0, E.size, 6).tolist()):
            res = spectral.binary_resolution(cb, a, n)
            assert spectral.verify_resolution(cb, a, res.entries, n).passed, (name, a)
            try:
                spectral.rational_resolution(cb, a, Fraction(1, 3), n)
            except Unstable:  # a jumps inside the depth-n cell around 1/3
                pass
            lo, hi = spectral.expectation_bounds(cb, a, state, n)
            assert lo <= state(a) <= hi, (name, a)
        assert _tabled(E) == [], name
        assert [b for b in _bases_with_factors(cb) if b._p_meet is not None] == [], name


def test_boolean_12_reads_maps_through_the_factors():
    """On ``boolean(12)`` (|P| = n = 4096) a verified resolution and an
    interval restriction read the maps they need through the factor bases:
    neither comes near the 64 MiB of the product's ``|P| x n`` map stack,
    and no product base keeps a stack."""
    import tracemalloc

    E, cb = instances.make_boolean(12)
    calls = {
        "verify": lambda: spectral.verify_resolution(
            cb, 5, spectral.binary_resolution(cb, 5, 6).entries, 6).passed,
        "restrict": lambda: comparability.restrict(cb, 0b111)[1].projections == list(range(8)),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            assert call(), name
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, (name, peak)
    assert [b for b in _bases_with_factors(cb) if b._stack is not None] == []


def _outcome(fn):
    """What ``fn`` returns, or the class of the error it raised."""
    try:
        return fn()
    except EffalgError as exc:
        return type(exc)


def test_resolutions_with_a_broken_table_factor_fail_as_the_generic_loop():
    """A product whose table factor is broken: the factor route raises the
    error class that the generic loop raises on the product, and where the
    loop succeeds, gives its tree and jumps."""
    rng = np.random.default_rng(41)
    seen = set()
    for i in range(40):
        k, d = GRIDS[i % len(GRIDS)]
        broken = _broken_table(rng, k, d, MUTATIONS[i % len(MUTATIONS)])
        for E, cb in _both_orders(broken, instances.make_boolean(1, validate=False)):
            for a in range(E.size):
                generic = _outcome(lambda: spectral._splitting_tree(cb, a, 4))
                if isinstance(generic, type):
                    want = generic, generic
                else:
                    want = ((generic._u, generic._c),
                            _outcome(lambda: spectral._layer_jumps(E, generic._u, 4)))
                tree = _outcome(lambda: spectral.splitting_tree(cb, a, 4))
                got = (tree if isinstance(tree, type) else (tree._u, tree._c),
                       _outcome(lambda: list(spectral.binary_resolution(cb, a, 4).jumps)))
                assert got == want, (i, a)
                seen.add(generic if isinstance(generic, type) else "resolved")
    assert {"resolved", NotSpectral, IncompleteBase} <= seen, seen


def _small_factor(name, seed):
    """A small carrier and values on it that are additive when it is an
    effect algebra: a chain or a Boolean algebra with a weighted state,
    MO2 with its part state, a grid's table with one entry changed (the
    zero's row and column included) with the grid's weighted state, or two
    elements without a defined sum, whose zero is no unit."""
    if name == "void2":
        return core.TableAlgebra(np.full((2, 2), -1), 0, 1), [Fraction(1, 3), Fraction(2, 3)]
    if name == "MO2":
        E = instances.make_mo2(validate=False)[0]
        return E, _additive_states(E, np.random.default_rng(0))[0]
    if name == "table":
        G = core.GridAlgebra(*GRIDS[seed % len(GRIDS)])
    else:
        size = int(name[-1])
        G = core.GridAlgebra(size, 1) if name.startswith("chain") else core.BooleanAlgebra(size)
    values = [sum(Fraction(int(c) * (i + 1), G.k * G.d * (G.d + 1) // 2)
                  for i, c in enumerate(G.coords[a])) for a in range(G.size)]
    if name != "table":
        return G, values
    rng = np.random.default_rng(seed)
    S = G.sum_table.copy()
    a, b = (int(v) for v in rng.integers(G.size, size=2))
    S[a, b] = int(rng.integers(-1, G.size))
    return core.TableAlgebra(S, 0, G.size - 1), values


FACTORS = ["chain2", "chain3", "chain4", "boolean1", "boolean2", "boolean3", "MO2", "table",
           "void2"]


@given(st.sampled_from(FACTORS), st.sampled_from(FACTORS), st.integers(0, 2 ** 16),
       st.tuples(*[st.fractions(-2, 2, max_denominator=6)] * 2),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.fractions(-1, 1, max_denominator=12)),
                max_size=3))
@example("boolean2", "chain3", 0, (Fraction(1, 2), Fraction(1, 3)), [(5, Fraction(1, 7))])
def test_drawn_product_states_match_the_scan(left, right, seed, weights, moves):
    """Any value vector on a product of small factors, a broken table among
    them: the verdict is the scan's, reached through the factors where the
    zero is a unit of the product's sum and by the scan elsewhere, and a
    witness is a defined pair that breaks additivity on the product's own
    table.  The example moves the mixed element (1, 1) only: each
    restriction stays additive and the decomposition
    f(x, y) = f(x, 0) + f(0, y) breaks there."""
    (L, fl), (R, fr) = _small_factor(left, seed), _small_factor(right, seed + 1)
    E = core.ProductAlgebra(L, R)
    values = [weights[0] * fl[x] + weights[1] * fr[y] for x in range(L.size) for y in range(R.size)]
    for at, delta in moves:
        values[at % E.size] += delta
    row = core.State(E, values).validate().checks[-1]
    want = core._scan_additivity(E, core._common_numerators(values))
    S = E.sum_table.tolist()
    unit = all(S[x][E.zero] == S[E.zero][x] == x for x in range(E.size))
    assert (row.passed, row.mode) == (want is None, "structural" if unit else "full")
    if not row.passed:
        assert _breaks_additivity(S, values, row.witness), row.witness
    if left == "boolean2" and moves == [(5, Fraction(1, 7))]:
        assert row.witness == (E.embed(0, 1), E.embed(1, 1))


# ---------------------------------------------------------------------------
# the central base tests each sharp element once


def _meet_with_all(E, p):
    """Vector of meets a ^ p over the carrier; None when some meet fails."""
    out = E.meet_pairs(np.arange(E.size), p)
    return None if (out < 0).any() else out


def _plain_central(E):
    """The central projections and their maps, every test made afresh for
    p and for p', one element at a time; a p without p' is not central."""
    centre, maps = [], {}
    for p in map(int, core.sharp_elements(E)):
        q = E.ortho(p)
        if q < 0 or not (core.is_principal(E, p) and core.is_principal(E, q)):
            continue
        mp, mq = _meet_with_all(E, p), _meet_with_all(E, q)
        if mp is not None and mq is not None and \
                (E.sum_pairs(mp, mq) == np.arange(E.size)).all():
            centre.append(p)
            maps[p] = mp
    return centre, maps


def _met(E):
    """The elements the plain loop meets every element with: each sharp p
    and its p' where p' exists and both are principal."""
    return {x for p in map(int, core.sharp_elements(E)) for x in (p, E.ortho(p))
            if E.ortho(p) >= 0 and core.is_principal(E, p) and core.is_principal(E, E.ortho(p))}


def _counted_meets(E, monkeypatch):
    """``compbase._central_base(E)`` and the pairs of each ``meet_pairs``
    call it makes on ``E``, as a set of ``(element, element)``."""
    calls = []
    with monkeypatch.context() as m:
        meet = E.meet_pairs
        m.setattr(E, "meet_pairs", lambda xs, ys: calls.append(
            set(zip(*(v.ravel().tolist() for v in np.broadcast_arrays(xs, ys))))) or meet(xs, ys))
        return compbase._central_base(E), calls


@pytest.mark.parametrize("name, tests", [("chain", 2), ("mo2", 6), ("hsum", 2)])
def test_central_base_tests_each_element_once(name, tests, l8, mo2, hsum_l8, monkeypatch):
    """p and p' are both sharp, but the meets with each are formed once,
    in one ``meet_pairs`` call for the whole carrier: the chain and the
    horizontal sum meet every element with 0 and 1, and MO2 with its six
    elements.  ``core.is_principal`` is not called."""
    E, _ = {"chain": l8, "mo2": mo2, "hsum": hsum_l8}[name]
    with monkeypatch.context() as m:
        m.setattr(core, "is_principal", None)
        base, calls = _counted_meets(E, monkeypatch)
    centre, _ = _plain_central(E)
    assert len(calls) == 1 and len(_met(E)) == tests
    assert calls[0] == {(x, a) for x in _met(E) for a in range(E.size)}
    assert base.projections == centre == [E.zero, E.one]


def test_central_base_matches_the_plain_loop_on_broken_tables(monkeypatch):
    """On the 20 seeded broken tables the projections and maps equal the
    plain loop's, also where ' is not an involution, and each base makes
    one ``meet_pairs`` call, with one pair per element and each element
    the plain loop meets with, or none where that loop meets with none."""
    rng = np.random.default_rng(8)
    not_involutive = made = 0
    for i in range(4 * len(GRIDS)):
        T, _ = _broken_table(rng, *GRIDS[i % len(GRIDS)], MUTATIONS[i % len(MUTATIONS)])
        not_involutive += any(T.ortho(T.ortho(x)) != x for x in range(T.size))
        base, calls = _counted_meets(T, monkeypatch)
        made += len(calls)
        centre, maps = _plain_central(T)
        met = _met(T)
        assert len(calls) == (1 if met else 0), i
        assert calls[:1] == [{(x, a) for x in met for a in range(T.size)}][:len(calls)], i
        assert base.projections == centre, i
        for p in centre:
            assert np.array_equal(base.map_table(p), maps[p]), (i, p)
    assert not_involutive and made


# single-element questions on a product, through its factors


def _single_element_products():
    """Products of up to 625 elements: valid carriers, the chain {0, 1/2, 1}
    (1/2 is not principal), seeded broken grid tables with partners in
    both orders, and factors whose zero is no unit of their sum, some
    nested."""
    named = _criterion_01_instances()
    valid = [named[k][0] for k in ("boolean(1)", "boolean(2)", "MO2", "L8+L8")]
    chain = instances.make_mv_product(2, 1, validate=False)[0]
    zeros = [_zero_without_unit(), core.TableAlgebra(np.full((2, 2), -1), 0, 1)]
    rng = np.random.default_rng(34)
    broken = [_broken_table(rng, *GRIDS[i % len(GRIDS)], MUTATIONS[i % len(MUTATIONS)])[0]
              for i in range(12)]
    out = [core.ProductAlgebra(named["mv(4,2)"][0], named["mv(4,2)"][0]),
           core.ProductAlgebra(valid[2], valid[3]), core.ProductAlgebra(chain, valid[1])]
    for i, B in enumerate(broken):
        partner = [valid[0], chain, valid[2], zeros[0]][i % 4]
        out += [core.ProductAlgebra(B, partner), core.ProductAlgebra(partner, B)]
    for Z in zeros:
        out += [core.ProductAlgebra(chain, Z), core.ProductAlgebra(Z, chain),
                core.ProductAlgebra(core.ProductAlgebra(Z, broken[1]), valid[2]),
                core.ProductAlgebra(valid[1], core.ProductAlgebra(chain, Z))]
    return out


def _queried_pairs(E, rng):
    """Every pair of a carrier of up to 40 elements, else 400 seeded pairs."""
    if E.size <= 40:
        return list(itertools.product(range(E.size), repeat=2))
    return rng.integers(0, E.size, size=(400, 2)).tolist()


def test_single_element_queries_through_the_factors_are_the_leaf_path():
    """``mackey_compatible`` and ``is_principal`` on a product answer what
    the pair-operation path answers on the product's table copy, a carrier
    without factors; each witness ``(a1, b1, c)`` has ``c + a1 = a``, ``c +
    b1 = b`` and ``(a1 + b1) + c`` defined in the sum table as lists.
    Among the pairs, each factor alone refuses some that the other
    accepts, and on the products whose zero is no unit some element's
    principality is not its coordinates'."""
    rng = np.random.default_rng(34)
    refused = set()
    guarded = 0
    for E in _single_element_products():
        T = core.TableAlgebra(E._tabulate("sum"), E.zero, E.one)
        S = T.sum_table.tolist()
        principal = [core.is_principal(E, a) for a in range(E.size)]
        assert principal == [core.is_principal(T, a) for a in range(E.size)], E.label(0)
        if not core._zero_is_unit(E):
            (left, right), (ia, ib) = E.factors, E.split_index(np.arange(E.size))
            guarded += sum(p != (core.is_principal(left, x) and core.is_principal(right, y))
                           for p, x, y in zip(principal, ia.tolist(), ib.tolist()))
        for a, b in _queried_pairs(E, rng):
            got = core.mackey_compatible(E, a, b)
            assert got == core.mackey_compatible(T, a, b), (a, b)
            if got[0]:
                a1, b1, c = got[1]
                assert S[c][a1] == a and S[c][b1] == b and S[a1][b1] >= 0 \
                    and S[S[a1][b1]][c] >= 0, (a, b, got)
            (a1, a2), (b1, b2) = E.split_index(a), E.split_index(b)
            refused.add((core.mackey_compatible(E.factors[0], a1, b1)[0],
                         core.mackey_compatible(E.factors[1], a2, b2)[0]))
    assert refused == {(True, True), (True, False), (False, True), (False, False)}
    assert guarded > 0


def test_single_element_queries_on_a_product_build_no_table():
    """On ``boolean(6) x boolean(6)`` (4096 elements) each query reads its
    factors: no carrier with factors gains a table, and the traced peak
    of each stays under 1 MiB."""
    import tracemalloc

    B6 = instances.make_boolean(6, validate=False)
    E, _ = instances.make_product(B6, B6, validate=False)
    for query, want in ((lambda: core.mackey_compatible(E, 5, 9), (True, (4, 8, 1))),
                        (lambda: core.is_principal(E, E.one), True)):
        tracemalloc.start()
        try:
            assert query() == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20 and _tabled(E) == []
