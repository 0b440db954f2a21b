"""``compbase.check_oml`` against the projection-by-projection scan it
replaced, kept here as the reference: scalar meets in P and in E, one pair
or subset at a time."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from effalg import core, instances
from effalg.compbase import CompressionBase, check_oml
from effalg.core import Report
from effalg.errors import EffalgError, IncompleteBase, NoCover, NotEnumerable
from test_compbase import _table_copy
from test_structural import GRIDS, MUTATIONS, _broken_table


def _check_oml_reference(cb):
    """``(report, read)``: the scan of ``check_oml`` pair by pair and subset
    by subset, with ``read`` the members of P whose orthosupplement -1 it
    read as an element.  Its joins are ``(p' ^ q')'`` from ``meet_proj``,
    and a subset's E-meet folds scalar ``meet`` calls left to right."""
    if not cb.enumerable:
        raise NotEnumerable("the projection lattice of a lazy carrier is not listable")
    if not cb.has_pcp():
        missing = int(np.argmax(cb.cover_vec() < 0))
        raise NoCover(cb.algebra.label(missing))
    E = cb.algebra
    read = set()

    def ortho(p):
        v = E.ortho(p)
        if v < 0 and p in cb.p_set:
            read.add(p)
        return v

    def join_proj(p, q):
        v = cb.meet_proj(ortho(p), ortho(q))
        return None if v is None else ortho(v)

    def meet_many(elems):
        out = elems[0]
        for x in elems[1:]:
            out = E.meet(out, x)
            if out is None:
                return None
        return out

    rep = Report(f"OML structure of P (|P|={len(cb.projections)})")
    meets = cb.p_meet_table()
    rep.add("pairwise-meets-exist", bool((meets >= 0).all()))
    joins_ok = all(join_proj(p, q) is not None for p in cb.projections for q in cb.projections)
    rep.add("pairwise-joins-exist", joins_ok)

    om_ok, om_w = True, None
    Pleq = cb.proj_leq()
    for i, p in enumerate(cb.projections):
        for j, q in enumerate(cb.projections):
            if not Pleq[i, j]:
                continue
            inner = cb.meet_proj(q, ortho(p))
            rhs = None if inner is None else join_proj(p, inner)
            if rhs != q:
                om_ok, om_w = False, (p, q)
                break
        if not om_ok:
            break
    rep.add("orthomodular-law", om_ok, witness=om_w)

    cl_ok, cl_w = True, None
    for size in (2, 3):
        for subset in itertools.combinations(cb.projections, size):
            mv = meet_many(subset)
            if mv is not None and mv not in cb.p_set:
                cl_ok, cl_w = False, ("meet", subset, mv)
                break
            jv = meet_many([ortho(p) for p in subset])
            if jv is not None and E.ortho(jv) not in cb.p_set:
                cl_ok, cl_w = False, ("join", subset, E.ortho(jv))
                break
        if not cl_ok:
            break
    rep.add("sup-inf-closed-(subsets ≤ 3)", cl_ok, witness=cl_w)
    return rep, read


def _rows(rep):
    """A report's rows, with each witness's types spelt out."""
    return [(c.name, c.passed, c.mode, repr(c.witness), c.detail) for c in rep.checks]


def _identity_base(E, projections=None):
    """Every element (or each of ``projections``) a projection, every map the
    identity: over the whole carrier, P is closed under ' exactly where the
    carrier's orthosupplements exist."""
    ps = range(E.size) if projections is None else projections
    return CompressionBase(E, ps, {p: np.arange(E.size) for p in ps})


def _changed_grid(sums):
    """The 9-element grid {0, 1, 2}^2 as a table, with the sums ``{(a, b): s}``
    set."""
    S = core.GridAlgebra(2, 2).sum_table.copy()
    for (a, b), s in sums.items():
        S[a, b] = s
    return core.TableAlgebra(S, 0, 8)


def _cases():
    """(name, base): criterion 01's named instances, table copies of
    Boolean algebras, two products, and seeded broken tables with their
    central bases and with identity bases."""
    l8 = instances.make_mv_product(8, 1, validate=False)
    ident = [Fraction(i, 8) for i in range(9)]
    named = {
        **{f"boolean({k})": instances.make_boolean(k, validate=False) for k in (1, 2, 3, 4)},
        "mv(4,2)": instances.make_mv_product(4, 2, validate=False),
        "mv(8,3)": instances.make_mv_product(8, 3, validate=False),
        "MO2": instances.make_mo2(validate=False),
        "L8+L8": instances.make_horizontal_sum(l8, l8, ident, ident, validate=False),
        "boolean(2) x mv(4,2)": instances.make_product(
            instances.make_boolean(2, validate=False),
            instances.make_mv_product(4, 2, validate=False), validate=False),
        "MO2 x boolean(2)": instances.make_product(
            instances.make_mo2(validate=False), instances.make_boolean(2, validate=False),
            validate=False),
    }
    out = [(name, cb) for name, (_, cb) in named.items()]
    out += [(f"boolean({k}) table copy", _table_copy(*instances.make_boolean(k, validate=False))[1])
            for k in (3, 4, 5)]
    # 4 + 4 = 1: the centre 4 has no orthosupplement, and it is the E-meet
    # of the orthosupplements 7 and 5 of the members 1 and 3
    out.append(("centre without orthosupplement",
                _identity_base(_changed_grid({(4, 4): 1}), [0, 1, 2, 3, 5, 6, 7, 8])))
    # In a lattice, covers force P's E-meets and E-joins into P, so the
    # rows are also held to the reference on P's that lack covers: there
    # 3 ^ 5 = 1 and 3 v 5 = 7 both leave P, and the meet is reported.
    B = _table_copy(*instances.make_boolean(4, validate=False))[0]
    out.append(("boolean(4) table, P without covers",
                _without_cover_check(_identity_base(B, [0, 3, 5, 10, 12, 15]))))
    rng = np.random.default_rng(30)
    for i in range(300):
        T, cb = _broken_table(rng, *GRIDS[i % len(GRIDS)], MUTATIONS[i % len(MUTATIONS)])
        out += [(f"broken {i}", cb), (f"broken {i} identity", _identity_base(T))]
        if i % 3 == 0:  # P closed under ' where defined, from a seeded draw
            keep = set(np.flatnonzero(rng.random(T.size) < 0.5).tolist()) | {T.zero, T.one}
            keep |= {T.ortho(x) for x in keep if T.ortho(x) >= 0}
            out.append((f"broken {i} drawn P", _without_cover_check(_identity_base(T, sorted(keep)))))
    return out


def _without_cover_check(cb):
    """cb, whose ``has_pcp`` reports covers whether or not P has them, for
    ``check_oml`` and the reference alike."""
    cb.has_pcp = lambda: True
    return cb


def _outcome(run):
    try:
        return run()
    except (EffalgError, KeyError) as exc:
        return exc


def test_check_oml_matches_the_reference_scan():
    """Equal reports or equal ``EffalgError``s on every case, except that
    ``check_oml`` raises ``IncompleteBase`` where the reference raises
    ``KeyError`` or reads an orthosupplement -1 of a member of P; both
    kinds of report, both exceptions and the -1 join witness occur."""
    seen = set()
    for name, cb in _cases():
        want = _outcome(lambda: _check_oml_reference(cb))
        got = _outcome(lambda: check_oml(cb))
        if isinstance(want, KeyError) or (isinstance(want, tuple) and want[1]):
            assert isinstance(got, IncompleteBase), (name, want, got)
            seen.add("incomplete")
        elif isinstance(want, EffalgError):
            assert (type(got), str(got)) == (type(want), str(want)), name
            seen.add(type(want).__name__)
        else:
            assert isinstance(got, Report), (name, got)
            assert _rows(got) == _rows(want[0]), name
            seen.add(got.passed)
            seen.update(("minus-one-join",) for c in got.checks
                        if isinstance(c.witness, tuple) and c.witness[0] == "join"
                        and c.witness[2] == -1)
    assert {True, False, "incomplete", "IncompleteBase", ("minus-one-join",)} <= seen, seen


def test_check_oml_makes_no_scalar_meet(monkeypatch):
    """``check_oml`` reads P's meet table and stacked ``meet_pairs`` calls:
    no scalar ``meet`` in E and no ``meet_proj`` in P, where the reference
    makes them."""
    calls = []
    for cls, name in ((core.FiniteAlgebra, "meet"), (CompressionBase, "meet_proj")):
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    cases = [case for case in _cases() if not case[0].startswith("broken")]
    for _, cb in cases:
        _outcome(lambda: check_oml(cb))
    assert calls == []
    for _, cb in cases:
        _outcome(lambda: _check_oml_reference(cb))
    assert set(calls) == {"meet", "meet_proj"}


def _patched_meets(E, meets):
    """E, whose ``meet_pairs`` answers each pair ``(a, b)`` of ``meets``
    (``{(a, b): v}``), in either order, with v and every other pair as
    before; scalar ``meet`` is ``meet_pairs`` of one pair, so ``check_oml``
    and the reference both read the change."""
    real, table = E.meet_pairs, np.full((E.size, E.size), -2)
    for (a, b), v in meets.items():
        table[a, b] = table[b, a] = v

    def meet_pairs(xs, ys):
        xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=np.int64), ys)
        v = table[xs, ys]
        return np.where(v == -2, real(xs, ys), v)

    E.meet_pairs = meet_pairs
    return E


def _patched_cases():
    """(name, base) whose closure row reaches subsets of three, with
    patched E-meets and ``has_pcp`` overridden:

    - table copies of boolean(4) whose P is the Boolean subalgebra of a
      seeded partition of the atoms, with three seeded meets of pairs of P
      moved inside P and two seeded meets ``p ^ p`` moved anywhere, so the
      pairs pass and a fold can read a diagonal entry;
    - seeded broken tables whose orthosupplement is not an involution: an
      element z outside P has its orthosupplement in P, and with every
      meet in P set to 0, the orthosupplements of the first two members
      meet at z, and z meets that of the third at some w whose
      orthosupplement is outside P.  The first fold value of that subset's
      join side leaves P, and only a fresh row of meets of z reaches w."""
    rng = np.random.default_rng(31)
    out = []
    for i in range(120):
        T = _table_copy(*instances.make_boolean(4, validate=False))[0]
        blocks = rng.integers(3, size=4)
        masks = [sum(1 << a for a in range(4) if blocks[a] == b) for b in range(3)]
        ps = sorted({sum(itertools.compress(masks, keep)) for keep in np.ndindex(2, 2, 2)})
        meets = {tuple(rng.choice(ps, size=2, replace=False).tolist()): int(rng.choice(ps))
                 for _ in range(3)}
        meets.update({(x, x): int(rng.integers(T.size)) for x in rng.choice(ps, size=2).tolist()})
        out.append((f"boolean(4) patched {i}",
                    _without_cover_check(_identity_base(_patched_meets(T, meets), ps))))
    for i in range(300):
        T = _broken_table(rng, *GRIDS[i % len(GRIDS)], MUTATIONS[i % len(MUTATIONS)])[0]
        o = T.ortho_all()
        for z in np.flatnonzero((o >= 0) & (o[o] != np.arange(T.size))).tolist():
            ps = {T.zero, T.one, int(o[z])}  # closed under ' unless -1 joins it
            while -1 not in ps and not set(o[list(ps)].tolist()) <= ps:
                ps |= set(o[list(ps)].tolist())
            ps = sorted(ps)
            w = np.flatnonzero(~np.isin(o, ps))
            if -1 in ps or z in ps or len(ps) < 3 or not w.size:
                continue
            a, b, c = (int(o[p]) for p in ps[:3])
            meets = {pair: T.zero for pair in itertools.product(ps + [z], ps)}
            meets.update({(a, b): z, (z, c): int(w[0])})
            out.append((f"broken {i} fresh meet",
                        _without_cover_check(_identity_base(_patched_meets(T, meets), ps))))
            break
    return out


def test_three_subset_witnesses_match_the_reference():
    """With patched E-meets, the closure row's subsets of three give the
    reference's witnesses: meets and joins, through diagonal entries of the
    table and through fold values outside P."""
    seen = set()
    for name, cb in _patched_cases():
        want, read = _check_oml_reference(cb)
        got = check_oml(cb)
        assert not read and _rows(got) == _rows(want), name
        w = got.checks[-1].witness
        seen.add(None if w is None else (w[0], len(w[1]), name.endswith("fresh meet")))
    assert {None, ("meet", 3, False), ("join", 3, False), ("join", 3, True)} <= seen, seen


def test_closure_meets_are_pairs_of_p_and_fresh_rows():
    """``check_oml`` hands ``meet_pairs`` each pair of members of P once,
    the diagonal included, and one row of |P| pairs per fold value outside
    P: exactly |P|(|P| + 1)/2 pairs on the boolean(5) table copy."""
    cases = [("boolean(5) table copy",
              _table_copy(*instances.make_boolean(5, validate=False))[1])]
    cases += [case for case in _patched_cases() if case[0].endswith("fresh meet")]
    for name, cb in cases:
        E, ps = cb.algebra, cb.projections
        outside = {v for p, q in itertools.combinations(ps, 2)
                   for v in (E.meet(p, q), E.meet(E.ortho(p), E.ortho(q)))
                   if v is not None and v not in cb.p_set}
        real, handed = E.meet_pairs, []
        E.meet_pairs = lambda xs, ys: handed.append(np.broadcast(xs, ys).size) or real(xs, ys)
        check_oml(cb)
        m = len(ps)
        assert sum(handed) == m * (m + 1) // 2 + m * len(outside), name
        assert name.startswith("boolean") or outside, name


def test_p_meet_table_searches_each_pair_of_p_once(monkeypatch):
    """``p_meet_table`` of a base without factors hands ``core.meet_search``
    each pair of positions in P once, the diagonal included: exactly
    |P|(|P| + 1)/2 pairs on the boolean(5) table copy, in one band of rows
    and in bands of three, with the same table."""
    from effalg import kernels

    real, handed = core.meet_search, []

    def counted(below, bits, xs, ys):
        handed.extend(zip(*np.broadcast_arrays(xs, ys)))
        return real(below, bits, xs, ys)

    monkeypatch.setattr(core, "meet_search", counted)
    E, cb = instances.make_boolean(5, validate=False)
    m = len(cb.projections)
    tables = []
    for rows in (m, 3):
        monkeypatch.setattr(kernels, "CHUNK_BYTES", 64 * m * rows)
        tables.append(_table_copy(E, cb)[1].p_meet_table())
        assert sorted(map(tuple, np.sort(handed, axis=1).tolist())) == \
            [(i, j) for i in range(m) for j in range(i, m)], rows
        handed.clear()
    assert np.array_equal(*tables) and tables[0].dtype == np.int32


def test_incomplete_base_names_the_member_without_orthosupplement():
    """A member of P whose orthosupplement is undefined is named, not the
    carrier's last element; one whose orthosupplement lies outside P still
    names the missing map."""
    T = _changed_grid({(1, 7): -1, (7, 1): -1})
    assert T.ortho(1) == -1 and T.ortho(7) == -1
    cb = _identity_base(T)
    message = "the member 1 of the compression base on table has no orthosupplement"
    for run in (cb.ortho_rows, lambda: check_oml(cb), cb.pc_matrix):
        with pytest.raises(IncompleteBase) as err:
            run()
        assert str(err.value) == message
    partial = CompressionBase(T, [0, 3], {p: np.arange(T.size) for p in (0, 3)})
    with pytest.raises(IncompleteBase) as err:
        partial.ortho_rows()
    assert str(err.value) == f"the compression base on table has no map at {T.ortho(0)}"

