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

