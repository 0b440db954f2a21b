import functools
import json

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import HealthCheck, example, given, settings, strategies as st

from effalg import compbase, comparability, core, groups, instances, spectral
from effalg.compbase import CompressionBase, validate_base
from effalg.core import State
from effalg.errors import (EffalgError, ElementNotInCarrier, InvalidDepth, MalformedInput,
                           NotFaithful, ScaleMismatch, SizeLimit, Unstable)
from test_spectral import _table_copy


def test_boolean_sizes():
    E, cb = instances.make_boolean(1)
    assert E.size == 2 and cb.projections == [0, 1]
    E3, cb3 = instances.make_boolean(3)
    assert E3.size == 8 and len(cb3.projections) == 8
    assert cb3.is_spectral()
    with pytest.raises(SizeLimit):
        instances.make_boolean(17)


def test_mv_product_family(mv83):
    E, cb = mv83
    assert E.size == 729 and len(cb.projections) == 8
    assert cb.is_spectral()
    for k, d in ((0, 2), (17, 1), (4, 5), (4, 0)):
        with pytest.raises(ValueError):
            instances.make_mv_product(k, d)


def test_bad_instance_arguments_are_malformed_input():
    """A grid's denominator outside 1..16 or arity outside 1..4, and a
    document of an unknown kind, raise ``MalformedInput``."""
    for k, d, message in ((17, 1, "denominator"), (4, 5, "arity")):
        with pytest.raises(MalformedInput, match=message):
            instances.make_mv_product(k, d)
    with pytest.raises(MalformedInput, match="unknown instance kind 'nope'"):
        instances.parse_document({"kind": "nope"})


@pytest.mark.parametrize("k, d", [(3, 2), (5, 1), (6, 2), (7, 2), (10, 3), (12, 1), (15, 2)])
def test_mv_product_takes_every_denominator_up_to_16(k, d):
    """A grid of any denominator 1..16 is a spectral instance: on every
    element of the small ones and 24 seeded elements of the others, at
    depths 0 to 6, its tree is the closed form's, its resolution the group
    oracle's at every grid point and verified, and ``rational_resolution``
    at 1/3, 2/5 and 1/5 is the group oracle's wherever it is stable."""
    E, cb = instances.make_mv_product(k, d)
    G = instances.universal_group(E)
    rng = np.random.default_rng(10 * k + d)
    elements = range(E.size) if E.size <= 64 else rng.permutation(E.size)[:24].tolist()
    stable = 0
    for a in elements:
        g = instances.embed_element(E, a)
        for n in range(7):
            assert instances.trees_equal(spectral.splitting_tree(cb, a, n),
                                         instances.closed_form_mv_resolution(E, a, n)), (a, n)
            res = spectral.binary_resolution(cb, a, n)
            for m in range(2 ** n + 1):
                assert res.at(Fraction(m, 2 ** n)) == instances.projection_from_group(
                    E, groups.group_spectral(G, g, m, 2 ** n)), (a, n, m)
            assert spectral.verify_resolution(cb, a, res, n).passed, (a, n)
            for lam in (Fraction(1, 3), Fraction(2, 5), Fraction(1, 5)):
                try:
                    p = spectral.rational_resolution(cb, a, lam, n)
                except (Unstable, InvalidDepth):
                    continue
                assert p == instances.projection_from_group(
                    E, groups.group_spectral(G, g, lam.numerator, lam.denominator)), (a, n, lam)
                stable += 1
    assert stable > 50, stable


def test_cli_takes_denominator_3_and_refuses_17(tmp_path, capsys):
    """``validate`` and ``check-spectral`` exit 0 on a grid of denominator
    3; a denominator of 17 exits 2 with one ``error:`` line."""
    from effalg import cli

    def doc(k):
        path = tmp_path / f"mv{k}.json"
        path.write_text(json.dumps({"kind": "mv_product", "denominator": k, "arity": 2}))
        return str(path)

    assert cli.main(["validate", doc(3)]) == 0
    assert cli.main(["check-spectral", doc(3)]) == 0
    capsys.readouterr()
    assert cli.main(["validate", doc(17)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: bad instance document: denominator must be 1..16"]


def test_total_base_on_grid(mv42):
    """Compression foci exhaust the sharp elements: the base is total."""
    E, cb = mv42
    assert sorted(cb.projections) == sorted(int(s) for s in core.sharp_elements(E))
    for p in cb.projections:
        cls = compbase.classify_map(E, cb.map_table(p))
        assert cls.is_compression and cls.focus == p


def test_product_spectrality(mv42, mo2):
    L4 = instances.make_mv_product(4, 1)
    B1 = instances.make_boolean(1)
    E, cb = instances.make_product(L4, B1)
    assert E.size == 10 and cb.is_spectral()
    Em, cbm = instances.make_product(mo2, L4)
    assert not cbm.is_spectral()  # one bad factor poisons the product


def test_product_matches_boolean_square():
    B1a = instances.make_boolean(1)
    B1b = instances.make_boolean(1)
    E, cb = instances.make_product(B1a, B1b)
    B2, cb2 = instances.make_boolean(2)
    assert E.size == B2.size == 4
    assert len(cb.projections) == len(cb2.projections) == 4


def test_horizontal_sum_guards(l8, mv42):
    ident8 = [Fraction(i, 8) for i in range(9)]
    bad = list(ident8)
    bad[4] = Fraction(0)
    with pytest.raises(NotFaithful):
        instances.make_horizontal_sum(l8, l8, ident8, bad)
    bad[4] = Fraction(-1, 4)  # negative, and no zero to point at
    with pytest.raises(NotFaithful, match="negative at nonzero element 4/8"):
        instances.make_horizontal_sum(l8, l8, ident8, bad)
    # boolean squares: no faithful zero-one morphism exists
    B2 = instances.make_boolean(2)
    with pytest.raises(NotFaithful):
        instances.make_horizontal_sum(
            B2, B2, [Fraction(0), Fraction(0), Fraction(1), Fraction(1)],
            [Fraction(0), Fraction(1), Fraction(0), Fraction(1)])
    # scale mismatch: 1/8 of a projection leaves the 1/4 grid
    L8 = l8
    s1 = instances.weighted_state(mv42[0], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ScaleMismatch):
        instances.make_horizontal_sum(mv42, L8, s1, ident8)


def test_horizontal_sum_of_chains(hsum_l8):
    E, cb = hsum_l8
    assert E.size == 16  # 2 + 7 + 7
    assert cb.projections == [0, 1]
    assert not cb.is_spectral()
    e, f = instances.torsion_witness(E)
    assert e != f and E.sum(e, e) == E.one and E.sum(f, f) == E.one


def test_cross_part_elements_never_compatible(hsum_l8):
    E, _ = hsum_l8
    left = [g for (side, _), g in E.part_index.items() if side == "L"]
    right = [g for (side, _), g in E.part_index.items() if side == "R"]
    for a in left:
        for b in right:
            assert not core.mackey_compatible(E, a, b)[0]
        assert core.mackey_compatible(E, a, E.zero)[0]
        assert core.mackey_compatible(E, a, E.one)[0]


def test_horizontal_sum_with_cross_compressions(mv42):
    """A grid part pasted with a chain: all cross scalars stay on the grid."""
    L4 = instances.make_mv_product(4, 1)
    s1 = instances.weighted_state(mv42[0], [Fraction(1, 2), Fraction(1, 2)])
    s2 = State(L4[0], [Fraction(i, 4) for i in range(5)])
    E, cb = instances.make_horizontal_sum(mv42, L4, s1, s2)
    assert len(cb.projections) == 4  # 0, 1 and the two left coordinate masks
    assert validate_base(E, cb).passed
    assert not cb.is_spectral()  # cross pairs commute but stay incomparable
    assert len(compbase.blocks(cb)) == 1


def test_two_bases_same_projections(mv42):
    """Distinct faithful states give distinct valid bases over one P."""
    E1, cb1 = mv42
    E2, _ = instances.make_boolean(2)
    E, glob = instances._hsum_carrier(E1, E2)

    def base_with(w1, w2):
        phi = State(E2, [Fraction(0), w1, w2, Fraction(1)])
        phi.require_faithful()
        projs = {0, 1}
        maps = {0: np.zeros(E.size, dtype=np.int64), 1: np.arange(E.size)}
        for p in (E1.index_of([4, 0]), E1.index_of([0, 4])):
            g = int(glob["L"][p])
            tbl = np.zeros(E.size, dtype=np.int64)
            own = cb1.map_table(p)
            for x in range(E1.size):
                tbl[glob["L"][x]] = glob["L"][own[x]]
            for y in range(E2.size):
                if y in (E2.zero, E2.one):
                    continue
                tbl[glob["R"][y]] = glob["L"][E1.scale(phi(y), p)]
            tbl[1] = g
            projs.add(g)
            maps[g] = tbl
        return CompressionBase(E, sorted(projs), maps)

    base_a = base_with(Fraction(1, 4), Fraction(3, 4))
    base_b = base_with(Fraction(2, 4), Fraction(2, 4))
    assert validate_base(E, base_a).passed
    assert validate_base(E, base_b).passed
    assert base_a.projections == base_b.projections
    nontrivial = [p for p in base_a.projections if p not in (E.zero, E.one)]
    assert any((base_a.map_table(p) != base_b.map_table(p)).any() for p in nontrivial)


def test_mo2_fixture(mo2):
    E, cb = mo2
    assert E.size == 6
    assert len(core.sharp_elements(E)) == 6
    assert cb.projections == [E.zero, E.one]
    assert not cb.is_spectral()


def test_closed_form_oracle(mv83):
    E, _ = mv83
    a = E.index_of([2, 4, 7])
    t1 = instances.closed_form_mv_resolution(E, a, 1)
    assert t1.u((0,)) == E.index_of([8, 8, 0])  # coordinates in (0, 1/2]
    assert t1.u((1,)) == E.index_of([0, 0, 8])
    t2 = instances.closed_form_mv_resolution(E, a, 2)
    assert t2.u((0, 0)) == E.index_of([8, 0, 0])
    assert t2.u((0, 1)) == E.index_of([0, 8, 0])
    assert t2.u((1, 0)) == E.zero
    assert t2.u((1, 1)) == E.index_of([0, 0, 8])
    t0 = instances.closed_form_mv_resolution(E, E.zero, 3)
    assert not t0._u


def test_round_trips():
    ident = [str(Fraction(i, 8)) for i in range(9)]
    docs = [
        {"kind": "boolean", "n_atoms": 2},
        {"kind": "mv_product", "denominator": 4, "arity": 2},
        {"kind": "mo2"},
        {"kind": "product", "factors": [
            {"kind": "boolean", "n_atoms": 1},
            {"kind": "mv_product", "denominator": 4, "arity": 1}]},
        {"kind": "horizontal_sum",
         "parts": [{"kind": "mv_product", "denominator": 8, "arity": 1}] * 2,
         "states": [ident, ident]},
    ]
    for doc in docs:
        E, cb = instances.parse_document(json.loads(json.dumps(doc)))
        E2, cb2 = instances.parse_document(E.document)
        assert E2.size == E.size
        assert cb2.projections == cb.projections
        for a in range(min(E.size, 12)):
            assert E2.label(a) == E.label(a)  # index preserving


def test_matrix_round_trip():
    E, cb = instances.parse_document({"kind": "matrix", "dim": 3})
    assert E.dim == 3
    E2, _ = instances.parse_document(E.document)
    assert E2.dim == 3


def test_separating_states(mv42):
    E, _ = mv42
    states = instances.separating_states(E)
    assert len(states) == 2
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = (int(x) for x in rng.integers(0, E.size, 2))
        if a != b:
            assert any(s(a) != s(b) for s in states)


def test_parse_element_forms(mv83, matrix2):
    E, _ = mv83
    assert instances.parse_element(E, "2,4,7") == E.index_of([2, 4, 7])
    assert instances.parse_element(E, "2/8,4/8,7/8") == E.index_of([2, 4, 7])
    assert instances.parse_element(E, "5") == 5
    M, _ = matrix2
    a = instances.parse_element(M, "1/2,1/4,1/4,1/2")
    assert np.allclose(a, [[0.5, 0.25], [0.25, 0.5]])


def test_horizontal_sum_part_addresses(hsum_l8):
    """A part's zero and one are the pasting's zero and one; its interior
    elements land on their own labels; anything else is refused."""
    E, _ = hsum_l8
    for part in (0, 1):
        assert instances.parse_element(E, {"part": part, "element": 0}) == E.zero
        assert instances.parse_element(E, {"part": part, "element": 8}) == E.one
        side = "LR"[part]
        for x in range(1, 8):
            a = instances.parse_element(E, {"part": part, "element": x})
            assert E.label(a) == f"{side}:{x}/8"
        for x in (-1, 9, 15):
            with pytest.raises(ElementNotInCarrier):
                instances.parse_element(E, {"part": part, "element": x})
    with pytest.raises(ElementNotInCarrier):
        instances.parse_element(E, {"part": 2, "element": 1})


def test_document_nesting_is_bounded():
    leaf = {"kind": "boolean", "n_atoms": 1}
    doc = leaf
    for _ in range(instances.MAX_NESTING + 1):
        doc = {"kind": "product", "factors": [doc, leaf]}
    with pytest.raises(MalformedInput, match="nest at most"):
        instances.parse_document(doc)
    # the bound counts levels: MAX_NESTING of them parse as far as the size cap
    with pytest.raises(SizeLimit):
        instances.parse_document(doc["factors"][0])


def test_weighted_state_guards(mv42):
    E, _ = mv42
    with pytest.raises(ValueError):
        instances.weighted_state(E, [Fraction(1, 2)])
    with pytest.raises(ValueError):
        instances.weighted_state(E, [Fraction(3, 4), Fraction(3, 4)])


# ---------------------------------------------------------------------------
# untrusted input: documents, element addresses and state values raise only
# EffalgError subclasses, never KeyError, TypeError, IndexError and the like

_junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 6), st.just(10 ** 30),
                  st.floats(allow_nan=True), st.sampled_from(["", "x", "1/0", "2/4", "1e3", "-1"]),
                  st.just([]), st.just({}))
_number = st.one_of(st.integers(-1, 6), st.sampled_from(["2", "x", "1/2"]), st.floats(0, 4))
_rational = st.one_of(st.sampled_from(["0", "1", "1/2", "1/4", "3/4", "1/0", "x", "2", "-1/4"]),
                      st.integers(-1, 2), st.floats(0, 1), st.none())
_leaf = st.one_of(
    st.fixed_dictionaries({"kind": st.just("boolean"), "n_atoms": st.integers(1, 4)}),
    st.fixed_dictionaries({"kind": st.just("mv_product"), "denominator": st.sampled_from([2, 4]),
                           "arity": st.integers(1, 2)}),
    st.just({"kind": "mo2"}),
    st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries({
        "kind": st.just("table"), "n": st.just(n), "zero": st.integers(0, n - 1),
        "one": st.integers(0, n - 1),
        "sums": st.lists(st.lists(st.integers(0, n - 1), min_size=3, max_size=3), max_size=8)})),
    st.fixed_dictionaries({
        "kind": st.just("horizontal_sum"),
        "parts": st.just([{"kind": "mv_product", "denominator": 2, "arity": 1}] * 2),
        "states": st.lists(st.lists(_rational, min_size=2, max_size=4), min_size=2, max_size=2)}),
)
_document = st.recursive(_leaf, lambda inner: st.fixed_dictionaries({
    "kind": st.just("product"), "factors": st.lists(inner, min_size=2, max_size=2)}),
    max_leaves=3)


@st.composite
def _spoiled_document(draw):
    """A copy of a drawn document with a drawn key of it or of a nested
    document dropped or given a junk value, or as it is."""
    doc = node = json.loads(json.dumps(draw(_document)))
    while node.get("kind") == "product" and draw(st.booleans()):
        node = node["factors"][draw(st.integers(0, 1))]
    action = draw(st.sampled_from(["keep", "drop", "junk", "number"]))
    if action != "keep":
        key = draw(st.sampled_from(sorted(node)))
        if action == "drop":
            del node[key]
        else:
            node[key] = draw(_junk if action == "junk" else _number)
    return doc


_HALF = {"kind": "mv_product", "denominator": 2, "arity": 1}


# a negative state value with no zero among the others was a StopIteration
@example({"kind": "horizontal_sum", "parts": [_HALF, _HALF],
          "states": [["0", "1", "-1/4"], ["0", "1/2", "1"]]}, True)
@settings(deadline=None)
@given(_spoiled_document(), st.booleans())
def test_document_fuzz_raises_only_named_errors(doc, validate):
    try:
        E, cb = instances.parse_document(doc, validate=validate)
    except EffalgError:
        return
    assert E.size > 0 and all(0 <= p < E.size for p in cb.projections)


@functools.cache
def _host(name):
    """The parsed algebra that element addresses are fuzzed against."""
    doc = {"b2": {"kind": "boolean", "n_atoms": 2},
           "mv42": {"kind": "mv_product", "denominator": 4, "arity": 2},
           "prod": {"kind": "product", "factors": [{"kind": "boolean", "n_atoms": 1},
                                                   {"kind": "mv_product", "denominator": 2,
                                                    "arity": 1}]},
           "hsum": {"kind": "horizontal_sum",
                    "parts": [{"kind": "mv_product", "denominator": 2, "arity": 1}] * 2,
                    "states": [["0", "1/2", "1"]] * 2},
           "matrix": {"kind": "matrix", "dim": 2}}[name]
    return instances.parse_document(doc)[0]


_text = st.lists(st.sampled_from(["0", "1", "2", "4", "1/2", "3/4", "1/0", "x", "-1", "9"]),
                 min_size=1, max_size=5).map(",".join)
_spec = st.recursive(
    st.one_of(_text, st.integers(-2, 30), _junk),
    lambda inner: st.one_of(
        st.fixed_dictionaries({"factors": st.lists(inner, max_size=3)}),
        st.fixed_dictionaries({"part": st.one_of(st.integers(-1, 2), _junk),
                               "element": st.one_of(st.integers(-1, 20), _junk)}),
        st.lists(inner, max_size=4)),
    max_leaves=4)


@settings(deadline=None)
@given(st.sampled_from(["b2", "mv42", "prod", "hsum", "matrix"]), _spec)
def test_element_fuzz_raises_only_named_errors(name, spec):
    E = _host(name)
    try:
        a = instances.parse_element(E, spec)
    except EffalgError:
        return
    if name != "matrix":
        assert 0 <= a < E.size


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["b2", "prod", "hsum"]),
       st.one_of(st.lists(_rational, max_size=9), _junk))
def test_state_fuzz_raises_only_named_errors(name, values):
    E = _host(name)
    try:
        state = core.State(E, values)
        state.validate()
    except EffalgError:
        return


# ---------------------------------------------------------------------------
# separating states of products and matrices


@pytest.mark.parametrize("name", ["table", "mo2", "hsum_l8"])
def test_a_product_with_a_factor_without_states_has_none(name, request):
    """A table, ``MO2`` or ``L8+L8`` factor has no separating family, so
    its products have none, in either factor order."""
    factor = (_table_copy(instances.make_mv_product(4, 1)[0]) if name == "table"
              else request.getfixturevalue(name))
    other = instances.make_boolean(1)
    assert instances.separating_states(factor[0]) is None
    for left, right in ((factor, other), (other, factor)):
        assert instances.separating_states(instances.make_product(left, right)[0]) is None


PRODUCTS_WITH_STATES = {
    "boolean(2) x mv(4,2)": lambda: instances.make_product(instances.make_boolean(2),
                                                           instances.make_mv_product(4, 2)),
    "(boolean(1) x mv(4,1)) x mv(2,2)": lambda: instances.make_product(
        instances.make_product(instances.make_boolean(1), instances.make_mv_product(4, 1)),
        instances.make_mv_product(2, 2)),
}


@pytest.mark.parametrize("name", list(PRODUCTS_WITH_STATES))
def test_separating_states_of_a_product_validate_and_separate(name):
    E, _ = PRODUCTS_WITH_STATES[name]()
    states = instances.separating_states(E)
    assert len(states) == len(instances.separating_states(E.left)) + \
        len(instances.separating_states(E.right))
    assert all(s.validate().passed for s in states)
    values = {tuple(s(a) for s in states) for a in range(E.size)}
    assert len(values) == E.size  # distinct elements, distinct value vectors


@pytest.mark.parametrize("dim", [2, 3])
def test_separating_density_states_validate(dim):
    M, _ = instances.make_matrix(dim)
    states = instances.separating_states(M)
    assert len(states) == dim * (dim + 1) // 2
    assert all(s.validate().passed for s in states)


def test_a_product_element_by_its_factors():
    """``{"factors": [fa, fb]}`` addresses the pair of the factors' elements,
    each in its factor's own form; a list of another length is refused."""
    E, _ = instances.make_product(instances.make_boolean(2), instances.make_mv_product(8, 3))
    want = E.pair_index(2, E.right.index_of([2, 4, 7]))
    assert instances.parse_element(E, {"factors": [2, "2,4,7"]}) == want
    assert instances.parse_element(E, {"factors": ["2", "2/8,4/8,7/8"]}) == want
    for bad in ([2], [2, "2,4,7", 0]):
        with pytest.raises(MalformedInput):
            instances.parse_element(E, {"factors": bad})
