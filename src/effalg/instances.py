"""Constructors for the worked instances, with document round-tripping.

Every constructor returns (algebra, base) after running the axiom and
base validators, unless called with ``validate=False``.  Grids and
Boolean algebras are direct products of chains and products are direct
products of their factors: their bases are product bases (the central
base of a grid is the product of its chain's and its rest's), and they
are validated and judged spectral through their factors, reusing the
reports the factors keep.  Horizontal sums, ``mo2`` and ``table``
documents are scanned: their laws on seeded samples above the scan
budget, their spectrality exactly; ``mo2`` pastes two bare Boolean
squares.  The built algebra carries ``document``, a JSON-serializable
description that reparses to an index-isomorphic instance.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from . import groups, matrices
from .compbase import CompressionBase, central_base, product_base, validate_base
from .core import (
    BooleanAlgebra,
    FiniteAlgebra,
    GridAlgebra,
    ProductAlgebra,
    State,
    TableAlgebra,
    as_fraction,
    validate_axioms,
)
from .errors import (
    EffalgError,
    ElementNotInCarrier,
    InternalConsistencyError,
    MalformedInput,
    ScaleMismatch,
    SizeLimit,
)
from .spectral import SplittingTree


def _validated(E, cb, what: str, validate: bool = True):
    if not validate:
        return E, cb
    rep = validate_axioms(E)
    if not rep.passed:
        raise InternalConsistencyError(f"{what}: axioms failed\n{rep.summary()}")
    if E.enumerable:
        rep = validate_base(E, cb)
        if not rep.passed:
            raise InternalConsistencyError(f"{what}: base failed\n{rep.summary()}")
    return E, cb


# ---------------------------------------------------------------------------
# basic families


def make_boolean(n_atoms: int, validate: bool = True):
    """Powerset of n atoms with U_p(a) = a ^ p over every element."""
    if not 1 <= n_atoms <= 16:
        raise SizeLimit("boolean instances support 1..16 atoms")
    E = BooleanAlgebra(n_atoms)
    E.document = {"kind": "boolean", "n_atoms": n_atoms}
    return _validated(E, central_base(E), "boolean", validate)


def make_mv_product(denominator: int, arity: int, validate: bool = True):
    """Numerator grid {0..k}^d with the central base over zero-one vectors."""
    if not 1 <= denominator <= 16:
        raise MalformedInput("denominator must be 1..16")
    if not 1 <= arity <= 4:
        raise MalformedInput("arity must be 1..4")
    E = GridAlgebra(denominator, arity)
    E.document = {"kind": "mv_product", "denominator": denominator, "arity": arity}
    return _validated(E, central_base(E), "mv_product", validate)


def make_matrix(dim: int, tol: float = 1e-9, validate: bool = True):
    """Symmetric matrix effects with the full projection base (lazy carrier)."""
    E, cb = matrices.make_matrix_instance(dim, tol=tol)
    E.document = {"kind": "matrix", "dim": dim, "tol": tol}
    return _validated(E, cb, "matrix", validate)


def make_table(sums, n: int, zero: int, one: int, labels=None):
    """Explicit table instance from (a, b, a+b) triples; validation is the
    caller's business (broken tables are useful test subjects)."""
    E = TableAlgebra.from_triples(n, sums, zero, one, labels=labels)
    E.document = {"kind": "table", "n": n, "zero": zero, "one": one,
                  "sums": [[int(a), int(b), int(s)] for a, b, s in sums],
                  "labels": list(labels) if labels else None}
    return E


# ---------------------------------------------------------------------------
# products


def make_product(left, right, validate: bool = True):
    """Componentwise product of two instances; base is the pair base."""
    (E1, cb1), (E2, cb2) = left, right
    E = ProductAlgebra(E1, E2)
    E.document = {"kind": "product",
                  "factors": [E1.document, E2.document]}
    return _validated(E, product_base(E, cb1, cb2), "product", validate)


# ---------------------------------------------------------------------------
# horizontal sums


def _hsum_carrier(E1: FiniteAlgebra, E2: FiniteAlgebra):
    """Disjoint union with the two zeros and the two units identified, and
    ``glob``, per side "L"/"R" the union index of each part element.  One
    gather per part: a pair takes the sum of its order with the larger
    first index if defined, else the other's; with 1 only 0 + 1 is defined."""
    labels, index, glob = ["0", "1"], {}, {}
    n = E1.size + E2.size - 2
    S = np.full((n, n), -1, dtype=np.int32)
    for side, F in (("L", E1), ("R", E2)):
        inner = [x for x in range(F.size) if x not in (F.zero, F.one)]
        g = glob[side] = np.zeros(F.size, dtype=np.int64)
        g[F.one], g[inner] = 1, np.arange(len(labels), len(labels) + len(inner))
        index.update({(side, x): int(g[x]) for x in inner})
        labels += [f"{side}:{F.label(x)}" for x in inner]
        T, late = F.sum_table, np.tri(F.size, dtype=bool)  # late[x, y]: x >= y
        first = np.where(late, T, T.T)
        pair = np.where(first >= 0, first, np.where(late, T.T, T))
        keep = np.flatnonzero(np.arange(F.size) != F.one)
        S[np.ix_(g[keep], g[keep])] = np.where(pair >= 0, g[pair], -1)[np.ix_(keep, keep)]
    S[:2, :2] = [[0, 1], [1, -1]]
    E = TableAlgebra(S, 0, 1, labels=labels)
    E.part_index = index  # interior elements only
    E.part_units = {"L": (E1.zero, E1.one), "R": (E2.zero, E2.one)}
    return E, glob


def make_horizontal_sum(left, right, state1, state2, validate: bool = True):
    """Zero-one pasting with cross compressions through faithful states.

    For an interior projection p of the left part, the compression sends
    right-part elements to state2(element) * p; this scalar multiple must
    land on the left carrier (ScaleMismatch otherwise).  States are
    checked faithful before anything else.
    """
    (E1, cb1), (E2, cb2) = left, right
    if not (E1.enumerable and E2.enumerable):
        raise SizeLimit("horizontal sums are built for finite parts")
    s1 = state1 if isinstance(state1, State) else State(E1, state1)
    s2 = state2 if isinstance(state2, State) else State(E2, state2)
    for s in (s1, s2):
        s.require_faithful()
        s.require_valid()
    if not (cb1.is_spectral() and cb2.is_spectral()):
        raise InternalConsistencyError("horizontal sums expect spectral parts")

    E, glob = _hsum_carrier(E1, E2)
    projs = {0, 1}
    maps = {0: np.zeros(E.size, dtype=np.int64), 1: np.arange(E.size)}

    def cross_table(side, p, Eown, cbown, Eother, sother):
        """J with focus p (interior, in `side`): own part by the inherited
        compression, other part scaled into [0, p]."""
        tbl = np.zeros(E.size, dtype=np.int64)
        own, other = glob[side], glob["R" if side == "L" else "L"]
        tbl[own] = own[cbown.map_table(p)]
        for y in range(Eother.size):
            if y in (Eother.zero, Eother.one):
                continue
            val = sother(y)
            scaled = Eown.scale(val, p) if hasattr(Eown, "scale") else (
                p if val == 1 else (Eown.zero if val == 0 else None))
            if scaled is None:
                raise ScaleMismatch(
                    f"state value {val} times {Eown.label(p)} is off the carrier")
            tbl[other[y]] = own[int(scaled)]
        tbl[1] = own[p]
        tbl[0] = 0
        return tbl

    for side, Eown, cbown, Eother, sother in (("L", E1, cb1, E2, s2), ("R", E2, cb2, E1, s1)):
        for p in cbown.projections:
            if p not in (Eown.zero, Eown.one):
                g = int(glob[side][p])
                projs.add(g)
                maps[g] = cross_table(side, p, Eown, cbown, Eother, sother)

    cb = CompressionBase(E, sorted(projs), maps)
    E.kind = "horizontal_sum"
    E.document = {"kind": "horizontal_sum",
                  "parts": [E1.document, E2.document],
                  "states": [[str(v) for v in s1.values], [str(v) for v in s2.values]]}
    return _validated(E, cb, "horizontal_sum", validate)


def make_mo2(validate: bool = True):
    """Horizontal sum of two four-element Boolean algebras, central base.

    No faithful scalar state maps a Boolean square into an atom interval,
    so there are no compressions focused at the atoms; the only base is
    the trivial one, and sharp atoms stay outside P.
    """
    E, _ = _hsum_carrier(BooleanAlgebra(2), BooleanAlgebra(2))
    cb = central_base(E)
    E.kind = "mo2"
    E.document = {"kind": "mo2"}
    return _validated(E, cb, "mo2", validate)


def torsion_witness(E: TableAlgebra):
    """A pair e != f with 2e = 2f = 1, or None; exists in chain pastings."""
    halves = np.flatnonzero(E.sum_table.diagonal() == E.one)
    return (int(halves[0]), int(halves[1])) if halves.size > 1 else None


# ---------------------------------------------------------------------------
# closed-form resolution for grids


def closed_form_mv_resolution(E: GridAlgebra, a: int, n: int) -> SplittingTree:
    """The grid tree written down directly: at level l, coordinate i sits
    in the cell w with k(w)/2^l < a_i <= (k(w)+1)/2^l, carrying value
    2^l * a_i - k(w).  Used as an oracle; never by the construction."""
    if not isinstance(E, GridAlgebra):
        raise ElementNotInCarrier("closed form applies to grid instances")
    coords = E.coords[a].astype(np.int64)
    k = E.k
    u, c = {}, {}
    support = coords > 0
    if support.any():
        u[()] = int(np.where(support, k, 0) @ E.strides)
        c[()] = a
    exact = coords.tolist()  # Python ints: c_i 2^level outgrows int64 past depth ~60
    for level in range(1, n + 1):
        cells = {}
        for i, ci in enumerate(exact):
            if ci == 0:
                continue
            # smallest kw with a_i <= (kw+1)/2^level, i.e. ceil(a_i 2^level) - 1
            kw = -((-ci * 2 ** level) // k) - 1
            cells.setdefault(int(kw), []).append(i)
        for kw, idxs in cells.items():
            w = tuple((kw >> (level - 1 - j)) & 1 for j in range(level))
            mask = np.zeros(E.d, dtype=np.int64)
            mask[idxs] = k
            cvec = np.zeros(E.d, dtype=np.int64)
            for i in idxs:
                cvec[i] = exact[i] * 2 ** level - kw * k
            u[w] = int(mask @ E.strides)
            c[w] = int(cvec @ E.strides)
    return SplittingTree(E, a, n, u, c)


def trees_equal(t1: SplittingTree, t2: SplittingTree) -> bool:
    depth = min(t1.depth, t2.depth)
    for level in range(depth + 1):
        m1 = {w: (u, t1.c(w)) for w, u in t1.layer(level)}
        m2 = {w: (u, t2.c(w)) for w, u in t2.layer(level)}
        if m1 != m2:
            return False
    return True


# ---------------------------------------------------------------------------
# states and groups attached to instances


def coordinate_states(E: GridAlgebra):
    """The d coordinate-evaluation states; a separating family."""
    out = []
    for i in range(E.d):
        vals = [Fraction(int(c), E.k) for c in E.coords[:, i]]
        out.append(State(E, vals))
    return out


def weighted_state(E: GridAlgebra, weights) -> State:
    weights = [as_fraction(w) for w in weights]
    if len(weights) != E.d or sum(weights) != 1 or any(w < 0 for w in weights):
        raise MalformedInput("need nonnegative weights summing to one, one per coordinate")
    vals = [sum(w * Fraction(int(c), E.k) for w, c in zip(weights, E.coords[i]))
            for i in range(E.size)]
    return State(E, vals)


def separating_states(E):
    """A separating family of states of a grid or a matrix algebra, or of a
    product whose factors both have one (each factor's states read through
    its coordinate); None on any other carrier."""
    if isinstance(E, GridAlgebra):
        return coordinate_states(E)
    if isinstance(E, matrices.MatrixEffectAlgebra):
        return matrices.separating_states(E)
    if isinstance(E, ProductAlgebra):
        left = separating_states(E.left)
        right = separating_states(E.right)
        if left is None or right is None:
            return None
        ia, ib = E.split_index(np.arange(E.size))
        out = []
        for s in left:
            out.append(State(E, [s(int(x)) for x in ia]))
        for s in right:
            out.append(State(E, [s(int(x)) for x in ib]))
        return out
    return None


_NO_GROUP = {  # why a carrier of this kind, no grid, gets no integer group
    "product": "the group oracle covers grid instances only; the group of a product "
               "is not built",
    "table": "the group oracle covers grid instances only; a table names no group",
    "matrix": "the group oracle covers grid instances only; the group of a matrix "
              "algebra is its self-adjoint matrices, not Z^d",
}


def _no_group_reason(E) -> str | None:
    """Why E carries no integer group, or None on a grid: a product gives
    the reason of its first factor that has one, and only a product of grids
    says that its group is not built."""
    if isinstance(E, GridAlgebra):
        return None
    if E.kind == "product":
        return next(filter(None, map(_no_group_reason, E.factors)), _NO_GROUP["product"])
    return _NO_GROUP.get(E.kind, "only grid instances carry a torsion-free integer group; "
                                 "zero-one pastings admit 2e = 2f = 1 with e != f")


def universal_group(E: GridAlgebra) -> groups.ZGroup:
    """The integer group behind a grid instance (coordinates over unit k).
    Any other carrier raises ``ElementNotInCarrier`` naming why
    (``_no_group_reason``): its kind's entry of ``_NO_GROUP``, the torsion
    of a zero-one pasting, or the reason of a product's factor."""
    reason = _no_group_reason(E)
    if reason is not None:
        raise ElementNotInCarrier(reason)
    return groups.ZGroup(E.group_unit)


def embed_element(E: GridAlgebra, a: int) -> np.ndarray:
    return E.coords[a].astype(np.int64)


def projection_from_group(E: GridAlgebra, p: np.ndarray) -> int:
    return E.index_of(np.asarray(p, dtype=np.int64))


# ---------------------------------------------------------------------------
# documents


def _untrusted(parse):
    """``parse`` of outside input, raising only ``EffalgError``: what a
    missing key, a value of the wrong type or a bad number makes it raise
    becomes ``MalformedInput``."""
    @functools.wraps(parse)
    def checked(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except EffalgError:
            raise
        except KeyError as exc:
            raise MalformedInput(f"missing key {exc}") from exc
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise MalformedInput(str(exc)) from exc
    return checked


def _whole(doc: dict, key: str) -> int:
    """The integer at ``doc[key]``, given as a JSON integer or as text."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise MalformedInput(f"{key} must be an integer, not {value!r}")
    return int(value)


def _two(doc: dict, key: str, items: str) -> list:
    """``doc[key]``, a list of two items [``items``]; ``MalformedInput`` else."""
    value = doc[key]
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise MalformedInput(f'a {doc["kind"]} document has "{key}": [{items}], two items, '
                             f"not {value!r}")
    return value


MAX_NESTING = 64  # products and horizontal sums nested deeper are refused


@_untrusted
def parse_document(doc: dict, validate: bool = True):
    """(algebra, base) from a document.  ``validate`` applies to the
    outermost constructor only: factors and parts are always validated,
    and ``table`` documents never are.  A malformed document, one nested
    more than ``MAX_NESTING`` deep among them, raises ``MalformedInput``
    (or another ``EffalgError``)."""
    return _parse(doc, validate, 0)


def _parse(doc: dict, validate: bool, depth: int):
    """``parse_document`` of a document ``depth`` levels down."""
    if depth > MAX_NESTING:
        raise MalformedInput(f"instance documents nest at most {MAX_NESTING} levels deep")
    if not isinstance(doc, dict):
        raise MalformedInput(f"an instance document is a JSON object, not {doc!r}")
    kind = doc.get("kind")
    if kind == "boolean":
        return make_boolean(_whole(doc, "n_atoms"), validate=validate)
    if kind == "mv_product":
        return make_mv_product(_whole(doc, "denominator"), _whole(doc, "arity"),
                               validate=validate)
    if kind == "matrix":
        return make_matrix(_whole(doc, "dim"), tol=float(doc.get("tol", 1e-9)), validate=validate)
    if kind == "product":
        f1, f2 = _two(doc, "factors", "the left factor, the right factor")
        return make_product(_parse(f1, True, depth + 1), _parse(f2, True, depth + 1),
                            validate=validate)
    if kind == "horizontal_sum":
        p1, p2 = (_parse(d, True, depth + 1) for d in _two(doc, "parts", "part 0, part 1"))
        s1, s2 = _two(doc, "states", "a state of part 0, a state of part 1")
        return make_horizontal_sum(p1, p2, [as_fraction(v) for v in s1],
                                   [as_fraction(v) for v in s2], validate=validate)
    if kind == "mo2":
        return make_mo2(validate=validate)
    if kind == "table":
        E = make_table(doc["sums"], _whole(doc, "n"), _whole(doc, "zero"), _whole(doc, "one"),
                       labels=doc.get("labels"))
        cb = central_base(E)
        return E, cb
    raise MalformedInput(f"unknown instance kind {kind!r}")


@_untrusted
def parse_element(E, spec):
    """Element addresses: index, bitmask, numerator vector, row-major matrix,
    or a tagged pair for products and pastings."""
    if isinstance(E, matrices.MatrixEffectAlgebra):
        if isinstance(spec, str):
            vals = [float(Fraction(tok)) for tok in spec.replace(";", ",").split(",")]
        else:
            vals = [float(Fraction(str(v))) for v in np.asarray(spec).ravel()]
        return E.check_element(np.array(vals).reshape(E.dim, E.dim))
    if isinstance(spec, dict):
        if isinstance(E, ProductAlgebra) and "factors" in spec:
            items = spec["factors"]
            if not isinstance(items, (list, tuple)) or len(items) != 2:
                raise MalformedInput(
                    f"an element of the product {E.left.kind} x {E.right.kind} is "
                    f'{{"factors": [an element of {E.left.kind}, an element of '
                    f'{E.right.kind}]}}, two items, not {items!r}')
            fa, fb = items
            return E.pair_index(parse_element(E.left, fa), parse_element(E.right, fb))
        if hasattr(E, "part_index") and "part" in spec:
            part, inner = _whole(spec, "part"), _whole(spec, "element")
            if part not in (0, 1):
                raise ElementNotInCarrier(f"a horizontal sum has parts 0 and 1, not {part}")
            side = "LR"[part]
            zero, one = E.part_units[side]
            if inner in (zero, one):  # shared by both parts
                return E.zero if inner == zero else E.one
            if (side, inner) not in E.part_index:
                raise ElementNotInCarrier(f"{inner} is not an element of part {part}")
            return E.part_index[(side, inner)]
        raise ElementNotInCarrier(f"bad element spec {spec!r}")
    if isinstance(spec, str) and isinstance(E, GridAlgebra) and ("," in spec or "/" in spec):
        toks = spec.split(",")
        nums = []
        for t in toks:
            f = Fraction(t.strip())
            v = f * E.k if f.denominator != 1 else f
            if v.denominator != 1:
                raise ElementNotInCarrier(f"{t} is not a multiple of 1/{E.k}")
            nums.append(int(v))
        return E.index_of(np.array(nums))
    idx = int(spec)
    if not 0 <= idx < E.size:
        raise ElementNotInCarrier(f"index {idx} out of range")
    return idx
