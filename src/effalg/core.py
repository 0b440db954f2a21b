"""Effect algebras: partial sums, derived order, finite carriers, states.

Finite algebras use dense integer indices as element handles.  Dense
``n x n`` lookup tables (sum, order, difference) are materialized only
below a size cap; larger carriers keep vectorized structural operations
and whole-algebra scans degrade to seeded sampling.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import kernels
from .errors import (
    ElementNotInCarrier,
    InvalidState,
    NotEnumerable,
    NotFaithful,
    SizeLimit,
)

DENSE_LIMIT = 5000  # dense tables need n <= this (3 tables, 9 n^2 bytes)
TRIPLE_BUDGET = 2_000_000_000  # full associativity scan when n^3 is below
PAIR_BUDGET = 200_000_000
SAMPLE_SIZE = 20_000


def carrier_cap() -> int:
    return int(os.environ.get("EA_MAX_CARRIER", 100_000))


def as_fraction(x) -> Fraction:
    """Parse exact rationals from int/str/Fraction; never from float text."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise ValueError(f"not an exact rational: {x!r}")


# ---------------------------------------------------------------------------
# validation reports


@dataclass
class Check:
    name: str
    passed: bool
    mode: str = "full"  # full | sampled | structural
    witness: object = None
    detail: str = ""

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        extra = f" [{self.mode}]" if self.mode != "full" else ""
        wit = f" witness={self.witness}" if (not self.passed and self.witness is not None) else ""
        det = f" ({self.detail})" if self.detail else ""
        return f"{tag}{extra} {self.name}{wit}{det}"


@dataclass
class Report:
    title: str
    checks: list = field(default_factory=list)

    def add(self, name, passed, mode="full", witness=None, detail=""):
        self.checks.append(Check(name, bool(passed), mode, witness, detail))
        return self.checks[-1]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def sampled(self) -> bool:
        return any(c.mode != "full" for c in self.checks)

    def summary(self) -> str:
        lines = [f"{self.title}: {'PASS' if self.passed else 'FAIL'}"]
        lines += [f"  {c}" for c in self.checks]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "mode": c.mode,
                    "witness": None if c.witness is None else str(c.witness),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# algebras


class EffectAlgebra:
    """Partial commutative monoid with orthosupplement (axioms E1-E4)."""

    tol: float = 0.0
    enumerable: bool = False
    kind: str = "abstract"

    zero = None
    one = None

    def sum(self, a, b):
        raise NotImplementedError

    def ortho(self, a):
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def ominus(self, b, a):
        """The unique c with a + c = b, or None when a is not below b."""
        raise NotImplementedError

    def eq(self, a, b) -> bool:
        return a == b

    def label(self, a) -> str:
        return str(a)

    @property
    def size(self):
        return None

    def elements(self):
        raise NotEnumerable(f"{self.kind} algebra is not enumerable")

    def sample_elements(self, rng, count):
        raise NotEnumerable(f"{self.kind} algebra cannot be sampled")


class FiniteAlgebra(EffectAlgebra):
    """Enumerable algebra over dense indices 0..n-1."""

    enumerable = True

    def __init__(self, n, zero, one):
        self._n = int(n)
        self.zero = int(zero)
        self.one = int(one)
        self._sum_table = None
        self._leq_table = None
        self._ominus_table = None
        self._defined_pairs = None
        self._ortho_vec = None

    # -- interface ---------------------------------------------------------

    @property
    def size(self) -> int:
        return self._n

    @property
    def dense(self) -> bool:
        return self._n <= DENSE_LIMIT

    def elements(self) -> range:
        return range(self._n)

    def sample_elements(self, rng, count):
        return rng.integers(0, self._n, size=count)

    def check_element(self, a):
        if not (isinstance(a, (int, np.integer)) and 0 <= a < self._n):
            raise ElementNotInCarrier(f"{a!r} is not an index into a carrier of size {self._n}")
        return int(a)

    # pair operations on index arrays that broadcast against each other.
    # A dense carrier gathers from its tables; past DENSE_LIMIT the
    # structural primitives _sum_pairs/_leq_pairs/_ominus_pairs answer.
    # The full law scans of kernels.py take the tables whole, not through
    # these.

    def sum_pairs(self, xs, ys) -> np.ndarray:
        """Pointwise partial sums; -1 where undefined."""
        if self.dense:
            return self.sum_table[xs, ys].astype(np.int64)
        return self._sum_pairs(xs, ys)

    def leq_pairs(self, xs, ys) -> np.ndarray:
        if self.dense:
            return self.leq_table[xs, ys]
        return self._leq_pairs(xs, ys)

    def ominus_pairs(self, bs, xs) -> np.ndarray:
        """Pointwise b - x; -1 where x is not below b."""
        if self.dense:
            return self.ominus_table[bs, xs].astype(np.int64)
        return self._ominus_pairs(bs, xs)

    # the structural primitives of a carrier given by its tables read them
    # as stored; grids and products override these with their structure

    def _sum_pairs(self, xs, ys):
        return self._sum_table[xs, ys].astype(np.int64)

    def _leq_pairs(self, xs, ys):
        return self._leq_table[xs, ys]

    def _ominus_pairs(self, bs, xs):
        return self._ominus_table[bs, xs].astype(np.int64)

    def meet_pairs(self, xs, ys) -> np.ndarray:
        """Pointwise meets; -1 where a pair has none.  One scalar ``meet``
        search per distinct pair."""
        xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=np.int64), ys)
        keys, inv = np.unique((xs * self._n + ys).ravel(), return_inverse=True)
        meets = [self.meet(int(k) // self._n, int(k) % self._n) for k in keys]
        out = np.array([-1 if m is None else m for m in meets], dtype=np.int64)
        return out[inv].reshape(xs.shape)

    def ortho_all(self) -> np.ndarray:
        if self._ortho_vec is None:
            self._ortho_vec = self.ominus_pairs(self.one, np.arange(self._n))
        return self._ortho_vec

    # scalar wrappers

    def sum(self, a, b):
        s = int(self.sum_pairs(a, b))
        return None if s < 0 else s

    def leq(self, a, b) -> bool:
        return bool(self.leq_pairs(a, b))

    def ominus(self, b, a):
        c = int(self.ominus_pairs(b, a))
        return None if c < 0 else c

    def ortho(self, a):
        return int(self.ortho_all()[a])

    # dense tables ----------------------------------------------------------

    def _require_dense(self):
        if not self.dense:
            raise SizeLimit(f"dense tables need n <= {DENSE_LIMIT}, carrier has {self._n}")

    def _tabulate(self, op: str) -> np.ndarray:
        """Dense ``n x n`` table of ``sum``/``leq``/``ominus``, row by row
        through the structural primitives; subclasses with factor tables
        override."""
        pairs = getattr(self, f"_{op}_pairs")
        n = self._n
        rows = np.arange(n)
        out = np.empty((n, n), dtype=bool if op == "leq" else np.int32)
        for a in range(n):
            out[a] = pairs(a, rows)
        return out

    @property
    def sum_table(self) -> np.ndarray:
        self._require_dense()
        if self._sum_table is None:
            self._sum_table = self._tabulate("sum")
        return self._sum_table

    @property
    def leq_table(self) -> np.ndarray:
        self._require_dense()
        if self._leq_table is None:
            self._leq_table = self._tabulate("leq")
        return self._leq_table

    @property
    def ominus_table(self) -> np.ndarray:
        self._require_dense()
        if self._ominus_table is None:
            self._ominus_table = self._tabulate("ominus")
        return self._ominus_table

    @property
    def defined_pairs(self) -> kernels.DefinedPairs:
        """The domain of the partial sum as a row-major list of pairs."""
        if self._defined_pairs is None:
            self._defined_pairs = kernels.DefinedPairs(self.sum_table)
        return self._defined_pairs

    # order helpers ----------------------------------------------------------

    def lower_bounds(self, a) -> np.ndarray:
        return self.leq_pairs(np.arange(self._n), a)

    def meet(self, a, b):
        """Greatest common lower bound, or None when it does not exist."""
        cand = np.flatnonzero(self.lower_bounds(a) & self.lower_bounds(b))
        if cand.size == 1:
            return int(cand[0])
        # the maximum, if any, is the candidate every candidate sits below
        ranks = self.leq_pairs(cand[:, None], cand).sum(axis=0)
        best = int(np.argmax(ranks))
        if ranks[best] == cand.size:
            return int(cand[best])
        return None

    def join(self, a, b):
        d = self.meet(self.ortho(a), self.ortho(b))
        return None if d is None else self.ortho(d)

    def meet_many(self, elems):
        it = list(elems)
        out = it[0]
        for x in it[1:]:
            out = self.meet(out, x)
            if out is None:
                return None
        return out


def _product_table(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dense table of a direct product from its factor tables.

    Element ``(x, y)`` has index ``x * len(B) + y``.  Boolean tables (order)
    combine by conjunction; index tables (sum, difference) combine
    componentwise and are ``-1`` wherever either factor entry is.  The
    result is written in place, so the build needs no ``n x n`` array
    besides the table itself.
    """
    na, nb = A.shape[0], B.shape[0]
    if A.dtype == bool:
        out = A[:, None, :, None] & B[None, :, None, :]
    else:
        A4 = A.astype(np.int32, copy=False)[:, None, :, None]
        B4 = B.astype(np.int32, copy=False)[None, :, None, :]
        out = A4 * np.int32(nb) + B4
        np.copyto(out, -1, where=A4 < 0)  # the masks broadcast like A4 and B4
        np.copyto(out, -1, where=B4 < 0)
    return out.reshape(na * nb, na * nb)


class TableAlgebra(FiniteAlgebra):
    """Finite algebra backed by an explicit dense sum table."""

    kind = "table"

    def __init__(self, sum_table, zero, one, labels=None):
        sum_table = np.asarray(sum_table, dtype=np.int32)
        n = sum_table.shape[0]
        if sum_table.shape != (n, n):
            raise ValueError("sum table must be square")
        if n > DENSE_LIMIT:
            raise SizeLimit(f"explicit tables are capped at n={DENSE_LIMIT}")
        super().__init__(n, zero, one)
        self._sum_table = sum_table
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        self._derive_order()

    @classmethod
    def from_triples(cls, n, triples, zero, one, labels=None, symmetrize=True):
        """Build from explicit (a, b, a+b) triples; everything else undefined."""
        S = -np.ones((n, n), dtype=np.int32)
        for a, b, s in triples:
            S[a, b] = s
            if symmetrize:
                S[b, a] = s
        return cls(S, zero, one, labels=labels)

    def _derive_order(self):
        n = self._n
        S = self._sum_table
        leq = np.zeros((n, n), dtype=bool)
        omi = -np.ones((n, n), dtype=np.int32)
        for a in range(n):
            row = S[a]
            idx = np.flatnonzero(row >= 0)
            leq[a, row[idx]] = True
            omi[row[idx], a] = idx
        self._leq_table = leq
        self._ominus_table = omi
        self._ortho_vec = omi[self.one].copy()

    def label(self, a) -> str:
        return self.labels[a]


class GridAlgebra(FiniteAlgebra):
    """Coordinate grid {0..k}^d with truncated addition: the finite cube of
    numerator vectors over a common denominator k."""

    kind = "mv_product"

    def __init__(self, k, d):
        if k < 1 or d < 1:
            raise ValueError("need k >= 1 and d >= 1")
        n = (k + 1) ** d
        super().__init__(n, 0, n - 1)
        self.k = int(k)
        self.d = int(d)
        # little-endian index: coordinate i carries stride (k+1)^i
        self.strides = (k + 1) ** np.arange(d, dtype=np.int64)
        idx = np.arange(n, dtype=np.int64)
        self.coords = ((idx[:, None] // self.strides[None, :]) % (k + 1)).astype(np.int32)
        self.group_unit = np.full(d, k, dtype=np.int64)

    def index_of(self, coords) -> int:
        coords = np.asarray(coords, dtype=np.int64)
        if coords.shape != (self.d,) or coords.min() < 0 or coords.max() > self.k:
            raise ElementNotInCarrier(f"coords {coords} outside grid (k={self.k}, d={self.d})")
        return int(coords @ self.strides)

    # structural primitives: coordinatewise, on the trailing axis

    def _sum_pairs(self, xs, ys):
        cs = self.coords[np.asarray(xs)].astype(np.int64) + self.coords[np.asarray(ys)]
        ok = (cs <= self.k).all(axis=-1)
        return np.where(ok, np.minimum(cs, self.k) @ self.strides, -1)

    def _leq_pairs(self, xs, ys):
        return (self.coords[np.asarray(xs)] <= self.coords[np.asarray(ys)]).all(axis=-1)

    def _ominus_pairs(self, bs, xs):
        cs = self.coords[np.asarray(bs)].astype(np.int64) - self.coords[np.asarray(xs)]
        ok = (cs >= 0).all(axis=-1)
        return np.where(ok, np.maximum(cs, 0) @ self.strides, -1)

    def meet_pairs(self, xs, ys):
        return np.minimum(self.coords[np.asarray(xs)], self.coords[np.asarray(ys)]) @ self.strides

    def _tabulate(self, op):
        # the grid is a product of d chains, coordinate d-1 the most significant
        x = np.arange(self.k + 1, dtype=np.int32)
        if op == "leq":
            chain = x[:, None] <= x
        else:
            v = x[:, None] + x if op == "sum" else x[:, None] - x
            chain = np.where((v >= 0) & (v <= self.k), v, -1)
        out = chain
        for _ in range(self.d - 1):
            out = _product_table(chain, out)
        return out

    def meet(self, a, b):
        return int(self.meet_pairs(a, b))

    def join(self, a, b):
        return int(np.maximum(self.coords[a], self.coords[b]) @ self.strides)

    def scale(self, frac: Fraction, a):
        """Exact scalar multiple frac*a, or None when off the grid."""
        scaled = [Fraction(int(c), 1) * frac for c in self.coords[a]]
        nums = []
        for v in scaled:
            if v.denominator != 1:
                return None
            nums.append(int(v))
        return self.index_of(np.array(nums))

    def label(self, a) -> str:
        return ",".join(f"{c}/{self.k}" for c in self.coords[a])


class BooleanAlgebra(GridAlgebra):
    """Powerset of n atoms; element index doubles as the atom bitmask."""

    kind = "boolean"

    def __init__(self, n_atoms):
        super().__init__(1, n_atoms)
        self.n_atoms = n_atoms

    def label(self, a) -> str:
        atoms = [str(i + 1) for i in range(self.d) if self.coords[a][i]]
        return "{" + ",".join(atoms) + "}"


class ProductAlgebra(FiniteAlgebra):
    """Direct product: componentwise sums, order and orthosupplement."""

    kind = "product"

    def __init__(self, left: FiniteAlgebra, right: FiniteAlgebra):
        self.left = left
        self.right = right
        super().__init__(left.size * right.size,
                         left.zero * right.size + right.zero,
                         left.one * right.size + right.one)

    def split_index(self, idx):
        idx = np.asarray(idx)
        return idx // self.right.size, idx % self.right.size

    def pair_index(self, ia, ib) -> int:
        return int(ia) * self.right.size + int(ib)

    def _pair(self, ia, ib):
        """Product indices of factor indices; -1 where either is -1."""
        return np.where((ia >= 0) & (ib >= 0), ia * self.right.size + ib, -1)

    # structural primitives: componentwise, through the factors

    def _sum_pairs(self, xs, ys):
        (xa, xb), (ya, yb) = self.split_index(xs), self.split_index(ys)
        return self._pair(self.left.sum_pairs(xa, ya), self.right.sum_pairs(xb, yb))

    def _leq_pairs(self, xs, ys):
        (xa, xb), (ya, yb) = self.split_index(xs), self.split_index(ys)
        return self.left.leq_pairs(xa, ya) & self.right.leq_pairs(xb, yb)

    def _ominus_pairs(self, bs, xs):
        (ba, bb), (xa, xb) = self.split_index(bs), self.split_index(xs)
        return self._pair(self.left.ominus_pairs(ba, xa), self.right.ominus_pairs(bb, xb))

    def meet_pairs(self, xs, ys):
        (xa, xb), (ya, yb) = self.split_index(xs), self.split_index(ys)
        return self._pair(self.left.meet_pairs(xa, ya), self.right.meet_pairs(xb, yb))

    def meet(self, a, b):
        m = int(self.meet_pairs(a, b))
        return None if m < 0 else m

    def ortho_all(self) -> np.ndarray:
        # from the factors, so that it builds no difference table
        if self._ortho_vec is None:
            ia, ib = self.split_index(np.arange(self._n))
            self._ortho_vec = self._pair(self.left.ortho_all()[ia], self.right.ortho_all()[ib])
        return self._ortho_vec

    def _tabulate(self, op):
        table = f"{op}_table"
        return _product_table(getattr(self.left, table), getattr(self.right, table))

    def lower_bounds(self, a) -> np.ndarray:
        # the outer product of the factor masks builds no order table
        ia, ib = self.split_index(a)
        return np.outer(self.left.lower_bounds(int(ia)),
                        self.right.lower_bounds(int(ib))).ravel()

    def label(self, a) -> str:
        ia, ib = self.split_index(a)
        return f"({self.left.label(int(ia))}; {self.right.label(int(ib))})"


# ---------------------------------------------------------------------------
# states


class State:
    """Additive unital map into the rational unit interval."""

    def __init__(self, algebra: FiniteAlgebra, values: Iterable):
        self.algebra = algebra
        self.values = [as_fraction(v) for v in values]
        if len(self.values) != algebra.size:
            raise InvalidState("state needs one value per carrier element")
        self._validated = False

    def __call__(self, a) -> Fraction:
        return self.values[a]

    def is_faithful(self) -> bool:
        return all(v > 0 for i, v in enumerate(self.values) if i != self.algebra.zero)

    def validate(self, budget=PAIR_BUDGET, seed=0) -> Report:
        E = self.algebra
        rep = Report(f"state on {E.kind} ({E.size} elements)")
        vals = self.values
        rep.add("unital", vals[E.one] == 1 and vals[E.zero] == 0)
        rep.add("range", all(0 <= v <= 1 for v in vals))
        n = E.size
        if n * n <= budget and E.dense:
            # exact: integer numerators over the common denominator, every
            # defined pair at once; the first bad pair in row-major order
            pairs = E.defined_pairs
            num = _common_numerators(vals)
            bad = np.flatnonzero(num[pairs.s] != num[pairs.a] + num[pairs.b])
            witness = (int(pairs.a[bad[0]]), int(pairs.b[bad[0]])) if bad.size else None
            rep.add("additive", bad.size == 0, witness=witness)
        else:
            rng = np.random.default_rng(seed)
            xs = rng.integers(0, n, size=SAMPLE_SIZE)
            ys = rng.integers(0, n, size=SAMPLE_SIZE)
            ss = E.sum_pairs(xs, ys)
            ok = True
            witness = None
            for x, y, s in zip(xs, ys, ss):
                if s >= 0 and vals[s] != vals[x] + vals[y]:
                    ok, witness = False, (int(x), int(y))
                    break
            rep.add("additive", ok, mode="sampled", witness=witness)
        self._validated = rep.passed
        return rep

    def require_valid(self):
        if not self._validated:
            rep = self.validate()
            if not rep.passed:
                raise InvalidState(rep.summary())

    def require_faithful(self):
        if not self.is_faithful():
            bad = next(i for i, v in enumerate(self.values) if i != self.algebra.zero and v == 0)
            raise NotFaithful(f"state kills nonzero element {self.algebra.label(bad)}")


def _common_numerators(values) -> np.ndarray:
    """Numerators of ``values`` over their least common denominator, as
    int64 when s(a) + s(b) cannot overflow and as Python ints otherwise."""
    den = math.lcm(*(v.denominator for v in values))
    num = [v.numerator * (den // v.denominator) for v in values]
    if max(map(abs, num), default=0) < 2 ** 62:
        return np.array(num, dtype=np.int64)
    return np.array(num, dtype=object)


# ---------------------------------------------------------------------------
# axiom validation


def validate_axioms(E: EffectAlgebra, budget: int = TRIPLE_BUDGET, seed: int = 0) -> Report:
    """Check E1-E4 plus orthosupplement uniqueness and cancellation.

    Scans that would exceed ``budget`` elementary operations run on seeded
    samples instead and are flagged ``sampled`` in the report.
    """
    if not E.enumerable:
        return _validate_axioms_sampled(E, seed)
    n = E.size
    rep = Report(f"axioms on {E.kind} ({n} elements)")
    dense = E.dense

    # E1: commutativity
    if dense:
        S = E.sum_table
        bad = np.argwhere(S != S.T)
        rep.add("E1-commutative", bad.size == 0, witness=tuple(bad[0]) if bad.size else None)
    else:
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, n, size=SAMPLE_SIZE)
        ys = rng.integers(0, n, size=SAMPLE_SIZE)
        mism = np.flatnonzero(E.sum_pairs(xs, ys) != E.sum_pairs(ys, xs))
        rep.add("E1-commutative", mism.size == 0, mode="sampled",
                witness=(int(xs[mism[0]]), int(ys[mism[0]])) if mism.size else None)

    # E2: associativity
    if dense and n ** 3 <= budget:
        w = kernels.associativity_violation(E.sum_table, E.defined_pairs)
        rep.add("E2-associative", w is None, witness=w)
    else:
        rng = np.random.default_rng(seed + 1)
        xs = rng.integers(0, n, size=SAMPLE_SIZE)
        ys = rng.integers(0, n, size=SAMPLE_SIZE)
        zs = rng.integers(0, n, size=SAMPLE_SIZE)
        ab = E.sum_pairs(xs, ys)
        ok = ab >= 0
        abc = np.where(ok, E.sum_pairs(np.maximum(ab, 0), zs), -1)
        ok &= abc >= 0
        bc = E.sum_pairs(ys, zs)
        a_bc = np.where(bc >= 0, E.sum_pairs(xs, np.maximum(bc, 0)), -1)
        bad = np.flatnonzero(ok & ((bc < 0) | (a_bc != abc)))
        rep.add("E2-associative", bad.size == 0, mode="sampled",
                witness=(int(xs[bad[0]]), int(ys[bad[0]]), int(zs[bad[0]])) if bad.size else None)

    # E3: orthosupplement exists and is unique
    ortho = E.ortho_all()
    exists = (ortho >= 0).all()
    rep.add("E3-orthosupplement-exists", exists,
            witness=None if exists else int(np.argmin(ortho >= 0)))
    if exists:
        back = E.sum_pairs(np.arange(n), ortho)
        rep.add("E3-orthosupplement-valid", (back == E.one).all())
    if dense:
        counts = (E.sum_table == E.one).sum(axis=1)
        bad = np.flatnonzero(counts != 1)
        rep.add("E3-orthosupplement-unique", bad.size == 0,
                witness=int(bad[0]) if bad.size else None)
    else:
        rng = np.random.default_rng(seed + 2)
        ok = True
        witness = None
        for a in rng.integers(0, n, size=8):
            row = E.sum_pairs(a, np.arange(n))
            if (row == E.one).sum() != 1:
                ok, witness = False, int(a)
                break
        rep.add("E3-orthosupplement-unique", ok, mode="sampled", witness=witness)

    # E4: a + 1 defined only for a = 0
    col = E.sum_pairs(np.arange(n), E.one)
    offenders = np.flatnonzero(col >= 0)
    ok = offenders.size == 1 and offenders[0] == E.zero
    witness = None
    if not ok and offenders.size:
        witness = int(offenders[np.argmax(offenders != E.zero)])
    rep.add("E4-unit-maximal", ok, witness=witness)

    # cancellation (consequence of E1-E3; checked for table diagnostics)
    rep.checks.append(_cancellation_check(E, budget, seed + 3))
    return rep


def _cancellation_check(E: FiniteAlgebra, budget: int, seed: int) -> Check:
    n = E.size
    if E.dense and n ** 2 <= budget:
        w = kernels.cancellation_violation(E.sum_table)
        return Check("cancellation", w is None, witness=w)
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, n, size=SAMPLE_SIZE)
    ys = rng.integers(0, n, size=SAMPLE_SIZE)
    cs = rng.integers(0, n, size=SAMPLE_SIZE)
    sx = E.sum_pairs(xs, cs)
    sy = E.sum_pairs(ys, cs)
    bad = np.flatnonzero((sx >= 0) & (sx == sy) & (xs != ys))
    witness = (int(xs[bad[0]]), int(ys[bad[0]]), int(cs[bad[0]])) if bad.size else None
    return Check("cancellation", bad.size == 0, mode="sampled", witness=witness)


def _validate_axioms_sampled(E: EffectAlgebra, seed: int) -> Report:
    """Spot checks on sampled elements for carriers that cannot be listed."""
    rep = Report(f"axioms on {E.kind} (sampled)")
    rng = np.random.default_rng(seed)
    m = 200
    elems = E.sample_elements(rng, m)
    ok_comm = ok_assoc = True
    w_comm = w_assoc = None
    for i in range(m):
        a, b, c = elems[i], elems[(i * 7 + 1) % m], elems[(i * 13 + 2) % m]
        ab = E.sum(a, b)
        ba = E.sum(b, a)
        if (ab is None) != (ba is None) or (ab is not None and not E.eq(ab, ba)):
            ok_comm, w_comm = False, i
        if ab is not None:
            abc = E.sum(ab, c)
            if abc is not None:
                bc = E.sum(b, c)
                if bc is None or not E.eq(E.sum(a, bc), abc):
                    ok_assoc, w_assoc = False, i
    rep.add("E1-commutative", ok_comm, mode="sampled", witness=w_comm)
    rep.add("E2-associative", ok_assoc, mode="sampled", witness=w_assoc)
    ok3 = all(E.eq(E.sum(a, E.ortho(a)), E.one) for a in elems[:50])
    rep.add("E3-orthosupplement-valid", ok3, mode="sampled")
    rep.add("E4-unit-maximal", all(E.sum(a, E.one) is None
                                   for a in elems[:50] if not E.eq(a, E.zero)),
            mode="sampled")
    return rep


# ---------------------------------------------------------------------------
# derived structure


def sharp_elements(E: FiniteAlgebra) -> np.ndarray:
    """Indices a with a ^ a' = 0 (only common lower bound is zero)."""
    if not E.enumerable:
        raise NotEnumerable("sharpness scan needs an enumerable carrier")
    if isinstance(E, GridAlgebra):
        c = E.coords
        return np.flatnonzero(((c == 0) | (c == E.k)).all(axis=1))
    if isinstance(E, ProductAlgebra):
        sa = sharp_elements(E.left)
        sb = sharp_elements(E.right)
        return np.sort((sa[:, None] * E.right.size + sb[None, :]).ravel())
    L = E.leq_table
    common = L & L[:, E.ortho_all()]
    return np.flatnonzero(common.sum(axis=0) == 1)


def is_principal(E: FiniteAlgebra, a) -> bool:
    """x, y <= a and x + y defined imply x + y <= a."""
    idx = np.flatnonzero(E.lower_bounds(a))
    if E.dense:  # the block stays int32; sum_pairs would widen it to int64
        sums = E.sum_table[np.ix_(idx, idx)]
        return bool(E.leq_table[sums[sums >= 0], a].all())
    sums = E.sum_pairs(idx[:, None], idx)
    return bool(E.leq_pairs(sums[sums >= 0], a).all())


def mackey_compatible(E: FiniteAlgebra, a, b):
    """Search for a1, b1, c with a = a1+c, b = b1+c, a1+b1+c defined.

    Returns (True, (a1, b1, c)) or (False, None).  The scan walks common
    lower bounds c in ascending index order, so witnesses are canonical.
    """
    if E.dense:  # perfbench/tracing.py times kernels.mackey_witness by name
        c = kernels.mackey_witness(E.sum_table, E.ominus_table, E.leq_table, a, b)
    else:
        cand = np.flatnonzero(E.lower_bounds(a) & E.lower_bounds(b))
        s = E.sum_pairs(E.ominus_pairs(a, cand), E.ominus_pairs(b, cand))
        ok = s >= 0
        ok[ok] = E.sum_pairs(s[ok], cand[ok]) >= 0
        hits = np.flatnonzero(ok)
        c = int(cand[hits[0]]) if hits.size else None
    if c is None:
        return False, None
    return True, (E.ominus(a, c), E.ominus(b, c), c)


def is_archimedean(E: EffectAlgebra, budget: int = TRIPLE_BUDGET, seed: int = 0) -> bool:
    """Multiples n*a <= 1 for all n force a = 0.

    A finite carrier with cancellation is archimedean: n*a = m*a with
    n < m forces (m-n)*a = 0.  Lazy algebras are archimedean by
    construction (operator intervals).
    """
    if not E.enumerable:
        return True
    cached = getattr(E, "_archimedean", None)
    if cached is None:
        cached = _cancellation_check(E, budget, seed).passed
        E._archimedean = cached
    return cached
