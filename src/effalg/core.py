"""Effect algebras: partial sums, derived order, finite carriers, states.

Finite algebras use dense integer indices as element handles.  A carrier
without factors (a table, or the chain {0..k}) keeps dense ``n x n``
lookup tables (sum, order, difference) and answers from them.  A direct
product, a ``ProductAlgebra`` or a grid {0..k}^d with d > 1 (its chain
times a grid of one coordinate less), answers its operations through its
factors at every size, and builds its tables, below a size cap, only for
the scans that read them whole; past the cap it builds none, and the
validators decide it from its factors.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import (
    ElementNotInCarrier,
    InvalidState,
    MalformedInput,
    NotEnumerable,
    NotFaithful,
    SizeLimit,
)

DENSE_LIMIT = 5000  # dense tables need n <= this (3 tables, 9 n^2 bytes)
TRIPLE_BUDGET = 2_000_000_000  # elementary operations of one exact scan; each row counts its own
SAMPLE_SIZE = 20_000
MAX_CARRIER = 600_000  # FiniteAlgebra refuses larger carriers (SizeLimit)


# for a byte of np.packbits output: the position of its first set bit (8 in
# a zero byte)
_LEADING_BIT = np.array([8 - v.bit_length() for v in range(256)], dtype=np.int64)


def _draws(seed: int, *bounds: int) -> list:
    """One array of ``SAMPLE_SIZE`` indices below each bound, drawn from
    the fixed ``seed`` of one sampled scan, so that its verdict, mode and
    witness are the same on every run."""
    rng = np.random.default_rng(seed)
    return [rng.integers(0, n, size=SAMPLE_SIZE) for n in bounds]


def _over_budget(work: str, count: int):
    """None when an exact scan of ``count`` units of ``work`` fits
    ``TRIPLE_BUDGET``; else its ``sampled`` row's detail, naming both."""
    return None if count <= TRIPLE_BUDGET else f"{work} = {count} over the budget {TRIPLE_BUDGET}"


def _no_tables(n: int) -> str:
    """The ``sampled`` row's detail on a carrier past ``DENSE_LIMIT``."""
    return f"n = {n} over the dense limit {DENSE_LIMIT}"


def as_fraction(x) -> Fraction:
    """Parse exact rationals from int/str/Fraction; never from float text."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise MalformedInput(f"not an exact rational: {x!r}")


# ---------------------------------------------------------------------------
# meets in a finite order


def order_bits(below: np.ndarray) -> tuple:
    """``(order, down, exact)`` of the boolean order matrix ``below``
    (``below[c, x]``: c <= x): the indices, those with the most indices
    below first, and per index t the bit rows over ``order`` of the indices
    below t, and of those below t and not above it, t itself included when
    ``t <= t``.  Both bit arrays are row-major, as ``meet_search`` gathers
    whole rows of them."""
    order = np.argsort(-below.sum(axis=0), kind="stable")
    lower = below.T[:, order]  # [t, j]: order[j] <= t
    exact = ~below[:, order]  # [t, j]: not t <= order[j]
    exact &= lower
    exact[order, np.arange(order.size)] = below[order, order]  # t itself iff t <= t
    return (order, np.ascontiguousarray(np.packbits(lower, axis=1)),
            np.ascontiguousarray(np.packbits(exact, axis=1)))


def meet_search(below: np.ndarray, bits: tuple, xs, ys) -> np.ndarray:
    """Pointwise greatest lower bounds in the boolean order matrix
    ``below``, whose ``order_bits`` are ``bits``; -1 where a pair has none.

    Each distinct pair is answered once; a meet is symmetric, so
    ``(x, y)`` and ``(y, x)`` count as one.  The bit rows are read for a
    run of pairs at a time, in steps of ``kernels.CHUNK_BYTES``: the
    candidate is the common lower bound with the most elements below it,
    and it is the meet when every common lower bound lies in its ``exact``
    row, that is below it and, but for itself, not above it.  That holds
    for any relation, and decides every pair that has a meet in a partial
    order.  The pairs it leaves open, those with no meet and the ties of a
    broken table whose order is not antisymmetric or not transitive, get
    ``scalar_meet``, which defines the answer.
    """
    xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=np.int64), ys)
    n = below.shape[0]
    keys, inv = np.unique((np.minimum(xs, ys) * n + np.maximum(xs, ys)).ravel(),
                          return_inverse=True)
    out = np.full(keys.size, -1, dtype=np.int64)
    order, down, exact = bits
    step = max(1, kernels.CHUNK_BYTES // (4 * down.shape[1]))
    for i in range(0, keys.size, step):
        x, y = np.divmod(keys[i:i + step], n)
        common = down[x] & down[y]
        byte = np.argmax(common != 0, axis=1)
        bit = _LEADING_BIT[common[np.arange(x.size), byte]]  # 8 where no bound is common
        top = order[np.minimum(byte * 8 + bit, n - 1)]
        found = (bit < 8) & ~(common & ~exact[top]).any(axis=1)
        out[i:i + step][found] = top[found]
    for i in np.flatnonzero(out < 0):
        m = scalar_meet(below, *divmod(int(keys[i]), n))
        out[i] = -1 if m is None else m
    return out[inv].reshape(xs.shape)


def meet_table(meets, xs) -> np.ndarray:
    """The symmetric int32 table of ``meets(a, b)`` over the pairs of
    members of ``xs``, built in bands of rows (about 64 bytes a pair, in
    steps of ``kernels.CHUNK_BYTES``): ``meets`` gets each unordered pair
    once, the diagonal included, and its answers are mirrored."""
    m, cols = len(xs), np.arange(len(xs))
    out = np.empty((m, m), dtype=np.int32)
    step = max(1, kernels.CHUNK_BYTES // (64 * m))
    for i in range(0, m, step):
        r, c = np.nonzero(np.arange(i, min(i + step, m))[:, None] <= cols)
        out[r + i, c] = out[c, r + i] = meets(xs[r + i], xs[c])
    return out


def scalar_meet(below: np.ndarray, a: int, b: int):
    """The meet of ``a`` and ``b`` in the boolean order matrix ``below``,
    or None: of their common lower bounds, the first that every one of
    them lies below (or the only one)."""
    cand = np.flatnonzero(below[:, a] & below[:, b])
    if cand.size <= 1:  # a broken table can leave a pair no lower bound
        return int(cand[0]) if cand.size else None
    # the maximum, if any, is the candidate every candidate sits below
    ranks = below[cand[:, None], cand].sum(axis=0)
    best = int(np.argmax(ranks))
    return int(cand[best]) if ranks[best] == cand.size else None


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
    parts: list = field(default_factory=list)  # the factor reports behind structural rows

    def add(self, name, passed, mode="full", witness=None, detail=""):
        self.checks.append(Check(name, bool(passed), mode, witness, detail))
        return self.checks[-1]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def sampled(self) -> bool:
        return any(c.mode == "sampled" for c in self.checks)

    def summary(self) -> str:
        lines = [f"{self.title}: {'PASS' if self.passed else 'FAIL'}"]
        lines += [f"  {c}" for c in self.checks]
        lines += [f"  {line}" for part in self.parts for line in part.summary().splitlines()]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        out = {
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
        if self.parts:
            out["parts"] = [part.to_dict() for part in self.parts]
        return out


def remembered(owner, key, make):
    """The report (or row) ``owner`` keeps under ``key``, made by ``make()``
    on the first request.  Validated objects are not changed afterwards, so
    a report stays true for the object that keeps it."""
    if key not in owner._reports:
        owner._reports[key] = make()
    return owner._reports[key]


def product_report(title: str, left: Report, right: Report, detail: str, lift) -> Report:
    """The report of a direct product, from the reports of its factors.

    The law behind each row holds in a direct product exactly when it
    holds in both factors (see ``validate_axioms`` and
    ``compbase.validate_base`` for the argument, law by law), so:

    * a row is present when both factor reports have it, in their order
      (a factor report that stops early stops the product's at that row);
    * it passes iff it passes in both factors;
    * its mode is ``structural`` when both factor rows are ``full`` or
      ``structural``, and ``sampled`` otherwise;
    * a failing row carries the witness of its first failing factor
      (``side`` 0 for the left, 1 for the right), lifted to the product
      by ``lift(name, side, witness)``.

    The factor reports become ``parts`` of the product's report.
    """
    rep = Report(title, parts=[left, right])
    theirs = {c.name: c for c in right.checks}
    for mine in left.checks:
        other = theirs.get(mine.name)
        if other is None:
            continue
        mode = "structural" if {mine.mode, other.mode} <= {"full", "structural"} else "sampled"
        failed = [(side, c) for side, c in enumerate((mine, other)) if not c.passed]
        witness = None
        if failed and failed[0][1].witness is not None:
            side, c = failed[0]
            witness = lift(mine.name, side, c.witness)
        rep.add(mine.name, not failed, mode, witness, detail)
    return rep


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

    def running_sums(self, start, terms) -> list | None:
        """start, then each sum of it and the terms up to one, added in
        order; None once a sum is undefined."""
        acc, out = start, [start]
        for t in terms:
            acc = self.sum(acc, t)
            if acc is None:
                return None
            out.append(acc)
        return out

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
    """Enumerable algebra over dense indices 0..n-1.

    ``factors`` is None, or the pair ``(left, right)`` of a direct product
    that this algebra is, with ``(x, y)`` at index ``x * right.size + y``,
    set before this constructor runs.  Such an algebra answers its
    operations through its factors, and the validators, states,
    ``sharp_elements``, central bases, spectrality and resolutions decide
    it from them.  An algebra without factors keeps its dense tables.
    """

    enumerable = True
    factors = None

    def __init__(self, n, zero, one):
        if n > MAX_CARRIER:
            raise SizeLimit(f"carrier of size {n} exceeds MAX_CARRIER={MAX_CARRIER}")
        self._n = int(n)
        self.zero = int(zero)
        self.one = int(one)
        self._sum_table = None
        self._leq_table = None
        self._ominus_table = None
        self._defined_pairs = None
        self._ortho_vec = None
        self._order_index = None  # order_bits(leq_table), for meet_pairs
        self._reports = {}  # "axioms": the validate_axioms report; "cancellation": its row
        self._central = None  # compbase.central_base(self), built on first use

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
    # A carrier reads its dense table when it has one: a carrier without
    # factors (a table, or the chain of a grid) keeps its tables from
    # construction, and one with factors only once a whole-table scan has
    # built them.  Otherwise it answers through its factors, at every
    # size: one np.divmod per operand and one call per factor.  The full
    # law scans of kernels.py take the tables whole, not through these.

    def sum_pairs(self, xs, ys) -> np.ndarray:
        """Pointwise partial sums; -1 where undefined."""
        if self._sum_table is None:
            return self._through_factors("sum_pairs", xs, ys)
        return self._sum_table[xs, ys].astype(np.int64)

    def leq_pairs(self, xs, ys) -> np.ndarray:
        if self._leq_table is None:
            return self._through_factors("leq_pairs", xs, ys)
        return self._leq_table[xs, ys]

    def ominus_pairs(self, bs, xs) -> np.ndarray:
        """Pointwise b - x; -1 where x is not below b."""
        if self._ominus_table is None:
            return self._through_factors("ominus_pairs", bs, xs)
        return self._ominus_table[bs, xs].astype(np.int64)

    def meet_pairs(self, xs, ys) -> np.ndarray:
        """Pointwise meets; -1 where a pair has none.  Componentwise on a
        carrier with factors: a pair has a meet iff both factor pairs do."""
        if self.factors is None:
            return self._meet_pairs(xs, ys)
        return self._through_factors("meet_pairs", xs, ys)

    def _through_factors(self, op: str, xs, ys):
        """The pair operation ``op`` of a carrier with factors: each factor's
        ``op`` on the factor indices of ``xs`` and ``ys``, and the pairs of
        their answers (``pair_indices``, or a conjunction for the order)."""
        (xa, xb), (ya, yb) = self.split_index(xs), self.split_index(ys)
        left, right = self.factors
        a, b = getattr(left, op)(xa, ya), getattr(right, op)(xb, yb)
        return a & b if op == "leq_pairs" else pair_indices(a, b, right._n)

    def _meet_pairs(self, xs, ys) -> np.ndarray:
        """``meet_pairs`` of a carrier without factors: ``meet_search`` on
        its order table, whose ``order_bits`` it keeps once built."""
        if self._order_index is None:
            self._order_index = order_bits(self.leq_table)
        return meet_search(self.leq_table, self._order_index, xs, ys)

    def ortho_all(self) -> np.ndarray:
        if self._ortho_vec is None:
            self._ortho_vec = self.ominus_pairs(self.one, np.arange(self._n))
        return self._ortho_vec

    # the index layout of a direct product (``factors`` set)

    def split_index(self, idx):
        """Factor indices ``(x, y)`` of product indices (an index array, or
        one index, split without a numpy call)."""
        return divmod(idx, self.factors[1]._n)

    def pair_index(self, ia, ib) -> int:
        return int(ia) * self.factors[1].size + int(ib)

    def embed(self, side: int, x, at_one: bool = False) -> int:
        """The element with ``x`` in factor ``side`` (0 left, 1 right) and
        the other factor's zero there, or its one with ``at_one``."""
        other = self.factors[1 - side]
        y = other.one if at_one else other.zero
        return self.pair_index(x, y) if side == 0 else self.pair_index(y, x)

    # scalar operations: one entry of a table that exists, else through
    # the factors, with one Python divmod per operand and one scalar call
    # per factor, the right one skipped when the left answer decides

    def sum(self, a, b):
        T = self._sum_table
        if T is None:
            left, right = self.factors
            r = right._n
            s = left.sum(a // r, b // r)
            t = None if s is None else right.sum(a % r, b % r)
            return None if t is None else s * r + t
        s = T.item(a, b)
        return None if s < 0 else s

    def leq(self, a, b) -> bool:
        T = self._leq_table
        if T is None:
            left, right = self.factors
            r = right._n
            return left.leq(a // r, b // r) and right.leq(a % r, b % r)
        return T.item(a, b)

    def ominus(self, b, a):
        T = self._ominus_table
        if T is None:
            left, right = self.factors
            r = right._n
            s = left.ominus(b // r, a // r)
            t = None if s is None else right.ominus(b % r, a % r)
            return None if t is None else s * r + t
        c = T.item(b, a)
        return None if c < 0 else c

    def ortho(self, a):
        return int(self.ortho_all()[a])

    # dense tables ----------------------------------------------------------

    def _require_dense(self):
        if not self.dense:
            raise SizeLimit(f"dense tables need n <= {DENSE_LIMIT}, carrier has {self._n}")

    def _tabulate(self, op: str) -> np.ndarray:
        """Dense ``n x n`` table of ``sum``/``leq``/``ominus`` of a carrier
        with factors, row by row through them; grids and products build
        theirs whole from their factors' tables, and the tests take this
        one as the reference for them."""
        n = self._n
        rows = np.arange(n)
        out = np.empty((n, n), dtype=bool if op == "leq" else np.int32)
        for a in range(n):
            out[a] = self._through_factors(f"{op}_pairs", a, rows)
        return out

    @property
    def sum_table(self) -> np.ndarray:
        if self._sum_table is None:
            self._require_dense()
            self._sum_table = self._tabulate("sum")
        return self._sum_table

    @property
    def leq_table(self) -> np.ndarray:
        if self._leq_table is None:
            self._require_dense()
            self._leq_table = self._tabulate("leq")
        return self._leq_table

    @property
    def ominus_table(self) -> np.ndarray:
        if self._ominus_table is None:
            self._require_dense()
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
        """Greatest common lower bound, or None when it does not exist:
        ``meet_pairs`` of one pair."""
        m = int(self.meet_pairs(a, b))
        return None if m < 0 else m


def pair_indices(a, b, size: int):
    """``a * size + b`` for factor answers ``a`` and ``b``, -1 wherever either
    is -1: ``(a | b) >> 63`` is -1 where one is negative, else 0."""
    return (a * size + b) | ((a | b) >> 63)


def _product_table(A: np.ndarray, B: np.ndarray, size: int | None = None) -> np.ndarray:
    """The table of a direct product from the tables of its factors.

    Entry ``((i1, i2), (j1, j2))``, at row ``i1 * len(B) + i2`` and column
    ``j1 * B.shape[1] + j2``, combines ``A[i1, j1]`` and ``B[i2, j2]``.
    Boolean tables (the order, Mackey compatibility, class rows) combine by
    conjunction.  Index tables (sum, difference, meets in P) hold elements
    and combine to the product element ``a * size + b``, with ``size`` the
    size of the right factor's carrier (``len(B)`` by default), and are
    ``-1`` wherever either factor entry is.  The result is written in
    place, so the build needs no product-sized array besides the table.
    """
    rows, cols = A.shape[0] * B.shape[0], A.shape[1] * B.shape[1]
    if A.dtype == bool:
        return (A[:, None, :, None] & B[None, :, None, :]).reshape(rows, cols)
    A4 = A.astype(np.int32, copy=False)[:, None, :, None]
    B4 = B.astype(np.int32, copy=False)[None, :, None, :]
    out = A4 * np.int32(B.shape[0] if size is None else size) + B4
    np.copyto(out, -1, where=A4 < 0)  # the masks broadcast like A4 and B4
    np.copyto(out, -1, where=B4 < 0)
    return out.reshape(rows, cols)


class TableAlgebra(FiniteAlgebra):
    """Finite algebra backed by an explicit dense sum table."""

    kind = "table"

    def __init__(self, sum_table, zero, one, labels=None):
        sum_table = np.asarray(sum_table, dtype=np.int32)
        n = sum_table.shape[0]
        if sum_table.shape != (n, n):
            raise MalformedInput("sum table must be square")
        if n > DENSE_LIMIT:
            raise SizeLimit(f"explicit tables are capped at n={DENSE_LIMIT}")
        if not (0 <= zero < n and 0 <= one < n):
            raise ElementNotInCarrier(f"zero {zero} and one {one} must be indices below {n}")
        super().__init__(n, zero, one)
        self._sum_table = sum_table
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        if len(self.labels) != n:
            raise MalformedInput(f"a table of {n} elements needs {n} labels")
        self._derive_order()

    @classmethod
    def from_triples(cls, n, triples, zero, one, labels=None):
        """Build from explicit (a, b, a+b) triples, each also read as (b, a,
        a+b); everything else undefined."""
        if not 1 <= n <= DENSE_LIMIT:
            raise SizeLimit(f"explicit tables need 1 <= n <= {DENSE_LIMIT}, not {n}")
        S = -np.ones((n, n), dtype=np.int32)
        for a, b, s in triples:
            if not all(isinstance(v, (int, np.integer)) and 0 <= v < n for v in (a, b, s)):
                raise ElementNotInCarrier(f"table entry {[a, b, s]} is not three indices "
                                          f"below {n}")
            S[a, b] = S[b, a] = s
        return cls(S, zero, one, labels=labels)

    def _derive_order(self):
        """``a <= a + b`` and ``(a + b) - a = b`` (the last such b where a
        broken row holds one sum twice) over the defined pairs of a run of rows."""
        n, S = self._n, self._sum_table
        leq = np.zeros((n, n), dtype=bool)
        omi = np.full((n, n), -1, dtype=np.int32)
        step = max(1, kernels.CHUNK_BYTES // (192 * n))  # rows; 1/4 of it, ~48 bytes a pair
        for i in range(0, n, step):
            a, b = np.nonzero(S[i:i + step] >= 0)  # row-major: b ascends in each row
            a += i
            s = S[a, b]
            leq[a, s] = True
            key = a * n + s
            order = np.argsort(key, kind="stable")  # by a, then sum, then b
            last = order[np.diff(key[order], append=-1) != 0]  # the last b of each run
            omi[s[last], a[last]] = b[last]
        self._leq_table = leq
        self._ominus_table = omi
        self._ortho_vec = omi[self.one].copy()

    def label(self, a) -> str:
        return self.labels[a]


class GridAlgebra(FiniteAlgebra):
    """Coordinate grid {0..k}^d with truncated addition: the finite cube of
    numerator vectors over a common denominator k.

    For ``d > 1`` it is the direct product of the chain {0..k} of its most
    significant coordinate ``d - 1`` and the grid of coordinates
    ``0..d-2``, in the product's index layout: ``factors`` is that pair,
    set up here, and the grid answers through it.  All the grids of one
    tower share one ``chain``, the grid with ``d == 1``, which keeps its
    tables, built from its index arithmetic (there ``coords[x] == x``).
    """

    kind = "mv_product"

    def __init__(self, k, d):
        if k < 1 or d < 1:
            raise MalformedInput("need k >= 1 and d >= 1")
        self.k = int(k)
        self.d = int(d)
        n = (k + 1) ** d
        super().__init__(n, 0, n - 1)
        if d > 1:
            rest = self._with_arity(d - 1)
            self.chain = rest.chain
            self.factors = (self.chain, rest)
        # little-endian index: coordinate i carries stride (k+1)^i
        self.strides = (k + 1) ** np.arange(d, dtype=np.int64)
        idx = np.arange(n, dtype=np.int64)
        self.coords = ((idx[:, None] // self.strides[None, :]) % (k + 1)).astype(np.int32)
        self.group_unit = np.full(d, k, dtype=np.int64)
        if d == 1:
            self.chain = self
            self._require_dense()
            x = np.arange(n, dtype=np.int32)
            s, diff = x[:, None] + x, x[:, None] - x
            self._sum_table = np.where(s <= k, s, -1)
            self._leq_table = diff <= 0
            self._ominus_table = np.where(diff >= 0, diff, -1)

    def _with_arity(self, d: int) -> "GridAlgebra":
        return GridAlgebra(self.k, d)

    def index_of(self, coords) -> int:
        coords = np.asarray(coords, dtype=np.int64)
        if coords.shape != (self.d,) or coords.min() < 0 or coords.max() > self.k:
            raise ElementNotInCarrier(f"coords {coords} outside grid (k={self.k}, d={self.d})")
        return int(coords @ self.strides)

    def _meet_pairs(self, xs, ys):
        return np.minimum(xs, ys)  # the chain is totally ordered

    def _tabulate(self, op):
        return _product_table(*(getattr(F, f"{op}_table") for F in self.factors))

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

    def _with_arity(self, d: int) -> "BooleanAlgebra":
        return BooleanAlgebra(d)

    def label(self, a) -> str:
        atoms = [str(i + 1) for i in range(self.d) if self.coords[a][i]]
        return "{" + ",".join(atoms) + "}"


class ProductAlgebra(FiniteAlgebra):
    """Direct product: componentwise sums, order and orthosupplement.

    It answers through its factors at every size (``FiniteAlgebra``), so
    it keeps no ``n x n`` table for its operations; its dense tables
    (``_tabulate``) are built only for the whole-table scans that read
    them.
    """

    kind = "product"

    def __init__(self, left: FiniteAlgebra, right: FiniteAlgebra):
        self.left, self.right = self.factors = (left, right)
        super().__init__(left.size * right.size,
                         left.zero * right.size + right.zero,
                         left.one * right.size + right.one)

    def _tabulate(self, op):
        return _product_table(*(getattr(F, f"{op}_table") for F in self.factors))

    def label(self, a) -> str:
        ia, ib = self.split_index(a)
        return f"({self.left.label(int(ia))}; {self.right.label(int(ib))})"


# ---------------------------------------------------------------------------
# states


class State:
    """Additive unital map into the rational unit interval."""

    def __init__(self, algebra: FiniteAlgebra, values: Iterable):
        self.algebra = algebra
        if not isinstance(values, Iterable):
            raise MalformedInput(f"state values are a list of rationals, not {values!r}")
        self.values = [as_fraction(v) for v in values]
        if len(self.values) != algebra.size:
            raise InvalidState("state needs one value per carrier element")
        self._validated = False

    def __call__(self, a) -> Fraction:
        return self.values[a]

    def is_faithful(self) -> bool:
        return all(v > 0 for i, v in enumerate(self.values) if i != self.algebra.zero)

    def validate(self) -> Report:
        """Unital, into [0, 1] and additive.  Additivity is exact
        (``_additivity_violation``): on a carrier with ``factors`` whose
        zero is a unit of its sum it is decided through them and the row
        is ``structural``; other carriers are scanned pair by pair."""
        E = self.algebra
        rep = Report(f"state on {E.kind} ({E.size} elements)")
        vals = self.values
        rep.add("unital", vals[E.one] == 1 and vals[E.zero] == 0)
        rep.add("range", all(0 <= v <= 1 for v in vals))
        witness = _additivity_violation(E, _common_numerators(vals))
        structural = E.factors is not None and _zero_is_unit(E)
        rep.add("additive", witness is None, mode="structural" if structural else "full",
                witness=witness)
        self._validated = rep.passed
        return rep

    def require_valid(self):
        if not self._validated:
            rep = self.validate()
            if not rep.passed:
                raise InvalidState(rep.summary())

    def require_faithful(self):
        if not self.is_faithful():
            bad = next(i for i, v in enumerate(self.values) if i != self.algebra.zero and v <= 0)
            what = "kills" if self.values[bad] == 0 else "is negative at"
            raise NotFaithful(f"state {what} nonzero element {self.algebra.label(bad)}")


def _common_numerators(values) -> np.ndarray:
    """Numerators of ``values`` over their least common denominator, as
    int64 when s(a) + s(b) cannot overflow and as Python ints otherwise."""
    den = math.lcm(*(v.denominator for v in values))
    num = [v.numerator * (den // v.denominator) for v in values]
    if max(map(abs, num), default=0) < 2 ** 62:
        return np.array(num, dtype=np.int64)
    return np.array(num, dtype=object)


def _scan_additivity(E: FiniteAlgebra, num: np.ndarray):
    """The first defined pair ``(a, b)``, row-major, with ``num[a + b] !=
    num[a] + num[b]``, or None: a scan of every defined pair of a dense
    carrier, products included, over its sum table."""
    pairs = E.defined_pairs
    bad = np.flatnonzero(num[pairs.s] != num[pairs.a] + num[pairs.b])
    return (int(pairs.a[bad[0]]), int(pairs.b[bad[0]])) if bad.size else None


def _defined_pair_chunks(E: FiniteAlgebra):
    """The defined pairs ``(a, b, a + b)`` of ``E`` as index arrays, in
    chunks of about ``kernels.CHUNK_BYTES``.  On a carrier with factors
    they are the pairs of its factors' defined pairs, since a sum is
    defined iff both factor sums are, so no product table is built."""
    if E.factors is None:
        pairs = E.defined_pairs
        yield pairs.a, pairs.b, pairs.s
        return
    left, right = E.factors
    r = right.size
    for la, lb, ls in _defined_pair_chunks(left):
        for ra, rb, rs in _defined_pair_chunks(right):
            step = max(1, kernels.CHUNK_BYTES // (24 * max(ra.size, 1)))
            for i in range(0, la.size, step):
                yield tuple((x[i:i + step, None] * r + y).ravel()
                            for x, y in ((la, ra), (lb, rb), (ls, rs)))


def _zero_is_unit(E: FiniteAlgebra) -> bool:
    """``x + 0 = 0 + x = x`` for every x; componentwise in a product, so
    only carriers without factors are read."""
    if E.factors is not None:
        return all(_zero_is_unit(F) for F in E.factors)
    xs = np.arange(E.size)
    return bool((E.sum_pairs(xs, E.zero) == xs).all() and (E.sum_pairs(E.zero, xs) == xs).all())


def _additivity_violation(E: FiniteAlgebra, num: np.ndarray):
    """A defined pair ``(a, b)`` with ``num[a + b] != num[a] + num[b]``, or
    None when the map ``num`` (one value per element) is additive.

    On a direct product whose zero is a unit of its sum
    (``_zero_is_unit``), ``(x, y) = (x, 0) + (0, y)`` is defined for
    every element, so an additive f has ``f(x, y) = f(x, 0) + f(0, y)``, and
    ``(x1, 0) + (x2, 0) = (x1 + x2, 0)`` makes both restrictions
    ``x -> f(x, 0)`` and ``y -> f(0, y)`` additive on their factors.
    Conversely these give ``f(x1 + x2, y1 + y2) = f(x1 + x2, 0) +
    f(0, y1 + y2) = f(x1, y1) + f(x2, y2)``.  So the restrictions are
    decided on the factors, the left first, through their own factors if
    they have them, and a factor's witness lifts by pairing each element
    with the other factor's zero; then the first element ``(x, y)`` in
    index order that breaks the decomposition is the pair ``((x, 0), (0,
    y))``.  No product-sized pair list or table is built.  A carrier
    without factors gets ``_scan_additivity``.

    A carrier with factors whose zero is no unit is scanned over the
    pairs of its factors' defined pairs (``_defined_pair_chunks``), and
    the witness is the first failing pair in row-major order, as
    ``_scan_additivity`` would find it on the product's table.
    """
    if E.factors is None:
        return _scan_additivity(E, num)
    if not _zero_is_unit(E):
        n, first = E.size, None
        for a, b, s in _defined_pair_chunks(E):
            bad = num[s] != num[a] + num[b]
            if bad.any():
                key = int((a[bad] * n + b[bad]).min())
                first = key if first is None else min(first, key)
        return None if first is None else divmod(first, n)
    left, right = E.factors
    f = num.reshape(left.size, right.size)
    restrictions = (f[:, right.zero], f[left.zero, :])
    for side, (F, g) in enumerate(zip(E.factors, restrictions)):
        w = _additivity_violation(F, g)
        if w is not None:
            return tuple(E.embed(side, x) for x in w)
    bad = np.flatnonzero(f != restrictions[0][:, None] + restrictions[1])
    if not bad.size:
        return None
    x, y = divmod(int(bad[0]), right.size)
    return E.embed(0, x), E.embed(1, y)


# ---------------------------------------------------------------------------
# axiom validation


def validate_axioms(E: EffectAlgebra) -> Report:
    """Check E1-E4 plus orthosupplement uniqueness and cancellation.

    A row whose exact scan would pass ``TRIPLE_BUDGET`` (E2: its defined
    triples) runs on ``SAMPLE_SIZE`` seeded draws and is ``sampled``, with a
    ``detail`` that names the count and the bound.  A finite algebra keeps
    its one report, under ``"axioms"``.  The scan (``_scan_axioms``) would
    sample every row of a carrier past ``DENSE_LIMIT`` too, naming ``n``
    and the limit, but none reaches it here: a table or chain that large is
    refused when it is built, and a larger grid or product has factors.

    A direct product (an algebra with ``factors``) is not scanned: its
    factors are validated (each through its own factors, if it has them)
    and its rows are ``structural`` (``product_report``).  That covers a
    ``ProductAlgebra`` and a grid ``{0..k}^d`` with ``d > 1`` (Boolean
    algebras included): a grid is the direct product of the chain of its
    top coordinate and the grid of the others, in the same index layout,
    with tables built by ``_product_table``, so the argument below applies
    to it as written.  A product's operations are componentwise,
    ``(a1, a2) + (b1, b2) = (a1 + b1, a2 + b2)`` defined iff both sums are,
    so each law holds in the product iff it holds in both factors.  The
    factor witness lifts to the product by pairing each element with the
    other factor's zero, which sends it to a witness there when that
    factor is an effect algebra; the verdict of the whole report is exact
    in any case, since the product is an effect algebra iff both factors
    are.

    * E1: ``a + b`` and ``b + a`` agree, in definedness and value, iff they
      agree in each component; ``0 + 0 = 0`` in the other factor lifts
      ``(a, b)``.
    * E2: ``(a + b) + c`` is defined iff it is in each component, and then
      ``a + (b + c)`` is defined and equal iff it is in each component.
    * E3: the orthosupplement of ``(a1, a2)`` is ``(a1', a2')``: it exists
      and sums with ``(a1, a2)`` to ``1`` iff that holds in both factors.
      Uniqueness: the solutions of ``a + x = 1`` are the pairs of factor
      solutions, so their count is the product of the factor counts, which
      is 1 iff both are.
    * E4: ``(a1, a2) + 1`` is defined iff ``a1 + 1`` and ``a2 + 1`` are;
      with ``0 + 1`` defined in the other factor, ``a + 1`` is defined off
      ``a = 0`` in a factor iff it is in the product.
    * cancellation: ``x + c = y + c`` holds iff it holds componentwise, and
      ``x != y`` iff some component differs.
    """
    if not E.enumerable:
        return _validate_axioms_sampled(E)
    return _axioms(E)


def _axioms(E: FiniteAlgebra) -> Report:
    """``validate_axioms`` of a finite algebra, kept on ``E``."""
    def make():
        if E.factors is None:
            return _scan_axioms(E)
        left, right = E.factors

        def lift(name, side, w):
            if isinstance(w, tuple):
                return tuple(E.embed(side, x) for x in w)
            return E.embed(side, w)

        return product_report(
            f"axioms on {E.kind} ({E.size} elements)",
            _axioms(left), _axioms(right),
            f"direct product {left.kind} x {right.kind}", lift)
    return remembered(E, "axioms", make)


def _scan_axioms(E: FiniteAlgebra) -> Report:
    """The axiom scans over the whole carrier (see ``validate_axioms``);
    ``validate_axioms`` runs them on every finite carrier without
    ``factors``, and the tests take them as the reference for products."""
    n = E.size
    rep = Report(f"axioms on {E.kind} ({n} elements)")
    dense = E.dense

    # E1: commutativity
    if dense:
        S = E.sum_table
        bad = np.argwhere(S != S.T)
        rep.add("E1-commutative", bad.size == 0, witness=tuple(bad[0]) if bad.size else None)
    else:
        xs, ys = _draws(0, n, n)
        mism = np.flatnonzero(E.sum_pairs(xs, ys) != E.sum_pairs(ys, xs))
        rep.add("E1-commutative", mism.size == 0, mode="sampled", detail=_no_tables(n),
                witness=(int(xs[mism[0]]), int(ys[mism[0]])) if mism.size else None)

    # E2: associativity, on the defined triples: each defined pair (a, b)
    # with every c in the row of a + b
    pairs = E.defined_pairs if dense else None
    over = (_over_budget("defined triples", int(np.diff(pairs.indptr)[pairs.s].sum()))
            if dense else _no_tables(n))
    if over is None:
        w = kernels.associativity_violation(E.sum_table, pairs)
        rep.add("E2-associative", w is None, witness=w)
    else:
        xs, ys, zs = _draws(1, n, n, n)
        ab = E.sum_pairs(xs, ys)
        ok = ab >= 0
        abc = np.where(ok, E.sum_pairs(np.maximum(ab, 0), zs), -1)
        ok &= abc >= 0
        bc = E.sum_pairs(ys, zs)
        a_bc = np.where(bc >= 0, E.sum_pairs(xs, np.maximum(bc, 0)), -1)
        bad = np.flatnonzero(ok & ((bc < 0) | (a_bc != abc)))
        rep.add("E2-associative", bad.size == 0, mode="sampled", detail=over,
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
        rng = np.random.default_rng(2)
        ok = True
        witness = None
        for a in rng.integers(0, n, size=8):
            row = E.sum_pairs(a, np.arange(n))
            if (row == E.one).sum() != 1:
                ok, witness = False, int(a)
                break
        rep.add("E3-orthosupplement-unique", ok, "sampled", witness, _no_tables(n))

    # E4: a + 1 defined only for a = 0
    col = E.sum_pairs(np.arange(n), E.one)
    offenders = np.flatnonzero(col >= 0)
    ok = offenders.size == 1 and offenders[0] == E.zero
    witness = None
    if not ok and offenders.size:
        witness = int(offenders[np.argmax(offenders != E.zero)])
    rep.add("E4-unit-maximal", ok, witness=witness)

    # cancellation (consequence of E1-E3; checked for table diagnostics)
    rep.checks.append(_cancellation_check(E))
    return rep


def _cancellation_check(E: FiniteAlgebra) -> Check:
    """The ``cancellation`` row, kept on ``E``: ``is_archimedean`` may read
    it before the axiom scan appends it."""
    def scan():
        n = E.size
        if E.dense:
            w = kernels.cancellation_violation(E.sum_table)
            return Check("cancellation", w is None, witness=w)
        xs, ys, cs = _draws(3, n, n, n)
        sx = E.sum_pairs(xs, cs)
        sy = E.sum_pairs(ys, cs)
        bad = np.flatnonzero((sx >= 0) & (sx == sy) & (xs != ys))
        witness = (int(xs[bad[0]]), int(ys[bad[0]]), int(cs[bad[0]])) if bad.size else None
        return Check("cancellation", bad.size == 0, "sampled", witness, _no_tables(n))
    return remembered(E, "cancellation", scan)


def _validate_axioms_sampled(E: EffectAlgebra) -> Report:
    """Spot checks on sampled elements for carriers that cannot be listed.

    Each law forms its sums on stacks of the 200 sampled elements, through
    the carrier's ``sum_pairs`` (the sums and whether each is defined, each
    entry with the bits of its own ``sum``) and ``eq_pairs``, with one
    ``sum_pairs`` call per stage: E1 with the b + c that E2 reads, then E2,
    E3 and E4.  E1 and E2 name the last failing i, as a loop over i does.
    A sum that a later sum or ``eq`` reads but that is undefined fails its
    law."""
    rep = Report(f"axioms on {E.kind} (sampled)")
    rng = np.random.default_rng(0)
    m = 200
    elems = np.array(E.sample_elements(rng, m))
    i = np.arange(m)
    a, b, c = elems, elems[(i * 7 + 1) % m], elems[(i * 13 + 2) % m]

    def add(name, bad):  # a row whose witness is the last failing i
        hits = np.flatnonzero(bad)
        rep.add(name, not hits.size, mode="sampled",
                witness=int(hits[-1]) if hits.size else None)

    (ab, ba, bc), ok = E.sum_pairs(np.stack([a, b, b]), np.stack([b, a, c]))
    ab_ok, ba_ok, bc_ok = ok
    add("E1-commutative", (ab_ok != ba_ok) | (ab_ok & ~E.eq_pairs(ab, ba)))
    (abc, a_bc), (abc_ok, a_bc_ok) = E.sum_pairs(np.stack([ab, a]), np.stack([c, bc]))
    add("E2-associative",
        ab_ok & abc_ok & ~(bc_ok & a_bc_ok & E.eq_pairs(a_bc, abc)))
    head = elems[:50]
    s, ok = E.sum_pairs(head, E.ortho(head))
    rep.add("E3-orthosupplement-valid", bool((ok & E.eq_pairs(s, E.one)).all()),
            mode="sampled")
    ok = E.sum_pairs(head, E.one)[1]
    rep.add("E4-unit-maximal", not (ok & ~E.eq_pairs(head, E.zero)).any(), mode="sampled")
    return rep


# ---------------------------------------------------------------------------
# derived structure


def sharp_elements(E: FiniteAlgebra) -> np.ndarray:
    """Indices a with a ^ a' = 0 (only common lower bound is zero); none
    without an orthosupplement, whose index -1 names no element."""
    if not E.enumerable:
        raise NotEnumerable("sharpness scan needs an enumerable carrier")
    if E.factors is not None:  # a ^ a' is componentwise
        left, right = E.factors
        sa, sb = sharp_elements(left), sharp_elements(right)
        return np.sort((sa[:, None] * right.size + sb[None, :]).ravel())
    L, ortho = E.leq_table, E.ortho_all()
    return np.flatnonzero(((L & L[:, ortho]).sum(axis=0) == 1) & (ortho >= 0))


def is_principal(E: FiniteAlgebra, a) -> bool:
    """x, y <= a and x + y defined imply x + y <= a: the conjunction of
    the coordinates' answers on a carrier with factors whose zero is a unit
    of both sums (``_zero_is_unit``), as ``(x1, 0)`` and ``(y1, 0)`` lift a
    failing factor pair (without it, a factor with no pair below its
    coordinate makes the product principal vacuously); elsewhere one
    ``sum_pairs`` and one ``leq_pairs`` call over the pairs of lower bounds."""
    if E.factors is not None and _zero_is_unit(E):
        return all(map(is_principal, E.factors, E.split_index(a)))
    idx = np.flatnonzero(E.lower_bounds(a))
    sums = E.sum_pairs(idx[:, None], idx)
    return bool(E.leq_pairs(sums[sums >= 0], a).all())


def mackey_compatible(E: FiniteAlgebra, a, b):
    """Search for a1, b1, c with a = a1+c, b = b1+c, a1+b1+c defined.

    Returns (True, (a1, b1, c)) or (False, None).  The scan walks common
    lower bounds c in ascending index order, so witnesses are canonical.
    On a carrier with factors it pairs the factors' answers: order, sums
    and differences are componentwise, so the witnesses are the pairs of
    factor witnesses, and the first is the pair of the first ones.
    """
    if E.factors is not None:
        (left, right), (a1, a2), (b1, b2) = E.factors, E.split_index(a), E.split_index(b)
        ok, w1 = mackey_compatible(left, a1, b1)
        if ok:
            ok, w2 = mackey_compatible(right, a2, b2)
        return (True, tuple(map(E.pair_index, w1, w2))) if ok else (False, None)
    cand = np.flatnonzero(E.lower_bounds(a) & E.lower_bounds(b))
    s = E.sum_pairs(E.ominus_pairs(a, cand), E.ominus_pairs(b, cand))
    ok = s >= 0
    ok[ok] = E.sum_pairs(s[ok], cand[ok]) >= 0
    hits = np.flatnonzero(ok)
    if not hits.size:
        return False, None
    c = int(cand[hits[0]])
    return True, (E.ominus(a, c), E.ominus(b, c), c)


def is_archimedean(E: EffectAlgebra) -> bool:
    """Multiples n*a <= 1 for all n force a = 0.

    A finite carrier with cancellation is archimedean: n*a = m*a with
    n < m forces (m-n)*a = 0.  On a direct product the verdict holds iff
    it holds in both factors, as the product's ``cancellation`` row does;
    on any other carrier it is the ``cancellation`` row alone
    (``_cancellation_check``), which ``E`` keeps and the axiom scan
    appends.  Lazy algebras are archimedean by construction (operator
    intervals).
    """
    if not E.enumerable:
        return True
    if E.factors is not None:
        return all(is_archimedean(F) for F in E.factors)
    return _cancellation_check(E).passed
