"""Digest the verdicts of ``verify_resolution`` on one checkout.

    python3 scripts/verify_digest.py CHECKOUT

Imports effalg from ``CHECKOUT/src`` and verifies seeded families on
each instance: every element's computed resolution, the same perturbed by
``perfbench.checks.perturb``, and its neighbour's resolution.

* ``mv(8,3)``, ``mv(16,2)`` (depths 3 and 5) and ``boolean(2) x mv(8,3)``
  (depths 2 and 4): seeded elements; the neighbour is the next one drawn.
* ``matrix(2)``, ``matrix(3)`` and ``matrix(4)`` (depths 3 to 6):
  effects of ``perfbench``'s matrix stream, whose neighbour is the next
  effect, and edge spectra, with one eigenvalue at j/32 + d and the
  neighbour's at j/32 - d on the same eigenvectors, d from 5e-10 to 1e-6.
* the chain ``mv(16,1)`` and ``restrict(mv(8,3), (8,8,0))``, a table of
  81 elements (depths 3 and 5): two bases without factors, each its own
  one leaf in clause (iv); families as on the grids.
* ``matrix(2)``, ``matrix(3)`` and ``matrix(4)`` at the edge of clause
  (ii) (depths 3 to 6): on stream effects, the resolution with one run p
  moved to p + e x x^T, x a unit vector in the kernel of the next run q,
  so that q - p has the least eigenvalue -e, e = tol +- 1e-12..1e-10;
  and the resolution with two neighbouring runs swapped, which is not
  monotone.

It prints one line per instance: the sha256 of every family's report
rows (name, verdict, mode, witness and detail; or the error a step
raised), the number of families, and the instance.  Then, after those
lines, one more per instance, named ``resolutions on`` the instance: the
sha256 of what the resolution routes return on each element and depth of
its families, the number of them, and the instance.  Per element and
depth it hashes the jumps of ``binary_resolution``, ``rational_resolution``
with ``details=True`` at 1/3, 2/5 and 1/5, ``expectation_bounds`` on a
seeded state of the instance, and the nodes of ``splitting_tree``: every
``(w, u_w, c_w)``, sorted by w.  Each is hashed as the bits of its value
or the class and message of the error it raised.  Two checkouts that reach the same
verdicts and witnesses, and the same resolutions bit for bit, print the
same lines.
``perfbench`` is imported from the checkout that holds this script,
never changed.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAMBDAS = (Fraction(1, 3), Fraction(2, 5), Fraction(1, 5))
FINITE_ELEMENTS = 40
MATRIX_DEPTHS = (3, 4, 5, 6)
STREAM_EFFECTS = 12
OFFSETS = (5e-10, 1e-9, 2e-9, 1e-8, 1e-7, 1e-6)


def outcome(fn) -> list:
    """The rows of the report ``fn`` returns, or the class of its error."""
    from effalg.errors import EffalgError

    try:
        rep = fn()
    except EffalgError as exc:
        return [type(exc).__name__]
    return [(c.name, c.passed, c.mode, repr(c.witness), c.detail) for c in rep.checks]


def finite_cases(E, cb, rng, depths):
    """``(a, family, n)``: own, perturbed and neighbour family per element."""
    from effalg import spectral
    from perfbench import checks

    elements = rng.permutation(E.size)[:FINITE_ELEMENTS + 1].tolist()
    for n in depths:
        for a, b in zip(elements, elements[1:]):
            own = spectral.binary_resolution(cb, a, n).entries
            yield a, own, n
            yield a, checks.perturb(own, E.zero, lambda p, q: p == q), n
            yield a, spectral.binary_resolution(cb, b, n).entries, n


def matrix_cases(E, cb, rng, depths):
    """``(a, family, n)`` on stream effects and edge spectra, as above; an
    element whose tree cuts an eigenvalue cluster has no family."""
    import numpy as np

    from effalg import spectral
    from effalg.errors import InternalConsistencyError
    from effalg.matrices import sym
    from perfbench import checks
    from perfbench.wl_resolve import matrix_stream

    def same(p, q):
        return np.allclose(p, q, atol=1e-9)

    def family(x, n):
        try:
            return spectral.binary_resolution(cb, x, n).entries
        except InternalConsistencyError:
            return None

    stream = matrix_stream(rng, E.dim)
    pairs = [(next(stream)[0], next(stream)[0]) for _ in range(STREAM_EFFECTS)]
    for j in range(1, 32, 3):
        for d in OFFSETS:
            others = sorted(rng.choice([1, 3, 5, 13, 15], size=E.dim - 1, replace=False) / 16)
            q = np.linalg.qr(rng.standard_normal((E.dim, E.dim)))[0]
            pairs.append(tuple(sym(q @ np.diag([j / 32 + s * d] + others) @ q.T) for s in (1, -1)))
    for n in depths:
        for a, b in pairs:
            fa, fb = family(a, n), family(b, n)
            for x, own, other in ((a, fa, fb), (b, fb, fa)):
                yield from ((x, fam, n) for fam in (own, other) if fam is not None)
                if own is not None:
                    yield x, checks.perturb(own, E.zero, same), n


def clause_ii_edge_cases(E, cb, rng, depths):
    """``(a, family, n)`` whose clause (ii) sits at the tolerance edge, and
    one family per effect and depth that is not monotone, as above."""
    import numpy as np

    from effalg import spectral
    from perfbench.wl_resolve import matrix_stream

    stream = matrix_stream(rng, E.dim)
    effects = [next(stream)[0] for _ in range(STREAM_EFFECTS)]
    for n in depths:
        for a in effects:
            res = spectral.binary_resolution(cb, a, n)
            runs = res.runs()
            family = dict(res.entries)
            for i in range(len(runs) - 2):  # the next run is not the unit
                (lo, hi, p), (_, _, q) = runs[i], runs[i + 1]
                vals, vecs = np.linalg.eigh(q)
                x = vecs[:, 0]  # an eigenvalue 0 of q
                for d in (-1e-10, -1e-11, -1e-12, 1e-12, 1e-11, 1e-10):
                    moved = p + (E.tol + d) * np.outer(x, x)
                    yield a, {**family, **{k: moved for k in grid_points(lo, hi, n)}}, n
            if len(runs) >= 3:
                (lo, _, p), (_, hi, q) = runs[0], runs[1]
                swapped = {k: q for k in grid_points(lo, runs[0][1], n)}
                swapped.update({k: p for k in grid_points(runs[1][0], hi, n)})
                yield a, {**family, **swapped}, n


def grid_points(lo, hi, n):
    """The grid points j / 2^n for j from lo to hi."""
    return [Fraction(j, 1 << n) for j in range(lo, hi + 1)]


def bits(x):
    """x with each array as its shape and bytes, so that equal bits hash
    equal and nothing else does."""
    import numpy as np

    if isinstance(x, np.ndarray):
        return x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(bits(y) for y in x)
    return repr(x)


def value(fn):
    """The bits of what ``fn`` returns, or the class and message of its error."""
    from effalg.errors import EffalgError

    try:
        return bits(fn())
    except EffalgError as exc:
        return type(exc).__name__, str(exc)


def resolution_rows(cb, state, a, n) -> list:
    """What the resolution routes return on a at depth n, as above."""
    from effalg import spectral

    def rational(lam):
        got = spectral.rational_resolution(cb, a, lam, n, details=True)
        return got.projection, got.stable_from, got.depth

    def nodes():
        tree = spectral.splitting_tree(cb, a, n)
        return sorted([(w, u, tree.c(w)) for level in range(n + 1) for w, u in tree.layer(level)],
                      key=lambda node: node[0])

    return ([value(lambda: spectral.binary_resolution(cb, a, n).jumps)]
            + [value(lambda: rational(lam)) for lam in LAMBDAS]
            + [value(lambda: spectral.expectation_bounds(cb, a, state, n)), value(nodes)])


def elements_of(cases):
    """The distinct ``(a, n)`` of a case list, in order of first appearance."""
    seen = {}
    for a, _, n in cases:
        seen.setdefault((bits(a), n), (a, n))
    return list(seen.values())


def seeded_state(E, rng):
    """A state of E from rng: a density matrix on a matrix carrier, a
    weighted state on a grid, and on a product a mixture of its factors'
    states."""
    import numpy as np

    from effalg import core, instances, matrices

    if isinstance(E, matrices.MatrixEffectAlgebra):
        x = rng.standard_normal((E.dim, E.dim))
        rho = x @ x.T
        return matrices.DensityState(E, rho / np.trace(rho))
    if isinstance(E, core.ProductAlgebra):
        left, right = seeded_state(E.left, rng), seeded_state(E.right, rng)
        mix = Fraction(int(rng.integers(1, 8)), 8)
        ia, ib = E.split_index(np.arange(E.size))
        return core.State(E, [mix * left(int(x)) + (1 - mix) * right(int(y))
                              for x, y in zip(ia.tolist(), ib.tolist())])
    raw = rng.integers(1, 9, E.d).tolist()
    return instances.weighted_state(E, [Fraction(x, sum(raw)) for x in raw])


def interval_state(G, E, rng):
    """A state of an interval E = [0, q] of the grid G
    (``comparability.restrict``) from rng: a weighted state of G on the
    coordinates that q fills, read through ``E.parent_index``."""
    from effalg import core, instances

    top = G.coords[E.parent_index[E.one]].tolist()
    raw = [x if t == G.k else 0 for x, t in zip(rng.integers(1, 9, G.d).tolist(), top)]
    state = instances.weighted_state(G, [Fraction(x, sum(raw)) for x in raw])
    return core.State(E, [state(g) for g in E.parent_index.tolist()])


def instances_to_digest():
    """``(name, (E, cb), cases, depths, state)`` for each instance, in print
    order; ``state(E, rng)`` makes the seeded state of the resolution lines."""
    from functools import partial

    from effalg import comparability, instances

    mv83 = instances.make_mv_product(8, 3)
    yield "mv(8,3)", mv83, finite_cases, (3, 5), seeded_state
    yield "mv(16,2)", instances.make_mv_product(16, 2), finite_cases, (3, 5), seeded_state
    yield ("boolean(2) x mv(8,3)", instances.make_product(instances.make_boolean(2), mv83),
           finite_cases, (2, 4), seeded_state)
    for dim in (2, 3, 4):
        yield (f"matrix({dim})", instances.make_matrix(dim), matrix_cases, MATRIX_DEPTHS,
               seeded_state)
    yield "mv(16,1)", instances.make_mv_product(16, 1), finite_cases, (3, 5), seeded_state
    E, cb = mv83
    yield ("restrict(mv(8,3), (8,8,0))", comparability.restrict(cb, E.index_of([8, 8, 0])),
           finite_cases, (3, 5), partial(interval_state, E))
    for dim in (2, 3, 4):
        yield (f"matrix({dim}) at the edge of (ii)", instances.make_matrix(dim),
               clause_ii_edge_cases, MATRIX_DEPTHS, seeded_state)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", help="a directory holding src/effalg")
    args = parser.parse_args(argv)
    src = Path(args.checkout).resolve() / "src"
    if not (src / "effalg" / "spectral.py").is_file():
        print(f"error: {args.checkout!r} holds no src/effalg/spectral.py", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import numpy as np

    from effalg import spectral

    todo = list(instances_to_digest())
    for seed, (name, (E, cb), cases, depths, _) in enumerate(todo):
        digest, count = hashlib.sha256(), 0
        for a, fam, n in cases(E, cb, np.random.default_rng(seed), depths):
            rows = outcome(lambda: spectral.verify_resolution(cb, a, fam, n))
            digest.update(repr(rows).encode())
            count += 1
        print(digest.hexdigest(), count, name, flush=True)
    # the resolution lines, on the elements and depths of the lines above
    for seed, (name, (E, cb), cases, depths, state) in enumerate(todo):
        digest = hashlib.sha256()
        elements = elements_of(cases(E, cb, np.random.default_rng(seed), depths))
        s = state(E, np.random.default_rng(len(todo) + seed))
        for a, n in elements:
            digest.update(repr(resolution_rows(cb, s, a, n)).encode())
        print(digest.hexdigest(), len(elements), f"resolutions on {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
