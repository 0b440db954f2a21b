"""resolve: spectral resolutions on instances built and validated once.

Set-up builds mv(8,3), mv(16,2), boolean(2) x mv(8,3) and matrix(3) with
validation, judges each spectral and validates one seeded state per finite
instance.  One cycle then runs every op kind once on each instance, each
on the next element of that instance's seeded stream.  Depths keep every
op in the millisecond range (see README).
"""

from __future__ import annotations

from fractions import Fraction

CYCLE_S = 2.5  # nominal wall time of one cycle in all its passes; sets the cycle count
PASSES = 5  # the op sequence runs five times; an op's latency is its fastest pass
LAMBDAS = (Fraction(1, 3), Fraction(2, 3), Fraction(1, 5))
# op kind -> depth, per instance; matrices have no expect op
DEPTHS = {
    "mv(8,3)": {"binary": 8, "rational": 8, "expect": 8, "verify": 5},
    "mv(16,2)": {"binary": 8, "rational": 8, "expect": 8, "verify": 5},
    "boolean(2) x mv(8,3)": {"binary": 6, "rational": 6, "expect": 6, "verify": 4},
    "matrix(3)": {"binary": 8, "rational": 8, "verify": 5},
}


def _weights(rng, count):
    raw = [int(x) for x in rng.integers(1, 9, count)]
    return [Fraction(x, sum(raw)) for x in raw]


def matrix_stream(rng, dim):
    """Seeded effects with distinct eigenvalues j/16, randomly rotated:
    depth 4 out-resolves them, and none sits within 2^-7 of a lambda."""
    import numpy as np

    while True:
        vals = np.sort(rng.choice(17, size=dim, replace=False)) / 16.0
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        a = q @ np.diag(vals) @ q.T
        yield (a + a.T) / 2.0, [float(v) for v in vals]


def main(run, seed, seconds):
    import numpy as np

    from effalg import core, instances, spectral
    from perfbench import checks
    from perfbench.common import timed_setups

    cycles = max(1, round(seconds / CYCLE_S))
    run.passes = PASSES
    rng = np.random.default_rng(seed)
    w83, w162, wb, wm = (_weights(rng, d) for d in (3, 2, 2, 3))
    mix = Fraction(int(rng.integers(1, 8)), 8)  # product state: mix * left + (1 - mix) * right
    streams = {}  # (instance, kind) -> distinct elements in seeded order
    sizes = {"mv(8,3)": 729, "mv(16,2)": 289, "boolean(2) x mv(8,3)": 2916}
    for name, kinds in DEPTHS.items():
        for kind in kinds:
            if name == "matrix(3)":
                gen = matrix_stream(rng, 3)
                streams[name, kind] = [next(gen) for _ in range(cycles)]
            else:
                order = rng.permutation(sizes[name])
                streams[name, kind] = [int(order[i % order.size]) for i in range(cycles)]


    def build():
        mv83 = instances.make_mv_product(8, 3)
        out = {
            "mv(8,3)": mv83,
            "mv(16,2)": instances.make_mv_product(16, 2),
            "boolean(2) x mv(8,3)": instances.make_product(instances.make_boolean(2), mv83),
            "matrix(3)": instances.make_matrix(3),
        }
        spectral_ok = {name: cb.is_spectral() for name, (E, cb) in out.items()}
        states = {
            "mv(8,3)": instances.weighted_state(out["mv(8,3)"][0], w83),
            "mv(16,2)": instances.weighted_state(out["mv(16,2)"][0], w162),
        }
        P = out["boolean(2) x mv(8,3)"][0]
        left = instances.weighted_state(P.left, wb)
        right = instances.weighted_state(P.right, wm)
        ia, ib = P.split_index(np.arange(P.size))
        states["boolean(2) x mv(8,3)"] = core.State(
            P, [mix * left(int(x)) + (1 - mix) * right(int(y)) for x, y in zip(ia, ib)])
        for s in states.values():
            s.require_valid()
        warm(out, states)  # fills the per-base caches the ops read
        return out, states, spectral_ok

    def warm(insts, states):
        for name, (E, cb) in insts.items():
            a = E.random_effect(np.random.default_rng(0)) if name == "matrix(3)" else E.size // 2
            spectral.binary_resolution(cb, a, 4)
            spectral.rational_resolution(cb, a, LAMBDAS[0], 4)
            if name in states:
                spectral.expectation_bounds(cb, a, states[name], 4)

    insts, states, spectral_ok = timed_setups(run, build)
    for name, ok in spectral_ok.items():
        if not ok:
            run.check(name, "instance judged not spectral")

    ops = []
    for cycle in range(cycles):
        lam = LAMBDAS[cycle % len(LAMBDAS)]
        for name, kinds in DEPTHS.items():
            E, cb = insts[name]
            for kind, n in kinds.items():
                item = streams[name, kind][cycle]
                a, eig = item if name == "matrix(3)" else (item, None)
                what = f"{kind} {name} depth {n} element {cycle}"
                if kind == "binary":
                    ops.append((what, lambda cb=cb, a=a, n=n: spectral.binary_resolution(cb, a, n),
                                lambda res, E=E, a=a, eig=eig, n=n, name=name:
                                _check_binary(checks, name, E, a, eig, n, res)))
                elif kind == "rational":
                    ops.append((what, lambda cb=cb, a=a, lam=lam, n=n:
                                spectral.rational_resolution(cb, a, lam, n),
                                lambda got, E=E, a=a, lam=lam, name=name:
                                _check_rational(checks, name, E, a, lam, got)))
                elif kind == "expect":
                    value = _state_value(E, a, name, w83, w162, wb, wm, mix)
                    ops.append((what, lambda cb=cb, a=a, s=states[name], n=n:
                                spectral.expectation_bounds(cb, a, s, n),
                                lambda b, n=n, value=value: checks.check_expect(*b, value, n)))
                else:  # the family to verify is computed here, untimed
                    family = spectral.binary_resolution(cb, a, n).entries
                    same = (lambda p, q: p == q) if eig is None else \
                        (lambda p, q: np.allclose(p, q, atol=1e-9))
                    bad = checks.perturb(family, E.zero, same)
                    ops.append((what, lambda cb=cb, a=a, f=family, n=n:
                                spectral.verify_resolution(cb, a, f, n),
                                lambda rep, cb=cb, a=a, bad=bad, n=n: checks.check_verify(
                                    rep.passed,
                                    not spectral.verify_resolution(cb, a, bad, n).passed)))
    run.measure(ops)


def _check_binary(checks, name, E, a, eig, n, res):
    if eig is not None:
        return checks.check_matrix_binary(a, eig, n, res.entries, E.tol)
    if name.startswith("mv"):
        return checks.check_grid_binary(E, a, n, res.tree, res.entries)
    return checks.check_product_binary(E, a, n, res.entries)


def _check_rational(checks, name, E, a, lam, got):
    if name == "matrix(3)":
        return checks.check_matrix_rational(a, lam, got, E.tol)
    if name.startswith("mv"):
        return checks.check_grid_rational(E, a, lam, got)
    return checks.check_product_rational(E, a, lam, got)


def _state_value(E, a, name, w83, w162, wb, wm, mix):
    """s(a) from the weights and the element's coordinates, not from State."""
    def weighted(F, x, w):
        return sum(wi * Fraction(int(c), F.k) for wi, c in zip(w, F.coords[x]))

    if name == "mv(8,3)":
        return weighted(E, a, w83)
    if name == "mv(16,2)":
        return weighted(E, a, w162)
    ia, ib = (int(v) for v in E.split_index(a))
    return mix * weighted(E.left, ia, wb) + (1 - mix) * weighted(E.right, ib, wm)
