"""Checks of the program's outputs against computations made apart from it.

Every function returns ``None`` when the output is right and a one-line
description of the first mismatch otherwise.  The references are the
paper's three oracles (the closed-form grid tree, the integer group
``Z^X`` and the eigendecomposition of symmetric matrices) and plain-Python
evaluations of the effect-algebra laws over raw sum tables.  No reference
calls the code path it checks.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

import numpy as np

from effalg import groups, instances, matrices
from perfbench.common import FAULT

EXACT_TOL = 1e-9  # matrix lane: entries and brackets agree to this


# ---------------------------------------------------------------------------
# grids and products: closed-form tree and group oracle


def group_projection(E, a, lam: Fraction) -> int:
    """p_lambda of a grid element from the group oracle ((n g - m u)_+)^*."""
    G = instances.universal_group(E)
    g = instances.embed_element(E, a)
    p = groups.group_spectral(G, g, lam.numerator, lam.denominator)
    return instances.projection_from_group(E, p)


class GroupRows:
    """Group-oracle projections for every lambda of one grid element.

    p_lambda only changes where lambda crosses a coordinate a_i / k, so the
    oracle is evaluated once per stretch between such thresholds.
    """

    def __init__(self, E, a):
        self.E, self.a = E, a
        self.cuts = sorted(Fraction(int(c), E.k) for c in E.coords[a])
        self.memo = {}

    def __call__(self, lam: Fraction) -> int:
        region = bisect.bisect_right(self.cuts, lam)
        if region not in self.memo:
            self.memo[region] = group_projection(self.E, self.a, lam)
        return self.memo[region]


def check_grid_binary(E, a, n, tree, entries) -> str | None:
    oracle = instances.closed_form_mv_resolution(E, a, n)
    if not instances.trees_equal(tree, oracle):
        return f"splitting tree of {E.label(a)} differs from the closed form"
    want = GroupRows(E, a)
    return _compare_entries(E, entries, n, want)


def factor_entries(F, x, n) -> dict:
    """Depth-n resolution of a grid element from its closed-form tree: the
    complement of the root cell, then the cells in order of k(w)."""
    tree = instances.closed_form_mv_resolution(F, x, n)
    coords = F.coords
    acc = F.k - coords[tree.u(())].astype(np.int64) if tree._u else np.full(F.d, F.k)
    by_k = {}
    for w, u in tree._u.items():
        if len(w) == n:
            by_k[int("0" + "".join(map(str, w)), 2)] = coords[u].astype(np.int64)
    out = {Fraction(0): F.index_of(acc)}
    for j in range(1, 2 ** n + 1):
        if j - 1 in by_k:
            acc = acc + by_k[j - 1]
        out[Fraction(j, 2 ** n)] = F.index_of(acc)
    return out


def check_product_binary(E, a, n, entries) -> str | None:
    ia, ib = (int(v) for v in E.split_index(a))
    left = factor_entries(E.left, ia, n)
    right = factor_entries(E.right, ib, n)
    return _compare_entries(E, entries, n, lambda lam: E.pair_index(left[lam], right[lam]))


def check_grid_rational(E, a, lam, got) -> str | None:
    want = group_projection(E, a, lam)
    if got != want:
        return f"p[{lam}] of {E.label(a)} is {E.label(got)}, group oracle {E.label(want)}"
    return None


def check_product_rational(E, a, lam, got) -> str | None:
    ia, ib = (int(v) for v in E.split_index(a))
    want = E.pair_index(group_projection(E.left, ia, lam), group_projection(E.right, ib, lam))
    if got != want:
        return f"p[{lam}] of {E.label(a)} is {E.label(got)}, factor oracles {E.label(want)}"
    return None


def _compare_entries(E, entries, n, want) -> str | None:
    grid = [Fraction(j, 2 ** n) for j in range(2 ** n + 1)]
    if sorted(entries) != grid:
        return f"resolution grid has {len(entries)} entries, want {len(grid)}"
    for lam in grid:
        if entries[lam] != want(lam):
            return f"p[{lam}] = {E.label(entries[lam])}, oracle {E.label(want(lam))}"
    return None


# ---------------------------------------------------------------------------
# matrices: eigendecomposition


def check_matrix_binary(a, eigenvalues, n, entries, tol) -> str | None:
    grid = [Fraction(j, 2 ** n) for j in range(2 ** n + 1)]
    if sorted(entries) != grid:
        return f"resolution grid has {len(entries)} entries, want {len(grid)}"
    for lam in grid:
        if min(abs(float(lam) - v) for v in eigenvalues) <= 2.0 ** -n:
            continue  # at an eigenvalue the grid point carries no exact value
        err = np.abs(np.asarray(entries[lam]) - matrices.chi_leq(a, float(lam), tol)).max()
        if err > EXACT_TOL:
            return f"p[{lam}] is {err:.2e} away from the eigenprojection"
    return None


def check_matrix_rational(a, lam, got, tol) -> str | None:
    err = np.abs(np.asarray(got) - matrices.chi_leq(a, float(lam), tol)).max()
    if err > EXACT_TOL:
        return f"p[{lam}] is {err:.2e} away from the eigenprojection"
    return None


# ---------------------------------------------------------------------------
# expectation bounds and the verifier


def check_expect(lo, hi, value, n) -> str | None:
    """lo <= s(a) <= hi with hi - lo exactly 2^-n; value computed apart."""
    if hi - lo != Fraction(1, 2 ** n):
        return f"bounds {lo}..{hi} are not 2^-{n} wide"
    if not lo <= value <= hi:
        return f"bounds {lo}..{hi} miss s(a) = {value}"
    return None


def perturb(entries, zero, same) -> dict:
    """A family that is not a resolution: the first two distinct adjacent
    entries swapped (breaks monotonicity), or, for a constant family, the
    entry at 0 replaced by the zero element (breaks right continuity)."""
    fam = dict(entries)
    grid = sorted(fam)
    for lo, hi in zip(grid, grid[1:]):
        if not same(fam[lo], fam[hi]):
            fam[lo], fam[hi] = fam[hi], fam[lo]
            return fam
    fam[grid[0]] = zero
    return fam


def check_verify(accepted: bool, rejected_perturbed: bool) -> str | None:
    if not accepted:
        return "verify_resolution rejected the computed family"
    if not rejected_perturbed:
        return "verify_resolution accepted a perturbed family"
    return None


# ---------------------------------------------------------------------------
# axiom laws, evaluated in plain Python over a raw sum table (-1 = undefined)


def _orthos(S, a, one):
    return [b for b in range(len(S)) if S[a][b] == one]


def law_holds(S, zero, one, law) -> bool:
    """Does ``law`` (a check name of core.validate_axioms) hold on S?"""
    n = len(S)
    rng = range(n)
    if law == "E1-commutative":
        return all(S[a][b] == S[b][a] for a in rng for b in rng)
    if law == "E2-associative":
        for a in rng:
            for b in rng:
                ab = S[a][b]
                if ab < 0:
                    continue
                for c in rng:
                    if S[ab][c] >= 0 and not (S[b][c] >= 0 and S[a][S[b][c]] == S[ab][c]):
                        return False
        return True
    if law in ("E3-orthosupplement-exists", "E3-orthosupplement-valid"):
        return all(_orthos(S, a, one) for a in rng)
    if law == "E3-orthosupplement-unique":
        return all(len(_orthos(S, a, one)) == 1 for a in rng)
    if law == "E4-unit-maximal":
        return [a for a in rng if S[a][one] >= 0] == [zero]
    if law == "cancellation":
        for c in rng:
            seen = [S[a][c] for a in rng if S[a][c] >= 0]
            if len(seen) != len(set(seen)):
                return False
        return True
    raise ValueError(f"no plain-Python law for {law!r}")


AXIOM_LAWS = ("E1-commutative", "E2-associative", "E3-orthosupplement-exists",
              "E3-orthosupplement-unique", "E4-unit-maximal", "cancellation")


def witness_confirms(S, zero, one, law, w) -> bool:
    """Does the witness reported for a failed ``law`` really break it on S?"""
    if w is None:
        return not law_holds(S, zero, one, law)
    if law == "E1-commutative":
        a, b = w
        return S[a][b] != S[b][a]
    if law == "E2-associative":
        a, b, c = w
        ab = S[a][b]
        return ab >= 0 and S[ab][c] >= 0 and not (S[b][c] >= 0 and S[a][S[b][c]] == S[ab][c])
    if law == "E3-orthosupplement-exists":
        return not _orthos(S, w, one)
    if law == "E3-orthosupplement-unique":
        return len(_orthos(S, w, one)) != 1
    if law == "E4-unit-maximal":
        return w != zero and S[w][one] >= 0
    if law == "cancellation":
        a, b, c = w
        return a != b and S[a][c] >= 0 and S[a][c] == S[b][c]
    return False


def check_broken_table(S, zero, one, report) -> str | None:
    """A broken table must be rejected with a witness the raw table confirms."""
    failed = [c for c in report.checks if not c.passed]
    if not failed:
        return "axioms passed on a broken table"
    first = failed[0]
    if not witness_confirms(S, zero, one, first.name, first.witness):
        return f"{first.name} witness {first.witness} does not break the law"
    return None


def state_violation(S, values):
    """First defined pair (a, b) with s(a + b) != s(a) + s(b), or None."""
    for a, row in enumerate(S):
        for b, s in enumerate(row):
            if s >= 0 and values[s] != values[a] + values[b]:
                return a, b
    return None


def check_state_report(S, values, report):
    """A State.validate report on a state that breaks additivity: None when
    it fails with a confirmed witness, FAULT when it passes (the known
    fault of the float prefilter), else the problem."""
    bad = state_violation(S, values)
    check = next((c for c in report.checks if c.name == "additive"), None)
    if bad is None:
        return "the reference state is additive"
    if check is None or check.passed:
        return FAULT
    a, b = check.witness
    s = S[a][b]
    if s >= 0 and values[s] != values[a] + values[b]:
        return None
    return f"additive witness {check.witness} is additive"
