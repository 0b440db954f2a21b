"""Command-line front end: validate, analyze and resolve instance files.

Instance documents are JSON with a "kind" key (boolean, mv_product,
matrix, product, horizontal_sum, mo2, table).  Exit codes: 0 pass/yes,
1 violation/no, 2 parse or usage error.  Every command but ``validate``
validates the document as it loads it and exits 2 when a law fails;
``validate`` loads it unchecked, runs the axiom and base scans once and
exits 1 with the failing report.  A malformed option value exits 2 with
an ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import compbase, comparability, core, groups, instances, spectral
from .core import GridAlgebra
from .errors import EffalgError, InvalidDepth
from .matrices import MatrixEffectAlgebra

# Deepest grid `spectral` lists row by row (2^20 + 1 rows); deeper
# resolutions are read one lambda at a time with --lambda.
MAX_LISTED_DEPTH = 20


def _frac_str(f) -> str:
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def proj_repr(E, p):
    """Zero-one vector for grids, bitmask for booleans, matrix otherwise.
    Matrix entries are rounded to 12 digits, and a rounded zero prints as
    0.0 whatever the sign of the entry."""
    if isinstance(E, MatrixEffectAlgebra):
        return [[round(float(x), 12) or 0.0 for x in row] for row in np.asarray(p)]
    if isinstance(E, core.BooleanAlgebra):
        return int(p)
    if isinstance(E, GridAlgebra):
        return "".join("1" if c > 0 else "0" for c in E.coords[p])
    return E.label(p)


def _load_instance(path: str, validate: bool = True):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(_fail(f"cannot read instance document: {exc}", 2))
    except RecursionError:
        raise SystemExit(_fail("cannot read instance document: it nests too deep", 2))
    try:
        return instances.parse_document(doc, validate=validate)
    except EffalgError as exc:
        raise SystemExit(_fail(f"bad instance document: {exc}", 2))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# what int, Fraction, json and the element parser raise on a malformed value
_MALFORMED = (ValueError, ZeroDivisionError, KeyError, TypeError, OverflowError,
              RecursionError)


def _parse(option: str, text: str, parse):
    """``parse(text)`` for one option value; exit 2 with an error line if
    the value is malformed."""
    try:
        return parse(text)
    except _MALFORMED as exc:  # MalformedInput included: it is a ValueError
        raise SystemExit(_fail(f"bad {option} value {text!r}: {exc}", 2))


def _element_arg(E, text):
    return _parse("--element", text, lambda t: instances.parse_element(E, _maybe_json(t)))


def _int_vector(text):
    return np.array([int(x) for x in text.split(",")], dtype=np.int64)


def _slope_grid(text):
    lo, hi, step = (int(x) for x in text.split(":"))
    return range(lo, hi + 1, step)


def _emit(payload: dict, text: str, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(text)


def _default_depth(E, requested):
    if requested is not None:
        return requested
    return 8 if isinstance(E, MatrixEffectAlgebra) else 16


def _depth_arg(text):
    """--depth as a nonnegative int (None when not given); InvalidDepth else."""
    if text is None:
        return None
    try:
        value = int(text, 10)
    except ValueError:
        raise InvalidDepth(f"--depth must be a nonnegative integer, not {text!r}") from None
    return spectral.check_depth(value)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    # the reports the load would keep, from the very same scans
    E, cb = _load_instance(args.file, validate=False)
    reports = [core.validate_axioms(E)]
    if E.enumerable:
        reports.append(compbase.validate_base(E, cb))
    ok = all(r.passed for r in reports)
    _emit({"passed": ok, "reports": [r.to_dict() for r in reports]},
          "\n".join(r.summary() for r in reports), args.format)
    return 0 if ok else 1


def cmd_analyze(args) -> int:
    E, cb = _load_instance(args.file)
    if not E.enumerable:
        verdict = cb.is_spectral()
        text = (f"kind: {E.kind} dim {E.dim}\n"
                f"carrier: not enumerable\nspectral: {'yes' if verdict else 'no'}")
        _emit({"kind": E.kind, "spectral": verdict}, text, args.format)
        return 0
    sharp = core.sharp_elements(E)
    centre = compbase.central_base(E)
    blocks = compbase.blocks(cb)
    cblocks = [compbase.c_block(cb, b) for b in blocks]
    bc = comparability.check_b_comparability(cb)  # the report cb.is_spectral() reads
    pcp = cb.has_pcp()
    spectralp = cb.is_spectral()
    detail = ""
    if not spectralp:
        fails = [c.name for c in bc.checks if not c.passed]
        if not pcp:
            fails.append("projection-cover")
        detail = f" (fails: {', '.join(fails)})"
    text = "\n".join([
        f"kind: {E.kind}",
        f"|E|: {E.size}",
        f"sharp elements: {len(sharp)}",
        f"center: {len(centre.projections)}",
        f"|P|: {len(cb.projections)}",
        f"blocks: {len(blocks)}",
        f"C-block sizes: {[len(c) for c in cblocks]}",
        f"spectral: {'yes' if spectralp else 'no'}{detail}",
    ])
    payload = {"kind": E.kind, "size": E.size, "sharp": len(sharp),
               "center": len(centre.projections), "projections": len(cb.projections),
               "blocks": len(blocks), "c_block_sizes": [len(c) for c in cblocks],
               "spectral": spectralp,
               "b_comparability": bc.to_dict(), "projection_cover": pcp}
    _emit(payload, text, args.format)
    return 0


def cmd_spectral(args) -> int:
    depth = _depth_arg(args.depth)
    listing = not getattr(args, "lam", None)
    lam = None if listing else _parse("--lambda", args.lam, Fraction)
    if listing and depth is not None and depth > MAX_LISTED_DEPTH:
        raise InvalidDepth(
            f"listing the depth-{depth} grid would print 2^{depth} + 1 rows "
            f"(at most depth {MAX_LISTED_DEPTH} is listed); "
            f"use --lambda m/n to read one projection at this depth")
    E, cb = _load_instance(args.file)
    a = _element_arg(E, args.element)
    depth = _default_depth(E, depth)
    if not listing:
        val = spectral.rational_resolution(cb, a, lam, depth, details=True)
        text = (f"p[{_frac_str(lam)}] = {proj_repr(E, val.projection)} "
                f"(stable from depth {val.stable_from})")
        _emit({"lambda": _frac_str(lam), "projection": proj_repr(E, val.projection),
               "stable_from": val.stable_from, "depth": depth}, text, args.format)
        return 0
    res = spectral.binary_resolution(cb, a, depth)
    sys.stdout.write(_resolution_text(E, a, res, args.format))
    return 0


def _resolution_text(E, a, res, fmt: str) -> str:
    """The whole grid listing, one row per grid index j.  lambda = j/2^n in
    lowest terms is (j >> t) / 2^(n - t) with t the trailing zeros of j;
    each run of one projection is formatted once."""
    n = res.depth
    scale = 1 << n
    out = []
    if fmt == "csv":
        out.append("level,k,lambda,projection")
    elif fmt == "table":
        out.append(f"binary resolution of {E.label(a)} to depth {n}")
    for lo, hi, p in res.runs():
        shown = proj_repr(E, p)
        if fmt == "json":
            shown = json.dumps(shown, default=str)
        for j in range(lo, hi + 1):
            low = j & -j or scale  # j = 0 reads as 0/1, like 1/1
            num, den = j // low, scale // low
            lam = str(num) if den == 1 else f"{num}/{den}"
            level = den.bit_length() - 1
            if fmt == "csv":
                out.append(f"{level},{num},{lam},{shown}")
            elif fmt == "json":
                out.append(f'{{"level": {level}, "k": {num}, "lambda": "{lam}", '
                           f'"projection": {shown}}}')
            else:
                out.append(f"  p[{lam:>8}] = {shown}")
    if fmt == "json":
        head = json.dumps({"element": E.label(a), "depth": n}, default=str)[:-1]
        return f'{head}, "entries": [{", ".join(out)}]}}\n'
    return "\n".join(out) + "\n"


def cmd_check_spectral(args) -> int:
    E, cb = _load_instance(args.file)
    verdict = cb.is_spectral()
    print("spectral: yes" if verdict else "spectral: no")
    return 0 if verdict else 1


def cmd_group(args) -> int:
    E, cb = _load_instance(args.file)
    G = instances.universal_group(E)
    if not args.g:
        raise SystemExit(_fail("--g VECTOR is required", 2))
    g = _parse("--g", args.g, _int_vector)
    if g.shape != (G.dim,):
        raise SystemExit(_fail(f"need {G.dim} coordinates", 2))
    if args.approx:
        grid = _parse("--approx", args.approx, _slope_grid)
        pieces, err, gap = groups.dyadic_approximation(G, g, grid, args.scale)
        text = "\n".join([f"u_{i + 1} = {list(map(int, u))}" for i, u in enumerate(pieces)]
                         + [f"error = {_frac_str(err)} <= {_frac_str(gap)}"])
        _emit({"pieces": [list(map(int, u)) for u in pieces],
               "error": _frac_str(err), "bound": _frac_str(gap)}, text, args.format)
        return 0
    lam = _parse("--lambda", args.lam, Fraction) if args.lam else Fraction(1, 2)
    p = groups.group_spectral(G, g, lam.numerator, lam.denominator)
    text = f"p[{_frac_str(lam)}] = {list(map(int, p))}"
    _emit({"lambda": _frac_str(lam), "projection": list(map(int, p))}, text, args.format)
    return 0


def cmd_expect(args) -> int:
    E, cb = _load_instance(args.file)
    a = _element_arg(E, args.element)
    depth = _default_depth(E, _depth_arg(args.depth))
    if not isinstance(E, GridAlgebra):
        raise SystemExit(_fail("--state weights need a grid instance", 2))
    weights = _parse("--state", args.state, lambda t: [Fraction(w) for w in t.split(",")])
    s = instances.weighted_state(E, weights)
    lo, hi = spectral.expectation_bounds(cb, a, s, depth)
    text = f"{_frac_str(lo)} <= s(a) <= {_frac_str(hi)}   (s(a) = {_frac_str(s(a))})"
    _emit({"lo": _frac_str(lo), "hi": _frac_str(hi), "value": _frac_str(s(a)),
           "depth": depth}, text, args.format)
    return 0


def _maybe_json(text):
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    return text


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="effalg",
        description="validate and spectrally resolve finite effect-algebra instances")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="axiom and base suites")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("analyze", help="structure summary and spectrality verdict")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("spectral", help="binary/rational resolution of an element")
    sp.add_argument("file")
    sp.add_argument("--element", required=True)
    sp.add_argument("--depth", default=None,
                    help=f"grid depth n >= 0 (default 16, 8 on matrices); "
                         f"listings stop at {MAX_LISTED_DEPTH}")
    sp.add_argument("--lambda", dest="lam", default=None, help="rational m/n")
    sp.set_defaults(fn=cmd_spectral)

    sp = sub.add_parser("check-spectral", help="exit 0 when spectral, 1 when not")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_check_spectral)

    sp = sub.add_parser("group", help="integer-group oracle on grid instances")
    sp.add_argument("file")
    sp.add_argument("--g", required=True, help="integer coordinates, comma separated")
    sp.add_argument("--lambda", dest="lam", default=None, help="rational m/n")
    sp.add_argument("--approx", default=None, help="grid lo:hi:step")
    sp.add_argument("--scale", type=int, default=1)
    sp.set_defaults(fn=cmd_group)

    sp = sub.add_parser("expect", help="state bounds from the resolution")
    sp.add_argument("file")
    sp.add_argument("--element", required=True)
    sp.add_argument("--state", required=True, help="rational weights, comma separated")
    sp.add_argument("--depth", default=None,
                    help="grid depth n >= 0 (default 16)")
    sp.set_defaults(fn=cmd_expect)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except EffalgError as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
