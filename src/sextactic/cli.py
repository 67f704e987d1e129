"""Command-line front end.

One subcommand per computation; every successful run prints a deterministic
report.  ``--format machine`` switches to bare ``key = value`` lines, which
parse back with the same grammar the inputs use.  Exit codes: 0 on success,
1 on domain errors (bad curve data, unsatisfiable preconditions, missing
files), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from gettext import gettext

from . import fixtures
from .branch import (
    BranchError,
    cusp_contact_constraints,
    hyperosculating_conic_at_branch,
    valuation_ladder,
    weight2,
)
from .census import (
    CensusError,
    inflection_count,
    intersection_identities,
    predicted_hessian2_order,
    predicted_hessian_order,
    sextactic_count,
)
from .differential import (
    VARIANTS,
    DifferentialError,
    hessian,
    osculating_conic,
    second_hessian,
    second_hessian_form,
)
from .parse import (
    ParseError,
    _over_limit_message,
    parse_branch,
    parse_parameter,
    parse_parameter_list,
    parse_param,
    parse_point,
    parse_poly,
    parse_profile,
)
from .poly import CONIC_BASIS, ST, XYZ, MPoly, PolyError, _coeff_str, _int_str, _point_str, _u_str
from .rational import (
    RationalError,
    _conic_family,
    conic_wronskian,
    intersection_orders,
    osculating_conic_family,
    weights_from_xi,
)
from .series import SeriesError

DOMAIN_ERRORS = (
    PolyError,
    SeriesError,
    BranchError,
    RationalError,
    DifferentialError,
    CensusError,
    ParseError,
    OSError,
)


class Reporter:
    """Collects the report lines; ``main`` writes them only on success, so a
    domain error part-way through leaves stdout empty."""

    def __init__(self, fmt: str):
        self.machine = fmt == "machine"
        self.lines = []

    def line(self, text):
        self.lines.append(text)

    def kv(self, key, value):
        self.line(f"{key} = {_text(value)}")

    def header(self, title):
        if not self.machine:
            self.line(f"# {title}")

    def table(self, columns, rows, prefix):
        """Aligned table in text mode, keyed lines in machine mode."""
        if self.machine:
            for i, row in enumerate(rows, 1):
                for col, val in zip(columns, row):
                    key = f"{prefix}_{i}" if col == prefix else f"{prefix}_{i}_{col}"
                    self.kv(key, val)
            return
        rows = [[_text(v) for v in row] for row in rows]
        widths = [
            max(len(col), *(len(r[j]) for r in rows)) if rows else len(col)
            for j, col in enumerate(columns)
        ]
        line = " | ".join(col.ljust(w) for col, w in zip(columns, widths))
        self.line(line)
        self.line("-" * len(line))
        for row in rows:
            self.line(" | ".join(v.ljust(w) for v, w in zip(row, widths)))


def _text(value) -> str:
    return _int_str(value) if isinstance(value, int) else str(value)


def _frac_str(value) -> str:
    return _coeff_str(Fraction(value))


def _factored_str(value) -> str:
    """Small-prime factorization for display, e.g. -2^25 * 3^13 * 5^5 * 7^5."""
    value = Fraction(value)
    num, den = value.numerator, value.denominator
    if num == 0:
        return "0"
    sign = "-" if num < 0 else ""
    parts = []
    for n, mark in ((abs(num), ""), (den, "^-1")):
        rest = n
        p = 2
        while p * p <= rest and p < 10**6:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            if e:
                parts.append(f"{p}{mark}" if e == 1 else f"{p}^{e}{mark}")
            p += 1 if p == 2 else 2
        if rest > 1:
            parts.append(f"{_int_str(rest)}{mark}")
    return sign + (" * ".join(parts) if parts else "1")


# The tokenizer's rule for integers: ASCII digits only, since int() alone
# also reads "٣" as 3 and "1_0" as 10.
_ASCII_INT = re.compile(r"\s*-?[0-9]+\s*")


def _quoted(text: str) -> str:
    """repr of an argument; past 40 characters, of its first 40 and its length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _ascii_int(text: str) -> int:
    """An optionally negative ASCII integer, blanks around it allowed."""
    if not _ASCII_INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}")
    try:
        return int(text)
    except ValueError:  # longer than the interpreter converts
        raise argparse.ArgumentTypeError(_over_limit_message()) from None


def _read_file(path: str) -> str:
    """The text of a UTF-8 file; other bytes are a ParseError that names the
    file and the offset of the first byte that does not decode."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path!r} is not UTF-8 text: {e.reason} at byte {e.start}") from None


# -- subcommand implementations ----------------------------------------------


# H and H2 print as the Hessian chain computed them: a ``TernaryForm`` on the
# dense chain, an ``MPoly`` on the sparse one.  A nonzero H has degree
# 3(d - 2) and a nonzero H2 degree 12d - 27, since both are homogeneous.


def cmd_hessian(args, rep: Reporter):
    F = parse_poly(args.implicit, "xyz")
    bundle = hessian(F)
    H = bundle.chain.H
    if args.normalize and not H.is_zero():
        H, scale = H.canonical_with_scale()
        rep.kv("content", _frac_str(scale))
    rep.kv("d", bundle.d)
    rep.kv("H_degree", 3 * (bundle.d - 2) if not H.is_zero() else "undefined")
    rep.kv("H", H)


def cmd_hessian2(args, rep: Reporter):
    F = parse_poly(args.implicit, "xyz")
    h2 = second_hessian_form(F, args.variant)
    d = F.homogeneous_degree()
    rep.kv("variant", args.variant)
    rep.kv("d", d)
    if args.normalize and not h2.is_zero():
        h2, scale = h2.canonical_with_scale()
        rep.kv("content", _frac_str(scale))
        if not rep.machine:
            rep.kv("content_factored", _factored_str(scale))
    rep.kv("H2_degree", 12 * d - 27 if not h2.is_zero() else "undefined")
    rep.kv("H2", h2)


def cmd_osculate(args, rep: Reporter):
    F = parse_poly(args.implicit, "xyz")
    point = parse_point(args.point)
    conic = osculating_conic(F, point)
    rep.kv("point", _point_str(point))
    rep.kv("O", conic)


def _emit_weight_entries(rep, entries):
    rows = []
    for e in entries:
        rows.append(
            (
                e.weight,
                e.points,
                _point_str(e.parameter) if e.parameter else "-",
                _point_str(e.point) if e.point else "-",
                e.factor,
            )
        )
    rep.table(("weight", "points", "parameter", "point", "factor"), rows, "weight")


# (index in CONIC_BASIS, key) of the family's lines, in graded-lex order
_OMEGA_KEYS = [(i, f"omega[{MPoly(XYZ, {e: 1})}]") for e, i in sorted(zip(CONIC_BASIS, range(6)), reverse=True)]


def cmd_wronski(args, rep: Reporter):
    if args.at and not args.omega:
        args.parser.error("--at requires --omega")
    if args.normalize and args.omega:
        args.parser.error("--normalize is not allowed with --omega")
    param = parse_param(args.param)
    if args.omega:
        if args.at:
            at = parse_parameter(args.at)
            conic = osculating_conic_family(param, at=at)
            rep.kv("at", _point_str(at))
            rep.kv("O", conic)
            return
        family = _conic_family(param)
        rep.kv("d", param.degree)
        for i, key in _OMEGA_KEYS:
            rep.kv(key, _u_str(family[i], ST))
        return
    scan = conic_wronskian(param)
    xi = scan.xi
    rep.kv("d", param.degree)
    rep.kv("xi_degree", xi.degree())
    if args.normalize:
        xi = xi.canonical()
    rep.kv("xi", xi)
    rep.kv("content", _frac_str(scan.content))
    if not rep.machine:
        rep.kv("content_factored", _factored_str(scan.content))
    rep.header("zero classes")
    rows = [(z.factor, z.factor.degree(), z.multiplicity) for z in scan.classes]
    rep.table(("factor", "degree", "multiplicity"), rows, "factor")
    rep.header("weights")
    _emit_weight_entries(rep, weights_from_xi(scan, param))
    rep.kv("total_weight", scan.total)


def cmd_orders(args, rep: Reporter):
    param = parse_param(args.param)
    spec = args.poly.strip()
    if args.implicit is not None and spec not in ("@hessian", "@hessian2"):
        args.parser.error("--implicit requires --poly @hessian or @hessian2")
    if args.variant is not None and spec != "@hessian2":
        args.parser.error("--variant requires --poly @hessian2")
    if spec in ("@hessian", "@hessian2"):
        if not args.implicit:
            args.parser.error(f"--poly {spec} requires --implicit")
        F = parse_poly(args.implicit, "xyz")
        G = hessian(F).H if spec == "@hessian" else second_hessian(F, args.variant or "corrected")
    else:
        G = parse_poly(spec, "xyz")
    at_list = parse_parameter_list(args.at)
    report = intersection_orders(G, param, at_list)
    rep.kv("poly_degree", G.degree())
    rep.kv("pullback_degree", report.degree)
    rows = [
        (_point_str(at), order) for at, order in zip(at_list, report.orders)
    ]
    rep.table(("parameter", "order"), rows, "at")
    rep.kv("sum_orders", sum(report.orders))
    rep.kv("residual_degree", report.residual)


def _branch_from_file(path: str):
    return parse_branch(_read_file(path))


def cmd_weight(args, rep: Reporter):
    b = _branch_from_file(args.branch)
    r = weight2(b)
    rep.kv("m", r.m)
    rep.kv("l", r.l)
    if r.c is not None:
        rep.kv("c", r.c)
    rep.kv("orders", ",".join(str(v) for v in r.ladder.orders))
    rep.kv("w2", r.w2)
    rep.kv("classification", r.classification)
    if r.sextactic_order is not None:
        rep.kv("sextactic_order", r.sextactic_order)


def cmd_ladder(args, rep: Reporter):
    b = _branch_from_file(args.branch)
    ladder = valuation_ladder(b)
    rep.kv("orders", ",".join(str(v) for v in ladder.orders))
    rows = list(zip(ladder.orders, ladder.witnesses))
    rep.table(("order", "witness"), rows, "witness")


def cmd_osc_branch(args, rep: Reporter):
    order, conic = hyperosculating_conic_at_branch(_branch_from_file(args.branch))
    rep.kv("conic", conic)
    rep.kv("contact_order", order)


def cmd_check_lemma37(args, rep: Reporter):
    items = [v for v in args.ms.split(",") if v.strip()]
    if not all(map(_ASCII_INT.fullmatch, items)):
        raise BranchError(
            f"--ms expects a comma-separated integer list, got {_quoted(args.ms)}"
        )
    try:
        ms = [int(v) for v in items]
    except ValueError:  # longer than the interpreter converts
        raise ParseError(_over_limit_message()) from None
    report = cusp_contact_constraints(ms, args.d, l=args.l, c=args.c)
    rep.kv("ok", "yes" if report.ok else "no")
    rep.kv("feasible_l", ",".join(str(v) for v, _ in report.feasible_l) or "-")
    if report.feasible_c is not None:
        rep.kv("feasible_c", ",".join(str(v) for v, _ in report.feasible_c) or "-")
    for i, msg in enumerate(report.messages, 1):
        rep.kv(f"note_{i}", msg)


def cmd_count(args, rep: Reporter):
    profile = parse_profile(_read_file(args.profile), per_branch=args.per_branch)
    report = sextactic_count(profile, per_branch=args.per_branch)
    rep.kv("d", profile.d)
    rep.kv("g", profile.g)
    rep.header("points")
    rows = []
    for i, p in enumerate(profile.points, 1):
        rows.append(
            (
                p.label or f"p{i}",
                p.role,
                p.m,
                p.l,
                p.c if p.c is not None else "-",
                p.delta if p.delta is not None else "-",
                p.weight(),
            )
        )
    rep.table(("label", "role", "m", "l", "c", "delta", "weight"), rows, "point")
    rep.header("summary")
    rep.kv("total_weight", report.total)
    rep.kv("sum_I", report.sum_I)
    rep.kv("sum_J", report.sum_J)
    rep.kv("s", report.s)
    # the inflection formula and the intersection identities are stated for
    # cuspidal curves with full delta data; skip them for per-branch profiles
    deltas_known = all(p.delta is not None for p in profile.cusps())
    if deltas_known and not args.per_branch:
        rep.kv("v", inflection_count(profile))
        identities = intersection_identities(profile, report.s)
        rep.kv("identity1", f"{identities.lhs1} = {identities.rhs1}")
        rep.kv("identity1_residual", identities.residual1)
        rep.kv("identity2", f"{identities.lhs2} = {identities.rhs2}")
        rep.kv("identity2_residual", identities.residual2)


def cmd_predict39(args, rep: Reporter):
    profile = parse_profile(_read_file(args.profile), per_branch=args.per_branch)
    rows = []
    for i, p in enumerate(profile.points, 1):
        rows.append(
            (
                p.label or f"p{i}",
                p.role,
                predicted_hessian_order(p),
                predicted_hessian2_order(p),
            )
        )
    rep.table(("label", "role", "H_order", "H2_order"), rows, "point")


def cmd_examples(args, rep: Reporter):
    if args.write:
        for path in fixtures.write_files(args.write):
            rep.kv("written", path)
    for i, f in enumerate(fixtures.FIXTURES, 1):
        if rep.machine:
            rep.kv(f"example_{i}_name", f.name)
            rep.kv(f"example_{i}_command", " ".join(_quote(a) for a in f.command))
        else:
            rep.line(f.name)
            rep.line(f"    {f.description}")
            rep.line("    sextactic " + " ".join(_quote(a) for a in f.command))


def _quote(arg: str) -> str:
    return f'"{arg}"' if any(ch in arg for ch in " ()") else arg


# -- argument wiring -----------------------------------------------------------


def _build():
    """The parser and its subcommand parsers by name."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "machine"), default="text",
        help="text report or machine-readable key = value lines",
    )
    # only the commands whose handlers read it
    normalize = argparse.ArgumentParser(add_help=False)
    normalize.add_argument(
        "--normalize", action="store_true",
        help="divide the main polynomial output by its content and fix the sign",
    )

    parser = argparse.ArgumentParser(
        prog="sextactic",
        description="Exact invariants of plane projective curves: Hessian "
        "covariants, osculating conics, and conic contact weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add(name, *parents, help):
        commands[name] = sub.add_parser(name, parents=[common, *parents], help=help)
        return commands[name]

    p = add("hessian", normalize, help="Hessian determinant of a curve")
    p.add_argument("--implicit", required=True, metavar="POLY")
    p.set_defaults(func=cmd_hessian)

    p = add("hessian2", normalize, help="excess-contact covariant of degree 12d-27")
    p.add_argument("--implicit", required=True, metavar="POLY")
    p.add_argument("--variant", choices=VARIANTS, default="corrected")
    p.set_defaults(func=cmd_hessian2)

    p = add("osculate", help="osculating conic at a rational point")
    p.add_argument("--implicit", required=True, metavar="POLY")
    p.add_argument("--point", required=True, metavar="(a:b:c)")
    p.set_defaults(func=cmd_osculate)

    p = add(
        "wronski", normalize,
        help="conic Wronskian of a parametrized curve, or its conic family",
    )
    p.add_argument("--param", required=True, metavar="(e0:e1:e2)")
    p.add_argument("--omega", action="store_true", help="emit the osculating conic family")
    p.add_argument("--at", metavar="(s0:t0)", help="evaluate the conic family at a parameter")
    p.set_defaults(func=cmd_wronski)

    p = add("orders", help="vanishing orders of a pullback at given parameters")
    p.add_argument("--param", required=True, metavar="(e0:e1:e2)")
    p.add_argument("--poly", required=True, metavar="POLY|@hessian|@hessian2")
    p.add_argument("--implicit", metavar="POLY", help="curve equation for @hessian/@hessian2")
    p.add_argument("--variant", choices=VARIANTS, help="variant of @hessian2 (default corrected)")
    p.add_argument("--at", required=True, metavar="(s0:t0),(s1:t1),...")
    p.set_defaults(func=cmd_orders)

    p = add("weight", help="conic contact weight of a branch")
    p.add_argument("--branch", required=True, metavar="FILE")
    p.set_defaults(func=cmd_weight)

    p = add("ladder", help="attainable conic contact orders of a branch")
    p.add_argument("--branch", required=True, metavar="FILE")
    p.set_defaults(func=cmd_ladder)

    p = add("osc-branch", help="distinguished maximal-contact conic at a branch")
    p.add_argument("--branch", required=True, metavar="FILE")
    p.set_defaults(func=cmd_osc_branch)

    p = add("check-lemma37", help="contact orders compatible with a cusp multiplicity sequence")
    p.add_argument("--ms", required=True, metavar="m,m1,...")
    p.add_argument("--d", required=True, type=_ascii_int)
    p.add_argument("--l", type=_ascii_int)
    p.add_argument("--c", type=_ascii_int)
    p.set_defaults(func=cmd_check_lemma37)

    p = add("count", help="counting formulas over a curve profile")
    p.add_argument("--profile", required=True, metavar="FILE")
    p.add_argument("--per-branch", action="store_true")
    p.set_defaults(func=cmd_count)

    p = add("predict39", help="predicted Hessian-type contact orders for each profile record")
    p.add_argument("--profile", required=True, metavar="FILE")
    p.add_argument("--per-branch", action="store_true")
    p.set_defaults(func=cmd_predict39)

    p = add("examples", help="list bundled example fixtures")
    p.add_argument("--write", metavar="DIR", help="also write the bundled data files to DIR")
    p.set_defaults(func=cmd_examples)

    return parser, commands


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


@functools.cache
def _parser():
    """``_build()``; parsing leaves no state in a parser, so one serves
    every call."""
    return _build()


def _parse(argv):
    """The subcommand's parser and ``build_parser().parse_args(argv)``.  A
    known subcommand first is parsed by its own parser, as argparse would,
    with the leftover arguments refused by the top-level parser; anything
    else goes to the whole parser.  The subcommand map is the one ``_build``
    collects, and a handler's ``parser.error`` shows that subcommand's usage."""
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        args = parser.parse_args(argv)
        return commands[args.command], args
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    return sub, args


def main(argv=None) -> int:
    parser, args = _parse(argv)
    args.parser = parser
    rep = Reporter(args.format)
    try:
        args.func(args, rep)
    except DOMAIN_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    sys.stdout.write("".join(f"{line}\n" for line in rep.lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
