"""Command-line surface: rules, moments, aliasing tables, sweeps.

Every command emits a provenance comment block ('#'-prefixed), a header
row and one data row per n / k / m, as CSV (default) or an aligned
table.  Floats are printed with 17 significant digits so identical
invocations produce byte-identical output.

Exit codes: 0 success; 1 usage or precondition error; 2 numerical
failure (oracle disagreement, non-convergence); 3 a convergence study
ran cleanly but its fitted slope missed the theoretical rate.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

import numpy as np

from .aliasing import alias_errors
from .analysis import (
    _number_tag,
    abspow,
    convergence_study,
    gauss_open_problem_study,
    powplus,
    weight_sum_study,
)
from .chebcore import Family
from .errors import NumericalFailure
from .moments import UNIT_WEIGHT, WeightKind, WeightSpec, moments_for
from .rules import apply as apply_rule
from .rules import rule_for

__all__ = ["main"]

_FAMILIES = {
    "fejer1": Family.FEJER1,
    "f1": Family.FEJER1,
    "fejer2": Family.FEJER2,
    "f2": Family.FEJER2,
    "cc": Family.CLENSHAW_CURTIS,
    "clenshaw-curtis": Family.CLENSHAW_CURTIS,
    "gauss": Family.GAUSS_LEGENDRE,
    "gl": Family.GAUSS_LEGENDRE,
    "gauss-legendre": Family.GAUSS_LEGENDRE,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; 2 is reserved for numerical
    failures here, so usage problems are rerouted through exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _fmt(value) -> str:
    return "%.17g" % float(value)


def _parse_family(text: str) -> Family:
    try:
        return _FAMILIES[text.lower()]
    except KeyError:
        raise _UsageError(
            f"unknown family {text!r} (use fejer1, fejer2, cc or gauss)"
        ) from None


def _parse_weight(text: str) -> WeightSpec:
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in ("jacobi", "logjacobi"):
        raise _UsageError(f"weight grammar is jacobi:A:B or logjacobi:A:B, got {text!r}")
    try:
        alpha, beta = float(parts[1]), float(parts[2])
    except ValueError:
        raise _UsageError(f"non-numeric weight parameters in {text!r}") from None
    return WeightSpec(WeightKind(parts[0]), alpha, beta)


def _parse_function(text: str):
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in ("abspow", "powplus"):
        raise _UsageError(f"function grammar is abspow:C:S or powplus:XI:S, got {text!r}")
    try:
        location, s = float(parts[1]), float(parts[2])
    except ValueError:
        raise _UsageError(f"non-numeric function parameters in {text!r}") from None
    return abspow(location, s) if parts[0] == "abspow" else powplus(location, s)


def _parse_nrange(text: str) -> tuple[int, ...]:
    parts, ns = text.split(":"), None
    try:
        if len(parts) == 1:
            ns = (int(parts[0]),)
        elif len(parts) == 2:
            ns = tuple(range(int(parts[0]), int(parts[1]) + 1))
        elif len(parts) == 3 and parts[2].startswith("geom"):
            grid = np.geomspace(int(parts[0]), int(parts[1]), int(parts[2][4:]))
            ns = tuple(int(v) for v in np.unique(grid.round().astype(int)))
    except ValueError:
        pass
    if ns is None:
        raise _UsageError(f"n-range grammar is N, LO:HI or LO:HI:geomK, got {text!r}")
    if not ns:
        raise _UsageError(f"empty n-range {text!r}")
    return ns


def _parse_window(text: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise _UsageError(f"window grammar is LO:HI, got {text!r}")


def _weight_tag(weight: WeightSpec) -> str:
    return f"{weight.kind.value}:{_number_tag(weight.alpha)}:{_number_tag(weight.beta)}"


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="quad", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, help_text: str, *, family=False, weight=False, f=False,
            single_n=False, nrange=False, fit_flags=False):
        p = sub.add_parser(name, help=help_text)
        if family:
            p.add_argument("--family", required=True, type=_parse_family)
        if weight:
            p.add_argument("--weight", type=_parse_weight,
                           default=UNIT_WEIGHT,
                           help="jacobi:A:B or logjacobi:A:B (default jacobi:0:0)")
        if f:
            p.add_argument("--f", required=True, type=_parse_function,
                           help="abspow:C:S or powplus:XI:S")
        if single_n:
            p.add_argument("--n", required=True, type=int)
        if nrange:
            p.add_argument("--n", required=True, type=_parse_nrange,
                           help="N, LO:HI (every integer) or LO:HI:geomK")
        if fit_flags:
            p.add_argument("--window", type=_parse_window, default=None,
                           help="fit window LO:HI (default max(100, n_min):n_max)")
        p.add_argument("--format", choices=("csv", "table"), default="csv")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        return p

    add("nodes", "nodes and weights of one rule", family=True, weight=True, single_n=True)
    add("weights", "weights of one rule", family=True, weight=True, single_n=True)

    p = add("moments", "modified-moment table M_k (or G_k for logjacobi)", weight=True)
    p.add_argument("--K", required=True, type=int, help="top Chebyshev degree")

    add("integrate", "apply one rule to a test function",
        family=True, weight=True, f=True, single_n=True)

    p = add("alias-table", "exact single-polynomial errors E_n[T_m]",
            family=True, weight=True, single_n=True)
    p.add_argument("--m-max", type=int, default=None,
                   help="largest degree tabulated (default 3n)")

    p = add("convergence", "error sweep over n with a rate fit",
            family=True, weight=True, f=True, nrange=True, fit_flags=True)
    p.add_argument("--tolerance", type=float, default=0.2,
                   help="|fitted - theoretical| acceptance margin (default 0.2)")
    p.add_argument("--fit", choices=("ols", "envelope"), default="ols",
                   help="regress through all points, or through local error maxima")

    add("weight-sums", "sum of |weights| against the integral of |w|",
        family=True, weight=True, nrange=True)

    add("gauss-open-problem", "Gauss-Jacobi vs Gauss-Legendre vs Clenshaw-Curtis",
        weight=True, f=True, nrange=True, fit_flags=True)
    return parser


# ---------------------------------------------------------------------------
# Command bodies.  Each returns (comments, header, rows, failed).
# ---------------------------------------------------------------------------


def _cmd_rule(args):
    """nodes prints x and w, weights prints w alone."""
    rule = rule_for(args.family, args.n, args.weight)
    comments = [f"family={rule.family.value} n={rule.n} weight={_weight_tag(args.weight)}"]
    if args.command == "nodes":
        header, columns = ("j", "x", "w"), (rule.nodes, rule.weights)
    else:
        header, columns = ("j", "w"), (rule.weights,)
    rows = [(str(j), *map(_fmt, values)) for j, values in enumerate(zip(*columns))]
    return comments, header, rows, False


def _cmd_moments(args):
    table = moments_for(args.weight, args.K)
    comments = [
        f"weight={_weight_tag(args.weight)} K={args.K}",
        f"method={table.method} est_rel_error={_fmt(table.est_rel_error)}",
    ]
    rows = [(str(k), _fmt(v)) for k, v in enumerate(table.values)]
    return comments, ("k", "value"), rows, False


def _cmd_integrate(args):
    rule = rule_for(args.family, args.n, args.weight)
    value = apply_rule(rule, args.f)
    comments = [f"weight={_weight_tag(args.weight)} f={args.f.describe()}"]
    rows = [(rule.family.value, str(rule.n), _fmt(value))]
    return comments, ("family", "n", "value"), rows, False


def _cmd_alias_table(args):
    m_max = 3 * args.n if args.m_max is None else args.m_max
    if m_max < 0:
        raise _UsageError(f"m-max must be nonnegative, got {m_max}")
    records = alias_errors(args.family, args.n, range(m_max + 1), args.weight)
    comments = [
        f"family={args.family.value} n={args.n} weight={_weight_tag(args.weight)}"
    ]
    rows = [
        (str(rec.m), rec.reduced_form.value, str(rec.p), str(rec.j),
         "" if rec.r is None else str(rec.r), str(rec.sign),
         _fmt(rec.predicted), _fmt(rec.computed), _fmt(rec.residual),
         _fmt(rec.leading))
        for rec in records
    ]
    header = ("m", "form", "p", "j", "r", "sign", "predicted", "computed",
              "residual", "leading")
    return comments, header, rows, False


def _cmd_convergence(args):
    report = convergence_study(
        args.family, args.weight, args.f, args.n,
        fit_window=args.window, slope_tolerance=args.tolerance, fit=args.fit,
    )
    comments = [
        f"family={report.family.value} weight={_weight_tag(args.weight)}"
        f" f={args.f.describe()}",
        f"fit={report.fit} window={report.fit_window[0]}:{report.fit_window[1]}"
        f" tolerance={_fmt(args.tolerance)}",
        f"fitted_slope={_fmt(report.fitted_slope)} r_squared={_fmt(report.r_squared)}",
        f"theoretical_slope={_fmt(report.theoretical_slope)}"
        f" log_factor={report.log_factor} passed={report.passed}",
        f"reference={_fmt(report.reference)} oracle_error={_fmt(report.oracle_error)}",
    ]
    rows = [(str(n), _fmt(e)) for n, e in zip(report.ns, report.abs_errors)]
    return comments, ("n", "abs_error"), rows, not report.passed


def _cmd_weight_sums(args):
    study = weight_sum_study(args.family, args.weight, args.n)
    target = abs(float(moments_for(args.weight, 0).values[0]))
    comments = [
        f"family={args.family.value} weight={_weight_tag(args.weight)}"
        f" integral_abs_w={_fmt(target)}",
    ]
    rows = [(str(n), _fmt(total), _fmt(dev)) for n, total, dev in study]
    return comments, ("n", "abs_weight_sum", "deviation"), rows, False


def _cmd_gauss_open_problem(args):
    report = gauss_open_problem_study(args.weight, args.f, args.n,
                                      fit_window=args.window)
    comments = [
        f"weight={_weight_tag(args.weight)} f={args.f.describe()}"
        f" reference={_fmt(report.reference)}",
        f"chebyshev_rate={_fmt(report.chebyshev_rate)}",
    ]
    for name, (slope, r2) in report.slopes.items():
        comments.append(f"slope[{name}]={_fmt(slope)} r_squared={_fmt(r2)}")
    rows = [
        (str(n), _fmt(gj), _fmt(gl), _fmt(cc))
        for n, gj, gl, cc in zip(report.ns, report.gauss_jacobi_errors,
                                 report.gauss_legendre_errors,
                                 report.clenshaw_curtis_errors)
    ]
    header = ("n", "gauss_jacobi", "gauss_legendre_times_w", "clenshaw_curtis")
    return comments, header, rows, False


_COMMANDS = {
    "nodes": _cmd_rule,
    "weights": _cmd_rule,
    "moments": _cmd_moments,
    "integrate": _cmd_integrate,
    "alias-table": _cmd_alias_table,
    "convergence": _cmd_convergence,
    "weight-sums": _cmd_weight_sums,
    "gauss-open-problem": _cmd_gauss_open_problem,
}


def _render(fmt: str, comments, header, rows) -> str:
    lines = [f"# {c}" for c in comments]
    if fmt == "csv":
        lines.append(",".join(header))
        lines.extend(",".join(row) for row in rows)
    else:
        widths = [
            max(len(h), max((len(row[i]) for row in rows), default=0))
            for i, h in enumerate(header)
        ]
        lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        lines.extend(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
        )
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        comments, header, rows, failed = _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"quad: error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"quad: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"quad: error: {exc}", file=sys.stderr)
        return 1
    text = _render(args.format, comments, header, rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
