"""Command-line surface: rules, moments, aliasing tables, sweeps.

Every command emits a provenance comment block ('#'-prefixed), a header
row and one data row per n / k / m, as CSV (default) or an aligned
table.  Floats are printed with 17 significant digits so identical
invocations produce byte-identical output.

Each subparser binds its command body, which computes everything and
returns comments and raw columns; `_render` alone formats row values, so
every error comes before `--out` is opened or a byte is written.  CSV is
streamed in blocks of rows; a table formats every cell first, for widths.

Exit codes: 0 success; 1 usage or precondition error, or a request too
large for memory; 2 numerical failure (non-convergence, moments beyond
float64); 3 a convergence study ran cleanly but its fitted slope missed
the theoretical rate.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

import numpy as np

from .aliasing import alias_errors
from .analysis import (
    _SLOPE_TOLERANCE,
    _number_tag,
    abspow,
    convergence_study,
    gauss_open_problem_study,
    powplus,
    weight_sum_study,
)
from .chebcore import Family
from .errors import NumericalFailure
from .moments import UNIT_WEIGHT, WeightSpec, moments_for
from .rules import apply as apply_rule
from .rules import rule_for

__all__ = ["main"]

# the short names; a full name is the Family value itself
_FAMILIES = {"f1": Family.FEJER1, "f2": Family.FEJER2, "cc": Family.CLENSHAW_CURTIS,
             "gauss": Family.GAUSS_LEGENDRE, "gl": Family.GAUSS_LEGENDRE}
_FLOAT = "%.17g"  # 17 significant digits round-trip every double
_BLOCK_ROWS = 1 << 14  # CSV rows converted to Python values at a time


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; 2 is reserved for numerical
    failures here, so usage problems are rerouted through exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _fmt(value) -> str:
    return _FLOAT % float(value)


def _parse_family(text: str) -> Family:
    try:
        return Family(_FAMILIES.get(text.lower(), text.lower()))
    except ValueError:
        raise _UsageError(
            f"unknown family {text!r} (use fejer1, fejer2, cc or gauss)"
        ) from None


def _parse_spec(text: str, what: str, grammar: str, kinds) -> tuple[str, float, float]:
    """KIND:A:B with KIND one of kinds, as used by --weight and --f."""
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in kinds:
        raise _UsageError(f"{what} grammar is {grammar}, got {text!r}")
    try:
        return parts[0], float(parts[1]), float(parts[2])
    except ValueError:
        raise _UsageError(f"non-numeric {what} parameters in {text!r}") from None


def _parse_weight(text: str) -> WeightSpec:
    return WeightSpec(*_parse_spec(text, "weight", "jacobi:A:B or logjacobi:A:B",
                                   ("jacobi", "logjacobi")))


def _parse_function(text: str):
    kind, location, s = _parse_spec(text, "function", "abspow:C:S or powplus:XI:S",
                                    ("abspow", "powplus"))
    return abspow(location, s) if kind == "abspow" else powplus(location, s)


def _parse_nrange(text: str) -> tuple[int, ...]:
    parts, ns = text.split(":"), None
    try:
        if len(parts) == 1:
            ns = (int(parts[0]),)
        elif len(parts) == 2:
            ns = tuple(range(int(parts[0]), int(parts[1]) + 1))
        elif len(parts) == 3 and parts[2].startswith("geom"):
            lo, hi = int(parts[0]), int(parts[1])
            grid = np.geomspace(lo, hi, int(parts[2][4:]))
            # LO > HI is empty, as in LO:HI; unique() would sort a falling grid
            ns = tuple(int(v) for v in np.unique(grid.round().astype(int)) if lo <= hi)
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

    def add(name: str, help_text: str, run, *, family=False, weight=False, f=False,
            single_n=False, nrange=False, fit_flags=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
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

    add("nodes", "nodes and weights of one rule", _cmd_rule,
        family=True, weight=True, single_n=True)
    add("weights", "weights of one rule", _cmd_rule, family=True, weight=True, single_n=True)

    p = add("moments", "modified-moment table M_k (or G_k for logjacobi)", _cmd_moments,
            weight=True)
    p.add_argument("--K", required=True, type=int, help="top Chebyshev degree")

    add("integrate", "apply one rule to a test function", _cmd_integrate,
        family=True, weight=True, f=True, single_n=True)

    p = add("alias-table", "exact single-polynomial errors E_n[T_m]", _cmd_alias_table,
            family=True, weight=True, single_n=True)
    p.add_argument("--m-max", type=int, default=None,
                   help="largest degree tabulated (default 3n)")

    p = add("convergence", "error sweep over n with a rate fit", _cmd_convergence,
            family=True, weight=True, f=True, nrange=True, fit_flags=True)
    p.add_argument("--tolerance", type=float, default=_SLOPE_TOLERANCE,
                   help="|fitted - theoretical| acceptance margin (default %(default)s)")
    p.add_argument("--fit", choices=("ols", "envelope"), default="ols",
                   help="regress through all points, or through local error maxima")

    add("weight-sums", "sum of |weights| against the integral of |w|", _cmd_weight_sums,
        family=True, weight=True, nrange=True)

    add("gauss-open-problem", "Gauss-Jacobi vs Gauss-Legendre vs Clenshaw-Curtis",
        _cmd_gauss_open_problem, weight=True, f=True, nrange=True, fit_flags=True)
    return parser


# Command bodies.  Each returns (comments, columns, failed), a column being
# (name, %-format, values) with its values a concrete sequence or array.


def _cmd_rule(args):
    """nodes prints x and w, weights prints w alone."""
    rule = rule_for(args.family, args.n, args.weight)
    comments = [f"family={rule.family.value} n={rule.n} weight={_weight_tag(args.weight)}"]
    columns = [("j", "%s", range(len(rule.weights)))]
    if args.command == "nodes":
        columns.append(("x", _FLOAT, rule.nodes))
    columns.append(("w", _FLOAT, rule.weights))
    return comments, columns, False


def _cmd_moments(args):
    table = moments_for(args.weight, args.K)
    comments = [
        f"weight={_weight_tag(args.weight)} K={args.K}",
        f"method={table.method} est_rel_error={_fmt(table.est_rel_error)}",
    ]
    columns = [("k", "%s", range(len(table.values))), ("value", _FLOAT, table.values)]
    return comments, columns, False


def _cmd_integrate(args):
    rule = rule_for(args.family, args.n, args.weight)
    value = apply_rule(rule, args.f)
    comments = [f"weight={_weight_tag(args.weight)} f={args.f.describe()}"]
    columns = [("family", "%s", (rule.family.value,)), ("n", "%s", (rule.n,)),
               ("value", _FLOAT, (value,))]
    return comments, columns, False


def _cmd_alias_table(args):
    m_max = 3 * args.n if args.m_max is None else args.m_max
    if m_max < 0:
        raise _UsageError(f"m-max must be nonnegative, got {m_max}")
    records = alias_errors(args.family, args.n, range(m_max + 1), args.weight)
    comments = [f"family={args.family.value} n={args.n} weight={_weight_tag(args.weight)}"]
    rows = [
        (rec.m, rec.reduced_form.value, rec.p, rec.j, "" if rec.r is None else rec.r,
         rec.sign, rec.predicted, rec.computed, rec.residual, rec.leading)
        for rec in records
    ]
    header = ("m", "form", "p", "j", "r", "sign", "predicted", "computed", "residual", "leading")
    return comments, list(zip(header, ("%s",) * 6 + (_FLOAT,) * 4, zip(*rows))), False


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
    columns = [("n", "%s", report.ns), ("abs_error", _FLOAT, report.abs_errors)]
    return comments, columns, not report.passed


def _cmd_weight_sums(args):
    study = weight_sum_study(args.family, args.weight, args.n)
    target = abs(float(moments_for(args.weight, 0).values[0]))
    comments = [
        f"family={args.family.value} weight={_weight_tag(args.weight)}"
        f" integral_abs_w={_fmt(target)}",
    ]
    header = ("n", "abs_weight_sum", "deviation")
    return comments, list(zip(header, ("%s", _FLOAT, _FLOAT), zip(*study))), False


def _cmd_gauss_open_problem(args):
    report = gauss_open_problem_study(args.weight, args.f, args.n, fit_window=args.window)
    comments = [
        f"weight={_weight_tag(args.weight)} f={args.f.describe()}"
        f" reference={_fmt(report.reference)}",
        f"chebyshev_rate={_fmt(report.chebyshev_rate)}",
    ]
    for name, (slope, r2) in report.slopes.items():
        comments.append(f"slope[{name}]={_fmt(slope)} r_squared={_fmt(r2)}")
    columns = [
        ("n", "%s", report.ns),
        ("gauss_jacobi", _FLOAT, report.gauss_jacobi_errors),
        ("gauss_legendre_times_w", _FLOAT, report.gauss_legendre_errors),
        ("clenshaw_curtis", _FLOAT, report.clenshaw_curtis_errors),
    ]
    return comments, columns, False


def _listed(values):
    return values.tolist() if isinstance(values, np.ndarray) else values


def _render(handle, fmt: str, comments, columns) -> None:
    """Write the comments, the header and one line per row to handle.  CSV
    streams its lines in blocks of rows; a table formats every cell first,
    the header's included, for the widths."""
    handle.writelines(f"# {c}\n" for c in comments)
    if fmt == "csv":
        handle.write(",".join(name for name, _, _ in columns) + "\n")
        line = ",".join(form for _, form, _ in columns) + "\n"
        for lo in range(0, len(columns[0][2]), _BLOCK_ROWS):
            block = [_listed(values[lo:lo + _BLOCK_ROWS]) for _, _, values in columns]
            handle.writelines(line % row for row in zip(*block))
    else:
        cells = [[name, *(form % v for v in _listed(values))] for name, form, values in columns]
        widths = [max(map(len, col)) for col in cells]
        handle.writelines("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "\n"
                          for row in zip(*cells))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        comments, columns, failed = args.run(args)
        if args.out:  # an unwritable path is reported like a usage error
            with open(args.out, "w", encoding="utf-8") as handle:
                _render(handle, args.format, comments, columns)
        else:
            _render(sys.stdout, args.format, comments, columns)
    except NumericalFailure as exc:
        print(f"quad: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, ValueError, OSError) as exc:
        print(f"quad: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a bare MemoryError has no message
        print(f"quad: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
