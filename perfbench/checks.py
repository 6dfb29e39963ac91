"""Independent checks of `quad` outputs.

Nothing here calls chebquad.  The references are:

* moments: the 60-digit closed forms of ``tests/oracles.py``;
* Jacobi-weighted |x-c|^s integrals: the closed form
  (1+c)^(s+b+1) 2^a B(b+1, s+1) 2F1(-a, b+1; b+s+2; (1+c)/2)
  plus its mirror for the piece right of the kink, in mpmath;
* log-Jacobi-weighted integrals: 2^b times the b-derivative of 2^(-b)
  times the Jacobi integral, since ln((1+x)/2) ((1+x)/2)^b is the
  b-derivative of ((1+x)/2)^b;
* Gauss-Legendre moments: the integral of T_k over [-1, 1] is 2/(1-k^2)
  for even k and 0 for odd k;
* convergence rates: the paper's rate table, as an upper bound on the
  error, so a fitted slope may be steeper but not shallower than the rate
  by more than the harness tolerance.

Each check takes the command line and the text `quad` wrote, and returns
None when the output passes or a one-line reason when it does not.

    python3 perfbench/checks.py     # self-test: the checks reject bad output
"""

from __future__ import annotations

import os
import sys

import mpmath as mp
import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
import oracles  # noqa: E402  (tests/oracles.py of the same checkout)

# criterion 1: weighted rules, relative to 1 + |moment|; Gauss, absolute
RULE_TOL = 1e-11
GAUSS_RULE_TOL = 1e-12
# criterion 2: relative, or absolute where the moment is tiny
MOMENT_REL_TOL, MOMENT_ABS_TOL, MOMENT_TINY = 1e-9, 1e-12, 1e-6
# criterion 3
ALIAS_TOL = 1e-11
REFERENCE_REL_TOL = 1e-12
SLOPE_TOL = {"jacobi": 0.2, "logjacobi": 0.25}

_moment_cache: dict = {}
_integral_cache: dict = {}


def _number(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:  # a text column, such as the alias table's "form"
        return np.nan


def parse_output(text: str) -> tuple[dict, list[str], np.ndarray]:
    """(comment fields, header, data rows as floats) of a CSV `quad` output."""
    fields, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            for item in line[2:].split():
                key, _, value = item.partition("=")
                fields[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([_number(v) for v in line.split(",")])
    return fields, header or [], np.array(rows, dtype=float).reshape(len(rows), -1)


def _options(argv: list[str]) -> dict:
    return dict(zip(argv[1::2], argv[2::2]))


def _weight(opts: dict) -> tuple[str, float, float]:
    kind, alpha, beta = opts.get("--weight", "jacobi:0:0").split(":")
    return kind, float(alpha), float(beta)


def reference_moments(kind: str, alpha: float, beta: float, K: int) -> np.ndarray:
    """M_0..M_K (or G_0..G_K) from the closed forms in tests/oracles.py."""
    key = (kind, alpha, beta)
    table = _moment_cache.get(key, np.empty(0))
    if len(table) <= K:
        fn = (oracles.chebyshev_jacobi_moment if kind == "jacobi"
              else oracles.chebyshev_log_jacobi_moment)
        table = np.array([fn(alpha, beta, k) for k in range(K + 1)])
        _moment_cache[key] = table
    return table[: K + 1]


def _jacobi_abspow(alpha, beta, c, s):
    left = ((1 + c) ** (s + beta + 1) * 2 ** alpha * mp.beta(beta + 1, s + 1)
            * mp.hyp2f1(-alpha, beta + 1, beta + s + 2, (1 + c) / 2))
    right = ((1 - c) ** (s + alpha + 1) * 2 ** beta * mp.beta(alpha + 1, s + 1)
             * mp.hyp2f1(-beta, alpha + 1, alpha + s + 2, (1 - c) / 2))
    return left + right


def reference_integral(kind: str, alpha: float, beta: float, c: float, s: float) -> float:
    """Integral of the weight times |x-c|^s over [-1, 1], in closed form."""
    key = (kind, alpha, beta, c, s)
    if key not in _integral_cache:
        with mp.workdps(40):
            a, b, cc, ss = (mp.mpf(v) for v in (alpha, beta, c, s))
            if kind == "jacobi":
                value = _jacobi_abspow(a, b, cc, ss)
            else:
                value = 2 ** b * mp.diff(
                    lambda bb: 2 ** (-bb) * _jacobi_abspow(a, bb, cc, ss), b)
            _integral_cache[key] = float(value)
    return _integral_cache[key]


def paper_rate(family: str, kind: str, alpha: float, beta: float, s: float) -> float:
    """Error exponent of the paper's rate table (the ln n factor is fitted out)."""
    if family == "gauss":
        return -2.0 * s if s < 1.0 else (-2.0 if s == 1.0 else -s - 1.0)
    if kind == "jacobi":
        smaller = min(alpha, beta)
        return -s - 1.0 if smaller >= -0.5 else -s - 2.0 - 2.0 * smaller
    return -s - 1.0 if beta > -0.5 else -s - 2.0 - 2.0 * beta


def _cheb_integrals(nodes: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    """Sum_j w_j T_k(x_j) for k = 0..count-1."""
    theta = np.arccos(np.clip(nodes, -1.0, 1.0))
    return np.cos(np.outer(np.arange(count), theta)) @ weights


def check_convergence(argv, text):
    opts = _options(argv)
    fields, _, rows = parse_output(text)
    kind, alpha, beta = _weight(opts)
    _, c, s = opts["--f"].split(":")
    c, s = float(c), float(s)
    lo, hi = (int(v) for v in opts["--n"].split(":"))
    if rows.shape != (hi - lo + 1, 2) or not np.array_equal(rows[:, 0], np.arange(lo, hi + 1)):
        return f"expected rows n = {lo}..{hi}"
    if not np.all(np.isfinite(rows[:, 1]) & (rows[:, 1] >= 0.0)):
        return "non-finite or negative abs_error"
    ref = reference_integral(kind, alpha, beta, c, s)
    got = float(fields["reference"])
    if abs(got - ref) > REFERENCE_REL_TOL * abs(ref):
        return f"reference {got!r} vs closed form {ref!r}"
    rate = paper_rate(opts["--family"], kind, alpha, beta, s)
    fitted = float(fields["fitted_slope"])
    if fitted > rate + SLOPE_TOL[kind]:
        return f"fitted slope {fitted:.4f} shallower than rate {rate:.3f} + {SLOPE_TOL[kind]}"
    return None


def check_moments(argv, text):
    opts = _options(argv)
    _, _, rows = parse_output(text)
    K = int(opts["--K"])
    if rows.shape != (K + 1, 2) or not np.array_equal(rows[:, 0], np.arange(K + 1)):
        return f"expected rows k = 0..{K}"
    ref = reference_moments(*_weight(opts), K)
    limit = np.where(np.abs(ref) >= MOMENT_TINY, MOMENT_REL_TOL * np.abs(ref), MOMENT_ABS_TOL)
    excess = np.abs(rows[:, 1] - ref) / limit
    worst = int(np.argmax(excess))
    if excess[worst] > 1.0:
        return f"k={worst}: {excess[worst]:.3g} x the criterion-2 tolerance"
    return None


def check_nodes(argv, text):
    opts = _options(argv)
    _, _, rows = parse_output(text)
    n = int(opts["--n"])
    if rows.shape != (n, 3) or not np.all(np.isfinite(rows)):
        return f"expected {n} finite rows"
    if opts["--family"] == "gauss":
        ref = np.zeros(2 * n)
        ref[::2] = 2.0 / (1.0 - np.arange(0, 2 * n, 2.0) ** 2)
        error = np.abs(_cheb_integrals(rows[:, 1], rows[:, 2], 2 * n) - ref)
        tol = GAUSS_RULE_TOL
    else:
        ref = reference_moments(*_weight(opts), n - 1)
        error = np.abs(_cheb_integrals(rows[:, 1], rows[:, 2], n) - ref) / (1.0 + np.abs(ref))
        tol = RULE_TOL
    worst = int(np.argmax(error))
    if error[worst] > tol:
        return f"T_{worst} integrated with error {error[worst]:.3g} > {tol:g}"
    return None


def check_alias_table(argv, text):
    opts = _options(argv)
    _, header, rows = parse_output(text)
    m_max = int(opts["--m-max"])
    if rows.shape[0] != m_max + 1 or not np.array_equal(rows[:, 0], np.arange(m_max + 1)):
        return f"expected rows m = 0..{m_max}"
    residual = rows[:, header.index("residual")]
    if not np.all(residual <= ALIAS_TOL):
        return f"residual {np.nanmax(residual):.3g} > {ALIAS_TOL:g}"
    return None


CHECKS = {
    "convergence": check_convergence,
    "moments": check_moments,
    "nodes": check_nodes,
    "alias-table": check_alias_table,
}


def check(argv: list[str], code: int, text: str | None):
    """None if the command succeeded and its output passes, else a reason."""
    if code not in ((0, 3) if argv[0] == "convergence" else (0,)):
        return f"exit code {code}"
    if text is None:
        return "no output written"
    return CHECKS[argv[0]](argv, text)


def self_test() -> list[str]:
    """Problems found when the checks are fed outputs they must reject."""
    problems = []
    argv = ["moments", "--weight", "jacobi:0.2:-0.3", "--K", "40"]
    ref = reference_moments("jacobi", 0.2, -0.3, 40)

    def moments_text(values):
        return "k,value\n" + "".join(f"{k},{float(v)!r}\n" for k, v in enumerate(values))

    if check(argv, 0, moments_text(ref)) is not None:
        problems.append("exact moments rejected")
    if check(argv, 0, moments_text(ref * (1.0 + 1e-8))) is None:
        problems.append("moment table perturbed by 1e-8 relative accepted")

    argv = ["convergence", "--family", "fejer1", "--weight", "jacobi:-0.3:0.2",
            "--f", "abspow:0.5:0.6", "--n", "100:104"]
    rate = paper_rate("fejer1", "jacobi", -0.3, 0.2, 0.6)
    reference = reference_integral("jacobi", -0.3, 0.2, 0.5, 0.6)

    def sweep_text(slope):
        return (f"# fitted_slope={slope!r}\n# reference={reference!r}\n"
                "n,abs_error\n" + "".join(f"{n},1e-5\n" for n in range(100, 105)))

    if check(argv, 0, sweep_text(rate)) is not None:
        problems.append("slope at the paper's rate rejected")
    if check(argv, 3, sweep_text(rate + 0.3)) is None:
        problems.append("slope 0.3 shallower than the paper's rate accepted")
    return problems


if __name__ == "__main__":
    found = self_test()
    for line in found:
        print("self-test:", line)
    print("self-test:", "FAILED" if found else "the checks reject every bad output")
    sys.exit(1 if found else 0)
