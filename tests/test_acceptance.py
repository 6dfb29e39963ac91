"""End-to-end acceptance harness.

One test per criterion; each prints a single PASS/FAIL summary line on the
real stdout (visible under pytest capture) and then asserts.  Tolerances
and runtime budgets are pinned in the constants below.

Two criteria currently fail, deliberately and verifiably:

* criterion 5: the Clenshaw-Curtis cells at Jacobi(-0.6,-0.5) fit ~0.2
  steeper than the predicted endpoint-limited rate (the kink term, rate
  n^(-s-1), still dominates at every n reachable here; see the error
  listing the test prints).
* criterion 7: Fejer-2 weight sums diverge (growing like
  n^(-1-2*min(alpha,beta))) whenever min(alpha,beta) < -1/2, so the 11
  grid pairs containing -0.6 cannot meet any convergence threshold.

Both are properties of the quantities themselves, not of this
implementation; the module tests pin the implementation against
independent references.
"""

import sys
import time

import numpy as np

import oracles
from chebquad.aliasing import alias_errors, error_series_check
from chebquad.analysis import (
    abspow,
    convergence_study,
    moment_decay_exponent,
    reference_integral,
    weight_sum_study,
)
from chebquad.chebcore import CHEBYSHEV_FAMILIES, Family
from chebquad.moments import (
    WeightKind,
    WeightSpec,
    jacobi_moments,
    log_jacobi_moments,
    moments_for,
)
from chebquad.rules import apply, build_weighted_rule, gauss_legendre

UNIT = WeightSpec(WeightKind.JACOBI, 0.0, 0.0)

GRID6 = (-0.6, -0.5, -0.3, 0.0, 0.2, 0.5)
GRID7 = GRID6 + (1.0,)
JACOBI_PAIRS = tuple((a, b) for a in GRID6 for b in GRID6)
LOG_PAIRS = (
    (0.0, 0.0), (-0.3, 0.2), (-0.6, -0.5), (0.5, -0.5), (-0.5, 0.2), (0.2, 0.5),
)


def _report(capsys, num: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {status} ({elapsed:5.1f}s / budget {budget:.0f}s) {detail}"
    # fd-level capture would swallow even sys.__stdout__; disabled() goes live
    with capsys.disabled():
        print("\n" + line, file=sys.__stdout__, flush=True)


def _poly_integrals(rule, j_max: int) -> np.ndarray:
    """I_n[T_j] for j = 0..j_max, evaluated in one matrix product."""
    theta = np.arccos(np.clip(rule.nodes, -1.0, 1.0))
    return np.cos(np.outer(np.arange(j_max + 1), theta)) @ rule.weights


# --- 1: exactness -------------------------------------------------------------


def test_criterion_1_exactness(capsys):
    t0 = time.monotonic()
    worst_gauss = 0.0
    for n in (2, 5, 10, 40):
        rule = gauss_legendre(n)
        m = moments_for(UNIT, 2 * n - 1).values
        worst_gauss = max(worst_gauss, np.max(np.abs(m - _poly_integrals(rule, 2 * n - 1))))

    weights = [WeightSpec(WeightKind.JACOBI, a, b) for a, b in JACOBI_PAIRS]
    weights += [WeightSpec(WeightKind.LOGJACOBI, a, b) for a, b in LOG_PAIRS]
    worst_cheb = 0.0
    for family in CHEBYSHEV_FAMILIES:
        for weight in weights:
            for n in (7, 64):
                rule = build_weighted_rule(family, n, weight)
                m = moments_for(weight, n - 1).values
                rel = np.abs(m - _poly_integrals(rule, n - 1)) / (1.0 + np.abs(m))
                worst_cheb = max(worst_cheb, float(np.max(rel)))

    elapsed = time.monotonic() - t0
    ok = worst_gauss <= 1e-12 and worst_cheb <= 1e-11 and elapsed < 10.0
    detail = (
        f"gauss worst {worst_gauss:.2e} (tol 1e-12); weighted rules worst "
        f"{worst_cheb:.2e} (tol 1e-11, 3 families x 42 weights x n in {{7,64}})"
    )
    _report(capsys, 1, ok, elapsed, 10.0, detail)
    assert ok, detail


# --- 2: moment oracle equivalence ----------------------------------------------


def test_criterion_2_moment_oracle_equivalence(capsys):
    t0 = time.monotonic()
    pairs = [(a, b) for a in GRID7 for b in GRID7]
    extended = sum(1 for a, b in pairs if jacobi_moments(a, b, 40).method == "extended")
    misses = []
    worst = 0.0
    for a, b in pairs:
        mv = jacobi_moments(a, b, 40).values
        gv = log_jacobi_moments(a, b, 40).values
        for kind, vals, ref_fn in (
            ("M", mv, oracles.chebyshev_jacobi_moment),
            ("G", gv, oracles.chebyshev_log_jacobi_moment),
        ):
            for k in range(41):
                ref = ref_fn(a, b, k)
                limit = 1e-9 * abs(ref) if abs(ref) >= 1e-6 else 1e-12
                diff = abs(vals[k] - ref)
                worst = max(worst, diff / limit)
                if diff > limit:
                    misses.append(f"{kind}_{k}({a},{b}): |diff|={diff:.2e}>{limit:.2e}")

    elapsed = time.monotonic() - t0
    ok = not misses and extended >= 2 and elapsed < 60.0
    detail = (
        f"{len(pairs)} pairs x k<=40 x {{M,G}} vs closed-form reference; "
        f"worst diff at {worst:.2e} of its limit; {extended} extended-route pairs"
        + (f"; misses: {misses[:4]}" if misses else "")
    )
    _report(capsys, 2, ok, elapsed, 60.0, detail)
    assert ok, detail


# --- 3: aliasing identities -----------------------------------------------------


def test_criterion_3_aliasing_identities(capsys):
    t0 = time.monotonic()
    weights = (UNIT, WeightSpec(WeightKind.JACOBI, -0.3, 0.2))
    worst = 0.0
    count = 0
    for family in CHEBYSHEV_FAMILIES:
        for n in (4, 9, 16, 33):
            period = {Family.FEJER1: n, Family.FEJER2: n + 1, Family.CLENSHAW_CURTIS: n - 1}[family]
            degrees = set()
            for p in range(4):
                for j in range(n):
                    degrees.add(2 * period * p + j)
                    degrees.add(abs(2 * period * p - j))
            if family is Family.FEJER2:
                # boundary reductions j = n and j = n+1
                for p in range(1, 4):
                    for j in (n, n + 1):
                        degrees.add(2 * period * p + j)
                        degrees.add(abs(2 * period * p - j))
            for weight in weights:
                for m in degrees:
                    worst = max(worst, alias_errors(family, n, (m,), weight)[0].residual)
                    count += 1

    elapsed = time.monotonic() - t0
    ok = worst <= 1e-11 and elapsed < 10.0
    detail = f"{count} identities, worst residual {worst:.2e} (tol 1e-11)"
    _report(capsys, 3, ok, elapsed, 10.0, detail)
    assert ok, detail


# --- 4: Gauss aliasing-error leading term ----------------------------------------


def _gauss_case_degrees(n: int) -> list:
    period = 4 * n + 2
    ms = [j * period + 2 * r for j in (1, 2) for r in range(-10, 11)]
    ms += [(2 * j - 1) * (2 * n + 1) + sgn for j in (1, 2) for sgn in (1, -1)]
    return sorted(set(ms))


def test_criterion_4_gauss_error_scaling(capsys):
    t0 = time.monotonic()
    fit_n = 25
    c_fit = max(
        alias_errors(Family.GAUSS_LEGENDRE, fit_n, (m,), UNIT)[0].residual * fit_n**2 / m
        for m in _gauss_case_degrees(fit_n)
    )
    worst_ratio = 0.0
    for n in (50, 100, 200):
        for m in _gauss_case_degrees(n):
            resid = alias_errors(Family.GAUSS_LEGENDRE, n, (m,), UNIT)[0].residual
            worst_ratio = max(worst_ratio, resid / (c_fit * m / n**2))

    elapsed = time.monotonic() - t0
    ok = worst_ratio <= 2.0 and elapsed < 30.0
    detail = (
        f"C={c_fit:.3f} fitted at n=25; worst residual/(C m/n^2) = "
        f"{worst_ratio:.2f} at n in {{50,100,200}} (allowed 2.0)"
    )
    _report(capsys, 4, ok, elapsed, 30.0, detail)
    assert ok, detail


# --- 5: Chebyshev-rule convergence slopes ------------------------------------------


def test_criterion_5_chebyshev_rule_slopes(capsys):
    t0 = time.monotonic()
    ns = range(100, 1001)
    misses, cells = [], 0
    for family in CHEBYSHEV_FAMILIES:
        for a, b in ((-0.3, 0.2), (-0.6, -0.5)):
            for s in (0.6, 1.6):
                for kind, tol in ((WeightKind.JACOBI, 0.2), (WeightKind.LOGJACOBI, 0.25)):
                    weight = WeightSpec(kind, a, b)
                    rep = convergence_study(
                        family, weight, abspow(0.5, s), ns, slope_tolerance=tol
                    )
                    cells += 1
                    if not rep.passed:
                        misses.append(
                            f"{family.value} {kind.value}({a},{b}) s={s}: "
                            f"fitted {rep.fitted_slope:.3f} vs "
                            f"{rep.theoretical_slope:.2f}+-{tol}"
                        )

    elapsed = time.monotonic() - t0
    ok = not misses and elapsed < 300.0
    detail = f"{cells - len(misses)}/{cells} cells within tolerance" + (
        "; misses: " + "; ".join(misses) if misses else ""
    )
    _report(capsys, 5, ok, elapsed, 300.0, detail)
    assert ok, detail


# --- 6: Gauss-Legendre convergence slopes -------------------------------------------


def test_criterion_6_gauss_slopes(capsys):
    t0 = time.monotonic()
    ns = range(10, 1001)
    reports = {
        s: convergence_study(Family.GAUSS_LEGENDRE, UNIT, abspow(0.3, s), ns)
        for s in (0.4, 1.45, 2.82)
    }
    miss_145 = abs(reports[1.45].fitted_slope - (-2.45)) > 0.2
    miss_282 = abs(reports[2.82].fitted_slope - (-3.82)) > 0.2
    miss_04 = reports[0.4].fitted_slope > -0.8

    elapsed = time.monotonic() - t0
    ok = not (miss_145 or miss_282 or miss_04) and elapsed < 120.0
    detail = (
        f"s=1.45: {reports[1.45].fitted_slope:.3f} (want -2.45+-0.2); "
        f"s=2.82: {reports[2.82].fitted_slope:.3f} (want -3.82+-0.2); "
        f"s=0.4: {reports[0.4].fitted_slope:.3f} <= -0.8 guaranteed, observed "
        f"~ -s-1 = -1.4 (reported, not asserted)"
    )
    _report(capsys, 6, ok, elapsed, 120.0, detail)
    assert ok, detail


# --- 7: weight-sum convergence --------------------------------------------------------


def test_criterion_7_weight_sums(capsys):
    t0 = time.monotonic()
    cells = [
        (family, WeightSpec(WeightKind.JACOBI, a, b), 1e-6)
        for family in CHEBYSHEV_FAMILIES
        for a, b in JACOBI_PAIRS
    ]
    cells += [
        (family, WeightSpec(WeightKind.LOGJACOBI, 0.0, 0.0), 1e-4)
        for family in CHEBYSHEV_FAMILIES
    ]
    misses = []
    for family, weight, tol in cells:
        target = abs(moments_for(weight, 0).values[0])
        rows = weight_sum_study(family, weight, (100, 1600))
        dev100, dev1600 = abs(rows[0][2]), abs(rows[1][2])
        # positive-weight rules sit at the roundoff floor for every n, where
        # "strictly smaller" is meaningless; the floor branch covers them
        shrunk = dev1600 < dev100 or dev1600 <= 1e-10 * target
        if not (dev1600 < tol * target and shrunk):
            misses.append(
                f"{family.value} {weight.kind.value}({weight.alpha},{weight.beta}): "
                f"dev(1600)={dev1600:.3e} dev(100)={dev100:.3e} (tol {tol:g}*{target:.3g})"
            )

    elapsed = time.monotonic() - t0
    ok = not misses and elapsed < 30.0
    detail = f"{len(cells) - len(misses)}/{len(cells)} cells converge" + (
        "; misses: " + "; ".join(misses) if misses else ""
    )
    _report(capsys, 7, ok, elapsed, 30.0, detail)
    assert ok, detail


# --- 8: moment-decay exponents ----------------------------------------------------------


def test_criterion_8_moment_decay(capsys):
    t0 = time.monotonic()
    # for these four pairs the plain moments terminate identically (the
    # weight times any T_k integrates to finitely many nonzero values), so
    # the tail is exact zeros plus roundoff and has no exponent to fit
    degenerate = {(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)}
    misses = []
    fitted_m = fitted_g = 0
    for a, b in JACOBI_PAIRS:
        if (a, b) not in degenerate:
            fitted, theo, _ = moment_decay_exponent(WeightSpec(WeightKind.JACOBI, a, b))
            fitted_m += 1
            if abs(fitted - theo) > 0.25:
                misses.append(f"M({a},{b}): {fitted:.3f} vs {theo:.2f}+-0.25")
        if b != -0.5:  # the ln 2k normalization degenerates at beta = -1/2
            fitted, theo, _ = moment_decay_exponent(WeightSpec(WeightKind.LOGJACOBI, a, b))
            fitted_g += 1
            if abs(fitted - theo) > 0.3:
                misses.append(f"G({a},{b}): {fitted:.3f} vs {theo:.2f}+-0.3")

    elapsed = time.monotonic() - t0
    ok = not misses and elapsed < 60.0
    detail = (
        f"{fitted_m} plain + {fitted_g} log pairs fitted over k in [32,4096]"
        + (f"; misses: {misses}" if misses else "")
    )
    _report(capsys, 8, ok, elapsed, 60.0, detail)
    assert ok, detail


# --- 9: error-series reproduction ------------------------------------------------------


def test_criterion_9_error_series(capsys):
    t0 = time.monotonic()
    f = abspow(0.3, 2.82)
    residual = error_series_check(Family.GAUSS_LEGENDRE, 20, f, UNIT, 2000)
    measured = abs(reference_integral(UNIT, f) - apply(gauss_legendre(20), f))

    elapsed = time.monotonic() - t0
    ok = residual <= 0.10 * measured and elapsed < 30.0
    detail = (
        f"series residual {residual:.3e} vs measured error {measured:.3e} "
        f"({residual / measured:.2e} relative, tol 0.10)"
    )
    _report(capsys, 9, ok, elapsed, 30.0, detail)
    assert ok, detail
