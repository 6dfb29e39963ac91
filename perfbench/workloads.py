"""The benchmark's workloads: lists of `quad` command lines made from a seed.

A workload is a list of operations and one pass runs each operation once,
in order.  An operation is a list of `quad` argument vectors (without
`--out`, which the worker adds) and a flag saying whether the operation
sits on the known banded-route moment fault, so that its failure is
counted rather than treated as a broken run.

Only the standard library is used here: the worker imports nothing
before it times `import chebquad`, and the plan it receives is plain JSON.
"""

from __future__ import annotations

import random

# Mirrors chebquad.moments.HALF_INTEGER_MARGIN: a weight whose smaller
# parameter lies this close to a half-odd integer >= -1/2 takes the banded
# moment route.
HALF_INTEGER_MARGIN = 0.05

# weight-scan: pairs whose smaller parameter sits inside the margin.  They
# are fixed, not seeded, because several of them miss the moment tolerance
# (the banded route anchors its boundary on the leading-order asymptotic
# only), and the number of failed operations must not depend on the seed.
# (2.062, 1.478) is the worst case seen so far; the others were drawn once
# with random.Random(20130822), smaller parameter within 0.045 of a
# half-odd integer, larger one uniform above it.
MARGIN_PAIRS = (
    (2.062, 1.478),
    (0.775, -0.502),
    (0.516, 1.704),
    (2.527, 2.716),
    (0.536, 2.035),
)
# Seeded pairs per pass; with the five margin pairs the margin share is 1/4.
SEEDED_PAIRS = 15
# Seeded pairs keep their smaller parameter this far from every half-odd
# integer, so the route choice is never a rounding question.
SEEDED_CLEARANCE = 0.06
# Lower end of the seeded parameters.  Below it, log-Jacobi weights with a
# large alpha have |G_0| in the hundreds, and the alias-table residuals,
# about 3e-14 |G_0| of roundoff, pass criterion 3's absolute 1e-11 on some
# seeds only (logjacobi:2.068:-0.888, fejer2, n = 8: 1.02e-11).
SEEDED_LOW = -0.8

_CHEB_FAMILIES = ("fejer1", "fejer2", "cc")


def _half_odd_distance(x: float) -> float:
    """Distance from x to the nearest half-odd integer >= -1/2."""
    nearest = max(round(x + 0.5) - 0.5, -0.5)
    return abs(x - nearest)


def _banded_route(alpha: float, beta: float) -> bool:
    smaller = min(alpha, beta)
    return alpha != beta and _half_odd_distance(smaller) <= HALF_INTEGER_MARGIN


def _op(*commands, known_fault=False) -> dict:
    return {"commands": [list(c) for c in commands], "known_fault": known_fault}


# The sweeps keep the criteria's kink locations.  The default OLS slope fit
# is sensitive to where the kink sits among the nodes: at c = 0.497 two
# criterion-5 cells fit about 0.25 shallower than at c = 0.5 and miss the
# paper's rate, so a seeded kink would make failures depend on the seed.


def gauss_sweep(rng: random.Random) -> list[dict]:
    """Criterion 6 traffic, on n = 10..500: three Gauss-Legendre sweeps.

    Criterion 6 sweeps n = 10..1000, but one such pass takes 40-60 s on a
    2-core shared-host VM, and ten one-pass runs there spread by up to 30 %
    as the host's speed drifts.
    Half the range costs a quarter of the time, so a run takes two passes.
    The 491 rules still overflow the 128-entry rule cache.  One `nodes`
    command at a seeded n comes first, while the rule cache is cold.  With
    one `nodes` command to three sweeps, the median operation of a run
    lies among its sweeps rather than at the fastest of them.
    """
    ops = [_op(("nodes", "--family", "gauss", "--n", str(rng.randint(500, 1000))))]
    for s in ("0.4", "1.45", "2.82"):
        ops.append(_op(("convergence", "--family", "gauss",
                        "--f", f"abspow:0.3:{s}", "--n", "10:500")))
    return ops


def cheb_sweep(rng: random.Random) -> list[dict]:
    """Criterion 5 traffic: the 24 cells in the criterion's loop order.

    Nothing here depends on the seed.
    """
    ops = []
    for family in _CHEB_FAMILIES:
        for alpha, beta in (("-0.3", "0.2"), ("-0.6", "-0.5")):
            for s in ("0.6", "1.6"):
                for kind, tol in (("jacobi", "0.2"), ("logjacobi", "0.25")):
                    ops.append(_op((
                        "convergence", "--family", family,
                        "--weight", f"{kind}:{alpha}:{beta}",
                        "--f", f"abspow:0.5:{s}", "--n", "100:1000",
                        "--tolerance", tol,
                    )))
    return ops


def _seeded_pair(rng: random.Random) -> tuple[float, float]:
    while True:
        alpha = round(rng.uniform(SEEDED_LOW, 3.0), 3)
        beta = round(rng.uniform(SEEDED_LOW, 3.0), 3)
        if alpha > SEEDED_LOW and beta > SEEDED_LOW and (
            alpha == beta or _half_odd_distance(min(alpha, beta)) >= SEEDED_CLEARANCE
        ):
            return alpha, beta


def weight_scan(rng: random.Random) -> list[dict]:
    """Distinct weights, each used once: moments, three rules, one alias table."""
    pairs = set(MARGIN_PAIRS)
    while len(pairs) < len(MARGIN_PAIRS) + SEEDED_PAIRS:
        pairs.add(_seeded_pair(rng))
    weights = [(kind, alpha, beta)
               for alpha, beta in sorted(pairs) for kind in ("jacobi", "logjacobi")]
    rng.shuffle(weights)
    ops = []
    for kind, alpha, beta in weights:
        w = f"{kind}:{alpha}:{beta}"
        commands = [("moments", "--weight", w, "--K", "40")]
        commands += [("nodes", "--family", family, "--weight", w,
                      "--n", str(rng.randint(9, 41)))
                     for family in _CHEB_FAMILIES]
        commands.append(("alias-table", "--family", rng.choice(_CHEB_FAMILIES),
                         "--weight", w, "--n", "8", "--m-max", "40"))
        ops.append(_op(*commands, known_fault=_banded_route(alpha, beta)))
    return ops


WORKLOADS = {"gauss-sweep": gauss_sweep, "cheb-sweep": cheb_sweep,
             "weight-scan": weight_scan}


def build(workload: str, seed: int) -> list[dict]:
    """The operations of one pass of ``workload``; equal seeds give equal lists."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
