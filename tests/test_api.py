"""The package's public names, and the private ones the benchmark's tracer reads."""

import ast
import dataclasses
import inspect
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import chebquad
from chebquad import aliasing, analysis, chebcore, moments, rules

PUBLIC = [
    "AliasRecord",
    "CHEBYSHEV_FAMILIES",
    "ConvergenceReport",
    "Family",
    "MomentTable",
    "NumericalFailure",
    "OpenProblemReport",
    "QuadratureRule",
    "ReducedForm",
    "TestFunction",
    "TestKind",
    "UNIT_WEIGHT",
    "WeightKind",
    "WeightSpec",
    "abspow",
    "alias_errors",
    "alias_reduce",
    "apply",
    "apply_each",
    "cheb_expansion_coeffs",
    "chebyshev_T",
    "convergence_study",
    "custom",
    "envelope_slope",
    "error_series_check",
    "fit_slope",
    "gauss_open_problem_study",
    "interp_rules",
    "make_points",
    "min_bar",
    "moment_asymptotic",
    "moment_decay_exponent",
    "moments_for",
    "oracle_integral",
    "powplus",
    "rule_for",
    "rules_for",
    "theoretical_rate",
    "weight_abs_sum",
    "weight_sum_study",
    "__version__",
]

# moments_for, rule_for, oracle_integral and interp_rules do their jobs
REMOVED = ["jacobi_moments", "log_jacobi_moments", "gauss_legendre", "reference_integral",
           "interp_weights"]

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_public_names():
    assert chebquad.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(chebquad, name) is not None, name
    for module in (chebquad, aliasing, analysis, chebcore, moments, rules):
        for name in REMOVED:
            assert not hasattr(module, name), (module.__name__, name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_custom_takes_a_callable_only():
    assert list(inspect.signature(chebquad.custom).parameters) == ["fn"]
    assert "label" not in {f.name for f in dataclasses.fields(chebquad.TestFunction)}
    with pytest.raises(TypeError):
        chebquad.custom(np.exp, label="exp")
    assert chebquad.custom(np.exp).describe() == "custom"


COMMANDS = [
    ["moments", "--weight", "jacobi:0.5:-0.5", "--K", "40"],  # the extended route
    ["nodes", "--family", "f1", "--n", "8"],
    ["alias-table", "--family", "cc", "--n", "8"],
    ["convergence", "--family", "gauss", "--f", "abspow:0.3:0.4", "--n", "100:300"],
    ["convergence", "--family", "f1", "--weight", "jacobi:-0.3:0.2", "--f", "abspow:0.5:1.6",
     "--n", "100:300"],
]

TRACED = """
import json, sys
sys.path.insert(0, sys.argv[1])
import chebquad, chebquad.cli
from tracing import Tracer
tracer = Tracer()
tracer.install("chebquad")
codes = [chebquad.cli.main(argv + ["--out", sys.argv[2] + str(i)])
         for i, argv in enumerate(json.loads(sys.argv[3]))]
print(json.dumps({"codes": codes, "report": tracer.report()}))
"""


def test_traced_run_reports_every_metric(tmp_path):
    # perfbench/tracing.py wraps every public function and reads private
    # caches and moments._forward_unstable by name: once one of those names
    # is gone, every traced benchmark pass exits 1.  -B leaves perfbench/
    # without bytecode.
    src = os.path.dirname(os.path.dirname(chebquad.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-B", "-c", TRACED, str(ROOT / "perfbench"), str(tmp_path / "out"),
         json.dumps(COMMANDS)],
        capture_output=True, env=env, text=True)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0, 0, 0, 3, 0]  # the Gauss fit misses -2s, as the README says
    report = {name: metric["value"] for name, metric in result["report"].items()}
    assert len(report) == 28
    assert report["moments.banded_tables"] == 1
    assert report["rules.gauss_builds"] > 0
    assert report["analysis.oracle_calls"] == 2
    assert report["trace.spans"] > 0


LAYERS = ("errors", "special", "chebcore", "moments", "rules", "aliasing", "analysis", "cli")


def test_each_module_imports_only_earlier_layers():
    # the package's imports form one chain, so a module loads only what the
    # layers below it need (aliasing does not load analysis' oracle)
    for path in sorted((ROOT / "src" / "chebquad").glob("*.py")):
        if path.stem == "__init__":
            continue
        below = LAYERS[:LAYERS.index(path.stem)]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [alias.name for alias in node.names]
                for name in names:
                    assert name in below, (path.stem, name)
