import math
import os
import subprocess
import sys

import pytest

import chebquad
import chebquad.cli as cli
from chebquad.errors import NumericalFailure


def run_fresh(*argv):
    """Run the interpreter in a new process with the package importable."""
    src = os.path.dirname(os.path.dirname(chebquad.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env, check=True)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(out):
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    return lines[0], lines[1:]  # header, rows


def test_moments_known_table(capsys):
    code, out, _ = run(capsys, "moments", "--weight", "jacobi:0:0", "--K", "4")
    assert code == 0
    header, rows = data_rows(out)
    assert header == "k,value"
    values = [row.split(",")[1] for row in rows]
    assert values == ["2", "0", "-0.66666666666666663", "0", "-0.13333333333333333"]


def test_nodes_gauss_two(capsys):
    code, out, _ = run(capsys, "nodes", "--family", "gauss", "--n", "2")
    assert code == 0
    header, rows = data_rows(out)
    assert header == "j,x,w"
    xs = [float(r.split(",")[1]) for r in rows]
    ws = [float(r.split(",")[2]) for r in rows]
    assert xs == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert ws == pytest.approx([1.0, 1.0], abs=2e-15)


def test_convergence_benign_cell_passes(capsys):
    code, out, _ = run(
        capsys, "convergence", "--family", "cc", "--weight", "jacobi:-0.3:0.2",
        "--f", "abspow:0.5:0.6", "--n", "10:1000",
    )
    assert code == 0
    fitted = next(
        float(ln.split("fitted_slope=")[1].split()[0])
        for ln in out.splitlines() if "fitted_slope=" in ln
    )
    assert fitted == pytest.approx(-1.6, abs=0.2)
    assert "passed=True" in out
    _, rows = data_rows(out)
    assert len(rows) == 991  # every integer in 10..1000


def test_convergence_exit_three_when_slope_misses(capsys):
    # a sound fit deliberately squeezed through a 0.001 margin
    code, out, _ = run(
        capsys, "convergence", "--family", "f1", "--weight", "jacobi:-0.3:0.2",
        "--f", "abspow:0.5:1.6", "--n", "100:300", "--tolerance", "0.001",
    )
    assert code == 3
    assert "passed=False" in out


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "nodes", "--family", "hexagon", "--n", "4")[0] == 1
    assert run(capsys, "nodes", "--family", "cc", "--weight", "jacobi:0", "--n", "4")[0] == 1
    assert run(capsys, "moments", "--weight", "jacobi:0:0", "--K", "-3")[0] == 1
    assert run(capsys, "convergence", "--family", "cc", "--weight", "jacobi:0:0",
               "--f", "abspow:0.5:0.6", "--n", "5:80")[0] == 1  # n below domain
    assert run(capsys, "alias-table", "--family", "gauss",
               "--weight", "jacobi:0.2:0", "--n", "8")[0] == 1
    code, out, err = run(capsys, "weight-sums", "--family", "gauss",
                         "--weight", "jacobi:0.5:0.5", "--n", "10:12")
    assert code == 1 and out == "" and "unit weight" in err
    code, out, _ = run(capsys, "moments", "--weight", "jacobi:inf:0", "--K", "4")
    assert code == 1 and out == ""
    code, _, err = run(capsys, "integrate", "--family", "cc",
                       "--weight", "jacobi:0:0", "--f", "sin:0:1", "--n", "8")
    assert code == 1 and "grammar" in err
    for bad in ("abspow:0.5:nan", "abspow:0.5:inf"):  # nan was a math domain error
        code, out, err = run(capsys, "convergence", "--family", "cc", "--f", bad,
                             "--n", "10:40")
        assert code == 1 and out == "" and err.startswith("usage:")
        assert f"invalid _parse_function value: '{bad}'" in err
    for argv in (("gauss-open-problem", "--f", "abspow:0.4:1.45", "--n", "10:3"),  # IndexError
                 ("weight-sums", "--family", "cc", "--n", "5:3"),  # an empty table, exit 0
                 ("weight-sums", "--family", "cc", "--n", "10:1:geom0")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err == f"quad: error: empty n-range {argv[-1]!r}\n"
    for tolerance in ("nan", "-1", "inf"):  # nan and -1 exited 3, inf passed every fit
        code, out, err = run(capsys, "convergence", "--family", "cc", "--f", "abspow:0.5:0.6",
                             "--n", "10:200", "--tolerance", tolerance)
        assert code == 1 and out == "" and "tolerance" in err


@pytest.mark.parametrize("family", ["f1", "f2"])
def test_fejer_one_point_rule(capsys, family):
    code, out, _ = run(capsys, "nodes", "--family", family, "--n", "1")
    assert code == 0
    assert data_rows(out)[1] == ["0,6.123233995736766e-17,2"]


def test_provenance_tags_keep_every_digit(capsys):
    _, out, _ = run(capsys, "moments", "--weight", "jacobi:-0.999999999:0", "--K", "2")
    assert out.startswith("# weight=jacobi:-0.999999999:0 K=2\n")  # was jacobi:-1:0
    _, out, _ = run(capsys, "integrate", "--family", "cc", "--f", "abspow:0.123456789:0.6",
                    "--weight", "logjacobi:-0.3:0.25", "--n", "8")
    assert out.startswith("# weight=logjacobi:-0.3:0.25 f=|x-0.123456789|^0.6\n")


def test_numerical_failure_exits_two(monkeypatch, capsys):
    def explode(*a, **k):
        raise NumericalFailure("synthetic oracle disagreement")

    monkeypatch.setattr(cli, "convergence_study", explode)
    code, _, err = run(
        capsys, "convergence", "--family", "cc", "--weight", "jacobi:0:0",
        "--f", "abspow:0.5:0.6", "--n", "100:200",
    )
    assert code == 2
    assert "numerical failure" in err
    # an overflowing moment seed used to end in an OverflowError traceback, exit 1
    code, out, err = run(capsys, "nodes", "--family", "cc", "--weight", "jacobi:1030:0",
                         "--n", "4")
    assert code == 2 and out == ""
    assert err.startswith("quad: numerical failure: moments of weight=")


def test_oracle_outside_its_domain_exits_two(capsys):
    # jacobi:0:-0.99 used to end in math.log(0): exit 1, "math domain error"
    code, out, err = run(capsys, "convergence", "--family", "cc", "--weight", "jacobi:0:-0.99",
                         "--f", "abspow:0.5:1.6", "--n", "100:200")
    assert code == 2 and out == ""
    assert err.startswith("quad: numerical failure: reference oracle disagreement")


def test_identical_invocations_are_byte_identical(capsys):
    args = ("nodes", "--family", "cc", "--weight", "logjacobi:-0.3:0.2", "--n", "17")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert first.startswith("#")


def test_usage_error_leaves_the_parser_reusable(capsys):
    args = ("nodes", "--family", "cc", "--weight", "logjacobi:-0.3:0.2", "--n", "9")
    clean = run_fresh("-m", "chebquad.cli", *args).stdout.decode()
    assert run(capsys, "nodes", "--family", "cc", "--n", "nine")[0] == 1
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == clean


def test_import_leaves_out_scipy_signal_and_stats():
    probe = ("import sys, chebquad.cli; print(sorted(m for m in sys.modules"
             " if m.startswith(('scipy.signal', 'scipy.stats', 'scipy.linalg'))))")
    assert run_fresh("-c", probe).stdout.decode().strip() == "[]"


def test_import_loads_no_scipy():
    probe = ("import sys, chebquad, chebquad.cli; print(sorted(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.')))")
    assert run_fresh("-c", probe).stdout.decode().strip() == "[]"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "moments.csv"
    code, out, _ = run(capsys, "moments", "--weight", "jacobi:0.2:-0.3",
                       "--K", "6", "--out", str(target))
    assert code == 0
    assert out == ""
    _, inline, _ = run(capsys, "moments", "--weight", "jacobi:0.2:-0.3", "--K", "6")
    assert target.read_text(encoding="utf-8") == inline


def test_table_format(capsys):
    code, out, _ = run(capsys, "weights", "--family", "f1", "--weight",
                       "jacobi:0:0", "--n", "3", "--format", "table")
    assert code == 0
    header, rows = data_rows(out)
    assert header.split() == ["j", "w"]
    assert len(rows) == 3
    assert "," not in rows[0]


def test_alias_table_rows(capsys):
    code, out, _ = run(capsys, "alias-table", "--family", "f1",
                       "--weight", "jacobi:-0.3:0.2", "--n", "4")
    assert code == 0
    header, rows = data_rows(out)
    assert header.startswith("m,form,p,j,r,sign,")
    assert len(rows) == 13  # default m-max = 3n
    residuals = [float(r.split(",")[8]) for r in rows]
    assert max(residuals) <= 1e-11


def test_weight_sums_geometric_grid(capsys):
    code, out, _ = run(capsys, "weight-sums", "--family", "gauss",
                       "--weight", "jacobi:0:0", "--n", "10:160:geom5")
    assert code == 0
    _, rows = data_rows(out)
    assert [r.split(",")[0] for r in rows] == ["10", "20", "40", "80", "160"]
    assert all(abs(float(r.split(",")[2])) <= 1e-13 for r in rows)


def test_gauss_open_problem_runs(capsys):
    code, out, _ = run(capsys, "gauss-open-problem", "--weight", "jacobi:0.2:-0.3",
                       "--f", "abspow:0.4:1.45", "--n", "100:250:geom16")
    assert code == 0
    assert "slope[gauss-jacobi]=" in out
    assert "slope[clenshaw-curtis]=" in out
    header, rows = data_rows(out)
    assert header == "n,gauss_jacobi,gauss_legendre_times_w,clenshaw_curtis"
    assert len(rows) == 16


def test_integrate_command(capsys):
    code, out, _ = run(capsys, "integrate", "--family", "f2",
                       "--weight", "jacobi:-0.5:-0.5", "--f", "abspow:0:1",
                       "--n", "200")
    assert code == 0
    _, rows = data_rows(out)
    family, n, value = rows[0].split(",")
    assert (family, n) == ("fejer2", "200")
    # integral of |x| against the Chebyshev weight is exactly 2; a kink
    # integrand converges like n^-2, so n=200 is good to ~1e-4
    assert float(value) == pytest.approx(2.0, abs=1e-3)
