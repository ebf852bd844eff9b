import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pertwave
from pertwave import cli
from pertwave.basis import wave_basis
from pertwave.cauchy import Field2D, Grid2D
from pertwave.cli import (EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, EXIT_TOLERANCE,
                          EXIT_USAGE, INVERT_BLOCK, build_parser, main,
                          parse_grid)
from pertwave.errors import FormatError
from pertwave.invert import RayField, recover_n2
from pertwave.quadrature import MAX_ORDER, QuadratureSpec
from pertwave.ring import Polynomial, RhoExpr
from pertwave.serialize import (MAX_EXPONENT, doc_to_expr, doc_to_poly, expr_to_doc, format_float,
                                poly_to_doc, read_doc, read_doc_lines,
                                read_field_csv, write_doc, write_field_csv)
from pertwave.solutions import build_phi

# a warning on the CLI path prints more than the one "error:" line on stderr
pytestmark = pytest.mark.filterwarnings("error")


def write_seed(tmp_path, poly, name="seed.json"):
    path = str(tmp_path / name)
    write_doc(path, poly_to_doc(poly))
    return path


def test_import_does_not_load_scipy():
    """A fresh `import pertwave.cli` loads no scipy module (cold start of every command)."""
    src = str(Path(pertwave.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import pertwave.cli; "
            "sys.exit(any(m.partition('.')[0] == 'scipy' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


# every subcommand in one interpreter: build, then verify, evolve and invert (more than
# one block of points) on the phi it wrote; evolve and fdref on a samples CSV, compared;
# exits nonzero if any scipy module got loaded (the same script runs in the CI workflow)
EXACT_EVOLVE = """
import json, sys
from pathlib import Path
from pertwave.cli import INVERT_BLOCK, main
assert main(["basis", "--dim", "2", "--degree", "3", "--out", "basis.jsonl"]) == 0
Path("seed.json").write_text(Path("basis.jsonl").read_text().splitlines()[0])
assert main(["build", "--dim", "2", "--seed", "seed.json", "--out", "bundle.json"]) == 0
Path("phi.json").write_text(json.dumps(json.loads(Path("bundle.json").read_text())["phi"]))
assert main(["evolve", "--a=0.1", "--grid=-0.5,0.5,11:0.1,0.4,4", "--data", "phi.json",
             "--out", "field.csv"]) == 0
count = INVERT_BLOCK + 1
Path("pts.csv").write_text("t,x1\\n" + "".join(f"{i / count - 0.5},0.25\\n" for i in range(count)))
assert main(["invert", "--dim", "2", "--phi", "phi.json", "--points", "pts.csv",
             "--out", "coeffs.csv"]) == 0
assert len(Path("coeffs.csv").read_text().splitlines()) == count + 1
assert main(["verify", "--dim", "2", "--phi", "phi.json"]) == 0
ws = [i / 10 - 2 for i in range(41)]
Path("samples.csv").write_text("w,u0,v0\\n" + "".join(f"{w},{1 / (1 + w * w)},0\\n" for w in ws))
for cmd in ("evolve", "fdref"):
    assert main([cmd, "--grid=-0.5,0.5,11:0,0.3,4", "--data", "samples.csv",
                 "--out", f"samples-{cmd}.csv"]) == 0
assert main(["compare", "--a", "samples-evolve.csv", "--b", "samples-fdref.csv",
             "--tol", "1e-2"]) == 0
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
sys.exit(f"scipy modules loaded: {loaded}" if loaded else 0)
"""


def test_exact_evolve_does_not_load_scipy(tmp_path):
    """Every subcommand, on exact and on tabulated Cauchy data, runs without scipy in a
    fresh interpreter."""
    src = str(Path(pertwave.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r})\n" + EXACT_EVOLVE
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    for name in ("field.csv", "samples-evolve.csv", "samples-fdref.csv"):
        assert read_field_csv(str(tmp_path / name)).values.shape == (11, 4)


def test_parse_grid():
    g = parse_grid("-1,1,11:0,0.5,6")
    assert g == Grid2D(-1.0, 1.0, 11, 0.0, 0.5, 6)
    with pytest.raises(FormatError):
        parse_grid("-1,1,11")


class TestBasis:
    def test_writes_jsonl(self, tmp_path):
        out = str(tmp_path / "basis.jsonl")
        assert main(["basis", "--dim", "2", "--degree", "2", "--out", out]) == EXIT_OK
        docs = read_doc_lines(out)
        assert len(docs) == 2
        for doc in docs:
            p = doc_to_poly(doc)
            assert p.box().is_zero()

    def test_bad_degree(self, tmp_path, capsys):
        out = str(tmp_path / "basis.jsonl")
        code = main(["basis", "--dim", "2", "--degree", "40", "--out", out])
        assert code == EXIT_DOMAIN
        assert "error: domain:" in capsys.readouterr().err


class TestBuildVerify:
    def test_build_then_verify_pass(self, tmp_path, capsys):
        seed = write_seed(tmp_path, Polynomial(2, {(1, 1): Fraction(1)}))
        out = str(tmp_path / "bundle.json")
        assert main(["build", "--dim", "2", "--seed", seed, "--out", out]) == EXIT_OK
        doc = read_doc(out)
        phi_path = str(tmp_path / "phi.json")
        write_doc(phi_path, doc["phi"])
        capsys.readouterr()
        assert main(["verify", "--dim", "2", "--phi", phi_path]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_verify_fail(self, tmp_path, capsys):
        phi_path = str(tmp_path / "phi.json")
        write_doc(phi_path, expr_to_doc(RhoExpr.rho(2)))
        assert main(["verify", "--dim", "2", "--phi", phi_path]) == EXIT_TOLERANCE
        assert "FAIL" in capsys.readouterr().out

    def test_build_rejects_non_wave_seed(self, tmp_path, capsys):
        seed = write_seed(tmp_path, Polynomial(2, {(2, 0): Fraction(1)}))
        out = str(tmp_path / "bundle.json")
        code = main(["build", "--dim", "2", "--seed", seed, "--out", out])
        assert code == EXIT_DOMAIN

    def test_bad_json_is_parse_error(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as f:
            f.write("{")
        code = main(["build", "--dim", "2", "--seed", bad, "--out",
                     str(tmp_path / "x.json")])
        assert code == EXIT_PARSE
        assert "error: parse:" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("n, k, i", [(2, 4, 1), (4, 3, 2), (6, 3, 0), (8, 3, 0)])
def test_build_verify_golden(tmp_path, capsys, n, k, i):
    """build and verify outputs are byte-identical to the committed files.

    verify runs on the built phi (PASS) and on phi without its rho^0 layer,
    whose residual has fractional coefficients (FAIL).
    """
    seed = write_seed(tmp_path, wave_basis(n, k).elements[i])
    out = tmp_path / "bundle.json"
    assert main(["build", "--dim", str(n), "--seed", seed, "--out", str(out)]) == EXIT_OK
    assert out.read_text() == (GOLDEN / f"build_n{n}.json").read_text()
    phi = read_doc(str(out))["phi"]
    truncated = dict(phi, layers=[layer for layer in phi["layers"] if layer["rho_power"]])
    printed = []
    for doc, code in ((phi, EXIT_OK), (truncated, EXIT_TOLERANCE)):
        write_doc(str(tmp_path / "phi.json"), doc)
        capsys.readouterr()
        assert main(["verify", "--dim", str(n), "--phi", str(tmp_path / "phi.json")]) == code
        printed.append(capsys.readouterr().out)
    assert "".join(printed) == (GOLDEN / f"verify_n{n}.txt").read_text()


class TestInvert:
    def test_round_trip(self, tmp_path):
        bundle = build_phi(Polynomial(2, {(1, 1): Fraction(1)}), 2)
        phi_path = str(tmp_path / "phi.json")
        write_doc(phi_path, expr_to_doc(bundle.phi))
        pts_path = str(tmp_path / "pts.csv")
        with open(pts_path, "w") as f:
            f.write("t,x1\n0.1,0.2\n-0.3,0.4\n")
        out = str(tmp_path / "inv.csv")
        code = main(["invert", "--dim", "2", "--phi", phi_path,
                     "--points", pts_path, "--out", out])
        assert code == EXIT_OK
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0] == "t,x1,P0,P1,est_error"
        row = [float(v) for v in lines[1].split(",")]
        expect = bundle.coefficient(0).eval_points(np.array([[0.1, 0.2]]))[0]
        assert row[2] == pytest.approx(expect, abs=1e-9)

    def test_blocks_match_per_point_rows(self, tmp_path):
        """BLOCK + 3 points: byte for byte the rows of one recover_n2 call per point."""
        phi = build_phi(Polynomial(2, {(3, 0): Fraction(1), (1, 2): Fraction(3)}), 2).phi
        phi_path = str(tmp_path / "phi.json")
        write_doc(phi_path, expr_to_doc(phi))
        rng = np.random.default_rng(12)
        points = np.column_stack([rng.uniform(-0.5, 0.5, INVERT_BLOCK + 3),
                                  rng.uniform(-1.0, 1.0, INVERT_BLOCK + 3)])
        pts_path = tmp_path / "pts.csv"
        pts_path.write_text("t,x1\n" + "".join(f"{t!r},{x!r}\n" for t, x in points.tolist()))
        out = tmp_path / "inv.csv"
        assert main(["invert", "--dim", "2", "--phi", phi_path, "--points", str(pts_path),
                     "--out", str(out), "--abs-tol", "1e-11"]) == EXIT_OK
        field = RayField.from_rho_expr(phi)
        expected = ["t,x1,P0,P1,est_error"]
        for x in points:
            values = recover_n2(field, x, QuadratureSpec(abs_tol=1e-11))
            expected.append(",".join(map(format_float, [*x, *values, 1e-11])))
        assert out.read_text() == "\n".join(expected) + "\n"

    def test_dim_mismatch(self, tmp_path, capsys):
        phi_path = str(tmp_path / "phi.json")
        write_doc(phi_path, expr_to_doc(RhoExpr.rho(4)))
        pts_path = str(tmp_path / "pts.csv")
        with open(pts_path, "w") as f:
            f.write("t,x1\n0.1,0.2\n")
        code = main(["invert", "--dim", "2", "--phi", phi_path,
                     "--points", pts_path, "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_DOMAIN


class TestEvolveCompare:
    def make_phi_doc(self, tmp_path):
        bundle = build_phi(Polynomial(2, {(0, 1): Fraction(1)}), 2)
        path = str(tmp_path / "phi.json")
        write_doc(path, expr_to_doc(bundle.phi))
        return path, bundle.phi

    def test_evolve_fdref_compare(self, tmp_path, capsys):
        phi_path, phi = self.make_phi_doc(tmp_path)
        grid = "-1,1,21:0,0.4,9"
        a_out = str(tmp_path / "kernel.csv")
        b_out = str(tmp_path / "fd.csv")
        assert main(["evolve", f"--grid={grid}", "--data", phi_path,
                     "--out", a_out]) == EXIT_OK
        assert main(["fdref", f"--grid={grid}", "--data", phi_path,
                     "--refine", "4", "--out", b_out]) == EXIT_OK
        capsys.readouterr()
        assert main(["compare", "--a", a_out, "--b", b_out,
                     "--tol", "1e-3"]) == EXIT_OK
        printed = float(capsys.readouterr().out.strip())
        assert 0.0 < printed < 1e-3

    def test_compare_over_tolerance(self, tmp_path, capsys):
        g = Grid2D(0.0, 1.0, 3, 0.0, 1.0, 3)
        a_out = str(tmp_path / "a.csv")
        b_out = str(tmp_path / "b.csv")
        write_field_csv(a_out, Field2D(grid=g, values=np.zeros((3, 3))))
        write_field_csv(b_out, Field2D(grid=g, values=np.ones((3, 3))))
        assert main(["compare", "--a", a_out, "--b", b_out,
                     "--tol", "0.5"]) == EXIT_TOLERANCE

    def test_compare_shape_mismatch(self, tmp_path, capsys):
        a_out = str(tmp_path / "a.csv")
        b_out = str(tmp_path / "b.csv")
        write_field_csv(a_out, Field2D(grid=Grid2D(0, 1, 3, 0, 1, 3),
                                       values=np.zeros((3, 3))))
        write_field_csv(b_out, Field2D(grid=Grid2D(0, 1, 4, 0, 1, 3),
                                       values=np.zeros((4, 3))))
        assert main(["compare", "--a", a_out, "--b", b_out]) == EXIT_DOMAIN

    def test_evolve_singular_grid(self, tmp_path, capsys):
        phi_path, _ = self.make_phi_doc(tmp_path)
        code = main(["evolve", "--grid=-1,1,5:0,1.5,5",
                     "--data", phi_path, "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_DOMAIN

    def test_evolve_singular_data_interval(self, tmp_path, capsys):
        w = np.linspace(-2.0, 2.0, 401)
        samples = str(tmp_path / "bump.csv")
        with open(samples, "w") as f:
            f.write("w,u0,v0\n")
            for wi in w:
                f.write(f"{format(wi, '.17g')},{format(np.exp(-8.0 * wi * wi), '.17g')},0\n")
        code = main(["evolve", "--a=-0.9995", "--grid=0.5,1,11:-0.9995,-0.5,6",
                     "--data", samples, "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("error: domain: data slice t = -0.9995")

    def test_evolve_from_samples(self, tmp_path):
        _, phi = self.make_phi_doc(tmp_path)
        w = np.linspace(-3.0, 3.0, 301)
        pts = np.column_stack([np.zeros_like(w), w])
        u = phi.eval_points(pts)
        v = phi.diff(0).eval_points(pts)
        samples = str(tmp_path / "samples.csv")
        with open(samples, "w") as f:
            f.write("w,u0,v0\n")
            for row in zip(w, u, v):
                f.write(",".join(format(c, ".17g") for c in row) + "\n")
        out = str(tmp_path / "field.csv")
        assert main(["evolve", "--grid=-0.5,0.5,11:0,0.3,4",
                     "--data", samples, "--out", out]) == EXIT_OK
        field = read_field_csv(out)
        g = field.grid
        expect = np.array([[float(phi.eval_points(np.array([[t, x]]))[0])
                            for t in g.ts()] for x in g.xs()])
        assert np.max(np.abs(field.values - expect)) < 1e-6

    def test_bad_grid_spec(self, tmp_path, capsys):
        phi_path, _ = self.make_phi_doc(tmp_path)
        code = main(["evolve", "--grid", "nonsense", "--data", phi_path,
                     "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_PARSE


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["invert", "--dim", "3", "--phi", "p.json", "--points", "x.csv", "--out", "o.csv"],
    ["basis", "--dim", "2"],
], ids=["invalid-dim-choice", "missing-required"])
def test_argparse_error_contract(capsys, argv):
    """argparse failures print one "error: usage:" line and exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: usage:")


class TestCachedParser:
    """main builds its parser once per process and parses every argv afresh."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("option", [["--norm", "l2"], ["--order", "32"], ["--a", "0.1"]],
                             ids=["compare-norm", "evolve-order", "evolve-a"])
    def test_options_do_not_leak(self, tmp_path, capsys, option):
        """The command without the option gives the default's output after a call with it."""
        out = tmp_path / "o.csv"
        if option[0] == "--norm":
            grid = Grid2D(0.0, 1.0, 3, 0.0, 1.0, 3)
            values = {"a.csv": np.zeros((3, 3)), "b.csv": np.diag([1.0, 2.0, 3.0])}
            for name, v in values.items():
                write_field_csv(str(tmp_path / name), Field2D(grid=grid, values=v))
            argv = ["compare", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv")]
        else:
            w = np.linspace(-3.0, 3.0, 61)
            (tmp_path / "s.csv").write_text("w,u0,v0\n" + "".join(
                f"{format_float(x)},{format_float(np.exp(-x * x))},{format_float(x)}\n" for x in w))
            argv = ["evolve", "--grid=-0.5,0.5,5:0.1,0.3,3", "--data", str(tmp_path / "s.csv"),
                    "--out", str(out)]

        def run(extra):
            assert main(argv + extra) == EXIT_OK
            return capsys.readouterr().out, out.read_bytes() if out.exists() else b""

        default = run([])
        assert run(option) != default
        assert run([]) == default

    def test_dispatch_reads_the_module_at_call_time(self, tmp_path, monkeypatch):
        """A cmd_* function replaced after the parser was built is the one that runs."""
        phi = str(tmp_path / "phi.json")
        write_doc(phi, expr_to_doc(build_phi(Polynomial(2, {(1, 1): Fraction(1)}), 2).phi))
        assert main(["verify", "--dim", "2", "--phi", phi]) == EXIT_OK
        seen = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.phi) or 42)
        assert main(["verify", "--dim", "2", "--phi", phi]) == 42
        assert seen == [phi]


GRID = "--grid=-0.5,0.5,5:0,0.2,3"

# CSV files test_error_contract writes as {tmp}/<name>: no data rows, or an empty cell
BAD_CSV = {
    "points-header-only.csv": "t,x1\n",
    "field-header-only.csv": "x,t,value\n",
    "samples-header-only.csv": "w,u0,v0\n",
    "field-empty-cell.csv": "x,t,value\n0,0,1\n1,0,\n0,1,3\n1,1,4\n",
    "samples-repeated-w.csv": "w,u0,v0\n-1,0,0\n-0.5,0,0\n0,1,0\n-0.5,1,0\n0.5,0,0\n1,0,0\n",
    "samples-nan-u0.csv": "w,u0,v0\n-1,0,0\n-0.5,nan,0\n0,1,0\n0.5,0,0\n1,0,0\n",
    "points-nan.csv": "t,x1\n0.1,0.2\n0.1,nan\n",
    "points-inf.csv": "t,x1\ninf,0.2\n",
}


def one_term_doc(dim=2, rho_power=0, exponents=(1, 0)):
    """The document of t rho^rho_power, well formed at the defaults."""
    return {"format_version": 1, "dim": dim, "layers": [
        {"rho_power": rho_power, "terms": [{"coeff": "1/1", "exponents": list(exponents)}]}]}


# one defect each; test_error_contract writes them as {tmp}/<name>.json
MALFORMED = {
    "negative-rho": one_term_doc(rho_power=-1),
    "float-rho": one_term_doc(rho_power=1.9),
    "short-exponents": one_term_doc(exponents=(1,)),
    "float-exponent": one_term_doc(exponents=(1.7, 0)),
    "bool-exponent": one_term_doc(exponents=(True, 0)),
    "dim-zero": one_term_doc(dim=0, exponents=()),
    "version-true": {**one_term_doc(), "format_version": True},
    "version-float": {**one_term_doc(), "format_version": 1.0},
    "huge-rho": one_term_doc(rho_power=MAX_EXPONENT + 1),
    "huge-exponent": one_term_doc(exponents=(0, MAX_EXPONENT + 1)),
    # reading would reduce each by 1 + x.x past serialize.MAX_REDUCTION
    "reduction-high-t": one_term_doc(rho_power=1, exponents=(640, 0)),
    "reduction-deep": one_term_doc(rho_power=MAX_EXPONENT, exponents=(92, 0)),
    "reduction-dim-8": one_term_doc(dim=8, rho_power=1, exponents=(20,) + (0,) * 7),
}


def test_split_layers_read(tmp_path, capsys):
    """Two layers at one rho power whose halves sum to integers read as their sum."""
    half = {"rho_power": 1, "terms": [{"coeff": "1/2", "exponents": [1, 0]}]}
    path = str(tmp_path / "phi.json")
    write_doc(path, {"format_version": 1, "dim": 2, "layers": [half, half]})
    assert main(["verify", "--dim", "2", "--phi", path]) == EXIT_OK
    assert doc_to_expr(read_doc(path)) == build_phi(Polynomial.coordinate(2, 0), 2).phi
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, code, kind", [
    (["basis", "--dim", "4", "--degree", "-1", "--out", "{tmp}/b.jsonl"], EXIT_USAGE, "usage"),
    (["verify", "--dim", "2", "--phi", "{tmp}/missing.json"], EXIT_USAGE, "usage"),
    (["build", "--dim", "2", "--seed", "{tmp}/missing.json", "--out", "{tmp}/b.json"],
     EXIT_USAGE, "usage"),
    (["evolve", GRID, "--data", "{tmp}/missing.json", "--out", "{tmp}/o.csv"],
     EXIT_USAGE, "usage"),
    (["evolve", GRID, "--data", "{tmp}/phi.json", "--order", "1", "--out", "{tmp}/o.csv"],
     EXIT_USAGE, "usage"),
    (["evolve", GRID, "--data", "{tmp}/phi.json", "--abs-tol", "nan", "--out", "{tmp}/o.csv"],
     EXIT_USAGE, "usage"),
    (["fdref", GRID, "--data", "{tmp}/phi.json", "--refine", "0", "--out", "{tmp}/o.csv"],
     EXIT_USAGE, "usage"),
    (["fdref", GRID, "--data", "{tmp}/phi.json", "--refine", "-1", "--out", "{tmp}/o.csv"],
     EXIT_USAGE, "usage"),
    (["fdref", GRID, "--data", "{tmp}/phi.json", "--cfl", "nan", "--out", "{tmp}/o.csv"],
     EXIT_DOMAIN, "domain"),
    (["verify", "--dim", "4", "--phi", "{tmp}/phi.json"], EXIT_DOMAIN, "domain"),
    (["compare", "--a", "{tmp}/f.csv", "--b", "{tmp}/f.csv", "--tol", "nan"],
     EXIT_USAGE, "usage"),
    (["compare", "--a", "{tmp}/f.csv", "--b", "{tmp}/shifted.csv"], EXIT_DOMAIN, "domain"),
    (["evolve", "--grid=nan,0.5,5:0,0.2,3", "--data", "{tmp}/phi.json", "--out", "{tmp}/o.csv"],
     EXIT_DOMAIN, "domain"),
    (["evolve", GRID, "--a", "nan", "--data", "{tmp}/phi.json", "--out", "{tmp}/o.csv"],
     EXIT_DOMAIN, "domain"),
    (["fdref", "--grid=nan,0.5,5:0,0.2,3", "--data", "{tmp}/phi.json", "--out", "{tmp}/o.csv"],
     EXIT_DOMAIN, "domain"),
    (["evolve", GRID, "--data", "{tmp}/phi.json", "--order", str(MAX_ORDER + 1),
      "--out", "{tmp}/o.csv"], EXIT_USAGE, "usage"),
    (["invert", "--dim", "2", "--phi", "{tmp}/phi.json", "--points", "{tmp}/x.csv",
      "--abs-tol", "inf", "--out", "{tmp}/o.csv"], EXIT_USAGE, "usage"),
    (["invert", "--dim", "2", "--phi", "{tmp}/phi.json", "--points",
      "{tmp}/points-header-only.csv", "--out", "{tmp}/o.csv"], EXIT_PARSE, "parse"),
    (["compare", "--a", "{tmp}/field-header-only.csv", "--b", "{tmp}/f.csv"], EXIT_PARSE, "parse"),
    (["evolve", GRID, "--data", "{tmp}/samples-header-only.csv", "--out", "{tmp}/o.csv"],
     EXIT_PARSE, "parse"),
    (["compare", "--a", "{tmp}/field-empty-cell.csv", "--b", "{tmp}/field-empty-cell.csv"],
     EXIT_PARSE, "parse"),
    (["compare", "--a", "{tmp}/missing.csv", "--b", "{tmp}/f.csv"], EXIT_USAGE, "usage"),
    (["invert", "--dim", "2", "--phi", "{tmp}/phi.json", "--points", "{tmp}/missing.csv",
      "--out", "{tmp}/o.csv"], EXIT_USAGE, "usage"),
    (["evolve", GRID, "--data", "{tmp}/missing.csv", "--out", "{tmp}/o.csv"],
     EXIT_USAGE, "usage"),
    (["evolve", GRID, "--data", "{tmp}/samples-repeated-w.csv", "--out", "{tmp}/o.csv"],
     EXIT_PARSE, "parse"),
    (["evolve", GRID, "--data", "{tmp}/samples-nan-u0.csv", "--out", "{tmp}/o.csv"],
     EXIT_PARSE, "parse"),
    (["evolve", "--grid=1e200,2e200,5:0,0.2,3", "--data", "{tmp}/phi.json",
      "--out", "{tmp}/o.csv"], EXIT_DOMAIN, "domain"),
    (["evolve", "--grid=1e200,2e200,5:1e200,2e200,3", "--data", "{tmp}/phi.json",
      "--out", "{tmp}/o.csv"], EXIT_DOMAIN, "domain"),
    (["evolve", GRID, "--a", "1e100", "--data", "{tmp}/phi3.json", "--out", "{tmp}/o.csv"],
     EXIT_DOMAIN, "domain"),
    (["fdref", GRID, "--a", "1e100", "--data", "{tmp}/phi3.json", "--out", "{tmp}/o.csv"],
     EXIT_DOMAIN, "domain"),
    (["evolve", GRID, "--data", "{tmp}/phi.json", "--abs-tol", "1e-300", "--out", "{tmp}/o.csv"],
     EXIT_TOLERANCE, "tolerance"),
    (["invert", "--dim", "2", "--phi", "{tmp}/phi.json", "--points", "{tmp}/points-nan.csv",
      "--out", "{tmp}/o.csv"], EXIT_PARSE, "parse"),
    (["invert", "--dim", "2", "--phi", "{tmp}/phi.json", "--points", "{tmp}/points-inf.csv",
      "--out", "{tmp}/o.csv"], EXIT_PARSE, "parse"),
    (["evolve", GRID, "--data", "{tmp}/phi.json", "--out", "{tmp}"], EXIT_USAGE, "usage"),
    *[(["verify", "--dim", "0" if name == "dim-zero" else "2", "--phi", f"{{tmp}}/{name}.json"],
       EXIT_PARSE, "parse") for name in MALFORMED],
], ids=["negative-degree", "verify-missing", "build-missing", "evolve-missing",
        "bad-order", "nan-abs-tol", "refine-zero", "refine-negative", "nan-cfl",
        "verify-dim-mismatch", "compare-nan-tol", "compare-other-grid", "evolve-nan-grid",
        "evolve-nan-a", "fdref-nan-grid", "order-above-cap", "inf-abs-tol",
        "invert-header-only", "compare-header-only", "evolve-header-only",
        "compare-empty-cell", "compare-missing", "invert-points-missing",
        "evolve-samples-missing", "samples-repeated-w", "samples-nan-u0", "evolve-overflow-grid",
        "evolve-overflow-both", "evolve-huge-a", "fdref-huge-a", "evolve-tolerance",
        "invert-nan-point", "invert-inf-point", "evolve-out-is-directory", *MALFORMED])
def test_error_contract(tmp_path, capsys, argv, code, kind):
    """Every failure exits with its documented code and one error line."""
    phi = build_phi(Polynomial(2, {(1, 1): Fraction(1)}), 2).phi
    write_doc(str(tmp_path / "phi.json"), expr_to_doc(phi))
    phi3 = build_phi(Polynomial(2, {(3, 0): 1, (1, 2): 3}), 2).phi  # data on t = a of degree 5
    write_doc(str(tmp_path / "phi3.json"), expr_to_doc(phi3))
    for name, doc in MALFORMED.items():
        write_doc(str(tmp_path / f"{name}.json"), doc)
    (tmp_path / "x.csv").write_text("t,x1\n0.1,0.2\n")
    for name, text in BAD_CSV.items():
        (tmp_path / name).write_text(text)
    values = np.arange(15, dtype=float).reshape(5, 3)
    for name, x0 in (("f.csv", 0.0), ("shifted.csv", 0.1)):  # one shape, two grids
        grid = Grid2D(x0, x0 + 1.0, 5, 0.0, 0.2, 3)
        write_field_csv(str(tmp_path / name), Field2D(grid=grid, values=values))
    assert main([a.format(tmp=tmp_path) for a in argv]) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {kind}:")
    assert ".pertwave-" not in err[0] and not list(tmp_path.glob(".pertwave-*"))
