import json
import os
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import HealthCheck, assume, given, settings

from conftest import rho_exprs
from pertwave.cauchy import Field2D, Grid2D
from pertwave.errors import DomainError, FormatError
from pertwave.ring import MAX_TOTAL_DEGREE, Polynomial, RhoExpr, normalize
from pertwave.serialize import (FORMAT_VERSION, MAX_EXPONENT, MAX_REDUCTION, atomic_write_text,
                                bundle_to_doc, doc_to_expr, doc_to_poly,
                                dumps, expr_to_doc, field_to_csv, format_float,
                                poly_to_doc,
                                read_doc, read_field_csv,
                                read_points_csv, read_samples_csv, write_doc,
                                write_doc_lines, write_field_csv)
from pertwave.solutions import build_phi

# the CSV readers back the CLI, where a warning prints more than one "error:" line
pytestmark = pytest.mark.filterwarnings("error")


class TestExprDocs:
    @settings(max_examples=60, deadline=None)
    @given(rho_exprs(3))
    def test_round_trip(self, expr):
        assert doc_to_expr(expr_to_doc(expr)) == expr

    def test_doc_shape(self):
        expr = RhoExpr.rho(2) + RhoExpr.from_polynomial(
            Polynomial(2, {(1, 0): Fraction(1, 3)}))
        doc = expr_to_doc(expr)
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["dim"] == 2
        assert [layer["rho_power"] for layer in doc["layers"]] == [0, 1]
        assert doc["layers"][0]["terms"] == [
            {"coeff": "1/3", "exponents": [1, 0]}]

    def test_doc_is_deterministic(self):
        expr = RhoExpr.rho(3, 2).scale(Fraction(5, 7))
        assert dumps(expr_to_doc(expr)) == dumps(expr_to_expr_roundtrip(expr))

    def test_poly_round_trip(self):
        p = Polynomial(2, {(2, 1): Fraction(-3, 2), (0, 0): Fraction(4)})
        assert doc_to_poly(poly_to_doc(p)) == p

    def test_poly_doc_rejects_rho_layers(self):
        with pytest.raises(FormatError):
            doc_to_poly(expr_to_doc(RhoExpr.rho(2)))

    def test_version_check(self):
        doc = expr_to_doc(RhoExpr.rho(2))
        doc["format_version"] = 99
        with pytest.raises(FormatError):
            doc_to_expr(doc)

    def test_malformed_docs(self):
        with pytest.raises(FormatError):
            doc_to_expr({"format_version": FORMAT_VERSION})
        doc = expr_to_doc(RhoExpr.rho(2))
        doc["layers"][0]["terms"][0]["coeff"] = "1/0"
        with pytest.raises(FormatError):
            doc_to_expr(doc)

    @pytest.mark.parametrize("coeff, value", [
        ("7", 7), ("-12/8", Fraction(-3, 2)), ("0", 0), ("-0/5", 0), ("007/010", Fraction(7, 10)),
        ("2/4", Fraction(1, 2)), ("-0/7", 0),
        ("+1", None), ("1/-2", None), ("1/0", None), ("1/00", None), ("1_000", None),
        ("\u0663", None), ("1/2 ", None), ("1/2\n", None), ("1.", None), ("", None)])
    def test_coefficient_grammar(self, coeff, value):
        """A coefficient is a string num or num/den of ASCII digits, num signed, den > 0."""
        doc = expr_to_doc(RhoExpr.from_polynomial(Polynomial.coordinate(2, 0)))
        doc["layers"][0]["terms"][0]["coeff"] = coeff
        if value is None:
            with pytest.raises(FormatError, match="bad coefficient"):
                doc_to_expr(doc)
        else:
            assert doc_to_expr(doc) == RhoExpr.from_polynomial(Polynomial(2, {(1, 0): value}))

    @pytest.mark.parametrize("exponent", [-1, True, False, 1.0, "1", None, [1], MAX_EXPONENT + 1])
    def test_exponent_grammar(self, exponent):
        """An exponent is a JSON integer in [0, MAX_EXPONENT], named when it is not."""
        doc = expr_to_doc(RhoExpr.from_polynomial(Polynomial.coordinate(2, 0)))
        doc["layers"][0]["terms"][0]["exponents"][1] = exponent
        with pytest.raises(FormatError, match=re.escape(
                f"exponent must be an integer in [0, {MAX_EXPONENT}], got {exponent!r}")):
            doc_to_expr(doc)

    def test_terms_read_over_one_den(self):
        """Coefficients at one exponent add up over the lcm of their denominators: two 1/2
        read as the int 1, 1/2 + 1/3 as 5/6, and 1/3 - 1/3 leaves no term; a zero
        denominator keeps its message."""
        doc = expr_to_doc(RhoExpr.from_polynomial(Polynomial(2, {(1, 0): 1, (0, 1): 1})))
        terms = doc["layers"][0]["terms"]
        terms[0]["coeff"] = terms[1]["coeff"] = "1/2"
        terms[1]["exponents"] = terms[0]["exponents"]
        layer = doc_to_expr(doc).layers[0]
        assert layer.terms == {tuple(terms[0]["exponents"]): 1}
        assert type(layer.terms[tuple(terms[0]["exponents"])]) is int
        terms[1]["coeff"] = "1/3"
        assert doc_to_expr(doc).layers[0].terms == {tuple(terms[0]["exponents"]): Fraction(5, 6)}
        terms[0]["coeff"], terms[1]["coeff"] = "1/3", "-1/3"
        assert doc_to_expr(doc).is_zero()
        terms[0]["coeff"] = "1/0"
        with pytest.raises(FormatError, match=re.escape("bad coefficient '1/0': Fraction(1, 0)")):
            doc_to_expr(doc)

    def test_exponent_bound(self):
        """A rho power or exponent of MAX_EXPONENT reads and evaluates; one more is refused."""
        top = RhoExpr.rho(2, MAX_EXPONENT) * RhoExpr.from_polynomial(
            Polynomial(2, {(1, MAX_EXPONENT): 1}))
        doc = expr_to_doc(top)
        assert doc_to_expr(doc) == top
        assert top.eval_points(np.array([[0.0, 0.5]])).shape == (1,)
        for layer, key in ((doc["layers"][0], "rho_power"),
                           (doc["layers"][0]["terms"][0]["exponents"], 1)):
            layer[key] += 1
            with pytest.raises(FormatError, match=f"in \\[0, {MAX_EXPONENT}\\]"):
                doc_to_expr(doc)
            layer[key] -= 1

    def test_degree_bound(self):
        """64 exponents of MAX_EXPONENT (total degree 2^16) read; in dim 128 their total
        degree 2^17 is above ring.MAX_TOTAL_DEGREE, a DomainError."""
        def doc(dim):
            return {"format_version": 1, "dim": dim, "layers": [
                {"rho_power": 0, "terms": [{"coeff": "1", "exponents": [MAX_EXPONENT] * dim}]}]}
        assert doc_to_expr(doc(64)).num[0].degree() == 64 * MAX_EXPONENT
        with pytest.raises(DomainError, match=f"total degree > {MAX_TOTAL_DEGREE}"):
            doc_to_expr(doc(128))

    def test_reduction_bound(self):
        """t^998 at rho^1 in dim 1 weighs 1 * C(499 + 1, 1) * min(1, 499) = 500: layers of
        it that weigh MAX_REDUCTION in all read (they sum to one), one more is refused;
        a normal form weighs nothing."""
        layer = {"rho_power": 1, "terms": [{"coeff": "1/1", "exponents": [998]}]}
        count = MAX_REDUCTION // 500
        assert count * 500 == MAX_REDUCTION
        doc = {"format_version": 1, "dim": 1, "layers": [layer] * count}
        assert doc_to_expr(doc) == normalize([(1, Polynomial(1, {(998,): count}))], 1)
        doc["layers"].append(layer)
        with pytest.raises(FormatError, match=f"of size {MAX_REDUCTION + 500} > {MAX_REDUCTION}"):
            doc_to_expr(doc)
        big = build_phi(Polynomial(8, {(1,) + (3,) * 7: 1}), 8, check=False).phi
        assert doc_to_expr(expr_to_doc(big)) == big

    def test_bundle_doc(self):
        bundle = build_phi(Polynomial(2, {(1, 1): Fraction(1)}), 2)
        doc = bundle_to_doc(bundle)
        assert doc["dim"] == 2
        assert doc_to_poly(doc["seed"]) == bundle.seed
        assert doc_to_expr(doc["phi"]) == bundle.phi
        assert len(doc["coefficients"]) == 2


def expr_to_expr_roundtrip(expr):
    return expr_to_doc(doc_to_expr(expr_to_doc(expr)))


class TestFiles:
    def test_write_read_doc(self, tmp_path):
        path = str(tmp_path / "expr.json")
        expr = RhoExpr.rho(2, 3)
        write_doc(path, expr_to_doc(expr))
        assert doc_to_expr(read_doc(path)) == expr

    def test_read_doc_bad_json(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as f:
            f.write("{not json")
        with pytest.raises(FormatError):
            read_doc(path)

    def test_doc_lines(self, tmp_path):
        path = str(tmp_path / "basis.jsonl")
        polys = [Polynomial(2, {(1, 0): Fraction(1)}),
                 Polynomial(2, {(0, 1): Fraction(1)})]
        write_doc_lines(path, [poly_to_doc(p) for p in polys])
        docs = [json.loads(line) for line in Path(path).read_text().splitlines()]
        assert [doc_to_poly(d) for d in docs] == polys
        with open(path) as f:
            assert len(f.read().strip().splitlines()) == 2

    @pytest.mark.parametrize("target", ["out", "missing/out.txt"])
    def test_atomic_write_failure_names_path(self, tmp_path, target):
        """A rename onto a directory, or a missing directory, fails with an OSError that
        names the requested path, and no temp file is left behind."""
        (tmp_path / "out").mkdir()
        path = str(tmp_path / target)
        with pytest.raises(OSError) as info:
            atomic_write_text(path, "hello\n")
        assert info.value.filename == path and ".pertwave-" not in str(info.value)
        assert os.listdir(tmp_path) == ["out"] and os.listdir(tmp_path / "out") == []

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "hello\n")
        assert Path(path).read_text() == "hello\n"
        assert os.listdir(tmp_path) == ["out.txt"]


class TestFieldCsv:
    def field(self):
        g = Grid2D(-1.0, 1.0, 3, 0.0, 0.5, 2)
        vals = np.arange(6, dtype=float).reshape(3, 2) / 7.0
        return Field2D(grid=g, values=vals)

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "field.csv")
        f = self.field()
        write_field_csv(path, f)
        back = read_field_csv(path)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)

    def test_header_and_order(self):
        text = field_to_csv(self.field())
        lines = text.strip().splitlines()
        assert lines[0] == "x,t,value"
        # t is the outer loop: the first nx rows share t = 0
        assert all(line.split(",")[1] == "0" for line in lines[1:4])

    def test_float_precision_is_exact(self, tmp_path):
        g = Grid2D(0.0, 1.0, 2, 0.0, 1.0, 2)
        vals = np.array([[1.0 / 3.0, np.pi], [1e-300, 0.1 + 0.2]])
        path = str(tmp_path / "field.csv")
        write_field_csv(path, Field2D(grid=g, values=vals))
        back = read_field_csv(path)
        assert np.array_equal(back.values, vals)

    def test_rejects_ragged_grid(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as f:
            f.write("x,t,value\n0,0,1\n1,0,2\n0,1,3\n")
        with pytest.raises(FormatError):
            read_field_csv(path)

    def test_rejects_duplicated_cell(self, tmp_path):
        """Right row count and axes, but one cell twice and another missing."""
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as f:
            f.write("x,t,value\n0,0,1\n1,0,2\n0,1,3\n0,1,4\n")
        with pytest.raises(FormatError, match="exactly once"):
            read_field_csv(path)

    def test_rejects_wrong_header(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as f:
            f.write("a,b,c\n0,0,1\n")
        with pytest.raises(FormatError):
            read_field_csv(path)

    @pytest.mark.parametrize("axis", ["x", "t"])
    @pytest.mark.parametrize("nodes, ok", [
        ((0.0, 0.1, 1.0), False), ((0.0, 0.5 - 6e-10, 1.0), False),
        ((0.0, 0.5 - 4e-10, 1.0), True), ((0.0, 0.5 + 4e-10, 1.0), True),
        ((-1e308, 0.0, 1e308), False),  # the step overflows: no uniform grid to compare with
    ])
    def test_nodes_on_the_uniform_grid(self, tmp_path, axis, nodes, ok):
        """Three nodes on one axis read as the grid through their ends only when the middle
        one is within 1e-9 of a step of the midpoint."""
        other = (0.0, 1.0)
        cells = ([(x, t) for t in other for x in nodes] if axis == "x"
                 else [(x, t) for t in nodes for x in other])
        path = tmp_path / "field.csv"
        rows = "".join(f"{x!r},{t!r},{i}\n" for i, (x, t) in enumerate(cells))
        path.write_text("x,t,value\n" + rows)
        if ok:
            nx, nt = (3, 2) if axis == "x" else (2, 3)
            assert read_field_csv(str(path)).grid == Grid2D(0.0, 1.0, nx, 0.0, 1.0, nt)
        else:
            with pytest.raises(FormatError, match=f"field CSV {axis} = .* is off the uniform"):
                read_field_csv(str(path))


class TestPointAndSampleCsv:
    def test_points(self, tmp_path):
        path = str(tmp_path / "pts.csv")
        with open(path, "w") as f:
            f.write("t,x1\n0.1,0.2\n-0.3,0.4\n")
        pts = read_points_csv(path, 2)
        assert pts.shape == (2, 2)
        assert pts[1, 0] == -0.3

    def test_points_wrong_width(self, tmp_path):
        path = str(tmp_path / "pts.csv")
        with open(path, "w") as f:
            f.write("t,x1\n0.1,0.2\n")
        with pytest.raises(FormatError):
            read_points_csv(path, 4)

    def test_samples_sorted(self, tmp_path):
        path = str(tmp_path / "samples.csv")
        with open(path, "w") as f:
            f.write("w,u0,v0\n1.0,2.0,3.0\n-1.0,4.0,5.0\n0.0,6.0,7.0\n")
        w, u, v = read_samples_csv(path)
        assert list(w) == [-1.0, 0.0, 1.0]
        assert list(u) == [4.0, 6.0, 2.0]
        assert list(v) == [5.0, 7.0, 3.0]

    def test_samples_wrong_header(self, tmp_path):
        path = str(tmp_path / "samples.csv")
        with open(path, "w") as f:
            f.write("w,u,v\n0,1,2\n")
        with pytest.raises(FormatError):
            read_samples_csv(path)


# -- the CSV code before the single loadtxt reader, kept as references --------------


def reference_field_to_csv(field):
    """The per-cell writer: formats x and t again for every cell."""
    g = field.grid
    xs, ts = g.xs(), g.ts()
    lines = ["x,t,value"]
    for j in range(g.nt):
        for i in range(g.nx):
            lines.append(",".join(format_float(v) for v in (xs[i], ts[j], field.values[i, j])))
    return "\n".join(lines) + "\n"


def reference_read_field(path):
    """(grid, values) as the genfromtxt field reader built them."""
    data = np.genfromtxt(path, delimiter=",", names=True, dtype=float)
    xs, xi = np.unique(data["x"], return_inverse=True)
    ts, ti = np.unique(data["t"], return_inverse=True)
    grid = Grid2D(float(xs[0]), float(xs[-1]), xs.size, float(ts[0]), float(ts[-1]), ts.size)
    values = np.empty((xs.size, ts.size))
    values.flat[xi * ts.size + ti] = data["value"]
    return grid, values


def reference_read_points(path):
    return np.atleast_2d(np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float))


def reference_read_samples(path):
    data = np.genfromtxt(path, delimiter=",", names=True, dtype=float)
    order = np.argsort(data["w"])
    return data["w"][order], data["u0"][order], data["v0"][order]


SPECIAL = [1e-300, -0.0, 0.1 + 0.2, 1e300]
numbers = st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)
bounds = st.lists(st.sampled_from(SPECIAL) | st.floats(-1e300, 1e300),
                  min_size=2, max_size=2, unique=True).map(sorted)


@st.composite
def fields(draw):
    nx, nt = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    (x0, x1), (t0, t1) = draw(bounds), draw(bounds)
    values = draw(st.lists(numbers, min_size=nx * nt, max_size=nx * nt))
    return Field2D(Grid2D(x0, x1, nx, t0, t1, nt), np.array(values).reshape(nx, nt))


def table(draw, width, min_rows):
    """Rows of `width` numbers, as format_float writes them."""
    rows = draw(st.lists(st.lists(numbers, min_size=width, max_size=width),
                         min_size=min_rows, max_size=8))
    return "".join(",".join(map(format_float, row)) + "\n" for row in rows)


files = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCsvAgainstReferences:
    """The one loadtxt reader and the writer against the code they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(fields())
    def test_field_bytes(self, field):
        assert field_to_csv(field) == reference_field_to_csv(field)

    @files
    @given(fields())
    def test_field_reader(self, tmp_path, field):
        g = field.grid
        assume(np.unique(g.xs()).size == g.nx and np.unique(g.ts()).size == g.nt)
        path = str(tmp_path / "field.csv")
        write_field_csv(path, field)
        grid, values = reference_read_field(path)
        back = read_field_csv(path)
        assert back.grid == grid
        assert back.values.tobytes() == values.tobytes()

    @files
    @given(st.integers(2, 4), st.data())
    def test_points_reader(self, tmp_path, dim, data):
        path = tmp_path / "pts.csv"
        path.write_text("t,x1\n" + table(data.draw, dim, 1))
        expect = reference_read_points(str(path))
        assert read_points_csv(str(path), dim).tobytes() == expect.tobytes()

    @files
    @given(st.data())
    def test_samples_reader(self, tmp_path, data):
        path = tmp_path / "samples.csv"  # two rows at least: the reference fails on one
        path.write_text("w,u0,v0\n" + table(data.draw, 3, 2))
        reference = reference_read_samples(str(path))
        if np.unique(reference[0]).size < reference[0].size:  # no spline through a repeated w
            with pytest.raises(FormatError, match="no w repeated"):
                read_samples_csv(str(path))
            return
        for got, expect in zip(read_samples_csv(str(path)), reference):
            assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("header, read", [
        ("t,x1", lambda path: read_points_csv(path, 2)),
        ("x,t,value", read_field_csv),
        ("w,u0,v0", read_samples_csv),
    ], ids=["points", "field", "samples"])
    def test_header_only_is_a_format_error(self, tmp_path, header, read):
        """No data rows: one FormatError, no numpy warning (the readers it replaced warned)."""
        path = tmp_path / "empty.csv"
        path.write_text(header + "\n\n")
        with pytest.raises(FormatError, match="no data rows"):
            read(str(path))

    def test_commented_header_after_blank_lines(self, tmp_path):
        """As genfromtxt(names=True) did: blank lines before the header are skipped and
        one leading "#" is dropped from it, so np.savetxt's default header reads."""
        samples = np.array([[1.0, 2.0, 3.0], [-1.0, 4.0, 5.0]])
        path = tmp_path / "samples.csv"
        np.savetxt(path, samples, delimiter=",", header="w,u0,v0")
        assert path.read_text().startswith("# w,u0,v0\n")
        for got, expect in zip(read_samples_csv(str(path)), reference_read_samples(str(path))):
            assert got.tobytes() == expect.tobytes()
        path = tmp_path / "field.csv"
        path.write_text("\n  \n#x,t,value\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n")
        grid, values = reference_read_field(str(path))
        back = read_field_csv(str(path))
        assert back.grid == grid and back.values.tobytes() == values.tobytes()

    def test_empty_cell_is_a_format_error(self, tmp_path):
        """Intended change: genfromtxt read an empty cell as nan, which the CLI reported as
        non-finite field values (exit 4); it is now a FormatError (exit 3)."""
        path = tmp_path / "field.csv"
        path.write_text("x,t,value\n0,0,1\n1,0,\n0,1,3\n1,1,4\n")
        assert np.isnan(reference_read_field(str(path))[1][1, 0])
        with pytest.raises(FormatError, match="cannot parse field CSV"):
            read_field_csv(str(path))

    def test_row_wider_than_header(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("x,t,value\n0,0,1,5\n1,0,2,5\n0,1,3,5\n1,1,4,5\n")
        with pytest.raises(FormatError, match="expected 3 columns, found 4"):
            read_field_csv(str(path))
