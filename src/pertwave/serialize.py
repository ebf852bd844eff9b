"""Versioned document formats: JSON for symbolic objects, CSV for fields.

Every document carries format_version: 1.  Coefficients are exact "num/den"
fraction strings; floats are printed with 17 significant digits so that
serialize-then-parse is the identity on doubles.  Writes are atomic
(temp file + rename).
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction

import numpy as np

from .errors import FormatError
from .ring import Polynomial, RhoExpr, normalize

FORMAT_VERSION = 1


def _coeff_str(c):
    return f"{c.numerator}/{c.denominator}"


def _parse_coeff(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad coefficient {s!r}: {exc}") from exc


def _layer_entry(rho_power, poly):
    terms = [{"coeff": _coeff_str(c), "exponents": list(e)} for e, c in poly.sorted_terms()]
    return {"rho_power": rho_power, "terms": terms}


def expr_to_doc(expr):
    return {
        "format_version": FORMAT_VERSION,
        "dim": expr.dim,
        "layers": [_layer_entry(s, expr.layers[s]) for s in sorted(expr.layers)],
    }


def poly_to_doc(poly):
    return expr_to_doc(RhoExpr.from_polynomial(poly))


def doc_to_expr(doc):
    try:
        if doc["format_version"] != FORMAT_VERSION:
            raise FormatError(f"unsupported format_version {doc['format_version']}")
        dim = int(doc["dim"])
        raw = []
        for layer in doc["layers"]:
            terms = {}
            for term in layer["terms"]:
                exps = tuple(int(e) for e in term["exponents"])
                terms[exps] = terms.get(exps, Fraction(0)) + _parse_coeff(term["coeff"])
            raw.append((int(layer["rho_power"]), Polynomial(dim, terms)))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed document: {exc}") from exc
    return normalize(raw, dim)


def doc_to_poly(doc):
    expr = doc_to_expr(doc)
    if set(expr.layers) - {0}:
        raise FormatError("expected a pure polynomial document (rho power 0 only)")
    return expr.layers.get(0, Polynomial.zero(expr.dim))


def bundle_to_doc(bundle):
    return {
        "format_version": FORMAT_VERSION,
        "dim": bundle.dim,
        "seed": poly_to_doc(bundle.seed),
        "coefficients": [poly_to_doc(p) for p in bundle.coefficients],
        "phi": expr_to_doc(bundle.phi),
    }


def dumps(doc):
    return json.dumps(doc, indent=2) + "\n"


def atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pertwave-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_doc(path, doc):
    atomic_write_text(path, dumps(doc))


def read_doc(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc


def write_doc_lines(path, docs):
    """One compact JSON document per line (e.g. one per basis element)."""
    lines = [json.dumps(doc, separators=(",", ":")) for doc in docs]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_doc_lines(path):
    """Documents of a JSON-lines file, one per line.

    Public because it reads the output of `pertwave basis` (written by
    write_doc_lines); the round-trip tests use it.
    """
    docs = []
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    docs.append(json.loads(line))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON lines: {exc}") from exc
    return docs


def format_float(v):
    """17 significant digits: enough that parsing the text gives back the same double."""
    return format(float(v), ".17g")


def field_to_csv(field):
    """Field CSV: header x,t,value; rows ordered with t as the outer index."""
    g = field.grid
    xs, ts = g.xs(), g.ts()
    lines = ["x,t,value"]
    for j in range(g.nt):
        for i in range(g.nx):
            lines.append(",".join(format_float(v) for v in (xs[i], ts[j], field.values[i, j])))
    return "\n".join(lines) + "\n"


def write_field_csv(path, field):
    atomic_write_text(path, field_to_csv(field))


def read_field_csv(path):
    from .cauchy import Field2D, Grid2D
    try:
        data = np.genfromtxt(path, delimiter=",", names=True, dtype=float)
    except (ValueError, OSError) as exc:
        raise FormatError(f"{path}: cannot parse field CSV: {exc}") from exc
    if data.dtype.names != ("x", "t", "value"):
        raise FormatError(f"{path}: expected header x,t,value, got {data.dtype.names}")
    xs, xi = np.unique(data["x"], return_inverse=True)
    ts, ti = np.unique(data["t"], return_inverse=True)
    cells = xi * ts.size + ti
    if xs.size * ts.size != data.size or np.unique(cells).size != data.size:
        raise FormatError(f"{path}: field CSV must hold each cell of a grid exactly once")
    grid = Grid2D(x_min=float(xs[0]), x_max=float(xs[-1]), nx=xs.size,
                  t_min=float(ts[0]), t_max=float(ts[-1]), nt=ts.size)
    values = np.empty((xs.size, ts.size))
    values.flat[cells] = data["value"]
    return Field2D(grid=grid, values=values)


def read_points_csv(path, dim):
    """Points CSV with one coordinate column per axis (t first), header row."""
    try:
        data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float)
    except (ValueError, OSError) as exc:
        raise FormatError(f"{path}: cannot parse points CSV: {exc}") from exc
    data = np.atleast_2d(data)
    if data.shape[1] != dim:
        raise FormatError(
            f"{path}: expected {dim} coordinate columns, found {data.shape[1]}")
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: non-finite coordinates")
    return data


def read_samples_csv(path):
    """Tabulated initial data CSV with header w,u0,v0."""
    try:
        data = np.genfromtxt(path, delimiter=",", names=True, dtype=float)
    except (ValueError, OSError) as exc:
        raise FormatError(f"{path}: cannot parse samples CSV: {exc}") from exc
    if data.dtype.names != ("w", "u0", "v0"):
        raise FormatError(f"{path}: expected header w,u0,v0, got {data.dtype.names}")
    order = np.argsort(data["w"])
    return data["w"][order], data["u0"][order], data["v0"][order]
