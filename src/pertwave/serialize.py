"""Versioned document formats: JSON for symbolic objects, CSV for fields.

Every document carries format_version: 1.  Coefficients are exact "num/den"
fraction strings; floats are printed with 17 significant digits so that
serialize-then-parse is the identity on doubles.  Writes are atomic
(temp file + rename).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np

from .cauchy import Field2D, Grid2D
from .errors import FormatError
from .ring import Polynomial, RhoExpr, normalize

FORMAT_VERSION = 1

# Largest rho power or exponent a document may hold: evaluation builds every
# power of a coordinate (and of rho) up to the top one it meets.
MAX_EXPONENT = 1024
# Largest reduction by 1 + x.x that reading a document may run: the sum over its
# terms t^k at rho^s of dim * C(k//2 + dim, dim) * min(s, k//2), the exponents of a
# reduced term times the layers it passes through: reads under 0.2 s on a 2-vCPU Xeon
# VM at this limit.  A normal form (t-degree <= 1 at every s >= 1) sums to 0.
MAX_REDUCTION = 100_000


def _parse_coeff(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad coefficient {s!r}: {exc}") from exc


def _layer_entry(rho_power, poly):
    terms = [{"coeff": f"{c.numerator}/{c.denominator}", "exponents": list(e)}
             for e, c in poly.sorted_terms()]
    return {"rho_power": rho_power, "terms": terms}


def expr_to_doc(expr):
    return {
        "format_version": FORMAT_VERSION,
        "dim": expr.dim,
        "layers": [_layer_entry(s, expr.layers[s]) for s in sorted(expr.layers)],
    }


def poly_to_doc(poly):
    return expr_to_doc(RhoExpr.from_polynomial(poly))


def _integer(value, name, least, most=None):
    """A JSON integer (not a bool or a float) >= least, and <= most if given, else FormatError."""
    if type(value) is not int or value < least or most is not None and value > most:
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise FormatError(f"{name} must be an integer {bound}, got {value!r}")
    return value


def doc_to_expr(doc):
    try:
        if _integer(doc["format_version"], "format_version", 1) != FORMAT_VERSION:
            raise FormatError(f"unsupported format_version {doc['format_version']}")
        dim = _integer(doc["dim"], "dim", 1)
        raw, reduction = [], 0
        for layer in doc["layers"]:
            terms = {}
            for term in layer["terms"]:
                exps = tuple(_integer(e, "exponent", 0, MAX_EXPONENT) for e in term["exponents"])
                if len(exps) != dim:
                    raise FormatError(f"exponents {list(exps)} do not have dim = {dim} entries")
                terms[exps] = terms.get(exps, Fraction(0)) + _parse_coeff(term["coeff"])
            rho_power = _integer(layer["rho_power"], "rho_power", 0, MAX_EXPONENT)
            reduction += sum(dim * math.comb(e[0] // 2 + dim, dim) * min(rho_power, e[0] // 2)
                             for e in terms if e[0] > 1)
            if reduction > MAX_REDUCTION:
                raise FormatError(f"reduction by 1 + x.x of size {reduction} > {MAX_REDUCTION}")
            raw.append((rho_power, Polynomial(dim, terms, _trusted=True)))
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
    """Write text to path by a temp file beside it and a rename; OSErrors name path."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".pertwave-")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


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
    xs = [format_float(x) for x in field.grid.xs()]
    lines = ["x,t,value"]
    for t, column in zip(map(format_float, field.grid.ts()), field.values.T):
        lines += [f"{x},{t},{format_float(v)}" for x, v in zip(xs, column)]
    return "\n".join(lines) + "\n"


def write_field_csv(path, field):
    atomic_write_text(path, field_to_csv(field))


def _read_csv(path, kind, header=None):
    """The data rows (m >= 1) of a CSV as an (m, k) float array; a non-float cell is a
    FormatError, an unopenable file an OSError.  The header is the first non-blank line,
    less one leading "#" (as np.savetxt writes it); it must equal `header` if given."""
    try:
        with open(path) as handle:
            stripped = (line.strip().removeprefix("#") for line in handle)
            names = tuple(name.strip() for name in next(filter(None, stripped), "").split(","))
            lines = [line for line in handle if line.partition("#")[0].strip()]
        if header is not None and names != header:
            raise FormatError(f"{path}: expected header {','.join(header)}, got {','.join(names)}")
        if not lines:
            raise FormatError(f"{path}: {kind} CSV has no data rows")
        rows = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: cannot parse {kind} CSV: {exc}") from exc
    if header is not None and rows.shape[1] != len(header):
        raise FormatError(f"{path}: expected {len(header)} columns, found {rows.shape[1]}")
    return rows


def read_field_csv(path):
    x, t, value = _read_csv(path, "field", ("x", "t", "value")).T
    xs, xi = np.unique(x, return_inverse=True)
    ts, ti = np.unique(t, return_inverse=True)
    cells = xi * ts.size + ti
    if xs.size * ts.size != value.size or np.unique(cells).size != value.size:
        raise FormatError(f"{path}: field CSV must hold each cell of a grid exactly once")
    grid = Grid2D(x_min=float(xs[0]), x_max=float(xs[-1]), nx=xs.size,
                  t_min=float(ts[0]), t_max=float(ts[-1]), nt=ts.size)
    values = np.empty((xs.size, ts.size))
    values.flat[cells] = value
    return Field2D(grid=grid, values=values)


def read_points_csv(path, dim):
    """Points CSV with one coordinate column per axis (t first), header row."""
    data = _read_csv(path, "points")
    if data.shape[1] != dim:
        raise FormatError(
            f"{path}: expected {dim} coordinate columns, found {data.shape[1]}")
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: non-finite coordinates")
    return data


def read_samples_csv(path):
    """Tabulated initial data CSV with header w,u0,v0: finite, each w once."""
    data = _read_csv(path, "samples", ("w", "u0", "v0"))
    w, u0, v0 = data[np.argsort(data[:, 0])].T
    if not np.all(np.isfinite(data)) or np.any(w[1:] == w[:-1]):
        raise FormatError(f"{path}: samples must be finite, with no w repeated")
    return w, u0, v0
