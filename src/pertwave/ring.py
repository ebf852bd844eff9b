"""Exact arithmetic in the quotient ring Q[t, x1..x_{n-1}, rho] / (rho*(1+x.x) - 1).

Coordinates are indexed 0..n-1 with index 0 the time coordinate t.  The
Minkowski square is x.x = -t^2 + sum(xi^2) (signature -,+,+,...), rho stands
for 1/(1 + x.x), and the relation rho*(1 - t^2 + sum(xi^2)) = 1 is eliminated
by keeping every rho-layer s >= 1 at t-degree <= 1.  With that convention two
elements are equal iff their layer dictionaries are structurally equal, so
every identity below reduces to an exact zero test.

The D'Alembertian and the Euler operator H act on each rho-layer in closed
form (RhoExpr.box, RhoExpr.euler_h), from d_mu rho = -2 x_mu rho^2,
H rho = -2 rho + 2 rho^2 and x.x = 1/rho - 1: one normalize call per operator.

A stored coefficient is an int when it is integral and a fractions.Fraction
otherwise (Fraction(k, 1) == k with equal hashes, so this changes no
equality); integer inputs therefore stay in int arithmetic.  normalize
divides each rho-layer by 1 + x.x one t-slice at a time: from the top
t-degree down, the slice t^k A_k(x) sends -A_k to the quotient and
(1 + sum xi^2) A_k to the slice t^(k-2).  Evaluation at points is the only
place floating point enters.  One evaluator serves both types
(Polynomial is its rho^0 case): it builds each coordinate and rho power once
per call and shares it across all terms and layers.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

import numpy as np

from .errors import DimensionMismatch, SingularPoint

# Evaluation guard: |1 + x.x| below this is treated as the singular set.
# For O(1) coordinates 1 + x.x has then lost 12 of its ~16 significant digits
# to cancellation, and rho = 1/(1 + x.x) exceeds 1e12.
_SING_TOL = 1e-12


def grlex_key(exponents):
    """Graded lexicographic sort key (t is the most significant variable)."""
    return (sum(exponents), exponents)


def _coeff(value):
    """value as a stored coefficient: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _nonzero(terms):
    """Drop the zero coefficients that accumulation left behind; integral ones become int."""
    return {e: c if type(c) is int or c.denominator != 1 else c.numerator
            for e, c in terms.items() if c}


def box_monomial(exps):
    """box of the monomial with exponents exps, as (exponents, integer factor) pairs.

    -d2/dt2 gives -e0(e0-1) on t and each d2/dxi2 gives +ei(ei-1) on xi.
    """
    return [(exps[:axis] + (k - 2,) + exps[axis + 1:], k * (k - 1) if axis else -k * (k - 1))
            for axis, k in enumerate(exps) if k >= 2]


def margin(points):
    """1 + x.x = 1 - t^2 + sum(xi^2) (that is, 1/rho) at each row of an (m, dim) array.

    Every singular-set guard measures distance from 1 + x.x = 0 with this
    one formula; each guard keeps its own threshold and error class.
    """
    sq = np.asarray(points, dtype=float).T ** 2
    # whole columns added left to right: the order of a row-wise reduction
    # over the spatial axes, without numpy's slow short-axis reduce
    return 1.0 - sq[0] + sum(sq[1:], 0.0)


def _evaluate(dim, layers, points, rho=False):
    """sum_s P_s rho^s at each row of an (m, dim) array, from layers {s: P_s}.

    Powers come from repeated multiplication (numpy's pow is far slower for
    k >= 3).  With rho set, rho = 1/(1 + x.x) after the _SING_TOL guard;
    without it, layers may only hold s = 0.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[None, :]
    if points.shape[1] != dim:
        raise DimensionMismatch(f"points have {points.shape[1]} coords, expected {dim}")
    powers = [[None, col] for col in points.T]  # powers[axis][k]; axis dim is rho
    if rho:
        denom = margin(points)
        if (np.abs(denom) < _SING_TOL).any():
            raise SingularPoint("evaluation on the singular set 1 + x.x = 0")
        powers.append([None, 1.0 / denom])
    keys = [e + (s,) for s, p in layers.items() for e in p.terms]
    for row, top in zip(powers, map(max, zip(*keys))):
        while len(row) <= top:
            row.append(row[-1] * row[1])
    out = np.zeros(len(points))
    for s, p in layers.items():
        acc = 0.0
        for e, c in p.terms.items():
            term = float(c)
            for row, k in zip(powers, e):
                if k:
                    term *= row[k]  # float * array first: powers are never written
            acc += term
        out += acc * powers[dim][s] if s else acc
    return out


class Polynomial:
    """Multivariate polynomial over Q with a canonical term dictionary.

    ``terms`` maps exponent tuples to nonzero coefficients, each an int when
    integral and a Fraction otherwise; no zero coefficient is ever stored, so
    equality is plain structural equality.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None, _trusted=False):
        if dim < 1:
            raise DimensionMismatch(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        if terms is None:
            self.terms = {}
        elif _trusted:
            self.terms = terms
        else:
            clean = {}
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.dim:
                    raise DimensionMismatch(
                        f"exponent tuple {exps} does not match dim {self.dim}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                clean[exps] = clean.get(exps, 0) + Fraction(coeff)
            self.terms = _nonzero(clean)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, dim):
        return cls(dim, None, _trusted=True)

    @classmethod
    def constant(cls, dim, value):
        value = _coeff(value)
        if not value:
            return cls.zero(dim)
        return cls(dim, {(0,) * dim: value}, _trusted=True)

    @classmethod
    def coordinate(cls, dim, axis):
        if not 0 <= axis < dim:
            raise DimensionMismatch(f"axis {axis} out of range for dim {dim}")
        exps = [0] * dim
        exps[axis] = 1
        return cls(dim, {tuple(exps): 1}, _trusted=True)

    @classmethod
    def monomial(cls, dim, exponents, coeff=1):
        return cls(dim, {tuple(exponents): Fraction(coeff)})

    # -- structure --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def t_degree(self):
        if not self.terms:
            return -1
        return max(e[0] for e in self.terms)

    def sorted_terms(self):
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]),
                      reverse=True)

    # -- arithmetic -------------------------------------------------------

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other):
        if isinstance(other, Polynomial):
            self._check_dim(other)
            terms = dict(self.terms)
            for e, c in other.terms.items():
                terms[e] = terms.get(e, 0) + c
            return Polynomial(self.dim, _nonzero(terms), _trusted=True)
        return NotImplemented

    def __neg__(self):
        return Polynomial(self.dim, {e: -c for e, c in self.terms.items()},
                          _trusted=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_dim(other)
            terms = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(map(add, e1, e2))
                    terms[e] = terms.get(e, 0) + c1 * c2
            return Polynomial(self.dim, _nonzero(terms), _trusted=True)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, scalar):
        """scalar * self: an int product per coefficient, or one reduced Fraction."""
        scalar = _coeff(scalar)
        if not scalar:
            return Polynomial.zero(self.dim)
        num, den = scalar.numerator, scalar.denominator
        terms = {e: c * num if den == 1 and type(c) is int
                 else Fraction(c.numerator * num, c.denominator * den)
                 for e, c in self.terms.items()}
        return Polynomial(self.dim, _nonzero(terms), _trusted=True)

    # -- calculus ---------------------------------------------------------

    def diff(self, axis):
        if not 0 <= axis < self.dim:
            raise DimensionMismatch(f"axis {axis} out of range for dim {self.dim}")
        terms = {}
        for e, c in self.terms.items():
            k = e[axis]
            if k:
                de = list(e)
                de[axis] = k - 1
                de = tuple(de)
                terms[de] = terms.get(de, 0) + c * k
        return Polynomial(self.dim, _nonzero(terms), _trusted=True)

    def box(self):
        """D'Alembertian -d2/dt2 + sum_i d2/dxi2, term by term (box_monomial)."""
        terms = {}
        for e, c in self.terms.items():
            for de, f in box_monomial(e):
                terms[de] = terms.get(de, 0) + c * f
        return Polynomial(self.dim, _nonzero(terms), _trusted=True)

    def euler_h(self):
        """Euler operator t*dt + sum_i xi*dxi: each term times its total degree."""
        return self._h_affine(1, 0)

    def _h_affine(self, a, b):
        """(a*H + b) self for integers a, b: each term times a*(its total degree) + b."""
        return Polynomial(self.dim,
                          _nonzero({e: c * (a * sum(e) + b) for e, c in self.terms.items()}),
                          _trusted=True)

    # -- evaluation -------------------------------------------------------

    def eval_points(self, points):
        """Evaluate at an (m, dim) float array; returns an (m,) array."""
        return _evaluate(self.dim, {0: self}, points)

    def __call__(self, point):
        return float(self.eval_points(np.reshape(point, (1, -1)))[0])

    # -- display ----------------------------------------------------------

    def _term_str(self, exps, coeff):
        if self.dim == 1:
            names = ["u"]  # dim-1 polynomials are in the radial variable u (hyp2f1)
        elif self.dim == 2:
            names = ["t", "x"]
        else:
            names = ["t"] + [f"x{i}" for i in range(1, self.dim)]
        parts = []
        for name, k in zip(names, exps):
            if k == 1:
                parts.append(name)
            elif k > 1:
                parts.append(f"{name}^{k}")
        body = "*".join(parts)
        if not body:
            return str(coeff)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{coeff}*{body}"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = [self._term_str(e, c) for e, c in self.sorted_terms()]
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"Polynomial({self.dim}, {self})"


def _reduce_layer(poly):
    """Divide by (1 + X) - t^2 with X = sum xi^2, treating t^2 as the head monomial.

    Returns (quotient, remainder) with poly == quotient*(1+x.x) + remainder
    and remainder of t-degree <= 1, the unique t-reduced representative.
    Writing poly = sum_k t^k A_k(x), from the top k down to 2 each slice is
    t^k A_k = -t^(k-2) A_k (1+x.x) + t^(k-2) (1+X) A_k: -A_k goes into the
    quotient at t^(k-2) and (1+X) A_k merges into A_(k-2).
    """
    slices = {}
    for e, c in poly.terms.items():
        slices.setdefault(e[0], {})[e[1:]] = c
    quot = {}
    for k in range(max(slices, default=0), 1, -1):
        a = slices.pop(k, None)
        if not a:
            continue
        below = slices.setdefault(k - 2, {})
        for x, c in a.items():
            if not c:
                continue
            quot[(k - 2,) + x] = -c
            below[x] = below.get(x, 0) + c
            for axis in range(len(x)):
                xe = x[:axis] + (x[axis] + 2,) + x[axis + 1:]
                below[xe] = below.get(xe, 0) + c
    rem = {(k,) + x: c for k, a in slices.items() for x, c in a.items()}
    return (Polynomial(poly.dim, _nonzero(quot), _trusted=True),
            Polynomial(poly.dim, _nonzero(rem), _trusted=True))


class RhoExpr:
    """Canonical element of Q[t, x, rho] / (rho*(1+x.x) - 1).

    ``layers`` maps the rho power s to a Polynomial coefficient; every layer
    with s >= 1 is kept at t-degree <= 1 and zero layers are dropped.
    """

    __slots__ = ("dim", "layers")

    def __init__(self, dim, layers, _normalized=False):
        if _normalized:
            self.dim = dim
            self.layers = layers
            return
        built = normalize([(s, p) for s, p in layers.items()], dim)
        self.dim = built.dim
        self.layers = built.layers

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, dim):
        return cls(dim, {}, _normalized=True)

    @classmethod
    def constant(cls, dim, value):
        value = _coeff(value)
        if not value:
            return cls.zero(dim)
        return cls(dim, {0: Polynomial.constant(dim, value)}, _normalized=True)

    @classmethod
    def from_polynomial(cls, poly, rho_power=0):
        return normalize([(rho_power, poly)], poly.dim)

    @classmethod
    def rho(cls, dim, power=1):
        if power < 0:
            raise ValueError("rho powers must be non-negative")
        if power == 0:
            return cls.constant(dim, 1)
        return cls(dim, {power: Polynomial.constant(dim, 1)}, _normalized=True)

    # -- structure --------------------------------------------------------

    def is_zero(self):
        return not self.layers

    def __eq__(self, other):
        if not isinstance(other, RhoExpr):
            return NotImplemented
        return self.dim == other.dim and self.layers == other.layers

    def __hash__(self):
        return hash((self.dim, frozenset((s, p) for s, p in self.layers.items())))

    # -- arithmetic -------------------------------------------------------

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, RhoExpr):
            return NotImplemented
        self._check_dim(other)
        # sums of normal forms stay normal: t-degrees cannot grow
        layers = dict(self.layers)
        for s, p in other.layers.items():
            acc = layers.get(s)
            acc = p if acc is None else acc + p
            if acc.is_zero():
                layers.pop(s, None)
            else:
                layers[s] = acc
        return RhoExpr(self.dim, layers, _normalized=True)

    def __neg__(self):
        return RhoExpr(self.dim, {s: -p for s, p in self.layers.items()},
                       _normalized=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RhoExpr):
            self._check_dim(other)
            raw = []
            for s1, p1 in self.layers.items():
                for s2, p2 in other.layers.items():
                    raw.append((s1 + s2, p1 * p2))
            return normalize(raw, self.dim)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Polynomial):
            return self * RhoExpr.from_polynomial(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, scalar):
        scalar = _coeff(scalar)
        if not scalar:
            return RhoExpr.zero(self.dim)
        return RhoExpr(self.dim, {s: p.scale(scalar) for s, p in self.layers.items()},
                       _normalized=True)

    # -- calculus ---------------------------------------------------------

    def diff(self, axis):
        """Partial derivative; uses d(rho)/dt = 2t rho^2, d(rho)/dxi = -2 xi rho^2."""
        if not 0 <= axis < self.dim:
            raise DimensionMismatch(f"axis {axis} out of range for dim {self.dim}")
        coord = Polynomial.coordinate(self.dim, axis)
        raw = []
        for s, p in self.layers.items():
            dp = p.diff(axis)
            if not dp.is_zero():
                raw.append((s, dp))
            if s:
                raw.append((s + 1, (coord * p).scale(2 * s if axis == 0 else -2 * s)))
        return normalize(raw, self.dim)

    def box(self):
        """D'Alembertian in normal form, with a = 4s(s+1) on each layer:

        box(P rho^s) = rho^s box P + rho^(s+1) [-4s HP + (a - 2sn) P] - a rho^(s+2) P.
        """
        raw = []
        for s, p in self.layers.items():
            raw.append((s, p.box()))
            if s:
                a = 4 * s * (s + 1)
                raw += [(s + 1, p._h_affine(-4 * s, a - 2 * s * self.dim)),
                        (s + 2, p.scale(-a))]
        return normalize(raw, self.dim)

    def euler_h(self):
        """Euler operator H = t*dt + sum_i xi*dxi (no metric signs) in normal form:

        H(P rho^s) = rho^s (HP - 2s P) + 2s rho^(s+1) P on each layer.
        """
        raw = []
        for s, p in self.layers.items():
            raw += [(s, p._h_affine(1, -2 * s)), (s + 1, p.scale(2 * s))]
        return normalize(raw, self.dim)

    # -- evaluation -------------------------------------------------------

    def eval_points(self, points):
        """Evaluate at an (m, dim) float array, substituting rho = 1/(1+x.x)."""
        return _evaluate(self.dim, self.layers, points, rho=True)

    def __call__(self, point):
        return float(self.eval_points(np.reshape(point, (1, -1)))[0])

    # -- display ----------------------------------------------------------

    def __str__(self):
        if not self.layers:
            return "0"
        chunks = []
        for s in sorted(self.layers):
            p = self.layers[s]
            if s == 0:
                chunks.append(str(p))
            else:
                rho = "rho" if s == 1 else f"rho^{s}"
                body = str(p)
                if body == "1":
                    chunks.append(rho)
                elif body == "-1":
                    chunks.append(f"-{rho}")
                elif len(p.terms) == 1:
                    chunks.append(f"{body}*{rho}")
                else:
                    chunks.append(f"({body})*{rho}")
        out = chunks[0]
        for c in chunks[1:]:
            out += f" - {c[1:]}" if c.startswith("-") else f" + {c}"
        return out

    def __repr__(self):
        return f"RhoExpr({self.dim}, {self})"


def normalize(raw, dim):
    """Canonical RhoExpr from a list of (rho_power, Polynomial) pairs.

    Pairs with the same rho power are summed.  Then, from the top layer
    down, every layer s >= 1 is divided by 1 + x.x (with t^2 as head); the
    quotient merges into layer s-1 and the t-reduced remainder stays.
    """
    layers = {}
    for s, poly in raw:
        if s < 0:
            raise ValueError("rho powers must be non-negative")
        if poly.dim != dim:
            raise DimensionMismatch(f"dim {poly.dim} vs {dim}")
        acc = layers.get(s)
        if acc is None:
            layers[s] = dict(poly.terms)
        else:
            for e, c in poly.terms.items():
                acc[e] = acc.get(e, 0) + c
    for s in range(max(layers, default=0), 0, -1):
        terms = layers.get(s)
        if terms and max(e[0] for e in terms) >= 2:
            quot, rem = _reduce_layer(Polynomial(dim, terms, _trusted=True))
            layers[s] = rem.terms
            below = layers.setdefault(s - 1, {})
            for e, c in quot.terms.items():
                below[e] = below.get(e, 0) + c
    out = {}
    for s, terms in layers.items():
        terms = _nonzero(terms)
        if terms:
            out[s] = Polynomial(dim, terms, _trusted=True)
    return RhoExpr(dim, out, _normalized=True)
