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

A Polynomial keys each term by one int, the fields [total degree | t | x1 |
... | x_{n-1}] of _BITS each (Monagan & Pearce, CASC 2007): a product of
terms is the sum of their keys, and the keys sort in graded-lex order.  A
Polynomial and a RhoExpr store their coefficients one way: nonzero ints over
one positive den coprime to all of them (a unique pair: content and primitive
part, Knuth TAOCP 4.6.1), so operators run on ints; Polynomial.terms (keyed by
exponent tuples, rational) and RhoExpr.layers are views built on each read.
normalize is the one place that reduces by 1 + x.x: it brings its pairs over
the lcm of their dens and divides each rho-layer's int terms in place, one
t-slice at a time.  Exact values enter one checked way per type, from rational
terms: Polynomial(dim, {exponent tuple: rational}) and normalize([(rho power,
Polynomial)], dim) refuse a negative or non-integer exponent or power with a
ValueError; Polynomial(dim, packed, den) and RhoExpr(dim, num, den) are the
trusted constructors of the ring's own operators.  Floats leave two ways, each
exact coefficient rounded once: eval_points at an (m, dim) array (Polynomial
is its rho^0 case), which builds each coordinate and rho power once per call,
and RhoExpr.on_slice, a dim-2 element on t = a as one rational function of w,
evaluated by Horner (the exact n = 2 Cauchy data of cauchy).
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

import numpy as np

from .errors import DomainError

# Evaluation guard: |1 + x.x| below this is treated as the singular set.
# For O(1) coordinates 1 + x.x has then lost 12 of its ~16 significant digits
# to cancellation, and rho = 1/(1 + x.x) exceeds 1e12.
_SING_TOL = 1e-12

# No field of a key carries while each term's degree is <= MAX_TOTAL_DEGREE, which only
# __mul__ can raise; 2^17 - 1 admits the documents of dim <= 127 (exponents <= 1024).
_BITS = 17
_MASK = MAX_TOTAL_DEGREE = (1 << _BITS) - 1


def _shifts(dim):
    """Bit offsets of the exponent fields of t, x1, ..., x_{dim-1}; the degree's is _BITS * dim."""
    return range(_BITS * (dim - 1), -1, -_BITS)


def _pack(exps):
    """Packed key of an exponent tuple (t first); DomainError past MAX_TOTAL_DEGREE."""
    if (key := sum(exps)) > MAX_TOTAL_DEGREE:
        raise DomainError(f"exponents {exps}: total degree > {MAX_TOTAL_DEGREE}")
    for k in exps:
        key = key << _BITS | k
    return key


def _add_box(out, terms, dim):
    """Add the D'Alembertian of the packed terms into out, and return out (Polynomial.box)."""
    drop, t_sh, shifts = 2 << _BITS * dim, _BITS * (dim - 1), _shifts(dim)
    for e, c in terms.items():
        for sh in shifts:
            if (k := e >> sh & _MASK) >= 2:
                de = e - (2 << sh) - drop
                out[de] = out.get(de, 0) + c * (k * (k - 1) if sh != t_sh else -k * (k - 1))
    return out


def _check_dim(a, b):
    if a != b:
        raise DomainError(f"dim {a} vs {b}")


def _join(parts):
    """Display terms joined by their signs ("a - b" for a part "-b"); "0" for none."""
    out = parts[0] if parts else "0"
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def margin(points):
    """1 + x.x = 1 - t^2 + sum(xi^2) (that is, 1/rho) at each row of an (m, dim) array.

    Every singular-set guard takes 1 + x.x from here: check_margin for the floors of
    the Cauchy nodes, grids, data and leapfrog domain and of the inversion rays, and
    _evaluate for its two-sided _SING_TOL.
    """
    sq = np.asarray(points, dtype=float).T ** 2
    # whole columns added left to right: the order of a row-wise reduction
    # over the spatial axes, without numpy's slow short-axis reduce
    return 1.0 - sq[0] + sum(sq[1:], 0.0)


def check_margin(points, floor, subject):
    """margin(points), once every row's margin is finite and >= floor.

    DomainError otherwise, naming the first row x that fails by the text subject(x),
    its margin and the floor.  A coordinate whose square overflows gives an infinite
    or NaN margin, which fails too, without a numpy warning.
    """
    points = np.asarray(points, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        m = margin(points)
    bad = np.flatnonzero(~((m >= floor) & (m < math.inf)))  # written so that NaN fails too
    if bad.size:
        k = bad[0]
        raise DomainError(f"{subject(points[k])}: margin 1 + x.x = {m[k]}, not in [{floor}, inf)")
    return m


def _evaluate(dim, layers, den, points, with_rho=True):
    """sum_s P_s rho^s / den at each row of an (m, dim) array, from int layers {s: P_s}.

    Each coefficient is rounded once, as c / den.  Powers come from repeated
    multiplication when first needed (numpy's pow is far slower for k >= 3).  With
    rho, rho = 1/(1 + x.x) after the _SING_TOL guard; without it, layers may only
    hold s = 0.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise DomainError(f"points of shape {points.shape}, expected (m, {dim})")
    if points.shape[1] != dim:
        raise DomainError(f"points have {points.shape[1]} coords, expected {dim}")
    powers = [[None, col] for col in points.T]  # powers[axis][k]; axis dim is rho
    if with_rho:
        denom = margin(points)
        if (np.abs(denom) < _SING_TOL).any():
            raise DomainError("evaluation on the singular set 1 + x.x = 0")
        powers.append(rho := [None, 1.0 / denom])
        while len(rho) <= max(layers, default=0):
            rho.append(rho[-1] * rho[1])
    fields, mask = list(zip(powers, _shifts(dim))), _MASK
    out = np.zeros(len(points))
    for s, p in layers.items():
        acc = 0.0
        for e, c in p.packed.items():
            term = c / den
            for row, sh in fields:
                if k := e >> sh & mask:
                    while len(row) <= k:
                        row.append(row[-1] * row[1])
                    term *= row[k]  # float * array first: powers are never written
            acc += term
        out += acc * powers[dim][s] if s else acc
    return out


class Polynomial:
    """Multivariate polynomial over Q, stored as int coefficients over one den.

    ``packed`` maps packed keys to nonzero int coefficients and ``den`` is a
    positive int coprime to all of them, so equality is plain structural
    equality.  Polynomial(dim, {exponent tuple: rational}) is the checked way in:
    it accepts any rationals at exponents that are non-negative integers of any
    integral type.  Given den, terms is a {packed key: int} dict that the new
    Polynomial owns, which it brings to that form by dropping zeros and dividing
    out gcd(den, coefficients), the one canonicalisation.
    """

    __slots__ = ("dim", "packed", "den")

    def __init__(self, dim, terms=None, den=None):
        if dim < 1:
            raise DomainError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        if den is None:
            clean = {}
            for exps, coeff in (terms or {}).items():
                exps = tuple(exps)
                if len(exps) != self.dim:
                    raise DomainError(f"exponent tuple {exps} does not match dim {self.dim}")
                if not all(isinstance(e, numbers.Integral) and e >= 0 for e in exps):
                    raise ValueError(f"non-integer or negative exponent in {exps}")
                key = _pack(tuple(map(int, exps)))
                clean[key] = clean.get(key, 0) + Fraction(coeff)
            den = math.lcm(*(c.denominator for c in clean.values()))
            terms = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        if not all(terms.values()):
            terms = {e: c for e, c in terms.items() if c}
        if den != 1 and (g := math.gcd(den, *terms.values())) != 1:
            den //= g
            terms = {e: c // g for e, c in terms.items()}
        self.packed, self.den = terms, den

    def _decoded(self, items):
        """(exponent tuple, coefficient) of packed items: an int when integral, else a Fraction."""
        shifts, den = _shifts(self.dim), self.den
        return [(tuple([e >> sh & _MASK for sh in shifts]),
                 c // den if c % den == 0 else Fraction(c, den))
                for e, c in items]

    @property
    def terms(self):
        """{exponent tuple: coefficient}, built on each read from the packed keys."""
        return dict(self._decoded(self.packed.items()))

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, dim):
        return cls(dim, {}, 1)

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def coordinate(cls, dim, axis):
        if not 0 <= axis < dim:
            raise DomainError(f"axis {axis} out of range for dim {dim}")
        return cls(dim, {1 << _BITS * dim | 1 << _BITS * (dim - 1 - axis): 1}, 1)

    # -- structure --------------------------------------------------------

    def is_zero(self):
        return not self.packed

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.packed == other.packed

    def __hash__(self):
        return hash((self.dim, self.den, frozenset(self.packed.items())))

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max(self.packed) >> _BITS * self.dim if self.packed else -1

    def sorted_terms(self):
        """Terms in descending graded-lex order (leading term first): the keys sorted."""
        return self._decoded(sorted(self.packed.items(), reverse=True))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Polynomial):
            _check_dim(self.dim, other.dim)
            den, terms = math.lcm(self.den, other.den), {}
            for p in (self, other):
                f = den // p.den
                for e, c in p.packed.items():
                    terms[e] = terms.get(e, 0) + c * f
            return Polynomial(self.dim, terms, den)
        return NotImplemented

    def __neg__(self):
        return Polynomial(self.dim, {e: -c for e, c in self.packed.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            _check_dim(self.dim, other.dim)
            if (degree := self.degree() + other.degree()) > MAX_TOTAL_DEGREE:
                raise DomainError(f"product of total degree {degree} > {MAX_TOTAL_DEGREE}")
            terms = {}
            for e1, c1 in self.packed.items():
                for e2, c2 in other.packed.items():
                    e = e1 + e2
                    terms[e] = terms.get(e, 0) + c1 * c2
            return Polynomial(self.dim, terms, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, scalar):
        """scalar * self: each coefficient times its numerator, den times its denominator."""
        num, den = Fraction(scalar).as_integer_ratio()
        return Polynomial(self.dim, {e: c * num for e, c in self.packed.items()}, self.den * den)

    # -- calculus ---------------------------------------------------------

    def diff(self, axis):
        if not 0 <= axis < self.dim:
            raise DomainError(f"axis {axis} out of range for dim {self.dim}")
        sh = _BITS * (self.dim - 1 - axis)
        step = 1 << _BITS * self.dim | 1 << sh  # one off the exponent and the degree
        return Polynomial(self.dim, {e - step: c * k for e, c in self.packed.items()
                                     if (k := e >> sh & _MASK)}, self.den)

    def box(self):
        """D'Alembertian -d2/dt2 + sum_i d2/dxi2, term by term (_add_box): a power k >= 2 of
        t gives -k(k-1), of xi +k(k-1), on the power k - 2."""
        return Polynomial(self.dim, _add_box({}, self.packed, self.dim), self.den)

    def euler_h(self):
        """Euler operator t*dt + sum_i xi*dxi: each term times its total degree."""
        return self._h_affine(1, 0)

    def _h_affine(self, a, b):
        """(a*H + b) self for integers a, b: each term times a*(its total degree) + b."""
        ds = _BITS * self.dim
        return Polynomial(self.dim, {e: c * (a * (e >> ds) + b) for e, c in self.packed.items()},
                          self.den)

    # -- evaluation -------------------------------------------------------

    def eval_points(self, points):
        """Evaluate at an (m, dim) float array; returns an (m,) array."""
        return _evaluate(self.dim, {0: self}, self.den, points, with_rho=False)

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
        return _join([self._term_str(e, c) for e, c in self.sorted_terms()])

    def __repr__(self):
        return f"Polynomial({self.dim}, {self})"


class RhoExpr:
    """Canonical element of Q[t, x, rho] / (rho*(1+x.x) - 1), stored as num / den.

    ``num`` maps the rho power s to a Polynomial over den 1; every layer with
    s >= 1 is kept at t-degree <= 1 and zero layers are dropped.  ``den`` is a
    positive int coprime to all of num's coefficients.  RhoExpr(dim, num, den)
    trusts its arguments to be that normal form; normalize is the checked way in,
    from (rho power, Polynomial) pairs.
    """

    __slots__ = ("dim", "den", "num")

    def __init__(self, dim, num, den):
        self.dim, self.den, self.num = dim, den, num

    @property
    def layers(self):
        """{s: Polynomial} with each layer over den, built on each read (num if den is 1)."""
        return self.num if self.den == 1 else {
            s: Polynomial(self.dim, p.packed, self.den) for s, p in self.num.items()}

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_polynomial(cls, poly):
        return normalize([(0, poly)], poly.dim)

    @classmethod
    def rho(cls, dim, power=1):
        return normalize([(power, Polynomial.constant(dim, 1))], dim)

    # -- structure --------------------------------------------------------

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        if not isinstance(other, RhoExpr):
            return NotImplemented
        return self.dim == other.dim and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.dim, self.den, frozenset(self.num.items())))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RhoExpr):
            return NotImplemented
        _check_dim(self.dim, other.dim)
        return normalize([*self.layers.items(), *other.layers.items()], self.dim)

    def __neg__(self):
        return RhoExpr(self.dim, {s: -p for s, p in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RhoExpr):
            _check_dim(self.dim, other.dim)
            raw = []
            for s1, p1 in self.num.items():
                for s2, p2 in other.num.items():
                    raw.append((s1 + s2, p1 * p2))
            return normalize(raw, self.dim, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, scalar):
        return normalize([(s, p.scale(scalar)) for s, p in self.num.items()], self.dim, self.den)

    # -- calculus ---------------------------------------------------------

    def diff(self, axis):
        """Partial derivative; uses d(rho)/dt = 2t rho^2, d(rho)/dxi = -2 xi rho^2."""
        coord = Polynomial.coordinate(self.dim, axis)  # DomainError for an axis out of range
        raw = []
        for s, p in self.num.items():
            dp = p.diff(axis)
            if not dp.is_zero():
                raw.append((s, dp))
            if s:
                raw.append((s + 1, (coord * p).scale(2 * s if axis == 0 else -2 * s)))
        return normalize(raw, self.dim, self.den)

    def _box_raw(self, c2):
        """den * (box + c2 rho^2)(self) added into int layers {s: {key: c}}, with a = 4s(s+1):

        box(P rho^s) = rho^s box P + rho^(s+1) [-4s HP + (a - 2sn) P] - a rho^(s+2) P.
        """
        ds, layers = _BITS * self.dim, {}
        for s, p in self.num.items():
            _add_box(layers.setdefault(s, {}), p.packed, self.dim)
            a = 4 * s * (s + 1)
            if s:
                acc, b = layers.setdefault(s + 1, {}), a - 2 * s * self.dim
                for e, c in p.packed.items():
                    acc[e] = acc.get(e, 0) + c * (-4 * s * (e >> ds) + b)
            if f := c2 - a:
                acc = layers.setdefault(s + 2, {})
                for e, c in p.packed.items():
                    acc[e] = acc.get(e, 0) + c * f
        return layers

    def box(self):
        """D'Alembertian in normal form (_box_raw, then one normalize)."""
        return normalize(self._box_raw(0), self.dim, self.den)

    def euler_h(self):
        """Euler operator H = t*dt + sum_i xi*dxi (no metric signs) in normal form:

        H(P rho^s) = rho^s (HP - 2s P) + 2s rho^(s+1) P on each layer.
        """
        raw = []
        for s, p in self.num.items():
            raw += [(s, p._h_affine(1, -2 * s)), (s + 1, p.scale(2 * s))]
        return normalize(raw, self.dim, self.den)

    # -- evaluation -------------------------------------------------------

    def eval_points(self, points):
        """Evaluate at an (m, dim) float array, substituting rho = 1/(1+x.x)."""
        return _evaluate(self.dim, self.num, self.den, points)

    def on_slice(self, a):
        """The function of a float array w that gives this dim-2 element at (t, x) = (a, w).

        On the slice self is N(w) rho^S, with S the top rho power and 1/rho = m =
        1 - a^2 + w^2; N = sum_s P_s(a, w) m^(S-s) is exact until its coefficients are
        rounded to float, once.  The function takes a number w as the array [w], and a
        w on the singular set is a DomainError, as in eval_points.
        """
        _check_dim(self.dim, 2)
        ta, zero = Fraction(a), Polynomial.zero(1)  # Fraction(a) is exact for every float
        p, q = ta.as_integer_ratio()
        m = Polynomial(1, {(0,): 1 - ta * ta, (2,): 1})
        m0 = margin([(a, 0.0)])[0]  # margin at (a, w) is m0 + w^2, rounded as below
        scan = not m0 >= _SING_TOL  # else fl(w^2 + m0) >= m0 for every w: the scan never fires
        top, num = max(self.num, default=0), zero
        for s in range(top + 1):  # Horner in m over the int layers, then over den once
            terms, at_a = self.num.get(s, zero).terms, {}
            deg = max((i for i, _ in terms), default=0)  # P_s(a, w) over q^deg:
            for (i, k), c in terms.items():  # c t^i w^k gives c p^i q^(deg - i) w^k
                key = _pack((k,))
                at_a[key] = at_a.get(key, 0) + c * p ** i * q ** (deg - i)
            num = num * m + Polynomial(1, at_a, q ** deg)
        num = num.scale(Fraction(1, self.den))
        head, *tail = ([float(num.terms.get((k,), 0)) for k in range(num.degree(), -1, -1)]
                       or [0.0])

        def data(w):
            w = np.atleast_1d(np.asarray(w, dtype=float))
            if tail:  # Horner in place, from the buffer of its first product
                out = head * w
                out += tail[0]
                for c in tail[1:]:
                    out *= w
                    out += c
            else:
                out = np.full(w.shape, head)
            den = w * w
            den += m0
            if scan and (np.abs(den) < _SING_TOL).any():
                raise DomainError(f"data slice t = {a} meets the singular set 1 + x.x = 0")
            rho = np.divide(1.0, den, out=den)
            for _ in range(top):
                out *= rho
            return out

        return data

    # -- display ----------------------------------------------------------

    def __str__(self):
        chunks, layers = [], self.layers
        for s in sorted(layers):
            p = layers[s]
            if s == 0:
                chunks.append(str(p))
            else:
                rho = "rho" if s == 1 else f"rho^{s}"
                body = str(p)
                if body == "1":
                    chunks.append(rho)
                elif body == "-1":
                    chunks.append(f"-{rho}")
                elif len(p.packed) == 1:
                    chunks.append(f"{body}*{rho}")
                else:
                    chunks.append(f"({body})*{rho}")
        return _join(chunks)

    def __repr__(self):
        return f"RhoExpr({self.dim}, {self})"


def normalize(raw, dim, den=1):
    """Canonical RhoExpr of (sum of raw) / den, raw (rho_power, Polynomial) pairs or {s: {key: c}}.

    The pairs are the checked way in: a rho power must be a non-negative integer of any
    integral type (ValueError otherwise), and pairs with the same power are summed over
    the lcm of their dens, which joins den (layers are reduced in place).  Then comes the
    one reduction by 1 + x.x, with t^2 as head term (Cox, Little & O'Shea, ch. 2 section
    3): from the top layer s >= 1 down, and in it from the top t-slice t^k A_k(x) with
    k >= 2 down, -A_k joins layer s-1 at t^(k-2) and (1 + sum xi^2) A_k joins the slice
    k-2 (by `steps`, as keys less t^k's field), leaving each layer at t-degree <= 1.
    Last, the gcd of den and the coefficients is divided out.
    """
    layers, d = (raw, 1) if type(raw) is dict else ({}, math.lcm(*(p.den for _, p in raw)))
    for s, poly in () if layers is raw else raw:
        if type(s) is not int or s < 0:
            if not isinstance(s, numbers.Integral) or s < 0:
                raise ValueError(f"rho powers must be non-negative integers, got {s!r}")
            s = int(s)
        _check_dim(poly.dim, dim)
        acc, f = layers.get(s), d // poly.den
        if acc is None and f == 1:
            layers[s] = dict(poly.packed)
        else:
            acc = layers.setdefault(s, {})
            for e, c in poly.packed.items():
                acc[e] = acc.get(e, 0) + c * f
    den *= d
    t_sh, down = _BITS * (dim - 1), -2 << _BITS * dim
    steps = (down, *(2 << sh for sh in _shifts(dim)[1:]))
    high_t = _MASK - 1 << t_sh  # nonzero in a key iff its t exponent is >= 2
    for s in range(max(layers, default=0), 0, -1):
        terms = layers.get(s)
        if not terms or not any(e & high_t for e in terms):
            continue
        slices, quot = {}, layers.setdefault(s - 1, {})
        for e, c in terms.items():
            k = e >> t_sh & _MASK
            slices.setdefault(k, {})[e - (k << t_sh)] = c
        for k in range(max(slices), 1, -1):
            below, tk = slices.setdefault(k - 2, {}), (k - 2 << t_sh) + down
            for x, c in slices.pop(k, {}).items():
                if c:
                    quot[x + tk] = quot.get(x + tk, 0) - c
                    for step in steps:
                        xe = x + step
                        below[xe] = below.get(xe, 0) + c
        layers[s] = {x + (k << t_sh): c for k, a in slices.items() for x, c in a.items()}
    layers = {s: terms for s, terms in
              ((s, {e: c for e, c in terms.items() if c}) for s, terms in layers.items()) if terms}
    g = math.gcd(den, *(c for terms in layers.values() for c in terms.values()))
    if g != 1:
        den //= g
        layers = {s: {e: c // g for e, c in terms.items()} for s, terms in layers.items()}
    return RhoExpr(dim, {s: Polynomial(dim, terms, 1) for s, terms in layers.items()}, den)
