"""Exact arithmetic in the quotient ring Q[t, x1..x_{n-1}, rho] / (rho*(1+x.x) - 1).

Index 0 is the time coordinate t, x.x = -t^2 + sum(xi^2) and rho = 1/(1 + x.x).
The relation rho*(1 - t^2 + sum(xi^2)) = 1 is eliminated by keeping every
rho-layer s >= 1 at t-degree <= 1, so two elements are equal iff their layers
are structurally equal and every identity below is an exact zero test.  The
D'Alembertian and the Euler operator H act on each layer in closed form, from
d_mu rho = -2 x_mu rho^2, H rho = -2 rho + 2 rho^2 and x.x = 1/rho - 1.

Only this module knows how terms are stored.  A Polynomial keys each term by one
int, the fields [total degree | t | x1 | ... | x_{n-1}] of _BITS each (Monagan &
Pearce, CASC 2007): a product of terms is the sum of their keys, and the keys
sort in graded-lex order.  Both types store nonzero int coefficients over one
positive den coprime to them (content and primitive part, Knuth TAOCP 4.6.1).
_poly and _reduce, the one reduction by 1 + x.x, build them for the operators.
Exact values enter one checked way per type, Polynomial(dim, {exponent tuple:
rational}, den=1) with its classmethods and normalize([(rho power, Polynomial)],
dim) with from_polynomial and rho, which refuse a dim, exponent or rho power that
is not an integer (dim >= 1, the others >= 0); RhoExpr(...) is a TypeError.
Floats leave two ways, each exact coefficient rounded once: eval_points at an
(m, dim) array, which builds each coordinate and rho power once per call, and
RhoExpr.on_slice, a dim-2 element on t = a as one rational function of w.
"""

from __future__ import annotations

import math
import numbers
import operator
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


def _add_box(out, terms, dim):
    """Add the D'Alembertian of the packed terms into out, and return out (Polynomial.box)."""
    drop, t_sh, shifts = 2 << _BITS * dim, _BITS * (dim - 1), _shifts(dim)
    for e, c in terms.items():
        for sh in shifts:
            if (k := e >> sh & _MASK) >= 2:
                de = e - (2 << sh) - drop
                out[de] = out.get(de, 0) + c * (k * (k - 1) if sh != t_sh else -k * (k - 1))
    return out


def _positive(value, name="dim"):
    """value as an int: ValueError unless it is an integer, DomainError below 1."""
    if type(value) is not int:
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        value = int(value)
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")
    return value


def _key(exps, dim):
    """Packed key of a tuple of dim exponents (t first), non-negative integers of any
    integral type: ValueError otherwise, DomainError past MAX_TOTAL_DEGREE."""
    if type(exps) is tuple and len(exps) == dim:
        key = 0
        for e in exps:
            if type(e) is not int or e < 0:
                break
            key = key << _BITS | e
        else:
            if (degree := sum(exps)) > MAX_TOTAL_DEGREE:
                raise DomainError(f"exponents {exps}: total degree > {MAX_TOTAL_DEGREE}")
            return degree << _BITS * dim | key
    if not (isinstance(exps, tuple)
            and all(isinstance(e, numbers.Integral) and e >= 0 for e in exps)):
        raise ValueError(f"non-integer or negative exponent in {exps!r}")
    if len(exps) != dim:
        raise DomainError(f"exponent tuple {exps} does not match dim {dim}")
    return _key(tuple(map(int, exps)), dim)


def _axis(axis, dim):
    if not (isinstance(axis, numbers.Integral) and 0 <= axis < dim):
        raise DomainError(f"axis {axis} out of range for dim {dim}")
    return int(axis)


def _rational(c):  # Fraction(c), but not of a str, which Fraction would parse (' 2 ', '1/3')
    if isinstance(c, str):
        raise ValueError(f"coefficients must be numbers, got the string {c!r}")
    return Fraction(c)


def _poly(dim, packed, den):
    """Trusted Polynomial of {packed key: int} over an int den >= 1, in its one form:
    zeros dropped and gcd(den, coefficients) divided out.  It owns packed."""
    if not all(packed.values()):
        packed = {e: c for e, c in packed.items() if c}
    if den != 1 and (g := math.gcd(den, *packed.values())) != 1:
        den //= g
        packed = {e: c // g for e, c in packed.items()}
    p = object.__new__(Polynomial)
    p.dim, p.packed, p.den = dim, packed, den
    return p


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
    """Multivariate polynomial over Q: ``packed`` maps keys to nonzero int coefficients
    over ``den``, a positive int coprime to them, so equality is structural equality.

    Polynomial(dim, {exponent tuple: rational}, den=1) is the checked way in, for
    the terms over den: any rationals (an int is taken as it is, with no Fraction
    built) at exponents that are non-negative integers of any integral type.
    """

    __slots__ = ("dim", "packed", "den")

    def __new__(cls, dim, terms=None, den=1):
        dim, den, terms = _positive(dim), _positive(den, "den"), terms or {}
        # keys equal as tuples are one dict key, so their packed keys are distinct
        packed = {_key(exps, dim): c for exps, c in terms.items() if type(c) is int}
        if len(packed) < len(terms):  # not all ints: the rationals over their lcm
            packed = {_key(exps, dim): _rational(c) for exps, c in terms.items()}
            lcm = math.lcm(*(c.denominator for c in packed.values()))
            packed = {e: c.numerator * (lcm // c.denominator) for e, c in packed.items()}
            den *= lcm
        return _poly(dim, packed, den)

    def __reduce__(self):  # copy and pickle rebuild through the trusted constructor
        return _poly, (self.dim, self.packed, self.den)

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
        return cls(dim)

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {(0,) * _positive(dim): value})

    @classmethod
    def coordinate(cls, dim, axis):
        axis = _axis(axis, dim := _positive(dim))
        return _poly(dim, {1 << _BITS * dim | 1 << _BITS * (dim - 1 - axis): 1}, 1)

    @classmethod
    def wave(cls, dim, exps):
        """The wave polynomial whose part of t-degree <= 1 (e0 <= 1, else ValueError) is a
        multiple of t^e0 x^alpha = exps: the Cauchy-Kovalevskaya series
        P = sum_j t^(e0+2j) e0!/(e0+2j)! Lap^j x^alpha, scaled by (e0+2J)!/e0! (J the last
        nonzero j) and then by the gcd to coprime integer coefficients.  Each Lap^j x^alpha
        is one box of the t-free keys before it, all positive: no term cancels."""
        dim = _positive(dim)
        t_sh, key = _BITS * (dim - 1), _key(exps, dim)
        if (e0 := key >> t_sh & _MASK) > 1:
            raise ValueError(f"exponents {exps!r}: t-degree {e0} > 1")
        t, layers = 1 << _BITS * dim | 1 << t_sh, []  # t^m x^beta: key x^beta + m t
        terms = {key - e0 * t: 1}  # x^alpha, t-free
        while terms:
            layers.append(terms)
            terms = _add_box({}, terms, dim)
        top = math.factorial(e0 + 2 * (len(layers) - 1))
        # Term order is the order every evaluation sums in: the t-degree <= 1
        # monomial first, then the rest descending graded-lex.
        terms = {e + step: f * c for j in [0, *range(len(layers) - 1, 0, -1)]
                 for step, f in [((e0 + 2 * j) * t, top // math.factorial(e0 + 2 * j))]
                 for e, c in sorted(layers[j].items(), reverse=True)}
        return _poly(dim, terms, math.gcd(*terms.values()))  # over the gcd: it divides out

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
            return _poly(self.dim, terms, den)
        return NotImplemented

    def __neg__(self):
        return _poly(self.dim, {e: -c for e, c in self.packed.items()}, self.den)

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
            return _poly(self.dim, terms, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, scalar):
        """scalar * self: each coefficient times its numerator, den times its denominator."""
        num, den = _rational(scalar).as_integer_ratio()
        return _poly(self.dim, {e: c * num for e, c in self.packed.items()}, self.den * den)

    # -- calculus ---------------------------------------------------------

    def diff(self, axis):
        sh = _BITS * (self.dim - 1 - _axis(axis, self.dim))
        step = 1 << _BITS * self.dim | 1 << sh  # one off the exponent and the degree
        return _poly(self.dim, {e - step: c * k for e, c in self.packed.items()
                                if (k := e >> sh & _MASK)}, self.den)

    def box(self):
        """D'Alembertian -d2/dt2 + sum_i d2/dxi2, term by term (_add_box): a power k >= 2 of
        t gives -k(k-1), of xi +k(k-1), on the power k - 2."""
        return _poly(self.dim, _add_box({}, self.packed, self.dim), self.den)

    def euler_h(self, a=1, b=0):
        """(a*H + b) self for integers a, b, with H = t*dt + sum_i xi*dxi the Euler
        operator: each term times a*(its total degree) + b."""
        a, b, ds = operator.index(a), operator.index(b), _BITS * self.dim
        return _poly(self.dim, {e: c * (a * (e >> ds) + b) for e, c in self.packed.items()},
                     self.den)

    # -- evaluation -------------------------------------------------------

    def eval_points(self, points):
        """Evaluate at an (m, dim) float array; returns an (m,) array."""
        return _evaluate(self.dim, {0: self}, self.den, points, with_rho=False)

    # -- display ----------------------------------------------------------

    def _term_str(self, exps, coeff):
        # dim-1 polynomials are in the radial variable u (hyp2f1)
        names = (["u"] if self.dim == 1 else ["t", "x"] if self.dim == 2
                 else ["t"] + [f"x{i}" for i in range(1, self.dim)])
        body = "*".join(name if k == 1 else f"{name}^{k}" for name, k in zip(names, exps) if k)
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

    ``num`` maps the rho power s to a Polynomial over den 1, nonzero and at t-degree
    <= 1 for s >= 1; ``den`` is a positive int coprime to num's coefficients.  Only
    _reduce builds one from parts; RhoExpr(...) is a TypeError.
    """

    __slots__ = ("dim", "den", "num")

    def __init__(self, *args, **kwargs):
        raise TypeError("RhoExpr has no public constructor: use normalize or its callers")

    @property
    def layers(self):
        """{s: Polynomial} with each layer over den, a new dict on each read."""
        return dict(self.num) if self.den == 1 else {
            s: _poly(self.dim, p.packed, self.den) for s, p in self.num.items()}

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
        return _normalize([*self.layers.items(), *other.layers.items()], self.dim)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RhoExpr):
            _check_dim(self.dim, other.dim)
            raw = []
            for s1, p1 in self.num.items():
                for s2, p2 in other.num.items():
                    raw.append((s1 + s2, p1 * p2))
            return _normalize(raw, self.dim, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, scalar):
        k, d = _rational(scalar).as_integer_ratio()
        return _normalize([(s, p.scale(k)) for s, p in self.num.items()], self.dim, self.den * d)

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
        return _normalize(raw, self.dim, self.den)

    def box(self, rho2=0):
        """(box + rho2 rho^2) self for an integer rho2 (0: the D'Alembertian), in one pass
        into int layers and one reduction: with a = 4s(s+1), box(P rho^s) =
        rho^s box P + rho^(s+1) [-4s HP + (a - 2sn) P] - a rho^(s+2) P."""
        c2, ds, layers = operator.index(rho2), _BITS * self.dim, {}
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
        return _reduce(layers, self.dim, self.den)

    def euler_h(self):
        """Euler operator H = t*dt + sum_i xi*dxi (no metric signs) in normal form, from
        H(P rho^s) = rho^s (HP - 2s P) + 2s rho^(s+1) P on each layer."""
        raw = []
        for s, p in self.num.items():
            raw += [(s, p.euler_h(1, -2 * s)), (s + 1, p.scale(2 * s))]
        return _normalize(raw, self.dim, self.den)

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
        ta, zero = _rational(a), Polynomial.zero(1)  # exact for every float; a str is refused
        p, q = ta.as_integer_ratio()
        m = Polynomial(1, {(0,): 1 - ta * ta, (2,): 1})
        m0 = margin([(a, 0.0)])[0]  # margin at (a, w) is m0 + w^2, rounded as below
        scan = not m0 >= _SING_TOL  # else fl(w^2 + m0) >= m0 for every w: the scan never fires
        top, num = max(self.num, default=0), zero
        for s in range(top + 1):  # Horner in m over the int layers, then over den once
            terms, at_a = self.num.get(s, zero).terms, {}
            deg = max((i for i, _ in terms), default=0)  # P_s(a, w) over q^deg:
            for (i, k), c in terms.items():  # c t^i w^k gives c p^i q^(deg - i) w^k
                key = _key((k,), 1)
                at_a[key] = at_a.get(key, 0) + c * p ** i * q ** (deg - i)
            num = num * m + _poly(1, at_a, q ** deg)
        num = num.scale(Fraction(1, self.den))
        head, *tail = ([float(num.terms.get((k,), 0)) for k in range(num.degree(), -1, -1)]
                       or [0.0])

        def data(w):
            w = np.atleast_1d(np.asarray(w, dtype=float))
            out = np.full(w.shape, head)
            for c in tail:  # Horner in place
                out *= w
                out += c
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
            body, rho = str(layers[s]), "rho" if s == 1 else f"rho^{s}"
            if s == 0:
                chunks.append(body)
            elif body in ("1", "-1"):
                chunks.append(body[:-1] + rho)
            else:
                chunks.append(f"{body}*{rho}" if len(layers[s].packed) == 1 else f"({body})*{rho}")
        return _join(chunks)

    def __repr__(self):
        return f"RhoExpr({self.dim}, {self})"


def normalize(pairs, dim):
    """Canonical RhoExpr of the sum of P rho^s over (rho power s, Polynomial P) pairs:
    each s a non-negative integer of any integral type, each P a Polynomial of dim."""
    dim, checked = _positive(dim), []
    for s, poly in pairs:
        if type(s) is not int or s < 0:
            if not isinstance(s, numbers.Integral) or s < 0:
                raise ValueError(f"rho powers must be non-negative integers, got {s!r}")
            s = int(s)
        if not isinstance(poly, Polynomial):
            raise TypeError(f"normalize takes (rho power, Polynomial) pairs, got {poly!r}")
        _check_dim(poly.dim, dim)
        checked.append((s, poly))
    return _normalize(checked, dim)


def _normalize(pairs, dim, den=1):
    """Canonical RhoExpr of (sum of P rho^s over trusted pairs (s, P)) / den: pairs with
    the same power are summed over the lcm of their dens, which joins den, and _reduce."""
    layers, d = {}, math.lcm(*(p.den for _, p in pairs))
    for s, poly in pairs:
        acc, f = layers.get(s), d // poly.den
        if acc is None and f == 1:
            layers[s] = dict(poly.packed)
        else:
            acc = layers.setdefault(s, {})
            for e, c in poly.packed.items():
                acc[e] = acc.get(e, 0) + c * f
    return _reduce(layers, dim, den * d)


def _reduce(layers, dim, den):
    """Canonical RhoExpr of sum_s layers[s] rho^s / den, from int layers {s: {key: c}}.

    The one reduction by 1 + x.x, in place, with t^2 as head term (Cox, Little &
    O'Shea, ch. 2 section 3): from the top layer s >= 1 down, and in it from the top
    t-slice t^k A_k(x) with k >= 2 down, -A_k joins layer s-1 at t^(k-2) and
    (1 + sum xi^2) A_k joins the slice k-2 (by `steps`, as keys less t^k's field).
    Last, the gcd of den and the coefficients is divided out.
    """
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
    layers = {s: terms for s, terms in layers.items() if any(terms.values())}  # _poly drops 0s
    g = math.gcd(den, *(math.gcd(*terms.values()) for terms in layers.values()))
    if g != 1:
        den //= g
        layers = {s: {e: c // g for e, c in terms.items()} for s, terms in layers.items()}
    out = object.__new__(RhoExpr)
    out.dim, out.den, out.num = dim, den, {s: _poly(dim, terms, 1) for s, terms in layers.items()}
    return out
