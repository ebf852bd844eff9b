import contextlib
import warnings

import hypothesis.strategies as st
import numpy as np

from pertwave.ring import Polynomial, RhoExpr

# hypothesis imports its failure-patch writer (and libcst, which emits a
# DeprecationWarning on import) inside pytest_runtest_makereport when a test
# fails; under a module's filterwarnings("error") mark that warning became an
# INTERNALERROR that ended the run, so import it here with the warning ignored.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def exponent_tuples(dim, max_degree):
    return st.lists(
        st.integers(min_value=0, max_value=max_degree), min_size=dim, max_size=dim,
    ).map(tuple).filter(lambda e: sum(e) <= max_degree)


def polynomials(dim, max_degree=3, max_terms=4):
    return st.dictionaries(
        exponent_tuples(dim, max_degree), small_fractions,
        min_size=0, max_size=max_terms,
    ).map(lambda terms: Polynomial(dim, terms))


def rho_exprs(dim, max_power=3, max_degree=3, max_terms=3):
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_power),
        polynomials(dim, max_degree, max_terms),
        min_size=0, max_size=max_power + 1,
    ).map(lambda layers: RhoExpr(dim, layers))


def nonsingular_points(rng, dim, count, scale=0.8, margin=0.1):
    """Random evaluation points kept away from the singular set 1 + x.x = 0."""
    out = []
    while len(out) < count:
        p = rng.uniform(-scale, scale, dim)
        if abs(1.0 - p[0] ** 2 + np.sum(p[1:] ** 2)) >= margin:
            out.append(p)
    return np.array(out)
