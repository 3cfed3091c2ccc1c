"""The analytic first and second derivatives of every model record, and
the gradients and Hessians the bounded search takes from them, against
finite differences of the values and gradients they come with."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtgle.compare import _SPECS
from rtgle.distribution import RtgleParams, sample
from rtgle.estimate import _IGNORE, _RTGLE, EstimationMethod, _row_objective

# the points of a check: those of this grid where S >= e^-15, so that
# each lies where the distribution has mass
GRID = np.geomspace(1e-3, 50.0, 120)
TRUE = RtgleParams(1.2, 0.5, 1.5, 0.8)
DATA = sample(TRUE, 30, seed=11)

# per coordinate kind: an interior range and its edge values
_INTERIOR = {"rate": (0.05, 3.0), "pos": (0.3, 3.0), "unit": (0.05, 0.95),
             "sym": (-0.9, 0.9)}
_EDGES = {"rate": (0.0,), "pos": (), "unit": (0.0, 1.0), "sym": (-1.0, 1.0)}


@st.composite
def _params(draw, kinds):
    """A parameter vector of the given kinds: interior values, with each
    coordinate on one of its edges (a rate at 0, p at 0 or 1, lambda at
    -1 or 1) a third of the time; two rates are never both 0."""
    values = []
    for kind in kinds:
        low, high = _INTERIOR[kind]
        v = draw(st.floats(low, high))
        if _EDGES[kind] and draw(st.integers(0, 2)) == 0:
            v = draw(st.sampled_from(_EDGES[kind]))
        values.append(v)
    rates = [i for i, k in enumerate(kinds) if k == "rate"]
    if rates and all(values[i] == 0.0 for i in rates):
        values[rates[0]] = 0.7
    return tuple(values)


def _difference(kernel, x, values, kinds, i, h):
    """d kernel / d values[i] at x by differences of step h: central inside
    the parameter space, second-order one-sided into it from an edge."""
    v = np.array(values)
    low = -1.0 if kinds[i] == "sym" else 0.0
    high = 1.0 if kinds[i] in ("unit", "sym") else math.inf

    def at(step):
        w = v.copy()
        w[i] += step
        return kernel(x, x * x, *w)
    if v[i] - h >= low and v[i] + h <= high:
        return (at(h) - at(-h)) / (2.0 * h)
    sign = 1.0 if v[i] - h < low else -1.0
    return sign * (-3.0 * at(0.0) + 4.0 * at(sign * h)
                   - at(2.0 * sign * h)) / (2.0 * h)


def _reference(kernel, x, values, kinds, i):
    """(Richardson's extrapolation of _difference at steps h and h/2, h =
    1e-6 (1 + |v|), its own error estimate |D(h) - D(h/2)|, and where the
    two agree to 1%): differences resolve a derivative only where the
    kernel does not bend within a step, which it does at p = 1 where
    1 - p + p z = z is below the step, and at lambda = 1 where the
    transmuted 1 - lambda G = S + (1 - lambda) G is."""
    h = 1e-6 * (1.0 + abs(values[i]))
    coarse = _difference(kernel, x, values, kinds, i, h)
    fine = _difference(kernel, x, values, kinds, i, 0.5 * h)
    error = np.abs(fine - coarse)
    return (fine + (fine - coarse) / 3.0, error,
            error <= 0.01 * np.abs(fine) + 1e-7)


@pytest.mark.parametrize("kind", list(_SPECS))
@pytest.mark.parametrize("which", ["pdf", "sf"])
def test_log_derivatives_match_differences(kind, which):
    # the record the engine searches: for RTW, its image in (alpha, gamma, p)
    spec = (_SPECS[kind].search or (_SPECS[kind],))[0]
    plain = spec.log_pdf if which == "pdf" else spec.log_sf
    derivative = spec.d_log_pdf if which == "pdf" else spec.d_log_sf

    @settings(max_examples=40, deadline=None)
    @given(_params(spec.kinds))
    def check(values):
        with np.errstate(**_IGNORE):
            x = GRID[spec.log_sf(GRID, GRID * GRID, *values) >= -15.0]
            assert len(x) >= 10
            value, grad, second = derivative(x, x * x, *values)
            # the value is the plain kernel's, to the bit
            assert np.array_equal(value, plain(x, x * x, *values))
            assert np.isfinite(value).all()
            # one-hot weights give each point's Hessian, which any weights
            # sum
            hessian = second(np.eye(len(x)))
            weights = np.linspace(-1.0, 2.0, len(x))
            assert np.allclose(second(weights)[0],
                               np.tensordot(weights, hessian, 1),
                               rtol=1e-9, atol=1e-9 * np.abs(hessian).max())
            for i in range(len(values)):
                # at least a quarter of the points resolve, even at p = 1
                # where z, and so 1 - p + p z, vanishes at small x: no
                # example is vacuous
                for j, kernel in [(None, plain)] + [
                        (j, lambda x, x2, *v, j=j: derivative(x, x2, *v)[1][j])
                        for j in range(len(values))]:
                    fd, error, resolved = _reference(kernel, x, values,
                                                     spec.kinds, i)
                    assert resolved.mean() >= 0.25, (kind, which, values, i, j)
                    found = grad[i] if j is None else hessian[:, j, i]
                    # differences of the gradient also carry its rounding,
                    # some 21 eps |d log f| / h, which error can miss
                    rounding = 0.0 if j is None else 1e-8 * np.abs(grad[j])
                    assert np.all((np.abs(found - fd) <= 1e-6 * np.abs(fd)
                                   + 1e-7 + error + rounding)[resolved]), (
                        kind, which, values, i, j)
    check()


@pytest.mark.parametrize("method", list(EstimationMethod), ids=str)
def test_row_gradient_and_matrix_match_differences(method):
    # each row's gradient is the derivative of its value, and its matrix,
    # from the analytic second derivatives of the kernels, is the Hessian
    # of its value
    rows = _row_objective(_RTGLE, (method,), DATA[None])
    natural = _row_objective(_RTGLE, (method,), DATA[None])
    first = np.zeros(1, dtype=int)
    points = [np.array([1.1, 0.6, 1.4, 0.7]), np.array([0.8, 1.3, 1.9, 0.3])]
    for v in points:
        with np.errstate(**_IGNORE):
            value, grad, matrix = natural(v[None], first)
            assert rows(v[None], first)[1].tolist() == grad.tolist()

            def f(w):
                return rows(w[None], first)[0][0]
            steps = 1e-5 * (1.0 + np.abs(v))
            fd = np.array([(f(v + s) - f(v - s)) / (2.0 * s[j])
                           for j, s in enumerate(np.diag(steps))])
            assert np.allclose(grad[0], fd, rtol=1e-6, atol=1e-8 * abs(
                value[0])), (method, v)
            assert rows(v[None], first)[2].tolist() == matrix.tolist()
            e = np.diag(steps)
            expected = np.array([[(f(v + e[a] + e[b]) - f(v + e[a] - e[b])
                                   - f(v - e[a] + e[b]) + f(v - e[a] - e[b]))
                                  / (4.0 * steps[a] * steps[b])
                                  for b in range(4)] for a in range(4)])
            assert np.allclose(matrix[0], expected, rtol=1e-4,
                               atol=1e-6 * np.abs(expected).max()), (
                method, v)


def test_every_row_has_a_finite_symmetric_matrix():
    # every row of a call of all five methods on two samples, in any
    # order, has a finite symmetric matrix, the same alone as in the call
    methods = tuple(EstimationMethod)
    objective = _row_objective(_RTGLE, methods,
                               np.array([DATA, sample(TRUE, 30, seed=12)]))
    rng = np.random.default_rng(5)
    v = np.array(TRUE.as_tuple()) * rng.uniform(0.7, 1.3, size=(10, 4))
    fits = rng.permutation(10)
    with np.errstate(**_IGNORE):
        matrix = objective(v, fits)[2]
        for r in range(10):
            assert objective(v[r:r + 1], fits[r:r + 1])[2].tolist() \
                == matrix[r:r + 1].tolist(), fits[r]
    assert np.isfinite(matrix).all()
    for m in matrix:
        assert np.allclose(m, m.T, rtol=1e-12, atol=1e-12 * np.abs(m).max())
