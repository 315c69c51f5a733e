"""Property: every point of the drawn domain solves within the residual bound
or is rejected with ValueError, and eigenstate(p, k) is solve's k-th state."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gbstates.solver import GBSParams, build_operator, eigenstate, solve

phases = st.floats(-math.pi, math.pi)


@st.composite
def points(draw):
    mu = draw(st.floats(0.01, 3.0)) * cmath.exp(1j * draw(phases))
    nu = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))) * cmath.exp(1j * draw(phases))
    eta = draw(st.floats(1e-6, 1.0 - 1e-6, exclude_min=True, exclude_max=True))
    m = draw(st.integers(1, 60))
    return GBSParams(mu=mu, nu=nu, eta=eta, m=m), draw(st.integers(0, m))


@given(points())
def test_solves_within_bound_or_rejects(point):
    p, k = point
    try:
        sol = solve(p)
    except ValueError:
        return
    op = build_operator(p)
    states = np.column_stack(sol.eigenstates)
    lams = sol.eigenvalues[: len(sol.eigenstates)]
    residuals = np.linalg.norm(op @ states - states * lams[None, :], axis=0)
    assert residuals.max() <= 1e-10 * np.linalg.norm(op)
    if k < len(sol.eigenstates):
        np.testing.assert_array_equal(eigenstate(p, k), sol.eigenstates[k])
    else:
        with pytest.raises(ValueError):
            eigenstate(p, k)
