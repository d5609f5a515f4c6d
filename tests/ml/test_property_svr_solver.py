"""SVR's dual solver against the projected-gradient loop it replaced.

``SVR.fit`` runs restarted FISTA with a step from a power-iteration bound
on the kernel's largest eigenvalue.  The oracle below is the loop SVR ran
before: plain projected-gradient steps of ``1 / eigvalsh(K)[-1]``.  On
generated problems, at the model zoo's iteration budget, the accelerated
solver must reach a dual objective no worse than the oracle's after twice
the iterations (five times is not always reached: on rank-deficient
kernels, e.g. duplicated rows, the oracle's extra steps along the flat
directions can win), both must reach the same optimum given enough
iterations, and the solver must stay inside the box, never take a step
longer than ``1 / λ_max`` and fit deterministically.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.model_zoo import make_model
from repro.ml.svm import SVR, _kernel_matrix, _lipschitz_bound

values = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
#: The iteration budget the install fits SVR with.
BUDGET = make_model("SVR").max_iter


@st.composite
def problems(draw):
    n_rows = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 4))
    X = draw(hnp.arrays(np.float64, (n_rows, n_features), elements=values))
    y = draw(hnp.arrays(np.float64, n_rows, elements=values))
    C = draw(st.sampled_from([0.5, 1.0, 10.0, 100.0]))
    epsilon = draw(st.sampled_from([0.0, 0.01, 0.1, 1.0]))
    gamma = draw(st.one_of(st.just("scale"), st.floats(1e-3, 10.0)))
    return X, y, C, epsilon, gamma


def dual_objective(K, y, beta, epsilon):
    return 0.5 * beta @ K @ beta - beta @ y + epsilon * np.abs(beta).sum()


def projected_gradient(K, y, C, epsilon, max_iter):
    """The solver SVR used before: fixed ``1 / λ_max`` steps, no momentum."""
    beta = np.zeros(y.size)
    step = 1.0 / max(float(np.linalg.eigvalsh(K)[-1]), 1e-12)
    for _ in range(max_iter):
        candidate = beta + step * (y - K @ beta)
        candidate = np.sign(candidate) * np.maximum(np.abs(candidate) - step * epsilon, 0.0)
        beta = np.clip(candidate, -C, C)
    return beta


class TestDualSolver:
    def objectives(self, problem, max_iter, oracle_iter):
        X, y, C, epsilon, gamma = problem
        # tol=0 runs both solvers for their whole budget.
        model = SVR(C=C, epsilon=epsilon, gamma=gamma, max_iter=max_iter, tol=0.0).fit(X, y)
        K = _kernel_matrix(X, X, model._gamma_)
        oracle = projected_gradient(K, y, C, epsilon, oracle_iter)
        return dual_objective(K, y, model.dual_coef_, epsilon), dual_objective(K, y, oracle, epsilon)

    @given(problems())
    @settings(max_examples=80, deadline=None)
    def test_objective_no_worse_than_twice_the_projected_gradient_steps(self, problem):
        fitted, reference = self.objectives(problem, BUDGET, 2 * BUDGET)
        # Both can reach the optimum; then they differ only by rounding.
        assert fitted <= reference + 1e-9 * (1.0 + abs(reference))

    @given(problems())
    @settings(max_examples=20, deadline=None)
    def test_reaches_the_optimum_the_projected_gradient_reaches(self, problem):
        fitted, reference = self.objectives(problem, 1000, 5000)
        assert fitted <= reference + 1e-9 * (1.0 + abs(reference))

    @given(problems())
    @settings(max_examples=40, deadline=None)
    def test_dual_coefficients_stay_in_the_box(self, problem):
        X, y, C, epsilon, gamma = problem
        model = SVR(C=C, epsilon=epsilon, gamma=gamma, max_iter=BUDGET).fit(X, y)
        assert np.all(np.abs(model.dual_coef_) <= C)

    @given(problems())
    @settings(max_examples=60, deadline=None)
    def test_step_bound_is_never_below_the_largest_eigenvalue(self, problem):
        X, _, _, _, gamma = problem
        model = SVR(gamma=gamma)
        K = _kernel_matrix(X, X, model._resolve_gamma(X))
        assert _lipschitz_bound(K) >= np.linalg.eigvalsh(K)[-1]

    @given(problems())
    @settings(max_examples=20, deadline=None)
    def test_two_fits_are_byte_identical(self, problem):
        X, y, C, epsilon, gamma = problem
        first = SVR(C=C, epsilon=epsilon, gamma=gamma, max_iter=BUDGET).fit(X, y)
        second = SVR(C=C, epsilon=epsilon, gamma=gamma, max_iter=BUDGET).fit(X, y)
        assert first.dual_coef_.tobytes() == second.dual_coef_.tobytes()
        assert first.intercept_ == second.intercept_
        assert first.predict(X).tobytes() == second.predict(X).tobytes()
