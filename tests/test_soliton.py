"""Admissible torus and the concave maximization of the functional."""

import random
from fractions import Fraction as F

import mpmath
import pytest

import modfutaki.soliton as soliton_mod
from modfutaki import (CompleteIntersectionSpec, DiagonalField, Dual,
                       NoConvergence, admissible_torus, derive_weights,
                       f_function, find_soliton, fut_derivative)
from modfutaki.exactalg import _to_mpf
from modfutaki.futaki import _depth, f_numeric
from modfutaki.geometry import ValidationError

from conftest import (CUBIC, FERMAT_CUBIC, P4_CUBIC, QUADRICS, constraint_rows,
                      random_fano, random_supports)


def colinear(u, v):
    ratios = {F(a) / F(b) for a, b in zip(u, v) if b != 0}
    return len(ratios) == 1 and all(b != 0 or a == 0 for a, b in zip(u, v))


def field_at(ci, coefficients):
    """The field sum c_k W_k over the torus basis, with rational c_k."""
    basis = admissible_torus(ci).basis
    eig = tuple(sum((c * vec[k] for c, vec in zip(coefficients, basis)), F(0))
                for k in range(ci.ambient_dim + 1))
    return DiagonalField(eig, derive_weights(ci, eig))


def exact_fut(ci, coefficients, i, bits=512):
    """Exact Fut_V(W_i) at V = sum c_k W_k, evaluated at t = 1."""
    vec = admissible_torus(ci).basis[i]
    direction = DiagonalField(vec, derive_weights(ci, vec))
    return fut_derivative(ci, field_at(ci, coefficients), direction).evaluate(
        1, bits)


def bisect_cubic_critical(precision=300):
    """Independent root of F' for the cubic-surface closed form."""
    with mpmath.workprec(precision):
        def fprime(t):
            return (mpmath.exp(-4 * t) * (4 * t + 2) / (48 * t ** 3)
                    + mpmath.exp(8 * t) * (2 - 8 * t) / (24 * t ** 3)
                    + mpmath.exp(4 * t) * (4 * t - 2) / (16 * t ** 3))

        lo, hi = mpmath.mpf(-2), mpmath.mpf("-0.01")
        assert fprime(lo) > 0 and fprime(hi) < 0
        for _ in range(precision):
            mid = (lo + hi) / 2
            if fprime(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


class TestAdmissibleTorus:
    @pytest.mark.parametrize("seed", range(4))
    def test_gram_matrix_gives_the_basis_of_the_rows(self, seed):
        # the rows' Gram matrix has their null space and row space, so the
        # same reduced basis as eliminating the rows themselves
        rng = random.Random(700 + seed)
        for _ in range(50):
            ci = random_supports(rng, random_fano(rng), 2 + seed * 4)
            assert admissible_torus(ci).basis == soliton_mod._nullspace_basis(
                constraint_rows(ci), ci.ambient_dim + 1)

    def test_cubic_line(self):
        torus = admissible_torus(CUBIC)
        assert torus.dimension == 1
        assert colinear(torus.basis[0], (F(-7), F(5), F(1), F(1)))

    def test_fermat_trivial(self):
        assert admissible_torus(FERMAT_CUBIC).dimension == 0

    def test_quadrics_plane_contains_golden_field(self):
        torus = admissible_torus(QUADRICS)
        assert torus.dimension == 2
        target = (F(-7), F(3), F(-2), F(5), F(1))
        # solve for coordinates in the basis by matching two free slots
        b1, b2 = torus.basis
        solved = False
        for i in range(5):
            for j in range(i + 1, 5):
                det = b1[i] * b2[j] - b1[j] * b2[i]
                if det == 0:
                    continue
                c1 = (target[i] * b2[j] - target[j] * b2[i]) / det
                c2 = (b1[i] * target[j] - b1[j] * target[i]) / det
                combo = tuple(c1 * x + c2 * y for x, y in zip(b1, b2))
                assert combo == target
                solved = True
                break
            if solved:
                break
        assert solved

    def test_basis_vectors_are_admissible(self):
        for ci in (CUBIC, QUADRICS):
            for vec in admissible_torus(ci).basis:
                assert sum(vec, F(0)) == 0
                derive_weights(ci, vec)  # must not raise

    def test_requires_supports(self):
        with pytest.raises(ValidationError):
            admissible_torus(CompleteIntersectionSpec.create(3, [3]))


class TestFindSoliton:
    def test_fermat_returns_trivial(self):
        result = find_soliton(FERMAT_CUBIC)
        assert result.trivial
        assert result.f_value == -1

    def test_cubic_critical_point(self):
        result = find_soliton(CUBIC, tol=1e-10, max_iter=60, precision_bits=256)
        assert not result.trivial
        assert result.gradient_norm < mpmath.mpf("1e-10")
        tstar = result.coefficients[0]
        assert tstar < 0
        reference = bisect_cubic_critical()
        assert abs(tstar - reference) < mpmath.mpf("1e-9")

    def test_invariant_under_basis_rescaling(self, monkeypatch):
        # the located eigenvalue vector does not depend on basis normalization
        import modfutaki.soliton as soliton_mod
        from modfutaki import AdmissibleTorus

        reference = find_soliton(CUBIC, tol=1e-12, precision_bits=256)
        original = admissible_torus(CUBIC)
        scaled = AdmissibleTorus(tuple(
            tuple(F(-5, 3) * x for x in vec) for vec in original.basis))
        monkeypatch.setattr(soliton_mod, "admissible_torus", lambda ci: scaled)
        rescaled = soliton_mod.find_soliton(CUBIC, tol=1e-12,
                                            precision_bits=256)
        with mpmath.workprec(320):
            for a, b in zip(reference.eigenvalues, rescaled.eigenvalues):
                assert abs(a - b) < mpmath.mpf("1e-11")

    def test_no_convergence_signalled(self):
        with pytest.raises(NoConvergence):
            find_soliton(CUBIC, tol=1e-10, max_iter=0)

    @pytest.mark.parametrize("tol", [0, -1, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValidationError):
            find_soliton(CUBIC, tol=tol)

    def test_iteration_budget_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            find_soliton(CUBIC, max_iter=-1)

    def test_stalled_line_search_reports_the_steps_taken(self, monkeypatch):
        # F reads 0 at the start and -1 at every trial point, so no step
        # passes the Armijo test
        derivatives = soliton_mod._derivatives
        values = iter([mpmath.mpf(0)])

        def evaluation(*args):
            _, grad, hess = derivatives(*args)
            return next(values, mpmath.mpf(-1)), grad, hess

        monkeypatch.setattr(soliton_mod, "_derivatives", evaluation)
        with pytest.raises(NoConvergence) as info:
            find_soliton(CUBIC, tol=1e-10, max_iter=60, precision_bits=64)
        assert info.value.iterations == 0
        assert str(info.value).startswith("line search stalled after 0 iterations")

    def test_rejected_trials_skip_the_off_diagonal_calls(self, monkeypatch):
        # the stall above on the quadrics (r = 2): the start point, which a
        # step leaves from, costs 3 calls and each rejected trial only 2
        derivatives = soliton_mod._derivatives
        values = iter([mpmath.mpf(0)])
        trials = []
        counted = []

        def evaluation(*args):
            trials.append(args)
            _, grad, diagonal = derivatives(*args)
            return next(values, mpmath.mpf(-1)), grad, diagonal

        def counting(*args):
            counted.append(args)
            return f_numeric(*args)

        monkeypatch.setattr(soliton_mod, "_derivatives", evaluation)
        monkeypatch.setattr(soliton_mod, "f_numeric", counting)
        with pytest.raises(NoConvergence, match="line search stalled"):
            find_soliton(QUADRICS, tol=1e-10, max_iter=60, precision_bits=64)
        assert len(trials) > 2
        assert len(counted) == 3 + 2 * (len(trials) - 1)

    def test_exhausted_budget_skips_the_off_diagonal_calls(self, monkeypatch):
        counted = []

        def counting(*args):
            counted.append(args)
            return f_numeric(*args)

        monkeypatch.setattr(soliton_mod, "f_numeric", counting)
        with pytest.raises(NoConvergence, match="no convergence"):
            find_soliton(P4_CUBIC, max_iter=0)
        assert len(counted) == 3

    def test_quadrics_interior_maximum(self):
        result = find_soliton(QUADRICS, tol=1e-9, max_iter=80,
                              precision_bits=192)
        assert not result.trivial
        assert result.gradient_norm < mpmath.mpf("1e-9")
        assert result.f_value > -1  # strictly above the center value
        point = [F(float(c)) for c in result.coefficients]
        for i in range(2):
            assert abs(exact_fut(QUADRICS, point, i, 192)) < mpmath.mpf("1e-8")

    def test_quadrics_family_direction_bisection(self):
        # restricted to the line through diag(-7,3,-2,5,1), the functional has
        # the closed form -e^(-5t)/48t^2 - e^(7t)/24t^2 + e^(3t)/16t^2; its
        # derivative root must be a critical point of the line restriction
        from modfutaki import Dual, f_numeric
        from modfutaki.exactalg import _to_mpf

        with mpmath.workprec(300):
            def fprime(t):
                return (mpmath.exp(-5 * t) * (5 * t + 2) / (48 * t ** 3)
                        + mpmath.exp(7 * t) * (2 - 7 * t) / (24 * t ** 3)
                        + mpmath.exp(3 * t) * (3 * t - 2) / (16 * t ** 3))

            lo, hi = mpmath.mpf(-2), mpmath.mpf("-0.01")
            assert fprime(lo) > 0 and fprime(hi) < 0
            for _ in range(260):
                mid = (lo + hi) / 2
                if fprime(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            tstar = (lo + hi) / 2

            direction = (F(-7), F(3), F(-2), F(5), F(1))
            weights = (F(-4), F(6))
            lam = [Dual(tstar * _to_mpf(r), _to_mpf(r)) for r in direction]
            wts = [Dual(tstar * _to_mpf(a), _to_mpf(a)) for a in weights]
            slope = f_numeric(QUADRICS, lam, wts, 256).derivative
            assert abs(slope) < mpmath.mpf("1e-60")


class TestCriticality:
    """Exact Fut vanishes along the torus at the maximizer, and only there."""

    def test_trivial_torus_has_empty_gradient(self):
        result = find_soliton(FERMAT_CUBIC)
        assert result.gradient == () and result.gradient_norm == 0

    def test_fut_vanishes_at_maximizer(self):
        result = find_soliton(CUBIC, tol=1e-11, precision_bits=256)
        point = [F(float(c)) for c in result.coefficients]
        assert abs(exact_fut(CUBIC, point, 0, 256)) < mpmath.mpf("1e-9")

    def test_fut_nonzero_off_the_maximizer(self):
        result = find_soliton(CUBIC, tol=1e-11, precision_bits=256)
        point = [F(float(c)) + F(1, 10) for c in result.coefficients]
        assert abs(exact_fut(CUBIC, point, 0, 192)) > mpmath.mpf("1e-2")


@pytest.fixture(scope="module", params=[(CUBIC, 6, 7), (QUADRICS, 4, 14),
                                        (P4_CUBIC, 4, 27)],
                ids=["cubic", "quadrics", "p4cubic"])
def newton_run(request):
    """find_soliton at 64 bits with its f_numeric calls counted.

    Yields the variety, the result, the Dual depth of each call, and the
    iterations and calls expected.
    """
    ci, iterations, calls = request.param
    counted = []

    def counting(*args):
        counted.append(_depth(args[1][0]))
        return f_numeric(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(soliton_mod, "f_numeric", counting)
        result = find_soliton(ci, tol=1e-10, precision_bits=64)
    return ci, result, counted, (iterations, calls)


class TestExactHessian:
    BITS = 128
    STEP = F(1, 2 ** 40)

    def test_newton_cost(self, newton_run):
        # r depth-2 calls at the start and at each line-search trial, none
        # rejected, and r(r-1)/2 more at each point a step leaves from; the
        # finite-difference Hessian took 4 r^2 per step
        _, result, depths, expected = newton_run
        assert (result.iterations, len(depths)) == expected
        assert set(depths) == {2}

    def test_matches_exact_fut_and_is_negative_definite(self, newton_run):
        ci, result, _, _ = newton_run
        torus = admissible_torus(ci)
        betas = [derive_weights(ci, vec) for vec in torus.basis]
        r = torus.dimension
        one, zero = mpmath.mpf(1), mpmath.mpf(0)
        rel = mpmath.mpf(2) ** (16 - self.BITS)

        for point in ([F(0)] * r, [F(float(c)) for c in result.coefficients]):
            with mpmath.workprec(self.BITS + 32):
                coords = [_to_mpf(c) for c in point]
                basis = [[_to_mpf(x) for x in vec] for vec in torus.basis]
                weights = [[_to_mpf(x) for x in beta] for beta in betas]
                value, grad, diagonal = soliton_mod._derivatives(
                    ci, basis, weights, coords, self.BITS)
                hess = soliton_mod._hessian(ci, basis, weights, coords,
                                            diagonal, self.BITS)
                for i in range(r):
                    for j in range(i + 1, r):
                        # seeded with c_j first, then c_i
                        seeded = [Dual(Dual(c, one if k == j else zero),
                                       Dual(one if k == i else zero, zero))
                                  for k, c in enumerate(coords)]
                        swapped = f_numeric(
                            ci, *soliton_mod._field(basis, weights, seeded),
                            self.BITS).derivative.derivative
                        assert abs(swapped - hess[i, j]) <= rel * abs(hess[i, j])
            mpmath.cholesky(-hess)  # raises unless -H is positive definite
            with mpmath.workprec(600):
                exact = f_function(ci, field_at(ci, point)).evaluate(1, 512)
                assert abs(value - exact) <= rel * abs(exact)
                for i in range(r):
                    exact = exact_fut(ci, point, i)
                    assert abs(grad[i] - exact) <= rel * max(1, abs(exact))
                # H_ij = d/dc_j Fut(W_i); the central difference of the exact
                # Fut is good to about 2^-78 here
                for i in range(r):
                    for j in range(r):
                        up, down = list(point), list(point)
                        up[j] += self.STEP
                        down[j] -= self.STEP
                        diff = ((exact_fut(ci, up, i) - exact_fut(ci, down, i))
                                / (2 * _to_mpf(self.STEP)))
                        assert abs(diff - hess[i, j]) <= \
                            mpmath.mpf(2) ** -70 * max(1, abs(diff))
