"""Tests for the split Poisson-Boltzmann solver and its diagnostics."""
import logging
import re

import numpy as np
import pytest
from conftest import full_k_squared
from scipy.integrate import quad

from qnlab import poisson_boltzmann
from qnlab.errors import NewtonDiverged, NotAProbabilityDensity, PotentialSolveFailed
from qnlab.grid import (
    MASS_TOL,
    RealField,
    TorusGrid,
    integrate,
    inverse_laplacian_zero_mean,
    l2_norm,
    spectral_derivative,
)
from qnlab.nbody import (
    ParticleConfig,
    empirical_potential,
    green_kernel,
    green_kernel_prime,
    wrap_half,
)
from qnlab.poisson_boltzmann import (
    CG_MAXITER,
    CG_THETA,
    NEWTON_RTOL,
    lipschitz_hat_prime,
    lipschitz_hat_prime_bound,
    _newton_hat,
    _pcg,
    solve_pb,
    solve_pb_empirical,
    validate_elliptic_bounds,
    w1_stability_check,
)
from qnlab.schrodinger import solve_potential


def residual_norm(split, h_vals):
    """L2 residual of -eps*Lap(V) = h - exp(V), computed spectrally."""
    g = split.tilde.grid
    v = split.potential.values
    lap = np.fft.ifftn(np.fft.fftn(v) * (-full_k_squared(g))).real
    return float(np.sqrt(np.mean((-split.eps * lap - h_vals + np.exp(v)) ** 2)))


def hat_residual_norm(tilde, hat, eps, grid):
    """L2 residual of -eps*Lap(hat) = 1 - exp(tilde + hat) with a full complex
    transform pair and the reference symbol, and the roundoff of that
    recomputation, which grows with the largest symbol value."""
    k2 = full_k_squared(grid)
    lap = np.fft.ifftn(np.fft.fftn(hat) * -k2).real
    res = -eps * lap - 1.0 + np.exp(tilde + hat)
    roundoff = np.finfo(float).eps * (eps * k2.max() * np.max(np.abs(hat)) + 1.0)
    return float(np.sqrt(np.mean(res**2))), roundoff


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_wrap_half_fundamental_domain():
    x = np.array([0.0, 0.25, 0.5, 0.75, -0.5, 1.25, -1.3])
    w = wrap_half(x)
    assert np.all(w >= -0.5) and np.all(w < 0.5)
    assert w[0] == 0.0
    assert w[2] == -0.5  # 0.5 maps to the left endpoint
    assert w[3] == -0.25
    np.testing.assert_allclose(wrap_half(x + 3.0), w, atol=1e-12)


def test_kernel_basic_values():
    assert green_kernel(0.0) == 0.0
    assert green_kernel(1.0) == 0.0
    np.testing.assert_allclose(green_kernel(0.5), -0.125)
    np.testing.assert_allclose(green_kernel(0.25), green_kernel(-0.25))  # even
    np.testing.assert_allclose(green_kernel_prime(0.25), -0.25)
    np.testing.assert_allclose(green_kernel_prime(-0.25), 0.25)  # odd
    assert green_kernel_prime(0.0) == 0.0


def test_kernel_mean_by_quadrature():
    val, err = quad(green_kernel, 0.0, 1.0)
    assert err < 1e-12
    np.testing.assert_allclose(val, -1.0 / 12.0, atol=1e-10)


def test_kernel_is_green_function_distributionally():
    # against smooth periodic phi: int K * (-phi'') = phi(0) - int phi
    def phi(x):
        return np.exp(np.sin(2 * np.pi * x))

    def minus_phi_pp(x):
        s, c = np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)
        return -(2 * np.pi) ** 2 * (c**2 - s) * phi(x)

    lhs, _ = quad(lambda x: green_kernel(x) * minus_phi_pp(x), 0.0, 1.0, limit=200)
    mean_phi, _ = quad(phi, 0.0, 1.0)
    np.testing.assert_allclose(lhs, phi(0.0) - mean_phi, atol=1e-9)


# ---------------------------------------------------------------------------
# smooth solves
# ---------------------------------------------------------------------------

def test_flat_density_zero_potential(grid256):
    h = RealField(grid256, np.ones(grid256.n))
    s = solve_pb(h, 0.7)
    assert np.max(np.abs(s.potential.values)) == 0.0
    assert s.info["iterations"] == s.info["cg_iterations"] == 0


def test_potential_and_background_built_once(grid256):
    x = grid256.axis_points()
    s = solve_pb(RealField(grid256, 1.0 + 0.3 * np.cos(2 * np.pi * x)), 0.1)
    assert s.potential is s.potential
    assert s.background is s.background
    np.testing.assert_array_equal(s.background.values, np.exp(s.potential.values))


def test_small_amplitude_matches_linearization(grid256):
    a, eps = 1e-4, 0.1
    x = grid256.axis_points()
    h = RealField(grid256, 1.0 + a * np.cos(2 * np.pi * x))
    s = solve_pb(h, eps)
    v_lin = a * np.cos(2 * np.pi * x) / (4 * np.pi**2 * eps + 1.0)
    assert np.max(np.abs(s.potential.values - v_lin)) <= 10 * a**2


def test_matches_damped_fixed_point_oracle(grid256):
    # independent solver: v <- (-eps*Lap + 1)^(-1) (h - e^v + v), iterated
    eps = 0.5
    x = grid256.axis_points()
    rho = np.exp(np.cos(2 * np.pi * x))
    rho /= rho.mean()
    k2 = full_k_squared(grid256)
    v = np.zeros(grid256.n)
    for _ in range(500):
        v_new = np.fft.ifft(np.fft.fft(rho - np.exp(v) + v) / (eps * k2 + 1.0)).real
        if np.max(np.abs(v_new - v)) < 1e-14:
            v = v_new
            break
        v = v_new
    s = solve_pb(RealField(grid256, rho), eps)
    assert np.max(np.abs(s.potential.values - v)) <= 1e-9


@pytest.mark.parametrize("eps", [1.0, 1e-2, 1e-3])
def test_residual_is_its_own_oracle(grid256, eps):
    x = grid256.axis_points()
    rho = np.exp(np.cos(2 * np.pi * x))
    rho /= rho.mean()
    h = RealField(grid256, rho)
    s = solve_pb(h, eps)
    tol = 1e-10 * (1.0 + l2_norm(h))
    assert residual_norm(s, rho) <= tol
    assert abs(integrate(s.background) - 1.0) <= 1e-8
    assert abs(np.mean(s.tilde.values)) <= 1e-12


@pytest.mark.parametrize("grid", [TorusGrid(1, 2048), TorusGrid(2, 64)], ids=str)
def test_newton_residual_matches_complex_laplacian(grid):
    # the residual norm the solver stops on, recomputed with a full complex
    # transform pair and the reference symbol
    eps = 0.05
    x = grid.coords()
    tilde = 0.5 * sum(np.cos(2 * np.pi * c) for c in x) + 0.2 * np.sin(6 * np.pi * x[0])
    hat, info = _newton_hat(tilde, eps, grid, tol=1e-9)
    res, roundoff = hat_residual_norm(tilde, hat, eps, grid)
    assert info["iterations"] >= 2
    assert abs(res - info["residuals"][-1]) <= roundoff


@pytest.mark.parametrize("n", [256, 2048])
@pytest.mark.parametrize("eps", [1.0, 0.1, 0.025, 0.00625])
def test_cold_and_warm_solves_meet_the_tolerance(n, eps):
    # CG stops within CG_THETA of Newton's tolerance, so the last Newton step
    # rests on F(hat + delta) = -r_lin + O(delta^2): the returned hat must
    # still meet tol, from cold and from the solution of a nearby density,
    # also when recomputed independently
    g = TorusGrid(1, n)
    x = g.axis_points()

    def density(shift):
        rho = np.exp(0.5 * np.cos(2 * np.pi * (x - shift)))
        return RealField(g, rho / rho.mean())

    cold = solve_pb(density(0.0), eps)
    warm = solve_pb(density(1e-4), eps, hat0=cold.hat.values)
    for s in (cold, warm):
        res, roundoff = hat_residual_norm(s.tilde.values, s.hat.values, eps, g)
        assert s.info["residuals"][-1] <= s.info["tolerance"]
        assert res <= s.info["tolerance"] + roundoff
    # one start rule: a solve without a guess is the zero guess's solve
    assert_same_solve(solve_pb(density(0.0), eps, hat0=np.zeros(n)), cold)


@pytest.mark.xfail(strict=True, raises=NewtonDiverged,
                   reason="ROADMAP item 2: the residual's roundoff floor grows like n^2 and "
                          "passes the fixed tolerance; backtracking is exhausted at "
                          "3.17e-10 and 3.88e-10 against tol 2.06e-10")
@pytest.mark.parametrize("eps", [0.025, 0.00625])
def test_newton_converges_at_n_8192(eps):
    # grid.n accepts any power of two >= 8, so a solve on a legal grid must
    # stop somewhere the residual can reach
    g = TorusGrid(1, 8192)
    h = RealField(g, 1.0 + 0.5 * np.cos(2 * np.pi * g.axis_points()))
    s = solve_pb(h, eps)
    res, roundoff = hat_residual_norm(s.tilde.values, s.hat.values, eps, g)
    assert res <= s.info["tolerance"] + roundoff


def test_rejects_bad_densities(grid256):
    x = grid256.axis_points()
    with pytest.raises(NotAProbabilityDensity):
        solve_pb(RealField(grid256, 1.0 + 2.0 * np.cos(2 * np.pi * x)), 1.0)
    with pytest.raises(NotAProbabilityDensity):
        solve_pb(RealField(grid256, np.full(grid256.n, 1.5)), 1.0)
    with pytest.raises(ValueError):
        solve_pb(RealField(grid256, np.ones(grid256.n)), 0.0)


def test_newton_iteration_budget(grid256):
    x = grid256.axis_points()
    rho = np.exp(np.cos(2 * np.pi * x))
    rho /= rho.mean()
    budgets = {1.0: 4, 0.1: 6, 1e-2: 10, 1e-3: 45}
    for eps, cap in budgets.items():
        s = solve_pb(RealField(grid256, rho), eps)
        assert s.info["iterations"] <= cap, (eps, s.info["iterations"])


def test_newton_quadratic_tail(grid256):
    # ratio r_{k+1}/r_k^2 stays bounded once the residual is inside the
    # quadratic window; below 1e-6 squaring hits the roundoff floor
    x = grid256.axis_points()
    for amp, eps in [(1.0, 1.0), (2.0, 0.1), (1.0, 1e-2)]:
        rho = np.exp(amp * np.cos(2 * np.pi * x))
        rho /= rho.mean()
        s = solve_pb(RealField(grid256, rho), eps)
        r = s.info["residuals"]
        assert all(b < a for a, b in zip(r, r[1:]))  # backtracking guarantees descent
        ratios = [r[k + 1] / r[k] ** 2 for k in range(len(r) - 1) if 1e-6 <= r[k] < 1e-2]
        assert ratios, "no iterate landed in the quadratic window"
        assert max(ratios[-3:]) <= 10.0


def tilde_by_projection(h, eps):
    """tilde through the mean-zero inverse Laplacian: the mass defect and the
    division's roundoff subtracted before the guarded transform."""
    rhs = (h.values - h.values.mean()) / eps
    return inverse_laplacian_zero_mean(RealField(h.grid, rhs - rhs.mean())).values


@pytest.mark.parametrize("eps", [1.0, 0.025, 1e-3])
@pytest.mark.parametrize("defect", [0.9, -0.9])
@pytest.mark.parametrize("grid", [TorusGrid(1, 2048), TorusGrid(2, 64)], ids=str)
def test_tilde_from_the_symbol_matches_projection(grid, defect, eps):
    # inv_k2 is 0 at k = 0, so the symbol alone removes a mass defect near
    # MASS_TOL. Measured over these cases: the two tildes differ by at most
    # 1.8 u max|tilde|, the mean is at most 0.23 u max|tilde|, and the
    # Poisson residual at most 1.2 u (eps max|2 pi k|^2 max|tilde| + max h),
    # u the machine epsilon; the bounds below allow about 2x to 4x that
    x = grid.coords()
    rho = np.exp(0.5 * sum(np.cos(2 * np.pi * c) for c in x) + 0.3 * np.sin(6 * np.pi * x[0]))
    h = RealField(grid, rho / rho.mean() * (1.0 + defect * MASS_TOL))
    # the tilde of a full solve: tilde_values, as every solve computes it
    tilde = solve_pb(h, eps).tilde.values
    reference = tilde_by_projection(h, eps)
    u = np.finfo(float).eps
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(tilde - reference)) <= 4.0 * u * scale
    assert abs(tilde.mean()) <= u * scale
    k2 = full_k_squared(grid)
    lap = np.fft.ifftn(np.fft.fftn(tilde) * -k2).real
    floor = u * (eps * k2.max() * np.max(np.abs(tilde)) + np.max(h.values))
    assert np.max(np.abs(-eps * lap - (h.values - h.values.mean()))) <= 4.0 * floor


def test_newton_tolerance_is_newton_rtol(grid256):
    x = grid256.axis_points()
    rho = np.exp(np.cos(2 * np.pi * x))
    h = RealField(grid256, rho / rho.mean())
    assert solve_pb(h, 0.1).info["tolerance"] == NEWTON_RTOL * (1.0 + l2_norm(h))
    cfg, eps = ParticleConfig(np.array([0.1, 0.55, 0.72])), 0.5
    phi, _ = empirical_potential(cfg, x)
    data = RealField(grid256, 1.0 - np.exp(phi / eps))
    assert (solve_pb_empirical(cfg, eps, grid256).info["tolerance"]
            == NEWTON_RTOL * (1.0 + l2_norm(data)))


def test_converged_warm_start_costs_two_transform_pairs(grid256, transforms):
    # one pair for tilde, one for the residual at the warm start; the warm
    # start already meets the tolerance, so no Newton step runs
    x = grid256.axis_points()
    rho = np.exp(np.cos(2 * np.pi * x))
    h = RealField(grid256, rho / rho.mean())
    transforms.paused = True
    hat0 = solve_pb(h, 0.1).hat.values
    transforms.paused = False
    s = solve_pb(h, 0.1, hat0=hat0)
    assert s.info["iterations"] == 0
    assert transforms.counts == {"fft": 0, "ifft": 0, "rfft": 2, "irfft": 2}


def converged_hat(n, eps=0.025):
    """h = 1 + 0.5 cos 2 pi x on n nodes and the hat of its cold solve."""
    g = TorusGrid(1, n)
    h = RealField(g, 1.0 + 0.5 * np.cos(2 * np.pi * g.axis_points()))
    return h, solve_pb(h, eps).hat.values


def assert_same_solve(s, t):
    """s and t are the same solve bit for bit: hat, residual history and
    Newton and CG counts."""
    assert np.array_equal(s.hat.values, t.hat.values)
    assert s.info == t.info


def assert_is_the_mass_shifted_guess(s, hat0):
    """s.hat is hat0 moved by a roundoff-sized constant that makes the
    background mass mean exp(V) one to roundoff."""
    shift = s.hat.values - hat0
    assert np.ptp(shift) <= 1e-15 and abs(shift[0]) <= 1e-14
    assert abs(np.mean(s.background.values) - 1.0) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("offset", [0.0, 1e-9])
def test_warm_start_inside_the_cg_target_comes_back_unchanged(offset):
    # at n = 256 the converged hat's residual, 7.2e-13, is within
    # CG_THETA * tol, where a Newton step would end: no step is taken, and
    # only the constant that fixes the background mass moves the guess. A
    # guess off by a constant 1e-9 (residual about 1e-9 > tol) ends the same
    # way: the k = 0 equation is met by that constant before any step
    h, hat0 = converged_hat(256)
    s = solve_pb(h, 0.025, hat0=hat0 + offset)
    assert s.info["residuals"][0] <= CG_THETA * s.info["tolerance"]
    assert s.info["iterations"] == 0 and s.info["cg_iterations"] == 0
    assert_is_the_mass_shifted_guess(s, hat0)


def test_warm_start_inside_tol_takes_one_correction_step():
    # the residual of the converged hat at n = 2048, 3.1e-11, and that of the
    # zero guess for h ~ exp(5e-11 cos 2 pi x) at n = 256, 3.6e-11, lie
    # between CG_THETA * tol and tol: either start takes exactly one Newton
    # step and ends lower, and a solve without a guess takes it too
    g = TorusGrid(1, 256)
    tiny = np.exp(5e-11 * np.cos(2 * np.pi * g.axis_points()))
    for h, hat0 in (converged_hat(2048), (RealField(g, tiny / tiny.mean()), np.zeros(256))):
        s = solve_pb(h, 0.025, hat0=hat0)
        r = s.info["residuals"]
        assert CG_THETA * s.info["tolerance"] < r[0] <= s.info["tolerance"]
        assert s.info["iterations"] == 1 and len(r) == 2
        assert r[1] < r[0]
    assert_same_solve(solve_pb(h, 0.025), s)


def test_correction_step_that_does_not_descend_keeps_the_guess(monkeypatch):
    # a step along F(hat) = -rhs is uphill at every length backtracking
    # tries, the Newton matrix being positive definite (also after each
    # trial's mass shift, by Cauchy-Schwarz): a guess within tol comes back
    # after its backtracking runs out, and nothing is raised; a guess above
    # tol has no such exemption
    h, hat0 = converged_hat(2048)
    monkeypatch.setattr(poisson_boltzmann, "_pcg",
                        lambda rhs, *args: (-1e6 * rhs, 1, True))
    s = solve_pb(h, 0.025, hat0=hat0)
    assert s.info["iterations"] == 0 and s.info["cg_iterations"] == 1
    assert s.info["residuals"][0] > CG_THETA * s.info["tolerance"]
    assert_is_the_mass_shifted_guess(s, hat0)
    bump = 1e-6 * np.cos(2 * np.pi * h.grid.axis_points())
    with pytest.raises(NewtonDiverged, match="backtracking exhausted"):
        solve_pb(h, 0.025, hat0=hat0 + bump)


# ---------------------------------------------------------------------------
# preconditioned CG and the Newton guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grid", [TorusGrid(1, 64), TorusGrid(2, 16)], ids=str)
def test_pcg_matches_dense_solve(grid):
    eps = 0.05
    rng = np.random.default_rng(5)
    weight = rng.uniform(0.2, 3.0, grid.shape)
    rhs = rng.standard_normal(grid.shape)
    # dense (1 - eps*Lap) + diag(weight - 1), column by column from the
    # reference symbol with a full complex transform
    k2 = full_k_squared(grid)
    eye = np.eye(grid.size).reshape((grid.size, *grid.shape))
    axes = tuple(range(1, grid.dim + 1))
    cols = np.fft.ifftn(np.fft.fftn(eye, axes=axes) * (1.0 + eps * k2), axes=axes).real
    dense = cols.reshape(grid.size, grid.size).T + np.diag(weight.ravel() - 1.0)
    expected = np.linalg.solve(dense, rhs.ravel()).reshape(grid.shape)
    x, iterations, converged = _pcg(rhs, weight, eps, grid, 1e-13)
    assert converged and 0 < iterations < CG_MAXITER
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


def test_pcg_zero_rhs_returns_zeros(grid256):
    weight = np.full(grid256.shape, 2.0)
    x, iterations, converged = _pcg(np.zeros(grid256.shape), weight, 0.1, grid256, 1e-8)
    assert converged and iterations == 0
    assert not np.any(x)


def test_cg_maxiter_hit_is_counted_and_logged(grid256, monkeypatch, caplog):
    monkeypatch.setattr(poisson_boltzmann, "CG_MAXITER", 1)
    x = grid256.axis_points()
    rho = np.exp(np.cos(2 * np.pi * x))
    rho /= rho.mean()
    # one CG iteration misses every forcing term, yet each inexact step
    # still descends, so Newton converges
    with caplog.at_level(logging.DEBUG, logger="qnlab.poisson_boltzmann"):
        s = solve_pb(RealField(grid256, rho), 0.05)
    assert s.info["cg_failures"] >= 1
    assert s.info["cg_iterations"] == s.info["iterations"]
    assert any("cg hit maxiter" in rec.getMessage() for rec in caplog.records)


def test_newton_cap_reached(grid256, monkeypatch):
    h2048, hat0 = converged_hat(2048)
    monkeypatch.setattr(poisson_boltzmann, "NEWTON_CAP", 0)
    x = grid256.axis_points()
    h = RealField(grid256, 1.0 + 0.3 * np.cos(2 * np.pi * x))
    with pytest.raises(NewtonDiverged, match="Newton cap 0 reached"):
        solve_pb(h, 0.1)
    with pytest.raises(PotentialSolveFailed, match="Newton cap 0 reached"):
        solve_potential(h, 0.1)
    # a warm start within tol still owes its correction step, and the cap
    # counts it
    with pytest.raises(NewtonDiverged, match="Newton cap 0 reached"):
        solve_pb(h2048, 0.025, hat0=hat0)


def test_non_finite_residual_raises(grid256):
    x = grid256.axis_points()
    h = RealField(grid256, 1.0 + 0.3 * np.cos(2 * np.pi * x))
    hat0 = np.zeros(grid256.shape)
    hat0[7] = np.nan
    with pytest.raises(NewtonDiverged, match="non-finite residual nan"):
        solve_pb(h, 0.05, hat0=hat0)
    with pytest.raises(PotentialSolveFailed, match="non-finite residual"):
        solve_potential(h, 0.05, hat0=hat0)


@pytest.mark.parametrize("hat0", [np.zeros(1), np.zeros((256, 1)), np.float64(0.0),
                                  np.zeros(256, dtype=complex)],
                         ids=["one-node", "column", "scalar", "complex"])
def test_malformed_guess_is_refused(grid256, hat0, monkeypatch):
    # numpy would broadcast the first three (the column to a (256, 256)
    # Newton iterate) and drop the imaginary part of the last with only a
    # ComplexWarning; both public solves refuse them before Newton runs
    monkeypatch.setattr(poisson_boltzmann, "_newton_hat", None)
    h = RealField(grid256, np.ones(256))
    shapes = rf"\(256,\).*{re.escape(str(np.shape(hat0)))}"
    with pytest.raises(ValueError, match=shapes):
        solve_pb(h, 0.025, hat0=hat0)
    with pytest.raises(ValueError, match=shapes):
        solve_pb_empirical(ParticleConfig(np.array([0.25, 0.5])), 0.025, grid256, hat0=hat0)


# ---------------------------------------------------------------------------
# empirical solves
# ---------------------------------------------------------------------------

def test_particle_positions_half_open():
    # -1e-20 % 1.0 rounds to 1.0; the sorted-sum formulas need [0, 1)
    pos = ParticleConfig(np.array([-1e-20, 1.25, -0.25])).positions
    np.testing.assert_array_equal(pos, [0.0, 0.25, 0.75])


def test_single_particle_tilde_is_kernel(grid256):
    cfg = ParticleConfig(np.array([0.0]))
    y = grid256.axis_points()
    phi, phi_prime = empirical_potential(cfg, y)
    np.testing.assert_array_equal(phi, green_kernel(y) + 1.0 / 12.0)
    np.testing.assert_array_equal(phi_prime, green_kernel_prime(y))


@pytest.mark.parametrize("n_part", [1, 2, 3, 17, 512])
def test_empirical_tilde_matches_direct_sum(grid256, n_part):
    # direct N x n kernel sums as the oracle, over random, coincident and
    # edge atoms (at 0, at 1 - 2^-52, and on grid nodes)
    rng = np.random.default_rng(n_part)
    random = rng.random(n_part)
    edges = random.copy()
    edges[::3] = 0.0
    edges[1::3] = 1.0 - 2.0**-52
    edges[2::3] = 5.0 / 256.0
    y = grid256.axis_points()
    for pos in (random, np.where(np.arange(n_part) % 2 == 0, 0.3, random), edges):
        diffs = y[None, :] - pos[:, None]
        phi, phi_prime = empirical_potential(ParticleConfig(pos), y)
        np.testing.assert_allclose(phi, green_kernel(diffs).mean(axis=0) + 1.0 / 12.0,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(phi_prime, green_kernel_prime(diffs).mean(axis=0),
                                   rtol=0, atol=1e-14)


def test_equispaced_tilde_closed_form(grid256):
    # averaging K over N equispaced shifts leaves only modes divisible by N:
    # tilde(y) = (K(N y) + 1/12) / (eps N^2)
    n_part, eps = 16, 0.5
    cfg = ParticleConfig(np.arange(n_part) / n_part)
    y = grid256.axis_points()
    expected = (green_kernel(n_part * y) + 1.0 / 12.0) / (eps * n_part**2)
    got = empirical_potential(cfg, y)[0] / eps
    np.testing.assert_allclose(got, expected, atol=1e-13)
    assert np.max(np.abs(got)) <= 1.0 / (eps * n_part)  # O(1/(eps N)) decay


def test_empirical_grid_mean_aliasing_bound():
    # exact kernel sums are not spectrally mean-free; the grid mean aliases to
    # (1/(2 pi^2 n^2 eps N)) sum_i sum_m cos(2 pi m n x_i)/m^2, |.| <= 1/(12 n^2 eps)
    rng = np.random.default_rng(3)
    for n in (64, 128):
        g = TorusGrid(1, n)
        for eps in (0.5, 0.1):
            pos = rng.random(8)
            tilde = empirical_potential(ParticleConfig(pos), g.axis_points())[0] / eps
            bound = 1.01 / (12.0 * n**2 * eps) + 1e-13
            assert abs(np.mean(tilde)) <= bound
            m = np.arange(1, 20001)
            exact = np.mean(
                (np.cos(2 * np.pi * np.outer(pos, m) * n) / m**2).sum(axis=1)
            ) / (2 * np.pi**2 * n**2 * eps)
            np.testing.assert_allclose(np.mean(tilde), exact, atol=1e-8)


def test_empirical_residual_and_mass(grid256):
    rng = np.random.default_rng(11)
    cfg = ParticleConfig(rng.random(16))
    eps = 0.5
    s = solve_pb_empirical(cfg, eps, grid256)
    # hat solves -eps*Lap(hat) = 1 - exp(tilde+hat) against the exact tilde samples
    lap = np.fft.ifft(np.fft.fft(s.hat.values) * (-full_k_squared(grid256))).real
    res = -eps * lap - 1.0 + np.exp(s.tilde.values + s.hat.values)
    assert np.sqrt(np.mean(res**2)) <= s.info["tolerance"]
    assert abs(integrate(s.background) - 1.0) <= 1e-8


@pytest.mark.parametrize("eps", [0.5, 0.1])
@pytest.mark.parametrize("n_part", [4, 16])
def test_sup_potential_bound_random_configs(grid256, eps, n_part):
    rng = np.random.default_rng(42 + n_part)
    cfg = ParticleConfig(rng.random(n_part))
    s = solve_pb_empirical(cfg, eps, grid256)
    report = validate_elliptic_bounds(s, cfg)
    assert report["sup_potential"]["passed"]
    assert report["boltzmann_mass"]["passed"]


def test_l2_boltzmann_bound_smooth(grid256):
    rng = np.random.default_rng(5)
    from conftest import smooth_density

    h = smooth_density(grid256, rng)
    s = solve_pb(h, 1.0)
    report = validate_elliptic_bounds(s, h)
    assert report["l2_boltzmann"]["passed"]


def test_lipschitz_report_cross_check(grid256):
    cfg = ParticleConfig(np.array([0.1, 0.55, 0.72]))
    s = solve_pb_empirical(cfg, 1.0, grid256)
    report = validate_elliptic_bounds(s, cfg)
    entry = report["lipschitz_hat_prime"]
    assert entry["passed"]
    assert entry["lhs"] == lipschitz_hat_prime(s)
    # divided differences of the spectral hat' should estimate the same constant
    hat_p = spectral_derivative(s.hat, 0).values
    estimate = float(np.max(np.abs(np.diff(np.append(hat_p, hat_p[0]))))) * grid256.n
    assert abs(estimate - entry["lhs"]) <= 0.05 * entry["lhs"]


def test_lipschitz_bound_is_unity_at_eps_one():
    # the validator's right-hand side there is the eps-free 1 + LIP_SLACK
    assert lipschitz_hat_prime_bound(1.0) == 1.0


@pytest.mark.parametrize("eps", [1.0, 0.25, 0.05, 0.02])
def test_lipschitz_bound_holds_for_coincident_atoms(grid256, eps):
    # all atoms at one point: the most concentrated source, where exp(V)
    # peaks highest and random draws rarely reach
    cfg = ParticleConfig(np.full(8, 0.3))
    s = solve_pb_empirical(cfg, eps, grid256)
    entry = validate_elliptic_bounds(s, cfg)["lipschitz_hat_prime"]
    assert entry["passed"], entry


def test_lipschitz_in_configuration(grid256):
    # moving one particle by delta moves V by at most (2/(eps^{3/2} N))|delta|,
    # checked with factor-2 slack
    rng = np.random.default_rng(7)
    delta = 0.01
    for eps in (1.0, 0.25):
        for n_part in (4, 16):
            pos = rng.random(n_part)
            moved = pos.copy()
            moved[0] = (moved[0] + delta) % 1.0
            v1 = solve_pb_empirical(ParticleConfig(pos), eps, grid256).potential.values
            v2 = solve_pb_empirical(ParticleConfig(moved), eps, grid256).potential.values
            assert np.max(np.abs(v1 - v2)) <= 4.0 * delta / (eps**1.5 * n_part)


def test_mollified_sup_trend(grid256):
    # ||chi_r * (V1 - V2)||_inf ~ C ||h1 - h2||_1: halving the perturbation
    # should about halve the mollified gap (20% slack)
    x = grid256.axis_points()
    base = np.exp(np.cos(2 * np.pi * x))
    base /= base.mean()
    k = np.fft.fftfreq(grid256.n, d=1.0 / grid256.n)
    chi_hat = np.exp(-2 * np.pi**2 * 0.05**2 * k**2)  # unit-mass bump, width 0.05

    def mollified_gap(amp, eps):
        pert = base * (1.0 + amp * np.cos(4 * np.pi * x))
        pert /= pert.mean()
        v1 = solve_pb(RealField(grid256, base), eps).potential.values
        v2 = solve_pb(RealField(grid256, pert), eps).potential.values
        return np.max(np.abs(np.fft.ifft(np.fft.fft(v1 - v2) * chi_hat).real))

    for eps in (1.0, 0.25):
        assert mollified_gap(0.1, eps) <= 0.6 * mollified_gap(0.2, eps)


# ---------------------------------------------------------------------------
# W1 stability report
# ---------------------------------------------------------------------------

def test_w1_stability_identical_inputs(grid256):
    x = grid256.axis_points()
    h = RealField(grid256, 1.0 + 0.2 * np.cos(2 * np.pi * x))
    report = w1_stability_check(h, h, 0.5)
    assert report["lhs"] <= 1e-12
    assert report["w1"] <= 1e-12
    assert report["passed"]


def test_w1_stability_report_arithmetic(grid256):
    x = grid256.axis_points()
    h1 = RealField(grid256, np.ones(grid256.n))
    h2 = RealField(grid256, 1.0 + 0.1 * np.cos(2 * np.pi * x))
    eps = 1.0
    report = w1_stability_check(h1, h2, eps)
    np.testing.assert_allclose(
        report["lhs"], report["tilde_term"] + report["hat_term"], rtol=1e-12
    )
    np.testing.assert_allclose(report["rhs"], report["w1"] / eps, rtol=1e-12)
    # closed forms for this pair: tilde' difference is -0.1 sin(2 pi x)/(2 pi),
    # and W1 = int |0.1 sin(2 pi x)|/(2 pi) = 0.1/pi^2
    np.testing.assert_allclose(report["tilde_term"], 0.1 / (2 * np.pi * np.sqrt(2)), atol=1e-6)
    np.testing.assert_allclose(report["w1"], 0.1 / np.pi**2, atol=1e-4)
    # the L2-vs-L1 gap makes the tilde term alone exceed W1/eps, so lhs <= rhs
    # fails for any pair of distinct densities; the derived relations hold
    assert report["tilde_term"] > report["rhs"]
    assert report["w1"] / eps <= report["tilde_term"] <= np.sqrt(report["w1"]) / eps
    assert report["hat_term"] <= 4.0 * np.sqrt(eps) * report["tilde_term"]
    assert report["passed"]


def test_w1_stability_configs_and_true_variant(grid256):
    # lhs <= rhs fails (lhs >= rhs always, strictly when distinct), while the
    # derived relations behind `passed` and the variant
    # ||tilde1'-tilde2'||_2 <= (2/eps) sqrt(W1) hold
    rng = np.random.default_rng(19)
    eps = 0.5
    for _ in range(3):
        c1 = ParticleConfig(rng.random(16))
        c2 = ParticleConfig(rng.random(16))
        report = w1_stability_check(c1, c2, eps, grid=grid256)
        assert report["lhs"] >= report["rhs"]
        assert report["passed"]
        assert report["tilde_term"] <= 2.0 / eps * np.sqrt(report["w1"]) * (1 + 1e-8)


def test_w1_stability_sums_each_configuration_once(grid256, monkeypatch):
    # one evaluation of the particle sums per input gives both the solve's
    # tilde and the check's tilde'; the report is the one that evaluating
    # them separately gives, bit for bit
    rng = np.random.default_rng(23)
    eps = 0.5
    c1, c2 = ParticleConfig(rng.random(16)), ParticleConfig(rng.random(16))
    calls = []

    def counted(x, points):
        calls.append(x)
        return empirical_potential(x, points)

    monkeypatch.setattr(poisson_boltzmann, "empirical_potential", counted)
    report = w1_stability_check(c1, c2, eps, grid=grid256)
    assert len(calls) == 2 and calls[0] is c1 and calls[1] is c2
    monkeypatch.undo()
    splits = [solve_pb_empirical(c, eps, grid256) for c in (c1, c2)]
    tps = [empirical_potential(c, grid256.axis_points())[1] / eps for c in (c1, c2)]
    hps = [spectral_derivative(s.hat, 0).values for s in splits]
    assert report["tilde_term"] == l2_norm(RealField(grid256, tps[0] - tps[1]))
    assert report["hat_term"] == 4.0 * np.sqrt(eps) * l2_norm(RealField(grid256, hps[0] - hps[1]))
