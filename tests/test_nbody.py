"""Tests for N-particle energies, commutators, and circle W1."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from qnlab.grid import RealField, TorusGrid
from qnlab.nbody import (
    MC_BLOCK_ATOMS,
    ParticleConfig,
    _flat_energy,
    _w1_to_uniform,
    commutator_functional,
    green_kernel,
    green_kernel_prime,
    mc_uniform_stats,
    renormalized_energy,
    w1_circle,
)

# configurations for the direct-sum oracles: random atoms, coincident atoms,
# and atoms at both ends of [0, 1)
ORACLE_SIZES = (1, 2, 3, 17, 512)
EDGE = 1.0 - 2.0**-52
# Gauss-Legendre nodes on [-1, 1], exact to degree 5: every integrand below is
# a polynomial of degree at most 4 on each piece it is split into
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(3)


def oracle_configs(n_part):
    rng = np.random.default_rng(n_part)
    random = rng.random(n_part)
    coincident = np.where(np.arange(n_part) % 2 == 0, 0.3, random)
    edges = random.copy()
    edges[::2] = 0.0
    edges[1::2] = EDGE
    if n_part > 4:
        edges[4:] = random[4:]
    return [random, coincident, edges]


def direct_pair_energy(pos):
    """(1/N^2) sum_{i,j} K(x_i - x_j), O(N^2)."""
    return float(green_kernel(pos[:, None] - pos[None, :]).sum()) / pos.size**2


def direct_commutator_pair(pos, u_at):
    """(1/N^2) sum_{i != j} (u_i - u_j) K'(x_i - x_j), O(N^2)."""
    kprime = green_kernel_prime(pos[:, None] - pos[None, :])
    np.fill_diagonal(kprime, 0.0)
    return float(((u_at[:, None] - u_at[None, :]) * kprime).sum()) / pos.size**2


def interpolant(values, t):
    """The periodic piecewise-linear interpolant of grid values at t in [0, 1)."""
    n = values.size
    ext = np.append(values, values[0])
    j = np.minimum((t * n).astype(int), n - 1)
    return ext[j] + (ext[j + 1] - ext[j]) * (t * n - j)


def interpolant_cdf(values, t):
    """int_0^t of the interpolant, for t in [0, 1)."""
    n = values.size
    ext = np.append(values, values[0])
    node_cdf = np.concatenate([[0.0], np.cumsum((ext[:-1] + ext[1:]) / (2.0 * n))])
    j = np.minimum((t * n).astype(int), n - 1)
    xi = t - j / n
    return node_cdf[j] + ext[j] * xi + 0.5 * (ext[j + 1] - ext[j]) * n * xi**2


def gauss_pieces(n, points):
    """Gauss-Legendre nodes and weights on each piece of [0, 1] between the
    grid nodes j/n and the given points."""
    ends = np.unique(np.concatenate([np.arange(n + 1) / n, points]))
    lo, hi = ends[:-1, None], ends[1:, None]
    return ((lo + 0.5 * (hi - lo) * (GAUSS_NODES + 1.0)).ravel(),
            (0.5 * (hi - lo) * GAUSS_WEIGHTS).ravel())


@pytest.fixture
def flat(grid256):
    return RealField(grid256, np.ones(grid256.n))


# ---------------------------------------------------------------------------
# renormalized energy
# ---------------------------------------------------------------------------

def test_single_particle_flat_energy(flat):
    e = renormalized_energy(ParticleConfig(np.array([0.3])), flat)
    # pair = K(0) = 0, cross = -2*(-1/12), background = -1/12
    np.testing.assert_allclose(e.value, 1.0 / 12.0, atol=1e-15)
    assert e.counterterm == 2.0  # (1 + 1)/1


@pytest.mark.parametrize("n_part", [4, 8, 16])
def test_crystal_energy_closed_form(flat, n_part):
    # equispaced atoms leave only modes divisible by N: energy = 1/(12 N^2)
    e = renormalized_energy(ParticleConfig(np.arange(n_part) / n_part), flat)
    np.testing.assert_allclose(e.value, 1.0 / (12.0 * n_part**2), atol=1e-14)


def test_crystal_minimizes_among_random(flat):
    rng = np.random.default_rng(21)
    floor = 1.0 / (12.0 * 64)
    for _ in range(50):
        e = renormalized_energy(ParticleConfig(rng.random(8)), flat)
        assert e.value >= floor - 1e-13


@pytest.mark.parametrize("n_part", [8, 64, 512])
def test_energy_against_closed_form_oracle(grid256, n_part):
    # the kernel form pair + cross + self, with mu read as its piecewise-linear
    # interpolant: its Fourier coefficients are mu_hat_{m mod n} sinc^2(pi m/n),
    # summed over |m| <= 2^14, where the terms decay like m^-6
    x = grid256.axis_points()
    mu_vals = 1.0 + 0.3 * np.cos(2 * np.pi * x) + 0.2 * np.sin(4 * np.pi * x)
    assert mu_vals.min() > 0
    mu = RealField(grid256, mu_vals)
    pos = np.random.default_rng(n_part).random(n_part)
    m = np.arange(1, 2**14 + 1)
    coeffs = (np.fft.fft(mu_vals) / grid256.n)[m % grid256.n] * np.sinc(m / grid256.n) ** 2
    green = 1.0 / (2 * np.pi * m) ** 2  # K_hat(m); K_hat(0) = -1/12, and c_0 = 1
    pair = direct_pair_energy(pos)
    conv = [-1.0 / 12.0 + 2.0 * np.sum(green * coeffs * np.exp(2j * np.pi * m * p)).real
            for p in pos]
    cross = -2.0 * np.mean(conv)
    self_term = -1.0 / 12.0 + 2.0 * np.sum(green * np.abs(coeffs) ** 2)

    e = renormalized_energy(ParticleConfig(pos), mu)
    np.testing.assert_allclose(e.value, pair + cross + self_term, rtol=1e-13)
    np.testing.assert_allclose(e.counterterm, (1.0 + mu_vals.max()) / n_part**2, rtol=1e-12)


def test_energy_translation_invariance(grid256):
    rng = np.random.default_rng(4)
    from conftest import smooth_density

    mu = smooth_density(grid256, rng)
    pos = rng.random(12)
    shift = 17  # grid cells
    mu_shift = RealField(grid256, np.roll(mu.values, shift))
    e1 = renormalized_energy(ParticleConfig(pos), mu)
    e2 = renormalized_energy(ParticleConfig((pos + shift / grid256.n) % 1.0), mu_shift)
    np.testing.assert_allclose(e1.value, e2.value, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n_part=st.integers(1, 40))
def test_energy_nonnegative(seed, n_part):
    # E = int (G - G_bar)^2 >= 0 for the CDF gap G
    g = TorusGrid(1, 64)
    rng = np.random.default_rng(seed)
    x = g.axis_points()
    mu_vals = np.exp(0.5 * np.cos(2 * np.pi * (x - rng.random())))
    mu = RealField(g, mu_vals / mu_vals.mean())
    e = renormalized_energy(ParticleConfig(rng.random(n_part)), mu)
    assert e.value >= -1e-11


def test_energy_rejects_bad_input(grid256, flat):
    with pytest.raises(ValueError):
        renormalized_energy(ParticleConfig(np.array([0.5])),
                            RealField(grid256, 2.0 * np.ones(grid256.n)))
    # no cap on N: 5000 equispaced atoms give the crystal value 1/(12 N^2)
    e = renormalized_energy(ParticleConfig(np.linspace(0, 1, 5000, endpoint=False)), flat)
    np.testing.assert_allclose(e.value, 1.0 / (12.0 * 5000**2), atol=1e-14)


@pytest.mark.parametrize("n_part", ORACLE_SIZES)
def test_pair_energy_matches_direct_sum(flat, n_part):
    for pos in oracle_configs(n_part):
        pair = _flat_energy(np.sort(pos)) - 1.0 / 12.0
        direct = direct_pair_energy(pos)
        # atol: a few ulps of the 1/12 shift, for pair sums that vanish
        np.testing.assert_allclose(pair, direct, rtol=1e-14, atol=1e-16)
        # against mu = 1 the cross and background terms add back 1/12
        e = renormalized_energy(ParticleConfig(pos), flat)
        np.testing.assert_allclose(e.value, direct + 1.0 / 12.0, rtol=1e-12, atol=1e-15)


def test_flat_energy_million_atoms_against_long_double():
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double is not wider than double here")
    x = np.sort(np.random.default_rng(6).random(10**6))
    n = x.size
    d = x.astype(np.longdouble) - (np.arange(n, dtype=np.longdouble) + 0.5) / n
    d -= d.mean()
    reference = 1.0 / (12.0 * np.longdouble(n) ** 2) + np.dot(d, d) / n
    assert abs(_flat_energy(x) - float(reference)) <= 1e-12 * float(reference)


# ---------------------------------------------------------------------------
# commutator
# ---------------------------------------------------------------------------

def test_commutator_vanishes_for_constant_velocity(grid256, flat):
    u = RealField(grid256, np.full(grid256.n, 2.2))
    assert abs(commutator_functional(ParticleConfig(np.array([0.1, 0.3, 0.8])), flat, u)) <= 1e-14


def kprime_convolution(values, p):
    """(K' * u)(p) = int u(y) K'(p - y) dy for u the interpolant of grid
    values, by Gauss-Legendre on each cell split at p, where u K' is quadratic."""
    y, w = gauss_pieces(values.size, [p])
    return float(np.sum(w * interpolant(values, y) * green_kernel_prime(p - y)))


@pytest.mark.parametrize("n_part", ORACLE_SIZES)
def test_commutator_pair_term_matches_direct_sum(grid256, flat, n_part):
    # at mu = 1 the definition expands to the pair sum plus the cross terms
    # (2/N) sum_i (K' * u)(x_i); the background term vanishes, int K' = 0
    x = grid256.axis_points()
    u_vals = np.sin(2 * np.pi * x) + 0.2 * np.cos(6 * np.pi * x)
    u = RealField(grid256, u_vals)
    for pos in oracle_configs(n_part):
        cross = 2.0 * np.mean([kprime_convolution(u_vals, p) for p in pos])
        direct = direct_commutator_pair(pos, interpolant(u_vals, pos)) + cross
        np.testing.assert_allclose(commutator_functional(ParticleConfig(pos), flat, u), direct,
                                   rtol=1e-13, atol=1e-15)


def test_particle_layer_makes_no_transform(transforms):
    g = TorusGrid(1, 256)
    x = g.axis_points()
    rho = np.exp(0.5 * np.cos(2 * np.pi * x))
    mu = RealField(g, rho / rho.mean())
    u = RealField(g, np.sin(2 * np.pi * x))
    cfg = ParticleConfig(np.random.default_rng(4).random(64))
    renormalized_energy(cfg, mu)
    commutator_functional(cfg, mu, u)
    w1_circle(cfg, mu)
    assert transforms.counts == {"fft": 0, "ifft": 0, "rfft": 0, "irfft": 0}


def test_commutator_ratio_bounded_by_velocity_lipschitz(grid256, flat):
    # |commutator| <= max |u'| energy, u' the slope of u's interpolant: the
    # identity's bound, with constant 1 and no counterterm
    rng = np.random.default_rng(0)
    u_vals = np.sin(2 * np.pi * grid256.axis_points())
    u = RealField(grid256, u_vals)
    lip = float(np.max(np.abs(np.diff(np.append(u_vals, u_vals[0]))))) * grid256.n
    for _ in range(100):
        cfg = ParticleConfig(rng.random(32))
        energy = renormalized_energy(cfg, flat).value
        assert abs(commutator_functional(cfg, flat, u)) <= lip * energy


# Serfaty's inequality is an identity in 1-D. With G = F_X - F_mu the CDF gap
# and G_bar its mean, -(G - G_bar) is the field of mu_X - mu, so integrating
# by parts gives E = int (G - G_bar)^2 and commutator = int u' (G - G_bar)^2.
# mu and u are read as their piecewise-linear interpolants: between atoms and
# grid nodes G is quadratic and u' constant, so Gauss-Legendre per piece is
# exact to roundoff


def serfaty_mu(x):
    return 1.0 + 0.5 * np.cos(2 * np.pi * x) + 0.2 * np.sin(4 * np.pi * x)


@pytest.mark.parametrize("n_part", [8, 64, 512])
def test_serfaty_inequality_is_an_identity_in_1d(grid256, n_part):
    x = np.sort(np.random.default_rng(n_part).random(n_part))
    cfg = ParticleConfig(x)
    nodes = grid256.axis_points()
    mu = RealField(grid256, serfaty_mu(nodes))
    u_vals = 0.3 * np.sin(2 * np.pi * nodes)
    u = RealField(grid256, u_vals)
    t, w = gauss_pieces(grid256.n, x)
    gap = np.searchsorted(x, t, side="right") / n_part - interpolant_cdf(mu.values, t)
    centred = gap - np.sum(w * gap)
    cell = (t * grid256.n).astype(int)
    u_prime = np.diff(np.append(u_vals, u_vals[0]))[cell] * grid256.n
    energy = float(np.sum(w * centred**2))
    commutator = float(np.sum(w * u_prime * centred**2))
    e = renormalized_energy(cfg, mu).value
    assert e == pytest.approx(energy, rel=1e-12, abs=0.0)
    assert commutator_functional(cfg, mu, u) == pytest.approx(commutator, rel=1e-12, abs=0.0)
    # Cauchy-Schwarz: W1 = min_c int |G - c| <= ||G - G_bar||_2
    assert w1_circle(cfg, mu) ** 2 <= e


# ---------------------------------------------------------------------------
# circle W1
# ---------------------------------------------------------------------------

def test_w1_two_atoms():
    assert w1_circle(ParticleConfig(np.array([0.0])), ParticleConfig(np.array([0.5]))) == 0.5
    np.testing.assert_allclose(
        w1_circle(ParticleConfig(np.array([0.0])), ParticleConfig(np.array([0.2]))), 0.2
    )
    # distance wraps the short way around
    np.testing.assert_allclose(
        w1_circle(ParticleConfig(np.array([0.0])), ParticleConfig(np.array([0.8]))),
        0.2, atol=1e-15,
    )


def test_w1_interleaved_pairs():
    a = ParticleConfig(np.array([0.0, 0.5]))
    b = ParticleConfig(np.array([0.25, 0.75]))
    np.testing.assert_allclose(w1_circle(a, b), 0.25, atol=1e-15)


def test_w1_self_distance_zero(grid256):
    rng = np.random.default_rng(2)
    cfg = ParticleConfig(rng.random(10))
    assert w1_circle(cfg, cfg) == 0.0
    from conftest import smooth_density

    mu = smooth_density(grid256, rng)
    assert w1_circle(mu, mu) == 0.0


def test_w1_symmetry_and_triangle():
    rng = np.random.default_rng(13)
    a = ParticleConfig(rng.random(12))
    b = ParticleConfig(rng.random(12))
    c = ParticleConfig(rng.random(12))
    ab, ba = w1_circle(a, b), w1_circle(b, a)
    np.testing.assert_allclose(ab, ba, atol=1e-14)
    assert ab <= w1_circle(a, c) + w1_circle(c, b) + 1e-14


def test_w1_matches_linear_program():
    rng = np.random.default_rng(1)
    for _ in range(5):
        p, q = rng.random(4), rng.random(4)
        d = np.abs(p[:, None] - q[None, :])
        d = np.minimum(d, 1.0 - d)
        a_eq = np.zeros((8, 16))
        for i in range(4):
            a_eq[i, i * 4:(i + 1) * 4] = 1.0
            a_eq[4 + i, i::4] = 1.0
        lp = linprog(d.ravel(), A_eq=a_eq, b_eq=np.full(8, 0.25), bounds=(0, None))
        assert lp.status == 0
        np.testing.assert_allclose(
            w1_circle(ParticleConfig(p), ParticleConfig(q)), lp.fun, atol=1e-9
        )


@pytest.mark.parametrize("n_part", [4, 8, 32])
def test_w1_equispaced_vs_uniform(flat, n_part):
    # sawtooth CDF difference: min_c integral is exactly 1/(4N)
    w = w1_circle(ParticleConfig(np.arange(n_part) / n_part), flat)
    np.testing.assert_allclose(w, 1.0 / (4.0 * n_part), atol=1e-14)


def test_w1_uniform_vs_cosine_density(grid256, flat):
    x = grid256.axis_points()
    nu = RealField(grid256, 1.0 + 0.1 * np.cos(2 * np.pi * x))
    np.testing.assert_allclose(w1_circle(flat, nu), 0.1 / np.pi**2, atol=1e-5)


def test_w1_atom_vs_uniform(flat):
    np.testing.assert_allclose(
        w1_circle(ParticleConfig(np.array([0.37])), flat), 0.25, atol=1e-14
    )


def _midpoint_w1(cfg, mu, samples=1 << 20):
    """Reference W1 from the CDF gap sampled at midpoints: error <= 1/samples
    (each atom's jump of 1/N upsets at most one sample)."""
    t = (np.arange(samples) + 0.5) / samples
    f_x = np.searchsorted(np.sort(cfg.positions), t, side="right") / cfg.n
    n = mu.grid.n
    ext = np.append(mu.values, mu.values[0])
    node_cdf = np.concatenate([[0.0], np.cumsum((ext[:-1] + ext[1:]) / (2.0 * n))])
    j = np.minimum((t * n).astype(int), n - 1)
    xi = t - j / n
    f_mu = node_cdf[j] + ext[j] * xi + 0.5 * (ext[j + 1] - ext[j]) * n * xi**2
    gap = f_x - f_mu
    return float(np.mean(np.abs(gap - np.median(gap))))


@pytest.mark.parametrize("n_part", [1, 7, 200])
def test_w1_config_vs_density_matches_fine_midpoints(grid256, n_part):
    from conftest import smooth_density

    rng = np.random.default_rng(40 + n_part)
    mu = smooth_density(grid256, rng)
    cfg = ParticleConfig(rng.random(n_part))
    reference = _midpoint_w1(cfg, mu)
    assert abs(w1_circle(cfg, mu) - reference) <= 2.0**-20
    assert w1_circle(mu, cfg) == pytest.approx(w1_circle(cfg, mu), abs=1e-15)


# ---------------------------------------------------------------------------
# Monte-Carlo ensembles
# ---------------------------------------------------------------------------

def test_mc_uniform_energy_mean():
    # E[energy] over iid uniform configurations is exactly 1/(12N)
    stats = mc_uniform_stats(32, 300, np.random.default_rng(0))
    expected = 1.0 / (12.0 * 32)
    assert abs(stats["mean_energy"] - expected) <= 4.0 * stats["se_energy"]


def test_mc_w1_decays_with_n():
    rng = np.random.default_rng(1)
    s16 = mc_uniform_stats(16, 100, rng)
    s64 = mc_uniform_stats(64, 100, rng)
    assert s64["mean_w1_squared"] < s16["mean_w1_squared"]
    assert s16["mean_w1_squared"] > 0


@pytest.mark.parametrize("n_part", [8, 64, 512])
def test_mc_w1_is_circle_w1_to_flat(flat, n_part):
    # the ensemble's W1 is the exact circle W1 of each draw to mu = 1; at
    # N = 512 the 30 draws span four blocks
    stats = mc_uniform_stats(n_part, 30, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    w1s = [w1_circle(ParticleConfig(rng.random(n_part)), flat) for _ in range(30)]
    np.testing.assert_allclose(stats["mean_w1"], np.mean(w1s), rtol=1e-13)


@pytest.mark.parametrize("n_part", [8, 64, 512])
def test_block_draws_equal_per_configuration_draws(n_part):
    # one rng.random((rows, N)) call per block reads the stream that one
    # rng.random(N) call per configuration reads, and leaves it where they do
    n_configs = 2 * max(1, MC_BLOCK_ATOMS // n_part) + 3  # two full blocks and a part
    rng = np.random.default_rng(31)
    stats = mc_uniform_stats(n_part, n_configs, rng)
    one_by_one = np.random.default_rng(31)
    x = np.sort([one_by_one.random(n_part) for _ in range(n_configs)], axis=1)
    assert stats["mean_energy"] == float(_flat_energy(x).mean())
    assert stats["mean_w1"] == float(_w1_to_uniform(x).mean())
    assert rng.random() == one_by_one.random()


def w1_kernel_configs():
    """Hand-built sorted configurations for the uniform-W1 kernel."""
    rng = np.random.default_rng(17)
    yield "one-atom", np.array([0.37])
    yield "atom-at-0", np.sort(np.append(0.0, rng.random(6)))
    yield "duplicates", np.array([0.2, 0.2, 0.7, 0.7, 0.7])
    yield "all-coincident", np.full(4, 0.6)
    for n_part in (4, 8, 33):
        yield f"equispaced-{n_part}", (np.arange(n_part) + 0.5) / n_part
    for n_part in (2, 8, 64, 512):
        yield f"random-{n_part}", np.sort(rng.random(n_part))


@pytest.mark.parametrize("name, x", list(w1_kernel_configs()),
                         ids=[name for name, _ in w1_kernel_configs()])
def test_w1_to_uniform_is_circle_w1_to_flat(flat, name, x):
    # row by row, alone and inside a block of other rows
    want = w1_circle(ParticleConfig(x), flat)
    np.testing.assert_allclose(_w1_to_uniform(x[None])[0], want, rtol=1e-13)
    block = np.sort(np.random.default_rng(x.size).random((3, x.size)), axis=1)
    block[1] = x
    np.testing.assert_allclose(_w1_to_uniform(block)[1], want, rtol=1e-13)
    if name.startswith("equispaced"):
        # the sawtooth gap: exactly 1/(4N)
        np.testing.assert_allclose(want, 1.0 / (4.0 * x.size), rtol=1e-13)


def test_mc_deterministic_given_seed():
    a = mc_uniform_stats(8, 20, np.random.default_rng(123))
    b = mc_uniform_stats(8, 20, np.random.default_rng(123))
    assert a == b
