"""Microbenchmarks: public qnlab functions at fixed sizes, after a warm-up.

Each case is timed call by call. FFT cases also carry their flop count,
5 N log2 N per transform, and the bytes they move, computed from array
sizes as 32 N per complex128 transform (read + write) plus 48 N per
pointwise complex multiply (two reads, one write). Both are computed, not
measured.
"""
import math
import time

import numpy as np

from qnlab.config import build_config, load_config
from qnlab.euler import EulerState, euler_rhs, normalize_log_density
from qnlab.grid import (
    RealField,
    TorusGrid,
    gradient,
    h_minus1_norm,
    inverse_laplacian_zero_mean,
    laplacian,
    spectral_derivative,
)
from qnlab.initial_data import WellPreparedSpec, mollified_empirical, sample_iid, well_prepared
from qnlab.nbody import commutator_functional, renormalized_energy, w1_circle
from qnlab.poisson_boltzmann import solve_pb, solve_pb_empirical
from qnlab.schrodinger import density, step_strang

EPS = HBAR = 0.025
DT = 1e-4


def _profiles(grid, rho0_amp=0.5, u0_amp=0.1):
    coords = grid.coords()
    phase = sum(np.cos(2.0 * np.pi * c) for c in coords)
    rho0 = np.exp(rho0_amp * phase)
    rho0 /= rho0.mean()
    u0pot = u0_amp * sum(np.sin(2.0 * np.pi * c) for c in coords) / (2.0 * np.pi)
    return RealField(grid, rho0), RealField(grid, u0pot)


def _fft_cost(n_points, transforms, multiplies):
    flops = 5.0 * n_points * math.log2(n_points) * transforms
    return {"flops": flops, "bytes_computed": 32.0 * n_points * transforms
            + 48.0 * n_points * multiplies}


def cases(smoke: bool, config_path: str):
    """(name, callable, extras) triples; names keep the full-size labels in
    smoke mode, where every size shrinks."""
    n1, n2 = (64, 16) if smoke else (2048, 256)
    big_n, huge_n, iid_n = (64, 128, 1000) if smoke else (512, 4096, 100000)
    g1, g2 = TorusGrid(1, n1), TorusGrid(2, n2)
    rho1, u1 = _profiles(g1)
    rho2, u2 = _profiles(g2)
    # 2-D positivity of e^V0 - eps Lap V0 needs a smaller amplitude at eps = 0.025
    rho2_wp, u2_wp = _profiles(g2, rho0_amp=0.2)
    w1 = well_prepared(WellPreparedSpec(rho1, u1, EPS, HBAR))
    w2 = well_prepared(WellPreparedSpec(rho2_wp, u2_wp, EPS, HBAR))
    w1_next = step_strang(w1, DT)
    warm_hat = solve_pb(density(w1), EPS).hat.values
    cold_info, warm_info = [], []
    e1 = EulerState(normalize_log_density(RealField(g1, np.log(rho1.values))), list(gradient(u1)))
    e2 = EulerState(normalize_log_density(RealField(g2, np.log(rho2.values))), list(gradient(u2)))
    x_big = sample_iid(rho1, big_n, seed=1)
    x_huge = sample_iid(rho1, huge_n, seed=2)
    sin1 = RealField(g1, np.sin(2.0 * np.pi * g1.axis_points()))
    mean_free1 = RealField(g1, rho1.values - rho1.values.mean())
    raw_cfg = load_config(config_path)
    a1 = rho1.values
    a2 = rho2.values
    label1, label2 = "n2048", "n256x256"

    def solve_cold():
        cold_info.append(solve_pb(density(w1_next), EPS).info["iterations"])

    def solve_warm():
        warm_info.append(solve_pb(density(w1_next), EPS, hat0=warm_hat).info["iterations"])

    out = [
        (f"grid.fft_pair_floor_us.{label1}", lambda: np.fft.ifftn(np.fft.fftn(a1)),
         _fft_cost(g1.size, 2, 0)),
        (f"grid.fft_pair_floor_us.{label2}", lambda: np.fft.ifftn(np.fft.fftn(a2)),
         _fft_cost(g2.size, 2, 0)),
        (f"grid.spectral_derivative_us.{label1}", lambda: spectral_derivative(rho1, 0),
         _fft_cost(g1.size, 2, 1)),
        (f"grid.spectral_derivative_us.{label2}", lambda: spectral_derivative(rho2, 0),
         _fft_cost(g2.size, 2, 1)),
        (f"grid.laplacian_us.{label1}", lambda: laplacian(rho1), _fft_cost(g1.size, 2, 1)),
        (f"grid.laplacian_us.{label2}", lambda: laplacian(rho2), _fft_cost(g2.size, 2, 1)),
        (f"grid.inverse_laplacian_us.{label1}", lambda: inverse_laplacian_zero_mean(mean_free1),
         _fft_cost(g1.size, 2, 1)),
        (f"grid.h_minus1_norm_us.{label1}", lambda: h_minus1_norm(mean_free1),
         _fft_cost(g1.size, 1, 1)),
        (f"poisson_boltzmann.solve_cold_ms.{label1}", solve_cold,
         {"newton_iters": cold_info}),
        (f"poisson_boltzmann.solve_warm_ms.{label1}", solve_warm,
         {"newton_iters": warm_info}),
        ("poisson_boltzmann.solve_empirical_ms.N512", lambda: solve_pb_empirical(x_big, EPS, g1),
         {}),
        (f"schrodinger.step_strang_ms.{label1}", lambda: step_strang(w1, DT), {}),
        (f"schrodinger.step_strang_ms.{label2}", lambda: step_strang(w2, DT), {}),
        (f"euler.rhs_ms.{label1}", lambda: euler_rhs(e1), {}),
        (f"euler.rhs_ms.{label2}", lambda: euler_rhs(e2), {}),
        ("initial_data.sample_iid_ms.N100000", lambda: sample_iid(rho1, iid_n, seed=3), {}),
        ("initial_data.mollified_empirical_ms.N512",
         lambda: mollified_empirical(x_big, 0.05, g1), {}),
        ("nbody.renormalized_energy_ms.N512", lambda: renormalized_energy(x_big, rho1), {}),
        ("nbody.renormalized_energy_ms.N4096", lambda: renormalized_energy(x_huge, rho1), {}),
        ("nbody.commutator_ms.N512", lambda: commutator_functional(x_big, rho1, sin1), {}),
        ("nbody.w1_circle_ms.density_N512", lambda: w1_circle(x_big, rho1), {}),
        ("config.build_ms", lambda: build_config(raw_cfg, "quasineutral_sweep"), {}),
    ]
    return out


def time_case(fn, budget_s: float, min_samples: int, max_samples: int = 5000) -> list:
    """Per-call wall times in seconds: one warm-up call, then calls until the
    budget is spent, bounded below by min_samples."""
    fn()
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < max_samples:
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
        if len(samples) >= min_samples and time.perf_counter() >= deadline:
            break
    return samples
