"""The Euler reference of a sweep and of the euler_run kind: integrated on
the coarsest grid that resolves the flow to BAND_SHARE_BOUND, from FLOOR_N
nodes per axis up (256 in 1-D, 32^2 in 2-D), at the coarsest multiple of dt
whose estimated RK4 error is at most TIME_ERROR_BOUND; on the n grid at dt
where no coarser grid resolves it. Its samples stay on the grid they were
integrated on, and _padded zero-pads them to a finer one. A guard trip or an
unstable step is reported as the n grid's."""
import json

import numpy as np
import pytest
from conftest import data_config, zero_padded

from qnlab import experiments, spectral
from qnlab.cli import main
from qnlab.errors import BlowupGuardTripped, StepTooLarge
from qnlab.euler import GRAD_U_GUARD, EulerState, euler_constants, run_euler
from qnlab.grid import RealField, TorusGrid, integrate

# AC-1 data: (n, rho0_amp, u0_amp, T, dt, sample_every)
AC1 = (2048, 0.5, 0.1, 0.2, 1e-4, 200)


def cos_run(n, rho0_amp, u0_amp, big_t, dt, sample_every, dim=1):
    """The standard data's samples on the dim-D n grid at step dt."""
    e0 = experiments._euler_state(data_config(rho0_amp, u0_amp), TorusGrid(dim, n))
    return run_euler(e0, big_t, dt, sample_every=sample_every)


def reference(dim, n, rho0_amp, u0_amp, big_t, dt, sample_every):
    """_euler_reference from the standard data on the dim-D n grid, its
    samples, which stay on the grid n_e they were integrated on, zero-padded
    to n by _padded."""
    cfg = data_config(rho0_amp, u0_amp, grid_dim=dim, grid_n=n, big_t=big_t, dt=dt,
                      sample_every=sample_every)
    e0 = experiments._euler_state(cfg, TorusGrid(dim, n))
    samples, gronwall, resolution = experiments._euler_reference(cfg, e0)
    assert all(s.grid == TorusGrid(dim, resolution["n"]) for s in samples)
    return [experiments._padded(s, e0.grid) for s in samples], gronwall, resolution


@pytest.fixture
def grids(monkeypatch):
    """(grid size, step) of every run_euler call the experiments module makes."""
    calls = []

    def recorded(s0, big_t, dt, **kwargs):
        calls.append((s0.grid.n, dt))
        return run_euler(s0, big_t, dt, **kwargs)

    monkeypatch.setattr(experiments, "run_euler", recorded)
    return calls


@pytest.fixture
def coarsest(monkeypatch):
    """The (n_e, (samples, h), share) that each _coarsest_run call returns."""
    runs = []
    computed = experiments._coarsest_run

    def recorded(*args):
        runs.append(computed(*args))
        return runs[-1]

    monkeypatch.setattr(experiments, "_coarsest_run", recorded)
    return runs


def max_state_error(samples, ref) -> float:
    assert [s.time for s in samples] == [r.time for r in ref]
    return max(float(np.max(np.abs(a.values - b.values)))
               for s, r in zip(samples, ref)
               for a, b in zip((s.log_rho, *s.u), (r.log_rho, *r.u)))


def test_coarse_reference_matches_the_n_grid_on_ac1_data(grids, coarsest):
    samples, gronwall, resolution = reference(1, *AC1)
    # probes m = 10 and 8 (the largest divisors of 200 with m dt lambda <= 1)
    # estimate C; m = 2 is the largest with C m^4 <= 1e-12: 1450 RK4 steps
    assert grids == [(256, 1e-3), (256, 8e-4), (256, 2e-4)]
    assert resolution["n"] == 256
    assert resolution["dt"] == 2e-4
    assert resolution["top_band_share"] <= experiments.BAND_SHARE_BOUND
    assert all(s.grid.n == 2048 for s in samples)
    ref = cos_run(*AC1)
    assert max_state_error(samples, ref) <= 1e-12
    # the constants of the run on 256 nodes, read on 2048
    [(_, (coarse, _), _)] = coarsest
    assert gronwall == euler_constants(coarse, TorusGrid(1, 2048))


# A reference integrated on n_e < n nodes reports the Gronwall constants of
# its interpolant on n: the Parseval norms off one right-hand side on m = 2 n_e
# nodes per axis, sup |d_j u_i| over the n nodes from u's zero-padded
# coefficients P. In exact arithmetic these are euler_constants of the padded
# samples. The norms agree to 1e-14 relative. The padded samples' route
# differentiates rfft(irfft(P)) where the coarse route differentiates P, so
# sup_grad_u moves by roundoff, bounded by c u k_max sup|u|: u the unit
# roundoff, k_max = pi n the largest |2 pi k_j| on n, c = 8 log2 N for
# N = n^dim nodes. Derivation, in the usual model of FFT roundoff as
# uncorrelated errors of relative rms at most 2u per radix-2 stage, so at most
# 2u sqrt(L) for a transform of L = log2 N stages; in normalized coefficients
# (values = sum_k c_k exp(2 pi i k.x)) an l2 error is an rms error of the values:
# - each of the two extra transforms errs by at most 2u sqrt(L) rms(u_i), so
#   together they move P by at most 2 sqrt(2) u sqrt(L) sup|u|, and i k_j
#   scales that by at most k_max;
# - the last inverse transform of each route errs by at most
#   2u sqrt(L) rms(d_j u_i) <= 2u sqrt(L) k_max sup|u| (Bernstein), the two
#   routes together by sqrt(2) times that;
# - so the two d_j u_i differ by an rms of at most
#   4 sqrt(2) u sqrt(L) k_max sup|u|, and a max over N nodes of such errors
#   stays below sqrt(2 ln N) = 1.18 sqrt(L) times their rms: c = 6.7 L,
#   rounded up to 8 L.
# The cases below move sup_grad_u by at most 1.2 u k_max sup|u|.
PARSEVAL_NORMS = ("log_rho_h1", "dt_log_rho_h1", "log_rho_w1inf_h1", "sup_grad_advection")


def assert_constants_of_the_interpolant(coarse, padded, grid):
    """euler_constants of the coarse trajectory on `grid` against those of its
    samples zero-padded to `grid`, within the bounds above."""
    got, want = euler_constants(coarse, grid), euler_constants(padded)
    for name in PARSEVAL_NORMS:
        assert abs(got[name] - want[name]) <= 1e-14 * want[name], name
    sup_u = max(float(np.max(np.abs(c.values))) for s in padded for c in s.u)
    roundoff = 8 * np.log2(grid.size) * np.finfo(float).eps / 2
    assert abs(got["sup_grad_u"] - want["sup_grad_u"]) <= roundoff * np.pi * grid.n * sup_u


@pytest.mark.parametrize("dim, args", [(1, AC1), (2, (256, 0.5, 0.1, 0.002, 1e-4, 10))],
                         ids=["ac1-n2048", "2d-n256"])
def test_coarse_constants_are_those_of_the_padded_samples(coarsest, dim, args):
    # integrated on 256 nodes and on 32^2
    samples, _, resolution = reference(dim, *args)
    assert resolution["n"] == args[0] // 8
    [(_, (coarse, _), _)] = coarsest
    assert_constants_of_the_interpolant(coarse, samples, TorusGrid(dim, args[0]))


def band_limited(grid, rng, band):
    """Real values on `grid`, sup 0.3, with random coefficients on the modes
    |k_axis| <= band."""
    k = np.abs(np.fft.fftfreq(grid.n, 1.0 / grid.n)) <= band
    mask = k if grid.dim == 1 else np.logical_and.outer(k, k)
    vals = np.fft.ifftn(np.fft.fftn(rng.standard_normal(grid.shape)) * mask).real
    return 0.3 * vals / np.max(np.abs(vals))


@pytest.mark.parametrize("case", ["top-band", "nyquist"])
@pytest.mark.parametrize("dim, n_e, n", [(1, 256, 2048), (2, 32, 256)], ids=["1d", "2d"])
def test_coarse_constants_of_data_that_fill_the_band(dim, n_e, n, case):
    # the runs above hold roundoff in their top band and at their Nyquist
    # modes, so neither products on n_e nor an unsplit Nyquist line would show
    # there. Here the fields fill |k| <= n_e/3, or log rho holds Nyquist lines
    # and both fields fill |k| <= n_e/6: every product stays inside the 2/3
    # rule on 2 n_e, so the interpolant's constants are exact there, while
    # the coarse grid's own constants are not theirs
    coarse, fine = TorusGrid(dim, n_e), TorusGrid(dim, n)
    rng = np.random.default_rng(7)
    band = n_e // 3 if case == "top-band" else n_e // 6
    log_rho = band_limited(coarse, rng, band)
    if case == "nyquist":
        x = coarse.coords()
        for axis in range(dim):
            across = np.cos(2 * np.pi * x[1 - axis]) if dim == 2 else 1.0
            log_rho = log_rho + 0.2 * (-1.0) ** np.rint(n_e * x[axis]) * across
    u = [band_limited(coarse, rng, band) for _ in range(dim)]

    def state(grid, fields):
        return EulerState(RealField(grid, fields[0]), [RealField(grid, c) for c in fields[1:]])

    on_coarse = state(coarse, (log_rho, *u))
    padded = state(fine, [zero_padded(f, fine.shape) for f in (log_rho, *u)])
    assert_constants_of_the_interpolant([on_coarse], [padded], fine)
    # the coarse grid's own constants are not the interpolant's: these data
    # need the products on 2 n_e and the split Nyquist lines
    own = euler_constants([on_coarse])
    name = "dt_log_rho_h1" if case == "top-band" else "log_rho_h1"
    assert abs(own[name] - euler_constants([padded])[name]) > 1e-3 * own[name]


@pytest.mark.parametrize("dim, args", [(1, (2048, 0.5, 0.1, 0.02, 1e-4, 20)),
                                       (2, (256, 0.5, 0.1, 0.0006, 1e-4, 3))],
                         ids=["1d-n2048", "2d-n256"])
def test_coarse_samples_reach_n_by_inverse_transforms_only(transforms, monkeypatch, dim, args):
    # after the coarse run nothing is transformed forward on n: each sample's
    # 1 + dim fields and its dim^2 derivatives d_j u_i are inverse transforms
    # of zero-padded coarse coefficients
    transforms.paused = True
    computed = experiments._coarsest_run

    def then_count(*args):
        result = computed(*args)
        transforms.paused = False
        return result

    monkeypatch.setattr(experiments, "_coarsest_run", then_count)
    samples, _, resolution = reference(dim, *args)
    assert resolution["n"] < args[0]
    shape = (args[0],) * dim
    assert transforms.by_shape["rfft", shape] == 0
    assert transforms.by_shape["irfft", shape] == len(samples) * (1 + dim + dim**2)


def test_benchmark_point_steps_at_the_probe(grids):
    # the perfbench sweep point: probes m = 10 and 5, and m = 5 meets the
    # bound, so its run is the reference: 20 + 40 RK4 steps instead of 200
    args = (2048, 0.5, 0.1, 0.02, 1e-4, 20)
    samples, _, resolution = reference(1, *args)
    assert grids == [(256, 1e-3), (256, 5e-4)]
    assert (resolution["n"], resolution["dt"]) == (256, 5e-4)
    assert max_state_error(samples, cos_run(*args)) <= experiments.TIME_ERROR_BOUND


def test_unresolved_floor_doubles_once(grids):
    # close enough to the shock that 256 nodes leave the top band at 1e-9;
    # the rule runs again on 512 nodes, where m = 2 is its only probe
    args = (1024, 0.5, 1.0, 0.1, 1e-4, 250)
    samples, _, resolution = reference(1, *args)
    assert grids == [(256, 5e-4), (256, 2e-4), (256, 1e-4), (512, 1e-4)]
    assert (resolution["n"], resolution["dt"]) == (512, 1e-4)
    assert max_state_error(samples, cos_run(*args)) <= 1e-12


@pytest.mark.parametrize("args, calls", [
    ((64, 0.5, 0.1, 0.02, 1e-3, 5), [(64, 1e-3)]),     # the floor is the grid itself
    # no grid below 512 resolves the steepened flow
    ((512, 0.5, 1.0, 0.14, 2e-4, 350), [(256, 2e-4), (512, 2e-4)]),
], ids=["1d-n64", "steep-n512"])
def test_fallback_is_the_n_grid_reference_bit_for_bit(grids, args, calls):
    samples, gronwall, resolution = reference(1, *args)
    assert grids == calls
    assert (resolution["n"], resolution["dt"]) == args[0:1] + args[4:5]
    ref = cos_run(*args)
    assert max_state_error(samples, ref) == 0.0
    assert gronwall == euler_constants(ref)


def test_failed_model_check_falls_back_to_dt_bit_for_bit(grids, monkeypatch):
    # probes m = 10 and 5 choose m = 2; a chosen run that sits 1e-9 off the
    # C h^4 model fails the check, and the reference is the floor grid at dt
    args = (512, 0.5, 0.5, 0.02, 1e-4, 100)
    recorded = experiments.run_euler

    def off_model(s0, big_t, dt, **kwargs):
        samples = recorded(s0, big_t, dt, **kwargs)
        if dt != 2e-4:
            return samples
        return [EulerState(s.log_rho, [RealField(c.grid, c.values * (1.0 + 1e-9)) for c in s.u],
                           s.time) for s in samples]

    monkeypatch.setattr(experiments, "run_euler", off_model)
    samples, _, resolution = reference(1, *args)
    assert grids == [(256, 1e-3), (256, 5e-4), (256, 2e-4), (256, 1e-4)]
    assert (resolution["n"], resolution["dt"]) == (256, 1e-4)
    grid = TorusGrid(1, 512)

    def pad(f):
        return RealField(grid, spectral.resample(f.values, grid.shape))

    floor = [EulerState(pad(s.log_rho), [pad(c) for c in s.u], s.time)
             for s in cos_run(256, *args[1:])]
    assert max_state_error(samples, floor) == 0.0


def test_guard_trip_on_a_coarse_grid_is_decided_on_the_n_grid(grids):
    # the steepening flow trips the guard at t = 0.0767 on 256 nodes and at
    # t = 0.0766 on 1024; the first probe (m = 5) trips it, and the error
    # reports the (n, dt) run's trip, as without the floor and the probes
    args = (1024, 0.5, 2.0, 0.2, 1e-4, 200)
    with pytest.raises(BlowupGuardTripped) as fine:
        cos_run(*args)
    grids.clear()
    with pytest.raises(BlowupGuardTripped) as caught:
        reference(1, *args)
    assert grids == [(256, 5e-4), (1024, 1e-4)]
    assert str(caught.value) == str(fine.value)
    assert (caught.value.time, caught.value.value) == (fine.value.time, fine.value.value)
    assert caught.value.step == fine.value.step == 766


def test_unstable_step_on_the_floor_hands_over_to_the_n_grid(grids, monkeypatch):
    # dt max_rate = 2.95 on 256 nodes leaves no probe, and the dt run is past
    # RK4's bound; the error is the (n, dt) run's, with its larger rate
    args = (2048, 0.5, 0.1, 0.05, 5e-3, 5)
    with pytest.raises(StepTooLarge) as fine:
        cos_run(*args)
    grids.clear()
    # the n grid's first-step check refuses the step before any grid runs
    with pytest.raises(StepTooLarge) as caught:
        reference(1, *args)
    assert grids == []
    assert str(caught.value) == str(fine.value)
    assert caught.value.value == fine.value.value > 20
    # and past that check, the grid rule hands the floor's failure to n
    monkeypatch.setattr(experiments, "check_first_step", lambda e0, dt: None)
    with pytest.raises(StepTooLarge) as caught:
        reference(1, *args)
    assert grids == [(256, 5e-3), (2048, 5e-3)]
    assert str(caught.value) == str(fine.value)
    assert caught.value.value == fine.value.value > 20


# (dim, n, rho0_amp, u0_amp, T, dt, sample_every) of an euler_run kind, and
# the (n_e, h) it is integrated with; the 2-D one is perfbench's euler_2d,
# which its 32^2 floor resolves
KINDS = [((1, 2048, 0.5, 0.1, 0.01, 1e-4, 20), (256, 5e-4)),
         ((2, 256, 0.5, 0.1, 0.0006, 1e-4, 3), (32, 1e-4))]
# the derivatives each euler value reads off the states (0: the mass)
DERIVATIVES = {"sup_grad_u": 1, "log_rho_h1": 1, "dt_log_rho_h1": 2, "log_rho_w1inf_h1": 2,
               "sup_grad_advection": 2, "mass_defect_max": 0}


@pytest.mark.parametrize("args, resolution", KINDS, ids=["1d-n2048", "2d-n256"])
def test_euler_run_kind_integrates_on_the_coarsest_grid_that_resolves_it(
        tmp_path, monkeypatch, args, resolution):
    dim, n, rho0_amp, u0_amp, big_t, dt, sample_every = args
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"kind = euler_run\ngrid.dim = {dim}\ngrid.n = {n}\nphysics.T = {big_t}\n"
                   f"physics.dt = {dt}\ninitial.rho0_amp = {rho0_amp}\n"
                   f"initial.u0_amp = {u0_amp}\nruntime.sample_every = {sample_every}\n")
    references = []
    computed = experiments._euler_reference

    def kept(*args):
        references.append(computed(*args))
        return references[-1]

    monkeypatch.setattr(experiments, "_euler_reference", kept)
    out = tmp_path / "out"
    assert main(["euler_run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    recorded = summary["euler_reference"]
    assert (recorded["n"], recorded["dt"]) == resolution
    assert recorded["top_band_share"] <= experiments.BAND_SHARE_BOUND
    [(samples, _, _)] = references
    assert all(s.grid == TorusGrid(dim, resolution[0]) for s in samples)
    samples = [experiments._padded(s, TorusGrid(dim, n)) for s in samples]
    ref = cos_run(n, rho0_amp, u0_amp, big_t, dt, sample_every, dim)
    gap = max_state_error(samples, ref)
    assert gap <= 1e-12
    want = {**euler_constants(ref),
            "mass_defect_max": max(abs(float(integrate(s.rho())) - 1.0) for s in ref)}
    # Bernstein's inequality on the n grid's modes: a derivative of the state
    # gap is at most k_max = sqrt(dim) pi n times the gap, so sup_grad_u may
    # move by k_max times it; a product or exponential of the states
    # multiplies that by at most 2 (1 + their sup)
    k_max = np.sqrt(dim) * np.pi * n
    scale = 2.0 * (1.0 + max(float(np.max(np.abs(f.values))) for s in ref
                             for f in (s.log_rho, s.rho(), *s.u)))
    got = summary["euler"]
    assert set(got) == set(DERIVATIVES)
    for name, order in DERIVATIVES.items():
        assert abs(got[name] - want[name]) <= scale * k_max**order * gap, name


def test_2d_top_band_share_is_the_full_spectrum_shell_share():
    # the shell n/6 < max(|k_x|, |k_y|) <= n/3, summed over the full spectrum
    n = 32
    k = np.abs(np.fft.fftfreq(n, 1.0 / n))
    shell = np.maximum.outer(k, k)
    band = (shell > n / 6) & (shell <= n / 3)
    rng = np.random.default_rng(5)
    fields = [rng.standard_normal((n, n)),
              rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
              np.cos(2 * np.pi * np.arange(n) / n)[:, None] * np.ones(n)]
    shares = []
    for f in fields:
        power = np.abs(np.fft.fft2(f)) ** 2
        shares.append(float(np.sqrt(power[band].sum() / power.sum())))
        assert experiments._top_band_share([f]) == pytest.approx(shares[-1], rel=1e-13)
    assert shares[-1] < 1e-15
    assert experiments._top_band_share(fields) == pytest.approx(max(shares), rel=1e-13)


def test_euler_reference_in_2d_matches_the_n_grid_run(grids, coarsest):
    # the 32^2 floor probes m = 10 and 5, and m = 5 meets the time bound
    args = (256, 0.5, 0.1, 0.002, 1e-4, 10)
    samples, gronwall, resolution = reference(2, *args)
    assert grids == [(32, 1e-3), (32, 5e-4)]
    assert (resolution["n"], resolution["dt"]) == (32, 5e-4)
    assert all(s.grid == TorusGrid(2, 256) for s in samples)
    assert max_state_error(samples, cos_run(*args, dim=2)) <= 1e-12
    [(_, (coarse, _), _)] = coarsest
    assert gronwall == euler_constants(coarse, TorusGrid(2, 256))


def test_2d_fallback_is_the_n_grid_reference_bit_for_bit(grids):
    # on 32^2 the probes m = 10 and 5 leave no m > 1 within the time bound,
    # and the run at dt leaves 3e-8 of the steepening flow in its top band;
    # the reference is the 64^2 run at dt
    args = (64, 0.5, 0.3, 0.02, 5e-4, 10)
    samples, gronwall, resolution = reference(2, *args)
    assert grids == [(32, 5e-3), (32, 2.5e-3), (32, 5e-4), (64, 5e-4)]
    assert (resolution["n"], resolution["dt"]) == (64, 5e-4)
    ref = cos_run(*args, dim=2)
    assert max_state_error(samples, ref) == 0.0
    assert gronwall == euler_constants(ref)


def test_2d_run_at_the_floor_integrates_only_on_n(grids):
    # the euler_2d data on 32^2: no grid is coarser than the floor
    args = (32, 0.5, 0.1, 0.0006, 1e-4, 3)
    samples, gronwall, resolution = reference(2, *args)
    assert grids == [(32, 1e-4)]
    assert (resolution["n"], resolution["dt"]) == (32, 1e-4)
    ref = cos_run(*args, dim=2)
    assert max_state_error(samples, ref) == 0.0
    assert gronwall == euler_constants(ref)


def test_2d_guard_trip_on_a_coarse_grid_is_decided_on_the_n_grid(grids):
    # on the 32^2 floor the first probe (m = 5) trips the guard, and the
    # error is the 64^2 run's at dt
    args = (64, 0.5, 2.0, 0.2, 5e-4, 40)
    with pytest.raises(BlowupGuardTripped) as fine:
        cos_run(*args, dim=2)
    grids.clear()
    with pytest.raises(BlowupGuardTripped) as caught:
        reference(2, *args)
    assert grids == [(32, 2.5e-3), (64, 5e-4)]
    assert str(caught.value) == str(fine.value)
    assert (caught.value.time, caught.value.value) == (fine.value.time, fine.value.value)
    assert caught.value.step == fine.value.step == 164


def test_failed_reference_is_computed_once_per_sweep(grids, tmp_path):
    # the steepening flow trips the guard after 86 steps; the sweep computes
    # its reference once, before any point, so the three points share one
    # run_euler call and one error, serially and on a pool
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("kind = quasineutral_sweep\ngrid.n = 256\nphysics.T = 0.2\n"
                   "physics.dt = 1e-3\nphysics.eps = 0.1, 0.05, 0.025\n"
                   "physics.hbar = 0.1, 0.05, 0.025\ninitial.u0_amp = 2\n")
    out = tmp_path / "out"
    assert main(["quasineutral_sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert grids == [(256, 1e-3)]
    records = json.loads((out / "errors.json").read_text())
    assert [(r["eps"], r["hbar"]) for r in records] == [(0.1, 0.1), (0.05, 0.05), (0.025, 0.025)]
    first = {k: v for k, v in records[0].items() if k not in ("eps", "hbar")}
    assert first["stage"] == "euler"
    assert first["type"] == "BlowupGuardTripped"
    assert first["message"].endswith("at t = 0.0860")
    assert first["step"] == 86
    for record in records[1:]:
        assert {k: v for k, v in record.items() if k not in ("eps", "hbar")} == first
    pooled = tmp_path / "pooled"
    assert main(["quasineutral_sweep", "--config", str(cfg), "--jobs", "2",
                 "--out", str(pooled)]) == 1
    assert grids == [(256, 1e-3)] * 2
    for name in ("errors.json", "summary.json"):
        assert (pooled / name).read_bytes() == (out / name).read_bytes(), name


def test_sweep_reference_refuses_the_step_euler_run_refuses(grids, tmp_path, capsys,
                                                           monkeypatch):
    # dt max_rate = 4.7 on 2048 nodes, 0.59 on 256: the sweep's reference
    # applies the n grid's first-step check, as euler_run does, so every
    # point reports euler_run's record, no Euler grid is integrated, and the
    # point raises it before its Schrodinger stage runs
    runs = []
    monkeypatch.setattr(experiments, "run", lambda *args, **kwargs: runs.append(args))
    body = "grid.n = 2048\nphysics.T = 0.02\nphysics.dt = 1e-3\nruntime.sample_every = 10\n"
    records = []
    for kind, extra in (("euler_run", ""), ("quasineutral_sweep",
                                            "physics.eps = 0.01\nphysics.hbar = 0.01\n")):
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(f"kind = {kind}\n{body}{extra}")
        assert main([kind, "--config", str(cfg), "--out", str(tmp_path / kind)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        records.append(json.loads(line))
    assert grids == []
    assert runs == []
    euler, sweep = records
    assert {k: euler[k] for k in ("stage", "type", "time", "step", "value")} == {
        "stage": "euler", "type": "StepTooLarge", "time": 0.0, "step": 0,
        "value": 4.718253286671452}
    assert sweep == {**euler, "eps": 0.01, "hbar": 0.01}


# The simple wave, an exact nonlinear flow. Data with rho0_amp = u0_amp = a
# keep the Riemann invariant u - log rho at -log I0(a) everywhere, so
# u + log rho = 2u + log I0(a) is carried at speed u + 1 and steepens into a
# shock at T* = 1/(2 pi a)
SIMPLE_WAVE_AMP = 0.5


def simple_wave(a, x, t):
    """(log rho, u) of the exact simple wave of amplitude a at time
    t < 1/(2 pi a) and the points x: u = a cos 2 pi xi and log rho =
    u - log I0(a), where xi solves x = xi + (1 + a cos 2 pi xi) t. That map
    is increasing for t < 1/(2 pi a), and its root lies in
    [x - (1 + a) t, x - (1 - a) t]: bisection to roundoff."""
    lo, hi = x - (1.0 + a) * t, x - (1.0 - a) * t
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        past = mid + (1.0 + a * np.cos(2 * np.pi * mid)) * t > x
        lo, hi = np.where(past, lo, mid), np.where(past, mid, hi)
    u = a * np.cos(np.pi * (lo + hi))
    return u - np.log(np.i0(a)), u


def simple_wave_error(s: EulerState, a: float) -> float:
    """Max-abs error in log rho and u of the 1-D state s against the exact
    simple wave of amplitude a at its time."""
    log_rho, u = simple_wave(a, s.grid.axis_points(), s.time)
    return max(float(np.max(np.abs(s.log_rho.values - log_rho))),
               float(np.max(np.abs(s.u[0].values - u))))


def test_run_euler_follows_the_exact_simple_wave():
    # at a = 0.5, T* = 1/pi = 0.318. On 2048 nodes RK4's error dominates:
    # at dt = 1e-4 the max over log rho and u was 2.4e-11 at T = 0.25 and
    # 8.0e-10 at T = 0.28, and at dt = 5e-5 5.0e-11 at T = 0.28 (16x: fourth
    # order). The bounds are C(T) dt^4 with C twice those measured at dt = 1e-4
    a, dt = SIMPLE_WAVE_AMP, 1e-4
    samples = cos_run(2048, a, a, 0.28, dt, 2500)
    bounds = [1e-12, 5e5 * dt**4, 1.6e7 * dt**4]
    assert [s.time for s in samples] == pytest.approx([0.0, 0.25, 0.28], abs=1e-12)
    for s, bound in zip(samples, bounds, strict=True):
        err = simple_wave_error(s, a)
        assert err <= bound, (s.time, err)


@pytest.mark.parametrize("n, a, big_t, sample_every, h, bound", [
    (2048, 0.1, 0.02, 20, 5e-4, 1e-13), (512, SIMPLE_WAVE_AMP, 0.05, 100, 2e-4, 5e-13)])
def test_coarse_step_reference_meets_its_time_error_bound(n, a, big_t, sample_every, h, bound):
    # the grid rule runs each on 256 nodes at h = m dt, m = 5 and 2, claiming
    # an error of at most TIME_ERROR_BOUND = 1e-12 at the samples; against
    # the exact wave it was 3.9e-14 and 2.1e-13, and each bound is about 2.5x
    # that
    samples, _, resolution = reference(1, n, a, a, big_t, 1e-4, sample_every)
    assert (resolution["n"], resolution["dt"]) == (256, pytest.approx(h, rel=1e-12))
    assert bound < experiments.TIME_ERROR_BOUND
    assert max(simple_wave_error(s, a) for s in samples) <= bound


@pytest.fixture(scope="module")
def steep_reference():
    """_euler_reference of the simple wave at a = 0.5 on 512 nodes to
    T = 0.2, where no coarser grid resolves it."""
    return reference(1, 512, SIMPLE_WAVE_AMP, SIMPLE_WAVE_AMP, 0.2, 1e-4, 500)


def test_unresolved_reference_runs_on_n_at_dt(steep_reference):
    # the fallback is run_euler on n at dt: 9.1e-13 from the exact wave, and
    # the bound is about twice that
    samples, _, resolution = steep_reference
    assert (resolution["n"], resolution["dt"]) == (512, 1e-4)
    assert resolution["top_band_share"] > experiments.BAND_SHARE_BOUND
    assert max(simple_wave_error(s, SIMPLE_WAVE_AMP) for s in samples) <= 2e-12


def test_reference_sup_grad_u_meets_the_steepening_law(steep_reference):
    # along characteristics sup |u_x|(t) = 2 pi a/(1 - 2 pi a t), 8.45238 at
    # T = 0.2; the constants take the sup over the n nodes, which miss the
    # peak by O(h^2): the relative undershoot was 61.5/n^2 at n = 512 and at
    # n = 2048
    a, big_t, n = SIMPLE_WAVE_AMP, 0.2, 512
    law = 2 * np.pi * a / (1 - 2 * np.pi * a * big_t)
    gronwall = steep_reference[1]
    assert 0.0 < (law - gronwall["sup_grad_u"]) / law <= 64.0 / n**2


def test_blowup_guard_trips_where_the_steepening_law_crosses_it():
    # sup |u_x| = 2 pi a/(1 - 2 pi a t) crosses GRAD_U_GUARD = 50 at
    # t = 0.29831. The guard reads the state before each step, so it trips
    # at step ceil(t/dt) = 2984, at 50.211, which the nodes' sup keeps
    # below the law's 50.233 there
    a, dt = SIMPLE_WAVE_AMP, 1e-4
    crossing = (1 - 2 * np.pi * a / GRAD_U_GUARD) / (2 * np.pi * a)
    with pytest.raises(BlowupGuardTripped) as trip:
        cos_run(2048, a, a, 0.3, dt, 3000)
    step, t = trip.value.step, trip.value.time
    assert step == int(np.ceil(crossing / dt)) == 2984
    assert t == pytest.approx(step * dt, abs=1e-12)
    assert GRAD_U_GUARD < trip.value.value <= 2 * np.pi * a / (1 - 2 * np.pi * a * t)
