import math

import numpy as np
import pytest

import squidsim as sq
from squidsim import BathParams, CODATA2018, ParameterError, StepSizeError
from conftest import moments


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_bath_occupation_limits(standard_scales):
    assert sq.bath_occupation(
        BathParams(temperature=0.0, damping=0.1).resolved(standard_scales)) == 0.0
    m = sq.bath_occupation(
        BathParams(temperature=1.0, damping=0.1).resolved(standard_scales))
    # independent hand evaluation of 1/(exp(hbar omega / kB T) - 1)
    assert m == pytest.approx(1.9603e-3, rel=1e-3)


def test_bath_occupation_ln2_point():
    omega_b = 5.0e11
    temp = CODATA2018.hbar * omega_b / (CODATA2018.boltzmann * math.log(2.0))
    m = sq.bath_occupation(BathParams(temperature=temp, damping=0.0,
                                      frequency=omega_b))
    assert m == pytest.approx(1.0, rel=1e-12)


def test_bath_validation():
    with pytest.raises(ParameterError):
        BathParams(temperature=-1.0, damping=0.1)
    with pytest.raises(ParameterError):
        BathParams(temperature=1.0, damping=-0.1)
    for bad in (math.nan, 0.0, -1e11):
        with pytest.raises(ParameterError):
            BathParams(temperature=1.0, damping=0.1, frequency=bad)
    with pytest.raises(ParameterError):
        BathParams(temperature=math.nan, damping=0.1)
    with pytest.raises(ParameterError):
        sq.bath_occupation(BathParams(temperature=1.0, damping=0.1))


def test_generator_vanishes_on_eigenstate_projector():
    ring = sq.standard_ring(0.3)
    scales = sq.derive_scales(ring)
    h = sq.build_fock_hamiltonian(ring, scales, 80)
    res = sq.eigensolve(h, 3)
    v = res.eigenvectors[:, 1].astype(complex)
    rho = np.outer(v, v.conj())
    bath = BathParams(temperature=1.0, damping=0.0).resolved(scales)
    out = sq.lindblad_generator(rho, h, sq.annihilation(80), bath)
    assert np.max(np.abs(out)) < 1e-10


def test_generator_trace_and_hermiticity():
    dim = 30
    rho = random_density(dim, 5)
    h = np.diag(np.arange(dim) + 0.5)
    bath = BathParams(temperature=1.0, damping=0.08, frequency=8.165e11)
    out = sq.lindblad_generator(rho, h, sq.annihilation(dim), bath)
    assert abs(np.trace(out)) < 1e-10
    assert sq.hermiticity_defect(out) < 1e-10


def test_generator_dimension_mismatch():
    bath = BathParams(temperature=1.0, damping=0.1, frequency=1e11)
    with pytest.raises(ParameterError):
        sq.lindblad_generator(np.eye(4) / 4.0, np.eye(5), sq.annihilation(5),
                              bath)


def test_amplitude_damping_rate_of_fock1():
    dim = 12
    rho = np.zeros((dim, dim), dtype=complex)
    rho[1, 1] = 1.0
    g = 0.37
    bath = BathParams(temperature=0.0, damping=g, frequency=1e11)
    out = sq.lindblad_generator(rho, np.zeros((dim, dim)),
                                sq.annihilation(dim), bath)
    n_op = np.diag(np.arange(dim, dtype=float))
    dn = np.trace(n_op @ out).real
    assert dn == pytest.approx(-g, abs=1e-12)


def test_occupation_relaxation_identity():
    # d<n>/dtau = -g (<n> - M) for any rho when H commutes with n; the
    # identity belongs to the untruncated algebra, so keep the random state
    # clear of the truncation edge
    dim, occupied = 25, 15
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:occupied, :occupied] = random_density(occupied, 9)
    g = 0.12
    bath = BathParams(temperature=1.3, damping=g, frequency=7.0e11)
    m_occ = sq.bath_occupation(bath)
    out = sq.lindblad_generator(rho, np.zeros((dim, dim)),
                                sq.annihilation(dim), bath)
    n_op = np.diag(np.arange(dim, dtype=float))
    dn = np.trace(n_op @ out).real
    n_mean = np.trace(n_op @ rho).real
    assert dn == pytest.approx(-g * (n_mean - m_occ), rel=1e-10, abs=1e-12)


def test_propagator_matches_reference_generator():
    # one RK4 step of the ladder-structured fast path against the plain
    # matrix-product generator
    dim = 40
    ring = sq.standard_ring(0.25)
    scales = sq.derive_scales(ring)
    h = sq.build_fock_hamiltonian(ring, scales, dim).astype(complex)
    rho = random_density(dim, 21)
    bath = BathParams(temperature=1.0, damping=0.05).resolved(scales)
    a = sq.annihilation(dim)
    dtau = 1e-3

    def rk4_reference(r):
        k1 = sq.lindblad_generator(r, h, a, bath)
        k2 = sq.lindblad_generator(r + 0.5 * dtau * k1, h, a, bath)
        k3 = sq.lindblad_generator(r + 0.5 * dtau * k2, h, a, bath)
        k4 = sq.lindblad_generator(r + dtau * k3, h, a, bath)
        out = r + dtau / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out = 0.5 * (out + out.conj().T)
        return out / np.trace(out).real

    expected = rk4_reference(rho.astype(complex))
    traj = sq.propagate(rho, h, bath, dtau=dtau, tau_max=dtau,
                        snapshot_stride=1)
    assert np.max(np.abs(traj.snapshots[-1].dense() - expected)) < 1e-13


def test_thermalization_to_bath_occupation():
    ring = sq.SquidParams(5e-15, 3e-10, 0.0)
    scales = sq.derive_scales(ring)
    dim = 32
    h = sq.build_fock_hamiltonian(ring, scales, dim)
    psi = sq.coherent_state(1j, dim)
    rho0 = np.outer(psi, psi.conj())
    bath = BathParams(temperature=1.0, damping=0.05).resolved(scales)
    traj = sq.propagate(rho0, h, bath, dtau=0.005, tau_max=200.0,
                        record_stride=100)
    m_occ = sq.bath_occupation(bath)
    assert abs(traj.occupation[-1] - m_occ) < 1e-3
    assert traj.max_trace_correction < 1e-8
    assert np.all(np.diff(traj.times) > 0.0)

    # decay rate of the analytically damped oscillator
    mask = traj.times < 80.0
    slope = np.polyfit(traj.times[mask],
                       np.log(traj.occupation[mask] - m_occ + 1e-300), 1)[0]
    assert -slope == pytest.approx(0.05, rel=0.03)


def test_closed_system_purity_and_energy():
    ring = sq.standard_ring(0.5)
    scales = sq.derive_scales(ring)
    dim = 160
    h = sq.build_fock_hamiltonian(ring, scales, dim)
    res = sq.eigensolve(h, 2)
    cat = sq.phase_superposition(res.eigenvectors[:, 0],
                                 res.eigenvectors[:, 1], 0.0)
    rho0 = np.outer(cat, cat.conj())
    bath = BathParams(temperature=1.0, damping=0.0).resolved(scales)
    traj = sq.propagate(rho0, h, bath, dtau=0.005, tau_max=10.0,
                        record_stride=50, snapshot_stride=500)
    assert np.max(np.abs(traj.purity - 1.0)) < 1e-6
    rhos = [snap.dense() for snap in traj.snapshots]
    energies = [np.trace(h @ r).real for r in rhos]
    assert np.max(np.abs(np.diff(energies))) < 1e-6
    defects = [sq.hermiticity_defect(r) for r in rhos]
    assert max(defects) < 1e-9


def test_decoherence_rate_ordering():
    ring = sq.standard_ring(0.5)
    scales = sq.derive_scales(ring)
    dim = 160
    h = sq.build_fock_hamiltonian(ring, scales, dim)
    res = sq.eigensolve(h, 1)
    psi = res.eigenvectors[:, 0].astype(complex)
    rho0 = np.outer(psi, psi.conj())
    x = np.linspace(-12, 12, 193)
    negativity = {}
    for g in (0.01, 0.1):
        bath = BathParams(temperature=1.0, damping=g).resolved(scales)
        traj = sq.propagate(rho0, h, bath, dtau=0.005, tau_max=4.0,
                            record_stride=200, snapshot_stride=400)
        vols = []
        for rho in traj.snapshots[1:]:
            fld = sq.wigner_function(rho, x, x)
            vols.append(sq.phase_space_diagnostics(fld).negativity_volume)
        negativity[g] = vols
    for strong, weak in zip(negativity[0.1], negativity[0.01]):
        assert strong < weak


def test_step_size_guard():
    dim = 60
    ring = sq.standard_ring(0.5)
    scales = sq.derive_scales(ring)
    h = sq.build_fock_hamiltonian(ring, scales, dim)
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    bath = BathParams(temperature=1.0, damping=0.3).resolved(scales)
    with pytest.raises(StepSizeError):
        sq.propagate(rho0, h, bath, dtau=0.2, tau_max=3.0)


def test_closed_evolution_matches_eigen_phases():
    # at g = 0 the master equation is exp(-iH tau) on both sides of rho; the
    # exact pure state V exp(-iE tau) V† psi gives every record and the end
    ring = sq.standard_ring(0.49)
    scales = sq.derive_scales(ring)
    dim, dtau, tau_max, stride = 120, 0.005, 2.0, 40
    h = sq.build_fock_hamiltonian(ring, scales, dim)
    energies, vecs = np.linalg.eigh(h)
    res = sq.eigensolve(h, 2)
    psi = sq.phase_superposition(res.eigenvectors[:, 0],
                                 res.eigenvectors[:, 1], 0.4)
    bath = BathParams(temperature=1.0, damping=0.0).resolved(scales)
    traj = sq.propagate(np.outer(psi, psi.conj()), h, bath, dtau=dtau,
                        tau_max=tau_max, record_stride=stride,
                        snapshot_stride=int(round(tau_max / dtau)))
    coeff = vecs.T @ psi

    def exact(tau):
        return vecs @ (np.exp(-1j * energies * tau) * coeff)

    want = [moments(exact(tau)) for tau in traj.times]
    assert len(want) == 11
    for column in ("mean_x", "mean_p", "var_x", "var_p", "occupation",
                   "trace", "purity"):
        reference = np.array([getattr(obs, column) for obs in want])
        assert np.max(np.abs(getattr(traj, column) - reference)) <= 1e-10
    final = exact(tau_max)
    assert traj.snapshot_times[-1] == tau_max
    assert np.max(np.abs(traj.snapshots[-1].dense()
                         - np.outer(final, final.conj()))) <= 1e-10


def test_trajectory_csv_columns(tmp_path):
    spec = sq.builtin_scenario("evolve", {
        "run.dim": "10", "run.dtau": "0.01", "run.tau_max": "0.1",
        "bath.temperature_k": "1.0", "bath.damping": "0.1"})
    sq.emit_dataset(sq.run_scenario(spec), tmp_path)
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "tau,mean_x,mean_p,var_x,var_p,occupation,trace,purity"


def rk4_oracle(rho, h, bath, dtau, n_steps):
    """Number-basis RK4 on the dense reference generator; every step's rho."""
    a = sq.annihilation(len(h))
    states = [np.asarray(rho, dtype=complex)]
    for _ in range(n_steps):
        r = states[-1]
        k1 = sq.lindblad_generator(r, h, a, bath)
        k2 = sq.lindblad_generator(r + 0.5 * dtau * k1, h, a, bath)
        k3 = sq.lindblad_generator(r + 0.5 * dtau * k2, h, a, bath)
        k4 = sq.lindblad_generator(r + dtau * k3, h, a, bath)
        out = r + dtau / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out = 0.5 * (out + out.conj().T)
        states.append(out / np.trace(out).real)
    return states


def test_full_rank_state_keeps_every_level_and_matches_oracle():
    dim, dtau, n_steps = 40, 1e-3, 20
    ring = sq.standard_ring(0.25)
    scales = sq.derive_scales(ring)
    h = sq.build_fock_hamiltonian(ring, scales, dim)
    rho = random_density(dim, 33)
    bath = BathParams(temperature=1.0, damping=0.05).resolved(scales)
    expected = rk4_oracle(rho, h, bath, dtau, n_steps)
    traj = sq.propagate(rho, h, bath, dtau=dtau, tau_max=n_steps * dtau,
                        snapshot_stride=1)
    assert traj.energy_levels_kept == dim
    for got, want in zip(traj.snapshots, expected, strict=True):
        assert np.max(np.abs(got.dense() - want)) <= 1e-12


def _decohering_ground_state():
    ring = sq.standard_ring(0.5)
    scales = sq.derive_scales(ring)
    h = sq.build_fock_hamiltonian(ring, scales, 120)
    psi = sq.eigensolve(h, 1).eigenvectors[:, 0].astype(complex)
    bath = BathParams(temperature=1.0, damping=0.01).resolved(scales)
    return np.outer(psi, psi.conj()), h, bath


def _damped_coherent_state():
    ring = sq.standard_ring()
    scales = sq.derive_scales(ring)
    h = sq.build_fock_hamiltonian(ring, scales, 80)
    psi = sq.coherent_state(1j, 80)
    bath = BathParams(temperature=1.0, damping=0.1).resolved(scales)
    return np.outer(psi, psi.conj()), h, bath


@pytest.mark.parametrize("make", [_decohering_ground_state,
                                  _damped_coherent_state])
def test_truncated_eigenbasis_matches_oracle(make):
    rho0, h, bath = make()
    dtau, n_steps, stride = 0.005, 100, 10
    expected = rk4_oracle(rho0, h, bath, dtau, n_steps)
    traj = sq.propagate(rho0, h, bath, dtau=dtau, tau_max=n_steps * dtau,
                        record_stride=stride, snapshot_stride=5 * stride)
    assert traj.energy_levels_kept < len(h)
    assert abs(traj.leaked_population) <= 1e-18
    want = [moments(r) for r in expected[::stride]]
    for column in ("mean_x", "mean_p", "var_x", "var_p", "occupation",
                   "trace", "purity"):
        reference = np.array([getattr(obs, column) for obs in want])
        assert np.max(np.abs(getattr(traj, column) - reference)) <= 1e-10
    for got, ref in zip(traj.snapshots, expected[::5 * stride], strict=True):
        assert np.max(np.abs(got.dense() - ref)) <= 1e-10


def test_snapshots_are_factored_in_the_kept_levels():
    rho0, h, bath = _decohering_ground_state()
    traj = sq.propagate(rho0, h, bath, dtau=0.005, tau_max=0.1,
                        snapshot_stride=10)
    k = traj.energy_levels_kept
    assert len(traj.snapshots) == 3
    for snap in traj.snapshots:
        assert snap.vectors.shape == (len(h), k)
        assert np.all(np.diff(snap.weights) >= 0.0)
        assert abs(np.sum(snap.weights) - 1.0) <= 1e-12
        gram = snap.vectors.conj().T @ snap.vectors
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-12
    assert traj.min_eigenvalue == min(s.weights[0] for s in traj.snapshots)


def _ln2_bath(damping):
    """Bath at the ln 2 point, where the occupation M is exactly 1."""
    omega_b = 5.0e11
    temp = CODATA2018.hbar * omega_b / (CODATA2018.boltzmann * math.log(2.0))
    return BathParams(temperature=temp, damping=damping, frequency=omega_b)


@pytest.mark.parametrize("populations, damping, real_level", [
    # 5e-19 sits on level 3 from the start
    ({3: 5e-19, 4: -1e-18}, 0.0, 3),
    # up-jumps send g*M*tau_max = 1e-19 from the ground state to level 1
    ({2: -1e-18}, 1e-18, 1),
])
def test_negative_roundoff_does_not_cancel_real_weight(populations, damping,
                                                       real_level):
    # H = diag(n + 1/2) has the identity as its eigenvectors, so the
    # energy-basis diagonal of rho0 is exactly the one set here; the
    # negative entries stand for roundoff of an eigenbasis rotation
    dim = 8
    h = np.diag(np.arange(dim) + 0.5)
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    for level, value in populations.items():
        rho0[level, level] = value
    traj = sq.propagate(rho0, h, _ln2_bath(damping), dtau=0.005, tau_max=0.1)
    assert traj.energy_levels_kept > real_level
    assert abs(traj.leaked_population) <= sq.dynamics.LEAK_TOLERANCE


def _small_damped_run():
    ring = sq.standard_ring(0.5)
    scales = sq.derive_scales(ring)
    h = sq.build_fock_hamiltonian(ring, scales, 20)
    psi = sq.coherent_state(0.5, 20)
    bath = BathParams(temperature=1.0, damping=0.01).resolved(scales)
    return np.outer(psi, psi.conj()), h, bath


def test_non_finite_inputs_are_rejected():
    rho, h, bath = _small_damped_run()
    bad_rho = rho.copy()
    bad_rho[1, 2] = np.nan
    bad_h = h.copy()
    bad_h[0, 0] = np.inf
    with pytest.raises(ParameterError):
        sq.propagate(bad_rho, h, bath, tau_max=0.05)
    with pytest.raises(ParameterError):
        sq.propagate(rho, bad_h, bath, tau_max=0.05)


@pytest.mark.parametrize("settings", [
    {"dtau": -0.005}, {"dtau": 0.0}, {"dtau": math.nan}, {"tau_max": -1.0},
    {"record_stride": 0}, {"record_stride": -3},
])
def test_bad_step_settings_are_rejected(settings):
    rho, h, bath = _small_damped_run()
    run = {"dtau": 0.005, "tau_max": 0.05} | settings
    with pytest.raises(ParameterError):
        sq.propagate(rho, h, bath, **run)


def test_zero_snapshot_stride_is_rejected():
    rho, h, bath = _small_damped_run()
    with pytest.raises(ParameterError):
        sq.propagate(rho, h, bath, tau_max=0.05, snapshot_stride=0)


def test_run_health_figures():
    rho, h, bath = _small_damped_run()
    traj = sq.propagate(rho, h, bath, dtau=0.005, tau_max=0.05,
                        record_stride=5, snapshot_stride=5)
    assert 1 <= traj.energy_levels_kept <= 20
    assert traj.leaked_population < 1e-18
    # the lowest eigenvalue of a nearly pure state sits at roundoff level
    assert abs(traj.min_eigenvalue) < 1e-6
