"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The decoherence and
squeezing runs propagate density matrices for tens of thousands of steps;
the whole module takes about a minute and a half (89 s on a two-core
x86-64 VM with OpenBLAS).
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import eval_laguerre

import squidsim as sq
from squidsim import BathParams


def report(num, name, detail):
    print(f"[acceptance] criterion {num:02d} ({name}): PASS: {detail}")


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def decohere_run():
    """Ground state at the symmetric bias decohering at g = 0.01, T = 1 K."""
    ring = sq.standard_ring(0.5)
    scales = sq.derive_scales(ring)
    dim = 400
    h = sq.build_fock_hamiltonian(ring, scales, dim)
    res = sq.eigensolve(h, 1)
    psi0 = res.eigenvectors[:, 0].astype(complex)
    rho0 = np.outer(psi0, psi0.conj())
    bath = BathParams(temperature=1.0, damping=0.01).resolved(scales)
    traj = sq.propagate(rho0, h, bath, dtau=0.005, tau_max=30.0,
                        record_stride=100, snapshot_stride=600,
                        scales=scales)
    return ring, scales, traj


@pytest.fixture(scope="module")
def squeeze_runs():
    """Coherent state in the raised-Josephson-energy ring, four dampings."""
    ring = sq.squeeze_ring()
    scales = sq.derive_scales(ring)
    dim = 160
    h = sq.build_fock_hamiltonian(ring, scales, dim)
    psi0 = sq.coherent_state(1j, dim)
    rho0 = np.outer(psi0, psi0.conj())
    out = {}
    for g in (0.0, 0.001, 0.01, 0.1):
        bath = BathParams(temperature=1.0, damping=g).resolved(scales)
        out[g] = sq.propagate(rho0, h, bath, dtau=0.005, tau_max=50.0,
                              record_stride=5, snapshot_stride=2500)
    return ring, scales, out


# ---------------------------------------------------------------- criteria

def test_criterion_01_derived_scales():
    scales = sq.derive_scales(sq.standard_ring())
    assert scales.nu_over_omega == pytest.approx(7.9, rel=0.02)
    assert scales.c_omega == pytest.approx(4.1e-3, rel=0.02)
    assert scales.omega / (2 * math.pi) == pytest.approx(130e9, rel=0.01)
    assert scales.lc_period == pytest.approx(7.6e-12, rel=0.02)
    report(1, "derived scales",
           f"nu/omega={scales.nu_over_omega:.3f}, C*omega={scales.c_omega:.2e}, "
           f"f={scales.omega / 2 / math.pi / 1e9:.1f} GHz, "
           f"T_LC={scales.lc_period * 1e12:.2f} ps")


def test_criterion_02_sho_limit():
    ring = sq.SquidParams(5e-15, 3e-10, 0.0)
    scales = sq.derive_scales(ring)
    dim = 400
    vals = np.linalg.eigvalsh(sq.build_fock_hamiltonian(ring, scales, dim))
    n = np.arange(dim - 20)
    fock_err = np.max(np.abs(vals[: dim - 20] - (n + 0.5)))
    assert fock_err < 1e-8

    grid_vals = sq.build_flux_grid_hamiltonian(ring).solve_values(10)
    expected = np.arange(10) + 0.5
    grid_err = np.max(np.abs(grid_vals - expected) / expected)
    assert grid_err < 1e-5
    report(2, "SHO limit",
           f"fock err={fock_err:.2e} (n<{dim - 20}), grid rel err={grid_err:.2e}")


def test_criterion_03_oracle_equivalence():
    worst = 0.0
    for bias in (0.0, 0.25, 0.49, 0.5):
        ring = sq.standard_ring(bias)
        scales = sq.derive_scales(ring)
        fock = np.linalg.eigvalsh(
            sq.build_fock_hamiltonian(ring, scales, 400))[:10]
        flux_frame = sq.build_flux_grid_hamiltonian(
            ring, frame="flux").solve_values(10)
        worst = max(worst, float(np.max(np.abs(fock - flux_frame))))
        assert np.max(np.abs(fock - flux_frame)) < 1e-6
    # unitary translation equivalence between the two grid frames
    ring = sq.standard_ring(0.49)
    osc = sq.build_flux_grid_hamiltonian(ring, frame="oscillator").solve_values(10)
    flux = sq.build_flux_grid_hamiltonian(ring, frame="flux").solve_values(10)
    trans = float(np.max(np.abs(osc - flux)))
    assert trans < 1e-8
    report(3, "oracle equivalence",
           f"max |fock - grid| = {worst:.2e} hbar*omega over 4 biases; "
           f"translation equivalence {trans:.2e}")


def test_criterion_04_well_state_squeezing(spectral_049, quadratures_400):
    ring, scales, h, res = spectral_049
    x_op, p_op = quadratures_400
    x2, p2 = x_op @ x_op, p_op @ p_op

    def variances(col):
        v = res.eigenvectors[:, col]
        mx = float(np.real(v @ (x_op @ v)))
        mp = float(np.real(np.vdot(v, p_op @ v)))
        return (float(np.real(v @ (x2 @ v))) - mx**2,
                float(np.real(np.vdot(v, p2 @ v))) - mp**2)

    # the published figures describe the deeper well's lowest state
    vx0, vp0 = variances(0)
    assert vx0 == pytest.approx(0.43, abs=0.02)
    assert vp0 == pytest.approx(0.58, abs=0.02)
    # the shallower well's lowest state is flux-squeezed too
    vx1, vp1 = variances(1)
    assert vx1 < 0.5
    report(4, "well-state squeezing",
           f"deep well var_x={vx0:.4f}, var_p={vp0:.4f}; "
           f"shallow well var_x={vx1:.4f}, var_p={vp1:.4f}")


def test_criterion_05_tunnel_splitting_and_oscillation(spectral_05):
    ring, scales, h400, res400 = spectral_05
    split400 = res400.eigenvalues[1] - res400.eigenvalues[0]
    period_s = 2.0 * math.pi / (split400 * scales.omega)
    assert 100e-9 / 3.0 < period_s < 100e-9 * 3.0

    # internal consistency: propagating |cat><cat| for (|s>+|a>)/sqrt(2) at
    # zero damping must oscillate in <x> at the eigen-splitting frequency.
    # The doublet is converged at this truncation (same splitting as
    # dim=400 to 1e-6).
    dim = 200
    h = sq.build_fock_hamiltonian(ring, scales, dim)
    res = sq.eigensolve(h, 2)
    split = res.eigenvalues[1] - res.eigenvalues[0]
    assert split == pytest.approx(split400, rel=1e-6)
    s, a = sq.parity_pair(res, ring, scales)
    cat = sq.phase_superposition(s, a, 0.0)
    closed = sq.BathParams(temperature=1.0, damping=0.0).resolved(scales)
    traj = sq.propagate(np.outer(cat, cat.conj()), h, closed, dtau=0.005,
                        tau_max=2000.0, record_stride=50)
    signal = traj.mean_x / traj.trace
    t = traj.times

    def residual(omega):
        basis = np.column_stack([np.cos(omega * t), np.sin(omega * t)])
        coef, res_, *_ = np.linalg.lstsq(basis, signal, rcond=None)
        return float(np.sum((basis @ coef - signal) ** 2))

    fit = minimize_scalar(residual, bounds=(0.2 * split, 5.0 * split),
                          method="bounded",
                          options={"xatol": split * 1e-8})
    assert fit.x == pytest.approx(split, rel=0.01)
    report(5, "tunnel splitting",
           f"period 2*pi*hbar/dE = {period_s * 1e9:.1f} ns (within x3 of 100 ns); "
           f"RK4 <x> frequency matches dE to {abs(fit.x / split - 1):.2e}")


def test_criterion_06_wigner_oracle():
    x = np.linspace(-6, 6, 121)
    xx, pp = np.meshgrid(x, x, indexing="ij")
    r2 = xx**2 + pp**2
    mid = len(x) // 2
    worst = 0.0
    for n in range(4):
        fld = sq.wigner_function(sq.fock_state(n, 64), x, x)
        exact = ((-1.0) ** n / np.pi) * eval_laguerre(n, 2.0 * r2) * np.exp(-r2)
        worst = max(worst, float(np.max(np.abs(fld.values - exact))))
        assert np.max(np.abs(fld.values - exact)) < 1e-8
        diag = sq.phase_space_diagnostics(fld)
        assert diag.normalization == pytest.approx(1.0, abs=1e-4)
        density = np.abs(sq.position_wavefunction(sq.fock_state(n, 64), x)) ** 2
        assert np.max(np.abs(diag.x_marginal - density)) < 1e-5
        if n == 0:
            assert fld.values[mid, mid] == pytest.approx(1 / np.pi, abs=1e-10)
        if n == 1:
            assert fld.values[mid, mid] == pytest.approx(-1 / np.pi, abs=1e-10)
    report(6, "wigner oracle", f"max deviation from Laguerre forms {worst:.2e}")


def test_criterion_07_fourier_duality(spectral_049):
    ring, scales, h, res = spectral_049
    x = np.linspace(-16, 16, 257)
    cat = sq.phase_superposition(res.eigenvectors[:, 0],
                                 res.eigenvectors[:, 1], 0.0)
    states = {
        "vacuum": sq.fock_state(0, 64),
        "coherent": sq.coherent_state(1.1 - 0.5j, 64),
        "cat-049": cat,
    }
    worst = 0.0
    for name, psi in states.items():
        wig = sq.wigner_function(psi, x, x)
        wey = sq.weyl_function(psi, x, x)
        err = float(np.max(np.abs(sq.wigner_to_weyl(wig, x, x) - wey.values)))
        worst = max(worst, err)
        assert err < 1e-4
    report(7, "fourier duality", f"max |FT(W) - Weyl| = {worst:.2e}")


def test_criterion_08_cat_structure(spectral_049):
    ring, scales, h, res = spectral_049
    v0 = res.eigenvectors[:, 0]
    v1 = res.eigenvectors[:, 1]
    cat = sq.phase_superposition(v0, v1, 0.0)
    x = np.linspace(-16, 16, 257)
    fld = sq.wigner_function(cat, x, x)
    diag = sq.phase_space_diagnostics(fld)

    # two lobes at the potential minima
    marg = diag.x_marginal
    half = len(x) // 2
    lobes = []
    for sl in (slice(0, half), slice(half, len(x))):
        i = int(np.argmax(marg[sl])) + sl.start
        num = (x[i - 1] * marg[i - 1] + x[i] * marg[i] + x[i + 1] * marg[i + 1])
        lobes.append(num / (marg[i - 1] + marg[i] + marg[i + 1]))
    lobe_sep = lobes[1] - lobes[0]
    wells = sq.find_potential_wells(ring, scales)
    well_sep = wells[-1].position - wells[0].position
    assert lobe_sep == pytest.approx(well_sep, rel=0.05)

    assert diag.fringe_amplitude is not None
    assert diag.fringe_amplitude > 0.25  # pronounced interference band

    assert diag.purity_estimate == pytest.approx(1.0, abs=1e-3)
    mix = 0.5 * (np.outer(v0, v0) + np.outer(v1, v1)).astype(complex)
    dmix = sq.phase_space_diagnostics(sq.wigner_function(mix, x, x))
    assert dmix.purity_estimate == pytest.approx(0.5, abs=0.02)
    report(8, "cat structure",
           f"lobe sep {lobe_sep:.3f} vs wells {well_sep:.3f} "
           f"({abs(lobe_sep / well_sep - 1) * 100:.1f}%), fringe amp "
           f"{diag.fringe_amplitude:.3f}, purities {diag.purity_estimate:.4f} "
           f"vs {dmix.purity_estimate:.4f}")


def test_criterion_09_lindblad_integrity(thermalization_run, decohere_run,
                                         squeeze_runs):
    # thermalization of the harmonic ring to the bath occupation
    bath, therm = thermalization_run
    m_occ = sq.bath_occupation(bath)
    assert m_occ == pytest.approx(1.96e-3, rel=5e-3)
    assert abs(therm.occupation[-1] - m_occ) < 1e-3

    # closed-system purity and energy conservation in the squeezing ring
    ring_s = sq.squeeze_ring()
    scales_s = sq.derive_scales(ring_s)
    h_s = sq.build_fock_hamiltonian(ring_s, scales_s, 160)
    rho0 = np.outer(sq.coherent_state(1j, 160), sq.coherent_state(1j, 160).conj())
    closed = sq.propagate(rho0, h_s, BathParams(temperature=1.0, damping=0.0,
                                                frequency=scales_s.omega),
                          dtau=0.004, tau_max=10.0, record_stride=100,
                          snapshot_stride=1000)
    purity_drift = float(np.max(np.abs(closed.purity - 1.0)))
    assert purity_drift < 1e-6
    energies = [float(np.trace(h_s @ r.dense()).real)
                for r in closed.snapshots]
    energy_drift = max(abs(e - energies[0]) for e in energies)
    assert energy_drift < 1e-6

    # trace and Hermiticity over every propagated scenario in this module
    _, _, dec = decohere_run
    _, _, sqz = squeeze_runs
    runs = [therm, closed, dec] + list(sqz.values())
    worst_trace = max(
        max(float(np.max(np.abs(t.trace - 1.0))), t.max_trace_correction)
        for t in runs)
    assert worst_trace <= 1e-8
    # measured on each RK4 result before the per-step Hermitisation
    worst_herm = max(t.max_hermiticity_defect for t in runs)
    assert worst_herm <= 1e-9
    report(9, "lindblad integrity",
           f"<n>_final - M = {therm.occupation[-1] - m_occ:.2e} (M={m_occ:.3e}); "
           f"purity drift {purity_drift:.2e}; energy drift {energy_drift:.2e}; "
           f"trace {worst_trace:.2e}; hermiticity {worst_herm:.2e}")


def test_criterion_10_cat_decoherence(decohere_run):
    ring, scales, traj = decohere_run
    x = np.linspace(-16, 16, 257)
    wells = sq.find_potential_wells(ring, scales)
    sep = wells[-1].position - wells[0].position

    negativity, side_peaks, centers, lobe_weights = [], [], [], []
    for rho in traj.snapshots:
        fld = sq.wigner_function(rho, x, x)
        diag = sq.phase_space_diagnostics(fld)
        negativity.append(diag.negativity_volume)
        wey = sq.weyl_function(rho, x, x)
        band = (x > sep - 1.5) & (x < sep + 1.5)
        side_peaks.append(float(np.max(np.abs(wey.values[band, :]))))
        mid = len(x) // 2
        centers.append(float(np.abs(wey.values[mid, mid])))
        half_w = float(np.sum(diag.x_marginal[x < 0]) * fld.dx)
        lobe_weights.append((half_w, float(np.sum(diag.x_marginal[x > 0]) * fld.dx)))

    negativity = np.array(negativity)
    side_peaks = np.array(side_peaks)
    assert negativity[-1] <= 0.05 * negativity[0]
    assert side_peaks[-1] <= 0.10 * side_peaks[0]
    # monotone decay (after the initial point, i.e. across all snapshots here)
    assert np.all(np.diff(negativity) < 0.0)
    assert np.all(np.diff(side_peaks) < 0.0)
    # the two flux lobes persist as a classical mixture
    for left, right in lobe_weights:
        assert left == pytest.approx(0.5, abs=0.05)
        assert right == pytest.approx(0.5, abs=0.05)
    # the central Weyl peak (the trace) is untouched
    for c in centers:
        assert c == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-3)
    report(10, "cat decoherence",
           f"negativity {negativity[0]:.4f} -> {negativity[-1]:.4f} "
           f"({negativity[-1] / negativity[0] * 100:.1f}%), Weyl side peak "
           f"{side_peaks[0]:.4f} -> {side_peaks[-1]:.4f} "
           f"({side_peaks[-1] / side_peaks[0] * 100:.1f}%), lobes persist")


def test_criterion_11_squeezing(squeeze_runs):
    ring, scales, runs = squeeze_runs
    base = runs[0.0]
    min_free = float(np.min(base.var_x))
    assert min_free < 0.5

    # dissipation can assist: some damped run dips below the free curve
    assisted = {}
    for g in (0.001, 0.01, 0.1):
        diff = runs[g].var_x - base.var_x
        assisted[g] = float(np.min(diff))
    assert min(assisted.values()) < -0.01

    # strong damping settles into a squeezed steady state
    strong = runs[0.1]
    late = strong.var_x[strong.times > 40.0]
    assert np.all(late < 0.5)
    assert float(np.max(late) - np.min(late)) < 0.01
    report(11, "squeezing",
           f"min var_x: g=0 -> {min_free:.4f}; assists "
           + ", ".join(f"g={g}: {v:+.4f}" for g, v in assisted.items())
           + f"; g=0.1 settles at {float(np.mean(late)):.4f}")


def test_criterion_12_determinism(tmp_path):
    import os
    overrides = {
        "run.dim": "120",
        "grid.x_min": "-12", "grid.x_max": "12", "grid.x_points": "65",
        "grid.p_min": "-12", "grid.p_max": "12", "grid.p_points": "65",
    }
    spec = sq.builtin_scenario("cat-049", overrides)
    dirs = [tmp_path / "first", tmp_path / "second"]
    for d in dirs:
        sq.emit_dataset(sq.run_scenario(spec), d)
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    identical = 0
    for name in names:
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b
        identical += 1
    report(12, "determinism", f"{identical} files byte-identical across runs")
