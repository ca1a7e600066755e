import math

import numpy as np
import pytest
from scipy.special import eval_laguerre

import squidsim as sq
from squidsim import GridResolutionError, ParameterError
from squidsim.phase_space import _state_weights
from squidsim.states import MixedState


def axes(span=6.0, n=97):
    g = np.linspace(-span, span, n)
    return g, g.copy()


def polar_sq(x, p):
    xx, pp = np.meshgrid(x, p, indexing="ij")
    return xx, pp, xx**2 + pp**2


def test_vacuum_wigner_closed_form():
    x, p = axes()
    fld = sq.wigner_function(sq.fock_state(0, 48), x, p)
    _, _, r2 = polar_sq(x, p)
    assert np.max(np.abs(fld.values - np.exp(-r2) / np.pi)) < 1e-10
    assert fld.imag_residual < 1e-10
    mid = len(x) // 2
    assert fld.values[mid, mid] == pytest.approx(1.0 / np.pi, abs=1e-10)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_fock_wigner_matches_laguerre_oracle(n):
    x, p = axes()
    fld = sq.wigner_function(sq.fock_state(n, 48), x, p)
    _, _, r2 = polar_sq(x, p)
    exact = ((-1.0) ** n / np.pi) * eval_laguerre(n, 2.0 * r2) * np.exp(-r2)
    assert np.max(np.abs(fld.values - exact)) < 1e-8


def test_wigner_normalization_and_marginal(spectral_049):
    ring, scales, h, res = spectral_049
    cat = sq.phase_superposition(res.eigenvectors[:, 0],
                                 res.eigenvectors[:, 1], 0.0)
    x = np.linspace(-16, 16, 257)
    fld = sq.wigner_function(cat, x, x)
    diag = sq.phase_space_diagnostics(fld, cat)
    assert diag.normalization == pytest.approx(1.0, abs=1e-4)
    density = np.abs(sq.position_wavefunction(cat, x)) ** 2
    assert np.max(np.abs(diag.x_marginal - density)) < 1e-5


def test_wigner_grid_cover_check():
    psi = sq.coherent_state(2.0, 100)
    with pytest.raises(GridResolutionError):
        sq.wigner_function(psi, np.linspace(-2, 2, 33), np.linspace(-8, 8, 33))


def test_wigner_rejects_nonuniform_grid():
    psi = sq.fock_state(0, 16)
    bad = np.array([-1.0, -0.5, 0.3, 1.0])
    with pytest.raises(GridResolutionError):
        sq.wigner_function(psi, bad, np.linspace(-4, 4, 17))


def test_density_matrix_validation():
    x, p = axes(4.0, 33)
    rho = np.diag([0.7, 0.3]).astype(complex)
    rho[0, 1] = 0.1j  # not Hermitian
    with pytest.raises(ParameterError):
        sq.wigner_function(rho, x, p)
    with pytest.raises(ParameterError):
        sq.wigner_function(np.diag([0.7, 0.7]).astype(complex), x, p)


@pytest.mark.parametrize("poison", [np.nan, np.inf])
@pytest.mark.parametrize("field", [sq.wigner_function, sq.weyl_function])
def test_non_finite_state_vector_rejected(field, poison):
    psi = sq.coherent_state(0.5, 16)
    psi[3] = poison
    x, p = axes(4.0, 33)
    with pytest.raises(ParameterError):
        field(psi, x, p)


def test_two_gaussian_cat_fringe_wavevector():
    # analytic oracle: for (|x0> + |-x0>)/norm of displaced vacua the
    # interference term is cos(2 x0 p), so the fringe wavevector along p
    # equals the lobe separation 2 x0
    dim, x0 = 220, 3.0
    alpha = x0 / math.sqrt(2.0)
    plus = sq.coherent_state(alpha, dim)
    minus = sq.coherent_state(-alpha, dim)
    cat = plus + minus
    cat = cat / np.linalg.norm(cat)
    x = np.linspace(-12, 12, 385)
    fld = sq.wigner_function(cat, x, x)
    mid = len(x) // 2
    row = fld.values[mid, :]
    spectrum = np.abs(np.fft.rfft(row))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(len(x), d=fld.dp)
    peak = 1 + np.argmax(spectrum[1:])
    # quadratic interpolation around the spectral peak
    s0, s1, s2 = spectrum[peak - 1: peak + 2]
    shift = 0.5 * (s0 - s2) / (s0 - 2 * s1 + s2)
    measured = freqs[peak] + shift * (freqs[1] - freqs[0])
    assert measured == pytest.approx(2.0 * x0, rel=0.02)


def test_weyl_vacuum_closed_form():
    x, p = axes(8.0, 129)
    fld = sq.weyl_function(sq.fock_state(0, 48), x, p)
    _, _, r2 = polar_sq(x, p)
    exact = np.exp(-r2 / 4.0) / (2.0 * np.pi)
    assert np.max(np.abs(np.abs(fld.values) - exact)) < 1e-10


def test_weyl_origin_is_trace_over_2pi(spectral_049):
    ring, scales, h, res = spectral_049
    x = np.linspace(-16, 16, 129)
    states = [sq.fock_state(2, 400), sq.coherent_state(0.7j, 400),
              res.eigenvectors[:, 0].astype(complex)]
    for psi in states:
        fld = sq.weyl_function(psi, x, x)
        mid = len(x) // 2
        assert fld.values[mid, mid] == pytest.approx(
            1.0 / (2.0 * np.pi), abs=1e-6)


def test_weyl_point_symmetry():
    psi = sq.coherent_state(0.9 + 0.4j, 150)
    x = np.linspace(-10, 10, 81)
    fld = sq.weyl_function(psi, x, x)
    mag = np.abs(fld.values)
    assert np.max(np.abs(mag - mag[::-1, ::-1])) < 1e-10


def test_fourier_duality_vacuum_and_coherent():
    x, p = axes(8.0, 129)
    for psi in (sq.fock_state(0, 64), sq.coherent_state(1.1 - 0.5j, 64)):
        wig = sq.wigner_function(psi, x, p)
        wey = sq.weyl_function(psi, x, p)
        trans = sq.wigner_to_weyl(wig, x, p)
        assert np.max(np.abs(trans - wey.values)) < 1e-4


def test_translation_covariance():
    alpha = 1.2 + 0.8j
    x, p = axes(7.0, 113)
    fld = sq.wigner_function(sq.coherent_state(alpha, 120), x, p)
    xx, pp, _ = polar_sq(x, p)
    shifted = (np.exp(-(xx - math.sqrt(2) * alpha.real) ** 2
                      - (pp - math.sqrt(2) * alpha.imag) ** 2) / np.pi)
    assert np.max(np.abs(fld.values - shifted)) < 1e-8


def test_eigenstate_wigner_is_stationary(spectral_049):
    ring, scales, h, res = spectral_049
    psi = res.eigenvectors[:, 0].astype(complex)
    closed = sq.BathParams(temperature=1.0, damping=0.0).resolved(scales)
    traj = sq.propagate(np.outer(psi, psi.conj()), h, closed, dtau=0.002,
                        tau_max=0.5, snapshot_stride=250)
    x = np.linspace(-10, 10, 129)
    before = sq.wigner_function(psi, x, x)
    after = sq.wigner_function(traj.snapshots[-1], x, x)
    assert np.max(np.abs(after.values - before.values)) < 1e-8


def test_cat_lobes_static_while_fringes_advance(spectral_049):
    ring, scales, h, res = spectral_049
    cat0 = sq.phase_superposition(res.eigenvectors[:, 0],
                                  res.eigenvectors[:, 1], 0.0)
    gap = res.eigenvalues[1] - res.eigenvalues[0]
    tau_quarter = 0.5 * math.pi / gap
    # exp(-iH tau)|cat0> up to a global phase
    evolved = sq.phase_superposition(res.eigenvectors[:, 0],
                                     res.eigenvectors[:, 1], -gap * tau_quarter)
    x = np.linspace(-16, 16, 257)
    f0 = sq.wigner_function(cat0, x, x)
    f1 = sq.wigner_function(evolved, x, x)
    d0 = sq.phase_space_diagnostics(f0)
    d1 = sq.phase_space_diagnostics(f1)
    # lobes stay put: the marginal only moves through the tiny tail overlap
    # of the two localized eigenfunctions inside the barrier
    half = len(x) // 2
    for sl in (slice(0, half), slice(half, len(x))):
        assert np.argmax(d0.x_marginal[sl]) == np.argmax(d1.x_marginal[sl])
    assert np.max(np.abs(d1.x_marginal - d0.x_marginal)) < 1e-3
    # while the interference band changes at the scale of the field itself
    mid = len(x) // 2
    change = np.max(np.abs(f1.values[mid - 8: mid + 8, :]
                           - f0.values[mid - 8: mid + 8, :]))
    assert change > 0.5 * np.max(np.abs(f0.values))


def test_diagnostics_vacuum():
    x, p = axes()
    psi = sq.fock_state(0, 48)
    fld = sq.wigner_function(psi, x, p)
    diag = sq.phase_space_diagnostics(fld, psi)
    assert diag.negativity_volume <= 1e-6
    assert diag.purity_estimate == pytest.approx(1.0, abs=1e-3)
    assert diag.purity_exact == 1.0
    assert diag.fringe_amplitude is None


def test_diagnostics_fock1_most_negative_point():
    x = np.linspace(-6, 6, 121)  # odd count puts a node exactly at 0
    fld = sq.wigner_function(sq.fock_state(1, 48), x, x)
    mid = len(x) // 2
    assert fld.values[mid, mid] == pytest.approx(-1.0 / np.pi, abs=1e-10)


def test_diagnostics_require_wigner_kind():
    x, p = axes(5.0, 65)
    fld = sq.weyl_function(sq.fock_state(0, 32), x, p)
    with pytest.raises(ParameterError):
        sq.phase_space_diagnostics(fld)


def test_cat_purity_versus_mixture(spectral_049):
    ring, scales, h, res = spectral_049
    v0 = res.eigenvectors[:, 0]
    v1 = res.eigenvectors[:, 1]
    cat = sq.phase_superposition(v0, v1, 0.5)
    x = np.linspace(-16, 16, 257)
    fld = sq.wigner_function(cat, x, x)
    diag = sq.phase_space_diagnostics(fld, cat)
    assert diag.purity_estimate == pytest.approx(1.0, abs=1e-3)

    mix = 0.5 * (np.outer(v0, v0) + np.outer(v1, v1)).astype(complex)
    fmix = sq.wigner_function(mix, x, x)
    dmix = sq.phase_space_diagnostics(fmix, mix)
    assert dmix.purity_estimate == pytest.approx(0.5, abs=0.02)
    assert dmix.purity_exact == pytest.approx(0.5, abs=1e-10)
    # interference collapses in the mixture
    assert dmix.fringe_amplitude < 0.1 * diag.fringe_amplitude


def random_mixed_state(dim, rank, seed):
    """Rank-`rank` MixedState on orthonormal mixtures of the lowest 12
    number states, so that small grids cover it."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(12, rank))
                        + 1j * rng.normal(size=(12, rank)))
    vectors = np.zeros((dim, rank), dtype=complex)
    vectors[:12] = q
    weights = rng.uniform(0.1, 1.0, rank)
    return MixedState(weights / weights.sum(), vectors)


def test_mixed_state_fields_match_its_dense_matrix():
    state = random_mixed_state(48, 3, 5)
    x, p = axes(8.0, 65)
    for field_fn in (sq.wigner_function, sq.weyl_function):
        factored = field_fn(state, x, p)
        dense = field_fn(state.dense(), x, p)
        assert np.max(np.abs(factored.values - dense.values)) <= 1e-12
    wig = sq.wigner_function(state, x, p)
    assert sq.phase_space_diagnostics(wig, state).purity_exact == pytest.approx(
        sq.phase_space_diagnostics(wig, state.dense()).purity_exact, abs=1e-12)


def test_mixed_state_factors_are_used_as_given():
    state = random_mixed_state(20, 3, 7)
    weights = np.array([1e-13, 0.25, 0.75])
    weights_kept, vectors = _state_weights(MixedState(weights, state.vectors))
    # no rediagonalisation: the factors above the floor come back unchanged
    assert np.array_equal(weights_kept, weights[1:])
    assert np.array_equal(vectors, state.vectors[:, 1:])


@pytest.mark.parametrize("weights, poison", [
    ([0.6, 0.3], None),             # trace 0.9
    ([0.5, 0.5, 0.5], None),        # trace 1.5
    ([0.5, np.nan], None),
    ([0.5, np.inf], None),
    ([0.5, 0.5], np.nan),
    ([0.5, 0.5], np.inf),
])
def test_mixed_state_bad_factors_rejected(weights, poison):
    vectors = np.eye(8, len(weights), dtype=complex)
    if poison is not None:
        vectors[3, 1] = poison
    with pytest.raises(ParameterError):
        _state_weights(MixedState(np.array(weights), vectors))


def test_weyl_on_asymmetric_grid_matches_fourier_transform():
    state = random_mixed_state(64, 3, 11)
    x, p = axes(8.0, 129)
    wig = sq.wigner_function(state, x, p)
    x_out = np.linspace(-3.0, 6.0, 37)
    p_out = np.linspace(-5.0, 2.0, 29)
    wey = sq.weyl_function(state, x_out, p_out)
    assert np.max(np.abs(sq.wigner_to_weyl(wig, x_out, p_out)
                         - wey.values)) < 1e-4
