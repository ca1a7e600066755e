import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import eval_laguerre

import squidsim as sq
from squidsim import GridResolutionError, ParameterError
from squidsim.phase_space import (TAIL_PAD, _chord_transform, _state_weights,
                                  _support_reach)
from squidsim.states import MixedState, _split_matmul, hermite_functions


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
    diag = sq.phase_space_diagnostics(fld)
    assert diag.normalization == pytest.approx(1.0, abs=1e-4)
    density = np.abs(sq.position_wavefunction(cat, x)) ** 2
    assert np.max(np.abs(diag.x_marginal - density)) < 1e-5
    # marginal_error measures the same gap against the kernel's own exact
    # density, the z = 0 column of the chord kernel
    assert fld.marginal_error == pytest.approx(
        np.max(np.abs(diag.x_marginal - density)), abs=1e-12)


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


def bad_state(kind):
    """A state vector with one NaN or infinite amplitude, an all-NaN or zero
    vector or an all-NaN density matrix."""
    if kind == "nan-vector":
        return np.full(16, np.nan, dtype=complex)
    if kind == "zero-vector":
        return np.zeros(16, dtype=complex)
    if kind == "nan-matrix":
        return np.full((16, 16), np.nan, dtype=complex)
    psi = sq.coherent_state(0.5, 16)
    psi[3] = float(kind)
    return psi


@pytest.mark.parametrize("poison", ["nan", "inf", "nan-vector", "zero-vector",
                                    "nan-matrix"])
@pytest.mark.parametrize("field", [sq.wigner_function, sq.weyl_function])
def test_non_finite_state_vector_rejected(field, poison):
    x, p = axes(4.0, 33)
    with pytest.raises(ParameterError):
        field(bad_state(poison), x, p)


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


def weyl_fock_exact(n, r2):
    """Weyl function of |n>: exp(-r^2/4) L_n(r^2/2) / (2 pi)."""
    return np.exp(-r2 / 4.0) * eval_laguerre(n, r2 / 2.0) / (2.0 * np.pi)


@pytest.mark.parametrize("n", [0, 1, 2, 3, "mixed"])
def test_weyl_fock_closed_form(n):
    x, p = axes(8.0, 129)
    _, _, r2 = polar_sq(x, p)
    if n == "mixed":
        state = MixedState(np.array([0.6, 0.4]),
                           np.eye(48, dtype=complex)[:, [1, 4]])
        exact = 0.6 * weyl_fock_exact(1, r2) + 0.4 * weyl_fock_exact(4, r2)
    else:
        state = sq.fock_state(n, 48)
        exact = weyl_fock_exact(n, r2)
    fld = sq.weyl_function(state, x, p)
    assert np.max(np.abs(fld.values - exact)) < 1e-10


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
    # Hermitian symmetry Wt(-X, -P) = conj Wt(X, P)
    assert np.max(np.abs(fld.values[::-1, ::-1] - fld.values.conj())) < 1e-12


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
    diag = sq.phase_space_diagnostics(fld)
    assert diag.negativity_volume <= 1e-6
    assert diag.purity_estimate == pytest.approx(1.0, abs=1e-3)
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
    diag = sq.phase_space_diagnostics(fld)
    assert diag.purity_estimate == pytest.approx(1.0, abs=1e-3)

    mix = 0.5 * (np.outer(v0, v0) + np.outer(v1, v1)).astype(complex)
    fmix = sq.wigner_function(mix, x, x)
    dmix = sq.phase_space_diagnostics(fmix)
    assert dmix.purity_estimate == pytest.approx(0.5, abs=0.02)
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


@settings(derandomize=True, deadline=None, max_examples=30)
@given(rank=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_random_mixed_state_field_properties(rank, seed):
    state = random_mixed_state(32, rank, seed)
    x, p = axes(8.0, 65)
    wig = sq.wigner_function(state, x, p)
    assert sq.phase_space_diagnostics(wig).normalization == pytest.approx(
        1.0, abs=1e-4)
    wey = sq.weyl_function(state, x, p).values
    mid = len(x) // 2
    assert abs(wey[mid, mid] - 1.0 / (2.0 * np.pi)) < 1e-10
    assert np.max(np.abs(wey[::-1, ::-1] - wey.conj())) < 1e-12
    x_out = np.linspace(-3.0, 6.0, 19)
    p_out = np.linspace(-5.0, 2.0, 15)
    assert np.max(np.abs(sq.wigner_to_weyl(wig, x_out, p_out)
                         - sq.weyl_function(state, x_out, p_out).values)) < 1e-4


def full_range_chord_transform(weights, left, right, x, p, reach):
    """Reference for _chord_transform: the same z grid and lattice, with the
    kernel gathered over the whole range -c..c in complex arithmetic and
    summed against the complex exp(-i z p) matrix; returns the values and
    the kernel's z = 0 column."""
    dx = float(x[1] - x[0])
    target = np.pi / (4.0 * (np.max(np.abs(p)) + reach))
    m = 0
    while dx / 2.0 ** m > target:
        m += 1
    dz = dx / 2.0 ** m
    c = int(np.ceil(2.0 * (reach + TAIL_PAD) / dz))
    zeta = (np.arange(2 * c + 1) - c) * dz
    stride = 2 ** (m + 1)
    lattice = x[0] + (np.arange((len(x) - 1) * stride + zeta.size) - c) * (
        dz / 2.0)
    table = hermite_functions(left.shape[0] - 1, lattice).astype(complex)
    psi_u, psi_v = table @ left, table @ right
    kernel = np.zeros((len(x), zeta.size), dtype=complex)
    for k in range(len(weights)):
        u = sliding_window_view(psi_u[:, k], zeta.size)[::stride]
        v = sliding_window_view(psi_v[:, k], zeta.size)[::stride, ::-1]
        kernel += weights[k] * u * np.conj(v)
    return (kernel @ np.exp(-1j * np.outer(zeta, p)) * (dz / (2.0 * np.pi)),
            kernel[:, c])


def assert_half_range_matches_full_range(state):
    """Both paths of the half-range kernel against the full-range reference
    on an asymmetric, odd-sized grid, relative to the largest value."""
    weights, vectors = _state_weights(state)
    reach = _support_reach(weights, vectors)
    x = np.linspace(-3.0, 6.0, 37)
    p = np.linspace(-5.0, 2.0, 29)
    parity = (-1.0) ** np.arange(vectors.shape[0])
    for right in (vectors, parity[:, None] * vectors):   # Wigner, then Weyl
        half, diagonal = _chord_transform(weights, vectors, right, x, p, reach)
        full, full_diagonal = full_range_chord_transform(weights, vectors,
                                                         right, x, p, reach)
        assert np.isrealobj(half) == (right is vectors)
        assert np.max(np.abs(half - full)) <= 1e-14 * np.max(np.abs(full))
        # the exact diagonal <x|A|x>, to the roundoff of the O(1) Hermite sums
        assert np.max(np.abs(diagonal - full_diagonal)) <= 1e-14
    # the Hermitian path against the general path on a copy of the factors
    wigner, _ = _chord_transform(weights, vectors, vectors, x, p, reach)
    general, _ = _chord_transform(weights, vectors, vectors.copy(), x, p, reach)
    assert np.max(np.abs(wigner - general)) <= 1e-14 * np.max(np.abs(wigner))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(rank=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_half_range_kernel_matches_full_range(rank, seed):
    assert_half_range_matches_full_range(random_mixed_state(24, rank, seed))


def test_half_range_kernel_on_a_real_eigenvector(spectral_049):
    # eigenvectors are real: no imaginary Hermite product is taken, and the
    # Hermitian kernel is real before its cos/sin sums
    psi = spectral_049[3].eigenvectors[:, 0].astype(complex)
    table = hermite_functions(psi.size - 1, np.linspace(-3.0, 6.0, 37))
    assert np.isrealobj(_split_matmul(table, psi))
    assert_half_range_matches_full_range(psi)
