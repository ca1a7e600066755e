import math
import warnings

import numpy as np
import pytest

import squidsim as sq
from squidsim import DegeneracyError, ParameterError, TruncationError
from squidsim.operators import parity_operator
from squidsim.states import MIXING_FLOOR
from conftest import expectation, moments


def test_hermite_functions_orthonormal():
    x = np.linspace(-12, 12, 6001)
    dx = x[1] - x[0]
    phi = sq.hermite_functions(30, x)
    gram = phi.T @ phi * dx
    assert np.max(np.abs(gram - np.eye(31))) < 1e-8


def test_hermite_functions_parity_is_exact():
    x = np.random.default_rng(3).uniform(-20.0, 20.0, 501)
    phi = sq.hermite_functions(399, x)
    sign = (-1.0) ** np.arange(400)
    assert np.array_equal(sq.hermite_functions(399, -x), phi * sign)


def test_hermite_functions_match_column_recurrence():
    x = np.linspace(-16.0, 16.0, 257)
    ref = np.empty((x.size, 400))
    ref[:, 0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    ref[:, 1] = np.sqrt(2.0) * x * ref[:, 0]
    for n in range(2, 400):
        ref[:, n] = (np.sqrt(2.0 / n) * x * ref[:, n - 1]
                     - np.sqrt((n - 1) / n) * ref[:, n - 2])
    assert np.array_equal(sq.hermite_functions(399, x), ref)


def test_vacuum_density_closed_form():
    x = np.linspace(-5, 5, 401)
    psi = sq.position_wavefunction(sq.fock_state(0, 50), x)
    exact = np.pi ** -0.5 * np.exp(-x * x)
    assert np.max(np.abs(np.abs(psi) ** 2 - exact)) < 1e-10


def test_first_excited_has_node_at_origin():
    val = sq.position_wavefunction(sq.fock_state(1, 50), np.array([0.0]))
    assert abs(val[0]) ** 2 < 1e-20


def test_wavefunction_normalization_and_variance(spectral_049):
    ring, scales, h, res = spectral_049
    x = np.linspace(-12, 12, 4001)
    dx = x[1] - x[0]
    psi = sq.position_wavefunction(res.eigenvectors[:, 0], x)
    dens = np.abs(psi) ** 2
    norm = np.sum(dens) * dx
    assert norm == pytest.approx(1.0, abs=1e-6)
    mean = np.sum(x * dens) * dx
    var = np.sum((x - mean) ** 2 * dens) * dx
    assert var == pytest.approx(0.43, abs=0.02)


def test_wavefunction_grid_support_warning():
    with pytest.warns(UserWarning):
        sq.position_wavefunction(sq.fock_state(0, 8), np.linspace(-30, 30, 11))


@pytest.mark.parametrize("points, half_width", [(257, 16.0),
                                                 (3001, math.sqrt(799.0))])
def test_matrix_form_equals_vector_calls(spectral_049, points, half_width):
    ring, scales, h, res = spectral_049
    block = res.eigenvectors[:, :12]
    x = np.linspace(-half_width, half_width, points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        many = sq.position_wavefunction(block, x)
        singles = [sq.position_wavefunction(block[:, k], x) for k in range(12)]
    assert many.shape == (points, 12)
    for k, single in enumerate(singles):
        assert single.shape == (points,)
        assert np.array_equal(many[:, k], single)


@pytest.mark.parametrize("poison", [np.nan, np.inf])
def test_non_finite_amplitudes_rejected(poison):
    psi = sq.fock_state(2, 16)
    psi[5] = poison
    x = np.linspace(-3.0, 3.0, 13)
    with pytest.raises(ParameterError):
        sq.position_wavefunction(psi, x)
    with pytest.raises(ParameterError):
        sq.position_wavefunction(np.column_stack([sq.fock_state(0, 16), psi]), x)
    with pytest.raises(ParameterError):
        sq.phase_superposition(sq.fock_state(0, 16), psi, 0.0)


def test_matrix_form_warns_once_beyond_support():
    block = np.eye(8, 3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        psi = sq.position_wavefunction(block, np.linspace(-30, 30, 11))
    assert psi.shape == (11, 3)
    assert len(caught) == 1
    assert "truncation-supported region" in str(caught[0].message)


def test_coherent_vacuum_limit():
    psi = sq.coherent_state(0.0, 32)
    assert psi[0] == 1.0
    assert np.all(psi[1:] == 0.0)


def test_coherent_quadratures_and_occupation():
    psi = sq.coherent_state(1j, 400)
    obs = moments(psi)
    assert obs.mean_x == pytest.approx(0.0, abs=1e-8)
    assert obs.mean_p == pytest.approx(math.sqrt(2.0), abs=1e-8)
    assert obs.var_x == pytest.approx(0.5, abs=1e-8)
    assert obs.var_p == pytest.approx(0.5, abs=1e-8)
    assert obs.occupation == pytest.approx(1.0, abs=1e-10)


def test_coherent_general_quadratures():
    alpha = 1.3 - 0.7j
    psi = sq.coherent_state(alpha, 300)
    obs = moments(psi)
    assert obs.mean_x == pytest.approx(math.sqrt(2.0) * alpha.real, abs=1e-8)
    assert obs.mean_p == pytest.approx(math.sqrt(2.0) * alpha.imag, abs=1e-8)


def test_coherent_truncation_guard():
    with pytest.raises(TruncationError):
        sq.coherent_state(4.0, 60)


@pytest.mark.parametrize("alpha", [complex(math.nan), math.inf,
                                   complex(0.0, math.nan)])
def test_coherent_non_finite_amplitude_rejected(alpha):
    with pytest.raises(ParameterError):
        sq.coherent_state(alpha, 16)


def test_fock_state_index_must_be_an_integer():
    assert sq.fock_state(np.int64(3), 16)[3] == 1.0
    for bad in (2.5, math.nan):
        with pytest.raises(ParameterError):
            sq.fock_state(bad, 16)


@pytest.mark.parametrize("dim", [2.5, math.nan, math.inf, 1])
@pytest.mark.parametrize("build", [
    lambda dim: sq.coherent_state(0.5, dim),
    lambda dim: sq.fock_state(0, dim),
    sq.annihilation,
], ids=["coherent", "fock", "annihilation"])
def test_basis_size_must_be_an_integer_of_at_least_two(build, dim):
    with pytest.raises(ParameterError, match="basis size"):
        build(dim)


def test_phase_superposition_norm_factor():
    dim = 20
    e0, e1 = sq.fock_state(0, dim), sq.fock_state(1, dim)
    for theta in (0.0, 1.1, math.pi):
        built = sq.phase_superposition(e0, e1, theta)
        manual = (e0 + np.exp(1j * theta) * e1) / math.sqrt(2.0)
        assert np.max(np.abs(built - manual)) < 1e-12


def test_phase_superposition_rejects_parallel():
    psi = sq.coherent_state(0.5, 30)
    with pytest.raises(DegeneracyError):
        sq.phase_superposition(psi, psi * np.exp(0.3j), 0.2)


def test_cat_localization_vs_phase(spectral_05, quadratures_400):
    ring, scales, h, res = spectral_05
    x_op, _ = quadratures_400
    s, a = sq.parity_pair(res, ring, scales)
    wells = sq.find_potential_wells(ring, scales)
    x_well = wells[0].position

    left = sq.phase_superposition(s, a, 0.0)
    mean_left = expectation(x_op, left).real
    assert abs(mean_left) > 0.8 * abs(x_well)
    assert mean_left < 0.0  # sign convention: theta = 0 is the left well

    right = sq.phase_superposition(s, a, math.pi)
    assert expectation(x_op, right).real == pytest.approx(-mean_left, abs=1e-8)

    balanced = sq.phase_superposition(s, a, math.pi / 2.0)
    assert expectation(x_op, balanced).real == pytest.approx(0.0, abs=1e-8)


def test_parity_pair_members_are_parity_eigenstates(spectral_05):
    ring, scales, h, res = spectral_05
    s, a = sq.parity_pair(res, ring, scales)
    par = parity_operator(400)
    assert expectation(par, s).real == pytest.approx(1.0, abs=1e-10)
    assert expectation(par, a).real == pytest.approx(-1.0, abs=1e-10)
    # a real member's sign fix is an exact +-1: no rescaling by 1 - 2**-53
    for member, col in ((s, res.eigenvectors[:, 0]), (a, res.eigenvectors[:, 1])):
        assert any(np.array_equal(member, sign * col) for sign in (1.0, -1.0))


def test_parity_pair_needs_double_well():
    ring = sq.standard_ring(0.0)
    scales = sq.derive_scales(ring)
    h = sq.build_fock_hamiltonian(ring, scales, 120)
    res = sq.eigensolve(h, 2)
    with pytest.raises(ParameterError):
        sq.parity_pair(res, ring, scales)


def test_classification_at_049(spectral_049):
    ring, scales, h, res = spectral_049
    cls = sq.classify_well_states(res, ring, scales)
    assert len(cls.wells) == 2
    first, second = cls.labels[0], cls.labels[1]
    assert first.kind == "localized" and second.kind == "localized"
    assert {first.well_index, second.well_index} == {0, 1}
    assert first.level_ordinal == 0 and second.level_ordinal == 0
    # the deeper well holds the ground state
    deeper = min(range(2), key=lambda w: cls.wells[w].energy)
    assert first.well_index == deeper


def test_classification_mean_within_turning_points(spectral_049, quadratures_400):
    ring, scales, h, res = spectral_049
    cls = sq.classify_well_states(res, ring, scales)
    x_op, _ = quadratures_400
    for label in cls.labels:
        v = res.eigenvectors[:, label.state_index]
        assert label.mean_x == pytest.approx(expectation(x_op, v).real, abs=1e-12)
    for label in (l for l in cls.labels if l.kind == "localized"):
        u_at_mean = sq.potential_energy_scaled(label.mean_x, ring, scales)
        assert u_at_mean < label.energy


def test_classification_pair_at_05(spectral_05):
    ring, scales, h, res = spectral_05
    cls = sq.classify_well_states(res, ring, scales)
    lowest = cls.labels[0], cls.labels[1]
    assert all(l.kind == "pair" for l in lowest)
    assert {lowest[0].role, lowest[1].role} == {"s", "a"}
    assert lowest[0].role == "s"  # bonding member lies lower
    for label in lowest:
        assert abs(label.mean_x) < 1e-6


def test_classification_above_barrier_is_delocalized(spectral_049):
    ring, scales, h, res = spectral_049
    cls = sq.classify_well_states(res, ring, scales)
    top = max(b[1] for b in cls.barriers)
    for label in cls.labels:
        if label.energy >= top:
            assert label.kind == "delocalized"


def test_friedman_marked_pair_ordinals():
    ring = sq.friedman_ring()
    scales = sq.derive_scales(ring)
    h = sq.build_fock_hamiltonian(ring, scales, 400)
    res = sq.eigensolve(h)
    cls = sq.classify_well_states(res, ring, scales)
    pairs = cls.pairs()
    assert pairs, "no tunnelling doublet found below the barrier"
    # regression: the resonant doublet joins unequal ordinals of the two wells
    best = pairs[0]
    assert (best.state_index, best.partner) in {(12, 13), (13, 12)}
    assert dict(best.ordinals) == {0: 3, 1: 9}


# (kind, role, partner, well_index, level_ordinal) of every label below the
# barrier top at dim 400, recorded before classify_well_states evaluated all
# levels in one call; every higher level is "delocalized"
_LOC = "localized"
FRIEDMAN_LABELS = [
    (_LOC, "", -1, 1, 0), (_LOC, "", -1, 1, 1), (_LOC, "", -1, 1, 2),
    (_LOC, "", -1, 1, 3), (_LOC, "", -1, 1, 4), (_LOC, "", -1, 1, 5),
    (_LOC, "", -1, 1, 6), (_LOC, "", -1, 0, 0), (_LOC, "", -1, 1, 7),
    (_LOC, "", -1, 0, 1), (_LOC, "", -1, 1, 8), (_LOC, "", -1, 0, 2),
    ("pair", "s", 13, -1, -1), ("pair", "a", 12, -1, -1),
]
STANDARD_049_LABELS = [
    (_LOC, "", -1, 0, 0), (_LOC, "", -1, 1, 0), (_LOC, "", -1, 0, 1),
    (_LOC, "", -1, 1, 1), (_LOC, "", -1, 0, 2),
]
STANDARD_05_LABELS = [
    ("pair", "s", 1, -1, -1), ("pair", "a", 0, -1, -1),
    ("pair", "s", 3, -1, -1), ("pair", "a", 2, -1, -1),
    ("pair", "s", 5, -1, -1), ("pair", "a", 4, -1, -1),
]


# (lower member, its role, partner, ordinals) of every doublet at dim 400.
# On the squeeze ring at bias 0.5 reflection symmetry overrules energy
# order for the seven doublets whose lower member is "a"; its last three
# doublets live in the outer wells 0 and 3
STANDARD_05_DOUBLETS = [
    (0, "s", 1, ((0, 0), (1, 0))), (2, "s", 3, ((0, 1), (1, 1))),
    (4, "s", 5, ((0, 2), (1, 2))),
]
SQUEEZE_025_DOUBLETS = [
    (46, "s", 47, ((1, 30), (2, 16))), (88, "s", 89, ((0, 5), (1, 65))),
]
SQUEEZE_05_DOUBLETS = [
    (0, "s", 1, ((1, 0), (2, 0))), (2, "s", 3, ((1, 1), (2, 1))),
    (4, "s", 5, ((1, 2), (2, 2))), (6, "a", 7, ((1, 3), (2, 3))),
    (8, "a", 9, ((1, 4), (2, 4))), (10, "s", 11, ((1, 5), (2, 5))),
    (12, "a", 13, ((1, 6), (2, 6))), (14, "s", 15, ((1, 7), (2, 7))),
    (16, "s", 17, ((1, 8), (2, 8))), (18, "s", 19, ((1, 9), (2, 9))),
    (20, "a", 21, ((1, 10), (2, 10))), (22, "s", 23, ((1, 11), (2, 11))),
    (24, "s", 25, ((1, 12), (2, 12))), (26, "s", 27, ((1, 13), (2, 13))),
    (28, "s", 29, ((1, 14), (2, 14))), (30, "s", 31, ((1, 15), (2, 15))),
    (32, "s", 33, ((1, 16), (2, 16))), (34, "s", 35, ((1, 17), (2, 17))),
    (36, "s", 37, ((1, 18), (2, 18))), (38, "s", 39, ((1, 19), (2, 19))),
    (40, "s", 41, ((1, 20), (2, 20))), (42, "s", 43, ((1, 21), (2, 21))),
    (44, "s", 45, ((1, 22), (2, 22))), (113, "a", 114, ((0, 0), (3, 0))),
    (117, "a", 118, ((0, 1), (3, 1))), (121, "a", 122, ((0, 2), (3, 2))),
]
# the three wells lie at -11.559, 0 and 11.559; every doublet joins the
# outer two, across the middle well that holds at most 3 % of its mass
SQUEEZE_0_DOUBLETS = [
    (27, "s", 28, ((0, 0), (2, 0))), (33, "a", 34, ((0, 2), (2, 2))),
    (37, "a", 38, ((0, 3), (2, 3))), (40, "s", 41, ((0, 4), (2, 4))),
    (43, "a", 44, ((0, 5), (2, 5))), (47, "a", 48, ((0, 6), (2, 6))),
    (50, "s", 51, ((0, 7), (2, 7))), (53, "a", 54, ((0, 8), (2, 8))),
    (57, "a", 58, ((0, 9), (2, 9))), (60, "s", 61, ((0, 10), (2, 10))),
]


@pytest.mark.parametrize("ring, expected, doublets", [
    (sq.friedman_ring(), FRIEDMAN_LABELS, [(12, "s", 13, ((0, 3), (1, 9)))]),
    (sq.standard_ring(), [], []),
    (sq.standard_ring(0.49), STANDARD_049_LABELS, []),
    (sq.standard_ring(0.5), STANDARD_05_LABELS, STANDARD_05_DOUBLETS),
    (sq.squeeze_ring(0.25), None, SQUEEZE_025_DOUBLETS),
    (sq.squeeze_ring(0.5), None, SQUEEZE_05_DOUBLETS),
    (sq.squeeze_ring(0.0), None, SQUEEZE_0_DOUBLETS),
], ids=["friedman", "standard", "standard-0.49", "standard-0.5",
        "squeeze-0.25", "squeeze-0.5", "squeeze-0"])
def test_classification_labels_are_unchanged(ring, expected, doublets):
    scales = sq.derive_scales(ring)
    res = sq.eigensolve(sq.build_fock_hamiltonian(ring, scales, 400))
    classification = sq.classify_well_states(res, ring, scales)
    assert len(classification.labels) == 400
    if expected is not None:
        labels = [(l.kind, l.role, l.partner, l.well_index, l.level_ordinal)
                  for l in classification.labels]
        n = len(expected)
        assert labels[:n] == expected
        assert all(label[0] == "delocalized" for label in labels[n:])
    pairs = {l.state_index: l for l in classification.pairs()}
    assert [(l.state_index, l.role, l.partner, l.ordinals)
            for l in pairs.values() if l.state_index < l.partner] == doublets
    assert len(pairs) == 2 * len(doublets)
    for lower, role, upper, ordinals in doublets:
        other = {"s": "a", "a": "s"}[role]
        assert (pairs[upper].role, pairs[upper].partner,
                pairs[upper].ordinals) == (other, lower, ordinals)


@pytest.mark.parametrize("ring", [
    sq.squeeze_ring(0.0), sq.squeeze_ring(0.25), sq.squeeze_ring(0.5),
    sq.friedman_ring(),
], ids=["squeeze-0", "squeeze-0.25", "squeeze-0.5", "friedman"])
def test_doublets_join_wells_that_hold_both_members(ring):
    """Each well a pair label names holds more than MIXING_FLOOR of both
    members' mass, summed over the basin between the potential maxima on
    either side of the well on a grid of this test's own."""
    scales = sq.derive_scales(ring)
    res = sq.eigensolve(sq.build_fock_hamiltonian(ring, scales, 400))
    classification = sq.classify_well_states(res, ring, scales)
    x = np.linspace(-28.0, 28.0, 8001)
    u = sq.potential_energy_scaled(x, ring, scales)
    maxima = x[1:-1][(u[1:-1] > u[:-2]) & (u[1:-1] > u[2:])]
    assert len(maxima) + 1 == len(classification.wells)
    basin = np.searchsorted(maxima, x)
    pairs = classification.pairs()
    assert pairs
    for label in pairs:
        density = np.abs(sq.position_wavefunction(
            res.eigenvectors[:, [label.state_index, label.partner]], x)) ** 2
        for well, _ in label.ordinals:
            masses = density[basin == well].sum(axis=0) / density.sum(axis=0)
            assert masses.min() > MIXING_FLOOR, (label.state_index, well)


def test_classification_of_a_far_doublet_does_not_warn():
    """The reflection window of a doublet whose midpoint lies far from the
    origin stays inside the truncation-supported region."""
    ring = sq.squeeze_ring(0.25)
    scales = sq.derive_scales(ring)
    res = sq.eigensolve(sq.build_fock_hamiltonian(ring, scales, 400))
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        classification = sq.classify_well_states(res, ring, scales)
    assert classification.pairs()


def test_well_state_variances(spectral_049, quadratures_400):
    ring, scales, h, res = spectral_049
    x_op, p_op = quadratures_400
    x2, p2 = x_op @ x_op, p_op @ p_op

    def variances(col):
        v = res.eigenvectors[:, col]
        mx = expectation(x_op, v).real
        mp = expectation(p_op, v).real
        return (expectation(x2, v).real - mx**2,
                expectation(p2, v).real - mp**2)

    vx0, vp0 = variances(0)  # deeper well: the published squeezing figures
    assert vx0 == pytest.approx(0.43, abs=0.02)
    assert vp0 == pytest.approx(0.58, abs=0.02)

    vx1, vp1 = variances(1)  # shallower well: squeezed too, but less in flux
    assert vx1 < 0.5
    assert vx1 == pytest.approx(0.4731, abs=5e-3)
    assert vp1 == pytest.approx(0.5379, abs=5e-3)


def test_uncertainty_floor(spectral_049):
    ring, scales, h, res = spectral_049
    states = [sq.fock_state(0, 400), sq.fock_state(3, 400),
              sq.coherent_state(1j, 400),
              res.eigenvectors[:, 0].astype(complex),
              sq.phase_superposition(res.eigenvectors[:, 0],
                                     res.eigenvectors[:, 1], 0.3)]
    for psi in states:
        obs = moments(psi)
        assert obs.var_x * obs.var_p >= 0.25 - 1e-8
