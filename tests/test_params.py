import math

import numpy as np
import pytest

import squidsim as sq
from squidsim import CODATA2018, ParameterError, PhysicalConstants, SquidParams
from conftest import critical_current


def test_constant_set_is_internally_consistent():
    c = CODATA2018
    expected = math.pi * c.hbar / c.electron_charge
    assert abs(c.flux_quantum - expected) <= 1e-9 * expected


def test_inconsistent_constants_rejected():
    with pytest.raises(ParameterError):
        PhysicalConstants(flux_quantum=2.1e-15)


def test_standard_ring_scales():
    scales = sq.derive_scales(sq.standard_ring())
    assert scales.nu_over_omega == pytest.approx(7.9, rel=0.02)
    assert scales.c_omega == pytest.approx(4.1e-3, rel=0.02)
    assert scales.omega / (2 * math.pi) == pytest.approx(130e9, rel=0.01)
    assert scales.lc_period == pytest.approx(7.6e-12, rel=0.02)


def test_standard_ring_critical_current_near_2uA():
    ring = sq.standard_ring()
    assert critical_current(ring) == pytest.approx(2e-6, rel=0.02)


def test_friedman_scales_hand_arithmetic():
    # omega = 1/sqrt(L C), nu = Ic/(2e), k = (2 pi/Phi0) sqrt(hbar/(2 C omega)),
    # each evaluated independently with a calculator
    scales = sq.derive_scales(sq.friedman_ring())
    assert scales.omega / (2 * math.pi) == pytest.approx(32.146e9, rel=5e-4)
    assert scales.nu_over_omega == pytest.approx(31.210, rel=5e-4)
    assert scales.cosine_scale_k == pytest.approx(0.152972, rel=5e-4)


def test_zero_josephson_energy():
    base = sq.standard_ring()
    off = SquidParams(base.capacitance, base.inductance, 0.0)
    s_on = sq.derive_scales(base)
    s_off = sq.derive_scales(off)
    assert s_off.nu_over_omega == 0.0
    for name in ("omega", "c_omega", "cosine_scale_k", "x_per_weber",
                 "p_per_coulomb", "lc_period"):
        assert getattr(s_off, name) == getattr(s_on, name)


@pytest.mark.parametrize("kwargs", [
    dict(capacitance=-5e-15, inductance=3e-10, josephson_energy=1e-22),
    dict(capacitance=0.0, inductance=3e-10, josephson_energy=1e-22),
    dict(capacitance=5e-15, inductance=-3e-10, josephson_energy=1e-22),
    dict(capacitance=5e-15, inductance=3e-10, josephson_energy=-1e-22),
    dict(capacitance=5e-15, inductance=3e-10, josephson_energy=1e-22,
         bias_flux=float("nan")),
])
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ParameterError):
        SquidParams(**kwargs)


def test_critical_current_round_trip():
    ring = SquidParams.from_critical_current(1.03e-13, 2.38e-10, 2.02e-6)
    assert critical_current(ring) == pytest.approx(2.02e-6, rel=1e-12)


def test_flux_conversion_examples(standard_scales):
    x_quantum = CODATA2018.flux_quantum * standard_scales.x_per_weber
    assert x_quantum == pytest.approx(12.8659, rel=1e-4)
    assert x_quantum == pytest.approx(standard_scales.flux_quantum_in_x, rel=1e-12)


def test_cosine_argument_advances_2pi_per_flux_quantum(standard_scales):
    advance = (math.sqrt(2.0) * standard_scales.cosine_scale_k
               * CODATA2018.flux_quantum * standard_scales.x_per_weber)
    assert advance == pytest.approx(2 * math.pi, rel=1e-12)


def test_scale_invariance_of_dimensionless_hamiltonian():
    # scaling (C, L, E_J) -> (s C, s L, E_J / s) leaves nu/omega and C*omega
    # unchanged, so the dimensionless Hamiltonian must be identical
    base = sq.standard_ring(0.3)
    s = 2.7
    other = SquidParams(base.capacitance * s, base.inductance * s,
                        base.josephson_energy / s, base.bias_flux)
    sb = sq.derive_scales(base)
    so = sq.derive_scales(other)
    assert so.nu_over_omega == pytest.approx(sb.nu_over_omega, rel=1e-12)
    assert so.c_omega == pytest.approx(sb.c_omega, rel=1e-12)
    h_base = sq.build_fock_hamiltonian(base, sb, 60)
    h_other = sq.build_fock_hamiltonian(other, so, 60)
    assert np.max(np.abs(h_base - h_other)) <= 1e-12 * np.max(np.abs(h_base))
