"""Energies scale linearly with the declared coupling over 18 decades.

Every model is rebuilt with all its couplings multiplied by c = 10^e.
Energies must equal c times the c = 1 values within 1e-9 c, and angles
must not move beyond 1e-12.
"""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qetsim import chain, core, ising, minimal
from qetsim.chain import Channel, ChainModel, ChainProtocolSpec
from qetsim.core import LocalOperator

EXPONENTS = st.integers(-9, 9)


def _chain_energies(model, site_a, site_b):
    g_b = LocalOperator((site_b,), core.PAULI_Y)
    eta, xi = chain.eta_xi(model, core.pauli_component((1.0, 0, 0), site_a), g_b)
    theta, _ = chain.optimal_angle(eta, xi)
    meas = core.projective_pauli_measurement((1.0, 0, 0), site_a)
    run = chain.run_protocol(
        model, ChainProtocolSpec(site_a, site_b, meas, g_b, theta))
    e_r = chain.residual_energy(model, site_a, meas, n_starts=2).e_r
    return {"E_A": run.e_a, "E_B": run.e_b, "eta": eta, "xi": xi,
            "E_r": e_r}, theta


@functools.cache
def _complex6():
    return chain.random_chain_model(6, np.random.default_rng(11), n_channels=2)


def _scaled_chain(model, c):
    return chain.normalize(ChainModel(
        model.n_sites, model.boundary, tuple(c * x for x in model.x_ops),
        tuple(Channel(ch.y_ops, tuple(c * g for g in ch.couplings))
              for ch in model.channels),
        tuple(c * s for s in model.shifts)))


@functools.cache
def _energies(kind, exponent):
    c = 10.0**exponent
    if kind == "ising8":
        return _chain_energies(ising.build(ising.IsingParams(c, 8)), 0, 4)
    if kind == "complex6":
        return _chain_energies(_scaled_chain(_complex6(), c), 0, 3)
    params = minimal.MinimalParams(c, c)
    theta, e_b_max = minimal.optimize(params)
    run = minimal.run_protocol(params, theta)
    return {"E_A": run.e_a, "E_B": run.e_b, "E_B_max": e_b_max}, theta


def _assert_linear(kind, exponent):
    c = 10.0**exponent
    (unit, theta_unit), (got, theta) = _energies(kind, 0), _energies(kind, exponent)
    for key, value in unit.items():
        assert abs(got[key] - c * value) <= 1e-9 * c, key
    assert abs(theta - theta_unit) <= 1e-12


@settings(max_examples=6)
@example(-9)
@example(9)
@given(EXPONENTS)
def test_ising8_scales_linearly(exponent):
    _assert_linear("ising8", exponent)


@settings(max_examples=6)
@example(-9)
@example(9)
@given(EXPONENTS)
def test_complex_chain_scales_linearly(exponent):
    assert np.iscomplexobj(_complex6().hamiltonian)
    _assert_linear("complex6", exponent)


@settings(max_examples=10)
@example(-9)
@example(9)
@example(-170)  # h*h and k*k underflow; the closed forms must not
@given(EXPONENTS)
def test_minimal_scales_linearly(exponent):
    _assert_linear("minimal", exponent)
