"""Link-physics tests against an independent enumeration oracle."""

import math
import random
from itertools import product
from math import comb

import numpy as np
import pytest

from qsatnet import linkphys
from qsatnet.errors import ConfigurationError
from qsatnet.linkphys import (
    ArmChannel,
    OpticsParams,
    SourceParams,
    acceptance_and_bell_weights,
    arm_transmissivity,
    dark_click_prob,
    emission_prob,
    end_to_end_outcome,
    free_space_transmissivity,
    rate_fidelity_curve,
    reflection_arms,
)

from oracles import emission_tail


def oracle_outcome(ns, eta1, eta2, d1, d2):
    """Exhaustive enumeration over placements, survivals, and dark clicks.

    Independent of the production code path: the package computes per-side
    one-click probabilities in closed form, while this walks every joint
    outcome in the truncated space.
    """
    weights = {n: (n + 1) * ns**n / (ns + 1.0) ** (n + 2) for n in range(3)}
    norm = sum(weights.values())
    placements = [
        (0, (0, 0, 0, 0)),
        (1, (1, 0, 0, 1)),
        (1, (0, 1, 1, 0)),
        (2, (2, 0, 0, 2)),
        (2, (1, 1, 1, 1)),
        (2, (0, 2, 2, 0)),
    ]
    counts = {0: 1, 1: 2, 2: 3}
    success = 0.0
    bell = 0.0
    for n, rails in placements:
        base = weights[n] / counts[n] / norm
        etas = (eta1, eta1, eta2, eta2)
        for survivors in product(*[range(m + 1) for m in rails]):
            sp = base
            for m, k, eta in zip(rails, survivors, etas):
                sp *= comb(m, k) * eta**k * (1.0 - eta) ** (m - k)
            if sp == 0.0:
                continue
            for darks in product((0, 1), repeat=4):
                dp = sp
                for dprob, dk in zip((d1, d1, d2, d2), darks):
                    dp *= dprob if dk else (1.0 - dprob)
                clicks = [k > 0 or dk for k, dk in zip(survivors, darks)]
                if sum(clicks[:2]) == 1 and sum(clicks[2:]) == 1:
                    success += dp
                    if n == 1 and sum(survivors) == 2 and not any(darks):
                        bell += dp
    fid = bell / success if success > 0 else 0.0
    return success, fid


def outcome(ns, eta1, eta2, d1, d2, rep=1e9):
    src = SourceParams(mean_photon_number=ns, repetition_rate=rep)
    return end_to_end_outcome(
        src, ArmChannel(eta1, d1), ArmChannel(eta2, d2)
    )


def test_emission_prob_vacuum_source():
    assert emission_prob(0.0, 0) == 1.0
    assert emission_prob(0.0, 1) == 0.0
    assert emission_prob(0.0, 5) == 0.0


def test_emission_prob_operating_point():
    assert emission_prob(0.0078, 0) == pytest.approx(0.98458, abs=1e-5)
    assert emission_prob(0.0078, 1) == pytest.approx(0.015240, abs=1e-6)
    assert emission_prob(0.0078, 2) == pytest.approx(1.7694e-4, abs=1e-8)


def test_emission_normalization_with_tail():
    for ns in (0.0, 1e-4, 0.0078, 0.1, 0.9, 3.0):
        for k in (1, 2, 5, 10):
            partial = sum(emission_prob(ns, n) for n in range(k + 1))
            assert partial + emission_tail(ns, k) == pytest.approx(1.0, abs=1e-12)


def test_emission_partial_sums_monotone():
    ns = 0.3
    sums = []
    total = 0.0
    for n in range(30):
        total += emission_prob(ns, n)
        sums.append(total)
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    assert sums[-1] == pytest.approx(1.0, abs=1e-9)


TABLE_OPTICS = OpticsParams(
    tx_radius=0.1, rx_radius=1.0, wavelength=737e-9, tx_efficiency=0.7, rx_efficiency=0.7
)


def test_free_space_transmissivity_value():
    assert free_space_transmissivity(TABLE_OPTICS, 1_000_000.0) == pytest.approx(
        0.1817, abs=1e-3
    )


def test_free_space_inverse_square():
    t1 = free_space_transmissivity(TABLE_OPTICS, 2_000_000.0)
    t2 = free_space_transmissivity(TABLE_OPTICS, 4_000_000.0)
    assert t2 == pytest.approx(t1 / 4.0, rel=1e-12)


def test_free_space_clamp():
    assert free_space_transmissivity(TABLE_OPTICS, 1.0) == 1.0


def test_arm_transmissivity_product():
    assert arm_transmissivity(0.1817, 0.8, 0.7, 0.7) == pytest.approx(0.07123, abs=1e-4)
    assert arm_transmissivity(0.5, 0.0, 0.9, 0.9) == 0.0
    assert arm_transmissivity(1.0, 1.0, 1.0, 1.0) == 1.0


def test_dark_click_night_sky():
    assert dark_click_prob(0.0, 1e-9, 1.0, 1e-10, 1.0, 737e-9) == 0.0


def test_dark_click_reference_value():
    p = dark_click_prob(1.0, 1e-9, 1.0, 1e-10, 1.0, 737e-9)
    assert p == pytest.approx(1.165e-2, abs=1e-4)


def test_dark_click_linear_below_clamp():
    p1 = dark_click_prob(0.5, 1e-9, 1.0, 1e-10, 1.0, 737e-9)
    p2 = dark_click_prob(1.0, 1e-9, 1.0, 1e-10, 1.0, 737e-9)
    assert p2 == pytest.approx(2.0 * p1, rel=1e-12)
    assert dark_click_prob(1e9, 1e-9, 1.0, 1e-10, 1.0, 737e-9) == 1.0


def test_source_fidelity_lossless():
    out = outcome(0.0078, 1.0, 1.0, 0.0, 0.0)
    assert out.fidelity == pytest.approx(0.99, abs=0.005)
    # frozen from the enumeration oracle
    assert out.fidelity == pytest.approx(0.9923198109491926, abs=1e-12)
    assert out.success_prob == pytest.approx(0.015358566242221624, abs=1e-12)


def test_fidelity_limit_weak_pump():
    out = outcome(1e-6, 0.3, 0.7, 0.0, 0.0)
    assert out.fidelity == pytest.approx(1.0, abs=1e-3)


def test_end_to_end_matches_oracle_reference_point():
    out = outcome(0.0078, 0.05, 0.05, 0.0, 0.0)
    # frozen from the enumeration oracle
    assert out.success_prob == pytest.approx(3.9755129254865005e-05, abs=1e-10)
    assert out.fidelity == pytest.approx(0.9584052319529911, abs=1e-10)
    s_oracle, f_oracle = oracle_outcome(0.0078, 0.05, 0.05, 0.0, 0.0)
    assert out.success_prob == pytest.approx(s_oracle, abs=1e-10)
    assert out.fidelity == pytest.approx(f_oracle, abs=1e-10)


def test_oracle_equivalence_random_draws():
    rng = random.Random(20240811)
    for _ in range(100):
        ns = rng.uniform(0.0, 0.1)
        e1, e2 = rng.random(), rng.random()
        d1, d2 = rng.uniform(0, 0.3), rng.uniform(0, 0.3)
        out = outcome(ns, e1, e2, d1, d2)
        s_oracle, f_oracle = oracle_outcome(ns, e1, e2, d1, d2)
        assert out.success_prob == pytest.approx(s_oracle, abs=1e-10)
        assert out.fidelity == pytest.approx(f_oracle, abs=1e-10)


def test_probabilities_stay_physical():
    rng = random.Random(7)
    for _ in range(1000):
        ns = rng.uniform(0.0, 2.0)
        out = outcome(ns, rng.random(), rng.random(), rng.random(), rng.random())
        assert 0.0 <= out.success_prob <= 1.0
        assert 0.0 <= out.fidelity <= 1.0


def test_success_monotone_in_transmissivity():
    grid = [i / 10 for i in range(11)]
    for pd in (0.0, 0.01):
        for e2 in grid:
            succ = [outcome(0.0078, e1, e2, pd, pd).success_prob for e1 in grid]
            assert all(b >= a - 1e-15 for a, b in zip(succ, succ[1:]))
        for e1 in grid:
            succ = [outcome(0.0078, e1, e2, pd, pd).success_prob for e2 in grid]
            assert all(b >= a - 1e-15 for a, b in zip(succ, succ[1:]))


def test_fidelity_monotone_in_dark_clicks():
    grid = [i / 10 for i in range(11)]
    for eta in (0.07, 0.5, 1.0):
        for d2 in grid:
            fid = [outcome(0.0078, eta, eta, d1, d2).fidelity for d1 in grid]
            assert all(b <= a + 1e-12 for a, b in zip(fid, fid[1:]))
        for d1 in grid:
            fid = [outcome(0.0078, eta, eta, d1, d2).fidelity for d2 in grid]
            assert all(b <= a + 1e-12 for a, b in zip(fid, fid[1:]))


def test_broadcast_weights_equal_scalar_outcomes_bit_for_bit():
    # random draws, where float pow and a*a disagree on some squares, plus
    # every combination of the edge values eta in {0, 1} and dark in {0, 1}
    rng = random.Random(20261018)
    draws = [
        (rng.random(), rng.random(), rng.uniform(0, 0.3), rng.uniform(0, 0.3))
        for _ in range(2000)
    ]
    draws += list(product((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)))
    draws += [(e, rng.random(), d, rng.random()) for e, d in product((0.0, 1.0), repeat=2)]
    eta1, eta2, dark1, dark2 = (np.array(column) for column in zip(*draws))
    for ns in (0.0, 0.0078, 0.6):
        source = SourceParams(mean_photon_number=ns, repetition_rate=1e9)
        success, bell = acceptance_and_bell_weights(ns, eta1, eta2, dark1, dark2)
        assert success.shape == bell.shape == (len(draws),)
        for (e1, e2, d1, d2), s, b in zip(draws, success.tolist(), bell.tolist()):
            out = end_to_end_outcome(source, ArmChannel(e1, d1), ArmChannel(e2, d2))
            assert s == out.success_prob
            assert (b / s if s > 0.0 else 0.0) == out.fidelity
            assert 1e9 * s == out.edr


def _per_call_weights(ns, eta1, eta2, dark1, dark2):
    """acceptance_and_bell_weights with its source terms taken on every
    call, as the reference for the memoized terms."""
    probs = [emission_prob(ns, n) for n in (0, 1, 2)]
    norm = probs[0] + probs[1] + probs[2]
    survive1, survive2 = 1.0 - dark1, 1.0 - dark2
    side1 = linkphys._one_click_probs(eta1, survive1)
    side2 = linkphys._one_click_probs(eta2, survive2)
    success = 0.0
    for n, rails1, rails2, split in linkphys._PATTERNS:
        success = success + probs[n] / split * side1[rails1] * side2[rails2]
    success = success / norm
    bell = probs[1] / norm * eta1 * eta2 * linkphys._square(survive1 * survive2)
    return success, bell


def test_memoized_source_terms_equal_the_per_call_formula():
    # each mean photon number twice, interleaved with values equal to it as
    # dict keys: 0.0 and -0.0 differ in the sign of the Bell weight, an int
    # and its float in the type of the emission terms
    rng = random.Random(29)
    numbers = [0.0, -0.0, 0, 1, 1.0, np.float64(0.0078), 0.0078, 0.6, 7.5]
    for ns in numbers + numbers[::-1]:
        for _ in range(20):
            args = (rng.random(), rng.random(), rng.uniform(0, 0.3), rng.random() / 4)
            got = acceptance_and_bell_weights(ns, *args)
            assert repr(got) == repr(_per_call_weights(ns, *args))


def test_edr_equals_rate_times_success():
    out = outcome(0.0078, 0.3, 0.4, 0.001, 0.002, rep=1e9)
    assert out.edr == 1e9 * out.success_prob


def test_reflection_arms_lossless_relay():
    direct = ArmChannel(0.123, 0.004)
    other = ArmChannel(0.456, 0.007)
    a1, a2 = reflection_arms(direct, 1.0, 1.0, other)
    assert a1 == direct
    assert a2 == other


def test_reflection_arms_composition():
    relay = ArmChannel(0.5, 0.0)
    _, a2 = reflection_arms(ArmChannel(1.0, 0.0), 0.8, 0.9, relay)
    assert a2.transmissivity == pytest.approx(0.8 * 0.9 * 0.5, rel=1e-12)
    _, dead = reflection_arms(ArmChannel(1.0, 0.0), 0.0, 0.9, relay)
    assert dead.transmissivity == 0.0


def test_reflection_arm_keeps_receiver_dark_clicks():
    relay = ArmChannel(0.5, 0.031)
    _, a2 = reflection_arms(ArmChannel(1.0, 0.002), 0.7, 0.9, relay)
    assert a2.dark_click_prob == 0.031


def test_rate_fidelity_single_point_consistency():
    arm1, arm2 = ArmChannel(0.05, 1e-6), ArmChannel(0.3, 1e-6)
    curve = rate_fidelity_curve([0.0078], arm1, arm2, repetition_rate=1e9)
    out = outcome(0.0078, 0.05, 0.3, 1e-6, 1e-6)
    assert curve == [(0.0078, out.edr, out.fidelity)]


def test_rate_fidelity_tradeoff_shape():
    grid = [10 ** (-4 + 3 * i / 19) for i in range(20)]
    for arms in (
        (ArmChannel(1.0, 0.0), ArmChannel(1.0, 0.0)),
        (ArmChannel(0.05, 1e-6), ArmChannel(0.3, 1e-6)),
    ):
        curve = rate_fidelity_curve(grid, *arms)
        edrs = [pt[1] for pt in curve]
        fids = [pt[2] for pt in curve]
        assert all(b > a for a, b in zip(edrs, edrs[1:]))
        assert all(b < a for a, b in zip(fids, fids[1:]))


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        SourceParams(-0.1, 1e9)
    with pytest.raises(ConfigurationError):
        SourceParams(0.1, 0.0)
    with pytest.raises(ConfigurationError):
        ArmChannel(1.2, 0.0)
    with pytest.raises(ConfigurationError):
        ArmChannel(0.5, -0.1)
    with pytest.raises(ConfigurationError):
        OpticsParams(0.0, 1.0, 737e-9, 0.7, 0.7)
    with pytest.raises(ConfigurationError):
        emission_prob(0.1, -1)
    with pytest.raises(ConfigurationError):
        free_space_transmissivity(TABLE_OPTICS, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_source_rejects_non_finite_values(value):
    with pytest.raises(ConfigurationError, match="mean_photon_number .* must be finite"):
        SourceParams(value, 1e9)
    with pytest.raises(ConfigurationError, match="repetition_rate .* must be finite"):
        SourceParams(0.1, value)


@pytest.mark.parametrize("ns", [1e78, 1e150, 1e300])
def test_overflowing_emission_is_a_configuration_error(ns):
    # (ns + 1) ** 4 leaves the float range a little above ns = 1.3e77
    with pytest.raises(ConfigurationError, match="emission probabilities overflow"):
        end_to_end_outcome(SourceParams(ns, 1e9), ArmChannel(1.0, 0.0), ArmChannel(1.0, 0.0))
