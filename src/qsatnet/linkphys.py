"""Photon-pair link physics: source statistics, channel loss, and detection.

The source emits polarization-entangled photon pairs with thermal pair-number
statistics.  Each emission round sends one rail pair toward each of two
receivers through independent lossy arms; every receiver gates two threshold
detectors, and a round is accepted when each receiver sees exactly one click.
All functions here are pure.

``acceptance_and_bell_weights`` is one formula for scalars and for numpy
arrays: ``end_to_end_outcome`` prices a single link through it; the
weight builders price a whole block of slots' direct links through it
in one broadcast call, and a slot's relayed candidates one call per
candidate on floats when they are few and in one broadcast call when
they are many.  The two give bit-identical results because every step is
a basic IEEE operation in the same order, except the squares: a Python
``float ** 2`` calls the C library's ``pow``, while numpy's ``a ** 2`` is
``a * a``, and the two can differ in the last ulp.  Arrays are therefore
squared element by element with ``math.pow``, the same C ``pow``
(``_square``).  The terms that depend on the source alone are taken once
per mean photon number (``_source_terms``), and the aperture product once
per ``OpticsParams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat

import numpy as np

from .errors import ConfigurationError

PLANCK = 6.62607015e-34  # J s
LIGHT_SPEED = 2.99792458e8  # m/s

# Photon counts (m1, m2) on a side's two rails; _one_click_probs prices
# each of these once per side.
_RAIL_COUNTS = ((0, 0), (0, 1), (0, 2), (1, 1))

# Photon placement per emitted-pair count, as (side-1 rails, side-2 rails),
# each an index into _RAIL_COUNTS.  One pair feeds anti-correlated rails,
# (1, 0; 0, 1) or (0, 1; 1, 0); two pairs populate the three symmetric
# placements (2, 0; 0, 2), (1, 1; 1, 1) and (0, 2; 2, 0).  The one-click
# probability is symmetric in a side's two rails bit for bit (IEEE sums
# commute), so (1, 0) prices as (0, 1).  Weights divide the n-pair
# probability evenly.
_PATTERNS = (
    (0, 0, 0, 1),
    (1, 1, 1, 2),
    (1, 1, 1, 2),
    (2, 2, 2, 3),
    (2, 3, 3, 3),
    (2, 2, 2, 3),
)


@dataclass(frozen=True)
class SourceParams:
    """Pair source settings: mean photon number per mode and attempt rate."""

    mean_photon_number: float
    repetition_rate: float

    def __post_init__(self):
        for name in ("mean_photon_number", "repetition_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} {getattr(self, name)} must be finite")
        if self.mean_photon_number < 0:
            raise ConfigurationError("mean_photon_number must be >= 0")
        if self.repetition_rate <= 0:
            raise ConfigurationError("repetition_rate must be > 0")


@dataclass(frozen=True)
class ArmChannel:
    """One downlink arm: survival probability and per-gate dark-click probability."""

    transmissivity: float
    dark_click_prob: float

    def __post_init__(self):
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ConfigurationError("transmissivity must be in [0, 1]")
        if not 0.0 <= self.dark_click_prob <= 1.0:
            raise ConfigurationError("dark_click_prob must be in [0, 1]")


@dataclass(frozen=True)
class OpticsParams:
    """Apertures, wavelength, and device efficiencies of a downlink."""

    tx_radius: float
    rx_radius: float
    wavelength: float
    tx_efficiency: float
    rx_efficiency: float

    def __post_init__(self):
        if self.tx_radius <= 0 or self.rx_radius <= 0 or self.wavelength <= 0:
            raise ConfigurationError("radii and wavelength must be positive")
        for eff in (self.tx_efficiency, self.rx_efficiency):
            if not 0.0 <= eff <= 1.0:
                raise ConfigurationError("efficiencies must be in [0, 1]")

    @cached_property
    def aperture_product(self) -> float:
        """The two aperture areas multiplied, (pi rT^2)(pi rR^2)."""
        return (math.pi * self.tx_radius**2) * (math.pi * self.rx_radius**2)


@dataclass(frozen=True)
class PairOutcome:
    """Per-attempt acceptance probability, delivered fidelity, and rate."""

    success_prob: float
    fidelity: float
    edr: float


def emission_prob(mean_photon_number: float, n: int) -> float:
    """Probability that one round emits exactly n photon pairs."""
    if mean_photon_number < 0:
        raise ConfigurationError("mean_photon_number must be >= 0")
    if n < 0:
        raise ConfigurationError("pair count must be >= 0")
    ns = mean_photon_number
    try:
        return (n + 1) * ns**n / (ns + 1.0) ** (n + 2)
    except OverflowError:
        raise ConfigurationError(
            f"mean_photon_number {ns}: emission probabilities overflow"
        ) from None


def free_space_transmissivity(optics: OpticsParams, slant_range: float) -> float:
    """Diffraction-limited survival over a free line of sight, clamped at 1.

    The far-field expression (pi rT^2)(pi rR^2)/(lambda s)^2 exceeds unity
    inside the near field, where essentially everything is collected.
    """
    if slant_range <= 0:
        raise ConfigurationError("slant_range must be positive")
    return min(1.0, optics.aperture_product / (optics.wavelength * slant_range) ** 2)


def arm_transmissivity(
    free_space: float, atmospheric: float, tx_efficiency: float, rx_efficiency: float
) -> float:
    """Total arm survival: product of the channel and device factors."""
    return free_space * atmospheric * tx_efficiency * rx_efficiency


def dark_click_prob(
    irradiance: float,
    gate: float,
    bandwidth: float,
    fov: float,
    rx_radius: float,
    wavelength: float,
) -> float:
    """Per-gate spurious-click probability from background sky radiance.

    irradiance is in uW cm^-2 sr^-1 nm^-1 (converted to SI internally);
    gate in seconds, bandwidth in nm, fov in steradians.  The expected
    background photon count in one gate is clamped to 1 as a probability.
    """
    if min(irradiance, gate, bandwidth, fov, rx_radius, wavelength) < 0:
        raise ConfigurationError("dark_click_prob inputs must be nonnegative")
    irr_si = irradiance * 1e-2  # uW/cm^2 -> W/m^2
    photon_energy = PLANCK * LIGHT_SPEED / wavelength
    flux = irr_si * gate * bandwidth * fov * math.pi * rx_radius**2 / photon_energy
    return min(1.0, flux)


def _square(q):
    # the C library's pow, element by element, as a Python float ** 2 is
    if isinstance(q, np.ndarray):
        flat = map(math.pow, q.ravel().tolist(), repeat(2.0))
        return np.fromiter(flat, float, q.size).reshape(q.shape)
    return q**2


def _one_click_probs(eta, survive_dark):
    # Per entry (m1, m2) of _RAIL_COUNTS, the probability that exactly one
    # of the side's two gated detectors fires.  A rail with m photons stays
    # silent with (1 - eta) ** m * (1 - dark); the powers 0 and 1 are exact
    # without pow.  survive_dark is 1 - dark.
    q = 1.0 - eta
    silent = (survive_dark, q * survive_dark, _square(q) * survive_dark)
    fired = [1.0 - s for s in silent]
    return [fired[m1] * silent[m2] + fired[m2] * silent[m1] for m1, m2 in _RAIL_COUNTS]


@lru_cache(maxsize=16, typed=True)
def _source_terms(mean_photon_number, zero_sign):
    # The channel-free terms of acceptance_and_bell_weights for one mean
    # photon number: the pattern weights probs[n] / split with their rail
    # indices, the emission norm, and the Bell prefactor probs[1] / norm.
    # zero_sign keeps 0.0 and -0.0, equal as keys, apart: they differ in
    # the sign of probs[1] and so of the prefactor.
    probs = [emission_prob(mean_photon_number, n) for n in (0, 1, 2)]
    norm = probs[0] + probs[1] + probs[2]
    patterns = tuple(
        (probs[n] / split, rails1, rails2) for n, rails1, rails2, split in _PATTERNS
    )
    return patterns, norm, probs[1] / norm


def acceptance_and_bell_weights(mean_photon_number, eta1, eta2, dark1, dark2):
    """Acceptance probability and the accepted true-pair weight per round.

    The emitted state is truncated at two pair-emissions and treated as a
    mixture over photon placements; each photon survives its arm
    independently with its arm's transmissivity; each of the four detectors
    adds an independent dark click.  Acceptance means exactly one click per
    side.  The Bell weight is the part of the accepted mass in which a
    single emitted pair survived intact with no dark click on any gate;
    anything else delivers a spurious state.

    The channel parameters may be floats or numpy arrays of one shape, and
    an array result equals the scalar results element by element, bit for
    bit: the squares go through the C library's ``pow`` on both paths, as
    numpy's own square may differ in the last ulp (see the module
    docstring).
    """
    patterns, norm, bell_prefactor = _source_terms(
        mean_photon_number, math.copysign(1.0, mean_photon_number)
    )
    survive1 = 1.0 - dark1
    survive2 = 1.0 - dark2
    side1 = _one_click_probs(eta1, survive1)
    side2 = _one_click_probs(eta2, survive2)
    success = 0.0
    for weight, rails1, rails2 in patterns:
        success = success + weight * side1[rails1] * side2[rails2]
    success = success / norm
    bell = bell_prefactor * eta1 * eta2 * _square(survive1 * survive2)
    return success, bell


def end_to_end_outcome(
    source: SourceParams, arm1: ArmChannel, arm2: ArmChannel
) -> PairOutcome:
    """Acceptance rate and conditional fidelity of one source-two-arm link.

    Fidelity is the probability, given acceptance, that the delivered state
    is the intact single-pair Bell state; zero when nothing is ever accepted.
    """
    success, bell = acceptance_and_bell_weights(
        source.mean_photon_number,
        arm1.transmissivity,
        arm2.transmissivity,
        arm1.dark_click_prob,
        arm2.dark_click_prob,
    )
    fidelity = bell / success if success > 0.0 else 0.0
    return PairOutcome(
        success_prob=success,
        fidelity=fidelity,
        edr=source.repetition_rate * success,
    )


def reflection_arms(
    src_to_gs1: ArmChannel,
    src_to_relay_free_space: float,
    mirror_efficiency: float,
    relay_to_gs2: ArmChannel,
) -> tuple[ArmChannel, ArmChannel]:
    """Compose the relayed second arm: source -> relay mirror -> station.

    Arm 1 is untouched.  Arm 2 multiplies the source-to-relay free-space
    factor, the mirror efficiency, and the relay-to-ground arm; its dark
    clicks are those of the receiving station's detector.
    """
    if not 0.0 <= src_to_relay_free_space <= 1.0:
        raise ConfigurationError("src_to_relay_free_space must be in [0, 1]")
    if not 0.0 <= mirror_efficiency <= 1.0:
        raise ConfigurationError("mirror_efficiency must be in [0, 1]")
    relayed = ArmChannel(
        transmissivity=src_to_relay_free_space
        * mirror_efficiency
        * relay_to_gs2.transmissivity,
        dark_click_prob=relay_to_gs2.dark_click_prob,
    )
    return src_to_gs1, relayed


def rate_fidelity_curve(
    ns_grid,
    arm1: ArmChannel,
    arm2: ArmChannel,
    repetition_rate: float = 1e9,
) -> list[tuple[float, float, float]]:
    """Evaluate (mean photon number, edr, fidelity) along a source-power grid."""
    curve = []
    for ns in ns_grid:
        source = SourceParams(
            mean_photon_number=float(ns), repetition_rate=repetition_rate
        )
        outcome = end_to_end_outcome(source, arm1, arm2)
        curve.append((float(ns), outcome.edr, outcome.fidelity))
    return curve
