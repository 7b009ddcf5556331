"""Polarization analyzers and coincidence counting.

Settings are pairs of analyzer orientations, one per detection arm.  An
orientation is either a named polarization (H, V, D, A, R, L) or a linear
polarizer angle in degrees.  Counts follow Poisson statistics on top of a
uniform accidental-coincidence floor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataError, OutOfRangeError, UnknownLabelError
from .qlinalg import check_hermitian, kron

_JONES = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "A": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "R": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
    "L": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
}

POLARIZATION_LABELS = tuple(_JONES)


def jones_vector(arm) -> np.ndarray:
    """Jones vector of a named polarization or a linear polarizer angle."""
    if isinstance(arm, str):
        try:
            return _JONES[arm].copy()
        except KeyError:
            raise UnknownLabelError(
                f"unknown polarization {arm!r}; expected one of "
                f"{', '.join(POLARIZATION_LABELS)} or an angle in degrees"
            ) from None
    theta = math.radians(float(arm))
    if not math.isfinite(theta):
        raise OutOfRangeError(f"polarizer angle {arm!r} is not finite")
    return np.array([math.cos(theta), math.sin(theta)], dtype=complex)


def projector(arm) -> np.ndarray:
    """Rank-one polarization projector for one analyzer arm."""
    v = jones_vector(arm)
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class AnalyzerSetting:
    """Analyzer orientations of the two arms; ``arm2 = None`` means the second
    arm carries no analyzer (heralded single-photon measurement)."""

    arm1: object
    arm2: object = None

    def projector(self) -> np.ndarray:
        if self.arm2 is None:
            return projector(self.arm1)
        return kron(projector(self.arm1), projector(self.arm2))


def born_probability(rho: np.ndarray, setting: AnalyzerSetting) -> float:
    """Detection probability of a setting on a one- or two-photon state."""
    rho = check_hermitian(rho)
    if rho.shape == (4, 4):
        if setting.arm2 is None:
            raise UnknownLabelError("a two-photon state needs both analyzer arms")
    elif rho.shape == (2, 2):
        if setting.arm2 is not None:
            raise UnknownLabelError("a one-photon state takes a single analyzer arm")
    else:
        raise OutOfRangeError(f"expected a 2x2 or 4x4 state, got shape {rho.shape}")
    p = float(np.trace(rho @ setting.projector()).real)
    if p < -1e-8 or p > 1.0 + 1e-8:
        raise OutOfRangeError(f"Born probability {p:.3e} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def tomographic_settings() -> list[AnalyzerSetting]:
    """The 16-setting two-photon tomography schedule.

    The first four settings (HH, HV, VV, VH) form the normalization block
    whose summed counts estimate the total pair flux.
    """
    pairs = [
        ("H", "H"), ("H", "V"), ("V", "V"), ("V", "H"),
        ("R", "H"), ("R", "V"), ("D", "V"), ("D", "H"),
        ("D", "R"), ("D", "D"), ("R", "D"), ("H", "D"),
        ("V", "D"), ("V", "L"), ("H", "L"), ("R", "L"),
    ]
    return [AnalyzerSetting(a, b) for a, b in pairs]


NORMALIZATION_BLOCK = (("H", "H"), ("H", "V"), ("V", "V"), ("V", "H"))


@dataclass(frozen=True)
class SourceConfig:
    """Count statistics of a simulated run: true pair rate and accidental
    rate in 1/s, integration time per setting in s, and the RNG seed."""

    pair_rate: float = 300.0
    accidental_rate: float = 1.0
    duration: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.pair_rate < math.inf:
            raise OutOfRangeError("pair rate must be finite and non-negative")
        if not 0.0 <= self.accidental_rate < math.inf:
            raise OutOfRangeError("accidental rate must be finite and non-negative")
        if not 0.0 < self.duration < math.inf:
            raise OutOfRangeError("integration time must be finite and positive")


@dataclass(frozen=True)
class CoincidenceRecord:
    """Counts accumulated at one analyzer setting for ``duration`` seconds.

    ``accidental_rate`` is the known rate (1/s) of accidental coincidences
    included in ``count``; ``accidentals`` is their expected number.
    """

    setting: AnalyzerSetting
    duration: float
    count: int
    accidental_rate: float = 0.0

    @property
    def accidentals(self) -> float:
        return self.accidental_rate * self.duration


def poisson_sample(rng: np.random.Generator, mean):
    """One Poisson draw of the given mean, or an integer array of draws of an
    array of means.  An array is drawn in C order with one generator call, so
    it holds the values that scalar draws of its means, one after another,
    would give."""
    try:
        return rng.poisson(mean)  # an int for a scalar mean
    except ValueError as exc:  # a negative, NaN or too large mean
        raise OutOfRangeError(f"Poisson mean out of range: {exc}") from None


def simulate_counts(
    rho: np.ndarray,
    settings: list[AnalyzerSetting],
    config: SourceConfig,
    exact: bool = False,
) -> list[CoincidenceRecord]:
    """Simulate coincidence counts for each setting.

    Each count is Poisson with mean ``pair_rate * duration * p + accidental_rate
    * duration`` where ``p`` is the Born probability.  With ``exact=True`` the
    rounded mean is returned instead of a random draw.  Every record carries
    the configured accidental rate.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    floor = config.accidental_rate * config.duration
    flux = config.pair_rate * config.duration
    records = []
    for setting in settings:
        mean = flux * born_probability(rho, setting) + floor
        count = int(round(mean)) if exact else poisson_sample(rng, mean)
        records.append(
            CoincidenceRecord(setting, config.duration, count, config.accidental_rate)
        )
    return records


def correlation_E(quad: list[CoincidenceRecord]) -> float:
    """Polarization correlation from the four counts of an analyzer quadruple.

    The quadruple is ordered ``(a, b), (a_perp, b_perp), (a_perp, b), (a,
    b_perp)`` so that ``E = (C1 + C2 - C3 - C4) / (C1 + C2 + C3 + C4)``, with
    each ``Ci`` the count less its expected accidentals.
    """
    if len(quad) != 4:
        raise OutOfRangeError(f"a correlation needs exactly 4 records, got {len(quad)}")
    durations = {float(r.duration) for r in quad}
    if max(durations) - min(durations) > 1e-9:
        raise OutOfRangeError("correlation records must share one integration time")
    counts = [float(r.count) - r.accidentals for r in quad]
    total = sum(counts)
    if total <= 0.0:
        raise EmptyDataError(
            "the four correlation counts do not exceed their expected accidentals"
        )
    return (counts[0] + counts[1] - counts[2] - counts[3]) / total


def _arm_to_json(arm):
    if arm is None or isinstance(arm, str):
        return arm
    return {"deg": float(arm)}


def _arm_from_json(value):
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, dict) and set(value) == {"deg"}:
        return _finite_number(value, "deg")
    raise ValueError(f"malformed analyzer arm {value!r}")


def records_to_json(records: list[CoincidenceRecord]) -> dict:
    """JSON-ready form of a list of coincidence records.

    A nonzero accidental rate is written as ``accidentals_per_s``.
    """
    if not records:
        raise EmptyDataError("no records to serialize")
    durations = {float(r.duration) for r in records}
    if max(durations) - min(durations) > 1e-9:
        raise OutOfRangeError("records of one run must share one integration time")
    rates = {float(r.accidental_rate) for r in records}
    if len(rates) > 1:
        raise OutOfRangeError("records of one run must share one accidental rate")
    doc = {"duration_s": float(records[0].duration)}
    if records[0].accidental_rate:
        doc["accidentals_per_s"] = float(records[0].accidental_rate)
    doc["records"] = [
        {
            "arm1": _arm_to_json(r.setting.arm1),
            "arm2": _arm_to_json(r.setting.arm2),
            "count": int(r.count),
        }
        for r in records
    ]
    return doc


def _is_finite_real(value) -> bool:
    """Whether ``value`` is an int or float that a finite float can hold."""
    # the comparison is False for nan and inf, and exact for any int
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _finite_number(doc: dict, key: str, default=None) -> float:
    """``doc[key]`` as a float; null, bool, non-numeric and non-finite values
    raise ``ValueError``."""
    value = doc.get(key, default)
    if not _is_finite_real(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def records_from_json(doc: dict) -> list[CoincidenceRecord]:
    """Parse the JSON form produced by :func:`records_to_json`.

    A missing ``accidentals_per_s`` means no accidental floor.
    """
    if not isinstance(doc, dict) or "records" not in doc or "duration_s" not in doc:
        raise ValueError("counts document must contain 'duration_s' and 'records'")
    duration = _finite_number(doc, "duration_s")
    if duration <= 0.0:
        raise OutOfRangeError("integration time must be positive")
    accidental_rate = _finite_number(doc, "accidentals_per_s", default=0.0)
    if accidental_rate < 0.0:
        raise ValueError(f"accidentals_per_s must be non-negative, got {accidental_rate!r}")
    if not isinstance(doc["records"], list):
        raise ValueError(f"records must be a list, got {doc['records']!r}")
    records = []
    for item in doc["records"]:
        if not isinstance(item, dict) or item.get("arm1") is None or "count" not in item:
            raise ValueError(f"malformed count record {item!r}")
        count = item["count"]
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise ValueError(f"count must be a non-negative integer, got {count!r}")
        setting = AnalyzerSetting(
            _arm_from_json(item["arm1"]), _arm_from_json(item.get("arm2"))
        )
        # Validate labels/angles eagerly so bad input fails at parse time.
        jones_vector(setting.arm1)
        if setting.arm2 is not None:
            jones_vector(setting.arm2)
        records.append(CoincidenceRecord(setting, duration, count, accidental_rate))
    if not records:
        raise EmptyDataError("counts document contains no records")
    return records
