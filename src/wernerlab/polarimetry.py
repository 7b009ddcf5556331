"""Polarization analyzers and coincidence counting.

Settings are pairs of analyzer orientations, one per detection arm.  An
orientation is either a named polarization (H, V, D, A, R, L) or a linear
polarizer angle in degrees.  Counts follow Poisson statistics on top of a
uniform accidental-coincidence floor.
"""

from __future__ import annotations

import functools
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
_SCHEDULES_KEPT = 32  # schedules whose projector stack and inversion are memoized
_INT64_MAX = 2**63 - 1  # the largest count a run holds


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


def _arm_projectors(arms) -> np.ndarray:
    """The ``(k, 2, 2)`` stack of the projectors of ``k`` arms: each is
    ``np.outer``'s one multiply of the Jones vector by its conjugate."""
    # a label's stored vector is read in place: the gather copies it anyway
    v = np.array([_JONES[arm] if isinstance(arm, str) and arm in _JONES else jones_vector(arm)
                  for arm in arms], dtype=complex).reshape(-1, 2)
    return v[:, :, None] * v.conj()[:, None, :]


def projector(arm) -> np.ndarray:
    """Rank-one polarization projector for one analyzer arm."""
    return _arm_projectors([arm])[0]


@dataclass(frozen=True)
class AnalyzerSetting:
    """Analyzer orientations of the two arms; ``arm2 = None`` means the second
    arm carries no analyzer (heralded single-photon measurement)."""

    arm1: object
    arm2: object = None

    def __post_init__(self):
        # an angle is held as a float, which hashes (a 0-d array does not)
        for name in ("arm1", "arm2"):
            arm = getattr(self, name)
            if type(arm) is not float and arm is not None and not isinstance(arm, str):
                object.__setattr__(self, name, float(arm))

    def projector(self) -> np.ndarray:
        if self.arm2 is None:
            return projector(self.arm1)
        return kron(projector(self.arm1), projector(self.arm2))


def _projector_stack(settings) -> np.ndarray:
    """Rows ``settings[i].projector().T.ravel()`` of all one- or all two-photon
    settings, bit for bit: ``stack @ rho.ravel()`` is each ``tr(rho P)``
    (complex).  Every outer product is one broadcast multiply, and so is
    every Kronecker product of a two-photon schedule."""
    stack = _arm_projectors([s.arm1 for s in settings])
    if any(s.arm2 is not None for s in settings):
        stack = kron(stack, _arm_projectors([s.arm2 for s in settings]))
    n = stack.shape[-1]
    return stack.swapaxes(-1, -2).reshape(len(stack), n * n)


class _Settings(tuple):
    """A tuple of settings that hashes its items once: it equals the plain
    tuple and hashes like it, so a schedule memo finds it in one call.  The
    hash is not pickled, since a label's hash differs between processes.
    One made of a ``_Settings`` is that one."""

    _hash = None

    def __new__(cls, settings):
        return settings if type(settings) is cls else super().__new__(cls, settings)

    def __hash__(self):
        if self._hash is None:
            self._hash = tuple.__hash__(self)
        return self._hash

    def __reduce__(self):
        return _Settings, (tuple(self),)


@functools.lru_cache(maxsize=_SCHEDULES_KEPT)
def _schedule_stack(settings: tuple) -> np.ndarray:
    """The projector stack of a tuple of all one- or all two-photon settings,
    built once per process and read-only: every Born probability of a
    schedule, simulated, fitted or exact, is read from it.  A schedule that
    mixes one- and two-photon settings raises (and is not memoized)."""
    if len({s.arm2 is None for s in settings}) > 1:
        raise UnknownLabelError("a schedule mixes one- and two-photon settings")
    stack = _projector_stack(settings)
    stack.flags.writeable = False
    return stack


def _born_probabilities(rho: np.ndarray, settings) -> np.ndarray:
    """Detection probability of each setting on a one- or two-photon state,
    read from the schedule's memoized projector stack."""
    rho = check_hermitian(rho)
    if rho.shape not in ((2, 2), (4, 4)):
        raise OutOfRangeError(f"expected a 2x2 or 4x4 state, got shape {rho.shape}")
    stack = _schedule_stack(_Settings(settings))
    if len(stack) and stack.shape[1] != rho.size:
        raise UnknownLabelError("a setting needs one analyzer arm per photon of the state")
    # the reshape gives an empty schedule its (0, n) shape
    p = (stack.reshape(-1, rho.size) @ rho.ravel()).real
    bad = p[(p < -1e-8) | (p > 1.0 + 1e-8)]
    if bad.size:
        raise OutOfRangeError(f"Born probability {bad[0]:.3e} outside [0, 1]")
    return np.clip(p, 0.0, 1.0)


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


@dataclass(frozen=True, eq=False)
class CountRun:
    """The counts of one run: a count per setting, every setting integrated
    for ``duration`` seconds over one accidental rate (1/s), the count model
    of James, Kwiat, Munro & White, PRA 64, 052312 (2001).

    ``settings`` is held as a tuple that hashes once, the key under which
    every schedule memo finds the run.  ``counts`` is held as a read-only
    int64 copy, of shape ``(n,)`` for the ``n`` settings or ``(R, n)`` for
    ``R`` runs on one schedule.  ``OutOfRangeError`` refuses a negative count
    and an unsigned one that int64 cannot hold, naming its position, a
    duration that is not finite and positive, and an accidental rate that is
    not finite and non-negative.  Every estimator takes one run, and
    ``len`` gives its number of settings.
    """

    settings: tuple
    counts: np.ndarray
    duration: float
    accidental_rate: float = 0.0

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu":
            raise TypeError(f"counts must be integers, got {counts.dtype}")
        settings = _Settings(self.settings)
        if counts.ndim not in (1, 2) or counts.shape[-1] != len(settings):
            raise ValueError(f"counts of shape {counts.shape} do not fit {len(settings)} settings")
        if counts.size:
            # a count that int64 cannot hold is the largest of unsigned counts,
            # and a count below zero the lowest of signed ones
            at = int(counts.argmax() if counts.dtype.kind == "u" else counts.argmin())
            count = counts.item(at)
            if not 0 <= count <= _INT64_MAX:
                row, i = divmod(at, len(settings))
                where = f"row {row + 1} of {len(counts)}: " if counts.ndim == 2 else ""
                why = "below zero" if count < 0 else "that int64 cannot hold"
                raise OutOfRangeError(f"{where}record {i + 1} of {len(settings)} has a count "
                                      f"{count} {why}")
        duration, rate = float(self.duration), float(self.accidental_rate)
        if not 0.0 < duration < math.inf:
            raise OutOfRangeError(f"integration time must be finite and positive, got {duration}")
        if not 0.0 <= rate < math.inf:
            raise OutOfRangeError(f"accidental rate must be finite and non-negative, got {rate}")
        counts = counts.astype(np.int64)  # a copy, so no caller can write it
        counts.flags.writeable = False
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "duration", duration)
        object.__setattr__(self, "accidental_rate", rate)

    @property
    def accidentals(self) -> float:
        """Expected accidental count of each setting."""
        return self.accidental_rate * self.duration

    def __len__(self):
        return len(self.settings)

    def __reduce__(self):
        # rebuilt through __post_init__, so a loaded or copied run's counts are read-only
        return CountRun, (self.settings, self.counts, self.duration, self.accidental_rate)


def _as_run(run) -> CountRun:
    """``run``, checked to be one run of counts: anything but a
    :class:`CountRun` raises ``TypeError``, and a stack of runs, which is one
    run per row, ``OutOfRangeError``."""
    if not isinstance(run, CountRun):
        raise TypeError(f"expected a CountRun, got {type(run).__name__}")
    if run.counts.ndim != 1:
        raise OutOfRangeError(f"expected one run of counts, got a stack of {len(run.counts)}")
    return run


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
) -> CountRun:
    """Simulate coincidence counts for each setting, as one :class:`CountRun`
    with the configured duration and accidental rate.

    Each count is Poisson with mean ``pair_rate * duration * p + accidental_rate
    * duration`` where ``p`` is the Born probability, read for the whole
    schedule from one product with its memoized projector stack; one
    :func:`poisson_sample` call draws all counts.  With ``exact=True`` the
    mean rounded half to even is returned instead; a mean that int64 cannot
    hold is refused either way.
    """
    settings = _Settings(settings)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    floor = config.accidental_rate * config.duration
    flux = config.pair_rate * config.duration
    means = flux * _born_probabilities(rho, settings) + floor
    if exact:
        if not (means < 2.0**63).all():  # nan compares False too
            raise OutOfRangeError("an expected count exceeds the int64 range")
        counts = np.rint(means).astype(np.int64)
    else:
        counts = poisson_sample(rng, means)
    return CountRun(settings, counts, config.duration, config.accidental_rate)


def _correlation(pairs) -> float:
    """Polarization correlation ``E = (C1 + C2 - C3 - C4) / (C1 + C2 + C3 +
    C4)`` of an analyzer quadruple ordered ``(a, b), (a_perp, b_perp),
    (a_perp, b), (a, b_perp)``, each ``Ci`` its count less its expected
    accidentals."""
    total = pairs[0] + pairs[1] + pairs[2] + pairs[3]
    if total <= 0.0:
        raise EmptyDataError(
            "the four correlation counts do not exceed their expected accidentals"
        )
    return (pairs[0] + pairs[1] - pairs[2] - pairs[3]) / total


def _arm_to_json(arm):
    if arm is None or isinstance(arm, str):
        return arm
    return {"deg": float(arm)}


def _arm_from_json(value):
    if isinstance(value, dict) and set(value) == {"deg"}:
        value = _finite_number(value, "deg")
    elif value is not None and not isinstance(value, str):
        raise ValueError(f"malformed analyzer arm {value!r}")
    if value is not None:
        jones_vector(value)  # an unknown label fails at parse time
    return value


def records_to_json(records) -> dict:
    """JSON-ready form of a run, its counts listed under ``records``.

    A nonzero accidental rate is written as ``accidentals_per_s``.
    """
    run = _as_run(records)
    if not len(run):
        raise EmptyDataError("no records to serialize")
    doc = {"duration_s": run.duration}
    if run.accidental_rate:
        doc["accidentals_per_s"] = run.accidental_rate
    doc["records"] = [
        {"arm1": _arm_to_json(s.arm1), "arm2": _arm_to_json(s.arm2), "count": count}
        for s, count in zip(run.settings, run.counts.tolist())
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


def records_from_json(doc: dict) -> CountRun:
    """Parse the JSON form produced by :func:`records_to_json` into a run.

    A missing ``accidentals_per_s`` means no accidental floor.  A record
    without ``arm1`` or ``count``, or whose count is not a non-negative
    integer that int64 holds, raises ``ValueError`` naming its position; a
    bad analyzer arm raises its own error, named the same way.
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
    settings, counts = [], []
    for i, item in enumerate(doc["records"], 1):
        where = f"record {i} of {len(doc['records'])}"
        if not isinstance(item, dict) or item.get("arm1") is None or "count" not in item:
            raise ValueError(f"{where}: malformed count record {item!r}")
        count = item["count"]
        if isinstance(count, bool) or not isinstance(count, int) or not 0 <= count <= _INT64_MAX:
            raise ValueError(
                f"{where}: count must be a non-negative integer that int64 holds, got {count!r}")
        try:
            arms = _arm_from_json(item["arm1"]), _arm_from_json(item.get("arm2"))
        except (ValueError, UnknownLabelError) as exc:
            raise type(exc)(f"{where}: {exc}") from None
        settings.append(AnalyzerSetting(*arms))
        counts.append(count)
    if not settings:
        raise EmptyDataError("counts document contains no records")
    return CountRun(settings, np.array(counts, dtype=np.int64), duration, accidental_rate)
