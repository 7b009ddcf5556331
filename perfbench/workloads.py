"""The four workloads: their generated inputs, the timed unit and its checks.

A unit is one iteration of a workload's closed loop.  ``run(i)`` is the
timed part and calls only wernerlab's public API; ``check(i, result)``
validates the outputs against numpy reference formulas written here, so a
defect in wernerlab's own numerics cannot vouch for itself.  Unit 0 is the
warm-up unit run during set-up.

Every input is derived from the workload seed and the unit index, so the
same seed gives the same inputs whatever the run length.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from wernerlab import analysis, cli, decoherence, errors, fixtures, polarimetry, states, tomography

# Count statistics of James, Kwiat, Munro & White, PRA 64, 052312 (2001):
# 300 pairs/s, a 1/s accidental floor and 100 s per analyzer setting.
PAIR_RATE = 300.0
ACCIDENTAL_RATE = 1.0
DURATION = 100.0

WARMUP_ENTROPY = 20010523
ACCURATE_FIDELITY = 0.99
STATE_TOL = 1e-9
AGREE_TOL = 1e-6

_PHI_MINUS = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / math.sqrt(2.0)
_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


# ------------------------------------------------------------ reference numerics


def werner_reference(x: float) -> np.ndarray:
    """``x |phi-><phi-| + (1 - x) I / 4``."""
    return x * np.outer(_PHI_MINUS, _PHI_MINUS.conj()) + (1.0 - x) / 4.0 * np.eye(4)


def _sqrt_spectrum(w: np.ndarray) -> np.ndarray:
    # Round-off eigenvalues of a rank-deficient product are exact zeros, as in
    # the definition the package uses; their square roots would add 1e-8 noise.
    w = np.clip(w, 0.0, None)
    w[w < 1e-14 * max(1.0, float(w.max(initial=0.0)))] = 0.0
    return np.sqrt(w)


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity_reference(a: np.ndarray, b: np.ndarray) -> float:
    sb = _sqrtm_psd(b)
    w = np.linalg.eigvalsh(sb @ a @ sb)
    return min(float(np.sum(_sqrt_spectrum(w)) ** 2), 1.0)


def tangle_reference(rho: np.ndarray) -> float:
    s = _sqrtm_psd(rho)
    lam = _sqrt_spectrum(np.linalg.eigvalsh(s @ (_FLIP @ rho.conj() @ _FLIP) @ s))[::-1]
    c = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
    return c * c


def _analyzer(theta_deg: float) -> np.ndarray:
    t = math.radians(2.0 * theta_deg)
    return np.array([[math.cos(t), math.sin(t)], [math.sin(t), -math.cos(t)]])


def chsh_operator(t1: float, t1p: float, t2: float, t2p: float) -> np.ndarray:
    a, ap, b, bp = _analyzer(t1), _analyzer(t1p), _analyzer(t2), _analyzer(t2p)
    return np.kron(a, b) + np.kron(ap, b) + np.kron(a, bp) - np.kron(ap, bp)


def state_problems(rho) -> list[str]:
    """Why ``rho`` is not a density matrix; empty when it is one."""
    rho = np.asarray(rho)
    if not np.all(np.isfinite(rho)):
        return ["state has non-finite entries"]
    problems = []
    if float(np.abs(rho - rho.conj().T).max()) > 1e-8:
        problems.append("state is not Hermitian")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > STATE_TOL:
        problems.append(f"trace is {tr.real:.12f}")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w[0] < -STATE_TOL:
        problems.append(f"eigenvalue {w[0]:.3e} is negative")
    return problems


def _disagrees(name: str, got: float, want: float, tol: float = AGREE_TOL) -> list[str]:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        return [f"{name} {got!r} differs from reference {want!r}"]
    return []


# ------------------------------------------------------------ workloads


class Workload:
    """Seeded inputs plus the unit of one workload."""

    # Consecutive units cycle through ``period`` sources; the traced run
    # alternates traced and untraced blocks of this length so both halves see
    # every source equally often.
    period = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def unit_seeds(self, i: int) -> list[int]:
        # The warm-up unit 0 gets the same inputs under every workload seed,
        # so set-up time measures the code and not the luck of one draw.
        entropy = self.seed if i else WARMUP_ENTROPY
        ss = np.random.SeedSequence(entropy=entropy, spawn_key=(i,))
        return [int(s) for s in ss.generate_state(2)]

    def inputs(self, i: int) -> dict:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> tuple[list[str], float]:
        """Return (problems, share of the unit's results that are accurate)
        for the output of unit ``i``."""
        raise NotImplementedError

    def digest(self) -> str | None:
        """Digest of the files the last unit wrote, for workloads that write
        files; the same inputs must give the same digest in every process."""
        return None

    def bytes_written(self) -> int:
        return 0


class Tomography(Workload):
    """simulate_counts -> linear_reconstruct -> mle_reconstruct -> metrics.

    With ``paired`` a unit runs one trial on every source, otherwise one
    trial on the next source of the cycle.  Pairing keeps the unit time of
    ``tomo-boundary`` unimodal: its two sources differ fourfold in search
    time, and the median of a two-humped mixture jumps between the humps.
    """

    def __init__(self, seed, out_dir, sources, paired=False):
        super().__init__(seed, out_dir)
        self.sources = sources
        self.paired = paired
        self.period = 1 if paired else len(sources)
        self.schedule = polarimetry.tomographic_settings()
        self.chsh_op = chsh_operator(*analysis.DEFAULT_ANGLES.as_tuple())

    def _trials(self, i):
        """(label, source state, count seed) of each trial of unit ``i``."""
        seeds = self.unit_seeds(i)
        if self.paired:
            return [(label, rho, seed) for (label, rho), seed in zip(self.sources, seeds)]
        label, rho = self.sources[i % self.period]
        return [(label, rho, seeds[0])]

    def inputs(self, i):
        return {"trials": [{"source": label, "count_seed": seed}
                           for label, _rho, seed in self._trials(i)]}

    def run(self, i):
        out = []
        for _label, rho_true, seed in self._trials(i):
            config = polarimetry.SourceConfig(
                pair_rate=PAIR_RATE, accidental_rate=ACCIDENTAL_RATE, duration=DURATION, seed=seed,
            )
            records = polarimetry.simulate_counts(rho_true, self.schedule, config)
            linear = tomography.linear_reconstruct(records)
            mle = tomography.mle_reconstruct(records, seed_matrix=linear.matrix)
            out.append((
                mle,
                analysis.fidelity(mle.rho, rho_true),
                analysis.tangle(mle.rho),
                analysis.chsh_value(mle.rho),
            ))
        return out

    def check(self, i, result):
        problems, accurate = [], 0
        for (label, rho_true, _seed), (mle, fid, tangle, s) in zip(self._trials(i), result):
            bad = state_problems(mle.rho)
            if not mle.converged:
                bad.append("maximum-likelihood search did not converge")
            if not bad:
                fid_ref = fidelity_reference(mle.rho, rho_true)
                bad += _disagrees("fidelity", fid, fid_ref)
                bad += _disagrees("tangle", tangle, tangle_reference(mle.rho))
                bad += _disagrees("chsh_value", s, float(np.trace(mle.rho @ self.chsh_op).real))
                accurate += not bad and fid_ref >= ACCURATE_FIDELITY
            problems += [f"{label}: {p}" for p in bad]
        return problems, accurate / len(result)


class Pipeline(Workload):
    """One in-process ``wernerlab pipeline`` run with 20 bootstrap replicas."""

    MIX = 0.801
    DATA_FILES = ("state.json", "counts.json", "rho_mle.json",
                  "rho_mle.report.json", "metrics.json")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.source = werner_reference(self.MIX)

    def inputs(self, i):
        return {"mix": self.MIX, "seed": self.unit_seeds(i)[0]}

    def run(self, i):
        return cli.main(["pipeline", "--mix", repr(self.MIX), "--bootstrap", "20",
                         "--seed", str(self.unit_seeds(i)[0]), "--out-dir", str(self.out_dir)])

    def _read(self, out_dir) -> dict:
        return {name: (out_dir / name).read_bytes() for name in self.DATA_FILES}

    def check(self, i, code):
        if code != 0:
            return [f"pipeline exited with code {code}"], False
        data = self._read(self.out_dir)
        report = json.loads(data["rho_mle.report.json"])
        metrics = json.loads(data["metrics.json"])
        entries = np.array(json.loads(data["rho_mle.json"])["matrix"], dtype=float)
        rho = entries[..., 0] + 1j * entries[..., 1]
        problems = state_problems(rho)
        if report.get("converged") is not True:
            problems.append("maximum-likelihood search did not converge")
        for key in ("x_err", "x", "fidelity"):
            if not isinstance(metrics.get(key), float) or not math.isfinite(metrics[key]):
                problems.append(f"metrics.json has no finite {key}")
        if problems:
            return problems, False
        return problems, fidelity_reference(rho, self.source) >= ACCURATE_FIDELITY

    def digest(self):
        """sha256 over the data files.  The manifest names its output
        directory, so it is left out."""
        h = hashlib.sha256()
        for name, data in self._read(self.out_dir).items():
            h.update(name.encode() + b"\0" + data)
        return h.hexdigest()

    def bytes_written(self):
        return sum(p.stat().st_size for p in self.out_dir.iterdir() if p.is_file())


class ChshDecohere(Workload):
    """A counted CHSH trial, one single-photon decoherence measurement and
    one decoherence curve."""

    XS = (1.0, 0.405)
    LAMBDA0_STEPS = 251  # single-photon path differences 0..250 lambda0
    period = len(XS)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        angles = analysis.angles_for_target("phi-minus")
        self.schedule = analysis.chsh_schedule(angles)
        self.states = [states.werner_phi_minus(x) for x in self.XS]
        self.spectrum = decoherence.DEFAULT_SPECTRUM
        self.grid = np.arange(0.0, 301.0, 1.0)
        ratio = self.spectrum.fwhm_nm / self.spectrum.center_nm
        self.curve_ref = np.abs(np.sinc(self.grid * ratio))

    def inputs(self, i):
        chsh_seed, photon_seed = self.unit_seeds(i)
        return {"x": self.XS[i % self.period], "chsh_seed": chsh_seed,
                "opd_lambda0": i % self.LAMBDA0_STEPS, "photon_seed": photon_seed}

    def run(self, i):
        chsh_seed, photon_seed = self.unit_seeds(i)
        records = polarimetry.simulate_counts(
            self.states[i % self.period], self.schedule,
            polarimetry.SourceConfig(pair_rate=PAIR_RATE, accidental_rate=0.0,
                                     duration=DURATION, seed=chsh_seed),
        )
        estimate = analysis.chsh_from_counts(records)
        element = decoherence.BirefringentElement(
            opd_nm=(i % self.LAMBDA0_STEPS) * self.spectrum.center_nm)
        try:
            photon = decoherence.simulate_single_photon_experiment(
                self.spectrum, element,
                polarimetry.SourceConfig(pair_rate=PAIR_RATE, accidental_rate=ACCIDENTAL_RATE,
                                         duration=DURATION, seed=photon_seed),
            )
        except errors.UnphysicalStateError:
            # Documented refusal: near the pure end of the grid, counting noise
            # now and then puts the Bloch vector more than 5 % outside the
            # unit ball.  The unit completed; it counts as not accurate.
            photon = None
        curve = decoherence.decoherence_curve(self.spectrum, self.grid)
        return estimate, photon, curve

    def check(self, i, result):
        estimate, photon, curve = result
        problems = []
        if photon is not None:
            problems += state_problems(photon.rho)
            if not (math.isfinite(photon.gamma_abs) and 0.0 <= photon.gamma_abs <= 1.0 + 1e-9):
                problems.append(f"|gamma| estimate {photon.gamma_abs!r} outside [0, 1]")
        curve = np.asarray(curve)
        if curve.shape != (self.grid.size, 2) or not (
            np.array_equal(curve[:, 0], self.grid)
            and np.allclose(curve[:, 1], self.curve_ref, rtol=0.0, atol=1e-12)
        ):
            problems.append("decoherence curve differs from |sinc(pi L dl / l0^2)|")
        if not (math.isfinite(estimate.s) and estimate.sigma > 0.0):
            problems.append(f"CHSH estimate {estimate.s!r} +- {estimate.sigma!r} is not usable")
        if problems or photon is None:
            return problems, False
        expected = 2.0 * math.sqrt(2.0) * self.XS[i % self.period]
        return problems, abs(estimate.s - expected) <= 3.0 * estimate.sigma


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """Construct a workload: fixture load, schedules and source states."""
    if name in ("tomo-interior", "tomo-boundary"):
        xs = (0.0, 0.405, 0.801) if name == "tomo-interior" else (1.0,)
        sources = []
        for x in xs:
            rho = states.werner_phi_minus(x)
            if float(np.abs(rho - werner_reference(x)).max()) > 1e-12:
                raise RuntimeError(f"werner_phi_minus({x}) differs from its closed form")
            sources.append((f"x={x}", rho))
        if name == "tomo-interior":
            return Tomography(seed, out_dir, sources)
        sources.append(("rho1", fixtures.load("rho1")))
        return Tomography(seed, out_dir, sources, paired=True)
    if name == "cli-bootstrap":
        return Pipeline(seed, out_dir)
    if name == "chsh-decohere":
        return ChshDecohere(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")
