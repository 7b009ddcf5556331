"""A run of counts is one ``CountRun``: a schedule's int64 counts on one
duration and one accidental rate.

``simulate_counts`` and ``records_from_json`` return one, and every
estimator takes one run and refuses anything else.
"""

import copy
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from wernerlab import analysis, polarimetry, tomography
from wernerlab.errors import OutOfRangeError
from wernerlab.polarimetry import (
    CountRun,
    SourceConfig,
    records_from_json,
    records_to_json,
    simulate_counts,
    tomographic_settings,
)
from wernerlab.states import werner_phi_minus

from conftest import same_run

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SCHEDULE = tomographic_settings()
CHSH = analysis.chsh_schedule(analysis.DEFAULT_ANGLES)


def bits(value):
    """A result as comparable bytes: arrays by their bytes, dataclasses and
    dicts field by field."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if hasattr(value, "__dataclass_fields__"):
        return {k: bits(getattr(value, k)) for k in value.__dataclass_fields__}
    return repr(value)


def test_a_run_is_read_only_and_reads_back_from_its_json():
    run = simulate_counts(werner_phi_minus(0.5), SCHEDULE, SourceConfig(seed=1))
    assert len(run) == 16
    assert same_run(records_from_json(records_to_json(run)), run)
    assert not same_run(simulate_counts(werner_phi_minus(0.5), SCHEDULE, SourceConfig(seed=2)), run)
    with pytest.raises(TypeError):
        iter(run)  # a run is no sequence of per-setting rows
    with pytest.raises(TypeError):
        run[0]
    with pytest.raises(ValueError, match="read-only"):
        run.counts[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        run.counts += 1
    with pytest.raises(AttributeError):
        run.counts = np.zeros(16, dtype=np.int64)


def test_a_run_holds_a_copy_of_its_counts():
    counts = np.arange(16)
    run = CountRun(tuple(SCHEDULE), counts, 10.0)
    counts[0] = 99
    assert run.counts[0] == 0 and counts.flags.writeable
    assert run.counts.dtype == np.int64
    with pytest.raises(TypeError, match="integers"):
        CountRun(tuple(SCHEDULE), counts + 0.5, 10.0)
    with pytest.raises(ValueError, match="do not fit"):
        CountRun(tuple(SCHEDULE), counts[:15], 10.0)


def test_an_unsigned_count_beyond_int64_is_refused_and_named():
    counts = np.array([100] * 16, dtype=np.uint64)
    counts[0] = 2**63
    with pytest.raises(OutOfRangeError, match=(
            f"^record 1 of 16 has a count {2**63} that int64 cannot hold$")):
        CountRun(tuple(SCHEDULE), counts, 100.0)
    stack = np.ones((2, 16), dtype=np.uint64)
    stack[1, 9] = 2**64 - 1
    with pytest.raises(OutOfRangeError, match=(
            f"^row 2 of 2: record 10 of 16 has a count {2**64 - 1} that int64 cannot hold$")):
        CountRun(tuple(SCHEDULE), stack, 100.0)
    counts[0] = 2**63 - 1  # the largest count int64 holds is kept as it is
    assert CountRun(tuple(SCHEDULE), counts, 100.0).counts[0] == 2**63 - 1


GOOD = [5] * 16


@pytest.mark.parametrize("counts, duration, rate, message", [
    (GOOD[:15] + [-3000], 100.0, 0.0, "^record 16 of 16 has a count -3000 below zero$"),
    ([GOOD, GOOD[:2] + [-1] + GOOD[3:]], 100.0, 0.0,
     "^row 2 of 2: record 3 of 16 has a count -1 below zero$"),
    (GOOD, float("nan"), 0.0, "^integration time must be finite and positive, got nan$"),
    (GOOD, float("inf"), 0.0, "^integration time must be finite and positive, got inf$"),
    (GOOD, 0.0, 0.0, "^integration time must be finite and positive, got 0.0$"),
    (GOOD, -100.0, 1.0, "^integration time must be finite and positive, got -100.0$"),
    (GOOD, 100.0, float("nan"), "^accidental rate must be finite and non-negative, got nan$"),
    (GOOD, 100.0, float("inf"), "^accidental rate must be finite and non-negative, got inf$"),
    (GOOD, 100.0, -1.0, "^accidental rate must be finite and non-negative, got -1.0$"),
], ids=["negative-count", "negative-count-in-a-stack", "nan-duration", "inf-duration",
        "zero-duration", "negative-duration", "nan-rate", "inf-rate", "negative-rate"])
def test_a_run_refuses_what_no_run_can_hold(counts, duration, rate, message):
    with pytest.raises(OutOfRangeError, match=message):
        CountRun(tuple(SCHEDULE), np.array(counts), duration, rate)


def test_an_expected_count_beyond_int64_is_refused():
    huge = SourceConfig(pair_rate=1e300, duration=1e300)  # an infinite flux
    with pytest.raises(OutOfRangeError, match="int64"):
        simulate_counts(werner_phi_minus(0.5), SCHEDULE, huge, exact=True)
    with pytest.raises(OutOfRangeError, match="Poisson mean"):
        simulate_counts(werner_phi_minus(0.5), SCHEDULE, huge)


POINT = werner_phi_minus(0.5)
ENTRY_POINTS = {
    "linear_reconstruct": tomography.linear_reconstruct,
    "mle_reconstruct": tomography.mle_reconstruct,
    "single_qubit_reconstruct": tomography.single_qubit_reconstruct,
    "bootstrap_errors": lambda run: tomography.bootstrap_errors(run, POINT, n_replicas=2),
    "chsh_from_counts": analysis.chsh_from_counts,
    "records_to_json": records_to_json,
}


def not_one_run(kind):
    """The seed-0 run's counts as a plain list, or a stack of runs: two rows
    of the run's counts, or three rows of ones."""
    run = simulate_counts(POINT, SCHEDULE, SourceConfig(seed=0))
    if kind == "list":
        return run.counts.tolist()
    rows = np.stack([run.counts, run.counts]) if kind == "stack-of-2" else np.ones((3, 16), dtype=int)
    return CountRun(run.settings, rows, run.duration, run.accidental_rate)


@pytest.mark.parametrize("kind", ["list", "stack-of-2", "stack-of-3"])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_refuses_what_is_not_one_run(name, kind):
    entry, value = ENTRY_POINTS[name], not_one_run(kind)
    if kind == "list":
        with pytest.raises(TypeError, match="^expected a CountRun, got list$"):
            entry(value)
    else:
        with pytest.raises(OutOfRangeError, match=f"a stack of {len(value.counts)}$"):
            entry(value)


# ------------------------------------------------ the settings key

SCHEDULE_MEMOS = (polarimetry._schedule_stack, tomography._reconstruction, tomography._block)

# Simulates an x = 1.0 run, whose inversion is unphysical, reconstructs it
# (so its settings key has hashed), and writes the pickled hash of its
# settings, the run and both reconstructions to stdout.
CHILD = """
import pickle, sys
from wernerlab import polarimetry, tomography
from wernerlab.states import werner_phi_minus
run = polarimetry.simulate_counts(werner_phi_minus(1.0), polarimetry.tomographic_settings(),
                                  polarimetry.SourceConfig(seed=5))
linear, mle = tomography.linear_reconstruct(run), tomography.mle_reconstruct(run)
sys.stdout.buffer.write(pickle.dumps((hash(run.settings), run, linear, mle)))
"""


def test_a_settings_key_equals_and_hashes_like_the_plain_tuple():
    run = simulate_counts(werner_phi_minus(0.5), SCHEDULE, SourceConfig(seed=1))
    plain = tuple(SCHEDULE)
    assert run.settings == plain and plain == run.settings
    assert hash(run.settings) == hash(plain) == hash(run.settings)
    assert CountRun(run.settings, run.counts, 1.0).settings is run.settings
    assert CountRun(list(SCHEDULE), run.counts, 1.0).settings == plain
    assert analysis.chsh_schedule(analysis.DEFAULT_ANGLES) == tuple(CHSH)
    assert pickle.loads(pickle.dumps(run.settings)) == plain


def test_a_loaded_or_copied_run_keeps_its_counts_read_only():
    run = simulate_counts(werner_phi_minus(0.5), SCHEDULE, SourceConfig(seed=1))
    for loaded in (pickle.loads(pickle.dumps(run)), copy.deepcopy(run)):
        assert same_run(loaded, run) and loaded.counts.tobytes() == run.counts.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            loaded.counts[0] = 0


def test_a_run_pickled_under_another_hash_seed_reads_the_memo_with_its_bits():
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, check=True,
                           env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path))
    child_hash, run, linear, mle = pickle.loads(child.stdout)
    assert mle.path == "search"
    assert child_hash != hash(tuple(SCHEDULE))  # the labels hash differently there
    assert hash(run.settings) == hash(tuple(run.settings))
    tomography.mle_reconstruct(simulate_counts(werner_phi_minus(1.0), SCHEDULE, SourceConfig()))
    misses = [memo.cache_info().misses for memo in SCHEDULE_MEMOS]
    assert bits(tomography.linear_reconstruct(run)) == bits(linear)
    assert bits(tomography.mle_reconstruct(run)) == bits(mle)
    assert [memo.cache_info().misses for memo in SCHEDULE_MEMOS] == misses
