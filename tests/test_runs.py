"""A run of counts and the list of records it equals give the same results.

``simulate_counts`` and ``records_from_json`` return a ``CountRun``; the
estimators also take hand-built ``CoincidenceRecord`` lists, which one
conversion turns into a run and checks.
"""

import copy
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from wernerlab import analysis, polarimetry, tomography
from wernerlab.errors import OutOfRangeError
from wernerlab.polarimetry import (
    AnalyzerSetting,
    CoincidenceRecord,
    CountRun,
    SourceConfig,
    records_from_json,
    records_to_json,
    simulate_counts,
    tomographic_settings,
)
from wernerlab.states import werner_phi_minus

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SCHEDULE = tomographic_settings()
CHSH = analysis.chsh_schedule(analysis.DEFAULT_ANGLES)
SINGLES = [AnalyzerSetting(label) for label in "HVDR"]


def by_hand(run):
    """The records of a run, built one by one."""
    return [CoincidenceRecord(s, run.duration, int(c), run.accidental_rate)
            for s, c in zip(run.settings, run.counts)]


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


@pytest.mark.parametrize("x, path", [(0.801, "linear"), (1.0, "search")])
def test_estimators_give_a_run_and_its_records_the_same_bits(x, path):
    run = simulate_counts(werner_phi_minus(x), SCHEDULE, SourceConfig(seed=7))
    records = by_hand(run)
    mle = tomography.mle_reconstruct(run)
    assert mle.path == path
    assert bits(tomography.mle_reconstruct(records)) == bits(mle)
    assert bits(tomography.linear_reconstruct(records)) == bits(tomography.linear_reconstruct(run))
    assert json.dumps(records_to_json(records)) == json.dumps(records_to_json(run))


def test_bootstrap_at_the_boundary_gives_a_run_and_its_records_the_same_bits():
    # at x = 1.0 every replica's inversion is unphysical, so every one searches
    run = simulate_counts(werner_phi_minus(1.0), SCHEDULE, SourceConfig(seed=2))
    point = tomography.mle_reconstruct(run).rho
    from_run = tomography.bootstrap_errors(run, point, n_replicas=6, seed=3)
    from_records = tomography.bootstrap_errors(by_hand(run), point, n_replicas=6, seed=3)
    assert bits(from_records) == bits(from_run)


@pytest.mark.parametrize("rate", [0.0, 5.0])
def test_chsh_and_single_photon_give_a_run_and_its_records_the_same_bits(rate):
    config = SourceConfig(accidental_rate=rate, seed=4)
    run = simulate_counts(werner_phi_minus(0.801), CHSH, config)
    assert bits(analysis.chsh_from_counts(by_hand(run))) == bits(analysis.chsh_from_counts(run))
    one = simulate_counts(np.array([[0.6, 0.3], [0.3, 0.4]]), SINGLES, config)
    assert (tomography.single_qubit_reconstruct(by_hand(one)).tobytes()
            == tomography.single_qubit_reconstruct(one).tobytes())


def test_a_run_is_a_read_only_sequence_of_its_records():
    run = simulate_counts(werner_phi_minus(0.5), SCHEDULE, SourceConfig(seed=1))
    records = by_hand(run)
    assert len(run) == 16
    assert list(run) == records
    assert run[3] == records[3] and run[-1] == records[-1]
    assert run[2:5] == records[2:5] and isinstance(run[2:5], list)
    assert run == records and records == run
    assert run == records_from_json(records_to_json(run))
    assert run != by_hand(simulate_counts(werner_phi_minus(0.5), SCHEDULE, SourceConfig(seed=2)))
    with pytest.raises(TypeError):
        run[0] = records[1]
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


def test_an_expected_count_beyond_int64_is_refused():
    huge = SourceConfig(pair_rate=1e300, duration=1e300)  # an infinite flux
    with pytest.raises(OutOfRangeError, match="int64"):
        simulate_counts(werner_phi_minus(0.5), SCHEDULE, huge, exact=True)
    with pytest.raises(OutOfRangeError, match="Poisson mean"):
        simulate_counts(werner_phi_minus(0.5), SCHEDULE, huge)


def test_a_stack_of_runs_is_no_sequence_and_no_single_run():
    stack = CountRun(tuple(SCHEDULE), np.ones((3, 16), dtype=int), 1.0)
    with pytest.raises(TypeError, match="stack"):
        list(stack)
    with pytest.raises(OutOfRangeError, match="a stack of 3"):
        tomography.linear_reconstruct(stack)


@pytest.mark.parametrize("count, message", [
    (float("nan"), "has a non-finite count nan"),
    (float("-inf"), "has a non-finite count -inf"),
    (2.5, "has a non-integer count 2.5"),
    (2**63, f"has a count {2**63} that int64 cannot hold"),
    (-(2**63) - 1, f"has a count {-(2**63) - 1} that int64 cannot hold"),
], ids=["nan", "-inf", "non-integer", "above-int64", "below-int64"])
def test_the_conversion_names_the_record_of_a_bad_count(count, message):
    run = simulate_counts(werner_phi_minus(0.5), SCHEDULE, SourceConfig(seed=0))
    records = by_hand(run)
    records[9] = CoincidenceRecord(records[9].setting, run.duration, count, run.accidental_rate)
    for entry in (tomography.linear_reconstruct, tomography.mle_reconstruct, records_to_json):
        with pytest.raises(OutOfRangeError, match=f"^record 10 of 16 {message}$"):
            entry(records)


def test_a_whole_float_count_is_taken_as_its_integer():
    run = simulate_counts(werner_phi_minus(0.5), SCHEDULE, SourceConfig(seed=0))
    floats = [CoincidenceRecord(r.setting, r.duration, float(r.count), r.accidental_rate)
              for r in run]
    assert polarimetry._as_run(floats) == run


@pytest.mark.parametrize("field, value, message", [
    ("duration", 50.0, "share one integration time"),
    ("accidental_rate", 2.0, "share one accidental rate"),
], ids=["duration", "rate"])
def test_every_entry_point_refuses_mixed_durations_and_rates(field, value, message):
    run = simulate_counts(werner_phi_minus(0.5), SCHEDULE, SourceConfig(seed=0))
    records = by_hand(run)
    fields = {"setting": records[15].setting, "duration": run.duration,
              "count": records[15].count, "accidental_rate": run.accidental_rate, field: value}
    records[15] = CoincidenceRecord(**fields)
    point = werner_phi_minus(0.5)
    for entry in (tomography.linear_reconstruct, tomography.mle_reconstruct, records_to_json,
                  lambda r: tomography.bootstrap_errors(r, point, n_replicas=2),
                  analysis.chsh_from_counts):
        with pytest.raises(OutOfRangeError, match=message):
            entry(records)


# ------------------------------------------------ the settings key

SCHEDULE_MEMOS = (polarimetry._schedule_stack, tomography._design, tomography._block)

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
    assert polarimetry._as_run(by_hand(run)).settings == plain
    assert analysis.chsh_schedule(analysis.DEFAULT_ANGLES) == tuple(CHSH)
    assert pickle.loads(pickle.dumps(run.settings)) == plain


def test_a_loaded_or_copied_run_keeps_its_counts_read_only():
    run = simulate_counts(werner_phi_minus(0.5), SCHEDULE, SourceConfig(seed=1))
    for loaded in (pickle.loads(pickle.dumps(run)), copy.deepcopy(run)):
        assert loaded == run and loaded.counts.tobytes() == run.counts.tobytes()
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
