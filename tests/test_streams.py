"""Keyed uniform streams: determinism, field separation, distribution."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from perfectsim.streams import StreamKey, keyed_uniforms, uniform_at

ints = st.integers(min_value=-(2**62), max_value=2**62)
pids = st.one_of(st.none(), st.integers(min_value=0, max_value=2**32))


@given(seed=ints, rep=ints, t=ints, pid=pids)
def test_uniform_lands_in_unit_interval(seed, rep, t, pid):
    u = uniform_at(StreamKey(seed, rep, t, pid))
    assert 0.0 <= u < 1.0


@given(seed=ints, rep=ints, t=ints, pid=pids)
def test_pure_function_of_the_key(seed, rep, t, pid):
    assert uniform_at(StreamKey(seed, rep, t, pid)) == uniform_at(
        StreamKey(seed, rep, t, pid)
    )


def test_every_key_field_matters():
    base = StreamKey(seed=1, replication=2, time=-3, past_id=4)
    u0 = uniform_at(base)
    variants = [
        dataclasses.replace(base, seed=2),
        dataclasses.replace(base, replication=3),
        dataclasses.replace(base, time=3),
        dataclasses.replace(base, time=-4),
        dataclasses.replace(base, past_id=5),
        dataclasses.replace(base, past_id=None),
        dataclasses.replace(base, past_id=0),
    ]
    for other in variants:
        assert uniform_at(other) != u0


def test_no_past_id_is_a_distinct_stream_from_past_id_zero():
    # the single-trajectory sampler and trajectory 0 of the coupled sampler
    # must never share draws
    a = uniform_at(StreamKey(7, 0, -11, None))
    b = uniform_at(StreamKey(7, 0, -11, 0))
    assert a != b


def test_at_rekeys_time_and_past_id_only():
    key = StreamKey(seed=9, replication=3)
    k2 = key.at(-5, 1)
    assert (k2.seed, k2.replication, k2.time, k2.past_id) == (9, 3, -5, 1)
    k3 = key.at(4)
    assert k3.time == 4 and k3.past_id is None
    assert (k3.seed, k3.replication) == (9, 3)


def test_keys_are_immutable():
    key = StreamKey(seed=9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        key.time = 1


def test_frozen_reference_values():
    # Pinned draws: any change to the mixing chain silently rewires every
    # sampler in the package, so a bump here must be deliberate.
    assert uniform_at(StreamKey(0, 0, 0, None)) == 0.7581141950548506
    assert uniform_at(StreamKey(0, 0, -1, None)) == 0.11584625935360593
    assert uniform_at(StreamKey(1, 0, 0, None)) == 0.43589861251579287
    assert uniform_at(StreamKey(2026, 7, -3, 4)) == 0.5182760286422454
    assert uniform_at(StreamKey(7, 0, -11, None)) == 0.855163504574167
    assert uniform_at(StreamKey(7, 0, -11, 0)) == 0.4664355801268727
    assert uniform_at(StreamKey(-5, -2, 9, 1)) == 0.21296781326838965


def test_per_run_stream_equals_the_keyed_uniforms():
    # the samplers' default stream hashes (seed, replication) once per run;
    # every value must still be uniform_at of the full key
    for seed, rep in ((0, 0), (2026, 7), (-5, -2), (2**63 + 11, 3)):
        key = StreamKey(seed, rep)
        u = keyed_uniforms(key)
        for t in range(-300, 1, 7):
            assert u(t) == uniform_at(key.at(t))
            for pid in range(6):
                assert u(t, pid) == uniform_at(key.at(t, pid))
    assert keyed_uniforms(StreamKey(2026, 7))(-3, 4) == 0.5182760286422454


def test_empirical_moments_across_replications():
    n = 20_000
    xs = [uniform_at(StreamKey(123, i)) for i in range(n)]
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    assert abs(mean - 0.5) < 4 * math.sqrt(1.0 / 12.0 / n)
    assert abs(var - 1.0 / 12.0) < 4 * 0.0745 / math.sqrt(n)
    assert min(xs) < 0.01 and max(xs) > 0.99


def test_adjacent_times_are_decorrelated():
    n = 4000
    pairs = [
        (uniform_at(StreamKey(5, 0, t)), uniform_at(StreamKey(5, 0, t + 1)))
        for t in range(-n, 0)
    ]
    mx = sum(a for a, _ in pairs) / n
    my = sum(b for _, b in pairs) / n
    cov = sum((a - mx) * (b - my) for a, b in pairs) / n
    # Var(U) = 1/12, so 4 SE of the sample covariance is ~ (4/12)/sqrt(n)
    assert abs(cov) < 4.0 / 12.0 / math.sqrt(n)
