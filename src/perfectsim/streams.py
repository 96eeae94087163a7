"""Deterministic keyed uniforms.

Every uniform used by the samplers is a pure function of a StreamKey
(seed, replication, time, optional past-window id).  Counter-based rather
than sequential: the backward algorithms revisit old times in later rounds
and the coupled route may interleave per-past streams, so the value at a key must never depend
on query order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class StreamKey:
    """Address of one uniform variate.

    ``time`` is a signed integer (backward runs use negative times).
    ``past_id`` is the index of a past window when the coupled route runs
    per-past streams; ``None`` for the single-stream algorithm and for the
    coupled route's shared coupling, where every past reads ``u(time)``.
    """

    seed: int
    replication: int = 0
    time: int = 0
    past_id: Optional[int] = None

    def at(self, time: int, past_id: Optional[int] = None) -> "StreamKey":
        return replace(self, time=time, past_id=past_id)


def _mix64(z: int) -> int:
    # splitmix64 finalizer (Steele, Lea, Flood 2014); full-avalanche bijection.
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _stream_prefix(seed: int, replication: int) -> int:
    """Hash state after absorbing the (seed, replication) fields of a key."""
    h = _mix64((seed & _MASK64) + _GAMMA)
    return _mix64(h ^ ((replication & _MASK64) + _GAMMA))


def _uniform_finish(prefix: int, time: int, past_id: Optional[int] = None) -> float:
    """Absorb (time, past_id) into a :func:`_stream_prefix` state; see uniform_at."""
    h = _mix64(prefix ^ ((time & _MASK64) + _GAMMA))
    pid = 0 if past_id is None else past_id + 1
    h = _mix64(h ^ ((pid & _MASK64) + _GAMMA))
    return (h >> 11) * 2.0**-53


def uniform_at(key: StreamKey) -> float:
    """Uniform in [0, 1) with 53 bits of precision, pure in ``key``.

    Each key field is absorbed through a full mixing round so that nearby
    keys (adjacent times, adjacent replications) decorrelate.  Negative
    times enter via their two's-complement 64-bit image.
    """
    return _uniform_finish(
        _stream_prefix(key.seed, key.replication), key.time, key.past_id
    )


def keyed_uniforms(key: StreamKey):
    """The samplers' default stream: ``u(time, past_id=None)``, equal to
    ``uniform_at(key.at(time, past_id))`` with the (seed, replication)
    prefix hashed once instead of on every call."""
    return partial(_uniform_finish, _stream_prefix(key.seed, key.replication))
