"""Counter-based random streams.

Streams are keyed by (master seed, *path), where the path is any sequence
of ints/strings naming the consumer (trial index, module tag, ...).  The
key is hashed into a Philox counter-based generator, so every stream is
independent of every other one and of the order in which streams are
created.  Re-keying instead of sequential splitting keeps trials
reproducible in isolation: trial k draws the same numbers whether or not
trials 0..k-1 ever ran.

A Philox stream's numbers depend only on its key and counter, so
``trial_stream`` hands out the same draws as ``stream`` without building
a generator: each thread keeps one generator per last path element (the
module tag) and re-keys it on every call.  The object it returns is
reused by that thread's next call with the same tag, so it is only for
code that is done with a stream before asking for the next one of that
tag, such as one trial's five streams.  ``stream`` returns an
independent generator on every call.  ``engine.run_experiment`` runs
trials in parallel as processes, each with its own copy; the generators
are kept per thread so that library callers may still run trials on
threads of their own.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

RandomStream = np.random.Generator

_ZERO_WORDS = np.zeros(4, dtype=np.uint64)  # copied in by the state setter


class _TagGenerators(threading.local):
    def __init__(self) -> None:
        self.by_tag: dict[int | str, RandomStream] = {}


_per_thread = _TagGenerators()


def _key(master_seed: int, path: tuple[int | str, ...]) -> np.ndarray:
    h = hashlib.sha256()
    h.update(str(int(master_seed)).encode())
    for part in path:
        h.update(b"/")
        h.update(str(part).encode())
    return np.frombuffer(h.digest()[:16], dtype=np.uint64)


def stream(master_seed: int, *path: int | str) -> RandomStream:
    """Derive an independent generator for (master_seed, *path)."""
    return np.random.Generator(np.random.Philox(key=_key(master_seed, path)))


def trial_stream(master_seed: int, *path: int | str) -> RandomStream:
    """The draws of ``stream(master_seed, *path)`` from this thread's generator for ``path[-1]``.

    The generator is re-keyed in place: counter 0, an empty buffer and
    the key ``stream`` would use.  It stays valid until this thread next
    asks for a stream with the same last path element.
    """
    generators = _per_thread.by_tag
    rng = generators.get(path[-1])
    if rng is None:
        rng = generators[path[-1]] = stream(master_seed, *path)
    else:
        rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO_WORDS, "key": _key(master_seed, path)},
            "buffer": _ZERO_WORDS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
    return rng
