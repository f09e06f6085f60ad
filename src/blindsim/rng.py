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

A key is the first 16 bytes of the SHA-256 of ``"seed/part/..."``, read
as two native-order 64-bit words, as ``np.frombuffer`` would read them.
``_key`` returns the words as Python ints: the state setter stores ints
at about half the cost of numpy arrays, so ``trial_stream`` re-keys with
the two key ints and int zero words for the counter and the buffer.
``stream`` puts the same words in a uint64 array for ``Philox``, which
would round a tuple of ints above 2**63 through a float.
"""

from __future__ import annotations

import hashlib
import struct
import threading

import numpy as np

from .errors import require

RandomStream = np.random.Generator

_KEY_WORDS = struct.Struct("=2Q")
_ZERO_WORDS = (0, 0, 0, 0)  # read word by word by the state setter


class _TagGenerators(threading.local):
    def __init__(self) -> None:
        self.by_tag: dict[int | str, RandomStream] = {}


_per_thread = _TagGenerators()


def _key(master_seed: int, path: tuple[int | str, ...]) -> tuple[int, int]:
    text = "/".join([str(int(master_seed)), *map(str, path)])
    return _KEY_WORDS.unpack_from(hashlib.sha256(text.encode()).digest())


def stream(master_seed: int, *path: int | str) -> RandomStream:
    """Derive an independent generator for (master_seed, *path)."""
    require("master_seed", master_seed, int)
    key = np.array(_key(master_seed, path), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
