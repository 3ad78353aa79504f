"""Bulk key building and hashing against their per-element references.

Hash keys feed both the profiler (which decides what is transformed) and
the reuse tables (which decide hits), so the fast paths must agree
bit-for-bit with the plain definitions, including the odd values.
"""

import math
import random
import struct

import pytest

from repro.errors import InterpError
from repro.runtime.intrinsics import _flatten_aggregate, _key_words
from repro.runtime.jenkins import hash_key_words

_U32 = 0xFFFFFFFF


# -- references: the plain per-element / per-byte definitions -------------------


def _float_bits(value: float) -> int:
    return struct.unpack("<I", struct.pack("<f", value))[0]


def _flatten_reference(words: list, value) -> None:
    if type(value) is tuple:
        backing, offset = value
        value = backing[offset:]
    if not isinstance(value, list):
        raise InterpError("aggregate key input is not an array")
    for item in value:
        if isinstance(item, list):
            _flatten_reference(words, item)
        elif isinstance(item, float):
            words.append(_float_bits(item))
        else:
            words.append(item & _U32)


def _hash_reference(words: tuple) -> int:
    if len(words) == 1:
        return words[0] & _U32

    def word_bytes():
        for word in words:
            w = word & _U32
            yield w & 0xFF
            yield (w >> 8) & 0xFF
            yield (w >> 16) & 0xFF
            yield (w >> 24) & 0xFF

    h = 0
    for byte in word_bytes():
        h = (h + (byte & 0xFF)) & _U32
        h = (h + ((h << 10) & _U32)) & _U32
        h ^= h >> 6
    h = (h + ((h << 3) & _U32)) & _U32
    h ^= h >> 11
    h = (h + ((h << 15) & _U32)) & _U32
    return h


def _flattened(fn, value):
    words: list = []
    fn(words, value)
    return words


# -- _flatten_aggregate ---------------------------------------------------------------

_ODD_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1e-45, 3.4e38, -2.5]

_CASES = {
    "empty": [],
    "ints": [0, 1, -1, 2**31 - 1, -(2**31), 7],
    "ints_out_of_i32": [2**31, -(2**31) - 1, 2**40, -(2**40), 5],
    "floats": _ODD_FLOATS,
    "bools": [True, False, True],
    "ints_and_bools": [3, True, -4, False],
    "ints_and_floats": [1, 2.5, -3, -0.0],
    "float_then_int": [1.5, 2],
    "nested_ints": [[1, 2, 3], [-4, 5, 6]],
    "nested_floats": [[0.5, -0.0], [math.inf, math.nan]],
    "nested_mixed": [[1, 2.0], [True, [3, -0.0]], 4],
    "view_start": ([10, -20, 30, -40], 0),
    "view_middle": ([1.0, 2.0, -0.0, math.inf], 2),
    "view_end": ([1, 2, 3], 3),
    "view_nested": ([[1, 2], [3, 4], [5, 6]], 1),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_flatten_matches_reference(name):
    value = _CASES[name]
    expected = _flattened(_flatten_reference, value)
    got = _flattened(_flatten_aggregate, value)
    assert got == expected
    assert all(type(w) is int and 0 <= w <= _U32 for w in got)


def test_flatten_random_lists_match_reference():
    rng = random.Random(13)
    pools = [
        lambda: rng.randrange(-(2**33), 2**33),
        lambda: rng.randrange(-(2**31), 2**31),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: rng.choice(_ODD_FLOATS),
        lambda: rng.random() < 0.5,
    ]
    for _ in range(500):
        kinds = rng.sample(pools, rng.randrange(1, len(pools) + 1))
        value = [rng.choice(kinds)() for _ in range(rng.randrange(0, 40))]
        assert _flattened(_flatten_aggregate, value) == _flattened(_flatten_reference, value)


def test_flatten_errors_match_reference():
    for value in (5, None, 1.5):
        with pytest.raises(InterpError):
            _flattened(_flatten_aggregate, value)
    # single precision cannot hold it: both raise the same error
    for fn in (_flatten_reference, _flatten_aggregate):
        with pytest.raises(OverflowError):
            _flattened(fn, [1e300, 2.0])


def test_key_words_of_each_kind():
    key = _key_words([-1, -0.0, [1, 2.0], ([7, 8, 9], 1)], [0, 1, 2, 2])
    assert key == (_U32, 0x80000000, 1, _float_bits(2.0), 8, 9)


# -- hash_key_words -------------------------------------------------------------------


def test_hash_matches_byte_generator_reference():
    rng = random.Random(29)
    edge = [0, 1, -1, _U32, 2**32, -(2**32) - 1, 2**63 + 5, -(2**63), 0x80000000]
    for _ in range(3000):
        width = rng.randrange(0, 12)
        words = tuple(
            rng.choice(edge) if rng.random() < 0.3 else rng.randrange(-(2**40), 2**40)
            for _ in range(width)
        )
        assert hash_key_words(words) == _hash_reference(words), words
    for word in edge:
        assert hash_key_words((word,)) == _hash_reference((word,))
