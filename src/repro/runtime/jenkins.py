"""Bob Jenkins' one-at-a-time hash.

The paper (section 3.1) hashes keys wider than 32 bits down to a 32-bit
key with "a hash function [11]" — reference [11] is Jenkins' Dr. Dobb's
article.  We implement the classic one-at-a-time variant over the bytes
of the key words.
"""

from __future__ import annotations

import struct
from typing import Iterable

_U32 = 0xFFFFFFFF
_u32 = _U32.__and__


def jenkins_one_at_a_time(data: Iterable[int]) -> int:
    """Hash a byte iterable to an unsigned 32-bit value."""
    # h += h << k is h *= 2**k + 1 modulo 2**32: one multiply per step
    h = 0
    for byte in data:
        h = ((h + (byte & 0xFF)) * 1025) & _U32  # += byte; += h << 10
        h ^= h >> 6
    h = (h * 9) & _U32  # += h << 3
    h ^= h >> 11
    return (h * 32769) & _U32  # += h << 15


def hash_key_words(words: tuple) -> int:
    """Hash a tuple of 32-bit key words to an unsigned 32-bit value.

    A single-word key is used directly (the paper's simple case: "the
    hash key is simply the value of the input"); wider keys go through
    Jenkins' function over the words' little-endian bytes.
    """
    n = len(words)
    if n == 1:
        return words[0] & _U32
    return jenkins_one_at_a_time(struct.pack(f"<{n}I", *map(_u32, words)))
