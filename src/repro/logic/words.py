"""uint64 word-array kernels behind the model checker and the safety scan.

A set of points of an interpreted system is a numpy ``uint64`` word array over
the dense point index ``run * stride + time`` (little endian: point ``p`` lives
in bit ``p % 64`` of word ``p // 64``).  The system packs its atoms into such
arrays straight from per-point bool vectors and keeps each agent's
indistinguishability classes as a point-indexed class-id vector.  This module
provides the primitives that :class:`~repro.logic.semantics.ModelChecker` and
the Definition 6.2 safety scan are built from:

* packing and unpacking between word arrays and per-point bit vectors (with
  careful handling of the garbage tail bits of the last word when the point
  count is not a multiple of 64 — pinned by the property tests in
  ``tests/test_properties.py``, which use the ``int`` conversions
  :func:`mask_to_words` / :func:`words_to_mask` as big-integer references);
* word-level shift pipelines for the temporal operators (cross-word carries;
  callers mask the run boundaries);
* per-equivalence-class reductions (``class_all`` / ``class_any``) over a
  point-indexed class-id vector (narrowed by :func:`class_id_dtype`), which
  turn the per-class membership sweeps of ``K_i`` and the safety condition
  into ``np.bincount`` calls;
* ``np.nonzero``-style point-index recovery for counterexample extraction.

numpy is a required dependency.
"""

from __future__ import annotations

from typing import Any, List, TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

__all__ = [
    "WORD_BITS",
    "word_count",
    "full_words",
    "zero_words",
    "mask_to_words",
    "words_to_mask",
    "unpack_words",
    "pack_bits",
    "indices_of_words",
    "shift_down_words",
    "shift_up_words",
    "class_all",
    "class_any",
    "class_id_dtype",
]

#: Bits per word of the packed representation.
WORD_BITS = 64

#: Explicit little-endian uint64: the byte layout of a word array is defined
#: identically on every platform, so ``tobytes``/``frombuffer`` round-trips
#: agree with ``int.to_bytes(..., "little")``.
WORD_DTYPE = np.dtype("<u8")
_ONE = np.uint64(1)
_SIXTY_THREE = np.uint64(63)


def word_count(num_points: int) -> int:
    """Words needed to hold ``num_points`` bits."""
    return (num_points + WORD_BITS - 1) // WORD_BITS


def full_words(num_points: int) -> "npt.NDArray[Any]":
    """The word array with every one of the ``num_points`` bits set.

    The tail bits of the last word (when ``num_points % 64 != 0``) are zero —
    this is the canonical form every kernel maintains, so word-wise equality
    is set equality.
    """
    words = np.full(word_count(num_points), np.uint64(0xFFFFFFFFFFFFFFFF),
                    dtype=WORD_DTYPE)
    tail = num_points % WORD_BITS
    if tail and len(words):
        words[-1] = np.uint64((1 << tail) - 1)
    return words


def zero_words(num_points: int) -> "npt.NDArray[Any]":
    """The empty set as a word array over ``num_points`` points."""
    return np.zeros(word_count(num_points), dtype=WORD_DTYPE)


def mask_to_words(mask: int, num_points: int) -> "npt.NDArray[Any]":
    """Convert an ``int`` bitmask over ``num_points`` points to a word array."""
    if mask < 0:
        raise ValueError("a point-set mask must be non-negative")
    if mask.bit_length() > num_points:
        raise ValueError(
            f"mask has bit {mask.bit_length() - 1} set but the system only has "
            f"{num_points} points")
    data = mask.to_bytes(word_count(num_points) * 8, "little")
    return np.frombuffer(data, dtype=WORD_DTYPE).copy()


def words_to_mask(words: "npt.NDArray[Any]") -> int:
    """Convert a (canonical, tail-clean) word array back to an ``int`` bitmask."""
    return int.from_bytes(np.ascontiguousarray(words, dtype=WORD_DTYPE).tobytes(),
                          "little")


def unpack_words(words: "npt.NDArray[Any]", num_points: int) -> "npt.NDArray[Any]":
    """Per-point 0/1 ``uint8`` vector of a word array (tail bits dropped)."""
    as_bytes = np.ascontiguousarray(words, dtype=WORD_DTYPE).view(np.uint8)
    return np.unpackbits(as_bytes, bitorder="little")[:num_points]


def pack_bits(bits: "npt.NDArray[Any]") -> "npt.NDArray[Any]":
    """Pack a per-point 0/1 (or bool) vector into a canonical word array.

    The inverse of :func:`unpack_words`: the tail bits of the last word are
    zero, so the result compares word-wise with every other canonical array.
    """
    packed = np.packbits(bits, bitorder="little")
    nbytes = word_count(len(bits)) * 8
    if packed.nbytes != nbytes:
        padded = np.zeros(nbytes, dtype=np.uint8)
        padded[:packed.nbytes] = packed
        packed = padded
    return packed.view(WORD_DTYPE)


def indices_of_words(words: "npt.NDArray[Any]", num_points: int) -> "npt.NDArray[Any]":
    """The sorted dense point indices of the set bits (vectorized recovery).

    This is the ``np.nonzero``-style replacement for iterating a Python int
    bit by bit: counterexample extraction and the safety scan's violation
    reporting recover their points through it, which also pins the dense-index
    (run-major, time-minor) ordering guarantee.
    """
    return np.nonzero(unpack_words(words, num_points))[0]


def shift_down_words(words: "npt.NDArray[Any]") -> "npt.NDArray[Any]":
    """``mask >> 1`` over the packed array: bit ``p`` receives bit ``p + 1``.

    Pure shift with cross-word carries; callers mask off the final time of
    each run to stop run segments leaking into each other.
    """
    out = words >> _ONE
    if len(words) > 1:
        out[:-1] |= words[1:] << _SIXTY_THREE
    return out


def shift_up_words(words: "npt.NDArray[Any]", full: "npt.NDArray[Any]") -> "npt.NDArray[Any]":
    """``(mask << 1) & full`` over the packed array: bit ``p`` receives bit ``p - 1``.

    ``full`` (from :func:`full_words`) clips the bit shifted past the last
    point, keeping the array canonical.
    """
    out = words << _ONE
    if len(words) > 1:
        out[1:] |= words[:-1] >> _SIXTY_THREE
    out &= full
    return out


def class_all(class_ids: "npt.NDArray[Any]", num_classes: int,
              member_bits: "npt.NDArray[Any]") -> "npt.NDArray[Any]":
    """Per-point bool: does *every* point of this point's class satisfy ``member_bits``?

    ``class_ids`` maps each point to its equivalence-class id; the reduction
    is one ``np.bincount`` over the failing points.  This is exactly the
    ``K_i`` sweep: a class whose every point satisfies the operand contributes
    wholesale, any other class not at all.
    """
    failing = np.bincount(class_ids[member_bits == 0], minlength=num_classes)
    return (failing == 0)[class_ids]


def class_any(class_ids: "npt.NDArray[Any]", num_classes: int,
              member_bits: "npt.NDArray[Any]") -> "npt.NDArray[Any]":
    """Per-point bool: does *some* point of this point's class satisfy ``member_bits``?

    The existential dual of :func:`class_all` — the "some indistinguishable
    point with property X" witnesses of the Definition 6.2 safety clauses.
    """
    hits = np.bincount(class_ids[member_bits != 0], minlength=num_classes)
    return (hits > 0)[class_ids]


#: Class-count ceiling for the dense ``(num_classes, num_words)`` ``K_i``
#: sweep; above it the memory of the stacked matrix stops paying for itself
#: and :class:`~repro.logic.semantics.ModelChecker` switches to the
#: class-id / ``bincount`` reduction.  Module-level so tests can force either
#: path.
DENSE_CLASS_LIMIT = 64


def class_id_dtype(num_classes: int) -> "np.dtype[Any]":
    """The smallest unsigned integer dtype that holds class ids ``0 .. num_classes - 1``.

    Point-indexed class-id vectors are the largest per-agent arrays a system
    keeps, so they are stored no wider than the class count needs.
    :func:`numpy.bincount` and fancy indexing accept every dtype returned here.
    """
    for dtype in (np.uint8, np.uint16):
        if num_classes <= np.iinfo(dtype).max + 1:
            return np.dtype(dtype)
    return np.dtype(np.uint32)


def blocks(num_items: int, num_blocks: int) -> List[Tuple[int, int]]:
    """Split ``[0, num_items)`` into at most ``num_blocks`` contiguous ranges.

    The run-space sharding unit for the scan fan-out (each shard is a
    contiguous run range, so shard results concatenate back in system order).
    """
    if num_items <= 0:
        return []
    count = max(1, min(num_blocks, num_items))
    size = -(-num_items // count)
    return [(start, min(start + size, num_items))
            for start in range(0, num_items, size)]
