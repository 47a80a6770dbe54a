"""Dense bitsets and index matrices: the storage layer of the fast engine.

Python's arbitrary-precision integers are contiguous arrays of 30-bit limbs,
so a dependency set over an interned :class:`~repro.mir.indices.LocationDomain`
stored as one ``int`` supports union (``|``), subset (``a & b == a``) and
membership (``bits >> i & 1``) as single C-level operations — the same trick
rustc's ``BitSet``/``IndexMatrix`` play with ``u64`` words.  The indexed
dependency context stores raw ints on its hot path; the classes here are the
structured faces of that representation:

* :class:`BitSet` — a tiny mutable wrapper whose in-place union returns a
  *dirty bit*, the change signal the worklist fixpoint keys off;
* :class:`IndexMatrix` — rows of bits keyed by a row index (place index →
  location bits for Θ, place index → place bits for loan sets), with
  key-wise in-place union, equality, and a stable fingerprint.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, Tuple

try:  # Python >= 3.10
    (0).bit_count

    def popcount(bits: int) -> int:
        """Number of set bits of a non-negative int."""
        return bits.bit_count()

except AttributeError:  # pragma: no cover - exercised on 3.9 CI only

    def popcount(bits: int) -> int:
        """Number of set bits of a non-negative int."""
        return bin(bits).count("1")


def iter_bits(bits: int) -> Iterator[int]:
    """Indices of the set bits of ``bits``, ascending."""
    while bits:
        lsb = bits & -bits
        yield lsb.bit_length() - 1
        bits ^= lsb


def mask_of(indices: Iterable[int]) -> int:
    """The bitset with exactly ``indices`` set."""
    bits = 0
    for index in indices:
        bits |= 1 << index
    return bits


class BitSet:
    """A mutable set of small ints backed by one Python int."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        self.bits = bits

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "BitSet":
        return cls(mask_of(indices))

    def __len__(self) -> int:
        return popcount(self.bits)

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, index: int) -> bool:
        return (self.bits >> index) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitSet):
            return self.bits == other.bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitSet({{{', '.join(map(str, self))}}})"

    # -- mutation ---------------------------------------------------------------

    def add(self, index: int) -> bool:
        """Set one bit; True when it was newly set (the dirty bit)."""
        before = self.bits
        self.bits = before | (1 << index)
        return self.bits != before

    def ior(self, other: "BitSet") -> bool:
        """In-place union; True when any new bit appeared (the dirty bit)."""
        return self.ior_bits(other.bits)

    def ior_bits(self, bits: int) -> bool:
        """In-place union with a raw mask; True when any new bit appeared."""
        before = self.bits
        self.bits = before | bits
        return self.bits != before

    # -- queries ----------------------------------------------------------------

    def is_subset_of(self, other: "BitSet") -> bool:
        return self.bits & other.bits == self.bits

    def copy(self) -> "BitSet":
        return BitSet(self.bits)

    def fingerprint(self) -> str:
        """Stable content digest (hex of the underlying integer)."""
        return hashlib.sha256(format(self.bits, "x").encode("ascii")).hexdigest()[:16]


class IndexMatrix:
    """A sparse matrix of bit rows: row index → int bitset.

    Absent rows read as empty; a row is materialised by the first write.
    This is the value representation behind the indexed dependency context
    (Θ as place-index rows of location bits) and the interned loan map.
    """

    __slots__ = ("rows", "keys_mask")

    def __init__(self, rows: Dict[int, int] = None, keys_mask: int = None):
        self.rows: Dict[int, int] = {} if rows is None else rows
        # Bitset of materialised row indices, maintained on every insert: it
        # lets conflict scans intersect against the tracked-row set in one
        # ``&`` and then visit only the overlapping rows.
        if keys_mask is None:
            keys_mask = mask_of(self.rows)
        self.keys_mask = keys_mask

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: int) -> bool:
        return row in self.rows

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IndexMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("IndexMatrix is mutable and unhashable")

    # -- rows -------------------------------------------------------------------

    def row(self, index: int) -> int:
        return self.rows.get(index, 0)

    def set_row(self, index: int, bits: int) -> None:
        self.rows[index] = bits
        self.keys_mask |= 1 << index

    def or_row(self, index: int, bits: int) -> bool:
        """Union ``bits`` into one row; True when the row grew (dirty bit).

        The row is materialised even when ``bits`` is empty — presence of a
        row is meaningful to Θ (a tracked place with no dependencies is
        different from an untracked place).
        """
        before = self.rows.get(index)
        if before is None:
            self.rows[index] = bits
            self.keys_mask |= 1 << index
            return True
        after = before | bits
        if after != before:
            self.rows[index] = after
            return True
        return False

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(self.rows.items())

    # -- whole-matrix operations -------------------------------------------------

    def union_into(self, other: "IndexMatrix") -> bool:
        """Key-wise in-place union of ``other`` into self; returns the dirty
        bit — the change-detection signal of the bitset fixpoint driver."""
        dirty = False
        rows = self.rows
        for index, bits in other.rows.items():
            before = rows.get(index)
            if before is None:
                rows[index] = bits
                dirty = True
            else:
                after = before | bits
                if after != before:
                    rows[index] = after
                    dirty = True
        self.keys_mask |= other.keys_mask
        return dirty

    def copy(self) -> "IndexMatrix":
        return IndexMatrix(dict(self.rows), self.keys_mask)

    def popcount_total(self) -> int:
        """Total number of set bits across all rows (Θ's ``total_size``)."""
        return sum(popcount(bits) for bits in self.rows.values())

    def density(self, num_rows: int, num_cols: int) -> float:
        """Fraction of set bits over a ``num_rows × num_cols`` dense grid."""
        cells = num_rows * num_cols
        if cells <= 0:
            return 0.0
        return self.popcount_total() / cells

    def fingerprint(self) -> str:
        """A stable digest over sorted rows: equal matrices (as mappings,
        ignoring insertion order) have equal fingerprints."""
        joined = "|".join(
            f"{index}:{format(bits, 'x')}" for index, bits in sorted(self.rows.items())
        )
        return hashlib.sha256(joined.encode("ascii")).hexdigest()[:16]
