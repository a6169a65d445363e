"""Partitions, weights, and tableaux over the barred alphabet.

Conventions used across the package:

* A partition is a tuple of weakly decreasing positive ints, e.g. ``(3, 1)``;
  the empty partition is ``()``.  Trailing zeros are accepted on input by
  :func:`normalize_partition` but never stored.
* A weight for rank ``m`` is a tuple of ``m`` ints.  Coordinate ``i``
  (0-based) is the coefficient of the basis vector attached to the barred
  letter ``i+1``.  A weight is dominant when its coordinates are weakly
  increasing and nonnegative; the corresponding partition is the reversed
  coordinate tuple.
* The barred alphabet is ordered ``1 < 1' < 2 < 2' < ... < m < m'`` where the
  primed letter is the barred one.  A letter is stored as a signed int:
  ``+i`` for the plain letter and ``-i`` for the barred letter.  Text form
  uses a ``b`` suffix (``2b`` is barred 2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import product
from operator import ge, le, lt
from typing import Iterable, Iterator

Partition = tuple[int, ...]
Weight = tuple[int, ...]


# ---------------------------------------------------------------------------
# partitions


def normalize_partition(parts) -> Partition:
    """Validate weak decrease and strip trailing zeros; raise ValueError otherwise."""
    parts = tuple(map(int, parts))
    n = len(parts)
    while n and parts[n - 1] == 0:
        n -= 1
    parts = parts[:n]
    if not all(map(ge, parts, parts[1:])):
        raise ValueError(f"not weakly decreasing: {parts}")
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    return parts


def shape_in_rows(mu, m: int) -> Partition:
    """``mu`` normalized; ValueError when it has more than ``m`` rows."""
    mu = normalize_partition(mu)
    if len(mu) > m:
        raise ValueError(f"shape {mu} has more than {m} rows")
    return mu


def conjugate(mu: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not mu:
        return ()
    return tuple(sum(1 for p in mu if p > i) for i in range(mu[0]))


def interlacing_partitions(bounds: Iterable[tuple[int, int]]) -> Iterator[Partition]:
    """Partitions whose part ``r`` ranges over ``bounds[r]`` (inclusive), in
    lexicographic order.

    The shapes one horizontal strip away from a fixed shape have bounds that
    interlace, each row's lower bound at least the next row's upper bound, so
    every choice is weakly decreasing and needs no check.
    """
    for parts in product(*(range(lo, hi + 1) for lo, hi in bounds)):
        yield tuple(p for p in parts if p)


def rect_complement(mu: Partition, rows: int, cols: int) -> Partition:
    """Complement of ``mu`` inside the ``rows x cols`` rectangle.

    The result is read off upside down: part ``i`` is ``cols`` minus part
    ``rows+1-i`` of ``mu``.  Raises ValueError when ``mu`` does not fit.
    """
    if len(mu) > rows or (mu and mu[0] > cols):
        raise ValueError(f"{mu} does not fit in a {rows}x{cols} rectangle")
    padded = mu + (0,) * (rows - len(mu))
    return normalize_partition(cols - padded[rows - 1 - i] for i in range(rows))


def partitions_in_box(rows: int, cols: int) -> Iterator[Partition]:
    """All partitions fitting in a ``rows x cols`` rectangle, lexicographically."""

    def rec(prev: int, left: int) -> Iterator[tuple[int, ...]]:
        yield ()
        if left == 0:
            return
        for first in range(1, prev + 1):
            for rest in rec(first, left - 1):
                yield (first, *rest)

    yield from rec(cols, rows)


def partitions_of(n: int, max_length: int | None = None) -> Iterator[Partition]:
    """All partitions of ``n``, optionally with at most ``max_length`` parts."""

    def rec(left: int, prev: int, slots: int) -> Iterator[tuple[int, ...]]:
        if left == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(left, prev), 0, -1):
            for rest in rec(left - first, first, slots - 1):
                yield (first, *rest)

    yield from rec(n, n, n if max_length is None else max_length)


def partitions_upto(n: int, max_length: int | None = None) -> list[Partition]:
    """Partitions of size at most ``n``, by size, then as :func:`partitions_of`."""
    return [p for k in range(n + 1) for p in partitions_of(k, max_length)]


def parse_partition(text: str) -> Partition:
    """Parse ``[3,1]`` (or ``[]``) into a partition."""
    return normalize_partition(parse_int_list(text))


def format_partition(mu: Partition) -> str:
    return "[" + ",".join(str(p) for p in mu) + "]"


def parse_int_list(text: str) -> tuple[int, ...]:
    """Parse a bracketed comma-separated int list like ``[2,0,-1]``."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"expected a bracketed list, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ()
    try:
        return tuple(int(tok) for tok in body.split(","))
    except ValueError:
        raise ValueError(f"malformed int list {text!r}") from None


# ---------------------------------------------------------------------------
# weights


def weight_to_partition(w: Weight) -> Partition:
    """Partition attached to a dominant weight (reversed coordinates)."""
    try:
        return normalize_partition(reversed(w))
    except ValueError:
        raise ValueError(f"weight {w} is not dominant") from None


def simple_root(i: int, m: int) -> Weight:
    """Simple root ``alpha_i`` for index ``0 <= i < m`` in weight coordinates."""
    if not 0 <= i < m:
        raise ValueError(f"index {i} out of range for rank {m}")
    alpha = [0] * m
    if i == 0:
        alpha[0] = 2
    else:
        alpha[i - 1] = -1
        alpha[i] = 1
    return tuple(alpha)


def coroot_pairing(w: Weight, i: int) -> int:
    """Pairing of a weight with the simple coroot ``alpha_i^v``."""
    if not 0 <= i < len(w):
        raise ValueError(f"index {i} out of range for rank {len(w)}")
    return w[0] if i == 0 else w[i] - w[i - 1]


# ---------------------------------------------------------------------------
# barred alphabet


def letter_rank(x: int) -> int:
    """Position of a signed letter in the order 1 < 1' < 2 < 2' < ...  (1-based)."""
    if x == 0:
        raise ValueError("0 is not a letter")
    return 2 * x - 1 if x > 0 else -2 * x


def rank_letter(r: int) -> int:
    """Inverse of :func:`letter_rank`."""
    if r < 1:
        raise ValueError(f"bad rank {r}")
    return (r + 1) // 2 if r % 2 else -(r // 2)


def format_letter(x: int) -> str:
    return str(x) if x > 0 else f"{-x}b"


_LETTER_RE = re.compile(r"^(\d+)(b?)$")


def parse_letter(tok: str) -> int:
    m = _LETTER_RE.match(tok)
    if not m or int(m.group(1)) == 0:
        raise ValueError(f"bad letter {tok!r}")
    val = int(m.group(1))
    return -val if m.group(2) else val


# ---------------------------------------------------------------------------
# semistandard tableaux (positive int entries)


@dataclass(frozen=True)
class Tableau:
    """Semistandard Young tableau: weakly increasing rows, strict columns.

    ``shape`` is derived from the rows once, at construction; it takes no
    part in equality, hashing or ``repr``.

    ``Tableau(rows)`` checks every condition.  :meth:`_from_trusted` checks
    none: it is for a tableau just built by Schensted insertion from
    positive letters, whose rows are already semistandard tuples and whose
    ``shape`` is their lengths.
    """

    rows: tuple[tuple[int, ...], ...]
    shape: Partition = field(init=False, compare=False, repr=False)

    @classmethod
    def _from_trusted(cls, rows: tuple[tuple[int, ...], ...], shape: Partition) -> "Tableau":
        t = object.__new__(cls)
        t.__dict__.update(rows=rows, shape=shape)  # past the frozen __setattr__
        return t

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        shape = tuple(map(len, rows))
        if not all(map(ge, shape, shape[1:])):
            normalize_partition(shape)  # raises, naming the shape
        object.__setattr__(self, "shape", shape)
        if not all(rows):
            raise ValueError("empty row in tableau")
        for r in rows:
            if min(r) < 1:
                raise ValueError(f"nonpositive entry in row {r}")
            if not all(map(le, r, r[1:])):
                raise ValueError(f"row {r} is not weakly increasing")
        for upper, lower in zip(rows, rows[1:]):
            if not all(map(lt, upper, lower)):
                raise ValueError("columns are not strictly increasing")

    @property
    def size(self) -> int:
        return sum(self.shape)

    def entries(self) -> Iterator[int]:
        for r in self.rows:
            yield from r

    def content(self, m: int) -> tuple[int, ...]:
        """Multiplicity vector of the letters 1..m."""
        counts = [0] * m
        for x in self.entries():
            if x > m:
                raise ValueError(f"entry {x} exceeds alphabet size {m}")
            counts[x - 1] += 1
        return tuple(counts)

    def __str__(self) -> str:
        return "/".join(" ".join(str(x) for x in r) for r in self.rows)


def _fillings(
    mu: Partition, floors: list[int], top: int
) -> list[tuple[tuple[int, ...], ...]]:
    """Rows of every filling of ``mu`` with entries at most ``top`` that weakly
    increase along rows, strictly increase down columns, and are at least
    ``floors[i]`` in row ``i``; lexicographic in the row-major entries."""
    rows = [[0] * p for p in mu]
    cells = [(i, j) for i, p in enumerate(mu) for j in range(p)]
    out: list[tuple[tuple[int, ...], ...]] = []

    def fill(k: int) -> None:
        if k == len(cells):
            out.append(tuple(map(tuple, rows)))
            return
        i, j = cells[k]
        lo = floors[i]
        if j > 0:
            lo = max(lo, rows[i][j - 1])
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        for v in range(lo, top + 1):
            rows[i][j] = v
            fill(k + 1)

    fill(0)
    return out


def tableaux_of_shape(mu: Partition, letters: int) -> Iterator[Tableau]:
    """All semistandard tableaux of shape ``mu`` with entries in ``1..letters``.

    Ordered lexicographically by the entries read row by row.
    """
    mu = normalize_partition(mu)
    for rows in _fillings(mu, [1] * len(mu), letters):
        yield Tableau(rows)


# ---------------------------------------------------------------------------
# King tableaux


@dataclass(frozen=True)
class KingTableau:
    """Symplectic tableau over the barred alphabet.

    Rows weakly increase and columns strictly increase in the barred order,
    and every entry in row ``i`` is at least the plain letter ``i``.
    ``shape`` is derived once, at construction, as for :class:`Tableau`.
    """

    rows: tuple[tuple[int, ...], ...]
    shape: Partition = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        shape = tuple(map(len, rows))
        if not all(map(ge, shape, shape[1:])):
            normalize_partition(shape)  # raises, naming the shape
        object.__setattr__(self, "shape", shape)
        if not all(rows):
            raise ValueError("empty row in tableau")
        ranks = []
        for i, row in enumerate(rows, start=1):
            rank = tuple(map(letter_rank, row))
            if not all(map(le, rank, rank[1:])):
                raise ValueError(f"row {row} is not weakly increasing")
            if rank[0] < letter_rank(i):
                raise ValueError(f"row {i} has an entry below the letter {i}")
            ranks.append(rank)
        for upper, lower in zip(ranks, ranks[1:]):
            if not all(map(lt, upper, lower)):
                raise ValueError("columns are not strictly increasing")

    @property
    def max_letter(self) -> int:
        return max((abs(x) for r in self.rows for x in r), default=0)

    def subshape(self, max_rank: int) -> Partition:
        """Shape of the cells whose letter has rank at most ``max_rank``."""
        return normalize_partition(
            sum(1 for x in r if letter_rank(x) <= max_rank) for r in self.rows
        )

    def __str__(self) -> str:
        return "/".join(" ".join(format_letter(x) for x in r) for r in self.rows)


def king_weight(t: KingTableau, m: int) -> Weight:
    """Weight of a King tableau: coordinate ``i`` counts ``i`` minus barred ``i``."""
    if t.max_letter > m:
        raise ValueError(f"letters exceed rank {m}")
    w = [0] * m
    for r in t.rows:
        for x in r:
            w[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(w)


def enumerate_king(mu: Partition, m: int) -> list[KingTableau]:
    """All King tableaux of shape ``mu`` with letters at most barred ``m``.

    Ordered lexicographically by the row reading word in the barred order.
    """
    mu = shape_in_rows(mu, m)
    return [
        KingTableau(tuple(tuple(rank_letter(r) for r in row) for row in rows))
        for rows in _fillings(mu, [2 * i + 1 for i in range(len(mu))], 2 * m)
    ]


def king_to_text(t: KingTableau) -> str:
    """One row per line, letters like ``2`` and ``2b`` separated by spaces."""
    return "\n".join(" ".join(format_letter(x) for x in r) for r in t.rows)


def king_from_text(text: str) -> KingTableau:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append(tuple(parse_letter(tok) for tok in line.split()))
    return KingTableau(tuple(rows))
