"""Oscillating horizontal strips and semistandard oscillating tableaux.

An oscillating horizontal strip walks from an inside shape up to a peak shape
(box additions) and back down to an outside shape (box removals), touching a
partition at every step, with both skew pieces horizontal strips.  It is
stored as the inside shape plus the signed word of row indices: ``+r`` adds a
box in row ``r``, ``-r`` removes one, and the word weakly decreases as signed
ints — which makes it the unique such word for its (inside, peak, outside)
triple.  Checked construction replays the word once on a list of row
lengths, with an O(1) check per box step, and stores the peak (``star``)
and ``outside`` shapes it reaches; they take no part in equality, hashing
or ``repr``.  ``from_partitions`` reads the word off the row differences,
constructs the strip, and checks that it landed on the given peak and
outside: a weakly decreasing word replays through partitions only when both
of its pieces are horizontal strips, so no separate strip test is needed.

A semistandard oscillating tableau (SSOT) is a chain of these strips, each
starting where the previous one ended.  Its crystal is here too, for peaks
at most g columns wide: :func:`ssot_stats` and :func:`ssot_move` (side 0
raises, side 1 lowers).  Index 0 acts on the first strip, ``(1^a 1b^b)``
from the empty shape.  Index i >= 1 brackets the signed rows at the junction
of strips i and i+1, which :func:`strip_pair_multisets` writes and
``_rebuild_junction`` reads back.  Every operator output is built by one
trusted helper, ``_trusted_strip``, which sums its addition and removal rows
onto the inside's row lengths and replays nothing; only the outer shape of
a junction is checked.  ``verify crystal`` keeps the safety net: an output
that is not one of the enumerated chains fails its axiom rows.  The bracket,
:func:`pair_multisets`, is the package's one: :mod:`sympcrystal.crystal`
(which wraps the operators) and the surgery oracle bracket with it too.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterator

from .tableaux import (
    Partition,
    format_letter,
    interlacing_partitions,
    normalize_partition,
    parse_letter,
)


def _box_step(rows: list[int], s: int) -> None:
    """Add a box to row ``s`` (``s > 0``) or remove one from row ``-s`` of the
    row lengths ``rows``, in place; ValueError unless a partition results."""
    r = abs(s) - 1
    if s > 0 and (r > len(rows) or 0 < r < len(rows) and rows[r] == rows[r - 1]):
        raise ValueError(f"cannot add a box to row {s} of {tuple(rows)}")
    if s < 0 and (r >= len(rows) or r + 1 < len(rows) and rows[r] == rows[r + 1]):
        raise ValueError(f"cannot remove a box from row {-s} of {tuple(rows)}")
    if r == len(rows):
        rows.append(0)
    rows[r] += 1 if s > 0 else -1
    if not rows[r]:
        rows.pop()


@dataclass(frozen=True, slots=True)
class OscStrip:
    """One oscillating horizontal strip: ``inside`` and its signed word.

    ``OscStrip(inside, word)`` checks the word and replays it to find
    ``star`` and ``outside``.  :meth:`_from_trusted` checks and replays
    nothing: it is for a strip whose shapes its builder already knows, with
    ``inside`` a partition, ``word`` a weakly decreasing tuple of nonzero
    ints, and ``star`` and ``outside`` the shapes that replaying the word
    from ``inside`` reaches.  Its callers are ``bijections.phi_inverse`` and
    this module's operator outputs, each behind a differential test against
    the checking constructor.
    """

    inside: Partition
    word: tuple[int, ...]
    star: Partition = field(init=False, compare=False, repr=False)  # the peak
    outside: Partition = field(init=False, compare=False, repr=False)

    @classmethod
    def _from_trusted(
        cls, inside: Partition, word: tuple[int, ...], star: Partition, outside: Partition
    ) -> "OscStrip":
        strip = object.__new__(cls)
        # past the frozen __setattr__, into the slots
        object.__setattr__(strip, "inside", inside)
        object.__setattr__(strip, "word", word)
        object.__setattr__(strip, "star", star)
        object.__setattr__(strip, "outside", outside)
        return strip

    def __post_init__(self):
        object.__setattr__(self, "inside", normalize_partition(self.inside))
        object.__setattr__(self, "word", tuple(map(int, self.word)))
        if list(self.word) != sorted(self.word, reverse=True):
            raise ValueError(f"word {self.word} is not weakly decreasing")
        if 0 in self.word:
            raise ValueError("0 is not a row index")
        rows = list(self.inside)
        star = None
        for s in self.word:
            if s < 0 and star is None:
                star = tuple(rows)
            _box_step(rows, s)
        outside = tuple(rows)
        object.__setattr__(self, "star", outside if star is None else star)
        object.__setattr__(self, "outside", outside)

    @property
    def size(self) -> int:
        return len(self.word)

    @property
    def num_cols(self) -> int:
        return self.star[0] if self.star else 0

    @classmethod
    def from_partitions(
        cls, inside: Partition, star: Partition, outside: Partition
    ) -> "OscStrip":
        """The unique strip with this inside, peak and outside, which must be
        partitions (no trailing zeros); ValueError if none."""
        n = len(star)
        below, above = tuple(inside) + (0,) * n, outside + (0,) * n
        word: list[int] = []
        for r in range(n, 0, -1):
            word += [r] * (star[r - 1] - below[r - 1])
        for r in range(1, n + 1):
            word += [-r] * (star[r - 1] - above[r - 1])
        strip = cls(inside, word)
        if (strip.star, strip.outside) != (star, outside):
            raise ValueError(f"{strip.inside}, {star}, {outside} is not a strip")
        return strip

    def __str__(self) -> str:
        return "(" + " ".join(format_letter(s) for s in self.word) + ")"


@dataclass(frozen=True)
class SSOT:
    """Chain of oscillating horizontal strips, each picking up where the last ended.

    ``inside`` is the start shape: the first strip's inside, or the shape
    given (default empty) for a chain with no strips, which also ends there.
    It takes no part in equality, hashing or ``repr``.
    """

    strips: tuple[OscStrip, ...]
    inside: Partition = field(default=(), compare=False, repr=False)
    # the largest column count reached by any strip's peak shape
    num_cols: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # one pass both checks the chain and finds the widest peak: a second
        # scan of the strips made SSOT construction 1.7 times as slow
        strips, prev, num_cols = tuple(self.strips), None, 0
        for s in strips:
            if prev is not None and prev.outside != s.inside:
                raise ValueError(
                    f"strips do not chain: {prev.outside} then inside {s.inside}"
                )
            if s.star and s.star[0] > num_cols:
                num_cols = s.star[0]
            prev = s
        start = strips[0].inside if strips else normalize_partition(self.inside)
        object.__setattr__(self, "strips", strips)
        object.__setattr__(self, "inside", start)
        object.__setattr__(self, "num_cols", num_cols)

    @property
    def outside(self) -> Partition:
        return self.strips[-1].outside if self.strips else self.inside

    @property
    def length(self) -> int:
        return len(self.strips)

    def weight(self) -> tuple[int, ...]:
        """Strip sizes."""
        return tuple(s.size for s in self.strips)

    def crystal_weight(self, g: int) -> tuple[int, ...]:
        """Coordinate i is g minus the size of strip i+1."""
        return tuple(g - s.size for s in self.strips)

    def replace(self, k: int, *new_strips: OscStrip) -> "SSOT":
        """Copy with strips k..k+len(new_strips)-1 (0-based) replaced."""
        parts = (
            self.strips[:k] + tuple(new_strips) + self.strips[k + len(new_strips) :]
        )
        return SSOT(parts)

    def __str__(self) -> str:
        return "".join(str(s) for s in self.strips)


def ssot_to_text(t: SSOT) -> str:
    return str(t)


def ssot_from_text(text: str, inside: Partition = ()) -> SSOT:
    """Parse ``(1 1b)(2 1)...``; ``inside`` is the starting shape."""
    text = text.strip()
    if not text:
        raise ValueError("empty tableau text")
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"expected parenthesised strips, got {text!r}")
    strips: list[OscStrip] = []
    cur = normalize_partition(inside)
    for chunk in text[1:-1].split(")("):
        strips.append(OscStrip(cur, tuple(parse_letter(tok) for tok in chunk.split())))
        cur = strips[-1].outside
    return SSOT(tuple(strips))


# ---------------------------------------------------------------------------
# the crystal: statistics and operators, read off the strips


def shift_overlap(a: list[int], b: list[int], delta: int) -> list[int]:
    """(a minus b) together with the overlap shifted by ``delta``, ascending."""
    out, j = [], 0
    for x in a:
        while j < len(b) and b[j] < x:
            j += 1
        if j < len(b) and b[j] == x:
            x, j = x + delta, j + 1
        out.append(x)
    return sorted(out)


def pair_multisets(c: list[int], d: list[int]) -> tuple[list[int], list[int]]:
    """The package's one bracket: pair each q in d with some p < q in c.

    Both multisets come as ascending lists.  This is matching in the word
    that lists all elements by increasing value with d-elements first at
    ties: scanning q upward, each q closes the largest still-open p below
    it.  (Scanning downward instead picks a matching of the same size but
    the wrong residue.)  Returns (unpaired c, unpaired d), each ascending;
    every leftover on the c side is >= every leftover on the d side.
    """
    avail = list(c)
    left_d: list[int] = []
    for q in d:
        k = bisect_left(avail, q) - 1
        if k >= 0:
            avail.pop(k)
        else:
            left_d.append(q)
    return avail, left_d


def strip_pair_multisets(t: SSOT, i: int) -> tuple[list[int], list[int]]:
    """Signed rows compared at junction i (1-based strips i, i+1), ascending.

    Removal rows of strip i and addition rows of strip i+1 overlap in the
    junction shape, so each side is shifted up past the other before being
    negated/merged.  Sizes come out as the two strip sizes.  A strip word
    lists its additions descending, then its removals negated ascending.
    ValueError unless 1 <= i < t.length.
    """
    if not 1 <= i <= len(t.strips) - 1:
        raise ValueError(f"index {i} out of range for {len(t.strips)} strips")
    lo, hi = t.strips[i - 1].word, t.strips[i].word
    removes_lo = [-s for s in lo if s < 0]
    adds_hi = [s for s in reversed(hi) if s > 0]
    bar_removes = shift_overlap(removes_lo, adds_hi, 1)
    bar_adds = shift_overlap(adds_hi, removes_lo, 1)
    c = [-r for r in reversed(bar_removes)] + [s for s in reversed(lo) if s > 0]
    d = [s for s in reversed(hi) if s < 0] + bar_adds
    return c, d


def _trusted_strip(inside: Partition, adds: list[int], removes: list[int]) -> OscStrip:
    """The strip from ``inside`` that adds a box in each row of ``adds``, then
    removes one from each row of ``removes`` (both ascending), read straight
    off the row lengths: no replay and no check, so the lists must make a
    strip.  The one builder of operator outputs."""
    rows = [*inside, 0]  # a strip opens at most one new row
    for r in adds:
        rows[r - 1] += 1
    star = tuple(rows) if rows[-1] else tuple(rows[:-1])
    for r in removes:
        rows[r - 1] -= 1
    while rows and not rows[-1]:
        rows.pop()
    word = (*reversed(adds), *[-r for r in removes])
    return OscStrip._from_trusted(inside, word, star, tuple(rows))


def _rebuild_junction(t: SSOT, i: int, c: list[int], d: list[int]) -> SSOT:
    """Strips i, i+1 read back from junction lists (:func:`strip_pair_multisets`,
    maybe moved): the shift is undone, and the outer shape must not change."""
    k, n = bisect_left(c, 0), bisect_left(d, 0)
    bar_removes = [-r for r in reversed(c[:k])]
    bar_adds = d[n:]
    lo = _trusted_strip(
        t.strips[i - 1].inside, c[k:], shift_overlap(bar_removes, bar_adds, -1)
    )
    hi = _trusted_strip(
        lo.outside, shift_overlap(bar_adds, bar_removes, -1), [-s for s in reversed(d[:n])]
    )
    if hi.outside != t.strips[i].outside:
        raise ValueError("junction surgery changed the outer shape")
    return t.replace(i - 1, lo, hi)


def _junction(t: SSOT, i: int) -> tuple[tuple[list[int], ...], tuple[list[int], ...]]:
    """Junction i's lists (c, d) and their bracket leftovers, unpaired (c, d)."""
    lists = strip_pair_multisets(t, i)
    return lists, pair_multisets(*lists)


def first_strip_counts(t: SSOT) -> tuple[int, int]:
    """(additions, removals) of the first strip, which index 0 acts on."""
    if t.inside != ():
        raise ValueError("index 0 acts only on tableaux that start empty")
    if not t.strips:
        raise ValueError("no strips")
    # a strip from () adds and removes boxes in row 1 only: its letters are +-1
    word = t.strips[0].word
    a = word.count(1)
    return a, len(word) - a


def ssot_stats(t: SSOT, i: int, g: int) -> tuple[int, int]:
    """(epsilon, phi): how often raise/lower apply before hitting None."""
    if t.num_cols > g:
        raise ValueError(f"a peak shape needs more than {g} columns")
    if i == 0:
        a, b = first_strip_counts(t)
        return b, g - a
    left_c, left_d = _junction(t, i)[1]
    return len(left_d), len(left_c)


def ssot_move(t: SSOT, i: int, g: int, k: int) -> SSOT | None:
    """Side 0 raises, side 1 lowers.  At index 0 a side deletes or appends a
    (1,-1) pair in the first strip until its statistic is 0 (eps counts the
    first strip's removals, phi is g minus its additions); at i >= 1 it moves
    the largest (side 0) or smallest (side 1) unpaired junction element."""
    if t.num_cols > g:
        raise ValueError(f"a peak shape needs more than {g} columns")
    if i == 0:
        a, b = first_strip_counts(t)
        if (b, g - a)[k] <= 0:
            return None
        s = (-1, 1)[k]
        return t.replace(0, _trusted_strip((), [1] * (a + s), [1] * (b + s)))
    lists, left = _junction(t, i)
    unpaired = left[1 - k]
    if not unpaired:
        return None
    q = unpaired[k - 1]  # the largest d on side 0, the smallest c on side 1
    lists[1 - k].remove(q)
    insort(lists[k], q)
    return _rebuild_junction(t, i, *lists)


# ---------------------------------------------------------------------------
# enumeration


def peaks_above(inside: Partition, max_cols: int) -> Iterator[Partition]:
    """Shapes reachable from ``inside`` by a horizontal strip, first part <= max_cols."""
    return interlacing_partitions(zip(inside + (0,), (max_cols, *inside)))


def drops_below(star: Partition) -> Iterator[Partition]:
    """Shapes reachable from ``star`` by removing a horizontal strip."""
    return interlacing_partitions(zip(star[1:] + (0,), star))


def enumerate_strips(
    inside: Partition, max_cols: int, size: int | None = None
) -> list[OscStrip]:
    """All strips from ``inside`` whose peak has at most ``max_cols`` columns."""
    inside = normalize_partition(inside)
    out = []
    for star in peaks_above(inside, max_cols):
        for outside in drops_below(star):
            strip = OscStrip.from_partitions(inside, star, outside)
            if size is None or strip.size == size:
                out.append(strip)
    out.sort(key=lambda s: (s.word, s.outside))
    return out


def enumerate_ssot(
    outside: Partition | None,
    m: int,
    g: int,
    inside: Partition = (),
    weight: tuple[int, ...] | None = None,
    memo: dict[tuple[Partition, int, int | None], list[OscStrip]] | None = None,
    eps_bound: tuple[int | None, ...] | None = None,
) -> list[SSOT]:
    """All SSOT with ``m`` strips from ``inside`` to ``outside``, peaks <= g columns.

    ``outside=None`` accepts every end shape; the chains then come in the same
    order as the fixed-``outside`` calls would give them, interleaved.
    ``weight`` fixes each strip's size when given.  The strips from each
    (shape, g, size) are enumerated once and kept in ``memo``; pass one dict
    to several calls to enumerate them once across the calls.  For a fixed
    ``outside``, a forward pass collects the shapes reachable at each depth
    and a backward pass keeps those from which ``outside`` can still be
    reached; the walk enters only kept shapes.

    ``eps_bound[i]``, unless None, caps epsilon_i (all zeros: highest-weight
    chains only).  epsilon_0 reads strip 1 alone and epsilon_i strips i and
    i+1, so :func:`ssot_stats` tests each bound as its last strip is
    appended.  A bound at index 0 needs ``inside == ()``.
    """
    if m < 0 or g < 0:
        raise ValueError("m and g must be nonnegative")
    if outside is not None:
        outside = normalize_partition(outside)
    inside = normalize_partition(inside)
    if weight is not None and len(weight) != m:
        raise ValueError("weight length must equal the number of strips")
    if memo is None:
        memo = {}
    if eps_bound is not None:
        if len(eps_bound) != m:
            raise ValueError("eps_bound length must equal the number of strips")
        if m and eps_bound[0] is not None and inside:
            raise ValueError("a bound at index 0 needs inside == ()")
    bounds = eps_bound or (None,) * m

    def strips_from(k: int, cur: Partition) -> list[OscStrip]:
        key = (cur, g, None if weight is None else weight[k])
        if key not in memo:
            memo[key] = enumerate_strips(*key)
        return memo[key]

    keep: list[set[Partition]] | None = None
    if outside is not None:
        layers = [{inside}]
        for k in range(m):
            layers.append({s.outside for cur in layers[k] for s in strips_from(k, cur)})
        keep = [set() for _ in range(m)] + [{outside}]
        for k in range(m - 1, -1, -1):
            keep[k] = {
                cur for cur in layers[k]
                if any(s.outside in keep[k + 1] for s in strips_from(k, cur))
            }
    out: list[SSOT] = []

    def rec(k: int, cur: Partition, acc: list[OscStrip]) -> None:
        if k == m:
            out.append(SSOT(tuple(acc), inside))
            return
        bound = bounds[k]
        for strip in strips_from(k, cur):
            if keep is not None and strip.outside not in keep[k + 1]:
                continue
            # the chain of strip k alone, or of strips k-1 and k, at index min(k, 1)
            if bound is not None and ssot_stats(
                SSOT((*acc[-1:], strip)), min(k, 1), g
            )[0] > bound:
                continue
            acc.append(strip)
            rec(k + 1, strip.outside, acc)
            acc.pop()

    if keep is None or inside in keep[0]:
        rec(0, inside, [])
    return out
