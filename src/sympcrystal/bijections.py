"""The two structure-preserving bijections.

* :func:`psi` sends a King tableau of shape ``mu`` (inside the ``m x g``
  rectangle) to the oscillating tableau whose shapes are rectangle
  complements of the letter-by-letter subshapes of the tableau.
* :func:`phi` sends an oscillating tableau that starts and ends empty to a
  symmetric nonnegative matrix with even diagonal, by standardizing the
  tableau to a fixed-point-free involution and semistandardizing back.

Both come with inverses and raise ValueError off their domains.  ``phi``
unwinds row insertion and ``phi_inverse`` replays it, through the strict side
of :func:`sympcrystal.rsk.bump` and :func:`sympcrystal.rsk.unbump`.
"""

from __future__ import annotations

from itertools import accumulate

from .oscillating import SSOT, OscStrip
from .rsk import (
    Matrix,
    bump,
    is_admissible,
    row_sums,
    two_line_array,
    unbump,
)
from .tableaux import (
    KingTableau,
    Partition,
    rank_letter,
    rect_complement,
)


# ---------------------------------------------------------------------------
# King tableaux <-> oscillating tableaux


def psi(t: KingTableau, m: int, g: int) -> SSOT:
    """Ladder of rectangle complements of the subshapes of ``t``.

    Strip ``i`` runs from the complement of the letters-below-``i`` shape
    (in the ``(i-1) x g`` rectangle) up to the complement of the
    letters-up-to-``i`` shape and back down to the complement of the
    letters-up-to-barred-``i`` shape (both in the ``i x g`` rectangle).
    """
    if t.max_letter > m:
        raise ValueError(f"letters exceed {m}")
    if t.shape and (len(t.shape) > m or t.shape[0] > g):
        raise ValueError(f"shape {t.shape} not inside a {m}x{g} rectangle")
    # rung r complements the letters of rank <= r in the ceil(r/2) x g box;
    # strip i + 1 climbs rungs 2i to 2i + 2, and its first rung ends strip i
    ladder = [rect_complement(t.subshape(r), (r + 1) // 2, g) for r in range(2 * m + 1)]
    return SSOT(tuple(OscStrip.from_partitions(*ladder[2 * i:2 * i + 3]) for i in range(m)))


def psi_inverse(s: SSOT, g: int) -> KingTableau:
    """King tableau whose subshape ladder complements the shapes of ``s``."""
    if s.inside != ():
        raise ValueError("tableau must start at the empty shape")
    if s.num_cols > g:
        raise ValueError(f"a peak shape needs more than {g} columns")
    # rung r is the shape of the letters of rank <= r; every strip is a
    # horizontal strip over its inside and outside, so no rung shrinks a row
    ladder = [()] + [rect_complement(shape, i, g)
                     for i, strip in enumerate(s.strips, start=1)
                     for shape in (strip.star, strip.outside)]
    rows = [[] for _ in ladder[-1]]
    for r in range(1, len(ladder)):
        prev, cur = ladder[r - 1], ladder[r]
        for j in range(len(cur)):
            k = cur[j] - (prev[j] if j < len(prev) else 0)
            if k:
                rows[j] += [rank_letter(r)] * k
    return KingTableau(tuple(map(tuple, rows)))


# ---------------------------------------------------------------------------
# standardization


def standardized_word(m: Matrix) -> tuple[int, ...]:
    """Bottom line of the two-line array with value ``v`` occurrences replaced
    by the block ``beta_{v-1}+1..beta_v``, handed out in decreasing order."""
    alpha = row_sums(m)
    beta = [0]
    for a in alpha:
        beta.append(beta[-1] + a)
    seen = [0] * (len(alpha) + 1)
    out = []
    for v in two_line_array(m)[1]:
        seen[v] += 1
        out.append(beta[v] - seen[v] + 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# oscillating tableaux <-> symmetric matrices


def _pop_largest(rows: list[list[int]]) -> tuple[int, int, int]:
    """Remove the rightmost copy of the largest entry of a tableau's rows, which
    must sit at a corner; return (entry, row, column), 0-based."""
    # rows end in their largest entries and columns strictly increase, so the
    # top row ending in the largest entry holds its rightmost copy
    r = 0
    for i in range(1, len(rows)):
        if rows[i][-1] > rows[r][-1]:
            r = i
    value, c = rows[r][-1], len(rows[r]) - 1
    if r + 1 < len(rows) and len(rows[r + 1]) > c:
        raise ValueError(f"rightmost {value} is not at a corner")
    rows[r].pop()
    if not rows[r]:
        rows.pop()
    return value, r, c


def phi(t: SSOT) -> Matrix:
    """Matrix of the involution matched by unwinding the tableau's removals."""
    if t.inside != () or t.outside != ():
        raise ValueError("tableau must start and end at the empty shape")
    word = [s for strip in t.strips for s in strip.word]
    rows: list[list[int]] = []
    mate: dict[int, int] = {}
    for k, s in enumerate(word, start=1):
        if s < 0:
            j = unbump(rows, -s - 1, True)
            mate[j], mate[k] = k, j
        elif s > len(rows):
            rows.append([k])
        else:
            rows[s - 1].append(k)
    # block[q - 1] is the 0-based strip that letter q belongs to
    block = [b for b, a in enumerate(t.weight()) for _ in range(a)]
    grid = [[0] * t.length for _ in range(t.length)]
    for q in range(1, len(word) + 1):
        grid[block[q - 1]][block[mate[q] - 1]] += 1
    # square, of counts: a matrix without the validating pass of rsk.matrix
    return tuple(map(tuple, grid))


def phi_inverse(m: Matrix) -> SSOT:
    """Oscillating tableau whose standardized chain unwinds to ``m``."""
    if not is_admissible(m):
        raise ValueError("matrix must be nonnegative and symmetric with even diagonal")
    alpha = row_sums(m)
    total = sum(alpha)
    w = standardized_word(m)
    if any(w[v - 1] != q or v == q for q, v in enumerate(w, start=1)):
        raise ValueError("standardization is not a fixed-point-free involution")
    # walk the recording tableau down from the empty end, one strip at a
    # time from the last; step k of the chain removes the box an insertion
    # made and adds the box a deletion took
    rows: list[list[int]] = []
    letters = [0] * total
    strips: list[OscStrip] = []
    outside: Partition = ()
    for beta, a in reversed(list(zip(accumulate(alpha, initial=0), alpha))):
        star = None
        for k in range(beta + a, beta, -1):
            if k > w[k - 1]:
                letters[k - 1] = -(bump(rows, w[k - 1], True)[0] + 1)
                continue
            # k is in the tableau: step w[k - 1] > k inserted it; the first such
            # step met is the strip's last addition, which ends at its peak
            if star is None:
                star = tuple(map(len, rows))
            largest, r, _ = _pop_largest(rows)
            if largest != k:
                raise ValueError("deletion is not the largest entry")
            letters[k - 1] = r + 1
        inside = tuple(map(len, rows))
        word = tuple(letters[beta : beta + a])
        peak = inside if star is None else star
        strips.append(OscStrip._from_trusted(inside, word, peak, outside))
        outside = inside
    if rows:
        raise ValueError("chain does not return to the empty shape")
    return SSOT(tuple(reversed(strips)))
