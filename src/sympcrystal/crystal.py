"""Raising/lowering operators on the three models, plus graph machinery.

Index 0 is the long-root direction: it touches only the first strip of an
oscillating tableau (equivalently the top-left matrix entry).  Indices
1..m-1 form a type-A chain and act through the bracket (signature) rule on
ascending lists of signed rows at the junction of two consecutive strips.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field

from .oscillating import SSOT, OscStrip
from .rsk import (
    Matrix,
    c_index,
    is_admissible,
    matrix,
    row_sums,
    rsk_column,
    rsk_column_inverse,
)
from .tableaux import (
    KingTableau,
    Tableau,
    Weight,
    coroot_pairing,
    king_weight,
    simple_root,
)
from .bijections import psi, psi_inverse

# ---------------------------------------------------------------------------
# multisets as ascending lists of ints


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
    """Bracket-pair each q in d with some p in c, p < q; return the leftovers.

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


# ---------------------------------------------------------------------------
# type-A operators on semistandard tableaux


def _ssyt_scan(t: Tableau, i: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Cells holding unpaired i / i+1, in reading order.

    Reading rows top to bottom and right to left, each i+1 cancels the most
    recently seen uncancelled i.
    """
    opens: list[tuple[int, int]] = []
    closes: list[tuple[int, int]] = []
    for r, row in enumerate(t.rows):
        for c in range(len(row) - 1, -1, -1):
            v = row[c]
            if v == i:
                opens.append((r, c))
            elif v == i + 1:
                if opens:
                    opens.pop()
                else:
                    closes.append((r, c))
    return opens, closes


def _ssyt_set(t: Tableau, cell: tuple[int, int], value: int) -> Tableau:
    rows = [list(row) for row in t.rows]
    rows[cell[0]][cell[1]] = value
    return Tableau(tuple(tuple(row) for row in rows))


def ssyt_raise(t: Tableau, i: int) -> Tableau | None:
    """Turn the last unpaired i+1 into an i; None if there is none."""
    _, closes = _ssyt_scan(t, i)
    if not closes:
        return None
    return _ssyt_set(t, closes[-1], i)


def ssyt_lower(t: Tableau, i: int) -> Tableau | None:
    """Turn the first unpaired i into an i+1; None if there is none."""
    opens, _ = _ssyt_scan(t, i)
    if not opens:
        return None
    return _ssyt_set(t, opens[0], i + 1)


def ssyt_stats(t: Tableau, i: int) -> tuple[int, int]:
    """(epsilon, phi): the unpaired i+1 and i counts."""
    opens, closes = _ssyt_scan(t, i)
    return len(closes), len(opens)


# ---------------------------------------------------------------------------
# operators on oscillating tableaux


def strip_pair_multisets(t: SSOT, i: int) -> tuple[list[int], list[int]]:
    """Signed rows compared at junction i (1-based strips i, i+1), ascending.

    Removal rows of strip i and addition rows of strip i+1 overlap in the
    junction shape, so each side is shifted up past the other before being
    negated/merged.  Sizes come out as the two strip sizes.  A strip word
    lists its additions descending, then its removals negated ascending.
    """
    lo, hi = t.strips[i - 1].word, t.strips[i].word
    removes_lo = [-s for s in lo if s < 0]
    adds_hi = [s for s in reversed(hi) if s > 0]
    bar_removes = shift_overlap(removes_lo, adds_hi, 1)
    bar_adds = shift_overlap(adds_hi, removes_lo, 1)
    c = [-r for r in reversed(bar_removes)] + [s for s in reversed(lo) if s > 0]
    d = [s for s in reversed(hi) if s < 0] + bar_adds
    return c, d


def _rebuild_junction(t: SSOT, i: int, c: list[int], d: list[int]) -> SSOT:
    """Strips i, i+1 recovered from modified junction lists."""
    k, n = bisect_left(c, 0), bisect_left(d, 0)
    bar_removes = [-r for r in reversed(c[:k])]
    bar_adds = d[n:]
    removes_lo = shift_overlap(bar_removes, bar_adds, -1)
    lo = OscStrip(t.strips[i - 1].inside, c[k:][::-1] + [-r for r in removes_lo])
    adds_hi = shift_overlap(bar_adds, bar_removes, -1)
    hi = OscStrip(lo.outside, adds_hi[::-1] + d[:n][::-1])
    if hi.outside != t.strips[i].outside:
        raise ValueError("junction surgery changed the outer shape")
    return t.replace(i - 1, lo, hi)


def _first_strip_counts(t: SSOT) -> tuple[int, int]:
    if t.inside != ():
        raise ValueError("index 0 acts only on tableaux that start empty")
    if not t.strips:
        raise ValueError("no strips")
    # a strip from () adds and removes boxes in row 1 only: its letters are +-1
    word = t.strips[0].word
    a = word.count(1)
    return a, len(word) - a


def _check_junction_index(t: SSOT, i: int) -> None:
    if not 1 <= i <= len(t.strips) - 1:
        raise ValueError(f"index {i} out of range for {len(t.strips)} strips")


def ssot_raise(t: SSOT, i: int) -> SSOT | None:
    """Raising operator; index 0 deletes a (1,-1) pair from the first strip,
    index i >= 1 moves the largest unpaired junction element leftward."""
    if i == 0:
        a, b = _first_strip_counts(t)
        if b == 0:
            return None
        word = (1,) * (a - 1) + (-1,) * (b - 1)
        return t.replace(0, OscStrip((), word))
    _check_junction_index(t, i)
    c, d = strip_pair_multisets(t, i)
    _, left_d = pair_multisets(c, d)
    if not left_d:
        return None
    q = left_d[-1]
    d.remove(q)
    insort(c, q)
    return _rebuild_junction(t, i, c, d)


def ssot_lower(t: SSOT, i: int, g: int) -> SSOT | None:
    """Lowering operator; index 0 appends a (1,-1) pair to the first strip
    (None once it holds g additions), index i >= 1 moves the smallest
    unpaired junction element rightward."""
    if i == 0:
        a, b = _first_strip_counts(t)
        if a >= g:
            return None
        word = (1,) * (a + 1) + (-1,) * (b + 1)
        return t.replace(0, OscStrip((), word))
    _check_junction_index(t, i)
    c, d = strip_pair_multisets(t, i)
    left_c, _ = pair_multisets(c, d)
    if not left_c:
        return None
    p = left_c[0]
    c.remove(p)
    insort(d, p)
    return _rebuild_junction(t, i, c, d)


def ssot_stats(t: SSOT, i: int, g: int) -> tuple[int, int]:
    """(epsilon, phi): how often raise/lower apply before hitting None."""
    if i == 0:
        a, b = _first_strip_counts(t)
        return b, g - a
    _check_junction_index(t, i)
    left_c, left_d = pair_multisets(*strip_pair_multisets(t, i))
    return len(left_d), len(left_c)


# ---------------------------------------------------------------------------
# operators on nonnegative-integer matrices


def _checked_insertion(m: Matrix, i: int, g: int) -> tuple[Tableau, Tableau] | None:
    """Reject a matrix outside the crystal or a bad index; return the pair
    ``(P, Q)`` for i >= 1, None at index 0 (which inserts nothing)."""
    if not is_admissible(m):
        raise ValueError("matrix must be symmetric with even diagonal")
    if not 0 <= i <= len(m) - 1:
        raise ValueError(f"index {i} out of range for a {len(m)}-row matrix")
    if i == 0:
        pair, width = None, c_index(m)
    else:
        pair = rsk_column(m)
        width = len(pair[0].rows[0]) if pair[0].rows else 0
    if width > 2 * g:
        raise ValueError("matrix has more than 2g weakly decreasing positions")
    return pair


def _adjust_corner(m: Matrix, delta: int) -> Matrix:
    rows = [list(r) for r in m]
    rows[0][0] += delta
    return matrix(rows)


def matrix_raise(m: Matrix, i: int, g: int) -> Matrix | None:
    """Index 0 removes two units from the top-left entry; index i >= 1 acts
    through the type-A raise on both insertion and recording tableaux."""
    pair = _checked_insertion(m, i, g)
    if pair is None:
        return _adjust_corner(m, -2) if m[0][0] >= 2 else None
    p2, q2 = ssyt_raise(pair[0], i), ssyt_raise(pair[1], i)
    if p2 is None or q2 is None:
        return None
    return rsk_column_inverse(p2, q2, len(m), len(m[0]))


def matrix_lower(m: Matrix, i: int, g: int) -> Matrix | None:
    """Index 0 adds two units to the top-left entry (None when that would
    push the tableau pair past 2g columns); index i >= 1 lowers both."""
    pair = _checked_insertion(m, i, g)
    if pair is None:
        out = _adjust_corner(m, 2)
        return out if c_index(out) <= 2 * g else None
    p2, q2 = ssyt_lower(pair[0], i), ssyt_lower(pair[1], i)
    if p2 is None or q2 is None:
        return None
    return rsk_column_inverse(p2, q2, len(m), len(m[0]))


def matrix_stats(m: Matrix, i: int, g: int) -> tuple[int, int]:
    """(epsilon, phi) from one insertion; index 0 reads the top row."""
    pair = _checked_insertion(m, i, g)
    if pair is None:
        return m[0][0] // 2, m[0][0] // 2 + g - sum(m[0])
    return ssyt_stats(pair[0], i)


def matrix_weight(m: Matrix, g: int) -> Weight:
    """Coordinate i is g minus the i-th row sum."""
    return tuple(g - s for s in row_sums(m))


# ---------------------------------------------------------------------------
# uniform adapters


@dataclass(frozen=True)
class _Adapter:
    """A crystal with indices 0..m-1 whose peaks are at most g columns wide.
    Each model keeps ``e`` and ``f`` in its own class body, where
    ``perfbench/tracer.py`` finds them."""

    m: int
    g: int

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(range(self.m))


class SsotCrystal(_Adapter):
    """Oscillating tableaux with m strips, peaks at most g columns wide."""

    def e(self, x: SSOT, i: int) -> SSOT | None:
        return ssot_raise(x, i)

    def f(self, x: SSOT, i: int) -> SSOT | None:
        return ssot_lower(x, i, self.g)

    def stats(self, x: SSOT, i: int) -> tuple[int, int]:
        return ssot_stats(x, i, self.g)

    def weight(self, x: SSOT) -> Weight:
        return x.crystal_weight(self.g)


class MatrixCrystal(_Adapter):
    """Symmetric even-diagonal m-by-m matrices with at most 2g columns
    after insertion."""

    def e(self, x: Matrix, i: int) -> Matrix | None:
        return matrix_raise(x, i, self.g)

    def f(self, x: Matrix, i: int) -> Matrix | None:
        return matrix_lower(x, i, self.g)

    def stats(self, x: Matrix, i: int) -> tuple[int, int]:
        return matrix_stats(x, i, self.g)

    def weight(self, x: Matrix) -> Weight:
        return matrix_weight(x, self.g)


class KingCrystal(_Adapter):
    """King tableaux on m barred letters, shapes inside an m-by-g box,
    carried over from the oscillating model."""

    def _carry(self, x: KingTableau, op, i: int):
        out = op(psi(x, self.m, self.g), i)
        return None if out is None else psi_inverse(out, self.g)

    def e(self, x: KingTableau, i: int) -> KingTableau | None:
        return self._carry(x, ssot_raise, i)

    def f(self, x: KingTableau, i: int) -> KingTableau | None:
        return self._carry(x, lambda t, j: ssot_lower(t, j, self.g), i)

    def stats(self, x: KingTableau, i: int) -> tuple[int, int]:
        return ssot_stats(psi(x, self.m, self.g), i, self.g)

    def weight(self, x: KingTableau) -> Weight:
        return king_weight(x, self.m)


_MISSING = object()


class MemoCrystal:
    """A crystal that applies each of ``e``, ``f`` and ``stats`` at most once
    per (vertex, index).

    Each operator keeps its own dict from ``(x, i)`` to exactly what the base
    returned for that call: no value is inferred from another (``f(e(x, i),
    i)`` is still asked of the base), and a call that raises stores nothing.
    Every other attribute (``m``, ``g``, ``weight``) is the base's.  A memo
    lives as long as the checks that share it; nothing is cached at module
    level.
    """

    def __init__(self, base):
        self.base = base
        self.indices = base.indices
        self._e: dict = {}
        self._f: dict = {}
        self._stats: dict = {}

    def __getattr__(self, name):
        return getattr(self.base, name)

    def e(self, x, i):
        out = self._e.get((x, i), _MISSING)
        if out is _MISSING:
            out = self._e[x, i] = self.base.e(x, i)
        return out

    def f(self, x, i):
        out = self._f.get((x, i), _MISSING)
        if out is _MISSING:
            out = self._f[x, i] = self.base.f(x, i)
        return out

    def stats(self, x, i):
        out = self._stats.get((x, i), _MISSING)
        if out is _MISSING:
            out = self._stats[x, i] = self.base.stats(x, i)
        return out


def memoised(crystal) -> MemoCrystal:
    """``crystal`` itself when it is already a :class:`MemoCrystal`, else a
    fresh memo over it."""
    return crystal if isinstance(crystal, MemoCrystal) else MemoCrystal(crystal)


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True)
class CrystalGraph:
    """Lowering edges (src, i, dst) over a deterministically ordered vertex
    list; weights are per-vertex."""

    vertices: tuple
    edges: tuple[tuple[int, int, int], ...]
    weights: tuple[Weight, ...]
    labels: tuple[str, ...] = field(compare=False, repr=False)

    def highest_weight_vertices(self) -> tuple:
        """Vertices with no incoming lowering edge."""
        targets = {dst for _, _, dst in self.edges}
        return tuple(v for k, v in enumerate(self.vertices) if k not in targets)

    def components(self) -> tuple[tuple, ...]:
        nbr: dict[int, set[int]] = {k: set() for k in range(len(self.vertices))}
        for src, _, dst in self.edges:
            nbr[src].add(dst)
            nbr[dst].add(src)
        seen: set[int] = set()
        comps = []
        for k in range(len(self.vertices)):
            if k in seen:
                continue
            stack, comp = [k], []
            seen.add(k)
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in nbr[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(tuple(self.vertices[u] for u in sorted(comp)))
        return tuple(comps)


def crystal_graph(crystal, vertices) -> CrystalGraph:
    """The lowering edges among ``vertices``, which must be closed under
    ``e`` and ``f``.

    Vertices are deduplicated and numbered in ``str`` order, each rendered
    once; the graph keeps those strings as its labels.  ``f`` runs once per
    (vertex, index); its target must be a vertex, and every edge x -> y must
    invert, ``e(y, i) == x``, or ``ValueError`` is raised.  Closure under
    ``e`` is not checked.  Edges come out ordered by (source, index), one per
    lowering that applies.
    """
    text = {x: str(x) for x in dict.fromkeys(vertices)}
    vertices = tuple(sorted(text, key=text.__getitem__))
    order = {x: k for k, x in enumerate(vertices)}
    edges: list[tuple[int, int, int]] = []
    for kx, x in enumerate(vertices):
        for i in crystal.indices:
            y = crystal.f(x, i)
            if y is None:
                continue
            ky = order.get(y)
            if ky is None:
                raise ValueError(f"lowering at {i} leaves the vertex set: {x}")
            if crystal.e(y, i) != x:
                raise ValueError(f"lowering at {i} does not invert: {x}")
            edges.append((kx, i, ky))
    return CrystalGraph(
        vertices=vertices,
        edges=tuple(edges),
        weights=tuple(crystal.weight(v) for v in vertices),
        labels=tuple(map(text.__getitem__, vertices)),
    )


def decompose(graph: CrystalGraph) -> Counter:
    """Multiset of highest weights, one per source vertex."""
    targets = {dst for _, _, dst in graph.edges}
    return Counter(w for k, w in enumerate(graph.weights) if k not in targets)


def graph_to_adjacency(graph: CrystalGraph) -> str:
    labels = graph.labels
    lines = [f"{labels[src]} -{i}-> {labels[dst]}" for src, i, dst in graph.edges]
    return "\n".join(lines)


def graph_to_dot(graph: CrystalGraph) -> str:
    out = ["digraph crystal {"]
    for k, text in enumerate(graph.labels):
        text = text.replace('"', r"\"")
        out.append(f'  v{k} [label="{text}"];')
    for src, i, dst in graph.edges:
        out.append(f'  v{src} -> v{dst} [label="{i}"];')
    out.append("}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# structural checks


# Each rule has one body, run on two sides: k = 0 raises (``e``, eps at
# position 0 of a stats pair, root added), k = 1 lowers (``f``, phi at
# position 1, root subtracted).  The raising side always runs first.
_VERBS, _STATS = ("raise", "lower"), ("eps", "phi")


def string_length(op, x, i: int, stat: int) -> int:
    """How often ``op(., i)`` applies from x before returning None, counted
    up to ``stat + 1``: a longer string, or a cycle, is not followed further."""
    k = 0
    while k <= stat and (x := op(x, i)) is not None:
        k += 1
    return k


def axiom_violations(crystal, vertices) -> list[str]:
    """Mutual inversion, weight shifts, the phi - eps pairing, and the
    agreement of closed-form statistics with iterated counts.

    The operators are read through :func:`memoised`, so the strings from a
    vertex and the checks at its neighbours share one application per
    (vertex, index).
    """
    crystal = memoised(crystal)
    ops = (crystal.e, crystal.f)
    bad: list[str] = []
    m = crystal.m
    for x in vertices:
        wx = crystal.weight(x)
        for i in crystal.indices:
            stats = crystal.stats(x, i)
            alpha = simple_root(i, m)
            if stats[1] - stats[0] != coroot_pairing(wx, i):
                bad.append(f"phi-eps mismatch at index {i}: {x}")
            for k in (0, 1):
                if stats[k] != string_length(ops[k], x, i, stats[k]):
                    bad.append(f"{_STATS[k]} is not the iterated count at index {i}: {x}")
            for k in (0, 1):
                verb, sign = _VERBS[k], 1 - 2 * k
                y = ops[k](x, i)
                if y is not None:
                    if ops[1 - k](y, i) != x:
                        bad.append(f"{verb} at {i} does not invert: {x}")
                    if crystal.weight(y) != tuple(a + sign * b for a, b in zip(wx, alpha)):
                        bad.append(f"{verb} at {i} has the wrong weight shift: {x}")
                if (y is not None) != (stats[k] > 0):
                    bad.append(f"{verb} at {i} disagrees with {_STATS[k]}: {x}")
    return bad


def stembridge_violations(crystal, vertices) -> list[str]:
    """The local type-A axioms on every index >= 1 of ``crystal``: the
    dichotomy for neighbouring indices, the commutation rules, and their
    lowering-side duals; distant indices must commute and leave each
    other's statistics alone.  The operators are read through
    :func:`memoised`, as in :func:`axiom_violations`."""
    crystal = memoised(crystal)
    ops = (crystal.e, crystal.f)
    indices = [i for i in crystal.indices if i >= 1]
    bad: list[str] = []
    if len(indices) < 2:
        return bad  # no pair of indices to check
    for x in vertices:
        stats = {i: crystal.stats(x, i) for i in indices}
        for i in indices:
            for j in indices:
                if i != j:
                    check = _check_distant if abs(i - j) >= 2 else _check_adjacent
                    for k in (0, 1):
                        bad.extend(check(crystal, ops[k], x, i, j, stats, k))
    return bad


def _check_distant(crystal, op, x, i: int, j: int, stats: dict, k: int) -> list[str]:
    """On side k, whose operator is ``op``, distant indices i, j commute and
    i leaves x's j statistics alone."""
    verb = _VERBS[k]
    y = op(x, i)
    if y is None:
        return []
    bad = []
    if crystal.stats(y, j) != stats[j]:
        bad.append(f"distant {verb} {i} moved the {j} statistics: {x}")
    z = op(x, j)
    if z is not None and op(y, j) != op(z, i):
        bad.append(f"distant {verb}s {i},{j} do not commute: {x}")
    return bad


def _check_adjacent(crystal, op, x, i: int, j: int, stats: dict, k: int) -> list[str]:
    """The rules at x on side k, whose operator is ``op``, for neighbouring
    indices i, j, given x's (eps, phi) at every index.  ``near`` is the
    side's own statistic (eps when raising), ``far`` the other one."""
    verb = _VERBS[k]
    near, far = _STATS[k], _STATS[1 - k]
    si, sj = stats[i], stats[j]
    bad = []
    oi_x = op(x, i)
    if oi_x is not None:
        s = crystal.stats(oi_x, j)
        d_near, d_far = s[k] - sj[k], s[1 - k] - sj[1 - k]
        if (d_near, d_far) not in {(0, -1), (1, 0)}:
            bad.append(f"{verb} {i} broke the {j} dichotomy: {x}")
        if d_near == 0 and sj[k] > 0:
            # applying i left near_j alone: the two operators
            # commute, and applying j bumps near_i without touching far_i
            oj_x = op(x, j)
            if oj_x is None or op(oj_x, i) != op(oi_x, j):
                bad.append(f"{verb}s {i},{j} do not commute: {x}")
            else:
                s = crystal.stats(oj_x, i)
                if s[1 - k] != si[1 - k]:
                    bad.append(f"{verb} {j} moved {far}_{i}: {x}")
                elif s[k] != si[k] + 1:
                    bad.append(f"{verb} {j} did not bump {near}_{i}: {x}")
    oj_x = op(x, j)
    if oj_x is not None and crystal.stats(oj_x, i)[k] == si[k] + 1:
        oioj = op(oj_x, i)
        if oioj is None or crystal.stats(oioj, j)[k] != sj[k] - 1:
            bad.append(f"{verb} pair {i},{j} did not drop {near}_{j}: {x}")
    return bad
