"""Exact characters for the symplectic group on m tracks of variables.

Everything lives in the Laurent ring Z[x_1^{+-1}, ..., x_m^{+-1}] with integer
coefficients throughout; there is no floating point anywhere.  Production code
builds irreducible characters as tableau sums (``king_character``) and
decomposes without them: a product chi_lam * f by Brauer-Klimyk over the
terms of f alone (``brauer_klimyk``).  The determinant ratio
``weyl_character`` is the reference route that the tests and ``verify
characters`` check both against.
"""

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, permutations, product
from operator import add, neg

from .oscillating import enumerate_ssot, enumerate_strips
from .tableaux import (
    Partition,
    Weight,
    conjugate,
    enumerate_king,
    interlacing_partitions,
    king_weight,
    normalize_partition,
    shape_in_rows,
    tableaux_of_shape,
)


@dataclass(frozen=True)
class LaurentCharacter:
    """Integer Laurent polynomial, kept as exponent-vector -> coefficient."""

    terms: dict[Weight, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {tuple(e): int(c) for e, c in self.terms.items() if c}
        object.__setattr__(self, "terms", clean)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> "LaurentCharacter":
        return LaurentCharacter({e: -c for e, c in self.terms.items()})

    def __add__(self, other: "LaurentCharacter") -> "LaurentCharacter":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentCharacter(out)

    def __sub__(self, other: "LaurentCharacter") -> "LaurentCharacter":
        return self + (-other)

    def __mul__(self, other) -> "LaurentCharacter":
        if isinstance(other, int):
            return LaurentCharacter({e: c * other for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentCharacter(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            body = "*".join(
                f"x{k + 1}" + (f"^{v}" if v != 1 else "")
                for k, v in enumerate(e)
                if v
            )
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


def king_character(lam: Partition, m: int) -> LaurentCharacter:
    """Generating sum of the weights of the King tableaux of this shape."""
    return LaurentCharacter(Counter(king_weight(t, m) for t in enumerate_king(lam, m)))


def _odd_determinant(powers: tuple[int, ...]) -> LaurentCharacter:
    """det( x_j^{a_i} - x_j^{-a_i} ) expanded exactly."""
    m = len(powers)
    out: dict = {}
    for perm in permutations(range(m)):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        for signs in product((1, -1), repeat=m):
            e = [0] * m
            c = sign
            for i in range(m):
                e[perm[i]] += signs[i] * powers[i]
                c *= signs[i]
            key = tuple(e)
            out[key] = out.get(key, 0) + c
    return LaurentCharacter(out)


def _divide_exact(num: LaurentCharacter, den: LaurentCharacter) -> LaurentCharacter:
    """Quotient in the Laurent ring; raises unless the division is exact.

    Degrees in each x_k add, so an exact quotient keeps every exponent in the
    box [min_k num - min_k den, max_k num - max_k den].  Each step's exponent
    is below the last one and must stay in that finite box, so the loop ends.

    The remainder is kept with every exponent negated, so that its
    lexicographic maximum is the minimum of a heap holding one entry per
    exponent that entered it; an entry whose exponent has since cancelled is
    skipped when it comes up.
    """
    lead_d = max(den.terms)
    coeff_d = den.terms[lead_d]
    num_cols, den_cols = tuple(zip(*num.terms)), tuple(zip(*den.terms))
    box = [(min(a) - min(b), max(a) - max(b)) for a, b in zip(num_cols, den_cols)]
    rem = {tuple(map(neg, e)): c for e, c in num.terms.items()}
    heap = list(rem)
    heapify(heap)
    neg_den = [(tuple(map(neg, e)), c) for e, c in den.terms.items()]
    quot: dict = {}
    while heap:
        lead = heappop(heap)
        if lead not in rem:
            continue
        c, r = divmod(rem[lead], coeff_d)
        if r:
            raise ValueError("leading coefficients do not divide")
        neg_e = tuple(map(add, lead, lead_d))
        e = tuple(map(neg, neg_e))
        if not all(lo <= v <= hi for v, (lo, hi) in zip(e, box)):
            raise ValueError(f"quotient exponent {e} leaves the degree box; not exact")
        quot[e] = c
        for de, dc in neg_den:
            ne = tuple(map(add, neg_e, de))
            old = rem.get(ne)
            if old is None:
                rem[ne] = -c * dc
                heappush(heap, ne)
            elif old == c * dc:
                del rem[ne]
            else:
                rem[ne] = old - c * dc
    return LaurentCharacter(quot)


@lru_cache(maxsize=None)
def weyl_character(lam: Partition, m: int) -> LaurentCharacter:
    """Irreducible character from the determinant ratio, computed exactly.

    The reference route (m! * 2^m terms per determinant): only the tests and
    ``verify characters`` call it, to check the production routes.
    """
    lam = shape_in_rows(lam, m)
    padded = lam + (0,) * (m - len(lam))
    num = _odd_determinant(tuple(padded[i] + m - i for i in range(m)))
    den = _odd_determinant(tuple(m - i for i in range(m)))
    return _divide_exact(num, den)


def weyl_dimension(lam: Partition, m: int) -> int:
    """Dimension by the product over positive roots, in exact rationals."""
    lam = shape_in_rows(lam, m)
    padded = lam + (0,) * (m - len(lam))
    a = [padded[i] + m - i for i in range(m)]  # shifted by the half-sum
    b = [m - i for i in range(m)]
    dim = Fraction(1)
    for i in range(m):
        dim *= Fraction(a[i], b[i])
        for j in range(i + 1, m):
            dim *= Fraction(a[i] - a[j], b[i] - b[j])
            dim *= Fraction(a[i] + a[j], b[i] + b[j])
    if dim.denominator != 1:
        raise AssertionError(f"dimension product is not an integer: {dim}")
    return int(dim)


def schur_eval(mu: Partition, m: int) -> LaurentCharacter:
    """Schur polynomial on the 2m letters x_1..x_m, x_1^-1..x_m^-1."""

    def exponent(t) -> Weight:
        counts = t.content(2 * m)
        return tuple(counts[k] - counts[m + k] for k in range(m))

    return LaurentCharacter(Counter(exponent(t) for t in tableaux_of_shape(mu, 2 * m)))


def brauer_klimyk(lam: Partition, f: LaurentCharacter, m: int) -> Counter:
    """Multiplicities of chi_lam * f in the irreducible-character basis, in one
    pass over f, without expanding the product.

    Brauer-Klimyk (Fulton-Harris section 25): a signed permutation w makes
    v = lam + e + rho positive and strictly decreasing, rho = (m, ..., 1),
    and each term c * x^e of f adds sign(w) * c to sorted|v| - rho; a v with
    a zero or a repeated |entry| lies on a wall.  Raises unless lam has at
    most m rows, every exponent has m entries and every adjacent swap and
    negating x_m fix f.  Returns the nonzero multiplicities, largest first.
    """
    lam = shape_in_rows(lam, m)
    rho = range(m, 0, -1)
    shift = [a + r for a, r in zip(lam + (0,) * (m - len(lam)), rho)]
    acc: Counter = Counter()
    for e, c in f.terms.items():
        if len(e) != m:
            raise ValueError(f"exponent {e} does not have {m} entries")
        images = [e[:k] + (e[k + 1], e[k]) + e[k + 2 :] for k in range(m - 1)]
        images += [e[:-1] + (-e[-1],)] if m else []
        if any(f.terms.get(x) != c for x in images):
            raise ValueError(f"at {e}: input is not symmetric under signed permutations")
        v = [a + s for a, s in zip(e, shift)]
        flips = sum(a < 0 for a in v)
        v = [abs(a) for a in v]
        if 0 in v or len(set(v)) < m:
            continue
        inversions = sum(a < b for a, b in combinations(v, 2))
        nu = normalize_partition(a - r for a, r in zip(sorted(v, reverse=True), rho))
        acc[nu] += -c if (flips + inversions) % 2 else c
    return Counter({nu: acc[nu] for nu in sorted(acc, reverse=True) if acc[nu]})


def decompose_sp(f: LaurentCharacter, m: int) -> Counter:
    """Exact multiplicities of f in the irreducible-character basis, in one
    pass: ``brauer_klimyk`` with the empty shape, whose character is 1."""
    return brauer_klimyk((), f, m)


# ---------------------------------------------------------------------------
# Pieri-type counts


def dual_pieri_counts(lam: Partition, ell: int, g: int) -> Counter:
    """For every nu, the oscillating strips of size ``ell`` from conj(lam) to
    conj(nu) with peaks at most g wide; one strip scan for all nu."""
    return Counter(
        conjugate(s.outside) for s in enumerate_strips(conjugate(lam), g, size=ell)
    )


def dual_pieri_count(lam: Partition, ell: int, nu: Partition, g: int) -> int:
    """Oscillating strips between the conjugate shapes, peaks at most g wide."""
    return dual_pieri_counts(lam, ell, g)[normalize_partition(nu)]


def sundaram_h_count(lam: Partition, k: int, nu: Partition) -> int:
    """Shapes under both that leave a horizontal strip to each, k boxes total."""
    lam = normalize_partition(lam)
    nu = normalize_partition(nu)
    rows = max(len(lam), len(nu))
    lam_p = lam + (0,) * (rows + 1 - len(lam))
    nu_p = nu + (0,) * (rows + 1 - len(nu))
    bounds = [
        (max(lam_p[r + 1], nu_p[r + 1]), min(lam_p[r], nu_p[r])) for r in range(rows)
    ]
    target = sum(lam) + sum(nu) - k
    return sum(1 for delta in interlacing_partitions(bounds) if 2 * sum(delta) == target)


# ---------------------------------------------------------------------------
# the product formula harness


def conjecture_table(
    lam: Partition, mu: Partition, m: int, memo: dict | None = None
) -> Counter:
    """The tableau side of the product formula, grouped by ending partition.

    Entry ``nu`` counts the chains inside conj(lam), outside conj(nu), strip
    sizes conj(mu), peaks at most m wide, with epsilon zero at every index
    i >= 1: ``enumerate_ssot`` walks only those, by the bound (None, 0, ..., 0).
    ``memo`` is the strip table ``enumerate_ssot`` fills and reuses.
    """
    lam, mu = normalize_partition(lam), normalize_partition(mu)
    weight = conjugate(mu)
    bound = tuple(None if i == 0 else 0 for i in range(len(weight)))
    chains = enumerate_ssot(None, len(weight), m, inside=conjugate(lam),
                            weight=weight, memo=memo, eps_bound=bound)
    return Counter(conjugate(t.outside) for t in chains)


@dataclass(frozen=True)
class ConjectureReport:
    """Per-ending-shape comparison of tableau counts against multiplicities."""

    lam: Partition
    mu: Partition
    m: int
    mode: str  # "ASSERT" for the proved range, "REPORT" otherwise
    rows: tuple[tuple[Partition, int, int], ...]  # (nu, tableau count, multiplicity)

    @property
    def ok(self) -> bool:
        return all(a == b for _, a, b in self.rows)


def conjecture_verify(
    lam: Partition, mu: Partition, m: int, memo: dict | None = None,
    schurs: dict | None = None,
) -> ConjectureReport:
    """Both sides of the product formula: the chain counts of
    ``conjecture_table`` against the Brauer-Klimyk multiplicities of
    chi_lam * s_mu.  ``memo`` is passed to ``conjecture_table``; ``schurs``
    keeps s_mu by (mu, m), so calls that share one dict evaluate each mu once."""
    lam, mu = normalize_partition(lam), normalize_partition(mu)
    counted = conjecture_table(lam, mu, m, memo)
    schurs = {} if schurs is None else schurs
    if (mu, m) not in schurs:
        schurs[mu, m] = schur_eval(mu, m)
    expanded = brauer_klimyk(lam, schurs[mu, m], m)
    keys = sorted(set(counted) | set(expanded), key=lambda p: (sum(p), p))
    rows = tuple((nu, counted.get(nu, 0), expanded.get(nu, 0)) for nu in keys)
    mode = "ASSERT" if (not mu or mu[0] <= 3 or len(mu) == 1) else "REPORT"
    return ConjectureReport(lam, mu, m, mode, rows)
