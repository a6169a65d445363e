"""The ``verify`` battery: exhaustive checks of the paper's claims at desk scale.

Four suites, each returning rows ``(suite, check, ok, detail)``:

* ``bijections`` -- King tableaux to SSOT and back (``psi``), SSOT to
  matrices and back (``phi``), weights and the column count preserved.
* ``crystal`` -- the crystal axioms and closure on both models, the matrix
  operators against the surgery route of ``oracles``, ``phi``'s
  equivariance, and Stembridge's local axioms.
* ``characters`` -- the tableau-sum character against the determinant
  ratio, both Pieri rules, and decomposition by reconstruction.
* ``conjecture`` -- the product formula, asserted in its proved range.

``SUITES`` holds them in run order with the ``--max-size`` default and cap
of the two that take one; ``BOUNDS`` caps ``m`` and ``g`` for all of them.
``out_of_bounds`` checks every cap before ``run`` starts any suite.  The
CLI imports this module only when ``verify`` runs, so no other subcommand
compiles the suites or loads ``oracles``.
"""

import random

from .bijections import phi, phi_inverse, psi, psi_inverse
from .characters import (
    brauer_klimyk,
    conjecture_verify,
    decompose_sp,
    dual_pieri_counts,
    king_character,
    schur_eval,
    sundaram_h_count,
    weyl_character,
)
from .crystal import (
    MatrixCrystal,
    OperatorTable,
    SsotCrystal,
    axiom_violations,
    stembridge_violations,
)
from .oracles import matrix_surgery
from .oscillating import enumerate_ssot
from .rsk import c_index, enumerate_admissible, row_sums
from .tableaux import (
    enumerate_king,
    format_partition,
    king_weight,
    partitions_in_box,
    partitions_upto,
    rect_complement,
)


def suite_bijections(m, g):
    rows = []
    pairs = 0
    weight_ok = True
    by_outside = {}
    for t in enumerate_ssot(None, m, g):
        by_outside.setdefault(t.outside, []).append(t)
    for mu in partitions_in_box(m, g):
        kings = enumerate_king(mu, m)
        ssots = by_outside.get(rect_complement(mu, m, g), [])
        pairs += len(kings)
        images = [psi(t, m, g) for t in kings]
        if sorted(map(str, images)) != sorted(map(str, ssots)):
            weight_ok = False
        for t, s in zip(kings, images):
            if psi_inverse(s, g) != t or king_weight(t, m) != s.crystal_weight(g):
                weight_ok = False
    rows.append(("bijections", "king_transport_round_trip", weight_ok,
                 f"tableaux={pairs} m={m} g={g}"))
    chains = by_outside.get((), [])
    mats = enumerate_admissible(m, g)
    ok = len(chains) == len(mats)
    inv_ok = True
    for t in chains:
        mat = phi(t)
        if phi_inverse(mat) != t:
            inv_ok = False
        if c_index(mat) != 2 * t.num_cols or row_sums(mat) != t.weight():
            inv_ok = False
    rows.append(("bijections", "matrix_transport_round_trip", inv_ok,
                 f"tableaux={len(chains)}"))
    rows.append(("bijections", "matrix_count_matches", ok,
                 f"ssot={len(chains)} matrices={len(mats)}"))
    return rows


def suite_crystal(m, g):
    rows = []
    # the crystals of every shape in the m x g box: m strips with peaks at
    # most g wide never leave it
    corpus = enumerate_ssot(None, m, g)
    mats = enumerate_admissible(m, g)
    # one operator table per model, shared by every check below and dropped
    # on return
    osc_tab = OperatorTable(SsotCrystal(m, g), corpus)
    mat_tab = OperatorTable(MatrixCrystal(m, g), mats)
    for name, table, vertices in (("oscillating", osc_tab, corpus), ("matrix", mat_tab, mats)):
        v = axiom_violations(table, vertices)
        # the table is seeded with the (distinct) vertices and the axioms
        # asked e and f of each, so an object numbered past them is an output
        # that left the crystal: the SSOT operators build their outputs unchecked
        if len(table.objects) > len(vertices):
            v.append(f"operator output is not a vertex: {table.objects[len(vertices)]}")
        rows.append(("crystal", f"axioms_{name}", not v,
                     v[0] if v else f"vertices={len(vertices)}"))
    # side 0 raises, side 1 lowers; every comparison runs, none exits early
    same = [mat_tab.image(k, mat, i) == matrix_surgery(mat, i, k)
            for mat in mats for i in range(1, m) for k in (0, 1)]
    rows.append(("crystal", "insertion_vs_surgery", all(same), f"checks={len(same)}"))
    equi_ok = True
    checked = 0
    for t in [t for t in corpus if t.outside == ()]:
        mat = phi(t)
        for i in range(m):
            checked += 1
            for k in (0, 1):
                y = osc_tab.image(k, t, i)
                if (None if y is None else phi(y)) != mat_tab.image(k, mat, i):
                    equi_ok = False
            if osc_tab.stats(osc_tab.id(t), i) != mat_tab.stats(mat_tab.id(mat), i):
                equi_ok = False
    rows.append(("crystal", "transport_equivariance", equi_ok, f"checks={checked}"))
    v = stembridge_violations(osc_tab, corpus)
    v += stembridge_violations(mat_tab, mats)
    rows.append(("crystal", "stembridge_battery", not v,
                 v[0] if v else f"vertices={len(corpus) + len(mats)}"))
    return rows


def suite_characters(m, max_size):
    rows = []
    ok = True
    n = 0
    for lam in partitions_upto(max_size, m):
        n += 1
        if king_character(lam, m) != weyl_character(lam, m):
            ok = False
    rows.append(("characters", "tableau_sum_equals_determinant_ratio", ok,
                 f"shapes={n} m={m}"))
    dp_ok = h_ok = True
    checked = 0
    # e_ell and h_ell do not depend on lam: one Schur evaluation each
    elementary = [schur_eval((1,) * ell, m) for ell in range(4)]
    complete = [schur_eval((ell,), m) for ell in range(4)]
    for lam in partitions_upto(min(max_size, 4), m):
        for ell in range(4):
            dec_e = brauer_klimyk(lam, elementary[ell], m)
            dec_h = brauer_klimyk(lam, complete[ell], m)
            strips = dual_pieri_counts(lam, ell, m)
            for nu in partitions_upto(min(max_size, 4) + ell, m):
                checked += 1
                if dec_e.get(nu, 0) != strips[nu]:
                    dp_ok = False
                if dec_h.get(nu, 0) != sundaram_h_count(lam, ell, nu):
                    h_ok = False
    rows.append(("characters", "dual_pieri_rule", dp_ok, f"checks={checked}"))
    rows.append(("characters", "row_pieri_rule", h_ok, f"checks={checked}"))
    rng = random.Random(0)
    pool = partitions_upto(min(max_size, 3), m)
    rec_ok = True
    for _ in range(20):
        a, b = rng.choice(pool), rng.choice(pool)
        f = weyl_character(a, m) * weyl_character(b, m)
        rebuilt = f - f
        for nu, c in decompose_sp(f, m).items():
            rebuilt = rebuilt + c * weyl_character(nu, m)
        if rebuilt != f:
            rec_ok = False
    rows.append(("characters", "decomposition_reconstructs", rec_ok, "products=20"))
    return rows


def suite_conjecture(m, max_size):
    rows = []
    asserted = reported = 0
    bad = []
    memo, schurs = {}, {}  # one strip table and one Schur table for every pair
    for lam in partitions_upto(max_size, m):
        for mu in partitions_upto(max_size, m):
            r = conjecture_verify(lam, mu, m, memo, schurs)
            if r.mode == "ASSERT":
                asserted += 1
                if not r.ok:
                    bad.append((lam, mu))
            else:
                reported += 1
                if not r.ok:
                    rows.append(("conjecture", "report_mode_difference", True,
                                 f"lambda={format_partition(lam)} mu={format_partition(mu)}"))
    rows.append(("conjecture", "product_formula_proved_range", not bad,
                 f"asserted={asserted} reported={reported}" if not bad
                 else f"first failure lambda={bad[0][0]} mu={bad[0][1]}"))
    return rows


BOUNDS = {"m": 4, "g": 3}

# the suites in run order; suite_<name> takes (m, g), or (m, size) when the
# entry gives the (default, cap) of --max-size
SUITES = {"bijections": None, "crystal": None, "characters": (4, 6), "conjecture": (3, 4)}


def _wanted(what, g, max_size):
    """(name, suite, its second argument, that argument's cap) per suite to run."""
    for name, sizes in SUITES.items():
        if what in (name, "all"):
            # looked up at call time, so a test can stand in for a suite
            suite = globals()[f"suite_{name}"]
            if sizes is None:
                yield name, suite, g, None
            else:
                yield name, suite, sizes[0] if max_size is None else max_size, sizes[1]


def out_of_bounds(what, m, g, max_size) -> str | None:
    """Why ``verify what`` is refused at these sizes, or None if every cap holds."""
    if m > BOUNDS["m"] or g > BOUNDS["g"]:
        return f"verify is desk-scale: m <= {BOUNDS['m']}, g <= {BOUNDS['g']}"
    for name, _, size, cap in _wanted(what, g, max_size):
        if cap is not None and size > cap:
            return f"{name} suite caps --max-size at {cap}"
    return None


def run(what, m, g, max_size) -> tuple[list[str], bool]:
    """One tab-separated line per row of every suite ``what`` names, then a summary."""
    rows = [row for _, suite, arg, _ in _wanted(what, g, max_size) for row in suite(m, arg)]
    lines = [
        f"{suite}\t{name}\t{'PASS' if ok else 'FAIL'}\t{detail}"
        for suite, name, ok, detail in rows
    ]
    ok = all(r[2] for r in rows)
    passed = sum(1 for r in rows if r[2])
    lines.append(f"summary\t{what}\t{'PASS' if ok else 'FAIL'}\t{passed}/{len(rows)} checks")
    return lines, ok
