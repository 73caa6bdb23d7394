"""Shared helpers: independent brute-force oracles and random data.

Oracles here deliberately avoid the library's own code paths wherever
they exist to check one (recursive determinants for rank, monomial
counting for dimensions, direct shifted intersections for Koszul
spaces, the stacked-basis kernel for intersections, the joint system
for the twist), so an engine bug cannot hide behind itself.
"""

from fractions import Fraction
import functools
import itertools
import random

import pytest

from orenaka import (
    Matrix,
    NoSolutionError,
    QuadraticAlgebra,
    Subspace,
    Tensor,
    make_jordan_plane,
    make_polynomial,
    make_quantum_plane,
    nakayama_of_B,
    random_admissible_automorphism,
    random_admissible_derivation,
    scalar,
)
from orenaka.errors import NonUniqueTwistError
from orenaka.linalg import ONE, ZERO, _combine, _unscaled, expand_scaled, solve_columns


def frac(a, b=1) -> Fraction:
    return Fraction(a, b)


def rand_frac(rng: random.Random, span=4, nonzero=False) -> Fraction:
    while True:
        x = Fraction(rng.randint(-span, span), rng.randint(1, 3))
        if x or not nonzero:
            return x


def rand_matrix(rng, n, span=4) -> Matrix:
    return Matrix([[rand_frac(rng, span) for _ in range(n)] for _ in range(n)])


def rand_invertible(rng, n, span=4) -> Matrix:
    while True:
        m = rand_matrix(rng, n, span)
        if minor_det(m.rows):
            return m


def minor_det(rows) -> Fraction:
    """Determinant by recursive cofactor expansion (oracle)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j]:
            minor = [
                [rows[i][k] for k in range(n) if k != j] for i in range(1, n)
            ]
            sign = 1 if j % 2 == 0 else -1
            total += sign * rows[0][j] * minor_det(minor)
    return total


def minor_rank(m: Matrix) -> int:
    """Largest size of a nonsingular square minor (oracle)."""
    best = 0
    for size in range(1, min(m.nrows, m.ncols) + 1):
        found = False
        for rset in itertools.combinations(range(m.nrows), size):
            for cset in itertools.combinations(range(m.ncols), size):
                sub = [[m.rows[i][j] for j in cset] for i in rset]
                if minor_det(sub):
                    found = True
                    break
            if found:
                break
        if found:
            best = size
        else:
            break
    return best


def rref(m: Matrix) -> tuple[Matrix, list[int], int]:
    """Reduced row echelon form of a dense matrix through ``Subspace``:
    ``(rref_matrix, pivot_columns, rank)``, with the zero rows at the
    bottom so the result keeps the shape of the input."""
    s = Subspace(m.ncols, ({j: e for j, e in enumerate(r) if e} for r in m.rows))
    rows = [[row.get(j, ZERO) for j in range(m.ncols)] for row in s.basis()]
    rows += [[ZERO] * m.ncols for _ in range(m.nrows - s.dim)]
    return Matrix(rows), list(s.pivots), s.dim


def solve_affine(a: Matrix, b) -> tuple[list[Fraction], Subspace]:
    """Solve a x = b exactly through ``solve_columns``: the canonical
    particular solution (free variables zero) and the kernel of ``a`` as
    a Subspace of k^ncols; ``NoSolutionError`` when b is outside the
    column space."""
    bs = [scalar(x) for x in b]
    if len(bs) != a.nrows:
        raise ValueError("right-hand side length mismatch")
    cols = [{i: a.rows[i][j] for i in range(a.nrows) if a.rows[i][j]} for j in range(a.ncols)]
    particulars, kernel = solve_columns(cols, [{i: v for i, v in enumerate(bs) if v}])
    if particulars[0] is None:
        raise NoSolutionError("b is outside the column space")
    return particulars[0], Subspace(a.ncols, kernel)


def koszul_differential(alg: QuadraticAlgebra, i: int, j: int) -> Matrix:
    """Dense view of ``alg.differential_rows(i, j)``."""
    rows = alg.differential_rows(i, j)
    ncols = alg.koszul_space(i - 1).dim * alg.dim_A(j + 1)
    if not rows:
        return Matrix.zero(0, ncols)
    return Matrix([[row.get(k, ZERO) for k in range(ncols)] for row in rows])


def expand_through(t: Tensor, left: int, space: Subspace, space_degree: int, right: int):
    """The coefficients of ``linalg.expand_scaled`` as Fractions, or None
    when t lies outside V^(x)left (x) S (x) V^(x)right: the sandwich
    reader of the oracles and of the membership tests."""
    got = expand_scaled(t, left, space, space_degree, right)
    return None if got is None else _unscaled(*got)


def word_twist_holds(omega_hat: Tensor, mu: Matrix, d: int) -> bool:
    """Oracle: the twist condition omega-hat = (-1)^d tau_d (mu (x)
    id^d)(omega-hat) on every word, with mu acting on the first factor
    and tau_d moving it to the end."""
    return omega_hat.apply_matrix_at(1, mu).tau(d).scale((-1) ** d) == omega_hat


def first_escape_by_tensors(space: Subspace, m: Matrix, nv: int):
    """The Tensor route of ``linalg.escaping_row`` (oracle): the
    pivot-order position of the first basis row whose image under m (x)
    m, applied to its tensor, leaves the space, or None."""
    for pos, b in enumerate(space.basis()):
        image = Tensor.from_vec(b, nv, 2).apply_matrix_slots((1, 2), m)
        if not space.contains(image.to_vec()):
            return pos
    return None


def commutative_monomial_count(n: int, m: int) -> int:
    """Number of degree-m monomials in n commuting variables (oracle)."""
    return sum(
        1
        for c in itertools.combinations_with_replacement(range(n), m)
    ) if m >= 0 else 0


def shifted_relation_space(r: Subspace, nv: int, left: int, right: int) -> Subspace:
    """V^(x)left (x) R (x) V^(x)right, built longhand and eliminated in
    full for oracles; R may be any subspace of a tensor power of V."""
    rows = []
    for b in r.basis():
        for lf in range(nv**left):
            for rf in range(nv**right):
                base = lf * r.ambient * nv**right
                rows.append({base + p * nv**right + rf: c for p, c in b.items()})
    return Subspace(r.ambient * nv ** (left + right), rows)


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    """The sum of two subspaces of one ambient space: one elimination of
    both bases."""
    if s1.ambient != s2.ambient:
        raise ValueError("ambient dimension mismatch")
    return Subspace(s1.ambient, [*s1.basis(), *s2.basis()])


def sandwich_space(alg: QuadraticAlgebra) -> Subspace:
    """R (x) V + V (x) R inside V^(x)3, from the longhand shifted
    relation spaces: the admissibility oracle for delta(R)."""
    return subspace_sum(
        shifted_relation_space(alg.R, alg.nv, 0, 1), shifted_relation_space(alg.R, alg.nv, 1, 0)
    )


def ideal_component(alg: QuadraticAlgebra, m: int) -> Subspace:
    """Degree-m piece of the two-sided ideal (R): the sum of all shifted
    copies of R inside V^(x)m, so dim A_m = n^m - its dimension."""
    rows = []
    for s in range(m - 1):
        rows += shifted_relation_space(alg.R, alg.nv, s, m - s - 2).basis()
    return Subspace(alg.nv**m, rows)


def intersect_by_kernel(s1: Subspace, s2: Subspace) -> Subspace:
    """S1 n S2 from the kernel of the stacked-basis system sum_j x_j a_j
    = sum_k y_k b_k, one equation per coordinate (oracle for
    ``subspace_intersect``, which eliminates one row per basis vector of
    S2)."""
    if s1.ambient != s2.ambient:
        raise ValueError("ambient dimension mismatch")
    b1, b2 = s1.int_rows(), s2.int_rows()
    if not b1 or not b2:
        return Subspace(s1.ambient)
    cols = b1 + [{k: -v for k, v in r.items()} for r in b2]
    _, kernel = solve_columns(cols, [])
    # the numerators alone: one common scale leaves a span unchanged
    rows = [_combine((c, b1[j], 1) for j, c in kv.items() if j < len(b1))[0] for kv in kernel]
    return Subspace(s1.ambient, rows)


def direct_koszul(alg: QuadraticAlgebra, i: int) -> Subspace:
    """W_i from the defining intersection, via shifted copies of R."""
    acc = None
    for s in range(i - 1):
        block = shifted_relation_space(alg.R, alg.nv, s, i - s - 2)
        acc = block if acc is None else intersect_by_kernel(acc, block)
    return acc


def twist_solve_joint(omega: Tensor) -> Matrix:
    """The twist condition omega = (-1)^(d-1) tau_d^(d-1) (nu (x)
    id^(d-1))(omega) as one system in the n^2 entries of nu, one
    equation per word of V^(x)d (oracle for ``twist_solve``, which
    solves it by columns of nu), with the same errors."""
    nv = omega.nv
    d = omega.degree
    sign = ONE if (d - 1) % 2 == 0 else -ONE
    cols = [
        {w[1:] + (b,): sign * c for w, c in omega.entries.items() if w[0] == a}
        for a in range(nv)
        for b in range(nv)
    ]
    particulars, kernel = solve_columns(cols, [dict(omega.entries)])
    if particulars[0] is None:
        raise NonUniqueTwistError("twist condition has no solution")
    if kernel:
        raise NonUniqueTwistError(
            f"twist condition is underdetermined (kernel dim {len(kernel)})"
        )
    x = particulars[0]
    return Matrix([[x[a * nv + b] for b in range(nv)] for a in range(nv)])


@functools.lru_cache(maxsize=None)
def dense_extension(n: int):
    """The dense pair on poly(n) and its extension fed back as an
    algebra: ``(B, report)``, with B = QuadraticAlgebra(x1..xn, z;
    R-hat) and sigma, delta drawn by ``random.Random(3)`` through the
    catalog samplers."""
    a = make_polynomial(n)
    rng = random.Random(3)
    sigma = random_admissible_automorphism(a, rng)
    rep = nakayama_of_B(sigma, random_admissible_derivation(a, sigma, rng))
    names = [f"x{i + 1}" for i in range(n)] + ["z"]
    return QuadraticAlgebra(names, rep.relations_hat), rep


def compose_rows(first, second) -> list[dict]:
    """Product of two sparse row-major matrices (rows are images): row r
    is sum_k first[r][k] * second[k].  Every entry the product touches
    is kept, zero or not, so callers can assert on each one."""
    out = []
    for row in first:
        acc: dict = {}
        for k, c in row.items():
            for col, v in second[k].items():
                acc[col] = acc.get(col, 0) + c * v
        out.append(acc)
    return out


def _acc(es: dict, key, c) -> None:
    """es[key] += c, dropping the entry when it cancels."""
    s = es.get(key, 0) + c
    if s:
        es[key] = s
    else:
        es.pop(key, None)


def fraction_echelon(rows, reduced: bool = False) -> dict:
    """The Fraction route of ``linalg.echelon`` over Q, an oracle for the
    integer kernel: rows in the order given, each cleared at its leading
    column against the pivot row stored there, pivot rows normalised to
    1; ``reduced`` adds the back pass that makes the basis the RREF."""
    pivots: dict = {}
    for row in rows:
        r = {k: Fraction(v) for k, v in row.items() if v}
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = {k: v / r[lead] for k, v in r.items()}
                break
            f = r[lead]
            for k, v in piv.items():
                _acc(r, k, -f * v)
    if reduced:
        for lead in sorted(pivots, reverse=True):
            r = pivots[lead]
            for k in [k for k in r if k != lead and k in pivots]:
                f = r[k]
                for j, v in pivots[k].items():
                    _acc(r, j, -f * v)
    return pivots


def fraction_apply_matrix_at(entries: dict, slot: int, m) -> dict:
    """The Fraction route of one slot of a matrix (rows are images), an
    oracle for the scaled-integer ``Tensor`` kernels."""
    k = slot - 1
    es: dict = {}
    for w, c in entries.items():
        for j, a in enumerate(m.rows[w[k]]):
            if a:
                _acc(es, w[:k] + (j,) + w[k + 1 :], c * a)
    return es


def fraction_apply_images_at(entries: dict, slot: int, images) -> dict:
    """The Fraction route of substituting images (Tensors) at one slot."""
    k = slot - 1
    es: dict = {}
    for w, c in entries.items():
        for wi, ci in images[w[k]].entries.items():
            _acc(es, w[:k] + wi + w[k + 1 :], c * ci)
    return es


def fraction_expand_through(entries: dict, nv, left, space, space_degree, right):
    """The Fraction route of the sandwich reader: coefficients at the
    shifted pivot words, then a Fraction residual; None outside."""
    basis = space.basis()
    index = {_word(p, space_degree, nv): l for l, p in enumerate(space.pivots)}
    end = left + space_degree
    coeffs = {}
    for w, c in entries.items():
        l = index.get(w[left:end])
        if l is not None:
            coeffs[(w[:left], l, w[end:])] = c
    rest = dict(entries)
    for (jl, l, jr), c in coeffs.items():
        for k, v in basis[l].items():
            _acc(rest, jl + _word(k, space_degree, nv) + jr, -c * v)
    return None if rest else coeffs


def fraction_sandwich_map(entries, nv, left, space, space_degree, right, images, m):
    """The Fraction route of ``linalg.sandwich_map``: read, substitute,
    then m slot by slot on the left factors."""
    coeffs = fraction_expand_through(entries, nv, left, space, space_degree, right)
    if coeffs is None:
        return None
    es: dict = {}
    for (jl, l, jr), c in coeffs.items():
        for iw, ic in images[l].entries.items():
            _acc(es, jl + iw + jr, c * ic)
    for slot in range(1, left + 1):
        es = fraction_apply_matrix_at(es, slot, m)
    return es


def fraction_nf_tensor(alg, entries: dict, keep: int) -> dict:
    """The Fraction route of ``QuadraticAlgebra.nf_tensor(t, keep)``, an
    oracle keyed by (head word, A-basis index): each word's factors after
    the first ``keep`` go through ``nf_word`` and are summed in
    Fractions."""
    out: dict = {}
    for w, c in entries.items():
        for k, v in alg.nf_word(w[keep:]).items():
            _acc(out, (w[:keep], k), c * v)
    return out


def _word(flat: int, degree: int, nv: int) -> tuple:
    w = []
    for _ in range(degree):
        flat, r = divmod(flat, nv)
        w.append(r)
    return tuple(reversed(w))


def tensor_of_gamma(gamma) -> list:
    from orenaka import gamma_images

    return gamma_images(gamma)


CATALOG_QS = (frac(-1), frac(2), frac(3), frac(1, 2))


def catalog_algebras():
    """The structural-test roster: polynomials, quantum planes, Jordan."""
    algs = [
        ("poly2", make_polynomial(2)),
        ("poly3", make_polynomial(3)),
        ("poly4", make_polynomial(4)),
        ("jordan", make_jordan_plane()),
    ]
    algs += [(f"quantum({q})", make_quantum_plane(q)) for q in CATALOG_QS]
    return algs


@pytest.fixture(scope="session")
def rng():
    return random.Random(20260810)
