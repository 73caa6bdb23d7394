"""Graded automorphisms, derivation lifts, homological determinant,
and the Nakayama automorphism of the base algebra.

Matrix convention (package-wide): rows are images, sigma(x_i) =
sum_j M[i][j] x_j.  Under this convention the matrix of a composite
"apply beta first, then alpha" is matrix(beta) * matrix(alpha), and
coordinates of vectors transform by the transpose.

The Nakayama automorphism is computed from the twist condition of the
canonical top Koszul tensor: omega is fixed by (-1)^(d-1) times the
full rotation after applying nu to the first factor, and that linear
condition pins nu down uniquely for a genuine AS-regular input.  It is
solved column by column of nu (``twist_solve``).
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Sequence

from .errors import (
    EngineInvariantError,
    NonUniqueTwistError,
    NotAdmissibleError,
)
from .linalg import (
    ZERO,
    Matrix,
    Subspace,
    Tensor,
    _block_sum,
    _combine,
    _matrix_images,
    _matrix_operator,
    _operator,
    _residual,
    _scaled_images,
    _substitute_at,
    escaping_row,
    solve_columns,
    word_flat,
)
from .quadratic import QuadraticAlgebra


class GradedAutomorphism:
    """An admissible graded automorphism of a quadratic algebra.

    Construct through check_automorphism so that invertibility and
    preservation of the relation space are always verified.  The
    inverse matrix is kept once computed, and ``inverse()`` wraps it
    afresh on each call: the inverse keeps this matrix, not this
    automorphism, so the two never form a reference cycle that would
    hold the algebra until a cyclic collection.
    """

    __slots__ = ("matrix", "algebra", "_inverse", "__weakref__")

    def __init__(self, matrix: Matrix, algebra: QuadraticAlgebra, inverse: Matrix | None = None):
        self.matrix = matrix
        self.algebra = algebra
        self._inverse = inverse

    def inverse(self) -> "GradedAutomorphism":
        if self._inverse is None:
            self._inverse = self.matrix.inverse()
        return GradedAutomorphism(self._inverse, self.algebra, self.matrix)

    def then(self, other: "GradedAutomorphism") -> "GradedAutomorphism":
        """The automorphism 'apply self first, then other'."""
        if other.algebra is not self.algebra:
            raise ValueError("automorphisms live on different algebras")
        return check_automorphism(self.matrix * other.matrix, self.algebra)

    def apply_vector(self, t: Tensor) -> Tensor:
        """Apply to a degree-1 tensor."""
        if t.degree != 1:
            raise ValueError("expected a degree-1 tensor")
        return t.apply_matrix_slots((1,), self.matrix)

    def apply_all(self, t: Tensor) -> Tensor:
        """sigma^(x)degree applied to a tensor."""
        return t.apply_matrix_slots(range(1, t.degree + 1), self.matrix)

    def __eq__(self, other):
        return (
            isinstance(other, GradedAutomorphism)
            and self.algebra is other.algebra
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"GradedAutomorphism({self.matrix!r})"


def check_automorphism(m: Matrix, alg: QuadraticAlgebra) -> GradedAutomorphism:
    """Validate that m defines a graded automorphism of alg.

    Checks invertibility and (m (x) m)(R) = R; since m is invertible the
    inclusion (m (x) m)(R) <= R already forces equality.  The inverse
    computed for the first check is kept as ``inverse()``.
    """
    if not m.is_square() or m.nrows != alg.nv:
        raise ValueError(f"matrix must be {alg.nv} x {alg.nv}")
    sigma = GradedAutomorphism(m, alg, m.inverse())  # raises NotInvertibleError on singular input
    k = escaping_row(alg.R, m)
    if k is not None:
        t = alg.R.basis_tensors(alg.nv, 2)[k]
        raise NotAdmissibleError(
            f"automorphism does not preserve R: image of {t!r} escapes"
        )
    return sigma


def identity_automorphism(alg: QuadraticAlgebra) -> GradedAutomorphism:
    return GradedAutomorphism(Matrix.identity(alg.nv), alg)


class DerivationLift:
    """A degree-one sigma-derivation presented by its tensor lift
    delta: V -> V (x) V.

    The lift extends uniquely to the tensor algebra by the twisted
    Leibniz rule delta(u (x) v) = sigma_T(u) (x) delta(v) + delta(u)
    (x) v; admissibility means delta(R) <= R (x) V + V (x) R, which is
    exactly the condition for the induced map on A to be well defined.
    It is read as delta(r) = 0 in A_3 for every relation r: A_3 is
    V^(x)3 / (R (x) V + V (x) R) by definition, so a degree-3 tensor
    lies in R (x) V + V (x) R iff its normal form in A_3 is zero.
    """

    __slots__ = ("images", "sigma", "algebra", "_tables")

    def __init__(self, images: Sequence[Tensor], sigma: GradedAutomorphism):
        self.images = tuple(images)
        self.sigma = sigma
        self.algebra = sigma.algebra
        self._tables = None

    @staticmethod
    def zero(sigma: GradedAutomorphism) -> "DerivationLift":
        nv = sigma.algebra.nv
        return DerivationLift([Tensor(nv, 2) for _ in range(nv)], sigma)

    def extend(self, t: Tensor) -> Tensor:
        """Apply the extended derivation to a degree-m tensor: the sum
        over k of (sigma^(x)(k-1) (x) delta (x) id)(t), one
        ``_substitute_at`` pass per slot on tables made on the first call."""
        if t.nv != self.algebra.nv:
            raise ValueError("tensor alphabet mismatch")
        return Tensor._from_scaled(self.algebra.nv, t.degree + 1, *self._extend(t))

    def _extend(self, t: Tensor) -> tuple[dict, int]:
        """``extend`` as a raw sum: int numerators by word over one
        denominator, cancelled entries kept as zeros."""
        if self._tables is None:
            self._tables = (_matrix_images(self.sigma.matrix), _scaled_images(self.images))
        (rows, mden), (images, iden) = self._tables
        terms = []
        twisted, den = t.nums, t.den  # sigma applied at slots 1..k-1
        for k in range(t.degree):
            if k:
                twisted, den = _substitute_at(twisted, k - 1, rows), den * mden
            terms.append((1, _substitute_at(twisted, k, images), den * iden))
        return _combine(terms)

    def is_zero(self) -> bool:
        return all(im.is_zero() for im in self.images)

    def perturb(self, eps_images: Sequence[Tensor]) -> "DerivationLift":
        """A different lift of the same derivation of A.

        eps must map V into R; then delta + eps induces the same map on
        the quotient and is automatically admissible again.
        """
        for e in eps_images:
            if _outside(self.algebra.R, e):
                raise ValueError("perturbation images must lie in R")
        return extend_derivation(
            [a + b for a, b in zip(self.images, eps_images)], self.sigma, self.algebra
        )

    def __repr__(self):
        return f"DerivationLift({list(self.images)!r})"


def extend_derivation(
    images: Sequence[Tensor], sigma: GradedAutomorphism, alg: QuadraticAlgebra
) -> DerivationLift:
    """Build an admissible derivation lift, or raise NotAdmissibleError
    naming the first basis relation r of R (pivot order) with delta(r)
    outside R (x) V + V (x) R.

    delta(r) is tested as delta(r) = 0 in A_3 (``DerivationLift``), on
    the int rows r of R (``Subspace.int_rows``) keyed a * nv + b by flat
    index: delta(r) = (sigma (x) delta)(r) + (delta (x) id)(r), keyed by
    the flat index of its degree-3 words, is two blocks of
    ``linalg._block_sum`` on the operators of sigma and of delta (row a
    keyed by the flat index of the words of delta(x_a)), and its normal
    form one more, on the length-3 normal forms of the algebra
    (``QuadraticAlgebra._nf3``) as an operator; it must be zero.  The
    common denominator is dropped, as scaling a tensor does not move it
    in or out of the subspace; no Fraction, tensor or word is built.
    """
    if sigma.algebra is not alg:
        raise ValueError("sigma belongs to a different algebra")
    if len(images) != alg.nv:
        raise ValueError("one degree-2 image per generator required")
    for im in images:
        if im.degree != 2 or im.nv != alg.nv:
            raise ValueError("derivation images must be degree-2 tensors over V")
    delta = DerivationLift(images, sigma)
    nv = alg.nv
    nf3 = alg._nf3()
    s_op = _matrix_operator(sigma.matrix)
    d_op = _operator([({a * nv + b: n for (a, b), n in t.nums.items()}, t.den) for t in images])
    for pos, r in enumerate(alg.R.int_rows()):
        vec = (r, 1)
        moved = _block_sum([(1, vec, s_op, nv, None)])
        image = _block_sum([(1, moved, d_op, nv, nv * nv), (1, vec, d_op, nv, None)])
        nf, _ = _block_sum([(1, image, nf3, 1, None)])
        if any(nf.values()):
            raise NotAdmissibleError(
                f"delta(R) leaves R(x)V + V(x)R on relation {alg.R.basis_tensors(nv, 2)[pos]!r}"
            )
    return delta


def _outside(space: Subspace, t: Tensor) -> bool:
    """Whether t leaves ``space``, read on its int numerators keyed by
    flat word; no Fraction is built."""
    nv = t.nv
    nums, _ = _residual({word_flat(w, nv): n for w, n in t.nums.items()}, t.den, space._rows)
    return any(nums.values())


def hdet(sigma: GradedAutomorphism) -> Fraction:
    """Homological determinant: the scalar by which sigma^(x)d acts on
    the line W_d."""
    omega = sigma.algebra.omega
    image = sigma.apply_all(omega)
    pivot = min(omega.entries)  # leading coefficient is 1 by normalization
    c = image.entries.get(pivot, ZERO)
    if image != omega.scale(c) or not c:
        raise EngineInvariantError(
            "sigma^(x)d does not act as a scalar on W_d; certification is broken"
        )
    return c


def twist_solve(omega: Tensor) -> Matrix:
    """Solve omega = (-1)^(d-1) tau_d^(d-1) (nu (x) id^(d-1)) (omega)
    for the matrix of nu (rows are images).

    Raises NonUniqueTwistError when the solution is not unique and
    NoSolution-like failure as NonUniqueTwistError with a message when
    none exists; both signal a degenerate input tensor.

    The condition splits by columns of nu.  With nu(x_a) = sum_b
    nu[a][b] x_b, (nu (x) id)(omega) = sum_w omega[w] sum_b nu[w_0][b]
    b w_1..w_(d-1), and tau_d^(d-1) moves the first factor to the end,
    so the equation at the word u b (u of length d - 1, b a letter) is

        sum_a s * omega[a u] * nu[a][b] = omega[u b],   s = (-1)^(d-1),

    in the unknowns of column b alone.  Column b therefore solves L y =
    c_b, with L[u][a] = s * omega[a u] the same n-column matrix for
    every b and c_b[u] = omega[u b]; scaling every equation by omega's
    denominator keeps the solutions, so both are read on its int
    numerators, and one ``solve_columns`` call with the n right-hand
    sides c_b solves all n systems.  The joint system in the n^2
    unknowns is their direct sum: it is consistent iff every c_b is,
    and its kernel is n copies of ker L, of dimension n * dim ker L.
    So the errors, their order and their messages are those of the
    joint system, and the unique solution is the same matrix.
    """
    nv = omega.nv
    sign = 1 if omega.degree % 2 else -1
    # the words a u with first letter a differ in u, so no entry of a
    # column lands twice
    cols: list[dict] = [{} for _ in range(nv)]
    rhs_list: list[dict] = [{} for _ in range(nv)]
    for w, n in omega.nums.items():
        cols[w[0]][w[1:]] = sign * n
        rhs_list[w[-1]][w[:-1]] = n
    particulars, kernel = solve_columns(cols, rhs_list)
    if any(x is None for x in particulars):
        raise NonUniqueTwistError("twist condition has no solution")
    if kernel:
        raise NonUniqueTwistError(
            f"twist condition is underdetermined (kernel dim {nv * len(kernel)})"
        )
    return Matrix([[particulars[b][a] for b in range(nv)] for a in range(nv)])


def nakayama_of_A(alg: QuadraticAlgebra) -> GradedAutomorphism:
    """Nakayama automorphism of a certified AS-regular algebra, from
    the twisted-superpotential condition on omega.

    The algebra keeps the checked matrix and its inverse, and only a
    weak reference to the automorphism: an automorphism refers to its
    algebra, so a strong one would make a reference cycle, and the
    algebra would outlive its last caller until a cyclic collection.
    While any caller holds the automorphism, every call returns that
    same object (``build_sequence_pair`` relies on the identity of
    sigma); after that, the next call wraps the kept matrices again.
    """
    alg.ensure_as_regular()
    memo = alg._nakayama
    mu = memo[0]() if memo else None
    if mu is None:
        if memo:
            mu = GradedAutomorphism(memo[1], alg, memo[2])
        else:
            mu = check_automorphism(twist_solve(alg.omega), alg)
        alg._nakayama = (weakref.ref(mu), mu.matrix, mu._inverse)
    return mu


def nakayama_of_A_dim2_closed_form(q: Matrix) -> Matrix:
    """Closed form -(Q^{-1})^T Q for a relation written as x^T Q x."""
    return -(q.inverse().transpose()) * q


def admissible_lift_space(
    alg: QuadraticAlgebra, sigma: GradedAutomorphism
) -> list[list[Tensor]]:
    """Basis of the space of admissible lifts delta: V -> V(x)V for a
    fixed sigma.

    Admissibility is linear in the lift coefficients, so the space is
    the kernel of the map sending a lift to the normal forms in A_3 of
    delta(r), one block per relation r of the basis of R: delta(r) lies
    in R(x)V + V(x)R iff delta(r) = 0 in A_3 (``DerivationLift``).  On
    a relation, delta(r) = (delta (x) id)(r) + (sigma (x) delta)(r), so
    the unit lift x_i -> x_s (x) x_t only relabels the words of r (slot
    1) and of (sigma (x) id)(r) (slot 2) whose letter at that slot is i;
    those words are grouped by letter once per call, and the column of
    the unit lift sums the rows of the length-3 normal-form table
    (``QuadraticAlgebra._nf3``) at the relabelled words.

    The columns are all ints: the primitive int rows of R, the integer
    rows of sigma over their common denominator and the table's
    numerators over its own.  The basis is nonetheless the one that
    reducing each delta(r) modulo R(x)V + V(x)R in Fractions gives.  The
    normal form and that remainder are both linear maps on V^(x)3 whose
    kernel is exactly R(x)V + V(x)R, so both are injective on the
    classes modulo it: a combination of columns vanishes for one iff it
    vanishes for the other.  Scaling every column, or the block of one
    relation, by a nonzero number keeps that too.  So the two systems
    have the same kernel, hence the same row space (its annihilator),
    the same RREF, the same pivot unknowns and the same canonical kernel
    vectors, which are what ``solve_columns`` returns.
    """
    if sigma.algebra is not alg:
        raise ValueError("sigma belongs to a different algebra")
    nv = alg.nv
    table, _ = alg._nf3()
    rows, mden = _matrix_images(sigma.matrix)
    # hits[r][i]: (stride, offset, c) per word of the relation's slot term
    # carrying letter i at that slot; under the unit lift to x_s (x) x_t
    # the word becomes the table row (s * nv + t) * stride + offset, with
    # coefficient c (the common denominator mden dropped)
    hits = []
    for row in alg.R.int_rows():
        by_letter: list[list] = [[] for _ in range(nv)]
        slot2: dict = {}  # (sigma (x) id)(r) by (letter b, first letter j)
        for key, n in row.items():
            a, b = divmod(key, nv)
            by_letter[a].append((nv, b, n * mden))
            for (j,), x in rows[a]:
                slot2[(b, j)] = slot2.get((b, j), 0) + n * x
        for (b, j), c in slot2.items():
            if c:
                by_letter[b].append((1, j * nv * nv, c))
        hits.append(by_letter)
    cols = []
    for i in range(nv):
        for st in range(nv * nv):
            col: dict = {}
            get = col.get
            for ridx, by_letter in enumerate(hits):
                for stride, offset, c in by_letter[i]:
                    for k, v in table[st * stride + offset].items():
                        key = (ridx, k)
                        col[key] = get(key, 0) + c * v
            cols.append(col)
    _, kernel = solve_columns(cols, [])
    basis = []
    for kv in kernel:
        images: list[dict] = [{} for _ in range(nv)]
        for unk, c in kv.items():
            i, rest = divmod(unk, nv * nv)
            images[i][divmod(rest, nv)] = c
        basis.append([Tensor(nv, 2, es) for es in images])
    return basis
