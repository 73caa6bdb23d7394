"""Graded automorphisms, derivation lifts, homological determinant,
and the Nakayama automorphism of the base algebra.

Matrix convention (package-wide): rows are images, sigma(x_i) =
sum_j M[i][j] x_j.  Under this convention the matrix of a composite
"apply beta first, then alpha" is matrix(beta) * matrix(alpha), and
coordinates of vectors transform by the transpose.

The Nakayama automorphism is computed from the twist condition of the
canonical top Koszul tensor: omega is fixed by (-1)^(d-1) times the
full rotation after applying nu to the first factor, and that linear
condition pins nu down uniquely for a genuine AS-regular input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import (
    EngineInvariantError,
    NonUniqueTwistError,
    NotAdmissibleError,
)
from .linalg import (
    ONE,
    ZERO,
    Matrix,
    Tensor,
    escaping_row,
    solve_columns,
    word_flat,
)
from .quadratic import QuadraticAlgebra


class GradedAutomorphism:
    """An admissible graded automorphism of a quadratic algebra.

    Construct through check_automorphism so that invertibility and
    preservation of the relation space are always verified.
    """

    __slots__ = ("matrix", "algebra", "_inverse")

    def __init__(self, matrix: Matrix, algebra: QuadraticAlgebra):
        self.matrix = matrix
        self.algebra = algebra
        self._inverse = None

    def inverse(self) -> "GradedAutomorphism":
        if self._inverse is None:
            self._inverse = GradedAutomorphism(self.matrix.inverse(), self.algebra)
            self._inverse._inverse = self
        return self._inverse

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
    sigma = GradedAutomorphism(m, alg)
    sigma._inverse = GradedAutomorphism(m.inverse(), alg)  # raises NotInvertibleError on singular input
    k = escaping_row(alg.R, m)
    if k is not None:
        t = Tensor.from_vec(alg.R.basis()[k], alg.nv, 2)
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
    """

    __slots__ = ("images", "sigma", "algebra")

    def __init__(self, images: Sequence[Tensor], sigma: GradedAutomorphism):
        self.images = tuple(images)
        self.sigma = sigma
        self.algebra = sigma.algebra

    @staticmethod
    def zero(sigma: GradedAutomorphism) -> "DerivationLift":
        nv = sigma.algebra.nv
        return DerivationLift([Tensor(nv, 2) for _ in range(nv)], sigma)

    def extend(self, t: Tensor) -> Tensor:
        """Apply the extended derivation to a degree-m tensor: the sum
        over k of (sigma^(x)(k-1) (x) delta (x) id)(t)."""
        terms = []
        twisted = t  # sigma applied at slots 1..k-1
        for k in range(1, t.degree + 1):
            if k > 1:
                twisted = twisted.apply_matrix_slots((k - 1,), self.sigma.matrix)
            terms.append((ONE, twisted.apply_images_at(k, self.images)))
        return Tensor.combine(self.algebra.nv, t.degree + 1, terms)

    def is_zero(self) -> bool:
        return all(im.is_zero() for im in self.images)

    def perturb(self, eps_images: Sequence[Tensor]) -> "DerivationLift":
        """A different lift of the same derivation of A.

        eps must map V into R; then delta + eps induces the same map on
        the quotient and is automatically admissible again.
        """
        for e in eps_images:
            if not self.algebra.R.contains(e.to_vec()):
                raise ValueError("perturbation images must lie in R")
        return extend_derivation(
            [a + b for a, b in zip(self.images, eps_images)], self.sigma, self.algebra
        )

    def __repr__(self):
        return f"DerivationLift({list(self.images)!r})"


def extend_derivation(
    images: Sequence[Tensor], sigma: GradedAutomorphism, alg: QuadraticAlgebra
) -> DerivationLift:
    """Build an admissible derivation lift, or raise NotAdmissibleError."""
    if sigma.algebra is not alg:
        raise ValueError("sigma belongs to a different algebra")
    if len(images) != alg.nv:
        raise ValueError("one degree-2 image per generator required")
    for im in images:
        if im.degree != 2 or im.nv != alg.nv:
            raise ValueError("derivation images must be degree-2 tensors over V")
    delta = DerivationLift(images, sigma)
    sandwich = alg.sandwich_space()
    for b in alg.R.basis():
        t = Tensor.from_vec(b, alg.nv, 2)
        image = delta.extend(t)
        if not sandwich.contains(image.to_vec()):
            raise NotAdmissibleError(
                f"delta(R) leaves R(x)V + V(x)R on relation {t!r}"
            )
    return delta


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
    """
    nv = omega.nv
    d = omega.degree
    sign = ONE if (d - 1) % 2 == 0 else -ONE
    # the words of omega with first letter a differ in w[1:], so no
    # entry of a column lands twice
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


def nakayama_of_A(alg: QuadraticAlgebra) -> GradedAutomorphism:
    """Nakayama automorphism of a certified AS-regular algebra, from
    the twisted-superpotential condition on omega."""
    alg.ensure_as_regular()
    if alg._nakayama is None:
        p = twist_solve(alg.omega)
        alg._nakayama = check_automorphism(p, alg)
    return alg._nakayama


def nakayama_of_A_dim2_closed_form(q: Matrix) -> Matrix:
    """Closed form -(Q^{-1})^T Q for a relation written as x^T Q x."""
    return -(q.inverse().transpose()) * q


def admissible_lift_space(
    alg: QuadraticAlgebra, sigma: GradedAutomorphism
) -> list[list[Tensor]]:
    """Basis of the space of admissible lifts delta: V -> V(x)V for a
    fixed sigma.

    Admissibility is linear in the lift coefficients, so the space is
    the kernel of the map sending a lift to the reductions of delta(R)
    modulo R(x)V + V(x)R.  On a relation r, delta(r) = (delta (x) id)(r)
    + (sigma (x) delta)(r), so the unit lift x_i -> x_s (x) x_t only
    relabels the words of r (slot 1) and of (sigma (x) id)(r) (slot 2)
    whose letter at that slot is i; those words are grouped by letter
    once per call.
    """
    nv = alg.nv
    sandwich = alg.sandwich_space()
    # hits[r][i]: (slot, other letter, coefficient) for each word of the
    # relation's slot term carrying letter i at that slot
    hits = []
    for b in alg.R.basis():
        rt = Tensor.from_vec(b, nv, 2)
        by_letter: list[list] = [[] for _ in range(nv)]
        for w, c in rt.entries.items():
            by_letter[w[0]].append((1, w[1], c))
        for w, c in rt.apply_matrix_slots((1,), sigma.matrix).entries.items():
            by_letter[w[1]].append((2, w[0], c))
        hits.append(by_letter)
    cols = []
    for i in range(nv):
        for s in range(nv):
            for t in range(nv):
                col: dict = {}
                for ridx, by_letter in enumerate(hits):
                    vec: dict = {}
                    for slot, other, c in by_letter[i]:
                        w = (s, t, other) if slot == 1 else (other, s, t)
                        key = word_flat(w, nv)
                        vec[key] = vec.get(key, ZERO) + c
                    for k, v in sandwich.reduce(vec).items():
                        col[(ridx, k)] = v
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
