"""Graded Ore extensions B = A[z; sigma, delta].

The pipeline: build a sequence pair (the two towers of linear maps
delta_{i,r}: W_i -> W_i (x) V and delta_{i,l}: W_i -> V (x) W_i), read
the pair (delta_r, delta_l) off the one-dimensional top space W_d,
form the sigma-divergence delta_r + mu_A sigma^{-1}(delta_l), and
assemble the Nakayama automorphism of B:

    mu_B on V   : matrix M^{-1} P   (M = matrix of sigma, P = of mu_A)
    mu_B(z)     : hdet(sigma) z + divergence

plus the twisted superpotential omega-hat presenting B as a derivation
quotient algebra.

Right towers are built stage by stage: delta_{i,r}(w) is any element u
of W_i (x) V with (id^(i-1) (x) m)(u) matching the multiplication of
(sigma^(i-1) (x) delta + delta_{i-1,r} (x) id)(w) into A_2; the solver
takes the canonical particular solution (free variables zeroed) so
runs are reproducible, and optionally adds random kernel vectors when
exercising the choice-independence of the divergence.  Left towers
then follow from the alternating recursion and never need a solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import random

from .errors import (
    AutomorphismCheckFailedError,
    EngineInvariantError,
    FormMismatchError,
    LeftImageEscapeError,
    NoSolutionError,
    NotInHatWError,
    TwistFailureError,
)
from .linalg import (
    ONE,
    ZERO,
    Matrix,
    Subspace,
    Tensor,
    expand_through,
    sandwich_map,
    solve_columns,
    word_flat,
)
from .morphisms import (
    DerivationLift,
    GradedAutomorphism,
    hdet,
    nakayama_of_A,
)
from .quadratic import QuadraticAlgebra


def _sign(i: int) -> Fraction:
    return ONE if i % 2 == 0 else -ONE


class SequencePair:
    """The two towers of maps attached to a derivation lift.

    ``right[i]`` / ``left[i]`` hold the images of the W_i basis vectors
    (pivot order) under delta_{i,r} / delta_{i,l}; index 0 holds the
    zero maps and index 1 the lift itself, so the defining recursions
    can be read literally off the stored data.
    """

    __slots__ = ("algebra", "sigma", "delta", "right", "left")

    def __init__(self, sigma, delta, right, left):
        self.algebra = sigma.algebra
        self.sigma = sigma
        self.delta = delta
        self.right = right
        self.left = left

    @property
    def d(self) -> int:
        return len(self.right) - 1

    def apply_right(self, i: int, t: Tensor, right_pad: int) -> Tensor:
        """(delta_{i,r} (x) id^(x)right_pad)(t) for t in W_i (x) V^(x)right_pad."""
        return self._apply(self.right, i, t, 0, right_pad)

    def apply_left(self, i: int, t: Tensor, left_pad: int, right_pad: int = 0) -> Tensor:
        """(sigma^(x)left_pad (x) delta_{i,l} (x) id^(x)right_pad)(t)."""
        return self._apply(self.left, i, t, left_pad, right_pad)

    def _apply(self, tower, i, t, left_pad, right_pad) -> Tensor:
        """(sigma^(x)left_pad (x) tower[i] (x) id^(x)right_pad)(t) for t in
        V^(x)left_pad (x) W_i (x) V^(x)right_pad."""
        out = sandwich_map(
            t, left_pad, self.algebra.koszul_space(i), i, right_pad, tower[i], self.sigma.matrix
        )
        if out is None:
            raise EngineInvariantError(
                f"tensor escapes V^{left_pad} (x) W_{i} (x) V^{right_pad}"
            )
        return out

    def verify(self) -> None:
        """Re-check both tower conditions and image containments.

        Construction already guarantees these; the method exists for the
        paranoid check level and the test suite.
        """
        alg = self.algebra
        nv = alg.nv
        for i in range(2, self.d + 1):
            wi = alg.koszul_space(i)
            for k, b in enumerate(wi.basis()):
                w = Tensor.from_vec(b, nv, i)
                lhs = alg.nf_tensor(self.right[i][k], i - 1)
                rhs = alg.nf_tensor(
                    _sigma_power_delta(self.sigma, self.delta, w, i)
                    + self.apply_right(i - 1, w, 1),
                    i - 1,
                )
                if lhs != rhs:
                    raise EngineInvariantError(f"right tower fails at stage {i}")
                if expand_through(self.right[i][k], 0, wi, i, 1) is None:
                    raise EngineInvariantError(f"right image escapes W_{i}(x)V")
                if expand_through(self.left[i][k], 1, wi, i, 0) is None:
                    raise LeftImageEscapeError(f"left image escapes V(x)W_{i}")
                sgn = _sign(i)
                recursion = Tensor.combine(nv, i + 1, [
                    (ONE, self._apply(self.right, i - 1, w, 1, 0)),
                    (sgn, self.apply_left(i - 1, w, 0, 1)),
                    (-ONE, self.right[i][k]),
                    (-sgn, self.left[i][k]),
                ])
                if recursion:
                    raise EngineInvariantError(f"left recursion fails at stage {i}")


def _sigma_power_delta(sigma, delta, w: Tensor, i: int) -> Tensor:
    """(sigma^(x)(i-1) (x) delta)(w) on W_i."""
    return w.apply_matrix_slots(range(1, i), sigma.matrix).apply_images_at(i, delta.images)


def build_sequence_pair(
    sigma: GradedAutomorphism,
    delta: DerivationLift,
    rng: random.Random | None = None,
) -> SequencePair:
    """Construct a sequence pair for (sigma, delta).

    With ``rng`` given, random kernel elements are added to the
    canonical choice at every right-tower stage; any such choice is a
    valid sequence pair and must produce the same divergence.
    """
    alg = sigma.algebra.ensure_as_regular()
    if delta.sigma is not sigma:
        raise ValueError("delta was built against a different sigma")
    nv = alg.nv
    d = alg.certificate.d
    zero1 = [Tensor(nv, 1) for _ in range(1)]
    right: list[list[Tensor]] = [zero1, list(delta.images)]
    left: list[list[Tensor]] = [zero1, list(delta.images)]
    sp = SequencePair(sigma, delta, right, left)
    for i in range(2, d + 1):
        wi = alg.koszul_space(i)
        wvecs = [Tensor.from_vec(b, nv, i) for b in wi.basis()]
        # the unknowns are the coefficients on the products w_l (x) x_j
        products = [w.tensor(Tensor.word(nv, (j,))) for w in wvecs for j in range(nv)]
        cols = [alg.nf_tensor(t, i - 1) for t in products]
        rhs = [
            alg.nf_tensor(
                _sigma_power_delta(sigma, delta, w, i) + sp.apply_right(i - 1, w, 1), i - 1
            )
            for w in wvecs
        ]
        particulars, kernel = solve_columns(cols, rhs)
        stage = []
        for k, x in enumerate(particulars):
            if x is None:
                raise NoSolutionError(
                    f"no delta_{i},r image for W_{i} basis vector {k}; "
                    "Koszulity hypotheses are violated"
                )
            terms = list(zip(x, products))
            if rng is not None:
                for kv in kernel:
                    c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    terms += [(c * v, products[unk]) for unk, v in kv.items()]
            stage.append(Tensor.combine(nv, i + 1, terms))
        right.append(stage)
        # left tower by the alternating recursion; no choice remains
        sgn = _sign(i)
        lstage = []
        for k, w in enumerate(wvecs):
            term = Tensor.combine(nv, i + 1, [
                (sgn, sp._apply(right, i - 1, w, 1, 0)),
                (-sgn, right[i][k]),
                (ONE, sp.apply_left(i - 1, w, 0, 1)),
            ])
            if expand_through(term, 1, wi, i, 0) is None:
                raise LeftImageEscapeError(
                    f"left tower image escapes V(x)W_{i} at stage {i}"
                )
            lstage.append(term)
        left.append(lstage)
    return sp


@dataclass
class DivergenceResult:
    """delta_r, delta_l read off W_d, and the sigma-divergence."""

    delta_r: Tensor
    delta_l: Tensor
    divergence: Tensor


def divergence(
    sigma: GradedAutomorphism,
    delta: DerivationLift,
    sp: SequencePair | None = None,
) -> DivergenceResult:
    """The sigma-divergence delta_r + mu_A sigma^{-1}(delta_l).

    delta_{d,r}(omega) = omega (x) delta_r and delta_{d,l}(omega) =
    delta_l (x) omega hold exactly because dim W_d = 1; the divergence
    does not depend on the sequence pair even though (delta_r, delta_l)
    individually do.
    """
    alg = sigma.algebra.ensure_as_regular()
    if sp is None:
        sp = build_sequence_pair(sigma, delta)
    nv = alg.nv
    d = alg.certificate.d
    omega = alg.certificate.omega
    pivot = min(omega.entries)
    img_r = sp.right[d][0]
    dr = Tensor(nv, 1, {(j,): img_r.entries.get(pivot + (j,), ZERO) for j in range(nv)})
    if omega.tensor(dr) != img_r:
        raise EngineInvariantError("delta_{d,r}(omega) is not omega (x) v")
    img_l = sp.left[d][0]
    dl = Tensor(nv, 1, {(j,): img_l.entries.get((j,) + pivot, ZERO) for j in range(nv)})
    if dl.tensor(omega) != img_l:
        raise EngineInvariantError("delta_{d,l}(omega) is not v (x) omega")
    p = nakayama_of_A(alg).matrix
    n_map = sigma.matrix.inverse() * p
    dl_coords = [dl.entries.get((j,), ZERO) for j in range(nv)]
    moved = n_map.transpose().mul_vec(dl_coords)
    div = dr + Tensor(nv, 1, {(j,): moved[j] for j in range(nv)})
    return DivergenceResult(dr, dl, div)


def ore_relations(sigma: GradedAutomorphism, delta: DerivationLift) -> Subspace:
    """R-hat = R + span{z (x) x_i - sigma(x_i) (x) z - delta(x_i)}.

    A subspace of V-hat (x) V-hat with V-hat = V + k z; z is the last
    letter of the extended alphabet.
    """
    alg = sigma.algebra
    nv = alg.nv
    nh = nv + 1
    rows = []
    for b in alg.R.basis():
        rows.append(
            {(p // nv) * nh + (p % nv): c for p, c in b.items()}
        )
    # the words of delta avoid z, so no two entries of a row share a key
    for i in range(nv):
        rows.append({
            nv * nh + i: ONE,
            **{j * nh + nv: -c for j, c in enumerate(sigma.matrix.rows[i]) if c},
            **{a * nh + b: -c for (a, b), c in delta.images[i].entries.items()},
        })
    out = Subspace(nh * nh, rows)
    if out.dim != alg.R.dim + nv:
        raise EngineInvariantError("dim R-hat != dim R + n")
    return out


@dataclass
class OreReport:
    """Everything the main theorem yields for one (sigma, delta)."""

    algebra: QuadraticAlgebra
    sigma: GradedAutomorphism
    delta: DerivationLift
    hdet: Fraction
    div: DivergenceResult
    mu_B: Matrix
    relations_hat: Subspace
    calabi_yau: bool
    omega_hat: Tensor | None
    sequence_pair: SequencePair

    @property
    def mu_B_on_V(self) -> Matrix:
        n = self.algebra.nv
        return Matrix([[self.mu_B[i, j] for j in range(n)] for i in range(n)])


def nakayama_of_B(
    sigma: GradedAutomorphism,
    delta: DerivationLift,
    sp: SequencePair | None = None,
    with_superpotential: bool = True,
) -> OreReport:
    """Nakayama automorphism of B = A[z; sigma, delta] and companions.

    The V-block of mu_B is M^{-1} P and the z-row is (divergence
    coordinates, hdet(sigma)); the assembled matrix is verified to
    preserve R-hat, and the Calabi-Yau flag is sigma = mu_A together
    with vanishing divergence.
    """
    alg = sigma.algebra.ensure_as_regular()
    if sp is None:
        sp = build_sequence_pair(sigma, delta)
    nv = alg.nv
    h = hdet(sigma)
    div = divergence(sigma, delta, sp)
    p = nakayama_of_A(alg).matrix
    v_block = sigma.matrix.inverse() * p
    rows = [[v_block[i, j] for j in range(nv)] + [ZERO] for i in range(nv)]
    rows.append([div.divergence.entries.get((j,), ZERO) for j in range(nv)] + [h])
    mu_b = Matrix(rows)
    r_hat = ore_relations(sigma, delta)
    for b in r_hat.basis():
        t = Tensor.from_vec(b, nv + 1, 2)
        image = t.apply_matrix_slots((1, 2), mu_b)
        if not r_hat.contains(image.to_vec()):
            raise AutomorphismCheckFailedError("mu_B does not preserve R-hat")
    cy = sigma.matrix == p and div.divergence.is_zero()
    omega_hat = None
    if with_superpotential:
        omega_hat = twisted_superpotential_hat(sigma, delta, sp, mu_b, r_hat)
    return OreReport(
        algebra=alg,
        sigma=sigma,
        delta=delta,
        hdet=h,
        div=div,
        mu_B=mu_b,
        relations_hat=r_hat,
        calabi_yau=cy,
        omega_hat=omega_hat,
        sequence_pair=sp,
    )


def twisted_superpotential_hat(
    sigma: GradedAutomorphism,
    delta: DerivationLift,
    sp: SequencePair | None = None,
    mu_b: Matrix | None = None,
    r_hat: Subspace | None = None,
) -> Tensor:
    """The degree-(d+1) twisted superpotential of the Ore extension.

    Computed by both closed forms (right-tower and left-tower), which
    must agree; asserted to lie in every shifted copy of R-hat (that
    is, in the top Koszul space of B) and to satisfy the twist
    condition with nu = mu_B restricted to degree one.
    """
    alg = sigma.algebra.ensure_as_regular()
    if sp is None:
        sp = build_sequence_pair(sigma, delta)
    nv = alg.nv
    nh = nv + 1
    d = alg.certificate.d
    omega = alg.certificate.omega
    z = Tensor.word(nh, (nv,))
    omega_h = omega.embed(nh)
    m_hat_rows = [list(r) + [ZERO] for r in sigma.matrix.rows]
    m_hat_rows.append([ZERO] * nv + [ONE])
    m_hat = Matrix(m_hat_rows)
    # term i of the cyclic part carries m-hat at slots 2..i+1, one slot
    # more than term i-1
    t = z.tensor(omega_h)
    cyclic_terms = [(ONE, t)]
    for i in range(1, d + 1):
        t = t.apply_matrix_slots((i + 1,), m_hat)
        cyclic_terms.append((_sign(i), t.tau(i)))
    cyclic = Tensor.combine(nh, d + 1, cyclic_terms)
    right_part = Tensor.combine(
        nh,
        d + 1,
        ((_sign(i), sp.apply_right(i, omega, d - i).embed(nh)) for i in range(1, d + 1)),
    )
    left_part = Tensor.combine(
        nh,
        d + 1,
        ((_sign(i + d + 1), sp.apply_left(i, omega, d - i).embed(nh)) for i in range(1, d + 1)),
    )
    form1 = cyclic + right_part
    form2 = cyclic + left_part
    if form1 != form2:
        raise FormMismatchError(
            f"superpotential forms disagree; residual {form1 - form2!r}"
        )
    if r_hat is None:
        r_hat = ore_relations(sigma, delta)
    for s in range(d):
        if expand_through(form1, s, r_hat, 2, d - 1 - s) is None:
            raise NotInHatWError(
                f"omega-hat escapes V-hat^{s} (x) R-hat (x) V-hat^{d - 1 - s}"
            )
    if mu_b is None:
        mu_b = nakayama_of_B(
            sigma, delta, sp, with_superpotential=False
        ).mu_B
    twisted = form1.apply_matrix_slots((1,), mu_b).tau(d).scale(_sign(d))
    if twisted != form1:
        raise TwistFailureError(
            f"twist condition fails; residual {twisted - form1!r}"
        )
    return form1


def derivation_quotient_relations(omega: Tensor, order: int) -> Subspace:
    """Span of all order-``order`` partial derivations of omega.

    The derivations contract the last ``order`` tensor factors against
    dual functionals, leaving a subspace of V^(x)(deg - order); with
    order = deg the result is the scalar line iff omega is nonzero.
    Order 0 (contraction against scalars) is allowed so that the
    degree-(d-2) recovery of R makes sense for d = 2 as well.
    """
    if not (0 <= order <= omega.degree):
        raise ValueError("derivation order out of range")
    nv = omega.nv
    keep = omega.degree - order
    # a word is its (head, tail) pair, so no entry lands twice
    slices: dict[tuple, dict] = {}
    for w, c in omega.entries.items():
        slices.setdefault(w[keep:], {})[word_flat(w[:keep], nv)] = c
    return Subspace(nv**keep if keep else 1, list(slices.values()))
