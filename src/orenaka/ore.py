"""Graded Ore extensions B = A[z; sigma, delta].

The pipeline: build a sequence pair (the two towers of linear maps
delta_{i,r}: W_i -> W_i (x) V and delta_{i,l}: W_i -> V (x) W_i), read
the pair (delta_r, delta_l) off the one-dimensional top space W_d,
form the sigma-divergence delta_r + mu_A sigma^{-1}(delta_l), and
assemble the Nakayama automorphism of B:

    mu_B on V   : matrix M^{-1} P   (M = matrix of sigma, P = of mu_A)
    mu_B(z)     : hdet(sigma) z + divergence

plus the twisted superpotential omega-hat presenting B as a derivation
quotient algebra, each made once per request; hdet(sigma) is S^d
(below).  mu_B is checked to preserve R-hat on its integer rows
(``linalg.escaping_row``).  omega-hat is certified by one membership,
in V-hat^(d-1) (x) R-hat, and the twist condition, which carries that
membership to every other slot (proof in ``twisted_superpotential_hat``).

W-coordinates.  The towers are held in the bases of the W_i (the
tables of ``QuadraticAlgebra.w_tables``), never in V^(x)(i+1): the image
of w_k under delta_{i,r} is its coordinates on the w_l (x) x_j of W_i (x)
V, under delta_{i,l} on the x_u (x) w_l of V (x) W_i, and sigma^(x)i on
W_i is the square matrix S^i.  Each is a vector of int numerators over
one denominator.  Tensors are built only where one is the output: the
``right`` and ``left`` stages on first read, and omega-hat.

Right towers are built stage by stage: delta_{i,r}(w_k) is any u in W_i
(x) V with (id^(i-1) (x) m)(u) = (id^(i-1) (x) m)((sigma^(i-1) (x) delta
+ delta_{i-1,r} (x) id)(w_k)), both sides multiplied into W_{i-1} (x)
A_2.  The columns, the images of the w_l (x) x_j, are the rows of the
Koszul differential d_i on W_i (x) A_1; the right-hand side comes from
the split of w_k in W_{i-1} (x) V, S^(i-1), the normal forms of
delta(x_v) and of the letter pairs, and stage i-1.  Solving in W_{i-1}
(x) A_2 instead of V^(x)(i-1) (x) A_2 changes nothing: the inclusion of
the one in the other is injective, so the two systems have the same
solutions and the same dependencies among their columns, hence the
same pivot unknowns, the same canonical particular solution (free
unknowns zero) and the same kernel basis.  The solver takes that
canonical solution so runs are reproducible, and optionally adds
random kernel vectors when exercising the choice-independence of the
divergence.  Left towers follow from the alternating recursion, in V
(x) W_{i-1} (x) V coordinates, and are read back into V (x) W_i; they
need no solve.  ``SequencePair.verify``, ``apply_right`` and
``apply_left`` work on tensors in V^(x)k, a route independent of these
coordinates.
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
    _canonical,
    _combine,
    _matrix_images,
    _scaled,
    escaping_row,
    expand_through,
    sandwich_map,
    solve_columns,
    word_flat,
)
from .morphisms import (
    DerivationLift,
    GradedAutomorphism,
    nakayama_of_A,
)
from .quadratic import QuadraticAlgebra, _expand, _int_sum


def _sign(i: int) -> int:
    return 1 if i % 2 == 0 else -1


def _sum(terms) -> tuple[dict[int, int], int]:
    """``quadratic._int_sum`` of (c, (nums, den), stride, offset) terms
    in canonical form."""
    return _canonical(*_int_sum(terms))


_UNIT = ([[((), 1)]], 1)  # the scalar line, as a ``_expand`` factor


class SequencePair:
    """The two towers of maps attached to a derivation lift, in
    W-coordinates (module docstring).

    ``right_w[i][k]`` holds delta_{i,r}(w_k) for the W_i basis vector w_k
    (pivot order), keyed l * nv + j on w_l (x) x_j, and ``left_w[i][k]``
    holds delta_{i,l}(w_k), keyed u * dim W_i + l on x_u (x) w_l; each is
    (int numerators, denominator).  Index 0 holds the zero map and index
    1 the lift itself.  ``right`` and ``left`` are the same stages as
    tensors in V^(x)(i+1), built on first read, so the defining
    recursions can be read literally off them; ``sigma_w[i]`` is S^i =
    sigma^(x)i on W_i, row m the image of w_m keyed by the W_i basis.
    """

    __slots__ = ("algebra", "sigma", "delta", "right_w", "left_w", "sigma_w", "_right", "_left")

    def __init__(self, sigma, delta, right_w, left_w):
        self.algebra = sigma.algebra
        self.sigma = sigma
        self.delta = delta
        self.right_w = right_w
        self.left_w = left_w
        self.sigma_w = _sigma_on_w(self.algebra, sigma.matrix)
        self._right = None
        self._left = None

    @property
    def d(self) -> int:
        return len(self.right_w) - 1

    @property
    def right(self) -> list[list[Tensor]]:
        if self._right is None:
            self._right = self._tensors(self.right_w, True)
        return self._right

    @property
    def left(self) -> list[list[Tensor]]:
        if self._left is None:
            self._left = self._tensors(self.left_w, False)
        return self._left

    def _tensors(self, tower, right: bool) -> list[list[Tensor]]:
        """The stages as tensors.  W_i (x) V is ``words_v[i]``, and V (x)
        W_i is the letters, ``words_v[0]`` (W_0 is the scalar line),
        followed by W_i."""
        tab = self.algebra.w_tables()
        out = []
        for i, stage in enumerate(tower):
            head, tail = (tab.words_v[i], _UNIT) if right else (tab.words_v[0], tab.words[i])
            out.append([Tensor._from_scaled(self.algebra.nv, i + 1, *_expand(v, head, tail)) for v in stage])
        return out

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
        """Re-check both tower conditions on the tensors, in V^(x)k.

        Construction already guarantees these; the method exists for the
        paranoid check level and the test suite.  The images lie in W_i
        (x) V and V (x) W_i by construction: the tensors are built from
        their coordinates there.
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


def _on_left(vec: tuple[dict, int], rows, size: int, sign: int = 1) -> list[tuple]:
    """The ``_sum`` terms of sign * (f (x) id)(vec) for vec keyed m * size
    + v, with f(w_m) = rows[m] keyed g: keyed g * size + v."""
    nums, den = vec
    return [
        (sign * c, (rows[key // size][0], rows[key // size][1] * den), size, key % size)
        for key, c in nums.items()
    ]


def _on_right(vec: tuple[dict, int], rows, size: int, width: int, sign: int = 1) -> list[tuple]:
    """The ``_sum`` terms of sign * (id (x) f)(vec) for vec keyed m * size
    + v, with f(v) = rows[v] keyed g < width: keyed m * width + g."""
    nums, den = vec
    return [
        (sign * c, (rows[key % size][0], rows[key % size][1] * den), 1, key // size * width)
        for key, c in nums.items()
    ]


def _read(read, nums: dict[int, int], base: int = 0) -> dict[int, int]:
    """The W_i coordinates of an element of W_i given by its numerators
    in W_{i-1} (x) V at keys base + m * nv + v: the pivot-word reads of
    ``WTables.read[i]`` = (L, rows), as numerators over the element's
    denominator times L."""
    get = nums.get
    out = {}
    for l, pairs in enumerate(read[1]):
        c = sum(n * get(base + key, 0) for key, n in pairs)
        if c:
            out[l] = c
    return out


def _sigma_on_w(alg: QuadraticAlgebra, m: Matrix) -> list:
    """S^i = sigma^(x)i on W_i for i = 0..d: (S^(i-1) (x) M)(w_l) in
    W_{i-1} (x) V through the split of w_l, read back into W_i.  Each
    read-back is checked, so by induction each S^i is sigma^(x)i on W_i,
    and S^d = hdet(sigma) must be nonzero.  An unchecked sigma that
    moves some W_i fails here."""
    tab = alg.w_tables()
    nv = alg.nv
    d = alg.d
    mrows = [_scaled({j: a for j, a in enumerate(r) if a}) for r in m.rows]
    out = [[({0: 1}, 1)], mrows]
    for i in range(2, d + 1):
        stage = []
        for split in tab.right[i]:
            moved = _sum(_on_right(_sum(_on_left(split, out[-1], nv)), mrows, nv, nv))
            image = (_read(tab.read[i], moved[0]), moved[1] * tab.read[i][0])
            # the reads are exact only on W_i, as in the left tower
            if _sum([(1, moved, 1, 0)] + _on_left(image, tab.right[i], 1, -1))[0]:
                raise EngineInvariantError(
                    f"sigma^(x){i} does not preserve W_{i}; certification is broken"
                )
            stage.append(_canonical(*image))
        out.append(stage)
    if not out[d][0][0]:
        raise EngineInvariantError("sigma^(x)d is zero on W_d; certification is broken")
    return out[: d + 1]


def build_sequence_pair(
    sigma: GradedAutomorphism,
    delta: DerivationLift,
    rng: random.Random | None = None,
) -> SequencePair:
    """Construct a sequence pair for (sigma, delta) in W-coordinates
    (module docstring).

    With ``rng`` given, random kernel elements are added to the
    canonical choice at every right-tower stage; any such choice is a
    valid sequence pair and must produce the same divergence.
    """
    alg = sigma.algebra.ensure_as_regular()
    if delta.sigma is not sigma:
        raise ValueError("delta was built against a different sigma")
    nv = alg.nv
    tab = alg.w_tables()
    # stage 1 is delta itself; W_1 (x) V and V (x) W_1 are both V (x) V
    lift = [({a * nv + b: n for (a, b), n in t.nums.items()}, t.den) for t in delta.images]
    right: list[list[tuple]] = [[({}, 1)], lift]
    left: list[list[tuple]] = [[({}, 1)], lift]
    sp = SequencePair(sigma, delta, right, left)
    mrows = sp.sigma_w[1]
    dim_a2 = alg.dim_A(2)
    nf_delta = [alg._nf_scaled(t) for t in delta.images]
    for i in range(2, alg.d + 1):
        p, q = tab.dims[i - 1], tab.dims[i]
        # the right-hand sides in W_{i-1} (x) A_2, keyed m * dim A_2 + k:
        # (sigma^(i-1) (x) id)(w_k) then delta(x_v) multiplied into A_2,
        # plus (delta_{i-1,r} (x) id)(w_k) then x_j x_v multiplied in
        rhs = [
            _int_sum(
                _on_right(_sum(_on_left(split, sp.sigma_w[i - 1], nv)), nf_delta, nv, dim_a2)
                + _on_right(_sum(_on_left(split, right[i - 1], nv)), tab.pairs, nv * nv, dim_a2)
            )
            for split in tab.right[i]
        ]
        # the solver sees numerators: with every column over one D, the
        # kernel is unchanged and x = y * D / (the right-hand side's den)
        cols, cden = tab.stage[i]
        particulars, kernel = solve_columns(cols, [r for r, _ in rhs])
        stage = []
        for k, (y, (_, rden)) in enumerate(zip(particulars, rhs)):
            if y is None:
                raise NoSolutionError(
                    f"no delta_{i},r image for W_{i} basis vector {k}; "
                    "Koszulity hypotheses are violated",
                    stage=i, index=k,
                )
            nums, den = _scaled({u: c for u, c in enumerate(y) if c})
            x = ({u: n * cden for u, n in nums.items()}, den * rden)
            if rng is not None:
                noise: dict = {}
                for kv in kernel:
                    c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    for u, v in kv.items():
                        noise[u] = noise.get(u, ZERO) + c * v
                x = _combine([(1, *x), (1, *_scaled(noise))])
            stage.append(_canonical(*x))
        right.append(stage)
        # left tower by the alternating recursion, in V (x) W_{i-1} (x) V
        # keyed (u * p + m) * nv + v, then read back into V (x) W_i; no
        # choice remains
        sgn = _sign(i)
        lstage = []
        for k, (lsplit, rsplit) in enumerate(zip(tab.left[i], tab.right[i])):
            t = _sum(
                # sgn (sigma (x) delta_{i-1,r})(w_k), sigma first
                _on_right(_sum(_on_left(lsplit, mrows, p)), right[i - 1], p, p * nv, sgn)
                # -sgn delta_{i,r}(w_k), through the left split of each w_l
                + _on_left(stage[k], tab.left[i], nv, -sgn)
                # (delta_{i-1,l} (x) id)(w_k)
                + _on_left(rsplit, left[i - 1], nv)
            )
            coef = {
                u * q + l: c for u in range(nv) for l, c in _read(tab.read[i], t[0], u * p * nv).items()
            }
            image = (coef, t[1] * tab.read[i][0])
            # the reads are exact only on V (x) W_i: what they miss remains
            if _sum([(1, t, 1, 0)] + _on_right(image, tab.right[i], q, p * nv, -1))[0]:
                raise LeftImageEscapeError(
                    f"left tower image escapes V(x)W_{i} at stage {i}", stage=i, index=k
                )
            lstage.append(_canonical(*image))
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
    individually do.  A given ``sp`` must have been built for this very
    sigma and delta.
    """
    alg = sigma.algebra.ensure_as_regular()
    if sp is None:
        sp = build_sequence_pair(sigma, delta)
    elif sp.sigma is not sigma or sp.delta is not delta:
        raise ValueError("the sequence pair was built for a different (sigma, delta)")
    return _divergence(sp, sigma.inverse().matrix * nakayama_of_A(alg).matrix)


def _divergence(sp: SequencePair, n_map: Matrix) -> DivergenceResult:
    """``divergence`` from the pair and N = M^{-1} P."""
    nv = sp.algebra.nv
    # dim W_d = 1, so x_j has the key j in both W_d (x) V and V (x) W_d
    dr, dl = (
        Tensor._from_scaled(nv, 1, {(j,): n for j, n in tower[sp.d][0][0].items()}, tower[sp.d][0][1])
        for tower in (sp.right_w, sp.left_w)
    )
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
    omega_hat: Tensor
    sequence_pair: SequencePair

    @property
    def mu_B_on_V(self) -> Matrix:
        n = self.algebra.nv
        return Matrix([[self.mu_B[i, j] for j in range(n)] for i in range(n)])


def nakayama_of_B(sigma: GradedAutomorphism, delta: DerivationLift) -> OreReport:
    """Nakayama automorphism of B = A[z; sigma, delta] and companions.

    The V-block of mu_B is N = M^{-1} P, formed once from the inverse
    ``check_automorphism`` keeps, and the z-row is (divergence from the
    sequence pair and N, hdet(sigma) read off S^d); the assembled matrix
    is verified to preserve R-hat, omega-hat is certified against it,
    and the Calabi-Yau flag is sigma = mu_A with vanishing divergence.
    """
    alg = sigma.algebra.ensure_as_regular()
    sp = build_sequence_pair(sigma, delta)
    p = nakayama_of_A(alg).matrix
    n_map = sigma.inverse().matrix * p
    ((nums, den),) = sp.sigma_w[sp.d]
    h = Fraction(nums[0], den)
    div = _divergence(sp, n_map)
    rows = [list(r) + [ZERO] for r in n_map.rows]
    rows.append([div.divergence.entries.get((j,), ZERO) for j in range(alg.nv)] + [h])
    mu_b = Matrix(rows)
    r_hat = ore_relations(sigma, delta)
    if escaping_row(r_hat, mu_b) is not None:
        raise AutomorphismCheckFailedError("mu_B does not preserve R-hat")
    return OreReport(
        algebra=alg,
        sigma=sigma,
        delta=delta,
        hdet=h,
        div=div,
        mu_B=mu_b,
        relations_hat=r_hat,
        calabi_yau=sigma.matrix == p and div.divergence.is_zero(),
        omega_hat=twisted_superpotential_hat(sp, mu_b, r_hat),
        sequence_pair=sp,
    )


def twisted_superpotential_hat(sp: SequencePair, mu_b: Matrix, r_hat: Subspace) -> Tensor:
    """The degree-(d+1) twisted superpotential of the Ore extension of
    the pair's (sigma, delta), with mu_B and R-hat already formed.

    omega-hat = cyclic part + tower part, where the tower part is taken
    by both closed forms (right-tower and left-tower, ``_tower_forms``),
    which must agree; the cyclic part is common to both, so the tower
    parts are compared directly (tensors are canonical).  omega-hat is
    then certified to lie in the top Koszul space W-hat_(d+1) = cap_s
    V-hat^s (x) R-hat (x) V-hat^(d-1-s) of B, s = 0..d-1, and to satisfy
    the twist condition omega-hat = (-1)^d tau_d (mu_B (x) id^d)(omega-
    hat), where tau_d moves factor 1 to the end.

    One membership suffices.  Suppose omega-hat lies in V-hat^s (x)
    R-hat (x) V-hat^(d-1-s) for some s >= 1.  mu_B (x) id^d acts on
    factor 1, which lies in the V-hat^s block, outside the R-hat pair
    at factors s+1, s+2, so it maps that sandwich into itself; tau_d
    then shifts every factor after the first one place left, which puts
    the R-hat pair at factors s, s+1.  The twist condition therefore
    puts omega-hat in V-hat^(s-1) (x) R-hat (x) V-hat^(d-s), and by
    induction from s = d-1 down to 0 in every copy.  So the membership
    at slot d-1 (``expand_through``) and the twist check together prove
    all d memberships; the argument does not use that mu_B is
    invertible.  The checks run in that order: an escape at slot d-1
    raises ``NotInHatWError`` (slot d-1), and an escape at any other
    slot can only coexist with a failed twist, ``TwistFailureError``.
    Slot d-1 is also the cheapest slot to read.
    """
    alg = sp.algebra
    nv = alg.nv
    nh = nv + 1
    d = alg.d
    omega = alg.omega
    z = Tensor.word(nh, (nv,))
    omega_h = omega.embed(nh)
    m_hat_rows = [list(r) + [ZERO] for r in sp.sigma.matrix.rows]
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
    right_part, left_part = _tower_forms(sp, nh)
    if right_part != left_part:
        raise FormMismatchError(
            f"superpotential forms disagree; residual {right_part - left_part!r}", degree=d + 1
        )
    omega_hat = cyclic + right_part
    if expand_through(omega_hat, d - 1, r_hat, 2, 0) is None:
        raise NotInHatWError(
            f"omega-hat escapes V-hat^{d - 1} (x) R-hat (x) V-hat^0", slot=d - 1
        )
    if mu_b.nrows != nh or mu_b.ncols != nh:
        raise ValueError(f"mu_B must be {nh} x {nh}")
    # (-1)^d tau_d (mu_B (x) id^d)(omega-hat) in one pass: the image of
    # each word's first letter goes to its end
    rows, mden = _matrix_images(mu_b)
    sgn = _sign(d)
    moved: dict = {}
    get = moved.get
    for w, c in omega_hat.nums.items():
        tail = w[1:]
        c *= sgn
        for j, n in rows[w[0]]:
            key = tail + j
            moved[key] = get(key, 0) + c * n
    twisted = Tensor._from_scaled(nh, d + 1, moved, omega_hat.den * mden)
    if twisted != omega_hat:
        raise TwistFailureError(
            f"twist condition fails; residual {twisted - omega_hat!r}", degree=d + 1
        )
    return omega_hat


def _tower_forms(sp: SequencePair, nh: int) -> tuple[Tensor, Tensor]:
    """The tower parts of omega-hat's two closed forms, over V-hat:
    sum_i (-1)^i (delta_{i,r} (x) id^(d-i))(omega) and sum_i (-1)^(i+d+1)
    (sigma^(x)(d-i) (x) delta_{i,l})(omega), i = 1..d.

    Both are taken on omega's coordinates in W_i (x) W_{d-i} and W_{d-i}
    (x) W_i, so sigma^(x)(d-i) acts as S^(d-i); each form is turned into
    words once."""
    tab = sp.algebra.w_tables()
    nv = sp.algebra.nv
    d = sp.d
    right_terms, left_terms = [], []
    for i in range(1, d + 1):
        q, qc = tab.dims[i], tab.dims[d - i]
        # w_a (x) w_b (a in W_i) goes to delta_{i,r}(w_a) (x) w_b
        part = _sum(_on_left(tab.omega[i], sp.right_w[i], qc))
        right_terms.append((_sign(i), *_expand(part, tab.words_v[i], tab.words[d - i])))
        # w_b (x) w_a (b in W_{d-i}) goes to S^(d-i)(w_b) (x) delta_{i,l}(w_a)
        moved = _sum(_on_left(tab.omega[d - i], sp.sigma_w[d - i], q))
        part = _sum(_on_right(moved, sp.left_w[i], q, nv * q))
        left_terms.append((_sign(i + d + 1), *_expand(part, tab.words_v[d - i], tab.words[i])))
    return tuple(Tensor._trusted(nh, d + 1, *_combine(terms)) for terms in (right_terms, left_terms))


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
