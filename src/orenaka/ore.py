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
membership to every other slot (proofs in ``twisted_superpotential_hat``).
The membership is read on W-blocks: every term of omega-hat lies in
some W_i (x) V-hat (x) W_{d-i}, the blocks with d - i >= 2 lie in
V-hat^(d-1) (x) R already, and the two others are checked on their
dim W_{d-1} * (n+1)^2 coordinates in W_{d-1} (x) V-hat (x) V-hat.  So
R-hat must contain R, as the R-hat of every Ore extension of A does;
another raises ``ValueError``.  The twist condition is split by the
position of z: the words with z at position p < d are compared on the
blocks W_p (x) W_{d-p-1} (x) V, those with z last or with two z's on
entries of mu_B, and the z-free words by one vector identity in V, that
mu_B's z-row is the divergence; no word is checked.  omega-hat's tower
part has two closed forms, and the alternating recursion makes them
equal, so one form is built; ``SequencePair.verify`` compares both at
the paranoid level.

W-coordinates.  The towers are held in the bases of the W_i (the
tables of ``QuadraticAlgebra.w_tables`` and its ``split``), never in
V^(x)(i+1): the image of w_k under delta_{i,r} is its coordinates on
the w_l (x) x_j of W_i (x) V, under delta_{i,l} on the x_u (x) w_l of V
(x) W_i, and sigma^(x)i on W_i is the square matrix S^i.  Each is a
vector of int numerators over one denominator; the sums between them
are raw, and each stored stage and S^i is made canonical (the rule of
the ``linalg`` docstring).  Tensors are built only where one is the
output, and only on first read: the ``right`` and ``left`` stages, and
omega-hat's words, made in one pass over the blocks (S^i (x) id) and
(delta_{i,r} (x) id) of omega's coordinates in W_i (x) W_{d-i}.  A
request that never reads omega-hat never builds its words.

Right towers are built stage by stage: delta_{i,r}(w_k) is any u in W_i
(x) V with (id^(i-1) (x) m)(u) = (id^(i-1) (x) m)((sigma^(i-1) (x) delta
+ delta_{i-1,r} (x) id)(w_k)), both sides multiplied into W_{i-1} (x)
A_2.  The columns, the images of the w_l (x) x_j, are the rows of the
Koszul differential d_i on W_i (x) A_1; the right-hand side comes from
the split of w_k in W_{i-1} (x) V, S^(i-1) (through the blocks (S^(i-1)
(x) id)(w_k) that ``_sigma_on_w`` forms anyway), the normal forms of
delta(x_v) and of the letter pairs, and stage i-1.  Solving in W_{i-1}
(x) A_2 instead of V^(x)(i-1) (x) A_2 changes nothing: the inclusion of
the one in the other is injective, so the two systems have the same
solutions and the same dependencies among their columns, hence the
same pivot unknowns, the same canonical particular solution (free
unknowns zero) and the same kernel basis.  The matrix C_i of these
columns depends on A alone, so it is factored once per algebra
(``WTables.stage``, a ``linalg.FactoredColumns``): one reduced
elimination of [C_i | I] records an invertible T with T [C_i | b] =
[RREF(C_i) | T b], and each right-hand side b is a read of T b.  Its
pivot unknowns, canonical particular solution, kernel basis (in order)
and consistency test are those of eliminating [C_i | b] itself (proof
in ``FactoredColumns``), so the stages are the same.  A right-hand
side outside the image raises ``NoSolutionError`` with the stage and
the W_i basis vector.  The tower takes the canonical solution so runs
are reproducible, and optionally adds random kernel vectors when
exercising the choice-independence of the divergence.  Left towers
follow from the alternating recursion, in V (x) W_{i-1} (x) V
coordinates, and are read back into V (x) W_i; they need no solve.
That read-back, checked, is the one S^i takes from W_{i-1} (x) V into
W_i (``_read_back``).  ``SequencePair.verify``, ``apply_right`` and
``apply_left`` work on tensors in V^(x)k, a route independent of these
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm
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
    _DeferredTensor,
    _combine,
    _int_sum,
    _matrix_images,
    _residual,
    _scaled,
    escaping_row,
    sandwich_map,
    word_flat,
)
from .morphisms import (
    DerivationLift,
    GradedAutomorphism,
    nakayama_of_A,
)
from .quadratic import QuadraticAlgebra, _expand


def _sign(i: int) -> int:
    return 1 if i % 2 == 0 else -1


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

    __slots__ = ("algebra", "sigma", "delta", "right_w", "left_w", "sigma_w", "_lifts", "_right", "_left")

    def __init__(self, sigma, delta, right_w, left_w):
        self.algebra = sigma.algebra
        self.sigma = sigma
        self.delta = delta
        self.right_w = right_w
        self.left_w = left_w
        self.sigma_w, self._lifts = _sigma_on_w(self.algebra, sigma.matrix)
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
        """Re-check, on tensors in V^(x)k, the two closed forms of
        omega-hat's tower part and the tower conditions they rest on.

        Construction already guarantees all of these (the form equality
        is proved in ``twisted_superpotential_hat``); the method exists
        for the paranoid check level and the test suite.  The forms come
        first: sum_i (-1)^i (delta_{i,r} (x) id^(d-i))(omega) against
        sum_i (-1)^(i+d+1) (sigma^(x)(d-i) (x) delta_{i,l})(omega), i =
        1..d, and a difference raises ``FormMismatchError`` with the
        degree d + 1.  Then, stage by stage, the right tower condition
        and the alternating recursion; a failure raises
        ``EngineInvariantError``.  The images lie in W_i (x) V and V (x)
        W_i by construction: the tensors are built from their
        coordinates there.
        """
        alg = self.algebra
        nv, d = alg.nv, self.d
        omega = alg.omega
        stages = range(1, d + 1)
        right_form = Tensor.combine(nv, d + 1, [(_sign(i), self.apply_right(i, omega, d - i)) for i in stages])
        left_form = Tensor.combine(
            nv, d + 1, [(_sign(i + d + 1), self.apply_left(i, omega, d - i)) for i in stages]
        )
        if right_form != left_form:
            raise FormMismatchError(
                f"superpotential forms disagree; residual {right_form - left_form!r}", degree=d + 1
            )
        for i in range(2, d + 1):
            wi = alg.koszul_space(i)
            for k, w in enumerate(wi.basis_tensors(nv, i)):
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
    """The ``_int_sum`` terms of sign * (f (x) id)(vec) for vec keyed m * size
    + v, with f(w_m) = rows[m] keyed g: keyed g * size + v."""
    nums, den = vec
    return [
        (sign * c, (rows[key // size][0], rows[key // size][1] * den), size, key % size)
        for key, c in nums.items()
    ]


def _on_right(vec: tuple[dict, int], rows, size: int, width: int, sign: int = 1) -> list[tuple]:
    """The ``_int_sum`` terms of sign * (id (x) f)(vec) for vec keyed m * size
    + v, with f(v) = rows[v] keyed g < width: keyed m * width + g."""
    nums, den = vec
    return [
        (sign * c, (rows[key % size][0], rows[key % size][1] * den), 1, key // size * width)
        for key, c in nums.items()
    ]


def _read_back(
    alg: QuadraticAlgebra, i: int, t: tuple[dict, int], pad: int
) -> tuple[dict, int] | None:
    """t in V^pad (x) W_{i-1} (x) V (pad = 0 or 1), keyed (u * dim
    W_{i-1} + m) * nv + v, read back into V^pad (x) W_i, keyed u * dim W_i
    + l, by the pivot words of ``WTables.read[i]`` = (L, rows); None when
    t escapes V^pad (x) W_i, where the reads are not exact."""
    tab = alg.w_tables()
    scale, reads = tab.read[i]
    q, block = tab.dims[i], tab.dims[i - 1] * alg.nv
    nums, den = t
    get = nums.get
    coef = {}
    for u in range(alg.nv**pad):
        base = u * block
        for l, pairs in enumerate(reads):
            c = sum(n * get(base + key, 0) for key, n in pairs)
            if c:
                coef[u * q + l] = c
    image = (coef, den * scale)
    residual, _ = _int_sum([(1, t, 1, 0)] + _on_right(image, alg.split(i), q, block, -1))
    if any(residual.values()):
        return None
    return _canonical(*image)


def _sigma_on_w(alg: QuadraticAlgebra, m: Matrix) -> tuple[list, list]:
    """S^i = sigma^(x)i on W_i for i = 0..d: (S^(i-1) (x) M)(w_l) in
    W_{i-1} (x) V through the split of w_l, read back into W_i.  Each
    read-back is checked, so by induction each S^i is sigma^(x)i on W_i,
    and S^d = hdet(sigma) must be nonzero.  An unchecked sigma that
    moves some W_i fails here.  Also returns the blocks (S^(i-1) (x)
    id)(w_l) in W_{i-1} (x) V, at [i][l] for i >= 2, which the
    right-hand sides of tower stage i read too."""
    nv, d = alg.nv, alg.d
    mrows = [_scaled({j: a for j, a in enumerate(r) if a}) for r in m.rows]
    out = [[({0: 1}, 1)], mrows]
    lifts: list = [None, None]
    for i in range(2, d + 1):
        stage = []
        lifts.append([_int_sum(_on_left(split, out[-1], nv)) for split in alg.split(i)])
        for lifted in lifts[i]:
            moved = _int_sum(_on_right(lifted, mrows, nv, nv))
            image = _read_back(alg, i, moved, 0)
            if image is None:
                raise EngineInvariantError(
                    f"sigma^(x){i} does not preserve W_{i}; certification is broken"
                )
            stage.append(image)
        out.append(stage)
    if not out[d][0][0]:
        raise EngineInvariantError("sigma^(x)d is zero on W_d; certification is broken")
    return out[: d + 1], lifts


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
        p = tab.dims[i - 1]
        splits, lsplits = alg.split(i), alg.split(i, left=True)
        system = tab.stage[i]
        stage = []
        for k, (lifted, split) in enumerate(zip(sp._lifts[i], splits)):
            # the right-hand side in W_{i-1} (x) A_2, keyed m * dim A_2 +
            # a: (sigma^(i-1) (x) id)(w_k) then delta(x_v) multiplied into
            # A_2, plus (delta_{i-1,r} (x) id)(w_k) then x_j x_v multiplied in
            b, bden = _int_sum(
                _on_right(lifted, nf_delta, nv, dim_a2)
                + _on_right(_int_sum(_on_left(split, right[i - 1], nv)), tab.pairs, nv * nv, dim_a2)
            )
            y = system.solve(b)
            if y is None:
                raise NoSolutionError(
                    f"no delta_{i},r image for W_{i} basis vector {k}; "
                    "Koszulity hypotheses are violated",
                    stage=i, index=k,
                )
            x = (y, system.den * bden)
            if rng is not None:
                x = _combine([(1, *x)] + [
                    (Fraction(rng.randint(-3, 3), rng.randint(1, 2)), *kv) for kv in system.kernel
                ])
            stage.append(_canonical(*x))
        right.append(stage)
        # left tower by the alternating recursion, in V (x) W_{i-1} (x) V
        # keyed (u * p + m) * nv + v, then read back into V (x) W_i; no
        # choice remains
        sgn = _sign(i)
        lstage = []
        for k, (lsplit, rsplit) in enumerate(zip(lsplits, splits)):
            t = _int_sum(
                # sgn (sigma (x) delta_{i-1,r})(w_k), sigma first
                _on_right(_int_sum(_on_left(lsplit, mrows, p)), right[i - 1], p, p * nv, sgn)
                # -sgn delta_{i,r}(w_k), through the left split of each w_l
                + _on_left(stage[k], lsplits, nv, -sgn)
                # (delta_{i-1,l} (x) id)(w_k)
                + _on_left(rsplit, left[i - 1], nv)
            )
            image = _read_back(alg, i, t, 1)
            if image is None:
                raise LeftImageEscapeError(
                    f"left tower image escapes V(x)W_{i} at stage {i}", stage=i, index=k
                )
            lstage.append(image)
        left.append(lstage)
    return sp


@dataclass
class DivergenceResult:
    """delta_r, delta_l read off W_d, and the sigma-divergence."""

    delta_r: Tensor
    delta_l: Tensor
    divergence: Tensor


def divergence(sp: SequencePair) -> DivergenceResult:
    """The sigma-divergence delta_r + mu_A sigma^{-1}(delta_l) of the
    pair's (sigma, delta).

    delta_{d,r}(omega) = omega (x) delta_r and delta_{d,l}(omega) =
    delta_l (x) omega hold exactly because dim W_d = 1; the divergence
    does not depend on the sequence pair even though (delta_r, delta_l)
    individually do.
    """
    return _divergence(sp, sp.sigma.inverse().matrix * nakayama_of_A(sp.algebra).matrix)


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
    rows = [{k // nv * nh + k % nv: n for k, n in r.items()} for r in alg.R.int_rows()]
    # each row over the lcm of sigma's and delta(x_i)'s denominators; the
    # words of delta avoid z, so no two entries of a row share a key
    images, mden = _matrix_images(sigma.matrix)
    for i, t in enumerate(delta.images):
        big = lcm(mden, t.den)
        f, g = big // mden, big // t.den
        rows.append({
            nv * nh + i: big,
            **{j * nh + nv: -n * f for (j,), n in images[i]},
            **{a * nh + b: -n * g for (a, b), n in t.nums.items()},
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

    R-hat must contain R in V-hat (x) V-hat, as every Ore extension's
    does (``ore_relations``); any other subspace raises ``ValueError``
    before a block is formed.

    omega-hat = cyclic part + tower part.  Cyclic term i is (-1)^i
    (sigma^(x)i (x) id)(omega) with z put after factor i, i = 0..d.  The
    tower part has two closed forms, the right form sum_i (-1)^i
    (delta_{i,r} (x) id^(d-i))(omega) and the left form sum_i
    (-1)^(i+d+1) (sigma^(x)(d-i) (x) delta_{i,l})(omega), i = 1..d, which
    are equal (below), so only the right form is built.  Both parts are
    taken on omega's coordinates omega_i in W_i (x) W_{d-i}, through its
    blocks, each formed once: C_i = (S^i (x) id)(omega_i) for i = 0..d
    and R_i = (delta_{i,r} (x) id)(omega_i) for i = 1..d.  Cyclic term i
    is C_i and right-form term i is R_i.  omega-hat is certified on these
    blocks to lie in the top Koszul space W-hat_(d+1) = cap_s V-hat^s (x)
    R-hat (x) V-hat^(d-1-s) of B, s = 0..d-1, and to satisfy the twist
    condition omega-hat = (-1)^d tau_d (mu_B (x) id^d)(omega-hat), where
    tau_d moves factor 1 to the end.  No check reads a word, so the
    returned tensor turns the blocks into words on the first read of
    ``nums``, ``den`` or ``entries`` (``linalg._DeferredTensor``), once.

    The two forms are equal.  Write F_{j,i} = sigma^(x)j (x) delta_{i,r}
    (x) id and G_{j,i} = sigma^(x)j (x) delta_{i,l} (x) id on V^(x)d,
    with delta_{i,*} on factors j+1..j+i, and F_{j,0} = G_{j,0} = 0.
    omega lies in V^j (x) W_i (x) V^(d-i-j) for all j, i, so each is
    defined on it.  Padded by sigma^(x)j and id, the alternating
    recursion delta_{i,r} + (-1)^i delta_{i,l} = (sigma (x)
    delta_{i-1,r}) + (-1)^i (delta_{i-1,l} (x) id) on W_i gives, on
    omega, F_{j,i} - F_{j+1,i-1} = (-1)^i (G_{j,i-1} - G_{j,i}); at i = 1
    it reads delta - delta = 0.  Telescoping along j + i = const from
    F_{i,0} = 0 gives F_{0,i} = sum_{t<i} (-1)^(i-t) (G_{t,i-t-1} -
    G_{t,i-t}), so the right form is sum_i (-1)^i F_{0,i} = sum_t (-1)^t
    sum_{m=1..d-t} (G_{t,m-1} - G_{t,m}) = -sum_t (-1)^t G_{t,d-t}, which
    with t = d - i is the left form.  The recursion holds exactly on
    the stored stages: ``build_sequence_pair`` makes delta_{i,l}(w_k)
    the read-back of the recursion's right-hand side and raises unless
    that read-back is exact, and S^j is sigma^(x)j on W_j by its own
    checked read-back (``_sigma_on_w``).  ``SequencePair.verify``
    compares the two forms on tensors at the paranoid level.

    One membership suffices.  Suppose omega-hat lies in V-hat^s (x)
    R-hat (x) V-hat^(d-1-s) for some s >= 1.  mu_B (x) id^d acts on
    factor 1, which lies in the V-hat^s block, outside the R-hat pair
    at factors s+1, s+2, so it maps that sandwich into itself; tau_d
    then shifts every factor after the first one place left, which puts
    the R-hat pair at factors s, s+1.  The twist condition therefore
    puts omega-hat in V-hat^(s-1) (x) R-hat (x) V-hat^(d-s), and by
    induction from s = d-1 down to 0 in every copy.  So the membership
    at slot d-1 and the twist check together prove all d memberships;
    the argument does not use that mu_B is invertible.  The checks run
    in that order: an escape at slot d-1 raises ``NotInHatWError`` (slot
    d-1), and an escape at any other slot can only coexist with a failed
    twist, ``TwistFailureError``.

    The slot-(d-1) membership is read on blocks (``_in_last_slot``).
    Cyclic term i lies in W_i (x) z (x) W_{d-i}, as S^i maps W_i into
    itself, and right-form term i in W_i (x) V (x) W_{d-i}, as
    delta_{i,r} maps W_i into W_i (x) V; so omega-hat is a sum of blocks
    W_i (x) V-hat (x) W_{d-i}, i = 0..d.
    - If d - i >= 2, W_{d-i} lies in V^(d-i-2) (x) R, so block i lies in
      V-hat^(d-1) (x) R, and in V-hat^(d-1) (x) R-hat as R-hat contains
      R.
    - Blocks d-1 and d remain.  W_1 = V, and omega's split in W_{d-1}
      (x) V (``alg.split(d)``; dim W_d = 1) writes block d in W_{d-1}
      (x) V (x) V-hat, so both lie in W_{d-1} (x) V-hat (x) V-hat and
      their sum is sum_l w_l (x) C_l over the basis w_l of W_{d-1}.
    - The w_l are linearly independent, so applying the functionals dual
      to them (f_l (x) id) shows sum_l w_l (x) C_l lies in V-hat^(d-1) (x)
      R-hat iff every C_l, a vector in (n+1)^2 coordinates, lies in R-hat.
    Hence omega-hat lies in V-hat^(d-1) (x) R-hat iff every C_l does;
    each C_l is reduced by ``linalg._residual`` on R-hat's rows.

    The twist is checked by the position of z (``_twist_failure``).
    Write omega-hat = sum_p Z_p + RF, where Z_p = (-1)^p C_p with z put
    after factor p holds the words with z at position p (0-based) and
    RF, the right form, the z-free words.  Let T = (-1)^d tau_d (mu_B
    (x) id^d), N the V-block of mu_B, v the V-part of its z-row and m its
    z-column on V.  T drops the first letter a of a word and appends
    mu_B(x_a).  A word of Z_p with p >= 1 starts with a letter of V, so
    T sends it to words with z at p - 1 (through N) and with two z's,
    at p - 1 and d (through m); T sends Z_0 = z (x) omega to (-1)^d
    omega (x) v plus (-1)^d mu_B[z][z] omega (x) z, and RF to z-free
    words (through N) and words with z last (through m).  Words with a
    different number or position of z never meet, so omega-hat = T
    (omega-hat) splits into four independent conditions.
    - Two z's: the words z (x) w_b (x) z all come from Z_1, with
      coefficient (-1)^(d+1) sum_a m_a C_1[a, b]; they vanish for every
      p when m = 0.  Conversely C_1 = (S^1 (x) id)(omega_1) is
      invertible: omega_1 is the n x n matrix of omega's first-letter
      flattening on the W_{d-1} basis, whose rank n
      ``certify_as_regular`` checks (the AS-Gorenstein test at i = 1),
      and S^1 = sigma is invertible.  So these words vanish iff m = 0.
      The lemma is needed only for a rejection to agree with the
      word-level condition; an accepted m = 0 kills the words outright,
      and the theorem's mu_B has m = 0.
    - z last: with m = 0, only Z_d = (-1)^d S^d omega (x) z and the image
      of Z_0 carry such words, and omega is nonzero, so the condition
      is mu_B[z][z] = S^d.
    - z at p < d: only Z_p and the image of Z_{p+1} carry such words.
      Read C_p through ``split(d-p)`` and C_{p+1} through ``split(p+1,
      left=True)``, send the first letter of the latter through N to
      the end, and compare (-1)^p C_p with (-1)^(d+p+1) times the moved
      C_{p+1} on the basis w_a (x) w_b (x) x_v of W_p (x) W_{d-p-1} (x)
      V, whose vectors, with z put after factor p, are linearly
      independent words.
    - z-free: RF = (-1)^d [tau_d (N (x) id)(RF) + omega (x) v].  Once
      the three conditions above hold, this one holds iff v = delta_r +
      N delta_l, one identity in V, where delta_{d,r}(omega) = omega (x)
      delta_r and delta_{d,l}(omega) = delta_l (x) omega (dim W_d = 1)
      are read off ``right_w[d][0]`` and ``left_w[d][0]``: mu_B's z-row
      must be the sigma-divergence of the pair with mu_B's own V-block.

    The z-free identity.  At p = 0 the compared words are z (x) omega
    from Z_0 and z (x) tau_(d-1) (N sigma (x) id)(omega) from the image
    of Z_1 = -(sigma (x) id)(omega) with z after factor 1, so that check
    reads tau_(d-1) (N sigma (x) id)(omega) = (-1)^(d-1) omega.  (omega's
    own twist by mu_A reads the same with mu_A, so N sigma - mu_A kills
    the first-letter flattening of omega, whose rank n
    ``certify_as_regular`` checks: position 0 forces N = mu_A
    sigma^(-1).  The identity below uses only the checked equation.)
    Take RF in its left form, -sum_{t=0..d-1} (-1)^t G_{t,d-t}(omega).
    For t >= 1, factor 1 of G_{t,d-t}(omega) carries sigma and nothing
    else, so sending it through N and to the end commutes with the
    maps on the other factors:

        tau_d (N (x) id) G_{t,d-t}(omega)
          = (sigma^(x)(t-1) (x) delta_{d-t,l} (x) id)(tau_(d-1) (N sigma (x) id)(omega))
          = (-1)^(d-1) G_{t-1,d-t}(omega).

    For t = 0, G_{0,d}(omega) = delta_l (x) omega, and tau_d (N (x)
    id)(delta_l (x) omega) = omega (x) N delta_l.  So, with s = t - 1 and
    G_{d-1,0} = 0,

        tau_d (N (x) id)(RF) = (-1)^(d+1) sum_{s<d} (-1)^s G_{s,d-1-s}(omega)
                               - omega (x) N delta_l.

    The telescoped recursion above at i = d, F_{0,d} = sum_{t<d}
    (-1)^(d-t) (G_{t,d-t-1} - G_{t,d-t}), reads sum_s (-1)^s
    G_{s,d-1-s}(omega) = (-1)^d F_{0,d}(omega) - RF, and F_{0,d}(omega)
    = delta_{d,r}(omega) = omega (x) delta_r.  Hence tau_d (N (x)
    id)(RF) = (-1)^d RF - omega (x) (delta_r + N delta_l), and the z-free
    condition reads RF = RF + (-1)^d omega (x) (v - delta_r - N delta_l).
    omega is nonzero, so it holds iff v = delta_r + N delta_l.  The proof
    rests on the recursion holding exactly on the stored stages, as the
    form equality does.  ``tests/conftest.word_twist_holds`` checks the
    whole twist on words, and the paranoid level solves it
    (``twist_solve(omega_hat)``), both independent of this identity.
    """
    alg = sp.algebra
    nv = alg.nv
    nh = nv + 1
    if mu_b.nrows != nh or mu_b.ncols != nh:
        raise ValueError(f"mu_B must be {nh} x {nh}")
    embedded = ({k // nv * nh + k % nv: n for k, n in r.items()} for r in alg.R.int_rows())
    if r_hat.ambient != nh * nh or not all(r_hat.contains(r) for r in embedded):
        raise ValueError("R-hat must contain R")
    d = alg.d
    tab = alg.w_tables()
    # C_i keyed a * dim W_{d-i} + b on w_a (x) w_b, R_i keyed (l * nv +
    # j) * dim W_{d-i} + b on w_l (x) x_j (x) w_b; R_0 = 0
    cs = [_int_sum(_on_left(tab.omega[i], sp.sigma_w[i], tab.dims[d - i])) for i in range(d + 1)]
    rs = [({}, 1)] + [_int_sum(_on_left(tab.omega[i], sp.right_w[i], tab.dims[d - i])) for i in range(1, d + 1)]
    if not _in_last_slot(alg, cs, rs, r_hat):
        raise NotInHatWError(
            f"omega-hat escapes V-hat^{d - 1} (x) R-hat (x) V-hat^0", slot=d - 1
        )
    failed = _twist_failure(sp, cs, mu_b)
    if failed is not None:
        raise TwistFailureError(f"twist condition fails on the {failed}", degree=d + 1)
    return _DeferredTensor(nh, d + 1, partial(_words, alg, cs, rs))


def _words(alg: QuadraticAlgebra, cs: list, rs: list) -> tuple[dict, int]:
    """omega-hat as raw int numerators by word over one den, from its
    blocks C_i = ``cs[i]`` and R_i = ``rs[i]``: sum_i (-1)^i (C_i with z
    put between its two factors, plus R_i), each block expanded straight
    into one sum over the lcm of the blocks' denominators."""
    nv, d = alg.nv, alg.d
    tab = alg.w_tables()
    blocks = []
    for i in range(d + 1):
        rows, den = tab.words[d - i]
        z_tail = ([[((nv,) + w, n) for w, n in r] for r in rows], den)
        blocks.append((_sign(i), cs[i], tab.words[i], z_tail))
        if i:
            blocks.append((_sign(i), rs[i], tab.words_v[i], tab.words[d - i]))
    dens = [vec[1] * head[1] * tail[1] for _, vec, head, tail in blocks]
    big = lcm(*dens)
    out: dict = {}
    for (sign, vec, head, tail), den in zip(blocks, dens):
        _expand(vec, head, tail, out, sign * (big // den))
    return out, big


def _twist_failure(sp: SequencePair, cs: list, mu_b: Matrix) -> str | None:
    """The words of omega-hat, named by the position of z, on which the
    twist condition fails, or None when it holds; C_i = ``cs[i]`` (proof
    in ``twisted_superpotential_hat``)."""
    alg = sp.algebra
    nv, d = alg.nv, alg.d
    tab = alg.w_tables()
    if any(r[nv] for r in mu_b.rows[:nv]):
        return "words with two z's"
    ((snums, sden),) = sp.sigma_w[d]
    zz = mu_b.rows[nv][nv]
    if zz.numerator * sden != snums[0] * zz.denominator:
        return "words ending in z"
    rows, mden = _matrix_images(mu_b)
    n_rows = [({j: n for (j,), n in r}, mden) for r in rows[:nv]]
    sgn = _sign(d + 1)
    for p in range(d):
        # C_p - (-1)^(d+1) (C_{p+1} with its first letter through N and
        # moved to the end), keyed (a * q + b) * nv + v on w_a (x) w_b (x)
        # x_v in W_p (x) W_{d-p-1} (x) V, q = dim W_{d-p-1}; C_{p+1} is read
        # in V (x) W_p (x) W_{d-p-1} first
        q = tab.dims[d - p - 1]
        lifted = _int_sum(_on_left(cs[p + 1], alg.split(p + 1, left=True), q))
        residual, _ = _int_sum(
            _on_right(cs[p], alg.split(d - p), tab.dims[d - p], q * nv)
            + _first_to_end(lifted, n_rows, tab.dims[p] * q, nv, -sgn)
        )
        if any(residual.values()):
            return f"words with z at position {p}"
    # the z-free words: v = delta_r + N delta_l, with v the z-row of mu_B
    # on V, delta_r keyed j on w^d_0 (x) x_j and delta_l on x_j (x) w^d_0
    v = ({j: n for (j,), n in rows[nv] if j < nv}, mden)
    residual, _ = _int_sum(
        [(1, v, 1, 0), (-1, sp.right_w[d][0], 1, 0)] + _on_left(sp.left_w[d][0], n_rows, 1, -1)
    )
    if any(residual.values()):
        return "z-free words"
    return None


def _first_to_end(vec: tuple[dict, int], rows, size: int, nv: int, sign: int) -> list[tuple]:
    """The ``_int_sum`` terms of sign * (the first factor sent through f and
    moved to the end)(vec) for vec keyed u * size + r, with f(x_u) =
    rows[u] keyed j < nv: keyed r * nv + j."""
    nums, den = vec
    return [
        (sign * c, (rows[key // size][0], rows[key // size][1] * den), 1, key % size * nv)
        for key, c in nums.items()
    ]


def _in_last_slot(alg: QuadraticAlgebra, cs: list, rs: list, r_hat: Subspace) -> bool:
    """Whether omega-hat, with blocks C_i = ``cs[i]`` and R_i = ``rs[i]``,
    lies in V-hat^(d-1) (x) R-hat for an R-hat that contains R: on the
    w_l-coefficients of its blocks d-1 and d (proof in
    ``twisted_superpotential_hat``)."""
    nv, d = alg.nv, alg.d
    nh = nv + 1
    # the coefficients keyed (l, p * nh + q) on w_l (x) x_p (x) x_q; block
    # d-1 is the cyclic term w_a (x) z (x) x_b from C_{d-1}, keyed a * nv
    # + b, plus the right-form term w_l (x) x_j (x) x_b from R_{d-1},
    # keyed (l * nv + j) * nv + b
    (cnums, cden), (rnums, rden) = cs[d - 1], rs[d - 1]
    terms = [
        (1, {(k // nv, nv * nh + k % nv): c for k, c in cnums.items()}, cden),
        (1, {(k // nv // nv, k // nv % nv * nh + k % nv): c for k, c in rnums.items()}, rden),
    ]
    # block d, of the opposite sign, is w^d_0 (x) u with u = C_d z + R_d,
    # and w^d_0 splits in W_{d-1} (x) V
    unums, uden = _int_sum([(1, cs[d], 1, nv), (1, rs[d], 1, 0)])
    ((snums, sden),) = alg.split(d)
    terms.append((-1, {
        (k // nv, k % nv * nh + p): s * n for k, s in snums.items() for p, n in unums.items()
    }, sden * uden))
    nums, den = _combine(terms)
    coefficients: dict[int, dict] = {}
    for (l, key), c in nums.items():
        coefficients.setdefault(l, {})[key] = c
    rows = r_hat._rows
    return not any(any(_residual(vec, den, rows)[0].values()) for vec in coefficients.values())


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
    # the numerators alone: one common scale leaves a span unchanged
    for w, c in omega.nums.items():
        slices.setdefault(w[keep:], {})[word_flat(w[:keep], nv)] = c
    return Subspace(nv**keep if keep else 1, list(slices.values()))
