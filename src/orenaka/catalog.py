"""Catalog of base algebras and their classified Ore extensions.

Covers graded polynomial algebras, quantum planes and the Jordan plane,
the closed-form Nakayama oracles for relations written as x^T Q x, and
the full table of admissible (automorphism, derivation) families in
dimension 2 with their parameter constraints.

Each solution case is encoded as a constraint filler: given the free
parameters it produces the constrained gamma values, then the generic
admissibility checks re-verify the instance, so a transcription slip in
the table fails loudly instead of corrupting downstream oracles.

Derivations on the two-generator algebras are parametrized in the
monomial basis {x1^2, x2 x1, x2^2} of degree two:

    delta(x_i) = gamma_i1 x1 (x) x1 + gamma_i2 x2 (x) x1 + gamma_i3 x2 (x) x2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import random
from typing import Mapping, Sequence

from .errors import CasePreconditionError, NotAdmissibleError
from .linalg import ONE, ZERO, Matrix, Tensor, rank, scalar, scalar_str
from .morphisms import (
    DerivationLift,
    GradedAutomorphism,
    admissible_lift_space,
    check_automorphism,
    extend_derivation,
)
from .quadratic import QuadraticAlgebra

_ALGEBRA_CACHE: dict = {}


def _shared(key, build) -> QuadraticAlgebra:
    """One certified algebra per key, built by ``build()`` on the first
    call.  Sharing is safe: every attribute of an algebra is a memo of a
    fact about it, and its certificate is an immutable value."""
    if key not in _ALGEBRA_CACHE:
        alg = build()
        alg.certify_as_regular()
        _ALGEBRA_CACHE[key] = alg
    return _ALGEBRA_CACHE[key]


def make_polynomial(n: int) -> QuadraticAlgebra:
    """k[x_1..x_n], certified AS-regular of dimension n."""
    if n < 1:
        raise ValueError("need at least one variable")
    return _shared(("poly", n), lambda: QuadraticAlgebra(
        [f"x{i + 1}" for i in range(n)],
        [Tensor(n, 2, {(i, j): ONE, (j, i): -ONE}) for i in range(n) for j in range(i + 1, n)],
    ))


def make_quantum_plane(q) -> QuadraticAlgebra:
    """k<x1,x2>/(x1 x2 - q x2 x1), certified; q = 1 is the commutative plane."""
    q = scalar(q)
    if not q:
        raise ValueError("q must be nonzero")
    return _shared(("quantum", q), lambda: QuadraticAlgebra(
        ["x1", "x2"], [Tensor(2, 2, {(0, 1): ONE, (1, 0): -q})]
    ))


def make_jordan_plane() -> QuadraticAlgebra:
    """k<x1,x2>/(x1 x2 - x2 x1 - x2^2), certified."""
    return _shared(("jordan",), lambda: QuadraticAlgebra(
        ["x1", "x2"], [Tensor(2, 2, {(0, 1): ONE, (1, 0): -ONE, (1, 1): -ONE})]
    ))


def dim2_relation_matrix(kind: str, q=None) -> Matrix:
    """Q with relation x^T Q x for the dimension-2 families."""
    if kind == "commutative":
        return Matrix([[0, 1], [-1, 0]])
    if kind == "quantum":
        return Matrix([[0, 1], [-scalar(q), 0]])
    if kind == "jordan":
        return Matrix([[0, 1], [-1, -1]])
    raise ValueError(f"unknown dimension-2 kind {kind!r}")


# ---------------------------------------------------------------------------
# Antisymmetrizer tensors for polynomial algebras


def antisymmetrizer_tensor(n: int, indices: Sequence[int]) -> Tensor:
    """The recursively defined alternating tensor r_{i_1...i_m}.

    Defined for arbitrary index tuples (1-based): degree 2 is
    x_a (x) x_b - x_b (x) x_a, higher degrees expand along the last
    factor with alternating signs.  Repeated indices give zero and
    permutations change the sign.
    """
    idx = tuple(indices)
    m = len(idx)
    if m < 2:
        raise ValueError("need at least two indices")
    if any(not (1 <= i <= n) for i in idx):
        raise ValueError("indices out of range")
    if m == 2:
        a, b = idx[0] - 1, idx[1] - 1
        return Tensor(n, 2, {(a, b): ONE}) - Tensor(n, 2, {(b, a): ONE})
    terms = []
    for j in range(m):
        rest = idx[:j] + idx[j + 1 :]
        sign = ONE if (m - 1 - j) % 2 == 0 else -ONE
        head = antisymmetrizer_tensor(n, rest)
        terms.append((sign, head.tensor(Tensor.word(n, (idx[j] - 1,)))))
    return Tensor.combine(n, m, terms)


def r_basis_tensor(n: int, indices: Sequence[int]) -> Tensor:
    """Basis tensor of W_m for k[x_1..x_n]: strictly increasing indices."""
    idx = tuple(indices)
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("indices must be strictly increasing")
    return antisymmetrizer_tensor(n, idx)


def polynomial_divergence_oracle(delta: DerivationLift) -> Tensor:
    """Formal divergence sum_s d(delta(x_s))/dx_s for sigma = id on a
    polynomial algebra, straight from the lift coefficients."""
    nv = delta.algebra.nv
    terms = []
    for s in range(nv):
        img = delta.images[s]
        for t in range(nv):
            c = img.entries.get((s, t), ZERO) + img.entries.get((t, s), ZERO)
            terms.append((c, Tensor.word(nv, (t,))))
    return Tensor.combine(nv, 1, terms)


# ---------------------------------------------------------------------------
# Dimension-2 closed forms


def dim2_hdet(q_mat: Matrix, m: Matrix) -> Fraction:
    """Scalar with M^T Q M = hdet * Q; NotAdmissible if none exists."""
    lhs = m.transpose() * q_mat * m
    lam = None
    for a in range(2):
        for b in range(2):
            if q_mat[a, b]:
                cand = lhs[a, b] / q_mat[a, b]
                if lam is None:
                    lam = cand
                elif lam != cand:
                    raise NotAdmissibleError("M does not scale the relation")
            elif lhs[a, b]:
                raise NotAdmissibleError("M does not scale the relation")
    if not lam:
        raise NotAdmissibleError("degenerate scaling")
    return lam


def dim2_nakayama_oracle(
    q_mat: Matrix, m: Matrix, c_r: Sequence, c_l: Sequence
) -> Matrix:
    """Closed-form mu_B for a dimension-2 base: the block matrix

        [ -M^{-1}(Q^T)^{-1}Q            0       ]
        [ c_r - c_l M^{-1}(Q^T)^{-1}Q   hdet(M) ]

    acting on (x1, x2, z), with delta(r) = r (x) delta_r + delta_l (x) r
    and delta_r = c_r x, delta_l = c_l x.  A singular Q or M raises
    NotInvertibleError.
    """
    core = -(m.inverse()) * (q_mat.transpose().inverse()) * q_mat
    h = dim2_hdet(q_mat, m)
    cr = [scalar(x) for x in c_r]
    cl = [scalar(x) for x in c_l]
    zrow = [
        cr[j] + sum(cl[s] * core[s, j] for s in range(2))
        for j in range(2)
    ]
    return Matrix(
        [
            [core[0, 0], core[0, 1], ZERO],
            [core[1, 0], core[1, 1], ZERO],
            [zrow[0], zrow[1], h],
        ]
    )


def dim2_delta_rl_closed_form(
    family: str, m: Matrix, gamma: Sequence[Sequence], q=None
) -> tuple[tuple, tuple]:
    """(c_r, c_l) coordinate rows of delta_r, delta_l per family.

    These are the per-family closed forms in the gamma parametrization;
    the generic engine must reproduce them exactly (the degree-2
    decomposition is unique in dimension 2).
    """
    (g11, g12, g13), (g21, g22, g23) = (
        tuple(scalar(x) for x in gamma[0]),
        tuple(scalar(x) for x in gamma[1]),
    )
    m11, m12, m21, m22 = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    if family == "comm":
        c_r = (m22 * g11 - m12 * g21 + g22, m11 * g23 - m21 * g13)
        c_l = (g11, m22 * g12 - m12 * g22 + g23)
    elif family in ("qm1", "qneq1"):
        c_r = (m22 * g11 + g22, m11 * g23)
        c_l = (g11, m22 * g12 + g23)
    elif family == "qm1ii":
        c_r = (m12 * g21 + g22, m21 * g13)
        c_l = (g11, m12 * g22 + g23)
    elif family == "jordan":
        c_r = (m11 * g11 + (m11 - m12) * g21 + g22, g11 - g21 + m11 * g23)
        c_l = (g11 - g21, g11 + g12 - g21 - g22 + m11 * g23)
    else:
        raise ValueError(f"unknown family {family!r}")
    return c_r, c_l


# ---------------------------------------------------------------------------
# Solution cases


@dataclass(frozen=True)
class SolutionInstance:
    """One admissible (sigma, delta) drawn from a classified case."""

    case: str
    family: str
    q: Fraction | None
    algebra: QuadraticAlgebra
    sigma: GradedAutomorphism
    delta: DerivationLift
    m: Matrix
    gamma: tuple
    derived_by_symmetry: bool = False


CASES = (
    "comm-a", "comm-b", "comm-c", "comm-d",
    "comm-e-b", "comm-e-c", "comm-e-d",
    "comm-f", "comm-g",
    "qm1-a", "qm1-b", "qm1-c", "qm1-d", "qm1-e", "qm1-f",
    "qm1ii-a", "qm1ii-b",
    "qneq1-a", "qneq1-b", "qneq1-c", "qneq1-d", "qneq1-e", "qneq1-f",
    "jordan-a", "jordan-b",
)

CASE_ALIASES = {
    "q=-1-a": "qm1-a", "q=-1-b": "qm1-b", "q=-1-c": "qm1-c",
    "q=-1-d": "qm1-d", "q=-1-e": "qm1-e", "q=-1-f": "qm1-f",
    "q=-1-ii-a": "qm1ii-a", "q=-1-ii-b": "qm1ii-b",
    "qneq-1-a": "qneq1-a", "qneq-1-b": "qneq1-b", "qneq-1-c": "qneq1-c",
    "qneq-1-d": "qneq1-d", "qneq-1-e": "qneq1-e", "qneq-1-f": "qneq1-f",
}

# free parameters each case expects (beyond the matrix entries)
CASE_FREE_PARAMS = {
    "comm-a": ("g11", "g12", "g13", "g21", "g22", "g23"),
    "comm-b": ("g11", "g12", "g13"),
    "comm-c": ("g21", "g22", "g23"),
    "comm-d": ("g22", "g23"),
    "comm-e-b": ("g11", "g12", "g13"),
    "comm-e-c": ("g21", "g22", "g23"),
    "comm-e-d": ("g22", "g23"),
    "comm-f": ("g13", "g21", "g22"),
    "comm-g": ("g13", "g21"),
    "qm1-a": ("g11", "g13", "g21", "g23"),
    "qm1-b": ("g11", "g12", "g13", "g22"),
    "qm1-c": ("g11", "g12", "g13"),
    "qm1-d": ("g12", "g21", "g22", "g23"),
    "qm1-e": ("g21", "g22", "g23"),
    "qm1-f": ("g12", "g22"),
    "qm1ii-a": ("g21", "g22", "g23"),
    "qm1ii-b": ("g21", "g23"),
    "qneq1-a": ("g11", "g13", "g21", "g23"),
    "qneq1-b": ("g13", "g22", "g23"),
    "qneq1-c": ("g11", "g12", "g21"),
    "qneq1-d": ("g12", "g22"),
    "qneq1-e": ("g11", "g12", "g23"),
    "qneq1-f": ("g11", "g12"),
    "jordan-a": ("g13", "g21", "g22", "g23"),
    "jordan-b": ("g22", "g23"),
}

# the entries of M (and q) each case reads; the case fixes the others
CASE_MATRIX_PARAMS = {
    "comm-a": (),
    "comm-b": ("m11", "m12"),
    "comm-c": ("m12", "m22"),
    "comm-d": ("m11", "m12", "m22"),
    "comm-e-b": ("m11", "m12"),
    "comm-e-c": ("m12", "m22"),
    "comm-e-d": ("m11", "m12", "m22"),
    "comm-f": ("m11", "m12", "m21", "m22"),
    "comm-g": ("m11", "m12", "m21", "m22"),
    "qm1-a": (),
    "qm1-b": (),
    "qm1-c": ("m11",),
    "qm1-d": (),
    "qm1-e": ("m22",),
    "qm1-f": ("m11", "m22"),
    "qm1ii-a": ("m12",),
    "qm1ii-b": ("m12", "m21"),
    "qneq1-a": ("q",),
    "qneq1-b": ("q", "m11"),
    "qneq1-c": ("q", "m22"),
    "qneq1-d": ("q", "m22"),
    "qneq1-e": ("q", "m22"),
    "qneq1-f": ("q", "m11", "m22"),
    "jordan-a": ("m12",),
    "jordan-b": ("m11", "m12"),
}


def case_param_names(case: str) -> tuple[str, ...]:
    """Every parameter name a case accepts: its matrix entries (and q),
    then its free gammas."""
    case = CASE_ALIASES.get(case, case)
    return CASE_MATRIX_PARAMS[case] + CASE_FREE_PARAMS[case]


def _need(params: Mapping, name: str) -> Fraction:
    if name not in params:
        raise CasePreconditionError(f"missing parameter {name!r}")
    return scalar(params[name])


def _opt(params: Mapping, name: str, default=ZERO) -> Fraction:
    return scalar(params[name]) if name in params else default


def _require(cond: bool, msg: str):
    if not cond:
        raise CasePreconditionError(msg)


def _comm_fill(case: str, params: Mapping):
    """Matrix and gamma table for the commutative-family cases."""
    g = {k: _opt(params, k) for k in ("g11", "g12", "g13", "g21", "g22", "g23")}
    if case == "comm-a":
        m11, m12, m21, m22 = ONE, ZERO, ZERO, ONE
    elif case == "comm-b":
        m11, m12, m21, m22 = _need(params, "m11"), _opt(params, "m12"), ZERO, ONE
        _require((m11, m12) != (ONE, ZERO), "comm-b requires M != identity")
        _require(m11 != 0, "M must be invertible")
        g["g21"] = g["g22"] = g["g23"] = ZERO
    elif case == "comm-c":
        m11, m12, m21, m22 = ONE, _opt(params, "m12"), ZERO, _need(params, "m22")
        _require(m22 not in (ZERO, ONE), "comm-c requires m22 not in {0, 1}")
        inv = ONE / (m22 - 1)
        g["g11"] = inv * m12 * g["g21"]
        g["g12"] = inv * m12 * g["g22"]
        g["g13"] = inv * m12 * g["g23"]
    elif case == "comm-d":
        m11, m12, m21, m22 = (
            _need(params, "m11"),
            _opt(params, "m12"),
            ZERO,
            _need(params, "m22"),
        )
        _require(m22 not in (ZERO, ONE) and m11 not in (ZERO, ONE),
                 "comm-d requires m11, m22 not in {0, 1}")
        inv = ONE / (m22 - 1)
        g["g21"] = ZERO
        g["g11"] = inv * (m11 - 1) * g["g22"]
        g["g12"] = inv * (m12 * g["g22"] + (m11 - 1) * g["g23"])
        g["g13"] = inv * m12 * g["g23"]
    elif case in ("comm-f", "comm-g"):
        m11, m12, m21, m22 = (
            _need(params, "m11"),
            _need(params, "m12"),
            _need(params, "m21"),
            _need(params, "m22"),
        )
        # printed as m21 m22 != 0, but the constraints invert both
        # off-diagonal entries; the intended split is m21, m12 != 0
        _require(m21 != 0 and m12 != 0, "cases f/g require m12, m21 != 0")
        _require(m11 * m22 != m12 * m21, "M must be invertible")
        lock = (m22 - 1) * (m11 - 1) == m21 * m12
        if case == "comm-f":
            _require(lock, "comm-f requires (m22-1)(m11-1) = m21 m12")
            g["g11"] = (m11 - 1) / m21 * g["g21"]
            g["g12"] = (m11 - 1) / m21 * g["g22"]
            g["g23"] = (m22 - 1) / m12 * g["g13"]
        else:
            _require(not lock, "comm-g requires (m22-1)(m11-1) != m21 m12")
            g["g11"] = (m11 - 1) / m21 * g["g21"]
            g["g12"] = m12 / m21 * g["g21"] + (m11 - 1) / m12 * g["g13"]
            g["g22"] = (m22 - 1) / m21 * g["g21"] + m21 / m12 * g["g13"]
            g["g23"] = (m22 - 1) / m12 * g["g13"]
    else:
        raise CasePreconditionError(f"unknown commutative case {case!r}")
    mat = Matrix([[m11, m12], [m21, m22]])
    gamma = ((g["g11"], g["g12"], g["g13"]), (g["g21"], g["g22"], g["g23"]))
    return mat, gamma


def _swap_mirror(mat: Matrix, gamma) -> tuple[Matrix, tuple]:
    """Transposition symmetry x1 <-> x2 of the commutative plane.

    Swapping generators maps gamma rows to each other with the monomial
    order reversed (x1 x2 is rewritten as x2 x1 modulo the relation,
    which leaves the induced derivation unchanged).
    """
    m2 = Matrix(
        [[mat[1, 1], mat[1, 0]], [mat[0, 1], mat[0, 0]]]
    )
    (g11, g12, g13), (g21, g22, g23) = gamma
    return m2, ((g23, g22, g21), (g13, g12, g11))


def _qm1_fill(case: str, params: Mapping):
    g = {k: _opt(params, k) for k in ("g11", "g12", "g13", "g21", "g22", "g23")}
    if case == "qm1-a":
        m11 = m22 = -ONE
        g["g12"] = g["g22"] = ZERO
    elif case == "qm1-b":
        m11, m22 = ONE, -ONE
        g["g21"] = ZERO
        g["g23"] = g["g12"]
    elif case == "qm1-c":
        m11, m22 = _need(params, "m11"), -ONE
        _require(m11 not in (ONE, -ONE, ZERO), "qm1-c requires m11 != 0, +-1")
        g["g21"] = g["g22"] = ZERO
        g["g23"] = 2 / (m11 + 1) * g["g12"]
    elif case == "qm1-d":
        m11, m22 = -ONE, ONE
        g["g13"] = ZERO
        g["g11"] = -g["g22"]
    elif case == "qm1-e":
        m11, m22 = -ONE, _need(params, "m22")
        _require(m22 not in (ONE, -ONE, ZERO), "qm1-e requires m22 != 0, +-1")
        g["g12"] = g["g13"] = ZERO
        g["g11"] = -2 / (m22 + 1) * g["g22"]
    elif case == "qm1-f":
        m11, m22 = _need(params, "m11"), _need(params, "m22")
        _require(m11 not in (-ONE, ZERO) and m22 not in (-ONE, ZERO),
                 "qm1-f requires m11, m22 != 0, -1")
        g["g13"] = g["g21"] = ZERO
        g["g11"] = (m11 - 1) / (m22 + 1) * g["g22"]
        g["g23"] = (1 - m22) / (m11 + 1) * g["g12"]
    else:
        raise CasePreconditionError(f"unknown q=-1 case {case!r}")
    mat = Matrix([[m11, ZERO], [ZERO, m22]])
    gamma = ((g["g11"], g["g12"], g["g13"]), (g["g21"], g["g22"], g["g23"]))
    return mat, gamma


def _qm1ii_fill(case: str, params: Mapping):
    g = {k: _opt(params, k) for k in ("g11", "g12", "g13", "g21", "g22", "g23")}
    m12 = _need(params, "m12")
    _require(m12 != 0, "m12 must be nonzero")
    if case == "qm1ii-a":
        m21 = ONE / m12
        g["g11"] = -m12 * g["g21"]
        g["g12"] = m12 * g["g22"]
        g["g13"] = -m12 * g["g23"]
    elif case == "qm1ii-b":
        m21 = _need(params, "m21")
        _require(m21 != 0 and m12 * m21 != 1, "qm1ii-b requires m12 m21 != 0, 1")
        g["g11"] = -g["g21"] / m21
        g["g12"] = m12 / m21 * g["g21"] + g["g23"]
        g["g13"] = -m12 * g["g23"]
        g["g22"] = g["g21"] / m21 + m21 * g["g23"]
    else:
        raise CasePreconditionError(f"unknown q=-1 antidiagonal case {case!r}")
    mat = Matrix([[ZERO, m12], [m21, ZERO]])
    gamma = ((g["g11"], g["g12"], g["g13"]), (g["g21"], g["g22"], g["g23"]))
    return mat, gamma


def _qneq1_fill(case: str, params: Mapping, q: Fraction):
    g = {k: _opt(params, k) for k in ("g11", "g12", "g13", "g21", "g22", "g23")}
    qi = ONE / q
    if case == "qneq1-a":
        m11, m22 = q, qi
        g["g12"] = -q * (1 + q) * g["g23"]
        g["g22"] = -(qi + 1) * g["g11"]
    elif case == "qneq1-b":
        m11, m22 = _need(params, "m11"), qi
        _require(m11 not in (q, ZERO), "qneq1-b requires m11 != q, 0")
        g["g21"] = ZERO
        g["g11"] = (m11 - 1) / (qi - q) * g["g22"]
        g["g12"] = (q * m11 - 1) / (qi - 1) * g["g23"]
    elif case == "qneq1-c":
        m11, m22 = q, _need(params, "m22")
        _require(m22 not in (qi, ZERO), "qneq1-c requires m22 != 1/q, 0")
        g["g13"] = ZERO
        g["g22"] = (q - m22) / (1 - q) * g["g11"]
        g["g23"] = (1 - m22) / (1 - q * q) * g["g12"]
    elif case == "qneq1-d":
        m11, m22 = ONE, _need(params, "m22")
        _require(m22 not in (qi, ZERO), "qneq1-d requires m22 != 1/q, 0")
        g["g11"] = g["g13"] = g["g21"] = ZERO
        g["g23"] = (1 - m22) / (1 - q) * g["g12"]
    elif case == "qneq1-e":
        m11, m22 = qi, _need(params, "m22")
        _require(m22 not in (qi, ZERO), "qneq1-e requires m22 != 1/q, 0")
        g["g13"] = g["g21"] = ZERO
        g["g22"] = (q - m22) / (1 - qi) * g["g11"]
        if m22 != 1:
            g["g12"] = ZERO
    elif case == "qneq1-f":
        m11, m22 = _need(params, "m11"), _need(params, "m22")
        _require(m11 not in (q, qi, ONE, ZERO), "qneq1-f requires m11 != q, 1/q, 1, 0")
        _require(m22 not in (qi, ZERO), "qneq1-f requires m22 != 1/q, 0")
        g["g13"] = g["g21"] = ZERO
        g["g22"] = (q - m22) / (1 - m11) * g["g11"]
        g["g23"] = (1 - m22) / (1 - q * m11) * g["g12"]
    else:
        raise CasePreconditionError(f"unknown qneq-1 case {case!r}")
    mat = Matrix([[m11, ZERO], [ZERO, m22]])
    gamma = ((g["g11"], g["g12"], g["g13"]), (g["g21"], g["g22"], g["g23"]))
    return mat, gamma


def _jordan_fill(case: str, params: Mapping):
    g = {k: _opt(params, k) for k in ("g11", "g12", "g13", "g21", "g22", "g23")}
    if case == "jordan-a":
        m11, m12 = ONE, _opt(params, "m12")
        # equation (2 - m12) gamma21 = 0: gamma21 is free exactly when
        # m12 = 2 (the printed solution has the two branches swapped)
        if m12 != 2:
            g["g21"] = ZERO
        g["g11"] = (m12 * g["g21"] + (1 - m12) * g["g22"]) / 2
        g["g12"] = m12 * (g["g22"] - g["g23"])
    elif case == "jordan-b":
        m11, m12 = _need(params, "m11"), _opt(params, "m12")
        _require(m11 not in (ONE, ZERO), "jordan-b requires m11 != 0, 1")
        inv = ONE / (m11 - 1)
        g["g21"] = ZERO
        g["g11"] = g["g22"]
        g["g12"] = inv * (m12 + 1) * g["g22"] + g["g23"]
        g["g13"] = inv * (m11 + m12) * (inv * g["g22"] + g["g23"])
    else:
        raise CasePreconditionError(f"unknown jordan case {case!r}")
    mat = Matrix([[m11, m12], [ZERO, m11]])
    gamma = ((g["g11"], g["g12"], g["g13"]), (g["g21"], g["g22"], g["g23"]))
    return mat, gamma


def enumerate_solution(case: str, params: Mapping) -> SolutionInstance:
    """Instantiate a classified case from its free parameters.

    ``params`` maps parameter names (m11..m22, g11..g23, q) to exact
    rationals; constrained gammas are filled per the case table and the
    instance is re-verified through the generic admissibility checks.
    A name outside ``case_param_names(case)`` raises
    CasePreconditionError.
    """
    case = CASE_ALIASES.get(case, case)
    if case not in CASES:
        raise CasePreconditionError(f"unknown case {case!r}")
    accepted = case_param_names(case)
    for name in params:
        if name not in accepted:
            raise CasePreconditionError(
                f"unknown parameter {name!r} for case {case!r}; accepted: {', '.join(accepted)}"
            )
    family = case.split("-")[0]
    q = None
    mirrored = False
    if family == "comm":
        alg = make_quantum_plane(1)
        if case.startswith("comm-e-"):
            mat, gamma = _comm_fill("comm-" + case[-1], params)
            mat, gamma = _swap_mirror(mat, gamma)
            mirrored = True
        else:
            mat, gamma = _comm_fill(case, params)
    elif family == "qm1":
        q = -ONE
        alg = make_quantum_plane(-1)
        mat, gamma = _qm1_fill(case, params)
    elif family == "qm1ii":
        q = -ONE
        alg = make_quantum_plane(-1)
        mat, gamma = _qm1ii_fill(case, params)
    elif family == "qneq1":
        q = _need(params, "q")
        _require(q not in (ZERO, ONE, -ONE), "qneq-1 cases require q != 0, +-1")
        alg = make_quantum_plane(q)
        mat, gamma = _qneq1_fill(case, params, q)
    elif family == "jordan":
        alg = make_jordan_plane()
        mat, gamma = _jordan_fill(case, params)
    else:
        raise CasePreconditionError(f"unknown case family {family!r}")
    sigma = check_automorphism(mat, alg)
    delta = extend_derivation(gamma_images(gamma), sigma, alg)
    return SolutionInstance(
        case=case,
        family="comm" if mirrored else family,
        q=q,
        algebra=alg,
        sigma=sigma,
        delta=delta,
        m=mat,
        gamma=gamma,
        derived_by_symmetry=mirrored,
    )


def dim2_instance_oracle(inst: SolutionInstance) -> Matrix:
    """Closed-form mu_B of a catalog instance: the family's relation
    matrix Q and its (c_r, c_l) closed form fed to dim2_nakayama_oracle."""
    kind = {"comm": "commutative", "jordan": "jordan"}.get(inst.family, "quantum")
    qm = dim2_relation_matrix(kind, inst.q)
    c_r, c_l = dim2_delta_rl_closed_form(inst.family, inst.m, inst.gamma, inst.q)
    return dim2_nakayama_oracle(qm, inst.m, c_r, c_l)


def gamma_images(gamma) -> list[Tensor]:
    """Lift tensors for the two-generator gamma parametrization."""
    out = []
    for g1, g2, g3 in gamma:
        out.append(Tensor(2, 2, {(0, 0): g1, (1, 0): g2, (1, 1): g3}))
    return out


def gamma_of_images(
    alg: QuadraticAlgebra, images: Sequence[Tensor]
) -> tuple[tuple, tuple]:
    """Gamma coordinates of the induced derivation on a 2-generator
    algebra: each image is reduced modulo R into the monomial basis
    {x1^2, x2 x1, x2^2}."""
    rows = []
    for im in images:
        nf = alg.nf_tensor(im)
        words = alg.basis_words(2)
        lut = {w: i for i, w in enumerate(words)}
        g = [ZERO, ZERO, ZERO]
        want = [(0, 0), (1, 0), (1, 1)]
        for k, c in nf.items():
            w = words[k]
            if w not in want:
                raise ValueError(f"unexpected basis word {w}")
            g[want.index(w)] = c
        rows.append(tuple(g))
    return tuple(rows)


@dataclass(frozen=True)
class CYVerdict:
    is_cy: bool
    reason: str
    witness: dict


def cy_classifier_dim2(alg, sigma, delta) -> CYVerdict:
    """Calabi-Yau test for the dimension-2 catalog via the closed
    classification: for the commutative plane sigma must be the
    identity and the induced derivation must match the four-parameter
    family; otherwise sigma must equal the Nakayama automorphism."""
    from .morphisms import nakayama_of_A

    if alg.nv != 2 or alg.d != 2:
        raise ValueError("classifier applies to two-generator dimension-2 algebras")
    mu = nakayama_of_A(alg).matrix
    commutative = mu == Matrix.identity(2)
    if commutative:
        if sigma.matrix != Matrix.identity(2):
            return CYVerdict(False, "sigma is not the identity", {})
        (g11, g12, g13), (g21, g22, g23) = gamma_of_images(alg, delta.images)
        l1, l2, l3, l4 = g11, g13, g21, -g12 / 2
        violations = {}
        if g22 != -2 * l1:
            violations["gamma22"] = scalar_str(g22) + " != " + scalar_str(-2 * l1)
        if g23 != l4:
            violations["gamma23"] = scalar_str(g23) + " != " + scalar_str(l4)
        if violations:
            return CYVerdict(False, "derivation outside the l-family", violations)
        return CYVerdict(
            True,
            "sigma = id and derivation in the l-family",
            {"l": tuple(scalar_str(x) for x in (l1, l2, l3, l4))},
        )
    if sigma.matrix != mu:
        return CYVerdict(False, "sigma differs from the Nakayama automorphism", {})
    return CYVerdict(True, "sigma equals the Nakayama automorphism", {})


# ---------------------------------------------------------------------------
# Random admissible draws


def random_rational(rng: random.Random, nonzero=False, span=4) -> Fraction:
    while True:
        x = Fraction(rng.randint(-span, span), rng.randint(1, 3))
        if x or not nonzero:
            return x


def random_case_params(case: str, rng: random.Random) -> dict:
    """Random valid parameter assignment for a solution case.

    Matrix entries are drawn to satisfy the case preconditions (with
    construction rather than rejection where a polynomial identity is
    required, as in comm-f); free gammas are unconstrained rationals.
    """
    case = CASE_ALIASES.get(case, case)
    if case not in CASES:
        raise CasePreconditionError(f"unknown case {case!r}")
    while True:
        p: dict = {}
        if case.startswith("qneq1"):
            while True:
                q = random_rational(rng, nonzero=True)
                if q not in (ONE, -ONE):
                    break
            p["q"] = q
            qi = ONE / q
        if case in ("comm-b", "comm-e-b"):
            p["m11"] = random_rational(rng, nonzero=True)
            p["m12"] = random_rational(rng)
            if (p["m11"], p["m12"]) == (ONE, ZERO):
                continue
        elif case in ("comm-c", "comm-e-c"):
            p["m12"] = random_rational(rng)
            p["m22"] = _rand_avoid(rng, (ZERO, ONE))
        elif case in ("comm-d", "comm-e-d"):
            p["m11"] = _rand_avoid(rng, (ZERO, ONE))
            p["m12"] = random_rational(rng)
            p["m22"] = _rand_avoid(rng, (ZERO, ONE))
        elif case == "comm-f":
            m11 = _rand_avoid(rng, (ZERO, ONE))
            m21 = random_rational(rng, nonzero=True)
            m12 = random_rational(rng, nonzero=True)
            m22 = 1 + m21 * m12 / (m11 - 1)
            if m11 * m22 == m12 * m21:
                continue
            p.update(m11=m11, m12=m12, m21=m21, m22=m22)
        elif case == "comm-g":
            m11 = random_rational(rng, nonzero=True)
            m21 = random_rational(rng, nonzero=True)
            m12 = random_rational(rng, nonzero=True)
            m22 = random_rational(rng, nonzero=True)
            if (m22 - 1) * (m11 - 1) == m21 * m12 or m11 * m22 == m12 * m21:
                continue
            p.update(m11=m11, m12=m12, m21=m21, m22=m22)
        elif case == "qm1-c":
            p["m11"] = _rand_avoid(rng, (ZERO, ONE, -ONE))
        elif case == "qm1-e":
            p["m22"] = _rand_avoid(rng, (ZERO, ONE, -ONE))
        elif case == "qm1-f":
            p["m11"] = _rand_avoid(rng, (ZERO, -ONE))
            p["m22"] = _rand_avoid(rng, (ZERO, -ONE))
        elif case == "qm1ii-a":
            p["m12"] = random_rational(rng, nonzero=True)
        elif case == "qm1ii-b":
            p["m12"] = random_rational(rng, nonzero=True)
            p["m21"] = random_rational(rng, nonzero=True)
            if p["m12"] * p["m21"] == 1:
                continue
        elif case == "qneq1-b":
            p["m11"] = _rand_avoid(rng, (q, ZERO))
        elif case in ("qneq1-c", "qneq1-d", "qneq1-e"):
            p["m22"] = _rand_avoid(rng, (qi, ZERO))
        elif case == "qneq1-f":
            p["m11"] = _rand_avoid(rng, (q, qi, ONE, ZERO))
            p["m22"] = _rand_avoid(rng, (qi, ZERO))
        elif case == "jordan-a":
            # exercise the free-gamma21 branch half the time
            p["m12"] = Fraction(2) if rng.random() < 0.5 else random_rational(rng)
        elif case == "jordan-b":
            p["m11"] = _rand_avoid(rng, (ZERO, ONE))
            p["m12"] = random_rational(rng)
        for gp in CASE_FREE_PARAMS[case]:
            p[gp] = random_rational(rng, span=3)
        return p


def _rand_avoid(rng: random.Random, avoid) -> Fraction:
    while True:
        x = random_rational(rng, nonzero=True)
        if x not in avoid:
            return x


def random_admissible_automorphism(
    alg: QuadraticAlgebra, rng: random.Random
) -> GradedAutomorphism:
    """Random automorphism from the known shape of each catalog family."""
    mu = None
    nv = alg.nv
    r = alg.R
    if nv == 2 and r.dim == 1:
        rel = Tensor.from_vec(r.basis()[0], 2, 2)
        jordan = rel.entries.get((1, 1), ZERO) != 0
        q = -rel.entries.get((1, 0), ZERO)
        if jordan:
            a = random_rational(rng, nonzero=True)
            return check_automorphism(Matrix([[a, random_rational(rng)], [0, a]]), alg)
        if q == -1 and rng.random() < ONE / 3:
            return check_automorphism(
                Matrix(
                    [
                        [0, random_rational(rng, nonzero=True)],
                        [random_rational(rng, nonzero=True), 0],
                    ]
                ),
                alg,
            )
        if q != 1:
            return check_automorphism(
                Matrix(
                    [
                        [random_rational(rng, nonzero=True), 0],
                        [0, random_rational(rng, nonzero=True)],
                    ]
                ),
                alg,
            )
    # polynomial-type: any invertible matrix preserves the relations
    while True:
        m = Matrix([[random_rational(rng) for _ in range(nv)] for _ in range(nv)])
        if rank(dict(enumerate(r)) for r in m.rows) == nv:
            return check_automorphism(m, alg)


def random_admissible_derivation(
    alg: QuadraticAlgebra, sigma: GradedAutomorphism, rng: random.Random
) -> DerivationLift:
    """Random admissible lift for a fixed sigma, sampled from the
    kernel of the linear admissibility system."""
    basis = admissible_lift_space(alg, sigma)
    nv = alg.nv
    coeffs = [random_rational(rng, span=3) for _ in basis]
    images = [
        Tensor.combine(nv, 2, ((c, elem[i]) for c, elem in zip(coeffs, basis)))
        for i in range(nv)
    ]
    return extend_derivation(images, sigma, alg)
