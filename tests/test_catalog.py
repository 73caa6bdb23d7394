import itertools
import math
import random
from fractions import Fraction

import pytest

from orenaka import (
    CASES,
    CasePreconditionError,
    Matrix,
    NotAdmissibleError,
    Tensor,
    antisymmetrizer_tensor,
    build_sequence_pair,
    check_automorphism,
    cy_classifier_dim2,
    dim2_delta_rl_closed_form,
    dim2_instance_oracle,
    dim2_hdet,
    dim2_nakayama_oracle,
    dim2_relation_matrix,
    enumerate_solution,
    extend_derivation,
    gamma_images,
    identity_automorphism,
    make_jordan_plane,
    make_polynomial,
    make_quantum_plane,
    nakayama_of_B,
    polynomial_divergence_oracle,
    r_basis_tensor,
    random_admissible_derivation,
    random_case_params,
)

from orenaka.catalog import case_param_names

from conftest import minor_det


def test_make_polynomial_degenerate_and_small():
    a1 = make_polynomial(1)
    assert a1.certificate.d == 1 and a1.R.dim == 0
    a2 = make_polynomial(2)
    assert a2.certificate.d == 2 and a2.R.dim == 1
    a3 = make_polynomial(3)
    assert a3.koszul_space(2).dim == 3 and a3.koszul_space(3).dim == 1


def test_make_quantum_plane_cases():
    assert make_quantum_plane(1).R == make_polynomial(2).R
    qm1 = make_quantum_plane(-1)
    assert qm1.omega == Tensor(2, 2, {(0, 1): 1, (1, 0): 1})
    with pytest.raises(ValueError):
        make_quantum_plane(0)


def test_make_jordan_plane_nakayama():
    from orenaka import nakayama_of_A

    assert nakayama_of_A(make_jordan_plane()).matrix == Matrix([[1, 2], [0, 1]])


def test_r_basis_tensor_base_case():
    assert r_basis_tensor(2, (1, 2)) == Tensor(2, 2, {(0, 1): 1, (1, 0): -1})


def test_r_basis_tensor_requires_increasing():
    with pytest.raises(ValueError):
        r_basis_tensor(3, (2, 1))
    with pytest.raises(ValueError):
        r_basis_tensor(3, (1, 1))


def test_antisymmetrizer_repeated_index_vanishes():
    assert antisymmetrizer_tensor(3, (1, 1)).is_zero()
    assert antisymmetrizer_tensor(3, (1, 2, 1)).is_zero()
    assert antisymmetrizer_tensor(4, (2, 3, 3, 4)).is_zero()


def test_antisymmetrizer_permutation_sign():
    rng = random.Random(61)
    base = antisymmetrizer_tensor(3, (1, 2, 3))
    perms = list(itertools.permutations((1, 2, 3)))
    for perm in perms:
        inv = sum(
            1
            for i in range(3)
            for j in range(i + 1, 3)
            if perm[i] > perm[j]
        )
        assert antisymmetrizer_tensor(3, perm) == base.scale(Fraction(-1) ** inv)


def test_antisymmetrizer_left_expansion():
    # r_I also expands along the first factor with alternating signs
    n = 4
    idx = (1, 2, 4)
    lhs = antisymmetrizer_tensor(n, idx)
    rhs = Tensor(n, 3)
    for j, ij in enumerate(idx):
        rest = idx[:j] + idx[j + 1 :]
        sign = Fraction(-1) ** j
        rhs = rhs + Tensor.word(n, (ij - 1,)).tensor(
            antisymmetrizer_tensor(n, rest)
        ).scale(sign)
    assert lhs == rhs


def test_r_basis_in_koszul_space_with_full_count():
    for n in (3, 4):
        a = make_polynomial(n)
        for m in range(2, n + 1):
            vecs = [
                r_basis_tensor(n, idx)
                for idx in itertools.combinations(range(1, n + 1), m)
            ]
            w = a.koszul_space(m)
            assert all(w.contains(v.to_vec()) for v in vecs)
            from orenaka import Subspace

            span = Subspace(n**m, [v.to_vec() for v in vecs])
            assert span.dim == math.comb(n, m) == w.dim


def test_polynomial_divergence_oracle_values():
    a = make_polynomial(2)
    sid = identity_automorphism(a)
    zero = extend_derivation([Tensor(2, 2)] * 2, sid, a)
    assert polynomial_divergence_oracle(zero).is_zero()
    delta = extend_derivation([Tensor.word(2, (0, 0)), Tensor(2, 2)], sid, a)
    assert polynomial_divergence_oracle(delta) == Tensor(2, 1, {(0,): 2})


def test_polynomial_oracle_matches_engine():
    rng = random.Random(62)
    for n in (2, 3):
        a = make_polynomial(n)
        sid = identity_automorphism(a)
        for _ in range(5):
            delta = random_admissible_derivation(a, sid, rng)
            from orenaka import divergence

            assert divergence(build_sequence_pair(sid, delta)).divergence == polynomial_divergence_oracle(delta)


def test_dim2_hdet_values():
    q = dim2_relation_matrix("quantum", 2)
    assert dim2_hdet(q, Matrix([[3, 0], [0, 5]])) == 15
    comm = dim2_relation_matrix("commutative")
    m = Matrix([[1, 2], [3, 4]])
    assert dim2_hdet(comm, m) == minor_det(m.rows)
    with pytest.raises(NotAdmissibleError):
        dim2_hdet(q, Matrix([[0, 1], [1, 0]]))


def test_dim2_oracle_identity_case():
    comm = dim2_relation_matrix("commutative")
    out = dim2_nakayama_oracle(comm, Matrix.identity(2), (0, 0), (0, 0))
    assert out == Matrix.identity(3)


def _naka_equation_comm(m, gamma):
    (g11, g12, g13), (g21, g22, g23) = gamma
    det = minor_det(m.rows)
    c_r = (m[1, 1] * g11 - m[0, 1] * g21 + g22, m[0, 0] * g23 - m[1, 0] * g13)
    c_l = (g11, m[1, 1] * g12 - m[0, 1] * g22 + g23)
    minv = m.inverse()
    upsilon = [
        c_r[j] + sum(c_l[s] * minv[s, j] for s in range(2)) for j in range(2)
    ]
    return Matrix(
        [
            [m[1, 1] / det, -m[0, 1] / det, 0],
            [-m[1, 0] / det, m[0, 0] / det, 0],
            [upsilon[0], upsilon[1], det],
        ]
    )


def _naka_equation_qm1(m, gamma):
    (g11, g12, g13), (g21, g22, g23) = gamma
    m11, m22 = m[0, 0], m[1, 1]
    return Matrix(
        [
            [-1 / m11, 0, 0],
            [0, -1 / m22, 0],
            [
                (m22 - 1 / m11) * g11 + g22,
                (m11 - 1 / m22) * g23 - g12,
                m11 * m22,
            ],
        ]
    )


def _naka_equation_qneq1(m, gamma, q):
    (g11, g12, g13), (g21, g22, g23) = gamma
    m11, m22 = m[0, 0], m[1, 1]
    return Matrix(
        [
            [q / m11, 0, 0],
            [0, 1 / (q * m22), 0],
            [
                (m22 + q / m11) * g11 + g22,
                (m11 + 1 / (q * m22)) * g23 + g12 / q,
                m11 * m22,
            ],
        ]
    )


def _naka_equation_jordan(m, gamma):
    (g11, g12, g13), (g21, g22, g23) = gamma
    m11, m12 = m[0, 0], m[0, 1]
    i1 = 1 / m11
    # the extra -1 on the gamma21 coefficient is forced: with it the
    # sigma = mu_A family lands on the identity, as the Calabi-Yau
    # classification requires
    z1 = (m11 + i1) * g11 + (m11 - i1 - m12) * g21 + g22
    z2 = (
        (1 + 3 * i1 - i1 * i1 * m12) * g11
        + i1 * g12
        + (i1 * i1 * m12 - 3 * i1 - 1) * g21
        - i1 * g22
        + (1 + m11) * g23
    )
    return Matrix(
        [
            [i1, 2 * i1 - i1 * i1 * m12, 0],
            [0, i1, 0],
            [z1, z2, m11 * m11],
        ]
    )


def _naka_equation_qm1ii_b(m, gamma):
    (g11, g12, g13), (g21, g22, g23) = gamma
    m12, m21 = m[0, 1], m[1, 0]
    # x2 coefficient of mu_B(z) carries m21^{-2}, forced by the block
    # formula; mu_B must preserve R-hat
    return Matrix(
        [
            [0, -1 / m21, 0],
            [-1 / m12, 0, 0],
            [
                m12 * g21 - g23 / m12,
                g21 / (m21 * m21) - m12 * m21 * g23,
                m12 * m21,
            ],
        ]
    )


def test_naka_equations_match_block_oracle():
    rng = random.Random(63)
    for case, builder in (
        ("comm-g", lambda i: _naka_equation_comm(i.m, i.gamma)),
        ("qm1-f", lambda i: _naka_equation_qm1(i.m, i.gamma)),
        ("qneq1-f", lambda i: _naka_equation_qneq1(i.m, i.gamma, i.q)),
        ("jordan-a", lambda i: _naka_equation_jordan(i.m, i.gamma)),
        ("jordan-b", lambda i: _naka_equation_jordan(i.m, i.gamma)),
        ("qm1ii-b", lambda i: _naka_equation_qm1ii_b(i.m, i.gamma)),
    ):
        for _ in range(4):
            inst = enumerate_solution(case, random_case_params(case, rng))
            assert builder(inst) == dim2_instance_oracle(inst), case


def test_all_solution_cases_admissible_and_match_oracle():
    rng = random.Random(64)
    for case in CASES:
        for _ in range(3):
            inst = enumerate_solution(case, random_case_params(case, rng))
            rep = nakayama_of_B(inst.sigma, inst.delta)
            assert rep.mu_B == dim2_instance_oracle(inst), case


def test_case_param_names_cover_random_params():
    # the accepted names are exactly what random_case_params draws, up
    # to the free gammas it always draws
    rng = random.Random(3)
    for case in CASES:
        names = case_param_names(case)
        for _ in range(3):
            drawn = set(random_case_params(case, rng))
            assert drawn == set(names), case
    want = ("q", "g11", "g13", "g21", "g23")
    assert case_param_names("qneq-1-a") == case_param_names("qneq1-a") == want


def test_enumerate_solution_spec_examples():
    # q=-1 case (a) with chosen frees: gamma12 = gamma22 = 0
    inst = enumerate_solution(
        "qm1-a", {"g11": 1, "g13": 2, "g21": 3, "g23": 5}
    )
    assert inst.gamma == ((1, 0, 2), (3, 0, 5))
    # jordan case (b) fill
    inst = enumerate_solution("jordan-b", {"m11": 2, "m12": 0, "g22": 1, "g23": 0})
    (g11, g12, g13), (g21, g22, g23) = inst.gamma
    assert (g21, g11) == (0, 1)
    assert g12 == Fraction(1, 1) * 1 + 0  # (m11-1)^{-1}(m12+1) g22 + g23
    assert g13 == Fraction(2, 1) * 1  # (m11-1)^{-1}(m11+m12)((m11-1)^{-1} g22 + g23)
    # commutative (a): all six gammas free, always admissible
    inst = enumerate_solution(
        "comm-a", {"g11": 1, "g12": 2, "g13": 3, "g21": 4, "g22": 5, "g23": 6}
    )
    assert inst.m == Matrix.identity(2)


def test_case_precondition_violations():
    with pytest.raises(CasePreconditionError):
        enumerate_solution("comm-c", {"m22": 1, "m12": 1})
    with pytest.raises(CasePreconditionError):
        enumerate_solution("qneq1-a", {"q": 1})
    with pytest.raises(CasePreconditionError):
        enumerate_solution("nope-x", {})
    with pytest.raises(CasePreconditionError):
        enumerate_solution("qm1ii-b", {"m12": 2, "m21": Fraction(1, 2)})


def test_unknown_parameter_is_a_precondition_violation():
    # a name the case does not read is refused, not silently dropped
    with pytest.raises(CasePreconditionError) as err:
        enumerate_solution("qm1-a", {"g11": 1, "g12": 5, "g13": 2, "g21": 3, "g23": 5})
    assert str(err.value) == (
        "unknown parameter 'g12' for case 'qm1-a'; accepted: g11, g13, g21, g23"
    )
    with pytest.raises(CasePreconditionError):
        enumerate_solution("qneq-1-a", {"q": 2, "bogus": 7})
    # every accepted name is still accepted
    rng = random.Random(66)
    for case in CASES:
        params = random_case_params(case, rng)
        params.update({name: params.get(name, 0) for name in case_param_names(case)})
        try:
            enumerate_solution(case, params)
        except CasePreconditionError as e:
            assert "unknown parameter" not in str(e), case


def test_every_case_sequence_pair_verifies():
    # the d = 2 coordinate towers of all 25 cases, re-checked in V^(x)3
    rng = random.Random(67)
    for case in CASES:
        inst = enumerate_solution(case, random_case_params(case, rng))
        build_sequence_pair(inst.sigma, inst.delta).verify()


def test_mirrored_cases_flagged_and_admissible():
    rng = random.Random(65)
    for case in ("comm-e-b", "comm-e-c", "comm-e-d"):
        inst = enumerate_solution(case, random_case_params(case, rng))
        assert inst.derived_by_symmetry
        assert inst.m[1, 0] != 0 or inst.m[0, 1] == 0  # mirrored shape: m12 = 0
        assert inst.m[0, 1] == 0


def test_jordan_a_gamma21_branches():
    # gamma21 is forced to zero unless m12 = 2
    inst = enumerate_solution("jordan-a", {"m12": 0, "g21": 7, "g22": 0, "g23": 0, "g13": 0})
    assert inst.gamma[1][0] == 0
    inst2 = enumerate_solution("jordan-a", {"m12": 2, "g21": 7, "g22": 0, "g23": 0, "g13": 0})
    assert inst2.gamma[1][0] == 7
    # nonzero gamma21 with m12 = 2 is admissible and Calabi-Yau
    rep = nakayama_of_B(inst2.sigma, inst2.delta)
    assert rep.calabi_yau and rep.mu_B == Matrix.identity(3)


def test_cy_classifier_l_family():
    a = make_quantum_plane(1)
    sid = identity_automorphism(a)
    l1, l2, l3, l4 = Fraction(1), Fraction(2), Fraction(3), Fraction(4)
    gamma = ((l1, -2 * l4, l2), (l3, -2 * l1, l4))
    delta = extend_derivation(gamma_images(gamma), sid, a)
    verdict = cy_classifier_dim2(a, sid, delta)
    assert verdict.is_cy
    assert verdict.witness["l"] == ("1", "2", "3", "4")
    rep = nakayama_of_B(sid, delta)
    assert rep.calabi_yau == verdict.is_cy


def test_cy_classifier_out_of_family():
    a = make_quantum_plane(1)
    sid = identity_automorphism(a)
    delta = extend_derivation(gamma_images(((1, 0, 0), (0, 0, 0))), sid, a)
    verdict = cy_classifier_dim2(a, sid, delta)
    rep = nakayama_of_B(sid, delta)
    assert not verdict.is_cy and not rep.calabi_yau


def test_cy_classifier_quantum_any_admissible_delta():
    rng = random.Random(66)
    a = make_quantum_plane(3)
    sig = check_automorphism(Matrix([[3, 0], [0, Fraction(1, 3)]]), a)
    for _ in range(5):
        delta = random_admissible_derivation(a, sig, rng)
        verdict = cy_classifier_dim2(a, sig, delta)
        rep = nakayama_of_B(sig, delta)
        assert verdict.is_cy and rep.calabi_yau


def test_cy_classifier_agrees_with_engine_randomly():
    rng = random.Random(67)
    from orenaka import random_admissible_automorphism

    for a in (make_quantum_plane(1), make_quantum_plane(-1), make_jordan_plane()):
        for _ in range(6):
            sig = random_admissible_automorphism(a, rng)
            delta = random_admissible_derivation(a, sig, rng)
            verdict = cy_classifier_dim2(a, sig, delta)
            rep = nakayama_of_B(sig, delta)
            assert verdict.is_cy == rep.calabi_yau


def test_delta_rl_closed_form_rejects_an_unknown_family():
    # the closed forms are keyed by case prefix, not by the CLI family name
    with pytest.raises(ValueError, match=r"^unknown family 'quantum-plane'$"):
        dim2_delta_rl_closed_form("quantum-plane", Matrix.identity(2), ((1, 0, 0), (0, 1, 0)))


def test_sampler_draws_scaled_nakayama_powers_off_the_catalog():
    # relations that are neither a dim-2 plane nor the commutators: sigma
    # is c * mu_A^k, and the whole pipeline runs on what it draws.  mu_A
    # is the identity on Sklyanin(1, 2, 3) and on swell's B, not on the
    # Jordan plane relabelled so that its x1 x1 term sits at (0, 0)
    from orenaka import QuadraticAlgebra, nakayama_of_A, random_admissible_automorphism, twist_solve
    from test_quadratic import _sklyanin, _sklyanin_extension

    relabelled = QuadraticAlgebra(["x1", "x2"], [Tensor(2, 2, {(0, 1): 1, (1, 0): -1, (0, 0): -1})])
    rng = random.Random(68)
    for name, a in (
        ("sklyanin123", _sklyanin()),
        ("swell-B", _sklyanin_extension()),
        ("jordan-relabelled", relabelled),
    ):
        mu = nakayama_of_A(a).matrix
        powers = [Matrix.identity(a.nv), mu, mu * mu]
        for _ in range(3):
            m = random_admissible_automorphism(a, rng).matrix
            # each candidate c * p with c read at the first nonzero entry of p
            scaled = []
            for p in powers:
                i, j = min((i, j) for i in range(a.nv) for j in range(a.nv) if p[i, j])
                scaled.append(p * (m[i, j] / p[i, j]))
            assert m in scaled, name
            sig = check_automorphism(m, a)
            rep = nakayama_of_B(sig, random_admissible_derivation(a, sig, rng))
            assert twist_solve(rep.omega_hat) == rep.mu_B, name
    assert nakayama_of_A(relabelled).matrix != Matrix.identity(2)
