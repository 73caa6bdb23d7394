"""Acceptance suite.

One test per criterion; each prints a single PASS line on success and
asserts exact equality everywhere (all arithmetic is rational, so no
tolerances exist anywhere in this file).

Criteria 1-3 build instance pools that criterion 5 reuses for the
superpotential checks, mirroring how the suites are specified.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from orenaka import (
    CASES,
    Matrix,
    Subspace,
    Tensor,
    build_sequence_pair,
    check_automorphism,
    derivation_quotient_relations,
    dim2_instance_oracle,
    dim2_relation_matrix,
    divergence,
    enumerate_solution,
    extend_derivation,
    gamma_images,
    hdet,
    identity_automorphism,
    make_jordan_plane,
    make_polynomial,
    make_quantum_plane,
    nakayama_of_A,
    nakayama_of_A_dim2_closed_form,
    nakayama_of_B,
    polynomial_divergence_oracle,
    random_admissible_automorphism,
    random_admissible_derivation,
    random_case_params,
    subspace_intersect,
)
from orenaka.quadratic import QuadraticAlgebra

from conftest import CATALOG_QS, compose_rows, minor_det, rand_frac, rand_invertible, subspace_sum


def _pass(n, msg, t0):
    print(f"\nACCEPTANCE {n}: PASS ({time.time() - t0:.1f}s) - {msg}")


@pytest.fixture(scope="module")
def pool_polynomial():
    """Criterion 1 pool: 50 random admissible derivations per n."""
    rng = random.Random(101)
    pool = []
    for n in (2, 3, 4):
        alg = make_polynomial(n)
        sid = identity_automorphism(alg)
        for _ in range(50):
            delta = random_admissible_derivation(alg, sid, rng)
            rep = nakayama_of_B(sid, delta)
            pool.append(rep)
    return pool


@pytest.fixture(scope="module")
def pool_cy():
    """Criterion 2 pool."""
    rng = random.Random(102)
    comm = make_quantum_plane(1)
    sid = identity_automorphism(comm)
    family = []
    for _ in range(20):
        l1, l2, l3, l4 = (rand_frac(rng) for _ in range(4))
        gamma = ((l1, -2 * l4, l2), (l3, -2 * l1, l4))
        delta = extend_derivation(gamma_images(gamma), sid, comm)
        family.append(nakayama_of_B(sid, delta))
    outlier = nakayama_of_B(
        sid, extend_derivation(gamma_images(((1, 0, 0), (0, 0, 0))), sid, comm)
    )
    matched = []
    for q in CATALOG_QS:
        case = "qm1-a" if q == -1 else "qneq1-a"
        for _ in range(5):
            params = random_case_params(case, rng)
            if q != -1:
                params["q"] = q
            inst = enumerate_solution(case, params)
            matched.append(nakayama_of_B(inst.sigma, inst.delta))
    for _ in range(5):
        params = random_case_params("jordan-a", rng)
        params["m12"] = Fraction(2)
        inst = enumerate_solution("jordan-a", params)
        matched.append(nakayama_of_B(inst.sigma, inst.delta))
    return family, outlier, matched


@pytest.fixture(scope="module")
def pool_solutions():
    """Criterion 3 pool: 5 draws for each classified case."""
    rng = random.Random(103)
    pool = []
    for case in CASES:
        for _ in range(5):
            inst = enumerate_solution(case, random_case_params(case, rng))
            rep = nakayama_of_B(inst.sigma, inst.delta)
            pool.append((inst, rep))
    return pool


def test_criterion_1_polynomial_divergence(pool_polynomial):
    t0 = time.time()
    for rep in pool_polynomial:
        n = rep.algebra.nv
        assert rep.mu_B_on_V == Matrix.identity(n)
        assert rep.mu_B[n, n] == 1
        oracle = polynomial_divergence_oracle(rep.delta)
        z_minus = Tensor(n, 1, {(j,): rep.mu_B[n, j] for j in range(n)})
        assert z_minus == oracle
    _pass(1, f"{len(pool_polynomial)} polynomial instances, mu_B(z) - z = "
             "sum of partials, mu_B|A = id", t0)


def test_criterion_2_dim2_cy_classification(pool_cy):
    t0 = time.time()
    family, outlier, matched = pool_cy
    for rep in family:
        assert rep.mu_B == Matrix.identity(3)
        assert rep.calabi_yau
    assert outlier.mu_B != Matrix.identity(3)
    assert not outlier.calabi_yau
    for rep in matched:
        assert rep.mu_B == Matrix.identity(3)
        assert rep.calabi_yau
    _pass(2, f"{len(family)} l-family draws identity, outlier non-identity, "
             f"{len(matched)} sigma = mu_A instances identity", t0)


def test_criterion_3_closed_form_equivalence(pool_solutions):
    t0 = time.time()
    for inst, rep in pool_solutions:
        assert rep.mu_B == dim2_instance_oracle(inst), inst.case
    cases = {inst.case for inst, _ in pool_solutions}
    assert cases == set(CASES)
    _pass(3, f"{len(pool_solutions)} instances over {len(cases)} cases match "
             "the closed forms entrywise", t0)


def test_criterion_4_divergence_invariance():
    t0 = time.time()
    rng = random.Random(104)
    algebras = [make_polynomial(2), make_polynomial(3), make_polynomial(4),
                make_jordan_plane()] + [make_quantum_plane(q) for q in CATALOG_QS]
    changed_pairs = 0
    total = 0
    for alg in algebras:
        for _ in range(10):
            sigma = random_admissible_automorphism(alg, rng)
            delta = random_admissible_derivation(alg, sigma, rng)
            base = divergence(build_sequence_pair(sigma, delta))
            eps = [
                Tensor.from_vec(
                    alg.R.basis()[rng.randrange(alg.R.dim)], alg.nv, 2
                ).scale(rand_frac(rng))
                if alg.R.dim
                else Tensor(alg.nv, 2)
                for _ in range(alg.nv)
            ]
            perturbed = delta.perturb(eps)
            noisy_sp = build_sequence_pair(sigma, perturbed, rng=rng)
            other = divergence(noisy_sp)
            assert other.divergence == base.divergence
            total += 1
            if (other.delta_r, other.delta_l) != (base.delta_r, base.delta_l):
                changed_pairs += 1  # recorded, never asserted equal
    _pass(4, f"{total} perturbed instances keep the divergence "
             f"({changed_pairs} changed their (delta_r, delta_l))", t0)


def test_criterion_5_superpotential_suite(pool_polynomial, pool_cy, pool_solutions):
    t0 = time.time()
    family, outlier, matched = pool_cy
    reps = list(pool_polynomial) + family + [outlier] + matched + [
        rep for _, rep in pool_solutions
    ]
    for rep in reps:
        alg = rep.algebra
        d = alg.certificate.d
        # both closed forms, membership in the top Koszul space of B and
        # the twist identity were asserted inside nakayama_of_B
        oh = rep.omega_hat
        twisted = oh.apply_matrix_at(1, rep.mu_B).tau(d).scale(Fraction(-1) ** d)
        assert twisted == oh
        assert derivation_quotient_relations(oh, d - 1) == rep.relations_hat
        assert derivation_quotient_relations(alg.omega, d - 2) == alg.R
    _pass(5, f"{len(reps)} instances: both superpotential forms agree, "
             "omega-hat in W-hat, twist holds, quotients recover R-hat and R", t0)


def test_criterion_6_hdet_suite():
    t0 = time.time()
    rng = random.Random(106)
    algebras = [make_polynomial(2), make_polynomial(3), make_polynomial(4),
                make_jordan_plane()] + [make_quantum_plane(q) for q in CATALOG_QS]
    for alg in algebras:
        assert hdet(identity_automorphism(alg)) == 1
        for _ in range(20):
            s = random_admissible_automorphism(alg, rng)
            t = random_admissible_automorphism(alg, rng)
            assert hdet(s.then(t)) == hdet(s) * hdet(t)
    for q in CATALOG_QS:
        alg = make_quantum_plane(q)
        for _ in range(5):
            m11, m22 = rand_frac(rng, nonzero=True), rand_frac(rng, nonzero=True)
            sig = check_automorphism(Matrix([[m11, 0], [0, m22]]), alg)
            assert hdet(sig) == m11 * m22
    comm = make_polynomial(2)
    for _ in range(20):
        m = rand_invertible(rng, 2)
        assert hdet(check_automorphism(m, comm)) == minor_det(m.rows)
    _pass(6, "hdet(id) = 1, multiplicativity on 20 pairs per algebra, "
             "diagonal m11*m22 and commutative det(M) laws", t0)


def test_criterion_7_structural_suite():
    t0 = time.time()
    rng = random.Random(107)
    for alg in [make_polynomial(3), make_jordan_plane()] + [
        make_quantum_plane(q) for q in CATALOG_QS
    ]:
        cert = alg.certify_koszul(8)
        assert cert.bound >= 8
    for n in (2, 3, 4):
        alg = make_polynomial(n)
        for m in range(n + 2):
            assert alg.koszul_space(m).dim == math.comb(n, m)
    for alg in [make_polynomial(3), make_polynomial(4), make_jordan_plane()] + [
        make_quantum_plane(q) for q in CATALOG_QS
    ]:
        d = alg.certificate.d
        for i in range(d + 1):
            assert alg.koszul_space(i).dim == alg.koszul_space(d - i).dim
        for i in range(2, d + 1):
            for j in range(0, 2):
                prod = compose_rows(
                    alg.differential_rows(i, j), alg.differential_rows(i - 1, j + 1)
                )
                assert all(e == 0 for row in prod for e in row.values())
    for _ in range(200):
        def rnd():
            rows = [
                {i: rand_frac(rng, 3) for i in rng.sample(range(8), rng.randint(1, 4))}
                for _ in range(rng.randint(0, 4))
            ]
            return Subspace(8, rows)

        s, u = rnd(), rnd()
        assert s.dim + u.dim == subspace_sum(s, u).dim + subspace_intersect(s, u).dim
    _pass(7, "Koszul certificates to N = 8, binomial W-dims, dimension "
             "symmetry, boundary maps square to zero, 200 Grassmann pairs", t0)


def test_criterion_8_nakayama_oracle():
    t0 = time.time()
    rng = random.Random(108)
    count = 0
    while count < 20:
        base = (
            dim2_relation_matrix("quantum", rand_frac(rng, nonzero=True))
            if count % 2 == 0
            else dim2_relation_matrix("jordan")
        )
        g = rand_invertible(rng, 2, span=3)
        qp = g.transpose() * base * g
        scalef = rand_frac(rng, nonzero=True)
        qp = scalef * qp
        rel = Tensor(2, 2, {(a, b): qp[a, b] for a in range(2) for b in range(2)})
        alg = QuadraticAlgebra(["x1", "x2"], [rel])
        alg.certify_as_regular()
        assert nakayama_of_A(alg).matrix == nakayama_of_A_dim2_closed_form(qp)
        count += 1
    for q in (2, 3, Fraction(1, 2), -1):
        assert nakayama_of_A(make_quantum_plane(q)).matrix == Matrix(
            [[q, 0], [0, Fraction(1) / q]]
        )
    assert nakayama_of_A(make_jordan_plane()).matrix == Matrix([[1, 2], [0, 1]])
    _pass(8, "20 random Q shapes match -(Q^-1)^T Q; quantum and Jordan "
             "quoted values reproduced", t0)
