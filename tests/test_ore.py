import itertools
import math
import random
from fractions import Fraction

import pytest

from orenaka import (
    CASES,
    EngineInvariantError,
    Matrix,
    QuadraticAlgebra,
    SequencePair,
    Subspace,
    Tensor,
    build_sequence_pair,
    check_automorphism,
    derivation_quotient_relations,
    divergence,
    enumerate_solution,
    extend_derivation,
    gamma_images,
    identity_automorphism,
    make_jordan_plane,
    make_polynomial,
    make_quantum_plane,
    nakayama_of_A,
    nakayama_of_B,
    ore_relations,
    polynomial_divergence_oracle,
    random_admissible_automorphism,
    random_admissible_derivation,
    random_case_params,
    r_basis_tensor,
    twist_solve,
)

from orenaka.linalg import FactoredColumns, _unscaled, expand_scaled, sandwich_map, solve_columns

from conftest import (
    dense_extension,
    expand_through,
    first_escape_by_tensors,
    minor_det,
    rand_frac,
    word_twist_holds,
)


def _simple_delta(a, images):
    sid = identity_automorphism(a)
    return sid, extend_derivation(images, sid, a)


def test_apply_outside_sandwich_is_engine_invariant():
    # the towers are only defined on W_i; a tensor outside the sandwich
    # is an engine fault (exit 4 in the CLI), not malformed input
    a = make_polynomial(3)
    sid, delta = _simple_delta(a, [Tensor.word(3, (0, 0))] + [Tensor(3, 2)] * 2)
    sp = build_sequence_pair(sid, delta)
    stray = Tensor.word(3, (0, 0, 1))  # x1 (x) x1 (x) x2 is not in V (x) W_2
    assert expand_through(stray, 1, a.koszul_space(2), 2, 0) is None
    with pytest.raises(EngineInvariantError):
        sp.apply_left(2, stray, 1)
    with pytest.raises(EngineInvariantError):
        sp.apply_right(2, stray, 1)


def _lemma_sequence_pair(a, delta):
    """Closed-form towers for a polynomial algebra with sigma = id.

    delta_{m,r}(r_I) substitutes each index of the basis antisymmetrizer
    through the lift coefficients and tensors a generator on the right;
    the left tower mirrors it.  Returns a SequencePair over the RREF
    bases of the W_i so the engine can consume it directly.
    """
    n = a.nv
    k = {
        (i, s, t): delta.images[i].entries.get((s, t), Fraction(0))
        for i in range(n)
        for s in range(n)
        for t in range(n)
    }

    def right_of(idx):
        out = Tensor(n, len(idx) + 1)
        for j, ij in enumerate(idx):
            for s in range(n):
                for t in range(n):
                    c = k[(ij - 1, s, t)]
                    if c:
                        rep = idx[:j] + (s + 1,) + idx[j + 1 :]
                        out = out + _anti(n, rep).tensor(Tensor.word(n, (t,))).scale(c)
        return out

    def left_of(idx):
        out = Tensor(n, len(idx) + 1)
        for j, ij in enumerate(idx):
            for s in range(n):
                for t in range(n):
                    c = k[(ij - 1, s, t)]
                    if c:
                        rep = idx[:j] + (t + 1,) + idx[j + 1 :]
                        out = out + Tensor.word(n, (s,)).tensor(_anti(n, rep)).scale(c)
        return out

    sid = delta.sigma
    right = [[Tensor(n, 1)], list(delta.images)]
    left = [[Tensor(n, 1)], list(delta.images)]

    for m in range(2, a.certificate.d + 1):
        combos = list(itertools.combinations(range(1, n + 1), m))
        basis_vecs = [r_basis_tensor(n, idx) for idx in combos]
        cols = [v.to_vec() for v in basis_vecs]
        w = a.koszul_space(m)
        rstage, lstage = [], []
        particulars, _ = solve_columns(cols, [dict(b) for b in w.basis()])
        for x in particulars:
            assert x is not None
            rt = Tensor(n, m + 1)
            lt = Tensor(n, m + 1)
            for c, idx in zip(x, combos):
                if c:
                    rt = rt + right_of(idx).scale(c)
                    lt = lt + left_of(idx).scale(c)
            rstage.append(rt)
            lstage.append(lt)
        right.append(rstage)
        left.append(lstage)
    sp = SequencePair(sid, delta, _w_coordinates(a, right, 0), _w_coordinates(a, left, 1))
    # the coordinates give the closed-form tensors back
    assert sp.right == right and sp.left == left
    return sp


def _w_coordinates(a, tower, left):
    """A tower of tensors read into the coordinates of ``SequencePair``:
    W_i (x) V keyed l * nv + j (left = 0), V (x) W_i keyed u * dim W_i + l
    (left = 1)."""
    out = []
    for i, stage in enumerate(tower):
        wi = a.koszul_space(i)
        coords = []
        for t in stage:
            got = expand_scaled(t, left, wi, i, 1 - left)
            assert got is not None
            nums, den = got
            if left:
                coords.append(({u * wi.dim + l: c for ((u,), l, _), c in nums.items()}, den))
            else:
                coords.append(({l * a.nv + j: c for (_, l, (j,)), c in nums.items()}, den))
        out.append(coords)
    return out


def _anti(n, idx):
    from orenaka import antisymmetrizer_tensor

    return antisymmetrizer_tensor(n, idx)


def test_lemma_towers_are_valid_sequence_pair():
    rng = random.Random(42)
    a = make_polynomial(3)
    sid = identity_automorphism(a)
    for _ in range(3):
        delta = random_admissible_derivation(a, sid, rng)
        sp = _lemma_sequence_pair(a, delta)
        sp.verify()
        engine = build_sequence_pair(sid, delta)
        assert divergence(sp).divergence == divergence(engine).divergence


def test_build_zero_derivation_gives_zero_towers():
    for a in (make_polynomial(3), make_jordan_plane()):
        sid = identity_automorphism(a)
        d0 = extend_derivation([Tensor(a.nv, 2)] * a.nv, sid, a)
        sp = build_sequence_pair(sid, d0)
        for stage in sp.right[1:] + sp.left[1:]:
            assert all(t.is_zero() for t in stage)


def test_sequence_pair_invariants_random():
    rng = random.Random(43)
    for a in (make_polynomial(3), make_quantum_plane(3), make_jordan_plane()):
        sig = random_admissible_automorphism(a, rng)
        delta = random_admissible_derivation(a, sig, rng)
        sp = build_sequence_pair(sig, delta)
        sp.verify()


def test_divergence_zero_for_zero_delta():
    for a in (make_polynomial(2), make_quantum_plane(2)):
        sid = identity_automorphism(a)
        d0 = extend_derivation([Tensor(a.nv, 2)] * a.nv, sid, a)
        assert divergence(build_sequence_pair(sid, d0)).divergence.is_zero()


def test_divergence_polynomial_formula():
    rng = random.Random(44)
    for n in (2, 3):
        a = make_polynomial(n)
        sid = identity_automorphism(a)
        for _ in range(5):
            delta = random_admissible_derivation(a, sid, rng)
            got = divergence(build_sequence_pair(sid, delta)).divergence
            assert got == polynomial_divergence_oracle(delta)


def test_divergence_quantum_plane_gamma_formula():
    # delta_r = (m22 g11 + g22) x1 + m11 g23 x2,
    # delta_l = g11 x1 + (m22 g12 + g23) x2 for the q = 2 plane
    rng = random.Random(45)
    a = make_quantum_plane(2)
    for _ in range(6):
        m11 = rand_frac(rng, nonzero=True)
        m22 = rand_frac(rng, nonzero=True)
        sig = check_automorphism(Matrix([[m11, 0], [0, m22]]), a)
        raw = random_admissible_derivation(a, sig, rng)
        # the displayed formulas are for the monomial-basis lift; re-lift
        # the induced derivation into gamma form first
        from orenaka import gamma_of_images

        gamma = gamma_of_images(a, raw.images)
        delta = extend_derivation(gamma_images(gamma), sig, a)
        (g11, g12, g13), (g21, g22, g23) = gamma
        res = divergence(build_sequence_pair(sig, delta))
        assert res.delta_r == Tensor(
            2, 1, {(0,): m22 * g11 + g22, (1,): m11 * g23}
        )
        assert res.delta_l == Tensor(2, 1, {(0,): g11, (1,): m22 * g12 + g23})


def test_ore_relations_trimmed_commutative():
    a = make_polynomial(2)
    sid, d0 = _simple_delta(a, [Tensor(2, 2)] * 2)
    r_hat = ore_relations(sid, d0)
    assert r_hat.dim == 3
    # z behaves as a third commuting variable: same subspace as k[x1,x2,z]
    assert r_hat == make_polynomial(3).R


def test_ore_relations_quantum_trimmed():
    a = make_quantum_plane(5)
    sid, d0 = _simple_delta(a, [Tensor(2, 2)] * 2)
    assert ore_relations(sid, d0).dim == 3


def test_ore_relations_dimension_random():
    rng = random.Random(46)
    for a in (make_polynomial(3), make_jordan_plane(), make_quantum_plane(-1)):
        sig = random_admissible_automorphism(a, rng)
        delta = random_admissible_derivation(a, sig, rng)
        assert ore_relations(sig, delta).dim == a.R.dim + a.nv


def test_mu_b_trimmed_scales_z_by_hdet():
    rng = random.Random(47)
    for a in (make_polynomial(2), make_quantum_plane(3), make_jordan_plane()):
        sig = random_admissible_automorphism(a, rng)
        d0 = extend_derivation([Tensor(a.nv, 2)] * a.nv, sig, a)
        rep = nakayama_of_B(sig, d0)
        n = a.nv
        from orenaka import hdet

        assert rep.mu_B[n, n] == hdet(sig)
        assert all(rep.mu_B[n, j] == 0 for j in range(n))


def test_mu_b_polynomial_identity_block():
    rng = random.Random(48)
    a = make_polynomial(3)
    sid = identity_automorphism(a)
    for _ in range(3):
        delta = random_admissible_derivation(a, sid, rng)
        rep = nakayama_of_B(sid, delta)
        assert rep.mu_B_on_V == Matrix.identity(3)
        assert rep.mu_B[3, 3] == 1


def test_mu_b_q_minus_one_cy_instance():
    # sigma = diag(-1,-1) = mu_A with gamma12 = gamma22 = 0
    a = make_quantum_plane(-1)
    sig = check_automorphism(Matrix([[-1, 0], [0, -1]]), a)
    gamma = ((Fraction(1), Fraction(0), Fraction(2)), (Fraction(3), Fraction(0), Fraction(5)))
    delta = extend_derivation(gamma_images(gamma), sig, a)
    rep = nakayama_of_B(sig, delta)
    assert rep.mu_B == Matrix.identity(3)
    assert rep.calabi_yau


def test_divergence_invariance_under_all_choices():
    rng = random.Random(49)
    for a in (make_polynomial(3), make_quantum_plane(2), make_jordan_plane()):
        sig = random_admissible_automorphism(a, rng)
        delta = random_admissible_derivation(a, sig, rng)
        base = divergence(build_sequence_pair(sig, delta)).divergence
        for trial in range(3):
            noisy = build_sequence_pair(sig, delta, rng=random.Random(900 + trial))
            noisy.verify()
            assert divergence(noisy).divergence == base
            eps = [
                Tensor.from_vec(a.R.basis()[rng.randrange(a.R.dim)], a.nv, 2).scale(
                    rand_frac(rng)
                )
                for _ in range(a.nv)
            ]
            delta2 = delta.perturb(eps)
            assert divergence(build_sequence_pair(sig, delta2)).divergence == base


def test_relation_between_towers_proposition():
    # alternating-sum identities between the right and left towers,
    # evaluated on the W_d basis
    rng = random.Random(50)
    for a in (make_polynomial(3), make_jordan_plane()):
        sig = random_admissible_automorphism(a, rng)
        delta = random_admissible_derivation(a, sig, rng)
        sp = build_sequence_pair(sig, delta)
        d = a.certificate.d
        omega = a.omega
        sgn = lambda i: Fraction(-1) ** i
        lhs_a = Tensor(a.nv, d + 1)
        rhs_a = Tensor(a.nv, d + 1)
        for i in range(1, d + 1):
            lhs_a = lhs_a + sp.apply_right(i, omega, d - i).scale(sgn(i))
            rhs_a = rhs_a + sp.apply_left(i, omega, d - i).scale(sgn(i))
        assert lhs_a == rhs_a.scale(sgn(d + 1))
        lhs_b = Tensor(a.nv, d + 1)
        rhs_b = Tensor(a.nv, d + 1)
        for i in range(1, d):
            lhs_b = lhs_b + sp.apply_left(i, omega, d - i - 1, 1).scale(sgn(i + 1))
            rhs_b = rhs_b + sp.apply_right(i, omega, d - i).scale(sgn(i))
        assert lhs_b == rhs_b.scale(sgn(d + 1))


def test_relation_between_different_sequence_pairs():
    # with W_{d+1} = 0 the alternating sums agree across any two pairs,
    # and so does the mixed display
    rng = random.Random(51)
    a = make_polynomial(3)
    sig = random_admissible_automorphism(a, rng)
    delta = random_admissible_derivation(a, sig, rng)
    sp1 = build_sequence_pair(sig, delta)
    eps = [
        Tensor.from_vec(a.R.basis()[rng.randrange(a.R.dim)], a.nv, 2).scale(rand_frac(rng))
        for _ in range(a.nv)
    ]
    delta2 = delta.perturb(eps)
    sp2 = build_sequence_pair(sig, delta2, rng=random.Random(7))
    d = a.certificate.d
    omega = a.omega
    sgn = lambda j: Fraction(-1) ** j

    def right_sum(sp, dl):
        out = Tensor(a.nv, d + 1)
        for j in range(d):
            out = out + sp.apply_right(d - j, omega, j).scale(sgn(j))
        return out

    def left_sum(sp):
        out = Tensor(a.nv, d + 1)
        for j in range(d):
            out = out + sp.apply_left(d - j, omega, j).scale(sgn(j))
        return out

    def mixed(sp):
        out = sp.apply_left(d, omega, 0).scale(sgn(d))
        for j in range(1, d):
            out = out + _sigma_on_first(sig, sp, d - j, omega, j).scale(sgn(j))
        return out

    assert right_sum(sp1, delta) == right_sum(sp2, delta2)
    assert left_sum(sp1) == left_sum(sp2)
    assert mixed(sp1) == mixed(sp2)


def test_mixed_display_uses_sigma_on_first_slot():
    # (sigma (x) delta_{d-j,r} (x) id^(j-1)) term: check the display via
    # the engine's own building blocks on a nontrivial sigma
    rng = random.Random(52)
    a = make_jordan_plane()
    sig = check_automorphism(Matrix([[1, 2], [0, 1]]), a)
    delta = random_admissible_derivation(a, sig, rng)
    sp1 = build_sequence_pair(sig, delta)
    eps = [Tensor.from_vec(a.R.basis()[0], 2, 2).scale(rand_frac(rng)) for _ in range(2)]
    sp2 = build_sequence_pair(sig, delta.perturb(eps))
    d = a.certificate.d
    omega = a.omega
    sgn = lambda j: Fraction(-1) ** j

    def mixed(sp):
        out = sp.apply_left(d, omega, 0).scale(sgn(d))
        for j in range(1, d):
            term = _sigma_on_first(sig, sp, d - j, omega, j)
            out = out + term.scale(sgn(j))
        return out

    assert mixed(sp1) == mixed(sp2)


def _sigma_on_first(sig, sp, i, omega, pad):
    """(sigma (x) delta_{i,r} (x) id^(x)(pad-1))(omega)."""
    a = sig.algebra
    nv = a.nv
    coeffs = expand_through(omega, 1, a.koszul_space(i), i, pad - 1)
    out = Tensor(nv, omega.degree + 1)
    for (jl, l, jr), c in coeffs.items():
        head = sig.apply_vector(Tensor.word(nv, jl, c))
        out = out + head.tensor(sp.right[i][l]).tensor(Tensor.word(nv, jr))
    return out


def test_superpotential_trimmed_volume_element():
    # sigma = id, delta = 0 on k[x1,x2]: omega-hat is the alternating
    # volume element on (x1, x2, z); frozen by an independent
    # permutation-sum construction
    a = make_polynomial(2)
    sid, d0 = _simple_delta(a, [Tensor(2, 2)] * 2)
    rep = nakayama_of_B(sid, d0)
    expected = Tensor(3, 3)
    order = (2, 0, 1)  # z, x1, x2 with z = letter 2
    for perm in itertools.permutations(range(3)):
        inv = sum(
            1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j]
        )
        word = tuple(order[p] for p in perm)
        expected = expected + Tensor(3, 3, {word: Fraction(-1) ** inv})
    assert rep.omega_hat == expected


def test_superpotential_twist_and_quotient():
    rng = random.Random(53)
    cases = []
    for a in (make_polynomial(2), make_polynomial(3), make_quantum_plane(2), make_jordan_plane()):
        sig = random_admissible_automorphism(a, rng)
        delta = random_admissible_derivation(a, sig, rng)
        cases.append((a, sig, delta))
    for a, sig, delta in cases:
        rep = nakayama_of_B(sig, delta)
        d = a.certificate.d
        oh = rep.omega_hat
        # twist condition with nu = mu_B restricted to degree one
        twisted = oh.apply_matrix_at(1, rep.mu_B).tau(d).scale(Fraction(-1) ** d)
        assert twisted == oh
        # the twist solve recovers mu_B on V-hat (independent of the
        # main formula's assembly)
        assert twist_solve(oh) == rep.mu_B
        assert derivation_quotient_relations(oh, d - 1) == rep.relations_hat
        assert derivation_quotient_relations(a.omega, d - 2) == a.R


def test_superpotential_jordan_cy():
    a = make_jordan_plane()
    sig = check_automorphism(Matrix([[1, 2], [0, 1]]), a)
    g21, g22, g23, g13 = Fraction(1), Fraction(2), Fraction(-1), Fraction(3)
    g11 = (2 * g21 + (1 - 2) * g22) / 2
    g12 = 2 * (g22 - g23)
    delta = extend_derivation(gamma_images(((g11, g12, g13), (g21, g22, g23))), sig, a)
    rep = nakayama_of_B(sig, delta)
    assert rep.calabi_yau and rep.mu_B == Matrix.identity(3)
    oh = rep.omega_hat
    assert oh.apply_matrix_at(1, rep.mu_B).tau(2).scale(1) == oh


def test_derivation_quotient_top_order():
    a = make_polynomial(3)
    top = derivation_quotient_relations(a.omega, 3)
    assert top.dim == 1 and top.ambient == 1
    assert derivation_quotient_relations(Tensor(3, 3), 3).dim == 0


def test_ore_extension_feeds_back_as_algebra():
    # B itself, presented by R-hat, certifies as AS-regular of
    # dimension d+1 with Nakayama automorphism mu_B
    a = make_quantum_plane(2)
    sig = check_automorphism(Matrix([[3, 0], [0, 5]]), a)
    rng = random.Random(54)
    delta = random_admissible_derivation(a, sig, rng)
    rep = nakayama_of_B(sig, delta)
    b = QuadraticAlgebra(["x1", "x2", "z"], rep.relations_hat)
    b.certify_as_regular()
    assert b.certificate.d == a.certificate.d + 1
    assert nakayama_of_A(b).matrix == rep.mu_B


def test_mu_B_by_certifying_B_on_dense_pairs():
    # the independent route for mu_B: B presented by R-hat certifies as
    # AS-regular of dimension d + 1, its own mu_A is the theorem's mu_B,
    # and its top Koszul space is the line of omega-hat (dense poly(5)[z]
    # certifies in about 0.5 s)
    for n in range(2, 6):
        b, rep = dense_extension(n)
        d, _ = b.certify_as_regular()
        assert d == n + 1
        assert nakayama_of_A(b).matrix == rep.mu_B, n
        assert b.koszul_space(d) == Subspace(b.nv**d, [rep.omega_hat.to_vec()]), n


def test_full_pipeline_on_transformed_relations():
    # a skewed presentation of the q = 3 plane: nothing downstream
    # assumes the catalog shapes, only the relation tensor
    from orenaka import dim2_relation_matrix, nakayama_of_A_dim2_closed_form

    base = dim2_relation_matrix("quantum", 3)
    g = Matrix([[1, 2], [1, -1]])
    qp = g.transpose() * base * g
    rel = Tensor(2, 2, {(a, b): qp[a, b] for a in range(2) for b in range(2) if qp[a, b]})
    alg = QuadraticAlgebra(["x1", "x2"], [rel])
    alg.certify_as_regular()
    sigma = nakayama_of_A(alg)
    assert sigma.matrix == nakayama_of_A_dim2_closed_form(qp)
    rng = random.Random(55)
    delta = random_admissible_derivation(alg, sigma, rng)
    rep = nakayama_of_B(sigma, delta)
    rep.sequence_pair.verify()
    assert twist_solve(rep.omega_hat) == rep.mu_B
    assert derivation_quotient_relations(rep.omega_hat, 1) == rep.relations_hat
    # sigma = mu_A here, so Calabi-Yau reduces to vanishing divergence
    assert rep.calabi_yau == rep.div.divergence.is_zero()


def test_degenerate_base_k_of_x():
    # d = 1: the superpotential line is W_1 and the towers are the lift
    a = make_polynomial(1)
    sig = check_automorphism(Matrix([[Fraction(3)]]), a)
    delta = extend_derivation([Tensor(1, 2, {(0, 0): Fraction(5)})], sig, a)
    rep = nakayama_of_B(sig, delta)
    from orenaka import hdet

    assert hdet(sig) == 3
    assert rep.div.delta_r == rep.div.delta_l == Tensor(1, 1, {(0,): 5})
    # divergence = delta_r + mu_A sigma^{-1}(delta_l) = 5 x + (5/3) x
    assert rep.div.divergence == Tensor(1, 1, {(0,): Fraction(20, 3)})
    assert rep.mu_B == Matrix([[Fraction(1, 3), 0], [Fraction(20, 3), 3]])
    # feed B back in: a two-generator quadratic algebra with one relation
    b = QuadraticAlgebra(["x", "z"], rep.relations_hat)
    b.certify_as_regular()
    assert b.certificate.d == 2
    assert nakayama_of_A(b).matrix == rep.mu_B
    # d - 1 = 0 here: the order-0 quotient is the span of omega-hat
    assert derivation_quotient_relations(rep.omega_hat, 0) == rep.relations_hat


def test_sequence_pair_rejects_foreign_delta():
    a = make_polynomial(2)
    sid = identity_automorphism(a)
    other = check_automorphism(Matrix([[2, 0], [0, 1]]), a)
    delta = extend_derivation([Tensor(2, 2)] * 2, other, a)
    with pytest.raises(ValueError):
        build_sequence_pair(sid, delta)


# -- the W-coordinate towers against the tensor construction --------------


def _tensor_towers(sigma, delta, rng=None):
    """Oracle: the sequence pair built stage by stage in V^(x)(i+1), with
    every stage solved in V^(x)(i-1) (x) A_2 and every map applied to
    tensors.  Returns the right and left towers as tensor stages."""
    a = sigma.algebra
    nv, d = a.nv, a.certificate.d
    right = [[Tensor(nv, 1)], list(delta.images)]
    left = [[Tensor(nv, 1)], list(delta.images)]

    def apply(tower, i, t, lpad, rpad):
        out = sandwich_map(t, lpad, a.koszul_space(i), i, rpad, tower[i], sigma.matrix)
        assert out is not None
        return out

    for i in range(2, d + 1):
        wi = a.koszul_space(i)
        wvecs = [Tensor.from_vec(b, nv, i) for b in wi.basis()]
        products = [w.tensor(Tensor.word(nv, (j,))) for w in wvecs for j in range(nv)]
        cols = [a.nf_tensor(t, i - 1) for t in products]
        rhs = [
            a.nf_tensor(
                w.apply_matrix_slots(range(1, i), sigma.matrix).apply_images_at(i, delta.images)
                + apply(right, i - 1, w, 0, 1),
                i - 1,
            )
            for w in wvecs
        ]
        particulars, kernel = solve_columns(cols, rhs)
        stage = []
        for x in particulars:
            assert x is not None
            terms = list(zip(x, products))
            if rng is not None:
                for kv in kernel:
                    c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    terms += [(c * v, products[unk]) for unk, v in kv.items()]
            stage.append(Tensor.combine(nv, i + 1, terms))
        right.append(stage)
        sgn = (-1) ** i
        lstage = []
        for k, w in enumerate(wvecs):
            term = Tensor.combine(nv, i + 1, [
                (sgn, apply(right, i - 1, w, 1, 0)),
                (-sgn, right[i][k]),
                (1, apply(left, i - 1, w, 0, 1)),
            ])
            assert expand_through(term, 1, wi, i, 0) is not None
            lstage.append(term)
        left.append(lstage)
    return right, left


def _tower_cases():
    """(name, sigma, delta) on poly(2..4), three quantum planes, the
    Jordan plane, Sklyanin(1, 2, 3) and the relabelled Jordan plane,
    whose letter order is (1, 0)."""
    from test_quadratic import _sklyanin

    rng = random.Random(61)
    cases = []
    for name, a in [
        ("poly2", make_polynomial(2)),
        ("poly3", make_polynomial(3)),
        ("poly4", make_polynomial(4)),
        ("quantum2", make_quantum_plane(2)),
        ("quantum-1", make_quantum_plane(-1)),
        ("quantum1/3", make_quantum_plane(Fraction(1, 3))),
        ("jordan", make_jordan_plane()),
    ]:
        sig = random_admissible_automorphism(a, rng)
        cases.append((name, sig, random_admissible_derivation(a, sig, rng)))
    s = _sklyanin()
    sig = identity_automorphism(s)
    cases.append(("sklyanin123", sig, random_admissible_derivation(s, sig, rng)))
    j = QuadraticAlgebra(["x1", "x2"], [Tensor(2, 2, {(0, 1): 1, (1, 0): -1, (0, 0): -1})])
    assert j.order == (1, 0)
    sig = check_automorphism(Matrix([[2, 0], [3, 2]]), j)
    cases.append(("jordan-relabelled", sig, random_admissible_derivation(j, sig, rng)))
    return cases


@pytest.mark.parametrize("name, sig, delta", _tower_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_w_coordinate_towers_equal_tensor_towers(name, sig, delta):
    from orenaka import hdet

    sp = build_sequence_pair(sig, delta)
    assert (sp.right, sp.left) == _tensor_towers(sig, delta)
    sp.verify()
    # the same kernel draws give the same noisy towers
    noisy = build_sequence_pair(sig, delta, rng=random.Random(5))
    assert (noisy.right, noisy.left) == _tensor_towers(sig, delta, random.Random(5))
    noisy.verify()
    # sigma^(x)d on the line W_d is hdet(sigma), and the report reads it there
    d = sig.algebra.certificate.d
    ((nums, den),) = sp.sigma_w[d]
    assert Fraction(nums.get(0, 0), den) == hdet(sig)
    assert len(sp.sigma_w) == d + 1
    assert nakayama_of_B(sig, delta).hdet == hdet(sig)


@pytest.mark.parametrize("name, sig, delta", _tower_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_stored_values_are_canonical(name, sig, delta):
    # the sums between kernels are raw; every stored stage, S^i and
    # returned tensor is canonical
    from test_linalg import _assert_canonical, _assert_canonical_scaled

    a = sig.algebra
    nv, d = a.nv, a.d
    half = Fraction(1, 2)
    for rng in (None, random.Random(5)):
        sp = build_sequence_pair(sig, delta, rng=rng)
        for tower in (sp.right_w, sp.left_w, sp.sigma_w):
            for stage in tower:
                for nums, den in stage:
                    _assert_canonical_scaled(nums, den)
        for i in range(1, d + 1):
            for k, w in enumerate(a.koszul_space(i).basis_tensors(nv, i)):
                _assert_canonical(delta.extend(w))
                t = Tensor.combine(
                    nv, i + 1, [(half, sp.right[i][k]), (2, sp.left[i][k]), (-half, sp.right[i][k])]
                )
                _assert_canonical(t)
                assert t == sp.left[i][k].scale(2)
    _assert_canonical(nakayama_of_B(sig, delta).omega_hat)


def _stage_cases():
    """(name, sigma, delta): the tower cases and all 25 dim-2 catalog
    cases."""
    rng = random.Random(68)
    cases = _tower_cases()
    for case in CASES:
        inst = enumerate_solution(case, random_case_params(case, rng))
        cases.append((case, inst.sigma, inst.delta))
    return cases


@pytest.mark.parametrize("name, sig, delta", _stage_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_factored_stage_reads_equal_solve_columns(name, sig, delta, monkeypatch):
    # every stage system of WTables, read off its factorisation, against
    # solve_columns on the same columns: the real right-hand sides of a
    # tower, random consistent ones and random ones, mostly inconsistent
    a = sig.algebra
    nv = a.nv
    real = FactoredColumns.solve
    seen = {}
    monkeypatch.setattr(FactoredColumns, "solve", lambda s, b: seen.setdefault(id(s), []).append(b) or real(s, b))
    build_sequence_pair(sig, delta)
    monkeypatch.undo()
    rng = random.Random(69)
    tab = a.w_tables()
    for i in range(2, a.certificate.d + 1):
        system = tab.stage[i]
        diff = a.differential_rows(i, 1)
        cols = [diff[l * nv + a._pos[j]] for l in range(tab.dims[i]) for j in range(nv)]
        neq = tab.dims[i - 1] * a.dim_A(2)
        rhs = list(seen[id(system)])
        assert len(rhs) == tab.dims[i]
        for _ in range(4):
            x = [rng.randint(-3, 3) for _ in cols]
            b = {}
            for xj, col in zip(x, cols):
                for e, v in col.items():
                    b[e] = b.get(e, 0) + xj * v
            den = math.lcm(*[Fraction(v).denominator for v in b.values()])
            rhs.append({e: int(v * den) for e, v in b.items()})
            rhs.append({e: rng.randint(-2, 2) for e in rng.sample(range(neq), min(neq, 3))})
        particulars, kernel = solve_columns(cols, rhs)
        got = [system.solve(b) for b in rhs]
        assert [
            None if y is None else [Fraction(y.get(u, 0), system.den) for u in range(len(cols))]
            for y in got
        ] == particulars, (name, i)
        assert [_unscaled(*kv) for kv in system.kernel] == kernel, (name, i)
        assert all(y is not None for y in got[: tab.dims[i]])
        assert any(y is None for y in got), (name, i)


def test_sigma_on_w_is_sigma_on_tensors():
    # S^i read back to tensors is sigma^(x)i applied to each W_i basis vector
    rng = random.Random(62)
    a = make_polynomial(3)
    sig = random_admissible_automorphism(a, rng)
    sp = build_sequence_pair(sig, random_admissible_derivation(a, sig, rng))
    for i in range(a.certificate.d + 1):
        wi = a.koszul_space(i)
        basis = [Tensor.from_vec(b, 3, i) for b in wi.basis()]
        for b, (nums, den) in zip(basis, sp.sigma_w[i]):
            image = Tensor.combine(3, i, [(Fraction(n, den), basis[l]) for l, n in nums.items()])
            assert image == sig.apply_all(b)


# -- failures carry their position ---------------------------------------


def test_no_solution_names_stage_and_vector():
    # delta(x) = x (x) x is not admissible on the q = 2 plane, so stage 2
    # has no solution; DerivationLift skips the admissibility check
    from orenaka import DerivationLift, NoSolutionError

    a = make_quantum_plane(2)
    sid = identity_automorphism(a)
    delta = DerivationLift([Tensor.word(2, (0, 0)), Tensor(2, 2)], sid)
    with pytest.raises(NoSolutionError) as err:
        build_sequence_pair(sid, delta)
    assert (err.value.stage, err.value.index) == (2, 0)
    assert str(err.value) == (
        "no delta_2,r image for W_2 basis vector 0; Koszulity hypotheses are violated"
    )


def test_left_escape_names_stage_and_vector(monkeypatch):
    # a wrong right image for w_0 (one unit added) sends its left image
    # out of V (x) W_2, as W_3 = 0 on the plane
    from orenaka import LeftImageEscapeError

    a = make_quantum_plane(3)
    rng = random.Random(63)
    sig = random_admissible_automorphism(a, rng)
    delta = random_admissible_derivation(a, sig, rng)
    real = FactoredColumns.solve
    calls = []

    def off_by_one(system, b):
        # the first read is w_0 at stage 2; unknown 0 gets one unit more
        y = real(system, b)
        if not calls:
            y[0] = y.get(0, 0) + system.den
        calls.append(b)
        return y

    monkeypatch.setattr(FactoredColumns, "solve", off_by_one)
    with pytest.raises(LeftImageEscapeError) as err:
        build_sequence_pair(sig, delta)
    assert (err.value.stage, err.value.index) == (2, 0)
    assert str(err.value) == "left tower image escapes V(x)W_2 at stage 2"


def test_superpotential_failures_name_degree_and_slot():
    from orenaka import (
        FormMismatchError,
        NotInHatWError,
        Subspace,
        TwistFailureError,
        twisted_superpotential_hat,
    )

    rng = random.Random(64)
    a = make_polynomial(3)
    sig = random_admissible_automorphism(a, rng)
    delta = random_admissible_derivation(a, sig, rng)
    rep = nakayama_of_B(sig, delta)
    sp, mu_b, r_hat = rep.sequence_pair, rep.mu_B, rep.relations_hat
    d = a.certificate.d
    # a right tower that no longer matches the left one: the paranoid
    # level compares the two forms and names the degree; the fast path
    # builds one form only, and the bent omega-hat fails its certificate
    right_w = [list(stage) for stage in sp.right_w]
    nums, den = right_w[d][0]
    right_w[d][0] = ({**nums, 0: nums.get(0, 0) + den}, den)
    bent = SequencePair(sig, delta, right_w, sp.left_w)
    with pytest.raises(FormMismatchError) as err:
        bent.verify()
    assert err.value.degree == d + 1
    with pytest.raises(EngineInvariantError):
        twisted_superpotential_hat(bent, mu_b, r_hat)
    # R-hat without one Ore row still contains R, but omega-hat's
    # last-two-slot slices span all of R-hat; only the last slot is read,
    # and the twist check carries it to the others
    r_rows, ore_rows = _hat_rows(sig, delta)
    with pytest.raises(NotInHatWError) as err:
        twisted_superpotential_hat(sp, mu_b, Subspace(16, r_rows + ore_rows[1:]))
    assert err.value.slot == d - 1
    assert str(err.value) == "omega-hat escapes V-hat^2 (x) R-hat (x) V-hat^0"
    # a zero R-hat misses R, so it is no Ore extension's R-hat
    with pytest.raises(ValueError, match=r"^R-hat must contain R$"):
        twisted_superpotential_hat(sp, mu_b, Subspace(16))
    with pytest.raises(TwistFailureError) as err:
        twisted_superpotential_hat(sp, Matrix.identity(4) * 2, r_hat)
    assert err.value.degree == d + 1


def test_superpotential_rejects_a_wrong_shaped_mu_b_first(monkeypatch):
    from orenaka import ore, twisted_superpotential_hat

    rng = random.Random(64)
    a = make_polynomial(3)
    sig = random_admissible_automorphism(a, rng)
    rep = nakayama_of_B(sig, random_admissible_derivation(a, sig, rng))
    blocks = []
    monkeypatch.setattr(ore, "_on_left", lambda *args: blocks.append(args))
    with pytest.raises(ValueError, match=r"^mu_B must be 4 x 4$"):
        twisted_superpotential_hat(rep.sequence_pair, Matrix.identity(3), rep.relations_hat)
    assert blocks == []


# -- one membership plus the twist gives every slot ------------------------


def _escaped_slots(t: Tensor, space, d: int) -> list[int]:
    """Oracle: the d-slot membership loop, the slots s at which t leaves
    V^s (x) S (x) V^(d-1-s)."""
    return [s for s in range(d) if expand_through(t, s, space, 2, d - 1 - s) is None]


def test_last_slot_and_twist_give_every_slot():
    # no Ore machinery: a random sparse t is cyclically symmetrised under
    # the twist with mu = id and sign (-1)^d, and S is the span of its
    # last-two-slot slices, so it lies in V^(d-1) (x) S by construction
    from orenaka import Subspace

    rng = random.Random(71)
    proper = unsymmetrised_escapes = 0
    for nv in (2, 3):
        for d in (2, 3, 4):
            sign = (-1) ** d
            for _ in range(30):
                words = {tuple(rng.randrange(nv) for _ in range(d + 1)) for _ in range(rng.randint(1, 4))}
                t = Tensor(nv, d + 1, {w: rand_frac(rng, 3, nonzero=True) for w in words})
                terms, moved = [], t
                for _ in range(d + 1):
                    terms.append((1, moved))
                    moved = moved.tau(d).scale(sign)
                omega = Tensor.combine(nv, d + 1, terms)
                assert omega.tau(d).scale(sign) == omega
                if not omega:
                    continue
                for u in (omega, t):
                    slices: dict = {}
                    for w, c in u.entries.items():
                        slices.setdefault(w[: d - 1], {})[w[d - 1] * nv + w[d]] = c
                    space = Subspace(nv * nv, list(slices.values()))
                    escaped = _escaped_slots(u, space, d)
                    assert d - 1 not in escaped
                    if u is omega:
                        assert escaped == []
                        proper += space.dim < nv * nv
                    else:
                        unsymmetrised_escapes += bool(escaped)
    # S is a proper subspace often enough for the membership to be tested,
    # and without the twist the last slot alone does not carry
    assert proper >= 120
    assert unsymmetrised_escapes > 0


@pytest.mark.parametrize("name, sig, delta", _tower_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_superpotential_checks_match_oracles(name, sig, delta):
    from orenaka.linalg import escaping_row

    rep = nakayama_of_B(sig, delta)
    d = sig.algebra.certificate.d
    nh = sig.algebra.nv + 1
    r_hat, mu = rep.relations_hat, rep.mu_B
    # omega-hat, certified by one slot and the twist, lies in every slot
    assert _escaped_slots(rep.omega_hat, r_hat, d) == []
    # the integer R-hat check against the Tensor route
    assert escaping_row(r_hat, mu) is None
    assert first_escape_by_tensors(r_hat, mu, nh) is None
    # z scaled by hdet + 1 keeps R-hat only when delta lies in R, and
    # these derivations are dense
    rows = [list(r) for r in mu.rows]
    rows[-1][-1] += 1
    bent = Matrix(rows)
    got = escaping_row(r_hat, bent)
    assert got is not None
    assert got == first_escape_by_tensors(r_hat, bent, nh)


# -- the block membership against the word-level one -------------------


def _membership_cases():
    """(name, sigma, delta): poly(1..5), quantum planes, the Jordan
    plane, every dim-2 catalog case and Sklyanin(1, 2, 3)[w; id, delta]."""
    from orenaka import CASES, enumerate_solution, random_case_params
    from test_quadratic import _sklyanin

    rng = random.Random(81)
    cases = []
    bases = [(f"poly{n}", make_polynomial(n)) for n in range(1, 6)]
    bases += [(f"quantum{q}", make_quantum_plane(q)) for q in (2, -1, Fraction(1, 3))]
    bases.append(("jordan", make_jordan_plane()))
    for name, a in bases:
        sig = random_admissible_automorphism(a, rng)
        cases.append((name, sig, random_admissible_derivation(a, sig, rng)))
    for case in CASES:
        inst = enumerate_solution(case, random_case_params(case, rng))
        cases.append((case, inst.sigma, inst.delta))
    s = _sklyanin()
    sig = identity_automorphism(s)
    cases.append(("sklyanin123", sig, random_admissible_derivation(s, sig, rng)))
    return cases


def _hat_rows(sig, delta):
    """R embedded in V-hat (x) V-hat, and the Ore rows z (x) x_i -
    sigma(x_i) (x) z - delta(x_i), as Fraction rows."""
    nv = sig.algebra.nv
    nh = nv + 1
    r_rows = [{k // nv * nh + k % nv: c for k, c in b.items()} for b in sig.algebra.R.basis()]
    ore_rows = []
    for i in range(nv):
        row = {nv * nh + i: Fraction(1)}
        for j in range(nv):
            row[j * nh + nv] = -sig.matrix[i, j]
        for (a, b), c in delta.images[i].entries.items():
            row[a * nh + b] = row.get(a * nh + b, 0) - c
        ore_rows.append(row)
    return r_rows, ore_rows


@pytest.mark.parametrize("name, sig, delta", _membership_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_block_membership_matches_word_oracle(name, sig, delta):
    from orenaka import NotInHatWError, Subspace, twisted_superpotential_hat

    rep = nakayama_of_B(sig, delta)
    sp, oh, mu_b = rep.sequence_pair, rep.omega_hat, rep.mu_B
    d = sig.algebra.certificate.d
    nh = sig.algebra.nv + 1
    r_rows, ore_rows = _hat_rows(sig, delta)
    assert Subspace(nh * nh, r_rows + ore_rows) == rep.relations_hat
    # R-hat, and R-hat with one Ore row dropped, contain R: the block
    # reader decides, against the word-level oracle
    contain_r = [rep.relations_hat] + [
        Subspace(nh * nh, r_rows + ore_rows[:i] + ore_rows[i + 1:]) for i in range(nh - 1)
    ]
    for space in contain_r:
        try:
            got = twisted_superpotential_hat(sp, mu_b, space) == oh
        except NotInHatWError:
            got = False
        assert got == (expand_scaled(oh, d - 1, space, 2, 0) is not None), name
        # the last-two-slot slices of omega-hat span R-hat, so it lies in
        # V-hat^(d-1) (x) S exactly when S contains R-hat
        assert got == all(space.contains(r) for r in rep.relations_hat.basis()), name
    # spaces that miss R (when R is nonzero), or live elsewhere, are no
    # Ore extension's R-hat
    miss_r = [Subspace(nh * nh), Subspace(nh * nh, ore_rows), Subspace(nh * nh, r_rows[1:] + ore_rows)]
    miss_r = [space for space in miss_r if not all(space.contains(r) for r in r_rows)]
    miss_r.append(Subspace(nh * nh + 1, r_rows + ore_rows))
    for space in miss_r:
        with pytest.raises(ValueError, match=r"^R-hat must contain R$"):
            twisted_superpotential_hat(sp, mu_b, space)


def test_ore_request_takes_no_word_level_membership(monkeypatch):
    from orenaka import linalg, ore

    assert not hasattr(ore, "expand_scaled")
    calls = []
    monkeypatch.setattr(linalg, "expand_scaled", lambda *args: calls.append(args))
    for name, sig, delta in _membership_cases():
        nakayama_of_B(sig, delta)
    assert calls == []


def test_superpotential_forms_each_block_once(monkeypatch):
    # C_i = (S^i (x) id)(omega_i), i = 0..d, and R_i = (delta_{i,r} (x)
    # id)(omega_i), i = 1..d: 2d + 1 blocks, each formed once per call
    from orenaka import ore, twisted_superpotential_hat

    real = ore._on_left
    index, formed = {}, []

    def spy(vec, rows, *args):
        if id(vec) in index:
            formed.append((index[id(vec)], id(rows)))
        return real(vec, rows, *args)

    monkeypatch.setattr(ore, "_on_left", spy)
    for name, sig, delta in _tower_cases():
        rep = nakayama_of_B(sig, delta)
        sp, d = rep.sequence_pair, rep.sequence_pair.d
        index.clear()
        index.update({id(w): i for i, w in enumerate(sig.algebra.w_tables().omega)})
        formed.clear()
        assert twisted_superpotential_hat(sp, rep.mu_B, rep.relations_hat) == rep.omega_hat
        want = [(i, id(sp.sigma_w[i])) for i in range(d + 1)] + [(i, id(sp.right_w[i])) for i in range(1, d + 1)]
        assert len(formed) == 2 * d + 1, name
        assert sorted(formed) == sorted(want), name


def test_mu_b_off_r_hat_raises(monkeypatch):
    from orenaka import AutomorphismCheckFailedError, ore

    rng = random.Random(72)
    a = make_quantum_plane(3)
    sig = random_admissible_automorphism(a, rng)
    delta = random_admissible_derivation(a, sig, rng)
    real = ore._sigma_on_w

    def hdet_plus_one(alg, m):
        # S^d is hdet(sigma), the z-entry of mu_B
        out, lifts = real(alg, m)
        ((nums, den),) = out[-1]
        out[-1] = [({0: nums[0] + den}, den)]
        return out, lifts

    monkeypatch.setattr(ore, "_sigma_on_w", hdet_plus_one)
    with pytest.raises(AutomorphismCheckFailedError) as err:
        nakayama_of_B(sig, delta)
    assert str(err.value) == "mu_B does not preserve R-hat"


def test_ore_request_makes_each_quantity_once(monkeypatch):
    # mu_B's V-block is one product with the inverse check_automorphism
    # kept, and hdet is read off S^d instead of sigma^(x)d over V^(x)d
    from orenaka import hdet, morphisms

    rng = random.Random(73)
    a = make_polynomial(3)
    nakayama_of_A(a)
    sig = check_automorphism(Matrix([[2, 1, 1], [1, 3, 1], [1, 1, -4]]), a)
    delta = random_admissible_derivation(a, sig, rng)
    calls = {"inverse": 0, "__mul__": 0, "hdet": 0}

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((Matrix, "inverse"), (Matrix, "__mul__"), (morphisms, "hdet")):
        count(owner, name)
    rep = nakayama_of_B(sig, delta)
    assert calls["inverse"] == 0
    assert calls["__mul__"] <= 1
    assert calls["hdet"] == 0
    assert rep.hdet == hdet(sig)


# -- the twist by the position of z, and the two forms ---------------------


def _twist_cases():
    """(name, sigma, delta): the tower cases, k[x] (d = 1), the left
    Zhang twist poly(3)^tau with sigma = tau (d = 3, mu_A dense and not
    the identity) and every dim-2 catalog case."""
    from orenaka import CASES, enumerate_solution, random_case_params
    from test_quadratic import _twisted_poly3

    rng = random.Random(91)
    a = make_polynomial(1)
    sig = random_admissible_automorphism(a, rng)
    cases = _tower_cases() + [("poly1", sig, random_admissible_derivation(a, sig, rng))]
    a, tau = _twisted_poly3()
    sig = check_automorphism(tau.matrix, a)
    cases.append(("poly3^tau", sig, random_admissible_derivation(a, sig, rng)))
    for case in CASES:
        inst = enumerate_solution(case, random_case_params(case, rng))
        cases.append((case, inst.sigma, inst.delta))
    return cases


@pytest.mark.parametrize("name, sig, delta", _twist_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_z_split_twist_matches_word_oracle(name, sig, delta):
    from orenaka import TwistFailureError, twisted_superpotential_hat

    a = sig.algebra
    nv, d = a.nv, a.d
    # the two-z lemma: omega_1, omega's coordinates in V (x) W_{d-1}, is
    # an invertible n x n matrix
    tab = a.w_tables()
    nums, den = tab.omega[1]
    q = tab.dims[d - 1]
    assert q == nv
    assert minor_det([[Fraction(nums.get(u * q + b, 0), den) for b in range(q)] for u in range(nv)])
    rep = nakayama_of_B(sig, delta)
    sp, oh, mu = rep.sequence_pair, rep.omega_hat, rep.mu_B
    assert word_twist_holds(oh, mu, d)
    # every single entry moved by one: each kind of entry (V-block,
    # z-column on V, z-row on V, z-z) is caught by its own part
    part = {
        (True, True): "z at position",
        (True, False): "two z's",
        (False, True): "z-free words",
        (False, False): "ending in z",
    }
    for i, j in itertools.product(range(nv + 1), repeat=2):
        rows = [list(r) for r in mu.rows]
        rows[i][j] += 1
        bent = Matrix(rows)
        try:
            got = twisted_superpotential_hat(sp, bent, rep.relations_hat)
        except TwistFailureError as err:
            assert err.degree == d + 1
            assert part[(i < nv, j < nv)] in str(err), (name, i, j)
            accepted = False
        else:
            assert got == oh
            accepted = True
        assert accepted == word_twist_holds(oh, bent, d), (name, i, j)


def test_twist_cases_cover_a_dense_mu_a():
    # the Zhang twist's mu_A is dense and not the identity, so the
    # z-free identity meets a nontrivial N = mu_A sigma^(-1)
    (sig,) = [sig for name, sig, _ in _twist_cases() if name == "poly3^tau"]
    mu = nakayama_of_A(sig.algebra).matrix
    assert sig.algebra.d == 3 and mu != Matrix.identity(3)
    assert all(mu[i, j] for i in range(3) for j in range(3))


@pytest.mark.parametrize("name, sig, delta", _tower_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_omega_hat_words_are_built_on_first_read(name, sig, delta, monkeypatch):
    # a request turns no block into words; the first read of omega-hat
    # does, once, and gives the words of the tensor-level build: the
    # cyclic terms (-1)^i (sigma^(x)i (x) id)(omega) with z put after
    # factor i, plus the right form
    from orenaka import ore

    real, calls = ore._expand, []
    monkeypatch.setattr(ore, "_expand", lambda *args: calls.append(args) or real(*args))
    rep = nakayama_of_B(sig, delta)
    assert calls == [] and rep.omega_hat._build is not None, name
    a = sig.algebra
    nv, d = a.nv, a.d
    nh = nv + 1
    terms = []
    for i in range(d + 1):
        t = a.omega.apply_matrix_slots(range(1, i + 1), sig.matrix)
        terms.append(((-1) ** i, Tensor(nh, d + 1, {w[:i] + (nv,) + w[i:]: c for w, c in t.entries.items()})))
    right, _ = _forms(rep.sequence_pair, a.omega, d)
    terms.append((1, Tensor(nh, d + 1, right.entries)))
    eager = Tensor.combine(nh, d + 1, terms)
    oh = rep.omega_hat
    assert (oh.nums, oh.den) == (eager.nums, eager.den), name
    built = len(calls)
    assert built and oh._build is None
    assert oh.entries == eager.entries and oh == eager and len(calls) == built, name


def _forms(sp, omega, d):
    """The right form sum_i (-1)^i (delta_{i,r} (x) id)(omega) and the
    left form sum_i (-1)^(i+d+1) (sigma^(x)(d-i) (x) delta_{i,l})(omega),
    i = 1..d, on tensors."""
    stages = range(1, d + 1)
    return (
        Tensor.combine(omega.nv, d + 1, [((-1) ** i, sp.apply_right(i, omega, d - i)) for i in stages]),
        Tensor.combine(omega.nv, d + 1, [((-1) ** (i + d + 1), sp.apply_left(i, omega, d - i)) for i in stages]),
    )


@pytest.mark.parametrize("name, sig, delta", _twist_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_word_level_forms_agree(name, sig, delta):
    # the alternating recursion makes the two forms equal, for the
    # canonical pair and a noisy one; omega-hat's z-free words are the
    # right form
    a = sig.algebra
    nv, d = a.nv, a.d
    right, left = _forms(build_sequence_pair(sig, delta), a.omega, d)
    assert right == left, name
    noisy_right, noisy_left = _forms(build_sequence_pair(sig, delta, rng=random.Random(5)), a.omega, d)
    assert noisy_right == noisy_left, name
    oh = nakayama_of_B(sig, delta).omega_hat
    assert Tensor(nv, d + 1, {w: c for w, c in oh.entries.items() if nv not in w}) == right
