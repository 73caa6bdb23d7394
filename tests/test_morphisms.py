import functools
import itertools
import random
from fractions import Fraction

import pytest

from orenaka import (
    DerivationLift,
    Matrix,
    NonUniqueTwistError,
    NotAdmissibleError,
    NotInvertibleError,
    QuadraticAlgebra,
    Tensor,
    admissible_lift_space,
    check_automorphism,
    dim2_relation_matrix,
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
    random_admissible_automorphism,
    random_admissible_derivation,
    twist_solve,
)
from orenaka.linalg import flat_word, solve_columns

from conftest import (
    catalog_algebras,
    dense_extension,
    minor_det,
    rand_frac,
    rand_invertible,
    sandwich_space,
    twist_solve_joint,
)


def test_identity_always_admissible():
    for name, a in catalog_algebras():
        sig = check_automorphism(Matrix.identity(a.nv), a)
        assert sig.matrix == Matrix.identity(a.nv)


def test_diag_scales_quantum_relation():
    q2 = make_quantum_plane(2)
    sig = check_automorphism(Matrix([[3, 0], [0, 5]]), q2)
    # (M (x) M)(x1x2 - 2 x2x1) = 15 (x1x2 - 2 x2x1)
    rel = Tensor(2, 2, {(0, 1): 1, (1, 0): -2})
    image = sig.apply_all(rel)
    assert image == rel.scale(15)


def test_swap_not_admissible_on_quantum():
    q2 = make_quantum_plane(2)
    with pytest.raises(NotAdmissibleError):
        check_automorphism(Matrix([[0, 1], [1, 0]]), q2)


def test_singular_matrix_rejected():
    with pytest.raises(NotInvertibleError):
        check_automorphism(Matrix([[1, 1], [1, 1]]), make_polynomial(2))


def test_sigma_preserves_all_koszul_spaces():
    rng = random.Random(31)
    for name, a in catalog_algebras():
        sig = random_admissible_automorphism(a, rng)
        d = a.certificate.d
        for i in range(2, d + 1):
            w = a.koszul_space(i)
            for b in w.basis():
                img = sig.apply_all(Tensor.from_vec(b, a.nv, i))
                assert w.contains(img.to_vec()), (name, i)


def test_zero_derivation_admissible():
    for name, a in catalog_algebras():
        sid = identity_automorphism(a)
        lift = extend_derivation([Tensor(a.nv, 2)] * a.nv, sid, a)
        assert lift.is_zero()


def test_membership_example_commutative():
    a = make_polynomial(2)
    sid = identity_automorphism(a)
    delta = extend_derivation([Tensor.word(2, (0, 0)), Tensor(2, 2)], sid, a)
    r = Tensor(2, 2, {(0, 1): 1, (1, 0): -1})
    image = delta.extend(r)
    assert image == Tensor(2, 3, {(0, 0, 1): 1, (1, 0, 0): -1})
    assert sandwich_space(a).contains(image.to_vec())


def test_quantum_solution_family_admissible():
    # sigma = diag(q, 1/q) with the constrained gamma fill for q = 2
    q2 = make_quantum_plane(2)
    sig = check_automorphism(Matrix([[2, 0], [0, Fraction(1, 2)]]), q2)
    g11, g23, g13, g21 = Fraction(1), Fraction(1), Fraction(0), Fraction(0)
    g12 = -2 * (1 + 2) * g23
    g22 = -(Fraction(1, 2) + 1) * g11
    delta = extend_derivation(
        gamma_images(((g11, g12, g13), (g21, g22, g23))), sig, q2
    )
    assert not delta.is_zero()


def test_inadmissible_derivation_rejected():
    q2 = make_quantum_plane(2)
    sid = identity_automorphism(q2)
    with pytest.raises(NotAdmissibleError):
        extend_derivation([Tensor.word(2, (0, 0)), Tensor(2, 2)], sid, q2)


def test_hdet_identity_is_one():
    for name, a in catalog_algebras():
        assert hdet(identity_automorphism(a)) == 1


def test_hdet_diagonal_quantum():
    rng = random.Random(32)
    for q in (2, -1, Fraction(1, 2)):
        a = make_quantum_plane(q)
        for _ in range(5):
            m11 = rand_frac(rng, nonzero=True)
            m22 = rand_frac(rng, nonzero=True)
            sig = check_automorphism(Matrix([[m11, 0], [0, m22]]), a)
            assert hdet(sig) == m11 * m22


def test_hdet_commutative_is_det():
    rng = random.Random(33)
    a = make_polynomial(2)
    for _ in range(8):
        m = rand_invertible(rng, 2)
        assert hdet(check_automorphism(m, a)) == minor_det(m.rows)


def test_hdet_antidiagonal_at_q_minus_one():
    a = make_quantum_plane(-1)
    sig = check_automorphism(Matrix([[0, 3], [5, 0]]), a)
    assert hdet(sig) == 15  # m12 * m21, not det


def test_hdet_multiplicative():
    rng = random.Random(34)
    for name, a in catalog_algebras():
        for _ in range(6):
            s = random_admissible_automorphism(a, rng)
            t = random_admissible_automorphism(a, rng)
            st = s.then(t)
            assert hdet(st) == hdet(s) * hdet(t), name


def test_nakayama_polynomial_is_identity():
    for n in (1, 2, 3, 4):
        a = make_polynomial(n)
        assert nakayama_of_A(a).matrix == Matrix.identity(n)


def test_nakayama_quantum_plane():
    for q in (2, 3, Fraction(1, 2), -1):
        a = make_quantum_plane(q)
        assert nakayama_of_A(a).matrix == Matrix([[q, 0], [0, Fraction(1, Fraction(q))]])


def test_nakayama_jordan_plane():
    a = make_jordan_plane()
    assert nakayama_of_A(a).matrix == Matrix([[1, 2], [0, 1]])


def test_nakayama_satisfies_twist_when_substituted_back():
    for name, a in catalog_algebras():
        p = nakayama_of_A(a)
        omega = a.omega
        d = a.certificate.d
        twisted = omega.apply_matrix_at(1, p.matrix).tau(d - 1)
        sign = 1 if (d - 1) % 2 == 0 else -1
        assert twisted.scale(sign) == omega, name


def test_closed_form_matrix_identities():
    # direct 2x2 arithmetic
    assert nakayama_of_A_dim2_closed_form(Matrix([[0, 1], [-1, 0]])) == Matrix.identity(2)
    q = Fraction(7, 3)
    assert nakayama_of_A_dim2_closed_form(Matrix([[0, 1], [-q, 0]])) == Matrix(
        [[q, 0], [0, 1 / q]]
    )
    assert nakayama_of_A_dim2_closed_form(Matrix([[0, 1], [-1, -1]])) == Matrix(
        [[1, 2], [0, 1]]
    )


def test_closed_form_singular_rejected():
    with pytest.raises(NotInvertibleError):
        nakayama_of_A_dim2_closed_form(Matrix([[1, 1], [1, 1]]))


def test_generic_solver_equals_closed_form_on_catalog():
    for kind, q in (("commutative", None), ("quantum", 2), ("quantum", -1), ("jordan", None)):
        qm = dim2_relation_matrix(kind, q)
        alg = make_quantum_plane(q) if kind == "quantum" else (
            make_jordan_plane() if kind == "jordan" else make_polynomial(2)
        )
        assert nakayama_of_A(alg).matrix == nakayama_of_A_dim2_closed_form(qm)


def test_generic_solver_on_transformed_relations():
    # x^T Q' x with Q' = g^T Q g is still AS-regular; the closed form
    # must track the generic twist solve through the change of basis
    rng = random.Random(35)
    from orenaka import QuadraticAlgebra

    for _ in range(6):
        base = dim2_relation_matrix("quantum", rand_frac(rng, nonzero=True))
        g = rand_invertible(rng, 2, span=3)
        qp = g.transpose() * base * g
        rel = Tensor(2, 2, {(a, b): qp[a, b] for a in range(2) for b in range(2)})
        alg = QuadraticAlgebra(["x1", "x2"], [rel])
        alg.certify_as_regular()
        assert nakayama_of_A(alg).matrix == nakayama_of_A_dim2_closed_form(qp)


def test_hdet_of_nakayama_recorded():
    # no identity asserted; just well-defined and nonzero
    for name, a in catalog_algebras():
        value = hdet(nakayama_of_A(a))
        assert value != 0


def test_hdet_flags_unchecked_automorphism():
    # bypassing check_automorphism with a non-admissible matrix trips
    # the proportionality assertion, and the S^d guard of the Ore
    # pipeline; so does the zero matrix, which preserves every W_i
    from orenaka import DerivationLift, EngineInvariantError, nakayama_of_B
    from orenaka.morphisms import GradedAutomorphism

    q2 = make_quantum_plane(2)
    for m in (Matrix([[0, 1], [1, 0]]), Matrix.zero(2, 2)):
        rogue = GradedAutomorphism(m, q2)
        with pytest.raises(EngineInvariantError):
            hdet(rogue)
        with pytest.raises(EngineInvariantError) as err:
            nakayama_of_B(rogue, DerivationLift.zero(rogue))
        # not a later check that a wrong hdet happens to trip
        assert str(err.value).endswith("certification is broken")


def test_twist_solve_degenerate_tensor_rejected():
    with pytest.raises(NonUniqueTwistError):
        twist_solve(Tensor(2, 2, {(0, 0): 1}))  # x2 column unconstrained


def test_twist_solve_by_columns_matches_joint_system():
    # the n column systems against the n^2-unknown joint system: on the
    # catalog roster, poly(2..5), Sklyanin and omega-hats of sampled
    # pairs (d = 3..4, with mu_B far from the identity)
    from test_quadratic import _sklyanin

    algs = catalog_algebras() + [("poly5", make_polynomial(5))]
    algs.append(("sklyanin123", _sklyanin()))
    tensors = [(name, a.omega) for name, a in algs]
    rng = random.Random(251)
    for name, a in [("q2", make_quantum_plane(2)), ("jordan", make_jordan_plane()),
                    ("poly3", make_polynomial(3))]:
        for _ in range(2):
            sig = random_admissible_automorphism(a, rng)
            rep = nakayama_of_B(sig, random_admissible_derivation(a, sig, rng))
            tensors.append((f"{name}-hat", rep.omega_hat))
    for name, omega in tensors:
        assert twist_solve(omega) == twist_solve_joint(omega), name


def test_twist_solve_errors_match_joint_system():
    # underdetermined (kernel dim n * dim ker L = 2 * 1) and inconsistent
    # (x1 (x) x2 alone asks for omega[x1 x2] = 0 at the word x1 x2)
    cases = [
        (Tensor(2, 2, {(0, 0): 1}), "twist condition is underdetermined (kernel dim 2)"),
        (Tensor(2, 2, {(0, 1): 1}), "twist condition has no solution"),
    ]
    for omega, message in cases:
        errors = []
        for solve in (twist_solve, twist_solve_joint):
            with pytest.raises(NonUniqueTwistError) as err:
                solve(omega)
            errors.append((type(err.value), str(err.value)))
        assert errors == [(NonUniqueTwistError, message)] * 2


def test_admissible_lift_space_dimensions():
    # dimension = free gammas + lifts of zero (maps V -> R)
    q2 = make_quantum_plane(2)
    sig = check_automorphism(Matrix([[2, 0], [0, Fraction(1, 2)]]), q2)
    assert len(admissible_lift_space(q2, sig)) == 4 + 2 * q2.R.dim
    j = make_jordan_plane()
    sj = check_automorphism(Matrix([[1, 2], [0, 1]]), j)
    assert len(admissible_lift_space(j, sj)) == 4 + 2 * j.R.dim
    # a sigma of another algebra is refused before any lift is built
    from orenaka import random_admissible_derivation

    p2 = make_polynomial(2)
    with pytest.raises(ValueError, match=r"^sigma belongs to a different algebra$"):
        admissible_lift_space(p2, sig)
    with pytest.raises(ValueError, match=r"^sigma belongs to a different algebra$"):
        random_admissible_derivation(p2, sig, random.Random(0))


def _lift_space_by_unit_extension(alg, sigma):
    """Admissible lifts from the extension of each unit lift separately:
    the per-(lift, relation) route the relabelling replaces."""
    nv = alg.nv
    sandwich = sandwich_space(alg)
    rels = [Tensor.from_vec(b, nv, 2) for b in alg.R.basis()]
    cols = []
    for i in range(nv):
        for s in range(nv):
            for t in range(nv):
                unit = [Tensor(nv, 2) for _ in range(nv)]
                unit[i] = Tensor.word(nv, (s, t))
                lift = DerivationLift(unit, sigma)
                col = {}
                for ridx, rt in enumerate(rels):
                    for k, v in sandwich.reduce(lift.extend(rt).to_vec()).items():
                        col[(ridx, k)] = v
                cols.append(col)
    _, kernel = solve_columns(cols, [])
    basis = []
    for kv in kernel:
        images = [{} for _ in range(nv)]
        for unk, c in kv.items():
            i, rest = divmod(unk, nv * nv)
            images[i][divmod(rest, nv)] = c
        basis.append([Tensor(nv, 2, es) for es in images])
    return basis


@functools.lru_cache(maxsize=None)
def _admissibility_roster():
    """The algebras of the A_3 admissibility tests: the catalog roster,
    Sklyanin(1, 2, 3), poly(5), the q = 2/3 plane, swell's B =
    Sklyanin[w; id, delta] and dense poly(3)[z]."""
    from test_quadratic import _sklyanin, _sklyanin_extension

    return tuple(catalog_algebras()) + (
        ("sklyanin123", _sklyanin()),
        ("poly5", make_polynomial(5)),
        ("q2/3", make_quantum_plane(Fraction(2, 3))),
        ("swell-B", _sklyanin_extension()),
        ("dense-poly3[z]", dense_extension(3)[0]),
    )


def test_nf3_table_is_nf_word_on_every_length_3_word():
    for name, a in _admissibility_roster():
        table, den = a._nf3()
        assert len(table) == a.nv**3
        for f, row in enumerate(table):
            w = flat_word(f, 3, a.nv)
            assert {k: Fraction(n, den) for k, n in row.items()} == a.nf_word(w), (name, w)


def test_admissible_lift_space_matches_unit_extension():
    from test_quadratic import _sklyanin

    rng = random.Random(23)
    p3 = make_polynomial(3)
    sklyanin = _sklyanin()
    cases = [
        (p3, check_automorphism(rand_invertible(rng, 3), p3)),
        (make_quantum_plane(2), None),
        (make_jordan_plane(), None),
        (make_polynomial(4), None),  # a dense sigma
        (sklyanin, None),  # c * mu_A^k
        (sklyanin, None),
    ]
    for alg, sig in cases:
        if sig is None:
            sig = random_admissible_automorphism(alg, rng)
        basis = admissible_lift_space(alg, sig)
        assert basis == _lift_space_by_unit_extension(alg, sig)
        for images in basis:
            extend_derivation(images, sig, alg)  # admissible, or raises


def _admissible_by_fractions(images, sigma, alg):
    """Oracle: delta(R) <= R(x)V + V(x)R on the Fraction basis of R, and
    the first relation that leaves it, as a tensor."""
    delta = DerivationLift(images, sigma)
    sandwich = sandwich_space(alg)
    for b in alg.R.basis():
        t = Tensor.from_vec(b, alg.nv, 2)
        if not sandwich.contains(delta.extend(t).to_vec()):
            return t
    return None


def test_admissibility_on_integers_matches_fraction_oracle():
    # per sigma: an admissible lift, the same lift with one word added to
    # one image, and a random lift, each judged by the oracle.  The q = 2/3
    # plane's primitive relation row is 3 x1x2 - 2 x2x1, so the message
    # must show the basis row 1, -2/3, not the integer one
    rng = random.Random(37)
    verdicts = []
    for name, a in _admissibility_roster():
        nv = a.nv
        for _ in range(2):
            sig = random_admissible_automorphism(a, rng)
            good = list(random_admissible_derivation(a, sig, rng).images)
            nudged = list(good)
            k = rng.randrange(nv)
            nudged[k] = nudged[k] + Tensor.word(nv, (rng.randrange(nv), rng.randrange(nv)))
            noise = [
                Tensor(nv, 2, {(i, j): rand_frac(rng) for i in range(nv) for j in range(nv) if rng.random() < 0.4})
                for _ in range(nv)
            ]
            for images in (good, nudged, noise):
                escape = _admissible_by_fractions(images, sig, a)
                verdicts.append(escape is not None)
                if escape is None:
                    assert extend_derivation(images, sig, a).images == tuple(images), name
                    continue
                with pytest.raises(NotAdmissibleError) as err:
                    extend_derivation(images, sig, a)
                assert str(err.value) == f"delta(R) leaves R(x)V + V(x)R on relation {escape!r}", name
    assert verdicts[::3] == [False] * (len(verdicts) // 3)
    assert sum(verdicts) >= len(verdicts) // 2
    a = make_quantum_plane(Fraction(2, 3))
    with pytest.raises(NotAdmissibleError) as err:
        extend_derivation([Tensor.word(2, (0, 0)), Tensor(2, 2)], identity_automorphism(a), a)
    assert str(err.value) == "delta(R) leaves R(x)V + V(x)R on relation Tensor(1*(0, 1) + -2/3*(1, 0))"


def test_admissibility_and_perturb_read_no_fractions(monkeypatch):
    from orenaka import morphisms

    rng = random.Random(34)
    a = make_quantum_plane(Fraction(2, 3))
    sig = random_admissible_automorphism(a, rng)
    delta = random_admissible_derivation(a, sig, rng)
    basis = admissible_lift_space(a, sig)
    rel = Tensor.from_vec(a.R.basis()[0], 2, 2)
    inside = [rel.scale(Fraction(5, 7)), Tensor(2, 2)]
    outside = [rel, Tensor.word(2, (0, 0))]

    def forbidden(self):
        raise AssertionError("Fraction view read")

    # no Fraction is made before solve_columns, whose kernel is the edge
    edge = []
    make_fraction = Fraction.__new__

    def guarded(cls, *args, **kwargs):
        if not edge:
            raise AssertionError("Fraction built before the edge")
        return make_fraction(cls, *args, **kwargs)

    def solver(cols, rhs):
        assert all(type(v) is int for col in cols for v in col.values())
        edge.append(True)
        return solve_columns(cols, rhs)

    monkeypatch.setattr(Tensor, "entries", property(forbidden))
    monkeypatch.setattr(Tensor, "to_vec", forbidden)
    monkeypatch.setattr(morphisms.Subspace, "basis", forbidden)
    monkeypatch.setattr(morphisms, "solve_columns", solver)
    monkeypatch.setattr(Fraction, "__new__", guarded)
    again = extend_derivation(delta.images, sig, a)
    lifts = admissible_lift_space(a, sig)
    monkeypatch.setattr(Fraction, "__new__", make_fraction)
    perturbed = delta.perturb(inside)
    with pytest.raises(ValueError) as err:
        delta.perturb(outside)
    monkeypatch.undo()
    assert edge == [True]
    assert lifts == basis
    assert again.images == delta.images
    assert perturbed.images == tuple(x + e for x, e in zip(delta.images, inside))
    assert str(err.value) == "perturbation images must lie in R"


def test_certified_algebra_is_freed_without_the_cycle_collector(monkeypatch):
    # mu_A refers to its algebra, and the algebra keeps mu_A only weakly,
    # so dropping the last reference frees the algebra at once, on the
    # PBW route (poly(3)) and on the rank route (Sklyanin); an inverse
    # keeps its source's matrix, not its source, so an Ore request frees
    # its base too, with omega-hat read or not; and B on the ore route
    # frees itself and its base A'
    import gc
    import weakref

    from test_quadratic import _sklyanin, _sklyanin_extension

    def poly3():
        rels = [Tensor(3, 2, {(i, j): 1, (j, i): -1}) for i in range(3) for j in range(i + 1, 3)]
        a = QuadraticAlgebra(["x1", "x2", "x3"], rels)
        a.certify_as_regular()
        return a

    gc.collect()
    gc.disable()
    try:
        for build in (poly3, _sklyanin):
            a = build()
            mu = nakayama_of_A(a)
            assert nakayama_of_A(a) is mu
            inverse = mu.inverse().matrix
            ref = weakref.ref(a)
            del a, mu
            assert ref() is None, build.__name__
        # omega-hat's words are built on first read: a report frees its
        # base whether or not they were read
        for build, read in itertools.product((poly3, _sklyanin), (False, True)):
            a = build()
            sigma = identity_automorphism(a)
            assert sigma.inverse().inverse().matrix == sigma.matrix
            rep = nakayama_of_B(sigma, random_admissible_derivation(a, sigma, random.Random(2)))
            if read:
                assert rep.omega_hat.entries
            assert (rep.omega_hat._build is None) == read
            ref = weakref.ref(a)
            del a, sigma, rep
            assert ref() is None, (build.__name__, read)
        b = _sklyanin_extension()
        b.certify_as_regular()
        assert b.certificate.route == "ore" and nakayama_of_A(b).inverse().algebra is b
        refs = weakref.ref(b), weakref.ref(b._ore_base()[0])
        del b
        assert [r() for r in refs] == [None, None]
        # with the automorphism dropped, the kept matrices are wrapped
        # again and nothing is solved
        a = build()
        want = nakayama_of_A(a).matrix
        monkeypatch.setattr("orenaka.morphisms.twist_solve", None)
        mu = nakayama_of_A(a)
        assert mu.matrix == want and mu.inverse().matrix == inverse and mu.algebra is a
        assert nakayama_of_A(a) is mu
    finally:
        gc.enable()
