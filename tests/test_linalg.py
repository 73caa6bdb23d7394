import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orenaka import (
    Matrix,
    NoSolutionError,
    NotInvertibleError,
    Subspace,
    Tensor,
    rref,
    scalar,
    solve_affine,
    subspace_intersect,
    subspace_sum,
)

from orenaka.linalg import P61, expand_through, rank, shift, solve_columns

from conftest import (
    catalog_algebras,
    minor_rank,
    rand_frac,
    rand_matrix,
    shifted_relation_space,
)

fractions_st = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


def test_scalar_parsing():
    assert scalar("3/4") == Fraction(3, 4)
    assert scalar("-2") == Fraction(-2)
    assert scalar("0.25") == Fraction(1, 4)
    assert scalar(7) == Fraction(7)
    with pytest.raises(TypeError):
        scalar(0.25)


@given(fractions_st.filter(lambda x: x != 0))
def test_scalar_exact_inverse(a):
    assert a * (1 / a) == 1
    assert Fraction(1) / a * a == 1


def test_rref_identity():
    m = Matrix.identity(2)
    r, piv, rank = rref(m)
    assert r == m and piv == [0, 1] and rank == 2


def test_rref_dependent_rows():
    r, piv, rank = rref(Matrix([[1, 2], [2, 4]]))
    assert r == Matrix([[1, 2], [0, 0]])
    assert rank == 1 and piv == [0]


def test_rref_rank_vs_minor_oracle():
    rng = random.Random(11)
    for _ in range(6):
        m = rand_matrix(rng, 6, span=3)
        _, _, rank = rref(m)
        assert rank == minor_rank(m)


def test_rref_random_rectangular_vs_minor_oracle():
    rng = random.Random(12)
    for _ in range(4):
        rows = [[rand_frac(rng, 3) for _ in range(5)] for _ in range(3)]
        m = Matrix(rows)
        _, _, rank = rref(m)
        assert rank == minor_rank(m)


def test_rank_matches_minor_oracle():
    rng = random.Random(13)
    for trial in range(8):
        m = Matrix([[rand_frac(rng, 3) for _ in range(5)] for _ in range(4)])
        if trial % 2:  # a dependent row, so some row must vanish
            m = Matrix(list(m.rows) + [[a - 2 * b for a, b in zip(*m.rows[:2])]])
        rows = [{k: e for k, e in enumerate(r) if e} for r in m.rows]
        want = minor_rank(m)
        space = Subspace(5, rows)
        assert space.dim == want
        # the row order is the kernel's own choice: no result may see it
        for order in (rows, rows[::-1], rng.sample(rows, len(rows))):
            assert rank(order) == want
            # every minor here is a small rational, so none vanishes mod 2^61 - 1
            assert rank(order, P61) == want
            assert Subspace(5, order) == space


def test_rank_mod_p_lower_bound_and_denominators():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(3), 1: Fraction(1)}]
    assert rank(rows) == 2
    assert rank(rows, 5) == 1  # 5 divides the determinant -5
    assert rank(rows, 7) == 2
    assert rank([{0: Fraction(1, 7)}], 7) is None
    assert rank([{0: Fraction(7, 3)}], 7) == 0
    assert rank([{0: Fraction(2, 3), 3: Fraction(1)}, {}], 7) == 1
    assert rank([]) == 0


def _space(rows, n):
    return Subspace(n, rows)


def test_subspace_self_intersection():
    s = _space([{0: 1, 2: 2}, {1: 3}], 4)
    assert subspace_intersect(s, s) == s
    assert subspace_sum(s, s) == s


def test_subspace_disjoint_lines():
    e1 = _space([{0: 1}], 2)
    e2 = _space([{1: 1}], 2)
    meet = subspace_intersect(e1, e2)
    assert meet.dim == 0


def test_subspace_ambient_mismatch():
    with pytest.raises(ValueError):
        subspace_sum(_space([], 2), _space([], 3))
    with pytest.raises(ValueError):
        subspace_intersect(_space([], 2), _space([], 3))


def test_grassmann_dimension_formula():
    rng = random.Random(13)
    for _ in range(60):
        def rnd():
            rows = [
                {i: rand_frac(rng, 3) for i in rng.sample(range(8), rng.randint(1, 4))}
                for _ in range(rng.randint(0, 4))
            ]
            return _space(rows, 8)

        s, t = rnd(), rnd()
        su, meet = subspace_sum(s, t), subspace_intersect(s, t)
        assert s.dim + t.dim == su.dim + meet.dim
        for b in meet.basis():
            assert s.contains(b) and t.contains(b)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rref_canonicity(data):
    # same span from a rescaled, shuffled spanning set -> identical object
    n = 6
    rows = data.draw(
        st.lists(
            st.dictionaries(
                st.integers(0, n - 1), fractions_st.filter(lambda x: x != 0), max_size=4
            ),
            max_size=5,
        )
    )
    s = Subspace(n, rows)
    scales = data.draw(
        st.lists(
            fractions_st.filter(lambda x: x != 0), min_size=s.dim, max_size=s.dim
        )
    )
    doubled = [
        {k: c * v for k, v in b.items()} for b, c in zip(s.basis(), scales)
    ] + s.basis()[::-1]
    assert Subspace(n, doubled) == s
    assert Subspace(n, data.draw(st.permutations(rows))) == s
    assert Subspace(n, data.draw(st.permutations(doubled))) == s


def test_solve_affine_identity():
    x, ker = solve_affine(Matrix.identity(3), [1, 2, 3])
    assert x == [1, 2, 3]
    assert ker.dim == 0


def test_solve_affine_no_solution():
    with pytest.raises(NoSolutionError):
        solve_affine(Matrix.zero(2, 2), [1, 0])


def test_solve_affine_substitute_back():
    rng = random.Random(14)
    for _ in range(10):
        m = Matrix([[rand_frac(rng, 3) for _ in range(7)] for _ in range(5)])
        x0 = [rand_frac(rng, 3) for _ in range(7)]
        b = m.mul_vec(x0)
        x, ker = solve_affine(m, b)
        assert m.mul_vec(x) == b
        # canonical particular solution zeroes the free coordinates
        free = [i for i in range(7) if i in ker.pivots]
        for kb in ker.basis():
            kv = [kb.get(i, Fraction(0)) for i in range(7)]
            assert all(v == 0 for v in m.mul_vec(kv))
        assert 5 >= 7 - ker.dim  # rank bound


def test_solve_columns_mixed_rhs():
    # one elimination for three right-hand sides: consistent, inconsistent
    # (row "c" is row "a" + row "b" on the left but not on the right), zero
    rng = random.Random(21)
    u = 5
    a = {j: rand_frac(rng, 3, nonzero=True) for j in range(u)}
    b = {j: rand_frac(rng, 3) for j in range(u)}
    eqs = {"a": a, "b": b, "c": {j: a[j] + b[j] for j in range(u)}}
    cols = [{rk: eq[j] for rk, eq in eqs.items() if eq[j]} for j in range(u)]

    def image(x):
        out = {rk: sum((eq[j] * x[j] for j in range(u)), Fraction(0)) for rk, eq in eqs.items()}
        return {rk: v for rk, v in out.items() if v}

    good = image([rand_frac(rng, 3) for _ in range(u)])
    bad = {**good, "c": good.get("c", 0) + 1}
    particulars, kernel = solve_columns(cols, [good, bad, {}])
    x, none, zero = particulars
    assert none is None
    assert zero == [0] * u
    assert image(x) == good
    assert len(kernel) == u - 2
    for kv in kernel:
        assert image([kv.get(j, 0) for j in range(u)]) == {}


def test_apply_at_slot_identity():
    t = Tensor(2, 3, {(0, 1, 0): 2, (1, 1, 1): -1})
    assert t.apply_matrix_at(2, Matrix.identity(2)) == t


def test_apply_at_slot_swap_hand_case():
    swap = Matrix([[0, 1], [1, 0]])
    t = Tensor.word(2, (0, 1))  # x1 (x) x2
    assert t.apply_matrix_at(1, swap) == Tensor.word(2, (1, 1))
    assert t.apply_matrix_at(2, swap) == Tensor.word(2, (0, 0))


def test_apply_at_slot_out_of_range():
    with pytest.raises(ValueError):
        Tensor.word(2, (0,)).apply_matrix_at(2, Matrix.identity(2))


def test_apply_at_slot_linearity():
    rng = random.Random(15)
    for _ in range(10):
        def rnd_tensor():
            return Tensor(
                3,
                3,
                {
                    tuple(rng.randrange(3) for _ in range(3)): rand_frac(rng, 3)
                    for _ in range(4)
                },
            )

        t1, t2 = rnd_tensor(), rnd_tensor()
        f = rand_matrix(rng, 3)
        slot = rng.randint(1, 3)
        assert (t1 + t2).apply_matrix_at(slot, f) == (
            t1.apply_matrix_at(slot, f) + t2.apply_matrix_at(slot, f)
        )


def test_tau_zero_is_identity():
    t = Tensor(2, 4, {(0, 1, 1, 0): 5})
    assert t.tau(0) == t


def test_tau_hand_case():
    t = Tensor.word(3, (0, 1, 2))
    assert t.tau(2) == Tensor.word(3, (1, 2, 0))
    assert t.tau(1) == Tensor.word(3, (1, 0, 2))


def _adjacent_swap(t: Tensor, j: int) -> Tensor:
    """Transpose tensor slots j and j+1 (1-based), entrywise."""
    es = {}
    for w, c in t.entries.items():
        w2 = w[: j - 1] + (w[j], w[j - 1]) + w[j + 1 :]
        es[w2] = es.get(w2, 0) + c
    return Tensor(t.nv, t.degree, es)


def test_tau_matches_adjacent_transposition_recursion():
    # the staircase maps are defined by composing adjacent swaps at
    # positions (1,2), (2,3), ...; the one-shot permutation must agree
    rng = random.Random(18)
    for _ in range(10):
        d = rng.randint(2, 5)
        t = Tensor(
            3,
            d,
            {tuple(rng.randrange(3) for _ in range(d)): rand_frac(rng, 3) for _ in range(4)},
        )
        staircase = t
        for i in range(1, d):
            staircase = _adjacent_swap(staircase, i)
            assert staircase == t.tau(i), (d, i)


def test_scalar_rejects_zero_denominator_and_bools():
    with pytest.raises(ValueError):
        scalar("1/0")
    with pytest.raises(TypeError):
        scalar(True)


def test_tau_full_rotation_cycles():
    rng = random.Random(16)
    for _ in range(10):
        d = rng.randint(2, 5)
        t = Tensor(
            2,
            d,
            {tuple(rng.randrange(2) for _ in range(d)): rand_frac(rng, 3) for _ in range(3)},
        )
        out = t
        for _ in range(d):
            out = out.tau(d - 1)
        assert out == t


def test_matrix_inverse_roundtrip():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(1, 4)
        while True:
            m = rand_matrix(rng, n)
            if m.det():
                break
        assert m * m.inverse() == Matrix.identity(n)
        assert m.inverse() * m == Matrix.identity(n)
    for singular in (Matrix([[1, 2], [2, 4]]), Matrix.zero(3, 3), Matrix([[1, 2]])):
        with pytest.raises(NotInvertibleError):
            singular.inverse()


def _sandwich_cases():
    """(algebra name, S, deg S, nv, left, right) over the catalog's W_i."""
    for name, a in catalog_algebras():
        for i in range(1, a.certificate.d + 1):
            for left, right in ((0, 1), (1, 0), (1, 1), (2, 0)):
                if a.nv ** (left + i + right) <= 256:
                    yield name, a.koszul_space(i), i, a.nv, left, right


def test_shift_equals_full_elimination():
    # installing the shifted RREF rows directly must give exactly the
    # canonical RREF that elimination of the same rows produces
    for name, s, deg, nv, left, right in _sandwich_cases():
        expected = shifted_relation_space(s, nv, left, right)
        assert shift(s, nv, left, right) == expected, (name, deg, left, right)


def test_expand_through_membership_matches_shifted_space():
    # the pivot reader accepts exactly the sandwich members, and the
    # coefficients it returns rebuild the tensor
    rng = random.Random(19)
    for name, a in catalog_algebras():
        nv = a.nv
        for left, right in ((0, 1), (1, 0), (1, 2)):
            deg = left + 2 + right
            space = shifted_relation_space(a.R, nv, left, right)
            basis = space.basis()
            for _ in range(6):
                inside = {}
                for b in rng.sample(basis, min(3, len(basis))):
                    c = rand_frac(rng, nonzero=True)
                    for k, v in b.items():
                        inside[k] = inside.get(k, 0) + c * v
                outside = dict(inside)
                k = rng.randrange(nv**deg)
                outside[k] = outside.get(k, 0) + rand_frac(rng, nonzero=True)
                for vec in (inside, outside):
                    t = Tensor.from_vec(vec, nv, deg)
                    coeffs = expand_through(t, left, a.R, 2, right)
                    assert (coeffs is not None) == space.contains(t.to_vec()), name
                    if coeffs is not None:
                        rebuilt = Tensor(nv, deg)
                        for (jl, l, jr), c in coeffs.items():
                            row = Tensor.from_vec(a.R.basis()[l], nv, 2)
                            rebuilt = rebuilt + Tensor.word(nv, jl, c).tensor(row).tensor(
                                Tensor.word(nv, jr)
                            )
                        assert rebuilt == t, name
