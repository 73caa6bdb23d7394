import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from orenaka import (
    Matrix,
    NoSolutionError,
    NotInvertibleError,
    Subspace,
    Tensor,
    make_polynomial,
    rref,
    scalar,
    solve_affine,
    subspace_intersect,
    subspace_sum,
)

from orenaka import linalg
from orenaka.linalg import (
    P,
    _clear,
    _integer_row,
    _scaled,
    combination,
    echelon,
    expand_through,
    fraction_rows,
    rank,
    sandwich_map,
    shift,
    solve_columns,
    word_flat,
)

from conftest import (
    catalog_algebras,
    compose_rows,
    fraction_apply_images_at,
    fraction_apply_matrix_at,
    fraction_echelon,
    fraction_expand_through,
    fraction_sandwich_map,
    minor_det,
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
            # every minor here is a small rational, so none vanishes mod P = 2^30 - 35
            assert rank(order, P) == want
            assert Subspace(5, order) == space


def test_rank_mod_p_lower_bound_and_denominators():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(3), 1: Fraction(1)}]
    assert rank(rows) == 2
    assert rank(rows, 5) == 1  # 5 divides the determinant -5
    assert rank(rows, 7) == 2
    assert rank([{0: Fraction(1, 7)}], 7) == 1
    # scaled to integers the first row is {0: 1, 1: 7}, which meets the
    # second row mod 7
    pair = [{0: Fraction(1, 7), 1: Fraction(1)}, {0: Fraction(1)}]
    assert rank(pair) == 2
    assert rank(pair, 7) == 1
    assert rank([{0: Fraction(7, 3)}], 7) == 0
    assert rank([{0: Fraction(2, 3), 3: Fraction(1)}, {}], 7) == 1
    assert rank([]) == 0


def _space(rows, n):
    return Subspace(n, rows)


def test_subspace_self_intersection():
    s = _space([{0: 1, 2: 2}, {1: 3}], 4)
    assert subspace_intersect(s, s) == s
    assert subspace_sum(s, s) == s


def test_subspace_reduce_drops_explicit_zeros():
    s = _space([{0: 1}], 2)
    assert s.contains({0: Fraction(1), 1: Fraction(0)})
    assert s.reduce({0: Fraction(2), 1: Fraction(0)}) == {}
    assert s.reduce({1: Fraction(3), 0: Fraction(0)}) == {1: 3}


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
            if minor_det(m.rows):
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


# ---------------------------------------------------------------------------
# Scaled-integer tensor kernels against the Fraction route (conftest)

_BIG = 2**100
# denominators that share factors, the rank prime P and ones above 2^100
_denominators = st.one_of(
    st.sampled_from([1, 2, 3, 4, 6, 9, 12, 18, 36]),
    st.just(P),
    st.integers(_BIG + 1, _BIG << 8),
)
_rationals = st.builds(Fraction, st.integers(-30, 30), _denominators)


@st.composite
def _tensors(draw, nv, degree, max_size=10):
    word = st.tuples(*[st.integers(0, nv - 1)] * degree)
    return Tensor(nv, degree, draw(st.dictionaries(word, _rationals, max_size=max_size)))


@st.composite
def _matrix_and_tensor(draw):
    """A matrix, singular when a row is drawn as a multiple of another,
    and a tensor; on singular matrices the tensor gains a pair of words
    whose images cancel at a drawn slot."""
    nv = draw(st.integers(2, 3))
    degree = draw(st.integers(1, 3))
    rows = [draw(st.lists(_rationals, min_size=nv, max_size=nv)) for _ in range(nv)]
    t = draw(_tensors(nv, degree))
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(nv)))[:2]
        c = draw(_rationals.filter(bool))
        rows[j] = [c * x for x in rows[i]]
        k = draw(st.integers(0, degree - 1))
        w = list(draw(st.tuples(*[st.integers(0, nv - 1)] * degree)))
        x = draw(_rationals.filter(bool))
        es = dict(t.entries)
        w[k] = i
        es[tuple(w)] = c * x
        w[k] = j
        es[tuple(w)] = -x
        t = Tensor(nv, degree, es)
    return Matrix(rows), t


def _assert_canonical(t: Tensor):
    """The stored form: int numerators, none zero, over a positive int
    denominator with gcd(den, *nums) = 1; ``entries`` is their view."""
    assert type(t.den) is int and t.den > 0
    assert all(type(n) is int and n for n in t.nums.values()), "a zero numerator is stored"
    assert gcd(t.den, *t.nums.values()) == 1, "the stored form is not reduced"
    assert len(t.entries) == len(t.nums)
    assert dict(t.entries.items()) == {w: Fraction(n, t.den) for w, n in t.nums.items()}


def _assert_same_entries(out: Tensor, expected: dict):
    _assert_canonical(out)
    assert all(c for c in out.entries.values()), "a zero entry is stored"
    assert out.entries == expected


@settings(max_examples=80, deadline=None)
@given(_matrix_and_tensor(), st.data())
def test_apply_matrix_slots_matches_fraction_route(mt, data):
    m, t = mt
    slots = data.draw(st.lists(st.integers(1, t.degree), max_size=3))
    expected = dict(t.entries)
    for slot in slots:
        expected = fraction_apply_matrix_at(expected, slot, m)
    _assert_same_entries(t.apply_matrix_slots(slots, m), expected)
    if slots:
        assert t.apply_matrix_at(slots[0], m).entries == fraction_apply_matrix_at(
            t.entries, slots[0], m
        )


def test_apply_matrix_slots_rejects_bad_slots_and_sizes():
    t = Tensor(2, 2, {(0, 1): 1})
    for slots in ((0,), (1, 3)):
        with pytest.raises(ValueError):
            t.apply_matrix_slots(slots, Matrix.identity(2))
    with pytest.raises(ValueError):
        t.apply_matrix_slots((1,), Matrix.identity(3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_images_at_matches_fraction_route(data):
    nv = data.draw(st.integers(2, 3))
    t = data.draw(_tensors(nv, data.draw(st.integers(1, 3))))
    kdeg = data.draw(st.integers(1, 2))
    images = [data.draw(_tensors(nv, kdeg, max_size=4)) for _ in range(nv)]
    slot = data.draw(st.integers(1, t.degree))
    out = t.apply_images_at(slot, images)
    assert out.degree == t.degree + kdeg - 1
    _assert_same_entries(out, fraction_apply_images_at(t.entries, slot, images))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_combine_matches_fraction_sum_and_scaling_is_lcm(data):
    nv, degree = 2, data.draw(st.integers(1, 3))
    terms = [(data.draw(_rationals), data.draw(_tensors(nv, degree))) for _ in range(3)]
    terms.append((-terms[0][0], terms[0][1]))  # cancels the first term
    expected: dict = {}
    for c, t in terms:
        for w, v in t.entries.items():
            expected[w] = expected.get(w, 0) + c * v
    expected = {w: v for w, v in expected.items() if v}
    _assert_same_entries(Tensor.combine(nv, degree, terms), expected)
    # the same sum on int keys and on tuple keys, with int coefficients
    # and entries mixed in
    flat = [(c, {word_flat(w, nv): v for w, v in t.entries.items()}) for c, t in terms]
    flat.append((2, {0: 3, 1: -3}))
    flat.append((-3, {0: 2, 1: -2}))
    assert combination(flat) == {word_flat(w, nv): v for w, v in expected.items()}
    keyed = [(c, {(w, "x"): v for w, v in t.entries.items()}) for c, t in terms]
    got = combination(keyed)
    assert got == {(w, "x"): v for w, v in expected.items()}
    assert all(type(v) is Fraction and v for v in got.values())
    for _, t in terms:
        nums, den = _scaled(t.entries)
        assert den == lcm(*(c.denominator for c in t.entries.values()))
        assert {w: Fraction(n, den) for w, n in nums.items()} == t.entries


@st.composite
def _sandwich(draw):
    """A subspace S of V^(x)2 from random rational rows (its RREF rows
    carry assorted denominators), outer degrees, a member of the
    sandwich and a perturbation of it by one word."""
    nv = draw(st.integers(2, 3))
    rows = draw(
        st.lists(st.dictionaries(st.integers(0, nv * nv - 1), _rationals, max_size=4),
                 min_size=1, max_size=3)
    )
    space = Subspace(nv * nv, rows)
    assume(space.dim)
    left, right = draw(st.integers(0, 2)), draw(st.integers(0, 1))
    basis = space.basis()
    member: dict = {}
    for _ in range(draw(st.integers(0, 4))):
        jl = draw(st.tuples(*[st.integers(0, nv - 1)] * left))
        jr = draw(st.tuples(*[st.integers(0, nv - 1)] * right))
        if basis:
            row = basis[draw(st.integers(0, len(basis) - 1))]
            c = draw(_rationals)
            for k, v in row.items():
                key = jl + divmod(k, nv) + jr
                member[key] = member.get(key, 0) + c * v
    degree = left + 2 + right
    perturbed = dict(member)
    w = draw(st.tuples(*[st.integers(0, nv - 1)] * degree))
    perturbed[w] = perturbed.get(w, 0) + draw(_rationals.filter(bool))
    return nv, space, left, right, Tensor(nv, degree, member), Tensor(nv, degree, perturbed)


@settings(max_examples=80, deadline=None)
@given(_sandwich(), st.data())
def test_expand_through_and_sandwich_map_match_fraction_route(case, data):
    nv, space, left, right, member, perturbed = case
    sandwich = shift(space, nv, left, right)
    m = Matrix([data.draw(st.lists(_rationals, min_size=nv, max_size=nv)) for _ in range(nv)])
    kdeg = data.draw(st.integers(1, 3))
    images = [data.draw(_tensors(nv, kdeg, max_size=4)) for _ in range(space.dim)]
    for t in (member, perturbed):
        coeffs = expand_through(t, left, space, 2, right)
        expected = fraction_expand_through(t.entries, nv, left, space, 2, right)
        assert coeffs == expected
        assert (coeffs is not None) == sandwich.contains(t.to_vec())
        out = sandwich_map(t, left, space, 2, right, images, m)
        mapped = fraction_sandwich_map(t.entries, nv, left, space, 2, right, images, m)
        if mapped is None:
            assert out is None
        else:
            assert out.degree == left + kdeg + right
            _assert_same_entries(out, mapped)
    assert expand_through(member, left, space, 2, right) is not None


def test_expand_through_rows_with_distinct_denominators():
    # RREF rows over 2 and 3: the residual must scale each row by its own
    # denominator to see that a member cancels
    space = Subspace(4, [{0: 1, 1: Fraction(1, 2)}, {2: 1, 3: Fraction(1, 3)}])
    t = Tensor(
        2, 3, {(0, 0, 0): 5, (0, 0, 1): Fraction(5, 2), (1, 1, 0): 7, (1, 1, 1): Fraction(7, 3)}
    )
    assert expand_through(t, 1, space, 2, 0) == {((0,), 0, ()): 5, ((1,), 1, ()): 7}
    assert expand_through(t + Tensor.word(2, (1, 1, 1)), 1, space, 2, 0) is None


def test_expand_through_rejects_mismatched_shapes():
    # a degree-3 tensor is not in V^0 (x) R (x) V^0, whatever its entries
    r = make_polynomial(2).R
    t = Tensor(2, 3, {(0, 1, 0): 1, (1, 0, 0): -1})
    with pytest.raises(ValueError):
        expand_through(t, 0, r, 2, 0)
    with pytest.raises(ValueError):
        expand_through(t, 1, make_polynomial(3).R, 2, 0)


# ---------------------------------------------------------------------------
# The stored form: canonical integers inside, Fraction views outside


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_tensor_kernel_keeps_the_canonical_form(data):
    nv = data.draw(st.integers(2, 3))
    degree = data.draw(st.integers(1, 3))
    t = data.draw(_tensors(nv, degree))
    u = data.draw(_tensors(nv, degree))
    c = data.draw(_rationals)
    m = Matrix([data.draw(st.lists(_rationals, min_size=nv, max_size=nv)) for _ in range(nv)])
    images = [data.draw(_tensors(nv, 2, max_size=4)) for _ in range(nv)]
    te, ue = dict(t.entries), dict(u.entries)

    def fsum(*terms):
        out: dict = {}
        for f, es in terms:
            for w, v in es.items():
                out[w] = out.get(w, 0) + f * v
        return {w: v for w, v in out.items() if v}

    _assert_same_entries(t, te)
    _assert_same_entries(t + u, fsum((1, te), (1, ue)))
    _assert_same_entries(t - u, fsum((1, te), (-1, ue)))
    _assert_same_entries(-t, fsum((-1, te)))
    _assert_same_entries(t.scale(c), fsum((c, te)))
    _assert_same_entries(
        Tensor.combine(nv, degree, [(c, t), (2, u), (-c, t)]), fsum((2, ue))
    )
    _assert_same_entries(
        t.tensor(u), {w1 + w2: a * b for w1, a in te.items() for w2, b in ue.items()}
    )
    i = data.draw(st.integers(0, degree - 1))
    _assert_same_entries(t.tau(i), {w[1 : i + 1] + (w[0],) + w[i + 1 :]: v for w, v in te.items()})
    big = t.embed(nv + 1)
    assert big.nv == nv + 1
    _assert_same_entries(big, te)
    slot = data.draw(st.integers(1, degree))
    _assert_same_entries(t.apply_matrix_at(slot, m), fraction_apply_matrix_at(te, slot, m))
    _assert_same_entries(
        t.apply_images_at(slot, images), fraction_apply_images_at(te, slot, images)
    )
    back = Tensor.from_vec(t.to_vec(), nv, degree)
    _assert_canonical(back)
    assert back == t
    # equal values give equal stored forms, however they were reached
    assert t.scale(c).scale(2) == t.scale(2 * c)
    assert (t + u) - u == t
    assert t + u == u + t


def test_entries_is_a_read_only_view():
    t = Tensor(2, 2, {(0, 1): Fraction(1, 2), (1, 0): 3})
    assert (t.nums, t.den) == ({(0, 1): 1, (1, 0): 6}, 2)
    view = t.entries
    assert len(view) == 2 and (0, 1) in view and (1, 1) not in view
    assert view[(1, 0)] == 3 and view.get((1, 1), "none") == "none"
    assert view == {(0, 1): Fraction(1, 2), (1, 0): Fraction(3)}
    assert dict(view) == view and sorted(view) == [(0, 1), (1, 0)]
    with pytest.raises(TypeError):
        view[(0, 0)] = Fraction(1)
    assert t.entries is view
    assert Tensor(2, 2, {(0, 1): Fraction(2, 4), (1, 0): Fraction(6, 2)}) == t
    assert Tensor(2, 2).nums == {} and Tensor(2, 2).den == 1


def test_from_vec_rejects_indices_outside_the_space():
    # the flat index of a degree-2 word over 2 letters lies in 0..3;
    # 9 used to wrap to the word (0, 1) and -1 to (1, 1)
    for vec in ({9: 1}, {4: 1}, {-1: 1}, {4: 0}):
        with pytest.raises(ValueError):
            Tensor.from_vec(vec, 2, 2)
    assert Tensor.from_vec({3: 1, 0: Fraction(1, 2)}, 2, 2) == Tensor(
        2, 2, {(1, 1): 1, (0, 0): Fraction(1, 2)}
    )
    assert Tensor.from_vec({0: 5}, 3, 0) == Tensor(3, 0, {(): 5})


def test_integer_row_takes_int_rows_as_they_are():
    assert _integer_row({0: 4, 1: -6, 2: 0}, None) == {0: 2, 1: -3}
    assert _integer_row({0: 4, 1: -6, 2: 0}, 5) == {0: 4, 1: 4}
    assert _integer_row({0: Fraction(1, 2), 1: 3}, None) == {0: 1, 1: 6}
    row = {0: 2, 1: 0}
    _integer_row(row, None)
    assert row == {0: 2, 1: 0}, "the caller's row was changed"


# ---------------------------------------------------------------------------
# The integer elimination kernel against the Fraction route (conftest)

_entries = st.one_of(
    _rationals,
    st.builds(Fraction, st.integers(-(_BIG << 10), _BIG << 10), _denominators),
)


@st.composite
def _row_system(draw):
    """Sparse rows over n columns with entries above 2^100 and
    denominators that share factors; zero, duplicate and dependent rows
    are mixed in, and a shuffled copy of the list comes with them."""
    n = draw(st.integers(1, 6))
    col = st.integers(0, n - 1)
    rows = draw(st.lists(st.dictionaries(col, _entries, max_size=n), max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "dependent"]))
        if kind == "zero" or not rows:
            rows.append(draw(st.sampled_from([{}, {0: Fraction(0)}])))
        elif kind == "duplicate":
            rows.append(dict(draw(st.sampled_from(rows))))
        else:
            acc = {}
            for r in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                c = draw(_entries.filter(bool))
                for k, v in r.items():
                    acc[k] = acc.get(k, 0) + c * v
            rows.append(acc)
    return n, rows, draw(st.permutations(rows))


def _combination(cols, x) -> dict:
    """sum_j x[j] * cols[j], zeros dropped."""
    out = compose_rows([dict(enumerate(x))], cols)[0]
    return {k: v for k, v in out.items() if v}


@settings(max_examples=80, deadline=None)
@given(_row_system(), st.data())
def test_echelon_matches_fraction_route(case, data):
    n, rows, shuffled = case
    # one clearing step gives the primitive part of the Fraction
    # difference; checked first, as a broken step can keep a lead forever
    ints = [r for r in (_integer_row(row, None) for row in rows) if r] + [{0: 1}, {}]
    piv, r = dict(ints[0]), dict(ints[1])
    col = min(piv)
    # b = piv[col] does not divide a = r[col], so both terms count
    piv[col] = data.draw(st.integers(2, _BIG << 4))
    r[col] = piv[col] * data.draw(st.integers(-_BIG, _BIG)) + 1
    f = Fraction(r[col], piv[col])
    diff = {k: r.get(k, 0) - f * piv.get(k, 0) for k in r.keys() | piv.keys()}
    diff = {k: v for k, v in diff.items() if v}
    got = _clear(dict(r), piv, col, None)
    assert got.keys() == diff.keys() and col not in got
    assert all(type(v) is int for v in got.values()) and gcd(*got.values()) in (0, 1)
    if got:
        k0 = min(got)
        assert all(got[k] * diff[k0] == diff[k] * got[k0] for k in got)
    want = fraction_echelon(rows, reduced=True)
    for order in (rows, shuffled):
        # forward only: the rank
        assert rank(order) == len(fraction_echelon(order)) == len(want)
        assert rank(order, P) <= len(want)
        for lead, row in echelon(order).items():
            assert all(type(v) is int for v in row.values())
            assert row[lead] > 0 and gcd(*row.values()) == 1 and min(row) == lead
        # the canonical RREF
        assert Subspace(n, order).basis() == [want[k] for k in sorted(want)]
    # solve_columns: the rows as columns; one right-hand side in their
    # span and one drawn freely
    u = len(rows)
    x0 = data.draw(st.lists(_entries, min_size=u, max_size=u))
    rhs_list = [_combination(rows, x0), data.draw(st.dictionaries(st.integers(0, n - 1), _entries))]
    particulars, kernel = solve_columns(shuffled, rhs_list)
    eqs = [{j: c[k] for j, c in enumerate(shuffled) if c.get(k)} for k in range(n)]
    bound = set(fraction_echelon(eqs, reduced=True))
    free = [j for j in range(u) if j not in bound]
    assert particulars[0] is not None
    for rhs, x in zip(rhs_list, particulars):
        if x is None:
            assert len(fraction_echelon(rows + [rhs])) > len(want)
            continue
        assert _combination(shuffled, x) == {k: v for k, v in rhs.items() if v}
        assert all(x[f] == 0 for f in free)
    assert len(kernel) == len(free)
    for f, kv in zip(free, kernel):
        assert {j: kv.get(j, 0) for j in free} == {j: int(j == f) for j in free}
        assert _combination(shuffled, [kv.get(j, 0) for j in range(u)]) == {}


@settings(max_examples=60, deadline=None)
@given(_row_system(), st.data())
def test_subspace_stores_primitive_integer_rref_rows(case, data):
    n, rows, shuffled = case
    s = Subspace(n, rows)
    want = fraction_echelon(rows, reduced=True)
    assert s.pivots == tuple(sorted(want))
    for p, row in s._rows.items():
        assert all(type(v) is int and v for v in row.values())
        assert min(row) == p and row[p] > 0 and gcd(*row.values()) == 1
        assert not any(k in s._rows for k in row if k != p)
    # basis() is the Fraction view, normalised to 1 at each pivot
    assert s.basis() == [want[k] for k in sorted(want)]
    # == is structural: the same span, however presented, stores the same rows
    scales = [data.draw(_rationals.filter(bool)) for _ in shuffled]
    scaled = [{k: c * v for k, v in r.items()} for c, r in zip(scales, shuffled)]
    for other in (Subspace(n, shuffled), Subspace(n, scaled), Subspace(n, s.basis())):
        assert other == s and other._rows == s._rows and hash(other) == hash(s)
    for left, right in ((0, 1), (1, 0)):
        sh = shift(s, 2, left, right)
        assert all(gcd(*r.values()) == 1 and r[p] > 0 for p, r in sh._rows.items())
    vec = data.draw(st.dictionaries(st.integers(0, n - 1), _entries, max_size=n))
    rest = dict(vec)
    for p, b in zip(sorted(want), s.basis()):
        f = vec.get(p, 0)
        for k, v in b.items():
            rest[k] = rest.get(k, 0) - f * v
    assert s.reduce(vec) == {k: v for k, v in rest.items() if v}


@settings(max_examples=60, deadline=None)
@given(_row_system(), st.data())
def test_capped_rank_is_min_of_cap_and_rank(case, data):
    n, rows, shuffled = case
    for p in (None, P):
        full = rank(rows, p)
        cap = data.draw(st.integers(0, len(rows) + 1))
        assert rank(shuffled, p, cap=cap) == min(cap, full)


def test_rows_dependent_only_mod_p_fall_back_to_q(monkeypatch):
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + P}]
    assert rank(rows, P) == 1 and rank(rows) == 2
    # the modulus of every forward pass echelon runs
    calls = []
    real = linalg._forward
    monkeypatch.setattr(linalg, "_forward", lambda r, p, cap=None: calls.append(p) or real(r, p, cap))
    assert fraction_rows(echelon(rows, reduced=True)) == fraction_echelon(rows, reduced=True)
    # preselection mod P, the chosen row over Q, then every row over Q
    assert calls == [P, None, None]
    calls.clear()
    # below the gate there is one pass over Q
    assert echelon([{0: 1, 1: 1}, {0: 1, 1: 2}], reduced=True) == {0: {0: 1}, 1: {1: 1}}
    assert calls == [None]


@settings(max_examples=40, deadline=None)
@given(_row_system(), st.data())
def test_echelon_with_a_row_dependent_only_mod_p(case, data):
    n, rows, _ = case
    ints = [r for r in (_integer_row(row, None) for row in rows) if r] + [{0: 1}]
    # as ints the entries above 2^100 pass the gate: rows chosen mod P
    assert fraction_rows(echelon(ints, reduced=True)) == fraction_echelon(ints, reduced=True)
    r = dict(data.draw(st.sampled_from(ints)))
    k = data.draw(st.integers(0, n - 1))
    r[k] = r.get(k, 0) + P
    rows = rows + [r]
    assert fraction_rows(echelon(rows, reduced=True)) == fraction_echelon(rows, reduced=True)
