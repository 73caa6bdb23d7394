import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from orenaka import (
    CASES,
    CertificationError,
    Matrix,
    NotASRegularError,
    QuadraticAlgebra,
    Subspace,
    Tensor,
    enumerate_solution,
    extend_derivation,
    identity_automorphism,
    make_jordan_plane,
    make_polynomial,
    make_quantum_plane,
    ore_relations,
    random_admissible_automorphism,
    random_admissible_derivation,
    random_case_params,
    subspace_intersect,
)

from orenaka import linalg, quadratic
from orenaka.cli import parse_problem
from orenaka.linalg import P, word_flat

from conftest import (
    catalog_algebras,
    commutative_monomial_count,
    compose_rows,
    dense_extension,
    direct_koszul,
    fraction_nf_tensor,
    ideal_component,
    koszul_differential,
    rand_frac,
    shifted_relation_space,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_ideal_component_commutative_plane():
    a = make_polynomial(2)
    assert ideal_component(a, 2).dim == 1
    assert a.dim_A(2) == 3
    assert ideal_component(a, 3).dim == 2**3 - a.dim_A(3)
    assert a.dim_A(3) == 4 == commutative_monomial_count(2, 3)


def test_ideal_component_tensor_algebra():
    t = QuadraticAlgebra(["x1", "x2"], [])
    for m in (2, 3, 4):
        assert ideal_component(t, m).dim == 0
        assert t.dim_A(m) == 2**m


def test_dims_match_monomial_count():
    for n in (2, 3):
        a = make_polynomial(n)
        for m in range(7):
            assert a.dim_A(m) == commutative_monomial_count(n, m)
            assert a.dim_A(m) == math.comb(n + m - 1, m)


def test_dims_match_ideal_component():
    # quotient dimensions from two independent routes
    for a in (make_polynomial(2), make_quantum_plane(3), make_jordan_plane()):
        for m in (2, 3, 4):
            assert a.dim_A(m) == a.nv**m - ideal_component(a, m).dim


def test_koszul_space_binomial_dims():
    for n in (2, 3, 4):
        a = make_polynomial(n)
        for m in range(n + 2):
            assert a.koszul_space(m).dim == math.comb(n, m)


def test_koszul_space_dim2_brute_force():
    # direct intersection R(x)V n V(x)R, built without the engine's
    # nested recursion
    for a in (
        make_jordan_plane(),
        make_quantum_plane(2),
        make_quantum_plane(-1),
        make_quantum_plane("1/2"),
    ):
        rv = shifted_relation_space(a.R, 2, 0, 1)
        vr = shifted_relation_space(a.R, 2, 1, 0)
        w3 = subspace_intersect(rv, vr)
        assert a.koszul_space(2).dim == 1
        assert a.koszul_space(3).dim == w3.dim == 0


def test_nested_equals_direct_definition():
    for name, a in catalog_algebras():
        d = a.certificate.d
        for i in range(2, min(d + 2, 5)):
            assert a.koszul_space(i) == direct_koszul(a, i), (name, i)


def test_koszul_space_equals_direct_definition_off_the_catalog():
    # the remainder intersections against the stacked-kernel oracle on
    # the rank route (Sklyanin, swell's B) and on dense relations; W_6
    # of dense poly(4)[z] is left out, as the oracle takes ~6 s on it
    algs = [
        ("sklyanin123", _sklyanin(), 4),
        ("swell-B", _sklyanin_extension(), 5),
        ("dense-poly3[z]", dense_extension(3)[0], 5),
        ("dense-poly4[z]", dense_extension(4)[0], 5),
    ]
    for name, a, top in algs:
        for i in range(2, top + 1):
            assert a.koszul_space(i) == direct_koszul(a, i), (name, i)


def test_nested_form_invariant():
    # W_i = (W_{i-1} (x) V) n (V (x) W_{i-1}) asserted against the
    # defining intersection of all shifts
    a = make_polynomial(3)
    for i in (3, 4):
        nested = subspace_intersect(
            _pad_right(a.koszul_space(i - 1), 3),
            _pad_left(a.koszul_space(i - 1), 3),
        )
        assert nested == direct_koszul(a, i)


def _pad_right(s: Subspace, nv: int) -> Subspace:
    rows = []
    for b in s.basis():
        for j in range(nv):
            rows.append({p * nv + j: c for p, c in b.items()})
    return Subspace(s.ambient * nv, rows)


def _pad_left(s: Subspace, nv: int) -> Subspace:
    rows = []
    for b in s.basis():
        for j in range(nv):
            rows.append({j * s.ambient + p: c for p, c in b.items()})
    return Subspace(s.ambient * nv, rows)


def test_koszul_differential_degree_one():
    a = make_polynomial(2)
    m = koszul_differential(a, 1, 0)
    assert m == Matrix.identity(2)


def test_koszul_differential_injective_at_top():
    a = make_polynomial(2)
    m = koszul_differential(a, 2, 0)
    assert m.nrows == 1
    assert any(e for row in m.rows for e in row)
    sp = Subspace(m.ncols, [{j: e for j, e in enumerate(r) if e} for r in m.rows])
    assert sp.dim == 1


def test_differentials_compose_to_zero():
    # the caps of certify_koszul's modular ranks rest on d o d = 0
    algs = [(name, a, a.certificate.d) for name, a in catalog_algebras()]
    algs += [("sklyanin123", _sklyanin(), 3), ("sklyanin-ext", _sklyanin_extension(), 4)]
    for name, a, d in algs:
        for i in range(2, d + 1):
            for j in range(0, 3):
                prod = compose_rows(a.differential_rows(i, j), a.differential_rows(i - 1, j + 1))
                assert all(e == 0 for row in prod for e in row.values()), (name, i, j)


def test_dense_differential_is_view_of_rows():
    a = make_jordan_plane()
    for i, j in ((1, 2), (2, 1), (2, 3)):
        dense = koszul_differential(a, i, j)
        rows = a.differential_rows(i, j)
        assert dense.nrows == len(rows)
        assert dense.ncols == a.koszul_space(i - 1).dim * a.dim_A(j + 1)
        assert [{k: e for k, e in enumerate(r) if e} for r in dense.rows] == rows


def test_nf_tensor_keep_matches_fraction_route():
    rng = random.Random(31)
    algs = [("poly3", make_polynomial(3)), ("quantum(2)", make_quantum_plane(2)),
            ("sklyanin123", _sklyanin())]
    for name, a in algs:
        nv = a.nv
        rels = [Tensor.from_vec(b, nv, 2) for b in a.R.basis()]
        for deg in (2, 3, 4):
            for keep in range(deg - 1):
                stride = a.dim_A(deg - keep)
                # a relation inside the multiplied factors: its terms cancel
                s = rng.randrange(keep, deg - 1)
                head = tuple(rng.randrange(nv) for _ in range(s))
                tail = tuple(rng.randrange(nv) for _ in range(deg - s - 2))
                rel = Tensor.word(nv, head).tensor(rng.choice(rels)).tensor(Tensor.word(nv, tail))
                assert a.nf_tensor(rel, keep) == {}, name
                words = [tuple(rng.randrange(nv) for _ in range(deg)) for _ in range(6)]
                t = Tensor(nv, deg, {w: rand_frac(rng, 5, nonzero=True) for w in words})
                for u in (t, t + rel.scale(rand_frac(rng, 5, nonzero=True))):
                    want = {
                        word_flat(h, nv) * stride + k: v
                        for (h, k), v in fraction_nf_tensor(a, u.entries, keep).items()
                    }
                    assert want and a.nf_tensor(u, keep) == want, (name, deg, keep)


def test_negative_degree_has_no_basis():
    a = QuadraticAlgebra(["x1", "x2"], [Tensor(2, 2, {(0, 1): 1, (1, 0): -1})])
    assert a.dim_A(4) == 5
    for m in (-1, -2, -5):
        assert a.basis_words(m) == []
        assert a.dim_A(m) == 0
    assert a.differential_rows(1, -1) == []


def test_certify_koszul_poly3_to_8():
    a = make_polynomial(3)
    cert = a.certify_koszul(8)
    assert cert.bound >= 8 and cert.euler_ok


def test_certify_koszul_jordan_to_8():
    cert = make_jordan_plane().certify_koszul(8)
    assert cert.bound >= 8


def _non_koszul_algebra():
    # x1^2, x2^2 and x1 x2 + x2 x3: exactness breaks by degree 4
    return QuadraticAlgebra(
        ["x1", "x2", "x3"],
        [
            Tensor(3, 2, {(0, 0): 1}),
            Tensor(3, 2, {(1, 1): 1}),
            Tensor(3, 2, {(0, 1): 1, (1, 2): 1}),
        ],
    )


def test_certify_detects_non_koszul_input():
    with pytest.raises(CertificationError) as exc:
        _non_koszul_algebra().certify_koszul(5)
    assert exc.value.degree == 4
    assert exc.value.position is not None


def _spy_rank(monkeypatch, lossy=False):
    """Route quadratic.rank through a recorder of the moduli it is
    called with, forwarding any cap; ``lossy`` makes every nonzero rank
    mod p one short."""
    real = quadratic.rank
    calls = []

    def spy(rows, p=None, cap=None):
        calls.append(p)
        r = real(rows, p, cap)
        return r - 1 if lossy and p is not None and r else r

    monkeypatch.setattr(quadratic, "rank", spy)
    return calls


def _q_ranks(a, bound):
    """Every differential's rank through ``bound``, by full RREF over Q
    (``Subspace``), in the (m, i) keys of a certificate."""
    wmax = 0
    while a.koszul_space(wmax + 1).dim and wmax + 1 <= bound:
        wmax += 1
    return {
        (m, i): Subspace(
            a.koszul_space(i - 1).dim * a.dim_A(m - i + 1), a.differential_rows(i, m - i)
        ).dim
        for m in range(1, bound + 1)
        for i in range(1, min(m, wmax) + 1)
    }


def test_certification_error_carries_sizes(monkeypatch):
    a = _non_koszul_algebra()
    calls = _spy_rank(monkeypatch)
    with pytest.raises(CertificationError) as exc:
        a.certify_koszul(5)
    e = exc.value
    assert str(e) == "complex not exact at W_2 (x) A_2"
    assert (e.degree, e.position) == (4, 2)
    assert e.dims == tuple(a.koszul_space(i).dim * a.dim_A(4 - i) for i in range(5))
    q = _q_ranks(a, 4)
    assert e.ranks == {i: q[(4, i)] for i in range(1, 5)}
    assert e.ranks[2] + e.ranks[3] != e.dims[2]
    # the failing degree's d_2..d_4 were recomputed over Q before raising;
    # r_1 = D_0 is known and d_1 is never ranked
    assert calls[-3:] == [None] * 3 and calls[-4] == P


def _sklyanin() -> QuadraticAlgebra:
    """The Sklyanin algebra S(1, 2, 3) on x, y, z = 0, 1, 2, certified."""
    x, y, z = 0, 1, 2
    rels = [
        {(y, z): 1, (z, y): 2, (x, x): 3},
        {(z, x): 1, (x, z): 2, (y, y): 3},
        {(x, y): 1, (y, x): 2, (z, z): 3},
    ]
    s = QuadraticAlgebra(("x", "y", "z"), [Tensor(3, 2, r) for r in rels])
    s.certify_as_regular()
    return s


def test_certified_ranks_equal_exact_elimination():
    # Sklyanin(1,2,3) and poly(3)^tau take the rank route to bound 6, which
    # takes r_1 = D_0 from surjectivity; _q_ranks ranks d_1 too
    twist = _twisted_poly3()[0]
    twist.certify_as_regular()
    rank_route = [("sklyanin123", _sklyanin()), ("poly3^tau", twist)]
    for name, a in rank_route:
        assert (a.certificate.route, a.certificate.bound) == ("ranks", 6), name
    for name, a in catalog_algebras() + rank_route + [("poly5", make_polynomial(5))]:
        cert = a.certificate
        assert cert.ranks == _q_ranks(a, cert.bound), name
    # the golden input of the second rank-route algebra is poly(3)^tau
    spec = parse_problem(json.loads((GOLDEN / "poly3_twist.json").read_text()))
    assert QuadraticAlgebra(spec.generators, spec.relations).R == twist.R


def test_prime_in_denominator_certifies_over_q(monkeypatch):
    want = _q_ranks(make_quantum_plane(2), 6)
    q = Fraction(1, P)
    a = QuadraticAlgebra(["x1", "x2"], [Tensor(2, 2, {(0, 1): 1, (1, 0): -q})])
    # the rows are scaled to integers, so the rank mod p is defined
    rows = a.differential_rows(1, 1)
    assert quadratic.rank(rows, P) <= quadratic.rank(rows)
    calls = _spy_rank(monkeypatch)
    ranks = a._prove_by_ranks(6)
    # the modular ranks alone certify
    assert calls and None not in calls
    assert ranks == _q_ranks(a, 6) == want


def test_modular_undercount_falls_back_to_q(monkeypatch):
    want = _q_ranks(make_polynomial(3), 6)
    calls = _spy_rank(monkeypatch, lossy=True)
    a = QuadraticAlgebra(
        ["x1", "x2", "x3"],
        [Tensor(3, 2, {(i, j): 1, (j, i): -1}) for i in range(3) for j in range(i + 1, 3)],
    )
    ranks = a._prove_by_ranks(6)
    # one modular and one Q rank per d_i with i >= 2; r_1 = D_0 is checked
    # against the full RREF of d_1 in want
    assert calls.count(None) == calls.count(P) == len([k for k in want if k[1] >= 2])
    assert ranks == want


def test_certify_runs_on_monomial_algebra():
    # x1^2 = 0: Koszul but never AS-regular; certification still runs
    # and reports ranks
    a = QuadraticAlgebra(["x1", "x2"], [Tensor(2, 2, {(0, 0): 1})])
    cert = a.certify_koszul(5)
    assert cert.ranks and not cert.as_regular
    with pytest.raises(NotASRegularError):
        a.certify_as_regular()


def test_certify_as_regular_values():
    a2 = make_polynomial(2)
    assert a2.certificate.d == 2
    assert a2.omega == Tensor(2, 2, {(0, 1): 1, (1, 0): -1})

    a3 = make_polynomial(3)
    assert a3.certificate.d == 3
    assert a3.koszul_space(1).dim == a3.koszul_space(2).dim == 3

    q = make_quantum_plane(5)
    assert q.certificate.d == 2
    assert q.omega == Tensor(2, 2, {(0, 1): 1, (1, 0): -5})


def test_dimension_symmetry():
    for name, a in catalog_algebras():
        d = a.certificate.d
        for i in range(d + 1):
            assert a.koszul_space(i).dim == a.koszul_space(d - i).dim, name


def test_euler_identity():
    for name, a in [("poly3", make_polynomial(3)), ("jordan", make_jordan_plane())]:
        n = a.certificate.bound
        for m in range(0, n + 1):
            total = sum(
                (-1) ** i * a.koszul_space(i).dim * a.dim_A(m - i)
                for i in range(0, m + 1)
            )
            assert total == (1 if m == 0 else 0), (name, m)


def test_non_frobenius_dual_rejected():
    # k<x, y>/(xy) and k<x, y>/(yx): symmetric W dims 1, 2, 1, 0, but the
    # pairing V (x) V -> W_2 that omega spans is degenerate
    for word in ((0, 1), (1, 0)):
        a = QuadraticAlgebra(["x", "y"], [Tensor(2, 2, {word: 1})])
        with pytest.raises(NotASRegularError, match=r"^omega's first-letter flattening has rank 1 < 2"):
            a.certify_as_regular()
        assert a.certificate is None


def test_row_rank_counts_over_q_after_a_short_rank_mod_p():
    # rows that are dependent mod P only: the modular rank falls short
    # and the Q rank decides
    rows = [{0: 1, 1: 0}, {0: 1, 1: P}]
    assert linalg.rank(rows, P) == 1
    assert linalg.row_rank(rows) == 2
    assert linalg.row_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1


def test_full_relation_space_rejected():
    a = QuadraticAlgebra(["x1"], [Tensor(1, 2, {(0, 0): 1})])
    with pytest.raises(NotASRegularError):
        a.certify_as_regular()


def test_poly1_degenerate_case():
    a = make_polynomial(1)
    assert a.certificate.d == 1
    assert a.omega == Tensor(1, 1, {(0,): 1})
    for m in range(5):
        assert a.dim_A(m) == 1


# B = S[w; id, delta] for the Sklyanin algebra S = Sklyanin(1, 2, 3).
# Three admissible lifts over x, y, z = 0, 1, 2 span the derivations of S
# modulo the lifts V -> R; delta is 1, 2 and 3 times them.
_SKLYANIN_LIFTS = (
    ({(1, 0): 1, (2, 2): 1}, {}, {(1, 2): Fraction(1, 3), (2, 1): Fraction(-1, 3)}),
    ({(1, 1): 1, (2, 0): 1}, {(1, 2): Fraction(-2, 3), (2, 1): Fraction(2, 3)}, {}),
    ({}, {(1, 0): 1, (2, 2): 1}, {(1, 1): Fraction(1, 2), (2, 0): Fraction(1, 2)}),
)


def _sklyanin_extension(klass=(1, 2, 3)) -> QuadraticAlgebra:
    """B = S[w; id, delta] for delta the combination ``klass`` of the lifts."""
    s = _sklyanin()
    sigma = identity_automorphism(s)
    images = [
        Tensor.combine(3, 2, ((c, Tensor(3, 2, lift[i])) for c, lift in zip(klass, _SKLYANIN_LIFTS)))
        for i in range(3)
    ]
    delta = extend_derivation(images, sigma, s)
    return QuadraticAlgebra(("x", "y", "z", "w"), ore_relations(sigma, delta))


def test_basis_tensors_are_the_fraction_basis():
    # the integer read of a subspace's basis against its Fraction rows,
    # on R and every W_i up to the first zero one
    from test_linalg import _assert_canonical

    algs = catalog_algebras() + [
        ("sklyanin123", _sklyanin()),
        ("poly5", make_polynomial(5)),
        ("swell-B", _sklyanin_extension()),
    ]
    for name, a in algs:
        spaces = [(a.R, 2), (a.koszul_space(0), 0)]
        while spaces[-1][0].dim:
            i = spaces[-1][1] + 1
            spaces.append((a.koszul_space(i), i))
        for space, degree in spaces:
            got = space.basis_tensors(a.nv, degree)
            assert got == [Tensor.from_vec(b, a.nv, degree) for b in space.basis()], (name, degree)
            for t in got:
                _assert_canonical(t)
    with pytest.raises(ValueError):
        make_polynomial(2).R.basis_tensors(2, 3)


def _forced_ranks(bound: int, n: int = 4) -> dict:
    """The ranks of the Koszul differentials that exactness forces from
    dim W_i = C(n, i) and dim A_m = C(m + n - 1, n - 1), those of poly(n)
    and of B (n = 4)."""
    want = {}
    for m in range(1, bound + 1):
        r = 0
        for i in range(min(m, n), 0, -1):
            r = math.comb(n, i) * math.comb(m - i + n - 1, n - 1) - r
            want[(m, i)] = r
        assert r == math.comb(m + n - 1, n - 1)
    return want


def test_sklyanin_extension_normal_forms_and_ranks():
    b = _sklyanin_extension()
    cert = b.certify_koszul(5)
    # every word minus its normal form lies in the ideal, built without
    # the reducer
    for m in range(5):
        ideal = ideal_component(b, m)
        basis = [word_flat(w, 4) for w in b.basis_words(m)]
        for w in itertools.product(range(4), repeat=m):
            vec = {word_flat(w, 4): Fraction(1)}
            for k, c in b.nf_word(w).items():
                vec[basis[k]] = vec.get(basis[k], 0) - c
            assert ideal.contains({k: v for k, v in vec.items() if v}), w
    assert [b.koszul_space(i).dim for i in range(6)] == [1, 4, 6, 4, 1, 0]
    assert [b.dim_A(m) for m in range(6)] == [math.comb(m + 3, 3) for m in range(6)]
    assert cert.ranks == _forced_ranks(5)
    # w is the Ore letter and comes first in the order; with w last (the
    # index order) the degree-5 normal forms reached 150 bits
    bits = max(
        max(abs(c.numerator), c.denominator).bit_length()
        for w in b.basis_words(4) for v in range(4) for c in b.nf_word(w + (v,)).values()
    )
    assert bits == 35


def test_sklyanin_extension_certifies_to_default_bound():
    b = _sklyanin_extension()
    d, _ = b.certify_as_regular()
    assert (d, b.certificate.bound) == (4, 7)
    assert b.certificate.ranks == _forced_ranks(7)


def test_ore_letter_order_matches_relabelled_presentation():
    # B with its letters relabelled by hand so that w is letter 0: there
    # w is the smallest-index Ore letter, so the order is the identity
    b = _sklyanin_extension()
    assert b.order == (3, 0, 1, 2)
    new = {old: k for k, old in enumerate(b.order)}
    rels = [
        Tensor(4, 2, {(new[a], new[c]): v for (a, c), v in t.entries.items()})
        for t in (Tensor.from_vec(r, 4, 2) for r in b.R.basis())
    ]
    b0 = QuadraticAlgebra(("w", "x", "y", "z"), rels)
    assert b0.order == (0, 1, 2, 3)
    for m in range(5):
        assert [tuple(new[v] for v in w) for w in b.basis_words(m)] == b0.basis_words(m)
    assert b.certify_koszul(6).ranks == b0.certify_koszul(6).ranks == _forced_ranks(6)


def test_ore_letter_order_gives_pbw_basis():
    # B is a free S-module on the powers of w: its basis words are the
    # basis words of S followed by a power of w
    b, s = _sklyanin_extension(), _sklyanin()
    for m in range(6):
        pbw = {u + (3,) * (m - len(u)) for j in range(m + 1) for u in s.basis_words(j)}
        assert set(b.basis_words(m)) == pbw


def _poly(n: int) -> QuadraticAlgebra:
    """poly(n) built from its relations, uncertified."""
    rels = [Tensor(n, 2, {(i, j): 1, (j, i): -1}) for i in range(n) for j in range(i + 1, n)]
    return QuadraticAlgebra([f"x{i + 1}" for i in range(n)], rels)


def test_letter_order_identity_on_standard_presentations():
    rng = random.Random(11)
    algs = [(f"poly{n}", _poly(n)) for n in range(2, 7)]
    algs += catalog_algebras() + [("sklyanin123", _sklyanin())]
    algs += [(f"quantum({q})", make_quantum_plane(q)) for q in (1, 5, Fraction(-2, 3))]
    algs += [
        (case, enumerate_solution(case, random_case_params(case, rng)).algebra) for case in CASES
    ]
    # sklyanin123_ore.json lists its Ore letter w last (the ore route's golden)
    for path in sorted(GOLDEN.glob("*.json")):
        if path.name not in ("commands.json", "sklyanin123_ore.json"):
            spec = parse_problem(json.loads(path.read_text()))
            algs.append((path.name, QuadraticAlgebra(spec.generators, spec.relations)))
    assert {name for name, _ in algs} >= {
        "comm.json", "jordan_cy.json", "poly3.json", "qplane.json", "readme.json"
    }
    for name, a in algs:
        assert a.order == tuple(range(a.nv)), name


def test_letter_order_puts_ore_letters_first():
    # the Jordan plane relabelled: x1 x2 - x2 x1 - x1^2 makes x2 the Ore letter
    j = QuadraticAlgebra(["x1", "x2"], [Tensor(2, 2, {(0, 1): 1, (1, 0): -1, (0, 0): -1})])
    assert j.order == (1, 0)
    assert j.basis_words(2) == [(1, 1), (0, 1), (0, 0)]
    # a two-level tower C = B[u; id, delta'] over swell's B
    b = _sklyanin_extension()
    sigma = identity_automorphism(b)
    delta = random_admissible_derivation(b, sigma, random.Random(7))
    c = QuadraticAlgebra(("x", "y", "z", "w", "u"), ore_relations(sigma, delta))
    assert c.order == (4, 3, 0, 1, 2)
    # poly(3)[z; sigma, delta] with dense sigma and delta
    p3 = make_polynomial(3)
    rng = random.Random(5)
    sigma = random_admissible_automorphism(p3, rng)
    delta = random_admissible_derivation(p3, sigma, rng)
    d = QuadraticAlgebra(("x1", "x2", "x3", "z"), ore_relations(sigma, delta))
    assert d.order[0] == 3


def test_sklyanin_extension_certifies_by_capped_modular_ranks(monkeypatch):
    # B's own rank route, which certify_koszul leaves for the ore route
    b = _sklyanin_extension()
    calls = _spy_rank(monkeypatch)
    ranks = b._prove_by_ranks(6)
    # every degree was certified by its capped ranks mod P: none fell back
    assert calls and None not in calls
    # against forward-only elimination over Q, which neither caps nor
    # preselects rows
    want = {
        (m, i): linalg.rank(b.differential_rows(i, m - i))
        for m in range(1, 6)
        for i in range(1, min(m, 4) + 1)
    }
    assert {k: r for k, r in ranks.items() if k[0] <= 5} == want


def test_certificates_are_values_independent_of_call_history():
    shared = make_quantum_plane(2)
    stored = shared.certificate
    assert (stored.bound, stored.as_regular, stored.d) == (5, True, 2)
    assert shared.certify_koszul(10).bound == 10
    # the catalog hands out the same algebra, whose certificate never moves
    again = make_quantum_plane(2)
    assert again.certificate is stored and again.certificate.bound == 5
    assert again.certify_as_regular() == (2, stored.omega)
    assert again.certificate is stored


def test_certificate_fields_are_frozen():
    cert = make_polynomial(2).certificate
    for f in dataclasses.fields(cert):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cert, f.name, getattr(cert, f.name))
    with pytest.raises(AttributeError):
        cert.as_regular = False


def test_certify_koszul_returns_exactly_the_bound_asked_for():
    a = _poly(3)
    high = a.certify_koszul(8)
    low = a.certify_koszul(6)
    assert (high.bound, low.bound) == (8, 6)
    assert max(m for m, _ in high.ranks) == 8
    assert max(m for m, _ in low.ranks) == 6
    assert low.ranks == {k: r for k, r in high.ranks.items() if k[0] <= 6}
    # no AS certification ran, so neither certificate carries d
    assert not low.as_regular and low.d is None and a.certificate is None
    # the AS certificate made later carries its own bound d + 3, and a
    # Koszul certificate made after it carries d and omega
    assert a.certify_as_regular()[0] == 3 and a.certificate.bound == 6
    later = a.certify_koszul(8)
    assert (later.bound, later.d, later.omega) == (8, 3, a.omega)


def test_raising_the_bound_proves_only_the_new_degrees(monkeypatch):
    a = _poly(3)
    a._prove_by_ranks(8)
    calls = _spy_rank(monkeypatch)
    a._prove_by_ranks(6)
    assert calls == []
    ranks = a._prove_by_ranks(10)
    # W_1..W_3 are nonzero, and d_1 is never ranked: two modular ranks in
    # each of degrees 9, 10
    assert calls == [P] * 4
    assert sorted(ranks) == [(m, i) for m in range(1, 11) for i in range(1, 4) if i <= m]
    assert ranks == _q_ranks(a, 10)


def test_koszul_certificate_alone_leaves_the_algebra_uncertified():
    # demo 01's monomial algebra: Koszul, but not AS-regular
    mono = QuadraticAlgebra(["x1", "x2"], [Tensor(2, 2, {(0, 0): 1})])
    cert = mono.certify_koszul(6)
    assert cert.bound == 6 and not cert.as_regular
    assert mono.certificate is None
    with pytest.raises(NotASRegularError):
        mono.certify_as_regular()
    assert mono.certificate is None


# -- PBW route ----------------------------------------------------------------


def _normal_words(a: QuadraticAlgebra, m: int) -> list[tuple]:
    """The words of length m with no leading pair (no pair outside
    ``basis_words(2)``), in lexicographic order for ``a.order``, by
    listing every word."""
    normal = set(a.basis_words(2))
    pos = {v: k for k, v in enumerate(a.order)}
    words = [
        w for w in itertools.product(range(a.nv), repeat=m)
        if all(w[k:k + 2] in normal for k in range(m - 1))
    ]
    return sorted(words, key=lambda w: [pos[v] for v in w])


def _by_rank_route(a: QuadraticAlgebra, bound: int):
    """d, omega and the ranks to ``bound`` of a fresh copy of ``a``, by
    the Koszul spaces and the rank route alone."""
    r = QuadraticAlgebra(a.names, a.R)
    d = next(i for i in itertools.count(1) if r.koszul_space(i + 1).dim == 0)
    omega = Tensor.from_vec(r.koszul_space(d).basis()[0], r.nv, d)
    return d, omega, r._prove_by_ranks(bound)


def _dense_ore_extension(n: int, seed: int) -> QuadraticAlgebra:
    """poly(n)[z; sigma, delta] for a dense sigma and an admissible delta."""
    p = make_polynomial(n)
    rng = random.Random(seed)
    sigma = random_admissible_automorphism(p, rng)
    delta = random_admissible_derivation(p, sigma, rng)
    names = tuple(f"x{i + 1}" for i in range(n)) + ("z",)
    return QuadraticAlgebra(names, ore_relations(sigma, delta))


def test_pbw_route_agrees_with_rank_route():
    rng = random.Random(17)
    algs = [(name, QuadraticAlgebra(a.names, a.R)) for name, a in catalog_algebras()]
    algs += [
        (case, QuadraticAlgebra(alg.names, alg.R))
        for case in CASES
        for alg in [enumerate_solution(case, random_case_params(case, rng)).algebra]
    ]
    algs += [(f"poly{n}", _poly(n)) for n in range(2, 6)]
    algs.append(("quantum(1/P)", QuadraticAlgebra(
        ["x1", "x2"], [Tensor(2, 2, {(0, 1): 1, (1, 0): -Fraction(1, P)})]
    )))
    # the rank route to d + 3 = 8 on the poly(4) extension takes about a
    # minute, so its ranks are compared to d = 5
    algs += [("poly3[z]", _dense_ore_extension(3, 5)), ("poly4[z]", _dense_ore_extension(4, 5))]
    for name, a in algs:
        d, omega = a.certify_as_regular()
        cert = a.certificate
        assert cert.route == "pbw" and cert.bound == d + 3, name
        bound = d if name == "poly4[z]" else d + 3
        assert (d, omega, a.certify_koszul(bound).ranks) == _by_rank_route(a, bound), name
        for m in range(6):
            assert a.basis_words(m) == _normal_words(a, m), (name, m)


def test_non_pbw_inputs_take_the_rank_route(monkeypatch):
    s = _sklyanin()
    assert s._normal_pairs() is None and s.certificate.route == "ranks"
    # swell's B is not PBW either, but its Ore letter w takes the ore route
    b = _sklyanin_extension()
    assert b._normal_pairs() is None
    cert = b.certify_koszul(4)
    assert cert.route == "ore" and cert.ranks == _by_rank_route(b, 4)[2]
    a = _non_koszul_algebra()
    assert a._normal_pairs() is None
    calls = _spy_rank(monkeypatch)
    with pytest.raises(CertificationError):
        a.certify_koszul(5)
    assert calls


# -- ore route ----------------------------------------------------------------


def _twisted_poly3():
    """(A, tau): the left Zhang twist A = poly(3)^tau, relations (tau^-1
    (x) id)(R), with tau the sampler's draw off random.Random(3)."""
    p = make_polynomial(3)
    tau = random_admissible_automorphism(p, random.Random(3))
    twist = tau.inverse().matrix
    return QuadraticAlgebra(p.names, [t.apply_matrix_slots((1,), twist) for t in p.R.basis_tensors(3, 2)]), tau


def _twisted_poly3_extension() -> QuadraticAlgebra:
    """B = A[z; sigma, delta] over the left Zhang twist A = poly(3)^tau
    (``_twisted_poly3``), with sigma and delta the sampler's draws off
    random.Random(4)."""
    a, _ = _twisted_poly3()
    rng = random.Random(4)
    sigma = random_admissible_automorphism(a, rng)
    delta = random_admissible_derivation(a, sigma, rng)
    return QuadraticAlgebra(a.names + ("z",), ore_relations(sigma, delta))


def _sklyanin_tower() -> QuadraticAlgebra:
    """C = B[u; id, delta'] over swell's B, a two-step tower over Sklyanin."""
    b = _sklyanin_extension()
    sigma = identity_automorphism(b)
    delta = random_admissible_derivation(b, sigma, random.Random(7))
    return QuadraticAlgebra(("x", "y", "z", "w", "u"), ore_relations(sigma, delta))


def test_ore_route_agrees_with_rank_route():
    # the rank route on a fresh copy is the oracle for d, omega and the
    # ranks; the tower recurses through B to Sklyanin, and its oracle
    # stops at bound 5 (d + 3 = 8 is out of its reach)
    algs = [
        ("swell-B", _sklyanin_extension(), 7),
        ("swell-B(3, 0, -1)", _sklyanin_extension((3, 0, -1)), 7),
        ("poly3^tau[z]", _twisted_poly3_extension(), 7),
        ("C over swell-B", _sklyanin_tower(), 5),
    ]
    for name, a, bound in algs:
        assert a._normal_pairs() is None and a.order[0] == a.nv - 1, name
        d, omega = a.certify_as_regular()
        assert (a.certificate.route, a.certificate.bound) == ("ore", d + 3), name
        cert = a.certify_koszul(bound)
        assert (cert.route, cert.bound, cert.d) == ("ore", bound, d), name
        assert (d, omega, cert.ranks) == _by_rank_route(a, bound), name
    assert algs[-1][1]._ore_base()[0].certificate.route == "ore"
    # the golden input of the ore route is swell's B, listed by hand
    spec = parse_problem(json.loads((GOLDEN / "sklyanin123_ore.json").read_text()))
    golden = QuadraticAlgebra(spec.generators, spec.relations)
    assert golden.R == algs[0][1].R and golden.certify_koszul(4).route == "ore"


def _outcome(prove):
    """``prove()``, or the fields of the CertificationError it raises."""
    try:
        return prove()
    except CertificationError as e:
        return str(e), e.degree, e.position, e.dims, e.ranks


def test_ore_route_falls_back_to_the_rank_route():
    # R has the shape of an Ore extension by w, but sigma' does not
    # preserve R', or delta' is not admissible, or the base A' is not
    # Koszul: B's own rank route decides, as on a fresh copy.  Below
    # degree 4 the third base is exact, so its B certifies on the ore route
    w = 3
    sklyanin = [Tensor(4, 2, t.entries) for t in _sklyanin().R.basis_tensors(3, 2)]
    cases = {
        "sigma' = diag(1, 2, 3)": sklyanin + [
            Tensor(4, 2, {(w, u): 1, (u, w): -(u + 1)}) for u in range(3)
        ],
        "delta'(x) = x^2": sklyanin + [
            Tensor(4, 2, {(w, u): 1, (u, w): -1, **({(0, 0): -1} if u == 0 else {})})
            for u in range(3)
        ],
        "A' not Koszul": [Tensor(4, 2, t.entries) for t in _non_koszul_algebra().R.basis_tensors(3, 2)]
        + [Tensor(4, 2, {(w, u): 1, (u, w): -1}) for u in range(3)],
    }
    for name, rels in cases.items():
        b = QuadraticAlgebra(("x", "y", "z", "w"), rels)
        assert b._normal_pairs() is None and b._peeled[0] == w, name
        assert (b._ore_base() is None) == (name != "A' not Koszul"), name
        fresh = QuadraticAlgebra(b.names, b.R)
        low = b.certify_koszul(3)
        assert low.ranks == fresh._prove_by_ranks(3), name
        assert low.route == ("ore" if b._ore_base() else "ranks"), name
        got = _outcome(lambda: b.certify_koszul(5).ranks)
        assert got == _outcome(lambda: fresh._prove_by_ranks(5)), name
        assert got[1] == 4, name  # each fails in degree 4


def test_each_split_is_expanded_once(monkeypatch):
    # the rank route reads split(i), i >= 2, in every internal degree and
    # the W-tables read it again; only d_1 read split(1), so it is read
    # here.  Each basis vector of each W_i is expanded once
    sides = []
    real = quadratic.expand_scaled
    monkeypatch.setattr(quadratic, "expand_scaled", lambda *a: sides.append(a[1]) or real(*a))
    s = _sklyanin()
    s.w_tables()
    assert s.certificate.route == "ranks"
    s.split(1)
    n = sum(s.koszul_space(i).dim for i in range(1, s.d + 1))
    assert sides == [0] * n
    # an escape raises and keeps nothing
    fresh = QuadraticAlgebra(s.names, s.R)
    monkeypatch.setattr(quadratic, "expand_scaled", lambda *a: None)
    with pytest.raises(quadratic.EngineInvariantError, match=r"^W_2 escapes W_1 \(x\) V$"):
        fresh.split(2)
    monkeypatch.setattr(quadratic, "expand_scaled", real)
    assert fresh.split(2) == s.split(2)


def _spy_back(monkeypatch, a: QuadraticAlgebra) -> list[int]:
    """Route quadratic._back through a recorder of the degree m of the
    piece of ``a`` whose reducer it completes into a pair table (None for
    a piece of another algebra)."""
    real = quadratic._back
    completed = []

    def spy(pivots):
        completed.append(next((m for m, p in enumerate(a._pieces) if p._reducer == pivots), None))
        return real(pivots)

    monkeypatch.setattr(quadratic, "_back", spy)
    return completed


@pytest.mark.parametrize("name", ["sklyanin123", "poly3^tau"])
def test_pair_tables_are_built_on_first_read(monkeypatch, name):
    rels = _sklyanin().R if name == "sklyanin123" else _twisted_poly3()[0].R
    a = QuadraticAlgebra(("x", "y", "z"), rels)
    completed = _spy_back(monkeypatch, a)
    a.certify_as_regular()
    # the rank route to bound 6 reads A_6 for its dimension alone: no d_1
    # is built, and d_2 in degree 6 reads the normal forms of A_5
    assert (a.certificate.route, a.certificate.bound) == ("ranks", 6)
    assert completed == [2, 3, 4, 5] and a._pieces[6]._pairs is None
    # a later read of a degree-6 word completes A_6's table, once
    words = [(0, 1, 2, 2, 1, 0), (2, 2, 2, 0, 0, 1)]
    later = [a.nf_word(w) for w in words]
    assert completed == [2, 3, 4, 5, 6]
    # the same forms, and the same certificate, as on a copy that reads
    # them before certifying
    fresh = QuadraticAlgebra(a.names, a.R)
    assert [fresh.nf_word(w) for w in words] == later
    assert fresh.certify_as_regular() == (a.d, a.omega)
    assert fresh.certificate == a.certificate


def test_pbw_certificate_builds_no_piece_above_degree_3(monkeypatch):
    a = _poly(5)
    calls = _spy_rank(monkeypatch)
    completed = _spy_back(monkeypatch, a)
    d, _ = a.certify_as_regular()
    assert (d, a.certificate.route, a.certificate.bound) == (5, "pbw", 8)
    assert a.certify_koszul(12).ranks == _forced_ranks(12, 5)
    assert calls == [] and len(a._pieces) == 4
    # the PBW test reads A_3 for its dimension alone: building it reads
    # the pair table of A_2, and A_3's is never made
    assert completed == [2]


@pytest.mark.parametrize("nv, rels", [
    # demo 01's monomial algebra x1^2 = 0: A^! has x1^i in every degree
    (2, [(0, 0)]),
    # every monomial in x, y, z but z^2: W_9 alone has dimension 9,136
    (3, [(a, b) for a in range(3) for b in range(3) if (a, b) != (2, 2)]),
])
def test_infinite_dual_fails_fast_with_no_koszul_space_built(nv, rels):
    a = QuadraticAlgebra([f"x{i + 1}" for i in range(nv)], [Tensor(nv, 2, {w: 1}) for w in rels])
    with pytest.raises(NotASRegularError, match=r"^W_i stays nonzero through degree 13$"):
        a.certify_as_regular()
    assert len(a._W) <= 4 and a.certificate is None
