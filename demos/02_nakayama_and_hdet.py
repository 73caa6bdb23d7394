"""Nakayama automorphisms of the base algebras and homological
determinants.

mu_A is solved from the twist condition on the canonical tensor
omega: omega equals (-1)^(d-1) times the cyclic rotation of
(mu_A (x) id ... id)(omega).  For two-generator algebras with relation
x^T Q x the closed form -(Q^{-1})^T Q gives an independent oracle.
hdet(sigma) is the scalar by which sigma acts on the line W_d.
"""

from fractions import Fraction

from orenaka import (
    Matrix,
    check_automorphism,
    hdet,
    make_jordan_plane,
    make_polynomial,
    make_quantum_plane,
    nakayama_of_A,
    nakayama_of_A_dim2_closed_form,
    dim2_relation_matrix,
)


def main():
    for label, alg, qmat in (
        ("commutative plane", make_polynomial(2), dim2_relation_matrix("commutative")),
        ("quantum plane q=2", make_quantum_plane(2), dim2_relation_matrix("quantum", 2)),
        ("quantum plane q=-1", make_quantum_plane(-1), dim2_relation_matrix("quantum", -1)),
        ("Jordan plane", make_jordan_plane(), dim2_relation_matrix("jordan")),
    ):
        mu = nakayama_of_A(alg).matrix
        oracle = nakayama_of_A_dim2_closed_form(qmat)
        print(f"{label}: mu_A = {mu!r}")
        print(f"  closed form -(Q^-1)^T Q = {oracle!r}  match: {mu == oracle}")

    print()
    q2 = make_quantum_plane(2)
    sig = check_automorphism(Matrix([[3, 0], [0, 5]]), q2)
    print(f"hdet(diag(3,5)) on the q=2 plane: {hdet(sig)} (= m11*m22 = 15)")

    comm = make_polynomial(2)
    m = Matrix([[1, 2], [3, 4]])
    print(f"hdet on the commutative plane for {m!r}: "
          f"{hdet(check_automorphism(m, comm))} (= det M = {m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]})")

    qm1 = make_quantum_plane(-1)
    anti = check_automorphism(Matrix([[0, Fraction(1, 2)], [6, 0]]), qm1)
    print(f"hdet of an antidiagonal automorphism at q=-1: {hdet(anti)}"
          f" (= m12*m21 = 3, while det = -3)")


if __name__ == "__main__":
    main()
