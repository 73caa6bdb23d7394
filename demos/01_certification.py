"""Certifying Koszulity and AS-regularity.

Every computation downstream rests on a certificate: exactness of the
Koszul complex (in every degree for a PBW algebra, else through a
finite degree bound) plus the finite AS-regularity checks
(one-dimensional top space W_d, vanishing W_{d+1}, symmetric
dimensions).  This script certifies the standard examples, prints their
homogeneous dimensions, and shows an algebra that is Koszul but fails
the AS checks.
"""

from orenaka import (
    NotASRegularError,
    QuadraticAlgebra,
    Tensor,
    make_jordan_plane,
    make_polynomial,
    make_quantum_plane,
)


def show(alg, label, bound=8):
    cert = alg.certify_koszul(bound)
    d = cert.d
    print(f"{label}:")
    print(f"  certified Koszul to degree {cert.bound}, AS-regular of dimension {d}")
    print(f"  dim A_m, m = 0..{bound}:", [alg.dim_A(m) for m in range(bound + 1)])
    print(f"  dim W_i, i = 0..{d + 1}:", [alg.koszul_space(i).dim for i in range(d + 2)])
    print(f"  canonical top tensor omega = {alg.omega!r}")
    print()


def main():
    show(make_polynomial(3), "polynomial algebra k[x1,x2,x3]")
    show(make_quantum_plane(2), "quantum plane (q = 2)")
    show(make_jordan_plane(), "Jordan plane")

    print("monomial algebra with relation x1*x1:")
    mono = QuadraticAlgebra(["x1", "x2"], [Tensor(2, 2, {(0, 0): 1})])
    cert = mono.certify_koszul(6)
    print(f"  Koszul certificate to degree {cert.bound} passes"
          f" ({len(cert.ranks)} differential ranks recorded)")
    try:
        mono.certify_as_regular()
    except NotASRegularError as e:
        print(f"  AS-regularity fails as expected: {e}")


if __name__ == "__main__":
    main()
