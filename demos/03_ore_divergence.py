"""The sigma-divergence and the Nakayama automorphism of an Ore
extension.

For B = A[z; sigma, delta] the engine builds a sequence pair (two
towers of maps over the Koszul spaces), reads the pair (delta_r,
delta_l) off the top space, and assembles

    mu_B|_V = (matrix of sigma)^{-1} (matrix of mu_A),
    mu_B(z) = hdet(sigma) z + delta_r + mu_A sigma^{-1}(delta_l).

On a polynomial algebra with sigma = id this recovers the classical
divergence: the script checks mu_B(z) - z against the sum of formal
partial derivatives, then demonstrates that the divergence does not
depend on any of the choices made along the way.
"""

import random

from orenaka import (
    Tensor,
    build_sequence_pair,
    divergence,
    extend_derivation,
    identity_automorphism,
    make_polynomial,
    nakayama_of_B,
    polynomial_divergence_oracle,
    random_admissible_derivation,
)


def main():
    a = make_polynomial(2)
    sid = identity_automorphism(a)
    delta = extend_derivation([Tensor.word(2, (0, 0)), Tensor(2, 2)], sid, a)
    rep = nakayama_of_B(sid, delta)
    print("k[x1,x2] with delta(x1) = x1^2, delta(x2) = 0:")
    print(f"  mu_B = {rep.mu_B!r}")
    print(f"  divergence = {rep.div.divergence!r}  (d(x1^2)/dx1 = 2 x1)")
    print(f"  Calabi-Yau: {rep.calabi_yau}")
    print()

    rng = random.Random(3)
    a3 = make_polynomial(3)
    sid3 = identity_automorphism(a3)
    delta3 = random_admissible_derivation(a3, sid3, rng)
    base = divergence(build_sequence_pair(sid3, delta3))
    print("random derivation on k[x1,x2,x3]:")
    print(f"  delta_r = {base.delta_r!r}")
    print(f"  delta_l = {base.delta_l!r}")
    print(f"  divergence = {base.divergence!r}")
    print(f"  oracle     = {polynomial_divergence_oracle(delta3)!r}")
    print()

    print("choice-independence: noisy tower choices and a different lift")
    for trial in range(3):
        noisy = build_sequence_pair(sid3, delta3, rng=random.Random(100 + trial))
        res = divergence(noisy)
        print(f"  noisy pair {trial}: delta_r = {res.delta_r!r}")
        print(f"       divergence unchanged: {res.divergence == base.divergence}")
    eps = [
        Tensor.from_vec(a3.R.basis()[trial % 3], 3, 2) for trial in range(3)
    ]
    other_lift = delta3.perturb(eps)
    res = divergence(build_sequence_pair(sid3, other_lift))
    print(f"  perturbed lift: divergence unchanged: {res.divergence == base.divergence}")


if __name__ == "__main__":
    main()
