"""Tour of the classified dimension-2 families.

Every admissible pair (sigma, delta) on a noetherian dimension-2 base
belongs to one of 25 parametrized cases.  For each case this script
draws random parameters, runs the generic pipeline, and compares the
resulting mu_B with the family's closed-form block formula

    [ -M^{-1}(Q^T)^{-1}Q            0       ]
    [ c_r - c_l M^{-1}(Q^T)^{-1}Q   hdet(M) ].
"""

import random

from orenaka import (
    CASES,
    dim2_instance_oracle,
    enumerate_solution,
    nakayama_of_B,
    random_case_params,
)


def main():
    rng = random.Random(2026)
    print(f"{'case':<10}{'mirrored':<10}{'CY':<6}{'matches closed form'}")
    for case in CASES:
        inst = enumerate_solution(case, random_case_params(case, rng))
        rep = nakayama_of_B(inst.sigma, inst.delta)
        oracle = dim2_instance_oracle(inst)
        flag = "yes" if inst.derived_by_symmetry else ""
        cy = "yes" if rep.calabi_yau else "no"
        print(f"{case:<10}{flag:<10}{cy:<6}{rep.mu_B == oracle}")


if __name__ == "__main__":
    main()
