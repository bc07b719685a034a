"""Steklov spectrum of an annulus as the hole slides off center.

First a sanity check: with the hole centered, the collocation solver
reproduces the separated closed form to near machine precision. Then
the hole moves outward and the first eigenvalue falls, monotonically,
all the way until the gap to the outer boundary is 0.02.
"""

import numpy as np

from lapspec import bie, reference


def main():
    print("Concentric check (inner radius 0.1, 128 nodes per circle):")
    spec = bie.solve_steklov_bie(bie.annulus_domain(0.0), 128, count=12)
    ref = reference.concentric_annulus_steklov(0.1, count=12)
    err = np.abs(spec.eigenvalues - ref.values).max()
    for k in (0, 1, 9):
        print(f"  sigma_{k}: computed {spec.eigenvalues[k]:.12f}  "
              f"closed form {ref.values[k]:.12f}")
    print(f"  worst of the first 12: {err:.2e}\n")

    print("Sliding the hole (offset eps, 100 nodes per circle):")
    grid = np.linspace(0.0, 0.88, 12)
    rows = bie.sweep_annulus(grid, 100, [1, 2])
    print("  eps     sigma_1   ratio    sigma_2   ratio")
    by_eps = {}
    for eps, k, sigma, ratio, _ in rows:
        by_eps.setdefault(eps, {})[k] = (sigma, ratio)
    for eps in grid:
        (s1, r1), (s2, r2) = by_eps[eps][1], by_eps[eps][2]
        print(f"  {eps:4.2f}  {s1:9.6f}  {r1:6.4f}  {s2:9.6f}  {r2:6.4f}")

    s1 = np.array([by_eps[e][1][0] for e in grid])
    if np.all(np.diff(s1) < 0):
        print("\nsigma_1 decreased at every step. Whether that holds for the")
        print("exact eigenvalues at all offsets is, as far as we know, open.")
    else:
        print("\nsigma_1 failed to decrease somewhere; raise the node count.")


if __name__ == "__main__":
    main()
