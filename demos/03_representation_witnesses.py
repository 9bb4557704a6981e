"""
Representation witnesses: reading r off residue symbols
=======================================================

For each family there is a cheap route to the tower exponent r that never
touches a class group: solve one small Diophantine representation problem
and evaluate a residue symbol of the witness.

  A1:  p = u^2 - 2v^2 with u = 1 (mod 8), then look at (u/p)_4.
  A2:  2q = k^2 X^2 + 2lXY + 2mY^2 with p = l^2 - 2k^2 m, then look at
       (-2/|k^2 X + lY|)  (for k = 1 witnesses this is (-2/|X + lY|)).
  B:   a normalized solution of p X'^2 + q Y'^2 = Z^2, then compare
       (Z/p)_4 against (2X'/Z).
"""

from ztwo import (
    enumerate_legendre_solutions,
    jacobi,
    quartic_residue,
    solve_kaplan,
    solve_legendre,
    solve_pell_rep,
    williams_criterion,
)

# ---------------------------------------------------------------------------
# A1 example: p = 89.

rep = solve_pell_rep(89)
print(f"89 = {rep.u}^2 - 2*{rep.v}^2   with u = {rep.u} = 1 (mod 8)")
print(f"(u/p)_4 = ({rep.u}/89)_4 = {quartic_residue(rep.u, 89):+d}"
      "   ->  fires: r = 3, layer shapes Z/2 x Z/2^(n+1)")

# ---------------------------------------------------------------------------
# A2 example: d = 11 * 19.

wit = solve_kaplan(11, 19)
print(f"\nKaplan witness for (11, 19): k={wit.k} l={wit.l} m={wit.m} X={wit.X} Y={wit.Y}")
print(f"  2q = {wit.k ** 2 * wit.X ** 2 + 2 * wit.l * wit.X * wit.Y + 2 * wit.m * wit.Y ** 2}"
      f"   p = {wit.l ** 2 - 2 * wit.k ** 2 * wit.m}")
u = abs(wit.norm_value)
print(f"  criterion value (-2/{u}) = {jacobi(-2, u):+d}   ->  fires: r = 3")

# The witness comes from one Legendre descent, so its k need not be 1; the
# criterion then reads |k^2 X + l Y| instead of |X + l Y|.  This pair has
# no witness with k < 13:
wit = solve_kaplan(2467, 3)
print(f"\nKaplan witness for (2467, 3) has k = {wit.k}: "
      f"(k,l,m,X,Y) = ({wit.k},{wit.l},{wit.m},{wit.X},{wit.Y})")
print(f"  criterion value (-2/{abs(wit.norm_value)}) = {jacobi(-2, abs(wit.norm_value)):+d}"
      "   ->  does not fire: r >= 4")

# ---------------------------------------------------------------------------
# B example: d = 5 * 19 = 95, deepest branch of the decision tree.

sol = solve_legendre(5, 19)
print(f"\nnormalized solution for (5, 19): X'={sol.Xp} Y'={sol.Yp} Z={sol.Z}")
print(f"  (Z/p)_4 = ({sol.Z}/5)_4 = {quartic_residue(sol.Z % 5, 5):+d}"
      f"   (2X'/Z) = (2/{sol.Z}) = {jacobi(2 * sol.Xp, sol.Z):+d}")
print(f"  williams criterion: {williams_criterion(sol):+d}   ->  fires: r = 4, shape Z/2^(n+3)")

# The branch decision cannot depend on which admissible solution is used;
# check that across everything with Z below 3000.
sols = enumerate_legendre_solutions(5, 19, 3000)
values = {williams_criterion(s) for s in sols}
print(f"\n{len(sols)} admissible solutions with Z <= 3000, criterion values: {values}")
