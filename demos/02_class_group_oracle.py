"""
Class groups from reduced forms, and the oracle that needs only their 2-part
============================================================================

Everything the tower predictions need from an imaginary quadratic field
is the 2-part of its class group.  class_group computes the whole group
the pedestrian way: enumerate every reduced binary quadratic form of the
discriminant, compose them with the Gauss group law, and read off the
cyclic decomposition.  The oracle that predict and scan read r from
enumerates nothing: it halves the ambiguous classes of the primes of d
into a basis of the 2-Sylow subgroup alone and certifies that basis
(qforms.two_sylow).  This demo shows the enumeration on small cases,
among them the discriminants the oracle reads, and cross-checks it
against genus theory.
"""

from ztwo import (
    class_group,
    class_group_sweep,
    compose,
    discriminant_of,
    genus_two_rank,
    reduced_forms,
)

# ---------------------------------------------------------------------------
# Cl(-84) is the Klein four-group: four reduced forms, every square trivial.

forms = reduced_forms(-84)
print("reduced forms of discriminant -84:")
for f in forms:
    print(f"  {f.a:2d} x^2 + {f.b:2d} xy + {f.c:2d} y^2")

e, f1, f2, f3 = forms
print("\ncomposition table entries:")
print("  f1 * f2 =", tuple(compose(f1, f2)), "  (the third non-trivial class)")
print("  f1 * f1 =", tuple(compose(f1, f1)), "  (identity: every class has order 2)")

print("\nstructure:", class_group(-84))

# ---------------------------------------------------------------------------
# The discriminants the tower formulas consume.  For d = 89 the relevant
# field is the one with discriminant of -2*89; for d = 5*11 it is -55.

for m in (-178, -55, -95, -407):
    D = discriminant_of(m)
    s = class_group(D)
    print(f"\nQ(sqrt({m})): D = {D.D:6d}  h = {s.h:3d}  divisors = {list(s.divisors)}"
          f"  h2 = {s.h2}  two_rank = {s.two_rank}")

# ---------------------------------------------------------------------------
# Genus theory says the 2-rank must be (number of primes dividing D) - 1.
# The composition engine has no idea about that theorem, which makes the
# agreement a real consistency check.  Run it over every fundamental
# discriminant down to -3000.

mismatches = sum(
    1 for s in class_group_sweep(3000) if s.two_rank != genus_two_rank(s.D)
)
print(f"\ngenus vs composition 2-rank disagreements for |D| <= 3000: {mismatches}")
