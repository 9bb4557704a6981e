"""
Exact 2-class groups up the towers
==================================

For a classified d, every layer n >= 1 of both towers has a closed-form
2-class group.  The growth is as rigid as it can be: one new factor of 2
per layer (lambda = 1, mu = 0), with the starting size set by the
exponent r of the base imaginary quadratic field.  analyze reads r once;
every layer then follows without another class-group computation.
"""

from ztwo import analyze, classify, iwasawa_invariants, predict

# ---------------------------------------------------------------------------
# Layer-by-layer tables for the running examples.

for d in (89, 209, 247, 55, 95, 407):
    analysis = analyze(classify(d))
    print(f"\nd = {d}  [{analysis.tag.tag}]  r = {analysis.r}")
    for tower in ("L", "K"):
        shapes = [str(analysis.predict(n, tower).shape) for n in range(1, 5)]
        print(f"  tower {tower}:  " + "  ->  ".join(shapes))

# ---------------------------------------------------------------------------
# The same data as Iwasawa invariants: log2 |Cl2(layer n)| = n + nu.

print("\nIwasawa invariants (lambda, mu, nu), valid from layer 1:")
for d in (89, 209, 247, 55, 95, 407):
    inv_l = iwasawa_invariants(d, "L")
    inv_k = iwasawa_invariants(d, "K")
    print(f"  d = {d:4d}   L: ({inv_l.lam}, {inv_l.mu}, {inv_l.nu})"
          f"   K: ({inv_k.lam}, {inv_k.mu}, {inv_k.nu})")

# Verify the growth law explicitly for one d: sizes double each layer.
sizes = [predict(89, n, "L").shape.order for n in range(1, 8)]
print(f"\n|Cl2| along the L-tower of d = 89: {sizes}")
assert all(b == 2 * a for a, b in zip(sizes, sizes[1:]))

# ---------------------------------------------------------------------------
# The cyclic family without an order formula: predictions stay honest.

pred = predict(7, 1, "L")
print(f"\nd = 7 [C7]: exact = {pred.shape.exact}, note = {pred.shape.note!r}")
