"""
Two routes to r, confronted in bulk
===================================

The exponent r can be computed two independent ways: the oracle route
(a certified basis of the 2-Sylow subgroup of an imaginary quadratic
class group, built by halving, with no form counted) and the corollary
route (solve a representation problem, evaluate residue symbols).  If either
the theory or the implementation were off anywhere, running both routes
over thousands of d would expose it.  This demo does exactly that and
prints the resulting agreement table.
"""

from collections import Counter

from ztwo import cross_check

report = cross_check(5000)

print(f"classified d <= 5000: {report.checked}")
print(f"violations: {len(report.violations)}")
print(f"skipped (corollary refused): {len(report.skipped)}")

# ---------------------------------------------------------------------------
# How the corollary answers distribute per family.

dist = Counter((e.tag, str(e.r_corollary)) for e in report.entries)
print("\ncorollary answer distribution:")
for (tag, rc), count in sorted(dist.items()):
    print(f"  {tag:3s}  r = {rc:4s}   {count:4d} values of d")

# ---------------------------------------------------------------------------
# Where the corollary only gives a bound, the oracle pins the exact value.

print("\noracle r where the corollary said only 'r >= 4' or 'r >= 5':")
bounded = [e for e in report.entries if not e.r_corollary.is_exact]
dist = Counter((str(e.r_corollary), e.r_oracle) for e in bounded)
for (rc, ro), count in sorted(dist.items()):
    print(f"  corollary {rc:4s} oracle r = {ro}   {count:4d} values of d")

assert not report.violations
print("\nperfect agreement on the full range.")
