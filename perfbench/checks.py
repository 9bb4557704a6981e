"""Output checks and item statistics for one benchmark pass.

Checks run outside the timed region and raise CheckFailed on the first
mismatch.  The pinned hashes were taken from the program as of the commit
that added this benchmark; see README.md for what each one covers.
"""

import hashlib
import math

from ztwo.classifier import EXACT_FAMILIES, RBound
from ztwo.cli import SCAN_COLUMNS
from ztwo.qforms import genus_two_rank

# sha1 of the scan CSV with the r_corollary column removed, so that a
# solver that turns a "skipped" into an exact value still passes.
SCAN_PINS = {
    "scan-low": "76c9c0601e4c2dcddb8d74f9acdca323997b021f",
    "scan-high": "f9aaa50f7cc9b928b71fa1b1fc5c8aa57227c52e",
}
# sha1 of the "D,h,d1xd2x..." lines of the sweep.
SWEEP_PIN = "48da1c13eed31cbe81c942ac7f67e9235c04afff"

R_ORACLE = SCAN_COLUMNS.index("r_oracle")
R_COROLLARY = SCAN_COLUMNS.index("r_corollary")
EXACT_FAMILY_SET = frozenset(EXACT_FAMILIES)


class CheckFailed(Exception):
    pass


def sha1_lines(lines):
    h = hashlib.sha1()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def check_scan(workload, text):
    """Verify a scan's CSV; return (rows as field lists, info dict)."""
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(SCAN_COLUMNS):
        raise CheckFailed(f"{workload}: missing or wrong CSV header")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if len(row) != len(SCAN_COLUMNS):
            raise CheckFailed(f"{workload}: malformed row {row}")
        r_oracle, r_corollary = row[R_ORACLE], row[R_COROLLARY]
        if r_corollary in ("", "skipped"):
            continue
        if r_oracle in ("", "skipped"):
            raise CheckFailed(f"{workload}: d={row[0]} has r_corollary but no r_oracle")
        if not RBound.parse(r_corollary).satisfied_by(int(r_oracle)):
            raise CheckFailed(f"{workload}: d={row[0]} r_corollary {r_corollary} "
                              f"contradicts r_oracle {r_oracle}")
    stripped = sha1_lines(",".join(r[:R_COROLLARY] + r[R_COROLLARY + 1:])
                          for r in [SCAN_COLUMNS] + rows)
    if stripped != SCAN_PINS[workload]:
        raise CheckFailed(f"{workload}: output sha1 {stripped} != pinned {SCAN_PINS[workload]}")
    return rows, {"sha1_without_r_corollary": stripped, "sha1_full": sha1_lines(lines)}


def exact_counts(rows):
    """(exact-family rows, those with r_oracle or r_corollary skipped,
    those with r_oracle skipped, which therefore have no answer)."""
    attempted = skipped = unanswered = 0
    for row in rows:
        if row[1] in EXACT_FAMILY_SET:
            attempted += 1
            skipped += "skipped" in (row[R_ORACLE], row[R_COROLLARY])
            unanswered += row[R_ORACLE] == "skipped"
    return attempted, skipped, unanswered


def check_sweep(structures):
    """Verify each ClassGroupStructure; return an info dict."""
    lines = []
    for s in structures:
        D = s.D.D
        chain = s.divisors
        if any(d < 2 for d in chain) or any(b % a for a, b in zip(chain, chain[1:])):
            raise CheckFailed(f"sweep: D={D} chain {chain} is not a divisor chain")
        if math.prod(chain) != s.h:
            raise CheckFailed(f"sweep: D={D} chain {chain} has product != h = {s.h}")
        if s.two_rank != genus_two_rank(D):
            raise CheckFailed(f"sweep: D={D} two_rank {s.two_rank} != genus {genus_two_rank(D)}")
        lines.append(f"{D},{s.h},{'x'.join(map(str, chain))}")
    digest = sha1_lines(lines)
    if digest != SWEEP_PIN:
        raise CheckFailed(f"sweep: output sha1 {digest} != pinned {SWEEP_PIN}")
    return {"sha1": digest}
