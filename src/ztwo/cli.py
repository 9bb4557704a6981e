"""Command-line surface: classify, predict, scan, classgroup, symbol,
witness, verify.

Exit codes: 0 success, 1 invalid input (usage errors too), 2 no exact
prediction for the family, 3 verification found violations.
"""

import argparse
import csv
import json
import sys

from . import classifier, diophantine, qforms, symbols
from .arith import factor_squarefree
from .errors import InvalidInput, UnsupportedFamily, ZtwoError

SCHEMA = "ztwo/1"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_PREDICTION = 2
EXIT_VIOLATIONS = 3

# the largest Z at which verify --suite williams lists solutions
WILLIAMS_SUITE_Z_CAP = 20000

SCAN_COLUMNS = ("d", "tag", "p", "q", "r_oracle", "r_corollary",
                "shape_L_n1", "shape_K_n1", "lambda", "nu_L", "nu_K")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def prediction_to_json(pred) -> dict:
    return {
        "schema": SCHEMA,
        "d": pred.d.value,
        "tower": pred.tower,
        "n": pred.n,
        "shape": list(pred.shape.divisors),
        "exact": pred.shape.exact,
        "note": pred.shape.note,
        "r": pred.r,
        "r_source": pred.r_source,
        "theorem": pred.theorem,
    }


def tag_to_json(tag) -> dict:
    return {
        "schema": SCHEMA,
        "d": tag.d.value,
        "tag": tag.tag,
        "primes": list(tag.primes),
        "symbols": [[name, val] for name, val in tag.symbols],
    }


def classgroup_to_json(s) -> dict:
    return {
        "schema": SCHEMA,
        "D": s.D.D,
        "h": s.h,
        "divisors": list(s.divisors),
        "h2": s.h2,
        "two_rank": s.two_rank,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise InvalidInput(f"{text!r} is not an integer")


def _parse_d(text):
    return factor_squarefree(_parse_int(text))


def cmd_classify(args):
    d = _parse_d(args.d)
    tag = classifier.classify(d)
    if args.json:
        print(json.dumps(tag_to_json(tag)))
    else:
        print(tag.describe())
    return EXIT_OK


def cmd_predict(args):
    d = _parse_d(args.d)
    towers = ("L", "K") if args.tower == "both" else (args.tower,)
    for tower in towers:  # a bad layer is refused whatever the family
        classifier.check_args(tower, args.n)
    tag = classifier.classify(d)
    if tag.tag not in classifier.EXACT_FAMILIES:
        detail = ("2-class groups are cyclic non-trivial but no order formula exists"
                  if tag.tag == "C7" else "d matches no family with a prediction")
        print(f"no exact prediction for {d} [{tag.tag}]: {detail}", file=sys.stderr)
        return EXIT_NO_PREDICTION
    analysis = classifier.analyze(tag)
    out = [analysis.predict(args.n, tower) for tower in towers]
    if args.json:
        for pred in out:
            print(json.dumps(prediction_to_json(pred)))
    else:
        for pred in out:
            print(f"d={pred.d} tower={pred.tower} n={pred.n} "
                  f"shape={pred.shape} r={pred.r} ({pred.r_source}) [{pred.theorem}]")
    return EXIT_OK


def scan_cells(dmin, dmax, family=None):
    """One tuple of cells in SCAN_COLUMNS order per odd squarefree d in
    [dmin, dmax], ascending; blank cells are "".  An exact-family row is
    read off classifier.confront: r_oracle is "skipped", and the other
    cells blank, where either route refused; shapes and nu come from the
    entry's Analysis, lambda from classifier.LAMBDA.
    """
    for tag in classifier.classified(dmin, dmax):
        fam, d = tag.tag, tag.d.value
        if family and fam != family:
            continue
        p, q = (tag.primes + ("",))[:2]
        if fam == "UNCLASSIFIED":
            yield (d, fam) + ("",) * 9
        elif fam == "C7":
            yield (d, fam, p, q, "", "", "cyclic-unknown", "", "", "", "")
        elif (entry := classifier.confront(tag)).analysis is None:
            yield (d, fam, p, q, "skipped", "", "", "", "", "", "")
        else:
            a = entry.analysis
            yield (d, fam, p, q, a.r, str(entry.r_corollary),
                   "x".join(map(str, a.divisors(1, "L"))), "x".join(map(str, a.divisors(1, "K"))),
                   classifier.LAMBDA, a.nu("L"), a.nu("K"))


def scan_rows(dmin, dmax, family=None):
    """One row dict per odd squarefree d in [dmin, dmax], ascending: the
    dict view, keyed by SCAN_COLUMNS, of the cells scan_cells yields."""
    for cells in scan_cells(dmin, dmax, family):
        yield dict(zip(SCAN_COLUMNS, cells))


def cmd_scan(args):
    if args.min > args.max or args.max >= 2 ** 40:
        raise InvalidInput("need min <= max <= 2**40 - 1")
    if args.format == "csv":
        # made per call: the writer keeps the stream, and callers swap sys.stdout
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(SCAN_COLUMNS)
        out.writerows(scan_cells(args.min, args.max, family=args.family))
    else:
        for row in scan_rows(args.min, args.max, family=args.family):
            print(json.dumps({"schema": SCHEMA, **row}))
    return EXIT_OK


def cmd_classgroup(args):
    s = qforms.class_group(_parse_int(args.D))
    if args.json:
        print(json.dumps(classgroup_to_json(s)))
    else:
        print(f"D={s.D.D} h={s.h} divisors={list(s.divisors)} h2={s.h2} two_rank={s.two_rank}")
    return EXIT_OK


def cmd_symbol(args):
    if args.jacobi:
        a, n = args.jacobi
        val = symbols.jacobi(a, n)
        name = f"({a}/{n})"
    elif args.quartic:
        a, p = args.quartic
        val = symbols.quartic_residue(a, p)
        name = f"({a}/{p})_4"
    else:
        p = args.quartic2
        val = symbols.quartic_2_reciprocal(p)
        name = f"({p}/2)_4"
    if args.json:
        print(json.dumps({"schema": SCHEMA, "symbol": name, "value": val}))
    else:
        print(f"{name} = {'+1' if val == 1 else '-1'}")
    return EXIT_OK


def cmd_witness(args):
    if args.pell is not None:
        rep = diophantine.solve_pell_rep(args.pell)
        out = {"schema": SCHEMA, "kind": "pell", "p": rep.p, "u": rep.u, "v": rep.v}
    elif args.kaplan:
        p, q = args.kaplan
        wit = diophantine.solve_kaplan(p, q)
        out = {"schema": SCHEMA, "kind": "kaplan", "p": wit.p, "q": wit.q,
               "k": wit.k, "l": wit.l, "m": wit.m, "X": wit.X, "Y": wit.Y}
    else:
        p, q = args.legendre
        sol = diophantine.solve_legendre(p, q)
        out = {"schema": SCHEMA, "kind": "legendre", "p": sol.p, "q": sol.q,
               "Xp": sol.Xp, "Yp": sol.Yp, "Z": sol.Z,
               "criterion": diophantine.williams_criterion(sol)}
    print(json.dumps(out))
    return EXIT_OK


def _verify_corollary(d_max):
    report = classifier.cross_check(d_max)
    print(f"corollary suite: {report.checked} classified d <= {d_max}; "
          f"{len(report.violations)} violations")
    for v in report.violations:
        print(f"  VIOLATION d={v.d} [{v.tag}] {v.detail}")
    return len(report.violations)


def _verify_genus(d_max):
    bad = 0
    total = 0
    for s in qforms.class_group_sweep(d_max):
        total += 1
        if s.two_rank != qforms.genus_two_rank(s.D):
            bad += 1
            print(f"  VIOLATION D={s.D.D}: two_rank {s.two_rank} != genus {qforms.genus_two_rank(s.D)}")
    print(f"genus suite: {total} fundamental discriminants |D| <= {d_max}; {bad} violations")
    return bad


def _verify_williams(d_max):
    """Criterion invariance across every admissible solution with
    Z <= WILLIAMS_SUITE_Z_CAP and the descent solution that scan reads
    (diophantine.williams_witness)."""
    bad = 0
    pairs = 0
    for tag in classifier.classified(3, d_max):
        if tag.tag != "B":
            continue
        p, q = tag.primes
        if classifier.b_symbol_r(p, q) is not None:
            continue
        sols = diophantine.enumerate_legendre_solutions(p, q, WILLIAMS_SUITE_Z_CAP)
        values = {diophantine.williams_criterion(s)
                  for s in sols + [diophantine.williams_witness(p, q)]}
        if len(values) > 1:
            bad += 1
            print(f"  VIOLATION d={tag.d}: criterion not solution-invariant over "
                  f"{len(sols)} solutions and 1 descent solution")
        pairs += 1
    print(f"williams suite: {pairs} pairs, all admissible solutions with "
          f"Z <= {WILLIAMS_SUITE_Z_CAP}; {bad} violations")
    return bad


def cmd_verify(args):
    if args.max < 1:
        raise InvalidInput(f"need max >= 1, got {args.max}")
    suites = ("corollary", "genus", "williams") if args.suite == "all" else (args.suite,)
    violations = 0
    if "corollary" in suites:
        violations += _verify_corollary(args.max)
    if "genus" in suites:
        violations += _verify_genus(min(args.max * 10, 10 ** 5))
    if "williams" in suites:
        violations += _verify_williams(args.max)
    return EXIT_VIOLATIONS if violations else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # a usage error is invalid input: argparse's text, with exit 1, not 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(
        prog="ztwo",
        description="Classify odd squarefree d and predict 2-class groups "
                    "along the 2-power cyclotomic towers over Q(sqrt(d), i) "
                    "and Q(sqrt(-d)).")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="family tag of d with witnesses")
    p.add_argument("d")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("predict", help="2-class group of tower layer n")
    p.add_argument("d")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--tower", choices=("L", "K", "both"), default="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("scan", help="one row per odd squarefree d in a range")
    p.add_argument("--min", type=int, default=3)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--family", choices=classifier.FAMILIES)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("classgroup", help="exact structure of Cl(D)")
    p.add_argument("D")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classgroup)

    p = sub.add_parser("symbol", help="quadratic / quartic residue symbols")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--jacobi", nargs=2, type=int, metavar=("A", "N"))
    g.add_argument("--quartic", nargs=2, type=int, metavar=("A", "P"))
    g.add_argument("--quartic2", type=int, metavar="P")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_symbol)

    p = sub.add_parser("witness", help="representation witness as JSON")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--pell", type=int, metavar="P")
    g.add_argument("--kaplan", nargs=2, type=int, metavar=("P", "Q"))
    g.add_argument("--legendre", nargs=2, type=int, metavar=("P", "Q"))
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="run consistency suites; exit 3 on violations")
    p.add_argument("--max", type=int, default=10 ** 4)
    p.add_argument("--suite", choices=("corollary", "genus", "williams", "all"),
                   default="all")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedFamily as exc:
        print(f"no exact prediction: {exc}", file=sys.stderr)
        return EXIT_NO_PREDICTION
    except ZtwoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
