"""Every ztwo name the benchmark harness in perfbench/ looks up exists.

The harness imports the program from src/ and wraps its functions by
name, so a rename or a deletion would otherwise only show when the
benchmark runs.  The names are read from the harness source: its ztwo
imports, the module.attribute reads on them, tracing.TARGETS and the
CLI arguments of child.WORKLOADS.  The sweep's output is held to the
pin the harness checks it against.
"""

import ast
import hashlib
from functools import reduce
from pathlib import Path

import ztwo
from ztwo import cli, qforms

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _assigned(tree, target):
    # the literal value of the module-level assignment target = ...
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == target for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no assignment to {target}")


def ztwo_names(tree):
    """Dotted ztwo names a module imports, or reads as module.attribute."""
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ztwo":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ztwo":
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                names.add(name)
                modules[alias.asname or alias.name] = name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add(f"{modules[node.value.id]}.{node.attr}")
    return names


def resolve(dotted):
    # the package and the cli import above load every module the harness names
    return reduce(getattr, dotted.split(".")[1:], ztwo)


def test_every_ztwo_name_the_benchmark_uses_resolves():
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        names |= ztwo_names(_tree(path.name))
    targets = {f"ztwo.{t}" for t in _assigned(_tree("tracing.py"), "TARGETS")}
    # the reader itself finds what the harness is known to use
    assert {"ztwo.qforms.CLASS_GROUP_MEMO", "ztwo.cli.main", "ztwo.cli.SCAN_COLUMNS",
            "ztwo.classifier.RBound", "ztwo.qforms.class_group_sweep"} <= names
    assert "ztwo.diophantine.solve_kaplan" in targets
    for name in sorted(names - targets):
        resolve(name)
    for name in sorted(targets):
        assert callable(resolve(name)), name


def test_the_benchmark_cli_arguments_parse():
    workloads = _assigned(_tree("child.py"), "WORKLOADS")
    argvs = [arg for kind, arg in workloads.values() if kind == "scan"]
    assert argvs
    for argv in argvs:
        assert cli.build_parser().parse_args(argv).func is cli.cmd_scan


def test_the_sweep_matches_the_benchmark_pin():
    # the "D,h,d1xd2x..." lines of class_group_sweep(30000) hash to the
    # sweep pin of perfbench/checks.py, so a change to the sweep's output
    # fails here before the benchmark's check refuses it
    digest = hashlib.sha1()
    for s in qforms.class_group_sweep(30000):
        digest.update(f"{s.D.D},{s.h},{'x'.join(map(str, s.divisors))}\n".encode())
    assert digest.hexdigest() == _assigned(_tree("checks.py"), "SWEEP_PIN")
