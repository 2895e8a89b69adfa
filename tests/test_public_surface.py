"""Every `latsched` name the benchmark harness uses resolves.

perfbench imports names from `latsched` and its modules, and patches
`latsched.covgraph.riccati_step` by attribute. Its own tests do not run with
this suite, so this file walks `perfbench/**/*.py` with `ast` and checks each
such name against the package: a change that deletes or renames one fails
here, not first in the benchmark.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _dotted(node) -> list | None:
    """The parts of a `name.attr.attr` chain, or None for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def latsched_references() -> set:
    """(file:line, dotted name) of each latsched name perfbench imports or reads.

    `from latsched[.mod] import name` gives `latsched[.mod].name`, `import
    latsched.mod` gives `latsched.mod`, and an attribute chain on a name such
    an import binds (`latsched.covgraph.riccati_step`) gives its full path.
    """
    refs = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = str(path.relative_to(PERFBENCH.parent))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "latsched":
                refs |= {(f"{where}:{node.lineno}", f"{node.module}.{alias.name}")
                         for alias in node.names}
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "latsched":
                        refs.add((f"{where}:{node.lineno}", alias.name))
                        # `import latsched.mod` binds `latsched`; `... as x` binds x to the module.
                        if alias.asname:
                            bound[alias.asname] = alias.name
                        else:
                            bound["latsched"] = "latsched"
        for node in ast.walk(tree):
            parts = _dotted(node) if isinstance(node, ast.Attribute) else None
            if parts and parts[0] in bound:
                refs.add((f"{where}:{node.lineno}", ".".join([bound[parts[0]]] + parts[1:])))
    return refs


def resolves(dotted: str) -> bool:
    """Whether `latsched.a.b` names a module or an attribute reached from the package."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i + 1]))
        except ModuleNotFoundError:
            return False
    return True


def test_the_walk_sees_both_kinds_of_reference():
    names = {dotted for _, dotted in latsched_references()}
    assert {"latsched.run_loop", "latsched.covgraph.riccati_step",
            "latsched.config.load_scenario", "latsched.covgraph"} <= names


def test_every_latsched_name_perfbench_uses_resolves():
    missing = sorted(ref for ref in latsched_references() if not resolves(ref[1]))
    assert not missing, missing
