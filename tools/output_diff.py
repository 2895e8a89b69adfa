"""Compare every CLI output of two checkouts field by field, with round-off sizes.

Usage, from any directory:

    python tools/output_diff.py --parent PARENT [--root CHECKOUT] > diff.txt

Runs `tools/output_digest.py`'s 29 runs (its `RUNS`, in its order) once in
PARENT and once in CHECKOUT (default: the checkout this file is in), each
side in its own temporary directory, and parses each output file as JSON or,
failing that, as CSV. A JSON output is flattened to fields named by their
path (`epochs[].method`, `reps[][]`), a CSV output to its columns; a field's
rows are its list indices or CSV line numbers. A field whose values are all
floats on both sides is a float field; any other field (integers, strings,
such as method ids, schedules, `start_node`, `edges`, `policy`, `error`) is
an exact field. Per run it prints:

    <label> <config>: exit P/C, <k> exact rows differ, float max <r> (<field>)[, stdout/stderr differ]

and, indented below, each float field's largest difference relative to that
field's largest magnitude on either side, the first rows of each exact field
that differ (or exist on one side only), and, when an exact row differs in an
output that holds costs (`cost`, or the `j_*` columns of that CSV row), each
cost's relative gap, change minus parent. stdout and stderr are compared as
text with the temporary directory's path masked. The last line sums up all
runs. A checkout against itself gives all zeros.

Exit status: 0 when the two checkouts agree on every run (exit code, every
exact and float field, stdout and stderr), 1 when any run differs.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

from output_digest import RUNS, execute

SHOWN_ROWS = 3


def _flatten(value, path: str = "", row: tuple = ()):
    """(field, row, leaf) for every leaf of parsed JSON."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _flatten(item, f"{path}.{key}" if path else key, row)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _flatten(item, path + "[]", row + (index,))
    else:
        yield path, row, value


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(path: str) -> dict:
    """{field: {row: value}} of one output file; {} when it does not exist."""
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        leaves = _flatten(json.loads(text))
    except ValueError:
        leaves = ((column, (line,), _cell(value))
                  for line, record in enumerate(csv.DictReader(io.StringIO(text)))
                  for column, value in record.items())
    fields = {}
    for field, row, value in leaves:
        fields.setdefault(field, {})[row] = value
    return fields


def _gap(a: float, b: float) -> float:
    """|b - a|, with equal values (two NaNs, two equal infinities) giving 0
    and a NaN against a number giving inf, which `max` cannot pass over."""
    if a == b or (a != a and b != b):
        return 0.0
    return math.inf if a != a or b != b else abs(b - a)


def compare(parent: dict, change: dict) -> tuple[dict, dict]:
    """Each float field's relative difference, and each exact field's differing rows."""
    floats, exact = {}, {}
    for field in sorted(set(parent) | set(change)):
        old, new = parent.get(field, {}), change.get(field, {})
        values = list(old.values()) + list(new.values())
        if old.keys() == new.keys() and all(type(v) is float for v in values):
            scale = max(abs(v) for v in values)
            gap = max(_gap(old[row], new[row]) for row in old)
            floats[field] = gap / scale if gap and math.isfinite(scale) else gap
        else:
            rows = sorted(row for row in old.keys() | new.keys()
                          if row not in old or row not in new or old[row] != new[row])
            if rows:
                exact[field] = rows
    return floats, exact


def cost_gaps(parent: dict, change: dict, rows: set) -> dict:
    """Relative gap, change minus parent, of each cost in the differing rows.

    A cost is a `cost` or `j_*` field; one at the top of a JSON output (row
    `()`) belongs to every row.
    """
    gaps = {}
    for field, old in parent.items():
        if field == "cost" or field.startswith("j_"):
            new = change.get(field, {})
            for row in sorted(r for r in old if r == () or r in rows):
                a, b = old[row], new.get(row)
                if type(a) is float and type(b) is float:
                    gaps[(field, row)] = (b - a) / abs(a) if a else b - a
    return gaps


def run_differs(old_code: int, new_code: int, floats: dict, exact: dict,
                streams_differ: bool) -> bool:
    """Whether one run's sides differ: exit code, `compare`'s fields, or streams."""
    return (old_code != new_code or bool(exact) or streams_differ
            or any(rel != 0.0 for rel in floats.values()))


def _row(row: tuple) -> str:
    return ",".join(map(str, row)) or "-"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout to compare against")
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="checkout of the change")
    args = parser.parse_args()
    roots = (os.path.abspath(args.parent), os.path.abspath(args.root))
    codes_differ = exact_runs = streams_runs = differing_runs = 0
    worst = (0.0, "-")
    with tempfile.TemporaryDirectory() as old_dir, tempfile.TemporaryDirectory() as new_dir:
        for run in RUNS:
            sides = []
            for root, workdir in zip(roots, (old_dir, new_dir)):
                output, done = execute(root, run, workdir)
                streams = [s.replace(workdir.encode(), b"<tmp>") for s in (done.stdout,
                                                                           done.stderr)]
                sides.append((done.returncode, parse(output), streams))
            (old_code, old, old_streams), (new_code, new, new_streams) = sides
            floats, exact = compare(old, new)
            top = max(floats.items(), key=lambda kv: kv[1], default=("-", 0.0))
            rows = sum(len(r) for r in exact.values())
            line = (f"{run.label} {run.config}: exit {old_code}/{new_code}, {rows} exact rows "
                    f"differ, float max {top[1]:.2g} ({top[0]})")
            streams_differ = old_streams != new_streams
            if streams_differ:
                line += ", stdout/stderr differ"
            print(line, flush=True)
            for field, rel in floats.items():
                print(f"    {field}: {rel:.2g}")
            for field, differing in exact.items():
                shown = "; ".join(f"row {_row(r)}: {old.get(field, {}).get(r, '<none>')!r} -> "
                                  f"{new.get(field, {}).get(r, '<none>')!r}"
                                  for r in differing[:SHOWN_ROWS])
                more = len(differing) - SHOWN_ROWS
                print(f"    {field}: {len(differing)} rows differ: {shown}"
                      + (f" (+{more} more)" if more > 0 else ""))
            if exact:
                rows_hit = {r for differing in exact.values() for r in differing}
                for (field, row), gap in cost_gaps(old, new, rows_hit).items():
                    print(f"    cost gap {field} row {_row(row)}: {gap:.3g}")
            codes_differ += old_code != new_code
            exact_runs += bool(exact)
            streams_runs += streams_differ
            differing_runs += run_differs(old_code, new_code, floats, exact, streams_differ)
            if top[1] > worst[0]:
                worst = (top[1], f"{run.label} {run.config} {top[0]}")
    print(f"{len(RUNS)} runs: exit codes differ in {codes_differ}, exact fields differ in "
          f"{exact_runs}, largest float difference {worst[0]:.2g} ({worst[1]}), "
          f"stdout/stderr differ in {streams_runs}")
    return 1 if differing_runs else 0


if __name__ == "__main__":
    sys.exit(main())
