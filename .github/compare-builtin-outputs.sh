#!/usr/bin/env bash
# Compare the builtin outputs of this checkout with those of commit BASE.
#   .github/compare-builtin-outputs.sh BASE OUTDIR
# Exports BASE's committed files with `git archive` into a temporary directory (removed on exit,
# leaving the repository as it was), runs this checkout's .github/builtin-outputs.sh on BASE's
# src/ into OUTDIR/base and on this checkout's src/ into OUTDIR/head, and reports each file that
# differs: for a .json or .csv file, how many numbers changed and the largest relative change
# |a - b| / max(|a|, |b|) (and any difference that is not a number), then, when at most 10
# numbers changed, each as `path: old -> new` (a .json key path, or a .csv row.column); for any
# other file, its `diff`.  Exits 1 if the trees differ or either run fails its own checks, 0 if they are identical.
set -eu
if [ $# -ne 2 ]; then echo "usage: $0 BASE OUTDIR" >&2; exit 2; fi
here=$(cd "$(dirname "$0")/.." && pwd)
tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT
git -C "$here" archive "$1" | tar -x -C "$tree"
status=0
PYTHONPATH="$tree/src" bash "$here/.github/builtin-outputs.sh" "$2/base" || status=1
PYTHONPATH="$here/src" bash "$here/.github/builtin-outputs.sh" "$2/head" || status=1
diff -rq "$2/base" "$2/head" > /dev/null || status=1
python3 - "$2/base" "$2/head" <<'EOF'
import csv, filecmp, json, math, subprocess, sys
from pathlib import Path

base, head = map(Path, sys.argv[1:])


def cells(path):
    """The values of a .json file as a flat list of (where, value), or the cells of a .csv file."""
    if path.suffix == ".csv":
        with path.open(newline="") as f:
            return [((r, c), cell) for r, row in enumerate(csv.reader(f)) for c, cell in enumerate(row)]
    out = []

    def walk(where, value):
        if isinstance(value, dict):
            out.append((where, sorted(value)))
            for key in value:
                walk(where + (key,), value[key])
        elif isinstance(value, list):
            out.append((where, ("items", len(value))))
            for i, item in enumerate(value):
                walk(where + (i,), item)
        else:
            out.append((where, value))

    walk((), json.loads(path.read_text()))
    return out


def number(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


for old in sorted(p for p in base.rglob("*") if p.is_file()):
    rel = old.relative_to(base)
    new = head / rel
    if not new.is_file():
        print(f"{rel}: only in base")
        continue
    if filecmp.cmp(old, new, shallow=False):
        continue
    if old.suffix not in (".json", ".csv"):
        print(f"{rel}: differs")
        subprocess.run(["diff", str(old), str(new)])
        continue
    a, b = cells(old), cells(new)
    changed, worst, other = [], 0.0, len(a) != len(b)
    for (wa, va), (wb, vb) in zip(a, b):
        x, y = number(va), number(vb)
        if wa != wb or x is None or y is None:
            other = other or wa != wb or va != vb
        elif x != y and not (math.isnan(x) and math.isnan(y)):
            changed.append(f"  {'.'.join(map(str, wa))}: {va} -> {vb}")
            big = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / big if math.isfinite(big) else math.inf)
    print(f"{rel}: {len(changed)} of {sum(number(v) is not None for _, v in a)} numbers changed,"
          f" largest relative change {worst:.2g}" + ("; other values or structure differ" if other else ""))
    if len(changed) <= 10:
        for line in changed:
            print(line)
for new in sorted(p for p in head.rglob("*") if p.is_file()):
    if not (base / new.relative_to(head)).is_file():
        print(f"{new.relative_to(head)}: only in head")
EOF
exit $status
