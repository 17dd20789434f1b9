#!/usr/bin/env bash
# Compare the builtin outputs of this checkout with those of commit BASE.
#   .github/compare-builtin-outputs.sh BASE OUTDIR
# Exports BASE's committed files with `git archive` into a temporary directory (removed on exit,
# leaving the repository as it was), runs this checkout's .github/builtin-outputs.sh on BASE's
# src/ into OUTDIR/base and on this checkout's src/ into OUTDIR/head, and prints `diff -r` of the
# two trees.  Exits 1 if they differ or either run fails its own checks, 0 if they are identical.
set -eu
if [ $# -ne 2 ]; then echo "usage: $0 BASE OUTDIR" >&2; exit 2; fi
here=$(cd "$(dirname "$0")/.." && pwd)
tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT
git -C "$here" archive "$1" | tar -x -C "$tree"
status=0
PYTHONPATH="$tree/src" bash "$here/.github/builtin-outputs.sh" "$2/base" || status=1
PYTHONPATH="$here/src" bash "$here/.github/builtin-outputs.sh" "$2/head" || status=1
diff -r "$2/base" "$2/head" || status=1
exit $status
