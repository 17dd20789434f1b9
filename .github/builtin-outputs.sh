#!/usr/bin/env bash
# Run check, certify, simulate, deadbeat and reproduce on the four builtins at --seed 0 and
# --seed 3, each in a fresh `python3 -m liestab.cli` process, under PYTHONHASHSEED 1 and 2.
# Each run leaves its files, stdout and stderr (plus "exit N" on a non-zero exit) in
# OUTDIR/hashseed-H/seed-S/COMMAND-BUILTIN.  Fails unless both hash seeds give identical
# trees, exactly the expected commands exit non-zero, and every stderr is empty.
# Compare two versions by running it on each and diffing the two OUTDIRs with `diff -r`.
# It runs this checkout's src/ unless PYTHONPATH is set, installed or not; run another checkout
# with `PYTHONPATH=other/src .github/builtin-outputs.sh OUTDIR`.
set -eu
if [ $# -ne 1 ]; then echo "usage: $0 OUTDIR" >&2; exit 2; fi
root=$1
export PYTHONPATH="${PYTHONPATH:-$(cd "$(dirname "$0")/.." && pwd)/src}"

for hashseed in 1 2; do
  for seed in 0 3; do
    for command in check certify simulate deadbeat reproduce; do
      for builtin in example-4.1 example-6.1 heisenberg-deadbeat uptri-deadbeat; do
        out="$root/hashseed-$hashseed/seed-$seed/$command-$builtin"
        mkdir -p "$out"
        PYTHONHASHSEED=$hashseed python3 -m liestab.cli "$command" --builtin "$builtin" --seed "$seed" --out "$out" \
          > "$out/stdout" 2> "$out/stderr" || echo "exit $?" >> "$out/stdout"
      done
    done
  done
done
diff -r "$root/hashseed-1" "$root/hashseed-2"
# exactly deadbeat on the two builtins with rho(A) > 0 exits non-zero, with 1
# (at --seed 3 every example-6.1 and uptri-deadbeat start diverges under the random input)
expected="seed-0/deadbeat-example-4.1:1 seed-0/deadbeat-example-6.1:1 seed-3/deadbeat-example-4.1:1 seed-3/deadbeat-example-6.1:1"
for hashseed in 1 2; do
  failing=$(cd "$root/hashseed-$hashseed" && grep '^exit ' */*/stdout | sed 's|/stdout:exit |:|' | sort | xargs)
  if [ "$failing" != "$expected" ]; then echo "non-zero exits: $failing"; exit 1; fi
done
# a builtin writes nothing to stderr: no traceback, no numpy warning
if find "$root"/hashseed-* -name stderr -size +0 | grep .; then exit 1; fi
