#!/bin/sh
# Golden-output check (registered with ctest, label `golden`).
#
# Runs one bench or example binary at a given DH_THREADS inside a fresh
# temporary directory, masks the lines that legitimately differ from run
# to run, and diffs the rest against the committed golden file.
#
# The mask is one regex, MASK_RE below. It matches exactly one line kind:
#   [pool] N thread(s), ... wall time ...      (em_population_ttf)
# A matching line is replaced by MASK_LINE, so the golden still records
# that the line is there. Any other difference fails the test. When a
# change moves an output on purpose, regenerate that golden (and name it
# in CHANGES.md), never the mask. The golden holds the masked output of
# a DH_THREADS=1 run:
#
#   DH_THREADS=1 ./build/bench/<name> | sed -E \
#     's/^\[pool\] .* wall time .*$/<masked: varies run to run>/' \
#     > bench/golden/<name>.txt
#
# usage: golden_check.sh <binary> <golden_file> <threads>
set -eu

BIN="$1"
GOLDEN="$2"
THREADS="$3"

MASK_RE='^\[pool\] .* wall time .*$'
MASK_LINE='<masked: varies run to run>'

# Every DH_* variable the caller set could change the output (tracing,
# thread count); run with none but ours.
for v in $(env | sed -n 's/^\(DH_[A-Za-z0-9_]*\)=.*/\1/p'); do
    unset "$v"
done

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

(cd "$WORK" && DH_THREADS="$THREADS" "$BIN") > "$WORK/raw.txt"
sed -E "s/$MASK_RE/$MASK_LINE/" "$WORK/raw.txt" > "$WORK/masked.txt"

if ! diff -u "$GOLDEN" "$WORK/masked.txt"; then
    echo "FAIL: $(basename "$BIN") at DH_THREADS=$THREADS differs from $GOLDEN"
    exit 1
fi
echo "PASS: $(basename "$BIN") at DH_THREADS=$THREADS matches $GOLDEN"
