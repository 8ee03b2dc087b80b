#!/bin/sh
# Test-only surface check (registered with ctest, label `lint`).
#
# Lists every function declared in src/**/*.hpp and fails when one of
# them is reached by nothing outside tests/: its only occurrences in the
# program's code (src/, bench/, examples/, tools/, perfbench/) are its
# own declaration and its out-of-line definition. Such a function is
# test-only surface; delete it, or move the formula a test needs into
# tests/support.
#
# A name counts as used when some line of that code, with `//` comments
# stripped, holds it as a whole word (grep -w) and is not declaration-
# shaped: a type token and a space, then the (optionally qualified) name
# and `(`, with no `=`, `(` or `.` before it and no `return`/`throw` at
# the start. So `x = f(`, `g(f(`, `obj.f(`, `p->f(` and `return f(` are
# uses. A name that several classes declare counts as used when any of
# them is, so the check can miss a dead member whose name is common. A
# call on a declaration-shaped line (a wrapped `&& f(` or `* f(`
# continuation) is not seen; keep the operator on the line before.
#
# ALLOWLIST names the exceptions: functions only tests reach on purpose.
# Each entry is `name` and the test that inspects it. Keep it short;
# an entry needs a test that would lose its subject without it.
#
# usage: test_only_check.sh [root]   (root defaults to the repo root)
set -eu

ROOT=${1:-$(dirname "$0")/..}

ALLOWLIST='
bti_breakdown     CoreModel.StepAllMatchesPerCoreStepBitForBit compares each BTI pool bit for bit
bucket_counts     ObsHistogram.SnapshotIsIdenticalAtAnyThreadCount compares every bucket
fixed_void_length CompactEm.MemoizedStepMatchesUnmemoizedOracle compares the unhealable void
pads              SparseAgreement.* read the pad set through the dense_pdn_solve oracle
set_trace_sink    ObsTraceTest.JsonlSinkWritesTheDocumentedSchema installs a sink per test
stress_integral   Korhonen.StressIntegralConservedWhileBlocked checks conservation with it
take              Serializer.RoundTripsEveryFieldType; goes with the checkpoint code
true_dvth         RoPairSensor.TracksTrueShift compares the noisy reading with it
'

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# The program's code, one corpus, comments stripped.
for dir in src bench examples tools perfbench; do
    [ -d "$ROOT/$dir" ] || continue
    find "$ROOT/$dir" -name '*.[ch]pp' -type f
done | sort > "$WORK/files"
while IFS= read -r f; do
    sed -e 's|//.*$||' "$f"
done < "$WORK/files" > "$WORK/code"

ID='[A-Za-z_][A-Za-z0-9_]*'
# Declaration- or definition-shaped: `Type name(`, `Type Class::name(`,
# or a qualified name at column 0 (return type on the line above).
DECL="^([^=(.]*[A-Za-z0-9_>&*][[:space:]]+[*&]*($ID::)*|($ID::)*)"
NOT_DECL='^[[:space:]]*(return|throw|co_return|else|case|delete|new)[^A-Za-z0-9_]'
KEYWORDS=' if for while switch return sizeof alignof decltype static_assert
  operator noexcept alignas catch explicit '

# Every function name declared in a src header.
find "$ROOT/src" -name '*.hpp' -type f | while IFS= read -r h; do
    sed -e 's|//.*$||' "$h"
done | grep -E "${DECL}$ID[[:space:]]*\(" | grep -vE "$NOT_DECL" |
    sed -E "s/^${DECL}($ID)[[:space:]]*\(.*$/\4/" | sort -u > "$WORK/names"

status=0
while IFS= read -r name; do
    case "$KEYWORDS" in *" $name "*) continue ;; esac
    case "$name" in DH_*) continue ;; esac
    if grep -w -- "$name" "$WORK/code" |
        grep -vE -e "${DECL}$name[[:space:]]*\(" -e "^[[:space:]]*$" |
        grep -q .; then
        continue
    fi
    if grep -w -- "$name" "$WORK/code" | grep -E "$NOT_DECL" | grep -q .; then
        continue
    fi
    if printf '%s\n' "$ALLOWLIST" | grep -q "^$name "; then
        echo "$name" >> "$WORK/allowed"
        continue
    fi
    echo "FAIL: $name is declared in src/ but only tests/ reach it"
    status=1
done < "$WORK/names"

# An entry that no longer names a test-only function is stale.
touch "$WORK/allowed"
for name in $(printf '%s\n' "$ALLOWLIST" | sed -n 's/^\([A-Za-z_][A-Za-z0-9_]*\) .*/\1/p'); do
    if ! grep -qx -- "$name" "$WORK/allowed"; then
        echo "FAIL: allowlist entry $name is stale: drop it"
        status=1
    fi
done

[ "$status" -eq 0 ] && echo "PASS: every src/ function has a caller outside tests/"
exit "$status"
