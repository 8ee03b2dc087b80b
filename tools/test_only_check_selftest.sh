#!/bin/sh
# Self-test of tools/test_only_check.sh (ctest lint.test_only_surface_detects):
# proves the check can fail.
#
# Copies the program's code (src/, bench/, examples/, tools/, perfbench/)
# into a scratch tree and runs the check there: it must pass, as on the
# real tree. Then it plants one public function that only a planted test
# calls (a free function declared in a header and defined out of line)
# and one inline member that nothing calls, and requires the check to
# fail and to name both.
#
# usage: test_only_check_selftest.sh <repo root>
set -eu

ROOT="$1"
CHECK="$ROOT/tools/test_only_check.sh"

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

for dir in src bench examples tools perfbench; do
    [ -d "$ROOT/$dir" ] && cp -R "$ROOT/$dir" "$WORK/$dir"
done

if ! sh "$CHECK" "$WORK" > "$WORK/clean.txt"; then
    cat "$WORK/clean.txt"
    echo "FAIL: the check fails on an unmodified copy of the tree"
    exit 1
fi

mkdir -p "$WORK/src/planted" "$WORK/tests"
cat > "$WORK/src/planted/planted.hpp" <<'EOF'
#pragma once
namespace dh {
[[nodiscard]] double planted_scale(double x);
struct PlantedProbe {
  [[nodiscard]] double planted_reading() const { return 0.0; }
};
}  // namespace dh
EOF
cat > "$WORK/src/planted/planted.cpp" <<'EOF'
#include "planted/planted.hpp"
namespace dh {
double planted_scale(double x) { return 2.0 * x; }
}  // namespace dh
EOF
cat > "$WORK/tests/test_planted.cpp" <<'EOF'
#include "planted/planted.hpp"
TEST(Planted, Scales) { EXPECT_EQ(dh::planted_scale(1.0), 2.0); }
EOF

if sh "$CHECK" "$WORK" > "$WORK/planted.txt"; then
    cat "$WORK/planted.txt"
    echo "FAIL: the check passed with a test-only function planted"
    exit 1
fi
for name in planted_scale planted_reading; do
    if ! grep -q "^FAIL: $name " "$WORK/planted.txt"; then
        cat "$WORK/planted.txt"
        echo "FAIL: the check did not name the planted $name"
        exit 1
    fi
done
echo "PASS: the check fails on the planted test-only functions and names them"
