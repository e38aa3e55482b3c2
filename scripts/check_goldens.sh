#!/usr/bin/env bash
# Run every row of tests/goldens/goldens.tsv and byte-compare its stdout
# with the committed golden. Needs release binaries; usage:
#   cargo build --workspace --release && scripts/check_goldens.sh
# Exits nonzero if any run fails or any output differs from its golden.
set -uo pipefail
cd "$(dirname "$0")/.."
out=$(mktemp)
trap 'rm -f "$out"' EXIT
status=0
while read -r golden vars bin args; do
  case "$golden" in '' | '#'*) continue ;; esac
  [ "$vars" = "-" ] && vars=""
  # $vars and $args are deliberately unquoted: each splits into words.
  # shellcheck disable=SC2086
  if env $vars ./target/release/"$bin" $args >"$out" 2>/dev/null \
    && cmp -s "$out" "tests/goldens/$golden"; then
    echo "ok        $golden"
  else
    echo "MISMATCH  $golden  ($vars $bin $args)"
    diff "tests/goldens/$golden" "$out" | head -n 20
    status=1
  fi
done <tests/goldens/goldens.tsv
exit "$status"
