#!/usr/bin/env sh
# Recomputes the sldb-fuzz stdout of four small fixed campaigns — one
# per oracle — and compares each byte for byte with its golden under
# tests/golden/campaign_reports/.  The goldens pin the whole report
# (counts, coverage, pass firings, tables, verdict lines), so any change
# to the campaign driver's unit order, merge or epilogue shows up as a
# diff.  Registered as the tier-1 ctest `fuzz_campaign_reports`.
#
# Usage: tools/check_campaign_reports.sh <path-to-sldb-fuzz> <golden-dir>

set -e

FUZZ=${1:?usage: check_campaign_reports.sh <sldb-fuzz> <golden-dir>}
GOLDEN=${2:?usage: check_campaign_reports.sh <sldb-fuzz> <golden-dir>}
TMP=$(mktemp -d "${TMPDIR:-/tmp}/sldb-reports.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM

FAIL=0

# check <name> <sldb-fuzz args...>
check() {
  NAME=$1
  shift
  # A failing campaign exits 1 with a report; only the report matters.
  "$FUZZ" "$@" --no-write --no-shrink >"$TMP/$NAME.txt" || true
  if ! cmp -s "$GOLDEN/$NAME.txt" "$TMP/$NAME.txt"; then
    echo "error: $NAME report differs from $GOLDEN/$NAME.txt:" >&2
    diff -u "$GOLDEN/$NAME.txt" "$TMP/$NAME.txt" >&2 || true
    FAIL=1
  fi
}

check diff --seed 7 --count 10
check inject --inject --no-isolate --seed 1 --count 3
check step --oracle=step --seed 1 --count 10
check crosslevel --oracle=crosslevel --seed 1 --count 3

exit $FAIL
