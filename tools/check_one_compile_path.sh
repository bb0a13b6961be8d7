#!/usr/bin/env bash
# Structural guard for the one compile path: in src/ and tools/, the
# optimizer and back-end entry points are called only from compileModule
# (src/eval/Levels.cpp) and from their own definitions, so every build a
# test judges, a sweep measures or a user debugs is assembled the same
# way.  scheduleFunction is called only from compileToMachineE, and
# `Schedule = false` appears only in compileLockstepPair (the oracles'
# O0 reference is the one unscheduled build).  Registered as a ctest
# (see tests/CMakeLists.txt); run from the repository root.
#
# A call is an indented occurrence of `name(` outside a comment; the
# function it sits in is the last definition that starts in column 0.
# Column-0 lines are declarations and definitions, never calls.  Tests,
# bench and examples are exempt: a unit test of one stage calls it on
# purpose.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

ENTRY='runPipelineEx|compileToMachineE|selectModule|allocateRegistersE'
ALLOWED="compileModule|$ENTRY"

VIOLATIONS=$(find src tools -name '*.cpp' -o -name '*.h' | sort |
  xargs awk -v entry="$ENTRY" -v allowed="$ALLOWED" '
    function report(what) {
      printf "%s:%d: in %s: %s: %s\n", FILENAME, FNR, fn, what, $0
    }
    FNR == 1 { fn = "?" }
    {
      line = $0
      sub(/\/\/.*/, "", line)
    }
    line ~ /^[A-Za-z_]/ && match(line, /[A-Za-z_][A-Za-z_0-9]*\(/) {
      fn = substr(line, RSTART, RLENGTH - 1)
      next
    }
    line ~ "(^|[^A-Za-z_0-9])(" entry ")\\(" && fn !~ "^(" allowed ")$" {
      report("entry called outside compileModule")
    }
    line ~ /(^|[^A-Za-z_0-9])scheduleFunction\(/ && fn != "compileToMachineE" {
      report("scheduleFunction called outside compileToMachineE")
    }
    line ~ /Schedule[ \t]*=[ \t]*false/ && fn != "compileLockstepPair" {
      report("unscheduled build outside compileLockstepPair")
    }')

if [ -n "$VIOLATIONS" ]; then
  echo "error: a build assembled outside the one compile path:" >&2
  echo "$VIOLATIONS" >&2
  echo "build through compileModule (src/eval/Levels.h) instead" >&2
  exit 1
fi
echo "OK: src/ and tools/ build machine code only through compileModule"
