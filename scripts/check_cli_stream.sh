#!/usr/bin/env bash
# Runs mondet_cli on a task with a `.stream` section and compares its
# stream report against a golden file: every `stream line` row (image
# +/-, overdeleted, rederived), the `stream maintenance:` counters without
# `wall_ms`, the `maintained image` line and the verdict line. A nonzero
# exit fails the check too (the CLI exits 1 when the maintained image
# diverges from a recompute).
#
# Usage: check_cli_stream.sh <mondet_cli> <task> <golden>
set -u

out="$("$1" "$2" 2>&1)"
status=$?
if [ "$status" -ne 0 ]; then
  echo "expected exit code 0, got $status" >&2
  echo "--- output ---" >&2
  echo "$out" >&2
  exit 1
fi

report="$(printf '%s\n' "$out" |
  grep -E '^(stream line |stream maintenance: |maintained image: |verdict over the maintained views: )' |
  sed -E 's/ wall_ms=[^ ]*//')"
if ! printf '%s\n' "$report" | diff -u "$3" - >&2; then
  echo "stream report differs from $3 (diff above: golden -, got +)" >&2
  exit 1
fi
exit 0
