#!/usr/bin/env bash
# One-command CI: every checked configuration, in dependency order.
#
#   tools/ci.sh [preset...]
#
# With no arguments runs the full ladder:
#
#   default  — RelWithDebInfo, full test suite (includes the sgcheck
#              self-test and the sgcheck run over the repo itself)
#   tsan     — ThreadSanitizer, sync/core/VM-focused suite (file-backed
#              mappings included: their faults resolve under a page-table
#              stripe that inode reads and writeback hold), every BlockOn
#              sleeper's suite: pipes, SysV IPC, wait/pause/sigpause and
#              PR_BLOCKGROUP, and the fair-share and scheduler suites
#              (rm_test, sched_test) whose members charge a group's CPU
#              account while waiters re-bend against it (preset filter)
#   lockdep  — runtime lock-order + sleep-under-spin validator, full suite
#   asan     — AddressSanitizer, full suite
#   ubsan    — UndefinedBehaviorSanitizer (hard errors), full suite
#
# When the default preset runs, lint and the benchmark's smoke test
# (`perfbench/run.py --smoke`: zero failed ops, clean teardown, and the
# predicted per-layer counts such as 2 published fd slots per fd_share op)
# follow it. The smoke needs 4 usable cores (sgbench pins 3 members one
# per core plus its harness and refuses to oversubscribe); on a smaller
# host it is reported as not run, and the final line says so.
#
# Pass preset names to run a subset: `tools/ci.sh default asan`. The tsa
# preset (clang -Wthread-safety) is not in the default ladder because the
# container ships gcc only; add it explicitly where clang exists.
#
# Each preset is configure + build + ctest; the script stops at the first
# failure so the log ends at the culprit. Every preset is configured with
# CMAKE_COMPILE_WARNING_AS_ERROR, so a new compiler warning fails the
# ladder (the tier-1 `cmake -B build` and perfbench builds keep their flags).
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
cd "${repo}"

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default tsan lockdep asan ubsan)
fi

jobs=$(nproc 2>/dev/null || echo 2)

for p in "${presets[@]}"; do
  echo "===================================================================="
  echo "== ci: preset ${p}"
  echo "===================================================================="
  cmake --preset "${p}" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
  cmake --build --preset "${p}" -j "${jobs}"
  ctest --preset "${p}" -j "${jobs}"
done

# Lint rides the default build's sgcheck binary (and clang-tidy if present).
smoke_skipped=""
if [[ " ${presets[*]} " == *" default "* ]]; then
  echo "===================================================================="
  echo "== ci: lint"
  echo "===================================================================="
  "${repo}/tools/lint.sh" "${repo}/build"

  echo "===================================================================="
  echo "== ci: perfbench smoke"
  echo "===================================================================="
  cores=$(python3 -c 'import os; print(len(os.sched_getaffinity(0)))')
  if [ "${cores}" -ge 4 ]; then
    python3 "${repo}/perfbench/run.py" --smoke
  else
    smoke_skipped="perfbench smoke NOT run: ${cores} usable cores, sgbench needs 4"
    echo "ci: ${smoke_skipped}"
  fi
fi

if [ -n "${smoke_skipped}" ]; then
  echo "ci: presets green (${presets[*]}); ${smoke_skipped}"
else
  echo "ci: all green (${presets[*]})"
fi
