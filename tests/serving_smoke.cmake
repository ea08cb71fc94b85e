# End-to-end smoke test of the serving pair, in three passes. Each boots
# uguided on an ephemeral port, drives concurrent sessions through
# uguide_loadgen (which checks every served report byte-equal to its
# in-process reference), SIGTERMs the daemon, and requires a graceful drain
# plus zero journal corruption:
#   1. 16 sessions over one thread;
#   2. 32 sessions over two threads while the loadgen mutates the dataset.
#      A mutation forks on the pool from the drain task that handles it,
#      which hung a one-worker pool until nested forks ran inline;
#   3. the serving bench: uguide_loadgen --bench-out runs its three levels
#      (1, 16 and 64 concurrent sessions) against an auto-threaded daemon;
#      the JSON must hold exactly those levels, no refusals, and pass
#      tools/check_bench.py against itself.
# A stalled loadgen or drain fails the pass instead of hanging the test.
#
# Run via `cmake -P`; the process orchestration (background daemon, port
# handshake, signal, wait) needs a shell, so the script body runs under
# bash — present on every platform this repo's CI targets.
#
# Inputs: -DPYTHON=<python3> -DCHECK_BENCH=<tools/check_bench.py>
#         -DUGUIDED=<binary> -DLOADGEN=<binary> -DWORK_DIR=<scratch dir>

if(NOT PYTHON OR NOT CHECK_BENCH OR NOT UGUIDED OR NOT LOADGEN OR
   NOT WORK_DIR)
  message(FATAL_ERROR "serving_smoke: PYTHON, CHECK_BENCH, UGUIDED, LOADGEN "
                      "and WORK_DIR are required")
endif()

find_program(BASH_PROGRAM bash)
if(NOT BASH_PROGRAM)
  message(FATAL_ERROR "serving_smoke: bash not found")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# $1 = uguided, $2 = uguide_loadgen, $3 = python3, $4 = check_bench.py.
file(WRITE "${WORK_DIR}/smoke.sh" [=[
uguided="$1"
loadgen="$2"
python="$3"
check_bench="$4"

# run_pass NAME FINISHED DAEMON_FLAGS LOADGEN_FLAGS: one daemon in
# directory NAME; FINISHED is the session count the drain must report.
run_pass() {
  name="$1"
  finished="$2"
  mkdir -p "$name/journals"
  (cd "$name" && exec "$uguided" --port=0 --port-file=port.txt \
    --journal-dir=journals $3 >daemon.log 2>&1) &
  daemon_pid=$!

  for _ in $(seq 1 240); do
    [ -s "$name/port.txt" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.25
  done
  if ! [ -s "$name/port.txt" ]; then
    echo "serving_smoke[$name]: daemon never published its port" >&2
    cat "$name/daemon.log" >&2
    kill -KILL "$daemon_pid" 2>/dev/null
    return 1
  fi

  timeout 120 "$loadgen" --port="$(cat "$name/port.txt")" $4 \
    --check-journals="$name/journals"
  loadgen_rc=$?
  if [ "$loadgen_rc" -eq 124 ]; then
    echo "serving_smoke[$name]: loadgen stalled (no finish in 120 s)" >&2
  fi

  kill -TERM "$daemon_pid"
  for _ in $(seq 1 120); do
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.25
  done
  if kill -0 "$daemon_pid" 2>/dev/null; then
    kill -KILL "$daemon_pid"
    wait "$daemon_pid"
    cat "$name/daemon.log"
    echo "serving_smoke[$name]: daemon did not drain within 30 s" >&2
    return 1
  fi
  wait "$daemon_pid"
  daemon_rc=$?
  cat "$name/daemon.log"

  if [ "$loadgen_rc" -ne 0 ]; then
    echo "serving_smoke[$name]: loadgen failed (rc=$loadgen_rc)" >&2
    return 1
  fi
  if [ "$daemon_rc" -ne 0 ]; then
    echo "serving_smoke[$name]: daemon did not drain cleanly" \
      "(rc=$daemon_rc)" >&2
    return 1
  fi
  if ! grep -q "finished=$finished " "$name/daemon.log"; then
    echo "serving_smoke[$name]: daemon summary disagrees with loadgen" >&2
    return 1
  fi
}

# The dataset flags must match between the two processes (shared recipe,
# src/server/dataset.h).
run_pass single 16 "--max-sessions=32 --rows=200 --budget=16" \
  "--sessions=16 --concurrency=16 --strategy=all --rows=200 --budget=16" \
  || exit 1
run_pass mutating 32 \
  "--threads=2 --max-sessions=64 --rows=300 --budget=16" \
  "--sessions=32 --concurrency=8 --strategy=all --rows=300 --budget=16
   --mutate-rate=0.3 --mutate-seed=1" \
  || exit 1
# 64 + 64 + 256 sessions over the three bench levels.
run_pass serving 384 \
  "--threads=0 --max-sessions=128 --rows=200 --budget=16" \
  "--bench-out=serving/bench.json --strategy=FDQ-BMC --rows=200 --budget=16" \
  || exit 1
"$python" - serving/bench.json <<'EOF' || exit 1
import json, sys
bench = json.load(open(sys.argv[1]))
levels = [row["concurrency"] for row in bench["levels"]]
if levels != [1, 16, 64]:
    sys.exit("serving_smoke[serving]: levels %s, expected [1, 16, 64]"
             % levels)
if bench["counters"]["refused"] != 0:
    sys.exit("serving_smoke[serving]: the daemon refused %d session(s)"
             % bench["counters"]["refused"])
EOF
"$python" "$check_bench" serving/bench.json serving/bench.json || exit 1
exit 0
]=])

execute_process(
  COMMAND "${BASH_PROGRAM}" "${WORK_DIR}/smoke.sh" "${UGUIDED}" "${LOADGEN}"
          "${PYTHON}" "${CHECK_BENCH}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

message(STATUS "serving_smoke stdout:\n${out}")
if(err)
  message(STATUS "serving_smoke stderr:\n${err}")
endif()
if(NOT exit_code STREQUAL "0")
  message(FATAL_ERROR "serving_smoke: failed with exit code ${exit_code}")
endif()
