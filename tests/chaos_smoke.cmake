# Chaos smoke test: the acceptance scenario of the overload-safe serving
# work. uguided runs with every protection armed (admission deadline,
# read-idle reaping, output cap, fast tick) and 8 session slots; the load
# generator offers 4x that with --chaos — garbage frames, half-written
# lines, slow readers, mid-question disconnects, and close/reopen-resume
# storms. The bar: every admitted session finishes with a byte-verified
# report, every refusal carries a machine-readable code + retry hint (the
# loadgen exits nonzero otherwise: structured retries must converge), no
# answered question is lost, and every journal resumes cleanly. A second
# pass repeats the load while the loadgen mutates the dataset, so live
# epochs are published, built on first open and resumed against under the
# same chaos and four daemon threads.
#
# Inputs: -DUGUIDED=<binary> -DLOADGEN=<binary> -DWORK_DIR=<scratch dir>

if(NOT UGUIDED OR NOT LOADGEN OR NOT WORK_DIR)
  message(FATAL_ERROR "chaos_smoke: UGUIDED, LOADGEN and WORK_DIR are "
                      "required")
endif()

find_program(BASH_PROGRAM bash)
if(NOT BASH_PROGRAM)
  message(FATAL_ERROR "chaos_smoke: bash not found")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# $1 = uguided, $2 = uguide_loadgen.
file(WRITE "${WORK_DIR}/chaos.sh" [=[
uguided="$1"
loadgen="$2"

# run_pass NAME FINISHED LOADGEN_FLAGS: one daemon in directory NAME under
# the chaos load plus LOADGEN_FLAGS. FINISHED is the session count the
# drain must report; empty means the loadgen's own ok count.
run_pass() {
  name="$1"
  finished="$2"
  mkdir -p "$name/journals"
  (cd "$name" && exec "$uguided" --port=0 --port-file=port.txt \
    --journal-dir=journals \
    --max-sessions=8 --rows=150 --budget=12 --threads=4 \
    --tick-ms=50 --read-idle-ms=2000 --queue-deadline-ms=5000 \
    >daemon.log 2>&1) &
  daemon_pid=$!

  for _ in $(seq 1 240); do
    [ -s "$name/port.txt" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.25
  done
  if ! [ -s "$name/port.txt" ]; then
    echo "chaos_smoke[$name]: daemon never published its port" >&2
    cat "$name/daemon.log" >&2
    kill "$daemon_pid" 2>/dev/null
    return 1
  fi

  "$loadgen" --port="$(cat "$name/port.txt")" --sessions=32 \
    --concurrency=32 --strategy=all --rows=150 --budget=12 --chaos \
    --chaos-seed=1234 --check-journals="$name/journals" $3 \
    >"$name/loadgen.log"
  loadgen_rc=$?
  cat "$name/loadgen.log"
  if [ -z "$finished" ]; then
    finished=$(sed -n 's/^uguide_loadgen: ok=\([0-9]*\) .*/\1/p' \
      "$name/loadgen.log")
  fi

  kill -TERM "$daemon_pid"
  wait "$daemon_pid"
  daemon_rc=$?
  cat "$name/daemon.log"

  if [ "$loadgen_rc" -ne 0 ]; then
    echo "chaos_smoke[$name]: loadgen failed (rc=$loadgen_rc)" >&2
    return 1
  fi
  if [ "$daemon_rc" -ne 0 ]; then
    echo "chaos_smoke[$name]: daemon did not drain cleanly" \
      "(rc=$daemon_rc)" >&2
    return 1
  fi
  if ! grep -q "finished=$finished " "$name/daemon.log"; then
    echo "chaos_smoke[$name]: daemon summary disagrees with loadgen" >&2
    return 1
  fi
}

run_pass static 32 "" || exit 1
# A resume whose pinned epoch has left the ring is refused with the
# terminal version_mismatch code, an explicit verdict the loadgen counts as
# refused; the daemon then finishes exactly the sessions the loadgen
# verified.
run_pass mutating "" "--mutate-rate=0.3 --mutate-seed=1" || exit 1
exit 0
]=])

execute_process(
  COMMAND "${BASH_PROGRAM}" "${WORK_DIR}/chaos.sh" "${UGUIDED}" "${LOADGEN}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

message(STATUS "chaos_smoke stdout:\n${out}")
if(err)
  message(STATUS "chaos_smoke stderr:\n${err}")
endif()
if(NOT exit_code STREQUAL "0")
  message(FATAL_ERROR "chaos_smoke: failed with exit code ${exit_code}")
endif()
