# Crash-restart smoke test: the whole-daemon recovery gate. uguided is
# SIGKILLed at arbitrary points while a restart-aware chaos loadgen is
# mid-flight, then restarted on the same port and journal directory. Each
# restart runs the startup recovery scan (resumable / finished /
# quarantined / GC'd); clients ride out the restart window on reconnect
# backoff and reopen their sessions with resume. The bar: the loadgen
# exits 0, meaning every admitted session ended in an explicit verdict —
# a byte-verified report (cross-checked against its journal's record
# count and durable end marker), a structured refusal, or an explicit
# quarantine. A session silently lost to a kill fails the gate.
#
# Inputs: -DUGUIDED=<binary> -DLOADGEN=<binary> -DWORK_DIR=<scratch dir>
# Optional: -DCYCLES=<kill/restart cycles, default 5>
#           -DSESSIONS=<total sessions, default 160>
# (The nightly soak runs this same script with CYCLES=20 SESSIONS=2000.)

if(NOT UGUIDED OR NOT LOADGEN OR NOT WORK_DIR)
  message(FATAL_ERROR "crash_restart_smoke: UGUIDED, LOADGEN and WORK_DIR "
                      "are required")
endif()
if(NOT CYCLES)
  set(CYCLES 5)
endif()
if(NOT SESSIONS)
  set(SESSIONS 160)
endif()

find_program(BASH_PROGRAM bash)
if(NOT BASH_PROGRAM)
  message(FATAL_ERROR "crash_restart_smoke: bash not found")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/journals")

# $1 = uguided, $2 = uguide_loadgen, $3 = cycles, $4 = sessions.
file(WRITE "${WORK_DIR}/crash_restart.sh" [=[
uguided="$1"
loadgen="$2"
cycles="$3"
sessions="$4"

# Flags shared by every daemon incarnation. fsync=every: a question the
# client saw answered must survive the SIGKILL that follows.
daemon_flags="--journal-dir=journals --max-sessions=64 --rows=150
  --budget=12 --threads=4 --tick-ms=50 --read-idle-ms=5000
  --queue-deadline-ms=10000"

# First boot picks the port; every restart reuses it (the listener sets
# SO_REUSEADDR, so TIME_WAIT remnants of the killed incarnation are fine).
# shellcheck disable=SC2086
"$uguided" --port=0 --port-file=port.txt $daemon_flags >daemon.0.log 2>&1 &
daemon_pid=$!
for _ in $(seq 1 240); do
  [ -s port.txt ] && break
  kill -0 "$daemon_pid" 2>/dev/null || break
  sleep 0.25
done
if ! [ -s port.txt ]; then
  echo "crash_restart_smoke: daemon never published its port" >&2
  cat daemon.0.log >&2
  kill "$daemon_pid" 2>/dev/null
  exit 1
fi
port=$(cat port.txt)

"$loadgen" --port="$port" --sessions="$sessions" --concurrency=16 \
  --strategy=all --rows=150 --budget=12 --chaos --chaos-seed=777 \
  --check-journals=journals --restart-grace-ms=30000 \
  >loadgen.log 2>&1 &
loadgen_pid=$!

for cycle in $(seq 1 "$cycles"); do
  # Let some sessions make progress, a different amount each cycle, so
  # the kill lands at varied journal offsets (including mid-record: the
  # salvage path). Short dwells: the kill must land while sessions are
  # still in flight, not after the run drained.
  sleep "0.1$(( RANDOM % 10 ))"
  kill -KILL "$daemon_pid" 2>/dev/null
  wait "$daemon_pid" 2>/dev/null

  # Restart on the same port + journal dir. Bind can race the dying
  # incarnation's sockets, so retry until the new one stays up.
  up=0
  for _ in $(seq 1 30); do
    # shellcheck disable=SC2086
    "$uguided" --port="$port" $daemon_flags >"daemon.$cycle.log" 2>&1 &
    daemon_pid=$!
    sleep 0.4
    if kill -0 "$daemon_pid" 2>/dev/null; then
      up=1
      break
    fi
    wait "$daemon_pid" 2>/dev/null
  done
  if [ "$up" -ne 1 ]; then
    echo "crash_restart_smoke: daemon did not come back (cycle $cycle)" >&2
    cat "daemon.$cycle.log" >&2
    kill "$loadgen_pid" 2>/dev/null
    exit 1
  fi
  # Every restart must have run the recovery scan over the journal dir.
  # The scan logs after the dataset build, which a sanitizer build can
  # take seconds to finish, so wait for the line while the daemon lives.
  for _ in $(seq 1 100); do
    grep -q "uguided: recovery." "daemon.$cycle.log" && break
    kill -0 "$daemon_pid" 2>/dev/null || break
    sleep 0.1
  done
  if ! grep -q "uguided: recovery." "daemon.$cycle.log"; then
    echo "crash_restart_smoke: restart $cycle skipped recovery" >&2
    cat "daemon.$cycle.log" >&2
    kill "$loadgen_pid" 2>/dev/null
    exit 1
  fi
  # All kills delivered while work remains is the interesting case; once
  # the loadgen is done, stop cycling.
  kill -0 "$loadgen_pid" 2>/dev/null || break
done

wait "$loadgen_pid"
loadgen_rc=$?
cat loadgen.log

kill -TERM "$daemon_pid" 2>/dev/null
wait "$daemon_pid"
daemon_rc=$?
tail -n 3 "$(ls -1 daemon.*.log | tail -n 1)"

if [ "$loadgen_rc" -ne 0 ]; then
  echo "crash_restart_smoke: a session was lost or mismatched" \
       "(loadgen rc=$loadgen_rc)" >&2
  exit 1
fi
if [ "$daemon_rc" -ne 0 ]; then
  echo "crash_restart_smoke: final drain failed (rc=$daemon_rc)" >&2
  exit 1
fi
exit 0
]=])

execute_process(
  COMMAND "${BASH_PROGRAM}" "${WORK_DIR}/crash_restart.sh"
          "${UGUIDED}" "${LOADGEN}" "${CYCLES}" "${SESSIONS}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

message(STATUS "crash_restart_smoke stdout:\n${out}")
if(err)
  message(STATUS "crash_restart_smoke stderr:\n${err}")
endif()
if(NOT exit_code STREQUAL "0")
  message(FATAL_ERROR
          "crash_restart_smoke: failed with exit code ${exit_code}")
endif()
