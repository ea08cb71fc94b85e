# Smoke test for the command-line tools, run via `cmake -P` so it works
# anywhere ctest does. Asserts the argument-parsing contract: bad usage is
# exit 2 with a one-line error plus usage on stderr (never an abort, never
# a silent default), and good usage exits 0 with the expected report.
#
# Inputs: -DPYTHON=<python3> -DUGUIDE_CLI=<binary> -DUGUIDED=<binary>
#         -DLOADGEN=<binary> -DPAPER_FIGURES=<binary> -DWORK_DIR=<scratch dir>

if(NOT PYTHON OR NOT UGUIDE_CLI OR NOT UGUIDED OR NOT LOADGEN OR
   NOT PAPER_FIGURES OR NOT WORK_DIR)
  message(FATAL_ERROR
          "cli_smoke: PYTHON, UGUIDE_CLI, UGUIDED, LOADGEN, PAPER_FIGURES "
          "and WORK_DIR are required")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

file(WRITE "${WORK_DIR}/data.csv"
"zip,city,state
10001,new york,NY
10001,new york,NY
60601,chicago,IL
60601,chicago,IL
94105,san francisco,CA
94105,san francisco,CA
73301,austin,TX
73301,austin,TX
")

set(FAILURES 0)

# run(<name> <expected-exit> <must-match-regex> <stream> <args...>)
#   runs the binary in `tool`; stream is OUT or ERR: which stream the regex
#   must match against. A daemon that accepts a bad flag would serve
#   forever, so every run is cut after 30 s (and then fails its exit check).
function(run name expected_exit pattern stream)
  execute_process(
    COMMAND "${tool}" ${ARGN}
    TIMEOUT 30
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  set(ok TRUE)
  if(NOT exit_code STREQUAL "${expected_exit}")
    message(WARNING "${name}: expected exit ${expected_exit}, got "
                    "'${exit_code}'\nstdout: ${out}\nstderr: ${err}")
    set(ok FALSE)
  endif()
  if(pattern)
    if(stream STREQUAL "ERR")
      set(haystack "${err}")
    else()
      set(haystack "${out}")
    endif()
    if(NOT haystack MATCHES "${pattern}")
      message(WARNING "${name}: ${stream} does not match '${pattern}'\n"
                      "stdout: ${out}\nstderr: ${err}")
      set(ok FALSE)
    endif()
  endif()
  if(ok)
    message(STATUS "${name}: ok")
  else()
    math(EXPR n "${FAILURES} + 1")
    set(FAILURES ${n} PARENT_SCOPE)
  endif()
endfunction()

set(tool "${UGUIDE_CLI}")

# -- Usage errors: exit 2, one-line diagnostic + usage on stderr. ------------
run(no_args 2 "usage:" ERR)
run(unknown_command 2 "unknown command" ERR nonsense data.csv)
run(unknown_flag 2 "unknown flag" ERR profile data.csv --bogus=1)
run(non_numeric_threads 2 "invalid value 'two' for --threads" ERR
    profile data.csv --threads=two)
run(non_numeric_budget 2 "invalid value 'abc' for --budget" ERR
    session data.csv --budget=abc)
run(missing_flag_value 2 "invalid value '' for --max-lhs" ERR
    profile data.csv --max-lhs=)
run(out_of_range_error_rate 2 "invalid value '1.5' for --error-rate" ERR
    session data.csv --error-rate=1.5)
run(negative_threads 2 "invalid value '-1' for --threads" ERR
    profile data.csv --threads=-1)
# Removed surface: the CFD subcommand and its flag are gone, not ignored.
run(removed_cfds 2 "unknown command" ERR cfds data.csv)
run(removed_min_support 2 "unknown flag" ERR profile data.csv --min-support=8)

# -- Happy paths. ------------------------------------------------------------
run(profile_ok 0 "minimal" OUT profile data.csv --max-lhs=2)
run(profile_budgeted 0 "peak partition memory" OUT
    profile data.csv --max-lhs=2 --memory-budget-mb=64)
run(detect_budgeted 0 "suspect cell" OUT
    detect data.csv --memory-budget-mb=64)

# -- The daemon and the load generator share the CLI's parsers: a value
# that is not a finite number in the flag's range is refused before any
# dataset is built or any connection is made. -------------------------------
set(tool "${UGUIDED}")
run(uguided_nan_error_rate 2 "invalid value 'nan' for --error-rate" ERR
    --port=0 --error-rate=nan)
run(uguided_idk_rate_above_one 2 "invalid value '2' for --idk-rate" ERR
    --port=0 --idk-rate=2)
run(uguided_negative_budget 2 "invalid value '-5' for --budget" ERR
    --port=0 --budget=-5)
run(uguided_nan_tick 2 "invalid value 'nan' for --tick-ms" ERR
    --port=0 --tick-ms=nan)
run(uguided_negative_seed 2 "invalid value '-1' for --seed" ERR
    --port=0 --seed=-1)
# Removed surface: the daemon has no memory budget flag.
run(uguided_removed_memory_budget 2 "unknown flag" ERR
    --port=0 --memory-budget-mb=64)

set(tool "${LOADGEN}")
run(loadgen_nan_error_rate 2 "invalid value 'nan' for --error-rate" ERR
    --port=1 --error-rate=nan)
run(loadgen_idk_rate_above_one 2 "invalid value '2' for --idk-rate" ERR
    --port=1 --idk-rate=2)
run(loadgen_negative_budget 2 "invalid value '-5' for --budget" ERR
    --port=1 --budget=-5)
run(loadgen_infinite_mutate_rate 2 "invalid value 'inf' for --mutate-rate"
    ERR --port=1 --mutate-rate=inf)
run(loadgen_non_numeric_rows 2
    "^uguide_loadgen: invalid value 'abc' for --rows " ERR --port=1 --rows=abc)
run(loadgen_nan_budget 2 "^uguide_loadgen: invalid value 'nan' for --budget "
    ERR --port=1 --budget=nan)
# A strategy name is checked before any connection: a typo used to fail
# every session late.
run(loadgen_unknown_strategy 2
    "^uguide_loadgen: invalid value 'Nope' for --strategy " ERR
    --port=1 --strategy=Nope)
# The bench's levels are fixed; sizing flags next to --bench-out are a
# usage error, not silently ignored.
run(loadgen_bench_out_with_sessions 2
    "^uguide_loadgen: --sessions and --concurrency do not apply to "
    ERR --port=1 --bench-out=bench.json --sessions=8)
# Removed surface: the verify, refusal and id-prefix switches are gone.
run(loadgen_removed_no_verify 2 "^uguide_loadgen: unknown flag --no-verify\n"
    ERR --port=1 --no-verify)
run(loadgen_removed_allow_refused 2
    "^uguide_loadgen: unknown flag --allow-refused\n" ERR
    --port=1 --allow-refused)
run(loadgen_removed_id_prefix 2
    "^uguide_loadgen: unknown flag --id-prefix\n" ERR --port=1 --id-prefix=x)

# -- A daemon that accepts connections and never replies: the load
# generator's reply timeout fails the stalled session, names it and its
# op, and exits 1 instead of waiting forever. The listener holds every
# connection open and runs the load generator against its port. --------
file(WRITE "${WORK_DIR}/silent_listener.py"
"import socket, subprocess, sys, threading
server = socket.socket()
server.bind(('127.0.0.1', 0))
server.listen(16)
held = []
def hold():
    while True:
        held.append(server.accept()[0])
threading.Thread(target=hold, daemon=True).start()
port = '--port=%d' % server.getsockname()[1]
sys.exit(subprocess.run([sys.argv[1], port] + sys.argv[2:]).returncode)
")
set(tool "${PYTHON}")
run(loadgen_reply_timeout 1
    "no reply within 2s to op=open for session lg-0" ERR
    silent_listener.py "${LOADGEN}" --sessions=1 --concurrency=1 --rows=300
    --reply-timeout-s=2)
set(tool "${LOADGEN}")
run(loadgen_zero_reply_timeout 2 "invalid value '0' for --reply-timeout-s"
    ERR --port=1 --reply-timeout-s=0)

# -- paper_figures parses flags the same way: a bad value, an unknown flag
# or an unknown figure is one stderr line and exit 2, before any dataset is
# built. ---------------------------------------------------------------------
set(tool "${PAPER_FIGURES}")
run(figures_non_numeric_rows 2
    "^paper_figures: invalid value 'abc' for --rows [^\n]*\n$" ERR --rows=abc)
run(figures_zero_seeds 2
    "^paper_figures: invalid value '0' for --seeds [^\n]*\n$" ERR --seeds=0)
run(figures_unknown_figure 2 "^paper_figures: unknown figure 'fig11'\n$" ERR
    --figure=fig11)
run(figures_unknown_flag 2 "^paper_figures: unknown flag --bogus=1\n$" ERR
    --bogus=1)

# One real figure: Fig. 6 is two panels of 5 budgets x 3 strategies, so its
# JSON holds 30 rows.
run(figures_fig6 0 "Figure 6: comparative question types" OUT
    --figure=fig6 --rows=300 --out=fig6.json)
file(READ "${WORK_DIR}/fig6.json" fig6_json)
string(JSON fig6_points ERROR_VARIABLE fig6_error LENGTH "${fig6_json}"
       points)
if(fig6_error OR NOT fig6_points EQUAL 30)
  message(WARNING "figures_fig6_json: expected 30 points, got "
                  "'${fig6_points}' ${fig6_error}")
  math(EXPR FAILURES "${FAILURES} + 1")
else()
  message(STATUS "figures_fig6_json: ok")
endif()

# --seeds averages the tables outside the sweep too: the ablation tables
# at three seeds differ from one seed's (the banner does not name seeds).
foreach(seeds 1 3)
  execute_process(
    COMMAND "${PAPER_FIGURES}" --figure=ablation --rows=300 --seeds=${seeds}
            --out=ablation_${seeds}.json
    TIMEOUT 60
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE ablation_exit_${seeds}
    OUTPUT_VARIABLE ablation_out_${seeds}
    ERROR_VARIABLE ablation_err)
endforeach()
if(NOT ablation_exit_1 STREQUAL "0" OR NOT ablation_exit_3 STREQUAL "0" OR
   ablation_out_1 STREQUAL ablation_out_3)
  message(WARNING "figures_ablation_seeds: expected two successful runs "
                  "with different tables, got exits '${ablation_exit_1}' "
                  "and '${ablation_exit_3}'\n--seeds=1:\n${ablation_out_1}"
                  "\n--seeds=3:\n${ablation_out_3}")
  math(EXPR FAILURES "${FAILURES} + 1")
else()
  message(STATUS "figures_ablation_seeds: ok")
endif()

if(FAILURES GREATER 0)
  message(FATAL_ERROR "cli_smoke: ${FAILURES} check(s) failed")
endif()
