# Flag errors in the command-line tools: every bad invocation below must
# exit with status 2 after a one-line message, never abort or silently run,
# and --help must print the usage and exit 0. Each invocation runs under a
# short timeout, so one that starts a run instead fails here.
#
#   cmake -DTOOL=<path to hacksim_run|campaign|fault_fuzz|bench_scale> -P tests/cli_flags_test.cmake
get_filename_component(tool_name "${TOOL}" NAME_WE)
set(extra_args)
if(tool_name STREQUAL "hacksim_run")
  set(bad_invocations
    "--rate=77" "--rate=" "--standard=a --rate=150" "--clients=-3"
    "--clients=abc" "--seconds=abc" "--loss=2" "--proto=foo" "--standard=g"
    "--clients=2 --fault-plan=crash@1000us:5" "--bogus")
  # A wrongly accepted invocation then runs only briefly.
  set(extra_args --seconds=0.01)
elseif(tool_name STREQUAL "campaign")
  set(bad_invocations
    "--jobs=abc" "--jobs=-1" "--jobs=257" "--seeds=2x" "--stations=1e3"
    "--duration-ms=5s" "--base-seed=-1" "--json=" "--bogus")
elseif(tool_name STREQUAL "fault_fuzz")
  set(bad_invocations
    "--plans=abc" "--plans=-3" "--plans=0" "--plans=1e3" "--jobs=abc"
    "--base-seed=x" "--bogus")
elseif(tool_name STREQUAL "bench_scale")
  set(bad_invocations
    "--json" "--jobs=abc" "--jobs=-2" "--repeats=0" "--repeats=5x" "--bogus")
else()
  message(FATAL_ERROR "no flag cases for '${TOOL}'")
endif()

foreach(invocation IN LISTS bad_invocations)
  separate_arguments(args UNIX_COMMAND "${invocation}")
  execute_process(COMMAND "${TOOL}" ${args} ${extra_args} TIMEOUT 10
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(REGEX MATCHALL "\n" newlines "${err}")
  list(LENGTH newlines lines)
  if(NOT rc EQUAL 2 OR NOT lines EQUAL 1)
    message(SEND_ERROR "${tool_name} ${invocation}: exit '${rc}' with "
                       "${lines} stderr lines, want exit 2 and one line:\n"
                       "${err}")
  endif()
endforeach()

execute_process(COMMAND "${TOOL}" --help TIMEOUT 10
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "^usage: ${tool_name} ")
  message(SEND_ERROR "${tool_name} --help: exit '${rc}', want 0 and a usage "
                     "line:\n${out}${err}")
endif()

if(tool_name STREQUAL "hacksim_run")
  # 802.11a without --rate must run at its 54 Mb/s default.
  execute_process(COMMAND "${TOOL}" --standard=a --seconds=0.05 TIMEOUT 10
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "hacksim_run --standard=a: exit '${rc}', want 0:\n"
                       "${err}")
  endif()
endif()
