# hacksim_run flag errors: every bad invocation below must exit with status
# 2 after a one-line message, never abort or silently run another scenario.
# 802.11a without --rate must run at its 54 Mb/s default.
#
#   cmake -DHACKSIM_RUN=<path to hacksim_run> -P tests/hacksim_run_flags_test.cmake
set(bad_invocations
  "--rate=77"
  "--rate="
  "--standard=a --rate=150"
  "--clients=-3"
  "--clients=abc"
  "--seconds=abc"
  "--loss=2"
  "--proto=foo"
  "--standard=g"
  "--clients=2 --fault-plan=crash@1000us:5")
foreach(invocation IN LISTS bad_invocations)
  separate_arguments(args UNIX_COMMAND "${invocation}")
  execute_process(COMMAND "${HACKSIM_RUN}" ${args} --seconds=0.01
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(REGEX MATCHALL "\n" newlines "${err}")
  list(LENGTH newlines lines)
  if(NOT rc EQUAL 2 OR NOT lines EQUAL 1)
    message(SEND_ERROR "hacksim_run ${invocation}: exit '${rc}' with "
                       "${lines} stderr lines, want exit 2 and one line:\n"
                       "${err}")
  endif()
endforeach()

execute_process(COMMAND "${HACKSIM_RUN}" --standard=a --seconds=0.05
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(SEND_ERROR "hacksim_run --standard=a: exit '${rc}', want 0:\n"
                     "${err}")
endif()
