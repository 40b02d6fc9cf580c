# The PC sampler's smoke test: sample a short hacksim_run, check that every
# sample lands in a layer, a shared library or "other", and report the
# recording against itself with --baseline, where every delta must be zero.
#
#   cmake -DPYTHON=<python3> -DPCPROF=tools/pcprof.py -DPRELOAD=<libpcsample.so>
#         -DOUT=<output prefix> -DRUN=<hacksim_run> -P tests/pcprof_smoke_test.cmake
execute_process(
  COMMAND ${PYTHON} ${PCPROF} record --preload ${PRELOAD} --out ${OUT}
          --check --top 5 -- ${RUN} --clients=2 --seconds=1
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pcprof record --check exited ${rc}")
endif()
execute_process(
  COMMAND ${PYTHON} ${PCPROF} report ${OUT} --ppdus 1000 --baseline ${OUT}
          --baseline-ppdus 1000 --top 10
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pcprof report --baseline exited ${rc}")
endif()
if(NOT out MATCHES "pcprof: largest change 0\\.00 us/PPDU")
  message(FATAL_ERROR "a profile reported against itself moved")
endif()
