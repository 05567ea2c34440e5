# bench_e2e_smoke: every workload at --size smoke for half a second, traced,
# run by
#   cmake -DRAP_BENCH=<rap_bench> -DRAP_ROOT=<repo> -DOUT_DIR=<dir> -P smoke.cmake
# Fails when a bench/e2e source includes a header the roadmap schedules for
# deletion, when a run fails or reports a failed operation (the replay's
# disagreements with the socket run included), when a result line lacks a
# per-layer metric or the run's document an end-to-end metric of
# BENCHMARK.json, when the Chrome trace holds no events, or when a
# metro_cold or city_cold placement digest differs from
# reference_digests.txt. A traced run does the untraced socket run first and
# documents its end-to-end metrics, so one run per workload checks both lists.
cmake_minimum_required(VERSION 3.20)

# Headers of graph/oracle*, traffic/oracle_detour, src/cover/ and
# core/coverage_adapter: the benchmark must keep compiling once they go.
set(scheduled "src/graph/oracle" "src/traffic/oracle_detour" "src/cover/"
              "src/core/coverage_adapter")
file(GLOB sources "${RAP_ROOT}/bench/e2e/*.h" "${RAP_ROOT}/bench/e2e/*.cpp")
foreach(source IN LISTS sources)
  file(STRINGS "${source}" includes REGEX "^#include ")
  foreach(line IN LISTS includes)
    foreach(header IN LISTS scheduled)
      string(FIND "${line}" "\"${header}" at)
      if(NOT at EQUAL -1)
        message(FATAL_ERROR "${source}: ${line} is scheduled for deletion")
      endif()
    endforeach()
  endforeach()
endforeach()

file(READ "${RAP_ROOT}/BENCHMARK.json" benchmark)

# The names of BENCHMARK.json's `section` list.
function(metric_names section out)
  set(names "")
  string(JSON count LENGTH "${benchmark}" ${section})
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    string(JSON name GET "${benchmark}" ${section} ${i} name)
    list(APPEND names "${name}")
  endforeach()
  set(${out} "${names}" PARENT_SCOPE)
endfunction()
metric_names(end_to_end end_to_end)
metric_names(per_layer per_layer)

foreach(workload metro_cold serve_steady delta_churn city_cold)
  execute_process(
    COMMAND "${RAP_BENCH}" --workload ${workload} --size smoke --seed 1
            --seconds 0.5 --trace 1 --out-dir "${OUT_DIR}"
            --reference "${RAP_ROOT}/bench/e2e/reference_digests.txt"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE output
    ERROR_VARIABLE errors
    TIMEOUT 60)
  message("${output}")
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${workload}: rap_bench exited with ${status}\n${errors}")
  endif()
  string(STRIP "${output}" output)
  string(REGEX REPLACE "^.*\n" "" result "${output}")
  string(JSON failed GET "${result}" failed)
  if(NOT failed EQUAL 0)
    message(FATAL_ERROR "${workload}: ${failed} failed operation(s)")
  endif()
  foreach(name IN LISTS per_layer)
    string(JSON value ERROR_VARIABLE missing GET "${result}" metrics ${name} value)
    if(missing)
      message(FATAL_ERROR "${workload}: per-layer metric ${name} missing")
    endif()
  endforeach()

  file(READ "${OUT_DIR}/${workload}.seed1.layers.json" document)
  string(JSON count LENGTH "${document}" metrics)
  math(EXPR last "${count} - 1")
  set(documented "")
  foreach(i RANGE ${last})
    string(JSON name GET "${document}" metrics ${i} name)
    list(APPEND documented "${name}")
  endforeach()
  foreach(name IN LISTS end_to_end)
    if(NOT name IN_LIST documented)
      message(FATAL_ERROR "${workload}: end-to-end metric ${name} missing")
    endif()
  endforeach()

  file(READ "${OUT_DIR}/${workload}.seed1.trace.json" trace)
  string(JSON events LENGTH "${trace}" traceEvents)
  if(events EQUAL 0)
    message(FATAL_ERROR "${workload}: the Chrome trace holds no events")
  endif()
endforeach()
