# example_golden: runs one program in a fresh working directory and
# compares its stdout, and optionally one file it writes there, byte for
# byte with committed goldens (ctest label "golden"):
#   cmake -DPROGRAM=<exe> -DWORK_DIR=<dir> -DEXPECTED_STDOUT=<golden>
#         [-DARGS=<space-separated program arguments>]
#         [-DOUTPUT_FILE=<name written in WORK_DIR> -DEXPECTED_FILE=<golden>]
#         -P example_golden.cmake
# To re-record after a deliberate output change, run the program from
# examples/golden/ and redirect its stdout to <name>.stdout there.
cmake_minimum_required(VERSION 3.20)

separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${PROGRAM}" ${args}
                WORKING_DIRECTORY "${WORK_DIR}"
                OUTPUT_FILE "${WORK_DIR}/stdout.txt"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${status}")
endif()

function(expect_same actual expected)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${actual}" "${expected}"
                  RESULT_VARIABLE differs)
  if(differs)
    file(READ "${actual}" text LIMIT 4096)
    message(FATAL_ERROR "${actual} differs from ${expected}; "
                        "it begins:\n${text}")
  endif()
endfunction()

expect_same("${WORK_DIR}/stdout.txt" "${EXPECTED_STDOUT}")
if(DEFINED OUTPUT_FILE)
  expect_same("${WORK_DIR}/${OUTPUT_FILE}" "${EXPECTED_FILE}")
endif()
