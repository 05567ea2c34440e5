# src_orphan_modules: fails when a src/ module is reached only by its own
# tests, run by
#   cmake -DRAP_ROOT=<repo> -P orphan_modules.cmake
# A module is a src/**/*.h and its .cpp. It is live when some file under
# src/, tools/, bench/ or examples/ outside the pair includes the header
# and that file is live itself; a module whose only includers are orphans
# is an orphan too, so the scan repeats until nothing changes.
cmake_minimum_required(VERSION 3.20)

file(GLOB_RECURSE headers RELATIVE "${RAP_ROOT}" "${RAP_ROOT}/src/*.h")
set(sources "")
foreach(dir src tools bench examples)
  file(GLOB_RECURSE found RELATIVE "${RAP_ROOT}"
       "${RAP_ROOT}/${dir}/*.h" "${RAP_ROOT}/${dir}/*.cpp")
  list(APPEND sources ${found})
endforeach()

# includers_<header id>: the files outside the header's pair that include it.
foreach(source IN LISTS sources)
  string(REGEX REPLACE "\\.(h|cpp)$" "" module "${source}")
  file(STRINGS "${RAP_ROOT}/${source}" lines REGEX "^#include \"src/")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^#include \"([^\"]+)\".*" "\\1" header "${line}")
    if(NOT header STREQUAL "${module}.h")
      string(MAKE_C_IDENTIFIER "${header}" id)
      list(APPEND includers_${id} "${module}")
    endif()
  endforeach()
endforeach()

set(orphans "")
set(changed TRUE)
while(changed)
  set(changed FALSE)
  foreach(header IN LISTS headers)
    if(header IN_LIST orphans)
      continue()
    endif()
    string(MAKE_C_IDENTIFIER "${header}" id)
    set(live FALSE)
    foreach(module IN LISTS includers_${id})
      if(NOT "${module}.h" IN_LIST orphans)
        set(live TRUE)
        break()
      endif()
    endforeach()
    if(NOT live)
      list(APPEND orphans "${header}")
      set(changed TRUE)
    endif()
  endforeach()
endwhile()

if(orphans)
  list(SORT orphans)
  list(JOIN orphans "\n  " listed)
  message(FATAL_ERROR "src/ modules no tool, bench, example or live src/ "
                      "file includes:\n  ${listed}")
endif()
list(LENGTH headers count)
message(STATUS "src_orphan_modules: all ${count} src/ headers are reached")
