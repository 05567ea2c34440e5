# src_orphan_symbols: fails when a public rap:: function defined in src/ is
# reached only by tests, run by
#   cmake -DRAP_READELF=<readelf> -DRAP_OBJDUMP=<objdump>
#         -DRAP_SCANNED=<file> -DRAP_USERS=<file> -DRAP_SOURCE_DIR=<dir>
#         [-DRAP_ALLOWLIST=<file>] -P orphan_symbols.cmake
# RAP_SCANNED and RAP_USERS each name a file that lists object files, one a
# line: the objects whose functions are scanned (the src/ libraries), and
# the other objects that count as users (tools, benches, examples). Test
# objects are in neither list.
#
# A scanned function is every FUNC GLOBAL symbol named _ZN3rap... or
# _ZNK3rap...; the complete and base constructors (or destructors) that
# share one address are one function. It is live when
#   1. another scanned or user object references it (an undefined symbol
#      there), or
#   2. its own .h or .cpp uses it: calls it, takes its address or names it
#      anywhere but in a declaration or definition (at -O2 a function
#      inlined into its only caller in its own file leaves no reference), or
#   3. its own object refers to it outside the debug sections (a vtable, a
#      call the compiler did not inline).
# Destructors and operators run where no text names them, so they count as
# used by their own files. Overloads share a name, so the text of one
# overload's call keeps them all.
# A function still dead fails the scan unless RAP_ALLOWLIST names it, one
# `rap::qualified::name -- reason` a line. An entry without a reason, or one
# that names no dead function, fails it too.
cmake_minimum_required(VERSION 3.20)

foreach(var RAP_READELF RAP_OBJDUMP RAP_SCANNED RAP_USERS RAP_SOURCE_DIR)
  if(NOT ${var})
    message(FATAL_ERROR "orphan_symbols.cmake needs -D${var}=...")
  endif()
endforeach()

file(STRINGS "${RAP_SCANNED}" scanned REGEX ".")
file(STRINGS "${RAP_USERS}" users REGEX ".")

# rap_demangle_name(<mangled> <qualified out> <name out>): "rap::geo::BBox::
# inflated" and "inflated" for _ZNK3rap3geo4BBox8inflatedEd. A constructor's
# name is its class's, a destructor's is "~" and its class's, an operator's
# is "operator".
function(rap_demangle_name mangled qualified_out name_out)
  string(REGEX REPLACE "^_ZNK?" "" rest "${mangled}")
  set(parts "")
  while(rest MATCHES "^([0-9]+)(.*)$")
    set(length ${CMAKE_MATCH_1})
    set(tail "${CMAKE_MATCH_2}")
    string(SUBSTRING "${tail}" 0 ${length} part)
    string(SUBSTRING "${tail}" ${length} -1 rest)
    list(APPEND parts "${part}")
    while(rest MATCHES "^B([0-9]+)(.*)$")  # an ABI tag such as [abi:cxx11]
      string(SUBSTRING "${CMAKE_MATCH_2}" ${CMAKE_MATCH_1} -1 rest)
    endwhile()
  endwhile()
  list(GET parts -1 name)
  if(rest MATCHES "^C[1-3]")
    list(APPEND parts "${name}")
  elseif(rest MATCHES "^D[0-2]")
    set(name "~${name}")
    list(APPEND parts "${name}")
  elseif(rest MATCHES "^([a-z][a-z0-9])")
    set(name "operator")
    list(APPEND parts "operator_${CMAKE_MATCH_1}")
  endif()
  list(JOIN parts "::" qualified)
  set(${qualified_out} "${qualified}" PARENT_SCOPE)
  set(${name_out} "${name}" PARENT_SCOPE)
endfunction()

# rap_source_tokens(<file> <out>): the file's code with comments, string and
# character literals and numbers removed, every token between single spaces.
function(rap_source_tokens path out)
  file(READ "${path}" text)
  string(REGEX REPLACE
    "([A-Za-z_][A-Za-z0-9_]*|)(//[^\n]*|/\\*([^*]|\\*+[^*/])*\\*+/|\"([^\"\\\\\n]|\\\\.)*\"|'([^'\\\\\n]|\\\\.)*'|[0-9][A-Za-z0-9_'.]*|)([^A-Za-z0-9_])"
    " \\1 \\6" text "${text}\n")
  string(REGEX REPLACE "[ \t\r\n]+" " " text "${text}")
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

# rap_used_in_text(<tokens> <name> <scope> <constructor> <out>): TRUE when
# `tokens` use `name` other than to declare or define it. An occurrence
# qualified by a scope other than `scope` (std::to_string beside
# manhattan::to_string) is someone else's. A function's name followed by "("
# declares or defines it when the token before ends a type: an identifier
# that is not a keyword, or a lone ">", "*" or "&"; anything else uses it.
# A constructor's name (its class's, `scope` being the class's own scope) is
# used when "(" or "{" follows it, unless Name::Name defines it or a member,
# a brace, an access label or a specifier (an in-class declaration) or
# class/struct/~ comes before it.
function(rap_used_in_text tokens name scope constructor out)
  set(keywords and case co_await co_return co_yield decltype delete do else
               new noexcept not or return sizeof throw typeid)
  set(used FALSE)
  string(LENGTH " ${name} " length)
  set(offset 0)
  while(TRUE)
    string(SUBSTRING "${tokens}" ${offset} -1 rest)
    string(FIND "${rest}" " ${name} " at)
    if(at EQUAL -1)
      break()
    endif()
    math(EXPR at "${offset} + ${at}")
    math(EXPR offset "${at} + ${length} - 1")  # the next search keeps the space
    # The 200 characters before the occurrence hold its qualifier and the
    # token before that.
    set(start 0)
    if(at GREATER 200)
      math(EXPR start "${at} - 200")
    endif()
    math(EXPR span "${at} - ${start} + 1")
    string(SUBSTRING "${tokens}" ${start} ${span} before)
    string(SUBSTRING "${tokens}" ${offset} 2 next)
    string(STRIP "${next}" next)

    if(before MATCHES "([A-Za-z_][A-Za-z0-9_]* : : )+$")
      set(qualifier "${CMAKE_MATCH_0}")
      string(REGEX MATCH "([A-Za-z_][A-Za-z0-9_]*) : : $" last "${qualifier}")
      if(NOT CMAKE_MATCH_1 STREQUAL scope)
        continue()  # someone else's, or Name::Name defining a constructor
      endif()
      string(LENGTH "${before}" before_length)
      string(LENGTH "${qualifier}" qualifier_length)
      math(EXPR keep "${before_length} - ${qualifier_length}")
      string(SUBSTRING "${before}" 0 ${keep} before)
    endif()
    if(constructor)
      if(NOT next MATCHES "[({]")
        continue()  # the class named as a type
      endif()
    elseif(NOT next STREQUAL "(")
      set(used TRUE)
      break()
    endif()
    if(NOT " ${before}" MATCHES "([^ ]*) ([^ ]+) $")
      continue()  # the first token of the file
    endif()
    set(prior "${CMAKE_MATCH_1}")
    set(token "${CMAKE_MATCH_2}")
    if(constructor)
      if(NOT (token MATCHES "^([;{}~]|class|struct|explicit|constexpr|inline)$"
              OR (token STREQUAL ":" AND
                  prior MATCHES "^(public|protected|private)$")))
        set(used TRUE)
        break()
      endif()
    elseif(token MATCHES "^[A-Za-z_]")
      if(token IN_LIST keywords)
        set(used TRUE)
        break()
      endif()
    elseif(NOT (token STREQUAL "*" OR
                (token STREQUAL ">" AND NOT prior STREQUAL "-") OR
                (token STREQUAL "&" AND NOT prior STREQUAL "&")))
      set(used TRUE)
      break()
    endif()
  endwhile()
  set(${out} ${used} PARENT_SCOPE)
endfunction()

# Definitions: every scanned FUNC GLOBAL rap:: symbol, grouped by object,
# section and address (a constructor's C1/C2 aliases are one function).
set(groups "")
foreach(object IN LISTS scanned)
  execute_process(COMMAND "${RAP_READELF}" -sW "${object}"
                  OUTPUT_VARIABLE table RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${RAP_READELF} -sW ${object} failed")
  endif()
  string(REGEX MATCHALL
         "[0-9a-f]+ +[0-9a-fx]+ FUNC +GLOBAL +[A-Z]+ +[0-9]+ _ZNK?3rap[^\n]*"
         defined "${table}")
  foreach(line IN LISTS defined)
    string(REGEX MATCH "^([0-9a-f]+) .* ([0-9]+) (_ZNK?3rap[^ ]*)$" _ "${line}")
    string(MAKE_C_IDENTIFIER "${object}.${CMAKE_MATCH_2}.${CMAKE_MATCH_1}" group)
    if(NOT DEFINED members_${group})
      list(APPEND groups ${group})
      set(object_${group} "${object}")
    endif()
    list(APPEND members_${group} "${CMAKE_MATCH_3}")
  endforeach()
endforeach()

# References: every rap:: symbol some scanned or user object leaves undefined.
foreach(object IN LISTS scanned users)
  execute_process(COMMAND "${RAP_READELF}" -sW "${object}"
                  OUTPUT_VARIABLE table RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${RAP_READELF} -sW ${object} failed")
  endif()
  string(REGEX MATCHALL " UND _ZNK?3rap[^\n]*" undefined "${table}")
  foreach(line IN LISTS undefined)
    string(SUBSTRING "${line}" 5 -1 symbol)
    set(referenced_${symbol} TRUE)
  endforeach()
endforeach()

set(dead "")
list(LENGTH groups scanned_count)
foreach(group IN LISTS groups)
  set(live FALSE)
  foreach(symbol IN LISTS members_${group})
    if(referenced_${symbol})
      set(live TRUE)
    endif()
  endforeach()
  if(live)
    continue()
  endif()

  list(GET members_${group} 0 symbol)
  rap_demangle_name("${symbol}" qualified name)
  set(qualified_${group} "${qualified}")
  # A destructor or an operator runs where no text names it.
  if(name MATCHES "^~" OR name STREQUAL "operator")
    continue()
  endif()
  string(REGEX REPLACE "::[^:]+$" "" scope "${qualified}")
  set(constructor FALSE)
  if(scope MATCHES "::${name}$")
    set(constructor TRUE)
    string(REGEX REPLACE "::[^:]+$" "" scope "${scope}")
  endif()
  string(REGEX REPLACE "^.*::" "" scope "${scope}")
  # The object's own source, from CMake's object path
  # <target>.dir/<source relative to RAP_SOURCE_DIR>.o, and its header.
  string(REGEX REPLACE "^.*\\.dir/(.*)\\.o$" "\\1" source "${object_${group}}")
  string(REGEX REPLACE "\\.cpp$" ".h" header "${source}")
  foreach(file IN ITEMS "${source}" "${header}")
    if(live OR NOT EXISTS "${RAP_SOURCE_DIR}/${file}")
      continue()
    endif()
    string(MAKE_C_IDENTIFIER "${file}" id)
    if(NOT DEFINED tokens_${id})
      rap_source_tokens("${RAP_SOURCE_DIR}/${file}" tokens_${id})
    endif()
    rap_used_in_text("${tokens_${id}}" "${name}" "${scope}" ${constructor}
                     live)
  endforeach()
  if(NOT live)
    list(APPEND dead ${group})
  endif()
endforeach()

# Own-object references outside the debug sections, for what is left.
set(orphans "")
foreach(group IN LISTS dead)
  set(object "${object_${group}}")
  string(MAKE_C_IDENTIFIER "${object}" id)
  if(NOT DEFINED relocations_${id})
    execute_process(COMMAND "${RAP_READELF}" -SW "${object}"
                    OUTPUT_VARIABLE sections RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "${RAP_READELF} -SW ${object} failed")
    endif()
    # A relocation section's header reads ".rela<section>  RELA ...".
    string(REGEX MATCHALL " \\.rela?\\.[^ \n]+ +RELA? " relocated
           "${sections}")
    set(arguments "")
    foreach(section IN LISTS relocated)
      string(REGEX REPLACE "^ \\.rela?(\\.[^ ]+) .*$" "\\1" section "${section}")
      if(NOT section MATCHES "^\\.debug")
        list(APPEND arguments -j "${section}")
      endif()
    endforeach()
    set(relocations_${id} "")
    if(arguments)
      execute_process(COMMAND "${RAP_OBJDUMP}" -r ${arguments} "${object}"
                      OUTPUT_VARIABLE relocations_${id} RESULT_VARIABLE status)
      if(NOT status EQUAL 0)
        message(FATAL_ERROR "${RAP_OBJDUMP} -r ${object} failed")
      endif()
    endif()
  endif()
  set(live FALSE)
  foreach(symbol IN LISTS members_${group})
    string(FIND "${relocations_${id}}" " ${symbol}" at)
    if(NOT at EQUAL -1)
      set(live TRUE)
    endif()
  endforeach()
  if(NOT live)
    list(APPEND orphans "${qualified_${group}}")
  endif()
endforeach()

set(problems "")
if(DEFINED RAP_ALLOWLIST)
  file(STRINGS "${RAP_ALLOWLIST}" entries REGEX "^[^#]")
  foreach(entry IN LISTS entries)
    if(NOT entry MATCHES "^([^ ]+) -- ([^ ].*)$")
      list(APPEND problems "allowlist entry without a reason: ${entry}")
      continue()
    endif()
    set(allowed "${CMAKE_MATCH_1}")
    if(allowed IN_LIST orphans)
      list(REMOVE_ITEM orphans "${allowed}")
    else()
      list(APPEND problems
           "allowlist entry names no test-only function: ${allowed}")
    endif()
  endforeach()
endif()
if(orphans)
  list(REMOVE_DUPLICATES orphans)
  list(SORT orphans)
  foreach(orphan IN LISTS orphans)
    list(APPEND problems "reached only by tests: ${orphan}")
  endforeach()
endif()
if(problems)
  list(JOIN problems "\n  " listed)
  message(FATAL_ERROR "src_orphan_symbols:\n  ${listed}")
endif()
message(STATUS "src_orphan_symbols: all ${scanned_count} public functions "
               "are reached or allowlisted")
