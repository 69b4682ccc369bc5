# The I/O-free boundary: the per-object receive path (ObjectReplica) and
# the store's propagation graph (Topology) depend on nothing under
# core/comm, sim/, metrics/ or obs/, so tests and checkers can drive them
# with no Testbed or Simulator. This script runs the compiler's
# dependency scan (-MM) over their sources and fails on any header there.
#
#   cmake -DCXX=<c++ compiler> -DSRC=<repo>/src [-DCHECKED=ON] \
#         -P tests/io_free_boundary.cmake
set(sources
    globe/replication/object_replica.cpp
    globe/replication/topology.cpp)
set(forbidden globe/core/comm globe/sim/ globe/metrics/ globe/obs/)
set(defines "")
if(CHECKED)
  set(defines -DGLOBE_CHECKED=1)
endif()

set(violations "")
foreach(source IN LISTS sources)
  execute_process(
    COMMAND ${CXX} -std=c++20 ${defines} -MM -I ${SRC} ${SRC}/${source}
    OUTPUT_VARIABLE scan
    ERROR_VARIABLE scan_error
    RESULT_VARIABLE scan_result)
  if(NOT scan_result EQUAL 0)
    message(FATAL_ERROR "dependency scan of ${source} failed:\n${scan_error}")
  endif()
  # The scan is one make rule: "target: dep dep \<newline> dep ...".
  string(REGEX REPLACE "[ \t\r\n\\\\]+" ";" deps "${scan}")
  set(count 0)
  foreach(dep IN LISTS deps)
    if(NOT dep MATCHES "^.*\\.(hpp|cpp)$")
      continue()
    endif()
    math(EXPR count "${count} + 1")
    foreach(banned IN LISTS forbidden)
      string(FIND "${dep}" "${banned}" at)
      if(NOT at EQUAL -1)
        string(APPEND violations "\n  ${source} depends on ${dep}")
      endif()
    endforeach()
  endforeach()
  message(STATUS "${source}: ${count} files scanned")
endforeach()

if(violations)
  message(FATAL_ERROR "I/O-free sources reach I/O headers:${violations}")
endif()
