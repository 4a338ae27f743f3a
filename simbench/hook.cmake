# Injected into the repository's own top-level configure with
#   cmake -S <repo> -B <dir> -DCMAKE_PROJECT_INCLUDE=<this file>
# It runs right after the top-level project() call, before any library
# target exists, so it defers adding the benchmark target to the end of the
# top-level directory. The benchmark then compiles with the repository's
# default build type and flags and links the repository's own libraries —
# no source of src/ is compiled twice and no tracked file is edited.
include_guard(GLOBAL)
# Deferred-call arguments are expanded when the call runs, so the path is
# kept in a variable of the top-level directory.
set(SIMBENCH_TARGETS_FILE "${CMAKE_CURRENT_LIST_DIR}/targets.cmake")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
               CALL include "${SIMBENCH_TARGETS_FILE}")
