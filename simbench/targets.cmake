# The benchmark binary, built against the repository's library targets.
# Included (deferred) by hook.cmake at the end of the top-level directory,
# where every scale_* target is already defined.
set(_simbench_dir "${CMAKE_CURRENT_LIST_DIR}")
add_executable(simbench
  "${_simbench_dir}/simbench.cpp"
  "${_simbench_dir}/worlds.cpp"
  "${_simbench_dir}/replay.cpp")
target_link_libraries(simbench PRIVATE
  scale_testbed scale_core scale_mme scale_epc scale_workload scale_proto
  scale_sim scale_hash scale_obs scale_common scale_warnings)

# What the binary was built with, printed beside every result.
string(TOUPPER "${CMAKE_BUILD_TYPE}" _simbench_cfg)
target_compile_definitions(simbench PRIVATE
  SIMBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}"
  SIMBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
  SIMBENCH_FLAGS="${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${_simbench_cfg}} -std=c++${CMAKE_CXX_STANDARD}")
