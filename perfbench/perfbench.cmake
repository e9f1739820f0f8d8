# Build file of the benchmark runner. run.py hands it to the repository's
# own configure step as CMAKE_PROJECT_INCLUDE: it is read right after the
# top-level project() call and defers the target definition to the end of
# the top-level CMakeLists.txt, so the runner links the libraries exactly as
# the repository builds them (same build type, flags and options).
if(NOT CMAKE_CURRENT_SOURCE_DIR STREQUAL CMAKE_SOURCE_DIR
   OR DEFINED PERFBENCH_DIR)
  return()
endif()
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_target)
  string(TOUPPER "${CMAKE_BUILD_TYPE}" config)
  add_executable(solsched_perfbench
    ${PERFBENCH_DIR}/main.cpp
    ${PERFBENCH_DIR}/harness.cpp
    ${PERFBENCH_DIR}/layers.cpp
    ${PERFBENCH_DIR}/pipeline_wam.cpp
    ${PERFBENCH_DIR}/campaign_zoo.cpp
    ${PERFBENCH_DIR}/serve_layers.cpp)
  target_link_libraries(solsched_perfbench PRIVATE
    solsched_serve solsched_campaign solsched_core solsched_analysis)
  target_compile_definitions(solsched_perfbench PRIVATE
    PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    PERFBENCH_CXX_FLAGS="${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${config}}")
endfunction()
cmake_language(DEFER CALL perfbench_add_target)
