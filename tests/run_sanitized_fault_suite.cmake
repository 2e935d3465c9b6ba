# Configure, build and run the fault suite under ASan+UBSan (the tier-1
# `fault_suite_asan_ubsan` ctest job; see tests/CMakeLists.txt).  A nested
# build tree is used because MDA_SANITIZE instruments the whole build at
# configure time — the outer (uninstrumented) tree cannot host sanitized
# objects.
#
# Usage: cmake -DMDA_SOURCE_DIR=<repo root> -DMDA_SAN_BINARY_DIR=<build dir>
#              [-DMDA_SANITIZERS=<list>] [-DMDA_GTEST_FILTER=<filter>]
#              -P run_sanitized_fault_suite.cmake
#
# MDA_SANITIZERS is the MDA_SANITIZE value of the nested build (default
# address,undefined; `thread` for the TSan job).  Each sanitizer set needs
# its own MDA_SAN_BINARY_DIR.  MDA_GTEST_FILTER overrides the default
# fault-suite filter; the other sanitized jobs point it at their own suites
# while sharing a nested build (jobs that pass the same MDA_SAN_BINARY_DIR
# find the second configure+build an incremental no-op).

if(NOT DEFINED MDA_SOURCE_DIR OR NOT DEFINED MDA_SAN_BINARY_DIR)
  message(FATAL_ERROR "run_sanitized_fault_suite: pass -DMDA_SOURCE_DIR and "
                      "-DMDA_SAN_BINARY_DIR")
endif()

if(NOT DEFINED MDA_SANITIZERS)
  set(MDA_SANITIZERS "address,undefined")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${MDA_SOURCE_DIR} -B ${MDA_SAN_BINARY_DIR}
          -DMDA_SANITIZE=${MDA_SANITIZERS}
  RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "sanitized configure failed (${_rc})")
endif()

include(ProcessorCount)
ProcessorCount(_nproc)
if(_nproc EQUAL 0)
  set(_nproc 4)
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${MDA_SAN_BINARY_DIR} --target mda_tests
          --parallel ${_nproc}
  RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "sanitized build failed (${_rc})")
endif()

# Default filter: the fault suite proper plus the stuck-at tuning tests, the
# batch-engine isolation/retry tests it hardens, and the FullSpice settle
# tests (the transient's tail projection swaps solution vectors and commits
# device state off the stepping path).  halt_on_error promotes
# UBSan and TSan reports to failures; leak checking is disabled (one-time
# registries are reachable by design, and some CI kernels lack ptrace for
# the leak checker).
if(NOT DEFINED MDA_GTEST_FILTER)
  set(MDA_GTEST_FILTER "Fault*:Tuning.Stuck*:Tuning.ArrayWithStuck*:BatchEngine.TryCompute*:BatchEngine.FailOpen*:BatchEngine.RetryBudget*:BatchEngine.FailedQueries*:FullSpiceSettle*")
endif()
set(ENV{ASAN_OPTIONS} "detect_leaks=0")
set(ENV{UBSAN_OPTIONS} "halt_on_error=1:print_stacktrace=1")
set(ENV{TSAN_OPTIONS} "halt_on_error=1:second_deadlock_stack=1")
execute_process(
  COMMAND ${MDA_SAN_BINARY_DIR}/tests/mda_tests
          --gtest_filter=${MDA_GTEST_FILTER}
  RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "sanitized suite failed (${_rc}): ${MDA_GTEST_FILTER}")
endif()
