# Build-time lint for observability metric names (run as a -P script from
# the check_metrics_names target; see DESIGN.md §8).
#
# Every literal name handed to obs::Counter / obs::Gauge / obs::Histogram in
# src/, tools/ and bench/ must follow the documented scheme
#
#     mda.<subsystem>.<name>
#
# with <subsystem> one of the known layers and <name> lower_snake_case.
# Timer histograms must carry a unit suffix (_s).  Violations fail the
# build, so a typo'd metric name never ships silently.
#
# Usage: cmake -DMDA_SOURCE_DIR=<repo root> -P check_metrics_names.cmake

if(NOT DEFINED MDA_SOURCE_DIR)
  message(FATAL_ERROR "check_metrics_names: pass -DMDA_SOURCE_DIR=<repo root>")
endif()

# <name> may carry one optional sub-namespace segment (health / scrub /
# profile groups: mda.serve.health.unhealthy, mda.fault.scrub.runs, ...).
set(_subsystems "spice|backend|accel|batch|mining|obs|fault|cache|serve")
set(_name_re "mda\\.(${_subsystems})\\.[a-z][a-z0-9_]*(\\.[a-z][a-z0-9_]*)?")

file(GLOB_RECURSE _sources
     "${MDA_SOURCE_DIR}/src/*.cpp" "${MDA_SOURCE_DIR}/src/*.hpp"
     "${MDA_SOURCE_DIR}/tools/*.cpp" "${MDA_SOURCE_DIR}/bench/*.cpp"
     "${MDA_SOURCE_DIR}/examples/*.cpp")

set(_bad "")
set(_count 0)
set(_seen "")
foreach(_file IN LISTS _sources)
  file(READ "${_file}" _text)
  # Registration sites: named handles (obs::Counter c("...")) and direct
  # temporaries (obs::Counter("...")) — possibly brace-initialised.
  string(REGEX MATCHALL
         "obs::(Counter|Gauge|Histogram)([ \t]+[A-Za-z_][A-Za-z0-9_]*)?[ \t]*[({][ \t\r\n]*\"[^\"]*\""
         _uses "${_text}")
  foreach(_use IN LISTS _uses)
    string(REGEX MATCH "\"([^\"]*)\"" _ignored "${_use}")
    set(_metric "${CMAKE_MATCH_1}")
    math(EXPR _count "${_count} + 1")
    list(APPEND _seen "${_metric}")
    if(NOT _metric MATCHES "^${_name_re}$")
      file(RELATIVE_PATH _rel "${MDA_SOURCE_DIR}" "${_file}")
      list(APPEND _bad "  ${_rel}: '${_metric}'")
    endif()
  endforeach()
endforeach()

if(_bad)
  list(JOIN _bad "\n" _bad_lines)
  message(FATAL_ERROR "metric names violating mda.<subsystem>.<name> "
          "(subsystem in ${_subsystems}):\n${_bad_lines}")
endif()

# Contract metrics: names other tooling depends on (bench_solver --json, the
# fault watchdog, DESIGN.md §10 dashboards).  Renaming one of these must be a
# deliberate, reviewed change — so the build fails if a registration site for
# any of them disappears.
set(_required
    "mda.spice.sparse_lu_factors"
    "mda.spice.sparse_lu_refactors"
    "mda.spice.refactor_fallbacks"
    "mda.spice.mna_pattern_builds"
    "mda.spice.sparse_lu_solves"
    "mda.spice.singular_systems"
    "mda.spice.newton_iterations"
    "mda.spice.newton_solves"
    "mda.spice.transient_projections"
    "mda.spice.transient_projections_rejected"
    "mda.cache.hits"
    "mda.cache.misses"
    "mda.cache.evictions"
    "mda.cache.bytes"
    "mda.cache.entries"
    "mda.serve.requests"
    "mda.serve.responses"
    "mda.serve.request_latency_s"
    "mda.serve.collapsed_requests"
    "mda.serve.solves"
    "mda.serve.health.unhealthy"
    "mda.serve.health.failovers"
    "mda.fault.scrub.runs"
    "mda.fault.scrub.duration_s"
    "mda.mining.profile.pairs"
    "mda.mining.profile.pruned_lb_kim"
    "mda.mining.profile.pruned_lb_keogh"
    "mda.mining.profile.abandoned"
    "mda.mining.profile.evaluated"
    "mda.mining.profile.runs"
    "mda.mining.profile.appends")
set(_missing "")
foreach(_name IN LISTS _required)
  list(FIND _seen "${_name}" _found)
  if(_found EQUAL -1)
    list(APPEND _missing "  ${_name}")
  endif()
endforeach()
if(_missing)
  list(JOIN _missing "\n" _missing_lines)
  message(FATAL_ERROR "contract metric names no longer registered anywhere "
          "(update DESIGN.md + this list if the rename is intended):\n"
          "${_missing_lines}")
endif()
message(STATUS "check_metrics_names: ${_count} registration sites OK")
