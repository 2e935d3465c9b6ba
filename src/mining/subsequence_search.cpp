#include "mining/subsequence_search.hpp"

#include <limits>
#include <stdexcept>
#include <vector>

#include "core/batch_engine.hpp"
#include "data/normalize.hpp"
#include "distance/dtw.hpp"
#include "distance/lower_bounds.hpp"
#include "mining/matrix_profile.hpp"
#include "obs/metrics.hpp"

namespace mda::mining {

SearchResult dtw_subsequence_search(std::span<const double> haystack,
                                    std::span<const double> needle,
                                    SearchConfig cfg) {
  const std::size_t m = needle.size();
  if (m == 0) {
    throw std::invalid_argument("search: needle must be non-empty");
  }
  if (haystack.size() < m) {
    throw std::invalid_argument("search: needle longer than haystack");
  }
  const data::Series query =
      cfg.znormalize ? data::znormalize(needle)
                     : data::Series(needle.begin(), needle.end());
  const int band = cfg.band >= 0 ? cfg.band
                                 : static_cast<int>(m);  // unconstrained
  const dist::Envelope env = dist::make_envelope(query, band);

  dist::DistanceParams params;
  params.band = cfg.band;
  if (cfg.lb_margin < 1.0) {
    throw std::invalid_argument("search: lb_margin must be >= 1");
  }

  SearchResult result;
  result.windows = haystack.size() - m + 1;

  // Stripe s scans positions s, s + kStripes, ... in ascending order
  // against its own live best, so a window is pruned only by an earlier
  // window of its stripe, and `>=` pruning never drops a lexicographically
  // better (distance, position).  The stripes run through cfg.engine
  // (inline without one) and merge by (distance, lowest position), so the
  // result and the statistics are the same at any thread count.
  std::vector<SearchResult> stripes(kStripes);
  core::run_indexed(cfg.engine, kStripes, [&](std::size_t s) {
    SearchResult st;  // on this task's stack: no cache line shared
    st.distance = std::numeric_limits<double>::infinity();
    for (std::size_t pos = s; pos < result.windows; pos += kStripes) {
      const std::span<const double> raw = haystack.subspan(pos, m);
      const data::Series window =
          cfg.znormalize ? data::znormalize(raw)
                         : data::Series(raw.begin(), raw.end());
      if (cfg.use_lower_bounds) {
        if (dist::lb_kim(window, query) >= st.distance * cfg.lb_margin) {
          ++st.pruned_lb_kim;
          continue;
        }
        if (dist::lb_keogh(window, env) >= st.distance * cfg.lb_margin) {
          ++st.pruned_lb_keogh;
          continue;
        }
      }
      const double d = cfg.dtw_override ? cfg.dtw_override(window, query)
                                        : dist::dtw(window, query, params);
      ++st.full_dtw_evals;
      if (d < st.distance) {
        st.distance = d;
        st.position = pos;
      }
    }
    stripes[s] = st;
  });
  // A stripe that never improved keeps +inf and cannot win the merge, so
  // with no finite distance anywhere the result stays at position 0.
  result.distance = std::numeric_limits<double>::infinity();
  for (const SearchResult& st : stripes) {
    if (st.distance < result.distance ||
        (st.distance == result.distance && st.position < result.position)) {
      result.distance = st.distance;
      result.position = st.position;
    }
    result.pruned_lb_kim += st.pruned_lb_kim;
    result.pruned_lb_keogh += st.pruned_lb_keogh;
    result.full_dtw_evals += st.full_dtw_evals;
  }

  // Prune-rate accounting (DESIGN.md §8): the lower-bound cascade is the
  // whole point of the digital front end, so its hit rates are first-class.
  static const obs::Counter windows("mda.mining.windows");
  static const obs::Counter kim_pruned("mda.mining.lb_kim_pruned");
  static const obs::Counter keogh_pruned("mda.mining.lb_keogh_pruned");
  static const obs::Counter dtw_evals("mda.mining.dtw_evals");
  windows.add(static_cast<std::uint64_t>(result.windows));
  kim_pruned.add(static_cast<std::uint64_t>(result.pruned_lb_kim));
  keogh_pruned.add(static_cast<std::uint64_t>(result.pruned_lb_keogh));
  dtw_evals.add(static_cast<std::uint64_t>(result.full_dtw_evals));
  return result;
}

}  // namespace mda::mining
