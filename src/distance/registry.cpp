#include "distance/registry.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "distance/dtw.hpp"
#include "distance/edit.hpp"
#include "distance/hamming.hpp"
#include "distance/hausdorff.hpp"
#include "distance/lcs.hpp"
#include "distance/manhattan.hpp"

namespace mda::dist {

std::string kind_name(DistanceKind kind) {
  switch (kind) {
    case DistanceKind::Dtw: return "DTW";
    case DistanceKind::Lcs: return "LCS";
    case DistanceKind::Edit: return "EdD";
    case DistanceKind::Hausdorff: return "HauD";
    case DistanceKind::Hamming: return "HamD";
    case DistanceKind::Manhattan: return "MD";
  }
  return "?";
}

DistanceKind kind_from_name(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "dtw") return DistanceKind::Dtw;
  if (lower == "lcs") return DistanceKind::Lcs;
  if (lower == "edd" || lower == "edit") return DistanceKind::Edit;
  if (lower == "haud" || lower == "hausdorff") return DistanceKind::Hausdorff;
  if (lower == "hamd" || lower == "hamming") return DistanceKind::Hamming;
  if (lower == "md" || lower == "manhattan") return DistanceKind::Manhattan;
  throw std::invalid_argument("unknown distance kind: " + name);
}

bool is_similarity(DistanceKind kind) { return kind == DistanceKind::Lcs; }

bool is_matrix_structure(DistanceKind kind) {
  switch (kind) {
    case DistanceKind::Dtw:
    case DistanceKind::Lcs:
    case DistanceKind::Edit:
    case DistanceKind::Hausdorff:
      return true;
    case DistanceKind::Hamming:
    case DistanceKind::Manhattan:
      return false;
  }
  return false;
}

bool requires_equal_length(DistanceKind kind) {
  return !is_matrix_structure(kind);
}

int complexity_order(DistanceKind kind) {
  return is_matrix_structure(kind) ? 2 : 1;
}

double compute(DistanceKind kind, std::span<const double> p,
               std::span<const double> q, const DistanceParams& params) {
  return compute(kind, p, q, params, params.abandon_above);
}

double compute(DistanceKind kind, std::span<const double> p,
               std::span<const double> q, const DistanceParams& params,
               double abandon_above) {
  switch (kind) {
    case DistanceKind::Dtw: return dtw(p, q, params, abandon_above);
    case DistanceKind::Lcs: return lcs(p, q, params);
    case DistanceKind::Edit:
      return edit_distance(p, q, params, abandon_above);
    case DistanceKind::Hausdorff:
      return hausdorff_directed(p, q, params, abandon_above);
    case DistanceKind::Hamming: return hamming(p, q, params, abandon_above);
    case DistanceKind::Manhattan:
      return manhattan(p, q, params, abandon_above);
  }
  throw std::logic_error("unreachable");
}

}  // namespace mda::dist
