#include "obs/snapshot.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/table.hpp"

namespace mda::obs {
namespace {

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

/// Shortest double representation that survives a round-trip.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------- parser --
// Minimal recursive-descent JSON reader covering exactly what to_json()
// emits (objects, arrays, strings without escapes beyond \" and \\, and
// numbers).  Any structural surprise flags failure.

struct Parser {
  const std::string& s;
  std::size_t pos = 0;
  bool ok = true;

  void skip_ws() {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) {
      ++pos;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    ok = false;
    return false;
  }
  bool peek(char c) {
    skip_ws();
    return pos < s.size() && s[pos] == c;
  }
  std::string parse_string() {
    if (!consume('"')) return {};
    std::string out;
    while (pos < s.size() && s[pos] != '"') {
      if (s[pos] == '\\' && pos + 1 < s.size()) ++pos;
      out.push_back(s[pos++]);
    }
    if (pos >= s.size()) {
      ok = false;
      return {};
    }
    ++pos;  // closing quote
    return out;
  }
  double parse_number() {
    skip_ws();
    const std::size_t start = pos;
    while (pos < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[pos])) ||
            s[pos] == '-' || s[pos] == '+' || s[pos] == '.' ||
            s[pos] == 'e' || s[pos] == 'E' || s[pos] == 'i' ||
            s[pos] == 'n' || s[pos] == 'f')) {
      ++pos;
    }
    if (pos == start) {
      ok = false;
      return 0.0;
    }
    try {
      return std::stod(s.substr(start, pos - start));
    } catch (...) {
      ok = false;
      return 0.0;
    }
  }

  /// Skip any value of the grammar to_json() emits (used for top-level
  /// sections that from_json does not reconstruct).
  void skip_value() {
    skip_ws();
    if (pos >= s.size()) {
      ok = false;
      return;
    }
    if (s[pos] == '"') {
      (void)parse_string();
    } else if (s[pos] == '{') {
      consume('{');
      while (ok && !peek('}')) {
        (void)parse_string();
        consume(':');
        skip_value();
        if (peek(',')) consume(',');
      }
      consume('}');
    } else if (s[pos] == '[') {
      consume('[');
      while (ok && !peek(']')) {
        skip_value();
        if (peek(',')) consume(',');
      }
      consume(']');
    } else {
      (void)parse_number();
    }
  }
};

std::optional<MetricKind> kind_from_name(const std::string& name) {
  if (name == "counter") return MetricKind::Counter;
  if (name == "gauge") return MetricKind::Gauge;
  if (name == "histogram") return MetricKind::Histogram;
  return std::nullopt;
}

bool parse_metric(Parser& p, MetricValue& mv) {
  if (!p.consume('{')) return false;
  bool first = true;
  std::string kind_str;
  while (!p.peek('}')) {
    if (!first && !p.consume(',')) return false;
    first = false;
    const std::string key = p.parse_string();
    if (!p.consume(':')) return false;
    if (key == "name") {
      mv.name = p.parse_string();
    } else if (key == "kind") {
      kind_str = p.parse_string();
    } else if (key == "count") {
      mv.count = static_cast<std::uint64_t>(p.parse_number());
    } else if (key == "sum") {
      mv.sum = p.parse_number();
    } else if (key == "min") {
      mv.min = p.parse_number();
    } else if (key == "max") {
      mv.max = p.parse_number();
    } else if (key == "value") {
      mv.value = p.parse_number();
    } else if (key == "buckets") {
      if (!p.consume('[')) return false;
      mv.buckets.assign(static_cast<std::size_t>(kHistBuckets), 0);
      while (!p.peek(']')) {
        if (!p.consume('[')) return false;
        const int exp = static_cast<int>(p.parse_number());
        if (!p.consume(',')) return false;
        const auto n = static_cast<std::uint64_t>(p.parse_number());
        if (!p.consume(']')) return false;
        const int b = exp - kHistMinExp;
        if (b < 0 || b >= kHistBuckets) return false;
        mv.buckets[static_cast<std::size_t>(b)] = n;
        if (p.peek(',')) p.consume(',');
      }
      p.consume(']');
    } else {
      return false;  // unknown key: not ours
    }
    if (!p.ok) return false;
  }
  p.consume('}');
  const auto kind = kind_from_name(kind_str);
  if (!kind) return false;
  mv.kind = *kind;
  if (mv.kind == MetricKind::Histogram && mv.buckets.empty()) {
    mv.buckets.assign(static_cast<std::size_t>(kHistBuckets), 0);
  }
  return p.ok;
}

}  // namespace

MetricsSnapshot MetricsSnapshot::capture() { return MetricsSnapshot{collect()}; }

const MetricValue* MetricsSnapshot::find(const std::string& name) const {
  for (const MetricValue& mv : metrics) {
    if (mv.name == name) return &mv;
  }
  return nullptr;
}

std::vector<const MetricValue*> MetricsSnapshot::with_prefix(
    const std::string& prefix) const {
  std::vector<const MetricValue*> out;
  for (const MetricValue& mv : metrics) {
    if (mv.name.rfind(prefix, 0) == 0) out.push_back(&mv);
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\n  \"metrics\": [";
  bool first = true;
  for (const MetricValue& mv : metrics) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << mv.name
       << "\", \"kind\": \"" << kind_name(mv.kind) << "\"";
    switch (mv.kind) {
      case MetricKind::Counter:
        os << ", \"count\": " << mv.count;
        break;
      case MetricKind::Gauge:
        os << ", \"value\": " << fmt_double(mv.value);
        break;
      case MetricKind::Histogram: {
        os << ", \"count\": " << mv.count << ", \"sum\": "
           << fmt_double(mv.sum) << ", \"min\": " << fmt_double(mv.min)
           << ", \"max\": " << fmt_double(mv.max) << ", \"buckets\": [";
        bool bfirst = true;
        for (std::size_t b = 0; b < mv.buckets.size(); ++b) {
          if (mv.buckets[b] == 0) continue;
          os << (bfirst ? "" : ", ") << "["
             << (static_cast<int>(b) + kHistMinExp) << ", " << mv.buckets[b]
             << "]";
          bfirst = false;
        }
        os << "]";
        break;
      }
    }
    os << "}";
    first = false;
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string MetricsSnapshot::to_table() const {
  util::Table table({"metric", "kind", "count", "mean", "min", "max",
                     "total/value"});
  for (const MetricValue& mv : metrics) {
    switch (mv.kind) {
      case MetricKind::Counter:
        table.add_row({mv.name, "counter", std::to_string(mv.count), "", "",
                       "", std::to_string(mv.count)});
        break;
      case MetricKind::Gauge:
        table.add_row(
            {mv.name, "gauge", "", "", "", "", util::Table::sci(mv.value, 3)});
        break;
      case MetricKind::Histogram:
        table.add_row({mv.name, "histogram", std::to_string(mv.count),
                       util::Table::sci(mv.mean(), 3),
                       util::Table::sci(mv.min, 3),
                       util::Table::sci(mv.max, 3),
                       util::Table::sci(mv.sum, 3)});
        break;
    }
  }
  return table.str();
}

std::optional<MetricsSnapshot> MetricsSnapshot::from_json(
    const std::string& json) {
  Parser p{json};
  MetricsSnapshot snap;
  if (!p.consume('{')) return std::nullopt;
  if (p.parse_string() != "metrics" || !p.ok) return std::nullopt;
  if (!p.consume(':') || !p.consume('[')) return std::nullopt;
  while (!p.peek(']')) {
    MetricValue mv;
    if (!parse_metric(p, mv)) return std::nullopt;
    snap.metrics.push_back(std::move(mv));
    if (p.peek(',')) p.consume(',');
  }
  if (!p.consume(']')) return std::nullopt;
  // Tolerate top-level sections after "metrics": to_json() writes none, but
  // a reader should skip what it does not reconstruct.
  while (p.peek(',')) {
    p.consume(',');
    (void)p.parse_string();
    if (!p.consume(':')) return std::nullopt;
    p.skip_value();
    if (!p.ok) return std::nullopt;
  }
  if (!p.consume('}')) return std::nullopt;
  return snap;
}

}  // namespace mda::obs
