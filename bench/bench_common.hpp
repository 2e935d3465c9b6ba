#pragma once
// Shared helpers for the reproduction benches: dataset preparation matching
// Sec. 4.1 (UCR Beef / Symbols / OSULeaf — or surrogates — z-normalised and
// resampled to lengths 10..40) and same-class / different-class pair
// selection ("we randomly choose a pair of data from the same class and a
// pair from different classes in one dataset").

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "data/normalize.hpp"
#include "data/synthetic.hpp"
#include "data/ucr_loader.hpp"
#include "util/rng.hpp"

namespace mda::bench {

inline const std::vector<std::string>& dataset_names() {
  static const std::vector<std::string> names = {"Beef", "Symbols", "OSULeaf"};
  return names;
}

/// Load (or synthesise) one evaluation dataset at the given length.
inline data::Dataset load_dataset(const std::string& name, std::size_t length,
                                  std::uint64_t seed = 7) {
  // UCR files are looked for under $MDA_UCR_DIR or ./data/ucr.
  const char* dir = std::getenv("MDA_UCR_DIR");
  data::Dataset raw =
      data::load_ucr_or_surrogate(dir ? dir : "data/ucr", name, seed);
  return data::prepare(raw, length);
}

struct Pair {
  data::Series p;
  data::Series q;
  bool same_class = false;
};

/// Draw `count` same-class and `count` different-class pairs.
inline std::vector<Pair> draw_pairs(const data::Dataset& ds, std::size_t count,
                                    util::Rng& rng) {
  std::vector<Pair> pairs;
  const auto labels = ds.labels();
  for (std::size_t k = 0; k < count; ++k) {
    // Same class.
    for (int attempt = 0; attempt < 100; ++attempt) {
      const int label = labels[rng.index(labels.size())];
      const auto idx = ds.indices_of(label);
      if (idx.size() < 2) continue;
      const std::size_t a = idx[rng.index(idx.size())];
      std::size_t b = a;
      while (b == a) b = idx[rng.index(idx.size())];
      pairs.push_back({ds.items[a].values, ds.items[b].values, true});
      break;
    }
    // Different class.
    for (int attempt = 0; attempt < 100; ++attempt) {
      const std::size_t a = rng.index(ds.size());
      const std::size_t b = rng.index(ds.size());
      if (ds.items[a].label == ds.items[b].label) continue;
      pairs.push_back({ds.items[a].values, ds.items[b].values, false});
      break;
    }
  }
  return pairs;
}

/// Simple --flag=value parser for bench binaries.
inline double flag_value(int argc, char** argv, const std::string& name,
                         double fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::stod(arg.substr(prefix.size()));
    }
  }
  return fallback;
}

inline bool flag_present(int argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// Minimal streaming JSON emitter shared by the bench --json modes
/// (bench_stream, bench_serve): handles the comma/indent bookkeeping so each
/// bench only names keys and values.  Containers opened with one_line=true
/// render their members on a single line ("a": 1, "b": 2) — the compact
/// per-entry objects in the committed BENCH_*.json baselines.  Numbers use
/// the stream's default formatting, matching the hand-rolled emitters this
/// class replaces.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter& begin_object(const std::string& key = "", bool one_line = false) {
    open('{', key, one_line);
    return *this;
  }
  JsonWriter& begin_array(const std::string& key = "", bool one_line = false) {
    open('[', key, one_line);
    return *this;
  }
  JsonWriter& end() {
    const Scope s = stack_.back();
    stack_.pop_back();
    if (s.count > 0 && !s.one_line) {
      out_ << "\n" << std::string(2 * stack_.size(), ' ');
    }
    out_ << (s.open == '{' ? '}' : ']');
    if (stack_.empty()) out_ << "\n";
    return *this;
  }

  JsonWriter& field(const std::string& key, bool v) {
    pre(key);
    out_ << (v ? "true" : "false");
    return *this;
  }
  JsonWriter& field(const std::string& key, const char* v) {
    pre(key);
    quote(v);
    return *this;
  }
  JsonWriter& field(const std::string& key, const std::string& v) {
    pre(key);
    quote(v);
    return *this;
  }
  template <typename T>
  JsonWriter& field(const std::string& key, T v) {
    pre(key);
    out_ << v;
    return *this;
  }
  /// Field whose value is already serialized JSON (host_fingerprint_json()).
  JsonWriter& raw(const std::string& key, const std::string& json) {
    pre(key);
    out_ << json;
    return *this;
  }
  /// Bare value inside an array (arrays have no keys).
  template <typename T>
  JsonWriter& value(T v) {
    return field(std::string(), v);
  }

 private:
  struct Scope {
    char open;
    bool one_line;
    std::size_t count;
  };

  void open(char c, const std::string& key, bool one_line) {
    // A container nested inside a one_line container stays on that line.
    const bool inherited = !stack_.empty() && stack_.back().one_line;
    pre(key);
    out_ << c;
    stack_.push_back({c, one_line || inherited, 0});
  }
  void pre(const std::string& key) {
    if (!stack_.empty()) {
      Scope& s = stack_.back();
      if (s.count++ > 0) out_ << (s.one_line ? ", " : ",");
      if (!s.one_line) out_ << "\n" << std::string(2 * stack_.size(), ' ');
    }
    if (!key.empty()) {
      quote(key);
      out_ << ": ";
    }
  }
  void quote(const std::string& s) {
    out_ << '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ << "\\\""; break;
        case '\\': out_ << "\\\\"; break;
        case '\n': out_ << "\\n"; break;
        case '\t': out_ << "\\t"; break;
        default: out_ << c;
      }
    }
    out_ << '"';
  }

  std::ostream& out_;
  std::vector<Scope> stack_;
};

}  // namespace mda::bench
