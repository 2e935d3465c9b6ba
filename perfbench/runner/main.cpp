// Benchmark runner: runs one workload against the library's public API and
// prints one JSON line with every metric it measured, the correctness gates
// and the host fingerprint.  run.py builds this binary and turns the line
// into the benchmark result.
//
//   perfbench_runner --workload=<knn_fullspice|profile_selfjoin|serve_mixed>
//                    --seed=N --seconds=S --trace=0|1 [--tiny=0|1]
//                    [--trace-out=PATH]

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "spice/batch_state.hpp"

namespace {

void print_number(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

template <typename Map, typename Fn>
void print_object(const char* key, const Map& m, Fn&& value) {
  std::printf("\"%s\": {", key);
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": ", first ? "" : ", ", k.c_str());
    value(v);
    first = false;
  }
  std::printf("}");
}

void emit(const pb::Args& args, const pb::Report& rep) {
  namespace spice = mda::spice::batch;
  const char* kernel = spice::use_avx512() ? "avx512"
                       : spice::use_avx2() ? "avx2"
                                           : "scalar";
#if defined(MDA_OBS_DISABLED)
  const bool obs_on = false;
#else
  const bool obs_on = mda::obs::enabled();
#endif
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, ",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::printf("\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              rep.correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  std::printf(
      "\"fingerprint\": {\"nproc\": %u, \"avx2\": %s, \"avx512\": %s, "
      "\"soa_kernel\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"obs_enabled\": %s}, ",
      std::thread::hardware_concurrency(),
      spice::avx2_available() ? "true" : "false",
      spice::avx512_available() ? "true" : "false", kernel, PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, obs_on ? "true" : "false");
  print_object("gates", rep.gates,
               [](bool ok) { std::printf(ok ? "true" : "false"); });
  std::printf(", ");
  print_object("info", rep.info, print_number);
  std::printf(", ");
  print_object("samples", rep.samples, [](const std::vector<double>& v) {
    std::printf("[");
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) std::printf(", ");
      print_number(v[i]);
    }
    std::printf("]");
  });
  std::printf(", ");
  print_object("metrics", rep.metrics, print_number);
  std::printf("}\n");
}

bool parse(int argc, char** argv, pb::Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const std::size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", a.c_str());
      return false;
    }
    const std::string key = a.substr(2, eq - 2);
    const std::string val = a.substr(eq + 1);
    try {
      if (key == "workload") {
        args.workload = val;
      } else if (key == "seed") {
        args.seed = std::stoull(val);
      } else if (key == "seconds") {
        args.seconds = std::stod(val);
      } else if (key == "trace") {
        args.trace = val == "1";
      } else if (key == "tiny") {
        args.tiny = val == "1";
      } else if (key == "trace-out") {
        args.trace_out = val;
      } else {
        std::fprintf(stderr, "perfbench: unknown argument '%s'\n", a.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "perfbench: bad value in '%s'\n", a.c_str());
      return false;
    }
  }
  return !args.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  if (!parse(argc, argv, args)) return 64;
  pb::Tracer tracer(args.trace);
  pb::Report rep;
  int rc = 0;
  try {
    if (args.workload == "knn_fullspice") {
      rc = pb::run_knn(args, tracer, rep);
    } else if (args.workload == "profile_selfjoin") {
      rc = pb::run_profile(args, tracer, rep);
    } else if (args.workload == "serve_mixed") {
      rc = pb::run_serve(args, tracer, rep);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 64;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (rc != 0) return rc;
  rep.metrics["setup_s"] = pb::median(rep.samples["setup_s"]);
  rep.metrics["peak_rss_mb"] = pb::peak_rss_mb();
  if (args.trace && !args.trace_out.empty() && !tracer.write(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
    return 1;
  }
  emit(args, rep);
  return 0;
}
