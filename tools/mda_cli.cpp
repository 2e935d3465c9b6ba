// mda — command-line driver for the memristor distance accelerator.
//
//   mda compute --kind=dtw [--backend=wavefront] [--threshold=T] [--band=R]
//               --p=1,2,0.5 --q=0.8,1.7,0.6     (or --pfile/--qfile CSV)
//   mda batch   --kind=dtw --pfile=A.csv --qfile=B.csv [--threads=8]
//               [--backend=...]                 all-pairs batch evaluation
//   mda info                                    configuration library + power
//   mda export --kind=md --n=4                  netlist deck to stdout
//   mda calibrate                               timing model via full SPICE
//   mda noise [--gbw=50e9]                      abs-block noise summary
//   mda profile [--file=series.csv] [--window=32] [--k=3] [--accel=1]
//               matrix profile -> motif + top-k discords (DESIGN.md §15)
//
// Every command accepts --metrics (append the metrics table to stdout) or
// --metrics=out.json (write the snapshot as JSON).  Any flag a command does
// not read is a usage error.
//
// Exit status: 0 on success, 1 on usage errors, 2 on runtime failure.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/accelerator.hpp"
#include "core/array_builder.hpp"
#include "core/batch_engine.hpp"
#include "devices/netlist_export.hpp"
#include "data/synthetic.hpp"
#include "fault/campaign.hpp"
#include "mining/matrix_profile.hpp"
#include "obs/snapshot.hpp"
#include "serve/chaos.hpp"
#include "serve/server.hpp"
#include "spice/noise.hpp"
#include "spice/primitives.hpp"
#include "blocks/absblock.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace mda;

std::optional<std::string> flag_str(int argc, char** argv,
                                    const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return std::nullopt;
}

double flag_num(int argc, char** argv, const std::string& name,
                double fallback) {
  const auto s = flag_str(argc, argv, name);
  return s ? std::stod(*s) : fallback;
}

/// A count flag (window, k, threads, port, ...) as T.  Rejects negative,
/// non-integral, non-finite and out-of-range values, whose cast to T would
/// be undefined behaviour.
template <typename T = std::size_t>
T flag_count(int argc, char** argv, const std::string& name,
             std::type_identity_t<T> fallback) {
  const auto s = flag_str(argc, argv, name);
  if (!s) return fallback;
  const double v = std::stod(*s);
  if (!(v >= 0.0) || v != std::floor(v) ||
      v >= std::ldexp(1.0, std::numeric_limits<T>::digits)) {
    throw std::invalid_argument("--" + name +
                                " must be a non-negative integer");
  }
  return static_cast<T>(v);
}

/// The DTW band flag: -1 (no band) or an integer in [0, INT_MAX].  Anything
/// else (1e20, nan, 2.5, -3), whose cast to int would be undefined
/// behaviour or silently change the band, throws.
int flag_band(int argc, char** argv) {
  const auto s = flag_str(argc, argv, "band");
  if (!s) return -1;
  const double v = std::stod(*s);
  if (v == -1.0) return -1;
  if (!(v >= 0.0) || v != std::floor(v) ||
      v > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(
        "--band must be -1 or an integer in [0, INT_MAX]");
  }
  return static_cast<int>(v);
}

std::vector<double> parse_values(const std::string& csv) {
  std::vector<double> out;
  for (const std::string& cell : util::split_line(csv)) {
    if (!cell.empty()) out.push_back(std::stod(cell));
  }
  return out;
}

std::optional<std::vector<double>> load_series(int argc, char** argv,
                                               const std::string& inline_flag,
                                               const std::string& file_flag) {
  if (const auto inline_csv = flag_str(argc, argv, inline_flag)) {
    return parse_values(*inline_csv);
  }
  if (const auto path = flag_str(argc, argv, file_flag)) {
    const auto rows = util::read_numeric(*path);
    if (!rows || rows->empty()) return std::nullopt;
    return rows->front();
  }
  return std::nullopt;
}

/// --metrics request: outer nullopt = not requested; inner nullopt = print
/// the table to stdout; inner string = write JSON to that path.
std::optional<std::optional<std::string>> metrics_request(int argc,
                                                          char** argv) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics") return std::optional<std::string>{};
    if (arg.rfind("--metrics=", 0) == 0) {
      return std::optional<std::string>{arg.substr(std::strlen("--metrics="))};
    }
  }
  return std::nullopt;
}

int emit_metrics(const std::optional<std::string>& path) {
  const obs::MetricsSnapshot snap = obs::MetricsSnapshot::capture();
  if (!path) {
    std::printf("\n%s", snap.to_table().c_str());
    return 0;
  }
  std::ofstream out(*path);
  if (!out) {
    std::fprintf(stderr, "cannot write metrics to '%s'\n", path->c_str());
    return 2;
  }
  out << snap.to_json() << '\n';
  return 0;
}

std::optional<core::Backend> parse_backend(int argc, char** argv) {
  core::Backend backend = core::Backend::Wavefront;
  if (const auto b = flag_str(argc, argv, "backend")) {
    if (*b == "behavioral") backend = core::Backend::Behavioral;
    else if (*b == "wavefront") backend = core::Backend::Wavefront;
    else if (*b == "fullspice") backend = core::Backend::FullSpice;
    else {
      std::fprintf(stderr, "unknown backend '%s'\n", b->c_str());
      return std::nullopt;
    }
  }
  return backend;
}

/// All rows from --<file_flag>, or the single inline --<inline_flag> row.
std::optional<std::vector<std::vector<double>>> load_rows(
    int argc, char** argv, const std::string& inline_flag,
    const std::string& file_flag) {
  if (const auto inline_csv = flag_str(argc, argv, inline_flag)) {
    return std::vector<std::vector<double>>{parse_values(*inline_csv)};
  }
  if (const auto path = flag_str(argc, argv, file_flag)) {
    auto rows = util::read_numeric(*path);
    if (!rows || rows->empty()) {
      std::fprintf(stderr, "cannot read numeric rows from '%s'\n",
                   path->c_str());
      return std::nullopt;
    }
    return *rows;
  }
  return std::nullopt;
}

int cmd_batch(int argc, char** argv) {
  const auto kind_name = flag_str(argc, argv, "kind");
  if (!kind_name) {
    std::fprintf(stderr, "batch: --kind=dtw|lcs|edd|haud|hamd|md required\n");
    return 1;
  }
  const auto p_rows = load_rows(argc, argv, "p", "pfile");
  const auto q_rows = load_rows(argc, argv, "q", "qfile");
  if (!p_rows || !q_rows) {
    std::fprintf(stderr, "batch: provide --p/--pfile and --q/--qfile\n");
    return 1;
  }
  core::DistanceSpec spec;
  spec.kind = dist::kind_from_name(*kind_name);
  spec.threshold = flag_num(argc, argv, "threshold", 0.0);
  spec.band = flag_band(argc, argv);

  core::BatchOptions opts;
  const auto backend = parse_backend(argc, argv);
  if (!backend) return 1;
  opts.num_threads = flag_count(argc, argv, "threads", 0);

  core::AcceleratorConfig acfg;
  acfg.backend = *backend;
  acfg.cache_capacity = flag_count(argc, argv, "cache", 8);
  core::Accelerator acc(acfg);
  acc.configure(spec);
  core::BatchEngine engine(opts);

  // Cross product: every P row against every Q row.
  std::vector<core::BatchQuery> queries;
  queries.reserve(p_rows->size() * q_rows->size());
  for (const auto& p : *p_rows) {
    for (const auto& q : *q_rows) queries.push_back({p, q});
  }

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<core::ComputeResult> results =
      engine.compute_batch(acc, queries);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  util::Table table({"#", "pair", "analog", "reference", "rel err"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::size_t pi = i / q_rows->size();
    const std::size_t qi = i % q_rows->size();
    table.add_row({std::to_string(i),
                   "P" + std::to_string(pi) + " x Q" + std::to_string(qi),
                   util::Table::fmt(results[i].value, 4),
                   util::Table::fmt(results[i].reference, 4),
                   util::Table::fmt(100.0 * results[i].relative_error, 2) +
                       "%"});
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("\n%zu queries on %zu threads: %.3f s wall (%.1f queries/s)\n",
              queries.size(), engine.num_threads(), wall_s,
              wall_s > 0.0 ? static_cast<double>(queries.size()) / wall_s
                           : 0.0);
  return 0;
}

int cmd_compute(int argc, char** argv) {
  const auto kind_name = flag_str(argc, argv, "kind");
  if (!kind_name) {
    std::fprintf(stderr, "compute: --kind=dtw|lcs|edd|haud|hamd|md required\n");
    return 1;
  }
  const auto p = load_series(argc, argv, "p", "pfile");
  const auto q = load_series(argc, argv, "q", "qfile");
  if (!p || !q || p->empty() || q->empty()) {
    std::fprintf(stderr, "compute: provide --p=.../--q=... or --pfile/--qfile\n");
    return 1;
  }
  core::DistanceSpec spec;
  spec.kind = dist::kind_from_name(*kind_name);
  spec.threshold = flag_num(argc, argv, "threshold", 0.0);
  spec.band = flag_band(argc, argv);

  const auto backend = parse_backend(argc, argv);
  if (!backend) return 1;
  core::AcceleratorConfig acfg;
  acfg.cache_capacity = flag_count(argc, argv, "cache", 8);
  core::Accelerator acc(acfg);
  acc.configure(spec, *backend);
  const core::ComputeResult r = acc.try_compute(*p, *q).unwrap();
  std::printf("function:        %s\n", dist::kind_name(spec.kind).c_str());
  std::printf("analog value:    %.6f\n", r.value);
  std::printf("digital ref:     %.6f\n", r.reference);
  std::printf("relative error:  %.4f%%\n", 100.0 * r.relative_error);
  std::printf("output voltage:  %.6f V\n", r.volts);
  std::printf("convergence:     %.2f ns\n", r.convergence_time_s * 1e9);
  std::printf("tiles:           %zu\n", r.tiles);
  return 0;
}

int cmd_info(int, char**) {
  std::printf("MDA configuration library (per-PE inventory, measured from "
              "generated netlists):\n\n");
  util::Table lib({"function", "structure", "op-amps", "memristors", "TGs",
                   "comparators", "diodes", "power @128 (W)"});
  core::Accelerator acc;
  for (const core::ConfigEntry& e : core::configuration_library()) {
    core::DistanceSpec spec;
    spec.kind = e.kind;
    if (e.kind == dist::DistanceKind::Dtw) spec.band = 6;
    acc.configure(spec);
    lib.add_row({dist::kind_name(e.kind),
                 e.matrix_structure ? "matrix" : "row",
                 std::to_string(e.opamps_per_pe),
                 std::to_string(e.memristors_per_pe),
                 std::to_string(e.tgates_per_pe),
                 std::to_string(e.comparators_per_pe),
                 std::to_string(e.diodes_per_pe),
                 util::Table::fmt(acc.power(128).total_w(), 2)});
  }
  std::fputs(lib.str().c_str(), stdout);
  const core::TimingModel& tm = core::TimingModel::defaults();
  std::printf("\nconvergence-time fits t(n) = a + b*n:\n");
  for (dist::DistanceKind kind : dist::kAllKinds) {
    const core::TimingEntry e = tm.entry(kind);
    std::printf("  %-5s a=%7.2f ns  b=%6.3f ns/elem\n",
                dist::kind_name(kind).c_str(), e.a_s * 1e9, e.b_s * 1e9);
  }
  return 0;
}

int cmd_export(int argc, char** argv) {
  const auto kind_name = flag_str(argc, argv, "kind");
  if (!kind_name) {
    std::fprintf(stderr, "export: --kind required\n");
    return 1;
  }
  const auto n = flag_count(argc, argv, "n", 4);
  core::AcceleratorConfig config;
  core::DistanceSpec spec;
  spec.kind = dist::kind_from_name(*kind_name);
  spec.threshold = flag_num(argc, argv, "threshold", 0.5);
  core::ArrayCircuit arr = core::build_array(config, spec, n, n);
  dev::ExportOptions opts;
  opts.include_parasitics = flag_num(argc, argv, "parasitics", 0) != 0;
  std::fputs(dev::export_netlist(*arr.net, opts).c_str(), stdout);
  const dev::DeviceCensus c = dev::census(*arr.net);
  std::fprintf(stderr,
               "* census: %zu opamps, %zu memristors, %zu diodes, %zu TGs, "
               "%zu comparators, %zu sources\n",
               c.opamps, c.memristors, c.diodes, c.tgates, c.comparators,
               c.sources);
  return 0;
}

int cmd_calibrate(int, char**) {
  std::printf("calibrating timing model (full-SPICE transients)...\n");
  const core::TimingModel model =
      core::TimingModel::calibrate(core::AcceleratorConfig{});
  for (dist::DistanceKind kind : dist::kAllKinds) {
    const core::TimingEntry e = model.entry(kind);
    std::printf("  %-5s a=%7.2f ns  b=%6.3f ns/elem  t(40)=%7.1f ns\n",
                dist::kind_name(kind).c_str(), e.a_s * 1e9, e.b_s * 1e9,
                model.convergence_time_s(kind, 40) * 1e9);
  }
  return 0;
}

int cmd_noise(int argc, char** argv) {
  const double gbw = flag_num(argc, argv, "gbw", 50e9);
  spice::Netlist net;
  blocks::AnalogEnv env;
  env.opamp.gbw_hz = gbw;
  blocks::BlockFactory f(net, env);
  const spice::NodeId p = net.node("p");
  const spice::NodeId q = net.node("q");
  net.add<spice::VSource>(p, spice::kGround, spice::Waveform::dc(0.030));
  net.add<spice::VSource>(q, spice::kGround, spice::Waveform::dc(0.010));
  const auto h = blocks::make_abs_block(f, p, q, 1.0, "abs");
  f.finalize_parasitics();
  spice::NoiseAnalysis noise(net);
  const spice::NoiseResult r = noise.run(h.out, 1e4, 1e12, 120);
  if (!r.ok) {
    std::fprintf(stderr, "noise analysis failed: %s\n", r.error.c_str());
    return 2;
  }
  std::printf("abs block @ GBW %.1f GHz: %d noise sources, output noise "
              "%.3f mV rms (%.2f units of 20 mV)\n",
              gbw / 1e9, r.num_sources, r.total_rms_v * 1e3,
              r.total_rms_v / 0.02);
  return 0;
}

int cmd_profile(int argc, char** argv) {
  // Input: an explicit series, or the synthetic ECG demo (normal rhythm
  // with an anomalous spliced segment, so the top discord is interesting).
  std::vector<double> series;
  if (const auto s = load_series(argc, argv, "series", "file")) {
    series = *s;
  } else {
    const auto n = flag_count(argc, argv, "n", 512);
    const auto seed = flag_count<std::uint64_t>(argc, argv, "seed", 42);
    series = data::make_ecg(n, 1.2, false, seed);
    const data::Series bad = data::make_ecg(n, 1.2, true, seed + 1);
    const std::size_t len = std::min(series.size() / 8, bad.size());
    const std::size_t at = series.size() / 2;
    for (std::size_t i = 0; i < len && at + i < series.size(); ++i) {
      series[at + i] = bad[i];
    }
  }

  mining::ProfileConfig cfg;
  cfg.window = flag_count(argc, argv, "window", 32);
  cfg.exclusion = flag_count(argc, argv, "exclusion", 0);
  cfg.kind = dist::kind_from_name(flag_str(argc, argv, "kind").value_or("dtw"));
  cfg.params.threshold = flag_num(argc, argv, "threshold", 0.0);
  cfg.params.band = flag_band(argc, argv);
  cfg.znormalize = flag_num(argc, argv, "znorm", 1) != 0;
  cfg.use_lower_bounds = flag_num(argc, argv, "lb", 1) != 0;
  cfg.lb_margin = flag_num(argc, argv, "margin", 1.0);
  cfg.early_abandon = flag_num(argc, argv, "abandon", 1) != 0;

  std::optional<core::Accelerator> acc;
  if (flag_num(argc, argv, "accel", 0) != 0) {
    const auto backend = parse_backend(argc, argv);
    if (!backend) return 1;
    core::DistanceSpec spec;
    spec.kind = cfg.kind;
    spec.threshold = cfg.params.threshold;
    spec.band = cfg.params.band;
    acc.emplace();
    acc->configure(spec, *backend);
    cfg.accelerator = &*acc;
  }
  std::optional<core::BatchEngine> engine;
  const auto threads = flag_count(argc, argv, "threads", 0);
  if (threads > 0) {
    core::BatchOptions opts;
    opts.num_threads = threads;
    engine.emplace(opts);
    cfg.engine = &*engine;
  }

  const auto k = flag_count(argc, argv, "k", 3);
  const auto t0 = std::chrono::steady_clock::now();
  const mining::ProfileResult r = mining::matrix_profile(series, cfg);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const mining::MotifResult motif = mining::profile_motif(r);
  const std::vector<mining::Discord> discords = mining::profile_discords(r, k);

  std::printf("series: %zu points, %zu windows of %zu (%s%s, exclusion %zu)\n",
              series.size(), r.profile.size(), r.window,
              dist::kind_name(cfg.kind).c_str(),
              cfg.accelerator ? ", accelerator" : "", r.exclusion);
  std::printf("motif:  [%zu, %zu] distance %.6f\n", motif.first, motif.second,
              motif.distance);
  util::Table table({"rank", "discord @", "nn distance"});
  for (std::size_t i = 0; i < discords.size(); ++i) {
    table.add_row({std::to_string(i + 1), std::to_string(discords[i].position),
                   util::Table::fmt(discords[i].nn_distance, 6)});
  }
  std::fputs(table.str().c_str(), stdout);
  const auto pct = [&](std::size_t c) {
    return r.stats.pairs > 0 ? 100.0 * static_cast<double>(c) /
                                   static_cast<double>(r.stats.pairs)
                             : 0.0;
  };
  std::printf("cascade: %zu pairs | lb_kim %.1f%% | lb_keogh %.1f%% | "
              "abandoned %.1f%% | evaluated %.1f%% | %.3f s wall\n",
              r.stats.pairs, pct(r.stats.pruned_lb_kim),
              pct(r.stats.pruned_lb_keogh), pct(r.stats.abandoned),
              pct(r.stats.evaluated), wall_s);

  if (flag_num(argc, argv, "stream", 0) != 0) {
    // Replay the series through the incremental engine and hold it to the
    // streaming ≡ batch contract (exit 2 on any bit difference).
    mining::ProfileConfig scfg = cfg;
    scfg.engine = nullptr;
    scfg.stream_capacity = flag_count(argc, argv, "capacity", 0);
    mining::StreamingProfile stream(scfg);
    stream.append(series);
    const mining::ProfileResult sr = stream.profile();
    const mining::ProfileResult br =
        scfg.stream_capacity == 0 ? r
                                  : mining::matrix_profile(stream.series(),
                                                           scfg);
    const bool same =
        sr.profile.size() == br.profile.size() &&
        sr.neighbor == br.neighbor && sr.starts == br.starts &&
        std::memcmp(sr.profile.data(), br.profile.data(),
                    sr.profile.size() * sizeof(double)) == 0;
    if (!same) {
      std::fprintf(stderr, "profile: streaming/batch mismatch\n");
      return 2;
    }
    std::printf("streaming replay: %zu windows, bit-identical to batch\n",
                sr.profile.size());
  }
  return 0;
}

int cmd_faults(int argc, char** argv) {
  fault::CampaignConfig cfg;
  if (const auto kind_name = flag_str(argc, argv, "kind")) {
    cfg.spec.kind = dist::kind_from_name(*kind_name);
  }
  cfg.spec.threshold = flag_num(argc, argv, "threshold", 0.0);
  cfg.spec.band = flag_band(argc, argv);
  const auto backend = parse_backend(argc, argv);
  if (!backend) return 1;
  cfg.backend = *backend;
  cfg.queries = flag_count(argc, argv, "queries", 32);
  cfg.length = flag_count(argc, argv, "length", 8);
  cfg.seed = flag_count<std::uint64_t>(argc, argv, "seed", 42);
  cfg.threads = flag_count(argc, argv, "threads", 1);
  cfg.base.cache_capacity = flag_count(argc, argv, "cache", 8);

  // Fault rates (per-site probabilities; all default 0 = healthy hardware).
  cfg.faults.stuck_rate = flag_num(argc, argv, "stuck", 0.0);
  cfg.faults.drift_rate = flag_num(argc, argv, "drift", 0.0);
  cfg.faults.cell_rate = flag_num(argc, argv, "cell", 0.0);
  cfg.faults.dac_rate = flag_num(argc, argv, "dac", 0.0);
  cfg.faults.adc_rate = flag_num(argc, argv, "adc", 0.0);
  cfg.faults.opamp_rate = flag_num(argc, argv, "opamp", 0.0);
  cfg.faults.nonconvergence_rate = flag_num(argc, argv, "nonconv", 0.0);
  cfg.faults.force_nonconvergence =
      flag_num(argc, argv, "force-nonconv", 0) != 0;
  cfg.faults.seed = cfg.seed;

  // Recovery policy knobs.
  cfg.handling.max_retries = flag_count<int>(argc, argv, "retries", 1);
  cfg.handling.degrade = flag_num(argc, argv, "degrade", 1) != 0;
  cfg.handling.newton_budget =
      flag_count<long>(argc, argv, "newton-budget", 0);

  const fault::CampaignReport report = fault::run_campaign(cfg);
  std::fputs(report.summary().c_str(), stdout);
  if (flag_num(argc, argv, "verbose", 0) != 0) {
    util::Table table({"#", "ok", "value", "reference", "rel err", "backend",
                       "att", "fb", "quar"});
    const char* names[] = {"behavioral", "wavefront", "fullspice"};
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
      const fault::QueryOutcome& qo = report.outcomes[i];
      table.add_row(
          {std::to_string(i), qo.ok ? "yes" : "NO",
           qo.ok ? util::Table::fmt(qo.value, 4) : std::string("-"),
           qo.ok ? util::Table::fmt(qo.reference, 4) : std::string("-"),
           qo.ok ? util::Table::fmt(100.0 * qo.rel_error, 2) + "%"
                 : std::string("-"),
           names[static_cast<int>(qo.backend_used)],
           std::to_string(qo.attempts), std::to_string(qo.fallbacks),
           std::to_string(qo.quarantined_cells)});
    }
    std::fputs(table.str().c_str(), stdout);
  }
  // Survival gate: a campaign where every query died exits nonzero so CI
  // scripts can assert on it directly.
  return report.survived > 0 || report.outcomes.empty() ? 0 : 2;
}

std::atomic<bool> g_serve_stop{false};

void serve_signal_handler(int) { g_serve_stop.store(true); }

int cmd_serve(int argc, char** argv) {
  serve::ServeOptions opts;
  opts.host = flag_str(argc, argv, "host").value_or("127.0.0.1");
  opts.port = flag_count<std::uint16_t>(argc, argv, "port", 0);
  const auto backend = parse_backend(argc, argv);
  if (!backend) return 1;
  opts.accelerator.backend = *backend;
  opts.accelerator.cache_capacity = flag_count(argc, argv, "cache", 8);
  opts.coalesce_window = flag_count(argc, argv, "window", 64);
  opts.shard_queue_depth = flag_count(argc, argv, "queue-depth", 256);
  opts.max_shards = flag_count(argc, argv, "max-shards", 16);
  opts.tenant_inflight_quota = flag_count(argc, argv, "quota", 0);
  opts.collapse_duplicates = flag_num(argc, argv, "collapse", 1) != 0;
  opts.replicas = flag_count(argc, argv, "replicas", 1);
  opts.selfheal.auto_scrub = flag_num(argc, argv, "auto-scrub", 1) != 0;
  opts.selfheal.scan_interval_s =
      flag_num(argc, argv, "scrub-interval", opts.selfheal.scan_interval_s);
  opts.selfheal.probe_len =
      flag_count(argc, argv, "probe-len", opts.selfheal.probe_len);
  opts.selfheal.health.unhealthy_threshold =
      flag_num(argc, argv, "unhealthy",
               opts.selfheal.health.unhealthy_threshold);
  opts.selfheal.health.healthy_threshold = flag_num(
      argc, argv, "healthy", opts.selfheal.health.healthy_threshold);
  if (const auto kind_name = flag_str(argc, argv, "kind")) {
    opts.default_spec.kind = dist::kind_from_name(*kind_name);
    opts.default_spec.threshold = flag_num(argc, argv, "threshold", 0.0);
    opts.default_spec.band = flag_band(argc, argv);
  }

  serve::Server server(opts);
  server.start();
  std::printf("mda serve listening on %s:%u (window=%zu queue-depth=%zu "
              "quota=%zu collapse=%d replicas=%zu auto-scrub=%d)\n",
              opts.host.c_str(), static_cast<unsigned>(server.port()),
              opts.coalesce_window, opts.shard_queue_depth,
              opts.tenant_inflight_quota,
              opts.collapse_duplicates ? 1 : 0, opts.replicas,
              opts.selfheal.auto_scrub ? 1 : 0);
  std::fflush(stdout);

  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.stop();
  const serve::ServerStats stats = server.stats();
  std::printf("\nserved %llu requests (%llu responses, %llu rejected, "
              "%llu collapsed, %llu solves) on %llu shards; self-heal: "
              "%llu scrubs, %llu probes, %llu failovers\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.responses),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.collapsed),
              static_cast<unsigned long long>(stats.solves),
              static_cast<unsigned long long>(stats.shards),
              static_cast<unsigned long long>(stats.scrubs),
              static_cast<unsigned long long>(stats.probes),
              static_cast<unsigned long long>(stats.failovers));
  return 0;
}

int cmd_chaos(int argc, char** argv) {
  serve::ChaosOptions opts;
  opts.seed = flag_count<std::uint64_t>(argc, argv, "seed", opts.seed);
  opts.phases = flag_count(argc, argv, "phases", opts.phases);
  opts.queries_per_phase =
      flag_count(argc, argv, "queries", opts.queries_per_phase);
  opts.clients = flag_count(argc, argv, "clients", opts.clients);
  opts.replicas = flag_count(argc, argv, "replicas", opts.replicas);
  opts.pairs = flag_count(argc, argv, "pairs", opts.pairs);
  opts.length = flag_count(argc, argv, "length", opts.length);
  const auto backend = parse_backend(argc, argv);
  if (!backend) return 1;
  opts.backend = *backend;
  opts.drift_cell_rate =
      flag_num(argc, argv, "drift-cells", opts.drift_cell_rate);
  opts.stuck_cell_rate =
      flag_num(argc, argv, "stuck-cells", opts.stuck_cell_rate);
  opts.slow_loris = flag_num(argc, argv, "loris", 1) != 0;
  opts.recovery_deadline_s =
      flag_num(argc, argv, "recovery-deadline", opts.recovery_deadline_s);
  opts.verbose = flag_num(argc, argv, "verbose", 1) != 0;

  const serve::ChaosReport rep = serve::run_chaos(opts);
  std::printf(
      "chaos soak: %llu queries over %zu phases (replicas=%zu)\n"
      "  ok=%llu rejected=%llu lost=%llu wrong=%llu\n"
      "  availability=%.4f (worst phase %.4f)\n"
      "  events: %llu injections, %llu kills, %llu restarts, %llu scrubs\n"
      "  failovers=%llu; client reconnects=%llu\n"
      "  expected-error: worst=%.4f post-scrub=%.4f (healed=%s)\n"
      "  recovery: %s (worst %.3fs)\n",
      static_cast<unsigned long long>(rep.queries), opts.phases,
      opts.replicas, static_cast<unsigned long long>(rep.ok),
      static_cast<unsigned long long>(rep.rejected),
      static_cast<unsigned long long>(rep.lost),
      static_cast<unsigned long long>(rep.wrong), rep.availability,
      rep.min_phase_availability,
      static_cast<unsigned long long>(rep.injections),
      static_cast<unsigned long long>(rep.kills),
      static_cast<unsigned long long>(rep.restarts),
      static_cast<unsigned long long>(rep.scrubs),
      static_cast<unsigned long long>(rep.failovers),
      static_cast<unsigned long long>(rep.client_reconnects),
      rep.worst_expected_error, rep.post_scrub_expected_error,
      rep.scrub_healed ? "yes" : "NO", rep.recovered ? "ok" : "MISSED",
      rep.worst_recovery_s);
  // The hard invariant: a wrong answer (served != direct bit-identity) is a
  // correctness failure, not degraded service.
  return rep.zero_wrong() ? 0 : 2;
}

void usage() {
  std::fprintf(stderr,
               "usage: mda "
               "<compute|batch|profile|serve|chaos|faults|info|export|"
               "calibrate|noise> [flags]\n"
               "  compute   --kind=dtw --p=1,2,0.5 --q=0.8,1.7,0.6\n"
               "            [--backend=behavioral|wavefront|fullspice]\n"
               "            [--threshold=T] [--band=R] [--pfile/--qfile=CSV]\n"
               "            [--cache=N  instance-cache LRU capacity, 0=off]\n"
               "  batch     --kind=dtw --pfile=A.csv --qfile=B.csv\n"
               "            [--threads=N (0=auto)] [--backend=...]\n"
               "            [--cache=N]\n"
               "            all P-rows x Q-rows pairs on the parallel engine\n"
               "  profile   [--series=1,2,... | --file=CSV] or synthetic\n"
               "            ECG demo: [--n=512] [--seed=42]\n"
               "            [--window=32] [--exclusion=0 (0=window)] [--k=3]\n"
               "            [--kind=dtw] [--band=R] [--threshold=T]\n"
               "            [--znorm=0|1] [--lb=0|1] [--margin=1.0]\n"
               "            [--abandon=0|1] [--threads=0]\n"
               "            [--accel=0|1] [--backend=...]\n"
               "            [--stream=0|1 replay + verify streaming==batch]\n"
               "            [--capacity=0 streaming sliding window]\n"
               "            matrix profile -> motif + top-k discords\n"
               "  serve     [--host=127.0.0.1] [--port=0 (ephemeral)]\n"
               "            [--backend=...] [--window=64 coalesce window]\n"
               "            [--queue-depth=256]\n"
               "            [--max-shards=16] [--quota=0 per-tenant inflight]\n"
               "            [--collapse=0|1] [--cache=N] [--kind=... default "
               "spec]\n"
               "            self-heal: [--replicas=1]\n"
               "            [--auto-scrub=0|1] [--scrub-interval=0.05]\n"
               "            [--probe-len=4] [--unhealthy=0.08] "
               "[--healthy=0.02]\n"
               "            streaming query service (Ctrl-C to stop)\n"
               "  chaos     [--seed=S] [--phases=8] [--queries=36]\n"
               "            [--clients=2] [--replicas=2] [--pairs=10]\n"
               "            [--length=4] [--backend=...] [--drift-cells=0.35]\n"
               "            [--stuck-cells=0.15] [--loris=0|1]\n"
               "            [--recovery-deadline=5] [--verbose=0|1]\n"
               "            seeded self-healing soak; exit 2 on any wrong "
               "answer\n"
               "  faults    [--kind=dtw] [--backend=...] [--queries=32]\n"
               "            [--length=8] [--seed=42] [--threads=1]\n"
               "            fault rates: [--stuck=R] [--drift=R] [--cell=R]\n"
               "            [--dac=R] [--adc=R] [--opamp=R] [--nonconv=R]\n"
               "            [--force-nonconv=1]\n"
               "            recovery: [--retries=1] [--degrade=0|1]\n"
               "            [--newton-budget=N] [--verbose=1] [--cache=N]\n"
               "            injection campaign -> survival/accuracy report\n"
               "  info      configuration library, power, timing fits\n"
               "  export    --kind=md [--n=4] [--threshold=0.5] "
               "[--parasitics=1]\n"
               "  calibrate re-fit the timing model from full SPICE\n"
               "  noise     [--gbw=50e9] abs-block output noise\n"
               "every command also takes --metrics (table to stdout) or\n"
               "--metrics=out.json (snapshot as JSON); any other flag is a\n"
               "usage error\n");
}

/// One subcommand: its entry point and the flags it reads.  `--metrics` is
/// accepted by every command on top of these.
struct Command {
  std::string_view name;
  int (*run)(int, char**);
  std::vector<std::string_view> flags;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"compute", cmd_compute,
       {"kind", "p", "q", "pfile", "qfile", "threshold", "band", "backend",
        "cache"}},
      {"batch", cmd_batch,
       {"kind", "p", "q", "pfile", "qfile", "threshold", "band", "backend",
        "threads", "cache"}},
      {"profile", cmd_profile,
       {"series", "file", "n", "seed", "window", "exclusion", "k", "kind",
        "threshold", "band", "znorm", "lb", "margin", "abandon", "threads",
        "accel", "backend", "stream", "capacity"}},
      {"serve", cmd_serve,
       {"host", "port", "backend", "cache", "window", "queue-depth",
        "max-shards", "quota", "collapse", "replicas", "auto-scrub",
        "scrub-interval", "probe-len", "unhealthy", "healthy", "kind",
        "threshold", "band"}},
      {"chaos", cmd_chaos,
       {"seed", "phases", "queries", "clients", "replicas", "pairs", "length",
        "backend", "drift-cells", "stuck-cells", "loris", "recovery-deadline",
        "verbose"}},
      {"faults", cmd_faults,
       {"kind", "threshold", "band", "backend", "queries", "length", "seed",
        "threads", "cache", "stuck", "drift", "cell", "dac", "adc", "opamp",
        "nonconv", "force-nonconv", "retries", "degrade", "newton-budget",
        "verbose"}},
      {"info", cmd_info, {}},
      {"export", cmd_export, {"kind", "n", "threshold", "parasitics"}},
      {"calibrate", cmd_calibrate, {}},
      {"noise", cmd_noise, {"gbw"}},
  };
  return table;
}

/// Why argv[2..] is not a valid flag list for `cmd` (every argument must be
/// `--<flag>=<value>` for one of its flags, or `--metrics[=path]`), or
/// nullopt when it is.
std::optional<std::string> bad_argument(const Command& cmd, int argc,
                                        char** argv) {
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--metrics" || arg.starts_with("--metrics=")) continue;
    if (!arg.starts_with("--")) {
      return "unexpected argument '" + std::string(arg) + "'";
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(2, eq - 2);
    if (std::find(cmd.flags.begin(), cmd.flags.end(), name) ==
        cmd.flags.end()) {
      return "unknown flag --" + std::string(name);
    }
    if (eq == std::string_view::npos) {
      return "flag --" + std::string(name) + " needs a value (--" +
             std::string(name) + "=...)";
    }
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string_view name = argv[1];
  const auto cmd =
      std::find_if(commands().begin(), commands().end(),
                   [&](const Command& c) { return c.name == name; });
  if (cmd == commands().end()) {
    usage();
    return 1;
  }
  if (const auto bad = bad_argument(*cmd, argc, argv)) {
    std::fprintf(stderr, "mda %s: %s\n", argv[1], bad->c_str());
    return 1;
  }
  const auto metrics = metrics_request(argc, argv);
  try {
    const int rc = cmd->run(argc, argv);
    if (rc == 0 && metrics) {
      const int mrc = emit_metrics(*metrics);
      if (mrc != 0) return mrc;
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
