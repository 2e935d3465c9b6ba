// Chaos soak benchmark for the self-healing serving layer (DESIGN.md §14).
// Runs serve::run_chaos twice with the SAME seed — replicas=1 and
// replicas=N (default 2) — so the two fleets face an identical event
// schedule: drift and stuck-at fault-plan injections, a replica kill and
// restart, forced and threshold-triggered scrubs, slow-loris clients.
//
// Headline numbers:
//  * zero wrong answers in both fleets — every Ok response bit-identical to
//    a direct solve under the responding replica's (plan, attempt); any
//    violation exits 2;
//  * availability: the replicated fleet must stay >= 0.99 through every
//    phase while the single-replica fleet collapses to 0 during its kill
//    phase (the degradation the replication pays for);
//  * healing: the drift-degraded replica's expected-error estimate returns
//    below the healthy threshold after its scrub;
//  * recovery: the fleet serves again within the deadline of a restart.
//
// --json=<path> writes the machine-readable report with the host
// fingerprint (committed baseline: BENCH_chaos.json).  Knobs: --phases=N --queries=N --clients=N
// --replicas=N --pairs=N --length=L --seed=S.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "host_fingerprint.hpp"
#include "serve/chaos.hpp"

using namespace mda;

namespace {

void emit_fleet(bench::JsonWriter& w, const std::string& name,
                const serve::ChaosReport& r) {
  w.begin_object(name);
  w.field("queries", r.queries);
  w.field("ok", r.ok);
  w.field("rejected", r.rejected);
  w.field("lost", r.lost);
  w.field("wrong", r.wrong);
  w.field("availability", r.availability);
  w.field("min_phase_availability", r.min_phase_availability);
  w.field("injections", r.injections);
  w.field("kills", r.kills);
  w.field("restarts", r.restarts);
  w.field("scrubs", r.scrubs);
  w.field("failovers", r.failovers);
  w.field("client_reconnects", r.client_reconnects);
  w.field("worst_expected_error", r.worst_expected_error);
  w.field("post_scrub_expected_error", r.post_scrub_expected_error);
  w.field("scrub_healed", r.scrub_healed);
  w.field("recovered", r.recovered);
  w.field("worst_recovery_s", r.worst_recovery_s);
  w.begin_array("phases");
  for (const serve::ChaosPhase& p : r.phases) {
    w.begin_object("", /*one_line=*/true);
    w.field("event", p.event);
    w.field("sent", p.sent);
    w.field("ok", p.ok);
    w.field("rejected", p.rejected);
    w.field("lost", p.lost);
    w.field("wrong", p.wrong);
    w.field("availability", p.availability);
    w.end();
  }
  w.end();
  w.end();
}

void summarize(const char* name, const serve::ChaosReport& r) {
  std::fprintf(stderr,
               "[bench_chaos]   %s: %llu queries, avail %.4f (worst phase "
               "%.4f), wrong=%llu, scrubs=%llu, healed=%s, recovery %.3fs\n",
               name, static_cast<unsigned long long>(r.queries),
               r.availability, r.min_phase_availability,
               static_cast<unsigned long long>(r.wrong),
               static_cast<unsigned long long>(r.scrubs),
               r.scrub_healed ? "yes" : "NO", r.worst_recovery_s);
}

}  // namespace

int main(int argc, char** argv) {
  serve::ChaosOptions opts;
  opts.seed = static_cast<std::uint64_t>(
      bench::flag_value(argc, argv, "seed", static_cast<double>(opts.seed)));
  opts.phases = static_cast<std::size_t>(bench::flag_value(
      argc, argv, "phases", static_cast<double>(opts.phases)));
  opts.queries_per_phase = static_cast<std::size_t>(bench::flag_value(
      argc, argv, "queries", static_cast<double>(opts.queries_per_phase)));
  opts.clients = static_cast<std::size_t>(bench::flag_value(
      argc, argv, "clients", static_cast<double>(opts.clients)));
  opts.pairs = static_cast<std::size_t>(
      bench::flag_value(argc, argv, "pairs", static_cast<double>(opts.pairs)));
  opts.length = static_cast<std::size_t>(bench::flag_value(
      argc, argv, "length", static_cast<double>(opts.length)));
  const auto replicas = static_cast<std::size_t>(
      bench::flag_value(argc, argv, "replicas", 2));
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }

  std::fprintf(stderr,
               "[bench_chaos] seed %llu, %zu phases x %zu queries, "
               "%zu clients, %zu pairs, length %zu\n",
               static_cast<unsigned long long>(opts.seed), opts.phases,
               opts.queries_per_phase, opts.clients, opts.pairs, opts.length);

  std::fprintf(stderr, "[bench_chaos] fleet single (replicas=1)...\n");
  opts.replicas = 1;
  const serve::ChaosReport single = serve::run_chaos(opts);
  summarize("single", single);

  std::fprintf(stderr, "[bench_chaos] fleet replicated (replicas=%zu)...\n",
               replicas);
  opts.replicas = replicas;
  const serve::ChaosReport fleet = serve::run_chaos(opts);
  summarize("replicated", fleet);

  const bool zero_wrong = single.zero_wrong() && fleet.zero_wrong();
  const bool fleet_available = fleet.min_phase_availability >= 0.99;
  const bool single_degrades =
      single.min_phase_availability < fleet.min_phase_availability;
  const bool healed = fleet.scrub_healed && fleet.recovered;
  const bool pass = zero_wrong && fleet_available && healed;

  std::fprintf(stderr,
               "[bench_chaos] zero_wrong=%s fleet_available=%s "
               "single_degrades=%s healed+recovered=%s => %s\n",
               zero_wrong ? "yes" : "NO", fleet_available ? "yes" : "NO",
               single_degrades ? "yes" : "no", healed ? "yes" : "NO",
               pass ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "[bench_chaos] cannot open %s\n",
                   json_path.c_str());
      return 1;
    }
    bench::JsonWriter w(out);
    w.begin_object();
    w.field("bench", "chaos");
    w.raw("host", bench::host_fingerprint_json());
    w.begin_object("scenario");
    w.field("seed", opts.seed);
    w.field("phases", opts.phases);
    w.field("queries_per_phase", opts.queries_per_phase);
    w.field("clients", opts.clients);
    w.field("pairs", opts.pairs);
    w.field("length", opts.length);
    w.field("backend", "wavefront");
    w.field("replicated_fleet_size", replicas);
    w.end();
    emit_fleet(w, "single", single);
    emit_fleet(w, "replicated", fleet);
    w.field("zero_wrong", zero_wrong);
    w.field("fleet_available", fleet_available);
    w.field("single_degrades", single_degrades);
    w.field("scrub_healed_and_recovered", healed);
    w.field("pass", pass);
    w.end();
    std::fprintf(stderr, "[bench_chaos] wrote %s\n", json_path.c_str());
  }
  // Wrong answers are a correctness failure (exit 2, same contract as the
  // chaos_smoke ctest); missed availability/healing gates exit 1.
  if (!zero_wrong) return 2;
  return pass ? 0 : 1;
}
