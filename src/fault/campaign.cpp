#include "fault/campaign.hpp"

#include <algorithm>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>

#include "core/array_cache.hpp"
#include "core/batch_engine.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace mda::fault {
namespace {

const char* backend_name(core::Backend b) {
  switch (b) {
    case core::Backend::Behavioral: return "behavioral";
    case core::Backend::Wavefront: return "wavefront";
    case core::Backend::FullSpice: return "fullspice";
  }
  return "?";
}

/// Synthetic input series for query `index`: pure function of the campaign
/// seed, regardless of evaluation order.
std::vector<double> make_series(std::uint64_t seed, std::uint64_t index,
                                std::uint64_t which, std::size_t length) {
  util::Rng rng = core::BatchEngine::derive_rng(
      FaultPlan::mix(seed, /*domain=*/0x99, index, which), 0);
  std::vector<double> s(length);
  for (double& v : s) v = 4.0 * rng.uniform();
  return s;
}

}  // namespace

CampaignReport run_campaign(const CampaignConfig& config) {
  static const obs::Counter campaigns("mda.fault.campaigns");
  static const obs::Counter campaign_queries("mda.fault.campaign_queries");
  campaigns.add();
  campaign_queries.add(static_cast<std::uint64_t>(config.queries));

  core::AcceleratorConfig base = config.base;
  base.backend = config.backend;
  base.fault_handling = config.handling;
  // One instance cache shared across the per-query accelerators (DESIGN.md
  // §11): pooled row arrays are fault-plan-invariant (cell faults apply at
  // the measured-value level), so the whole campaign amortises one build.
  // Every other kind and backend builds per query.
  if (!base.array_cache && base.cache_capacity > 0) {
    base.array_cache = std::make_shared<core::ArrayCache>(base.cache_capacity);
  }

  CampaignReport report;
  report.config = config;
  std::vector<std::optional<QueryOutcome>> slots(config.queries);

  core::BatchOptions bopts;
  bopts.num_threads = std::max<std::size_t>(1, config.threads);
  core::BatchEngine engine(bopts);
  engine.parallel_for(config.queries, [&](std::size_t i) {
    const std::vector<double> p = make_series(config.seed, i, 0, config.length);
    const std::vector<double> q = make_series(config.seed, i, 1, config.length);

    // Each query gets an independently seeded instance of the same fault
    // statistics — one campaign samples many broken accelerators.
    FaultConfig fc = config.faults;
    fc.seed = FaultPlan::mix(config.faults.seed, /*domain=*/0x88, i, 0);
    core::AcceleratorConfig cfg = base;
    cfg.faults = fc.any() ? std::make_shared<const FaultPlan>(fc) : nullptr;

    core::Accelerator acc(cfg);
    acc.configure(config.spec);
    // Campaigns go through the same unified request type as the server and
    // BatchEngine; the query index doubles as the tenant tag in metrics.
    core::QueryRequest req{p, q};
    req.tenant = i;
    const core::ComputeOutcome outcome = acc.try_compute(req);

    QueryOutcome qo;
    if (outcome.ok()) {
      const core::ComputeResult& r = outcome.value();
      qo.ok = true;
      qo.value = r.value;
      qo.reference = r.reference;
      qo.rel_error = r.relative_error;
      qo.backend_used = r.backend_used;
      qo.attempts = r.attempts;
      qo.fallbacks = r.fallbacks;
      qo.quarantined_cells = r.quarantined_cells;
      qo.fault_detected = r.fault_detected;
    } else {
      const core::ComputeError& e = outcome.error();
      qo.backend_used = e.backend;
      qo.attempts = e.attempts;
      qo.fault_detected = true;
      qo.error = e.message;
    }
    slots[i].emplace(std::move(qo));
  });

  double err_sum = 0.0;
  report.outcomes.reserve(config.queries);
  for (auto& s : slots) {
    QueryOutcome& qo = *s;
    if (qo.ok) {
      ++report.survived;
      err_sum += qo.rel_error;
      report.max_rel_error = std::max(report.max_rel_error, qo.rel_error);
      if (qo.attempts > 1 || qo.fallbacks > 0) ++report.recovered;
      if (qo.fallbacks > 0) ++report.fallback_queries;
    } else {
      ++report.failed;
    }
    if (qo.fault_detected) ++report.detected;
    report.quarantined_cells += qo.quarantined_cells;
    report.outcomes.push_back(std::move(qo));
  }
  report.mean_rel_error =
      report.survived > 0 ? err_sum / static_cast<double>(report.survived)
                          : 0.0;
  return report;
}

std::string CampaignReport::summary() const {
  std::ostringstream os;
  const auto pct = [&](std::size_t k) {
    return outcomes.empty()
               ? 0.0
               : 100.0 * static_cast<double>(k) /
                     static_cast<double>(outcomes.size());
  };
  os << "fault campaign: " << outcomes.size() << " queries, "
     << dist::kind_name(config.spec.kind) << " on "
     << backend_name(config.backend) << ", seed " << config.seed << "\n";
  os << std::fixed << std::setprecision(1);
  os << "  survived    " << survived << "/" << outcomes.size() << " ("
     << pct(survived) << "%)\n";
  os << "  failed      " << failed << "\n";
  os << "  detected    " << detected << " (fault tripped a detector)\n";
  os << "  recovered   " << recovered << " (retry or fallback), "
     << fallback_queries << " served by a degraded backend\n";
  os << "  quarantined " << quarantined_cells << " wavefront cells\n";
  os << std::setprecision(4);
  os << "  rel error   mean " << mean_rel_error << ", max " << max_rel_error
     << " (survivors)\n";
  return os.str();
}

}  // namespace mda::fault
