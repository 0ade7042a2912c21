#include "campaign/campaign.hpp"

#include <cstdio>
#include <sstream>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace sg::campaign {

void Tally::add(const swifi::EpisodeResult& episode) {
  ++injected;
  invariant_violations += static_cast<std::uint64_t>(episode.invariant_violations);
  virtual_time_total += episode.virtual_end;
  // One bucket per episode. Quarantine wins over the raw outcome: an episode
  // the supervisor ended by taking the target out of service is a policy
  // decision worth counting separately from how the workload limped along.
  if (episode.quarantined) {
    ++quarantined;
    return;
  }
  if (episode.crashed && (episode.crash_kind == kernel::CrashKind::kHang ||
                          episode.crash_kind == kernel::CrashKind::kDeadlock)) {
    ++hang;
    return;
  }
  switch (episode.outcome) {
    case swifi::Outcome::kRecovered: ++recovered; return;
    case swifi::Outcome::kDegraded: ++degraded; return;
    case swifi::Outcome::kUndetected: ++undetected; return;
    case swifi::Outcome::kSegfault: ++segfault; return;
    case swifi::Outcome::kPropagated: ++propagated; return;
    case swifi::Outcome::kOther: ++other; return;
  }
  ++other;
}

void Tally::merge(const Tally& other_tally) {
  injected += other_tally.injected;
  recovered += other_tally.recovered;
  degraded += other_tally.degraded;
  undetected += other_tally.undetected;
  segfault += other_tally.segfault;
  propagated += other_tally.propagated;
  hang += other_tally.hang;
  quarantined += other_tally.quarantined;
  other += other_tally.other;
  invariant_violations += other_tally.invariant_violations;
  virtual_time_total += other_tally.virtual_time_total;
}

std::string cell_tag(const std::string& service, swifi::InjectionProfile profile) {
  return service + "/" + swifi::to_string(profile);
}

namespace {

const std::vector<std::string>& all_services() {
  static const std::vector<std::string> kServices = {"sched", "mman", "ramfs", "lock",
                                                     "evt",   "tmr",  "storage"};
  return kServices;
}

struct Cell {
  std::string service;
  swifi::InjectionProfile profile;
  std::string tag;
};

}  // namespace

Result run(const Config& config) {
  const std::vector<std::string>& services =
      config.services.empty() ? all_services() : config.services;
  std::vector<swifi::InjectionProfile> profiles = config.profiles;
  if (profiles.empty()) profiles.push_back(swifi::InjectionProfile::kRegisterFlip);

  std::vector<Cell> cells;
  for (const std::string& service : services) {
    for (const swifi::InjectionProfile profile : profiles) {
      cells.push_back(Cell{service, profile, cell_tag(service, profile)});
    }
  }
  SG_ASSERT(!cells.empty());

  swifi::CampaignConfig swifi_config;
  swifi_config.seed = config.master_seed;
  swifi_config.mode = config.mode;
  swifi_config.policy = config.policy;
  const swifi::Campaign episodes(swifi_config);

  swifi::EpisodeOptions options;
  options.workload_iterations = config.workload_iterations;
  options.check_invariants = config.check_invariants;
  options.supervision = config.supervision;

  const std::uint64_t per_cell = config.injections_per_cell;
  const int workers = std::max(1, config.workers);

  // Worker w accumulates into its own tally row; because episode seeds depend
  // only on (master, cell, episode index), the merged result is identical for
  // every worker count and pull order.
  std::vector<std::vector<Tally>> partial(
      static_cast<std::size_t>(workers), std::vector<Tally>(cells.size()));
  parallel_for(cells.size() * per_cell, workers, [&](int worker, std::size_t item) {
    const std::size_t cell_index = item / per_cell;
    const Cell& cell = cells[cell_index];
    swifi::EpisodeOptions episode_options = options;
    episode_options.profile = cell.profile;
    const std::uint64_t seed = swifi::episode_seed(config.master_seed, cell.tag, item % per_cell);
    partial[static_cast<std::size_t>(worker)][cell_index].add(
        episodes.run_episode_detail(cell.service, seed, episode_options));
  });

  Result result;
  result.cells.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    CellResult cell_result;
    cell_result.service = cells[c].service;
    cell_result.profile = cells[c].profile;
    for (int w = 0; w < workers; ++w) {
      cell_result.tally.merge(partial[static_cast<std::size_t>(w)][c]);
    }
    result.total.merge(cell_result.tally);
    result.cells.push_back(std::move(cell_result));
  }
  return result;
}

namespace {

/// Fixed-precision float formatting: the aggregate JSON must be
/// byte-identical across same-seed runs and across platforms, so every
/// double goes through one code path.
std::string fixed6(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6f", value);
  return buffer;
}

void write_tally(std::ostringstream& out, const Tally& tally, const char* indent) {
  const Interval activation = tally.activation_ci();
  const Interval recovery = tally.recovery_ci();
  const double activation_ratio =
      tally.injected == 0
          ? 0.0
          : static_cast<double>(tally.activated()) / static_cast<double>(tally.injected);
  const double recovery_rate =
      tally.activated() == 0
          ? 0.0
          : static_cast<double>(tally.recovered) / static_cast<double>(tally.activated());
  out << indent << "\"injected\": " << tally.injected << ",\n"
      << indent << "\"recovered\": " << tally.recovered << ",\n"
      << indent << "\"degraded\": " << tally.degraded << ",\n"
      << indent << "\"undetected\": " << tally.undetected << ",\n"
      << indent << "\"segfault\": " << tally.segfault << ",\n"
      << indent << "\"propagated\": " << tally.propagated << ",\n"
      << indent << "\"hang\": " << tally.hang << ",\n"
      << indent << "\"quarantined\": " << tally.quarantined << ",\n"
      << indent << "\"other\": " << tally.other << ",\n"
      << indent << "\"invariant_violations\": " << tally.invariant_violations << ",\n"
      << indent << "\"virtual_time_total_us\": " << tally.virtual_time_total << ",\n"
      << indent << "\"activation_ratio\": " << fixed6(activation_ratio) << ",\n"
      << indent << "\"activation_ci95\": [" << fixed6(activation.lo) << ", "
      << fixed6(activation.hi) << "],\n"
      << indent << "\"recovery_rate\": " << fixed6(recovery_rate) << ",\n"
      << indent << "\"recovery_ci95\": [" << fixed6(recovery.lo) << ", " << fixed6(recovery.hi)
      << "]";
}

}  // namespace

std::string to_json(const Config& config, const Result& result) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"benchmark\": \"table2_campaign\",\n";
  out << "  \"master_seed\": " << config.master_seed << ",\n";
  out << "  \"injections_per_cell\": " << config.injections_per_cell << ",\n";
  out << "  \"workload_iterations\": " << config.workload_iterations << ",\n";
  out << "  \"mode\": \"" << components::to_string(config.mode) << "\",\n";
  out << "  \"supervised\": " << (config.supervision.loop_threshold > 0 ? "true" : "false")
      << ",\n";
  out << "  \"check_invariants\": " << (config.check_invariants ? "true" : "false") << ",\n";
  out << "  \"episodes\": " << result.episodes() << ",\n";
  out << "  \"cells\": [\n";
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const CellResult& cell = result.cells[c];
    out << "    {\n";
    out << "      \"service\": \"" << cell.service << "\",\n";
    out << "      \"profile\": \"" << swifi::to_string(cell.profile) << "\",\n";
    write_tally(out, cell.tally, "      ");
    out << "\n    }" << (c + 1 < result.cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"total\": {\n";
  write_tally(out, result.total, "    ");
  out << "\n  }\n";
  out << "}\n";
  return out.str();
}

std::string format_table(const Result& result) {
  TextTable table;
  table.add_row({"Cell", "Injected", "Recovered", "Degraded", "Undetected", "Segfault",
                 "Propagated", "Hang", "Quarantined", "Other", "Violations",
                 "Activation [95% CI]", "Recovery rate [95% CI]"});
  auto rate = [](std::uint64_t hits, std::uint64_t trials) {
    const Interval ci = wilson_interval(hits, trials);
    const double value =
        trials == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(trials);
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.4f [%.4f, %.4f]", value, ci.lo, ci.hi);
    return std::string(buffer);
  };
  auto add_row = [&](const std::string& label, const Tally& t) {
    table.add_row({label, std::to_string(t.injected), std::to_string(t.recovered),
                   std::to_string(t.degraded), std::to_string(t.undetected),
                   std::to_string(t.segfault), std::to_string(t.propagated),
                   std::to_string(t.hang), std::to_string(t.quarantined),
                   std::to_string(t.other), std::to_string(t.invariant_violations),
                   rate(t.activated(), t.injected), rate(t.recovered, t.activated())});
  };
  for (const CellResult& cell : result.cells) {
    add_row(cell_tag(cell.service, cell.profile), cell.tally);
  }
  add_row("TOTAL", result.total);
  return table.render();
}

}  // namespace sg::campaign
