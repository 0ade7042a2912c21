// sg-analyze — static recovery-cost analysis over SuperGlue interfaces.
//
// The predictability story of C3/SuperGlue (the paper's §I and [7]) rests on
// recovery being *bounded*: every descriptor's walk is a precomputed
// shortest path, so worst-case recovery cost per descriptor is a static
// quantity. This tool compiles one or more .sgidl files and reports, per
// interface: the model parameters, the selected mechanisms, the state set,
// each state's recovery walk, and the worst-case number of interface
// invocations one descriptor recovery can cost (creation replay + restores +
// longest walk + storage/upcall steps) — the numbers a schedulability
// analysis would consume.
//
// Usage: sg-analyze <file.sgidl> [more.sgidl ...]

#include <algorithm>
#include <cstdio>
#include <string>

#include "idl/compiler.hpp"
#include "util/stats.hpp"

namespace {

/// Worst-case interface invocations for recovering ONE descriptor of this
/// interface, counted over the recovery protocol of §III-D:
///   1 creation replay + |restore fns| + longest walk
///   + 1 storage lookup and 1 upcall replay when G0/U0 apply
///   + 1 storage fetch when G1 applies.
/// Parent (D1) recovery multiplies by the dependency depth, which is a
/// client-workload property — reported separately as "per ancestor".
int worst_case_steps(const sg::c3::InterfaceSpec& spec) {
  std::size_t longest_walk = 0;
  for (const auto& state : spec.sm.states()) {
    longest_walk = std::max(longest_walk, spec.sm.recovery_walk(state).size());
  }
  int steps = 1 + static_cast<int>(spec.sm.restore_fns().size()) +
              static_cast<int>(longest_walk);
  const auto mechanisms = spec.mechanisms();
  if (mechanisms.count(sg::trace::Mechanism::kG0) != 0 ||
      mechanisms.count(sg::trace::Mechanism::kU0) != 0) {
    steps += 2;  // Storage lookup + replay after the upcall.
  }
  if (mechanisms.count(sg::trace::Mechanism::kG1) != 0) steps += 1;  // Data fetch.
  return steps;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: sg-analyze <file.sgidl> [more.sgidl ...]\n");
    return 1;
  }
  sg::TextTable table;
  table.add_row({"service", "B/Dr/G/P/C/Y/Dd", "mechanisms", "|S|", "longest walk",
                 "worst-case steps/desc"});
  for (int i = 1; i < argc; ++i) {
    try {
      const auto spec = sg::idl::compile_file(argv[i]);
      std::size_t longest_walk = 0;
      std::string longest_state;
      for (const auto& state : spec.sm.states()) {
        if (spec.sm.recovery_walk(state).size() >= longest_walk) {
          longest_walk = spec.sm.recovery_walk(state).size();
          longest_state = state;
        }
      }
      char model[48];
      std::snprintf(model, sizeof(model), "%d/%d/%d/%s/%d/%d/%d", spec.desc_block,
                    spec.resc_has_data, spec.desc_is_global, to_string(spec.parent),
                    spec.desc_close_children, spec.desc_close_remove, spec.desc_has_data);
      table.add_row({spec.service, model, sg::c3::to_string(spec.mechanisms()),
                     std::to_string(spec.sm.state_count()),
                     std::to_string(longest_walk) + " (" + longest_state + ")",
                     std::to_string(worst_case_steps(spec)) + " (+depth per D1 ancestor)"});
    } catch (const sg::idl::IdlError& error) {
      std::fprintf(stderr, "sg-analyze: %s\n", error.what());
      return 1;
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nworst-case steps/desc = creation replay + sm_restore replays + longest R0\n"
              "walk + G0 storage lookup & replay + G1 data fetch, per Sec III-D. Each D1\n"
              "ancestor adds its own recovery on top (bounded by the dependency depth).\n");
  return 0;
}
