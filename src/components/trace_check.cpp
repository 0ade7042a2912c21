#include "components/trace_check.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

namespace sg::components {

trace::NameFn comp_namer(System& sys) {
  std::map<kernel::CompId, std::string> names;
  for (const kernel::CompId id : sys.kernel().component_ids()) {
    names[id] = sys.kernel().component(id).name();
  }
  return [names = std::move(names)](kernel::CompId id) -> std::string {
    auto it = names.find(id);
    return it == names.end() ? "#" + std::to_string(id) : it->second;
  };
}

trace::CheckerHooks checker_hooks(System& sys) {
  trace::CheckerHooks hooks;
  hooks.sigma_valid = [&sys](kernel::CompId comp, c3::StateId state, c3::FnId fn) -> int {
    const c3::InterfaceSpec* spec = sys.coordinator().find_spec_by_comp(comp);
    if (spec == nullptr) return -1;
    return spec->compiled().valid(state, fn) ? 1 : 0;
  };
  hooks.dependents = [&sys](kernel::CompId comp) {
    return sys.supervision().dependents_of(comp);
  };
  hooks.is_quarantined = [&sys](kernel::CompId comp) {
    return sys.kernel().is_quarantined(comp);
  };
  return hooks;
}

std::vector<std::string> check_recovery_invariants(System& sys) {
  trace::InvariantChecker checker(checker_hooks(sys));
  return checker.check(sys.kernel().tracer());
}

TraceCapture capture_trace(System& sys) {
  const trace::Tracer::Snapshot snap = sys.kernel().tracer().snapshot();
  const trace::NameFn names = comp_namer(sys);
  TraceCapture capture;
  capture.normalized = trace::format_normalized(snap.events, names);
  std::ostringstream json;
  trace::write_chrome_trace(json, snap, names);
  capture.chrome_json = json.str();
  capture.truncated = snap.truncated();
  return capture;
}

bool write_chrome_file(const std::string& path, const std::string& json) {
  namespace fs = std::filesystem;
  const fs::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) fs::create_directories(target.parent_path(), ec);
  std::ofstream out(target, std::ios::binary);
  if (!out) return false;
  out << json;
  return true;
}

std::string dump_chrome_trace(System& sys, const std::string& stem) {
  const char* dir = std::getenv("SG_TRACE_DUMP");
  if (dir == nullptr || dir[0] == '\0') return "";
  const std::string path = (std::filesystem::path(dir) / (stem + ".json")).string();
  return write_chrome_file(path, capture_trace(sys).chrome_json) ? path : "";
}

}  // namespace sg::components
