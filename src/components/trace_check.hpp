#pragma once

#include <string>
#include <vector>

#include "components/system.hpp"
#include "trace/invariants.hpp"
#include "trace/trace.hpp"

namespace sg::components {

/// Component-id -> name mapping for a System's machine, for human-readable
/// trace rendering. Built eagerly so the returned function stays valid even
/// while simulated threads run.
trace::NameFn comp_namer(System& sys);

/// Invariant-checker hooks wired from the System's model knowledge: σ
/// matrices from the recovery coordinator's compiled specs, the dependency
/// graph from the supervisor, quarantine state from the kernel. The hooks
/// borrow the System; use them only while it is alive.
trace::CheckerHooks checker_hooks(System& sys);

/// Runs the invariant checker over every event the System's tracer keeps,
/// walking the log in place. Returns the violations (empty == the recovery
/// paths were sound). When the log overflowed the checker runs in
/// truncation-lenient mode.
std::vector<std::string> check_recovery_invariants(System& sys);

/// One capture of the events the System's tracer keeps, in the two forms
/// the repo renders: the normalized text (determinism tests, explorer
/// repros) and Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev).
struct TraceCapture {
  std::string normalized;   ///< format_normalized of the kept events.
  std::string chrome_json;  ///< Chrome trace_event export.
  bool truncated = false;   ///< Log overflow dropped the oldest events.
};
TraceCapture capture_trace(System& sys);

/// Writes Chrome trace_event JSON text to `path`, creating its parent
/// directory if missing. Returns false if the file cannot be opened.
bool write_chrome_file(const std::string& path, const std::string& json);

/// Writes the System's trace as Chrome trace_event JSON into the directory
/// named by SG_TRACE_DUMP as `<stem>.json`. Returns the path written, or ""
/// if SG_TRACE_DUMP is unset/empty or the file cannot be written.
std::string dump_chrome_trace(System& sys, const std::string& stem);

}  // namespace sg::components
