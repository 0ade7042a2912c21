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

/// Writes the System's trace as Chrome trace_event JSON into the directory
/// named by SG_TRACE_DUMP (created if missing) as `<stem>.json`, or to
/// `<stem>` verbatim if it names a .json path. Returns the path written, or
/// "" if SG_TRACE_DUMP is unset/empty and `path_override` is empty.
std::string dump_chrome_trace(System& sys, const std::string& stem,
                              const std::string& path_override = "");

}  // namespace sg::components
