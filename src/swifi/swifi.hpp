#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "components/system.hpp"
#include "components/trace_check.hpp"
#include "util/rng.hpp"

namespace sg::swifi {

/// Classification of one injected fault, following Table II's columns.
enum class Outcome {
  kRecovered,   ///< Activated and successfully recovered by SuperGlue/C3.
  kDegraded,    ///< Recovery completed but explicitly leaned on a fallback
                ///< because the G0/G1 substrate lost state (docs/STORAGE.md);
                ///< the workload observed the loss. Not in the paper's
                ///< Table II — it appears once storage is itself a target.
  kSegfault,    ///< Not recovered: the system exited with a segfault.
  kPropagated,  ///< Not recovered: corruption escaped into a client.
  kOther,       ///< Not recovered: hang / lost wakeup / fault during recovery.
  kUndetected,  ///< The flip had no observable effect (dead or overwritten).
};

const char* to_string(Outcome outcome);

struct CampaignConfig {
  std::uint64_t seed = 2016;
  components::FtMode mode = components::FtMode::kSuperGlue;
  c3::RecoveryPolicy policy = c3::RecoveryPolicy::kOnDemand;
  /// Trace every episode and run the recovery-invariant checker on its event
  /// stream (the determinism test and --trace=FILE use the captured streams).
  bool trace = false;
};

/// How an episode's fault is delivered.
enum class InjectionProfile {
  kRegisterFlip,   ///< §V-A single-bit register flip while inside the target.
  kFailStop,       ///< One clean detected fail-stop fault (inject_crash).
  kFailStopBurst,  ///< A burst of fail-stop faults in quick succession — the
                   ///< crash-loop shape that exercises supervisor escalation.
};

const char* to_string(InjectionProfile profile);

/// The per-episode seed is a pure function of (master seed, cell tag,
/// episode index): independent of worker count, shard boundaries, and the
/// order episodes are pulled off the shared work queue. `cell` names the
/// campaign cell, e.g. "ramfs/register-flip".
std::uint64_t episode_seed(std::uint64_t master, const std::string& cell, std::uint64_t episode);

/// Knobs the million-injection campaign layers on top of the Table II
/// episode. Defaults reproduce run_episode() exactly.
struct EpisodeOptions {
  InjectionProfile profile = InjectionProfile::kRegisterFlip;
  /// Workload iterations per episode; 0 keeps the workload default (400).
  /// Campaign runs use a smaller count — injection delays and observation
  /// windows scale proportionally so flips still land mid-workload.
  int workload_iterations = 0;
  /// Trace the episode and run the recovery-invariant checker on its stream
  /// (violations land in EpisodeResult::invariant_violations).
  bool check_invariants = false;
  /// Recovery-supervisor policy for the episode's System. The default is
  /// transparent; campaigns with escalation enabled can observe Quarantined
  /// outcomes.
  supervisor::Policy supervision;
  /// Kernel cores for the episode's System. Campaign determinism (episode
  /// seeds -> byte-identical aggregates) requires 1 — parallelism comes from
  /// sharding whole Systems across workers, never from within an episode.
  /// The multi-core bench mode raises it deliberately (docs/KERNEL.md).
  int cores = 1;
};

/// Everything the campaign's outcome tallies are derived from.
struct EpisodeResult {
  Outcome outcome = Outcome::kUndetected;
  bool crashed = false;  ///< The whole system went down (SystemCrash).
  kernel::CrashKind crash_kind = kernel::CrashKind::kStackSegfault;  ///< Valid iff crashed.
  bool quarantined = false;  ///< The target ended the episode quarantined.
  int invariant_violations = 0;   ///< From check_invariants.
  kernel::VirtualTime virtual_end = 0;  ///< Episode length in virtual time.
};

/// What an episode's tracer captured, for the invariant checker, the
/// determinism tests, and --trace exports.
struct EpisodeTrace : components::TraceCapture {
  std::vector<std::string> violations;  ///< Recovery-invariant violations.
};

/// Runs the SWIFI episodes of §V-D: for each injection, a fresh system
/// boots ("after each workload execution, the system is rebooted to clear
/// any residual errors"), the component's workload runs, a SWIFI context
/// arms a single random register bit flip (mask 0xFFFFFFFF over the six
/// GPRs + ESP + EBP) that lands while a thread executes inside the target
/// component, and the episode's outcome is classified. campaign::run shards
/// whole campaigns of these episodes (Table II included) across workers.
class Campaign {
 public:
  explicit Campaign(CampaignConfig config) : config_(config) {}

  /// One injection episode; exposed for tests. `episode` seeds determinism.
  /// With config.trace set, `trace_out` (when non-null) receives the
  /// episode's event streams and any invariant violations.
  Outcome run_episode(const std::string& service, std::uint64_t episode,
                      EpisodeTrace* trace_out = nullptr);

  /// The full-detail episode the campaign runner drives: `seed` is the
  /// episode's System seed (see episode_seed), and `options` selects the
  /// injection profile, workload scale, invariant checking, and supervision.
  /// Thread-safe: concurrent calls on one Campaign run disjoint Systems.
  EpisodeResult run_episode_detail(const std::string& service, std::uint64_t seed,
                                   const EpisodeOptions& options,
                                   EpisodeTrace* trace_out = nullptr) const;

 private:
  CampaignConfig config_;
};

}  // namespace sg::swifi
