#include "swifi/swifi.hpp"

#include <sstream>

#include "c3stubs/c3_stubs.hpp"
#include "components/trace_check.hpp"
#include "swifi/workloads.hpp"
#include "util/assert.hpp"

namespace sg::swifi {

using components::FtMode;
using components::System;
using components::SystemConfig;
using kernel::Reg;
using kernel::ThreadId;

const char* to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kRecovered: return "recovered";
    case Outcome::kDegraded: return "degraded";
    case Outcome::kSegfault: return "segfault";
    case Outcome::kPropagated: return "propagated";
    case Outcome::kOther: return "other";
    case Outcome::kUndetected: return "undetected";
  }
  return "?";
}

const char* to_string(InjectionProfile profile) {
  switch (profile) {
    case InjectionProfile::kRegisterFlip: return "register-flip";
    case InjectionProfile::kFailStop: return "fail-stop";
    case InjectionProfile::kFailStopBurst: return "fail-stop-burst";
  }
  return "?";
}

std::uint64_t episode_seed(std::uint64_t master, const std::string& cell, std::uint64_t episode) {
  // FNV-1a over the cell tag, then two splitmix64 finalization rounds over
  // (master, tag, episode). Workers pulling episodes off a shared index in
  // any order and any shard width reconstruct identical seeds.
  std::uint64_t tag = 0xcbf29ce484222325ULL;
  for (const char c : cell) {
    tag ^= static_cast<unsigned char>(c);
    tag *= 0x100000001b3ULL;
  }
  std::uint64_t x = master ^ tag ^ (episode * 0x9e3779b97f4a7c15ULL);
  for (int round = 0; round < 2; ++round) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
  }
  return x;
}

Outcome Campaign::run_episode(const std::string& service, std::uint64_t episode,
                              EpisodeTrace* trace_out) {
  // The historical Table II seed derivation, kept bit-for-bit so golden
  // traces and the determinism tests survive the run_episode_detail split.
  const std::uint64_t seed = config_.seed ^ (episode * 0x9e3779b97f4a7c15ULL);
  return run_episode_detail(service, seed, EpisodeOptions{}, trace_out).outcome;
}

EpisodeResult Campaign::run_episode_detail(const std::string& service, std::uint64_t seed,
                                           const EpisodeOptions& options,
                                           EpisodeTrace* trace_out) const {
  // Fresh machine per injection: "after each workload execution, the system
  // is rebooted to clear any residual errors before the next run" (§V-D).
  SystemConfig sys_config;
  sys_config.seed = seed;
  sys_config.mode = config_.mode;
  sys_config.policy = config_.policy;
  sys_config.supervision = options.supervision;
  sys_config.cores = options.cores;
  sys_config.trace = config_.trace || options.check_invariants || sys_config.trace;
  System sys(sys_config);
  if (config_.mode == FtMode::kC3) c3stubs::install_c3_stubs(sys);

  WorkloadState state;
  if (options.workload_iterations > 0) state.target_iterations = options.workload_iterations;
  install_workload(sys, service, state);
  SG_ASSERT(!state.victims.empty());

  auto& kern = sys.kernel();
  const kernel::CompId target = sys.service_component(service).id();

  // Campaign episodes run shortened workloads; every injection delay and
  // observation window scales by the same factor so flips still land
  // mid-workload. scale == 1 reproduces the historical timing exactly.
  const double scale =
      options.workload_iterations > 0
          ? static_cast<double>(options.workload_iterations) / WorkloadState{}.target_iterations
          : 1.0;
  auto scaled = [scale](kernel::VirtualTime dur) {
    const auto v = static_cast<kernel::VirtualTime>(static_cast<double>(dur) * scale);
    return v > 0 ? v : 1;
  };

  Rng rng(seed ^ 0xdead10cc);
  bool flip_applied = false;

  // The SWIFI context: highest priority, periodically scheduled via the
  // virtual clock (the paper's separate injector component). The register
  // profile arms one single-bit flip (fault mask 0xFFFFFFFF: any of 32 bits;
  // any of the 8 registers, §V-A) that materializes while the victim
  // executes inside the target component; the fail-stop profiles deliver
  // clean detected faults instead.
  kern.thd_create("swifi", 2, [&, options] {
    kern.block_current_until(kern.clock().now() + scaled(60) + rng.next_below(scaled(300)));
    switch (options.profile) {
      case InjectionProfile::kRegisterFlip: {
        const ThreadId victim =
            state.victims[static_cast<std::size_t>(rng.next_below(state.victims.size()))];
        const Reg reg = static_cast<Reg>(rng.next_below(kernel::kNumRegisters));
        const int bit = static_cast<int>(rng.next_below(kernel::kRegisterBits));
        const int delay_ops = static_cast<int>(rng.next_below(24));
        kernel::RegisterFile& regs = kern.thread_registers(victim);
        regs.arm_flip(target, reg, bit, delay_ops);
        // Observe until the flip lands or the workload finishes.
        for (int window = 0; window < 64; ++window) {
          kern.block_current_until(kern.clock().now() + scaled(120));
          if (regs.flip_was_applied()) {
            flip_applied = true;
            break;
          }
          if (state.done()) break;
        }
        flip_applied = flip_applied || regs.flip_was_applied();
        return;
      }
      case InjectionProfile::kFailStop:
        kern.inject_crash(target);
        flip_applied = true;
        return;
      case InjectionProfile::kFailStopBurst:
        // Tightly spaced fail-stops: the crash-loop signature a supervisor
        // policy should trip on (and escalate through) within one window.
        // Seven shots are enough to reach quarantine under an aggressive
        // policy (threshold 3, one trip per level: 3 -> group, 6 -> out).
        for (int burst = 0; burst < 7; ++burst) {
          if (kern.is_quarantined(target)) break;
          kern.inject_crash(target);
          flip_applied = true;
          kern.block_current_until(kern.clock().now() + scaled(30));
        }
        return;
    }
  });

  EpisodeResult result;
  // Single exit so the episode's trace is captured on every path, including
  // whole-system crashes (exactly the episodes worth post-morteming).
  auto finalize = [&](Outcome outcome, bool crashed) {
    result.outcome = outcome;
    result.crashed = crashed;
    result.quarantined = kern.is_quarantined(target);
    result.virtual_end = kern.clock().now();
    // A crash stops the log mid-recovery; the invariants only promise
    // anything about runs the machine survived. A captured trace is checked
    // even when the options do not ask for it.
    if (!sys.config().trace) return result;
    if (!crashed && (options.check_invariants || trace_out != nullptr)) {
      const auto violations = components::check_recovery_invariants(sys);
      result.invariant_violations = static_cast<int>(violations.size());
      if (trace_out != nullptr) trace_out->violations = violations;
    }
    if (trace_out != nullptr) {
      const trace::Tracer::Snapshot snap = kern.tracer().snapshot();
      const trace::NameFn names = components::comp_namer(sys);
      trace_out->normalized = trace::format_normalized(snap.events, names);
      std::ostringstream json;
      trace::write_chrome_trace(json, snap, names);
      trace_out->chrome_json = json.str();
      trace_out->truncated = snap.truncated();
    }
    return result;
  };

  const int reboots_before = kern.total_reboots();
  try {
    kern.run();
  } catch (const kernel::SystemCrash& crash) {
    result.crash_kind = crash.kind();
    switch (crash.kind()) {
      case kernel::CrashKind::kStackSegfault:
        return finalize(Outcome::kSegfault, true);
      case kernel::CrashKind::kPropagated:
        return finalize(Outcome::kPropagated, true);
      case kernel::CrashKind::kHang:
      case kernel::CrashKind::kDeadlock:
      case kernel::CrashKind::kDoubleFault:
      case kernel::CrashKind::kQuarantined:
        return finalize(Outcome::kOther, true);
    }
    return finalize(Outcome::kOther, true);
  }

  for (const ThreadId victim : state.victims) {
    flip_applied = flip_applied || kern.thread_registers(victim).flip_was_applied();
  }
  if (!flip_applied) return finalize(Outcome::kUndetected, false);
  if (kern.total_reboots() > reboots_before) {
    // The fault was detected and a micro-reboot + interface-driven recovery
    // ran; success means the workload then completed with its invariants
    // intact ("continued execution that abides by the target component and
    // workload specifications post-recovery", §V-D). A workload failure the
    // coordinator explicitly flagged as degraded (the substrate lost state
    // and recovery fell back) is reported as such, not lumped into "other".
    if (state.correct && state.done()) return finalize(Outcome::kRecovered, false);
    if (sys.coordinator().degraded()) return finalize(Outcome::kDegraded, false);
    return finalize(Outcome::kOther, false);
  }
  // The flip landed but was absorbed (dead register or overwritten value).
  return finalize(Outcome::kUndetected, false);
}

}  // namespace sg::swifi
