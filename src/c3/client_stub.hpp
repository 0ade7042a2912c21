#pragma once

#include <cstdint>
#include <string>

#include "c3/desc_track.hpp"
#include "c3/interface_spec.hpp"
#include "c3/invoker.hpp"
#include "c3/storage.hpp"
#include "kernel/component.hpp"
#include "kernel/kernel.hpp"

namespace sg::c3 {

/// Counters exposed for the micro-benchmarks (Fig 6) and tests.
struct StubStats {
  std::uint64_t calls = 0;
  std::uint64_t tracked_creates = 0;
  std::uint64_t transitions = 0;
  std::uint64_t redos = 0;            ///< Fig 4 `goto redo` executions.
  std::uint64_t recoveries = 0;       ///< Descriptors walked back from s_f.
  std::uint64_t walk_fns = 0;         ///< Interface fns replayed during walks.
  std::uint64_t invalid_transitions = 0;  ///< SM-based fault detections.
  std::uint64_t upcall_recreates = 0;     ///< U0 recreations served.
  std::uint64_t deferred_commits = 0;     ///< SM commits skipped: raced a peer's.
};

/// The generated/interpreted *client-side* interface stub: the dotted
/// rectangle of Fig 1(b). One instance lives in each client component per
/// server interface. It implements the Fig 4 invocation template —
///
///   redo:  desc bookkeeping -> invoke -> on fault: CSTUB_FAULT_UPDATE,
///          state-machine recovery, goto redo -> track results
///
/// — driven entirely by the InterfaceSpec the SuperGlue compiler produced,
/// in its compiled (interned-id) form: per-invocation work is array indexing
/// into the spec's flat tables, never string map lookups.
///
/// Recovery ABI: when replaying a creation fn, the stub appends the
/// descriptor's previous server id as one extra trailing argument (the "id
/// hint"); servers reuse it so global descriptor ids stay stable (G0).
class ClientStub final : public Invoker {
 public:
  ClientStub(kernel::Kernel& kernel, kernel::Component& client, kernel::CompId server,
             const InterfaceSpec& spec, StorageComponent* storage);

  ClientStub(const ClientStub&) = delete;
  ClientStub& operator=(const ClientStub&) = delete;

  /// Interns into the spec's declaration-order fn id space.
  FnId resolve(const std::string& fn) override;

  /// Invokes `fn` through the fault-aware stub path (Fig 4).
  kernel::Value call_id(FnId fn, const kernel::Args& args) override;

  /// CSTUB_FAULT_UPDATE: syncs the fault epoch; on change, transitions every
  /// tracked descriptor to s_f (recovered lazily, T1).
  void fault_update();

  /// Eager variant: recover every tracked descriptor right now (C3's eager
  /// mode; used for the eager-vs-on-demand ablation).
  void recover_all();

  /// U0 entry: recreate descriptor `vid` in the server (invoked via the
  /// `sg_recreate_<service>` upcall the ctor exports on the client).
  kernel::Value recreate_by_vid(kernel::Value vid);

  /// G0 rebuild path: after a fault in the *storage* component wiped its
  /// contents, re-record the creator entry for every live tracked descriptor
  /// from this stub's own state. Returns the number of records re-published.
  /// Zero-cost (and zero) for stubs that do not keep creator records.
  std::size_t republish_creators();

  const InterfaceSpec& spec() const { return spec_; }
  DescTable& table() { return table_; }
  const DescTable& table() const { return table_; }
  const StubStats& stats() const { return stats_; }
  kernel::CompId client_id() const { return client_.id(); }

  /// Name of the upcall exported on the client component for U0 recreation.
  static std::string recreate_fn_name(const std::string& service);

  /// Fault-regression knobs for the schedule explorer (tests only): each flag
  /// re-opens one historical race window so `explore::Explorer` can prove it
  /// rediscovers the bug from scratch. Process-global; never set in production
  /// code. See tests/explore_test.cpp.
  struct TestKnobs {
    /// PR 1 regression: skip the per-descriptor in-flight-recovery wait, so a
    /// second thread can race past a peer's half-done recovery walk.
    bool disable_walk_guard = false;
    /// PR 4 regression: drop the `last_epoch_` term from the EINVAL redo
    /// check, re-opening the fault-after-walk-before-retry window.
    bool disable_epoch_redo_check = false;
  };
  static TestKnobs test_knobs;

 private:
  /// Recovers `desc` (and, D1, its parents) if it is in s_f. Bounded retries;
  /// escalates to SystemCrash(kDoubleFault) if recovery itself keeps faulting.
  void ensure_recovered(TrackedDesc& desc, int depth = 0);

  /// One recovery attempt: creation replay (+ id hint), sm_restore fns, then
  /// the precomputed R0 walk. Throws RecoveryFaulted (internal) on fault.
  void recover_once(TrackedDesc& desc, int depth);

  /// D0: before a terminal fn on a subtree root, rebuild all (faulty)
  /// descendants so the server-side revocation has its side effects.
  void recover_subtree(TrackedDesc& desc);

  /// Builds the argument vector for replaying `fn` on `desc` from tracked
  /// state (desc/parent ids, D_dr data, client id).
  kernel::Args build_replay_args(FnId fn, const TrackedDesc& desc);

  /// The declared name of `fn`, as the kernel dispatches it.
  const std::string& fn_name(FnId fn) const {
    return spec_.fns[static_cast<std::size_t>(fn)].name;
  }

  /// Direct invocation used by recovery paths (no re-entrant tracking).
  kernel::Value recovery_invoke(FnId fn, const kernel::Args& args);

  /// `pre_seq` is the descriptor's commit_seq sampled just before the
  /// invocation went on the wire (0 when no descriptor was tracked).
  void track_result(FnId fn_id, const CompiledFn& fn, const kernel::Args& args,
                    kernel::Value ret, std::uint64_t pre_seq);

  /// G0/U0 bookkeeping: (re)records this descriptor's creator in storage.
  void record_creator(const TrackedDesc& desc);

  kernel::Kernel& kernel_;
  kernel::Component& client_;
  kernel::CompId server_;
  const InterfaceSpec& spec_;
  const CompiledRuntime& rt_;  ///< spec_.compiled().
  StorageComponent* storage_;  ///< Required iff the spec uses G0/G1.
  NsId storage_ns_ = kNoNs;    ///< Interned storage namespace for the service.
  bool records_creators_ = false;  ///< G_dr or XCParent: keep creator records.
  DescTable table_;
  int last_epoch_ = 0;
  StubStats stats_;
};

}  // namespace sg::c3
