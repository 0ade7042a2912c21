#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "c3/ids.hpp"
#include "kernel/types.hpp"

namespace sg::trace {

/// Every observable step of the fault-tolerance machinery, as a dense enum.
/// The per-kind payload lives in the Event's generic a/b/c/d slots; the
/// schema below (and docs/TRACING.md) documents the packing per kind.
enum class EventKind : std::uint8_t {
  // --- kernel ---------------------------------------------------------------
  kInvokeEnter,   ///< Dispatch entered `comp` (after the admission gate);
                  ///< c=client. Under an exploration policy d=crash choice
                  ///< point number + 1 (0: no policy consulted) — the
                  ///< commutation metadata the explorer's DPOR uses to map
                  ///< dispatched invocations back to crash points.
  kInvokeReturn,  ///< Dispatch left `comp`; a: 0=ok, 1=fault, 2=unwound.
  kFault,         ///< Fail-stop fault vectored for `comp`.
  kMicroReboot,   ///< `comp` micro-rebooted; a=new fault epoch.
  kQuarantine,    ///< `comp` taken out of service.
  kReadmit,       ///< `comp` readmitted at the kernel admission gate.
  kHold,          ///< Backoff hold on `comp`; c=release virtual time.
  kBlock,         ///< `thd` blocked inside `comp`; a: 0=plain, 1=timed.
  kWake,          ///< `thd` woke thread c; a: 1=recovery (T0) wake.
  // --- C3 descriptor tracking & recovery walks ------------------------------
  kDescSigma,     ///< σ transition of descriptor c: a=from, b=to, d=fn.
  kWalkBegin,     ///< R0 walk of descriptor c: a=expected state, b=walk land.
  kWalkStep,      ///< Walk fn d replayed on descriptor c: a=from, b=to.
  kWalkEnd,       ///< Walk of descriptor c landed in state a.
  kWalkAbort,     ///< Walk of descriptor c abandoned (nested fault).
  kMechanism,     ///< Mechanism a (Mechanism enum) fired; c=aux (vid/thread).
  // --- recovery supervisor --------------------------------------------------
  kSupFault,        ///< Top-level fault charged to `comp`; a=current level.
  kSupNestedFault,  ///< Fault while a recovery was already running.
  kSupTrip,         ///< Crash-loop window tripped; a=level, b=total trips.
  kSupEscalate,     ///< Escalation level raised to a.
  kSupGroupReboot,  ///< Group reboot of `comp` + declared dependents begins.
  kSupGroupMember,  ///< `comp` rebooted as a member of d's group.
  kSupReadmit,      ///< Manual readmit of `comp`.
  // --- latent-fault monitor -------------------------------------------------
  kCmonDetect,  ///< cmon declared `comp` latently faulty; a=stale windows.
  // --- recovery substrate (G0/G1 storage component) -------------------------
  kStorageEvict,         ///< Checksum mismatch evicted a record; a: 0=desc,
                         ///< 1=data, b=namespace id, c=record id.
  kStorageScrub,         ///< scrub() audit pass finished; a=records checked,
                         ///< b=records evicted.
  kStorageRebuildBegin,  ///< G0 re-materialization after a storage reboot
                         ///< begins; a=storage fault epoch.
  kStorageRebuildEnd,    ///< Rebuild done; a=creator records re-published.
  kSchedPick,            ///< Exploration policy resolved a scheduling choice
                         ///< point; a=picked candidate index, b=candidate
                         ///< count, c=picked thread id, d=choice number.
  kSchedCrash,           ///< Exploration policy injected a crash at an invoke
                         ///< boundary; comp=victim, d=server being invoked.
  // --- recovery domains (cores>1 only; never emitted on a single-runner
  // kernel, so cores=1 traces are byte-identical to the pre-domain stream) --
  kDomainAcquire,  ///< Recovery domain claimed; comp=faulted root (kNoComp
                   ///< for a bare machine token), a=closure size (0=whole
                   ///< machine), b=active recoveries after the claim,
                   ///< c=owner id, d=acquisition seq.
  kDomainRelease,  ///< Recovery domain released; comp=root, a: 1=held the
                   ///< machine, b=active recoveries remaining, c=owner,
                   ///< d=acquisition seq.
  kDomainEscalate, ///< Domain escalated toward the whole machine; comp=the
                   ///< component that triggered it (kNoComp for a machine
                   ///< token take), a=reason (0=overlapping closure, 1=group
                   ///< reboot, 2=quarantine, 3=nested fault outside the
                   ///< closure, 4=machine token, 5=storage rebuild),
                   ///< b=active recoveries, c=owner, d=seq (0: not yet
                   ///< acquired — a fresh fault whose closure overlapped).
};

const char* to_string(EventKind kind);

/// The interface-driven recovery mechanisms of §III-C: the one enum both a
/// kMechanism event's `a` and an interface's selected set (c3::MechanismSet)
/// use. SuperGlue's model maps each interface's descriptor-resource
/// parameters to the subset of these its recovery requires.
enum class Mechanism : std::int32_t {
  kR0,  ///< Base state-machine walk from s_f to the expected state.
  kT0,  ///< Eager wakeup of blocked threads at fault time (iff B_r).
  kT1,  ///< On-demand, priority-correct recovery of descriptors.
  kD0,  ///< Children reconstructed before recursive revocation (iff C_dr).
  kD1,  ///< Parents recovered before children (iff P_dr != Solo).
  kG0,  ///< Global-descriptor recovery through the storage component.
  kG1,  ///< Resource data restored from the storage component.
  kU0,  ///< Upcalls into client components to rebuild descriptor state.
};

const char* to_string(Mechanism mech);

/// One fixed-size POD record. `seq` is the event's index in its System's
/// log, a total order (a causal one because the simulated kernel runs
/// exactly one thread at any instant); `at` is virtual time, so traces of a
/// seeded run are bit-identical across hosts.
struct Event {
  std::uint64_t seq = 0;
  kernel::VirtualTime at = 0;
  std::int64_t c = 0;  ///< Kind-specific payload (descriptor vid, thread, ...).
  std::int64_t d = 0;  ///< Kind-specific payload (fn id, group root, ...).
  kernel::CompId comp = kernel::kNoComp;
  kernel::ThreadId thd = kernel::kNoThread;
  std::int32_t a = 0;
  std::int32_t b = 0;
  EventKind kind = EventKind::kInvokeEnter;
};

/// Maps component ids to names for human-readable output; unknown/absent
/// mappings render as "#<id>".
using NameFn = std::function<std::string(kernel::CompId)>;

/// The event log: one chunked log per System, in seq order by construction.
/// record() takes the next seq from an atomic counter and stores the event at
/// slot `seq mod capacity`, so writers on different simulated cores need no
/// lock and snapshot() needs no merge. When the runtime toggle is off,
/// record() costs one relaxed atomic load and a predicted branch (sgbench's
/// trace.record_off_ns).
///
/// The log takes memory in chunks of kChunkEvents as events arrive: the first
/// writer to reach a chunk allocates it and publishes it with a
/// compare-and-swap, so a System that records a handful of events holds one
/// chunk, not its capacity.
///
/// Overflow policy: the log keeps the newest `capacity` events of the whole
/// stream and evicts the oldest; dropped() (and a snapshot) reports how many
/// so consumers (the invariant checker) can switch to truncation-lenient
/// interpretation instead of reporting false violations.
class Tracer {
 public:
  /// Cap on one log: the most events it holds before it wraps. 2^20 events
  /// (48 MiB, taken chunk by chunk) hold the longest traced runs whole: a
  /// 125 ms sgbench web run records ~76k events, bench_fig7_webserver's
  /// 400 ms open-loop run ~251k and its 1 s default ~627k.
  static constexpr std::size_t kDefaultCapacity = 1u << 20;
  /// Allocation unit of the log (12 KiB of events).
  static constexpr std::size_t kChunkEvents = 256;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The SG_TRACE runtime toggle (also settable via the environment:
  /// SG_TRACE=1 makes freshly constructed tracers start enabled).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  static bool env_enabled();

  /// Hot-path entry: drops straight out when tracing is disabled.
  void record(kernel::VirtualTime at, EventKind kind, kernel::CompId comp,
              kernel::ThreadId thd, std::int32_t a = 0, std::int32_t b = 0,
              std::int64_t c = 0, std::int64_t d = 0) {
    if (!enabled()) return;
    Event ev;
    ev.at = at;
    ev.c = c;
    ev.d = d;
    ev.comp = comp;
    ev.thd = thd;
    ev.a = a;
    ev.b = b;
    ev.kind = kind;
    record_slow(ev);
  }

  /// Seq-ordered copy of the kept events, plus the overflow count. Also the
  /// in-memory query API the tests drive.
  struct Snapshot {
    std::vector<Event> events;  ///< Ascending seq.
    std::uint64_t dropped = 0;  ///< Oldest events evicted by log overflow.

    bool truncated() const { return dropped != 0; }
    std::size_t count(EventKind kind, kernel::CompId comp = kernel::kNoComp) const;
    std::vector<Event> of_comp(kernel::CompId comp) const;
    std::vector<Event> of_kind(EventKind kind) const;
    /// First event of `kind` (for `comp` if given), or nullptr.
    const Event* first(EventKind kind, kernel::CompId comp = kernel::kNoComp) const;
  };
  /// Call only while no thread records: the run's end (a join, or the
  /// kernel's hand-off between simulated threads) orders the writes first.
  Snapshot snapshot() const;

  /// Calls `visit(event)` on each kept event in ascending seq, in place: the
  /// events snapshot() copies, walked in the same chunk runs, without the
  /// copy. Same calling rule as snapshot().
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for_each_run([&visit](const Event* run, std::size_t count) {
      for (const Event* ev = run; ev != run + count; ++ev) visit(*ev);
    });
  }

  /// Events recorded since construction or the last set_capacity().
  std::uint64_t recorded() const { return seq_.load(std::memory_order_relaxed); }
  /// The oldest of them, evicted by log overflow (Snapshot::dropped).
  std::uint64_t dropped() const;

  /// Sets the capacity, discarding every event and chunk and restarting seq
  /// at 0. Tests use tiny capacities to exercise the overflow policy. Not
  /// concurrent with record().
  void set_capacity(std::size_t capacity);

 private:
  void record_slow(Event ev);
  /// Calls `visit(first, count)` per run of kept events that is contiguous
  /// in one chunk, oldest run first.
  void for_each_run(const std::function<void(const Event*, std::size_t)>& visit) const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> seq_{0};  ///< Events ever recorded.
  std::size_t capacity_ = 0;
  /// Slot i lives at chunks_[i / kChunkEvents][i % kChunkEvents]; a chunk is
  /// null until the first event lands in it.
  std::vector<std::atomic<Event*>> chunks_;
};

/// One line per event with virtual timestamps normalized to deltas — the
/// byte-stable form the golden and determinism tests compare.
std::string format_normalized(const std::vector<Event>& events, const NameFn& names = {});

/// Human-readable single-event rendering (the per-line body of
/// format_normalized, without the delta prefix).
std::string describe(const Event& event, const NameFn& names = {});

/// Chrome `trace_event` JSON (load via chrome://tracing or ui.perfetto.dev).
/// Invocations become B/E duration pairs per thread track; everything else
/// becomes instant events. `ts` is virtual microseconds.
void write_chrome_trace(std::ostream& out, const Tracer::Snapshot& snap,
                        const NameFn& names = {});

}  // namespace sg::trace
