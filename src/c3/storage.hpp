#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "c3/cbuf.hpp"
#include "c3/ids.hpp"
#include "kernel/component.hpp"
#include "kernel/kernel.hpp"
#include "kernel/regops.hpp"
#include "util/rng.hpp"

namespace sg::c3 {

/// The storage component backing the G0 and G1 recovery mechanisms (§III-C).
///
/// G0 — global descriptors: keeps, per descriptor namespace, the mapping
///   ⟨descriptor id → creator component (+ creation metadata)⟩ so a server
///   stub that sees EINVAL for an unknown global descriptor can find which
///   client to upcall into for recreation.
///
/// G1 — resource data: keeps ⟨id, offset, length, *data⟩ associations where
///   *data is a cbuf reference, redundantly storing resource payloads (e.g.,
///   RamFS file contents) that a state-machine walk alone cannot rebuild.
///
/// Namespaces are interned: stubs and components resolve their service's
/// NsId once (intern_ns) and pass it on every access. Interning survives
/// reset_state — ids handed out before a (simulated) storage fault stay
/// valid.
///
/// Unlike the cbuf manager, the storage component is *not* trusted: it is a
/// fault-injection target and the recovery substrate must survive faults in
/// it (docs/STORAGE.md).
///   - Integrity: every record carries a checksum computed on write and
///     verified on read; a mismatch evicts the record (fail-stop at record
///     granularity), bumps Stats, emits a kStorageEvict trace event and
///     fires the eviction hook. scrub() audits the whole store on demand.
///   - Micro-reboot: a fault wipes the record contents via reset_state; the
///     RecoveryCoordinator then re-materializes G0 records from client-stub
///     state and components lazily re-publish their G1 data.
///   - Fault injection: when a SWIFI flip is armed against this component,
///     every entry point models pipeline occupancy (simulate_server_work)
///     exactly like the six services do, so flips can land "inside" storage
///     even though it is reached by direct call rather than Kernel::invoke.
class StorageComponent final : public kernel::Component {
 public:
  StorageComponent(kernel::Kernel& kernel, CbufManager& cbufs);

  /// Interns `ns`, returning its dense id (stable for the component's life).
  NsId intern_ns(const std::string& ns);
  /// Lookup without interning: kNoNs when the namespace was never interned.
  NsId find_ns(const std::string& ns) const;

  // --- G0: global descriptor registry --------------------------------------
  struct DescRecord {
    kernel::CompId creator;
    kernel::Value parent_desc;  ///< kNoParent (0) when none.
    std::map<std::string, kernel::Value> meta;
  };

  void record_desc(NsId ns, kernel::Value desc_id, DescRecord record);
  void erase_desc(NsId ns, kernel::Value desc_id);
  /// Verifies the record's checksum; a corrupted record is evicted and
  /// reported as a miss (the G0 path then degrades to the U0/R0 fallback).
  std::optional<DescRecord> lookup_desc(NsId ns, kernel::Value desc_id);
  std::size_t desc_count(NsId ns) const;

  // --- G1: resource data slices ---------------------------------------------
  struct DataSlice {
    kernel::Value offset = 0;
    kernel::Value length = 0;
    CbufManager::CbufId data = 0;  ///< Read-only cbuf holding the payload.
  };

  /// Stores/overwrites the slice for `id` within namespace `ns`. `id`
  /// uniquely identifies the resource (e.g., a hash of a file path).
  void store_data(NsId ns, kernel::Value id, DataSlice slice);
  /// Checksum-verified like lookup_desc: corrupt slices are evicted.
  std::optional<DataSlice> fetch_data(NsId ns, kernel::Value id);
  void erase_data(NsId ns, kernel::Value id);
  std::size_t data_count(NsId ns) const;

  /// Stable id for path-named resources (paper: "a hash on its path").
  static kernel::Value hash_id(const std::string& path);

  // --- integrity audit -------------------------------------------------------
  struct ScrubReport {
    std::size_t checked = 0;
    std::size_t evicted_descs = 0;
    std::size_t evicted_data = 0;
    std::size_t evicted() const { return evicted_descs + evicted_data; }
  };
  /// Verifies every stored record against its checksum, evicting corrupted
  /// entries (each eviction traces kStorageEvict and fires the hook) and
  /// emitting one kStorageScrub summary event.
  ScrubReport scrub();

  struct Stats {
    std::uint64_t desc_evictions = 0;
    std::uint64_t data_evictions = 0;
    std::uint64_t scrubs = 0;
  };
  Stats stats() const {
    std::lock_guard<std::mutex> guard(mu_);
    return stats_;
  }

  /// Observes every checksum eviction (lookup, fetch or scrub). The
  /// RecoveryCoordinator uses this to flag degraded recovery.
  using EvictionHook = std::function<void(bool is_data, NsId ns, kernel::Value id)>;
  void set_eviction_hook(EvictionHook hook) { eviction_hook_ = std::move(hook); }

  /// TEST/SWIFI SURFACE: flips bits in a stored record *without* refreshing
  /// its checksum — models silent corruption of the substrate's memory. The
  /// next verified read (or scrub) must detect and evict it. Returns false
  /// if no such record exists.
  bool corrupt_desc(const std::string& ns, kernel::Value desc_id,
                    kernel::Value xor_mask = 0x40);
  bool corrupt_data(const std::string& ns, kernel::Value id, kernel::Value xor_mask = 0x40);

  /// Makes this component a SWIFI target: entry points run the register-file
  /// pipeline model whenever a flip is armed against this component. A fault
  /// manifests fail-stop — the storage component itself crashes and is
  /// micro-rebooted (contents wiped, interning kept) — and the interrupted
  /// operation then proceeds against the fresh store.
  void enable_fault_injection(kernel::FaultProfile profile, std::uint64_t seed);

  void reset_state() override;

 private:
  struct StoredDesc {
    DescRecord record;
    std::uint64_t sum = 0;
  };
  struct StoredData {
    DataSlice slice;
    std::uint64_t sum = 0;
  };
  struct Namespace {
    std::string name;
    std::map<kernel::Value, StoredDesc> descs;
    std::map<kernel::Value, StoredData> data;
  };

  // Both require mu_ held (they return pointers into spaces_).
  Namespace* space(NsId ns);
  const Namespace* space(NsId ns) const;

  std::uint64_t checksum_desc(NsId ns, kernel::Value id, const DescRecord& record) const;
  std::uint64_t checksum_data(NsId ns, kernel::Value id, const DataSlice& slice) const;
  /// Eviction trace + hook. Called with mu_ RELEASED: the hook re-enters the
  /// coordinator (note_degraded) and tracing walks kernel state, neither of
  /// which may nest inside the store lock.
  void announce_eviction(bool is_data, NsId ns, kernel::Value id);

  /// The SWIFI entry-point hook (see enable_fault_injection). Zero work
  /// unless a flip is armed against this component.
  void maybe_fault();

  CbufManager& cbufs_;
  /// Guards spaces_/ns_ids_/stats_ against concurrent handlers at cores>1.
  /// Narrow by design: never held across maybe_fault() (which can vector a
  /// crash and run reboot hooks), the eviction hook, or kernel tracing —
  /// only across the map/stat mutations themselves (docs/KERNEL.md).
  mutable std::mutex mu_;
  std::vector<Namespace> spaces_;         ///< NsId-indexed.
  std::map<std::string, NsId> ns_ids_;
  Stats stats_;
  EvictionHook eviction_hook_;
  bool fault_target_ = false;
  kernel::FaultProfile profile_;
  Rng rng_{0};
};

}  // namespace sg::c3
