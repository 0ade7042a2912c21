#include "c3/storage.hpp"

#include "kernel/fault.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace sg::c3 {

using kernel::CallCtx;
using kernel::Value;

namespace {

/// FNV-1a over a stream of 64-bit words; the per-record checksum primitive.
std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (byte * 8)) & 0xff;
    hash *= 1099511628211ULL;
  }
  return hash;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

}  // namespace

StorageComponent::StorageComponent(kernel::Kernel& kernel, CbufManager& cbufs)
    : Component(kernel, "storage", /*image_bytes=*/64 * 1024), cbufs_(cbufs) {}

NsId StorageComponent::intern_ns(const std::string& ns) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = ns_ids_.find(ns);
  if (it != ns_ids_.end()) return it->second;
  const NsId id = static_cast<NsId>(spaces_.size());
  spaces_.push_back(Namespace{ns, {}, {}});
  ns_ids_.emplace(ns, id);
  return id;
}

NsId StorageComponent::find_ns(const std::string& ns) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = ns_ids_.find(ns);
  return it == ns_ids_.end() ? kNoNs : it->second;
}

StorageComponent::Namespace* StorageComponent::space(NsId ns) {
  if (ns < 0 || static_cast<std::size_t>(ns) >= spaces_.size()) return nullptr;
  return &spaces_[static_cast<std::size_t>(ns)];
}

const StorageComponent::Namespace* StorageComponent::space(NsId ns) const {
  if (ns < 0 || static_cast<std::size_t>(ns) >= spaces_.size()) return nullptr;
  return &spaces_[static_cast<std::size_t>(ns)];
}

// --- integrity ----------------------------------------------------------------

std::uint64_t StorageComponent::checksum_desc(NsId ns, Value id,
                                              const DescRecord& record) const {
  std::uint64_t sum = kFnvOffset;
  sum = fnv_mix(sum, static_cast<std::uint64_t>(ns));
  sum = fnv_mix(sum, static_cast<std::uint64_t>(id));
  sum = fnv_mix(sum, static_cast<std::uint64_t>(record.creator));
  sum = fnv_mix(sum, static_cast<std::uint64_t>(record.parent_desc));
  for (const auto& [key, value] : record.meta) {
    sum = fnv_mix(sum, static_cast<std::uint64_t>(hash_id(key)));
    sum = fnv_mix(sum, static_cast<std::uint64_t>(value));
  }
  return sum;
}

std::uint64_t StorageComponent::checksum_data(NsId ns, Value id, const DataSlice& slice) const {
  std::uint64_t sum = kFnvOffset;
  sum = fnv_mix(sum, static_cast<std::uint64_t>(ns) ^ 0x9e3779b97f4a7c15ULL);
  sum = fnv_mix(sum, static_cast<std::uint64_t>(id));
  sum = fnv_mix(sum, static_cast<std::uint64_t>(slice.offset));
  sum = fnv_mix(sum, static_cast<std::uint64_t>(slice.length));
  sum = fnv_mix(sum, static_cast<std::uint64_t>(slice.data));
  return sum;
}

void StorageComponent::announce_eviction(bool is_data, NsId ns, Value id) {
  kernel().trace(trace::EventKind::kStorageEvict, this->id(), is_data ? 1 : 0,
                 static_cast<std::int32_t>(ns), id);
  SG_DEBUG("storage", "checksum eviction of " << (is_data ? "data" : "desc") << " record "
                                              << id << " in ns " << ns);
  if (eviction_hook_) eviction_hook_(is_data, ns, id);
}

StorageComponent::ScrubReport StorageComponent::scrub() {
  maybe_fault();
  ScrubReport report;
  struct Evicted {
    bool is_data;
    NsId ns;
    Value id;
  };
  std::vector<Evicted> evicted;
  {
    std::lock_guard<std::mutex> guard(mu_);
    for (NsId ns = 0; static_cast<std::size_t>(ns) < spaces_.size(); ++ns) {
      Namespace& sp = spaces_[static_cast<std::size_t>(ns)];
      for (auto it = sp.descs.begin(); it != sp.descs.end();) {
        ++report.checked;
        if (it->second.sum != checksum_desc(ns, it->first, it->second.record)) {
          ++report.evicted_descs;
          ++stats_.desc_evictions;
          evicted.push_back({false, ns, it->first});
          it = sp.descs.erase(it);
        } else {
          ++it;
        }
      }
      for (auto it = sp.data.begin(); it != sp.data.end();) {
        ++report.checked;
        if (it->second.sum != checksum_data(ns, it->first, it->second.slice)) {
          ++report.evicted_data;
          ++stats_.data_evictions;
          evicted.push_back({true, ns, it->first});
          it = sp.data.erase(it);
        } else {
          ++it;
        }
      }
    }
    ++stats_.scrubs;
  }
  for (const Evicted& e : evicted) announce_eviction(e.is_data, e.ns, e.id);
  kernel().trace(trace::EventKind::kStorageScrub, this->id(),
                 static_cast<std::int32_t>(report.checked),
                 static_cast<std::int32_t>(report.evicted()));
  return report;
}

bool StorageComponent::corrupt_desc(const std::string& ns, Value desc_id, Value xor_mask) {
  const NsId id = find_ns(ns);
  std::lock_guard<std::mutex> guard(mu_);
  Namespace* sp = space(id);
  if (sp == nullptr) return false;
  auto it = sp->descs.find(desc_id);
  if (it == sp->descs.end()) return false;
  it->second.record.parent_desc ^= xor_mask;  // Checksum deliberately stale.
  return true;
}

bool StorageComponent::corrupt_data(const std::string& ns, Value id, Value xor_mask) {
  const NsId nsid = find_ns(ns);
  std::lock_guard<std::mutex> guard(mu_);
  Namespace* sp = space(nsid);
  if (sp == nullptr) return false;
  auto it = sp->data.find(id);
  if (it == sp->data.end()) return false;
  it->second.slice.length ^= xor_mask;  // Checksum deliberately stale.
  return true;
}

// --- SWIFI --------------------------------------------------------------------

void StorageComponent::enable_fault_injection(kernel::FaultProfile profile, std::uint64_t seed) {
  fault_target_ = true;
  profile_ = profile;
  rng_.reseed(seed);
}

void StorageComponent::maybe_fault() {
  if (!fault_target_) return;
  kernel::Kernel& kern = kernel();
  const kernel::ThreadId thd = kern.current_thread();
  if (thd == kernel::kNoThread) return;  // Boot/root context: no pipeline.
  kernel::RegisterFile& regs = kern.thread_registers(thd);
  if (!regs.armed_for(this->id())) return;  // No flip aimed at storage.
  // A flip is armed against this component: model the handler's pipeline
  // occupancy exactly like the kernel-invoked services do, so the flip can
  // land "inside" storage (tick_op per micro-op).
  CallCtx ctx{kern, thd, kernel::kNoComp, this->id()};
  try {
    kernel::simulate_server_work(ctx, profile_, rng_);
  } catch (const kernel::ComponentFault& fault) {
    // Fail-stop: storage itself crashes. The fault cannot be thrown through
    // the caller (storage is reached by direct call from inside *another*
    // component's handler, which must not be charged for it) — vector it
    // directly: micro-reboot storage, run the coordinator's rebuild hooks,
    // then let the interrupted operation proceed against the fresh store
    // (at-least-once for writes; a miss, i.e. the degraded path, for reads).
    SG_DEBUG("storage", "SWIFI fault in storage: " << fault.what());
    kern.inject_crash(this->id());
  }
  // SystemCrash (stack segfault / hang / propagation) unwinds to the
  // campaign driver for whole-machine classification, as everywhere else.
}

// --- G0: global descriptor registry ------------------------------------------

void StorageComponent::record_desc(NsId ns, Value desc_id, DescRecord record) {
  maybe_fault();
  const std::uint64_t sum = checksum_desc(ns, desc_id, record);
  std::lock_guard<std::mutex> guard(mu_);
  Namespace* sp = space(ns);
  SG_ASSERT_MSG(sp != nullptr, "record_desc on unknown namespace id");
  sp->descs[desc_id] = StoredDesc{std::move(record), sum};
}

void StorageComponent::erase_desc(NsId ns, Value desc_id) {
  maybe_fault();
  std::lock_guard<std::mutex> guard(mu_);
  if (Namespace* sp = space(ns)) sp->descs.erase(desc_id);
}

std::optional<StorageComponent::DescRecord> StorageComponent::lookup_desc(NsId ns,
                                                                          Value desc_id) {
  maybe_fault();
  bool evicted = false;
  std::optional<DescRecord> out;
  {
    std::lock_guard<std::mutex> guard(mu_);
    Namespace* sp = space(ns);
    if (sp == nullptr) return std::nullopt;
    auto it = sp->descs.find(desc_id);
    if (it == sp->descs.end()) return std::nullopt;
    if (it->second.sum != checksum_desc(ns, desc_id, it->second.record)) {
      // Silent corruption caught by the checksum: evict (fail-stop at record
      // granularity) and report a miss so the G0 path degrades to U0/R0.
      ++stats_.desc_evictions;
      sp->descs.erase(it);
      evicted = true;
    } else {
      out = it->second.record;
    }
  }
  if (evicted) announce_eviction(/*is_data=*/false, ns, desc_id);
  return out;
}

std::size_t StorageComponent::desc_count(NsId ns) const {
  std::lock_guard<std::mutex> guard(mu_);
  const Namespace* sp = space(ns);
  return sp == nullptr ? 0 : sp->descs.size();
}

// --- G1: resource data slices -----------------------------------------------

void StorageComponent::store_data(NsId ns, Value id, DataSlice slice) {
  maybe_fault();
  const std::uint64_t sum = checksum_data(ns, id, slice);
  std::lock_guard<std::mutex> guard(mu_);
  Namespace* sp = space(ns);
  SG_ASSERT_MSG(sp != nullptr, "store_data on unknown namespace id");
  sp->data[id] = StoredData{slice, sum};
}

std::optional<StorageComponent::DataSlice> StorageComponent::fetch_data(NsId ns, Value id) {
  maybe_fault();
  bool evicted = false;
  std::optional<DataSlice> out;
  {
    std::lock_guard<std::mutex> guard(mu_);
    Namespace* sp = space(ns);
    if (sp == nullptr) return std::nullopt;
    auto it = sp->data.find(id);
    if (it == sp->data.end()) return std::nullopt;
    if (it->second.sum != checksum_data(ns, id, it->second.slice)) {
      ++stats_.data_evictions;
      sp->data.erase(it);
      evicted = true;
    } else {
      out = it->second.slice;
    }
  }
  if (evicted) {
    announce_eviction(/*is_data=*/true, ns, id);
    return std::nullopt;
  }
  kernel().trace(trace::EventKind::kMechanism, this->id(),
                 static_cast<std::int32_t>(trace::Mechanism::kG1), 0, id);
  return out;
}

void StorageComponent::erase_data(NsId ns, Value id) {
  maybe_fault();
  std::lock_guard<std::mutex> guard(mu_);
  if (Namespace* sp = space(ns)) sp->data.erase(id);
}

std::size_t StorageComponent::data_count(NsId ns) const {
  std::lock_guard<std::mutex> guard(mu_);
  const Namespace* sp = space(ns);
  return sp == nullptr ? 0 : sp->data.size();
}

Value StorageComponent::hash_id(const std::string& path) {
  // FNV-1a, truncated to a non-negative Value.
  std::uint64_t hash = kFnvOffset;
  for (const char c : path) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return static_cast<Value>(hash & 0x7fffffffffffffffULL);
}

void StorageComponent::reset_state() {
  // Drop contents but keep the interning: NsIds resolved before a storage
  // reset stay valid. Eviction stats survive too — they are diagnostics of
  // the substrate, not substrate state.
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& space : spaces_) {
    space.descs.clear();
    space.data.clear();
  }
}

}  // namespace sg::c3
