#include "trace/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>

namespace sg::trace {

namespace {

std::string comp_name(kernel::CompId comp, const NameFn& names) {
  if (comp == kernel::kNoComp) return "-";
  if (names) {
    std::string name = names(comp);
    if (!name.empty()) return name;
  }
  return "#" + std::to_string(comp);
}

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kInvokeEnter: return "invoke-enter";
    case EventKind::kInvokeReturn: return "invoke-return";
    case EventKind::kFault: return "fault";
    case EventKind::kMicroReboot: return "micro-reboot";
    case EventKind::kQuarantine: return "quarantine";
    case EventKind::kReadmit: return "readmit";
    case EventKind::kHold: return "hold";
    case EventKind::kBlock: return "block";
    case EventKind::kWake: return "wake";
    case EventKind::kDescSigma: return "desc-sigma";
    case EventKind::kWalkBegin: return "walk-begin";
    case EventKind::kWalkStep: return "walk-step";
    case EventKind::kWalkEnd: return "walk-end";
    case EventKind::kWalkAbort: return "walk-abort";
    case EventKind::kMechanism: return "mechanism";
    case EventKind::kSupFault: return "sup-fault";
    case EventKind::kSupNestedFault: return "sup-nested-fault";
    case EventKind::kSupTrip: return "sup-trip";
    case EventKind::kSupEscalate: return "sup-escalate";
    case EventKind::kSupGroupReboot: return "sup-group-reboot";
    case EventKind::kSupGroupMember: return "sup-group-member";
    case EventKind::kSupReadmit: return "sup-readmit";
    case EventKind::kCmonDetect: return "cmon-detect";
    case EventKind::kStorageEvict: return "storage-evict";
    case EventKind::kStorageScrub: return "storage-scrub";
    case EventKind::kStorageRebuildBegin: return "storage-rebuild-begin";
    case EventKind::kStorageRebuildEnd: return "storage-rebuild-end";
    case EventKind::kSchedPick: return "sched-pick";
    case EventKind::kSchedCrash: return "sched-crash";
    case EventKind::kDomainAcquire: return "domain-acquire";
    case EventKind::kDomainRelease: return "domain-release";
    case EventKind::kDomainEscalate: return "domain-escalate";
  }
  return "?";
}

const char* to_string(Mechanism mech) {
  switch (mech) {
    case Mechanism::kR0: return "R0";
    case Mechanism::kT0: return "T0";
    case Mechanism::kT1: return "T1";
    case Mechanism::kD0: return "D0";
    case Mechanism::kD1: return "D1";
    case Mechanism::kG0: return "G0";
    case Mechanism::kG1: return "G1";
    case Mechanism::kU0: return "U0";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(std::size_t capacity) {
  set_capacity(capacity);
  set_enabled(env_enabled());
}

Tracer::~Tracer() {
  for (std::atomic<Event*>& chunk : chunks_) delete[] chunk.load(std::memory_order_relaxed);
}

bool Tracer::env_enabled() {
  static const bool on = [] {
    const char* env = std::getenv("SG_TRACE");
    return env != nullptr && env[0] == '1';
  }();
  return on;
}

void Tracer::record_slow(Event ev) {
  ev.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  // Slot seq mod capacity; the division is paid only once the log wraps.
  const std::size_t slot = ev.seq < capacity_ ? ev.seq : ev.seq % capacity_;
  std::atomic<Event*>& cell = chunks_[slot / kChunkEvents];
  Event* chunk = cell.load(std::memory_order_acquire);
  if (chunk == nullptr) {
    // The first writer to reach the chunk publishes it; a writer that loses
    // the race frees its copy and writes into the winner's.
    Event* fresh = new Event[kChunkEvents];
    if (cell.compare_exchange_strong(chunk, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      chunk = fresh;
    } else {
      delete[] fresh;
    }
  }
  chunk[slot % kChunkEvents] = ev;
}

std::uint64_t Tracer::dropped() const {
  const std::uint64_t n = recorded();
  return n > capacity_ ? n - capacity_ : 0;
}

void Tracer::for_each_run(const std::function<void(const Event*, std::size_t)>& visit) const {
  const std::uint64_t end = recorded();
  // The kept events are seqs [dropped(), recorded()). Walk them in runs that
  // end at a chunk's end, at the log's end (where slots wrap) or at the newest.
  for (std::uint64_t seq = dropped(); seq < end;) {
    const std::size_t slot = seq % capacity_;
    const std::size_t offset = slot % kChunkEvents;
    const std::size_t run =
        std::min<std::uint64_t>({kChunkEvents - offset, capacity_ - slot, end - seq});
    visit(chunks_[slot / kChunkEvents].load(std::memory_order_relaxed) + offset, run);
    seq += run;
  }
}

Tracer::Snapshot Tracer::snapshot() const {
  Snapshot snap;
  snap.dropped = dropped();
  snap.events.reserve(recorded() - snap.dropped);
  for_each_run([&snap](const Event* run, std::size_t count) {
    snap.events.insert(snap.events.end(), run, run + count);
  });
  return snap;
}

void Tracer::set_capacity(std::size_t capacity) {
  for (std::atomic<Event*>& chunk : chunks_) delete[] chunk.load(std::memory_order_relaxed);
  capacity_ = capacity == 0 ? 1 : capacity;
  chunks_ = std::vector<std::atomic<Event*>>((capacity_ + kChunkEvents - 1) / kChunkEvents);
  seq_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Snapshot query API
// ---------------------------------------------------------------------------

std::size_t Tracer::Snapshot::count(EventKind kind, kernel::CompId comp) const {
  std::size_t n = 0;
  for (const Event& ev : events) {
    if (ev.kind == kind && (comp == kernel::kNoComp || ev.comp == comp)) ++n;
  }
  return n;
}

std::vector<Event> Tracer::Snapshot::of_comp(kernel::CompId comp) const {
  std::vector<Event> out;
  for (const Event& ev : events) {
    if (ev.comp == comp) out.push_back(ev);
  }
  return out;
}

std::vector<Event> Tracer::Snapshot::of_kind(EventKind kind) const {
  std::vector<Event> out;
  for (const Event& ev : events) {
    if (ev.kind == kind) out.push_back(ev);
  }
  return out;
}

const Event* Tracer::Snapshot::first(EventKind kind, kernel::CompId comp) const {
  for (const Event& ev : events) {
    if (ev.kind == kind && (comp == kernel::kNoComp || ev.comp == comp)) return &ev;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Text formatting
// ---------------------------------------------------------------------------

std::string describe(const Event& ev, const NameFn& names) {
  std::ostringstream oss;
  oss << to_string(ev.kind) << " comp=" << comp_name(ev.comp, names);
  if (ev.thd != kernel::kNoThread) oss << " thd=" << ev.thd;
  switch (ev.kind) {
    case EventKind::kInvokeEnter:
      break;
    case EventKind::kInvokeReturn:
      oss << " status=" << (ev.a == 0 ? "ok" : ev.a == 1 ? "fault" : "unwound");
      break;
    case EventKind::kFault:
      break;
    case EventKind::kMicroReboot:
      oss << " epoch=" << ev.a;
      break;
    case EventKind::kQuarantine:
    case EventKind::kReadmit:
    case EventKind::kSupReadmit:
      break;
    case EventKind::kHold:
      // The release time is absolute virtual time; print the remaining
      // duration so normalized traces stay delta-stable.
      oss << " dur=" << (ev.c >= static_cast<std::int64_t>(ev.at)
                             ? ev.c - static_cast<std::int64_t>(ev.at)
                             : 0);
      break;
    case EventKind::kBlock:
      oss << (ev.a != 0 ? " timed=1" : " timed=0");
      break;
    case EventKind::kWake:
      oss << " target=" << ev.c << " recovery=" << ev.a;
      break;
    case EventKind::kDescSigma:
      oss << " vid=" << ev.c << " from=" << ev.a << " to=" << ev.b << " fn=" << ev.d;
      break;
    case EventKind::kWalkBegin:
      oss << " vid=" << ev.c << " expected=" << ev.a << " land=" << ev.b;
      break;
    case EventKind::kWalkStep:
      oss << " vid=" << ev.c << " from=" << ev.a << " to=" << ev.b << " fn=" << ev.d;
      break;
    case EventKind::kWalkEnd:
      oss << " vid=" << ev.c << " landed=" << ev.a;
      break;
    case EventKind::kWalkAbort:
      oss << " vid=" << ev.c;
      break;
    case EventKind::kMechanism:
      oss << " mech=" << to_string(static_cast<Mechanism>(ev.a));
      if (ev.c != 0) oss << " aux=" << ev.c;
      break;
    case EventKind::kSupFault:
    case EventKind::kSupNestedFault:
      oss << " level=" << ev.a;
      break;
    case EventKind::kSupTrip:
      oss << " level=" << ev.a << " trips=" << ev.b;
      break;
    case EventKind::kSupEscalate:
      oss << " level=" << ev.a;
      break;
    case EventKind::kSupGroupReboot:
      break;
    case EventKind::kSupGroupMember:
      oss << " root=" << comp_name(static_cast<kernel::CompId>(ev.d), names);
      break;
    case EventKind::kCmonDetect:
      oss << " stale-windows=" << ev.a;
      break;
    case EventKind::kStorageEvict:
      oss << " kind=" << (ev.a == 0 ? "desc" : "data") << " ns=" << ev.b << " id=" << ev.c;
      break;
    case EventKind::kStorageScrub:
      oss << " checked=" << ev.a << " evicted=" << ev.b;
      break;
    case EventKind::kStorageRebuildBegin:
      oss << " epoch=" << ev.a;
      break;
    case EventKind::kStorageRebuildEnd:
      oss << " republished=" << ev.a;
      break;
    case EventKind::kSchedPick:
      oss << " pick=" << ev.a << "/" << ev.b << " thd=" << ev.c << " choice=" << ev.d;
      break;
    case EventKind::kSchedCrash:
      oss << " at-invoke-of=" << comp_name(static_cast<kernel::CompId>(ev.d), names);
      break;
    case EventKind::kDomainAcquire:
      oss << " closure=" << (ev.a == 0 ? std::string("machine") : std::to_string(ev.a))
          << " active=" << ev.b << " owner=" << ev.c << " seq=" << ev.d;
      break;
    case EventKind::kDomainRelease:
      oss << " machine=" << ev.a << " active=" << ev.b << " owner=" << ev.c << " seq=" << ev.d;
      break;
    case EventKind::kDomainEscalate:
      oss << " reason="
          << (ev.a == 0   ? "overlap"
              : ev.a == 1 ? "group-reboot"
              : ev.a == 2 ? "quarantine"
              : ev.a == 3 ? "nested-fault"
              : ev.a == 4 ? "token"
                          : "storage-rebuild")
          << " active=" << ev.b << " owner=" << ev.c;
      break;
  }
  return oss.str();
}

std::string format_normalized(const std::vector<Event>& events, const NameFn& names) {
  std::ostringstream oss;
  kernel::VirtualTime prev = events.empty() ? 0 : events.front().at;
  for (const Event& ev : events) {
    const kernel::VirtualTime delta = ev.at >= prev ? ev.at - prev : 0;
    prev = std::max(prev, ev.at);
    oss << "+" << delta << " " << describe(ev, names) << "\n";
  }
  return oss.str();
}

// ---------------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------------

namespace {

void write_json_string(std::ostream& out, const std::string& text) {
  out << '"';
  for (const char ch : text) {
    switch (ch) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          out << "\\u00" << "0123456789abcdef"[(ch >> 4) & 0xF]
              << "0123456789abcdef"[ch & 0xF];
        } else {
          out << ch;
        }
    }
  }
  out << '"';
}

}  // namespace

void write_chrome_trace(std::ostream& out, const Tracer::Snapshot& snap, const NameFn& names) {
  out << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const char ph, const std::string& name, const char* cat, const Event& ev,
                  bool instant) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":";
    write_json_string(out, name);
    out << ",\"cat\":\"" << cat << "\",\"ph\":\"" << ph << "\",\"ts\":" << ev.at
        << ",\"pid\":1,\"tid\":" << (ev.thd == kernel::kNoThread ? 0 : ev.thd);
    if (instant) out << ",\"s\":\"t\"";
    out << ",\"args\":{\"seq\":" << ev.seq << ",\"comp\":" << ev.comp << ",\"a\":" << ev.a
        << ",\"b\":" << ev.b << ",\"c\":" << ev.c << ",\"d\":" << ev.d << ",\"detail\":";
    write_json_string(out, describe(ev, names));
    out << "}}";
  };
  // Track open B events per thread so the B/E nesting chrome requires stays
  // balanced even when a fault unwound frames without return events.
  std::map<kernel::ThreadId, int> open;
  for (const Event& ev : snap.events) {
    switch (ev.kind) {
      case EventKind::kInvokeEnter:
        emit('B', comp_name(ev.comp, names), "invoke", ev, false);
        ++open[ev.thd];
        break;
      case EventKind::kInvokeReturn:
        if (open[ev.thd] > 0) {
          emit('E', comp_name(ev.comp, names), "invoke", ev, false);
          --open[ev.thd];
        }
        break;
      default:
        emit('i', to_string(ev.kind), "recovery", ev, true);
        break;
    }
  }
  // Close any spans still open at the end of the capture window.
  if (!snap.events.empty()) {
    Event closer = snap.events.back();
    for (auto& [thd, depth] : open) {
      closer.thd = thd;
      for (; depth > 0; --depth) {
        if (!first) out << ",";
        first = false;
        out << "{\"name\":\"(open)\",\"cat\":\"invoke\",\"ph\":\"E\",\"ts\":" << closer.at
            << ",\"pid\":1,\"tid\":" << (thd == kernel::kNoThread ? 0 : thd) << "}";
      }
    }
  }
  out << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":" << snap.dropped << "}}\n";
}

}  // namespace sg::trace
