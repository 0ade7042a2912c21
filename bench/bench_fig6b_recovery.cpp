// Fig 6(b): per-descriptor recovery overhead (µs).
//
// For each system component, creates one descriptor in a representative
// "expected" state, micro-reboots the component, and times the first
// interface operation (which performs the on-demand R0 walk) minus the
// steady-state cost of the same operation. The paper's claim: recovery cost
// correlates with the number of recovery mechanisms the interface needs
// (Event highest — it uses every mechanism except D0; Lock low — T0+R0+T1).

#include <cstdio>

#include <vector>

#include "bench/bench_common.hpp"
#include "c3/storage.hpp"
#include "c3stubs/c3_stubs.hpp"
#include "components/system.hpp"
#include "idl/gen_api.hpp"
#include "util/stats.hpp"

namespace sg {
namespace {

using components::FtMode;
using components::System;
using components::SystemConfig;
using kernel::Value;

/// Measures µs of the first op after a crash (recovery included) and of the
/// same op without a crash; their difference is the per-descriptor recovery
/// overhead.
std::vector<double> measure_recovery(const std::string& service, FtMode mode, int rounds) {
  std::vector<double> recovery;
  for (int round = 0; round < rounds; ++round) {
    SystemConfig config;
    config.mode = mode;
    config.seed = 91 + static_cast<std::uint64_t>(round);
    System sys(config);
    if (mode == FtMode::kC3) c3stubs::install_c3_stubs(sys);
    auto& app = sys.create_app("bench");
    sys.kernel().thd_create("bench", 10, [&] {
      auto& kern = sys.kernel();
      const kernel::CompId target = sys.service_component(service).id();
      double steady = 0;
      double faulted = 0;
      if (service == "lock") {
        components::LockClient lock(sys.invoker(app, "lock"), kern);
        const Value id = lock.alloc(app.id());
        lock.take(app.id(), id);
        lock.release(app.id(), id);
        steady = bench::time_us([&] { lock.take(app.id(), id); });
        lock.release(app.id(), id);
        lock.take(app.id(), id);
        lock.release(app.id(), id);
        kern.inject_crash(target);
        faulted = bench::time_us([&] { lock.take(app.id(), id); });
      } else if (service == "sched") {
        components::SchedClient sched(sys.invoker(app, "sched"));
        const Value tid = sched.setup(app.id(), 10);
        steady = bench::time_us([&] { sched.wakeup(app.id(), tid); });
        kern.inject_crash(target);
        faulted = bench::time_us([&] { sched.wakeup(app.id(), tid); });
      } else if (service == "mman") {
        components::MmClient mm(sys.invoker(app, "mman"));
        auto& peer = sys.create_app("peer");
        const Value root = mm.get_page(app.id(), 0x100000);
        const Value alias = mm.alias_page(app.id(), root, peer.id(), 0x200000);
        steady = bench::time_us([&] { mm.touch(app.id(), alias); });
        kern.inject_crash(target);
        // Recovering the alias requires its parent first (D1).
        faulted = bench::time_us([&] { mm.touch(app.id(), alias); });
      } else if (service == "ramfs") {
        components::FsClient fs(sys.invoker(app, "ramfs"), sys.cbufs(), app.id());
        const Value fd = fs.open(c3::StorageComponent::hash_id("/bench"));
        fs.write(fd, "payload-data");
        fs.lseek(fd, 6);
        steady = bench::time_us([&] { fs.read(fd, 1); });
        kern.inject_crash(target);
        // Recovery: tsplit replay + tlseek restore + G1 fetch from storage.
        faulted = bench::time_us([&] { fs.read(fd, 1); });
      } else if (service == "evt") {
        components::EvtClient evt(sys.invoker(app, "evt"));
        auto& peer = sys.create_app("peer");
        components::EvtClient foreign(sys.invoker(peer, "evt"));
        const Value evtid = evt.split(app.id());
        steady = bench::time_us([&] { foreign.trigger(peer.id(), evtid); });
        evt.wait(app.id(), evtid);
        kern.inject_crash(target);
        // Foreign trigger on the crashed server: EINVAL -> G0 storage lookup
        // -> U0 upcall into the creator's stub -> creation replay (+ G1
        // pending-count fetch) -> invocation replay. The full stack.
        faulted = bench::time_us([&] { foreign.trigger(peer.id(), evtid); });
      } else if (service == "tmr") {
        components::TimerClient tmr(sys.invoker(app, "tmr"));
        const Value tmid = tmr.setup(app.id(), 1000);
        steady = bench::time_us([&] { tmr.cancel(app.id(), tmid); });
        kern.inject_crash(target);
        faulted = bench::time_us([&] { tmr.cancel(app.id(), tmid); });
      }
      recovery.push_back(std::max(0.0, faulted - steady));
    });
    sys.kernel().run();
  }
  return recovery;
}

}  // namespace
}  // namespace sg

int main() {
  sg::bench::banner("SuperGlue micro-benchmark: per-descriptor recovery overhead (us)",
                    "Fig 6(b) of the paper");
  const int rounds = sg::bench::env_int("SG_ROUNDS", 200);
  std::printf("rounds per cell: %d (override with SG_ROUNDS)\n\n", rounds);

  sg::TextTable table;
  table.add_row({"Component", "Mechanisms (from the model)", "C3 us (stdev)",
                 "SuperGlue us (stdev)"});
  struct Row {
    const char* service;
    const char* label;
    sg::c3::InterfaceSpec (*spec)();
  };
  static const Row kRows[] = {
      {"sched", "Sched", &sg::gen::make_sched_spec}, {"mman", "MM", &sg::gen::make_mman_spec},
      {"ramfs", "FS", &sg::gen::make_ramfs_spec},    {"lock", "Lock", &sg::gen::make_lock_spec},
      {"evt", "Event", &sg::gen::make_evt_spec},     {"tmr", "Timer", &sg::gen::make_tmr_spec}};
  auto summarize = [](const std::vector<double>& samples) {
    double mean = 0;
    double stdev = 0;
    sg::bench::trimmed_stats(samples, &mean, &stdev);
    char text[48];
    std::snprintf(text, sizeof(text), "%.2f (%.2f)", mean, stdev);
    return std::string(text);
  };
  for (const auto& row : kRows) {
    (void)sg::measure_recovery(row.service, sg::components::FtMode::kSuperGlue, rounds / 8);
    const auto c3_stats = sg::measure_recovery(row.service, sg::components::FtMode::kC3, rounds);
    const auto sg_stats =
        sg::measure_recovery(row.service, sg::components::FtMode::kSuperGlue, rounds);
    table.add_row({row.label, sg::c3::to_string(row.spec().mechanisms()), summarize(c3_stats),
                   summarize(sg_stats)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Paper's observation: recovery cost correlates with the number of recovery\n"
      "mechanisms a service needs — the Event component (every mechanism except D0)\n"
      "costs the most; Lock (T0+R0+T1 only) is among the cheapest.\n");
  return 0;
}
