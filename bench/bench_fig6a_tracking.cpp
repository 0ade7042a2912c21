// Fig 6(a): infrastructure overhead with descriptor state tracking (µs).
//
// For each system component, runs its §V-B micro-workload operation sequence
// with (i) no fault tolerance, (ii) hand-written C3 stubs, and (iii)
// SuperGlue stubs, and reports the mean (stdev) time per operation cycle.
// The paper's claim: SuperGlue tracking costs about the same as C3's.
//
// A second table splits out two parts of every tracked call, on the ramfs
// spec: resolving a function and the σ check, by name through the state
// machine vs by id through the compiled runtime the stubs use.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "c3/interface_spec.hpp"
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

/// One tracked-operation cycle per service, run inside a simulated thread.
/// Returns mean (stdev) µs per cycle.
OnlineStats measure(const std::string& service, FtMode mode, int cycles) {
  SystemConfig config;
  config.mode = mode;
  System sys(config);
  if (mode == FtMode::kC3) c3stubs::install_c3_stubs(sys);
  auto& app = sys.create_app("bench");
  OnlineStats stats;

  sys.kernel().thd_create("bench", 10, [&] {
    auto& kern = sys.kernel();
    if (service == "lock") {
      components::LockClient lock(sys.invoker(app, "lock"), kern);
      const Value id = lock.alloc(app.id());
      for (int i = 0; i < cycles; ++i) {
        stats.add(bench::time_us([&] {
          lock.take(app.id(), id);
          lock.release(app.id(), id);
        }));
      }
    } else if (service == "sched") {
      components::SchedClient sched(sys.invoker(app, "sched"));
      const Value tid = sched.setup(app.id(), 10);
      for (int i = 0; i < cycles; ++i) {
        stats.add(bench::time_us([&] {
          sched.wakeup(app.id(), tid);  // Not blocked: latched, cheap.
          sched.blk(app.id(), tid);     // Consumes the latch immediately.
        }));
      }
    } else if (service == "mman") {
      components::MmClient mm(sys.invoker(app, "mman"));
      const Value root = mm.get_page(app.id(), 0x100000);
      for (int i = 0; i < cycles; ++i) {
        stats.add(bench::time_us([&] { mm.touch(app.id(), root); }));
      }
    } else if (service == "ramfs") {
      components::FsClient fs(sys.invoker(app, "ramfs"), sys.cbufs(), app.id());
      const Value fd = fs.open(c3::StorageComponent::hash_id("/bench"));
      fs.write(fd, "x");
      for (int i = 0; i < cycles; ++i) {
        stats.add(bench::time_us([&] {
          fs.lseek(fd, 0);
          fs.read(fd, 1);
        }));
      }
    } else if (service == "evt") {
      components::EvtClient evt(sys.invoker(app, "evt"));
      const Value evtid = evt.split(app.id());
      for (int i = 0; i < cycles; ++i) {
        stats.add(bench::time_us([&] {
          evt.trigger(app.id(), evtid);
          evt.wait(app.id(), evtid);  // Pending: returns without blocking.
        }));
      }
    } else if (service == "tmr") {
      components::TimerClient tmr(sys.invoker(app, "tmr"));
      const Value tmid = tmr.setup(app.id(), 1000);
      for (int i = 0; i < cycles; ++i) {
        stats.add(bench::time_us([&] { tmr.cancel(app.id(), tmid); }));
      }
    }
  });
  sys.kernel().run();
  return stats;
}

/// Median ns per `op(i)` over `reps` timed batches of `iters` calls.
template <typename Op>
double ns_per_op(Op&& op, int iters, int reps) {
  std::vector<double> batches;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const double us = bench::time_us([&] {
      for (int i = 0; i < iters; ++i) sink += static_cast<std::uint64_t>(op(i));
    });
    batches.push_back(us * 1e3 / iters);
  }
  volatile std::uint64_t keep = sink;
  (void)keep;
  return percentile(batches, 50);
}

/// Name-vs-id costs of fn lookup and the σ check on the ramfs spec, in ns:
/// {lookup by name, lookup by id, σ by name, σ by id}.
std::vector<double> interning_costs() {
  const c3::InterfaceSpec spec = gen::make_ramfs_spec();
  const c3::CompiledRuntime& rt = spec.compiled();
  const std::string names[] = {"tsplit", "tread", "twrite", "tlseek", "trelease"};
  c3::FnId ids[5];
  for (int i = 0; i < 5; ++i) ids[i] = rt.fn_id(names[i]);
  const std::string open_state = spec.sm.state_of_fn("tread");
  const c3::StateId open_id = rt.fn(ids[1]).next_state;
  constexpr int kIters = 1 << 16;
  constexpr int kReps = 31;
  return {
      ns_per_op([&](int i) { return rt.fn_id(names[i % 5]); }, kIters, kReps),
      ns_per_op([&](int i) { return rt.fn(ids[i % 5]).next_state; }, kIters, kReps),
      ns_per_op(
          [&](int i) {
            const std::string& fn = names[i % 5];
            return spec.sm.valid(open_state, fn) + spec.sm.next_state(open_state, fn).size();
          },
          kIters, kReps),
      ns_per_op(
          [&](int i) {
            const c3::FnId fn = ids[i % 5];
            return rt.valid(open_id, fn) + rt.fn(fn).next_state;
          },
          kIters, kReps),
  };
}

}  // namespace
}  // namespace sg

int main(int argc, char** argv) {
  const bool emit_json = sg::bench::has_flag(argc, argv, "--json");
  sg::bench::banner("SuperGlue micro-benchmark: descriptor tracking overhead (us/op)",
                    "Fig 6(a) of the paper");
  const int cycles = sg::bench::env_int("SG_CYCLES", 4000);
  std::printf("cycles per cell: %d (override with SG_CYCLES)\n\n", cycles);

  sg::TextTable table;
  table.add_row({"Component", "no-FT us/op", "C3 us/op (stdev)", "SuperGlue us/op (stdev)",
                 "SG overhead vs no-FT"});
  static const std::pair<const char*, const char*> kServices[] = {
      {"sched", "Sched"}, {"mman", "MM"},   {"ramfs", "FS"},
      {"lock", "Lock"},   {"evt", "Event"}, {"tmr", "Timer"}};
  std::string json_rows;
  for (const auto& [service, label] : kServices) {
    (void)sg::measure(service, sg::components::FtMode::kNone, cycles / 4);  // Warm-up.
    const auto base = sg::measure(service, sg::components::FtMode::kNone, cycles);
    const auto c3 = sg::measure(service, sg::components::FtMode::kC3, cycles);
    const auto superglue = sg::measure(service, sg::components::FtMode::kSuperGlue, cycles);
    char overhead[32];
    std::snprintf(overhead, sizeof(overhead), "+%.2f us",
                  superglue.mean() - base.mean());
    char base_txt[32];
    std::snprintf(base_txt, sizeof(base_txt), "%.2f", base.mean());
    table.add_row({label, base_txt, c3.summary(), superglue.summary(), overhead});
    if (emit_json) {
      if (!json_rows.empty()) json_rows += ",\n";
      json_rows += "    {\"component\": " + sg::bench::json_str(label) +
                   ", \"no_ft_us\": " + sg::bench::json_num(base.mean()) +
                   ", \"c3_mean_us\": " + sg::bench::json_num(c3.mean()) +
                   ", \"c3_stdev_us\": " + sg::bench::json_num(c3.stdev()) +
                   ", \"sg_mean_us\": " + sg::bench::json_num(superglue.mean()) +
                   ", \"sg_stdev_us\": " + sg::bench::json_num(superglue.stdev()) +
                   ", \"sg_overhead_us\": " +
                   sg::bench::json_num(superglue.mean() - base.mean()) + "}";
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper's observation: SuperGlue tracking overhead is comparable to C3's\n"
              "hand-written stubs across all six components.\n\n");

  const std::vector<double> ns = sg::interning_costs();
  sg::TextTable parts;
  parts.add_row({"Tracked-call part (ramfs)", "by name ns/op", "by id ns/op"});
  char cells[4][32];
  for (int i = 0; i < 4; ++i) std::snprintf(cells[i], sizeof(cells[i]), "%.1f", ns[i]);
  parts.add_row({"fn lookup", cells[0], cells[1]});
  parts.add_row({"sigma check (valid + next state)", cells[2], cells[3]});
  std::printf("%s\n", parts.render().c_str());
  if (emit_json) {
    sg::bench::write_json_file(
        "BENCH_fig6a.json",
        "{\n  \"bench\": \"fig6a_tracking\",\n  \"cycles\": " + std::to_string(cycles) +
            ",\n  " + sg::bench::host_meta_json() + ",\n  \"components\": [\n" + json_rows +
            "\n  ],\n  \"ramfs_ns\": {\"fn_lookup_name\": " + sg::bench::json_num(ns[0]) +
            ", \"fn_lookup_id\": " + sg::bench::json_num(ns[1]) +
            ", \"sigma_name\": " + sg::bench::json_num(ns[2]) +
            ", \"sigma_id\": " + sg::bench::json_num(ns[3]) + "}\n}");
  }
  return 0;
}
