// google-benchmark micro-benchmarks of the substrate primitives underlying
// every number in the paper: component invocation (thread-migration IPC),
// stub-tracked invocation, micro-reboot (memcpy + reinit), and a full
// on-demand descriptor recovery. Useful for relating Fig 6/7 deltas to
// their constituent costs.

#include <benchmark/benchmark.h>

#include "c3/interface_spec.hpp"
#include "c3/storage.hpp"
#include "components/system.hpp"
#include "idl/gen_api.hpp"
#include "kernel/booter.hpp"
#include "trace/trace.hpp"

namespace sg {
namespace {

using components::FtMode;
using components::System;
using components::SystemConfig;
using kernel::Value;

/// Runs `body(sys, app)` inside one simulated thread for each benchmark
/// iteration batch; `benchmark::State` iteration happens inside the thread.
template <typename Body>
void run_in_system(benchmark::State& state, FtMode mode, Body&& body) {
  SystemConfig config;
  config.mode = mode;
  System sys(config);
  auto& app = sys.create_app("bench");
  sys.kernel().thd_create("bench", 10, [&] { body(state, sys, app); });
  sys.kernel().run();
}

void BM_Invocation(benchmark::State& state) {
  run_in_system(state, FtMode::kNone, [](benchmark::State& st, System& sys, auto& app) {
    components::MmClient mm(sys.invoker(app, "mman"));
    const Value root = mm.get_page(app.id(), 0x100000);
    for (auto _ : st) benchmark::DoNotOptimize(mm.touch(app.id(), root));
  });
}
BENCHMARK(BM_Invocation);

void BM_TrackedInvocation(benchmark::State& state) {
  run_in_system(state, FtMode::kSuperGlue, [](benchmark::State& st, System& sys, auto& app) {
    components::MmClient mm(sys.invoker(app, "mman"));
    const Value root = mm.get_page(app.id(), 0x100000);
    for (auto _ : st) benchmark::DoNotOptimize(mm.touch(app.id(), root));
  });
}
BENCHMARK(BM_TrackedInvocation);

// --- tracing overhead -------------------------------------------------------
// The SG_TRACE acceptance bar: with tracing disabled, the per-invocation
// cost must stay within 5% of BM_TrackedInvocation (the guard is one relaxed
// atomic load + a predicted branch per trace point). The TraceOn variant
// shows what the ring-buffer write costs when the toggle is on.

void BM_TrackedInvocationTraceOff(benchmark::State& state) {
  run_in_system(state, FtMode::kSuperGlue, [](benchmark::State& st, System& sys, auto& app) {
    sys.kernel().tracer().set_enabled(false);
    components::MmClient mm(sys.invoker(app, "mman"));
    const Value root = mm.get_page(app.id(), 0x100000);
    for (auto _ : st) benchmark::DoNotOptimize(mm.touch(app.id(), root));
  });
}
BENCHMARK(BM_TrackedInvocationTraceOff);

void BM_TrackedInvocationTraceOn(benchmark::State& state) {
  run_in_system(state, FtMode::kSuperGlue, [](benchmark::State& st, System& sys, auto& app) {
    sys.kernel().tracer().set_enabled(true);
    components::MmClient mm(sys.invoker(app, "mman"));
    const Value root = mm.get_page(app.id(), 0x100000);
    for (auto _ : st) {
      benchmark::DoNotOptimize(mm.touch(app.id(), root));
      // Keep the rings from unboundedly skewing snapshot-free iterations.
      if (st.iterations() % (1 << 14) == 0) sys.kernel().tracer().clear();
    }
  });
}
BENCHMARK(BM_TrackedInvocationTraceOn);

void BM_TraceRecordDisabled(benchmark::State& state) {
  trace::Tracer tracer;
  tracer.set_enabled(false);
  for (auto _ : state) {
    tracer.record(1, trace::EventKind::kInvokeEnter, 1, 1);
  }
}
BENCHMARK(BM_TraceRecordDisabled);

void BM_TraceRecordEnabled(benchmark::State& state) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  for (auto _ : state) {
    tracer.record(1, trace::EventKind::kInvokeEnter, 1, 1);
  }
}
BENCHMARK(BM_TraceRecordEnabled);

void BM_MicroReboot(benchmark::State& state) {
  run_in_system(state, FtMode::kSuperGlue, [](benchmark::State& st, System& sys, auto&) {
    for (auto _ : st) sys.kernel().inject_crash(sys.lock().id());
  });
}
BENCHMARK(BM_MicroReboot);

void BM_DescriptorRecovery(benchmark::State& state) {
  run_in_system(state, FtMode::kSuperGlue, [](benchmark::State& st, System& sys, auto& app) {
    components::LockClient lock(sys.invoker(app, "lock"), sys.kernel());
    const Value id = lock.alloc(app.id());
    lock.take(app.id(), id);
    for (auto _ : st) {
      st.PauseTiming();
      sys.kernel().inject_crash(sys.lock().id());
      st.ResumeTiming();
      // First touch performs creation replay + R0 walk (re-take).
      benchmark::DoNotOptimize(lock.release(app.id(), id));
      st.PauseTiming();
      lock.take(app.id(), id);
      st.ResumeTiming();
    }
  });
}
BENCHMARK(BM_DescriptorRecovery);

// --- interned-runtime primitives -------------------------------------------
// The costs the id refactor removed from (or added to) every tracked
// invocation: function resolution and σ-transition checks, string-keyed
// (the old per-call path) vs. interned-id (the new one).

void BM_FnLookupString(benchmark::State& state) {
  const c3::InterfaceSpec spec = gen::make_ramfs_spec();
  const c3::CompiledRuntime& rt = spec.compiled();
  static const char* kNames[] = {"tsplit", "tread", "twrite", "tlseek", "trelease"};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.fn_id(kNames[i]));
    i = (i + 1) % 5;
  }
}
BENCHMARK(BM_FnLookupString);

void BM_FnLookupInterned(benchmark::State& state) {
  const c3::InterfaceSpec spec = gen::make_ramfs_spec();
  const c3::CompiledRuntime& rt = spec.compiled();
  const c3::FnId ids[] = {rt.fn_id("tsplit"), rt.fn_id("tread"), rt.fn_id("twrite"),
                          rt.fn_id("tlseek"), rt.fn_id("trelease")};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&rt.fn(ids[i]));
    i = (i + 1) % 5;
  }
}
BENCHMARK(BM_FnLookupInterned);

void BM_SigmaTransitionString(benchmark::State& state) {
  const c3::InterfaceSpec spec = gen::make_ramfs_spec();
  const std::string open_state = spec.sm.state_of_fn("tread");
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec.sm.valid(open_state, "twrite"));
    benchmark::DoNotOptimize(spec.sm.next_state(open_state, "twrite"));
  }
}
BENCHMARK(BM_SigmaTransitionString);

void BM_SigmaTransitionInterned(benchmark::State& state) {
  const c3::InterfaceSpec spec = gen::make_ramfs_spec();
  const c3::CompiledRuntime& rt = spec.compiled();
  const c3::FnId twrite = rt.fn_id("twrite");
  const c3::StateId open_state = rt.fn(rt.fn_id("tread")).next_state;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.valid(open_state, twrite));
    benchmark::DoNotOptimize(rt.fn(twrite).next_state);
  }
}
BENCHMARK(BM_SigmaTransitionInterned);

void BM_CbufRoundTrip(benchmark::State& state) {
  run_in_system(state, FtMode::kNone, [](benchmark::State& st, System& sys, auto& app) {
    auto& cbufs = sys.cbufs();
    const auto cbuf = cbufs.alloc(app.id(), 4096);
    char buffer[4096] = {1};
    for (auto _ : st) {
      cbufs.write(app.id(), cbuf, 0, buffer, sizeof(buffer));
      cbufs.read(cbuf, 0, buffer, sizeof(buffer));
      benchmark::DoNotOptimize(buffer[0]);
    }
  });
}
BENCHMARK(BM_CbufRoundTrip);

}  // namespace
}  // namespace sg

BENCHMARK_MAIN();
