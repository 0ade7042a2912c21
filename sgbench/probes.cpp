#include "probes.hpp"

#include <memory>
#include <string>
#include <vector>

#include "components/system.hpp"
#include "kernel/kernel.hpp"
#include "trace/trace.hpp"

namespace sg::perf {

using components::FtMode;
using components::System;
using components::SystemConfig;
using kernel::Value;

namespace {

/// Enough samples that p99 has at least ten beyond it.
constexpr int kSamples = 2000;
/// For the probes that take tens of microseconds or more each.
constexpr int kSlowSamples = 1000;

volatile Value g_sink = 0;

SystemConfig probe_system(FtMode mode) {
  SystemConfig config;
  config.mode = mode;
  config.trace = false;
  config.cores = 1;
  return config;
}

/// Runs `body(app)` on one simulated thread of `sys` and waits for it.
template <typename Body>
void in_sim_thread(System& sys, Body&& body) {
  components::AppComponent& app = sys.create_app("probe");
  sys.kernel().thd_create("probe", 10, [&] { body(app); });
  sys.kernel().run();
}

/// Nanoseconds per call, averaged over `calls` back-to-back calls, kSamples
/// times (a clock read costs about as much as the cheapest calls timed here).
template <typename Fn>
std::vector<double> batched_ns(int calls, Fn&& fn) {
  for (int i = 0; i < 4 * calls; ++i) fn();
  std::vector<double> samples;
  samples.reserve(kSamples);
  for (int s = 0; s < kSamples; ++s) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < calls; ++i) fn();
    samples.push_back(static_cast<double>(now_ns() - t0) / calls);
  }
  return samples;
}

/// mman_touch through the invoker of `mode`: a raw Kernel::invoke under
/// kNone, a SuperGlue-tracked call under kSuperGlue.
std::vector<double> touch_ns(FtMode mode) {
  System sys(probe_system(mode));
  std::vector<double> samples;
  in_sim_thread(sys, [&](components::AppComponent& app) {
    components::MmClient mm(sys.invoker(app, "mman"));
    const Value page = mm.get_page(app.id(), 0x100000);
    samples = batched_ns(64, [&] { g_sink = mm.touch(app.id(), page); });
  });
  return samples;
}

/// Half a block_current/wakeup round trip between two simulated threads.
std::vector<double> switch_ns() {
  kernel::Kernel kern;
  std::vector<double> samples;
  samples.reserve(kSamples);
  bool done = false;
  kernel::ThreadId ping = kernel::kNoThread;
  const kernel::ThreadId pong = kern.thd_create("pong", 10, [&] {
    for (;;) {
      kern.block_current();
      if (done) return;
      kern.wakeup(ping);
    }
  });
  ping = kern.thd_create("ping", 10, [&] {
    for (int i = 0; i < kSamples + 100; ++i) {
      const std::int64_t t0 = now_ns();
      kern.wakeup(pong);
      kern.block_current();
      if (i >= 100) samples.push_back(static_cast<double>(now_ns() - t0) / 2.0);
    }
    done = true;
    kern.wakeup(pong);
  });
  kern.run();
  return samples;
}

/// Kernel::run of one no-op thread: spawn, dispatch, join.
std::vector<double> run_empty_us() {
  std::vector<double> samples;
  for (int i = 0; i < kSlowSamples; ++i) {
    auto kern = std::make_unique<kernel::Kernel>();
    const std::int64_t t0 = now_ns();
    kern->thd_create("noop", 10, [] {});
    kern->run();
    samples.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return samples;
}

std::vector<double> micro_reboot_us() {
  System sys(probe_system(FtMode::kSuperGlue));
  std::vector<double> samples;
  in_sim_thread(sys, [&](components::AppComponent&) {
    for (int i = 0; i < kSlowSamples; ++i) {
      const std::int64_t t0 = now_ns();
      sys.kernel().inject_crash(sys.lock().id());
      samples.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  });
  return samples;
}

/// First call after a crash of the lock service: creation replay plus the
/// R0 walk that re-takes the held lock.
std::vector<double> descriptor_recovery_us() {
  System sys(probe_system(FtMode::kSuperGlue));
  std::vector<double> samples;
  in_sim_thread(sys, [&](components::AppComponent& app) {
    components::LockClient lock(sys.invoker(app, "lock"), sys.kernel());
    const Value id = lock.alloc(app.id());
    lock.take(app.id(), id);
    for (int i = 0; i < kSlowSamples; ++i) {
      sys.kernel().inject_crash(sys.lock().id());
      const std::int64_t t0 = now_ns();
      g_sink = lock.release(app.id(), id);
      samples.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      lock.take(app.id(), id);
    }
  });
  return samples;
}

std::vector<double> cbuf_roundtrip_ns() {
  System sys(probe_system(FtMode::kNone));
  std::vector<double> samples;
  in_sim_thread(sys, [&](components::AppComponent& app) {
    c3::CbufManager& cbufs = sys.cbufs();
    const auto cbuf = cbufs.alloc(app.id(), 4096);
    std::vector<char> buffer(4096, 1);
    samples = batched_ns(16, [&] {
      cbufs.write(app.id(), cbuf, 0, buffer.data(), buffer.size());
      cbufs.read(cbuf, 0, buffer.data(), buffer.size());
      g_sink = buffer[0];
    });
  });
  return samples;
}

std::vector<double> trace_record_ns(bool enabled) {
  trace::Tracer tracer;
  tracer.set_enabled(enabled);
  std::int32_t a = 0;
  return batched_ns(256, [&] { tracer.record(1, trace::EventKind::kInvokeEnter, 1, 1, ++a); });
}

}  // namespace

Metrics run_probes(SpanLog& spans) {
  Metrics out;
  auto probe = [&](const std::string& name, const std::string& unit, auto&& fn) {
    const int span = spans.open("probe." + name);
    const Summary summary = summarize(fn());
    spans.close(span);
    out.set_summary(name, summary, unit);
    return summary;
  };
  const Summary raw = probe("kernel.invoke_ns", "ns", [] { return touch_ns(FtMode::kNone); });
  probe("kernel.switch_ns", "ns", switch_ns);
  probe("kernel.run_empty_us", "us", run_empty_us);
  probe("kernel.micro_reboot_us", "us", micro_reboot_us);

  std::vector<double> boot_us;
  std::vector<double> teardown_us;
  const int lifecycle = spans.open("probe.components.lifecycle");
  for (int i = 0; i < kSlowSamples; ++i) {
    std::int64_t t0 = now_ns();
    auto sys = std::make_unique<System>(probe_system(FtMode::kSuperGlue));
    boot_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    t0 = now_ns();
    sys.reset();
    teardown_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  spans.close(lifecycle);
  out.set_summary("components.boot_us", summarize(boot_us), "us");
  out.set_summary("components.teardown_us", summarize(teardown_us), "us");

  const Summary tracked =
      probe("c3.tracked_call_ns", "ns", [] { return touch_ns(FtMode::kSuperGlue); });
  out.set("c3.tracking_overhead_ns", tracked.p50 - raw.p50, "ns");
  probe("c3.descriptor_recovery_us", "us", descriptor_recovery_us);
  probe("c3.cbuf_roundtrip_ns", "ns", cbuf_roundtrip_ns);
  probe("trace.record_on_ns", "ns", [] { return trace_record_ns(true); });
  probe("trace.record_off_ns", "ns", [] { return trace_record_ns(false); });
  return out;
}

double span_cost_ns() {
  constexpr int kPairs = 20000;
  SpanLog scratch;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kPairs; ++i) scratch.close(scratch.open("cost"));
  return static_cast<double>(now_ns() - t0) / kPairs;
}

}  // namespace sg::perf
