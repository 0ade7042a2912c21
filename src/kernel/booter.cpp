#include "kernel/booter.hpp"

#include <cstring>

#include "util/log.hpp"

namespace sg::kernel {

Booter::Booter(Kernel& kernel) : Component(kernel, "booter", /*image_bytes=*/4096) {
  kernel.set_micro_reboot([this](Component& comp) { micro_reboot(comp); });
  export_fn("booter_reboots", [this](CallCtx&, const Args&) -> Value { return reboots(); });
}

void Booter::capture_image(const Component& comp) {
  if (images_.count(comp.id()) != 0) return;  // Pristine images are write-once.
  do_capture(comp);
}

void Booter::refresh_image(const Component& comp) { do_capture(comp); }

void Booter::do_capture(const Component& comp) {
  Image& image = images_[comp.id()];
  // The pristine image is a stand-in for the ELF object the real booter
  // keeps; its content is irrelevant to the simulation, only its size (the
  // memcpy cost) matters.
  image.pristine.assign(comp.image_bytes(), 0x5A);
  image.live.resize(comp.image_bytes());
  ++captures_;
}

void Booter::micro_reboot(Component& comp) {
  auto it = images_.find(comp.id());
  if (it == images_.end()) {
    capture_image(comp);
    it = images_.find(comp.id());
  }
  Image& image = it->second;
  std::memcpy(image.live.data(), image.pristine.data(), image.pristine.size());
  bytes_copied_.fetch_add(image.pristine.size(), std::memory_order_relaxed);
  reboots_.fetch_add(1, std::memory_order_relaxed);
  SG_DEBUG("booter", "micro-rebooted comp " << comp.id() << " (" << comp.name() << "), "
                                            << image.pristine.size() << " bytes");
  comp.reset_state();
  CallCtx ctx{kernel_, kernel_.current_thread(), id(), comp.id()};
  comp.on_reboot(ctx);
}

void Booter::reset_state() {
  // The booter itself is trusted infrastructure (like the kernel and the
  // cbuf manager, §II-E); it is never the target of injected faults. A
  // reboot of the booter would be a full system reboot.
  images_.clear();
  reboots_.store(0, std::memory_order_relaxed);
  bytes_copied_.store(0, std::memory_order_relaxed);
}

}  // namespace sg::kernel
