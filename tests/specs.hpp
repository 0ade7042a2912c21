#pragma once

#include "c3/interface_spec.hpp"

namespace sg::reference {

/// Reference (hand-built) InterfaceSpecs for the six system services —
/// exactly the models the SuperGlue IDL files in idl/*.sgidl describe. The
/// System runs the IDL compiler's output; idl_test checks it is equivalent
/// to these. Each returned spec is finalized and passes
/// InterfaceSpec::validate().

c3::InterfaceSpec sched_spec();
c3::InterfaceSpec lock_spec();
c3::InterfaceSpec mman_spec();
c3::InterfaceSpec ramfs_spec();
c3::InterfaceSpec evt_spec();
c3::InterfaceSpec tmr_spec();

}  // namespace sg::reference
