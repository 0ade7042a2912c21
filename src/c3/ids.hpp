#pragma once

#include <cstdint>

namespace sg::c3 {

/// Dense interned ids for the compiled interface runtime. Every name the
/// IDL-level model speaks in — interface functions, descriptor states,
/// tracked-data fields, storage namespaces — is interned once (a spec's
/// names when InterfaceSpec::validate() builds its CompiledRuntime); the
/// per-invocation hot path is pure integer indexing into flat tables from
/// then on.
using FnId = std::int32_t;     ///< Interface function (I_{d_r} member).
using StateId = std::int32_t;  ///< Descriptor SM state (S member).
using FieldId = std::int32_t;  ///< Tracked-data field (D_{d_r} member).
using NsId = std::int32_t;     ///< Storage namespace (G0/G1 registry).

inline constexpr FnId kNoFn = -1;
inline constexpr StateId kNoState = -1;
inline constexpr FieldId kNoField = -1;
inline constexpr NsId kNoNs = -1;

/// s_0 is always interned first, so a fresh descriptor's state id is 0 in
/// every interface's state space.
inline constexpr StateId kStateInitial = 0;

/// Per-function classification bits, packed from the sm_* IDL annotations.
struct FnFlags {
  enum : std::uint8_t {
    kCreation = 1 << 0,
    kTerminal = 1 << 1,
    kBlock = 1 << 2,
    kWakeup = 1 << 3,
    kConsume = 1 << 4,
  };
};

}  // namespace sg::c3
