// idl_tour — a tour of the SuperGlue IDL compiler: define a brand-new
// service interface in the IDL (a message-queue service, not one of the six
// built-ins), compile it, inspect the inferred model, print the state
// machine and recovery walks, and show a slice of the generated stub code.
//
//   $ ./build/examples/idl_tour

#include <cstdio>

#include "idl/codegen.hpp"
#include "idl/compiler.hpp"

using namespace sg;

int main() {
  // A new interface, written in the SuperGlue IDL (Fig 3 syntax): a simple
  // message-queue service with blocking receive.
  const char* idl_source = R"(
    /* message queue service: mq_create/send/recv/destroy */
    service_global_info = {
            service_name       = mq,
            desc_has_parent    = solo,
            desc_close_remove  = false,
            desc_is_global     = false,
            desc_block         = true,
            desc_has_data      = true
    };

    sm_transition(mq_create, mq_send);
    sm_transition(mq_create, mq_recv);
    sm_transition(mq_create, mq_destroy);
    sm_transition(mq_send,   mq_send);
    sm_transition(mq_send,   mq_recv);
    sm_transition(mq_send,   mq_destroy);
    sm_transition(mq_recv,   mq_send);
    sm_transition(mq_recv,   mq_recv);
    sm_transition(mq_recv,   mq_destroy);

    sm_creation(mq_create);
    sm_terminal(mq_destroy);
    sm_block(mq_recv);
    sm_wakeup(mq_send);
    sm_consume(mq_recv);

    desc_data_retval(long, qid)
    long mq_create(componentid_t compid, desc_data(long depth));

    int mq_send(componentid_t compid, desc(long qid), long msg);
    long mq_recv(componentid_t compid, desc(long qid));
    int mq_destroy(componentid_t compid, desc(long qid));
  )";

  std::printf("=== 1. compiling the IDL ===\n");
  const auto spec = idl::compile_source(idl_source, "mq.sgidl");
  std::printf("service '%s' compiled: %zu interface fns, |S| = %zu states\n\n",
              spec.service.c_str(), spec.fns.size(), spec.sm.state_count());

  std::printf("=== 2. the descriptor-resource model the compiler extracted ===\n");
  std::printf("  B_r=%d  D_r=%d  G_dr=%d  P_dr=%s  C_dr=%d  Y_dr=%d  D_dr=%d\n", spec.desc_block,
              spec.resc_has_data, spec.desc_is_global, to_string(spec.parent),
              spec.desc_close_children, spec.desc_close_remove, spec.desc_has_data);
  std::printf("  recovery mechanisms selected: %s\n\n", c3::to_string(spec.mechanisms()).c_str());

  std::printf("=== 3. inferred states and precomputed R0 recovery walks ===\n");
  for (const auto& state : spec.sm.states()) {
    std::printf("  state %-14s walk: [", state.c_str());
    bool first = true;
    for (const auto& fn : spec.sm.recovery_walk(state)) {
      std::printf("%s%s", first ? "" : ", ", fn.c_str());
      first = false;
    }
    std::printf("] -> %s\n", spec.sm.reached_state(state).c_str());
  }
  std::printf("  (mq_recv is sm_consume: a consumed receive is never replayed)\n\n");

  std::printf("=== 4. the generated client stub (first 30 lines) ===\n");
  idl::CodeGenerator generator(spec);
  const auto code = generator.generate();
  int line = 0;
  for (std::size_t i = 0; i < code.client_stub.size() && line < 30; ++i) {
    std::putchar(code.client_stub[i]);
    if (code.client_stub[i] == '\n') ++line;
  }
  std::printf("  ... (%zu bytes of client stub, %zu of server stub)\n\n",
              code.client_stub.size(), code.server_stub.size());

  std::printf("=== 5. back end statistics ===\n");
  std::printf("  %d of %d template-predicate pairs fired for this interface\n",
              code.templates_used, code.templates_total);
  int unused = 0;
  for (const auto& info : generator.templates()) {
    if (!info.enabled) ++unused;
  }
  std::printf("  %d templates were predicated out (e.g., no G0 storage code for a\n"
              "  local descriptor namespace, no D0/D1 for Solo descriptors)\n",
              unused);
  return 0;
}
