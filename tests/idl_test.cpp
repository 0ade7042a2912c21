#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>

#include "components/system.hpp"
#include "idl/codegen.hpp"
#include "idl/compiler.hpp"
#include "idl/gen_api.hpp"
#include "idl/parser.hpp"
#include "util/loc_counter.hpp"
#include "tests/specs.hpp"
#include "tests/test_util.hpp"

namespace sg {
namespace {

using c3::InterfaceSpec;
using c3::ParamRole;

std::string repo_path(const std::string& rel) { return std::string(SG_REPO_DIR) + "/" + rel; }

InterfaceSpec compile_idl(const std::string& service) {
  return idl::compile_file(repo_path("idl/" + service + ".sgidl"));
}

/// Deep behavioural equivalence of two compiled interface specs: same model
/// flags, same functions with same roles/annotations, and state machines
/// with identical state sets, validity judgements, and recovery walks.
void expect_equivalent(const InterfaceSpec& a, const InterfaceSpec& b) {
  EXPECT_EQ(a.service, b.service);
  EXPECT_EQ(a.desc_block, b.desc_block);
  EXPECT_EQ(a.resc_has_data, b.resc_has_data);
  EXPECT_EQ(a.desc_is_global, b.desc_is_global);
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.desc_close_children, b.desc_close_children);
  EXPECT_EQ(a.desc_close_remove, b.desc_close_remove);
  EXPECT_EQ(a.desc_has_data, b.desc_has_data);
  EXPECT_EQ(a.mechanisms(), b.mechanisms());

  ASSERT_EQ(a.fns.size(), b.fns.size()) << a.service;
  for (const auto& fa : a.fns) {
    const auto* fb = b.find_fn(fa.name);
    ASSERT_NE(fb, nullptr) << fa.name;
    EXPECT_EQ(fa.ret_is_desc, fb->ret_is_desc) << fa.name;
    EXPECT_EQ(fa.ret_data_name, fb->ret_data_name) << fa.name;
    EXPECT_EQ(fa.ret_adds_to, fb->ret_adds_to) << fa.name;
    ASSERT_EQ(fa.params.size(), fb->params.size()) << fa.name;
    for (std::size_t i = 0; i < fa.params.size(); ++i) {
      EXPECT_EQ(fa.params[i].role, fb->params[i].role) << fa.name << " param " << i;
      EXPECT_EQ(fa.params[i].name, fb->params[i].name) << fa.name << " param " << i;
    }
  }

  EXPECT_EQ(a.sm.states(), b.sm.states()) << a.service;
  EXPECT_EQ(a.sm.creation_fns(), b.sm.creation_fns());
  EXPECT_EQ(a.sm.terminal_fns(), b.sm.terminal_fns());
  EXPECT_EQ(a.sm.block_fns(), b.sm.block_fns());
  EXPECT_EQ(a.sm.wakeup_fns(), b.sm.wakeup_fns());
  for (const auto& state : a.sm.states()) {
    EXPECT_EQ(a.sm.recovery_walk(state), b.sm.recovery_walk(state)) << a.service << " " << state;
    EXPECT_EQ(a.sm.reached_state(state), b.sm.reached_state(state));
    for (const auto& fn : a.fns) {
      EXPECT_EQ(a.sm.valid(state, fn.name), b.sm.valid(state, fn.name))
          << a.service << ": sigma(" << state << ", " << fn.name << ")";
    }
  }
}

// --- parser ------------------------------------------------------------------

TEST(IdlParserTest, ParsesFig3StyleInterface) {
  const auto file = idl::Parser::parse(R"(
    service_global_info = { service_name = evt, desc_block = true };
    sm_transition(evt_split, evt_wait);
    sm_creation(evt_split);
    desc_data_retval(long, evtid)
    long evt_split(desc_data(componentid_t compid),
                   desc_data(parent_desc(long parent_evtid)),
                   desc_data(int grp));
    long evt_wait(componentid_t compid, desc(long evtid));
  )");
  EXPECT_EQ(file.global_info.entries.at("service_name"), "evt");
  ASSERT_EQ(file.fns.size(), 2u);
  const auto& split = file.fns[0];
  EXPECT_TRUE(split.retval.has_value());
  EXPECT_EQ(split.retval->second, "evtid");
  ASSERT_EQ(split.params.size(), 3u);
  EXPECT_EQ(split.params[1].annotation, idl::AstParam::Annotation::kDescDataParent);
  EXPECT_EQ(split.params[1].name, "parent_evtid");
  const auto& wait = file.fns[1];
  EXPECT_EQ(wait.params[0].annotation, idl::AstParam::Annotation::kNone);
  EXPECT_EQ(wait.params[1].annotation, idl::AstParam::Annotation::kDesc);
}

TEST(IdlParserTest, RejectsSyntaxErrors) {
  EXPECT_THROW(idl::Parser::parse("service_global_info = { x"), idl::IdlError);
  EXPECT_THROW(idl::Parser::parse("sm_transition(a);"
                                  "service_global_info = { service_name = s };"),
               idl::IdlError);
  EXPECT_THROW(idl::Parser::parse("int f(;"), idl::IdlError);
  EXPECT_THROW(idl::Parser::parse("@"), idl::IdlError);
  EXPECT_THROW(idl::Parser::parse("/* unterminated"), idl::IdlError);
}

TEST(IdlParserTest, RequiresGlobalInfo) {
  EXPECT_THROW(idl::Parser::parse("int f(long x);"), idl::IdlError);
}

TEST(IdlParserTest, CommentsAreSkipped) {
  const auto file = idl::Parser::parse(R"(
    // line comment
    /* block
       comment */
    service_global_info = { service_name = s };  // trailing
  )");
  EXPECT_EQ(file.global_info.entries.at("service_name"), "s");
}

// --- compiler diagnostics ----------------------------------------------------

TEST(IdlCompilerTest, RejectsUnknownModelKey) {
  EXPECT_THROW(idl::compile_source("service_global_info = { service_name = s, bogus = true };"
                                   "sm_creation(f);"
                                   "desc_data_retval(long, id) long f(componentid_t c);"),
               idl::IdlError);
}

TEST(IdlCompilerTest, EnforcesYdrRule) {
  // Y must equal (P != Solo && !C): claiming desc_close_remove with Solo
  // parentage violates the model (§III-A).
  EXPECT_THROW(
      idl::compile_source("service_global_info = { service_name = s, desc_close_remove = true };"
                          "sm_creation(f);"
                          "desc_data_retval(long, id) long f(componentid_t c);"),
      idl::IdlError);
}

TEST(IdlCompilerTest, EnforcesBlockIffBlockFns) {
  // desc_block without any sm_block fn: I_block != {} <-> B_r (§III-B).
  EXPECT_THROW(
      idl::compile_source("service_global_info = { service_name = s, desc_block = true };"
                          "sm_creation(f);"
                          "desc_data_retval(long, id) long f(componentid_t c);"),
      idl::IdlError);
}

TEST(IdlCompilerTest, RejectsUnreplayableWalkFn) {
  // g is on the recovery walk (it leads to a distinct state) but takes an
  // untracked plain param, so recovery could never rebuild its arguments.
  EXPECT_THROW(idl::compile_source(
                   "service_global_info = { service_name = s };"
                   "sm_creation(f); sm_transition(f, g); sm_transition(g, h);"
                   "desc_data_retval(long, id) long f(componentid_t c);"
                   "int g(componentid_t c, desc(long id), long untracked);"
                   "int h(componentid_t c, desc(long id));"),
               idl::IdlError);
}

TEST(IdlCompilerTest, RejectsUnknownFnInDirective) {
  EXPECT_THROW(idl::compile_source("service_global_info = { service_name = s };"
                                   "sm_creation(nosuch);"),
               idl::IdlError);
}

// --- six services: IDL == reference == generated -----------------------------

// Parameters print as the service name, so test names carry no load addresses.
struct ServiceCase {
  const char* name;
  InterfaceSpec (*reference)();
  InterfaceSpec (*generated)();
};

void PrintTo(const ServiceCase& param, std::ostream* os) { *os << param.name; }

class IdlServiceTest : public ::testing::TestWithParam<ServiceCase> {};

TEST_P(IdlServiceTest, BuildTimeGeneratedSpecMatchesReference) {
  const auto& param = GetParam();
  expect_equivalent(param.reference(), param.generated());
}

TEST_P(IdlServiceTest, GeneratedCodeIsSubstantialAndDeterministic) {
  const auto spec = compile_idl(GetParam().name);
  idl::CodeGenerator generator_a(spec);
  idl::CodeGenerator generator_b(spec);
  const auto code_a = generator_a.generate();
  const auto code_b = generator_b.generate();
  EXPECT_EQ(code_a.client_stub, code_b.client_stub);
  EXPECT_EQ(code_a.server_stub, code_b.server_stub);
  EXPECT_EQ(code_a.spec_builder, code_b.spec_builder);
  // The generated recovery code must dwarf the declarative spec (Fig 6c).
  EXPECT_GT(code_a.client_stub.size(), 2000u);
  EXPECT_GT(code_a.templates_used, 25);
  EXPECT_EQ(code_a.templates_total, 72);  // §IV-B: 72 template-predicate pairs.
}

INSTANTIATE_TEST_SUITE_P(
    AllServices, IdlServiceTest,
    ::testing::Values(
        ServiceCase{"sched", &reference::sched_spec, &gen::make_sched_spec},
        ServiceCase{"lock", &reference::lock_spec, &gen::make_lock_spec},
        ServiceCase{"mman", &reference::mman_spec, &gen::make_mman_spec},
        ServiceCase{"ramfs", &reference::ramfs_spec, &gen::make_ramfs_spec},
        ServiceCase{"evt", &reference::evt_spec, &gen::make_evt_spec},
        ServiceCase{"tmr", &reference::tmr_spec, &gen::make_tmr_spec}));

struct ReferenceCase {
  const char* name;
  InterfaceSpec (*reference)();
};

void PrintTo(const ReferenceCase& param, std::ostream* os) { *os << param.name; }

class IdlReferenceTest : public ::testing::TestWithParam<ReferenceCase> {};

TEST_P(IdlReferenceTest, IdlMatchesReferenceSpec) {
  const auto& param = GetParam();
  expect_equivalent(param.reference(), compile_idl(param.name));
}

INSTANTIATE_TEST_SUITE_P(AllServices, IdlReferenceTest,
                         ::testing::Values(ReferenceCase{"sched", &reference::sched_spec},
                                           ReferenceCase{"lock", &reference::lock_spec},
                                           ReferenceCase{"mman", &reference::mman_spec},
                                           ReferenceCase{"ramfs", &reference::ramfs_spec},
                                           ReferenceCase{"evt", &reference::evt_spec},
                                           ReferenceCase{"tmr", &reference::tmr_spec}));

// --- §V-C mechanism claims ----------------------------------------------------

TEST(IdlModelTest, MechanismSetsMatchPaperClaims) {
  using enum trace::Mechanism;
  EXPECT_EQ(compile_idl("sched").mechanisms(), (c3::MechanismSet{kR0, kT0, kT1}));
  EXPECT_EQ(compile_idl("lock").mechanisms(), (c3::MechanismSet{kR0, kT0, kT1}));
  EXPECT_EQ(compile_idl("tmr").mechanisms(), (c3::MechanismSet{kR0, kT0, kT1}));
  EXPECT_EQ(compile_idl("mman").mechanisms(), (c3::MechanismSet{kR0, kT1, kD0, kD1, kU0}));
  EXPECT_EQ(compile_idl("ramfs").mechanisms(), (c3::MechanismSet{kR0, kT1, kD1, kG1}));
  // "the event server relies on all mentioned recovery mechanisms, except
  // (D0)" (§V-C).
  EXPECT_EQ(compile_idl("evt").mechanisms(),
            (c3::MechanismSet{kR0, kT0, kT1, kD1, kG0, kG1, kU0}));
}

TEST(IdlModelTest, LockWalkReacquiresTakenLock) {
  const auto spec = compile_idl("lock");
  const auto& taken = spec.sm.state_of_fn("lock_take");
  EXPECT_EQ(spec.sm.recovery_walk(taken), (std::vector<std::string>{"lock_take"}));
}

TEST(IdlModelTest, RamfsRecoversViaOpenAndLseek) {
  // The paper's FS recreation is "open and lseek": the walk itself is empty
  // (every live state merges with s0) and tlseek is the restore fn.
  const auto spec = compile_idl("ramfs");
  EXPECT_EQ(spec.sm.restore_fns(), (std::vector<std::string>{"tlseek"}));
  for (const auto& state : spec.sm.states()) {
    EXPECT_TRUE(spec.sm.recovery_walk(state).empty());
  }
}

TEST(IdlModelTest, EvtWaitIsNeverReplayed) {
  const auto spec = compile_idl("evt");
  for (const auto& state : spec.sm.states()) {
    for (const auto& fn : spec.sm.recovery_walk(state)) EXPECT_NE(fn, "evt_wait");
  }
}

// --- the full system runs on IDL-compiled specs -------------------------------

TEST(IdlSystemTest, SystemRunsOnIdlCompiledSpecs) {
  components::SystemConfig config;
  config.mode = components::FtMode::kSuperGlue;
  components::System sys(config);
  // Every service is registered with the compiler's model of its .sgidl file.
  for (const std::string& service : sys.service_names()) {
    expect_equivalent(compile_idl(service), sys.coordinator().spec(service));
  }
  auto& app = sys.create_app("app");
  test::run_thread(sys, [&] {
    components::LockClient lock(sys.invoker(app, "lock"), sys.kernel());
    const auto id = lock.alloc(app.id());
    lock.take(app.id(), id);
    sys.kernel().inject_crash(sys.lock().id());
    EXPECT_EQ(lock.release(app.id(), id), kernel::kOk);

    components::FsClient fs(sys.invoker(app, "ramfs"), sys.cbufs(), app.id());
    const auto fd = fs.open(1234);
    fs.write(fd, "idl-compiled");
    sys.kernel().inject_crash(sys.ramfs().id());
    fs.lseek(fd, 0);
    EXPECT_EQ(fs.read(fd, 32), "idl-compiled");
  });
}

TEST(IdlSystemTest, SystemsShareOneCompiledSpecPerService) {
  // Specs are compiled once per process: every System, whichever host thread
  // boots it, registers the same read-only objects.
  components::System first;
  std::unique_ptr<components::System> second;
  std::thread([&] { second = std::make_unique<components::System>(); }).join();
  for (const std::string& service : first.service_names()) {
    EXPECT_EQ(&first.coordinator().spec(service), &second->coordinator().spec(service))
        << service;
  }
}

// --- golden-file check: the .sgidl sources stay in sync with the repo ---------

TEST(IdlGoldenTest, IdlFilesAreSmall) {
  // The headline: a SuperGlue interface spec is tens of lines (§VI: "average
  // ... 37 lines"), an order of magnitude below the recovery code it
  // replaces. Guard the declarative style from regressing.
  for (const char* service : {"sched", "lock", "mman", "ramfs", "evt", "tmr"}) {
    std::ifstream in(repo_path("idl/" + std::string(service) + ".sgidl"));
    ASSERT_TRUE(in.good()) << service;
    std::ostringstream contents;
    contents << in.rdbuf();
    const auto spec = idl::compile_source(contents.str(), service);
    idl::CodeGenerator generator(spec);
    const auto code = generator.generate();
    const int idl_loc = sg::count_loc(contents.str());
    const int gen_loc = sg::count_loc(code.client_stub) + sg::count_loc(code.server_stub);
    EXPECT_LT(idl_loc, 60) << service;
    EXPECT_GT(gen_loc, 5 * idl_loc) << service << ": generated code should dwarf the IDL";
  }
}

}  // namespace
}  // namespace sg
