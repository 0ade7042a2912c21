// sgidlc — the SuperGlue IDL compiler driver.
//
// Usage:
//   sgidlc <input.sgidl> [-o <out_dir>] [--emit client|server|spec|all]
//          [--dump-model] [--dump-templates]
//
// Writes <service>_cstub.gen.c, <service>_sstub.gen.c, and
// <service>_spec.gen.cpp into the output directory (default ".").

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "idl/codegen.hpp"
#include "idl/compiler.hpp"

namespace {

void write_file(const std::filesystem::path& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "sgidlc: cannot write " << path << "\n";
    std::exit(1);
  }
  out << contents;
  std::cout << "sgidlc: wrote " << path.string() << "\n";
}

void dump_model(const sg::c3::InterfaceSpec& spec) {
  std::cout << "service: " << spec.service << "\n"
            << "  B_r  (desc_block)          = " << spec.desc_block << "\n"
            << "  D_r  (resc_has_data)       = " << spec.resc_has_data << "\n"
            << "  G_dr (desc_is_global)      = " << spec.desc_is_global << "\n"
            << "  P_dr (desc_has_parent)     = " << to_string(spec.parent) << "\n"
            << "  C_dr (desc_close_children) = " << spec.desc_close_children << "\n"
            << "  Y_dr (desc_close_remove)   = " << spec.desc_close_remove << "\n"
            << "  D_dr (desc_has_data)       = " << spec.desc_has_data << "\n"
            << "  mechanisms: " << sg::c3::to_string(spec.mechanisms()) << "\n"
            << "  states (|S| = " << spec.sm.state_count() << "):\n";
  for (const auto& state : spec.sm.states()) {
    std::cout << "    " << state << " : walk = [";
    bool first = true;
    for (const auto& fn : spec.sm.recovery_walk(state)) {
      std::cout << (first ? "" : ", ") << fn;
      first = false;
    }
    std::cout << "] -> " << spec.sm.reached_state(state) << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string out_dir = ".";
  std::string emit = "all";
  bool want_model = false;
  bool want_templates = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--emit" && i + 1 < argc) {
      emit = argv[++i];
    } else if (arg == "--dump-model") {
      want_model = true;
    } else if (arg == "--dump-templates") {
      want_templates = true;
    } else if (arg == "-h" || arg == "--help") {
      std::cout << "usage: sgidlc <input.sgidl> [-o out_dir] [--emit client|server|spec|all]\n"
                   "              [--dump-model] [--dump-templates]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "sgidlc: unknown option " << arg << "\n";
      return 1;
    } else if (input.empty()) {
      input = arg;
    } else {
      std::cerr << "sgidlc: multiple inputs given\n";
      return 1;
    }
  }
  if (input.empty()) {
    std::cerr << "sgidlc: no input file (try --help)\n";
    return 1;
  }

  try {
    const sg::c3::InterfaceSpec spec = sg::idl::compile_file(input);
    if (want_model) dump_model(spec);

    sg::idl::CodeGenerator generator(spec);
    const sg::idl::GeneratedCode code = generator.generate();

    if (want_templates) {
      std::cout << "template-predicate pairs: " << code.templates_used << "/"
                << code.templates_total << " fired for " << spec.service << "\n";
      for (const auto& info : generator.templates()) {
        std::cout << "  [" << (info.enabled ? (info.uses > 0 ? "used " : "avail") : "  -  ")
                  << "] " << info.target << " " << info.name << "\n";
      }
    }

    const std::filesystem::path dir(out_dir);
    std::filesystem::create_directories(dir);
    if (emit == "client" || emit == "all") {
      write_file(dir / (spec.service + "_cstub.gen.c"), code.client_stub);
    }
    if (emit == "server" || emit == "all") {
      write_file(dir / (spec.service + "_sstub.gen.c"), code.server_stub);
    }
    if (emit == "spec" || emit == "all") {
      write_file(dir / (spec.service + "_spec.gen.cpp"), code.spec_builder);
    }
    return 0;
  } catch (const sg::idl::IdlError& error) {
    std::cerr << "sgidlc: " << error.what() << "\n";
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "sgidlc: internal error: " << error.what() << "\n";
    return 2;
  }
}
