// parva_audit CLI. Exit codes: 0 clean, 1 findings, 2 usage/IO error.
//
//   parva_audit src/                        # full scan with built-in manifest
//   parva_audit --rules R1-R5 src/ tests/   # subset of rules (ranges ok)
//   parva_audit --format sarif src/         # SARIF 2.1.0 for CI upload
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "audit.hpp"

namespace {

constexpr const char* kUsage = R"(usage: parva_audit [options] <path>...

Project-specific static analysis for the ParvaGPU determinism, concurrency,
status-flow and geometry contracts (DESIGN.md 4.3/4.4/4.8/4.9). Scans C++
sources/headers under the given files or directories; rules R1-R8 are
per-file, rules R9-R12 are call-graph-aware (phase 1.5 builds a lexical
call graph; phase 3 runs lock-order, RNG-tag and reachability checks over
it), and rules R13-R15 are dataflow rules (phase 4: unit discipline,
floating-point determinism, iterator/reference invalidation).

options:
  --rules R1,R2,...    run only the named rules; ranges expand (R1-R15)
  --format FMT         output format: text (default) or sarif
  --list-rules         print the rule catalog and exit
  -h, --help           this message

suppression: '// parva-audit: allow(R3)' on the offending line or the line
directly above; allow(all) silences every rule for that line.
)";

std::vector<std::string> split_rules(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  auto flush = [&] {
    if (item.empty()) return;
    // Range expansion: R1-R8 -> R1,R2,...,R8.
    const std::size_t dash = item.find('-');
    if (dash != std::string::npos && dash + 1 < item.size() && item[0] == 'R' &&
        item[dash + 1] == 'R') {
      const int lo = std::atoi(item.substr(1, dash - 1).c_str());
      const int hi = std::atoi(item.substr(dash + 2).c_str());
      if (lo > 0 && hi >= lo) {
        for (int r = lo; r <= hi; ++r) {
          std::string rule = "R";  // avoids a GCC 12 -Wrestrict false positive
          rule += std::to_string(r);
          out.push_back(std::move(rule));
        }
        item.clear();
        return;
      }
    }
    out.push_back(item);
    item.clear();
  };
  for (char c : text) {
    if (c == ',') {
      flush();
    } else {
      item += c;
    }
  }
  flush();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  parva::audit::AuditConfig config;
  config.export_manifest = parva::audit::default_export_manifest();
  std::vector<std::string> paths;
  std::string format = "text";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    }
    if (arg == "--list-rules") {
      for (const parva::audit::RuleInfo& rule : parva::audit::rule_catalog()) {
        std::cout << rule.id << "  " << rule.summary << "\n";
      }
      return 0;
    }
    if (arg == "--rules") {
      if (++i >= argc) {
        std::cerr << "parva_audit: --rules needs an argument\n";
        return 2;
      }
      config.rules = split_rules(argv[i]);
      // A typo here would silently audit nothing and read as a clean
      // pass, so unknown rule names are a usage error.
      for (const std::string& rule : config.rules) {
        bool known = false;
        for (const parva::audit::RuleInfo& info : parva::audit::rule_catalog()) {
          if (info.id == rule) { known = true; break; }
        }
        if (!known) {
          std::cerr << "parva_audit: unknown rule '" << rule
                    << "' (--list-rules prints the catalog)\n";
          return 2;
        }
      }
      continue;
    }
    if (arg == "--format") {
      if (++i >= argc) {
        std::cerr << "parva_audit: --format needs an argument\n";
        return 2;
      }
      format = argv[i];
      if (format != "text" && format != "sarif") {
        std::cerr << "parva_audit: unknown format '" << format
                  << "' (expected text or sarif)\n";
        return 2;
      }
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "parva_audit: unknown option " << arg << "\n" << kUsage;
      return 2;
    }
    paths.push_back(arg);
  }
  if (paths.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  std::vector<std::string> errors;
  const std::vector<parva::audit::Finding> findings =
      parva::audit::audit_paths(paths, config, errors);
  for (const std::string& error : errors) {
    std::cerr << "parva_audit: " << error << "\n";
  }

  if (format == "sarif") {
    std::cout << parva::audit::format_findings_sarif(findings);
  } else {
    std::cout << parva::audit::format_findings(findings);
    if (!findings.empty()) {
      std::cout << "parva_audit: " << findings.size() << " finding"
                << (findings.size() == 1 ? "" : "s") << "\n";
    }
  }
  if (!findings.empty()) return 1;
  if (!errors.empty()) return 2;
  if (format == "text") std::cout << "parva_audit: clean\n";
  return 0;
}
