#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "audit.hpp"
#include "callgraph.hpp"
#include "dataflow.hpp"
#include "internal.hpp"
#include "lexer.hpp"

namespace parva::audit {
namespace {

using internal::add_finding;
using internal::ends_with;
using internal::is_ident;
using internal::is_punct;
using internal::normalize;
using internal::path_matches;

bool is_header(const std::string& path) {
  const std::string p = normalize(path);
  for (const char* ext : {".hpp", ".h", ".hh", ".hxx"}) {
    if (ends_with(p, ext)) return true;
  }
  return false;
}

// R1 -- banned nondeterminism sources. The simulator's only sanctioned
// randomness is parva::Rng (seeded, stable across platforms); wall-clock
// reads are banned because any value derived from one diverges run-to-run.
void check_r1(const LexedFile& lexed, const std::string& path,
              std::vector<Finding>& findings) {
  if (ends_with(normalize(path), "common/rng.hpp")) {
    return;  // the one sanctioned randomness implementation
  }
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) continue;
    const bool member_access =
        i > 0 && (is_punct(toks[i - 1], ".") ||
                  (i > 1 && is_punct(toks[i - 1], ">") && is_punct(toks[i - 2], "-")));
    if ((t.text == "rand" || t.text == "srand") && !member_access &&
        i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
      add_finding(findings, lexed, path, t.line, "R1",
                  t.text + "() is banned: seed-stable randomness must come from "
                  "parva::Rng (src/common/rng.hpp)");
    } else if (t.text == "random_device") {
      add_finding(findings, lexed, path, t.line, "R1",
                  "std::random_device is banned: it is nondeterministic by design; "
                  "derive streams from parva::Rng::split()");
    } else if (t.text == "system_clock") {
      add_finding(findings, lexed, path, t.line, "R1",
                  "std::chrono::system_clock is banned in simulation code: wall-clock "
                  "values diverge run-to-run (steady_clock durations for measured "
                  "scheduling time are exempt)");
    } else if (t.text == "time" && !member_access && i + 3 < toks.size() &&
               is_punct(toks[i + 1], "(") &&
               (is_ident(toks[i + 2], "nullptr") || is_ident(toks[i + 2], "NULL") ||
                (toks[i + 2].kind == Token::Kind::kNumber && toks[i + 2].text == "0")) &&
               is_punct(toks[i + 3], ")")) {
      add_finding(findings, lexed, path, t.line, "R1",
                  "time(" + toks[i + 2].text + ") is banned: wall-clock seeds break "
                  "byte-identical replay; thread an explicit seed instead");
    }
  }
}

// R2 -- unordered-container iteration on export paths. Iteration order of
// unordered_{map,set} is implementation- and insertion-history-dependent;
// on a translation unit that feeds a CSV, Prometheus exposition, or
// determinism fingerprint it silently breaks byte-identity. Lookups are
// fine; iteration (range-for or begin()/cbegin()/rbegin()) is not.
void check_r2(const LexedFile& lexed, const std::string& path,
              const AuditConfig& config, std::vector<Finding>& findings) {
  if (!path_matches(path, config.export_manifest)) return;
  // The detector is shared with R12 (which applies it to non-manifest
  // files reachable from manifest entry points); see callgraph.cpp.
  for (const UnorderedIteration& it : collect_unordered_iterations(lexed)) {
    add_finding(findings, lexed, path, it.line, "R2",
                std::string(it.iterator_walk ? "iterator" : "iteration") +
                " over unordered container '" + it.name +
                "' on an export path: iteration order is not deterministic; "
                "copy to a sorted vector (or use std::map) before emitting");
  }
}

// R3 -- mutable namespace-scope state. A mutable global is (a) shared state
// the ThreadPool can race on and (b) cross-run state that can leak between
// simulations; both break the contracts. Constants are fine; deliberate
// exceptions (the logging sink, per-thread shard caches) carry an
// allow(R3) with their safety argument.
//
// Implementation: a brace-matching scope machine over the token stream.
// Statements are accumulated between ';'/'{'/'}' and evaluated only when
// the enclosing scope is a namespace (or the file top level).
void check_r3(const LexedFile& lexed, const std::string& path,
              std::vector<Finding>& findings) {
  enum class ScopeKind { kNamespace, kClass, kFunction, kOther };
  struct Scope {
    ScopeKind kind;
    std::vector<Token> saved_stmt;
    bool continues_stmt;
  };
  const Token kBodyMarker{Token::Kind::kPunct, "@body", 0};

  auto contains_ident = [](const std::vector<Token>& stmt,
                           std::initializer_list<const char*> names) {
    for (const Token& t : stmt) {
      if (t.kind != Token::Kind::kIdent) continue;
      for (const char* name : names) {
        if (t.text == name) return true;
      }
    }
    return false;
  };

  auto evaluate_stmt = [&](const std::vector<Token>& stmt) {
    if (stmt.size() < 2) return;  // lone macro invocations / stray tokens
    if (contains_ident(stmt, {"using", "typedef", "friend", "static_assert", "template",
                              "concept", "requires", "operator"})) {
      return;
    }
    if (contains_ident(stmt, {"const", "constexpr", "constinit"})) return;
    std::size_t paren = stmt.size();
    std::size_t assign = stmt.size();
    bool has_body = false;
    for (std::size_t i = 0; i < stmt.size(); ++i) {
      if (paren == stmt.size() && is_punct(stmt[i], "(")) paren = i;
      if (assign == stmt.size() && is_punct(stmt[i], "=")) assign = i;
      if (stmt[i].text == "@body") has_body = true;
    }
    if (contains_ident(stmt, {"extern"}) && assign == stmt.size() && !has_body) {
      return;  // pure declaration; the defining TU gets the finding
    }
    const Token* declarator = nullptr;
    if (contains_ident(stmt, {"class", "struct", "union", "enum"})) {
      // Type definitions are fine; `struct X {...} instance;` is not.
      if (!has_body) return;
      for (auto it = stmt.rbegin(); it != stmt.rend() && it->text != "@body"; ++it) {
        if (it->kind == Token::Kind::kIdent) {
          declarator = &*it;
          break;
        }
      }
    } else if (paren == stmt.size() || assign < paren) {
      // No parens at all, or an initializer before the first paren: a
      // variable. (A paren with no preceding '=' is a function signature.)
      for (auto it = stmt.rbegin(); it != stmt.rend(); ++it) {
        if (it->kind == Token::Kind::kIdent &&
            (assign == stmt.size() || &*it <= &stmt[assign])) {
          declarator = &*it;
          break;
        }
      }
    }
    if (declarator == nullptr) return;
    add_finding(findings, lexed, path, declarator->line, "R3",
                "mutable namespace-scope state '" + declarator->text +
                "': shared globals race under the ThreadPool and leak state "
                "across runs; pass state explicitly or justify with allow(R3)");
  };

  std::vector<Scope> stack;
  std::vector<Token> stmt;
  auto scope_kind = [&] {
    return stack.empty() ? ScopeKind::kNamespace : stack.back().kind;
  };

  for (const Token& t : lexed.tokens) {
    if (is_punct(t, "{")) {
      ScopeKind kind = ScopeKind::kOther;
      bool continues = false;
      int paren_depth = 0;
      std::size_t depth0_assign = stmt.size();
      bool has_parens = false;
      for (std::size_t i = 0; i < stmt.size(); ++i) {
        if (is_punct(stmt[i], "(")) {
          ++paren_depth;
          has_parens = true;
        } else if (is_punct(stmt[i], ")")) {
          --paren_depth;
        } else if (paren_depth == 0 && depth0_assign == stmt.size() &&
                   is_punct(stmt[i], "=")) {
          depth0_assign = i;
        }
      }
      if (contains_ident(stmt, {"namespace"})) {
        kind = ScopeKind::kNamespace;
      } else if (contains_ident(stmt, {"class", "struct", "union", "enum"})) {
        kind = ScopeKind::kClass;
        continues = true;
      } else if (stmt.empty()) {
        kind = ScopeKind::kOther;
      } else if (depth0_assign != stmt.size()) {
        kind = ScopeKind::kOther;  // brace initializer after '='
        continues = true;
      } else if (has_parens || is_punct(stmt.back(), ")")) {
        kind = ScopeKind::kFunction;
      } else if (stmt.back().kind == Token::Kind::kIdent || is_punct(stmt.back(), ">") ||
                 is_punct(stmt.back(), "]")) {
        kind = ScopeKind::kOther;  // direct brace init: Type name{...}
        continues = true;
      }
      stack.push_back({kind, continues ? stmt : std::vector<Token>{}, continues});
      stmt.clear();
    } else if (is_punct(t, "}")) {
      if (!stack.empty()) {
        Scope top = std::move(stack.back());
        stack.pop_back();
        stmt.clear();
        if (top.continues_stmt) {
          stmt = std::move(top.saved_stmt);
          stmt.push_back(kBodyMarker);
        }
      }
    } else if (is_punct(t, ";")) {
      if (scope_kind() == ScopeKind::kNamespace) evaluate_stmt(stmt);
      stmt.clear();
    } else {
      stmt.push_back(t);
    }
  }
}

// R4 -- header hygiene: every header starts with #pragma once (double
// inclusion otherwise produces ODR violations the linker may or may not
// catch) and never opens a namespace into every includer's scope.
void check_r4(const LexedFile& lexed, const std::string& path,
              const std::string& content, std::vector<Finding>& findings) {
  if (!is_header(path)) return;
  if (content.find("#pragma once") == std::string::npos) {
    add_finding(findings, lexed, path, 1, "R4",
                "header is missing #pragma once");
  }
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (is_ident(toks[i], "using") && is_ident(toks[i + 1], "namespace")) {
      add_finding(findings, lexed, path, toks[i].line, "R4",
                  "`using namespace` in a header leaks into every includer; "
                  "qualify names instead");
    }
  }
}

// R5 -- memory_order_relaxed must carry its safety argument. Relaxed
// atomics are correct only under a side condition the type system cannot
// see (single writer, monotonic flag, id allocation, ...); requiring the
// argument next to the code keeps the concurrency contract reviewable.
void check_r5(const LexedFile& lexed, const std::string& path,
              std::vector<Finding>& findings) {
  std::set<int> flagged_lines;
  for (const Token& t : lexed.tokens) {
    if (t.kind != Token::Kind::kIdent || t.text != "memory_order_relaxed") continue;
    if (flagged_lines.count(t.line) != 0) continue;
    bool justified = false;
    for (int l = t.line; l >= t.line - 3 && l >= 1; --l) {
      if (l < static_cast<int>(lexed.line_has_comment.size()) && lexed.line_has_comment[l]) {
        justified = true;
        break;
      }
    }
    if (!justified) {
      flagged_lines.insert(t.line);
      add_finding(findings, lexed, path, t.line, "R5",
                  "memory_order_relaxed without a nearby justification comment "
                  "(same line or the three lines above): state why relaxed "
                  "ordering is sufficient here");
    }
  }
}

using internal::rule_enabled;

// Phase 2 over one already-lexed file: every per-file rule (R1-R8, R13,
// R15), findings appended unsorted.
void run_per_file_rules(const std::string& path, const std::string& content,
                        const LexedFile& lexed, const AuditConfig& config,
                        const SymbolIndex& index, std::vector<Finding>& findings) {
  if (rule_enabled(config, "R1")) check_r1(lexed, path, findings);
  if (rule_enabled(config, "R2")) check_r2(lexed, path, config, findings);
  if (rule_enabled(config, "R3")) check_r3(lexed, path, findings);
  if (rule_enabled(config, "R4")) check_r4(lexed, path, content, findings);
  if (rule_enabled(config, "R5")) check_r5(lexed, path, findings);
  if (rule_enabled(config, "R6")) internal::check_r6(lexed, path, index, findings);
  if (rule_enabled(config, "R7")) internal::check_r7(lexed, path, findings);
  if (rule_enabled(config, "R8")) internal::check_r8(lexed, path, findings);
  if (rule_enabled(config, "R13")) internal::check_r13(lexed, path, index, findings);
  if (rule_enabled(config, "R15")) internal::check_r15(lexed, path, findings);
}

}  // namespace

namespace internal {

bool rule_enabled(const AuditConfig& config, const char* rule) {
  if (config.rules.empty()) return true;
  return std::find(config.rules.begin(), config.rules.end(), rule) != config.rules.end();
}

}  // namespace internal

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"R1", "banned nondeterminism sources (rand, srand, std::random_device, "
             "time(nullptr), std::chrono::system_clock) outside src/common/rng.hpp"},
      {"R2", "no unordered_{map,set} iteration in exporter/CSV/fingerprint TUs "
             "(path manifest)"},
      {"R3", "no mutable namespace-scope state in library code"},
      {"R4", "header hygiene: #pragma once, no `using namespace` in headers"},
      {"R5", "every memory_order_relaxed carries a nearby justification comment"},
      {"R6", "status-returning functions (NvmlReturn/ErrorCode/Status/Result) are "
             "[[nodiscard]] and no call site discards the result"},
      {"R7", "every mutable data member of a mutex-owning class carries "
             "PARVA_GUARDED_BY(lock) (src/common/thread_annotations.hpp)"},
      {"R8", "MIG geometry is table-driven: constexpr kProfileTable/kPlacementTable "
             "with static_assert proofs; no hardcoded slot tables or shadow APIs"},
      {"R9", "the lock-acquisition order graph (lock-guard scopes, including one "
             "level through a call) is acyclic; cycles are potential deadlocks"},
      {"R10", "every Rng::stream tag is a named enumerator of the RngStreamTag "
              "registry (src/common/rng.hpp) with pairwise-distinct values"},
      {"R11", "no blocking operation (locks, pool submit/wait, iostream/file I/O, "
              "std::{map,set} inserts) is transitively reachable from a hot-path root"},
      {"R12", "no unordered-container iteration transitively reachable from "
              "functions defined in export/fingerprint manifest files"},
      {"R13", "unit discipline: no mixed-unit arithmetic between quantity-"
              "suffixed names (_ms/_s/_bytes/...), no bare literals for "
              "unit-suffixed parameters, no suffix-less laundering sinks"},
      {"R14", "floating-point determinism: loop +=/-= reductions on "
              "double/float reachable from export-manifest entries must use "
              "parva::sorted_sum or carry allow(R14)"},
      {"R15", "iterator/reference invalidation: no use of a vector/deque "
              "reference/pointer/iterator after push_back/insert/erase/clear "
              "on the same container in the same scope"},
  };
  return kCatalog;
}

void index_file(const std::string& content, SymbolIndex& index) {
  const LexedFile lexed = lex(content);
  internal::scan_status_functions_into_index(lexed, index);
  internal::scan_unit_params_into_index(lexed, index);
}

SymbolIndex build_index(const std::vector<std::pair<std::string, std::string>>& files) {
  SymbolIndex index;
  for (const auto& [path, content] : files) {
    (void)path;  // the index is keyed by symbol name, not by file
    index_file(content, index);
  }
  return index;
}

std::vector<std::string> default_export_manifest() {
  // Translation units where container order reaches persisted bytes:
  // Prometheus/JSON/CSV exporters, the CSV table renderer, the
  // discrete-event simulator (CSV rows + determinism fingerprints), the
  // experiment harness (results/*.csv), and the metrics used in summaries.
  return {
      "src/telemetry/exporters.cpp",
      "src/telemetry/metrics_registry.cpp",
      "src/telemetry/event_log.cpp",
      "src/common/table.cpp",
      "src/serving/cluster_sim.cpp",
      "src/serving/shard_engine.cpp",
      // Generative-LLM paths: policy spellings reach parvactl reports, and
      // the token laws feed the determinism fingerprints byte-for-byte.
      "src/serving/llm_engine.cpp",
      "src/serving/sim_runner.cpp",
      "src/perfmodel/llm_model.cpp",
      "src/scenarios/experiment.cpp",
      "src/core/metrics.cpp",
      // Name-based tags: any file announcing itself as an export or
      // fingerprint path is held to R2 without a manifest edit.
      "export",
      "fingerprint",
  };
}

std::vector<Finding> audit_file(const std::string& path, const std::string& content,
                                const AuditConfig& config, const SymbolIndex& index) {
  const LexedFile lexed = lex(content);
  std::vector<Finding> findings;
  run_per_file_rules(path, content, lexed, config, index, findings);
  std::sort(findings.begin(), findings.end());
  return findings;
}

std::vector<Finding> audit_file(const std::string& path, const std::string& content,
                                const AuditConfig& config) {
  return audit_files({{path, content}}, config);
}

std::vector<Finding> audit_files(const std::vector<std::pair<std::string, std::string>>& files,
                                 const AuditConfig& config) {
  // Phase 1: lex every file once and build the cross-file symbol index in
  // file order.
  std::vector<LexedFile> lexed;
  lexed.reserve(files.size());
  SymbolIndex index;
  for (const auto& [path, content] : files) {
    lexed.push_back(lex(content));
    internal::scan_status_functions_into_index(lexed.back(), index);
    // Unit bindings cross TU boundaries only through headers; check_r13
    // re-scans each file locally for its own .cpp-level declarations.
    if (internal::is_header_path(path)) {
      internal::scan_unit_params_into_index(lexed.back(), index);
    }
  }

  // Phase 2: per-file rules in file order.
  std::vector<Finding> findings;
  for (std::size_t i = 0; i < files.size(); ++i) {
    run_per_file_rules(files[i].first, files[i].second, lexed[i], config, index, findings);
  }

  // Phase 1.5 + 3/4: the call graph and the interprocedural rules, skipped
  // entirely when none of them is enabled.
  const bool graph_rules = rule_enabled(config, "R9") || rule_enabled(config, "R10") ||
                           rule_enabled(config, "R11") || rule_enabled(config, "R12") ||
                           rule_enabled(config, "R14");
  if (graph_rules) {
    std::vector<std::pair<std::string, const LexedFile*>> graph_input;
    internal::LexedByFile by_file;
    graph_input.reserve(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
      graph_input.emplace_back(files[i].first, &lexed[i]);
      by_file[files[i].first] = &lexed[i];
    }
    const CallGraph graph = build_call_graph(graph_input);
    if (rule_enabled(config, "R9")) internal::check_r9(graph, by_file, findings);
    if (rule_enabled(config, "R10")) internal::check_r10(graph, by_file, findings);
    if (rule_enabled(config, "R11")) internal::check_r11(graph, config, by_file, findings);
    if (rule_enabled(config, "R12")) internal::check_r12(graph, config, by_file, findings);
    if (rule_enabled(config, "R14")) internal::check_r14(graph, config, by_file, findings);
  }

  std::sort(findings.begin(), findings.end());
  return findings;
}

std::vector<Finding> audit_paths(const std::vector<std::string>& paths,
                                 const AuditConfig& config,
                                 std::vector<std::string>& errors) {
  namespace fs = std::filesystem;
  static const std::set<std::string> kExtensions = {".cpp", ".cc", ".cxx", ".hpp",
                                                    ".h",   ".hh", ".hxx", ".ipp"};
  // Collect first, then sort: directory enumeration order is OS-dependent
  // and the audit's own output must be deterministic.
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end; !ec && it != end;
           it.increment(ec)) {
        if (it->is_regular_file() && kExtensions.count(it->path().extension().string()) != 0) {
          files.push_back(normalize(it->path().string()));
        }
      }
      if (ec) errors.push_back(path + ": " + ec.message());
    } else if (fs::is_regular_file(path, ec)) {
      files.push_back(normalize(path));
    } else {
      errors.push_back(path + ": not a file or directory");
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // Phase 1: read everything and build the cross-file symbol index, so a
  // [[nodiscard]] declaration in a header excuses the definition in its
  // .cpp and call sites see every status-returning function in the set.
  std::vector<std::pair<std::string, std::string>> contents;
  contents.reserve(files.size());
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      errors.push_back(file + ": cannot open");
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    contents.emplace_back(file, buffer.str());
  }

  // Phases 1, 1.5, 2 and 3/4 over the in-memory scan set.
  return audit_files(contents, config);
}

}  // namespace parva::audit
