// Internal helpers shared between the per-file lexical rules (rules.cpp)
// and the symbol-aware rules R6-R8 (symbols.cpp). Not part of the public
// audit API.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "audit.hpp"
#include "callgraph.hpp"
#include "lexer.hpp"

namespace parva::audit::internal {

inline bool is_ident(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}
inline bool is_punct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

inline std::string normalize(const std::string& path) {
  std::string out = path;
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

inline bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), std::string::npos, suffix) == 0;
}

/// Files whose declarations are visible across translation units. R13's
/// cross-file unit bindings come only from these (exported APIs live in
/// headers); a .cpp-local declaration binds call sites in its own file
/// alone, so a common method name in one TU cannot taint every other TU.
inline bool is_header_path(const std::string& path) {
  const std::string p = normalize(path);
  for (const char* ext : {".hpp", ".h", ".hh", ".hxx", ".ipp"}) {
    if (ends_with(p, ext)) return true;
  }
  return false;
}

/// Path-manifest matching shared by R2 (per-file) and R12 (reachability):
/// a file is on the manifest when its normalized path contains any entry.
inline bool path_matches(const std::string& path, const std::vector<std::string>& manifest) {
  const std::string p = normalize(path);
  for (const std::string& entry : manifest) {
    if (!entry.empty() && p.find(entry) != std::string::npos) return true;
  }
  return false;
}

inline void add_finding(std::vector<Finding>& findings, const LexedFile& lexed,
                        const std::string& path, int line, const char* rule,
                        std::string message) {
  if (is_allowed(lexed, line, rule)) return;
  Finding f;
  f.file = path;
  f.line = line;
  f.rule = rule;
  f.message = std::move(message);
  findings.push_back(std::move(f));
}

/// True when `rule` should run under `config` (empty rule list = all).
/// Implemented in rules.cpp.
bool rule_enabled(const AuditConfig& config, const char* rule);

// R6/R7/R8 entry points (implemented in symbols.cpp).
void scan_status_functions_into_index(const LexedFile& lexed, SymbolIndex& index);
void check_r6(const LexedFile& lexed, const std::string& path, const SymbolIndex& index,
              std::vector<Finding>& findings);
void check_r7(const LexedFile& lexed, const std::string& path,
              std::vector<Finding>& findings);
void check_r8(const LexedFile& lexed, const std::string& path,
              std::vector<Finding>& findings);

// R9-R12 entry points (implemented in lockgraph.cpp): interprocedural
// rules over the phase-1.5 call graph. `lexed` maps each scanned path to
// its token stream so allow() suppression anchors at the finding's file.
using LexedByFile = std::map<std::string, const LexedFile*>;
void check_r9(const CallGraph& graph, const LexedByFile& lexed,
              std::vector<Finding>& findings);
void check_r10(const CallGraph& graph, const LexedByFile& lexed,
               std::vector<Finding>& findings);
void check_r11(const CallGraph& graph, const AuditConfig& config,
               const LexedByFile& lexed, std::vector<Finding>& findings);
void check_r12(const CallGraph& graph, const AuditConfig& config,
               const LexedByFile& lexed, std::vector<Finding>& findings);

// Shared token-stream utilities (implemented in callgraph.cpp): the
// matching close delimiter for the open at toks[i], and an argument list
// split at top-level commas.
std::size_t match_close(const std::vector<Token>& toks, std::size_t i,
                        const char* open, const char* close);
std::vector<std::vector<Token>> split_args(const std::vector<Token>& toks,
                                           std::size_t i, std::size_t end);

// The reachability machinery shared by R11/R12/R14 (implemented in
// lockgraph.cpp): BFS over resolved call edges with a parent map so every
// finding can carry its witness chain.
struct Reachability {
  std::vector<std::size_t> order;
  std::map<std::size_t, std::size_t> parent;  // absent for start nodes
};
Reachability reach(const CallGraph& graph, const std::vector<std::size_t>& starts);
std::vector<std::string> witness_chain(const CallGraph& graph, const Reachability& r,
                                       std::size_t idx);
std::string join_path(const std::vector<std::string>& names);

/// add_finding against the right file's allow() table; findings for files
/// outside the lexed map get no suppression.
void add_graph_finding(std::vector<Finding>& findings, const LexedByFile& lexed,
                       const std::string& file, int line, const char* rule,
                       std::string message);

}  // namespace parva::audit::internal
