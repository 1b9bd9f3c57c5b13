// parva_audit: project-specific static analysis enforcing the contracts
// every result in this reproduction rests on (DESIGN.md §4.3, §4.4):
//
//   * determinism  -- simulation output must be byte-identical run-to-run,
//   * concurrency  -- shared state must be race-free under the ThreadPool,
//   * status flow  -- fallible MIG control-plane calls must never drop
//                     their result (a silently ignored NvmlReturn corrupts
//                     the placement state the Segment Allocator reasons on),
//   * geometry     -- all A100 slot arithmetic must come from the proved
//                     constexpr tables in src/gpu/mig_geometry.hpp.
//
// Rules:
//   R1  no banned nondeterminism sources (rand(), std::random_device,
//       time(nullptr), std::chrono::system_clock) outside src/common/rng.hpp
//   R2  no iteration over unordered_{map,set} in exporter/CSV/fingerprint
//       translation units (tagged by a path manifest)
//   R3  no mutable namespace-scope state in library code
//   R4  header hygiene: #pragma once present, no `using namespace` in headers
//   R5  every memory_order_relaxed carries a nearby justification comment
//   R6  status-returning functions (NvmlReturn/ErrorCode/Status/Result) are
//       declared [[nodiscard]] and no call site discards the result
//       (symbol-aware: call sites are checked against a cross-file index)
//   R7  every mutable data member of a mutex-owning class carries a
//       PARVA_GUARDED_BY(lock) annotation (src/common/thread_annotations.hpp)
//   R8  MIG geometry is table-driven: src/gpu/mig_geometry.hpp must keep its
//       constexpr kProfileTable/kPlacementTable + static_assert proofs, and
//       no other file may hardcode slot tables or shadow the geometry API
//   R9  the lock-acquisition order graph (MutexLock/SharedMutexLock scopes,
//       including one level through a call) is acyclic; any cycle is a
//       potential deadlock, reported with its witness path
//       (call-graph-aware; see callgraph.hpp)
//   R10 every Rng::stream(seed, TAG, ...) call passes a named enumerator of
//       the RngStreamTag registry (src/common/rng.hpp) and registry values
//       are pairwise distinct; literal tags, unregistered constants and
//       duplicate values are findings
//   R11 no blocking operation (mutex acquisition, ThreadPool submit/wait,
//       iostream/file I/O, std::{map,set} inserts) is transitively
//       reachable from a hot-path root (shard window advance, event-engine
//       push/pop, arrival-tournament replay; see default_hotpath_roots())
//   R12 R2 upgraded to reachability: unordered-container iteration anywhere
//       transitively reachable from a function defined in an export/
//       fingerprint manifest file is flagged, closing the helper-in-a-
//       non-manifest-file hole
//   R13 unit discipline: identifiers with quantity suffixes (_ms, _s, _us,
//       _bytes, _gib, _tokens, _per_s, ...) form inferred unit classes;
//       mixed-unit arithmetic (`x_ms + y_s`), bare numeric literals passed
//       for unit-suffixed parameters, and suffix-less assignment sinks that
//       launder a unit away are findings (dataflow.hpp)
//   R14 floating-point determinism: a double/float `+=`/`-=` inside a loop
//       in any function reachable from an export-manifest entry must go
//       through the canonical-order helper parva::sorted_sum or carry
//       allow(R14) -- summation order is observable in exported bytes
//   R15 iterator/reference invalidation: a reference/pointer/iterator
//       obtained from a vector/deque must not be used after a
//       push_back/insert/erase/clear/... on the same container in the same
//       scope; rebinding (`it = v.erase(it)`) revalidates
//
// Suppression: `// parva-audit: allow(R3)` on the offending line or the line
// directly above; `allow(all)` silences every rule for that line.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace parva::audit {

struct Finding {
  std::string file;  ///< Path as given on the command line / to audit_file().
  int line = 0;
  std::string rule;  ///< "R1".."R15".
  std::string message;

  bool operator<(const Finding& other) const {
    if (file != other.file) return file < other.file;
    if (line != other.line) return line < other.line;
    if (rule != other.rule) return rule < other.rule;
    // Total order: two findings on one line from one rule (distinct
    // messages) sort the same whatever order the rules emitted them in.
    return message < other.message;
  }
  bool operator==(const Finding& other) const {
    return file == other.file && line == other.line && rule == other.rule;
  }
};

struct AuditConfig {
  /// R2/R12 apply to files whose normalized path contains one of these
  /// entries. Defaults to default_export_manifest().
  std::vector<std::string> export_manifest;
  /// Rules to run; empty means all.
  std::vector<std::string> rules;
  /// R11 reachability roots as qualified function names ("Shard::advance");
  /// empty means default_hotpath_roots().
  std::vector<std::string> hotpath_roots;
};

/// One catalog row per rule; drives --list-rules and the SARIF rules array.
struct RuleInfo {
  const char* id;
  const char* summary;
};
const std::vector<RuleInfo>& rule_catalog();

/// Phase-1 output: the cross-file declaration index the symbol-aware rules
/// (R6) consult in phase 2. Built once over every file in the scan set so a
/// definition in a .cpp is excused by the [[nodiscard]] declaration in its
/// header, and call sites anywhere see every status-returning function.
struct SymbolIndex {
  /// Function name -> true when at least one declaration of that name
  /// carries [[nodiscard]]. Every key returns a status-like type
  /// (NvmlReturn / ErrorCode / Status / Result<...>).
  std::map<std::string, bool> status_functions;
  /// R13: function name -> parameter index -> inferred unit of the declared
  /// parameter name ("" when overloads disagree; such slots never flag).
  std::map<std::string, std::map<int, std::string>> unit_params;
};

/// Phase 1: index one in-memory file into `index` (merges with prior files).
void index_file(const std::string& content, SymbolIndex& index);

/// Phase 1 over a whole scan set of (path, content) pairs.
SymbolIndex build_index(const std::vector<std::pair<std::string, std::string>>& files);

/// The built-in R2/R12 manifest: translation units on the exporter / CSV /
/// determinism-fingerprint paths, where container iteration order reaches
/// persisted output byte-for-byte.
std::vector<std::string> default_export_manifest();

/// The built-in R11 roots: the sharded DES's hot loops (window advance,
/// event-engine heap operations, arrival-tournament replay).
std::vector<std::string> default_hotpath_roots();

/// Audits one in-memory file against a pre-built cross-file index. `path`
/// is used for reporting, extension dispatch (R4 runs on headers), manifest
/// matching (R2) and geometry-file dispatch (R8). Runs the per-file rules
/// R1-R8 only; the interprocedural rules need the whole scan set (use
/// audit_files / audit_paths).
std::vector<Finding> audit_file(const std::string& path, const std::string& content,
                                const AuditConfig& config, const SymbolIndex& index);

/// Single-file convenience: all three phases over just this file --
/// per-file rules plus the call-graph rules R9-R12 restricted to what one
/// translation unit can see.
std::vector<Finding> audit_file(const std::string& path, const std::string& content,
                                const AuditConfig& config);

/// The full three-phase pipeline over an in-memory scan set: phase 1
/// builds the cross-file SymbolIndex, phase 1.5 the call graph, phase 2
/// runs R1-R8 per file, phase 3 runs R9-R12 over the graph. Findings come
/// back sorted by (file, line, rule).
std::vector<Finding> audit_files(const std::vector<std::pair<std::string, std::string>>& files,
                                 const AuditConfig& config);

/// Audits files and directories (recursing into known C++ extensions).
/// Runs both phases: the index spans every file in the scan set. Findings
/// come back sorted by (file, line, rule) regardless of argument or
/// directory enumeration order -- the audit obeys the determinism contract
/// it enforces. Unreadable paths are reported via `errors`.
std::vector<Finding> audit_paths(const std::vector<std::string>& paths,
                                 const AuditConfig& config,
                                 std::vector<std::string>& errors);

/// `file:line: [R#] message` -- one line per finding.
std::string format_findings(const std::vector<Finding>& findings);

/// Machine-readable formats for CI. JSON is an array of
/// {"file","line","rule","message"} objects; SARIF is a minimal but valid
/// SARIF 2.1.0 log (one run, rule metadata from rule_catalog()).
std::string format_findings_json(const std::vector<Finding>& findings);
std::string format_findings_sarif(const std::vector<Finding>& findings);

/// Baseline support: CI diffs findings against an accepted set instead of
/// hard-failing on legacy code. A baseline entry is `file|rule|message`
/// (line numbers are deliberately excluded so unrelated edits above a
/// finding do not churn the baseline); the file is newline-separated with
/// '#' comments, and entries form a multiset so N accepted occurrences
/// suppress at most N findings.
std::string baseline_key(const Finding& finding);
std::multiset<std::string> parse_baseline(const std::string& content);
std::string format_baseline(const std::vector<Finding>& findings);

struct BaselineResult {
  std::vector<Finding> fresh;     ///< Findings not covered by the baseline.
  std::size_t suppressed = 0;     ///< Findings matched (and consumed) by it.
  std::size_t stale = 0;          ///< Baseline entries no finding matched.
};
BaselineResult apply_baseline(const std::vector<Finding>& findings,
                              std::multiset<std::string> baseline);

}  // namespace parva::audit
