// Phase-4 of parva_audit: intraprocedural dataflow rules (DESIGN.md §4.9).
//
//   R13 unit discipline -- identifiers carrying a quantity suffix (_ms, _s,
//       _us, _bytes, _gib, _tokens, ...) form inferred unit classes. Flagged:
//       mixed-unit arithmetic/comparison (`x_ms + y_s`), bare numeric
//       literals passed to unit-carrying parameters of indexed functions,
//       and declarations that launder a unit into a suffix-less arithmetic
//       variable (`double t = window_ms;`).
//   R14 floating-point determinism -- a double/float `+=`/`-=` inside a loop
//       in any function reachable from an export-manifest entry (the R12
//       reachability machinery) makes summation order observable in exported
//       bytes; such reductions must go through the canonical-order helper
//       `sorted_sum` (sort by bit pattern, then add; common/stats.hpp) or
//       carry an allow(R14) justification.
//   R15 iterator/reference invalidation -- a reference, pointer or iterator
//       obtained from a vector/deque must not be used after a push_back/
//       emplace_back/insert/erase/clear/resize/... on the same container in
//       the same scope. Rebinding (`it = v.erase(it)`) revalidates.
//
// Like every other phase this is lexical: no types, no aliasing, no
// control-flow ordering beyond token order. The soundness gaps (documented
// in DESIGN.md §4.9) are: unit inference sees suffixes, not semantics;
// R14 only tracks names declared double/float in the same file; R15 does
// not model loop back-edges or mutation through aliases.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "audit.hpp"
#include "callgraph.hpp"
#include "lexer.hpp"

namespace parva::audit {

/// The unit inferred from an identifier's quantity suffix, or "" when the
/// name carries none. One trailing '_' (the data-member convention) is
/// stripped first; `_per_<unit>` suffixes form distinct rate units so
/// `decode_tok_per_s` (a rate) never collides with `elapsed_s` (a time).
std::string unit_suffix(const std::string& name);

/// The R14 detector: every `+=` / `-=` on a name declared double/float in
/// this file, inside a for/while/do loop. Shared with the call-graph
/// builder, which attributes each hit to its enclosing function.
std::vector<FpAccumulation> collect_fp_accumulations(const LexedFile& lexed);

/// Phase-1 output: the cross-file declaration index R13 consults in phase
/// 2, built once over the headers in the scan set.
struct SymbolIndex {
  /// Function name -> parameter index -> inferred unit of the declared
  /// parameter name ("" when overloads disagree; such slots never flag).
  std::map<std::string, std::map<int, std::string>> unit_params;
};

namespace internal {

/// Phase-1 contribution: records `name -> param index -> unit` for every
/// function declaration whose parameter names carry a unit suffix.
/// Conflicting declarations (same name+index, different unit) poison the
/// entry with "" so overload ambiguity never produces a finding.
void scan_unit_params_into_index(const LexedFile& lexed, SymbolIndex& index);

void check_r13(const LexedFile& lexed, const std::string& path,
               const SymbolIndex& index, std::vector<Finding>& findings);
void check_r14(const CallGraph& graph, const AuditConfig& config,
               const std::map<std::string, const LexedFile*>& lexed,
               std::vector<Finding>& findings);
void check_r15(const LexedFile& lexed, const std::string& path,
               std::vector<Finding>& findings);

}  // namespace internal

}  // namespace parva::audit
