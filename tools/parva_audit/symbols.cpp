// The per-file structural rules R7 (guarded members of mutex-owning
// classes) and R8 (table-driven MIG geometry).
//
// Like the rest of parva_audit this is lexical, not a front end: no name
// lookup and no overload resolution.
#include <cctype>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "internal.hpp"

namespace parva::audit::internal {
namespace {

// ---------------------------------------------------------------------------
// R7: mutex-owning classes must annotate their mutable data members.
// ---------------------------------------------------------------------------

bool token_in(const std::vector<Token>& stmt, std::initializer_list<const char*> names) {
  for (const Token& t : stmt) {
    if (t.kind != Token::Kind::kIdent) continue;
    for (const char* name : names) {
      if (t.text == name) return true;
    }
  }
  return false;
}

bool is_lock_type(const std::vector<Token>& stmt) {
  return token_in(stmt, {"mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
                         "recursive_timed_mutex", "shared_timed_mutex", "Mutex",
                         "SharedMutex"});
}

bool is_exempt_member_type(const std::vector<Token>& stmt) {
  // Self-synchronizing or synchronization-primitive members need no guard
  // annotation; const members are immutable after construction.
  return token_in(stmt, {"atomic", "atomic_flag", "condition_variable",
                         "condition_variable_any", "once_flag", "const", "constexpr"});
}

/// Last identifier before the initializer ('=', '@body') or subscript.
const Token* member_declarator(const std::vector<Token>& stmt) {
  const Token* declarator = nullptr;
  for (const Token& t : stmt) {
    if (is_punct(t, "=") || t.text == "@body" || is_punct(t, "[")) break;
    if (t.kind == Token::Kind::kIdent) declarator = &t;
  }
  return declarator;
}

}  // namespace

void check_r7(const LexedFile& lexed, const std::string& path,
              std::vector<Finding>& findings) {
  enum class ScopeKind { kNamespace, kClass, kFunction, kOther };
  struct Member {
    std::string name;
    int line = 0;
    bool annotated = false;
    std::string guard;  ///< PARVA_GUARDED_BY argument, when annotated
  };
  struct Scope {
    ScopeKind kind = ScopeKind::kOther;
    std::string class_name;
    std::vector<Member> members;
    std::vector<std::string> lock_members;
    std::vector<Token> saved_stmt;
    bool continues_stmt = false;
  };
  const Token kBodyMarker{Token::Kind::kPunct, "@body", 0};

  auto parse_member = [&](Scope& scope, std::vector<Token> stmt) {
    // Strip leading access specifiers: `public : ...`.
    while (stmt.size() >= 2 && stmt[0].kind == Token::Kind::kIdent &&
           (stmt[0].text == "public" || stmt[0].text == "private" ||
            stmt[0].text == "protected") &&
           is_punct(stmt[1], ":")) {
      stmt.erase(stmt.begin(), stmt.begin() + 2);
    }
    if (stmt.size() < 2) return;
    if (token_in(stmt, {"using", "typedef", "friend", "static_assert", "template",
                        "operator", "enum", "class", "struct", "union", "static"})) {
      return;
    }
    // Function vs data member: a '(' at angle-depth 0 before any '='.
    int angle = 0;
    std::size_t paren = stmt.size();
    std::size_t assign = stmt.size();
    bool has_body = false;
    for (std::size_t i = 0; i < stmt.size(); ++i) {
      if (is_punct(stmt[i], "<")) ++angle;
      if (is_punct(stmt[i], ">") && angle > 0) --angle;
      if (angle != 0) continue;
      if (paren == stmt.size() && is_punct(stmt[i], "(")) paren = i;
      if (assign == stmt.size() && is_punct(stmt[i], "=")) assign = i;
      if (stmt[i].text == "@body") has_body = true;
    }
    // PARVA_GUARDED_BY(...) contributes a paren; detect the annotation first.
    bool annotated = false;
    std::string guard;
    for (std::size_t i = 0; i + 1 < stmt.size(); ++i) {
      if (stmt[i].kind == Token::Kind::kIdent &&
          (stmt[i].text == "PARVA_GUARDED_BY" || stmt[i].text == "PARVA_PT_GUARDED_BY") &&
          is_punct(stmt[i + 1], "(")) {
        annotated = true;
        for (std::size_t k = i + 2; k < stmt.size() && !is_punct(stmt[k], ")"); ++k) {
          guard += stmt[k].text;
        }
      }
    }
    if (!annotated && paren < assign && !has_body) return;  // member function decl
    if (is_lock_type(stmt)) {
      if (const Token* decl = member_declarator(stmt)) {
        scope.lock_members.push_back(decl->text);
      }
      return;
    }
    if (is_exempt_member_type(stmt)) return;
    const Token* decl = member_declarator(stmt);
    if (decl == nullptr) return;
    scope.members.push_back({decl->text, decl->line, annotated, guard});
  };

  auto evaluate_class = [&](const Scope& scope) {
    if (scope.lock_members.empty()) return;
    for (const Member& m : scope.members) {
      if (!m.annotated) {
        add_finding(findings, lexed, path, m.line, "R7",
                    "mutable member '" + m.name + "' of mutex-owning class '" +
                    scope.class_name + "' lacks PARVA_GUARDED_BY(" +
                    scope.lock_members.front() + ") (src/common/thread_annotations.hpp); "
                    "make it const, atomic, or annotate the lock that guards it");
        continue;
      }
      bool known = false;
      for (const std::string& lock : scope.lock_members) {
        if (m.guard.find(lock) != std::string::npos) known = true;
      }
      if (!known) {
        add_finding(findings, lexed, path, m.line, "R7",
                    "PARVA_GUARDED_BY(" + m.guard + ") on member '" + m.name +
                    "' names no mutex member of class '" + scope.class_name + "'");
      }
    }
  };

  std::vector<Scope> stack;
  std::vector<Token> stmt;
  auto in_class = [&] { return !stack.empty() && stack.back().kind == ScopeKind::kClass; };

  for (const Token& t : lexed.tokens) {
    if (is_punct(t, "{")) {
      Scope scope;
      bool has_parens = false;
      int paren_depth = 0;
      std::size_t depth0_assign = stmt.size();
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
      if (token_in(stmt, {"namespace"})) {
        scope.kind = ScopeKind::kNamespace;
      } else if (token_in(stmt, {"class", "struct", "union"}) &&
                 !token_in(stmt, {"enum"})) {
        scope.kind = ScopeKind::kClass;
        scope.continues_stmt = true;
        // Class name: last identifier before a base-clause ':' (skipping
        // 'final'), or simply the last identifier of the head.
        for (std::size_t i = 0; i < stmt.size(); ++i) {
          if (is_punct(stmt[i], ":") &&
              !(i > 0 && is_punct(stmt[i - 1], ":")) &&
              !(i + 1 < stmt.size() && is_punct(stmt[i + 1], ":"))) {
            break;
          }
          if (stmt[i].kind == Token::Kind::kIdent && stmt[i].text != "final" &&
              stmt[i].text != "class" && stmt[i].text != "struct" &&
              stmt[i].text != "union" && stmt[i].text != "alignas") {
            scope.class_name = stmt[i].text;
          }
        }
      } else if (stmt.empty()) {
        scope.kind = ScopeKind::kOther;
      } else if (depth0_assign != stmt.size()) {
        scope.kind = ScopeKind::kOther;
        scope.continues_stmt = true;
      } else if (has_parens || is_punct(stmt.back(), ")")) {
        scope.kind = ScopeKind::kFunction;
      } else {
        scope.kind = ScopeKind::kOther;
        scope.continues_stmt = true;  // direct brace init: Type name{...}
      }
      if (scope.continues_stmt) scope.saved_stmt = stmt;
      stack.push_back(std::move(scope));
      stmt.clear();
    } else if (is_punct(t, "}")) {
      if (!stack.empty()) {
        Scope top = std::move(stack.back());
        stack.pop_back();
        stmt.clear();
        if (top.kind == ScopeKind::kClass) evaluate_class(top);
        if (top.continues_stmt) {
          stmt = std::move(top.saved_stmt);
          stmt.push_back(kBodyMarker);
        }
      }
    } else if (is_punct(t, ";")) {
      if (in_class()) parse_member(stack.back(), stmt);
      stmt.clear();
    } else {
      stmt.push_back(t);
    }
  }
}

// ---------------------------------------------------------------------------
// R8: MIG geometry is table-driven.
// ---------------------------------------------------------------------------

namespace {

bool name_suggests_geometry(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return lower.find("slot") != std::string::npos ||
         lower.find("start") != std::string::npos ||
         lower.find("placement") != std::string::npos;
}

}  // namespace

void check_r8(const LexedFile& lexed, const std::string& path,
              std::vector<Finding>& findings) {
  const std::string p = normalize(path);
  const auto& toks = lexed.tokens;

  if (ends_with(p, "gpu/mig_geometry.hpp")) {
    // The geometry header itself must keep the proved constexpr tables.
    bool has_profile = false, has_placement = false, has_assert = false,
         has_constexpr = false;
    for (const Token& t : toks) {
      if (t.kind != Token::Kind::kIdent) continue;
      if (t.text == "kProfileTable") has_profile = true;
      if (t.text == "kPlacementTable") has_placement = true;
      if (t.text == "static_assert") has_assert = true;
      if (t.text == "constexpr") has_constexpr = true;
    }
    if (!has_profile || !has_placement || !has_assert || !has_constexpr) {
      add_finding(findings, lexed, path, 1, "R8",
                  "mig_geometry.hpp must define constexpr kProfileTable and "
                  "kPlacementTable with static_assert proofs of the Fig. 1 "
                  "invariants (GPC sums <= 7, memory slices <= 8, start-slot "
                  "legality, no intra-profile overlap)");
    }
    return;
  }
  if (ends_with(p, "gpu/mig_geometry.cpp") || ends_with(p, "gpu/arch.hpp")) {
    return;  // the geometry implementation itself
  }

  // (a) Hardcoded slot tables: a declarator whose name mentions
  // slot/start/placement, brace-initialized from >= 2 ascending integer
  // literals all within the A100 slot range 0..6.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent || !name_suggests_geometry(t.text)) continue;
    // Declarator context: preceded by a type token, not an expression.
    if (i == 0) continue;
    const Token& prev = toks[i - 1];
    const bool decl_context =
        prev.kind == Token::Kind::kIdent || is_punct(prev, ">");
    if (!decl_context) continue;
    std::size_t j = i + 1;
    if (j < toks.size() && is_punct(toks[j], "[")) {  // array declarator
      for (++j; j < toks.size() && !is_punct(toks[j], "]"); ++j) {
      }
      if (j < toks.size()) ++j;
    }
    if (j < toks.size() && is_punct(toks[j], "=")) ++j;
    if (j >= toks.size() || !is_punct(toks[j], "{")) continue;
    int depth = 1;
    std::vector<long> values;
    bool only_numbers = true;
    for (++j; j < toks.size() && depth > 0; ++j) {
      if (is_punct(toks[j], "{")) ++depth;
      else if (is_punct(toks[j], "}")) --depth;
      else if (toks[j].kind == Token::Kind::kNumber) values.push_back(std::stol(toks[j].text));
      else if (!is_punct(toks[j], ",")) only_numbers = false;
    }
    if (!only_numbers || values.size() < 2) continue;
    bool slot_range = true;
    for (std::size_t k = 0; k < values.size(); ++k) {
      if (values[k] < 0 || values[k] > 6) slot_range = false;
      if (k > 0 && values[k] <= values[k - 1]) slot_range = false;
    }
    if (!slot_range) continue;
    add_finding(findings, lexed, path, t.line, "R8",
                "hardcoded slot table '" + t.text + "': A100 start-slot/placement "
                "data must come from the proved constexpr tables in "
                "src/gpu/mig_geometry.hpp (legal_start_slots / kPlacementTable)");
  }

  // (b) Shadow definitions of the geometry API outside the geometry files.
  static const std::set<std::string> kGeometryApi = {
      "legal_start_slots", "preferred_start_slots", "is_legal_placement",
      "find_start_slot",   "enumerate_maximal_configs", "enumerate_all_configs"};
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent || kGeometryApi.count(t.text) == 0) continue;
    if (!is_punct(toks[i + 1], "(")) continue;
    if (i == 0) continue;
    const Token& prev = toks[i - 1];
    if (prev.kind != Token::Kind::kIdent && !is_punct(prev, ">") &&
        !is_punct(prev, "&") && !is_punct(prev, "*") && !is_punct(prev, ":")) {
      continue;
    }
    std::size_t j = i + 1;
    int d = 1;
    for (++j; j < toks.size() && d > 0; ++j) {
      if (is_punct(toks[j], "(")) ++d;
      if (is_punct(toks[j], ")")) --d;
    }
    while (j < toks.size() &&
           (is_ident(toks[j], "const") || is_ident(toks[j], "noexcept"))) {
      ++j;
    }
    if (j < toks.size() && is_punct(toks[j], "{")) {
      add_finding(findings, lexed, path, t.line, "R8",
                  "'" + t.text + "' redefines the MIG geometry API outside "
                  "src/gpu/mig_geometry.*: runtime placement code must consult "
                  "the single proved implementation");
    }
  }
}

}  // namespace parva::audit::internal
