// Golden-fixture suite for parva_audit (tools/parva_audit). One fixture per
// rule R1-R15 with seeded violations at pinned lines, allow() suppression
// fixtures, clean fixtures, pinned (caller, callee) edge lists for the
// phase-1.5 call-graph builder and output-format goldens (text / SARIF),
// plus the meta-contracts: the repository's own src/ tree audits clean at
// HEAD, and the audit's output is deterministic regardless of traversal
// order.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "audit.hpp"
#include "callgraph.hpp"

namespace {

namespace fs = std::filesystem;
using parva::audit::AuditConfig;
using parva::audit::Finding;

std::string fixture_path(const std::string& name) {
  return std::string(PARVA_AUDIT_FIXTURE_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

AuditConfig default_config() {
  AuditConfig config;
  config.export_manifest = parva::audit::default_export_manifest();
  return config;
}

/// (rule, line) pairs, sorted, for comparison against pinned expectations.
std::vector<std::pair<std::string, int>> rule_lines(const std::vector<Finding>& findings) {
  std::vector<std::pair<std::string, int>> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.emplace_back(f.rule, f.line);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Finding> audit_fixture(const std::string& name) {
  const std::string path = fixture_path(name);
  return parva::audit::audit_file(path, read_file(path), default_config());
}

TEST(AuditFixtures, R1BansNondeterminismSources) {
  const auto got = rule_lines(audit_fixture("r1_banned_randomness.cpp"));
  const std::vector<std::pair<std::string, int>> expected = {
      {"R1", 9}, {"R1", 13}, {"R1", 17}, {"R1", 21}, {"R1", 26}};
  EXPECT_EQ(got, expected);
}

TEST(AuditFixtures, R2FlagsUnorderedIterationOnExportPaths) {
  const auto got = rule_lines(audit_fixture("r2_unordered_export.cpp"));
  const std::vector<std::pair<std::string, int>> expected = {{"R2", 11}, {"R2", 19}};
  EXPECT_EQ(got, expected);
}

TEST(AuditFixtures, R2IgnoresFilesOutsideManifest) {
  // The same translation unit under a name no manifest entry matches is
  // exempt: R2 is scoped to exporter/CSV/fingerprint paths only.
  const std::string content = read_file(fixture_path("r2_unordered_export.cpp"));
  const auto findings =
      parva::audit::audit_file("src/core/allocator.cpp", content, default_config());
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R3FlagsMutableNamespaceScopeState) {
  const auto got = rule_lines(audit_fixture("r3_global_state.cpp"));
  const std::vector<std::pair<std::string, int>> expected = {
      {"R3", 9}, {"R3", 10}, {"R3", 11}, {"R3", 12}, {"R3", 23}};
  EXPECT_EQ(got, expected);
}

TEST(AuditFixtures, R4FlagsHeaderHygiene) {
  const auto got = rule_lines(audit_fixture("r4_header_hygiene.hpp"));
  const std::vector<std::pair<std::string, int>> expected = {{"R4", 1}, {"R4", 6}};
  EXPECT_EQ(got, expected);
}

TEST(AuditFixtures, R4DoesNotApplyToTranslationUnits) {
  const std::string content = read_file(fixture_path("r4_header_hygiene.hpp"));
  const auto findings =
      parva::audit::audit_file("fixture.cpp", content, default_config());
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R5RequiresJustificationComments) {
  const auto got = rule_lines(audit_fixture("r5_relaxed_unjustified.cpp"));
  const std::vector<std::pair<std::string, int>> expected = {{"R5", 8}, {"R5", 13}};
  EXPECT_EQ(got, expected);
}

TEST(AuditFixtures, R6FlagsVoidCastCallsWithoutAReason) {
  const auto got = rule_lines(audit_fixture("r6_discarded_status.cpp"));
  // 16/17: (void) on a call at statement start; 18: after an if head.
  const std::vector<std::pair<std::string, int>> expected = {
      {"R6", 16}, {"R6", 17}, {"R6", 18}};
  EXPECT_EQ(got, expected);
}

TEST(AuditFixtures, R6AllowDirectiveSuppresses) {
  const auto findings = audit_fixture("r6_allow.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R6CleanFileProducesNoFindings) {
  const auto findings = audit_fixture("r6_clean.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R7FlagsUnguardedMembersOfMutexOwningClass) {
  const auto got = rule_lines(audit_fixture("r7_unguarded_members.cpp"));
  // 19/20: unguarded mutable members; 22: guard names no lock member.
  const std::vector<std::pair<std::string, int>> expected = {
      {"R7", 19}, {"R7", 20}, {"R7", 22}};
  EXPECT_EQ(got, expected);
}

TEST(AuditFixtures, R7AllowDirectiveSuppresses) {
  const auto findings = audit_fixture("r7_allow.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R7CleanFileProducesNoFindings) {
  const auto findings = audit_fixture("r7_clean.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R8FlagsHardcodedTablesAndShadowApis) {
  const auto got = rule_lines(audit_fixture("r8_geometry.cpp"));
  // 9/11: hardcoded slot tables; 13/17: shadow geometry API definitions.
  const std::vector<std::pair<std::string, int>> expected = {
      {"R8", 9}, {"R8", 11}, {"R8", 13}, {"R8", 17}};
  EXPECT_EQ(got, expected);
}

TEST(AuditFixtures, R8AllowDirectiveSuppresses) {
  const auto findings = audit_fixture("r8_allow.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R8CleanFileProducesNoFindings) {
  const auto findings = audit_fixture("r8_clean.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R8GeometryHeaderMustKeepProvedTables) {
  // A gutted geometry header (tables or proofs removed) is a finding at
  // line 1 under the canonical path...
  const auto gutted = parva::audit::audit_file(
      "src/gpu/mig_geometry.hpp", "#pragma once\nstruct Empty {};\n",
      default_config());
  ASSERT_EQ(gutted.size(), 1u);
  EXPECT_EQ(gutted[0].rule, "R8");
  EXPECT_EQ(gutted[0].line, 1);

  // ...while a header carrying the tables and proofs is clean.
  const auto kept = parva::audit::audit_file(
      "src/gpu/mig_geometry.hpp",
      "#pragma once\n"
      "inline constexpr int kProfileTable = 0;\n"
      "inline constexpr int kPlacementTable = 0;\n"
      "static_assert(kProfileTable == 0);\n",
      default_config());
  EXPECT_TRUE(kept.empty()) << parva::audit::format_findings(kept);
}

TEST(AuditFixtures, R9FlagsLockOrderCycles) {
  const auto got = rule_lines(audit_fixture("r9_lock_cycle.cpp"));
  // 20: journal/ledger inversion, both edges intra-function; 39: gate/latch
  // cycle whose closing edge threads through the take_gate() call.
  const std::vector<std::pair<std::string, int>> expected = {{"R9", 20}, {"R9", 39}};
  EXPECT_EQ(got, expected);
}

TEST(AuditFixtures, R9WitnessNamesBothEdgesAndTheViaCall) {
  const auto findings = audit_fixture("r9_lock_cycle.cpp");
  ASSERT_EQ(findings.size(), 2u);
  // Each cycle is reported once, from its lexicographically smallest lock,
  // with every edge's acquisition site in the message.
  EXPECT_NE(findings[0].message.find(
                "'R9Locks::journal' -> 'R9Locks::ledger' -> 'R9Locks::journal'"),
            std::string::npos)
      << findings[0].message;
  // The edge discovered through one level of call names the callee that
  // takes the lock.
  EXPECT_NE(findings[1].message.find("via take_gate acquires 'R9Locks::gate'"),
            std::string::npos)
      << findings[1].message;
}

TEST(AuditFixtures, R9AllowDirectiveSuppresses) {
  const auto findings = audit_fixture("r9_allow.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R9CleanFileProducesNoFindings) {
  const auto findings = audit_fixture("r9_clean.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R10FlagsDuplicateLiteralAndUnregisteredTags) {
  const auto got = rule_lines(audit_fixture("r10_rng_tags.cpp"));
  // 13: enumerator value collision; 22: literal tag argument; 23: named
  // constant that is not an RngStreamTag enumerator.
  const std::vector<std::pair<std::string, int>> expected = {
      {"R10", 13}, {"R10", 22}, {"R10", 23}};
  EXPECT_EQ(got, expected);
}

TEST(AuditFixtures, R10AllowDirectiveSuppresses) {
  const auto findings = audit_fixture("r10_allow.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R10CleanFileProducesNoFindings) {
  const auto findings = audit_fixture("r10_clean.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R11FlagsBlockingOpsReachableFromHotPathRoots) {
  const auto got = rule_lines(audit_fixture("r11_hotpath_blocking.cpp"));
  // 27: pool submit one call below the root; 31/32: lock acquisition and
  // iostream write two calls below (advance -> drain_batch -> flush_metrics);
  // 43: std::map insert in the EventQueue::pop root itself.
  const std::vector<std::pair<std::string, int>> expected = {
      {"R11", 27}, {"R11", 31}, {"R11", 32}, {"R11", 43}};
  EXPECT_EQ(got, expected);
}

TEST(AuditFixtures, R11CustomRootsNarrowTheSearch) {
  // Rooting the walk at flush_metrics instead of the built-in defaults
  // keeps its own blocking ops but drops the submit in drain_batch, which
  // is no longer reachable.
  AuditConfig config = default_config();
  config.hotpath_roots = {"Shard::flush_metrics"};
  const std::string path = fixture_path("r11_hotpath_blocking.cpp");
  const auto got =
      rule_lines(parva::audit::audit_file(path, read_file(path), config));
  const std::vector<std::pair<std::string, int>> expected = {
      {"R11", 31}, {"R11", 32}};
  EXPECT_EQ(got, expected);
}

TEST(AuditFixtures, R11AllowDirectiveSuppresses) {
  const auto findings = audit_fixture("r11_allow.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R11CleanFileProducesNoFindings) {
  const auto findings = audit_fixture("r11_clean.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R12FlagsReachableIterationAcrossFiles) {
  // The hole R2 leaves open: the iteration lives in a file no manifest
  // entry matches, but it is called from a fingerprint TU. Audited
  // together, the helper's line 14 is a finding attributed to the entry.
  const std::string entry = fixture_path("r12_fingerprint_entry.cpp");
  const std::string helper = fixture_path("r12_digest_helper.cpp");
  const auto findings = parva::audit::audit_files(
      {{entry, read_file(entry)}, {helper, read_file(helper)}}, default_config());
  const auto got = rule_lines(findings);
  const std::vector<std::pair<std::string, int>> expected = {{"R12", 14}};
  EXPECT_EQ(got, expected);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, helper);
  EXPECT_NE(findings[0].message.find("emit_fingerprint -> digest_accumulate"),
            std::string::npos)
      << findings[0].message;
}

TEST(AuditFixtures, R12HelperAloneIsClean) {
  // Without the manifest-matched entry in the scan set there is no
  // export-path root, so the helper's iteration is not reachable.
  const auto findings = audit_fixture("r12_digest_helper.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R12AllowDirectiveSuppresses) {
  const std::string entry = fixture_path("r12_fingerprint_entry.cpp");
  const std::string allowed = fixture_path("r12_digest_allow.cpp");
  const auto findings = parva::audit::audit_files(
      {{entry, read_file(entry)}, {allowed, read_file(allowed)}}, default_config());
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditCallGraph, EdgeListIsPinnedForResolutionShapes) {
  const std::string path = fixture_path("callgraph_shapes.cpp");
  const std::string content = read_file(path);
  const parva::audit::LexedFile lexed = parva::audit::lex(content);
  const auto graph = parva::audit::build_call_graph({{path, &lexed}});
  const auto edges = parva::audit::call_graph_edges(graph);
  const std::vector<std::pair<std::string, std::string>> expected = {
      // Declared receiver type beats the free function of the same name;
      // the bare call inside a free function stays free.
      {"cg_drive", "CgCounter::bump"},
      // Unambiguous unresolvable receiver: poke() is defined in exactly
      // one class, so cg_widget_source().poke() still resolves. The
      // ambiguous cg_mystery_source().measure() (CgAlpha/CgBeta) must NOT
      // appear here -- no edge is the documented conservative answer.
      {"cg_drive", "CgWidget::poke"},
      {"cg_drive", "bump"},
      // Both cg_scale overloads collapse onto one qualified-name edge.
      {"cg_drive", "cg_scale"},
      // Self-recursion and mutual recursion are ordinary edges.
      {"cg_factorial", "cg_factorial"},
      {"cg_ping", "cg_pong"},
      {"cg_pong", "cg_ping"},
  };
  EXPECT_EQ(edges, expected);
}

TEST(AuditOutput, TextFormatIsGoldenForR9) {
  // An end-to-end golden for one of the graph rules: the R9 fixture's two
  // cycles rendered through the text formatter, witness text included.
  const auto findings = parva::audit::audit_file(
      "r9_lock_cycle.cpp", read_file(fixture_path("r9_lock_cycle.cpp")),
      default_config());
  EXPECT_EQ(
      parva::audit::format_findings(findings),
      "r9_lock_cycle.cpp:20: [R9] lock-order cycle (potential deadlock): "
      "'R9Locks::journal' -> 'R9Locks::ledger' -> 'R9Locks::journal'; edges: "
      "'R9Locks::journal' -> 'R9Locks::ledger' at r9_lock_cycle.cpp:20, "
      "'R9Locks::ledger' -> 'R9Locks::journal' at r9_lock_cycle.cpp:25; "
      "acquire these locks in one global order\n"
      "r9_lock_cycle.cpp:39: [R9] lock-order cycle (potential deadlock): "
      "'R9Locks::gate' -> 'R9Locks::latch' -> 'R9Locks::gate'; edges: "
      "'R9Locks::gate' -> 'R9Locks::latch' at r9_lock_cycle.cpp:39, "
      "'R9Locks::latch' -> 'R9Locks::gate' at r9_lock_cycle.cpp:34 "
      "(via take_gate acquires 'R9Locks::gate' at r9_lock_cycle.cpp:29); "
      "acquire these locks in one global order\n");
}

TEST(AuditOutput, SarifFormatIsGolden) {
  std::vector<Finding> findings;
  findings.push_back(Finding{"src/gpu/x.cpp", 42, "R6", "status result dropped"});
  const std::string expected =
      "{\n"
      "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"parva_audit\",\n"
      "          \"informationUri\": \"DESIGN.md\",\n"
      "          \"rules\": [\n"
      "            {\"id\": \"R1\", \"shortDescription\": {\"text\": \"banned "
      "nondeterminism sources (rand, srand, std::random_device, time(nullptr), "
      "std::chrono::system_clock) outside src/common/rng.hpp\"}},\n"
      "            {\"id\": \"R2\", \"shortDescription\": {\"text\": \"no "
      "unordered_{map,set} iteration in exporter/CSV/fingerprint TUs (path "
      "manifest)\"}},\n"
      "            {\"id\": \"R3\", \"shortDescription\": {\"text\": \"no mutable "
      "namespace-scope state in library code\"}},\n"
      "            {\"id\": \"R4\", \"shortDescription\": {\"text\": \"header "
      "hygiene: #pragma once, no `using namespace` in headers\"}},\n"
      "            {\"id\": \"R5\", \"shortDescription\": {\"text\": \"every "
      "memory_order_relaxed carries a nearby justification comment\"}},\n"
      "            {\"id\": \"R6\", \"shortDescription\": {\"text\": \"a "
      "statement that (void)-casts a call carries allow(R6) with its reason; "
      "the compiler rejects every other dropped status\"}},\n"
      "            {\"id\": \"R7\", \"shortDescription\": {\"text\": \"every "
      "mutable data member of a mutex-owning class carries "
      "PARVA_GUARDED_BY(lock) (src/common/thread_annotations.hpp)\"}},\n"
      "            {\"id\": \"R8\", \"shortDescription\": {\"text\": \"MIG "
      "geometry is table-driven: constexpr kProfileTable/kPlacementTable with "
      "static_assert proofs; no hardcoded slot tables or shadow APIs\"}},\n"
      "            {\"id\": \"R9\", \"shortDescription\": {\"text\": \"the "
      "lock-acquisition order graph (lock-guard scopes, including one level "
      "through a call) is acyclic; cycles are potential deadlocks\"}},\n"
      "            {\"id\": \"R10\", \"shortDescription\": {\"text\": \"every "
      "Rng::stream tag is a named enumerator of the RngStreamTag registry "
      "(src/common/rng.hpp) with pairwise-distinct values\"}},\n"
      "            {\"id\": \"R11\", \"shortDescription\": {\"text\": \"no "
      "blocking operation (locks, pool submit/wait, iostream/file I/O, "
      "std::{map,set} inserts) is transitively reachable from a hot-path "
      "root\"}},\n"
      "            {\"id\": \"R12\", \"shortDescription\": {\"text\": \"no "
      "unordered-container iteration transitively reachable from functions "
      "defined in export/fingerprint manifest files\"}},\n"
      "            {\"id\": \"R13\", \"shortDescription\": {\"text\": \"unit "
      "discipline: no mixed-unit arithmetic between quantity-suffixed names "
      "(_ms/_s/_bytes/...), no bare literals for unit-suffixed parameters, no "
      "suffix-less laundering sinks\"}},\n"
      "            {\"id\": \"R14\", \"shortDescription\": {\"text\": "
      "\"floating-point determinism: loop +=/-= reductions on double/float "
      "reachable from export-manifest entries must use parva::sorted_sum or "
      "carry allow(R14)\"}},\n"
      "            {\"id\": \"R15\", \"shortDescription\": {\"text\": "
      "\"iterator/reference invalidation: no use of a vector/deque "
      "reference/pointer/iterator after push_back/insert/erase/clear on the "
      "same container in the same scope\"}}\n"
      "          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [\n"
      "        {\"ruleId\": \"R6\", \"level\": \"error\", \"message\": {\"text\": "
      "\"status result dropped\"}, \"locations\": [{\"physicalLocation\": "
      "{\"artifactLocation\": {\"uri\": \"src/gpu/x.cpp\"}, \"region\": "
      "{\"startLine\": 42}}}]}\n"
      "      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(parva::audit::format_findings_sarif(findings), expected);
}

TEST(AuditFixtures, AllowDirectiveSuppressesFindings) {
  const auto findings = audit_fixture("allow_suppression.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, CleanFileProducesNoFindings) {
  const auto findings = audit_fixture("clean.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R13FlagsUnitMixingLiteralArgsAndLaundering) {
  const auto got = rule_lines(audit_fixture("r13_unit_mixing.cpp"));
  // 7/11: mixed-unit arithmetic; 17: bare literal for a unit-suffixed
  // parameter; 21: suffix-less assignment sink laundering the unit away.
  const std::vector<std::pair<std::string, int>> expected = {
      {"R13", 7}, {"R13", 11}, {"R13", 17}, {"R13", 21}};
  EXPECT_EQ(got, expected);
}

TEST(AuditFixtures, R13AllowDirectiveSuppresses) {
  const auto findings = audit_fixture("r13_allow.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R13CleanFileProducesNoFindings) {
  const auto findings = audit_fixture("r13_clean.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R13ZeroLiteralIsUnitNeutralInAnySpelling) {
  const std::string content =
      "void set_deadline(double timeout_ms);\n"
      "inline void disarm() { set_deadline(0.0); set_deadline(0); }\n";
  const auto findings =
      parva::audit::audit_file("watchdog.cpp", content, default_config());
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R13UnitBindingsCrossFilesOnlyThroughHeaders) {
  // A .cpp-local declaration binds call sites in its own file only: a
  // DES shard's `advance(double bound_ms)` must not turn every other
  // TU's unrelated `advance(1)` (a lexer cursor, say) into a finding.
  // The same declaration in a header is an exported API and does bind.
  const std::string decl = "void advance(double bound_ms);\n";
  const std::string call = "void advance(int n);\ninline void step() { advance(1); }\n";
  const auto cpp_scoped = parva::audit::audit_files(
      {{"sim.cpp", decl}, {"lexer.cpp", call}}, default_config());
  EXPECT_TRUE(cpp_scoped.empty()) << parva::audit::format_findings(cpp_scoped);

  const auto header_bound = parva::audit::audit_files(
      {{"sim.hpp", "#pragma once\n" + decl},
       {"other.cpp", "inline void step() { advance(1); }\n"}},
      default_config());
  const auto got = rule_lines(header_bound);
  const std::vector<std::pair<std::string, int>> expected = {{"R13", 1}};
  EXPECT_EQ(got, expected);
}

TEST(AuditFixtures, R14FlagsLoopReductionsOnExportPaths) {
  const auto got = rule_lines(audit_fixture("r14_export_rollup.cpp"));
  // 11: += reduction in a manifest entry; 22: -= reduction in a helper
  // reachable from one.
  const std::vector<std::pair<std::string, int>> expected = {{"R14", 11}, {"R14", 22}};
  EXPECT_EQ(got, expected);
}

TEST(AuditFixtures, R14IgnoresFilesOutsideManifest) {
  const std::string content = read_file(fixture_path("r14_export_rollup.cpp"));
  const auto findings =
      parva::audit::audit_file("src/core/allocator.cpp", content, default_config());
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R14AllowDirectiveSuppresses) {
  // The alias path contains "export" so the function is a manifest entry.
  const std::string content = read_file(fixture_path("r14_allow.cpp"));
  const auto findings =
      parva::audit::audit_file("r14_allow_export.cpp", content, default_config());
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R14SortedSumHelperIsExempt) {
  const std::string content = read_file(fixture_path("r14_clean.cpp"));
  const auto findings =
      parva::audit::audit_file("r14_clean_export.cpp", content, default_config());
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R15FlagsUseAfterInvalidatingMutation) {
  const auto got = rule_lines(audit_fixture("r15_invalidation.cpp"));
  // 9: reference used after push_back; 15: iterator after erase;
  // 21: iterator after clear.
  const std::vector<std::pair<std::string, int>> expected = {
      {"R15", 9}, {"R15", 15}, {"R15", 21}};
  EXPECT_EQ(got, expected);
}

TEST(AuditFixtures, R15AllowDirectiveSuppresses) {
  const auto findings = audit_fixture("r15_allow.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

TEST(AuditFixtures, R15CleanFileProducesNoFindings) {
  const auto findings = audit_fixture("r15_clean.cpp");
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

// The acceptance gate: the repository's own library code audits clean.
// A regression here means a change reintroduced a nondeterminism source,
// racy global, or unjustified relaxed atomic -- fix the code (or justify
// with an allow() annotation), do not delete this test.
TEST(AuditRepo, RepositorySrcTreeIsClean) {
  std::vector<std::string> errors;
  const auto findings = parva::audit::audit_paths({std::string(PARVA_REPO_SRC_DIR)},
                                                  default_config(), errors);
  EXPECT_TRUE(errors.empty()) << errors.front();
  EXPECT_TRUE(findings.empty()) << parva::audit::format_findings(findings);
}

// R11 skips a root that names no function in the scan set, so renaming a
// hot-path function would silently drop its reachability check: every
// default root must resolve against the real src/ tree.
TEST(AuditRepo, DefaultHotPathRootsResolveInSrcTree) {
  std::vector<std::string> paths;
  for (const auto& entry : fs::recursive_directory_iterator(PARVA_REPO_SRC_DIR)) {
    const std::string ext = entry.path().extension().string();
    if (entry.is_regular_file() && (ext == ".cpp" || ext == ".hpp")) {
      paths.push_back(entry.path().string());
    }
  }
  std::vector<parva::audit::LexedFile> lexed;
  for (const std::string& path : paths) lexed.push_back(parva::audit::lex(read_file(path)));
  std::vector<std::pair<std::string, const parva::audit::LexedFile*>> files;
  for (std::size_t i = 0; i < paths.size(); ++i) files.emplace_back(paths[i], &lexed[i]);
  const auto graph = parva::audit::build_call_graph(files);
  for (const std::string& root : parva::audit::default_hotpath_roots()) {
    EXPECT_EQ(graph.by_qualified.count(root), 1u) << root << " is not defined under src/";
  }
}

// A violation fixture planted under a src-shaped tree is caught: this is
// the documented "golden fixture placed under src/" scenario.
TEST(AuditRepo, PlantedFixturesTriggerUnderSrcTree) {
  const fs::path root = fs::temp_directory_path() / "parva_audit_planted";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "telemetry");
  const std::vector<std::string> fixtures = {
      "r1_banned_randomness.cpp", "r2_unordered_export.cpp", "r3_global_state.cpp",
      "r4_header_hygiene.hpp", "r5_relaxed_unjustified.cpp", "r6_discarded_status.cpp",
      "r7_unguarded_members.cpp", "r8_geometry.cpp", "r9_lock_cycle.cpp",
      "r10_rng_tags.cpp", "r11_hotpath_blocking.cpp", "r12_fingerprint_entry.cpp",
      "r12_digest_helper.cpp", "r13_unit_mixing.cpp", "r14_export_rollup.cpp",
      "r15_invalidation.cpp"};
  for (const std::string& name : fixtures) {
    fs::copy_file(fixture_path(name), root / "src" / "telemetry" / name);
  }
  std::vector<std::string> errors;
  const auto findings =
      parva::audit::audit_paths({(root / "src").string()}, default_config(), errors);
  EXPECT_TRUE(errors.empty());
  for (const char* rule : {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9",
                           "R10", "R11", "R12", "R13", "R14", "R15"}) {
    EXPECT_TRUE(std::any_of(findings.begin(), findings.end(),
                            [&](const Finding& f) { return f.rule == rule; }))
        << "planted fixture for " << rule << " was not detected";
  }
  fs::remove_all(root);
}

// The audit obeys the determinism contract it enforces: identical findings
// regardless of argument order, and stable across repeated runs.
TEST(AuditRepo, OutputIsDeterministic) {
  const std::string fixtures_dir(PARVA_AUDIT_FIXTURE_DIR);
  std::vector<std::string> errors;
  const AuditConfig config = default_config();
  const auto once = parva::audit::audit_paths({fixtures_dir}, config, errors);
  const auto twice = parva::audit::audit_paths({fixtures_dir}, config, errors);
  EXPECT_EQ(parva::audit::format_findings(once), parva::audit::format_findings(twice));
  // Individual files in reverse order must produce the same sorted output.
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(fixtures_dir)) {
    files.push_back(entry.path().string());
  }
  std::sort(files.rbegin(), files.rend());
  const auto reversed = parva::audit::audit_paths(files, config, errors);
  EXPECT_EQ(parva::audit::format_findings(once), parva::audit::format_findings(reversed));
  EXPECT_TRUE(errors.empty());
}

}  // namespace
