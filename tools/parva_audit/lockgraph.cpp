// Phase-3 interprocedural rules over the call graph (DESIGN.md §4.8):
//
//   R9   lock-order cycles. Every lock-guard scope contributes "held ->
//        acquired" edges, including one level through a call (a function
//        called with L held that itself takes M adds L -> M). Any cycle in
//        the resulting order graph -- including a self-edge, i.e. re-
//        acquiring a held non-recursive mutex -- is a potential deadlock.
//   R10  RNG stream-tag discipline. Rng::stream's tag argument must be a
//        named enumerator of the RngStreamTag registry (common/rng.hpp) and
//        registry values must be pairwise distinct.
//   R11  hot-path blocking reachability. From a manifest of hot-path roots,
//        any transitively reachable blocking operation (lock acquisition,
//        pool submit/wait, iostream/file I/O, node-container inserts) is
//        flagged with the call chain as witness.
//   R12  export-path reachability for unordered iteration. R2 only sees
//        manifest-matched files; R12 walks the graph from every function
//        defined in a manifest file and flags unordered-container
//        iteration in reachable helpers outside the manifest.
//
// All findings anchor at a concrete token (an acquisition, a call, an
// iteration), so `// parva-audit: allow(R#)` works at the usual place.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "audit.hpp"
#include "callgraph.hpp"
#include "internal.hpp"

namespace parva::audit {
namespace internal {

// The helpers below are shared with the phase-4 dataflow rules (R14 walks
// the same reachability structure); declarations live in internal.hpp.

void add_graph_finding(std::vector<Finding>& findings, const LexedByFile& lexed,
                       const std::string& file, int line, const char* rule,
                       std::string message) {
  auto it = lexed.find(file);
  if (it != lexed.end() && is_allowed(*it->second, line, rule)) return;
  Finding f;
  f.file = file;
  f.line = line;
  f.rule = rule;
  f.message = std::move(message);
  findings.push_back(std::move(f));
}

std::string join_path(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += " -> ";
    out += n;
  }
  return out;
}

/// Breadth-first reachability from `starts` over resolved call edges.
/// Returns the visit order plus a parent map for witness paths. Both are
/// deterministic: start order is the caller's, neighbor order is the
/// resolve() order (ascending definition index).
Reachability reach(const CallGraph& graph, const std::vector<std::size_t>& starts) {
  Reachability r;
  std::set<std::size_t> visited(starts.begin(), starts.end());
  std::deque<std::size_t> queue(starts.begin(), starts.end());
  while (!queue.empty()) {
    const std::size_t idx = queue.front();
    queue.pop_front();
    r.order.push_back(idx);
    const FunctionDef& fn = graph.functions[idx];
    for (const CallSite& call : fn.calls) {
      for (std::size_t target : graph.resolve(call, fn)) {
        if (visited.insert(target).second) {
          r.parent[target] = idx;
          queue.push_back(target);
        }
      }
    }
  }
  return r;
}

std::vector<std::string> witness_chain(const CallGraph& graph, const Reachability& r,
                                       std::size_t idx) {
  std::vector<std::string> names;
  for (;;) {
    names.push_back(graph.functions[idx].qualified());
    auto it = r.parent.find(idx);
    if (it == r.parent.end()) break;
    idx = it->second;
  }
  std::reverse(names.begin(), names.end());
  return names;
}

// ---------------------------------------------------------------- R9 ----

void check_r9(const CallGraph& graph, const LexedByFile& lexed,
              std::vector<Finding>& findings) {
  struct Witness {
    std::string file;
    int line = 0;
    std::string via;  // empty for an intra-function edge
  };
  // lock -> lock -> first witness; std::map keeps everything ordered so
  // cycle discovery below is deterministic.
  std::map<std::string, std::map<std::string, Witness>> adj;

  for (const FunctionDef& fn : graph.functions) {
    for (const LockAcquisition& acq : fn.locks) {
      for (const std::string& held : acq.held) {
        adj[held].emplace(acq.lock, Witness{fn.file, acq.line, ""});
      }
    }
    for (const CallSite& call : fn.calls) {
      if (call.held_locks.empty()) continue;
      for (std::size_t target : graph.resolve(call, fn)) {
        const FunctionDef& callee = graph.functions[target];
        for (const LockAcquisition& acq : callee.locks) {
          for (const std::string& held : call.held_locks) {
            adj[held].emplace(
                acq.lock,
                Witness{fn.file, call.line,
                        callee.qualified() + " acquires '" + acq.lock + "' at " +
                            callee.file + ":" + std::to_string(acq.line)});
          }
        }
      }
    }
  }

  // Report each elementary cycle once, keyed by its lexicographically
  // smallest node; DFS follows the sorted adjacency so the first cycle
  // found through a node is stable.
  std::set<std::pair<std::string, int>> anchors;
  for (const auto& [start, _] : adj) {
    std::vector<std::string> path{start};
    std::set<std::string> on_path{start};
    std::vector<std::string> cycle;
    std::function<bool(const std::string&)> dfs = [&](const std::string& cur) {
      auto it = adj.find(cur);
      if (it == adj.end()) return false;
      for (const auto& [next, w] : it->second) {
        (void)w;
        if (next == start) {
          cycle = path;
          cycle.push_back(start);
          return true;
        }
        if (next < start) continue;  // cycle will be reported from its min node
        if (on_path.insert(next).second) {
          path.push_back(next);
          if (dfs(next)) return true;
          path.pop_back();
          on_path.erase(next);
        }
      }
      return false;
    };
    if (!dfs(start) || cycle.empty()) continue;

    std::string edges_text;
    const Witness* anchor = nullptr;
    for (std::size_t i = 0; i + 1 < cycle.size(); ++i) {
      const Witness& w = adj.at(cycle[i]).at(cycle[i + 1]);
      if (anchor == nullptr) anchor = &w;
      if (!edges_text.empty()) edges_text += ", ";
      edges_text += "'" + cycle[i] + "' -> '" + cycle[i + 1] + "' at " + w.file + ":" +
                    std::to_string(w.line);
      if (!w.via.empty()) edges_text += " (via " + w.via + ")";
    }
    if (anchor == nullptr) continue;
    if (!anchors.insert({anchor->file, anchor->line}).second) continue;
    std::string nodes;
    for (const std::string& n : cycle) {
      if (!nodes.empty()) nodes += " -> ";
      nodes += "'" + n + "'";
    }
    add_graph_finding(findings, lexed, anchor->file, anchor->line, "R9",
                      "lock-order cycle (potential deadlock): " + nodes +
                          "; edges: " + edges_text +
                          "; acquire these locks in one global order");
  }
}

// --------------------------------------------------------------- R10 ----

void check_r10(const CallGraph& graph, const LexedByFile& lexed,
               std::vector<Finding>& findings) {
  std::map<std::uint64_t, const RngTagDef*> by_value;
  std::set<std::string> registered;
  for (const RngTagDef& tag : graph.rng_tags) {
    registered.insert(tag.name);
    auto [it, inserted] = by_value.emplace(tag.value, &tag);
    if (!inserted) {
      add_graph_finding(findings, lexed, tag.file, tag.line, "R10",
                        "RngStreamTag enumerator '" + tag.name + "' reuses value " +
                            std::to_string(tag.value) + " already held by '" +
                            it->second->name +
                            "': stream tags must be pairwise distinct or the "
                            "derived RNG streams correlate");
    }
  }

  for (const RngStreamUse& use : graph.rng_uses) {
    // The registry header itself forwards the typed overload to the raw one.
    if (ends_with(normalize(use.file), "common/rng.hpp")) continue;
    if (use.literal) {
      add_graph_finding(findings, lexed, use.file, use.line, "R10",
                        "literal RNG stream tag in Rng::stream(...): pass a named "
                        "RngStreamTag enumerator (common/rng.hpp) so tag uniqueness "
                        "is enforced by the registry");
    } else if (use.tag_name.empty()) {
      add_graph_finding(findings, lexed, use.file, use.line, "R10",
                        "Rng::stream(...) tag argument names no constant: pass a "
                        "RngStreamTag enumerator (common/rng.hpp)");
    } else if (registered.count(use.tag_name) == 0) {
      add_graph_finding(findings, lexed, use.file, use.line, "R10",
                        "RNG stream tag '" + use.tag_name +
                            "' is not registered in the RngStreamTag registry "
                            "(common/rng.hpp): register it so uniqueness is "
                            "statically checked");
    }
  }
}

// --------------------------------------------------------------- R11 ----

void check_r11(const CallGraph& graph, const AuditConfig& config,
               const LexedByFile& lexed, std::vector<Finding>& findings) {
  const std::vector<std::string> roots =
      config.hotpath_roots.empty() ? default_hotpath_roots() : config.hotpath_roots;
  std::set<std::tuple<std::string, int, std::string>> seen;
  for (const std::string& root : roots) {
    auto it = graph.by_qualified.find(root);
    if (it == graph.by_qualified.end()) continue;  // root not in the scan set
    const Reachability r = reach(graph, it->second);
    for (const std::size_t idx : r.order) {
      const FunctionDef& fn = graph.functions[idx];
      for (const BlockingOp& op : fn.blocking) {
        if (!seen.insert({fn.file, op.line, op.what}).second) continue;
        const std::vector<std::string> chain = witness_chain(graph, r, idx);
        std::string message = "blocking operation " + op.what +
                              " is reachable from hot-path root '" + root + "'";
        if (chain.size() > 1) message += " via " + join_path(chain);
        message +=
            ": shard windows must never block (move the work off the hot "
            "path or justify with allow(R11))";
        add_graph_finding(findings, lexed, fn.file, op.line, "R11", std::move(message));
      }
    }
  }
}

// --------------------------------------------------------------- R12 ----

void check_r12(const CallGraph& graph, const AuditConfig& config,
               const LexedByFile& lexed, std::vector<Finding>& findings) {
  // Entry points: every function defined in a manifest-matched file.
  std::vector<std::size_t> entries;
  for (std::size_t i = 0; i < graph.functions.size(); ++i) {
    if (path_matches(graph.functions[i].file, config.export_manifest)) {
      entries.push_back(i);
    }
  }
  if (entries.empty()) return;
  const Reachability r = reach(graph, entries);

  std::set<std::pair<std::string, int>> seen;
  for (const std::size_t idx : r.order) {
    const FunctionDef& fn = graph.functions[idx];
    // Manifest files are R2's jurisdiction; R12 closes the helper hole.
    if (path_matches(fn.file, config.export_manifest)) continue;
    for (const UnorderedIteration& u : fn.unordered) {
      if (!seen.insert({fn.file, u.line}).second) continue;
      std::vector<std::string> chain = witness_chain(graph, r, idx);
      add_graph_finding(
          findings, lexed, fn.file, u.line, "R12",
          "iteration over unordered container '" + u.name + "' in '" + fn.qualified() +
              "' is reachable from export-path entry '" + chain.front() +
              "' (" + join_path(chain) +
              "): iteration order is not deterministic; copy to a sorted "
              "vector (or use std::map) before emitting");
    }
  }
}

}  // namespace internal

std::vector<std::string> default_hotpath_roots() {
  // The hot loops of the sharded DES (DESIGN.md §4.5-§4.7): the shard
  // window advance, which runs every service loop, and the per-service
  // event heap. AuditConfig::hotpath_roots overrides them.
  return {
      "Shard::advance",
      "EventQueue::push",
      "EventQueue::pop",
  };
}

}  // namespace parva::audit
