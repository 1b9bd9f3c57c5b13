// Output formats (text / JSON / SARIF 2.1.0) and baseline support for
// parva_audit. The SARIF output is the minimal valid subset GitHub code
// scanning accepts: one run, driver metadata with the rule catalog, one
// result per finding with a physical location.
#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "audit.hpp"

namespace parva::audit {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string format_findings(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " + f.message + "\n";
  }
  return out;
}

std::string format_findings_json(const std::vector<Finding>& findings) {
  std::string out = "[";
  bool first = true;
  for (const Finding& f : findings) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"file\": \"" + json_escape(f.file) +
           "\", \"line\": " + std::to_string(f.line) +
           ", \"rule\": \"" + json_escape(f.rule) +
           "\", \"message\": \"" + json_escape(f.message) + "\"}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

std::string format_findings_sarif(const std::vector<Finding>& findings) {
  std::string out;
  out +=
      "{\n"
      "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"parva_audit\",\n"
      "          \"informationUri\": \"DESIGN.md\",\n"
      "          \"rules\": [\n";
  const auto& catalog = rule_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    out += "            {\"id\": \"" + std::string(catalog[i].id) +
           "\", \"shortDescription\": {\"text\": \"" + json_escape(catalog[i].summary) +
           "\"}}";
    out += (i + 1 < catalog.size()) ? ",\n" : "\n";
  }
  out +=
      "          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += "        {\"ruleId\": \"" + json_escape(f.rule) +
           "\", \"level\": \"error\", \"message\": {\"text\": \"" + json_escape(f.message) +
           "\"}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": {\"uri\": \"" +
           json_escape(f.file) + "\"}, \"region\": {\"startLine\": " +
           std::to_string(f.line) + "}}}]}";
    out += (i + 1 < findings.size()) ? ",\n" : "\n";
  }
  out +=
      "      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

std::string baseline_key(const Finding& finding) {
  return finding.file + "|" + finding.rule + "|" + finding.message;
}

std::multiset<std::string> parse_baseline(const std::string& content) {
  std::multiset<std::string> out;
  std::string line;
  for (std::size_t i = 0; i <= content.size(); ++i) {
    if (i < content.size() && content[i] != '\n') {
      line += content[i];
      continue;
    }
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) line.pop_back();
    std::size_t start = line.find_first_not_of(" \t");
    if (start != std::string::npos && line[start] != '#') {
      out.insert(line.substr(start));
    }
    line.clear();
  }
  return out;
}

std::string format_baseline(const std::vector<Finding>& findings) {
  std::string out =
      "# parva_audit baseline: accepted findings, one `file|rule|message` per\n"
      "# line (line numbers excluded so edits above a finding do not churn\n"
      "# this file). Regenerate with: parva_audit --update-baseline ...\n";
  std::vector<std::string> keys;
  keys.reserve(findings.size());
  for (const Finding& f : findings) keys.push_back(baseline_key(f));
  std::sort(keys.begin(), keys.end());
  for (const std::string& key : keys) out += key + "\n";
  return out;
}

BaselineResult apply_baseline(const std::vector<Finding>& findings,
                              std::multiset<std::string> baseline) {
  BaselineResult result;
  for (const Finding& f : findings) {
    auto it = baseline.find(baseline_key(f));
    if (it != baseline.end()) {
      baseline.erase(it);  // a multiset entry suppresses one occurrence
      ++result.suppressed;
    } else {
      result.fresh.push_back(f);
    }
  }
  result.stale = baseline.size();
  return result;
}

}  // namespace parva::audit
