// Output formats (text / SARIF 2.1.0) for parva_audit. The SARIF output is
// the minimal valid subset GitHub code scanning accepts: one run, driver
// metadata with the rule catalog, one result per finding with a physical
// location.
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

}  // namespace parva::audit
