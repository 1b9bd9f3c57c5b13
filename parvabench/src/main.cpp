// parvabench — the repository benchmark.
//
//   parvabench --workload fleet_plan|scenario_replay|fleet_replay
//              --seed N --seconds S --trace 0|1
//              [--smoke] [--trace-out FILE] [--commit ID] [--source-sha HEX]
//
// Generates the workload's inputs from the seed, runs it through the
// library's public API for about S seconds, checks the outputs, and prints
// as its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 records
// spans around every library call and reports the per-layer metrics.
// Earlier lines carry the build stamp, the input and output digests, and
// any failed check. run.py builds this program and forwards its flags.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

using namespace parvabench;

int usage(const std::string& why) {
  std::cerr << "parvabench: " << why
            << "\nusage: parvabench --workload NAME --seed N --seconds S --trace 0|1"
               " [--smoke] [--trace-out FILE] [--commit ID] [--source-sha HEX]\n";
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.process_start = Clock::now();
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_sha = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &options.seed)) return usage("bad --seed " + value);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &number) || number < 1 || number > 3600) {
        return usage("bad --seconds " + value);
      }
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--source-sha") {
      source_sha = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  std::cout << "stamp {\"commit\": \"" << json_escape(commit) << "\", \"source_sha256\": \""
            << json_escape(source_sha) << "\", \"compiler\": \"" << PARVABENCH_COMPILER
            << "\", \"build_type\": \"" << PARVABENCH_BUILD_TYPE
            << "\", \"nproc\": " << available_cpus() << "}\n";

  RunReport report;
  try {
    report = run_workload(options);
  } catch (const std::exception& e) {
    report.problems.push_back(std::string("uncaught exception: ") + e.what());
    report.attempted = std::max(1L, report.attempted);
    ++report.failed;
  }

  for (const std::string& note : report.notes) std::cout << note << "\n";
  std::cout << "inputs_digest " << options.workload << " " << report.inputs_digest << "\n";
  std::cout << "output_digest " << options.workload << " " << report.output_digest << "\n";
  for (const std::string& problem : report.problems) std::cout << "CHECK FAILED: " << problem << "\n";
  if (!trace_out.empty() && !report.trace_json.empty()) {
    std::ofstream file(trace_out);
    file << report.trace_json;
    if (!file) report.problems.push_back("cannot write " + trace_out);
  }

  std::string metrics;
  char buf[64];
  for (const Metric& metric : report.metrics) {
    if (!std::isfinite(metric.value)) {
      report.problems.push_back(metric.name + " is not finite");
      std::cout << "CHECK FAILED: " << metric.name << " is not finite\n";
      continue;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", metric.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + metric.name + "\": {\"value\": " + buf + ", \"unit\": \"" + metric.unit + "\"}";
    std::cerr << "  " << metric.name << " = " << buf << " " << metric.unit << "\n";
  }
  std::cout << "{\"correct\": " << (report.problems.empty() ? "true" : "false")
            << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return 0;
}
