// Runs one named workload end to end and reports its metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace parvabench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  ///< per-layer run: spans on, per_layer metrics out
  bool smoke = false;  ///< small folds and horizons, for the self-tests
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::vector<std::string> problems;  ///< failed output checks; empty = correct
  long attempted = 0;                 ///< library calls made
  long failed = 0;                    ///< library calls that returned an error
  std::vector<Metric> metrics;
  std::string inputs_digest;
  std::string output_digest;          ///< plan strings + per-service counts
  std::vector<std::string> notes;     ///< human-readable lines
  std::string trace_json;             ///< Chrome trace of the run's spans
};

/// Runs `options.workload`; unknown names produce a report with a problem.
RunReport run_workload(const RunOptions& options);

/// Processors this process may run on (sched_getaffinity, like nproc).
int available_cpus();

}  // namespace parvabench
