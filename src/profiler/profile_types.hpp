// Profile data types: the (instance size, batch, process-count) operating
// grid recorded per model, consumed by every scheduler.
#pragma once

#include <string>
#include <vector>

namespace parva::profiler {

/// One profiled operating point for a model.
struct ProfilePoint {
  std::string model;
  int gpcs = 0;
  int batch = 0;
  int procs = 0;
  bool oom = false;           ///< point infeasible (memory grant exceeded)
  double throughput = 0.0;    ///< requests/s (0 when oom)
  double latency_ms = 0.0;    ///< per-batch latency (0 when oom)
  double sm_occupancy = 0.0;  ///< steady-state SM busy fraction at this point
  double memory_gib = 0.0;    ///< device memory used by all processes
};

/// All profiled points for one model.
class ProfileTable {
 public:
  ProfileTable() = default;
  explicit ProfileTable(std::string model) : model_(std::move(model)) {}

  const std::string& model() const { return model_; }
  void add(ProfilePoint point) { points_.push_back(std::move(point)); }
  const std::vector<ProfilePoint>& points() const { return points_; }
  std::size_t size() const { return points_.size(); }

  /// Feasible point lookup (exact grid coordinates).
  const ProfilePoint* find(int gpcs, int batch, int procs) const;

 private:
  std::string model_;
  std::vector<ProfilePoint> points_;
};

/// Profiles for a set of models.
class ProfileSet {
 public:
  void add(ProfileTable table);
  const ProfileTable* find(const std::string& model) const;
  const std::vector<ProfileTable>& tables() const { return tables_; }
  std::size_t size() const { return tables_.size(); }

 private:
  std::vector<ProfileTable> tables_;
};

}  // namespace parva::profiler
