// Memoizing wrapper around AnalyticalPerfModel: the baselines' partition
// searches (gpulet, iGniter) sweep the same (model, fraction, batch) grid
// once per service, so scenarios with repeated models re-evaluate
// identical operating points many times over. The model is a pure function
// of its arguments, so caching returns bit-identical results and only
// changes wall-clock time.
//
// The cache is per-instance and NOT thread safe: create one per scheduling
// run (the baselines build one at the top of schedule()).
#pragma once

#include <bit>
#include <cstdint>
#include <unordered_map>

#include "perfmodel/analytical_model.hpp"

namespace parva::perfmodel {

class CachedPerfModel {
 public:
  explicit CachedPerfModel(const AnalyticalPerfModel& model) : model_(&model) {}

  const ModelCatalog& catalog() const { return model_->catalog(); }
  const AnalyticalPerfModel& model() const { return *model_; }

  /// Same contract as AnalyticalPerfModel::evaluate_mig, memoized.
  [[nodiscard]] Result<PerfPoint> evaluate_mig(const WorkloadTraits& traits, int gpcs, int batch,
                                 int processes) const;

  /// Same contract as AnalyticalPerfModel::evaluate_mps_share, memoized.
  [[nodiscard]] Result<PerfPoint> evaluate_mps_share(const WorkloadTraits& traits, double gpu_fraction,
                                       int batch, int processes,
                                       double interference_inflation) const;

  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }

 private:
  struct Key {
    const WorkloadTraits* traits = nullptr;
    /// MIG: the gpcs count. MPS: the gpu_fraction bit pattern.
    std::uint64_t grant_bits = 0;
    /// MPS interference inflation bit pattern (0 for MIG).
    std::uint64_t inflation_bits = 0;
    std::int32_t batch = 0;
    std::int32_t processes = 0;
    bool mig = false;

    bool operator==(const Key& other) const = default;
  };

  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      // FNV-1a over the key fields; the traits pointer is stable for the
      // lifetime of the catalog the model wraps.
      std::uint64_t h = 1469598103934665603ULL;
      const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
      };
      mix(std::bit_cast<std::uint64_t>(key.traits));
      mix(key.grant_bits);
      mix(key.inflation_bits);
      mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.batch)) |
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.processes)) << 32));
      mix(key.mig ? 1 : 0);
      return static_cast<std::size_t>(h);
    }
  };

  const Result<PerfPoint>& lookup(const Key& key) const;

  const AnalyticalPerfModel* model_;
  mutable std::unordered_map<Key, Result<PerfPoint>, KeyHash> memo_;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
};

}  // namespace parva::perfmodel
