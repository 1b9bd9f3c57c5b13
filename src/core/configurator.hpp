// The GPU Segment Configurator (paper Algorithm 1): for every service,
// derive the optimal triplet per instance size (Optimal Triplet Decision)
// and the minimal segment set covering the request rate (Demand Matching).
#pragma once

#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/service.hpp"
#include "profiler/profile_surface.hpp"

namespace parva::core {

struct ConfiguratorOptions {
  /// Cap on MPS processes considered; 1 reproduces ParvaGPU-single.
  int max_processes = 3;
};

/// Ceiling on one service's whole optimal segments. The largest count in
/// any committed scenario or fold is 26 (S6 bert-large), and 128 at the
/// 5x peak rate extra_autoscaling plans for; a services row asking for
/// more is refused before a segment is allocated.
inline constexpr int kMaxSegmentsPerService = 1 << 16;

class SegmentConfigurator {
 public:
  explicit SegmentConfigurator(ConfiguratorOptions options = {}) : options_(options) {}

  const ConfiguratorOptions& options() const { return options_; }

  /// Runs TripletDecision for one service: per instance size, one
  /// prefix-argmax lookup on the indexed surface finds the
  /// maximum-throughput point whose latency fits the internal bound (ties
  /// resolve as a first-wins scan of the profile table would; differential
  /// coverage in tests/core/configurator_test.cpp). Fails with validate()'s
  /// kInvalidArgument for a service it refuses, and with kCapacityExceeded
  /// when no instance size can meet the SLO at all.
  [[nodiscard]] Result<ConfiguredService> triplet_decision(const ServiceSpec& spec,
                                             const profiler::ProfileSurface& surface) const;

  /// Runs DemandMatching on a triplet-decided service: selects the
  /// GPC-efficiency-optimal segment (the O(1) argument of Eq. 1-2), counts
  /// whole optimal segments with the floor rule, and picks the smallest
  /// last segment covering the remainder. A spec core::validate refuses
  /// (say, a negative or non-finite rate) fails with kInvalidArgument, and
  /// a whole-segment count above kMaxSegmentsPerService with
  /// kCapacityExceeded.
  [[nodiscard]] Status demand_matching(ConfiguredService& service) const;

  /// Full Algorithm 1 over a service set, in input order; the first
  /// failing service's error is returned.
  [[nodiscard]] Result<std::vector<ConfiguredService>> configure(
      std::span<const ServiceSpec> services,
      const profiler::ProfileSurfaceSet& surfaces) const;

 private:
  ConfiguratorOptions options_;
};

}  // namespace parva::core
