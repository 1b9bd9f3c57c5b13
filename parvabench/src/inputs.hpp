// Workload definitions and the inputs generated from the seed.
//
// The library only ever sees what these functions generate: service lists
// (Table-IV scenarios, folded, with the order shuffled and every rate
// jittered) and a stream of SLO/rate updates. Inputs are validated before
// anything is timed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/service.hpp"
#include "profiler/profile_surface.hpp"

namespace parvabench {

/// One planned fleet: a scenario folded `fold` times.
struct FleetSpec {
  std::string scenario;
  int fold = 1;
};

struct WorkloadConfig {
  std::string name;
  std::vector<FleetSpec> fleets;
  int updates = 0;                  ///< SLO/rate changes through update_service
  bool jitter_rates = false;        ///< the seed also jitters every rate by up to 3%
  double replay_warmup_ms = 0.0;
  double replay_duration_ms = 0.0;
  bool plan_in_setup = false;       ///< replay the set-up's plans (else the churned ones)
  bool sharded_replay = false;      ///< replay on nproc shards sharing one pool
  bool lose_gpu_in_replay = false;  ///< the replay loses one GPU, unrepaired
  bool paced_replay = false;        ///< deterministic arrivals instead of Poisson
  double failure_at = 0.5;          ///< when the GPU fails, as a share of warm-up + measured time
  bool deploy_and_repair = false;   ///< deploy, lose one GPU, repair in set-up
  int plans_per_round = 1;          ///< schedule() calls per fleet per round
  int update_passes_per_round = 1;  ///< passes over the update stream per round
  int min_rounds = 3;
};

/// The named workload; `smoke` shrinks folds, horizons and streams so a
/// run takes about a second. Returns false for an unknown name.
bool workload_config(const std::string& name, bool smoke, WorkloadConfig* out);

struct Fleet {
  std::string name;
  std::vector<parva::core::ServiceSpec> services;
  bool streaming = false;  ///< bursty arrivals and KV eviction (S7)
};

struct Update {
  std::size_t fleet = 0;
  parva::core::ServiceSpec spec;  ///< replaces the service with this id
};

struct Inputs {
  std::vector<Fleet> fleets;
  std::vector<Update> updates;
  /// Draw in [0, 1) that picks the GPU lost mid-horizon.
  double lost_gpu_draw = 0.0;
};

Inputs generate_inputs(const WorkloadConfig& config, std::uint64_t seed);

/// Checks unique ids, finite positive SLO and rate, a known model, and
/// feasibility under the profile surface for every service and update.
/// Returns one line per violation.
std::vector<std::string> validate_inputs(const Inputs& inputs,
                                         const parva::profiler::ProfileSurfaceSet& surfaces);

/// Canonical text form of the inputs (one service or update per line).
std::string inputs_to_string(const Inputs& inputs);

}  // namespace parvabench
