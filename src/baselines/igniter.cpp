#include "baselines/igniter.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "baselines/mps_partition.hpp"
#include "perfmodel/interference.hpp"

namespace parva::baselines {
namespace {

/// Partitions are sized in 5% steps of a GPU.
constexpr double kFractionQuantum = 0.05;
/// Relative padding applied to the predicted required fraction.
constexpr double kPaddingFactor = 0.15;
/// Absolute padding (fraction of a GPU).
constexpr double kPaddingBias = 0.025;
/// Maximum co-located workloads per GPU iGniter will attempt.
constexpr int kMaxPartitionsPerGpu = 4;

struct SizedService {
  const core::ServiceSpec* spec = nullptr;
  const perfmodel::WorkloadTraits* traits = nullptr;
  double padded_fraction = 0.0;
  PartitionPoint point;  ///< operating point at the padded fraction
};

struct IgniterGpu {
  std::vector<SizedService> partitions;
  double used_fraction = 0.0;
};

}  // namespace

Result<core::ScheduleResult> IgniterScheduler::schedule(
    std::span<const core::ServiceSpec> services) {
  const auto start = std::chrono::steady_clock::now();
  if (Status unique = core::check_unique_ids(services, core::ServiceIdIndex(services));
      !unique.ok()) {
    return unique.error();
  }
  // Per-run memo: the fraction/batch sweeps below revisit the same
  // operating points across services sharing a model.
  const perfmodel::CachedPerfModel cache(*perf_);

  // Phase 1: per-service sizing with iGniter's (noisy) predictor + padding.
  std::vector<SizedService> sized;
  for (const core::ServiceSpec& spec : services) {
    const perfmodel::WorkloadTraits* traits = perf_->catalog().find(spec.model);
    if (traits == nullptr) {
      return Error(ErrorCode::kNotFound, "unknown model " + spec.model);
    }
    const double latency_cap = spec.slo_latency_ms * core::kInternalLatencyFactor;

    // iGniter assumes a nominal co-location environment when sizing; its
    // predictor supplies the expected inflation for one average co-runner.
    const perfmodel::CoRunner nominal{traits, 0.5};
    const double predicted_inflation =
        perfmodel::igniter_predicted_interference(*traits, {&nominal, 1});

    auto required = smallest_fraction_for_rate(cache, *traits, spec.request_rate, latency_cap,
                                               kFractionQuantum, predicted_inflation);
    if (!required.has_value()) {
      // The published system cannot split a service across partitions; at
      // high request rates it simply cannot run (paper: fails S5/S6).
      return Error(ErrorCode::kCapacityExceeded,
                   "iGniter cannot satisfy " + spec.model + " at " +
                       std::to_string(spec.request_rate) + " req/s within one GPU partition");
    }

    double padded = required->gpu_fraction * (1.0 + kPaddingFactor) + kPaddingBias;
    padded = std::min(1.0, padded);
    // Quantize up to the 5% grid.
    padded = std::ceil(padded / kFractionQuantum - 1e-9) * kFractionQuantum;

    auto padded_point =
        best_partition_point(cache, *traits, padded, latency_cap, predicted_inflation);
    if (!padded_point.has_value()) padded_point = required;
    sized.push_back(SizedService{&spec, traits, padded, *padded_point});
  }

  // Phase 2: first-fit-decreasing packing; each addition is admitted only
  // if the predictor says every member of the GPU still meets its SLO.
  std::sort(sized.begin(), sized.end(), [](const SizedService& a, const SizedService& b) {
    return a.padded_fraction > b.padded_fraction;
  });

  std::vector<IgniterGpu> gpus;
  for (const SizedService& service : sized) {
    bool placed = false;
    for (IgniterGpu& gpu : gpus) {
      if (static_cast<int>(gpu.partitions.size()) >= kMaxPartitionsPerGpu) continue;
      if (gpu.used_fraction + service.padded_fraction > 1.0 + 1e-9) continue;

      // Predicted feasibility for every member including the newcomer.
      auto feasible = [&](const SizedService& member,
                          const std::vector<SizedService>& cohort) {
        std::vector<perfmodel::CoRunner> others;
        for (const SizedService& other : cohort) {
          if (other.spec->id == member.spec->id) continue;
          others.push_back({other.traits, other.padded_fraction});
        }
        const double inflation =
            perfmodel::igniter_predicted_interference(*member.traits, others);
        const double cap = member.spec->slo_latency_ms * core::kInternalLatencyFactor;
        auto point =
            best_partition_point(cache, *member.traits, member.padded_fraction, cap, inflation);
        return point.has_value() && point->throughput >= member.spec->request_rate;
      };
      std::vector<SizedService> cohort = gpu.partitions;
      cohort.push_back(service);
      bool all_ok = true;
      for (const SizedService& member : cohort) {
        if (!feasible(member, cohort)) {
          all_ok = false;
          break;
        }
      }
      if (!all_ok) continue;

      gpu.partitions.push_back(service);
      gpu.used_fraction += service.padded_fraction;
      placed = true;
      break;
    }
    if (!placed) {
      IgniterGpu gpu;
      gpu.partitions.push_back(service);
      gpu.used_fraction = service.padded_fraction;
      gpus.push_back(std::move(gpu));
    }
  }

  const auto stop = std::chrono::steady_clock::now();

  // Materialise with ground-truth interference.
  core::Deployment deployment;
  deployment.framework = name();
  deployment.uses_mig = false;
  deployment.gpu_count = static_cast<int>(gpus.size());
  for (std::size_t gi = 0; gi < gpus.size(); ++gi) {
    const IgniterGpu& gpu = gpus[gi];
    for (std::size_t pi = 0; pi < gpu.partitions.size(); ++pi) {
      const SizedService& member = gpu.partitions[pi];
      std::vector<perfmodel::CoRunner> others;
      for (std::size_t qi = 0; qi < gpu.partitions.size(); ++qi) {
        if (qi == pi) continue;
        others.push_back({gpu.partitions[qi].traits, gpu.partitions[qi].padded_fraction});
      }
      const double true_inflation = perfmodel::true_interference(*member.traits, others);
      auto actual = cache.evaluate_mps_share(*member.traits, member.padded_fraction,
                                              member.point.batch, 1, true_inflation);

      core::DeployedUnit unit;
      unit.service_id = member.spec->id;
      unit.model = member.spec->model;
      unit.gpu_index = static_cast<int>(gi);
      unit.gpc_grant = member.padded_fraction * 7.0;
      unit.batch = member.point.batch;
      unit.procs = 1;
      unit.planned_throughput = member.point.throughput;
      unit.planned_latency_ms = member.point.latency_ms;
      if (actual.ok()) {
        unit.actual_throughput = actual.value().throughput;
        unit.actual_latency_ms = actual.value().latency_ms;
        unit.sm_occupancy = actual.value().sm_occupancy;
        unit.memory_gib = actual.value().memory_gib;
      } else {
        unit.actual_throughput = member.point.throughput;
        unit.actual_latency_ms = member.point.latency_ms;
        unit.sm_occupancy = member.point.sm_occupancy;
        unit.memory_gib = member.point.memory_gib;
      }
      deployment.units.push_back(std::move(unit));
    }
  }

  core::ScheduleResult result;
  result.deployment = std::move(deployment);
  result.scheduling_delay_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  return result;
}

}  // namespace parva::baselines
