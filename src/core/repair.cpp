#include "core/repair.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

namespace parva::core {

std::vector<std::size_t> RepairCoordinator::detect_lost_units(
    const Deployment& deployment) const {
  std::vector<std::size_t> lost;
  for (std::size_t i = 0; i < deployment.units.size(); ++i) {
    const int gpu = deployment.units[i].gpu_index;
    if (gpu >= 0 && deployer_->nvml().device_lost(static_cast<unsigned>(gpu))) {
      lost.push_back(i);
    }
  }
  return lost;
}

Result<RepairReport> RepairCoordinator::handle_gpu_loss(Deployment& current,
                                                        DeployedState& state, int lost_gpu) {
  if (state.unit_instances.size() != current.units.size()) {
    return Error(ErrorCode::kInvalidArgument,
                 "DeployedState does not match the current deployment");
  }
  if (!current.uses_mig) {
    return Error(ErrorCode::kUnsupported, "repair operates on MIG-backed deployments");
  }

  RepairReport report;
  report.lost_gpu = lost_gpu;

  // Partition the deployment into survivors and the units the failure took
  // down. The lost instances no longer exist on the hardware (the device
  // reset destroyed them), so the survivor state simply drops their ids.
  Deployment survivors{.framework = current.framework,
                       .uses_mig = current.uses_mig,
                       .gpu_count = current.gpu_count,
                       .units = {}};
  survivors.units.reserve(current.units.size());
  DeployedState survivor_state;
  survivor_state.unit_instances.reserve(current.units.size());
  std::vector<DeployedUnit> lost_units;
  for (std::size_t i = 0; i < current.units.size(); ++i) {
    if (current.units[i].gpu_index == lost_gpu) {
      lost_units.push_back(current.units[i]);
    } else {
      survivors.units.push_back(current.units[i]);
      survivor_state.unit_instances.push_back(state.unit_instances[i]);
    }
  }
  report.lost_units = static_cast<int>(lost_units.size());
  if (lost_units.empty()) {
    report.deployment = current;
    return report;  // nothing hosted there; no recovery needed
  }

  std::set<int> affected;
  for (const DeployedUnit& unit : lost_units) {
    affected.insert(unit.service_id);
    report.displaced_rate += unit.actual_throughput;
  }
  report.affected_services.assign(affected.begin(), affected.end());

  if (options_.telemetry != nullptr) {
    const double now = deployer_->nvml().time_ms();
    for (const int service : report.affected_services) {
      options_.telemetry->events().record(telemetry::EventKind::kDisplacement, now,
                                          lost_gpu, service, report.displaced_rate);
    }
    options_.telemetry->metrics()
        .counter("parva_repair_displaced_units_total", "Units displaced by device losses")
        .inc(static_cast<double>(report.lost_units));
  }

  // Free-slot geometry of the surviving fleet, one mask per GPU index.
  std::vector<std::uint8_t> occupied;
  for (const DeployedUnit& unit : survivors.units) {
    PARVA_REQUIRE(unit.placement.has_value() && unit.gpu_index >= 0,
                  "MIG unit requires a placement on a GPU");
    const auto index = static_cast<std::size_t>(unit.gpu_index);
    if (index >= occupied.size()) occupied.resize(index + 1, 0);
    occupied[index] |= unit.placement->slot_mask();
  }
  int max_gpu = std::max(lost_gpu, static_cast<int>(occupied.size()) - 1);
  occupied.resize(static_cast<std::size_t>(max_gpu + 1), 0);

  // Re-place the displaced units, largest first so big profiles grab the
  // remaining contiguous gaps before 1-GPC segments fragment them. Each
  // replacement keeps its triplet (size/batch/procs), so the restored
  // capacity equals the displaced capacity exactly; only the placement
  // moves. When no surviving GPU has room, a standby device (index beyond
  // the current fleet — the cloud's replacement node) takes the segment.
  std::vector<DeployedUnit> displaced = lost_units;
  std::stable_sort(displaced.begin(), displaced.end(),
                   [](const DeployedUnit& a, const DeployedUnit& b) {
                     return a.placement->gpcs > b.placement->gpcs;
                   });
  for (DeployedUnit unit : displaced) {
    const int gpcs = unit.placement->gpcs;
    bool placed = false;
    for (int g = 0; g <= max_gpu && !placed; ++g) {
      if (g == lost_gpu) continue;
      std::uint8_t& mask = occupied[static_cast<std::size_t>(g)];
      const auto slot = gpu::find_start_slot(mask, gpcs);
      if (!slot.has_value()) continue;
      unit.gpu_index = g;
      unit.placement = gpu::Placement{gpcs, *slot};
      mask |= unit.placement->slot_mask();
      placed = true;
    }
    if (!placed) {
      ++max_gpu;  // standby device; an empty GPU fits any single profile
      unit.gpu_index = max_gpu;
      unit.placement = gpu::Placement{gpcs, gpu::preferred_start_slots(gpcs).front()};
      occupied.push_back(unit.placement->slot_mask());
    }
    report.replacements.push_back(std::move(unit));
  }
  report.replaced_units = static_cast<int>(report.replacements.size());

  Deployment target{.framework = survivors.framework,
                    .uses_mig = survivors.uses_mig,
                    .gpu_count = std::max(current.gpu_count, max_gpu + 1),
                    .units = {}};
  target.units.reserve(survivors.units.size() + report.replacements.size());
  target.units.insert(target.units.end(), survivors.units.begin(), survivors.units.end());
  target.units.insert(target.units.end(), report.replacements.begin(),
                      report.replacements.end());

  // Drive the transition through the live updater: survivors stay
  // untouched, only the replacements are created.
  const DeployStats before = deployer_->total_stats();
  auto update = updater_->apply(survivors, survivor_state, target, UpdateStrategy::kInPlace);
  if (!update.ok()) return update.error();
  const DeployStats after = deployer_->total_stats();
  report.deploy_stats.transient_retries = after.transient_retries - before.transient_retries;
  report.deploy_stats.backoff_ms = after.backoff_ms - before.backoff_ms;
  report.deploy_stats.fallback_placements =
      after.fallback_placements - before.fallback_placements;

  report.update = std::move(update).value();
  report.recovery_ms = kDetectionLatencyMs + report.update.makespan_ms +
                       report.deploy_stats.backoff_ms;
  report.deployment = target;

  if (options_.telemetry != nullptr) {
    options_.telemetry->events().record(
        telemetry::EventKind::kRepairCompleted, deployer_->nvml().time_ms(), lost_gpu,
        /*service_id=*/-1, report.recovery_ms,
        "replaced=" + std::to_string(report.replaced_units) +
            " retries=" + std::to_string(report.deploy_stats.transient_retries));
    telemetry::MetricsRegistry& m = options_.telemetry->metrics();
    m.counter("parva_repair_repairs_total", "Completed device-loss repairs").inc();
    m.counter("parva_repair_replaced_units_total", "Replacement units brought up")
        .inc(static_cast<double>(report.replaced_units));
    m.histogram("parva_repair_recovery_ms", {100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0},
                "End-to-end recovery time per repair")
        .observe(report.recovery_ms);
  }

  current = std::move(target);
  state = std::move(survivor_state);
  return report;
}

}  // namespace parva::core
