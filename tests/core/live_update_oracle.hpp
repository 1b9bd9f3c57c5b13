// Reference implementation kept as a test oracle for LiveUpdater::apply:
// the diff as first written. Target keys go into a multiset; each current
// unit whose key is still there is kept, the target occurrences left over
// are deployed, and a nested scan then gives each kept unit the first
// unfilled target slot with its key. The additions fill the remaining slots
// in target order. On deployments whose unit keys are unique on each side,
// as on every legal MIG map, this matches the sorted diff pass exactly.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "core/live_update.hpp"

namespace parva::core::testing {

/// Identity of a deployed unit for diffing purposes.
struct OracleUnitKey {
  int service_id;
  int gpu_index;
  int gpcs;
  int start_slot;
  int batch;
  int procs;
  auto operator<=>(const OracleUnitKey&) const = default;
};

inline OracleUnitKey oracle_key(const DeployedUnit& unit) {
  return OracleUnitKey{unit.service_id,
                       unit.gpu_index,
                       unit.placement.has_value() ? unit.placement->gpcs : -1,
                       unit.placement.has_value() ? unit.placement->start_slot : -1,
                       unit.batch,
                       unit.procs};
}

/// LiveUpdater::apply with the multiset diff and the O(kept x target) slot
/// matching; every control-plane call is issued in the same order.
inline Result<LiveUpdateReport> reference_apply(Deployer& deployer, const Deployment& current,
                                                DeployedState& state,
                                                const Deployment& target,
                                                UpdateStrategy strategy) {
  if (!current.uses_mig || !target.uses_mig) {
    return Error(ErrorCode::kUnsupported, "live update operates on MIG-backed deployments");
  }
  if (state.unit_instances.size() != current.units.size()) {
    return Error(ErrorCode::kInvalidArgument,
                 "DeployedState does not match the current deployment");
  }

  LiveUpdateReport report;

  std::multiset<OracleUnitKey> target_keys;
  for (const DeployedUnit& unit : target.units) target_keys.insert(oracle_key(unit));

  std::vector<std::size_t> to_remove;  // indices into current.units
  std::vector<gpu::GlobalInstanceId> kept_instances;
  std::vector<const DeployedUnit*> kept_units;
  for (std::size_t i = 0; i < current.units.size(); ++i) {
    const auto it = target_keys.find(oracle_key(current.units[i]));
    if (it != target_keys.end()) {
      target_keys.erase(it);
      kept_instances.push_back(state.unit_instances[i]);
      kept_units.push_back(&current.units[i]);
      ++report.untouched_units;
    } else {
      to_remove.push_back(i);
    }
  }
  std::vector<const DeployedUnit*> to_add;  // units of target not yet live
  {
    std::multiset<OracleUnitKey> remaining = target_keys;
    for (const DeployedUnit& unit : target.units) {
      const auto it = remaining.find(oracle_key(unit));
      if (it != remaining.end()) {
        remaining.erase(it);
        to_add.push_back(&unit);
      }
    }
  }
  report.removed_units = static_cast<int>(to_remove.size());
  report.added_units = static_cast<int>(to_add.size());

  std::set<int> affected;
  for (std::size_t i : to_remove) affected.insert(current.units[i].service_id);
  for (const DeployedUnit* unit : to_add) affected.insert(unit->service_id);

  const double per_unit_create = kCreateInstanceMs + kStartMpsMs + kLaunchProcessMs;
  std::map<int, gpu::GlobalInstanceId> shadows;
  int spare_gpu = std::max(current.gpu_count, target.gpu_count);
  if (strategy == UpdateStrategy::kShadowed) {
    for (int service_id : affected) {
      const DeployedUnit* tmpl = nullptr;
      for (const DeployedUnit& unit : current.units) {
        if (unit.service_id != service_id) continue;
        if (tmpl == nullptr || unit.gpc_grant < tmpl->gpc_grant) tmpl = &unit;
      }
      if (tmpl == nullptr) continue;

      Deployment shadow;
      shadow.uses_mig = true;
      shadow.gpu_count = spare_gpu + 1;
      DeployedUnit clone = *tmpl;
      clone.gpu_index = spare_gpu;
      clone.placement = gpu::Placement{tmpl->placement->gpcs, 0};
      clone.placement->start_slot = gpu::legal_start_slots(clone.placement->gpcs).front();
      shadow.units.push_back(clone);
      auto deployed = deployer.deploy(shadow);
      if (!deployed.ok()) continue;
      shadows[service_id] = deployed.value().unit_instances.front();
      ++report.shadow_units;
      ++spare_gpu;
      report.makespan_ms += per_unit_create;
    }
  }

  std::map<int, double> window_ms;
  for (std::size_t i : to_remove) {
    const DeployedUnit& unit = current.units[i];
    const auto kill_ret = deployer.nvml().kill_processes(state.unit_instances[i]);
    if (kill_ret != gpu::NvmlReturn::kSuccess) {
      PARVA_LOG_WARN << "reference live update: kill_processes failed on gpu "
                     << state.unit_instances[i].gpu << ": "
                     << gpu::nvml_error_string(kill_ret);
    }
    const auto ret = deployer.nvml().destroy_gpu_instance(state.unit_instances[i]);
    if (ret != gpu::NvmlReturn::kSuccess) {
      return Error(ErrorCode::kInternal, std::string("teardown failed: ") +
                                             gpu::nvml_error_string(ret));
    }
    window_ms[unit.service_id] += kDestroyInstanceMs;
  }

  Deployment additions;
  additions.uses_mig = true;
  additions.gpu_count = target.gpu_count;
  for (const DeployedUnit* unit : to_add) additions.units.push_back(*unit);
  auto added = deployer.deploy(additions);
  if (!added.ok()) return added.error();
  for (const DeployedUnit* unit : to_add) {
    window_ms[unit->service_id] += per_unit_create;
  }

  for (const auto& [service_id, instance] : shadows) {
    const auto kill_ret = deployer.nvml().kill_processes(instance);
    const auto destroy_ret = deployer.nvml().destroy_gpu_instance(instance);
    if (kill_ret != gpu::NvmlReturn::kSuccess ||
        destroy_ret != gpu::NvmlReturn::kSuccess) {
      ++report.shadow_teardown_failures;
    }
    report.makespan_ms += kDestroyInstanceMs;
  }

  for (int service_id : affected) {
    const bool shadowed = shadows.count(service_id) != 0;
    report.downtime_ms[service_id] = shadowed ? 0.0 : window_ms[service_id];
    report.makespan_ms += window_ms[service_id];
  }

  DeployedState next;
  next.unit_instances.resize(target.units.size());
  std::vector<bool> filled(target.units.size(), false);
  for (std::size_t k = 0; k < kept_units.size(); ++k) {
    const OracleUnitKey key = oracle_key(*kept_units[k]);
    for (std::size_t t = 0; t < target.units.size(); ++t) {
      if (filled[t]) continue;
      if (oracle_key(target.units[t]) == key) {
        next.unit_instances[t] = kept_instances[k];
        filled[t] = true;
        break;
      }
    }
  }
  std::size_t add_cursor = 0;
  for (std::size_t t = 0; t < target.units.size(); ++t) {
    if (filled[t]) continue;
    PARVA_CHECK(add_cursor < added.value().unit_instances.size(),
                "added instance bookkeeping mismatch");
    next.unit_instances[t] = added.value().unit_instances[add_cursor++];
    filled[t] = true;
  }
  state = std::move(next);
  return report;
}

}  // namespace parva::core::testing
