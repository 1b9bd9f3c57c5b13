#include "core/live_update.hpp"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.hpp"

namespace parva::core {
namespace {

/// Identity of a deployed unit for diffing purposes.
struct UnitKey {
  int service_id;
  int gpu_index;
  int gpcs;
  int start_slot;
  int batch;
  int procs;
  auto operator<=>(const UnitKey&) const = default;
};

UnitKey key_of(const DeployedUnit& unit) {
  return UnitKey{unit.service_id,
                 unit.gpu_index,
                 unit.placement.has_value() ? unit.placement->gpcs : -1,
                 unit.placement.has_value() ? unit.placement->start_slot : -1,
                 unit.batch,
                 unit.procs};
}

}  // namespace

Result<LiveUpdateReport> LiveUpdater::apply(const Deployment& current, DeployedState& state,
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

  // Diff: the i-th current unit with a key keeps the i-th target slot with
  // that key; surplus current units are removed and the target slots no
  // kept unit took are added. The common prefix pairs up position by
  // position; the rest of each side is sorted as (key, index) and merged,
  // so the pass costs O(n log n) in the units past the prefix.
  DeployedState next;
  next.unit_instances.resize(target.units.size());
  const std::size_t shared = std::min(current.units.size(), target.units.size());
  std::size_t prefix = 0;
  while (prefix < shared && key_of(current.units[prefix]) == key_of(target.units[prefix])) {
    next.unit_instances[prefix] = state.unit_instances[prefix];
    ++prefix;
  }
  const auto sorted_suffix = [prefix](const Deployment& deployment) {
    std::vector<std::pair<UnitKey, std::size_t>> keyed;
    keyed.reserve(deployment.units.size() - prefix);
    for (std::size_t i = prefix; i < deployment.units.size(); ++i) {
      keyed.emplace_back(key_of(deployment.units[i]), i);
    }
    std::sort(keyed.begin(), keyed.end());
    return keyed;
  };
  const auto from = sorted_suffix(current);
  const auto to = sorted_suffix(target);
  std::vector<std::size_t> to_remove;  // indices into current.units
  std::vector<std::size_t> to_add;     // indices into target.units
  for (std::size_t c = 0, t = 0; c < from.size() || t < to.size();) {
    if (t == to.size() || (c < from.size() && from[c].first < to[t].first)) {
      to_remove.push_back(from[c++].second);
    } else if (c == from.size() || to[t].first < from[c].first) {
      to_add.push_back(to[t++].second);
    } else {
      next.unit_instances[to[t++].second] = state.unit_instances[from[c++].second];
    }
  }
  std::sort(to_remove.begin(), to_remove.end());
  std::sort(to_add.begin(), to_add.end());
  report.untouched_units = static_cast<int>(target.units.size() - to_add.size());
  report.removed_units = static_cast<int>(to_remove.size());
  report.added_units = static_cast<int>(to_add.size());

  // Services whose serving set changes.
  std::set<int> affected;
  for (std::size_t i : to_remove) affected.insert(current.units[i].service_id);
  for (std::size_t i : to_add) affected.insert(target.units[i].service_id);

  // Phase 0 (shadowed only): clone one serving segment per affected
  // service onto the spare pool (GPUs beyond the target's footprint).
  const double per_unit_create = kCreateInstanceMs + kStartMpsMs + kLaunchProcessMs;
  std::map<int, gpu::GlobalInstanceId> shadows;
  int spare_gpu = std::max(current.gpu_count, target.gpu_count);
  if (strategy == UpdateStrategy::kShadowed) {
    // Template per affected service: its first current unit with the
    // smallest grant, so the shadow is cheap; new services have none.
    std::map<int, const DeployedUnit*> templates;
    for (int service_id : affected) templates.emplace(service_id, nullptr);
    for (const DeployedUnit& unit : current.units) {
      const auto it = templates.find(unit.service_id);
      if (it == templates.end()) continue;
      if (it->second == nullptr || unit.gpc_grant < it->second->gpc_grant) it->second = &unit;
    }
    for (const auto& [service_id, tmpl] : templates) {
      if (tmpl == nullptr) continue;

      Deployment shadow;
      shadow.uses_mig = true;
      shadow.gpu_count = spare_gpu + 1;
      DeployedUnit clone = *tmpl;
      clone.gpu_index = spare_gpu;
      clone.placement = gpu::Placement{tmpl->placement->gpcs, 0};
      // Place at the profile's first legal slot on the empty spare GPU.
      clone.placement->start_slot = gpu::legal_start_slots(clone.placement->gpcs).front();
      shadow.units.push_back(clone);
      auto deployed = deployer_->deploy(shadow);
      if (!deployed.ok()) continue;  // no spare capacity: in-place fallback
      shadows[service_id] = deployed.value().unit_instances.front();
      ++report.shadow_units;
      ++spare_gpu;
      report.makespan_ms += per_unit_create;
    }
  }

  // Phase 1: tear down the replaced segments (per-service downtime starts
  // here for unshadowed services).
  std::map<int, double> window_ms;  // rebuild window per service
  for (std::size_t i : to_remove) {
    const DeployedUnit& unit = current.units[i];
    const auto kill_ret = deployer_->nvml().kill_processes(state.unit_instances[i]);
    if (kill_ret != gpu::NvmlReturn::kSuccess) {
      // Keep going: destroy below reclaims the slice even if the kill failed.
      PARVA_LOG_WARN << "live update: kill_processes failed on gpu "
                     << state.unit_instances[i].gpu << ": "
                     << gpu::nvml_error_string(kill_ret);
    }
    const auto ret = deployer_->nvml().destroy_gpu_instance(state.unit_instances[i]);
    if (ret != gpu::NvmlReturn::kSuccess) {
      return Error(ErrorCode::kInternal, std::string("teardown failed: ") +
                                             gpu::nvml_error_string(ret));
    }
    window_ms[unit.service_id] += kDestroyInstanceMs;
  }

  // Phase 2: build the new segments.
  Deployment additions;
  additions.uses_mig = true;
  additions.gpu_count = target.gpu_count;
  additions.units.reserve(to_add.size());
  for (std::size_t i : to_add) additions.units.push_back(target.units[i]);
  auto added = deployer_->deploy(additions);
  if (!added.ok()) return added.error();
  for (std::size_t i : to_add) window_ms[target.units[i].service_id] += per_unit_create;

  // Phase 3: drop the shadows (their teardown happens after traffic has
  // shifted back; it adds makespan but no downtime).
  for (const auto& [service_id, instance] : shadows) {
    const auto kill_ret = deployer_->nvml().kill_processes(instance);
    const auto destroy_ret = deployer_->nvml().destroy_gpu_instance(instance);
    if (kill_ret != gpu::NvmlReturn::kSuccess ||
        destroy_ret != gpu::NvmlReturn::kSuccess) {
      // Shadow teardown happens after traffic has shifted back, so a failure
      // leaks a slice but cannot affect serving: count it and keep going.
      ++report.shadow_teardown_failures;
      PARVA_LOG_WARN << "live update: shadow teardown failed for service " << service_id
                     << " (kill=" << gpu::nvml_error_string(kill_ret)
                     << ", destroy=" << gpu::nvml_error_string(destroy_ret) << ")";
    }
    report.makespan_ms += kDestroyInstanceMs;
  }

  // Accounting: shadowed services keep serving through the window.
  for (int service_id : affected) {
    const bool shadowed = shadows.count(service_id) != 0;
    report.downtime_ms[service_id] = shadowed ? 0.0 : window_ms[service_id];
    report.makespan_ms += window_ms[service_id];
  }

  // New state: the kept instances already sit in their target slots; each
  // added slot takes the instance created for it.
  const std::vector<gpu::GlobalInstanceId>& created = added.value().unit_instances;
  PARVA_CHECK(created.size() == to_add.size(), "added instance bookkeeping mismatch");
  for (std::size_t a = 0; a < to_add.size(); ++a) next.unit_instances[to_add[a]] = created[a];
  state = std::move(next);
  return report;
}

}  // namespace parva::core
