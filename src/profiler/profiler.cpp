#include "profiler/profiler.hpp"

namespace parva::profiler {

ProfileTable Profiler::profile(const perfmodel::WorkloadTraits& traits) const {
  ProfileTable table(traits.name);
  for (int gpcs : gpu::kInstanceSizes) {
    for (int batch : options_.batch_sizes) {
      for (int procs = 1; procs <= options_.max_processes; ++procs) {
        ProfilePoint point;
        point.model = traits.name;
        point.gpcs = gpcs;
        point.batch = batch;
        point.procs = procs;
        auto result = model_->evaluate_mig(traits, gpcs, batch, procs);
        if (result.ok()) {
          const perfmodel::PerfPoint& perf = result.value();
          point.throughput = perf.throughput;
          point.latency_ms = perf.latency_ms;
          point.sm_occupancy = perf.sm_occupancy;
          point.memory_gib = perf.memory_gib;
        } else {
          point.oom = true;
        }
        table.add(std::move(point));
      }
    }
  }
  return table;
}

ProfileTable Profiler::profile(const std::string& model_name) const {
  return profile(model_->catalog().at(model_name));
}

ProfileSet Profiler::profile_all(const std::vector<std::string>& model_names) const {
  ProfileSet set;
  for (const auto& name : model_names) set.add(profile(name));
  return set;
}

}  // namespace parva::profiler
