// Shared fixtures for the core tests: the built-in and LLM-extended
// profile sets and their indexed surfaces (each computed once per
// process), and helpers to build services/triplets.
#pragma once

#include <string>

#include "core/deployment.hpp"
#include "core/service.hpp"
#include "profiler/profile_surface.hpp"
#include "profiler/profiler.hpp"

namespace parva::core::testing {

inline const profiler::ProfileSet& builtin_profiles() {
  static const profiler::ProfileSet profiles = [] {
    perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::builtin());
    profiler::Profiler profiler(perf);
    return profiler.profile_all(perfmodel::ModelCatalog::builtin().names());
  }();
  return profiles;
}

inline const profiler::ProfileSurfaceSet& builtin_surfaces() {
  static const profiler::ProfileSurfaceSet surfaces{builtin_profiles()};
  return surfaces;
}

/// Profiles of the LLM-extended catalog: the built-in models plus the llama
/// rows that S7 serves.
inline const profiler::ProfileSet& llm_profiles() {
  static const profiler::ProfileSet profiles = [] {
    perfmodel::AnalyticalPerfModel perf(perfmodel::ModelCatalog::with_llm());
    profiler::Profiler profiler(perf);
    return profiler.profile_all(perfmodel::ModelCatalog::with_llm().names());
  }();
  return profiles;
}

inline const profiler::ProfileSurfaceSet& llm_surfaces() {
  static const profiler::ProfileSurfaceSet surfaces{llm_profiles()};
  return surfaces;
}

inline ServiceSpec service(int id, const std::string& model, double slo_ms, double rate) {
  return ServiceSpec{id, model, slo_ms, rate, {}};
}

/// A synthetic triplet for plan/allocator tests that do not need profiles.
inline Triplet triplet(int gpcs, double throughput, int batch = 8, int procs = 1) {
  Triplet t;
  t.gpcs = gpcs;
  t.batch = batch;
  t.procs = procs;
  t.throughput = throughput;
  t.latency_ms = 10.0;
  t.sm_occupancy = 0.9;
  t.memory_gib = 1.0;
  return t;
}

/// A hand-built MIG unit at `gpcs`@`start_slot` on `gpu_index`, batch 1,
/// one process.
inline DeployedUnit mig_unit(int service_id, const std::string& model, int gpu_index, int gpcs,
                             int start_slot) {
  DeployedUnit unit;
  unit.service_id = service_id;
  unit.model = model;
  unit.gpu_index = gpu_index;
  unit.gpc_grant = gpcs;
  unit.placement = gpu::Placement{gpcs, start_slot};
  return unit;
}

}  // namespace parva::core::testing
