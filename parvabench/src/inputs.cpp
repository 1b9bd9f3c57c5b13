#include "inputs.hpp"

#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "common/rng.hpp"
#include "core/configurator.hpp"
#include "perfmodel/model_catalog.hpp"
#include "scenarios/scenarios.hpp"

namespace parvabench {

using parva::Rng;
using parva::core::ServiceSpec;

bool workload_config(const std::string& name, bool smoke, WorkloadConfig* out) {
  WorkloadConfig c;
  c.name = name;
  c.min_rounds = smoke ? 1 : 3;
  if (name == "fleet_plan") {
    // S5 x150: 1,650 services on ~2,200 GPUs, where relocation is already
    // quadratic (x70 -> x150 multiplies plan time by about 5). At x350 a
    // plan takes ~0.4 s and its fastest repeat in a run still moved 1.4x
    // with the host's load; at x150 it moved 1.16x. Re-planning dominates;
    // the churned plan is replayed once, briefly, under the paper's paced
    // load and through the loss of one GPU, to check it serves its rates
    // and to price the outage.
    c.fleets = {{"S5", smoke ? 20 : 150}};
    c.updates = smoke ? 100 : 1000;
    c.jitter_rates = true;
    c.replay_warmup_ms = 20.0;
    c.replay_duration_ms = smoke ? 40.0 : 60.0;
    c.lose_gpu_in_replay = true;
    c.paced_replay = true;
    c.sharded_replay = true;  // on one shard replay_req_per_s spread 0.19 between seeds, on nproc 0.07
    c.failure_at = 0.02;  // during warm-up: the service is down all measured time
    c.plans_per_round = 3;
    c.update_passes_per_round = 2;
  } else if (name == "scenario_replay") {
    // Table-IV S1-S6 plus folded S7 at paper scale: per-event DES cost.
    for (const char* s : {"S1", "S2", "S3", "S4", "S5", "S6"}) c.fleets.push_back({s, 1});
    c.fleets.push_back({"S7", smoke ? 4 : 60});
    c.plan_in_setup = true;
    c.updates = smoke ? 70 : 1400;
    c.replay_warmup_ms = smoke ? 500.0 : 2000.0;
    c.replay_duration_ms = smoke ? 3000.0 : 60000.0;
    c.plans_per_round = 100;
    c.update_passes_per_round = 10;
  } else if (name == "fleet_replay") {
    // S5 x70: 770 services on ~1,020 GPUs, deployed, one GPU lost
    // mid-horizon and repaired, replayed on nproc shards.
    c.fleets = {{"S5", smoke ? 8 : 70}};
    c.updates = smoke ? 100 : 2000;
    c.replay_warmup_ms = smoke ? 100.0 : 500.0;
    c.replay_duration_ms = smoke ? 400.0 : 3500.0;
    c.plan_in_setup = true;
    c.sharded_replay = true;
    c.deploy_and_repair = true;
    c.plans_per_round = 5;
    c.update_passes_per_round = 2;
  } else {
    return false;
  }
  *out = std::move(c);
  return true;
}

Inputs generate_inputs(const WorkloadConfig& config, std::uint64_t seed) {
  Rng rng(seed ^ 0x7061727661626e63ULL);
  Inputs inputs;
  for (const FleetSpec& spec : config.fleets) {
    const auto& base = parva::scenarios::scenario(spec.scenario);
    Fleet fleet;
    fleet.name = spec.fold == 1 ? spec.scenario : spec.scenario + "x" + std::to_string(spec.fold);
    fleet.streaming = base.streaming;
    fleet.services = parva::scenarios::scale_scenario(base, spec.fold).services;
    // Only fleet_plan jitters rates: in the replays, a jittered service left
    // with a thin plan margin misses far more requests than its neighbours,
    // which made the replay outcome swing between seeds.
    if (config.jitter_rates) {
      for (ServiceSpec& service : fleet.services) {
        service.request_rate *= rng.uniform(0.97, 1.03);
      }
    }
    // Fisher-Yates with the benchmark's own generator: the service order
    // is part of the input the planner sees.
    for (std::size_t i = fleet.services.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(0, i - 1));
      std::swap(fleet.services[i - 1], fleet.services[j]);
    }
    inputs.fleets.push_back(std::move(fleet));
  }
  for (int u = 0; u < config.updates; ++u) {
    Update update;
    update.fleet = static_cast<std::size_t>(rng.uniform_int(0, inputs.fleets.size() - 1));
    const auto& services = inputs.fleets[update.fleet].services;
    update.spec = services[static_cast<std::size_t>(rng.uniform_int(0, services.size() - 1))];
    // Changes are relative to the generated spec, so the stream never
    // drifts; SLOs only loosen, which keeps every update feasible.
    if (rng.next_double() < 0.5) {
      update.spec.request_rate *= rng.uniform(0.7, 1.3);
    } else {
      update.spec.slo_latency_ms *= rng.uniform(1.0, 1.5);
    }
    inputs.updates.push_back(std::move(update));
  }
  inputs.lost_gpu_draw = rng.next_double();
  return inputs;
}

namespace {

std::string check_service(const ServiceSpec& spec,
                          const parva::profiler::ProfileSurfaceSet& surfaces,
                          const parva::core::SegmentConfigurator& configurator) {
  const std::string who = "service " + std::to_string(spec.id) + ": ";
  if (spec.id < 0) return who + "negative id";
  if (!std::isfinite(spec.slo_latency_ms) || spec.slo_latency_ms <= 0.0) return who + "bad SLO";
  if (!std::isfinite(spec.request_rate) || spec.request_rate <= 0.0) return who + "bad rate";
  if (parva::perfmodel::ModelCatalog::with_llm().find(spec.model) == nullptr) {
    return who + "unknown model " + spec.model;
  }
  const auto* surface = surfaces.find(spec.model);
  if (surface == nullptr) return who + "no profile surface for " + spec.model;
  auto configured = configurator.triplet_decision(spec, *surface);
  if (!configured.ok()) return who + "infeasible: " + configured.error().to_string();
  auto service = std::move(configured).value();
  const auto matched = configurator.demand_matching(service);
  if (!matched.ok()) return who + "infeasible: " + matched.to_string();
  return "";
}

}  // namespace

std::vector<std::string> validate_inputs(const Inputs& inputs,
                                         const parva::profiler::ProfileSurfaceSet& surfaces) {
  const parva::core::SegmentConfigurator configurator;  // the scheduler's defaults
  std::vector<std::string> problems;
  auto note = [&problems](const std::string& where, const std::string& problem) {
    if (!problem.empty()) problems.push_back(where + problem);
  };
  for (const Fleet& fleet : inputs.fleets) {
    std::set<int> ids;
    if (fleet.services.empty()) problems.push_back(fleet.name + ": no services");
    for (const ServiceSpec& spec : fleet.services) {
      if (!ids.insert(spec.id).second) {
        problems.push_back(fleet.name + ": duplicate id " + std::to_string(spec.id));
      }
      note(fleet.name + ": ", check_service(spec, surfaces, configurator));
    }
  }
  for (std::size_t u = 0; u < inputs.updates.size(); ++u) {
    const Update& update = inputs.updates[u];
    const std::string where = "update " + std::to_string(u) + ": ";
    if (update.fleet >= inputs.fleets.size()) {
      problems.push_back(where + "bad fleet index");
      continue;
    }
    bool known = false;
    for (const ServiceSpec& spec : inputs.fleets[update.fleet].services) {
      known = known || spec.id == update.spec.id;
    }
    if (!known) problems.push_back(where + "unknown service id");
    note(where, check_service(update.spec, surfaces, configurator));
  }
  return problems;
}

std::string inputs_to_string(const Inputs& inputs) {
  std::string out;
  char buf[256];
  for (const Fleet& fleet : inputs.fleets) {
    out += "fleet " + fleet.name + " " + std::to_string(fleet.services.size()) + "\n";
    for (const ServiceSpec& s : fleet.services) {
      std::snprintf(buf, sizeof(buf), "svc %d %s %.17g %.17g\n", s.id, s.model.c_str(),
                    s.slo_latency_ms, s.request_rate);
      out += buf;
    }
  }
  for (const Update& u : inputs.updates) {
    std::snprintf(buf, sizeof(buf), "upd %zu %d %s %.17g %.17g\n", u.fleet, u.spec.id,
                  u.spec.model.c_str(), u.spec.slo_latency_ms, u.spec.request_rate);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "lost_gpu_draw %.17g\n", inputs.lost_gpu_draw);
  out += buf;
  return out;
}

}  // namespace parvabench
