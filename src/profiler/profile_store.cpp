#include "profiler/profile_store.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/strings.hpp"

namespace parva::profiler {

namespace {
constexpr const char* kHeader = "model,gpcs,batch,procs,oom,throughput,latency_ms,sm_occupancy,memory_gib";

/// A GPC, batch or process count: a positive int. Zero never occurs in a
/// valid grid, and a value above INT_MAX would wrap when narrowed.
bool parse_count(std::string_view text, int& out) {
  unsigned long long u = 0;
  if (!parse_uint(text, u) || u == 0 ||
      u > static_cast<unsigned long long>(std::numeric_limits<int>::max())) {
    return false;
  }
  out = static_cast<int>(u);
  return true;
}

bool parse_finite(std::string_view text, double& out) {
  return parse_double(text, out) && std::isfinite(out);
}
}  // namespace

std::string to_csv(const ProfileSet& set) {
  std::string out = kHeader;
  out += '\n';
  for (const auto& table : set.tables()) {
    for (const auto& p : table.points()) {
      out += p.model;
      out += ',' + std::to_string(p.gpcs);
      out += ',' + std::to_string(p.batch);
      out += ',' + std::to_string(p.procs);
      out += ',' + std::string(p.oom ? "1" : "0");
      out += ',' + format_double(p.throughput, 4);
      out += ',' + format_double(p.latency_ms, 4);
      out += ',' + format_double(p.sm_occupancy, 4);
      out += ',' + format_double(p.memory_gib, 4);
      out += '\n';
    }
  }
  return out;
}

Result<ProfileSet> from_csv(const std::string& csv) {
  ProfileSet set;
  ProfileTable* current = nullptr;
  std::string current_model;

  std::istringstream stream(csv);
  std::string line;
  bool first = true;
  std::vector<ProfileTable> tables;
  while (std::getline(stream, line)) {
    const auto trimmed = trim(line);
    if (trimmed.empty()) continue;
    if (first) {
      first = false;
      if (trimmed != kHeader) {
        return Error(ErrorCode::kInvalidArgument, "unexpected CSV header: " + std::string(trimmed));
      }
      continue;
    }
    const auto fields = split(trimmed, ',');
    if (fields.size() != 9) {
      return Error(ErrorCode::kInvalidArgument, "malformed CSV row: " + std::string(trimmed));
    }
    ProfilePoint point;
    point.model = fields[0];
    unsigned long long u = 0;
    if (!parse_count(fields[1], point.gpcs)) return Error(ErrorCode::kInvalidArgument, "bad gpcs");
    if (!parse_count(fields[2], point.batch)) return Error(ErrorCode::kInvalidArgument, "bad batch");
    if (!parse_count(fields[3], point.procs)) return Error(ErrorCode::kInvalidArgument, "bad procs");
    if (!parse_uint(fields[4], u)) return Error(ErrorCode::kInvalidArgument, "bad oom flag");
    point.oom = u != 0;
    if (!parse_finite(fields[5], point.throughput)) {
      return Error(ErrorCode::kInvalidArgument, "bad throughput");
    }
    if (!parse_finite(fields[6], point.latency_ms)) {
      return Error(ErrorCode::kInvalidArgument, "bad latency");
    }
    if (!parse_finite(fields[7], point.sm_occupancy)) {
      return Error(ErrorCode::kInvalidArgument, "bad occupancy");
    }
    if (!parse_finite(fields[8], point.memory_gib)) {
      return Error(ErrorCode::kInvalidArgument, "bad memory");
    }

    if (current == nullptr || current_model != point.model) {
      tables.emplace_back(point.model);
      current = &tables.back();
      current_model = point.model;
    }
    current->add(std::move(point));
  }
  for (auto& table : tables) set.add(std::move(table));
  return set;
}

Status save_csv_file(const ProfileSet& set, const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return Status(ErrorCode::kInvalidArgument, "cannot open " + path);
  file << to_csv(set);
  return Status::Ok();
}

Result<ProfileSet> load_csv_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Error(ErrorCode::kNotFound, "cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return from_csv(buffer.str());
}

}  // namespace parva::profiler
