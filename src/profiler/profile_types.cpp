#include "profiler/profile_types.hpp"

namespace parva::profiler {

const ProfilePoint* ProfileTable::find(int gpcs, int batch, int procs) const {
  for (const ProfilePoint& point : points_) {
    if (point.gpcs == gpcs && point.batch == batch && point.procs == procs) return &point;
  }
  return nullptr;
}

void ProfileSet::add(ProfileTable table) { tables_.push_back(std::move(table)); }

const ProfileTable* ProfileSet::find(const std::string& model) const {
  for (const auto& table : tables_) {
    if (table.model() == model) return &table;
  }
  return nullptr;
}

}  // namespace parva::profiler
