#include "profiler/profile_surface.hpp"

#include <algorithm>

namespace parva::profiler {
namespace {

/// Index of `value` in the sorted distinct-value list, or -1.
int axis_index(const std::vector<int>& axis, int value) {
  const auto it = std::lower_bound(axis.begin(), axis.end(), value);
  if (it == axis.end() || *it != value) return -1;
  return static_cast<int>(it - axis.begin());
}

std::vector<int> distinct_sorted(const std::vector<ProfilePoint>& points,
                                 int ProfilePoint::* member) {
  std::vector<int> values;
  values.reserve(points.size());
  for (const ProfilePoint& point : points) values.push_back(point.*member);
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

}  // namespace

ProfileSurface::ProfileSurface(const ProfileTable& table)
    : model_(table.model()), points_(table.points()) {
  sizes_ = distinct_sorted(points_, &ProfilePoint::gpcs);
  batches_ = distinct_sorted(points_, &ProfilePoint::batch);
  procs_ = distinct_sorted(points_, &ProfilePoint::procs);

  // Dense exact-coordinate index. Later duplicates of a coordinate win,
  // but the profiler emits each coordinate once; ProfileTable::find returns
  // the first duplicate, so keep first-wins here too.
  dense_.assign(sizes_.size() * batches_.size() * procs_.size(), -1);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const ProfilePoint& point = points_[i];
    const int si = axis_index(sizes_, point.gpcs);
    const int bi = axis_index(batches_, point.batch);
    const int pi = axis_index(procs_, point.procs);
    auto& slot = dense_[(static_cast<std::size_t>(si) * batches_.size() +
                         static_cast<std::size_t>(bi)) *
                            procs_.size() +
                        static_cast<std::size_t>(pi)];
    if (slot < 0) slot = static_cast<std::int32_t>(i);
  }

  // One shelf per (instance size, process cap): feasible points with
  // procs <= procs_[cap], sorted by latency, with a prefix-argmax of
  // throughput. Tie order inside the prefix-argmax is (throughput desc,
  // table order asc) so queries reproduce a first-wins linear scan.
  shelves_.resize(sizes_.size() * procs_.size());
  for (std::size_t si = 0; si < sizes_.size(); ++si) {
    for (std::size_t ci = 0; ci < procs_.size(); ++ci) {
      Shelf& shelf = shelves_[si * procs_.size() + ci];
      for (std::size_t i = 0; i < points_.size(); ++i) {
        const ProfilePoint& point = points_[i];
        if (point.oom || point.gpcs != sizes_[si] || point.procs > procs_[ci]) continue;
        shelf.by_latency.push_back(static_cast<std::uint32_t>(i));
      }
      std::stable_sort(shelf.by_latency.begin(), shelf.by_latency.end(),
                       [this](std::uint32_t a, std::uint32_t b) {
                         return points_[a].latency_ms < points_[b].latency_ms;
                       });
      shelf.latencies.reserve(shelf.by_latency.size());
      shelf.prefix_best.reserve(shelf.by_latency.size());
      std::uint32_t best = 0;
      for (std::size_t k = 0; k < shelf.by_latency.size(); ++k) {
        const std::uint32_t candidate = shelf.by_latency[k];
        shelf.latencies.push_back(points_[candidate].latency_ms);
        if (k == 0) {
          best = candidate;
        } else {
          const ProfilePoint& cur = points_[candidate];
          const ProfilePoint& top = points_[best];
          if (cur.throughput > top.throughput ||
              (cur.throughput == top.throughput && candidate < best)) {
            best = candidate;
          }
        }
        shelf.prefix_best.push_back(best);
      }
    }
  }
}

const ProfilePoint* ProfileSurface::find(int gpcs, int batch, int procs) const {
  const int si = axis_index(sizes_, gpcs);
  const int bi = axis_index(batches_, batch);
  const int pi = axis_index(procs_, procs);
  if (si < 0 || bi < 0 || pi < 0) return nullptr;
  const std::int32_t slot = dense_[(static_cast<std::size_t>(si) * batches_.size() +
                                    static_cast<std::size_t>(bi)) *
                                       procs_.size() +
                                   static_cast<std::size_t>(pi)];
  return slot < 0 ? nullptr : &points_[static_cast<std::size_t>(slot)];
}

const ProfileSurface::Shelf* ProfileSurface::shelf_for(int gpcs, int procs_cap) const {
  const int si = axis_index(sizes_, gpcs);
  if (si < 0) return nullptr;
  // Largest recorded process count within the cap.
  const auto it = std::upper_bound(procs_.begin(), procs_.end(), procs_cap);
  if (it == procs_.begin()) return nullptr;  // cap below every recorded count
  const auto ci = static_cast<std::size_t>(it - procs_.begin()) - 1;
  return &shelves_[static_cast<std::size_t>(si) * procs_.size() + ci];
}

const ProfilePoint* ProfileSurface::best_with_end(const Shelf* shelf, std::size_t end) const {
  if (shelf == nullptr || end == 0) return nullptr;
  return &points_[shelf->prefix_best[end - 1]];
}

const ProfilePoint* ProfileSurface::best_below(int gpcs, int procs_cap,
                                               double latency_bound_ms) const {
  const Shelf* shelf = shelf_for(gpcs, procs_cap);
  if (shelf == nullptr) return nullptr;
  const auto end = static_cast<std::size_t>(
      std::lower_bound(shelf->latencies.begin(), shelf->latencies.end(), latency_bound_ms) -
      shelf->latencies.begin());
  return best_with_end(shelf, end);
}

ProfileSurfaceSet::ProfileSurfaceSet(const ProfileSet& profiles) {
  surfaces_.reserve(profiles.size());
  for (const ProfileTable& table : profiles.tables()) add(ProfileSurface(table));
}

void ProfileSurfaceSet::add(ProfileSurface surface) {
  by_model_.emplace(surface.model(), surfaces_.size());
  surfaces_.push_back(std::move(surface));
}

const ProfileSurface* ProfileSurfaceSet::find(const std::string& model) const {
  const auto it = by_model_.find(model);
  return it == by_model_.end() ? nullptr : &surfaces_[it->second];
}

}  // namespace parva::profiler
