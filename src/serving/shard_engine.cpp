#include "serving/shard_engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <utility>

namespace parva::serving {

std::vector<int> partition_services(const std::vector<double>& rates, int shards) {
  PARVA_REQUIRE(shards >= 1, "shard count must be >= 1");
  std::vector<int> assignment(rates.size(), 0);
  if (shards == 1 || rates.empty()) return assignment;

  // LPT: place services in descending rate order (ties: ascending index)
  // onto the least-loaded shard (ties: lowest shard id).
  std::vector<std::size_t> order(rates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rates[a] > rates[b];
  });
  std::vector<double> load(static_cast<std::size_t>(shards), 0.0);
  for (const std::size_t s : order) {
    std::size_t best = 0;
    for (std::size_t k = 1; k < load.size(); ++k) {
      if (load[k] < load[best]) best = k;
    }
    assignment[s] = static_cast<int>(best);
    load[best] += rates[s];
  }
  return assignment;
}

std::vector<BufferedRecord> merge_records(
    std::vector<std::vector<BufferedRecord>> buffers) {
  // K-way merge on the canonical key. Each buffer arrives sorted (shards
  // emit in processing order, which is key order), so repeated head-min
  // picks are exact; K is the shard count, i.e. small.
  std::size_t total = 0;
  for (const auto& buffer : buffers) total += buffer.size();
  std::vector<BufferedRecord> merged;
  merged.reserve(total);
  std::vector<std::size_t> cursor(buffers.size(), 0);
  while (merged.size() < total) {
    std::size_t best = buffers.size();
    for (std::size_t k = 0; k < buffers.size(); ++k) {
      if (cursor[k] >= buffers[k].size()) continue;
      if (best == buffers.size() ||
          record_before(buffers[k][cursor[k]], buffers[best][cursor[best]])) {
        best = k;
      }
    }
    PARVA_CHECK(best < buffers.size(), "merge lost a record");
    merged.push_back(buffers[best][cursor[best]++]);
  }
  return merged;
}

ArrivalStreams::ArrivalStreams(const std::vector<std::size_t>& service_indices)
    : leaf_base_(std::bit_ceil(std::max<std::size_t>(service_indices.size(), 1))) {
  // Every leaf, spare ones included, starts retired; the first earliest()
  // builds the tree (stale_ starts true).
  time_.assign(leaf_base_, std::numeric_limits<double>::infinity());
  seq_.assign(leaf_base_, 0);
  loser_.assign(leaf_base_, 0);
  streams_.reserve(service_indices.size());
  for (const std::size_t global : service_indices) {
    streams_.emplace_back(arrival_stream_id(global));
  }
}

std::uint32_t ArrivalStreams::play_subtree(std::size_t node) {
  if (node >= leaf_base_) return static_cast<std::uint32_t>(node - leaf_base_);
  std::uint32_t winner = play_subtree(2 * node);
  std::uint32_t loser = play_subtree(2 * node + 1);
  if (beats(loser, winner)) std::swap(winner, loser);
  loser_[node] = loser;
  return winner;
}

void ArrivalStreams::replay_matches() {
  // The champion won every match on its path, so each node there holds the
  // best of the sibling subtree: one comparison per level re-decides it.
  std::uint32_t winner = champion_;
  for (std::size_t node = (leaf_base_ + winner) / 2; node >= 1; node /= 2) {
    if (beats(loser_[node], winner)) std::swap(loser_[node], winner);
  }
  champion_ = winner;
}

void ArrivalStreams::arm(std::size_t s, double time_ms) {
  time_[s] = time_ms;
  seq_[s] = streams_[s].next();
  touch(s);
}

void ArrivalStreams::retire(std::size_t s) {
  time_[s] = std::numeric_limits<double>::infinity();
  touch(s);
}

std::size_t ArrivalStreams::earliest() {
  if (stale_) {
    champion_ = play_subtree(1);
    stale_ = false;
  } else {
    replay_matches();
  }
  return time_[champion_] == std::numeric_limits<double>::infinity() ? size() : champion_;
}

}  // namespace parva::serving
