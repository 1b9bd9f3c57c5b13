// Property test for the window-barrier merge. Precondition of
// merge_records(): all records of one event sit in one buffer, in emission
// order (a shard writes the events it processes, the coordinator a GPU
// failure's fan-out). Under it, the stream the merge produces must not
// depend on how whole events were spread across buffers, on how they
// interleave within a buffer, or on the order of the buffers — including
// adversarial bursts of equal-timestamp events and long single-event
// fan-outs. This is the algebraic half of the engine's parallel == serial
// argument (the differential half lives in parallel_engine_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "serving/shard_engine.hpp"
#include "telemetry/event_log.hpp"

namespace parva::serving {
namespace {

bool same_record(const BufferedRecord& a, const BufferedRecord& b) {
  return a.t_ms == b.t_ms && a.seq == b.seq && a.kind == b.kind && a.gpu == b.gpu &&
         a.service_id == b.service_id && a.value == b.value;
}

bool same_stream(const std::vector<BufferedRecord>& a, const std::vector<BufferedRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_record(a[i], b[i])) return false;
  }
  return true;
}

/// One event's records, in emission order.
using Event = std::vector<BufferedRecord>;

/// Builds `count` events in canonical order: `streams` sources issuing
/// consecutive counters, timestamps drawn from a *small* set of values so
/// equal-time collisions across streams are the common case. An event
/// emits 1-3 records, or now and then a fan-out of 20-60 (the GPU-failure
/// pattern), so a merge that reorders equal keys has room to show it.
std::vector<Event> random_events(Rng& rng, std::size_t streams, std::size_t count) {
  std::vector<SeqStream> sources;
  sources.reserve(streams);
  for (std::size_t i = 0; i < streams; ++i) sources.emplace_back(i);
  std::vector<Event> events(count);
  double emitted = 0.0;
  for (Event& event : events) {
    const auto source = static_cast<std::size_t>(rng.uniform_int(0, streams - 1));
    // 8 distinct times over the whole stream: ties everywhere.
    const double t = static_cast<double>(rng.uniform_int(0, 7)) * 100.0;
    const std::uint64_t seq = sources[source].next();
    const std::uint64_t records =
        rng.uniform_int(0, 9) == 0 ? rng.uniform_int(20, 60) : rng.uniform_int(1, 3);
    for (std::uint64_t i = 0; i < records; ++i) {
      event.push_back({t, seq, telemetry::EventKind::kRequestShed, static_cast<int>(source),
                       static_cast<int>(i), emitted++});
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return record_before(a.front(), b.front());
  });
  return events;
}

std::vector<BufferedRecord> flatten(const std::vector<Event>& events) {
  std::vector<BufferedRecord> out;
  for (const Event& event : events) out.insert(out.end(), event.begin(), event.end());
  return out;
}

/// Sends each whole event to a random buffer, then interleaves each
/// buffer's events at random while keeping every event's records in
/// emission order: the shapes the precondition allows.
std::vector<std::vector<BufferedRecord>> random_partition(Rng& rng,
                                                          const std::vector<Event>& events,
                                                          std::size_t buffers) {
  std::vector<std::vector<const Event*>> owned(buffers);
  for (const Event& event : events) {
    owned[static_cast<std::size_t>(rng.uniform_int(0, buffers - 1))].push_back(&event);
  }
  std::vector<std::vector<BufferedRecord>> out(buffers);
  for (std::size_t b = 0; b < buffers; ++b) {
    // One entry per record naming its event, shuffled (Fisher-Yates on the
    // test's own seeded stream); each entry takes its event's next record.
    std::vector<std::size_t> order;
    for (std::size_t e = 0; e < owned[b].size(); ++e) order.insert(order.end(), owned[b][e]->size(), e);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_int(0, i - 1))]);
    }
    std::vector<std::size_t> next(owned[b].size(), 0);
    for (const std::size_t e : order) out[b].push_back((*owned[b][e])[next[e]++]);
  }
  return out;
}

TEST(ShardMergePropertyTest, MergeIsInvariantUnderRandomPartitions) {
  Rng rng(20240807);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t streams = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const std::size_t count = static_cast<std::size_t>(rng.uniform_int(0, 60));
    const std::vector<Event> events = random_events(rng, streams, count);
    const std::vector<BufferedRecord> canonical = flatten(events);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                     std::size_t{5}, std::size_t{8}}) {
      auto buffers = random_partition(rng, events, shards);
      auto reversed = buffers;
      std::reverse(reversed.begin(), reversed.end());
      EXPECT_TRUE(same_stream(canonical, merge_records(std::move(buffers))))
          << "trial " << trial << " shards " << shards << " records " << canonical.size();
      EXPECT_TRUE(same_stream(canonical, merge_records(std::move(reversed))))
          << "trial " << trial << " shards " << shards << " buffers reversed";
    }
  }
}

TEST(ShardMergePropertyTest, EqualTimestampEventsCommute) {
  // Two buffers swap which one carries the even/odd events of an
  // equal-time burst; both distributions must merge to the same order.
  Rng rng(99);
  const std::vector<Event> events = random_events(rng, 4, 32);
  std::vector<std::vector<BufferedRecord>> even_odd(2);
  std::vector<std::vector<BufferedRecord>> odd_even(2);
  for (std::size_t i = 0; i < events.size(); ++i) {
    even_odd[i % 2].insert(even_odd[i % 2].end(), events[i].begin(), events[i].end());
    odd_even[1 - i % 2].insert(odd_even[1 - i % 2].end(), events[i].begin(), events[i].end());
  }
  const auto a = merge_records(std::move(even_odd));
  const auto b = merge_records(std::move(odd_even));
  EXPECT_TRUE(same_stream(flatten(events), a));
  EXPECT_TRUE(same_stream(a, b));
}

// Pinned regression fixture: a GPU failure's fan-out as the coordinator
// writes it — the failure, then the sheds of units 0 and 3 — under ONE
// canonical key, beside an equal-time shed arrival of a later stream in a
// shard's buffer that comes first. A merge that is not stable may reorder
// the fan-out; one that ignores seq may put the arrival inside it.
TEST(ShardMergePropertyTest, PinnedCoordinatorFanOutFixture) {
  const std::uint64_t failure_key = canonical_seq(kFaultStreamId, 0);
  const std::uint64_t arrival_key = canonical_seq(arrival_stream_id(0), 0);
  const BufferedRecord failure{100.0, failure_key, telemetry::EventKind::kGpuFailure, 2, -1,
                               0.0};
  const BufferedRecord shed_unit0{100.0, failure_key, telemetry::EventKind::kRequestShed, -1, 0,
                                  0.0};
  const BufferedRecord shed_unit3{100.0, failure_key, telemetry::EventKind::kRequestShed, -1, 1,
                                  0.0};
  const BufferedRecord arrival_shed{100.0, arrival_key, telemetry::EventKind::kRequestShed, -1,
                                    0, 1.0};
  const auto merged = merge_records({{arrival_shed}, {}, {failure, shed_unit0, shed_unit3}});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_TRUE(same_record(merged[0], failure));       // the fault key sorts first
  EXPECT_TRUE(same_record(merged[1], shed_unit0));    // then its fan-out, in order
  EXPECT_TRUE(same_record(merged[2], shed_unit3));
  EXPECT_TRUE(same_record(merged[3], arrival_shed));  // later stream last
}

TEST(ShardMergePropertyTest, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(merge_records({}).empty());
  EXPECT_TRUE(merge_records({{}, {}, {}}).empty());
  const BufferedRecord only{1.0, canonical_seq(kActivationStreamId, 0),
                            telemetry::EventKind::kUnitActivated, 0, 0, 0.0};
  const auto merged = merge_records({{}, {only}, {}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_TRUE(same_record(merged[0], only));
}

}  // namespace
}  // namespace parva::serving
