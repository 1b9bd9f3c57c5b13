// Property test for the window-barrier merge: the canonically keyed record
// stream that merge_records() produces must be invariant under how the
// records were distributed across shard buffers and ordered within each —
// including adversarial bursts of equal-timestamp records spread over
// every buffer. This is the algebraic half of the engine's parallel ==
// serial argument (the differential half lives in parallel_engine_test.cpp).
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
  return a.t_ms == b.t_ms && a.seq == b.seq && a.sub == b.sub && a.kind == b.kind &&
         a.gpu == b.gpu && a.service_id == b.service_id && a.value == b.value;
}

bool same_stream(const std::vector<BufferedRecord>& a, const std::vector<BufferedRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_record(a[i], b[i])) return false;
  }
  return true;
}

/// Builds a random canonical stream: `streams` event sources, each issuing
/// consecutive counters, with timestamps drawn from a *small* set of values
/// so equal-time collisions across streams are the common case, plus
/// sub-key fan-out bursts under a single key (the GPU-failure pattern).
std::vector<BufferedRecord> random_stream(Rng& rng, std::size_t streams,
                                          std::size_t records) {
  std::vector<SeqStream> sources;
  sources.reserve(streams);
  for (std::size_t i = 0; i < streams; ++i) sources.emplace_back(i);
  std::vector<BufferedRecord> out;
  out.reserve(records);
  while (out.size() < records) {
    const auto source = static_cast<std::size_t>(rng.uniform_int(0, streams - 1));
    // 8 distinct times over the whole stream: ties everywhere.
    const double t = static_cast<double>(rng.uniform_int(0, 7)) * 100.0;
    const std::uint64_t seq = sources[source].next();
    const std::uint64_t burst = rng.uniform_int(1, 3);
    for (std::uint64_t sub = 0; sub < burst && out.size() < records; ++sub) {
      out.push_back({t, seq, sub, telemetry::EventKind::kRequestShed,
                     static_cast<int>(source), static_cast<int>(sub),
                     static_cast<double>(out.size())});
    }
  }
  std::sort(out.begin(), out.end(), record_before);
  return out;
}

/// Distributes the canonical stream across `shards` buffers at random,
/// then shuffles each buffer: a shard emits one service loop's window at a
/// time, so its buffer follows key order only within each service.
std::vector<std::vector<BufferedRecord>> random_partition(Rng& rng,
                                                          const std::vector<BufferedRecord>& stream,
                                                          std::size_t shards) {
  std::vector<std::vector<BufferedRecord>> buffers(shards);
  for (const BufferedRecord& record : stream) {
    buffers[static_cast<std::size_t>(rng.uniform_int(0, shards - 1))].push_back(record);
  }
  for (std::vector<BufferedRecord>& buffer : buffers) {
    // Fisher-Yates on the test's own seeded stream.
    for (std::size_t i = buffer.size(); i > 1; --i) {
      std::swap(buffer[i - 1], buffer[static_cast<std::size_t>(rng.uniform_int(0, i - 1))]);
    }
  }
  return buffers;
}

TEST(ShardMergePropertyTest, MergeIsInvariantUnderRandomPartitions) {
  Rng rng(20240807);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t streams = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const std::size_t records = static_cast<std::size_t>(rng.uniform_int(0, 120));
    const std::vector<BufferedRecord> canonical = random_stream(rng, streams, records);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                     std::size_t{5}, std::size_t{8}}) {
      const auto merged = merge_records(random_partition(rng, canonical, shards));
      EXPECT_TRUE(same_stream(canonical, merged))
          << "trial " << trial << " shards " << shards << " records "
          << canonical.size();
    }
  }
}

TEST(ShardMergePropertyTest, EqualTimestampBurstsCommute) {
  // Two shards swap which one carries the even/odd halves of an equal-time
  // burst; both distributions must merge to the same serial order.
  Rng rng(99);
  const std::vector<BufferedRecord> canonical = random_stream(rng, 4, 64);
  std::vector<std::vector<BufferedRecord>> even_odd(2);
  std::vector<std::vector<BufferedRecord>> odd_even(2);
  for (std::size_t i = 0; i < canonical.size(); ++i) {
    even_odd[i % 2].push_back(canonical[i]);
    odd_even[1 - i % 2].push_back(canonical[i]);
  }
  const auto a = merge_records(std::move(even_odd));
  const auto b = merge_records(std::move(odd_even));
  EXPECT_TRUE(same_stream(canonical, a));
  EXPECT_TRUE(same_stream(a, b));
}

// Pinned regression fixture: the shrunk counterexample shape for a merge
// that compares (time, seq) but forgets the sub-key — three records under
// ONE canonical key (a GPU failure shedding across two shards) plus an
// equal-time record of a later stream. A sub-blind merge can emit
// (t=100, seq(1,0)) between the sub=0 and sub=1 halves of the failure
// fan-out, or reorder the fan-out itself; the full key forbids both.
TEST(ShardMergePropertyTest, PinnedSubKeyFanOutFixture) {
  const std::uint64_t failure_key = canonical_seq(kFaultStreamId, 0);
  const std::uint64_t arrival_key = canonical_seq(arrival_stream_id(0), 0);
  const BufferedRecord coordinator{100.0, failure_key, 0,
                                   telemetry::EventKind::kGpuFailure, 2, -1, 0.0};
  const BufferedRecord shed_unit0{100.0, failure_key, (std::uint64_t{1} << 20) | 0,
                                  telemetry::EventKind::kRequestShed, -1, 0, 0.0};
  const BufferedRecord shed_unit3{100.0, failure_key, (std::uint64_t{4} << 20) | 0,
                                  telemetry::EventKind::kRequestShed, -1, 1, 0.0};
  const BufferedRecord arrival_shed{100.0, arrival_key, 0,
                                    telemetry::EventKind::kRequestShed, -1, 0, 0.0};
  // Shard A held unit 3, shard B held unit 0 and the arrival; the
  // coordinator buffer carries the failure record itself.
  const auto merged = merge_records({{shed_unit3},
                                     {shed_unit0, arrival_shed},
                                     {coordinator}});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_TRUE(same_record(merged[0], coordinator));   // sub 0 first
  EXPECT_TRUE(same_record(merged[1], shed_unit0));    // then units ascending
  EXPECT_TRUE(same_record(merged[2], shed_unit3));
  EXPECT_TRUE(same_record(merged[3], arrival_shed));  // later stream last
}

TEST(ShardMergePropertyTest, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(merge_records({}).empty());
  EXPECT_TRUE(merge_records({{}, {}, {}}).empty());
  const BufferedRecord only{1.0, canonical_seq(kActivationStreamId, 0), 0,
                            telemetry::EventKind::kUnitActivated, 0, 0, 0.0};
  const auto merged = merge_records({{}, {only}, {}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_TRUE(same_record(merged[0], only));
}

}  // namespace
}  // namespace parva::serving
