#include "telemetry/event_log.hpp"

#include <gtest/gtest.h>

#include <string>

namespace parva::telemetry {
namespace {

TEST(EventLogTest, RecordAssignsMonotonicSequence) {
  EventLog log;
  log.record(EventKind::kGpuFailure, 10.0, 2);
  log.record(EventKind::kUnitActivated, 20.0, 1, 3);
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[0].kind, EventKind::kGpuFailure);
  EXPECT_EQ(events[0].gpu, 2);
  EXPECT_EQ(events[1].service_id, 3);
}

TEST(EventLogTest, CapacityBoundsAndCountsDrops) {
  EventLog log(2);
  log.record(EventKind::kRequestShed, 1.0);
  log.record(EventKind::kRequestShed, 2.0);
  log.record(EventKind::kRequestShed, 3.0);
  log.record(EventKind::kRequestShed, 4.0);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.capacity(), 2u);
  // Sequence numbers keep advancing through drops, so the export can state
  // its own completeness.
  EXPECT_EQ(log.snapshot().back().seq, 1u);
}

TEST(EventLogTest, MergeAppendsInOrderAndCarriesDrops) {
  EventLog into(4);
  into.record(EventKind::kGpuFailure, 1.0);
  EventLog other(2);
  other.record(EventKind::kRequestShed, 2.0);
  other.record(EventKind::kUnitActivated, 3.0);
  other.record(EventKind::kRequestShed, 4.0);  // dropped at other's capacity
  into.merge(other);
  const auto events = into.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].kind, EventKind::kRequestShed);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[2].kind, EventKind::kUnitActivated);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_EQ(into.dropped(), 1u);
  EXPECT_EQ(other.size(), 2u);  // the source is left as it was
  // other's drop took seq 3, so the next record numbers on from 4.
  into.record(EventKind::kHealthEvent, 5.0);
  EXPECT_EQ(into.snapshot().back().seq, 4u);

  // Now full: both of other's events are dropped here, plus its own drop.
  into.merge(other);
  EXPECT_EQ(into.size(), 4u);
  EXPECT_EQ(into.dropped(), 4u);
}

TEST(EventLogTest, ZeroCapacityClampsToOne) {
  EventLog log(0);
  log.record(EventKind::kHealthEvent, 5.0);
  EXPECT_EQ(log.size(), 1u);
}

TEST(EventLogTest, KindNamesAreStable) {
  EXPECT_STREQ(to_string(EventKind::kRequestShed), "request_shed");
  EXPECT_STREQ(to_string(EventKind::kBatchCompleted), "batch_completed");
  EXPECT_STREQ(to_string(EventKind::kGpuFailure), "gpu_failure");
  EXPECT_STREQ(to_string(EventKind::kUnitActivated), "unit_activated");
  EXPECT_STREQ(to_string(EventKind::kInstanceCreated), "instance_created");
  EXPECT_STREQ(to_string(EventKind::kInstanceDestroyed), "instance_destroyed");
  EXPECT_STREQ(to_string(EventKind::kCreateRetry), "create_retry");
  EXPECT_STREQ(to_string(EventKind::kFallbackPlacement), "fallback_placement");
  EXPECT_STREQ(to_string(EventKind::kEpochDecision), "epoch_decision");
  EXPECT_STREQ(to_string(EventKind::kDisplacement), "displacement");
  EXPECT_STREQ(to_string(EventKind::kRepairCompleted), "repair_completed");
  EXPECT_STREQ(to_string(EventKind::kPlanDiff), "plan_diff");
  EXPECT_STREQ(to_string(EventKind::kScheduleCompleted), "schedule_completed");
  EXPECT_STREQ(to_string(EventKind::kHealthEvent), "health_event");
}

TEST(EventLogTest, DetailPayloadIsPreserved) {
  EventLog log;
  log.record(EventKind::kPlanDiff, 0.0, -1, 7, 2.0, "removed=1 added=2 untouched=9");
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail, "removed=1 added=2 untouched=9");
  EXPECT_DOUBLE_EQ(events[0].value, 2.0);
}

}  // namespace
}  // namespace parva::telemetry
