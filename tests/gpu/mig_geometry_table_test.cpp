// Pins the constexpr geometry tables to the runtime tables they replaced.
//
// kProfileTable / kPlacementTable used to live as switch statements and
// start-slot arrays inside mig_geometry.cpp; this test restates those
// original tables verbatim and asserts the constexpr replacements are
// element-for-element identical, so a table edit can never silently change
// the geometry. It then sweeps the full (profile x start_slot) domain —
// including out-of-range sizes and slots — and checks is_legal_placement
// agrees everywhere with the same invariants the header's static_asserts
// prove about the tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "gpu/arch.hpp"
#include "gpu/mig_geometry.hpp"

namespace parva::gpu {
namespace {

/// The pre-constexpr runtime tables, restated verbatim from the old
/// mig_geometry.cpp. parva-audit: allow(R8) reference copy for the pin test.
struct LegacyTables {
  std::vector<int> starts1{0, 1, 2, 3, 4, 5, 6};  // parva-audit: allow(R8)
  std::vector<int> starts2{0, 2, 4};              // parva-audit: allow(R8)
  std::vector<int> starts3{0, 4};                 // parva-audit: allow(R8)
  std::vector<int> starts4{0};                    // parva-audit: allow(R8)
  std::vector<int> starts7{0};                    // parva-audit: allow(R8)
  std::vector<int> pref1{0, 1, 2, 3, 4, 5, 6};    // parva-audit: allow(R8)
  std::vector<int> pref2{0, 2, 4};                // parva-audit: allow(R8)
  std::vector<int> pref3{4};                      // parva-audit: allow(R8)

  const std::vector<int>& legal(int gpcs) const {
    static const std::vector<int> kEmpty;
    switch (gpcs) {
      case 1: return starts1;
      case 2: return starts2;
      case 3: return starts3;
      case 4: return starts4;
      case 7: return starts7;
      default: return kEmpty;
    }
  }
  const std::vector<int>& preferred(int gpcs) const {
    static const std::vector<int> kEmpty;
    switch (gpcs) {
      case 1: return pref1;
      case 2: return pref2;
      case 3: return pref3;
      case 4: return starts4;
      case 7: return starts7;
      default: return kEmpty;
    }
  }
};

TEST(MigGeometryTables, ProfileTableMatchesPaperFigure1Legend) {
  ASSERT_EQ(kProfileTable.size(), 5u);
  // (gpcs, memory slices, memory GiB, placements): 1g.10gb .. 7g.80gb.
  const std::vector<std::tuple<int, int, double, int>> expected = {
      {1, 1, 10.0, 7}, {2, 2, 20.0, 3}, {3, 4, 40.0, 2}, {4, 4, 40.0, 1}, {7, 8, 80.0, 1}};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(kProfileTable[i].gpcs, std::get<0>(expected[i])) << "row " << i;
    EXPECT_EQ(kProfileTable[i].memory_slices, std::get<1>(expected[i])) << "row " << i;
    EXPECT_EQ(kProfileTable[i].memory_gib, std::get<2>(expected[i])) << "row " << i;
    EXPECT_EQ(kProfileTable[i].placement_count, std::get<3>(expected[i])) << "row " << i;
    EXPECT_EQ(kProfileTable[i].memory_gib, instance_memory_gib(kProfileTable[i].gpcs));
  }
}

TEST(MigGeometryTables, PlacementTableMatchesLegacyStartSlots) {
  const LegacyTables legacy;
  ASSERT_EQ(kPlacementTable.size(), 14u);
  // Element-for-element: the table lists each profile's legacy start slots
  // in the legacy order, with the legacy span rule.
  std::size_t row = 0;
  for (int gpcs : kInstanceSizes) {
    for (int start : legacy.legal(gpcs)) {
      ASSERT_LT(row, kPlacementTable.size());
      const PlacementSpec& spec = kPlacementTable[row++];
      EXPECT_EQ(spec.gpcs, gpcs);
      EXPECT_EQ(spec.start_slot, start);
      const int span = (gpcs == 3 && start == 0) ? 4 : gpcs;
      EXPECT_EQ(spec.span, span);
      EXPECT_EQ(spec.slot_mask, static_cast<std::uint8_t>(((1u << span) - 1u) << start));
    }
  }
  EXPECT_EQ(row, kPlacementTable.size());
}

TEST(MigGeometryTables, StartSlotSpansMatchLegacyTables) {
  const LegacyTables legacy;
  for (int gpcs = -2; gpcs <= 9; ++gpcs) {
    const auto legal = legal_start_slots(gpcs);
    const auto& expect_legal = legacy.legal(gpcs);
    ASSERT_EQ(legal.size(), expect_legal.size()) << "gpcs=" << gpcs;
    EXPECT_TRUE(std::equal(legal.begin(), legal.end(), expect_legal.begin()))
        << "gpcs=" << gpcs;

    const auto preferred = preferred_start_slots(gpcs);
    const auto& expect_pref = legacy.preferred(gpcs);
    ASSERT_EQ(preferred.size(), expect_pref.size()) << "gpcs=" << gpcs;
    EXPECT_TRUE(std::equal(preferred.begin(), preferred.end(), expect_pref.begin()))
        << "gpcs=" << gpcs;
  }
}

TEST(MigGeometryTables, IsLegalPlacementAgreesWithInvariantsOverFullDomain) {
  for (int gpcs = -2; gpcs <= 9; ++gpcs) {
    for (int start = -2; start <= 9; ++start) {
      const Placement placement{gpcs, start};
      const bool legal = is_legal_placement(placement);

      // Reference decision from the start-slot views.
      const auto starts = legal_start_slots(gpcs);
      const bool expected =
          std::find(starts.begin(), starts.end(), start) != starts.end();
      EXPECT_EQ(legal, expected) << "gpcs=" << gpcs << " start=" << start;

      if (!legal) continue;
      // Every accepted placement satisfies the static_asserted invariants.
      EXPECT_TRUE(is_valid_instance_size(gpcs));
      EXPECT_GE(start, 0);
      EXPECT_LE(start + placement.span(), kGpcSlots);
      EXPECT_EQ(placement.span(), (gpcs == 3 && start == 0) ? 4 : gpcs);
      // ... and appears exactly once in kPlacementTable.
      int rows = 0;
      for (const PlacementSpec& spec : kPlacementTable) {
        if (spec.gpcs == gpcs && spec.start_slot == start) {
          ++rows;
          EXPECT_EQ(spec.slot_mask, placement.slot_mask());
        }
      }
      EXPECT_EQ(rows, 1);
    }
  }
}

TEST(MigGeometryTables, FindStartSlotIsConstexprAndTableDriven) {
  // Spot-check the constexpr path at compile time.
  static_assert(find_start_slot(0, 7) == 0);
  static_assert(find_start_slot(0x01, 7) == std::nullopt);
  static_assert(find_start_slot(0x0f, 3) == 4);
  static_assert(find_start_slot(0, 2) == 0);
  static_assert(find_start_slot(0x03, 2) == 2);
  static_assert(find_profile(3)->memory_slices == 4);
  static_assert(find_profile(5) == nullptr);

  static_assert(find_start_slot(0x80, 7) == 0);  // bit 7 lies off the die
  static_assert(find_start_slot(0, 8) == std::nullopt);

  // Runtime agreement with a preference-order scan over every 8-bit mask:
  // bit 7 is ignored, and sizes without a profile (and out of range)
  // never fit.
  for (int mask = 0; mask <= 0xff; ++mask) {
    for (int gpcs : {-1, 0, 1, 2, 3, 4, 5, 6, 7, 8}) {
      const auto found = find_start_slot(static_cast<std::uint8_t>(mask), gpcs);
      std::optional<int> expected;
      for (int start : preferred_start_slots(gpcs)) {
        const Placement candidate{gpcs, start};
        if (candidate.start_slot + candidate.span() > kGpcSlots) continue;
        if ((mask & 0x7f & candidate.slot_mask()) == 0) {
          expected = start;
          break;
        }
      }
      EXPECT_EQ(found, expected) << "mask=" << mask << " gpcs=" << gpcs;
      if (!is_valid_instance_size(gpcs)) {
        EXPECT_EQ(found, std::nullopt) << "mask=" << mask << " gpcs=" << gpcs;
      }
    }
  }
}

}  // namespace
}  // namespace parva::gpu
