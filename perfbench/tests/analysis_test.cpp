// The benchmark's arithmetic: percentiles and the samples beyond them,
// span self time, per-message normalisation.
#include "analysis.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankOnThousandSamples) {
  const std::vector<double> v = one_to(1000);
  const Pct p50 = percentile(v, 0.5);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.n, 1000u);
  EXPECT_EQ(p50.beyond, 500u);
  const Pct p99 = percentile(v, 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.beyond, 10u);  // the highest percentile with ten beyond it
  const Pct p999 = percentile(v, 0.999);
  EXPECT_EQ(p999.value, 999.0);
  EXPECT_EQ(p999.beyond, 1u);
  const Pct max = percentile(v, 1.0);
  EXPECT_EQ(max.value, 1000.0);
  EXPECT_EQ(max.beyond, 0u);
}

TEST(Percentile, SortsItsInputAndRoundsTheRankUp) {
  const std::vector<double> v = {5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_EQ(percentile(v, 0.5).value, 3.0);   // rank ceil(2.5) = 3
  EXPECT_EQ(percentile(v, 0.5).beyond, 2u);
  EXPECT_EQ(percentile(v, 0.99).value, 5.0);  // rank ceil(4.95) = 5
  EXPECT_EQ(percentile(v, 0.99).beyond, 0u);
  EXPECT_EQ(percentile(v, 0.01).value, 1.0);
}

TEST(Percentile, EmptyAndSingleSample) {
  const Pct none = percentile({}, 0.5);
  EXPECT_EQ(none.n, 0u);
  EXPECT_EQ(none.value, 0.0);
  const Pct one = percentile({7.5}, 0.99);
  EXPECT_EQ(one.value, 7.5);
  EXPECT_EQ(one.n, 1u);
  EXPECT_EQ(one.beyond, 0u);
}

TEST(Percentile, MedianOfAnEvenSetIsTheLowerMiddle) {
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
  EXPECT_EQ(median({2.0, 1.0, 3.0}), 2.0);
}

TEST(TickHistogram, MatchesTheSortedRuleIncludingLargeSamples) {
  // 1000 samples: 990 small ones and ten beyond the direct range.
  TickHistogram h;
  std::vector<double> v;
  for (int i = 0; i < 990; ++i) {
    const auto t = static_cast<std::uint64_t>((i * 7919) % 5000);
    h.add(t);
    v.push_back(static_cast<double>(t));
  }
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t t = TickHistogram::kDirect + 100 - i;
    h.add(t);
    v.push_back(static_cast<double>(t));
  }
  ASSERT_EQ(h.size(), 1000u);
  for (const double q : {0.01, 0.5, 0.9, 0.99, 0.995, 1.0}) {
    const Pct a = h.percentile(q);
    const Pct b = percentile(v, q);
    EXPECT_EQ(a.value, b.value) << q;
    EXPECT_EQ(a.n, b.n) << q;
    EXPECT_EQ(a.beyond, b.beyond) << q;
  }
  EXPECT_EQ(h.percentile(0.995).value,
            static_cast<double>(TickHistogram::kDirect + 95));
}

TEST(TickHistogram, EmptyReadsZero) {
  const TickHistogram h;
  EXPECT_EQ(h.percentile(0.99).n, 0u);
  EXPECT_EQ(h.percentile(0.99).value, 0.0);
}

TEST(PerMsg, DividesAndReadsZeroWithoutMessages) {
  EXPECT_DOUBLE_EQ(per_msg(42.0, 8.0), 5.25);
  EXPECT_EQ(per_msg(3.0, 0.0), 0.0);
  EXPECT_EQ(per_msg(0.0, 10.0), 0.0);
}

TEST(SelfTime, LeafSpanOwnsItsWholeDuration) {
  const std::vector<std::int64_t> self = self_times({{10, 25, -1}});
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0], 15);
}

TEST(SelfTime, NestedChildrenSubtractOneLevelEach) {
  // request [0,100) > send [10,90) > {enqueue [20,30), poll [40,70) >
  // yield [45,65)}. Each span loses only its direct children.
  const std::vector<Interval> spans = {
      {0, 100, -1}, {10, 90, 0}, {20, 30, 1}, {40, 70, 1}, {45, 65, 3}};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 20);       // 100 - 80
  EXPECT_EQ(self[1], 80 - 40);  // 80 - (10 + 30)
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 30 - 20);
  EXPECT_EQ(self[4], 20);
  // Properly nested: the self times add back up to the root's duration.
  EXPECT_EQ(self[0] + self[1] + self[2] + self[3] + self[4], 100);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  const std::vector<Interval> spans = {
      {0, 100, -1}, {10, 50, 0}, {30, 60, 0}, {55, 58, 0}};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 50);  // union [10,60)
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  const std::vector<Interval> spans = {{10, 20, -1}, {5, 15, 0}, {18, 40, 0}};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 10 - 5 - 2);  // [10,15) and [18,20) covered
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 22);
}

TEST(SelfTime, FullyCoveredSpanHasZeroSelfTime) {
  const std::vector<Interval> spans = {{0, 10, -1}, {0, 10, 0}, {2, 3, 0}};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 0);
}

}  // namespace
}  // namespace perfbench
