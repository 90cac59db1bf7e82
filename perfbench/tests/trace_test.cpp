// The span recorder: groups keep their tree shape when kept, only sampled
// requests are kept, counts cover every call, and capacity is a hard bound.
#include "trace.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

void request(Recorder& rec, double tag) {
  rec.tag(tag);
  Scope root(rec, Kind::kRequest);
  {
    Scope send(rec, Kind::kSend);
    { Scope q(rec, Kind::kEnqueue); }
    { Scope p(rec, Kind::kPollQueue); }
  }
}

TEST(Recorder, KeepsSampledGroupsWithRebasedParents) {
  std::vector<SpanRec> kept(64);
  Recorder rec(kept.data(), kept.size(), 4);
  request(rec, 8.0);  // sampled
  request(rec, 9.0);  // dropped
  request(rec, 4.0);  // sampled
  ASSERT_EQ(rec.kept(), 8u);
  const SpanRec* s = rec.spans();
  for (std::size_t base : {std::size_t{0}, std::size_t{4}}) {
    EXPECT_EQ(s[base].kind, Kind::kRequest);
    EXPECT_EQ(s[base].parent, -1);
    EXPECT_EQ(s[base + 1].parent, static_cast<std::int32_t>(base));
    EXPECT_EQ(s[base + 2].parent, static_cast<std::int32_t>(base + 1));
    EXPECT_EQ(s[base + 3].parent, static_cast<std::int32_t>(base + 1));
    EXPECT_LE(s[base].t0, s[base + 1].t0);
    EXPECT_LE(s[base + 3].t1, s[base].t1);
  }
  EXPECT_EQ(s[0].tag, 8.0);
  EXPECT_EQ(s[7].tag, 4.0);
  // Counts are exact whether or not the group was kept.
  EXPECT_EQ(rec.counts.calls[static_cast<int>(Kind::kRequest)], 3u);
  EXPECT_EQ(rec.counts.calls[static_cast<int>(Kind::kEnqueue)], 3u);
}

TEST(Recorder, HandshakeValueZeroIsNeverKept) {
  std::vector<SpanRec> kept(16);
  Recorder rec(kept.data(), kept.size(), 1);
  request(rec, 0.0);
  EXPECT_EQ(rec.kept(), 0u);
}

TEST(Recorder, CapacityDropsWholeGroupsAndResetEmpties) {
  std::vector<SpanRec> kept(6);
  Recorder rec(kept.data(), kept.size(), 1);
  request(rec, 1.0);
  request(rec, 2.0);  // 4 + 4 > 6: dropped whole, never split
  EXPECT_EQ(rec.kept(), 4u);
  rec.reset();
  EXPECT_EQ(rec.kept(), 0u);
  EXPECT_EQ(rec.counts.calls[static_cast<int>(Kind::kRequest)], 0u);
  request(rec, 3.0);
  EXPECT_EQ(rec.kept(), 4u);
  EXPECT_EQ(rec.spans()[0].tag, 3.0);
}

TEST(Recorder, DeferredCommitJoinsReceiveAndReply) {
  std::vector<SpanRec> kept(16);
  Recorder rec(kept.data(), kept.size(), 1);
  {
    Scope recv(rec, Kind::kReceiveBatch);
    { Scope q(rec, Kind::kDequeueBatch); }
    rec.tag(5.0);
    rec.defer_commit();
  }
  EXPECT_EQ(rec.kept(), 0u);  // still open: the reply joins it
  {
    Scope reply(rec, Kind::kReplyBatch);
    { Scope q(rec, Kind::kEnqueueBatch); }
  }
  ASSERT_EQ(rec.kept(), 4u);
  const SpanRec* s = rec.spans();
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].kind, Kind::kReplyBatch);
  EXPECT_EQ(s[2].parent, -1);
  EXPECT_EQ(s[3].parent, 2);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(s[i].tag, 5.0);
}

TEST(Sampling, OneInEveryByEchoValue) {
  int kept = 0;
  for (int v = 1; v <= 64; ++v) kept += sampled(v, 16) ? 1 : 0;
  EXPECT_EQ(kept, 4);
  EXPECT_FALSE(sampled(0.0, 16));
}

}  // namespace
}  // namespace perfbench
