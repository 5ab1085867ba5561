#include "core/config.h"

#include <gtest/gtest.h>

namespace vcd::core {
namespace {

TEST(DetectorConfigTest, DefaultsAreValidAndMatchTable1) {
  DetectorConfig c;
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_EQ(c.K, 800);
  EXPECT_EQ(c.fingerprint.feature.d, 5);
  EXPECT_EQ(c.fingerprint.u, 4);
  EXPECT_DOUBLE_EQ(c.delta, 0.7);
  EXPECT_DOUBLE_EQ(c.window_seconds, 5.0);
  EXPECT_DOUBLE_EQ(c.lambda, 2.0);
}

TEST(DetectorConfigTest, RejectsBadValues) {
  DetectorConfig c;
  c.K = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = DetectorConfig();
  c.delta = 0.0;
  EXPECT_FALSE(c.Validate().ok());
  c = DetectorConfig();
  c.delta = 1.5;
  EXPECT_FALSE(c.Validate().ok());
  c = DetectorConfig();
  c.window_seconds = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = DetectorConfig();
  c.lambda = 0.5;
  EXPECT_FALSE(c.Validate().ok());
  c = DetectorConfig();
  c.fingerprint.u = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = DetectorConfig();
  c.fingerprint.feature.d = 0;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ParallelConfigTest, ThreadCountIsBounded) {
  ParallelConfig pc;
  EXPECT_EQ(pc.num_threads, 0);  // inline mode by default
  EXPECT_TRUE(pc.Validate().ok());
  pc.num_threads = kMaxThreads;
  EXPECT_TRUE(pc.Validate().ok());
  // Validate is a pure range check, so the out-of-range values below start
  // no thread; StreamExecutor::Create runs it before building any shard.
  pc.num_threads = kMaxThreads + 1;
  EXPECT_EQ(pc.Validate().code(), StatusCode::kInvalidArgument);
  pc.num_threads = 100000;
  EXPECT_EQ(pc.Validate().code(), StatusCode::kInvalidArgument);
  pc.num_threads = -1;
  EXPECT_EQ(pc.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(DetectorConfigTest, Names) {
  EXPECT_STREQ(RepresentationName(Representation::kSketch), "Sketch");
  EXPECT_STREQ(RepresentationName(Representation::kBit), "Bit");
  EXPECT_STREQ(CombinationOrderName(CombinationOrder::kSequential), "Sequential");
  EXPECT_STREQ(CombinationOrderName(CombinationOrder::kGeometric), "Geometric");
}

}  // namespace
}  // namespace vcd::core
