// Tests for the YARN-sim resource ledger: resource arithmetic, reserve and
// release, over-commit, most-free placement, exhaustion and failed nodes.
#include <gtest/gtest.h>

#include "yarn/resource_manager.hpp"

namespace dsps::yarn {
namespace {

TEST(ResourceTest, Arithmetic) {
  const Resource a{2, 1024};
  const Resource b{1, 512};
  EXPECT_EQ((a + b).vcores, 3);
  EXPECT_EQ((a - b).memory_mb, 512);
  EXPECT_TRUE(fits(b, a));
  EXPECT_FALSE(fits(a, b));
}

TEST(ResourceManagerTest, AllocateReservesAndReleaseReturns) {
  ResourceManager rm;
  rm.add_node("n", Resource{4, 4096});
  auto container = rm.allocate(Resource{2, 1024});
  ASSERT_TRUE(container.is_ok());
  EXPECT_EQ(container.value().node, "n");
  EXPECT_EQ(rm.cluster_available(), (Resource{2, 3072}));
  rm.release(container.value());
  EXPECT_EQ(rm.cluster_available(), (Resource{4, 4096}));
  rm.release(container.value());  // a second release is a no-op
  EXPECT_EQ(rm.cluster_available(), (Resource{4, 4096}));
}

TEST(ResourceManagerTest, RejectsOverCommit) {
  ResourceManager rm;
  rm.add_node("n", Resource{2, 1024});
  ASSERT_TRUE(rm.allocate(Resource{2, 512}).is_ok());
  // Memory is left but no vcore: the request must not over-commit the node.
  EXPECT_EQ(rm.allocate(Resource{1, 256}).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(rm.cluster_available(), (Resource{0, 512}));
}

TEST(ResourceManagerTest, AllocatesOnNodeWithMostFreeVcores) {
  ResourceManager rm;
  rm.add_node("small", Resource{2, 8192});
  rm.add_node("big", Resource{8, 8192});
  auto first = rm.allocate(Resource{4, 1024});
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().node, "big");
  // big has 4 free vcores to small's 2, so it still wins.
  auto second = rm.allocate(Resource{1, 1024});
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().node, "big");
  ASSERT_TRUE(rm.allocate(Resource{2, 1024}).is_ok());  // big: 1 free vcore
  // Now small has the most free vcores.
  auto fourth = rm.allocate(Resource{1, 1024});
  ASSERT_TRUE(fourth.is_ok());
  EXPECT_EQ(fourth.value().node, "small");
}

TEST(ResourceManagerTest, ExhaustionReported) {
  ResourceManager rm;
  EXPECT_EQ(rm.allocate(Resource{1, 256}).status().code(),
            StatusCode::kResourceExhausted);  // no nodes at all
  rm.add_node("n", Resource{1, 512});
  EXPECT_EQ(rm.allocate(Resource{2, 256}).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(rm.allocate(Resource{1, 512}).is_ok());
  EXPECT_EQ(rm.allocate(Resource{1, 256}).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ResourceManagerTest, FailedNodeExcludedFromAllocation) {
  ResourceManager rm;
  rm.add_node("doomed", Resource{8, 8192});
  rm.add_node("survivor", Resource{2, 2048});
  auto hosted = rm.allocate(Resource{1, 256});
  ASSERT_TRUE(hosted.is_ok());
  ASSERT_EQ(hosted.value().node, "doomed");
  rm.fail_node("doomed");
  EXPECT_EQ(rm.cluster_available(), (Resource{2, 2048}));
  for (int i = 0; i < 2; ++i) {
    auto container = rm.allocate(Resource{1, 256});
    ASSERT_TRUE(container.is_ok());
    EXPECT_EQ(container.value().node, "survivor");
  }
  EXPECT_EQ(rm.allocate(Resource{1, 256}).status().code(),
            StatusCode::kResourceExhausted);
  // The crashed node's container left the ledger with it.
  rm.release(hosted.value());
  EXPECT_EQ(rm.cluster_available(), (Resource{0, 1536}));
}

TEST(ResourceManagerTest, DuplicateNodeRejected) {
  ResourceManager rm;
  rm.add_node("n", Resource{1, 256});
  EXPECT_THROW(rm.add_node("n", Resource{1, 256}), std::invalid_argument);
}

}  // namespace
}  // namespace dsps::yarn
