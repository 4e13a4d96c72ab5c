#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/storage/buffer_cache.h"

namespace mtdb {
namespace {

TEST(BufferCacheTest, DisabledCacheAlwaysHits) {
  BufferCache cache(0);
  for (uint64_t p = 0; p < 100; ++p) EXPECT_TRUE(cache.Touch(p));
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 1.0);
}

TEST(BufferCacheTest, ColdMissThenWarmHit) {
  BufferCache cache(4);
  EXPECT_FALSE(cache.Touch(1));
  EXPECT_TRUE(cache.Touch(1));
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(BufferCacheTest, LruEvictsLeastRecentlyUsed) {
  BufferCache cache(2);
  cache.Touch(1);
  cache.Touch(2);
  cache.Touch(1);       // 1 is now most recent
  cache.Touch(3);       // evicts 2
  EXPECT_TRUE(cache.Touch(1));
  EXPECT_TRUE(cache.Touch(3));
  EXPECT_FALSE(cache.Touch(2));  // was evicted
}

TEST(BufferCacheTest, CapacityIsRespected) {
  BufferCache cache(8);
  for (uint64_t p = 0; p < 100; ++p) cache.Touch(p);
  EXPECT_EQ(cache.Size(), 8u);
}

TEST(BufferCacheTest, WorkingSetLargerThanPoolThrashes) {
  BufferCache cache(10);
  // Cyclic access over 20 pages with LRU: every access misses.
  for (int round = 0; round < 5; ++round) {
    for (uint64_t p = 0; p < 20; ++p) cache.Touch(p);
  }
  EXPECT_EQ(cache.hits(), 0);
}

TEST(BufferCacheTest, WorkingSetWithinPoolAllHitsAfterWarmup) {
  BufferCache cache(32);
  for (uint64_t p = 0; p < 20; ++p) cache.Touch(p);  // warmup: 20 misses
  for (int round = 0; round < 5; ++round) {
    for (uint64_t p = 0; p < 20; ++p) EXPECT_TRUE(cache.Touch(p));
  }
  EXPECT_EQ(cache.misses(), 20);
}

TEST(BufferCacheTest, ConcurrentTouchesAreSafe) {
  BufferCache cache(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      Random rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 2000; ++i) cache.Touch(rng.Uniform(128));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cache.hits() + cache.misses(), 8000);
  EXPECT_LE(cache.Size(), 64u);
}

}  // namespace
}  // namespace mtdb
