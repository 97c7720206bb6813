// ContentCache contract suite (`batch` label — run it in the TSAN tree for
// the cache mutex and the ASan+UBSan tree for the key byte strings). One
// typed suite pins the contract for every value kind the repo caches:
// trajectory and grid buffers (batch runner), forward planes (measure
// stage) and encoded mission results (daemon):
//
//   - a hit is verified and hands out the shared value, not a copy;
//   - a digest collision is a miss, never a wrong value;
//   - FIFO eviction is deterministic; capacity 0 retains nothing;
//   - shrinking the capacity evicts oldest-first;
//   - clear() forces a cold cache but the stats keep counting;
//   - the first insert of a key wins;
//   - concurrent lookups stay correct, and each key misses once per cold
//     run at any thread count;
//   - obs mirrors the stats under `<prefix>.*`.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "channel/environment.h"
#include "common/content_cache.h"
#include "common/rng.h"
#include "core/forward_plane.h"
#include "core/system.h"
#include "drone/flight.h"
#include "drone/trajectory.h"
#include "localize/sar.h"
#include "obs/metrics.h"

namespace rfly {
namespace {

constexpr int kInputs = 4;  // distinct keys per value kind

/// Every key lands on one digest: the verification compare alone must keep
/// entries apart.
std::uint64_t colliding_digest(std::string_view) { return 42; }

std::vector<channel::Vec3> jittered_positions(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<channel::Vec3> out;
  const auto traj = drone::linear_trajectory({0.0, 2.0, 1.0}, {3.0, 2.0, 1.0}, n);
  for (const auto& p : traj) {
    out.push_back({p.x + rng.gaussian(0.0, 0.01), p.y + rng.gaussian(0.0, 0.01),
                   p.z + rng.gaussian(0.0, 0.005)});
  }
  return out;
}

}  // namespace

// --- Value kinds: input i -> key, fresh build, and a bitwise match check.
// Outside the anonymous namespace so test names read <rfly::TrajectoryKind>.

struct TrajectoryKind {
  using Value = localize::SharedTrajectory;
  static constexpr const char* kPrefix = "test.content_cache.trajectory";
  static const std::vector<channel::Vec3>& input(int i) {
    static const auto inputs = [] {
      std::vector<std::vector<channel::Vec3>> out;
      for (int k = 0; k < kInputs; ++k) out.push_back(jittered_positions(10 + k, 12));
      return out;
    }();
    return inputs[static_cast<std::size_t>(i)];
  }
  static std::string key(int i) { return localize::trajectory_key(input(i)); }
  static Value build(int i) { return Value::from(input(i)); }
  static bool matches(const Value& value, int i) {
    const auto& positions = input(i);
    if (value.size() != positions.size()) return false;
    for (std::size_t j = 0; j < positions.size(); ++j) {
      if (value.px[j] != positions[j].x || value.py[j] != positions[j].y ||
          value.pz[j] != positions[j].z) {
        return false;
      }
    }
    return true;
  }
};

struct GridKind {
  using Value = localize::SharedGrid;
  static constexpr const char* kPrefix = "test.content_cache.grid";
  static localize::GridSpec input(int i) {
    return {-1.0, 2.0 + 0.5 * i, -0.5, 1.5, 0.04};
  }
  static std::string key(int i) { return localize::grid_key(input(i)); }
  static Value build(int i) { return Value::from(input(i)); }
  static bool matches(const Value& value, int i) {
    const Value fresh = build(i);
    return value.xs == fresh.xs && value.ys == fresh.ys &&
           localize::grid_key(value.spec) == key(i);
  }
};

struct PlaneKind {
  using Value = core::ForwardPlane;
  static constexpr const char* kPrefix = "test.content_cache.plane";
  struct Input {
    core::RflySystem system;
    std::vector<drone::FlownPoint> flight;
  };
  static const Input& input(int i) {
    static const auto inputs = [] {
      std::vector<Input> out;
      for (int k = 0; k < kInputs; ++k) {
        Rng rng(20 + static_cast<std::uint64_t>(k));
        const auto plan =
            drone::linear_trajectory({1.0, 3.0, 1.0}, {9.0, 3.0, 1.0}, 16);
        out.push_back(
            {core::RflySystem(core::SystemConfig{},
                              channel::warehouse_environment(12.0, 10.0, 1),
                              {1.0, 1.0, 1.0}),
             drone::fly(plan, {}, drone::optitrack_tracking(), rng)});
      }
      return out;
    }();
    return inputs[static_cast<std::size_t>(i)];
  }
  static std::string key(int i) {
    return core::plane_key(input(i).system, input(i).flight);
  }
  static Value build(int i) {
    return Value::build(input(i).system, input(i).flight);
  }
  static bool matches(const Value& value, int i) {
    static const auto fresh = [] {
      std::vector<Value> out;
      for (int k = 0; k < kInputs; ++k) out.push_back(build(k));
      return out;
    }();
    const Value& f = fresh[static_cast<std::size_t>(i)];
    return value.h1_re == f.h1_re && value.h1_im == f.h1_im &&
           value.g_d_amp == f.g_d_amp && value.embedded == f.embedded &&
           value.relay_tx_mw == f.relay_tx_mw;
  }
};

struct ResultKind {
  using Value = std::string;
  static constexpr const char* kPrefix = "test.content_cache.result";
  static std::string key(int i) { return "scenario-text\n" + std::to_string(i); }
  static Value build(int i) {
    return std::string("\x00\x01payload\xFF", 10) + std::to_string(i);
  }
  static bool matches(const Value& value, int i) { return value == build(i); }
};

namespace {

template <typename Kind>
class ContentCacheTest : public ::testing::Test {
 protected:
  using Value = typename Kind::Value;
  using Cache = ContentCache<Value>;

  static std::shared_ptr<const Value> get(Cache& cache, int i) {
    return cache.get_or_build(Kind::key(i), [i] { return Kind::build(i); });
  }
};

using Kinds = ::testing::Types<TrajectoryKind, GridKind, PlaneKind, ResultKind>;
TYPED_TEST_SUITE(ContentCacheTest, Kinds);

TYPED_TEST(ContentCacheTest, HitsAreVerifiedAndShared) {
  typename TestFixture::Cache cache(TypeParam::kPrefix, 4);
  const auto first = this->get(cache, 0);
  const auto again = this->get(cache, 0);
  EXPECT_EQ(first.get(), again.get());  // the shared value, not a copy
  EXPECT_TRUE(TypeParam::matches(*again, 0));
  EXPECT_EQ(cache.find(TypeParam::key(0)).get(), first.get());

  const auto other = this->get(cache, 1);
  EXPECT_NE(other.get(), first.get());
  EXPECT_TRUE(TypeParam::matches(*other, 1));
  EXPECT_EQ(cache.find(TypeParam::key(2)), nullptr);

  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 2u);
}

TYPED_TEST(ContentCacheTest, DigestCollisionIsAMiss) {
  ContentCache<typename TestFixture::Value, colliding_digest> cache(
      TypeParam::kPrefix, 4);
  const auto a = cache.get_or_build(TypeParam::key(0), [] { return TypeParam::build(0); });
  const auto b = cache.get_or_build(TypeParam::key(1), [] { return TypeParam::build(1); });
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  // Same digest everywhere, yet every lookup finds its own value.
  for (int round = 0; round < 2; ++round) {
    const auto found_a = cache.find(TypeParam::key(0));
    const auto found_b = cache.find(TypeParam::key(1));
    ASSERT_NE(found_a, nullptr);
    ASSERT_NE(found_b, nullptr);
    EXPECT_TRUE(TypeParam::matches(*found_a, 0));
    EXPECT_TRUE(TypeParam::matches(*found_b, 1));
  }
  EXPECT_EQ(cache.find(TypeParam::key(2)), nullptr);
  EXPECT_EQ(cache.stats().hits, 4u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TYPED_TEST(ContentCacheTest, FifoEvictionIsDeterministic) {
  typename TestFixture::Cache cache(TypeParam::kPrefix, 2);
  this->get(cache, 0);
  this->get(cache, 1);
  this->get(cache, 2);  // evicts 0, the oldest
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.find(TypeParam::key(0)), nullptr);
  EXPECT_NE(cache.find(TypeParam::key(1)), nullptr);

  // A hit does not refresh an entry: 1 is still the oldest and goes next.
  const auto rebuilt = this->get(cache, 0);
  EXPECT_TRUE(TypeParam::matches(*rebuilt, 0));
  EXPECT_EQ(cache.find(TypeParam::key(1)), nullptr);
  EXPECT_NE(cache.find(TypeParam::key(2)), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 6u);
  EXPECT_EQ(s.evictions, 2u);
}

TYPED_TEST(ContentCacheTest, CapacityZeroDisablesRetention) {
  typename TestFixture::Cache cache(TypeParam::kPrefix, 0);
  const auto first = this->get(cache, 0);
  const auto again = this->get(cache, 0);
  // Every lookup builds fresh and counts as a miss, and both are correct.
  EXPECT_NE(first.get(), again.get());
  EXPECT_TRUE(TypeParam::matches(*first, 0));
  EXPECT_TRUE(TypeParam::matches(*again, 0));
  cache.insert(TypeParam::key(1), TypeParam::build(1));
  EXPECT_EQ(cache.find(TypeParam::key(1)), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 0u);
}

TYPED_TEST(ContentCacheTest, ShrinkingCapacityEvictsOldestFirst) {
  typename TestFixture::Cache cache(TypeParam::kPrefix, 4);
  for (int i = 0; i < 3; ++i) this->get(cache, i);
  cache.set_capacity(1);
  EXPECT_EQ(cache.capacity(), 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  // The survivor is the newest insertion.
  EXPECT_NE(cache.find(TypeParam::key(2)), nullptr);
  EXPECT_EQ(cache.find(TypeParam::key(0)), nullptr);
  EXPECT_EQ(cache.find(TypeParam::key(1)), nullptr);
}

TYPED_TEST(ContentCacheTest, ClearForcesColdButKeepsCounting) {
  typename TestFixture::Cache cache(TypeParam::kPrefix, 4);
  const auto warm = this->get(cache, 0);
  this->get(cache, 0);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  const auto cold = this->get(cache, 0);
  EXPECT_NE(cold.get(), warm.get());
  EXPECT_TRUE(TypeParam::matches(*cold, 0));
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);  // stats survived the clear
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);
}

TYPED_TEST(ContentCacheTest, FirstInsertWins) {
  typename TestFixture::Cache cache(TypeParam::kPrefix, 4);
  // Racing producers of one key: the second insert changes nothing.
  cache.insert(TypeParam::key(0), TypeParam::build(0));
  cache.insert(TypeParam::key(0), TypeParam::build(1));
  const auto found = cache.find(TypeParam::key(0));
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(TypeParam::matches(*found, 0));
  EXPECT_EQ(this->get(cache, 0).get(), found.get());
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 2u);  // inserts are not lookups
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.entries, 1u);
}

TYPED_TEST(ContentCacheTest, ConcurrentHammerStaysCorrect) {
  // Racing lookups and inserts over few keys with eviction churn: the mutex
  // keeps the entries coherent (TSAN checks the locking), and every value
  // handed out matches a fresh build even after its entry was evicted.
  typename TestFixture::Cache cache(TypeParam::kPrefix, 2);
  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        const int k = (t + i) % kInputs;
        const auto value = this->get(cache, k);
        if (!TypeParam::matches(*value, k)) ++failures[static_cast<std::size_t>(t)];
        if (i % 4 == 0) cache.insert(TypeParam::key(k), TypeParam::build(k));
        const auto found = cache.find(TypeParam::key(k));
        if (found && !TypeParam::matches(*found, k)) {
          ++failures[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0) << t;
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 2u * kThreads * kRounds);
  EXPECT_LE(s.entries, 2u);
}

TYPED_TEST(ContentCacheTest, EachKeyMissesOncePerColdRun) {
  // Builds run under the lock, so a racing second lookup waits and hits:
  // the miss count is the number of distinct keys at any thread count.
  for (unsigned threads : {1u, 8u}) {
    typename TestFixture::Cache cache(TypeParam::kPrefix, kInputs);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (int i = 0; i < 3 * kInputs; ++i) this->get(cache, i % kInputs);
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(cache.stats().misses, static_cast<std::uint64_t>(kInputs)) << threads;
    EXPECT_EQ(cache.stats().hits, 3u * kInputs * threads - kInputs) << threads;
  }
}

TYPED_TEST(ContentCacheTest, ObsMirrorsTheStats) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  const std::string prefix = TypeParam::kPrefix;
  auto& hits = obs::counter(prefix + ".hits");
  auto& misses = obs::counter(prefix + ".misses");
  auto& evictions = obs::counter(prefix + ".evictions");
  const std::uint64_t h0 = hits.value(), m0 = misses.value(), e0 = evictions.value();

  typename TestFixture::Cache cache(prefix, 1);
  this->get(cache, 0);
  this->get(cache, 0);
  this->get(cache, 1);
  const auto s = cache.stats();
  EXPECT_EQ(hits.value() - h0, s.hits);
  EXPECT_EQ(misses.value() - m0, s.misses);
  EXPECT_EQ(evictions.value() - e0, s.evictions);
  EXPECT_EQ(s.evictions, 1u);
}

// --- Keys ------------------------------------------------------------------

TEST(ContentCacheKeys, DigestsSeparateNearbyInputs) {
  auto a = jittered_positions(20, 10);
  auto b = a;
  b[5].z = std::nextafter(b[5].z, 1e9);  // one ulp in one coordinate
  EXPECT_NE(localize::trajectory_key(a), localize::trajectory_key(b));
  EXPECT_NE(content_digest(localize::trajectory_key(a)),
            content_digest(localize::trajectory_key(b)));
  const localize::GridSpec g1{0.0, 1.0, 0.0, 1.0, 0.1};
  localize::GridSpec g2 = g1;
  g2.resolution_m = std::nextafter(g2.resolution_m, 1.0);
  EXPECT_NE(localize::grid_key(g1), localize::grid_key(g2));
  EXPECT_NE(content_digest(localize::grid_key(g1)),
            content_digest(localize::grid_key(g2)));
}

}  // namespace
}  // namespace rfly
