#include "orchestrator/stop_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace mmlpt::orchestrator {
namespace {

struct TempPath {
  std::string path;
  explicit TempPath(const char* name)
      : path(std::string(::testing::TempDir()) + name) {
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
};

const net::IpAddress kA(10, 0, 0, 1);
const net::IpAddress kB(10, 0, 0, 2);
const net::IpAddress kDest(10, 9, 9, 9);

TEST(SharedStopSet, FrozenEpochHidesThisRunsDiscoveries) {
  SharedStopSet set;
  store::TopologySnapshot seed;
  seed.hops.push_back({kA, 3});
  set.seed(seed);

  EXPECT_TRUE(set.contains(kA, 3));
  EXPECT_FALSE(set.contains(kA, 4));  // distance is part of the key

  // record() goes to pending: never visible to this run's queries.
  set.record(kB, 5);
  EXPECT_FALSE(set.contains(kB, 5));
  EXPECT_EQ(set.pending_hop_count(), 1u);
  EXPECT_EQ(set.visible_hop_count(), 1u);
}

TEST(SharedStopSet, RecordDeduplicatesAgainstVisibleAndItself) {
  SharedStopSet set;
  store::TopologySnapshot seed;
  seed.hops.push_back({kA, 3});
  set.seed(seed);
  set.record(kA, 3);  // already durable: not pending again
  set.record(kB, 5);
  set.record(kB, 5);
  EXPECT_EQ(set.pending_hop_count(), 1u);
  const auto delta = set.delta();
  ASSERT_EQ(delta.hops.size(), 1u);
  EXPECT_EQ(delta.hops[0], (store::HopRecord{kB, 5}));
}

TEST(SharedStopSet, DuplicateRecordsCountOnce) {
  // Regression: records_->add() used to run on EVERY record() call, so
  // mmlpt_stop_set_records_total double-counted re-recorded hops (every
  // trace crossing a shared interface reports it once). The counter's
  // contract is "discoveries recorded into the pending set", so it must
  // track pending_hop_count(), not call volume.
  SharedStopSet set;
  store::TopologySnapshot seed;
  seed.hops.push_back({kA, 3});
  set.seed(seed);
  obs::MetricsRegistry registry;
  set.instrument(registry);

  set.record(kB, 5);
  set.record(kB, 5);  // duplicate pending discovery
  set.record(kA, 3);  // already in the frozen visible epoch
  EXPECT_EQ(set.pending_hop_count(), 1u);

  std::optional<std::int64_t> counted;
  for (const auto& [name, value] : registry.scalar_snapshot()) {
    if (name == "mmlpt_stop_set_records_total") counted = value;
  }
  ASSERT_TRUE(counted.has_value());
  EXPECT_EQ(*counted, 1);
}

TEST(SharedStopSet, DestinationRecordsFollowTheSameEpochRule) {
  SharedStopSet set;
  store::TopologySnapshot seed;
  seed.destinations.push_back({kDest, {10, 200}});
  set.seed(seed);

  const auto prior = set.destination(kDest);
  ASSERT_TRUE(prior.has_value());
  EXPECT_EQ(prior->distance, 10);
  EXPECT_EQ(prior->probes, 200u);

  // A visible destination is frozen; a new one is pending-only.
  set.record_destination(kDest, {9, 100});
  EXPECT_EQ(set.destination(kDest)->probes, 200u);
  set.record_destination(kB, {4, 50});
  EXPECT_FALSE(set.destination(kB).has_value());
  const auto delta = set.delta();
  ASSERT_EQ(delta.destinations.size(), 1u);
  EXPECT_EQ(delta.destinations[0].addr, kB);
}

TEST(SharedStopSet, MidpointIsHalfTheMedianDestinationDistance) {
  SharedStopSet empty;
  EXPECT_EQ(empty.midpoint_ttl(), 0);  // no data, no adaptive start

  SharedStopSet set;
  store::TopologySnapshot seed;
  seed.destinations.push_back({net::IpAddress(10, 0, 0, 10), {8, 1}});
  seed.destinations.push_back({net::IpAddress(10, 0, 0, 11), {12, 1}});
  seed.destinations.push_back({net::IpAddress(10, 0, 0, 12), {20, 1}});
  set.seed(seed);
  EXPECT_EQ(set.midpoint_ttl(), 6);  // median 12 / 2

  SharedStopSet shallow;
  store::TopologySnapshot shallow_seed;
  shallow_seed.destinations.push_back({kDest, {1, 1}});
  shallow.seed(shallow_seed);
  EXPECT_EQ(shallow.midpoint_ttl(), 1);  // clamped to a probeable TTL
}

TEST(SharedStopSet, UnionDigestIsOrderAndSplitInvariant) {
  // Same hops, discovered differently: all from disk vs all recorded vs
  // half and half — one digest.
  store::TopologySnapshot all;
  all.hops.push_back({kA, 1});
  all.hops.push_back({kB, 2});

  SharedStopSet from_disk;
  from_disk.seed(all);

  SharedStopSet recorded;
  recorded.record(kB, 2);
  recorded.record(kA, 1);

  SharedStopSet split;
  store::TopologySnapshot half;
  half.hops.push_back({kA, 1});
  split.seed(half);
  split.record(kB, 2);

  EXPECT_EQ(from_disk.union_digest(), recorded.union_digest());
  EXPECT_EQ(from_disk.union_digest(), split.union_digest());

  SharedStopSet different;
  different.record(kA, 2);  // same address, different distance
  different.record(kB, 2);
  EXPECT_NE(from_disk.union_digest(), different.union_digest());
}

using Key = std::pair<net::IpAddress, int>;

/// The digest's definition: an FNV-1a fold over the ordered union of
/// (interface, distance) keys — family byte, 16 address bytes, distance
/// low byte then high byte.
std::uint64_t reference_digest(const std::set<Key>& keys) {
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  const auto mix = [&digest](std::uint8_t byte) {
    digest ^= byte;
    digest *= 0x100000001B3ULL;
  };
  for (const auto& [addr, distance] : keys) {
    mix(addr.is_v6() ? 6 : 4);
    for (const auto byte : addr.bytes()) mix(byte);
    mix(static_cast<std::uint8_t>(distance & 0xFF));
    mix(static_cast<std::uint8_t>((distance >> 8) & 0xFF));
  }
  return digest;
}

store::TopologySnapshot hops_snapshot(const std::vector<Key>& keys) {
  store::TopologySnapshot snapshot;
  for (const auto& [addr, distance] : keys) {
    snapshot.hops.push_back({addr, distance});
  }
  return snapshot;
}

const net::IpAddress kV6A = net::IpAddress::v6(0x20010db8'00000000ULL, 1);
const net::IpAddress kV6B = net::IpAddress::v6(0x20010db8'00000000ULL, 2);

TEST(SharedStopSet, UnionDigestOfSeedWithDuplicateHops) {
  // A store replays every run's block, so one hop can arrive many times,
  // out of order.
  const std::vector<Key> seeded = {{kB, 2}, {kA, 1}, {kB, 2}, {kA, 1},
                                   {kDest, 9}, {kA, 1}};
  SharedStopSet set;
  set.seed(hops_snapshot(seeded));
  EXPECT_EQ(set.visible_hop_count(), 3u);
  EXPECT_TRUE(set.contains(kA, 1));
  EXPECT_TRUE(set.contains(kB, 2));
  EXPECT_TRUE(set.contains(kDest, 9));
  EXPECT_EQ(set.union_digest(),
            reference_digest({seeded.begin(), seeded.end()}));
}

TEST(SharedStopSet, UnionDigestOverMixedFamilies) {
  const std::vector<Key> seeded = {{kV6B, 4}, {kA, 1}, {kV6A, 3}};
  const std::vector<Key> recorded = {{kB, 2}, {kV6A, 2}};
  SharedStopSet set;
  set.seed(hops_snapshot(seeded));
  for (const auto& [addr, distance] : recorded) set.record(addr, distance);
  std::set<Key> all(seeded.begin(), seeded.end());
  all.insert(recorded.begin(), recorded.end());
  EXPECT_EQ(set.union_digest(), reference_digest(all));
  EXPECT_TRUE(set.contains(kV6A, 3));
  EXPECT_FALSE(set.contains(kV6A, 2));  // pending
  // A v4 address and a v6 address with the same leading bytes differ.
  EXPECT_FALSE(set.contains(net::IpAddress::v6(kA.bytes()), 1));
}

TEST(SharedStopSet, UnionDigestKeepsOneAddressAtTwoDistances) {
  SharedStopSet set;
  set.seed(hops_snapshot({{kA, 5}, {kA, 3}}));
  set.record(kA, 4);
  set.record(kA, 300);  // exercises the distance's high byte
  EXPECT_EQ(set.visible_hop_count(), 2u);
  EXPECT_EQ(set.pending_hop_count(), 2u);
  EXPECT_EQ(set.union_digest(),
            reference_digest({{kA, 3}, {kA, 4}, {kA, 5}, {kA, 300}}));
}

TEST(SharedStopSet, UnionDigestMergesInterleavedPendingKeys) {
  std::vector<Key> seeded;
  std::vector<Key> recorded;
  for (int i = 0; i < 64; ++i) {
    const net::IpAddress addr(10, 4, static_cast<std::uint8_t>(i / 8),
                              static_cast<std::uint8_t>(i));
    const net::IpAddress addr6 = net::IpAddress::v6(0x20010db8'00000000ULL,
                                                    static_cast<unsigned>(i));
    // Deal the keys to both sides so their sorted orders interleave.
    auto& side = (i % 6 < 3) == (i % 2 == 0) ? seeded : recorded;
    side.push_back({addr, i % 7 + 1});
    side.push_back({addr6, i % 5 + 1});
  }
  SharedStopSet set;
  set.seed(hops_snapshot(seeded));
  for (const auto& [addr, distance] : recorded) set.record(addr, distance);
  ASSERT_FALSE(seeded.empty());
  ASSERT_FALSE(recorded.empty());
  std::set<Key> all(seeded.begin(), seeded.end());
  all.insert(recorded.begin(), recorded.end());
  EXPECT_EQ(set.union_digest(), reference_digest(all));
}

TEST(SharedStopSet, UnionDigestIgnoresRecordOfAVisibleKey) {
  SharedStopSet set;
  set.seed(hops_snapshot({{kA, 1}, {kB, 2}}));
  const auto before = set.union_digest();
  set.record(kA, 1);
  set.record(kB, 2);
  EXPECT_EQ(set.pending_hop_count(), 0u);
  EXPECT_EQ(set.union_digest(), before);
  EXPECT_EQ(before, reference_digest({{kA, 1}, {kB, 2}}));

  // A key recorded before the epoch was seeded sits in both sequences;
  // the union still folds it once.
  SharedStopSet early;
  early.record(kA, 1);
  early.seed(hops_snapshot({{kA, 1}, {kB, 2}}));
  EXPECT_EQ(early.union_digest(), before);
}

TEST(SharedStopSet, DigestWhileRecordingIsRaceFree) {
  SharedStopSet set;
  std::vector<Key> seeded;
  for (int i = 0; i < 32; ++i) {
    seeded.push_back(
        {net::IpAddress(10, 5, 0, static_cast<std::uint8_t>(i)), i + 1});
  }
  set.seed(hops_snapshot(seeded));
  constexpr int kRecorders = 4;
  constexpr int kRecords = 200;
  const auto key_of = [](int t, int i) {
    return Key{net::IpAddress(10, 6, static_cast<std::uint8_t>(t),
                              static_cast<std::uint8_t>(i)),
               i % 30 + 1};
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kRecorders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRecords; ++i) {
        const auto [addr, distance] = key_of(t, i);
        set.record(addr, distance);
        set.record(seeded[static_cast<std::size_t>(i % 32)].first,
                   seeded[static_cast<std::size_t>(i % 32)].second);
      }
    });
  }
  std::vector<std::uint64_t> digests;
  threads.emplace_back([&] {
    for (int i = 0; i < 200; ++i) digests.push_back(set.union_digest());
  });
  for (auto& thread : threads) thread.join();

  std::set<Key> all(seeded.begin(), seeded.end());
  for (int t = 0; t < kRecorders; ++t) {
    for (int i = 0; i < kRecords; ++i) all.insert(key_of(t, i));
  }
  EXPECT_EQ(set.union_digest(), reference_digest(all));
  EXPECT_EQ(digests.size(), 200u);
}

TEST(SharedStopSet, ConcurrentRecordsAllLand) {
  SharedStopSet set;
  constexpr int kThreads = 8;
  constexpr int kRecords = 64;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRecords; ++i) {
        set.record(net::IpAddress(10, 2, static_cast<std::uint8_t>(t),
                                  static_cast<std::uint8_t>(i)),
                   i + 1);
        set.record_destination(
            net::IpAddress(10, 3, static_cast<std::uint8_t>(t),
                           static_cast<std::uint8_t>(i)),
            {i + 1, static_cast<std::uint64_t>(i) + 1});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(set.pending_hop_count(),
            static_cast<std::size_t>(kThreads * kRecords));
  EXPECT_EQ(set.delta().destinations.size(),
            static_cast<std::size_t>(kThreads * kRecords));
}

TEST(StopSetSession, InactiveWithoutCachePath) {
  StopSetSession session("", true);
  EXPECT_FALSE(session.active());
  EXPECT_EQ(session.stop_set(), nullptr);
  core::TraceConfig config;
  session.configure(config);
  EXPECT_EQ(config.stop_set, nullptr);
  session.flush();  // no-op, no file
}

TEST(StopSetSession, PersistsDiscoveriesAcrossSessions) {
  TempPath file("stop_set_session.mtps");

  {
    StopSetSession first(file.path, /*consult=*/false);
    ASSERT_TRUE(first.active());
    core::TraceConfig config;
    first.configure(config);
    ASSERT_EQ(config.stop_set, first.stop_set());
    EXPECT_EQ(config.consulted_stop_set(), nullptr);  // record-only
    config.stop_set->record(kA, 2);
    config.stop_set->record_destination(kDest, {7, 40});
    first.flush();
  }

  StopSetSession second(file.path, /*consult=*/true);
  EXPECT_EQ(second.loaded().blocks, 1u);
  core::TraceConfig config;
  second.configure(config);
  ASSERT_NE(config.consulted_stop_set(), nullptr);
  // Last session's pending is this session's frozen visible epoch.
  EXPECT_TRUE(config.stop_set->contains(kA, 2));
  const auto prior = config.stop_set->destination(kDest);
  ASSERT_TRUE(prior.has_value());
  EXPECT_EQ(prior->probes, 40u);
  // Flushing with nothing new appends nothing.
  second.flush();
  StopSetSession third(file.path, true);
  EXPECT_EQ(third.loaded().blocks, 1u);
}

}  // namespace
}  // namespace mmlpt::orchestrator
