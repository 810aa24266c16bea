#include "store/topology_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/le_codec.h"
#include "support/hex.h"

namespace mmlpt::store {
namespace {

struct TempPath {
  std::string path;
  explicit TempPath(const char* name)
      : path(std::string(::testing::TempDir()) + name) {
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

TopologySnapshot sample_snapshot() {
  // Built from initializer lists: GCC 12 at -O3 reports a false
  // -Wstringop-overflow on the growth path of repeated push_backs.
  TopologySnapshot snapshot;
  snapshot.hops = {{net::IpAddress(10, 0, 0, 1), 1},
                   {net::IpAddress(10, 0, 0, 2), 2},
                   {net::IpAddress::v6(0x20010db8'00000000ULL, 7), 3}};
  snapshot.destinations = {{net::IpAddress(10, 9, 9, 9), {12, 345}}};
  return snapshot;
}

TEST(SnapshotCodec, RoundTripsHopsAndDestinations) {
  const auto snapshot = sample_snapshot();
  const auto decoded = decode_snapshot(encode_snapshot(snapshot));
  EXPECT_EQ(decoded.hops, snapshot.hops);
  EXPECT_EQ(decoded.destinations, snapshot.destinations);
}

TEST(SnapshotCodec, RejectsTruncatedPayload) {
  auto payload = encode_snapshot(sample_snapshot());
  payload.pop_back();
  EXPECT_THROW((void)decode_snapshot(payload), ParseError);
}

TEST(SnapshotCodec, RejectsTrailingBytes) {
  auto payload = encode_snapshot(sample_snapshot());
  payload += '\0';
  EXPECT_THROW((void)decode_snapshot(payload), ParseError);
}

TEST(SnapshotCodec, RejectsBadFamilyTag) {
  auto payload = encode_snapshot(sample_snapshot());
  payload[4] = 9;  // first hop's family byte
  EXPECT_THROW((void)decode_snapshot(payload), ParseError);
}

// A block whose payload claims 0xFFFFFFFF records but holds only a few:
// the decoder must answer ParseError, not try to reserve ~100 GB first
// (a reserve that large fails with std::bad_alloc or length_error).
std::string payload_claiming_huge_count(bool hops) {
  auto payload = encode_snapshot(sample_snapshot());
  // The hop count is the payload's first u32; the destination count
  // follows the three 19-byte hop records.
  const std::size_t at = hops ? 0 : 4 + 3 * 19;
  for (std::size_t i = 0; i < 4; ++i) payload[at + i] = '\xFF';
  return payload;
}

TEST(SnapshotCodec, HugeHopCountThrowsParseError) {
  EXPECT_THROW((void)decode_snapshot(payload_claiming_huge_count(true)),
               ParseError);
}

TEST(SnapshotCodec, HugeDestinationCountThrowsParseError) {
  EXPECT_THROW((void)decode_snapshot(payload_claiming_huge_count(false)),
               ParseError);
}

TEST(TopologyStore, FileBytesKeepTheirOnDiskEncoding) {
  // Header plus one block, byte for byte: caches written by earlier
  // builds must keep loading, which a round trip alone cannot show.
  TempPath file("store_golden.mtps");
  TopologyStore::append(file.path, sample_snapshot());
  EXPECT_EQ(testing::to_hex(read_file(file.path)),
            "4d545053010000005c00000066829c7903000000040a00000100000000000000"
            "00000000000100040a00000200000000000000000000000002000620010db800"
            "0000000000000000000007030001000000040a09090900000000000000000000"
            "00000c005901000000000000");
}

TEST(TopologyStore, MissingFileLoadsEmpty) {
  TempPath file("store_missing.mtps");
  const auto loaded = TopologyStore::load(file.path);
  EXPECT_TRUE(loaded.snapshot.empty());
  EXPECT_EQ(loaded.blocks, 0u);
  EXPECT_FALSE(loaded.truncated_tail);
}

TEST(TopologyStore, AppendThenLoadRoundTrips) {
  TempPath file("store_roundtrip.mtps");
  const auto snapshot = sample_snapshot();
  TopologyStore::append(file.path, snapshot);
  const auto loaded = TopologyStore::load(file.path);
  EXPECT_EQ(loaded.blocks, 1u);
  EXPECT_FALSE(loaded.truncated_tail);
  EXPECT_EQ(loaded.snapshot.hops, snapshot.hops);
  EXPECT_EQ(loaded.snapshot.destinations, snapshot.destinations);
}

TEST(TopologyStore, AppendsAccumulateAcrossOpens) {
  TempPath file("store_accumulate.mtps");
  TopologyStore::append(file.path, sample_snapshot());
  TopologySnapshot delta;
  delta.hops.push_back({net::IpAddress(172, 16, 0, 1), 5});
  TopologyStore::append(file.path, delta);
  const auto loaded = TopologyStore::load(file.path);
  EXPECT_EQ(loaded.blocks, 2u);
  EXPECT_EQ(loaded.snapshot.hops.size(), 4u);
  EXPECT_EQ(loaded.snapshot.hops.back(), delta.hops[0]);
}

TEST(TopologyStore, EmptyDeltaWritesNothing) {
  TempPath file("store_empty_delta.mtps");
  TopologyStore::append(file.path, {});
  // Not even the header: the file does not exist.
  std::ifstream in(file.path);
  EXPECT_FALSE(in.good());
}

TEST(TopologyStore, RejectsBadMagic) {
  TempPath file("store_bad_magic.mtps");
  write_file(file.path, std::string("XXXXXXXX", 8));
  EXPECT_THROW((void)TopologyStore::load(file.path), TopologyError);
  EXPECT_THROW(TopologyStore::append(file.path, sample_snapshot()),
               TopologyError);
}

TEST(TopologyStore, RejectsUnsupportedVersion) {
  TempPath file("store_bad_version.mtps");
  TopologyStore::append(file.path, sample_snapshot());
  auto data = read_file(file.path);
  data[4] = 99;  // version field
  write_file(file.path, data);
  EXPECT_THROW((void)TopologyStore::load(file.path), TopologyError);
}

TEST(TopologyStore, TruncatedTailKeepsValidPrefix) {
  TempPath file("store_truncated.mtps");
  const auto snapshot = sample_snapshot();
  TopologyStore::append(file.path, snapshot);
  TopologySnapshot delta;
  delta.hops.push_back({net::IpAddress(172, 16, 0, 1), 5});
  TopologyStore::append(file.path, delta);
  auto data = read_file(file.path);
  write_file(file.path, data.substr(0, data.size() - 3));  // torn last block
  const auto loaded = TopologyStore::load(file.path);
  EXPECT_TRUE(loaded.truncated_tail);
  EXPECT_EQ(loaded.blocks, 1u);
  EXPECT_EQ(loaded.snapshot.hops, snapshot.hops);
}

TEST(TopologyStore, CorruptBlockStopsAtValidPrefix) {
  TempPath file("store_corrupt.mtps");
  TopologyStore::append(file.path, sample_snapshot());
  TopologySnapshot delta;
  delta.hops.push_back({net::IpAddress(172, 16, 0, 1), 5});
  TopologyStore::append(file.path, delta);
  auto data = read_file(file.path);
  data.back() = static_cast<char>(data.back() ^ 0x5A);  // flip payload bits
  write_file(file.path, data);
  const auto loaded = TopologyStore::load(file.path);
  EXPECT_TRUE(loaded.truncated_tail);
  EXPECT_EQ(loaded.blocks, 1u);
}

TEST(TopologyStore, BlockClaimingHugeHopCountStopsAtValidPrefix) {
  // The CRC matches, so only the decoder stands between the count and
  // the allocator.
  TempPath file("store_huge_count.mtps");
  TopologyStore::append(file.path, sample_snapshot());
  const auto payload = payload_claiming_huge_count(true);
  std::string block;
  for (const std::uint32_t word :
       {static_cast<std::uint32_t>(payload.size()), crc32(payload)}) {
    for (int shift = 0; shift < 32; shift += 8) {
      block += static_cast<char>((word >> shift) & 0xFF);
    }
  }
  write_file(file.path, read_file(file.path) + block + payload);
  const auto loaded = TopologyStore::load(file.path);
  EXPECT_TRUE(loaded.truncated_tail);
  EXPECT_EQ(loaded.blocks, 1u);
  EXPECT_EQ(loaded.snapshot.hops, sample_snapshot().hops);
}

TEST(TopologyStore, HalfWrittenHeaderIsRecoverableGarbage) {
  TempPath file("store_torn_header.mtps");
  write_file(file.path, "MT");  // crash mid-first-append
  const auto loaded = TopologyStore::load(file.path);
  EXPECT_TRUE(loaded.snapshot.empty());
  EXPECT_TRUE(loaded.truncated_tail);
}

TEST(TopologyStore, ConcurrentSingleWriterAppendsAllSurvive) {
  // The single-writer atomicity claim: appends from many threads (each
  // append is one write(2) to an O_APPEND fd) never tear; every block
  // loads. Header creation is the one non-concurrent step, so the file
  // is seeded first — matching real usage, where every session loads the
  // store before its single append.
  TempPath file("store_concurrent.mtps");
  TopologyStore::append(file.path, sample_snapshot());
  constexpr int kThreads = 4;
  constexpr int kAppendsPerThread = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAppendsPerThread; ++i) {
        TopologySnapshot delta;
        delta.hops.push_back(
            {net::IpAddress(10, 1, static_cast<std::uint8_t>(t),
                            static_cast<std::uint8_t>(i)),
             t * kAppendsPerThread + i + 1});
        TopologyStore::append(file.path, delta);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto loaded = TopologyStore::load(file.path);
  EXPECT_FALSE(loaded.truncated_tail);
  EXPECT_EQ(loaded.blocks,
            static_cast<std::size_t>(kThreads * kAppendsPerThread) + 1);
  EXPECT_EQ(loaded.snapshot.hops.size(),
            static_cast<std::size_t>(kThreads * kAppendsPerThread) + 3);
}

}  // namespace
}  // namespace mmlpt::store
