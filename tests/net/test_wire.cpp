#include "net/wire.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace mmlpt::net {
namespace {

TEST(WireWriter, BigEndianLayout) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  const auto bytes = std::move(w).take();
  const std::vector<std::uint8_t> expected{0xAB, 0x12, 0x34,
                                           0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_EQ(bytes, expected);
}

TEST(WireWriter, PatchU16) {
  WireWriter w;
  w.u16(0);
  w.u16(0xFFFF);
  w.patch_u16(0, 0xBEEF);
  const auto bytes = std::move(w).take();
  EXPECT_EQ(bytes[0], 0xBE);
  EXPECT_EQ(bytes[1], 0xEF);
  EXPECT_EQ(bytes[2], 0xFF);
}

TEST(WireWriter, PatchOutOfRangeThrows) {
  WireWriter w;
  w.u8(0);
  EXPECT_THROW(w.patch_u16(0, 1), ParseError);
}

TEST(WireWriter, ZerosAndBytes) {
  WireWriter w;
  w.zeros(3);
  const std::uint8_t data[] = {1, 2};
  w.bytes(data);
  EXPECT_EQ(w.size(), 5u);
  EXPECT_EQ(w.view()[2], 0);
  EXPECT_EQ(w.view()[4], 2);
}

TEST(WireReader, ReadsBackWhatWriterWrote) {
  WireWriter w;
  w.u8(7);
  w.u16(300);
  w.u32(70000);
  const auto bytes = std::move(w).take();
  WireReader r(bytes);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 300);
  EXPECT_EQ(r.u32(), 70000u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireReader, TruncatedThrows) {
  const std::vector<std::uint8_t> bytes{1, 2, 3};
  WireReader r(bytes);
  (void)r.u16();
  EXPECT_THROW((void)r.u16(), ParseError);
}

TEST(WireReader, EveryAccessorThrowsAtEveryTruncationPoint) {
  // For each accessor and each way of starting it short of its width —
  // from every offset into a buffer too short to hold it — the read
  // throws ParseError and moves nothing.
  const std::vector<std::uint8_t> bytes{1, 2, 3, 4, 5, 6, 7, 8};
  using Read = void (*)(WireReader&, std::size_t);
  const struct {
    const char* name;
    std::size_t width;
    Read read;
  } accessors[] = {
      {"u8", 1, [](WireReader& r, std::size_t) { (void)r.u8(); }},
      {"u16", 2, [](WireReader& r, std::size_t) { (void)r.u16(); }},
      {"u32", 4, [](WireReader& r, std::size_t) { (void)r.u32(); }},
      {"bytes", 3,
       [](WireReader& r, std::size_t n) { (void)r.bytes(n); }},
      {"skip", 3, [](WireReader& r, std::size_t n) { r.skip(n); }},
  };
  for (const auto& accessor : accessors) {
    for (std::size_t size = 0; size <= bytes.size(); ++size) {
      for (std::size_t start = 0; start <= size; ++start) {
        WireReader r(std::span<const std::uint8_t>(bytes.data(), size));
        r.skip(start);
        if (size - start >= accessor.width) {
          EXPECT_NO_THROW(accessor.read(r, accessor.width));
          EXPECT_EQ(r.offset(), start + accessor.width);
          continue;
        }
        EXPECT_THROW(accessor.read(r, accessor.width), ParseError)
            << accessor.name << " size " << size << " start " << start;
        EXPECT_EQ(r.offset(), start) << accessor.name;
      }
    }
  }
}

TEST(WireReader, TruncationMessageNamesTheShortfall) {
  const std::vector<std::uint8_t> bytes{1, 2, 3};
  WireReader r(bytes);
  (void)r.u16();
  try {
    (void)r.u32();
    FAIL() << "u32 past the end must throw";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(),
                 "truncated packet: need 4 bytes at offset 2, have 1");
  }
}

TEST(WireReader, HugeCountDoesNotWrapTheBoundsCheck) {
  const std::vector<std::uint8_t> bytes{1, 2, 3};
  WireReader r(bytes);
  r.skip(1);
  EXPECT_THROW((void)r.bytes(static_cast<std::size_t>(-1)), ParseError);
  EXPECT_THROW(r.skip(static_cast<std::size_t>(-1)), ParseError);
}

TEST(WireReader, SkipAndOffset) {
  const std::vector<std::uint8_t> bytes{1, 2, 3, 4, 5};
  WireReader r(bytes);
  r.skip(2);
  EXPECT_EQ(r.offset(), 2u);
  EXPECT_EQ(r.u8(), 3);
  EXPECT_THROW(r.skip(5), ParseError);
}

TEST(WireReader, BytesView) {
  const std::vector<std::uint8_t> bytes{9, 8, 7, 6};
  WireReader r(bytes);
  const auto view = r.bytes(2);
  EXPECT_EQ(view[0], 9);
  EXPECT_EQ(view[1], 8);
  EXPECT_EQ(r.rest()[0], 7);
}

TEST(WireReader, Window) {
  const std::vector<std::uint8_t> bytes{1, 2, 3, 4};
  WireReader r(bytes);
  r.skip(3);
  const auto win = r.window(1, 2);
  EXPECT_EQ(win[0], 2);
  EXPECT_EQ(win[1], 3);
  EXPECT_THROW((void)r.window(2, 3), ParseError);
}

}  // namespace
}  // namespace mmlpt::net
