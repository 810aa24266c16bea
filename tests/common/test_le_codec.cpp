// The little-endian codec under the daemon frames and the topology
// store: field byte order, length-prefixed strings, and the bounds
// checks that turn every short or overlong input into a ParseError
// naming its format.
#include "common/le_codec.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/error.h"
#include "support/hex.h"

namespace mmlpt {
namespace {

TEST(Crc32, MatchesKnownVectors) {
  // The IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926U);
  EXPECT_EQ(crc32(""), 0x00000000U);
}

TEST(LeCodec, WritesEveryFieldLeastSignificantByteFirst) {
  LeWriter w;
  w.u8(0x01);
  w.u16(0x0302);
  w.u32(0x07060504U);
  w.u64(0x0F0E0D0C0B0A0908ULL);
  w.bytes("xy");
  w.string("ab");
  EXPECT_EQ(testing::to_hex(std::move(w).take()),
            "0102030405060708090a0b0c0d0e0f"
            "7879"
            "020000006162");
}

TEST(LeCodec, ReadsBackWhatTheWriterWrote) {
  LeWriter w;
  w.u8(0xFE);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFU);
  w.u64(0x0123456789ABCDEFULL);
  w.string(std::string("a\0b", 3));
  w.bytes("tail");
  const std::string bytes = std::move(w).take();

  LeReader r(bytes, "test");
  EXPECT_EQ(r.u8(), 0xFE);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFU);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.consumed(), 15u);
  EXPECT_EQ(r.string(), std::string("a\0b", 3));
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_EQ(r.bytes(4), "tail");
  EXPECT_EQ(r.consumed(), bytes.size());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(LeCodec, ShortReadsThrowWithTheCallersContext) {
  LeReader r(std::string_view("\x01\x02\x03", 3), "some format");
  (void)r.bytes(2);
  EXPECT_THROW((void)r.u16(), ParseError);
  EXPECT_THROW((void)r.u32(), ParseError);
  EXPECT_THROW((void)r.u64(), ParseError);
  EXPECT_THROW((void)r.bytes(2), ParseError);
  EXPECT_EQ(r.consumed(), 2u);  // a failed read does not advance
  try {
    (void)r.u16();
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "some format: truncated (2 bytes wanted, 1 left)");
  }
  EXPECT_EQ(r.u8(), 0x03);
}

TEST(LeCodec, StringLongerThanItsInputIsAParseError) {
  // A length prefix claiming 4 GiB over a 6-byte input: refused from
  // the bytes left, with nothing allocated for it.
  LeReader r(std::string_view("\xFF\xFF\xFF\xFFok", 6), "frame payload");
  EXPECT_THROW((void)r.string(), ParseError);
}

TEST(LeCodec, ExpectEndRejectsTrailingBytes) {
  LeReader r("abc", "topology store");
  (void)r.u8();
  try {
    r.expect_end();
    ADD_FAILURE() << "two bytes were left";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "topology store: 2 trailing bytes");
  }
}

}  // namespace
}  // namespace mmlpt
