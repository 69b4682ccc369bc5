// Unit tests for globe/util: codec round-trips, varints, RNG determinism.
#include <gtest/gtest.h>

#include <limits>

#include "globe/util/buffer.hpp"
#include "globe/util/rng.hpp"
#include "globe/util/time.hpp"

namespace globe::util {
namespace {

TEST(Buffer, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.14159);
  w.boolean(true);
  w.boolean(false);

  Reader r{BytesView(w.view())};
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.at_end());
}

TEST(Buffer, VarintRoundTrip) {
  const std::uint64_t values[] = {
      0,             1,
      127,           128,
      16383,         16384,
      1'000'000'000, 1'000'000'000'000ULL,
      1'000'000'000'000'000ULL,
      std::numeric_limits<std::uint64_t>::max()};
  Writer w;
  for (auto v : values) w.varint(v);
  Reader r{BytesView(w.view())};
  for (auto v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.at_end());
}

TEST(Buffer, VarintCompactness) {
  Writer w;
  w.varint(5);
  EXPECT_EQ(w.size(), 1u);
  Writer w2;
  w2.varint(300);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Buffer, StringAndBytesRoundTrip) {
  Writer w;
  w.str("hello");
  w.str("");
  w.str(std::string(1000, 'x'));
  Buffer blob = to_buffer("binary\0data");
  w.bytes(BytesView(blob));

  Reader r{BytesView(w.view())};
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string(1000, 'x'));
  EXPECT_EQ(to_string(r.bytes()), to_string(BytesView(blob)));
  EXPECT_TRUE(r.at_end());
}

TEST(Buffer, EmptyStringToBuffer) {
  // Both the empty buffer's data() and an empty view's may be null;
  // the conversion must not hand either to memcpy (UBSan aborts on a
  // null memcpy argument even for zero bytes).
  EXPECT_TRUE(to_buffer("").empty());
  EXPECT_TRUE(to_buffer(std::string_view{}).empty());
}

TEST(Buffer, ReadPastEndThrows) {
  Writer w;
  w.u32(7);
  Reader r{BytesView(w.view())};
  r.u32();
  EXPECT_THROW(r.u8(), CodecError);
}

TEST(Buffer, TruncatedStringThrows) {
  Writer w;
  w.varint(100);  // claims 100 bytes follow
  w.u8('x');
  Reader r{BytesView(w.view())};
  EXPECT_THROW(r.str(), CodecError);
}

TEST(Buffer, MalformedBooleanThrows) {
  Writer w;
  w.u8(7);
  Reader r{BytesView(w.view())};
  EXPECT_THROW(r.boolean(), CodecError);
}

TEST(Buffer, ExpectEndThrowsOnTrailingBytes) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r{BytesView(w.view())};
  r.u8();
  EXPECT_THROW(r.expect_end(), CodecError);
}

TEST(Buffer, OverlongVarintThrows) {
  Buffer b(11, std::byte{0xFF});  // never terminates within 64 bits
  Reader r{BytesView(b)};
  EXPECT_THROW(r.varint(), CodecError);
}

TEST(Buffer, ElevenByteVarintThrows) {
  // Ten continuation bytes already carry 70 bits; a terminator after
  // them is still too long.
  Buffer b(10, std::byte{0x80});
  b.push_back(std::byte{0x00});
  Reader r{BytesView(b)};
  EXPECT_THROW(r.varint(), CodecError);
}

TEST(Buffer, TenthVarintByteHoldsOneBit) {
  Buffer max(9, std::byte{0xFF});
  max.push_back(std::byte{0x01});
  Reader ok{BytesView(max)};
  EXPECT_EQ(ok.varint(), std::numeric_limits<std::uint64_t>::max());
  Buffer over(9, std::byte{0xFF});
  over.push_back(std::byte{0x02});  // bit 64
  Reader r{BytesView(over)};
  EXPECT_THROW(r.varint(), CodecError);
}

TEST(Buffer, TruncatedVarintThrows) {
  const Buffer b{std::byte{0x80}, std::byte{0x80}};  // no terminator
  Reader r{BytesView(b)};
  EXPECT_THROW(r.varint(), CodecError);
}

TEST(Buffer, NarrowVarintsRejectWiderValues) {
  Writer w;
  w.varint(std::numeric_limits<std::uint32_t>::max());
  w.varint(std::uint64_t{1} << 32);
  w.varint(std::numeric_limits<std::uint16_t>::max());
  w.varint(std::uint64_t{1} << 16);
  Reader r{BytesView(w.view())};
  EXPECT_EQ(r.varint32(), std::numeric_limits<std::uint32_t>::max());
  EXPECT_THROW(r.varint32(), CodecError);
  EXPECT_EQ(r.varint16(), std::numeric_limits<std::uint16_t>::max());
  EXPECT_THROW(r.varint16(), CodecError);
}

TEST(Buffer, SignedVarintRoundTrip) {
  const std::int64_t values[] = {0, 1, 1'700'000'000'000'000LL, -1,
                                 std::numeric_limits<std::int64_t>::min()};
  Writer w;
  for (auto v : values) w.varint_i64(v);
  EXPECT_EQ(w.size(), 1u + 1u + 8u + 10u + 10u);
  Reader r{BytesView(w.view())};
  for (auto v : values) EXPECT_EQ(r.varint_i64(), v);
  EXPECT_TRUE(r.at_end());
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(99);
  Rng child = parent.fork();
  EXPECT_NE(parent.next(), child.next());
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime t0(1000);
  const SimTime t1 = t0 + SimDuration::millis(2);
  EXPECT_EQ(t1.count_micros(), 3000);
  EXPECT_EQ((t1 - t0).count_micros(), 2000);
  EXPECT_LT(t0, t1);
}

TEST(SimTimeTest, DurationConversions) {
  EXPECT_EQ(SimDuration::seconds(2).count_micros(), 2'000'000);
  EXPECT_EQ(SimDuration::millis(3).count_micros(), 3'000);
  EXPECT_DOUBLE_EQ(SimDuration::millis(1500).count_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(SimDuration::micros(2500).count_millis(), 2.5);
}

}  // namespace
}  // namespace globe::util
