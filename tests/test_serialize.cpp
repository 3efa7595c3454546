#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace mpte {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  Serializer s;
  s.write<std::uint64_t>(0xdeadbeefcafeull);
  s.write<double>(3.25);
  s.write<std::int32_t>(-7);
  Deserializer d(s.bytes());
  EXPECT_EQ(d.read<std::uint64_t>(), 0xdeadbeefcafeull);
  EXPECT_EQ(d.read<double>(), 3.25);
  EXPECT_EQ(d.read<std::int32_t>(), -7);
  EXPECT_TRUE(d.exhausted());
}

TEST(Serialize, VectorRoundTrip) {
  Serializer s;
  const std::vector<double> values{1.0, -2.5, 1e-300, 1e300};
  s.write_vector(values);
  Deserializer d(s.bytes());
  EXPECT_EQ(d.read_vector<double>(), values);
}

TEST(Serialize, EmptyVectorRoundTrip) {
  Serializer s;
  s.write_vector(std::vector<std::uint64_t>{});
  Deserializer d(s.bytes());
  EXPECT_TRUE(d.read_vector<std::uint64_t>().empty());
  EXPECT_TRUE(d.exhausted());
}

TEST(Serialize, StringRoundTrip) {
  Serializer s;
  s.write_string("hello");
  s.write_string("");
  s.write_string(std::string("\0binary\0", 8));
  Deserializer d(s.bytes());
  EXPECT_EQ(d.read_string(), "hello");
  EXPECT_EQ(d.read_string(), "");
  EXPECT_EQ(d.read_string(), std::string("\0binary\0", 8));
}

TEST(Serialize, MixedSequenceRoundTrip) {
  Serializer s;
  s.write<std::uint32_t>(99);
  s.write_vector(std::vector<std::int64_t>{-1, 0, 1});
  s.write_string("tail");
  Deserializer d(s.bytes());
  EXPECT_EQ(d.read<std::uint32_t>(), 99u);
  EXPECT_EQ((d.read_vector<std::int64_t>()),
            (std::vector<std::int64_t>{-1, 0, 1}));
  EXPECT_EQ(d.read_string(), "tail");
  EXPECT_TRUE(d.exhausted());
}

TEST(Serialize, SizeTracksBytes) {
  Serializer s;
  EXPECT_EQ(s.size(), 0u);
  s.write<std::uint64_t>(1);
  EXPECT_EQ(s.size(), 8u);
  s.write_vector(std::vector<double>{1.0, 2.0});
  EXPECT_EQ(s.size(), 8u + 8u + 16u);
}

TEST(Serialize, TakeMovesBuffer) {
  Serializer s;
  s.write<std::uint64_t>(5);
  auto bytes = s.take();
  EXPECT_EQ(bytes.size(), 8u);
  EXPECT_EQ(s.size(), 0u);
}

TEST(Deserialize, OverreadThrows) {
  Serializer s;
  s.write<std::uint32_t>(1);
  Deserializer d(s.bytes());
  (void)d.read<std::uint32_t>();
  EXPECT_THROW((void)d.read<std::uint32_t>(), MpteError);
}

TEST(Deserialize, TruncatedVectorThrows) {
  Serializer s;
  s.write<std::uint64_t>(1000);  // claims 1000 elements, provides none
  Deserializer d(s.bytes());
  EXPECT_THROW((void)d.read_vector<double>(), MpteError);
}

TEST(Deserialize, RemainingCountsDown) {
  Serializer s;
  s.write<std::uint64_t>(1);
  s.write<std::uint64_t>(2);
  Deserializer d(s.bytes());
  EXPECT_EQ(d.remaining(), 16u);
  (void)d.read<std::uint64_t>();
  EXPECT_EQ(d.remaining(), 8u);
}

struct PodRecord {
  std::uint64_t a;
  std::uint32_t b;
  std::uint32_t c;
};

TEST(Serialize, PodStructRoundTrip) {
  Serializer s;
  s.write(PodRecord{1, 2, 3});
  s.write_vector(std::vector<PodRecord>{{4, 5, 6}, {7, 8, 9}});
  Deserializer d(s.bytes());
  const auto r = d.read<PodRecord>();
  EXPECT_EQ(r.a, 1u);
  EXPECT_EQ(r.b, 2u);
  EXPECT_EQ(r.c, 3u);
  const auto v = d.read_vector<PodRecord>();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1].c, 9u);
}

TEST(Deserialize, HostileLengthPrefixesThrowBeforeAllocating) {
  // 2^61 + 1 records of 8 or 16 bytes wrap to 8 or 16 bytes, and 2^64 - 1
  // bytes wrap the cursor: each must throw MpteError, never reach the
  // allocator, even with 40 real bytes behind the prefix.
  for (const std::uint64_t count :
       {(std::uint64_t{1} << 61) + 1, ~std::uint64_t{0}}) {
    Serializer s;
    s.write(count);
    for (int i = 0; i < 5; ++i) s.write<std::uint64_t>(0);
    Deserializer doubles(s.bytes());
    EXPECT_THROW((void)doubles.read_vector<double>(), MpteError) << count;
    Deserializer records(s.bytes());
    EXPECT_THROW((void)records.read_vector<PodRecord>(), MpteError) << count;
    Deserializer bytes(s.bytes());
    EXPECT_THROW((void)bytes.read_vector<std::uint8_t>(), MpteError)
        << count;
    Deserializer string(s.bytes());
    EXPECT_THROW((void)string.read_string(), MpteError) << count;
  }
}

TEST(Deserialize, ReadCountBoundsByTheBytesLeft) {
  Serializer s;
  s.write<std::uint64_t>(2);
  s.write<std::uint64_t>(0);
  s.write<std::uint64_t>(0);
  Deserializer fits(s.bytes());
  EXPECT_EQ(fits.read_count(8), 2u);
  Deserializer too_long(s.bytes());
  EXPECT_THROW((void)too_long.read_count(9), MpteError);
}

}  // namespace
}  // namespace mpte
