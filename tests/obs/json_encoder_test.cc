#include "obs/json_encoder.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/json.h"

namespace homets::obs {
namespace {

std::string Encode(std::string_view s) {
  JsonEncoder out(JsonEncoder::Layout::kSingleLine);
  out.Value(s);
  return out.str();
}

std::string Encode(double v) {
  JsonEncoder out(JsonEncoder::Layout::kSingleLine);
  out.Value(v);
  return out.str();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(JsonEncoderTest, EscapesControlBytesAndPassesUtf8Through) {
  EXPECT_EQ(Encode("a\"b"), R"("a\"b")");
  EXPECT_EQ(Encode("a\\b"), R"("a\\b")");
  EXPECT_EQ(Encode("a\nb"), R"("a\nb")");
  EXPECT_EQ(Encode(std::string_view("\x01", 1)), R"("\u0001")");
  EXPECT_EQ(Encode(std::string_view("\x1f", 1)), R"("\u001f")");
  const std::string utf8 = "gr\xc3\xbc\xc3\x9f \xe2\x82\xac";  // "grüß €"
  EXPECT_EQ(Encode(utf8), "\"" + utf8 + "\"");

  const std::string all = "\"\\\n\x01\x1f" + utf8;
  const auto parsed = ParseJson(Encode(all));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value(), all);
}

TEST(JsonEncoderTest, DoublesRoundTripBitExactly) {
  for (const double v : {0.1, 1e-300, -0.0, 1.0 / 3.0, 123456789.125}) {
    const std::string text = Encode(v);
    const auto parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << text;
    ASSERT_TRUE(parsed->is_number()) << text;
    EXPECT_TRUE(SameBits(parsed->number_value(), v)) << text;
  }
  EXPECT_EQ(Encode(0.1), "0.1");
}

TEST(JsonEncoderTest, NonFiniteDoublesAreNull) {
  EXPECT_EQ(Encode(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(Encode(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(Encode(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonEncoderTest, IntegersAreExact) {
  JsonEncoder out(JsonEncoder::Layout::kSingleLine);
  out.BeginArray()
      .Value(std::numeric_limits<int64_t>::min())
      .Value(std::numeric_limits<uint64_t>::max())
      .EndArray();
  EXPECT_EQ(out.str(), "[-9223372036854775808,18446744073709551615]");
}

TEST(JsonEncoderTest, EmptyAndNestedContainers) {
  JsonEncoder out;
  out.BeginObject()
      .Key("empty_object")
      .BeginObject()
      .EndObject()
      .Key("empty_array")
      .BeginArray()
      .EndArray()
      .Key("rows")
      .BeginArray()
      .BeginObject()
      .Member("a", 1)
      .Key("b")
      .BeginArray()
      .Value(true)
      .Null()
      .EndArray()
      .EndObject()
      .EndArray()
      .Member("s", "x")
      .EndObject();
  // Depth 1 and 2 break onto their own lines; depth 3 stays inline.
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"empty_object\": {},\n"
            "  \"empty_array\": [],\n"
            "  \"rows\": [\n"
            "    {\"a\": 1, \"b\": [true, null]}\n"
            "  ],\n"
            "  \"s\": \"x\"\n"
            "}\n");
  const auto parsed = ParseJson(out.str());
  ASSERT_TRUE(parsed.ok()) << out.str();
  const JsonValue* rows = parsed->Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array_items().size(), 1u);
  EXPECT_EQ(rows->array_items()[0].NumberOr("a", 0), 1);
  EXPECT_TRUE(parsed->Find("empty_object")->object_items().empty());
}

TEST(JsonEncoderTest, SingleLineModeNeverBreaks) {
  JsonEncoder out(JsonEncoder::Layout::kSingleLine);
  out.BeginObject()
      .Member("msg", "two\nlines")
      .Key("outer")
      .BeginObject()
      .Key("inner")
      .BeginArray()
      .Value(1)
      .Value(2.5)
      .EndArray()
      .EndObject()
      .EndObject();
  EXPECT_EQ(out.str().find('\n'), std::string::npos) << out.str();
  EXPECT_EQ(out.str(), R"({"msg":"two\nlines","outer":{"inner":[1,2.5]}})");
  EXPECT_TRUE(ParseJson(out.str()).ok());
}

}  // namespace
}  // namespace homets::obs
