#include "common/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace impress::common {
namespace {

TEST(Json, DefaultIsNull) {
  Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.dump(), "null");
}

TEST(Json, Scalars) {
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-3.5).dump(), "-3.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json(std::size_t{7}).dump(), "7");
}

TEST(Json, IntegralDoublesPrintWithoutDecimals) {
  EXPECT_EQ(Json(100.0).dump(), "100");
  EXPECT_EQ(Json(0.0).dump(), "0");
}

TEST(Json, NonFiniteBecomesNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b\\c\nd\te").dump(), "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, ArraysAndObjects) {
  Json j(Json::Array{Json(1), Json("two"), Json(nullptr)});
  EXPECT_EQ(j.dump(), "[1,\"two\",null]");
  Json obj(Json::Object{{"b", Json(2)}, {"a", Json(1)}});
  // std::map orders keys.
  EXPECT_EQ(obj.dump(), "{\"a\":1,\"b\":2}");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json(Json::Array{}).dump(), "[]");
  EXPECT_EQ(Json(Json::Object{}).dump(), "{}");
}

TEST(Json, PrettyPrint) {
  Json obj(Json::Object{{"a", Json(Json::Array{Json(1), Json(2)})}});
  EXPECT_EQ(obj.dump(2), "{\n  \"a\": [\n    1,\n    2\n  ]\n}");
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-2e3").as_number(), -2000.0);
  EXPECT_EQ(Json::parse("\"x\"").as_string(), "x");
}

TEST(Json, ParseNested) {
  const auto j = Json::parse(R"({"a": [1, {"b": "c"}], "d": null})");
  EXPECT_EQ(j.size(), 2u);
  EXPECT_DOUBLE_EQ(j.at("a").at(0).as_number(), 1.0);
  EXPECT_EQ(j.at("a").at(1).at("b").as_string(), "c");
  EXPECT_TRUE(j.at("d").is_null());
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("zzz"));
}

TEST(Json, ParseWhitespaceTolerant) {
  const auto j = Json::parse("  {\n\t\"a\" :\r [ ] }  ");
  EXPECT_TRUE(j.at("a").is_array());
}

TEST(Json, ParseStringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\nb\t\"\\")").as_string(), "a\nb\t\"\\");
  EXPECT_EQ(Json::parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW((void)Json::parse(""), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("{"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("tru"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("1 2"), std::invalid_argument);  // trailing
  EXPECT_THROW((void)Json::parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW((void)Json::parse("01x"), std::invalid_argument);
}

TEST(Json, TypeMismatchThrows) {
  const Json j(42);
  EXPECT_THROW((void)j.as_string(), std::bad_variant_access);
  EXPECT_THROW((void)j.at("k"), std::bad_variant_access);
}

TEST(Json, RoundTripComplexDocument) {
  Json doc(Json::Object{
      {"name", Json("IM-RP")},
      {"values", Json(Json::Array{Json(1.5), Json(-0.25), Json(1e-9)})},
      {"nested", Json(Json::Object{{"flag", Json(true)},
                                   {"text", Json("line1\nline2")}})},
      {"empty_arr", Json(Json::Array{})},
      {"empty_obj", Json(Json::Object{})},
  });
  for (int indent : {0, 2, 4}) {
    const auto parsed = Json::parse(doc.dump(indent));
    EXPECT_EQ(parsed, doc) << "indent=" << indent;
  }
}

// Property fuzz: randomly generated documents round-trip through dump()
// and parse() at every indentation.
class JsonFuzz : public ::testing::TestWithParam<std::uint64_t> {};

namespace fuzz {

Json random_value(std::uint64_t& state, int depth) {
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state >> 33);
  };
  const auto kind = next() % (depth > 3 ? 4u : 6u);
  switch (kind) {
    case 0: return Json(nullptr);
    case 1: return Json(next() % 2 == 0);
    case 2:
      return Json((static_cast<double>(next()) - 2147483648.0) / 1024.0);
    case 3: {
      std::string s;
      const auto len = next() % 12;
      for (std::uint32_t i = 0; i < len; ++i)
        s.push_back(static_cast<char>(' ' + next() % 94));
      return Json(std::move(s));
    }
    case 4: {
      Json::Array a;
      const auto len = next() % 5;
      for (std::uint32_t i = 0; i < len; ++i)
        a.push_back(random_value(state, depth + 1));
      return Json(std::move(a));
    }
    default: {
      Json::Object o;
      const auto len = next() % 5;
      for (std::uint32_t i = 0; i < len; ++i)
        o.emplace("k" + std::to_string(next() % 100),
                  random_value(state, depth + 1));
      return Json(std::move(o));
    }
  }
}

}  // namespace fuzz

TEST_P(JsonFuzz, RoundTripAnyDocument) {
  std::uint64_t state = GetParam() * 0x9e3779b97f4a7c15ULL + 1;
  for (int i = 0; i < 30; ++i) {
    const Json doc = fuzz::random_value(state, 0);
    for (int indent : {0, 2}) {
      const Json back = Json::parse(doc.dump(indent));
      EXPECT_EQ(back, doc);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz, ::testing::Range<std::uint64_t>(1, 7));

// parse(dump(x)) must return x's exact bit pattern for every finite
// double — checkpoints (core/checkpoint.hpp) round rng offsets, clock
// values and metrics through JSON and rely on this for bit-exact resume.
void expect_number_round_trip(double x) {
  const Json back = Json::parse(Json(x).dump());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.as_number()),
            std::bit_cast<std::uint64_t>(x))
      << "value " << x << " dumped as " << Json(x).dump();
}

TEST(Json, NumberRoundTripNegativeZero) {
  expect_number_round_trip(-0.0);
  EXPECT_TRUE(std::signbit(Json::parse(Json(-0.0).dump()).as_number()));
}

TEST(Json, NumberRoundTripSubnormals) {
  expect_number_round_trip(std::numeric_limits<double>::denorm_min());
  expect_number_round_trip(-std::numeric_limits<double>::denorm_min());
  expect_number_round_trip(std::numeric_limits<double>::min() / 2.0);
  expect_number_round_trip(
      std::bit_cast<double>(std::uint64_t{0x000fffffffffffffULL}));
}

TEST(Json, NumberRoundTripExtremes) {
  expect_number_round_trip(std::numeric_limits<double>::max());
  expect_number_round_trip(std::numeric_limits<double>::min());
  expect_number_round_trip(std::numeric_limits<double>::epsilon());
  expect_number_round_trip(5e-324);
  expect_number_round_trip(0.1);
  expect_number_round_trip(1.0 / 3.0);
}

TEST(Json, NumberRoundTripIntegralStraddle1e15) {
  // The dumper switches between integer-style and %.17g style output
  // around the "integral double" boundary; both sides must survive.
  for (double x : {999999999999999.0, 1e15, 1e15 + 2.0, 9.007199254740992e15,
                   9.007199254740994e15, 1e16, 1.00000000000000016e15})
    expect_number_round_trip(x);
}

TEST(Json, NumberRoundTripRandomBitPatterns) {
  // Deterministic xorshift sweep over raw bit patterns, skipping
  // non-finite encodings (those intentionally dump as null).
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  int tested = 0;
  while (tested < 500) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const double x = std::bit_cast<double>(state);
    if (!std::isfinite(x)) continue;
    expect_number_round_trip(x);
    ++tested;
  }
}

// The round-trip tests above would still pass if dump() switched to
// shortest round-trip text, which would change the bytes of every
// checkpoint, session dump and trace file. This pins the text itself to
// printf: "%.0f" for integral values below 1e15, "%.17g" for the rest.
std::string printf_number_text(double x) {
  char buf[64];
  if (x == std::floor(x) && std::fabs(x) < 1e15)
    std::snprintf(buf, sizeof buf, "%.0f", x);
  else
    std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

TEST(Json, NumberTextMatchesPrintf) {
  int mismatches = 0;
  const auto check = [&](double x) {
    const std::string text = Json(x).dump();
    if (text == printf_number_text(x)) return;
    if (++mismatches <= 10)
      ADD_FAILURE() << "bits 0x" << std::hex
                    << std::bit_cast<std::uint64_t>(x) << " dumped as "
                    << text << ", printf gives " << printf_number_text(x);
  };

  for (double x :
       {0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::bit_cast<double>(std::uint64_t{0x000fffffffffffffULL}),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(), 1e21, 1e22, -1e21, -1e22,
        999999999999999.0, 1e15, -1e15, 1e15 + 2.0})
    check(x);
  for (double edge : {1e15, -1e15}) {
    check(std::nextafter(edge, 0.0));
    check(std::nextafter(edge, 2.0 * edge));
  }

  // Seeded xorshift over raw bit patterns; non-finite encodings dump as
  // null and are covered by NonFiniteBecomesNull.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (int tested = 0; tested < 1'000'000;) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const double x = std::bit_cast<double>(state);
    if (!std::isfinite(x)) continue;
    check(x);
    ++tested;
  }

  // CA coordinates, the bulk of every checkpoint's fold-cache entries.
  Rng rng(7);
  for (int i = 0; i < 200'000; ++i) check(rng.uniform(-200.0, 200.0));

  EXPECT_EQ(mismatches, 0);
}

// append_finite_number writes "%.17g" with its own integer kernel when
// the decimal exponent k of x lies in [-16, 16] (x normal), and with the
// C++ library elsewhere. Few of NumberTextMatchesPrintf's raw bit
// patterns land in that window, so these cases aim at it and at its
// edges. Each value is checked with both signs.
TEST(Json, NumberKernelWindowMatchesPrintf) {
  int mismatches = 0;
  const auto check = [&](double x) {
    for (const double v : {x, -x}) {
      const std::string text = Json(v).dump();
      if (text == printf_number_text(v)) continue;
      if (++mismatches <= 10)
        ADD_FAILURE() << "bits 0x" << std::hex
                      << std::bit_cast<std::uint64_t>(v) << " dumped as "
                      << text << ", printf gives " << printf_number_text(v);
    }
  };
  std::uint64_t state = 0x243f6a8885a308d3ULL;
  const auto next = [&] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  // Random mantissas at every binary exponent of the window, and a few
  // exponents past each end where the library takes over.
  for (std::uint64_t biased = 1023 - 62; biased <= 1023 + 62; ++biased)
    for (int i = 0; i < 2000; ++i)
      check(std::bit_cast<double>((biased << 52) |
                                  (next() & ((std::uint64_t{1} << 52) - 1))));

  // Three ulps either side of each power of ten. These hold the switch
  // points of %g (1e-5 and 1e-4 between exponent and fixed form, 1e16
  // and 1e17 at the kernel's upper edge) and the one double in the
  // window whose 17 digits carry into a new decade: 1e-14 lies below
  // 10^-14 and rounds up to it.
  for (int k = -17; k <= 18; ++k) {
    const double p = std::strtod(("1e" + std::to_string(k)).c_str(), nullptr);
    check(p);
    double below = p;
    double above = p;
    for (int i = 0; i < 3; ++i) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 2.0 * p);
      check(below);
      check(above);
    }
  }
  EXPECT_EQ(Json(1e-14).dump(), "1e-14");

  // Exact half-way ties, which printf rounds to even: with odd m and
  // m·5^(16-k) in [2e16, 2e17), x = m·2^(k-17) is (2D+1)/2·10^(k-16) with
  // a 17-digit D, i.e. exactly 18 significant digits ending in 5. Below
  // k = -8 no integer m fits, so no double is such a tie.
  int ties = 0;
  int candidates = 0;
  for (int k = -8; k <= 15; ++k) {
    const double pow5 = std::pow(5.0, 16 - k);
    const double lo = std::ceil(2e16 / pow5);
    const double hi = std::min(std::ceil(2e17 / pow5), std::ldexp(1.0, 53));
    for (int i = 0; i < 200; ++i) {
      const auto span = static_cast<std::uint64_t>(hi - lo);
      const std::uint64_t m =
          (static_cast<std::uint64_t>(lo) + next() % span) | 1;
      const double x = std::ldexp(static_cast<double>(m), k - 17);
      check(x);
      // Exact decimal expansion: 18th significant digit 5, then zeros.
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.40e", x);
      const std::string digits = std::string(1, buf[0]) + (buf + 2);
      ++candidates;
      if (digits[17] == '5' &&
          digits.find_first_not_of('0', 18) == digits.find('e'))
        ++ties;
    }
  }
  EXPECT_GE(ties, candidates * 9 / 10);

  // Trailing zeros stripped, and the point dropped when nothing follows.
  for (const double x : {0.5, 1.5, 0.125, 123.25, 3e-5, 2.5e-4, 1e15 + 0.5,
                         1e16, 2e16, 1e-16, 1.25e-16})
    check(x);
  EXPECT_EQ(Json(-0.0).dump(), "-0");
  EXPECT_EQ(Json(1e15 + 0.25).dump(), "1000000000000000.2");   // tie, even
  EXPECT_EQ(Json(1e15 + 0.75).dump(), "1000000000000000.8");   // tie, even
  EXPECT_EQ(Json(3e-5).dump(), "3.0000000000000001e-05");
  EXPECT_EQ(mismatches, 0);
}

TEST(Json, EqualityIsDeep) {
  const auto a = Json::parse(R"({"x":[1,2,{"y":true}]})");
  const auto b = Json::parse(R"({ "x" : [ 1, 2, { "y" : true } ] })");
  EXPECT_EQ(a, b);
  const auto c = Json::parse(R"({"x":[1,2,{"y":false}]})");
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace impress::common
