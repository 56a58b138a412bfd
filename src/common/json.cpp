#include "common/json.hpp"

#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <stdexcept>

namespace impress::common {

namespace {

void dump_number(double d, std::string& out) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no inf/nan
    return;
  }
  append_finite_number(d, out);
}

class Parser {
 public:
  /// Maximum container nesting. parse_value recurses per level, so without
  /// a cap a short hostile input ("[[[[...") overflows the stack; 512
  /// matches common parsers and is far beyond any document we emit.
  static constexpr int kMaxDepth = 512;

  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() const {
    if (pos_ >= text_.size())
      throw std::invalid_argument("json: unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    switch (peek()) {
      case '{': {
        if (++depth_ > kMaxDepth) fail("nesting too deep");
        Json v = parse_object();
        --depth_;
        return v;
      }
      case '[': {
        if (++depth_ > kMaxDepth) fail("nesting too deep");
        Json v = parse_array();
        --depth_;
        return v;
      }
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      obj.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(obj));
    }
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      skip_ws();
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u digit");
            }
            // Encode the code point as UTF-8 (BMP only; surrogate pairs
            // are stored as-is, which round-trips our own output).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    double value = 0.0;
    const auto* first = text_.data() + start;
    const auto* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::result_out_of_range && ptr == last && first != last) {
      // from_chars reports ERANGE for subnormals (strtod-backed libstdc++
      // does, and glibc strtod sets ERANGE on any denormal result), which
      // would make us reject numbers our own dump() emits. Re-parse with
      // strtod and accept any finite result; true overflow stays an error.
      const std::string buf(first, last);
      char* end = nullptr;
      const double v = std::strtod(buf.c_str(), &end);
      if (end == buf.c_str() + buf.size() && std::isfinite(v))
        return Json(v);
      pos_ = start;
      fail("number out of range");
    }
    if (ec != std::errc{} || ptr != last || first == last) {
      pos_ = start;
      fail("bad number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void dump_impl(const Json& v, std::string& out, int indent, int depth);

void dump_container_sep(std::string& out, int indent, int depth) {
  if (indent > 0) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
  }
}

void dump_impl(const Json& v, std::string& out, int indent, int depth) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    dump_number(v.as_number(), out);
  } else if (v.is_string()) {
    append_json_string(v.as_string(), out);
  } else if (v.is_array()) {
    const auto& arr = v.as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i) out += ',';
      dump_container_sep(out, indent, depth + 1);
      dump_impl(arr[i], out, indent, depth + 1);
    }
    dump_container_sep(out, indent, depth);
    out += ']';
  } else {
    const auto& obj = v.as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, val] : obj) {
      if (!first) out += ',';
      first = false;
      dump_container_sep(out, indent, depth + 1);
      append_json_string(key, out);
      out += indent > 0 ? ": " : ":";
      dump_impl(val, out, indent, depth + 1);
    }
    dump_container_sep(out, indent, depth);
    out += '}';
  }
}

}  // namespace

void append_json_string(std::string_view s, std::string& out) {
  out += '"';
  // Bytes that need no escape are copied a run at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        // Other control bytes: a u-escape with four lowercase hex digits.
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u',          '0',
                               '0',  kHex[c >> 4], kHex[c & 0xF]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(s.substr(run));
  out += '"';
}

namespace {

// "%.17g" by exact integer arithmetic. A normal double is x = m·2^e with
// a 53-bit m. If its decimal exponent k = floor(log10 x) lies in
// [-16, 16], the 17 significant digits are D = round(x·10^p) with
// p = 16 - k in [0, 32], and x·10^p = m·5^p·2^(e+p) with m·5^p below
// 2^53·5^32 < 2^128. So one 128-bit product and one shift give D, and
// the shifted-out bits decide the rounding exactly, as printf does.

__extension__ typedef unsigned __int128 Uint128;

constexpr std::uint64_t kTen17 = 100'000'000'000'000'000ULL;

constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536"
    "37383940414243444546474849505152535455565758596061626364656667686970717273"
    "7475767778798081828384858687888990919293949596979899";

constexpr std::array<Uint128, 33> kPow5 = [] {
  std::array<Uint128, 33> pow5{};
  Uint128 v = 1;
  for (Uint128& p : pow5) {
    p = v;
    v *= 5;
  }
  return pow5;
}();

/// round-half-to-even(m·2^e·10^p) for p in [0, 32] into `q`; false if a
/// shift would drop set bits or leave the 128-bit range.
inline bool scaled_round(std::uint64_t m, int e, int p, Uint128& q) {
  const Uint128 n = m * kPow5[static_cast<std::size_t>(p)];
  const int s = -(e + p);  // x·10^p = n·2^-s
  if (s == 0) {
    q = n;
    return true;
  }
  if (s < 0) {
    if (s <= -64 || (n >> (128 + s)) != 0) return false;
    q = n << -s;
    return true;
  }
  if (s >= 128) return false;
  q = n >> s;
  // The shifted-out bits, moved to the top: the half is the top bit alone.
  const Uint128 rest = n << (128 - s);
  const Uint128 half = Uint128{1} << 127;
  if (rest > half || (rest == half && (q & 1) != 0)) ++q;
  return true;
}

/// Writes the 8 decimal digits of v < 10^8 at `out`, two at a time.
void write8(std::uint32_t v, char* out) {
  const std::uint32_t high = v / 10000;
  const std::uint32_t low = v % 10000;
  std::memcpy(out, kDigitPairs + 2 * (high / 100), 2);
  std::memcpy(out + 2, kDigitPairs + 2 * (high % 100), 2);
  std::memcpy(out + 4, kDigitPairs + 2 * (low / 100), 2);
  std::memcpy(out + 6, kDigitPairs + 2 * (low % 100), 2);
}

/// Writes "%.17g" of a positive finite `x` at `out` and returns the end,
/// or nullptr when x is outside the exact window. Needs 40 bytes at
/// `out`: the digits are moved in fixed 16- and 17-byte blocks.
char* write_g17(double x, char* out) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const int biased = static_cast<int>(bits >> 52);
  if (biased == 0) return nullptr;  // subnormal
  const std::uint64_t m = (bits & ((std::uint64_t{1} << 52) - 1)) |
                          (std::uint64_t{1} << 52);
  const int e = biased - 1075;
  // 2^(biased-1023) <= x < 2^(biased-1022), so floor((biased-1023)·log10 2)
  // is floor(log10 x) or one less, never more. 78913 / 2^18 is log10 2 to
  // six digits, which gives that floor exactly over the window.
  int k = ((biased - 1023) * 78913) >> 18;
  Uint128 d = 0;
  for (;;) {
    if (k < -16 || k > 16 || !scaled_round(m, e, 16 - k, d)) return nullptr;
    if (d < kTen17) break;
    ++k;  // one more integer digit than guessed, or rounding carried
  }

  // The 17 digits of D: 1 + 8 + 8. The zeros after them are only read by
  // the block moves below and land past the returned end.
  char digits[40] = {};
  const auto v = static_cast<std::uint64_t>(d);
  const std::uint64_t top = v / 100'000'000;
  digits[0] = static_cast<char>('0' + top / 100'000'000);
  write8(static_cast<std::uint32_t>(top % 100'000'000), digits + 1);
  write8(static_cast<std::uint32_t>(v % 100'000'000), digits + 9);
  int n = 17;  // significant digits left once trailing zeros go
  while (n > 1 && digits[n - 1] == '0') --n;

  if (k < -4) {  // %e: d.ddde-XX
    out[0] = digits[0];
    out[1] = '.';
    std::memcpy(out + 2, digits + 1, 16);
    out += n > 1 ? n + 1 : 1;
    out[0] = 'e';
    out[1] = '-';
    out[2] = static_cast<char>('0' + -k / 10);
    out[3] = static_cast<char>('0' + -k % 10);
    return out + 4;
  }
  if (k < 0) {  // %f below 1: 0.000ddd
    std::memcpy(out, "0.000", 5);
    std::memcpy(out + 1 - k, digits, 17);
    return out + 1 - k + n;
  }
  // %f: ddd.ddd
  std::memcpy(out, digits, 17);
  if (n <= k + 1) return out + k + 1;
  out[k + 1] = '.';
  std::memcpy(out + k + 2, digits + k + 1, 16);
  return out + n + 1;
}

}  // namespace

void append_finite_number(double d, std::string& out) {
  // The longest text is 24 bytes ("-2.2250738585072014e-308"); write_g17
  // wants 40 bytes past the sign.
  char buf[48];
  char* end = buf;
  if (std::signbit(d)) *end++ = '-';
  const double a = std::fabs(d);
  if (a == std::floor(a) && a < 1e15) {
    // "%.0f": sign and integer digits, "-0" included.
    end = std::to_chars(end, std::end(buf), static_cast<std::uint64_t>(a)).ptr;
  } else if (char* g = write_g17(a, end)) {
    end = g;
  } else {
    // Outside the window (tiny, huge, subnormal): to_chars with an
    // explicit precision formats "as if by printf", so "%.17g".
    end = std::to_chars(buf, std::end(buf), d, std::chars_format::general, 17)
              .ptr;
  }
  out.append(buf, end);
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(*this, out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace impress::common
