#ifndef HOMETS_OBS_JSON_ENCODER_H_
#define HOMETS_OBS_JSON_ENCODER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

// The one JSON writer of the tree: run manifests, --metrics-out, Chrome
// traces, JSON-lines log records, the lint reports and the
// BENCH_*.json artifacts are all written through it, so one value prints
// the same way in every artifact. It owns four rules:
//   - strings: `"` and `\` are backslash-escaped, \n \r \t use their short
//     escapes, every other byte below 0x20 becomes \u00XX, and all other
//     bytes (UTF-8 included) pass through unchanged;
//   - numbers: integers print exactly; doubles print as the shortest text
//     that round-trips (std::to_chars), and NaN/±Inf as `null`;
//   - separators: commas and braces are placed by the encoder, never by the
//     caller;
//   - layout: a document breaks before each member or element at depth 1
//     and 2 (two-space indent) and keeps deeper levels inline, with ": " and
//     ", " separators, and ends with a newline. Single-line mode (the
//     JSON-lines log) never breaks and uses ":" and ",".
namespace homets::obs {

class JsonEncoder {
 public:
  enum class Layout { kDocument, kSingleLine };

  explicit JsonEncoder(Layout layout = Layout::kDocument) : layout_(layout) {}

  JsonEncoder& BeginObject() { return Open('{'); }
  JsonEncoder& EndObject() { return Close('}'); }
  JsonEncoder& BeginArray() { return Open('['); }
  JsonEncoder& EndArray() { return Close(']'); }

  /// Starts an object member; the next value (or container) is its value.
  JsonEncoder& Key(std::string_view key);

  JsonEncoder& Null();

  /// Writes one value, chosen by the argument's type: bool, signed and
  /// unsigned integers, floating point, or anything convertible to a
  /// string_view.
  template <typename T>
  JsonEncoder& Value(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      return Bool(v);
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      return Int(v);
    } else if constexpr (std::is_integral_v<T>) {
      return Uint(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      return Double(v);
    } else {
      return String(v);
    }
  }

  template <typename T>
  JsonEncoder& Member(std::string_view key, const T& v) {
    return Key(key).Value(v);
  }

  const std::string& str() const { return out_; }

 private:
  JsonEncoder& Bool(bool v);
  JsonEncoder& Int(int64_t v);
  JsonEncoder& Uint(uint64_t v);
  JsonEncoder& Double(double v);
  JsonEncoder& String(std::string_view v);
  JsonEncoder& Open(char bracket);
  JsonEncoder& Close(char bracket);
  /// Writes `text` verbatim as the next value.
  JsonEncoder& Literal(std::string_view text);
  template <typename T>
  JsonEncoder& Number(T v);
  /// Separator and line break owed before the next member or element.
  void BeforeItem();
  /// The one JSON string escaper, quotes included.
  void AppendString(std::string_view v);
  bool Breaks(size_t depth) const {
    return layout_ == Layout::kDocument && depth <= 2;
  }

  Layout layout_;
  std::string out_;
  std::vector<bool> has_items_;  ///< one per open container
  bool after_key_ = false;
};

}  // namespace homets::obs

#endif  // HOMETS_OBS_JSON_ENCODER_H_
