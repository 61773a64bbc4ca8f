#include "obs/json_encoder.h"

#include <charconv>
#include <cmath>

namespace homets::obs {

void JsonEncoder::BeforeItem() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (has_items_.empty()) return;
  const bool document = layout_ == Layout::kDocument;
  if (has_items_.back()) out_ += ',';
  if (Breaks(has_items_.size())) {
    out_ += '\n';
    out_.append(2 * has_items_.size(), ' ');
  } else if (has_items_.back() && document) {
    out_ += ' ';
  }
  has_items_.back() = true;
}

JsonEncoder& JsonEncoder::Open(char bracket) {
  BeforeItem();
  out_ += bracket;
  has_items_.push_back(false);
  return *this;
}

JsonEncoder& JsonEncoder::Close(char bracket) {
  const bool had_items = has_items_.back();
  has_items_.pop_back();
  if (had_items && Breaks(has_items_.size() + 1)) {
    out_ += '\n';
    out_.append(2 * has_items_.size(), ' ');
  }
  out_ += bracket;
  if (has_items_.empty() && layout_ == Layout::kDocument) out_ += '\n';
  return *this;
}

JsonEncoder& JsonEncoder::Key(std::string_view key) {
  BeforeItem();
  AppendString(key);
  out_ += layout_ == Layout::kDocument ? ": " : ":";
  after_key_ = true;
  return *this;
}

JsonEncoder& JsonEncoder::Literal(std::string_view text) {
  BeforeItem();
  out_ += text;
  return *this;
}

template <typename T>
JsonEncoder& JsonEncoder::Number(T v) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return Literal(std::string_view(buf, static_cast<size_t>(result.ptr - buf)));
}

JsonEncoder& JsonEncoder::Null() { return Literal("null"); }
JsonEncoder& JsonEncoder::Bool(bool v) {
  return Literal(v ? "true" : "false");
}
JsonEncoder& JsonEncoder::Int(int64_t v) { return Number(v); }
JsonEncoder& JsonEncoder::Uint(uint64_t v) { return Number(v); }
JsonEncoder& JsonEncoder::Double(double v) {
  return std::isfinite(v) ? Number(v) : Null();
}

JsonEncoder& JsonEncoder::String(std::string_view v) {
  BeforeItem();
  AppendString(v);
  return *this;
}

void JsonEncoder::AppendString(std::string_view v) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  for (const char c : v) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\r':
        out_ += "\\r";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out_ += "\\u00";
          out_ += kHex[c >> 4];
          out_ += kHex[c & 0xf];
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

}  // namespace homets::obs
