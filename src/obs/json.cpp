#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace hcsched::obs {

namespace {

void dump_value(const JsonValue& v, int indent, int depth, std::string& out);

void append_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

void dump_array(const JsonValue::Array& a, int indent, int depth,
                std::string& out) {
  if (a.empty()) {
    out += "[]";
    return;
  }
  out.push_back('[');
  bool first = true;
  for (const JsonValue& v : a) {
    if (!first) out.push_back(',');
    first = false;
    append_indent(out, indent, depth + 1);
    dump_value(v, indent, depth + 1, out);
  }
  append_indent(out, indent, depth);
  out.push_back(']');
}

void dump_object(const JsonValue::Object& o, int indent, int depth,
                 std::string& out) {
  if (o.empty()) {
    out += "{}";
    return;
  }
  out.push_back('{');
  bool first = true;
  for (const auto& [key, v] : o) {
    if (!first) out.push_back(',');
    first = false;
    append_indent(out, indent, depth + 1);
    out.push_back('"');
    out += json_escape(key);
    out += indent < 0 ? "\":" : "\": ";
    dump_value(v, indent, depth + 1, out);
  }
  append_indent(out, indent, depth);
  out.push_back('}');
}

void dump_value(const JsonValue& v, int indent, int depth, std::string& out) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    out += json_number(v.as_number());
  } else if (v.is_string()) {
    out.push_back('"');
    out += json_escape(v.as_string());
    out.push_back('"');
  } else if (v.is_array()) {
    dump_array(v.as_array(), indent, depth, out);
  } else {
    dump_object(v.as_object(), indent, depth, out);
  }
}

/// Strict recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError("JsonValue::parse: " + what + " at offset " +
                         std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  /// `depth` counts the arrays and objects around the value; the reader
  /// recurses once per level, so the limit bounds its stack on any input.
  JsonValue parse_value(std::size_t depth = 0) {
    skip_ws();
    const char c = peek();
    if ((c == '{' || c == '[') && depth == JsonValue::kMaxDepth) {
      fail("nesting deeper than " + std::to_string(JsonValue::kMaxDepth));
    }
    switch (c) {
      case '{':
        return parse_object(depth + 1);
      case '[':
        return parse_array(depth + 1);
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue(nullptr);
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{');
    JsonValue::Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(std::move(members));
    }
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[');
    JsonValue::Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // Encode the BMP code point as UTF-8 (surrogate pairs are not
          // produced by this repo's emitter and are rejected).
          if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate \\u escape");
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || ptr != text_.data() + pos_) fail("bad number");
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (!v) {
    throw std::out_of_range("JsonValue::at: no member '" + std::string(key) +
                            "'");
  }
  return *v;
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_value(*this, indent, 0, out);
  return out;
}

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_number(double d) {
  if (!std::isfinite(d)) return "null";  // JSON has no Inf/NaN
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    return std::to_string(static_cast<long long>(d));
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, d);
  if (ec != std::errc{}) return "0";
  return std::string(buf, ptr);
}

}  // namespace hcsched::obs
